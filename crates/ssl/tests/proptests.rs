//! Property-based tests for the SSL losses and methods.

use calibre_ssl::{
    create_method, neg_cosine, nt_xent, sinkhorn, ssl_step, ssl_step_in, SslConfig, SslKind,
    TwoViewBatch,
};
use calibre_tensor::gradcheck::check_gradient;
use calibre_tensor::nn::Module;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::{rng, Graph, Matrix, StepArena};
use proptest::prelude::*;

fn views(n: usize, d: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (
        prop::collection::vec(-2.0f32..2.0, n * d),
        prop::collection::vec(-2.0f32..2.0, n * d),
    )
        .prop_map(move |(a, b)| (Matrix::from_vec(n, d, a), Matrix::from_vec(n, d, b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn nt_xent_is_finite_and_nonnegative((a, b) in views(6, 8), tau in 0.1f32..2.0) {
        let mut g = Graph::new();
        let an = g.leaf(a);
        let bn = g.constant(b);
        let loss = nt_xent(&mut g, an, bn, tau);
        let v = g.value(loss).get(0, 0);
        prop_assert!(v.is_finite() && v >= 0.0, "loss {v}");
        g.backward(loss);
        prop_assert!(g.grad(an).unwrap().all_finite());
    }

    #[test]
    fn nt_xent_gradient_matches_finite_differences((a, b) in views(4, 6), tau in 0.3f32..1.0) {
        // Both views are rows of the one checked leaf, so the check covers
        // the gradient through h_e and h_o together.
        let x = a.concat_rows(&b);
        let build = |g: &mut Graph, xn| {
            let h_e = g.gather_rows(xn, &[0, 1, 2, 3]);
            let h_o = g.gather_rows(xn, &[4, 5, 6, 7]);
            nt_xent(g, h_e, h_o, tau)
        };
        let report = check_gradient(&x, 1e-2, build);
        prop_assert!(report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn neg_cosine_gradient_matches_finite_differences((a, b) in views(4, 6)) {
        // BYOL and SimSiam's objective. As above, prediction and target are
        // rows of one leaf, so the check covers the gradient through both
        // row normalizations.
        let x = a.concat_rows(&b);
        let build = |g: &mut Graph, xn| {
            let p = g.gather_rows(xn, &[0, 1, 2, 3]);
            let t = g.gather_rows(xn, &[4, 5, 6, 7]);
            neg_cosine(g, p, t)
        };
        let report = check_gradient(&x, 1e-2, build);
        prop_assert!(report.max_grad > 1e-3 && report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn nt_xent_perfect_alignment_approaches_lower_bound((a, _) in views(8, 8)) {
        // With identical views the positive has maximal similarity; the loss
        // must be below the uniform-distribution level ln(2N-1).
        let mut g = Graph::new();
        let an = g.constant(a.clone());
        let bn = g.constant(a.map(|v| v + 1e-4));
        let loss = nt_xent(&mut g, an, bn, 0.5);
        let v = g.value(loss).get(0, 0);
        let uniform = (2.0f32 * 8.0 - 1.0).ln();
        prop_assert!(v < uniform, "aligned loss {v} >= uniform {uniform}");
    }

    #[test]
    fn neg_cosine_is_bounded((a, b) in views(5, 6)) {
        let mut g = Graph::new();
        let an = g.leaf(a);
        let bn = g.constant(b);
        let loss = neg_cosine(&mut g, an, bn);
        let v = g.value(loss).get(0, 0);
        prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&v), "neg cosine {v}");
    }

    #[test]
    fn sinkhorn_output_is_row_stochastic(
        scores in prop::collection::vec(-3.0f32..3.0, 10 * 4),
        eps in 0.05f32..1.0,
        iters in 1usize..8,
    ) {
        let m = Matrix::from_vec(10, 4, scores);
        let q = sinkhorn(&m, eps, iters);
        for r in 0..10 {
            let sum: f32 = q.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-2, "row {r} sums to {sum}");
            prop_assert!(q.row(r).iter().all(|&v| v >= 0.0 && v.is_finite()));
        }
    }

    #[test]
    fn every_method_step_is_finite_and_moves_params(
        kind_idx in 0usize..SslKind::ALL.len(),
        seed in 0u64..200,
    ) {
        let kind = SslKind::ALL[kind_idx];
        let mut method = create_method(kind, SslConfig::for_input(64).with_seed(seed));
        let mut opt = Sgd::new(SgdConfig::with_lr(0.05));
        let mut r = rng::seeded(seed);
        let base = rng::normal_matrix(&mut r, 8, 64, 1.0);
        let va = base.map(|v| v + 0.05);
        let vb = base.map(|v| v - 0.05);
        let before = method.encoder().to_flat();
        let loss = ssl_step(method.as_mut(), &TwoViewBatch::new(&va, &vb), &mut opt);
        prop_assert!(loss.is_finite(), "{kind}: loss {loss}");
        prop_assert!(method.encoder().to_flat() != before, "{kind}: frozen encoder");
        prop_assert!(method.parameters().iter().all(|p| p.all_finite()), "{kind}: NaN params");
    }

    #[test]
    fn arena_recycled_simclr_training_is_bit_identical((va, vb) in views(8, 64), seed in 0u64..100) {
        // A loop of ssl_step_in on one persistent arena must reproduce the
        // fresh-graph ssl_step loop bit for bit: the recycled tape storage is
        // an allocation optimization, never a numeric one.
        let cfg = SslConfig::for_input(64).with_seed(seed);
        let mut fresh = create_method(SslKind::SimClr, cfg.clone());
        let mut pooled = create_method(SslKind::SimClr, cfg);
        let mut opt_fresh = Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9));
        let mut opt_pooled = Sgd::new(SgdConfig::with_lr_momentum(0.05, 0.9));
        let mut arena = StepArena::new();
        let batch = TwoViewBatch::new(&va, &vb);
        for step in 0..3 {
            let lf = ssl_step(fresh.as_mut(), &batch, &mut opt_fresh);
            let lp = ssl_step_in(pooled.as_mut(), &batch, &mut opt_pooled, &mut arena);
            prop_assert_eq!(lf.to_bits(), lp.to_bits(), "loss diverged at step {}", step);
        }
        let fresh_flat = fresh.to_flat();
        let pooled_flat = pooled.to_flat();
        prop_assert_eq!(fresh_flat.len(), pooled_flat.len());
        for (a, b) in fresh_flat.iter().zip(pooled_flat.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "params diverged: {} vs {}", a, b);
        }
    }

    #[test]
    fn encoder_width_is_architecture_invariant(kind_idx in 0usize..SslKind::ALL.len()) {
        let kind = SslKind::ALL[kind_idx];
        let cfg = SslConfig::for_input(64);
        let method = create_method(kind, cfg.clone());
        prop_assert_eq!(method.encoder().input_dim(), 64);
        prop_assert_eq!(method.encoder().output_dim(), cfg.repr_dim());
    }
}
