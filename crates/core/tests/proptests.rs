//! Property-based tests for the Calibre loss composition.

use calibre::{calibre_loss, divergence_rate, CalibreConfig};
use calibre_ssl::{SimClr, SslConfig, SslGraph, SslMethod, TwoViewBatch};
use calibre_tensor::gradcheck::check_gradient;
use calibre_tensor::nn::{gradients, Binding};
use calibre_tensor::{rng, Graph, Matrix, Node};
use proptest::prelude::*;

fn toy_graph(seed: u64, n: usize) -> calibre_ssl::SslGraph {
    let method = SimClr::new(SslConfig::for_input(64));
    let mut r = rng::seeded(seed);
    let base = rng::normal_matrix(&mut r, n, 64, 1.0);
    let va = base.map(|v| v + 0.05);
    let vb = base.map(|v| v - 0.05);
    method.build_graph(&TwoViewBatch::new(&va, &vb))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn total_loss_is_exact_composition(
        seed in 0u64..200,
        alpha in 0.0f32..2.0,
        k in 2usize..12,
        kmeans_seed in 0u64..50,
    ) {
        let mut ssl_graph = toy_graph(seed, 12);
        let config = CalibreConfig { alpha, num_prototypes: k, ..Default::default() };
        let loss = calibre_loss(&mut ssl_graph, &config, kmeans_seed);
        let total = ssl_graph.graph.value(loss.total).get(0, 0);
        let expected = loss.ssl_loss + alpha * (loss.l_n + loss.l_p);
        prop_assert!((total - expected).abs() < 1e-3,
            "total {total} != l_s {} + α({} + {})", loss.ssl_loss, loss.l_n, loss.l_p);
        prop_assert!(loss.divergence >= 0.0 && loss.divergence.is_finite());
    }

    #[test]
    fn gradients_are_finite_for_any_configuration(
        seed in 0u64..100,
        use_ln in any::<bool>(),
        use_lp in any::<bool>(),
        ln_contrastive in any::<bool>(),
        adaptive_k in any::<bool>(),
    ) {
        let mut ssl_graph = toy_graph(seed, 10);
        let config = CalibreConfig {
            use_ln,
            use_lp,
            ln_contrastive,
            adaptive_k,
            ..Default::default()
        };
        let loss = calibre_loss(&mut ssl_graph, &config, 7);
        ssl_graph.graph.backward(loss.total);
        let grads = gradients(&ssl_graph.graph, &ssl_graph.binding);
        prop_assert!(grads.iter().all(Matrix::all_finite));
    }

    #[test]
    fn disabled_terms_report_zero(seed in 0u64..100) {
        let mut ssl_graph = toy_graph(seed, 8);
        let config = CalibreConfig::ablation(false, false);
        let loss = calibre_loss(&mut ssl_graph, &config, 7);
        prop_assert_eq!(loss.l_n, 0.0);
        prop_assert_eq!(loss.l_p, 0.0);
    }

    #[test]
    fn divergence_rate_scales_with_dispersion(seed in 0u64..100, scale in 1.5f32..10.0) {
        let mut r = rng::seeded(seed);
        let tight = rng::normal_matrix(&mut r, 30, 8, 1.0);
        let loose = tight.scale(scale);
        let dt = divergence_rate(&tight, 5, 0);
        let dl = divergence_rate(&loose, 5, 0);
        prop_assert!(dl > dt, "scaling up dispersion must raise divergence: {dt} vs {dl}");
    }
}

/// Twelve 4-d rows around three well-separated directions (row `i` near
/// direction `i % 3`), with Gaussian noise of std `noise`.
fn three_clusters(seed: u64, noise: f32) -> Matrix {
    const CENTERS: [[f32; 4]; 3] = [
        [3.0, 0.0, 0.0, 0.5],
        [0.0, 3.0, 0.5, 0.0],
        [0.5, 0.0, 0.0, 3.0],
    ];
    let mut m = rng::normal_matrix(&mut rng::seeded(seed), 12, 4, noise);
    for (r, center) in CENTERS.iter().cycle().take(12).enumerate() {
        for (v, &c) in m.row_mut(r).iter_mut().zip(center) {
            *v += c;
        }
    }
    m
}

/// The Calibre regularizers as a function of the checked leaf `x`.
///
/// A hand-built `SslGraph` with `z_o = x`, `h_e = x·P` and `h_o = tanh(x)·P`
/// goes through `calibre_loss`, whose total is returned. `z_e` is a
/// constant: the prototypes are KMeans centroids of z_e's values, a
/// stop-gradient by design, so a z_e that moved with `x` would move them
/// under finite differences but not in the analytic gradient. `l_s` is a
/// constant zero, so the total is `α·(L_n + L_p)` over the enabled terms.
fn calibre_regularizers(
    g: &mut Graph,
    x: Node,
    z_e: &Matrix,
    p: &Matrix,
    config: &CalibreConfig,
) -> Node {
    let z_e = g.constant(z_e.clone());
    let p = g.constant(p.clone());
    let h_e = g.matmul(x, p);
    let t = g.tanh(x);
    let h_o = g.matmul(t, p);
    let ssl_loss = g.constant(Matrix::zeros(1, 1));
    let mut ssl_graph = SslGraph {
        graph: std::mem::take(g),
        binding: Binding::new(),
        z_e,
        z_o: x,
        h_e,
        h_o,
        ssl_loss,
        aux: Vec::new(),
    };
    let total = calibre_loss(&mut ssl_graph, config, 5).total;
    *g = ssl_graph.graph;
    total
}

/// Gradchecks `calibre_regularizers` under `config` on a view-o batch that
/// shares z_e's clusters, so the pseudo-labels stay put under the checker's
/// perturbations. Returns the largest deviation from finite differences
/// over the largest analytic gradient entry, and that entry.
fn check_regularizers(seed: u64, config: &CalibreConfig) -> (f32, f32) {
    let z_e = three_clusters(seed, 0.2);
    let x = three_clusters(seed + 1, 0.2);
    let p = rng::normal_matrix(&mut rng::seeded(seed + 2), 4, 3, 0.5);
    let build = |g: &mut Graph, xn: Node| calibre_regularizers(g, xn, &z_e, &p, config);
    let report = check_gradient(&x, 1e-2, build);
    let mut g = Graph::new();
    let xn = g.leaf(x);
    let loss = build(&mut g, xn);
    g.backward(loss);
    let scale = g
        .grad(xn)
        .map_or(0.0, |d| d.iter().fold(0.0f32, |m, v| m.max(v.abs())));
    (report.max_abs_err / scale, scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ln_pull_gradient_matches_finite_differences(seed in 0u64..1_000) {
        let config = CalibreConfig { alpha: 1.0, num_prototypes: 3, ..CalibreConfig::ablation(true, false) };
        let (err, scale) = check_regularizers(seed, &config);
        prop_assert!(scale > 1e-3 && err < 1e-2, "deviation {err} of gradient scale {scale}");
    }

    #[test]
    fn ln_contrastive_gradient_matches_finite_differences(seed in 0u64..1_000) {
        let config = CalibreConfig {
            alpha: 1.0,
            num_prototypes: 3,
            ln_contrastive: true,
            ..CalibreConfig::ablation(true, false)
        };
        let (err, scale) = check_regularizers(seed, &config);
        prop_assert!(scale > 1e-3 && err < 1e-2, "deviation {err} of gradient scale {scale}");
    }

    #[test]
    fn lp_gradient_matches_finite_differences(seed in 0u64..1_000) {
        let config = CalibreConfig { alpha: 1.0, num_prototypes: 3, ..CalibreConfig::ablation(false, true) };
        let (err, scale) = check_regularizers(seed, &config);
        prop_assert!(scale > 1e-3 && err < 1e-2, "deviation {err} of gradient scale {scale}");
    }
}

// The full Calibre loop under fault injection is far slower than the loss
// properties above, so it runs with a tiny case count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn calibre_training_survives_chaos(seed in 0u64..1_000) {
        use calibre::train_calibre_encoder;
        use calibre_data::{
            AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec,
        };
        use calibre_fl::{FaultPlan, FlConfig, RoundPolicy};
        use calibre_ssl::SslKind;
        use calibre_tensor::nn::Module;

        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 3,
                train_per_client: 40,
                test_per_client: 10,
                unlabeled_per_client: 0,
                non_iid: NonIid::Dirichlet { alpha: 0.3 },
                seed: 11,
            },
        );
        let mut cfg = FlConfig::for_input(64);
        cfg.rounds = 6;
        cfg.clients_per_round = 3;
        cfg.local_epochs = 1;
        cfg.batch_size = 16;
        cfg.seed = seed;
        cfg.chaos = FaultPlan {
            drop_prob: 0.3,
            corrupt_prob: 0.2,
            panic_prob: 0.1,
            seed,
            ..FaultPlan::default()
        };
        cfg.policy = RoundPolicy {
            min_quorum: 2,
            ..RoundPolicy::default()
        };
        let (encoder, losses, divergences) = train_calibre_encoder(
            &fed,
            &cfg,
            SslKind::SimClr,
            &CalibreConfig::default(),
            &AugmentConfig::default(),
        );
        prop_assert_eq!(losses.len(), cfg.rounds);
        prop_assert!(losses.iter().all(|l| l.is_finite()), "loss went non-finite: {:?}", losses);
        prop_assert!(divergences.iter().all(|d| d.is_finite()));
        prop_assert!(encoder.to_flat().iter().all(|v| v.is_finite()));
    }
}
