//! Criterion microbenchmarks for the computational kernels of the
//! reproduction: the autograd substrate, the contrastive losses, prototype
//! generation, aggregation, and a full Calibre step / federated round.

use calibre::{calibre_step, CalibreConfig};
use calibre_cluster::{kmeans, KMeansConfig};
use calibre_data::{AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
use calibre_embed::{tsne, TsneConfig};
use calibre_fl::aggregate::{aggregate_robust, Aggregator};
use calibre_fl::proto::{encode_assign_into, frame_checksum, Msg};
use calibre_ssl::{nt_xent, ssl_step, ssl_step_in, SimClr, SslConfig, SslMethod, TwoViewBatch};
use calibre_tensor::backend::{Backend, Scalar};
use calibre_tensor::nn::{gradients, Binding, Mlp};
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::{rng, Graph, Matrix, StepArena};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut r = rng::seeded(0);
    let a = rng::normal_matrix(&mut r, 128, 128, 1.0);
    let b = rng::normal_matrix(&mut r, 128, 128, 1.0);
    c.bench_function("matmul_128x128", |bench| {
        bench.iter(|| black_box(a.matmul(&b)))
    });
    // The same product through the backend on pre-allocated output storage,
    // which isolates kernel cost from allocation.
    let mut out = Matrix::zeros(128, 128);
    c.bench_function("matmul_128x128_scalar", |bench| {
        bench.iter(|| {
            out.as_mut_slice().fill(0.0);
            Scalar.matmul(&a, &b, &mut out);
            black_box(out.get(0, 0))
        })
    });
    // Smoke-workload shape: a ReLU-sparse activation batch against a layer
    // weight — the product the federated smoke runs issue hundreds of times.
    let act = rng::normal_matrix(&mut r, 16, 64, 1.0).map(|v| if v > 0.0 { v } else { 0.0 });
    let w = rng::normal_matrix(&mut r, 64, 32, 1.0);
    let mut small = Matrix::zeros(16, 32);
    c.bench_function("matmul_smoke_16x64x32_scalar", |bench| {
        bench.iter(|| {
            small.as_mut_slice().fill(0.0);
            Scalar.matmul(&act, &w, &mut small);
            black_box(small.get(0, 0))
        })
    });
    // The same shape with a dense operand (a data batch rather than a ReLU
    // activation), so no term is skipped.
    let dense = rng::normal_matrix(&mut r, 16, 64, 1.0);
    c.bench_function("matmul_smoke_dense_scalar", |bench| {
        bench.iter(|| {
            small.as_mut_slice().fill(0.0);
            Scalar.matmul(&dense, &w, &mut small);
            black_box(small.get(0, 0))
        })
    });
    // The dA-of-backward kernel at the same shape (grad · Wᵀ).
    let grad = rng::normal_matrix(&mut r, 16, 32, 1.0);
    let mut da = Matrix::zeros(16, 64);
    c.bench_function("matmul_nt_smoke_scalar", |bench| {
        bench.iter(|| {
            Scalar.matmul_nt(&grad, &w, &mut da);
            black_box(da.get(0, 0))
        })
    });
}

/// The five products of one `train_calibre` SimCLR step, batch 32 per view
/// on the 64 → 96 → 32 encoder and 32 → 32 → 16 projector, plus the 64×64
/// similarity matrix of NT-Xent. Each layer `(m, k, n)` runs its forward
/// `x(m×k) · W(k×n)` as `matmul_train_m{m}_k{k}_n{n}`, its `dA`,
/// `grad(m×n) · Wᵀ`, as `matmul_nt_train_m{m}_k{n}_n{k}` and its `dW`,
/// `xᵀ · grad`, as `matmul_tn_train_m{k}_k{m}_n{n}` (id dims are the
/// output rows, the reduction length and the output columns); `m·k·n`
/// multiply-adds over the mean time gives GMAC/s. Those operands are dense
/// and the same every iteration. The `_relu` twins of the forward and `dW`
/// take `x` from [`RELU_ROTATION`] ReLU outputs (about half zeros) in
/// turn, as training's hidden layers do, so a branch on zero entries
/// cannot learn one pattern.
fn bench_train_shapes(c: &mut Criterion) {
    const LAYERS: [(usize, usize, usize); 5] = [
        (32, 64, 96),
        (32, 96, 32),
        (32, 32, 32),
        (32, 32, 16),
        (64, 16, 64),
    ];
    let mut r = rng::seeded(12);
    for (m, k, n) in LAYERS {
        let x = rng::normal_matrix(&mut r, m, k, 1.0);
        let w = rng::normal_matrix(&mut r, k, n, 1.0);
        let grad = rng::normal_matrix(&mut r, m, n, 1.0);
        let relu: Vec<Matrix> = (0..RELU_ROTATION)
            .map(|_| rng::normal_matrix(&mut r, m, k, 1.0).map(|v| v.max(0.0)))
            .collect();
        let mut y = Matrix::zeros(m, n);
        c.bench_function(&format!("matmul_train_m{m}_k{k}_n{n}"), |bench| {
            bench.iter(|| {
                y.as_mut_slice().fill(0.0);
                Scalar.matmul(&x, &w, &mut y);
                black_box(y.get(0, 0))
            })
        });
        let mut turn = relu.iter().cycle();
        c.bench_function(&format!("matmul_train_relu_m{m}_k{k}_n{n}"), |bench| {
            bench.iter(|| {
                y.as_mut_slice().fill(0.0);
                Scalar.matmul(turn.next().unwrap_or(&x), &w, &mut y);
                black_box(y.get(0, 0))
            })
        });
        let mut da = Matrix::zeros(m, k);
        c.bench_function(&format!("matmul_nt_train_m{m}_k{n}_n{k}"), |bench| {
            bench.iter(|| {
                Scalar.matmul_nt(&grad, &w, &mut da);
                black_box(da.get(0, 0))
            })
        });
        let mut dw = Matrix::zeros(k, n);
        c.bench_function(&format!("matmul_tn_train_m{k}_k{m}_n{n}"), |bench| {
            bench.iter(|| {
                dw.as_mut_slice().fill(0.0);
                Scalar.matmul_tn(&x, &grad, &mut dw);
                black_box(dw.get(0, 0))
            })
        });
        let mut turn = relu.iter().cycle();
        c.bench_function(&format!("matmul_tn_train_relu_m{k}_k{m}_n{n}"), |bench| {
            bench.iter(|| {
                dw.as_mut_slice().fill(0.0);
                Scalar.matmul_tn(turn.next().unwrap_or(&x), &grad, &mut dw);
                black_box(dw.get(0, 0))
            })
        });
    }
}

/// How many ReLU-output matrices the `_relu` microbenchmarks rotate
/// through.
const RELU_ROTATION: usize = 8;

fn bench_mlp_backward(c: &mut Criterion) {
    let mut r = rng::seeded(1);
    let mlp = Mlp::new(&[64, 96, 32], calibre_tensor::nn::Activation::Relu, &mut r);
    let x = rng::normal_matrix(&mut r, 32, 64, 1.0);
    let targets: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let head = calibre_tensor::nn::Linear::new(32, 10, &mut r);
    c.bench_function("supervised_forward_backward_b32", |bench| {
        bench.iter(|| {
            let mut g = Graph::new();
            let xn = g.constant_from(&x);
            let mut binding = Binding::new();
            let feats = mlp.forward(&mut g, xn, &mut binding);
            let logits = head.forward(&mut g, feats, &mut binding);
            let loss = g.cross_entropy(logits, &targets);
            g.backward(loss);
            black_box(gradients(&g, &binding))
        })
    });
}

fn bench_nt_xent(c: &mut Criterion) {
    let mut r = rng::seeded(2);
    let he = rng::normal_matrix(&mut r, 64, 16, 1.0);
    let ho = rng::normal_matrix(&mut r, 64, 16, 1.0);
    c.bench_function("nt_xent_b64", |bench| {
        bench.iter(|| {
            let mut g = Graph::new();
            let a = g.leaf_from(&he);
            let b = g.leaf_from(&ho);
            let loss = nt_xent(&mut g, a, b, 0.5);
            g.backward(loss);
            black_box(g.grad(a).is_some())
        })
    });
    // Same forward+backward on an arena-recycled tape: after the first
    // iteration every buffer comes from the pool.
    c.bench_function("nt_xent_b64_arena", |bench| {
        let mut arena = StepArena::new();
        bench.iter(|| {
            let mut g = arena.take();
            let a = g.leaf_from(&he);
            let b = g.leaf_from(&ho);
            let loss = nt_xent(&mut g, a, b, 0.5);
            g.backward(loss);
            let out = g.grad(a).is_some();
            arena.put(g);
            black_box(out)
        })
    });
}

fn bench_kmeans(c: &mut Criterion) {
    let mut r = rng::seeded(3);
    let data = rng::normal_matrix(&mut r, 256, 32, 1.0);
    c.bench_function("kmeans_n256_d32_k10", |bench| {
        bench.iter(|| black_box(kmeans(&data, &KMeansConfig::with_k(10))))
    });
}

fn bench_aggregation(c: &mut Criterion) {
    let mut r = rng::seeded(4);
    let updates: Vec<Vec<f32>> = (0..10).map(|_| rng::normal_vec(&mut r, 10_000)).collect();
    let weights: Vec<f32> = (1..=10).map(|v| v as f32).collect();
    let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
    c.bench_function("weighted_average_10x10k", |bench| {
        bench.iter(|| {
            black_box(aggregate_robust(
                Aggregator::WeightedAverage,
                &refs,
                &weights,
            ))
        })
    });
}

/// The wire codec on the 1 MiB frames `serve_tcp` moves every round, next
/// to a plain `memcpy` of the same size for scale.
fn bench_wire(c: &mut Criterion) {
    const MIB: usize = 1 << 20;
    let bytes: Vec<u8> = (0..MIB).map(|i| (i % 251) as u8).collect();
    c.bench_function("frame_checksum_1mib", |bench| {
        bench.iter(|| black_box(frame_checksum(black_box(&bytes))))
    });
    let model: Vec<f32> = (0..MIB / 4).map(|i| i as f32 * 0.5).collect();
    let mut frame = Vec::new();
    c.bench_function("frame_encode_assign_1mib", |bench| {
        bench.iter(|| {
            encode_assign_into(&mut frame, 1, 0, 0, black_box(&model));
            black_box(frame.len())
        })
    });
    let update = Msg::Update {
        round: 1,
        slot: 0,
        client: 0,
        weight: 1.0,
        loss: 0.5,
        update: model,
    }
    .encode();
    let mut buf = Vec::new();
    c.bench_function("frame_read_update_1mib", |bench| {
        bench.iter(|| {
            let mut r = std::io::Cursor::new(black_box(&update));
            black_box(Msg::read_from(&mut r, &mut buf).is_ok())
        })
    });
    let mut dst = vec![0u8; MIB];
    c.bench_function("memcpy_1mib", |bench| {
        bench.iter(|| {
            dst.copy_from_slice(black_box(&bytes));
            black_box(dst.first().copied())
        })
    });
}

fn bench_ssl_step(c: &mut Criterion) {
    let mut r = rng::seeded(5);
    let base = rng::normal_matrix(&mut r, 32, 64, 1.0);
    let ve = base.map(|v| v + 0.04);
    let vo = base.map(|v| v - 0.04);
    c.bench_function("simclr_step_b32", |bench| {
        bench.iter_batched(
            || {
                (
                    SimClr::new(SslConfig::for_input(64)),
                    Sgd::new(SgdConfig::with_lr(0.05)),
                )
            },
            |(mut m, mut opt)| black_box(ssl_step(&mut m, &TwoViewBatch::new(&ve, &vo), &mut opt)),
            BatchSize::SmallInput,
        )
    });
    // The same step through a persistent arena: tape storage is recycled
    // across iterations, so steady-state allocation drops to near zero.
    c.bench_function("simclr_step_b32_arena", |bench| {
        let mut arena = StepArena::new();
        bench.iter_batched(
            || {
                (
                    SimClr::new(SslConfig::for_input(64)),
                    Sgd::new(SgdConfig::with_lr(0.05)),
                )
            },
            |(mut m, mut opt)| {
                black_box(ssl_step_in(
                    &mut m,
                    &TwoViewBatch::new(&ve, &vo),
                    &mut opt,
                    &mut arena,
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_calibre_step(c: &mut Criterion) {
    let mut r = rng::seeded(6);
    let base = rng::normal_matrix(&mut r, 32, 64, 1.0);
    let ve = base.map(|v| v + 0.04);
    let vo = base.map(|v| v - 0.04);
    let config = CalibreConfig::default();
    c.bench_function("calibre_step_b32", |bench| {
        bench.iter_batched(
            || {
                (
                    SimClr::new(SslConfig::for_input(64)),
                    Sgd::new(SgdConfig::with_lr(0.05)),
                )
            },
            |(mut m, mut opt)| {
                black_box(calibre_step(
                    &mut m,
                    &TwoViewBatch::new(&ve, &vo),
                    &config,
                    &mut opt,
                    7,
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_federated_round(c: &mut Criterion) {
    let fed = FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: 5,
            train_per_client: 60,
            test_per_client: 20,
            unlabeled_per_client: 0,
            non_iid: NonIid::Dirichlet { alpha: 0.3 },
            seed: 7,
        },
    );
    let mut cfg = calibre_fl::FlConfig::for_input(64);
    cfg.rounds = 1;
    cfg.clients_per_round = 5;
    cfg.local_epochs = 1;
    c.bench_function("calibre_round_5clients", |bench| {
        bench.iter(|| {
            black_box(calibre::train_calibre_encoder(
                &fed,
                &cfg,
                calibre_ssl::SslKind::SimClr,
                &CalibreConfig::default(),
                &AugmentConfig::default(),
            ))
        })
    });
}

fn bench_encoder_inference(c: &mut Criterion) {
    let mut r = rng::seeded(8);
    let method = SimClr::new(SslConfig::for_input(64));
    let x = rng::normal_matrix(&mut r, 256, 64, 1.0);
    c.bench_function("encoder_infer_b256", |bench| {
        bench.iter(|| black_box(method.encoder().infer(&x)))
    });
}

fn bench_tsne(c: &mut Criterion) {
    let mut r = rng::seeded(9);
    let data = rng::normal_matrix(&mut r, 100, 32, 1.0);
    let cfg = TsneConfig {
        iterations: 50,
        ..Default::default()
    };
    c.bench_function("tsne_n100_50iters", |bench| {
        bench.iter(|| black_box(tsne(&data, &cfg)))
    });
}

fn bench_render_two_views(c: &mut Criterion) {
    let gen = calibre_data::SynthVision::new(SynthVisionSpec::cifar10());
    let mut r = rng::seeded(10);
    let samples: Vec<_> = (0..32).map(|i| gen.sample(i % 10, &mut r)).collect();
    let aug = AugmentConfig::default();
    c.bench_function("render_two_views_b32", |bench| {
        bench.iter(|| {
            let mut r2 = rng::seeded(11);
            black_box(gen.render_two_views(samples.iter(), &aug, &mut r2))
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = kernels;
    config = config();
    targets = bench_matmul, bench_train_shapes, bench_mlp_backward, bench_nt_xent, bench_kmeans,
        bench_aggregation, bench_wire, bench_ssl_step, bench_calibre_step,
        bench_federated_round, bench_encoder_inference, bench_tsne,
        bench_render_two_views
}
criterion_main!(kernels);
