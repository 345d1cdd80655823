//! `train_calibre`: the paper's pipeline. Calibre (SimCLR) trains a global
//! encoder over 100 Dirichlet-0.3 clients, 10 per round, then every client
//! personalizes a linear probe on it.
//!
//! The traced run adds two replays, each checked bit for bit against the
//! library call it mirrors: sampled clients' local updates, timed per step
//! by layer (`data`, `ssl`, `core`, `tensor`), and the whole
//! personalization stage, timed as feature inference vs probe training.

use std::time::Instant;

use calibre::{calibre_local_update_detailed, calibre_loss, train_calibre_encoder_observed};
use calibre::{CalibreConfig, LocalUpdate};
use calibre_data::batch::batches;
use calibre_data::{AugmentConfig, ClientData, FederatedDataset, NonIid, PartitionConfig};
use calibre_data::{SynthVision, SynthVisionSpec};
use calibre_fl::personalize_cohort_observed;
use calibre_fl::proto::model_checksum;
use calibre_fl::{worst_fraction_mean, FlConfig};
use calibre_ssl::TwoViewBatch;
use calibre_ssl::{create_method, probe_accuracy, train_linear_probe, SslKind, SslMethod};
use calibre_telemetry::NullRecorder;
use calibre_tensor::nn::Module;
use calibre_tensor::optim::{Sgd, SgdConfig};
use calibre_tensor::{rng, StepArena};
use rand::rngs::StdRng;

use crate::report::{self, Report};
use crate::spans::SpanLog;
use crate::timeline::{attribute, BenchRecorder, Mark, Timeline};
use crate::{Ctx, Run};

const CLIENTS: usize = 100;
const PER_ROUND: usize = 10;
const EPOCHS: usize = 3;
const BATCH: usize = 32;
const TRAIN_PER_CLIENT: usize = 500;
const TEST_PER_CLIENT: usize = 100;
/// Sampled local updates replayed per traced run.
const REPLAYS: usize = 2;

fn inputs(seed: u64, rounds: usize) -> (FederatedDataset, FlConfig, CalibreConfig) {
    let fed = FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: CLIENTS,
            train_per_client: TRAIN_PER_CLIENT,
            test_per_client: TEST_PER_CLIENT,
            unlabeled_per_client: 0,
            non_iid: NonIid::Dirichlet { alpha: 0.3 },
            seed,
        },
    );
    let mut fl = FlConfig::for_input(fed.generator().obs_dim());
    fl.rounds = rounds;
    fl.clients_per_round = PER_ROUND;
    fl.local_epochs = EPOCHS;
    fl.batch_size = BATCH;
    fl.seed = seed;
    // The method registry's α ramp: the regularizers fade in over the
    // first half of training.
    let calibre = CalibreConfig {
        warmup_rounds: rounds / 2,
        ..CalibreConfig::default()
    };
    (fed, fl, calibre)
}

/// Runs the workload; see the module docs.
pub fn run(ctx: &Ctx, report: &mut Report, notes: &mut Vec<String>) -> Result<Run, String> {
    let mut log = SpanLog::new(ctx.clock.clone());
    // The set-up span starts at process entry, the clock's origin.
    let setup = log.open("setup", None, None);
    log.set_start(setup, 0);
    let ((fed, fl, calibre), build_ns) = log.time("data.build", Some(setup), None, || {
        inputs(ctx.seed, ctx.total_rounds())
    });
    let aug = AugmentConfig::default();
    let timeline = Timeline::new(ctx.clock.clone());
    let recorder = BenchRecorder::new(&timeline, 0);
    let (encoder, losses, _) =
        train_calibre_encoder_observed(&fed, &fl, SslKind::SimClr, &calibre, &aug, None, &recorder);
    timeline.push(Mark::End);
    let proc = report::proc_delta(recorder.window_start()?)?;
    let marks = timeline.marks();
    let (rounds, round_spans) = attribute(&marks, crate::threads());
    let setup_ns = rounds.first().map_or(0, |r| r.start);
    log.set_end(setup, setup_ns);
    let flat = encoder.to_flat();
    let run_out = |rounds, spans| Run {
        rounds,
        spans,
        proc,
        setup_ns,
        checksum: model_checksum(&flat),
        // The encoder goes down and comes back once per accepted client.
        payload_bytes: (2 * flat.len() * std::mem::size_of::<f32>()) as f64,
    };
    if ctx.child {
        return Ok(run_out(rounds, Vec::new()));
    }

    report::check_rounds(report, &rounds, ctx.total_rounds());
    report.check(
        losses.iter().all(|l| l.is_finite()),
        "a round's mean loss is not finite",
    );
    report.check(
        flat.iter().all(|v| v.is_finite()),
        "the encoder is not finite",
    );

    let num_classes = fed.generator().num_classes();
    let t = Instant::now();
    let outcome =
        personalize_cohort_observed(&encoder, &fed, num_classes, &fl.probe, &NullRecorder);
    let personalize_s = t.elapsed().as_secs_f64();
    let acc = &outcome.accuracies;
    report.check(
        acc.len() == CLIENTS && acc.iter().all(|a| (0.0..=1.0).contains(a)),
        "personalized accuracies are not one fraction per client",
    );
    let acc_mean = acc.iter().map(|&a| f64::from(a)).sum::<f64>() / acc.len().max(1) as f64;
    let worst = f64::from(worst_fraction_mean(acc, 0.1));
    notes.push(format!(
        "train_calibre personalize_s={personalize_s:.4} s acc_mean={acc_mean:.4} fraction \
         acc_worst_decile={worst:.4} fraction"
    ));

    if !ctx.trace {
        return Ok(run_out(rounds, Vec::new()));
    }
    report.metric("data.build_ms", build_ns as f64 / 1e6, "ms");
    report.metric("fl.personalize.stage_s", personalize_s, "s");
    report.metric("quality.acc_mean", acc_mean, "fraction");
    report.metric("quality.acc_worst_decile", worst, "fraction");

    // Steps per round, from the selected clients' pool sizes.
    let steps_of = |id: usize| EPOCHS * batch_count(fed.client(id).ssl_pool().len(), BATCH);
    let timed = &rounds[ctx.workload.warmup_rounds()..];
    let steps: usize = timed
        .iter()
        .map(|r| r.clients.iter().map(|&id| steps_of(id)).sum::<usize>())
        .sum();
    report.metric(
        "tensor.steps_per_round",
        steps as f64 / timed.len().max(1) as f64,
        "count",
    );

    let replay_root = log.open("replay.local_update", None, None);
    let mut per_layer = [0u64; 5];
    let mut replayed_steps = 0usize;
    for i in 0..REPLAYS {
        let round = (ctx.total_rounds() * (2 * i + 1)) / (2 * REPLAYS);
        let Some(&id) = rounds.get(round).and_then(|r| r.clients.first()) else {
            report.check(false, format!("round {round} selected no client to replay"));
            continue;
        };
        let (ns, n) = replay_local_update(
            &fed,
            &fl,
            &calibre,
            &aug,
            &flat,
            round,
            id,
            &mut log,
            replay_root,
            report,
        );
        report.check(
            n == steps_of(id),
            format!("replayed client {id} ran {n} steps, not its batch count"),
        );
        for (acc, v) in per_layer.iter_mut().zip(ns) {
            *acc += v;
        }
        replayed_steps += n;
    }
    log.close(replay_root);
    let us = |ns: u64| ns as f64 / 1e3 / replayed_steps.max(1) as f64;
    report.metric("data.render_us_per_step", us(per_layer[0]), "us");
    report.metric("ssl.forward_us_per_step", us(per_layer[1]), "us");
    report.metric("core.calibre_loss_us_per_step", us(per_layer[2]), "us");
    report.metric("tensor.backward_us_per_step", us(per_layer[3]), "us");
    report.metric("tensor.optim_us_per_step", us(per_layer[4]), "us");

    let (infer_ns, probe_ns) = replay_personalization(&fed, &fl, &encoder, acc, &mut log, report);
    report.metric("fl.personalize.infer_ms", infer_ns as f64 / 1e6, "ms");
    report.metric("fl.personalize.probe_ms", probe_ns as f64 / 1e6, "ms");
    log.adopt(round_spans, None);
    Ok(run_out(rounds, log.into_spans()))
}

/// Mini-batches per epoch over `n` samples, singletons dropped (as
/// `batches(n, batch, true, _)` yields them).
fn batch_count(n: usize, batch: usize) -> usize {
    n / batch + usize::from(n % batch > 1)
}

/// Replays one client's local update step by step and checks it against
/// `calibre_local_update_detailed` on an identical state and seed. Returns
/// per-layer time `[render, forward, calibre_loss, backward, optim]` and
/// the step count.
#[allow(clippy::too_many_arguments)]
fn replay_local_update(
    fed: &FederatedDataset,
    fl: &FlConfig,
    calibre: &CalibreConfig,
    aug: &AugmentConfig,
    global: &[f32],
    round: usize,
    id: usize,
    log: &mut SpanLog,
    parent: usize,
    report: &mut Report,
) -> ([u64; 5], usize) {
    let ramp = if calibre.warmup_rounds > 0 {
        ((round + 1) as f32 / calibre.warmup_rounds as f32).min(1.0)
    } else {
        1.0
    };
    let config = CalibreConfig {
        alpha: calibre.alpha * ramp,
        ..*calibre
    };
    let fresh = || {
        let mut method = create_method(
            SslKind::SimClr,
            fl.ssl.clone().with_seed(fl.seed ^ (id as u64) << 8),
        );
        method.encoder_mut().load_flat(global);
        let opt = Sgd::new(SgdConfig::with_lr_momentum(fl.local_lr, fl.local_momentum));
        let r = rng::seeded(
            fl.seed
                ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (id as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        (method, opt, r)
    };
    let data = fed.client(id);

    let (mut lib_method, mut lib_opt, mut lib_rng) = fresh();
    let expected = calibre_local_update_detailed(
        lib_method.as_mut(),
        data,
        fed.generator(),
        aug,
        fl.local_epochs,
        fl.batch_size,
        &config,
        &mut lib_opt,
        &mut lib_rng,
    );

    let (mut method, mut opt, mut r) = fresh();
    let client = log.open("replay.client", Some(parent), Some(round));
    let (got, ns, steps) = local_update_steps(
        method.as_mut(),
        data,
        fed.generator(),
        aug,
        fl.local_epochs,
        fl.batch_size,
        &config,
        &mut opt,
        &mut r,
        log,
        client,
    );
    log.close(client);
    let bits = |u: &LocalUpdate| [u.loss, u.ssl, u.l_n, u.l_p, u.divergence].map(f32::to_bits);
    report.check(
        bits(&got) == bits(&expected),
        format!("replayed losses of client {id} differ from the library: {got:?} vs {expected:?}"),
    );
    report.check(
        [got.loss, got.ssl, got.l_n, got.l_p, got.divergence]
            .iter()
            .all(|v| v.is_finite()),
        format!("client {id}: non-finite replayed loss"),
    );
    let same_params = method
        .to_flat()
        .iter()
        .zip(lib_method.to_flat())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(
        same_params && method.encoder().to_flat().len() == lib_method.encoder().to_flat().len(),
        format!("replayed parameters of client {id} differ from the library"),
    );
    (ns, steps)
}

/// The body of `calibre_local_update_detailed`, one span per layer call.
#[allow(clippy::too_many_arguments)]
fn local_update_steps(
    method: &mut dyn SslMethod,
    data: &ClientData,
    generator: &SynthVision,
    aug: &AugmentConfig,
    epochs: usize,
    batch_size: usize,
    config: &CalibreConfig,
    opt: &mut Sgd,
    r: &mut StdRng,
    log: &mut SpanLog,
    parent: usize,
) -> (LocalUpdate, [u64; 5], usize) {
    let mut ns = [0u64; 5];
    let mut steps = 0usize;
    let pool = data.ssl_pool();
    if pool.len() < 2 {
        return (LocalUpdate::default(), ns, 0);
    }
    let mut last = LocalUpdate::default();
    let mut arena = StepArena::new();
    for epoch in 0..epochs {
        let mut sums = LocalUpdate::default();
        let mut seen = 0u64;
        for (b, batch) in batches(pool.len(), batch_size, true, r)
            .into_iter()
            .enumerate()
        {
            let step = log.open("replay.step", Some(parent), None);
            let ((view_e, view_o), t) = log.time("data.render", Some(step), None, || {
                generator.render_two_views(batch.iter().map(|&i| pool[i]), aug, r)
            });
            ns[0] += t;
            let kmeans_seed = (epoch as u64) << 32 | b as u64;
            let two = TwoViewBatch::new(&view_e, &view_o);
            let (mut graph, t) = log.time("ssl.forward", Some(step), None, || {
                method.build_graph_with(&two, arena.take())
            });
            ns[1] += t;
            let (outcome, t) = log.time("core.calibre_loss", Some(step), None, || {
                calibre_loss(&mut graph, config, kmeans_seed)
            });
            ns[2] += t;
            let ((), t) = log.time("tensor.backward", Some(step), None, || {
                graph.graph.backward(outcome.total)
            });
            ns[3] += t;
            let ((), t) = log.time("tensor.optim", Some(step), None, || {
                opt.step_graph(method, &graph.graph, &graph.binding);
                method.post_step(&graph);
            });
            ns[4] += t;
            arena.put(graph.graph);
            log.close(step);
            steps += 1;
            sums.loss += outcome.ssl_loss + config.alpha * (outcome.l_n + outcome.l_p);
            sums.ssl += outcome.ssl_loss;
            sums.l_n += outcome.l_n;
            sums.l_p += outcome.l_p;
            sums.divergence += outcome.divergence;
            seen += 1;
        }
        let inv = 1.0 / seen.max(1) as f32;
        last = LocalUpdate {
            loss: sums.loss * inv,
            ssl: sums.ssl * inv,
            l_n: sums.l_n * inv,
            l_p: sums.l_p * inv,
            divergence: sums.divergence * inv,
        };
    }
    (last, ns, steps)
}

/// Replays personalization for every client, checking each accuracy bit
/// for bit against `personalize_cohort_observed`. Returns the time spent
/// in `Mlp::infer` and in probe training + scoring.
fn replay_personalization(
    fed: &FederatedDataset,
    fl: &FlConfig,
    encoder: &calibre_tensor::nn::Mlp,
    expected: &[f32],
    log: &mut SpanLog,
    report: &mut Report,
) -> (u64, u64) {
    let root = log.open("replay.personalize", None, None);
    let (mut infer_ns, mut probe_ns) = (0u64, 0u64);
    let generator = fed.generator();
    let num_classes = generator.num_classes();
    for id in 0..fed.num_clients() {
        let data = fed.client(id);
        let acc = if data.train.is_empty() || data.test.is_empty() {
            0.0
        } else {
            let (train_obs, _) = log.time("data.render_batch", Some(root), None, || {
                generator.render_batch(data.train.iter())
            });
            let (test_obs, _) = log.time("data.render_batch", Some(root), None, || {
                generator.render_batch(data.test.iter())
            });
            let (train_x, a) = log.time("personalize.infer", Some(root), None, || {
                encoder.infer(&train_obs)
            });
            let (test_x, b) = log.time("personalize.infer", Some(root), None, || {
                encoder.infer(&test_obs)
            });
            infer_ns += a + b;
            let mut probe = fl.probe;
            probe.seed = fl.probe.seed ^ (id as u64).wrapping_mul(0x9E37_79B9);
            let (acc, c) = log.time("personalize.probe", Some(root), None, || {
                let head = train_linear_probe(&train_x, &data.train_labels(), num_classes, &probe);
                probe_accuracy(&head, &test_x, &data.test_labels())
            });
            probe_ns += c;
            acc
        };
        report.check(
            expected.get(id).map(|e| e.to_bits()) == Some(acc.to_bits()),
            format!("replayed accuracy of client {id} differs from personalize_cohort_observed"),
        );
    }
    log.close(root);
    (infer_ns, probe_ns)
}
