//! Fairness analysis: *where* does unfairness come from?
//!
//! Runs FedAvg-FT and Calibre (SimCLR) on a Dirichlet-skewed federation and
//! decomposes the fairness picture with the library's analysis metrics:
//! per-client accuracy vs. local class diversity (Pearson), Jain's index,
//! worst-decile accuracy, and a per-class confusion matrix of the
//! personalized predictions.
//!
//! ```text
//! cargo run --release -p calibre-bench --example fairness_analysis
//! ```

use calibre::{run_calibre, CalibreConfig};
use calibre_data::{AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
use calibre_fl::baselines::fedavg::run_fedavg;
use calibre_fl::baselines::BaselineResult;
use calibre_fl::{jain_index, pearson, worst_fraction_mean, ConfusionMatrix, FlConfig};
use calibre_ssl::{train_linear_probe, SslKind};
use calibre_telemetry::NullRecorder;
use calibre_tensor::Matrix;

fn analyze(fed: &FederatedDataset, cfg: &FlConfig, result: &BaselineResult) {
    println!("\n=== {} ===", result.name);
    println!(
        "mean {:.2}%  variance {:.5}  Jain {:.4}  worst-10% {:.2}%",
        result.stats().mean_percent(),
        result.stats().variance,
        jain_index(&result.seen.accuracies),
        worst_fraction_mean(&result.seen.accuracies, 0.1) * 100.0
    );

    // Does accuracy track how many classes a client holds? Fewer classes =
    // easier personal task, so a strong negative correlation is expected —
    // and *shrinking* it is part of what fairness means here.
    let class_counts: Vec<f32> = (0..fed.num_clients())
        .map(|id| fed.client(id).train_classes().len() as f32)
        .collect();
    println!(
        "Pearson(accuracy, #local classes) = {:+.3}",
        pearson(&result.seen.accuracies, &class_counts)
    );

    // Confusion matrix of all personalized predictions pooled over clients.
    let mut confusion = ConfusionMatrix::new(fed.generator().num_classes());
    for id in 0..fed.num_clients() {
        let data = fed.client(id);
        let train_x = result
            .encoder
            .infer(&fed.generator().render_batch(data.train.iter()));
        let test_x: Matrix = result
            .encoder
            .infer(&fed.generator().render_batch(data.test.iter()));
        let head = train_linear_probe(&train_x, &data.train_labels(), 10, &cfg.probe);
        let logits = head.infer(&test_x);
        for (r, &actual) in data.test_labels().iter().enumerate() {
            let row = logits.row(r);
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            confusion.record(actual, pred);
        }
    }
    let recall = confusion.per_class_recall();
    println!(
        "pooled accuracy {:.2}%  per-class recall:",
        confusion.accuracy() * 100.0
    );
    for (class, r) in recall.iter().enumerate() {
        println!("  class {class}: {:.1}%", r * 100.0);
    }
}

fn main() {
    let fed = FederatedDataset::build(
        SynthVisionSpec::cifar10(),
        &PartitionConfig {
            num_clients: 12,
            train_per_client: 100,
            test_per_client: 40,
            unlabeled_per_client: 0,
            non_iid: NonIid::Dirichlet { alpha: 0.3 },
            seed: 33,
        },
    );
    let mut cfg = FlConfig::for_input(64);
    cfg.rounds = 20;
    cfg.clients_per_round = 5;

    let fedavg = run_fedavg(&fed, &cfg, true, &NullRecorder);
    analyze(&fed, &cfg, &fedavg);

    let ccfg = CalibreConfig {
        warmup_rounds: cfg.rounds / 2,
        ..CalibreConfig::default()
    };
    let calibre = run_calibre(
        &fed,
        &cfg,
        SslKind::SimClr,
        &ccfg,
        &AugmentConfig::default(),
    );
    analyze(&fed, &cfg, &calibre);
}
