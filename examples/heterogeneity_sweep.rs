//! Heterogeneity sweep: how accuracy and fairness degrade as client label
//! skew intensifies, for a supervised pFL baseline (FedAvg-FT) versus
//! Calibre (SimCLR).
//!
//! This is the scenario the paper's introduction motivates: "when the local
//! data distributions across clients are severely non-i.i.d., it remains
//! challenging to improve model fairness while maintaining high overall
//! performance."
//!
//! ```text
//! cargo run --release -p calibre-bench --example heterogeneity_sweep
//! ```

use calibre::{run_calibre, CalibreConfig};
use calibre_data::{AugmentConfig, FederatedDataset, NonIid, PartitionConfig, SynthVisionSpec};
use calibre_fl::baselines::fedavg::run_fedavg;
use calibre_fl::FlConfig;
use calibre_ssl::SslKind;
use calibre_telemetry::NullRecorder;

fn main() {
    let mut fl = FlConfig::for_input(64);
    fl.rounds = 20;
    fl.clients_per_round = 5;
    let ccfg = CalibreConfig {
        warmup_rounds: fl.rounds / 2,
        ..CalibreConfig::default()
    };

    println!(
        "{:<24} {:<18} {:>9} {:>10}  {:<18} {:>9} {:>10}",
        "heterogeneity",
        "FedAvg-FT",
        "mean(%)",
        "variance",
        "Calibre(SimCLR)",
        "mean(%)",
        "variance"
    );

    // From mild to severe Dirichlet skew, then the extreme quantity regime.
    let regimes: Vec<(String, NonIid)> = vec![
        ("iid".into(), NonIid::Iid),
        ("dirichlet(1.0)".into(), NonIid::Dirichlet { alpha: 1.0 }),
        ("dirichlet(0.3)".into(), NonIid::Dirichlet { alpha: 0.3 }),
        ("dirichlet(0.1)".into(), NonIid::Dirichlet { alpha: 0.1 }),
        (
            "quantity(S=2)".into(),
            NonIid::Quantity {
                classes_per_client: 2,
            },
        ),
    ];

    for (name, non_iid) in regimes {
        let fed = FederatedDataset::build(
            SynthVisionSpec::cifar10(),
            &PartitionConfig {
                num_clients: 12,
                train_per_client: 100,
                test_per_client: 40,
                unlabeled_per_client: 0,
                non_iid,
                seed: 21,
            },
        );
        let hetero = calibre_data::HeterogeneityReport::measure(&fed);
        let fedavg = run_fedavg(&fed, &fl, true, &NullRecorder);
        let calibre = run_calibre(&fed, &fl, SslKind::SimClr, &ccfg, &AugmentConfig::default());
        println!(
            "{:<24} {:<18} {:>9.2} {:>10.5}  {:<18} {:>9.2} {:>10.5}   [TV {:.3}]",
            name,
            "",
            fedavg.stats().mean_percent(),
            fedavg.stats().variance,
            "",
            calibre.stats().mean_percent(),
            calibre.stats().variance,
            hetero.mean_pairwise_tv,
        );
    }

    println!("\nLower variance = fairer; the gap between the two columns is the");
    println!("fairness story the paper tells in Figs. 3-4.");
}
