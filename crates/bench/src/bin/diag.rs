//! Representation-quality diagnostic: probe accuracy + cluster metrics for
//! a random encoder vs pFL-SimCLR vs Calibre (SimCLR). Not a paper figure —
//! a tuning tool for the reproduction itself.

use calibre_bench::obs::ObsArgs;
use calibre_bench::{
    build_dataset, parse_args_or_exit, run_method, DatasetId, MethodId, Scale, Setting,
};
use calibre_cluster::silhouette_score;
use calibre_fl::personalize_cohort;
use calibre_ssl::SslKind;
use calibre_tensor::nn::{Activation, Mlp};
use calibre_tensor::{rng, Matrix};

fn main() {
    // First positional argument (if any) is the scale; the rest are the
    // shared `--key value` flags (`--chaos`, `--min-quorum`, …).
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (scale_arg, flags) = match argv.first() {
        Some(first) if !first.starts_with("--") => (Some(first.clone()), &argv[1..]),
        _ => (None, &argv[..]),
    };
    let scale = match scale_arg.as_deref() {
        Some("default") | None => Scale::Default,
        Some("smoke") => Scale::Smoke,
        Some(other) => panic!("bad scale {other}"),
    };
    let mut fl_overrides = ObsArgs::default();
    for (key, value) in parse_args_or_exit(flags) {
        if !fl_overrides.accept(&key, &value) {
            eprintln!("unknown flag --{key}");
            std::process::exit(2);
        }
    }
    for setting in [Setting::QuantityNonIid, Setting::DirichletNonIid] {
        let fed = build_dataset(DatasetId::Cifar10, setting, scale, 0, 7);
        let mut cfg = scale.fl_config(7);
        fl_overrides.apply_fl(&mut cfg);
        let cfg = cfg;

        // Pool of samples for feature metrics.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for id in 0..fed.num_clients().min(6) {
            for s in fed.client(id).train.iter().take(30) {
                rows.push(fed.generator().render(s));
                labels.push(s.expect_label());
            }
        }
        let obs = Matrix::from_rows(&rows);

        let report = |name: &str, encoder: &Mlp| {
            let outcome = personalize_cohort(encoder, &fed, 10, &cfg.probe);
            let feats = encoder.infer(&obs);
            let sil = silhouette_score(&feats, &labels);
            let sil_raw = silhouette_score(&obs, &labels);
            println!(
                "{:<14} {:<18} probe mean {:>6.2}% var {:.5}  feat-silhouette {:>6.3} (raw obs {:>6.3})",
                setting.name(),
                name,
                outcome.stats.mean_percent(),
                outcome.stats.variance,
                sil,
                sil_raw,
            );
        };

        let mut r = rng::seeded(0);
        let random_encoder = Mlp::new(&cfg.ssl.encoder_layer_dims(), Activation::Relu, &mut r);
        report("random", &random_encoder);
        let pfl = run_method(MethodId::PflSsl(SslKind::SimClr), &fed, &cfg);
        report("pFL-SimCLR", &pfl.encoder);
        let cal = run_method(MethodId::Calibre(SslKind::SimClr), &fed, &cfg);
        report("Calibre-SimCLR", &cal.encoder);

        // Hyperparameter sweep of the calibration terms.
        for &k in &[3usize, 5, 10] {
            for &alpha in &[0.3f32, 1.0, 3.0] {
                let ccfg = calibre::CalibreConfig {
                    alpha,
                    num_prototypes: k,
                    ..Default::default()
                };
                let result = calibre::run_calibre(
                    &fed,
                    &cfg,
                    SslKind::SimClr,
                    &ccfg,
                    &calibre_data::AugmentConfig::default(),
                );
                report(&format!("Cal k={k} a={alpha}"), &result.encoder);
            }
        }
    }
}
