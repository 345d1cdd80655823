//! Reproduces the qualitative representation figures of the Calibre paper —
//! **Figs. 1, 2, 5, 6, 7 and 8** — as 2-D t-SNE embeddings written to CSV,
//! with silhouette / NMI / purity printed so the figures' visual claim
//! ("Calibre's clusters are crisper") is machine-checkable.
//!
//! ```text
//! cargo run -p calibre-bench --release --bin tsne -- \
//!     [--experiment fig1_2|fig5_6|fig7_8|all] [--scale smoke|default|paper] \
//!     [--seed 7] [--telemetry out.jsonl] [--trace out.json] [--profile prof.json]
//! ```
//!
//! Output CSVs land in `results/tsne/<figure>_<method>.csv` with columns
//! `x,y,label,client` — plot them with any tool to get the paper's panels.
//! The shared observability flags stream the training rounds behind each
//! panel as JSONL, capture the span layer, and print a fairness summary at
//! the end (see `calibre_bench::obs`).

use calibre_bench::obs::ObsArgs;
use calibre_bench::{
    build_dataset, parse_args_or_exit, run_method_observed, DatasetId, MethodId, Scale, Setting,
};
use calibre_cluster::{nmi, purity, silhouette_score};
use calibre_data::FederatedDataset;
use calibre_embed::{collect_points, tsne, write_csv_file, TsneConfig};
use calibre_fl::FlConfig;
use calibre_ssl::SslKind;
use calibre_tensor::nn::Mlp;
use calibre_tensor::Matrix;

/// Samples per client included in an embedding panel.
const SAMPLES_PER_CLIENT: usize = 30;
/// Clients per multi-client panel (the paper uses 6 of 100).
const CLIENTS_PER_PANEL: usize = 6;

struct Panel {
    figure: &'static str,
    dataset: DatasetId,
    setting: Setting,
    methods: Vec<MethodId>,
}

fn panels(experiment: &str) -> Vec<Panel> {
    let fig1_2 = Panel {
        figure: "fig1_2",
        dataset: DatasetId::Cifar10,
        setting: Setting::DirichletNonIid,
        methods: vec![
            MethodId::PflSsl(SslKind::SimClr),
            MethodId::PflSsl(SslKind::Byol),
        ],
    };
    let fig5_6 = Panel {
        figure: "fig5_6",
        dataset: DatasetId::Cifar10,
        setting: Setting::DirichletNonIid,
        methods: vec![
            MethodId::PflSsl(SslKind::SimSiam),
            MethodId::PflSsl(SslKind::MoCoV2),
            MethodId::Calibre(SslKind::SimSiam),
            MethodId::Calibre(SslKind::MoCoV2),
            MethodId::Calibre(SslKind::SimClr),
            MethodId::Calibre(SslKind::Byol),
        ],
    };
    let fig7 = Panel {
        figure: "fig7",
        dataset: DatasetId::Cifar10,
        setting: Setting::DirichletNonIid,
        methods: supervised_roster(),
    };
    let fig8 = Panel {
        figure: "fig8",
        dataset: DatasetId::Stl10,
        setting: Setting::QuantityNonIid,
        methods: supervised_roster(),
    };
    match experiment {
        "fig1_2" => vec![fig1_2],
        "fig5_6" => vec![fig5_6],
        "fig7_8" => vec![fig7, fig8],
        "all" => vec![fig1_2, fig5_6, fig7, fig8],
        other => panic!("unknown experiment {other} (use fig1_2 | fig5_6 | fig7_8 | all)"),
    }
}

fn supervised_roster() -> Vec<MethodId> {
    vec![
        MethodId::FedAvgFt,
        MethodId::FedRep,
        MethodId::FedPer,
        MethodId::FedBabu,
        MethodId::LgFedAvg,
        MethodId::Calibre(SslKind::SimClr),
    ]
}

/// Collects a multi-client sample of rendered observations with labels and
/// client ids.
fn collect_samples(fed: &FederatedDataset) -> (Matrix, Vec<usize>, Vec<usize>) {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let mut clients = Vec::new();
    for id in 0..fed.num_clients().min(CLIENTS_PER_PANEL) {
        let data = fed.client(id);
        for sample in data.train.iter().take(SAMPLES_PER_CLIENT) {
            rows.push(fed.generator().render(sample));
            labels.push(sample.expect_label());
            clients.push(id);
        }
    }
    (Matrix::from_rows(&rows), labels, clients)
}

fn embed_and_report(
    figure: &str,
    method_name: &str,
    encoder: &Mlp,
    observations: &Matrix,
    labels: &[usize],
    clients: &[usize],
    seed: u64,
) {
    let features = encoder.infer(observations);
    // Cluster quality in *feature* space (what personalization sees).
    let sil = silhouette_score(&features, labels);
    let km = calibre_cluster::kmeans(
        &features,
        &calibre_cluster::KMeansConfig::with_k(labels.iter().max().unwrap() + 1),
    );
    let n = nmi(&km.assignments, labels);
    let p = purity(&km.assignments, labels);
    println!("{figure:<8} {method_name:<22} silhouette {sil:>6.3}  NMI {n:>5.3}  purity {p:>5.3}");
    // 2-D embedding for the figure itself.
    let coords = tsne(
        &features,
        &TsneConfig {
            iterations: 250,
            perplexity: 15.0,
            seed,
            ..Default::default()
        },
    );
    let points = collect_points(&coords, labels, clients);
    let safe_name: String = method_name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = format!("results/tsne/{figure}_{safe_name}.csv");
    match write_csv_file(&path, &points) {
        Ok(()) => println!("{:<8} wrote {path}", ""),
        Err(e) => eprintln!("csv write failed for {path}: {e}"),
    }
}

/// Per-client panels (Fig. 2 / the right panels of Fig. 6): embed each of
/// the first `count` clients' local samples separately.
fn per_client_panels(
    figure: &str,
    method_name: &str,
    encoder: &Mlp,
    fed: &FederatedDataset,
    count: usize,
    seed: u64,
) {
    for id in 0..fed.num_clients().min(count) {
        let data = fed.client(id);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for s in data.train.iter().take(60) {
            rows.push(fed.generator().render(s));
            labels.push(s.expect_label());
        }
        if rows.len() < 5 {
            continue;
        }
        let obs = Matrix::from_rows(&rows);
        let features = encoder.infer(&obs);
        let sil = silhouette_score(&features, &labels);
        println!(
            "{figure:<8} {method_name:<22} client {id:>2}: {} samples, local silhouette {sil:>6.3}",
            labels.len()
        );
        let coords = tsne(
            &features,
            &TsneConfig {
                iterations: 200,
                perplexity: 10.0,
                seed,
                ..Default::default()
            },
        );
        let clients = vec![id; labels.len()];
        let points = collect_points(&coords, &labels, &clients);
        let safe_name: String = method_name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = format!("results/tsne/{figure}_{safe_name}_client{id}.csv");
        if let Err(e) = write_csv_file(&path, &points) {
            eprintln!("csv write failed for {path}: {e}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args_or_exit(&args);
    let mut scale = Scale::Default;
    let mut experiment = "all".to_string();
    let mut seed = 7u64;
    let mut obs_args = ObsArgs::default();
    for (key, value) in parsed {
        if obs_args.accept(&key, &value) {
            continue;
        }
        match key.as_str() {
            "scale" => scale = Scale::parse(&value).unwrap_or_else(|| panic!("bad scale {value}")),
            "seed" => seed = value.parse().expect("seed must be an integer"),
            "experiment" => experiment = value,
            other => {
                eprintln!("unknown flag --{other}");
                std::process::exit(2);
            }
        }
    }

    let fl_overrides = obs_args.clone();
    let obs = obs_args.build();
    println!(
        "== t-SNE figure reproduction (cluster metrics quantify the paper's visual claims) =="
    );
    for panel in panels(&experiment) {
        let fed = build_dataset(panel.dataset, panel.setting, scale, 0, seed);
        let mut cfg: FlConfig = scale.fl_config(seed);
        fl_overrides.apply_fl(&mut cfg);
        let cfg = cfg;
        let (observations, labels, clients) = collect_samples(&fed);
        eprintln!(
            "[tsne] {} on {} / {}: {} points from {} clients",
            panel.figure,
            panel.dataset.name(),
            panel.setting.name(),
            labels.len(),
            CLIENTS_PER_PANEL
        );
        for &method in &panel.methods {
            let result = run_method_observed(method, &fed, &cfg, obs.recorder());
            embed_and_report(
                panel.figure,
                &result.name,
                &result.encoder,
                &observations,
                &labels,
                &clients,
                seed,
            );
            // The paper pairs every multi-client panel with per-client
            // panels (Fig. 2 for pFL-SSL, the last sub-figures of Fig. 6
            // for Calibre).
            if panel.figure == "fig1_2" || panel.figure == "fig5_6" {
                per_client_panels(panel.figure, &result.name, &result.encoder, &fed, 3, seed);
            }
        }
    }
    obs.finish();
}
