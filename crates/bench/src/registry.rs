//! The method registry: every approach evaluated in the paper, runnable by
//! id.

use calibre::{run_calibre_observed, CalibreConfig};
use calibre_data::{AugmentConfig, FederatedDataset};
use calibre_fl::baselines::{
    apfl::run_apfl, ditto::run_ditto, fedavg::run_fedavg, fedbabu::run_fedbabu, fedema::run_fedema,
    fedper::run_fedper, fedprox::run_fedprox, fedrep::run_fedrep, lgfedavg::run_lgfedavg,
    perfedavg::run_perfedavg, scaffold::run_scaffold, script::run_script, BaselineResult,
};
use calibre_fl::pfl_ssl::run_pfl_ssl_observed;
use calibre_fl::FlConfig;
use calibre_ssl::SslKind;
use calibre_telemetry::{NullRecorder, Recorder};

/// Identifier of a method in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodId {
    /// FedAvg with head fine-tuning (FedAvg-FT).
    FedAvgFt,
    /// SCAFFOLD with head fine-tuning (SCAFFOLD-FT).
    ScaffoldFt,
    /// FedRep.
    FedRep,
    /// FedBABU.
    FedBabu,
    /// FedPer.
    FedPer,
    /// LG-FedAvg.
    LgFedAvg,
    /// PerFedAvg (FO-MAML).
    PerFedAvg,
    /// APFL.
    Apfl,
    /// Ditto.
    Ditto,
    /// FedProx with head fine-tuning (library extension, not in the paper).
    FedProxFt,
    /// FedEMA.
    FedEma,
    /// Local-only training until convergence.
    ScriptConvergent,
    /// Local-only training for 10 epochs.
    ScriptFair,
    /// Plain pFL-SSL with the given backbone (no calibration).
    PflSsl(SslKind),
    /// Calibre with the given SSL backbone.
    Calibre(SslKind),
    /// Calibre ablation with explicit `L_n` / `L_p` toggles (Table I).
    CalibreAblation(SslKind, bool, bool),
}

impl MethodId {
    /// The full Fig. 3 / Fig. 4 method roster in paper order.
    pub fn roster() -> Vec<MethodId> {
        vec![
            MethodId::FedAvgFt,
            MethodId::ScaffoldFt,
            MethodId::FedRep,
            MethodId::FedBabu,
            MethodId::FedPer,
            MethodId::LgFedAvg,
            MethodId::PerFedAvg,
            MethodId::Apfl,
            MethodId::Ditto,
            MethodId::FedEma,
            MethodId::ScriptConvergent,
            MethodId::ScriptFair,
            MethodId::PflSsl(SslKind::SimClr),
            MethodId::PflSsl(SslKind::Byol),
            MethodId::Calibre(SslKind::SimClr),
            MethodId::Calibre(SslKind::Byol),
            MethodId::Calibre(SslKind::SimSiam),
            MethodId::Calibre(SslKind::MoCoV2),
        ]
    }

    /// A smaller roster for quick comparisons (smoke runs, examples).
    pub fn short_roster() -> Vec<MethodId> {
        vec![
            MethodId::FedAvgFt,
            MethodId::FedBabu,
            MethodId::PflSsl(SslKind::SimClr),
            MethodId::Calibre(SslKind::SimClr),
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> String {
        match self {
            MethodId::FedAvgFt => "FedAvg-FT".into(),
            MethodId::ScaffoldFt => "SCAFFOLD-FT".into(),
            MethodId::FedRep => "FedRep".into(),
            MethodId::FedBabu => "FedBABU".into(),
            MethodId::FedPer => "FedPer".into(),
            MethodId::LgFedAvg => "LG-FedAvg".into(),
            MethodId::PerFedAvg => "PerFedAvg".into(),
            MethodId::Apfl => "APFL".into(),
            MethodId::Ditto => "Ditto".into(),
            MethodId::FedProxFt => "FedProx-FT".into(),
            MethodId::FedEma => "FedEMA".into(),
            MethodId::ScriptConvergent => "Script-Convergent".into(),
            MethodId::ScriptFair => "Script-Fair".into(),
            MethodId::PflSsl(kind) => format!("pFL-{}", kind.name()),
            MethodId::Calibre(kind) => format!("Calibre ({})", kind.name()),
            MethodId::CalibreAblation(kind, ln, lp) => {
                format!("Calibre ({}) [L_n={} L_p={}]", kind.name(), ln, lp)
            }
        }
    }

    /// Parses a CLI method name (case-insensitive, as printed by
    /// [`MethodId::name`] for the non-parameterized variants, or
    /// `pfl-simclr` / `calibre-simclr` style for the SSL families).
    pub fn parse(s: &str) -> Option<MethodId> {
        let lower = s.to_ascii_lowercase();
        let kind_of = |name: &str| -> Option<SslKind> {
            SslKind::ALL
                .into_iter()
                .find(|k| k.name().eq_ignore_ascii_case(name))
        };
        match lower.as_str() {
            "fedavg-ft" | "fedavgft" => Some(MethodId::FedAvgFt),
            "scaffold-ft" | "scaffoldft" => Some(MethodId::ScaffoldFt),
            "fedrep" => Some(MethodId::FedRep),
            "fedbabu" => Some(MethodId::FedBabu),
            "fedper" => Some(MethodId::FedPer),
            "lg-fedavg" | "lgfedavg" => Some(MethodId::LgFedAvg),
            "perfedavg" => Some(MethodId::PerFedAvg),
            "apfl" => Some(MethodId::Apfl),
            "ditto" => Some(MethodId::Ditto),
            "fedprox" | "fedprox-ft" => Some(MethodId::FedProxFt),
            "fedema" => Some(MethodId::FedEma),
            "script-convergent" => Some(MethodId::ScriptConvergent),
            "script-fair" => Some(MethodId::ScriptFair),
            _ => {
                if let Some(rest) = lower.strip_prefix("pfl-") {
                    kind_of(rest).map(MethodId::PflSsl)
                } else if let Some(rest) = lower.strip_prefix("calibre-ablation-") {
                    // `calibre-ablation-<kind>[:ln][:lp]` — explicit loss
                    // toggles, e.g. `calibre-ablation-simclr:ln:lp`.
                    let mut parts = rest.split(':');
                    let kind = kind_of(parts.next().unwrap_or(""))?;
                    let (mut ln, mut lp) = (false, false);
                    for flag in parts {
                        match flag {
                            "ln" => ln = true,
                            "lp" => lp = true,
                            _ => return None,
                        }
                    }
                    Some(MethodId::CalibreAblation(kind, ln, lp))
                } else if let Some(rest) = lower.strip_prefix("calibre-") {
                    kind_of(rest).map(MethodId::Calibre)
                } else {
                    None
                }
            }
        }
    }
}

/// Runs a method end to end on a federated dataset.
pub fn run_method(id: MethodId, fed: &FederatedDataset, cfg: &FlConfig) -> BaselineResult {
    run_method_observed(id, fed, cfg, &NullRecorder)
}

/// Like [`run_method`], reporting round-level telemetry to `recorder`.
///
/// Every method except Script-* trains on the round engine, so
/// `cfg.chaos`, `cfg.attack`, `cfg.detect` and `cfg.policy` apply to it
/// and its rounds reach the recorder. Script-* trains locally, with no
/// rounds, so the recorder sees no events for it.
pub fn run_method_observed(
    id: MethodId,
    fed: &FederatedDataset,
    cfg: &FlConfig,
    recorder: &dyn Recorder,
) -> BaselineResult {
    let aug = AugmentConfig::default();
    match id {
        MethodId::FedAvgFt => run_fedavg(fed, cfg, true, recorder),
        MethodId::ScaffoldFt => run_scaffold(fed, cfg, true, recorder),
        MethodId::FedRep => run_fedrep(fed, cfg, recorder),
        MethodId::FedBabu => run_fedbabu(fed, cfg, recorder),
        MethodId::FedPer => run_fedper(fed, cfg, recorder),
        MethodId::LgFedAvg => run_lgfedavg(fed, cfg, recorder),
        MethodId::PerFedAvg => run_perfedavg(fed, cfg, recorder),
        MethodId::Apfl => run_apfl(fed, cfg, recorder),
        MethodId::Ditto => run_ditto(fed, cfg, recorder),
        MethodId::FedProxFt => run_fedprox(fed, cfg, 0.1, recorder),
        MethodId::FedEma => run_fedema(fed, cfg, &aug, recorder),
        MethodId::ScriptConvergent => run_script(fed, cfg, true),
        MethodId::ScriptFair => run_script(fed, cfg, false),
        MethodId::PflSsl(kind) => run_pfl_ssl_observed(fed, cfg, kind, &aug, recorder),
        MethodId::Calibre(kind) => {
            // The regularizers fade in over the first half of training:
            // pseudo-labels from an untrained encoder are noise.
            let ccfg = CalibreConfig {
                warmup_rounds: cfg.rounds / 2,
                ..CalibreConfig::default()
            };
            run_calibre_observed(fed, cfg, kind, &ccfg, &aug, recorder)
        }
        MethodId::CalibreAblation(kind, use_ln, use_lp) => {
            let ccfg = CalibreConfig {
                warmup_rounds: cfg.rounds / 2,
                ..CalibreConfig::ablation(use_ln, use_lp)
            };
            let mut result = run_calibre_observed(fed, cfg, kind, &ccfg, &aug, recorder);
            result.name = id.name();
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_every_roster_method() {
        for id in MethodId::roster() {
            let key = match id {
                MethodId::PflSsl(kind) => format!("pfl-{}", kind.name()),
                MethodId::Calibre(kind) => format!("calibre-{}", kind.name()),
                other => other.name(),
            };
            assert_eq!(MethodId::parse(&key), Some(id), "failed to parse {key}");
        }
    }

    #[test]
    fn parse_rejects_unknown() {
        assert_eq!(MethodId::parse("fedsgd"), None);
        assert_eq!(MethodId::parse("calibre-unknown"), None);
        assert_eq!(MethodId::parse("calibre-ablation-simclr:bogus"), None);
    }

    #[test]
    fn parse_covers_the_ablation_family() {
        assert_eq!(
            MethodId::parse("calibre-ablation-simclr:ln:lp"),
            Some(MethodId::CalibreAblation(SslKind::SimClr, true, true))
        );
        assert_eq!(
            MethodId::parse("calibre-ablation-byol:lp"),
            Some(MethodId::CalibreAblation(SslKind::Byol, false, true))
        );
        assert_eq!(
            MethodId::parse("calibre-ablation-simclr"),
            Some(MethodId::CalibreAblation(SslKind::SimClr, false, false))
        );
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<String> = MethodId::roster().iter().map(|m| m.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
