//! # calibre-fl
//!
//! Federated-learning runtime, aggregation strategies and the full baseline
//! zoo used in the Calibre evaluation (ICDCS 2024).
//!
//! **Role in Algorithm 1:** the orchestrator of both stages. The federated
//! *training* stage is the select → broadcast → local-update → aggregate
//! round loop ([`pfl_ssl`] for the SSL chassis, [`baselines`] for the
//! supervised zoo); the *personalization* stage is [`personalize`], which
//! fits every client's linear probe on the frozen global encoder. Both
//! stages report their lifecycle to a `calibre_telemetry::Recorder`.
//!
//! The crate provides:
//!
//! - the run configuration and client-selection schedule ([`FlConfig`]);
//! - the supervised classifier model and its scoped local training
//!   ([`model`]);
//! - server aggregation primitives ([`aggregate`]), including the
//!   divergence-weight transform Calibre's server uses;
//! - the shared personalization stage ([`personalize`]) — frozen encoder +
//!   10-epoch linear probe per client, exactly the paper's §V-A settings;
//! - the pFL-SSL chassis ([`pfl_ssl`]) that turns any `calibre_ssl` method
//!   into a personalized-FL approach;
//! - every benchmark approach of the paper ([`baselines`]): FedAvg(-FT),
//!   SCAFFOLD(-FT), FedRep, FedBABU, FedPer, LG-FedAvg, PerFedAvg, APFL,
//!   Ditto, FedEMA and the local-only Script baselines;
//! - parallel client execution ([`parallel`]) and fairness metrics
//!   ([`metrics`]);
//! - deterministic fault injection ([`chaos`]) and the one round engine
//!   ([`scheduler`]) that survives dropouts, stragglers, crashed clients
//!   and corrupted updates with screening, optional norm clipping and
//!   minimum-quorum partial aggregation, over in-process workers or
//!   sockets ([`transport`], [`serve`]);
//! - crash-safe checkpointing ([`checkpoint`]) with atomic writes,
//!   integrity checksums, and a previous-generation fallback.
//!
//! # Example: FedAvg-FT on a tiny federation
//!
//! ```
//! use calibre_data::{FederatedDataset, PartitionConfig, NonIid, SynthVisionSpec};
//! use calibre_fl::{FlConfig, baselines::fedavg::run_fedavg};
//! use calibre_telemetry::NullRecorder;
//!
//! let fed = FederatedDataset::build(SynthVisionSpec::cifar10(), &PartitionConfig {
//!     num_clients: 3, train_per_client: 30, test_per_client: 10,
//!     unlabeled_per_client: 0, non_iid: NonIid::Iid, seed: 1,
//! });
//! let mut cfg = FlConfig::for_input(64);
//! cfg.rounds = 2;
//! cfg.clients_per_round = 2;
//! let result = run_fedavg(&fed, &cfg, true, &NullRecorder);
//! assert_eq!(result.seen.accuracies.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod aggregate;
pub mod baselines;
pub mod chaos;
pub mod checkpoint;
pub mod comm;
mod config;
pub mod metrics;
pub mod model;
pub mod parallel;
pub mod personalize;
pub mod pfl_ssl;
pub mod proto;
pub mod sampler;
pub mod scheduler;
pub mod serve;
pub mod spec;
pub mod transport;

pub use adversary::{AttackInjector, AttackKind, AttackPlan, ReputationBook};
pub use aggregate::{HierarchicalSink, StreamingWeightedSink, UpdateSink};
pub use chaos::{FaultInjector, FaultPlan, WireFaultPlan, WireInjector};
pub use config::FlConfig;
pub use metrics::{jain_index, pearson, worst_fraction_mean, ConfusionMatrix, Stats};
pub use personalize::{personalize_cohort, personalize_cohort_observed, PersonalizationOutcome};
pub use sampler::{Sampler, SamplerKind};
pub use scheduler::{Fold, RoundPolicy, RoundScheduler, StreamedRound};
pub use spec::SpecError;
pub use transport::{
    ClientAddr, ClientOptions, InProcessTransport, Listener, SocketTransport, StreamUpdate,
    Transport, TransportError, WaveSlot,
};
