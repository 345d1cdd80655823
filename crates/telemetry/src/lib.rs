//! Round-level telemetry for the Calibre federated loop.
//!
//! In Algorithm 1 terms this crate observes both stages without taking part
//! in either. Each federated round of the *training stage* emits one
//! [`Event::RoundStart`], any [`Event::Attack`] and [`Event::Fault`] events,
//! one [`Event::Aggregate`], an [`Event::RoundResilience`] when clients were
//! dropped or rejected or the quorum was missed, one [`Event::ClientUpdate`]
//! per accepted client, and one [`Event::RoundEnd`]. The *personalization
//! stage* emits one [`Event::Personalize`] per client when the frozen global
//! encoder is evaluated with a local linear probe.
//!
//! The design splits cleanly into three layers:
//!
//! * **Events** ([`Event`], [`ClientLosses`]) — plain-data descriptions of
//!   what happened, with a hand-rolled JSON encoding ([`Event::to_json`]) so
//!   the crate works in hermetic builds without a serialization framework.
//! * **Recorders** ([`Recorder`]) — where events go. [`NullRecorder`]
//!   discards them, [`MemoryRecorder`] keeps them for tests,
//!   [`JsonlSink`] streams them to a JSON-lines file, and [`Fanout`]
//!   broadcasts to several recorders at once.
//! * **Aggregation** ([`MetricsHub`]) — a thread-safe reducer that folds the
//!   event stream into per-round wall-clock/loss summaries and a final
//!   fairness summary (mean, std, worst-10% accuracy) matching the paper's
//!   evaluation protocol.
//!
//! Every recorder is `Send + Sync`, so a single `&dyn Recorder` can be
//! shared by the round engine and the worker threads it fans client work
//! out to. The training loops time each client inside its worker and record
//! the `client_update` events on the calling thread once the round has
//! aggregated, in fold order.
//!
//! Below the round-level events sits a second, finer-grained layer added in
//! PR 2: **spans** ([`mod@span`]) — RAII-guarded named regions with thread-local
//! nesting — consumed by an aggregating profiler ([`profile`]) and a
//! Chrome trace-event exporter for Perfetto ([`trace`]). [`json`] is the
//! matching hand-rolled reader used by the perf-regression gate.
//!
//! PR 7 adds the *live* surface: a deterministic metrics registry
//! ([`metrics`] — counters, gauges, log₂-bucket histograms, disabled by
//! default so training stays bit-identical), a dependency-free HTTP
//! exposition server ([`export`] — `/metrics` in Prometheus text format,
//! `/status` as JSON), and [`HubSnapshot`] — the single struct that the
//! console summary, `/status`, and the `calibre-obs` CLI all render from.
//!
//! ```
//! use calibre_telemetry::{ClientLosses, MemoryRecorder, Recorder};
//! use std::time::Duration;
//!
//! let rec = MemoryRecorder::new();
//! rec.round_start(0, &[0, 1]);
//! rec.client_update(0, 1, Duration::from_millis(12),
//!                   ClientLosses { total: 1.5, ssl: 1.4, l_n: 0.06, l_p: 0.04 },
//!                   0.2);
//! rec.aggregate(0, 2, 2.0);
//! rec.round_end(0, 1.5, &[12.0, 13.5], &[1.5, 1.6], 4096, 4096);
//! assert_eq!(rec.events().len(), 4);
//! ```

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

mod event;
pub mod export;
mod hub;
pub mod json;
mod jsonl;
pub mod metrics;
pub mod profile;
mod recorder;
mod snapshot;
pub mod span;
pub mod trace;

pub use event::{ClientLosses, Event};
pub use export::MetricsServer;
pub use hub::{
    AttackSummary, CohortSummary, FairnessSummary, MetricsHub, ResilienceSummary, RoundSummary,
};
pub use json::JsonValue;
pub use jsonl::JsonlSink;
pub use profile::{ProfileCollector, ProfileReport, SpanStats};
pub use recorder::{Fanout, MemoryRecorder, NullRecorder, Recorder};
pub use snapshot::HubSnapshot;
pub use span::{
    collector_installed, install_collector, span, uninstall_collector, SpanFanout, SpanGuard,
    SpanSink,
};
pub use trace::TraceCollector;
