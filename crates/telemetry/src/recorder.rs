//! The [`Recorder`] trait and its basic implementations.

use crate::event::{ClientLosses, Event};
use parking_lot::Mutex;
use std::time::Duration;

/// Something that consumes telemetry [`Event`]s.
///
/// Implementations must be `Send + Sync` because one recorder is shared by
/// the round engine and the worker threads spawned by
/// `calibre_fl::parallel`. All methods take `&self`; interior mutability is
/// the implementation's concern.
///
/// The named span-style methods (`round_start`, `client_update`, ...) are the
/// API the instrumented loop calls; they construct the event and forward it
/// to [`Recorder::record`], so implementors normally override only `record`.
///
/// ```
/// use calibre_telemetry::{MemoryRecorder, Recorder};
///
/// let rec = MemoryRecorder::new();
/// rec.round_start(0, &[2, 5]);
/// rec.personalize(5, 0.91);
/// let events = rec.events();
/// assert_eq!(events[0].round(), Some(0));
/// assert_eq!(events[1].round(), None);
/// ```
pub trait Recorder: Send + Sync {
    /// Consumes one event. The single required method.
    fn record(&self, event: Event);

    /// A federated round began; `selected` holds the participating client ids.
    fn round_start(&self, round: usize, selected: &[usize]) {
        self.record(Event::RoundStart {
            round,
            selected: selected.to_vec(),
        });
    }

    /// One client finished its local update, taking `wall` of wall-clock time.
    fn client_update(
        &self,
        round: usize,
        client: usize,
        wall: Duration,
        losses: ClientLosses,
        divergence: f32,
    ) {
        self.record(Event::ClientUpdate {
            round,
            client,
            wall_ms: wall.as_secs_f64() * 1e3,
            losses,
            divergence,
        });
    }

    /// The server aggregated `num_clients` payloads with total weight
    /// `total_weight`.
    fn aggregate(&self, round: usize, num_clients: usize, total_weight: f32) {
        self.record(Event::Aggregate {
            round,
            num_clients,
            total_weight,
        });
    }

    /// A federated round completed, with per-client wall-clock and loss
    /// vectors in selection order and the round's communication volume.
    fn round_end(
        &self,
        round: usize,
        mean_loss: f32,
        client_wall_ms: &[f64],
        client_loss: &[f32],
        planned_bytes: u64,
        observed_bytes: u64,
    ) {
        self.record(Event::RoundEnd {
            round,
            mean_loss,
            client_wall_ms: client_wall_ms.to_vec(),
            client_loss: client_loss.to_vec(),
            planned_bytes,
            observed_bytes,
        });
    }

    /// One client finished the personalization stage with the given
    /// personalized test accuracy.
    fn personalize(&self, client: usize, accuracy: f32) {
        self.record(Event::Personalize { client, accuracy });
    }

    /// One client's fault outcome in one round: caught by the engine
    /// (`detected: true`) or let through to the aggregate (`detected:
    /// false`). `attempt` is always 0. See [`Event::Fault`] for the `kind`
    /// vocabulary.
    fn fault(
        &self,
        round: usize,
        client: usize,
        attempt: usize,
        kind: &'static str,
        detected: bool,
    ) {
        self.record(Event::Fault {
            round,
            client,
            attempt,
            kind,
            detected,
        });
    }

    /// Per-round resilience accounting from the round engine, recorded
    /// right after [`Recorder::aggregate`] and only for rounds that dropped
    /// or rejected a client or missed the quorum. `injected` and `detected`
    /// both carry the dropped + rejected count; `retries` is always 0 (the
    /// engine does not retry) and is kept for schema compatibility.
    fn round_resilience(
        &self,
        round: usize,
        injected: usize,
        detected: usize,
        retries: usize,
        quorum: usize,
        skipped: bool,
    ) {
        self.record(Event::RoundResilience {
            round,
            injected,
            detected,
            retries,
            quorum,
            skipped,
        });
    }

    /// A Byzantine attack was injected into one client's update. See
    /// [`Event::Attack`] for the `kind` vocabulary.
    fn attack(&self, round: usize, client: usize, kind: &'static str) {
        self.record(Event::Attack {
            round,
            client,
            kind,
        });
    }

    /// A client crossed the quarantine threshold of the server's
    /// reputation book (see [`Event::Quarantine`]).
    fn quarantine(&self, round: usize, client: usize, suspicion: f32) {
        self.record(Event::Quarantine {
            round,
            client,
            suspicion,
        });
    }

    /// One point of a massive-cohort scaling sweep completed (see
    /// [`Event::CohortPoint`]).
    #[allow(clippy::too_many_arguments)] // mirrors the event's fields
    fn cohort_point(
        &self,
        cohort: usize,
        dim: usize,
        groups: usize,
        rounds: usize,
        rounds_per_sec: f64,
        peak_state_bytes: u64,
        peak_rss_bytes: u64,
    ) {
        self.record(Event::CohortPoint {
            cohort,
            dim,
            groups,
            rounds,
            rounds_per_sec,
            peak_state_bytes,
            peak_rss_bytes,
        });
    }

    /// Pushes buffered events to their destination. A no-op for most
    /// recorders; file-backed sinks override it. Bench binaries call this
    /// explicitly at end-of-run so a hard exit can't truncate the output,
    /// and [`Fanout`] forwards it to every sink.
    fn flush(&self) {}
}

impl<T: Recorder + ?Sized> Recorder for std::sync::Arc<T> {
    fn record(&self, event: Event) {
        (**self).record(event);
    }

    fn flush(&self) {
        (**self).flush();
    }
}

impl<T: Recorder + ?Sized> Recorder for Box<T> {
    fn record(&self, event: Event) {
        (**self).record(event);
    }

    fn flush(&self) {
        (**self).flush();
    }
}

/// A recorder that discards every event. The default when telemetry is off.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _event: Event) {}
}

/// A recorder that keeps every event in memory, in arrival order.
///
/// Intended for tests: run the loop, then assert on [`MemoryRecorder::events`].
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Mutex<Vec<Event>>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a snapshot of all events recorded so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no events have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, event: Event) {
        self.events.lock().push(event);
    }
}

/// Broadcasts every event to a set of recorders.
///
/// Used by the bench binaries to feed a [`crate::JsonlSink`] and a
/// [`crate::MetricsHub`] from a single instrumented run.
#[derive(Default)]
pub struct Fanout {
    sinks: Vec<Box<dyn Recorder>>,
}

impl Fanout {
    /// Creates an empty fanout (records to nothing, like [`NullRecorder`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a recorder to the broadcast set.
    pub fn with(mut self, sink: Box<dyn Recorder>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl Recorder for Fanout {
    fn record(&self, event: Event) {
        match self.sinks.split_last() {
            None => {}
            Some((last, rest)) => {
                for sink in rest {
                    sink.record(event.clone());
                }
                last.record(event);
            }
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_recorder_preserves_event_order() {
        // The acceptance-criterion ordering test: a miniature two-stage run
        // must come back in exactly the order the loop emitted it.
        let rec = MemoryRecorder::new();
        rec.round_start(0, &[0, 1]);
        rec.client_update(0, 0, Duration::from_millis(3), ClientLosses::default(), 0.1);
        rec.client_update(0, 1, Duration::from_millis(4), ClientLosses::default(), 0.2);
        rec.aggregate(0, 2, 2.0);
        rec.round_end(0, 1.0, &[3.0, 4.0], &[1.0, 1.0], 64, 64);
        rec.personalize(0, 0.8);
        rec.personalize(1, 0.9);

        let events = rec.events();
        assert_eq!(events.len(), 7);
        assert!(matches!(events[0], Event::RoundStart { round: 0, .. }));
        assert!(matches!(events[1], Event::ClientUpdate { client: 0, .. }));
        assert!(matches!(events[2], Event::ClientUpdate { client: 1, .. }));
        assert!(matches!(events[3], Event::Aggregate { num_clients: 2, .. }));
        assert!(matches!(events[4], Event::RoundEnd { round: 0, .. }));
        assert!(matches!(events[5], Event::Personalize { client: 0, .. }));
        assert!(matches!(events[6], Event::Personalize { client: 1, .. }));
    }

    #[test]
    fn memory_recorder_is_usable_across_threads() {
        let rec = MemoryRecorder::new();
        std::thread::scope(|scope| {
            for client in 0..8usize {
                let rec = &rec;
                scope.spawn(move || {
                    rec.client_update(
                        0,
                        client,
                        Duration::from_micros(10),
                        ClientLosses::default(),
                        0.0,
                    );
                });
            }
        });
        assert_eq!(rec.len(), 8);
    }

    #[test]
    fn fanout_broadcasts_to_all_sinks() {
        use std::sync::Arc;
        let a = Arc::new(MemoryRecorder::new());
        let b = Arc::new(MemoryRecorder::new());
        let fan = Fanout::new()
            .with(Box::new(Arc::clone(&a)))
            .with(Box::new(Arc::clone(&b)));
        fan.round_start(0, &[1]);
        fan.personalize(1, 0.5);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn null_recorder_accepts_everything() {
        let rec = NullRecorder;
        rec.round_start(0, &[]);
        rec.round_end(0, 0.0, &[], &[], 0, 0);
    }
}
