//! Round and wave boundaries seen from outside the engine.
//!
//! A [`BenchRecorder`] (the engine's `Recorder` hook) and a
//! [`TracingTransport`] (a `Transport` wrapper) stamp marks onto one
//! [`Timeline`]. [`attribute`] turns the marks into per-round phases:
//!
//! ```text
//! round_start ─prep─▶ wave() ─wave─▶ return ─fold─▶ wave() … return ─seal─▶ aggregate ─between─▶ next round_start
//! ```
//!
//! `fold` is screen + fold of a wave's replies before the next wave is
//! dispatched; `seal` is the last wave's fold plus quorum flush and the
//! sink's `finish`; `between` is detection scoring, model apply and the
//! next selection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use calibre_fl::transport::{StreamUpdate, Transport, TransportError, WaveSlot};
use calibre_telemetry::{ClientLosses, Event, Recorder};

use crate::report::ProcMark;

/// Nanoseconds since an origin. Tests substitute a scripted clock.
pub type Clock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// A monotonic clock starting at zero now.
pub fn real_clock() -> Clock {
    let origin = Instant::now();
    Arc::new(move || origin.elapsed().as_nanos() as u64)
}

/// One boundary the benchmark observed.
#[derive(Debug, Clone, PartialEq)]
pub enum Mark {
    /// `Recorder::round_start`, with the selected client ids.
    RoundStart { round: usize, clients: Vec<usize> },
    /// A `Transport::wave` call began.
    WaveCall { slots: usize },
    /// The wave returned. Client figures come from the work closure or the
    /// client threads via a [`ClientProbe`].
    WaveReturn {
        delivered: usize,
        busy_ns: u64,
        slowest_ns: u64,
        calls: u64,
    },
    /// `Recorder::aggregate`.
    Aggregate { accepted: usize, weight: f32 },
    /// `Recorder::round_resilience`: `failed` is dropped + rejected.
    Resilience { failed: usize, skipped: bool },
    /// `Recorder::client_update` (collect path).
    ClientUpdate { wall_ns: u64 },
    /// `Recorder::round_end`: whether every reported loss was finite.
    RoundEnd { losses_finite: bool },
    /// `Recorder::attack`.
    Attack,
    /// `Recorder::quarantine`.
    Quarantine,
    /// `Recorder::fault`.
    Fault,
    /// The run call returned.
    End,
}

/// Marks in the order they happened, each with its time.
pub struct Timeline {
    clock: Clock,
    marks: Mutex<Vec<(u64, Mark)>>,
}

impl Timeline {
    /// An empty timeline on `clock`.
    pub fn new(clock: Clock) -> Self {
        Timeline {
            clock,
            marks: Mutex::new(Vec::new()),
        }
    }

    /// The current time on this timeline's clock.
    pub fn now(&self) -> u64 {
        (self.clock)()
    }

    /// Stamps `mark` and returns its time. The time is read under the
    /// lock, so marks are stored in time order even when several threads
    /// record.
    pub fn push(&self, mark: Mark) -> u64 {
        let mut marks = self.marks.lock().expect("timeline lock poisoned");
        let t = (self.clock)();
        marks.push((t, mark));
        t
    }

    /// A copy of the marks so far.
    pub fn marks(&self) -> Vec<(u64, Mark)> {
        self.marks.lock().expect("timeline lock poisoned").clone()
    }
}

/// The benchmark's `Recorder`: stamps round boundaries and counts events.
/// It keeps no per-client payloads, so its cost is one lock per event.
///
/// At the `round_start` of the first timed round it reads the process
/// counters the run's CPU figures start from.
pub struct BenchRecorder<'a> {
    timeline: &'a Timeline,
    first_timed: usize,
    window: Mutex<Option<Result<ProcMark, String>>>,
}

impl<'a> BenchRecorder<'a> {
    /// Records onto `timeline`; round `first_timed` opens the timed window.
    pub fn new(timeline: &'a Timeline, first_timed: usize) -> Self {
        BenchRecorder {
            timeline,
            first_timed,
            window: Mutex::new(None),
        }
    }

    /// The counters read when the timed window opened.
    pub fn window_start(&self) -> Result<ProcMark, String> {
        self.window
            .lock()
            .expect("window lock poisoned")
            .clone()
            .unwrap_or_else(|| Err("the timed window never opened".to_string()))
    }
}

impl Recorder for BenchRecorder<'_> {
    fn record(&self, _event: Event) {}

    fn round_start(&self, round: usize, selected: &[usize]) {
        self.timeline.push(Mark::RoundStart {
            round,
            clients: selected.to_vec(),
        });
        if round == self.first_timed {
            *self.window.lock().expect("window lock poisoned") = Some(ProcMark::now());
        }
    }

    fn client_update(
        &self,
        _round: usize,
        _client: usize,
        wall: Duration,
        _losses: ClientLosses,
        _divergence: f32,
    ) {
        self.timeline.push(Mark::ClientUpdate {
            wall_ns: wall.as_nanos() as u64,
        });
    }

    fn aggregate(&self, _round: usize, num_clients: usize, total_weight: f32) {
        self.timeline.push(Mark::Aggregate {
            accepted: num_clients,
            weight: total_weight,
        });
    }

    fn round_end(
        &self,
        _round: usize,
        mean_loss: f32,
        _client_wall_ms: &[f64],
        client_loss: &[f32],
        _planned_bytes: u64,
        _observed_bytes: u64,
    ) {
        let losses_finite = mean_loss.is_finite() && client_loss.iter().all(|l| l.is_finite());
        self.timeline.push(Mark::RoundEnd { losses_finite });
    }

    fn personalize(&self, _client: usize, _accuracy: f32) {}

    fn fault(&self, _round: usize, _client: usize, _attempt: usize, _kind: &'static str, _d: bool) {
        self.timeline.push(Mark::Fault);
    }

    fn round_resilience(
        &self,
        _round: usize,
        injected: usize,
        _detected: usize,
        _retries: usize,
        _quorum: usize,
        skipped: bool,
    ) {
        self.timeline.push(Mark::Resilience {
            failed: injected,
            skipped,
        });
    }

    fn attack(&self, _round: usize, _client: usize, _kind: &'static str) {
        self.timeline.push(Mark::Attack);
    }

    fn quarantine(&self, _round: usize, _client: usize, _suspicion: f32) {
        self.timeline.push(Mark::Quarantine);
    }
}

/// Client work time, one cell per client id, written from worker or client
/// threads and read by the wave wrapper when the wave returns. One cell
/// per client keeps the workers from contending on a shared counter.
#[derive(Debug)]
pub struct ClientProbe {
    ns: Vec<AtomicU64>,
}

impl ClientProbe {
    /// Cells for client ids `0..population`.
    pub fn new(population: usize) -> Self {
        ClientProbe {
            ns: (0..population).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Times `f` as client `client`'s work. Statistics only: the cells
    /// publish no other data, so `Relaxed` suffices; the wave returns after
    /// every reply it carries was computed.
    pub fn time<R>(&self, client: usize, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.add(client, t.elapsed().as_nanos() as u64);
        out
    }

    /// Adds `ns` of work to client `client`'s cell.
    pub fn add(&self, client: usize, ns: u64) {
        if let Some(cell) = self.ns.get(client) {
            cell.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Returns and clears `(busy, slowest, clients that worked)` over the
    /// cells of `slots`.
    pub fn take(&self, slots: &[WaveSlot]) -> (u64, u64, u64) {
        let mut out = (0, 0, 0);
        for s in slots {
            let ns = self
                .ns
                .get(s.client)
                .map_or(0, |c| c.swap(0, Ordering::Relaxed));
            out.0 += ns;
            out.1 = out.1.max(ns);
            out.2 += u64::from(ns > 0);
        }
        out
    }
}

/// A `Transport` that stamps every wave's call and return.
pub struct TracingTransport<'a, T> {
    /// The wrapped transport.
    pub inner: T,
    timeline: &'a Timeline,
    probe: Arc<ClientProbe>,
}

impl<'a, T: Transport> TracingTransport<'a, T> {
    /// Wraps `inner`; `probe` is the one its client work reports to.
    pub fn new(inner: T, timeline: &'a Timeline, probe: Arc<ClientProbe>) -> Self {
        TracingTransport {
            inner,
            timeline,
            probe,
        }
    }
}

impl<T: Transport> Transport for TracingTransport<'_, T> {
    fn wave(
        &mut self,
        round: usize,
        slots: &[WaveSlot],
        global: &[f32],
    ) -> Result<Vec<Option<StreamUpdate>>, TransportError> {
        self.probe.take(slots);
        self.timeline.push(Mark::WaveCall { slots: slots.len() });
        let out = self.inner.wave(round, slots, global);
        let (busy_ns, slowest_ns, calls) = self.probe.take(slots);
        let delivered = out
            .as_ref()
            .map_or(0, |r| r.iter().filter(|u| u.is_some()).count());
        self.timeline.push(Mark::WaveReturn {
            delivered,
            busy_ns,
            slowest_ns,
            calls,
        });
        out
    }

    fn finish(&mut self, rounds: usize, checksum: u64) -> Result<(), TransportError> {
        self.inner.finish(rounds, checksum)
    }
}

/// A named interval. `parent` indexes the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub round: Option<usize>,
}

/// Where one round's time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundPhases {
    pub round: usize,
    pub start: u64,
    pub end: u64,
    /// The client ids `round_start` reported.
    pub clients: Vec<usize>,
    pub accepted: usize,
    /// Dropped + rejected, from `round_resilience`.
    pub failed: usize,
    pub skipped: bool,
    pub aggregated: bool,
    pub aggregate_weight_finite: bool,
    pub losses_finite: bool,
    pub waves: usize,
    pub slots: usize,
    pub delivered: usize,
    pub prep_ns: u64,
    pub wave_ns: u64,
    pub fold_ns: u64,
    pub seal_ns: u64,
    pub between_ns: u64,
    /// Σ client work time (work closure, client threads, or
    /// `client_update` walls on the collect path).
    pub busy_ns: u64,
    pub client_calls: u64,
    /// Σ over waves of `wave − max(slowest client, busy ÷ threads)`.
    pub overhead_ns: u64,
    /// Σ over waves of `wave − slowest client`.
    pub wire_ns: u64,
    /// Collect path: `round_start` to the first `client_update`.
    pub client_phase_ns: u64,
    pub attacks: usize,
    pub quarantines: usize,
    pub faults: usize,
    /// `round_resilience` events (rounds with drops, rejections or a
    /// missed quorum).
    pub resilience_events: usize,
}

impl RoundPhases {
    /// Round wall time.
    pub fn wall_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Clients selected for the round.
    pub fn selected(&self) -> usize {
        self.clients.len()
    }
}

#[derive(Default)]
struct Open {
    phases: RoundPhases,
    span: usize,
    wave_call: u64,
    last_return: Option<u64>,
    aggregate_at: Option<u64>,
    slowest_client: u64,
}

/// Splits the marks into rounds and attributes each round's time to its
/// phases. Returns the phases and a span tree (one `round` span per round,
/// its phases as children). `threads` is the worker count the in-process
/// pool runs client work on.
pub fn attribute(marks: &[(u64, Mark)], threads: usize) -> (Vec<RoundPhases>, Vec<Span>) {
    let threads = threads.max(1) as u64;
    let mut rounds = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut cur: Option<Open> = None;

    fn child(spans: &mut Vec<Span>, open: &Open, name: &'static str, start: u64, end: u64) {
        spans.push(Span {
            name,
            start,
            end,
            parent: Some(open.span),
            round: Some(open.phases.round),
        });
    }
    fn close(
        mut open: Open,
        t: u64,
        threads: u64,
        spans: &mut Vec<Span>,
        rounds: &mut Vec<RoundPhases>,
    ) {
        open.phases.end = t;
        spans[open.span].end = t;
        if let Some(a) = open.aggregate_at {
            open.phases.between_ns = t.saturating_sub(a);
            child(spans, &open, "between", a, t);
        }
        if open.phases.waves == 0 && open.phases.client_calls > 0 {
            // Collect path: the client phase is one parallel map, whose
            // best possible makespan is the slowest client or an even
            // share of the work, whichever is larger.
            let ideal = open.slowest_client.max(open.phases.busy_ns / threads);
            open.phases.overhead_ns = open.phases.client_phase_ns.saturating_sub(ideal);
        }
        rounds.push(open.phases);
    }

    for (t, mark) in marks.iter().cloned() {
        if let Mark::RoundStart { round, clients } = mark {
            if let Some(open) = cur.take() {
                close(open, t, threads, &mut spans, &mut rounds);
            }
            spans.push(Span {
                name: "round",
                start: t,
                end: t,
                parent: None,
                round: Some(round),
            });
            cur = Some(Open {
                phases: RoundPhases {
                    round,
                    start: t,
                    clients,
                    aggregate_weight_finite: true,
                    losses_finite: true,
                    ..RoundPhases::default()
                },
                span: spans.len() - 1,
                ..Open::default()
            });
            continue;
        }
        let Some(open) = cur.as_mut() else { continue };
        let p = &mut open.phases;
        match mark {
            Mark::RoundStart { .. } => unreachable!("handled above"),
            Mark::WaveCall { slots } => {
                match open.last_return {
                    None => {
                        p.prep_ns = t.saturating_sub(p.start);
                        let s = p.start;
                        child(&mut spans, open, "prep", s, t);
                    }
                    Some(prev) => {
                        p.fold_ns += t.saturating_sub(prev);
                        child(&mut spans, open, "fold", prev, t);
                    }
                }
                let p = &mut open.phases;
                p.slots += slots;
                open.wave_call = t;
            }
            Mark::WaveReturn {
                delivered,
                busy_ns,
                slowest_ns,
                calls,
            } => {
                let d = t.saturating_sub(open.wave_call);
                p.waves += 1;
                p.wave_ns += d;
                p.delivered += delivered;
                p.busy_ns += busy_ns;
                p.client_calls += calls;
                p.overhead_ns += d.saturating_sub(slowest_ns.max(busy_ns / threads));
                p.wire_ns += d.saturating_sub(slowest_ns);
                open.last_return = Some(t);
                let call = open.wave_call;
                child(&mut spans, open, "wave", call, t);
            }
            Mark::Aggregate { accepted, weight } => {
                p.accepted = accepted;
                p.aggregated = true;
                p.aggregate_weight_finite = weight.is_finite();
                open.aggregate_at = Some(t);
                if let Some(last) = open.last_return {
                    open.phases.seal_ns = t.saturating_sub(last);
                    child(&mut spans, open, "seal", last, t);
                }
            }
            Mark::Resilience { failed, skipped } => {
                p.failed = failed;
                p.skipped = skipped;
                p.resilience_events += 1;
            }
            Mark::ClientUpdate { wall_ns } => {
                if p.client_calls == 0 {
                    p.client_phase_ns = t.saturating_sub(p.start);
                    let s = p.start;
                    child(&mut spans, open, "clients", s, t);
                }
                let p = &mut open.phases;
                p.busy_ns += wall_ns;
                p.client_calls += 1;
                open.slowest_client = open.slowest_client.max(wall_ns);
            }
            Mark::RoundEnd { losses_finite } => p.losses_finite &= losses_finite,
            Mark::Attack => p.attacks += 1,
            Mark::Quarantine => p.quarantines += 1,
            Mark::Fault => p.faults += 1,
            Mark::End => {
                if let Some(open) = cur.take() {
                    close(open, t, threads, &mut spans, &mut rounds);
                }
            }
        }
    }
    if let Some(open) = cur.take() {
        // No `End` mark: the round closes at the last thing seen.
        let t = marks.last().map_or(open.phases.start, |(t, _)| *t);
        close(open, t, threads, &mut spans, &mut rounds);
    }
    (rounds, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_fl::serve::{run_rounds, ServeConfig};
    use std::sync::atomic::AtomicU64;

    /// A clock that moves only when a test or a scripted transport says so.
    fn fake_clock() -> (Arc<AtomicU64>, Clock) {
        let t = Arc::new(AtomicU64::new(0));
        let read = Arc::clone(&t);
        (t, Arc::new(move || read.load(Ordering::SeqCst)))
    }

    /// Every wave takes `wave_ns` on the fake clock; each client in it
    /// reports `client_ns[i]` of work (cycling).
    struct Scripted {
        clock: Arc<AtomicU64>,
        probe: Arc<ClientProbe>,
        wave_ns: u64,
        client_ns: Vec<u64>,
    }

    impl Transport for Scripted {
        fn wave(
            &mut self,
            _round: usize,
            slots: &[WaveSlot],
            global: &[f32],
        ) -> Result<Vec<Option<StreamUpdate>>, TransportError> {
            for (i, s) in slots.iter().enumerate() {
                self.probe
                    .add(s.client, self.client_ns[i % self.client_ns.len()]);
            }
            self.clock.fetch_add(self.wave_ns, Ordering::SeqCst);
            Ok(slots
                .iter()
                .map(|_| {
                    Some(StreamUpdate {
                        update: vec![0.5; global.len()],
                        weight: 1.0,
                        loss: 0.0,
                        divergence: 0.0,
                    })
                })
                .collect())
        }

        fn finish(&mut self, _rounds: usize, _checksum: u64) -> Result<(), TransportError> {
            Ok(())
        }
    }

    fn slots(clients: &[usize]) -> Vec<WaveSlot> {
        clients
            .iter()
            .enumerate()
            .map(|(slot, &client)| WaveSlot { slot, client })
            .collect()
    }

    #[test]
    fn wave_gaps_split_into_prep_wave_fold_seal_and_between() {
        let (t, clock) = fake_clock();
        let timeline = Timeline::new(clock);
        let recorder = BenchRecorder::new(&timeline, usize::MAX);
        let probe = Arc::new(ClientProbe::new(8));
        let inner = Scripted {
            clock: Arc::clone(&t),
            probe: Arc::clone(&probe),
            wave_ns: 10,
            client_ns: vec![4, 6],
        };
        let mut tr = TracingTransport::new(inner, &timeline, probe);
        let advance = |ns| t.fetch_add(ns, Ordering::SeqCst);
        let global = [0.0f32; 3];

        recorder.round_start(0, &[1, 2, 3]);
        advance(2); // prep: selection, attack decisions, sink
        tr.wave(0, &slots(&[1, 2]), &global).unwrap();
        advance(3); // fold of wave 1
        tr.wave(0, &slots(&[3]), &global).unwrap();
        advance(4); // fold of the last wave + finish
        recorder.aggregate(0, 3, 3.0);
        advance(5); // detection, model apply, next selection
        recorder.round_start(1, &[4]);
        advance(1);
        tr.wave(1, &slots(&[4]), &global).unwrap();
        advance(2);
        recorder.round_resilience(1, 0, 0, 0, 1, false);
        recorder.aggregate(1, 1, 1.0);
        advance(6);
        timeline.push(Mark::End);

        let (rounds, spans) = attribute(&timeline.marks(), 2);
        assert_eq!(rounds.len(), 2);
        let r0 = &rounds[0];
        assert_eq!(
            (
                r0.prep_ns,
                r0.wave_ns,
                r0.fold_ns,
                r0.seal_ns,
                r0.between_ns
            ),
            (2, 20, 3, 4, 5)
        );
        assert_eq!(
            (r0.waves, r0.slots, r0.delivered, r0.wall_ns()),
            (2, 3, 3, 34)
        );
        // Wave 1: clients 4 + 6 ns, slowest 6 ⇒ ideal max(6, 10/2) = 6,
        // overhead 4. Wave 2: one client of 4 ns ⇒ overhead 6.
        assert_eq!((r0.busy_ns, r0.client_calls), (14, 3));
        assert_eq!((r0.overhead_ns, r0.wire_ns), (4 + 6, 4 + 6));
        let r1 = &rounds[1];
        assert_eq!(
            (
                r1.prep_ns,
                r1.wave_ns,
                r1.fold_ns,
                r1.seal_ns,
                r1.between_ns
            ),
            (1, 10, 0, 2, 6)
        );
        assert_eq!(r1.wall_ns(), 19);
        // Phase spans tile each round exactly.
        for (i, r) in rounds.iter().enumerate() {
            let kids: u64 = spans
                .iter()
                .filter(|s| s.parent.is_some() && s.round == Some(i))
                .map(|s| s.end - s.start)
                .sum();
            assert_eq!(kids, r.wall_ns(), "round {i}");
        }
    }

    #[test]
    fn collect_path_rounds_use_client_update_walls() {
        let (t, clock) = fake_clock();
        let timeline = Timeline::new(clock);
        let recorder = BenchRecorder::new(&timeline, usize::MAX);
        let losses = ClientLosses {
            total: 1.0,
            ssl: 1.0,
            l_n: 0.0,
            l_p: 0.0,
        };
        recorder.round_start(0, &[0, 1]);
        t.fetch_add(50, Ordering::SeqCst);
        recorder.client_update(0, 0, Duration::from_nanos(30), losses, 0.0);
        recorder.client_update(0, 1, Duration::from_nanos(40), losses, 0.0);
        t.fetch_add(1, Ordering::SeqCst);
        recorder.aggregate(0, 2, 2.0);
        recorder.round_end(0, f32::NAN, &[], &[1.0, 2.0], 0, 0);
        t.fetch_add(2, Ordering::SeqCst);
        timeline.push(Mark::End);
        let (rounds, _) = attribute(&timeline.marks(), 2);
        let r = &rounds[0];
        assert_eq!((r.client_phase_ns, r.busy_ns, r.client_calls), (50, 70, 2));
        // Ideal makespan max(slowest 40, 70 / 2) = 40 ⇒ overhead 10.
        assert_eq!(r.overhead_ns, 10);
        assert_eq!(
            (r.accepted, r.selected(), r.between_ns, r.wall_ns()),
            (2, 2, 2, 53)
        );
        assert!(!r.losses_finite, "a NaN mean loss must be flagged");
    }

    #[test]
    fn the_serve_engine_drives_the_wrapper_wave_by_wave() {
        let (t, clock) = fake_clock();
        let timeline = Timeline::new(clock);
        let recorder = BenchRecorder::new(&timeline, usize::MAX);
        let mut cfg = ServeConfig::smoke();
        cfg.population = 10;
        cfg.cohort = 5;
        cfg.wave = 2;
        cfg.rounds = 3;
        let probe = Arc::new(ClientProbe::new(cfg.population));
        let inner = Scripted {
            clock: Arc::clone(&t),
            probe: Arc::clone(&probe),
            wave_ns: 7,
            client_ns: vec![1],
        };
        let mut tr = TracingTransport::new(inner, &timeline, probe);
        let out = run_rounds(&cfg, &mut tr, &recorder).unwrap();
        timeline.push(Mark::End);
        assert_eq!(out.rounds_run, 3);
        let (rounds, _) = attribute(&timeline.marks(), 2);
        assert_eq!(rounds.len(), 3);
        for r in &rounds {
            // Only the scripted waves move the clock: 5 clients in waves of
            // 2 is 3 waves of 7 ns, and every gap between them is 0.
            assert_eq!((r.waves, r.wave_ns, r.wall_ns()), (3, 21, 21));
            assert_eq!(
                (r.prep_ns, r.fold_ns, r.seal_ns, r.between_ns),
                (0, 0, 0, 0)
            );
            assert_eq!(
                (r.selected(), r.accepted, r.failed, r.delivered),
                (5, 5, 0, 5)
            );
            assert_eq!((r.busy_ns, r.client_calls), (5, 5));
            assert!(r.aggregated && r.aggregate_weight_finite);
        }
    }
}
