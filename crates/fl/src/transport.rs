//! The transport seam: round execution behind a [`Transport`] trait.
//!
//! [`crate::scheduler::RoundScheduler::run_round`] drives a round through
//! this trait, so the same orchestration code runs either
//! **in-process** ([`InProcessTransport`], a thin wrapper over the worker
//! pool) or **over a socket** ([`SocketTransport`], the server side of the
//! `calibre-serve`/`calibre-client` pair speaking [`crate::proto`] frames
//! over TCP or Unix-domain sockets).
//!
//! # Determinism
//!
//! The transport contract is: a wave's replies come back **in slot order**,
//! and a reply either arrives intact (bit-identical payload, enforced by
//! frame checksums) or not at all. Everything nondeterministic about a real
//! network — retries, reconnects, duplicate replies — is absorbed *below*
//! the trait: delivery attempts are bounded, replies are deduplicated by
//! `(round, slot)`, and recomputed replies are bit-identical because client
//! work is a pure function of `(seed, round, client, global)`. That is why
//! the golden cross-transport test can demand a byte-identical final model
//! in-process vs. over a loopback socket, even under wire chaos, as long as
//! every assignment is eventually delivered (see DESIGN.md §13).
//!
//! # Timeouts
//!
//! Every blocking socket read in this module runs under an explicit read
//! timeout (`set_read_timeout`) — the `net-read-no-timeout` analyze rule
//! enforces this for all transport code. There are no unbounded waits:
//! servers bound delivery attempts, clients bound idle patience.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::Duration;

use calibre_telemetry::metrics;

use crate::chaos::{WireFault, WireInjector};
use crate::parallel::parallel_map_owned;
use crate::proto::{self, Msg, WireError};

/// One client's reply to a round assignment: the update vector plus the
/// scalars round summaries need.
/// [`crate::scheduler::RoundScheduler::run_round`] screens and folds these.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamUpdate {
    /// The local update (a model delta), folded into the round's sink.
    pub update: Vec<f32>,
    /// Aggregation weight.
    pub weight: f32,
    /// Local training loss.
    pub loss: f32,
    /// Divergence diagnostic (0 when the workload does not track one).
    pub divergence: f32,
}

/// One assignment within a wave: the client and its wire slot (the round's
/// survivor index, echoed by replies so the server can match them up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveSlot {
    /// Wire slot — position in the round's survivor list.
    pub slot: usize,
    /// The assigned client's id.
    pub client: usize,
}

/// A failure below the transport seam.
#[derive(Debug)]
pub enum TransportError {
    /// A frame-level failure that exhausted its retries.
    Wire(WireError),
    /// Binding or accepting on the server socket failed.
    Bind(std::io::Error),
    /// Client registration did not complete (population never assembled).
    Registration(String),
    /// The peer violated the protocol state machine.
    Protocol(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Wire(e) => write!(f, "transport wire error: {e}"),
            TransportError::Bind(e) => write!(f, "transport bind error: {e}"),
            TransportError::Registration(m) => write!(f, "transport registration error: {m}"),
            TransportError::Protocol(m) => write!(f, "transport protocol error: {m}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

/// The seam between round orchestration and round execution.
///
/// A transport delivers one wave of assignments and returns the replies in
/// slot order; `None` marks a client whose reply could not be obtained
/// (the orchestrator counts it as dropped). [`Transport::reclaim`] takes
/// back an update buffer the orchestrator is done with, and
/// [`Transport::finish`] announces the end of the run (a broadcast for
/// socket transports, a no-op in-process).
pub trait Transport {
    /// Executes one wave: deliver `global` to every slot, collect replies.
    ///
    /// The returned vector is parallel to `slots` (reply `i` belongs to
    /// `slots[i]`).
    ///
    /// # Errors
    ///
    /// Only unrecoverable failures (a dead listener, a protocol violation)
    /// surface as errors; per-client delivery failures are `None` entries.
    fn wave(
        &mut self,
        round: usize,
        slots: &[WaveSlot],
        global: &[f32],
    ) -> Result<Vec<Option<StreamUpdate>>, TransportError>;

    /// Announces the end of the run with the final model fingerprint.
    ///
    /// # Errors
    ///
    /// Socket transports report a failure to reach any registered client.
    fn finish(&mut self, rounds: usize, checksum: u64) -> Result<(), TransportError>;

    /// Hands back a reply's update buffer once the orchestrator is done
    /// with it, so a later reply can be written into it instead of a fresh
    /// allocation. The default drops it.
    fn reclaim(&mut self, _update: Vec<f32>) {}
}

impl std::fmt::Debug for dyn Transport + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn Transport")
    }
}

/// Counts the replies a transport hands back in each round. The most that
/// one round has taken bounds the reclaimed buffers worth keeping: a round
/// like it reuses every one.
#[derive(Debug, Default)]
struct ReplyCount {
    round: usize,
    this_round: usize,
    most: usize,
}

impl ReplyCount {
    /// Counts `replies` more replies handed back in `round`.
    fn add(&mut self, round: usize, replies: usize) {
        if round != self.round {
            self.round = round;
            self.this_round = 0;
        }
        self.this_round += replies;
        self.most = self.most.max(self.this_round);
    }
}

// ---------------------------------------------------------------------------
// In-process transport: the historical execution path behind the seam.
// ---------------------------------------------------------------------------

/// The work an [`InProcessTransport`] runs for each slot of a wave. It must
/// be a pure function of `(round, client, global)`.
///
/// Every `Fn(round, client, global) -> StreamUpdate + Sync` closure is
/// client work that allocates its own update.
pub trait ClientWork: Sync {
    /// `client`'s reply in `round` to `global`. `spare` is a buffer an
    /// earlier reply was handed back in, or an empty one.
    fn reply(&self, round: usize, client: usize, global: &[f32], spare: Vec<f32>) -> StreamUpdate;

    /// Whether [`ClientWork::reply`] writes its update into `spare`; only
    /// then does the transport keep the buffers handed back to it. The
    /// default is `false`: the work allocates its own updates.
    fn fills(&self) -> bool {
        false
    }
}

impl<F> ClientWork for F
where
    F: Fn(usize, usize, &[f32]) -> StreamUpdate + Sync,
{
    fn reply(&self, round: usize, client: usize, global: &[f32], _spare: Vec<f32>) -> StreamUpdate {
        self(round, client, global)
    }
}

/// Runs client work on the in-process worker pool — the historical
/// execution path, now behind the [`Transport`] seam. The work runs with
/// the wave's parallelism and replies are returned in slot order.
///
/// When the work [fills](ClientWork::fills) the buffer it is handed, the
/// transport keeps the update buffers given back through
/// [`Transport::reclaim`], at most as many as one round has taken replies,
/// and hands one to each slot on the calling thread before the wave fans
/// out, so a steady run allocates no update buffer. Work that allocates its
/// own updates is handed empty buffers, and the transport keeps none.
///
/// A client whose work panics costs exactly its own slot: the panic is
/// caught inside the worker and the slot's reply is `None`, which the
/// engine reports as a `lost` client.
pub struct InProcessTransport<W> {
    work: W,
    /// Reclaimed update buffers the next replies are written into.
    spares: Vec<Vec<f32>>,
    replies: ReplyCount,
}

impl<F> InProcessTransport<F>
where
    F: Fn(usize, usize, &[f32]) -> StreamUpdate + Sync,
{
    /// Wraps a pure client-work function.
    pub fn new(work: F) -> Self {
        Self::with_work(work)
    }
}

impl<W: ClientWork> InProcessTransport<W> {
    /// Wraps any [`ClientWork`], such as work that fills the buffers it is
    /// handed.
    pub fn with_work(work: W) -> Self {
        InProcessTransport {
            work,
            spares: Vec::new(),
            replies: ReplyCount::default(),
        }
    }
}

impl<W> std::fmt::Debug for InProcessTransport<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcessTransport").finish_non_exhaustive()
    }
}

impl<W: ClientWork> Transport for InProcessTransport<W> {
    fn wave(
        &mut self,
        round: usize,
        slots: &[WaveSlot],
        global: &[f32],
    ) -> Result<Vec<Option<StreamUpdate>>, TransportError> {
        let jobs: Vec<(usize, Vec<f32>)> = slots
            .iter()
            .map(|s| (s.client, self.spares.pop().unwrap_or_default()))
            .collect();
        let work = &self.work;
        let replies = parallel_map_owned(jobs, |(client, spare)| {
            // AssertUnwindSafe: `work` is `Sync` and called by shared
            // reference, `global` is borrowed read-only and `spare` is the
            // slot's own, so an unwind leaves no state torn.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                work.reply(round, client, global, spare)
            }))
            .ok()
        });
        self.replies.add(round, replies.iter().flatten().count());
        Ok(replies)
    }

    fn finish(&mut self, _rounds: usize, _checksum: u64) -> Result<(), TransportError> {
        Ok(())
    }

    fn reclaim(&mut self, update: Vec<f32>) {
        if self.work.fills() && self.spares.len() < self.replies.most {
            self.spares.push(update);
        }
    }
}

// ---------------------------------------------------------------------------
// Sockets: connections and listeners over TCP or UDS.
// ---------------------------------------------------------------------------

/// A connected peer stream: TCP or (on Unix) a Unix-domain socket.
#[derive(Debug)]
pub enum Conn {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain socket connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Connects to a TCP address (`host:port`).
    ///
    /// # Errors
    ///
    /// [`TransportError::Bind`] when the connection cannot be established.
    pub fn connect_tcp(addr: &str) -> Result<Conn, TransportError> {
        TcpStream::connect(addr)
            .map(Conn::Tcp)
            .map_err(TransportError::Bind)
    }

    /// Connects to a Unix-domain socket path.
    ///
    /// # Errors
    ///
    /// [`TransportError::Bind`] when the connection cannot be established.
    #[cfg(unix)]
    pub fn connect_uds(path: &Path) -> Result<Conn, TransportError> {
        UnixStream::connect(path)
            .map(Conn::Unix)
            .map_err(TransportError::Bind)
    }

    /// Applies an explicit read timeout — every read in this module runs
    /// under one (see the module docs on timeouts).
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound server socket: TCP or (on Unix) a Unix-domain socket.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds a TCP listener (use port 0 for an OS-assigned port) and puts
    /// it in non-blocking accept mode.
    ///
    /// # Errors
    ///
    /// [`TransportError::Bind`] when the address cannot be bound.
    pub fn bind_tcp(addr: &str) -> Result<Listener, TransportError> {
        let l = TcpListener::bind(addr).map_err(TransportError::Bind)?;
        l.set_nonblocking(true).map_err(TransportError::Bind)?;
        Ok(Listener::Tcp(l))
    }

    /// Binds a Unix-domain socket listener in non-blocking accept mode.
    /// A stale socket file at `path` is removed first.
    ///
    /// # Errors
    ///
    /// [`TransportError::Bind`] when the path cannot be bound.
    #[cfg(unix)]
    pub fn bind_uds(path: &Path) -> Result<Listener, TransportError> {
        let _ = std::fs::remove_file(path);
        let l = UnixListener::bind(path).map_err(TransportError::Bind)?;
        l.set_nonblocking(true).map_err(TransportError::Bind)?;
        Ok(Listener::Unix(l))
    }

    /// The bound address as a printable string (`host:port` for TCP, the
    /// path for UDS) — what `calibre-serve` prints for clients to join.
    pub fn local_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unbound>".to_string()),
            #[cfg(unix)]
            Listener::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_else(|| "<unnamed>".to_string()),
        }
    }

    /// Accepts one pending connection if any (non-blocking).
    fn try_accept(&self) -> Option<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().ok().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().ok().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

// ---------------------------------------------------------------------------
// The server-side socket transport.
// ---------------------------------------------------------------------------

/// Retry/timeout policy for the socket transport. Everything is bounded:
/// there is no unbounded wait anywhere on the wire path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPolicy {
    /// Per-reply read timeout, milliseconds.
    pub read_timeout_ms: u64,
    /// Delivery attempts per assignment before the client counts as
    /// dropped for the round. Must exceed
    /// [`crate::chaos::PARTITION_HEAL_ATTEMPT`] for partitions to heal.
    pub max_attempts: usize,
    /// Sleep between registration/accept polls, milliseconds.
    pub accept_poll_ms: u64,
    /// Registration polls before giving up on the population assembling.
    pub register_patience: usize,
}

impl Default for NetPolicy {
    fn default() -> Self {
        NetPolicy {
            read_timeout_ms: 1_000,
            max_attempts: 5,
            accept_poll_ms: 10,
            register_patience: 3_000,
        }
    }
}

/// The run parameters a server hands every registering client in its
/// `Welcome` — everything a client needs to compute deterministically and
/// to replay its own seeded reconnect churn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelcomeInfo {
    /// Run seed (clients derive their local RNG streams from it).
    pub seed: u64,
    /// Total rounds in the run.
    pub rounds: u32,
    /// Model dimension.
    pub dim: u32,
    /// Population size (valid client ids are `0..population`).
    pub population: u32,
    /// Per-round client reconnect-churn probability (wire chaos).
    pub churn_prob: f32,
    /// Seed for the client's churn decisions.
    pub churn_seed: u64,
}

/// The server side of the wire: registers a population of clients, then
/// executes waves by sending `Assign` frames and collecting `Update`
/// replies, with bounded retries, reconnect handling, and deterministic
/// wire-fault injection ([`WireInjector`]).
///
/// Replies decode into update buffers handed back through
/// [`Transport::reclaim`]: it keeps at most as many spares as one round has
/// taken replies, so a steady round allocates no update buffer.
pub struct SocketTransport {
    listener: Listener,
    conns: BTreeMap<usize, Conn>,
    welcome: WelcomeInfo,
    net: NetPolicy,
    wire: Option<WireInjector>,
    /// The one frame buffer every send and receive reuses.
    buf: Vec<u8>,
    /// Reclaimed update buffers the next replies decode into.
    spares: Vec<Vec<f32>>,
    replies: ReplyCount,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("addr", &self.listener.local_addr())
            .field("connected", &self.conns.len())
            .field("net", &self.net)
            .finish_non_exhaustive()
    }
}

impl SocketTransport {
    /// Wraps a bound listener. `wire` arms deterministic transport chaos on
    /// every server→client frame.
    pub fn new(
        listener: Listener,
        welcome: WelcomeInfo,
        net: NetPolicy,
        wire: Option<WireInjector>,
    ) -> Self {
        SocketTransport {
            listener,
            conns: BTreeMap::new(),
            welcome,
            net,
            wire,
            buf: Vec::new(),
            spares: Vec::new(),
            replies: ReplyCount::default(),
        }
    }

    /// The printable bound address (for clients to join).
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// Number of currently registered clients.
    pub fn connected(&self) -> usize {
        self.conns.len()
    }

    /// Performs the server half of one handshake on a fresh connection:
    /// read `Hello`, validate the id, reply `Welcome`, store the conn.
    fn handshake(&mut self, mut conn: Conn) {
        let timeout = Duration::from_millis(self.net.read_timeout_ms.max(1));
        if conn.set_read_timeout(Some(timeout)).is_err() {
            return;
        }
        let client = match Msg::read_from(&mut conn, &mut self.buf) {
            Ok(Msg::Hello { client }) => client,
            _ => return,
        };
        if client >= u64::from(self.welcome.population) {
            let _ = Msg::Bye.write_to(&mut conn, &mut self.buf);
            return;
        }
        let welcome = Msg::Welcome {
            client,
            seed: self.welcome.seed,
            rounds: self.welcome.rounds,
            dim: self.welcome.dim,
            population: self.welcome.population,
            churn_prob: self.welcome.churn_prob,
            churn_seed: self.welcome.churn_seed,
        };
        if welcome.write_to(&mut conn, &mut self.buf).is_ok() {
            // Latest registration wins: a reconnecting client replaces its
            // dead predecessor.
            self.conns.insert(client as usize, conn);
            metrics::gauge_set(
                "calibre_net_clients_connected",
                &[],
                self.conns.len() as f64,
            );
        }
    }

    /// Drains pending connections (registrations and reconnects) without
    /// blocking.
    fn pump(&mut self) {
        while let Some(conn) = self.listener.try_accept() {
            self.handshake(conn);
        }
    }

    /// Blocks (in bounded polls) until all `population` clients have
    /// registered.
    ///
    /// # Errors
    ///
    /// [`TransportError::Registration`] when patience runs out first.
    pub fn register(&mut self) -> Result<(), TransportError> {
        let want = self.welcome.population as usize;
        for _ in 0..self.net.register_patience.max(1) {
            self.pump();
            if self.conns.len() >= want {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(self.net.accept_poll_ms.max(1)));
        }
        Err(TransportError::Registration(format!(
            "only {} of {want} clients registered",
            self.conns.len()
        )))
    }

    /// Sends one `Assign` frame, encoded straight from `global`, applying
    /// any decided wire fault. Returns whether the frame actually left
    /// intact (a dropped or truncated delivery returns false so the caller
    /// knows not to expect a reply from this attempt — though it retries by
    /// re-reading regardless).
    fn send_assign(
        &mut self,
        round: usize,
        slot: WaveSlot,
        attempt: usize,
        global: &[f32],
    ) -> bool {
        let fault = self
            .wire
            .as_ref()
            .and_then(|w| w.decide(round, slot.client, attempt));
        if let Some(f) = fault {
            metrics::counter_add(
                "calibre_net_wire_faults_total",
                &[("kind", f.kind_tag())],
                1,
            );
        }
        match fault {
            Some(WireFault::Drop) => return false,
            Some(WireFault::Delay { delay_ms }) => {
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
            Some(WireFault::Truncate) | None => {}
        }
        let Some(conn) = self.conns.get_mut(&slot.client) else {
            return false;
        };
        proto::encode_assign_into(
            &mut self.buf,
            round as u32,
            slot.slot as u32,
            attempt as u32,
            global,
        );
        let sent = if fault == Some(WireFault::Truncate) {
            // Write half a frame, then reset the connection: the client
            // sees a short read / checksum failure and reconnects.
            let half = self.buf.get(..self.buf.len() / 2).unwrap_or_default();
            let _ = conn.write_all(half);
            let _ = conn.flush();
            false
        } else {
            proto::write_frame(conn, &self.buf, "assign").is_ok()
        };
        if !sent {
            self.conns.remove(&slot.client);
        }
        sent
    }

    /// Reads frames from one client until its `Update` for `(round, slot)`
    /// arrives, the read times out, or the connection dies. Stale replies
    /// (earlier rounds or attempts) are discarded — deduplication by
    /// `(round, slot)` is what makes duplicate deliveries harmless.
    fn read_reply(&mut self, round: usize, slot: WaveSlot) -> Option<StreamUpdate> {
        let mut floats = self.spares.pop().unwrap_or_default();
        let reply = self.read_reply_into(round, slot, &mut floats);
        // A buffer no reply took is kept like a reclaimed one.
        if floats.capacity() > 0 {
            self.reclaim(floats);
        }
        reply
    }

    /// [`SocketTransport::read_reply`], decoding updates into `floats`.
    fn read_reply_into(
        &mut self,
        round: usize,
        slot: WaveSlot,
        floats: &mut Vec<f32>,
    ) -> Option<StreamUpdate> {
        // Bound the number of discarded frames per call so a babbling peer
        // cannot stall the wave forever.
        for _ in 0..64 {
            let conn = self.conns.get_mut(&slot.client)?;
            match Msg::read_into(conn, &mut self.buf, floats) {
                Ok(Msg::Update {
                    round: r,
                    slot: s,
                    client,
                    weight,
                    loss,
                    update,
                }) => {
                    if r as usize == round
                        && s as usize == slot.slot
                        && client as usize == slot.client
                    {
                        return Some(StreamUpdate {
                            update,
                            weight,
                            loss,
                            divergence: 0.0,
                        });
                    }
                    // Stale duplicate from an earlier attempt or round:
                    // decode the next frame into its buffer.
                    *floats = update;
                }
                Ok(Msg::Bye) => {
                    self.conns.remove(&slot.client);
                    return None;
                }
                Ok(_) => {}
                Err(e) if e.is_timeout() => return None,
                Err(_) => {
                    self.conns.remove(&slot.client);
                    return None;
                }
            }
        }
        None
    }
}

impl Transport for SocketTransport {
    fn wave(
        &mut self,
        round: usize,
        slots: &[WaveSlot],
        global: &[f32],
    ) -> Result<Vec<Option<StreamUpdate>>, TransportError> {
        let _wave_timer = metrics::start_timer("calibre_net_wave_ms", &[]);
        let mut results: Vec<Option<StreamUpdate>> = slots.iter().map(|_| None).collect();
        for attempt in 0..self.net.max_attempts.max(1) {
            // Pick up reconnects (churned or reset clients) before retrying.
            self.pump();
            let pending: Vec<usize> = results
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.is_none().then_some(i))
                .collect();
            if pending.is_empty() {
                break;
            }
            if attempt > 0 {
                metrics::counter_add("calibre_net_retries_total", &[], pending.len() as u64);
            }
            for &i in &pending {
                if let Some(slot) = slots.get(i).copied() {
                    self.send_assign(round, slot, attempt, global);
                }
            }
            for &i in &pending {
                if let Some(slot) = slots.get(i).copied() {
                    if let Some(reply) = self.read_reply(round, slot) {
                        if let Some(entry) = results.get_mut(i) {
                            *entry = Some(reply);
                        }
                    }
                }
            }
        }
        self.replies.add(round, results.iter().flatten().count());
        Ok(results)
    }

    fn finish(&mut self, rounds: usize, checksum: u64) -> Result<(), TransportError> {
        self.pump();
        let msg = Msg::Finish {
            rounds: rounds as u32,
            checksum,
        };
        let mut reached = 0usize;
        for conn in self.conns.values_mut() {
            if msg.write_to(conn, &mut self.buf).is_ok() {
                reached += 1;
            }
        }
        if reached == 0 && !self.conns.is_empty() {
            return Err(TransportError::Protocol(
                "finish broadcast reached no client".to_string(),
            ));
        }
        Ok(())
    }

    fn reclaim(&mut self, update: Vec<f32>) {
        if self.spares.len() < self.replies.most {
            self.spares.push(update);
        }
    }
}

// ---------------------------------------------------------------------------
// The client runtime.
// ---------------------------------------------------------------------------

/// Where a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAddr {
    /// A TCP `host:port` address.
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Uds(std::path::PathBuf),
}

impl ClientAddr {
    fn connect(&self) -> Result<Conn, TransportError> {
        match self {
            ClientAddr::Tcp(addr) => Conn::connect_tcp(addr),
            #[cfg(unix)]
            ClientAddr::Uds(path) => Conn::connect_uds(path),
        }
    }
}

/// Bounded patience knobs for the client runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOptions {
    /// Per-read timeout, milliseconds (idle waits are re-checked against
    /// `idle_patience`, they do not abort immediately).
    pub read_timeout_ms: u64,
    /// Consecutive idle read timeouts before the client gives up on the
    /// server.
    pub idle_patience: usize,
    /// Connection attempts (per (re)connect) before giving up.
    pub connect_attempts: usize,
    /// Sleep between connection attempts, milliseconds.
    pub connect_backoff_ms: u64,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            read_timeout_ms: 500,
            idle_patience: 240,
            connect_attempts: 100,
            connect_backoff_ms: 50,
        }
    }
}

/// What a client saw over its run — printed by `calibre-client` and
/// asserted by the loopback tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReport {
    /// This client's id.
    pub client: u64,
    /// Updates computed and sent (retries recompute, so this can exceed
    /// the number of rounds the client was selected in).
    pub updates_sent: usize,
    /// Times the client re-established its connection (wire chaos churn or
    /// server-side resets).
    pub reconnects: usize,
    /// Rounds the server reported in its `Finish`.
    pub rounds: u32,
    /// Final model fingerprint from the server's `Finish`.
    pub final_checksum: u64,
}

fn connect_and_hello(
    addr: &ClientAddr,
    client: u64,
    opts: &ClientOptions,
    buf: &mut Vec<u8>,
) -> Result<(Conn, WelcomeInfo), TransportError> {
    let mut last: Option<TransportError> = None;
    for _ in 0..opts.connect_attempts.max(1) {
        match addr.connect() {
            Ok(mut conn) => {
                conn.set_read_timeout(Some(Duration::from_millis(opts.read_timeout_ms.max(1))))
                    .map_err(|e| TransportError::Wire(WireError::Io(e)))?;
                Msg::Hello { client }.write_to(&mut conn, buf)?;
                match Msg::read_from(&mut conn, buf) {
                    Ok(Msg::Welcome {
                        client: echoed,
                        seed,
                        rounds,
                        dim,
                        population,
                        churn_prob,
                        churn_seed,
                    }) => {
                        if echoed != client {
                            return Err(TransportError::Protocol(format!(
                                "welcome echoed client {echoed}, expected {client}"
                            )));
                        }
                        return Ok((
                            conn,
                            WelcomeInfo {
                                seed,
                                rounds,
                                dim,
                                population,
                                churn_prob,
                                churn_seed,
                            },
                        ));
                    }
                    Ok(Msg::Bye) => {
                        return Err(TransportError::Registration(format!(
                            "server rejected client {client}"
                        )))
                    }
                    Ok(other) => {
                        last = Some(TransportError::Protocol(format!(
                            "expected welcome, got {}",
                            other.tag_name()
                        )));
                    }
                    Err(e) => last = Some(TransportError::Wire(e)),
                }
            }
            Err(e) => last = Some(e),
        }
        std::thread::sleep(Duration::from_millis(opts.connect_backoff_ms.max(1)));
    }
    Err(last.unwrap_or_else(|| {
        TransportError::Registration(format!("client {client}: no connection attempts made"))
    }))
}

/// Runs the full client lifecycle against a server: register, answer
/// `Assign`s with `work`'s deterministic updates, survive reconnects
/// (including seeded churn, decided from the `Welcome`'s churn seed), and
/// return once the server's `Finish` arrives.
///
/// `work` must be a pure function of `(round, global)` — retries and
/// reconnects recompute, and bit-identity across transports relies on the
/// recomputed bytes being identical. Every `Assign` decodes into one model
/// buffer the client keeps for the whole run, so `global` is the same
/// allocation in every call.
///
/// # Errors
///
/// [`TransportError::Registration`] when the server can never be reached,
/// [`TransportError::Protocol`] on handshake violations, or a wire error
/// once idle/connect patience is exhausted.
pub fn run_client<F>(
    addr: &ClientAddr,
    client: u64,
    opts: &ClientOptions,
    work: F,
) -> Result<ClientReport, TransportError>
where
    F: FnMut(usize, &[f32]) -> StreamUpdate,
{
    let mut work = work;
    // The one frame buffer this client's sends and receives reuse, and the
    // model buffer every `Assign` decodes into.
    let mut buf = Vec::new();
    let mut model = Vec::new();
    let (mut conn, welcome) = connect_and_hello(addr, client, opts, &mut buf)?;
    let churn = crate::chaos::WireFaultPlan {
        churn_prob: welcome.churn_prob,
        seed: welcome.churn_seed,
        ..crate::chaos::WireFaultPlan::default()
    };
    let churn = WireInjector::new(churn);
    let mut report = ClientReport {
        client,
        updates_sent: 0,
        reconnects: 0,
        rounds: 0,
        final_checksum: 0,
    };
    let mut idle = 0usize;
    loop {
        match Msg::read_into(&mut conn, &mut buf, &mut model) {
            Ok(Msg::Assign {
                round,
                slot,
                attempt: _,
                model: global,
            }) => {
                idle = 0;
                let su = work(round as usize, &global);
                // The next `Assign` decodes into the same buffer.
                model = global;
                let update = Msg::Update {
                    round,
                    slot,
                    client,
                    weight: su.weight,
                    loss: su.loss,
                    update: su.update,
                };
                let sent = update.write_to(&mut conn, &mut buf).is_ok();
                if sent {
                    report.updates_sent += 1;
                }
                // Seeded reconnect churn (or a failed send): drop the
                // connection and re-register. The server re-delivers
                // anything it still needs on its next attempt.
                if !sent || churn.churns(round as usize, client as usize) {
                    let (c, _) = connect_and_hello(addr, client, opts, &mut buf)?;
                    conn = c;
                    report.reconnects += 1;
                    metrics::counter_add("calibre_net_reconnects_total", &[], 1);
                }
            }
            Ok(Msg::Finish { rounds, checksum }) => {
                report.rounds = rounds;
                report.final_checksum = checksum;
                let _ = Msg::Bye.write_to(&mut conn, &mut buf);
                return Ok(report);
            }
            Ok(_) => {}
            Err(e) if e.is_timeout() => {
                idle += 1;
                if idle > opts.idle_patience {
                    return Err(TransportError::Wire(e));
                }
            }
            Err(_) => {
                // Broken or desynced stream (e.g. a truncated frame):
                // re-register and wait for re-delivery.
                let (c, _) = connect_and_hello(addr, client, opts, &mut buf)?;
                conn = c;
                report.reconnects += 1;
                metrics::counter_add("calibre_net_reconnects_total", &[], 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_transport_replies_in_slot_order() {
        let mut t = InProcessTransport::new(|round, client, global: &[f32]| StreamUpdate {
            // analyze:allow(lossy-cast) -- toy ids in tests.
            update: vec![client as f32 + round as f32 + global.iter().sum::<f32>()],
            weight: 1.0,
            loss: 0.0,
            divergence: 0.0,
        });
        let slots: Vec<WaveSlot> = (0..5)
            .map(|i| WaveSlot {
                slot: i,
                client: 10 + i,
            })
            .collect();
        let replies = t.wave(2, &slots, &[1.0, 2.0]).unwrap();
        assert_eq!(replies.len(), 5);
        for (i, r) in replies.iter().enumerate() {
            let r = r.as_ref().unwrap();
            assert_eq!(r.update, vec![(10 + i) as f32 + 2.0 + 3.0]);
        }
        assert!(t.finish(3, 42).is_ok());
    }

    #[test]
    fn in_process_transport_isolates_a_panicking_client_to_its_slot() {
        let mut t = InProcessTransport::new(|_round, client, _global: &[f32]| {
            assert_ne!(client, 12, "client 12 crashes mid-update");
            StreamUpdate {
                // analyze:allow(lossy-cast) -- toy ids in tests.
                update: vec![client as f32],
                weight: 1.0,
                loss: 0.0,
                divergence: 0.0,
            }
        });
        let slots: Vec<WaveSlot> = (0..5)
            .map(|i| WaveSlot {
                slot: i,
                client: 10 + i,
            })
            .collect();
        let replies = t.wave(0, &slots, &[]).unwrap();
        let got: Vec<Option<f32>> = replies
            .iter()
            .map(|r| r.as_ref().map(|r| r.update[0]))
            .collect();
        assert_eq!(
            got,
            vec![Some(10.0), Some(11.0), None, Some(13.0), Some(14.0)]
        );
    }

    #[test]
    fn loopback_handshake_and_round_trip() {
        let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let welcome = WelcomeInfo {
            seed: 7,
            rounds: 1,
            dim: 2,
            population: 1,
            churn_prob: 0.0,
            churn_seed: 0,
        };
        let mut server = SocketTransport::new(listener, welcome, NetPolicy::default(), None);
        let client = std::thread::spawn(move || {
            run_client(
                &ClientAddr::Tcp(addr),
                0,
                &ClientOptions::default(),
                |round, global| StreamUpdate {
                    update: global.iter().map(|g| g + round as f32 + 1.0).collect(),
                    weight: 2.0,
                    loss: 0.5,
                    divergence: 0.0,
                },
            )
        });
        server.register().unwrap();
        let slots = [WaveSlot { slot: 0, client: 0 }];
        let replies = server.wave(0, &slots, &[1.0, -1.0]).unwrap();
        let reply = replies.first().unwrap().as_ref().unwrap();
        assert_eq!(reply.update, vec![2.0, 0.0]);
        assert_eq!(reply.weight, 2.0);
        server.finish(1, 99).unwrap();
        let report = client.join().unwrap().unwrap();
        assert_eq!(report.final_checksum, 99);
        assert_eq!(report.updates_sent, 1);
    }

    #[test]
    fn steady_rounds_decode_into_reclaimed_and_kept_buffers() {
        // Each round's model is shorter than the last, in a smaller
        // allocator size class, so a fresh buffer would not land on a freed
        // one's address by chance.
        let dims = [64usize, 48, 32, 16];
        let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let welcome = WelcomeInfo {
            seed: 7,
            rounds: dims.len() as u32,
            dim: 64,
            population: 2,
            churn_prob: 0.0,
            churn_seed: 0,
        };
        let mut server = SocketTransport::new(listener, welcome, NetPolicy::default(), None);
        let slots = [
            WaveSlot { slot: 0, client: 0 },
            WaveSlot { slot: 1, client: 1 },
        ];
        // Short patience, so a failing server side ends the scope quickly.
        let opts = ClientOptions {
            idle_patience: 10,
            ..ClientOptions::default()
        };
        let models_seen = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2u64)
                .map(|id| {
                    let (addr, opts) = (ClientAddr::Tcp(addr.clone()), &opts);
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        run_client(&addr, id, opts, |round, global| {
                            seen.push(global.as_ptr() as usize);
                            StreamUpdate {
                                update: global.iter().map(|g| g + round as f32).collect(),
                                weight: 1.0,
                                loss: 0.0,
                                divergence: 0.0,
                            }
                        })
                        .unwrap();
                        seen
                    })
                })
                .collect();
            server.register().unwrap();
            let mut handed_back = Vec::new();
            for (round, &dim) in dims.iter().enumerate() {
                let global = vec![0.5f32; dim];
                let replies = server.wave(round, &slots, &global).unwrap();
                for reply in replies {
                    let update = reply.unwrap().update;
                    assert_eq!(update, vec![0.5 + round as f32; dim]);
                    let at = update.as_ptr() as usize;
                    if round > 0 {
                        assert!(handed_back.contains(&at), "round {round}: fresh buffer");
                    }
                    handed_back.push(at);
                    server.reclaim(update);
                }
            }
            server.finish(dims.len(), 1).unwrap();
            clients
                .into_iter()
                .map(|c| c.join().unwrap())
                .collect::<Vec<_>>()
        });
        for seen in models_seen {
            assert_eq!(seen.len(), dims.len());
            assert!(seen.iter().all(|&at| at == seen[0]), "{seen:?}");
        }
    }

    #[test]
    fn rejects_out_of_population_clients() {
        let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let welcome = WelcomeInfo {
            seed: 7,
            rounds: 1,
            dim: 2,
            population: 1,
            churn_prob: 0.0,
            churn_seed: 0,
        };
        let mut server = SocketTransport::new(
            listener,
            welcome,
            NetPolicy {
                register_patience: 30,
                ..NetPolicy::default()
            },
            None,
        );
        let opts = ClientOptions {
            connect_attempts: 3,
            ..ClientOptions::default()
        };
        let client = std::thread::spawn(move || {
            run_client(&ClientAddr::Tcp(addr), 5, &opts, |_, _| StreamUpdate {
                update: vec![0.0],
                weight: 1.0,
                loss: 0.0,
                divergence: 0.0,
            })
        });
        // The lone valid slot never registers, so registration times out.
        assert!(matches!(
            server.register(),
            Err(TransportError::Registration(_))
        ));
        assert!(matches!(
            client.join().unwrap(),
            Err(TransportError::Registration(_))
        ));
    }

    #[cfg(unix)]
    #[test]
    fn uds_loopback_round_trip() {
        let dir = std::env::temp_dir().join(format!("calibre-uds-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("serve.sock");
        let listener = Listener::bind_uds(&path).unwrap();
        let welcome = WelcomeInfo {
            seed: 1,
            rounds: 1,
            dim: 1,
            population: 1,
            churn_prob: 0.0,
            churn_seed: 0,
        };
        let mut server = SocketTransport::new(listener, welcome, NetPolicy::default(), None);
        let client_path = path.clone();
        let client = std::thread::spawn(move || {
            run_client(
                &ClientAddr::Uds(client_path),
                0,
                &ClientOptions::default(),
                |_, global| StreamUpdate {
                    update: global.to_vec(),
                    weight: 1.0,
                    loss: 0.0,
                    divergence: 0.0,
                },
            )
        });
        server.register().unwrap();
        let replies = server
            .wave(0, &[WaveSlot { slot: 0, client: 0 }], &[4.5])
            .unwrap();
        assert_eq!(replies.first().unwrap().as_ref().unwrap().update, vec![4.5]);
        server.finish(1, 7).unwrap();
        client.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
