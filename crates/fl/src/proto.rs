//! Hand-rolled wire protocol for the `calibre-serve`/`calibre-client` pair.
//!
//! The transport seam (DESIGN.md §13) speaks a small length-prefixed binary
//! protocol over TCP or Unix-domain sockets — no serialization crates, in
//! the same spirit as `calibre-telemetry`'s hand-rolled JSON. Every frame
//! carries a version byte, a message tag, a little-endian payload length,
//! and a word checksum over the header and payload:
//!
//! ```text
//! +---------+---------+-------------+-----------------+----------------+
//! | version |   tag   |  len (u32)  |     payload     | checksum (u64) |
//! |  1 byte |  1 byte | 4 bytes LE  |   `len` bytes   |  8 bytes LE    |
//! +---------+---------+-------------+-----------------+----------------+
//!            checksum = frame_checksum(version ‖ tag ‖ len ‖ payload)
//! ```
//!
//! Model vectors travel as raw IEEE-754 bit patterns (`f32::to_bits`, LE),
//! so a value survives the wire **bit-identically** — the foundation of the
//! cross-transport golden test: same seeds ⇒ byte-identical final model
//! whether rounds run in-process or over a loopback socket.
//!
//! Frames move at memory speed: [`frame_checksum`] hashes four 8-byte
//! lanes at a time, vectors are converted in bulk, and each endpoint owns
//! one frame buffer that serves both directions. [`Msg::write_to`] encodes
//! into it and writes once; [`Msg::read_from`] reads one whole frame into
//! it and parses it with [`Msg::decode_into`], the one frame parser.
//! Model vectors decode into a float buffer the caller supplies
//! ([`Msg::read_into`]), so an endpoint that hands the same buffer back
//! every round decodes without allocating; `read_from` and
//! [`Msg::decode`] pass a fresh one.
//!
//! Decoding is total: arbitrary junk, truncated frames, bad versions, bad
//! tags, and flipped bits all surface as typed [`WireError`]s, never as
//! panics (a proptest pins this).

use std::io::{Read, Write};

use calibre_telemetry::metrics;

/// Current protocol version, first byte of every frame. A peer speaking
/// another version gets [`WireError::BadVersion`].
pub const PROTO_VERSION: u8 = 2;

/// Bytes before the payload: version, tag, length.
const HEADER_BYTES: usize = 1 + 1 + 4;

/// Bytes after the payload: the checksum.
const CHECKSUM_BYTES: usize = 8;

/// Bytes of frame framing around a payload: version, tag, length, checksum.
pub const FRAME_OVERHEAD_BYTES: usize = HEADER_BYTES + CHECKSUM_BYTES;

/// Upper bound on a payload length (64 MiB). Anything larger is rejected
/// before allocation — a desynced or hostile stream cannot OOM the peer.
pub const MAX_PAYLOAD_BYTES: u32 = 64 * 1024 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the integrity checksum of checkpoint files.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a model vector's IEEE-754 bit patterns (LE) — the
/// fingerprint the identity tests and `calibre-serve` print and compare.
pub fn model_checksum(model: &[f32]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in model {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// The multiplier of every checksum step; odd, so `x ↦ x·P` is a
/// bijection on `u64`.
const SUM_PRIME: u64 = 0x9E37_79B9_7F4A_7C15;

/// The checksum's lane seeds: the first 256 bits of π's fraction.
const LANE_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// The frame checksum over `bytes` (a frame's header ‖ payload).
///
/// `bytes` is read as little-endian `u64` words, the last one zero-padded.
/// Word `i` feeds lane `i mod 4` through the step `h ← (h ⊕ w)·P`, and the
/// four lanes then fold, in order, into the byte length with the same step.
/// For a fixed length every step is a bijection in `h` (`⊕ w` is, and `P`
/// is odd), so a changed word changes its lane, and a changed lane changes
/// the sum: any change confined to one aligned 8-byte word, every single
/// flipped bit included, is always caught. The four independent lanes keep
/// four multiplies in flight, which runs near memory speed.
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(8 * LANE_SEEDS.len());
    for block in &mut blocks {
        for (h, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *h = sum_step(*h, le_word(w));
        }
    }
    // The tail's words continue the lane order from lane 0.
    for (h, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *h = sum_step(*h, le_word(w));
    }
    // usize → u64 is lossless on every supported target.
    let len = bytes.len() as u64;
    lanes.iter().fold(len, |h, &lane| sum_step(h, lane))
}

fn sum_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(SUM_PRIME)
}

/// A little-endian `u64` from up to 8 bytes, zero-padded.
fn le_word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    for (d, s) in w.iter_mut().zip(bytes) {
        *d = *s;
    }
    u64::from_le_bytes(w)
}

/// A decode or I/O failure on the wire. Every malformed input maps to one
/// of these — frame decoding never panics.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket read or write failed (includes timeouts).
    Io(std::io::Error),
    /// The input ended before the structure it promised.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The version byte is not [`PROTO_VERSION`].
    BadVersion(u8),
    /// The tag byte names no known message.
    BadTag(u8),
    /// The payload length exceeds [`MAX_PAYLOAD_BYTES`].
    Oversize(u32),
    /// The checksum does not match the frame contents.
    BadChecksum {
        /// Checksum recomputed from the received bytes.
        expected: u64,
        /// Checksum carried by the frame.
        got: u64,
    },
    /// The payload decoded but left unconsumed trailing bytes.
    TrailingBytes(usize),
}

impl WireError {
    /// Whether this is a read timeout (the peer is merely idle, not gone).
    /// Both `WouldBlock` and `TimedOut` occur in practice depending on the
    /// platform's socket timeout errno.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }

    /// Short tag for metrics labels.
    pub fn kind_tag(&self) -> &'static str {
        match self {
            WireError::Io(e) if self.is_timeout() => {
                let _ = e;
                "timeout"
            }
            WireError::Io(_) => "io",
            WireError::Truncated { .. } => "truncated",
            WireError::BadVersion(_) => "bad_version",
            WireError::BadTag(_) => "bad_tag",
            WireError::Oversize(_) => "oversize",
            WireError::BadChecksum { .. } => "bad_checksum",
            WireError::TrailingBytes(_) => "trailing",
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::BadVersion(v) => {
                write!(f, "bad protocol version {v} (expected {PROTO_VERSION})")
            }
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Oversize(len) => {
                write!(f, "payload length {len} exceeds {MAX_PAYLOAD_BYTES}")
            }
            WireError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: computed {expected:#018x}, frame carried {got:#018x}"
                )
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Message tags, the second byte of every frame.
mod tag {
    pub const HELLO: u8 = 1;
    pub const WELCOME: u8 = 2;
    pub const ASSIGN: u8 = 3;
    pub const UPDATE: u8 = 4;
    pub const FINISH: u8 = 5;
    pub const BYE: u8 = 6;
}

/// The messages of the serve protocol.
///
/// Handshake: client sends [`Msg::Hello`], server replies [`Msg::Welcome`]
/// (also after every reconnect). Rounds: server sends [`Msg::Assign`] per
/// delivery attempt, client replies [`Msg::Update`]. Shutdown: server
/// broadcasts [`Msg::Finish`] with the final model fingerprint; either side
/// may send [`Msg::Bye`] before closing.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → server: registration / re-registration with its id.
    Hello {
        /// The client's stable id in `0..population`.
        client: u64,
    },
    /// Server → client: run parameters the client needs to compute
    /// deterministically and to decide its own (seeded) reconnect churn.
    Welcome {
        /// Echo of the registered client id.
        client: u64,
        /// Run seed — the client derives its local RNG streams from it.
        seed: u64,
        /// Total rounds in the run.
        rounds: u32,
        /// Model dimension.
        dim: u32,
        /// Registered population size.
        population: u32,
        /// Per-round reconnect-churn probability (wire chaos, client side).
        churn_prob: f32,
        /// Seed for the client's churn decisions.
        churn_seed: u64,
    },
    /// Server → client: one delivery attempt of a round's global model.
    Assign {
        /// Round index.
        round: u32,
        /// The client's selection slot this round (fold position).
        slot: u32,
        /// Delivery attempt (retries re-send with attempt + 1).
        attempt: u32,
        /// The global model at the start of the round.
        model: Vec<f32>,
    },
    /// Client → server: the computed local update for one assignment.
    Update {
        /// Round index (echoed; stale replies are discarded by it).
        round: u32,
        /// Selection slot (echoed).
        slot: u32,
        /// Client id (echoed, for cross-checking the connection map).
        client: u64,
        /// Aggregation weight.
        weight: f32,
        /// Local training loss, for round summaries.
        loss: f32,
        /// The update vector, bit-exact.
        update: Vec<f32>,
    },
    /// Server → client: the run is over.
    Finish {
        /// Rounds completed.
        rounds: u32,
        /// FNV-1a fingerprint of the final model ([`model_checksum`]).
        checksum: u64,
    },
    /// Either side: clean goodbye before closing the connection.
    Bye,
}

impl Msg {
    fn tag(&self) -> u8 {
        match self {
            Msg::Hello { .. } => tag::HELLO,
            Msg::Welcome { .. } => tag::WELCOME,
            Msg::Assign { .. } => tag::ASSIGN,
            Msg::Update { .. } => tag::UPDATE,
            Msg::Finish { .. } => tag::FINISH,
            Msg::Bye => tag::BYE,
        }
    }

    /// Human/metrics name of this message's tag.
    pub fn tag_name(&self) -> &'static str {
        match self {
            Msg::Hello { .. } => "hello",
            Msg::Welcome { .. } => "welcome",
            Msg::Assign { .. } => "assign",
            Msg::Update { .. } => "update",
            Msg::Finish { .. } => "finish",
            Msg::Bye => "bye",
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Hello { client } => put_u64(out, *client),
            Msg::Welcome {
                client,
                seed,
                rounds,
                dim,
                population,
                churn_prob,
                churn_seed,
            } => {
                put_u64(out, *client);
                put_u64(out, *seed);
                put_u32(out, *rounds);
                put_u32(out, *dim);
                put_u32(out, *population);
                put_f32(out, *churn_prob);
                put_u64(out, *churn_seed);
            }
            Msg::Assign {
                round,
                slot,
                attempt,
                model,
            } => put_assign(out, *round, *slot, *attempt, model),
            Msg::Update {
                round,
                slot,
                client,
                weight,
                loss,
                update,
            } => {
                put_u32(out, *round);
                put_u32(out, *slot);
                put_u64(out, *client);
                put_f32(out, *weight);
                put_f32(out, *loss);
                put_vec_f32(out, update);
            }
            Msg::Finish { rounds, checksum } => {
                put_u32(out, *rounds);
                put_u64(out, *checksum);
            }
            Msg::Bye => {}
        }
    }

    /// Parses one payload. An `Assign` model or `Update` vector is decoded
    /// into `floats` and moved into the message only once the whole payload
    /// has parsed, so on any error `floats` keeps its allocation.
    fn decode_payload(tag: u8, payload: &[u8], floats: &mut Vec<f32>) -> Result<Msg, WireError> {
        let mut c = Cursor::new(payload);
        let msg = match tag {
            tag::HELLO => Msg::Hello {
                client: c.take_u64()?,
            },
            tag::WELCOME => Msg::Welcome {
                client: c.take_u64()?,
                seed: c.take_u64()?,
                rounds: c.take_u32()?,
                dim: c.take_u32()?,
                population: c.take_u32()?,
                churn_prob: c.take_f32()?,
                churn_seed: c.take_u64()?,
            },
            tag::ASSIGN => {
                let (round, slot, attempt) = (c.take_u32()?, c.take_u32()?, c.take_u32()?);
                c.take_vec_f32(floats)?;
                c.end()?;
                Msg::Assign {
                    round,
                    slot,
                    attempt,
                    model: std::mem::take(floats),
                }
            }
            tag::UPDATE => {
                let (round, slot, client) = (c.take_u32()?, c.take_u32()?, c.take_u64()?);
                let (weight, loss) = (c.take_f32()?, c.take_f32()?);
                c.take_vec_f32(floats)?;
                c.end()?;
                Msg::Update {
                    round,
                    slot,
                    client,
                    weight,
                    loss,
                    update: std::mem::take(floats),
                }
            }
            tag::FINISH => Msg::Finish {
                rounds: c.take_u32()?,
                checksum: c.take_u64()?,
            },
            tag::BYE => Msg::Bye,
            other => return Err(WireError::BadTag(other)),
        };
        c.end()?;
        Ok(msg)
    }

    /// Encodes this message into a complete frame (header + payload +
    /// checksum), ready to write to a socket.
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        self.encode_into(&mut frame);
        frame
    }

    /// Encodes this message's frame into `buf`, replacing its contents and
    /// reusing its capacity.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_frame(buf, self.tag(), |out| self.encode_payload(out));
    }

    /// Decodes one frame from the front of `buf`, returning the message and
    /// the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Any malformed input — truncation, wrong version, unknown tag,
    /// oversize length, checksum mismatch, trailing payload bytes —
    /// returns the matching [`WireError`]; this function never panics.
    pub fn decode(buf: &[u8]) -> Result<(Msg, usize), WireError> {
        Msg::decode_into(buf, &mut Vec::new())
    }

    /// [`Msg::decode`], with an `Assign` model or `Update` vector decoded
    /// into `floats`, whatever it held, reusing its capacity. The message
    /// then owns that buffer and `floats` is left empty; any other message
    /// leaves `floats` as it was, and on an error it keeps its allocation
    /// (its contents unspecified). The result is always what
    /// [`Msg::decode`] returns.
    ///
    /// # Errors
    ///
    /// As [`Msg::decode`].
    pub fn decode_into(buf: &[u8], floats: &mut Vec<f32>) -> Result<(Msg, usize), WireError> {
        let (tag, len) = parse_header(buf)?;
        let body_len = HEADER_BYTES + len as usize;
        let total = body_len + CHECKSUM_BYTES;
        let frame = buf.get(..total).ok_or(WireError::Truncated {
            needed: total,
            got: buf.len(),
        })?;
        let (body, sum_bytes) = frame.split_at(body_len);
        let mut s = Cursor::new(sum_bytes);
        let got = s.take_u64()?;
        let expected = frame_checksum(body);
        if got != expected {
            return Err(WireError::BadChecksum { expected, got });
        }
        let payload = body.get(HEADER_BYTES..).unwrap_or(&[]);
        let msg = Msg::decode_payload(tag, payload, floats)?;
        Ok((msg, total))
    }

    /// Encodes this message into `buf` and writes it to `w` as one frame,
    /// with one write; returns the frame size. Records
    /// `calibre_net_frames_sent_total` / `calibre_net_bytes_sent_total`.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the write fails.
    pub fn write_to<W: Write + ?Sized>(
        &self,
        w: &mut W,
        buf: &mut Vec<u8>,
    ) -> Result<usize, WireError> {
        self.encode_into(buf);
        write_frame(w, buf, self.tag_name())
    }

    /// Reads exactly one frame from `r` into `buf` and decodes it with
    /// [`Msg::decode`].
    ///
    /// `buf` grows only as bytes arrive, never to the length a header
    /// claims, so a lying header costs no more memory than the bytes
    /// actually sent. Respects the stream's read timeout: an idle timeout
    /// surfaces as a [`WireError::Io`] for which [`WireError::is_timeout`]
    /// is true. Records receive/error metrics.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on read failures (a stream that ends mid-frame
    /// is `UnexpectedEof`); the decode errors of [`Msg::decode`] on
    /// malformed frames.
    pub fn read_from<R: Read + ?Sized>(r: &mut R, buf: &mut Vec<u8>) -> Result<Msg, WireError> {
        Msg::read_into(r, buf, &mut Vec::new())
    }

    /// [`Msg::read_from`], decoding an `Assign` model or `Update` vector
    /// into `floats` as [`Msg::decode_into`] does: an endpoint that hands
    /// the same buffer back every round decodes its vectors without
    /// allocating.
    ///
    /// # Errors
    ///
    /// As [`Msg::read_from`].
    pub fn read_into<R: Read + ?Sized>(
        r: &mut R,
        buf: &mut Vec<u8>,
        floats: &mut Vec<f32>,
    ) -> Result<Msg, WireError> {
        match read_frame(r, buf).and_then(|()| Msg::decode_into(buf, floats)) {
            Ok((msg, bytes)) => {
                metrics::counter_add(
                    "calibre_net_frames_received_total",
                    &[("tag", msg.tag_name())],
                    1,
                );
                metrics::counter_add("calibre_net_bytes_received_total", &[], bytes as u64);
                Ok(msg)
            }
            Err(e) => {
                if !e.is_timeout() {
                    metrics::counter_add(
                        "calibre_net_frame_errors_total",
                        &[("kind", e.kind_tag())],
                        1,
                    );
                }
                Err(e)
            }
        }
    }
}

/// Encodes the frame of `Msg::Assign { round, slot, attempt, model }` into
/// `buf`, straight from a borrowed model: the server sends its global
/// model to every client without copying it into a message first.
pub fn encode_assign_into(buf: &mut Vec<u8>, round: u32, slot: u32, attempt: u32, model: &[f32]) {
    encode_frame(buf, tag::ASSIGN, |out| {
        put_assign(out, round, slot, attempt, model);
    });
}

/// Writes one encoded frame with a single `write_all` and records the send
/// metrics under `tag_name`; returns the frame size.
pub(crate) fn write_frame<W: Write + ?Sized>(
    w: &mut W,
    frame: &[u8],
    tag_name: &'static str,
) -> Result<usize, WireError> {
    w.write_all(frame)?;
    w.flush()?;
    metrics::counter_add("calibre_net_frames_sent_total", &[("tag", tag_name)], 1);
    metrics::counter_add("calibre_net_bytes_sent_total", &[], frame.len() as u64);
    Ok(frame.len())
}

/// Replaces `buf` with one frame: the header, the payload `put` appends,
/// and the checksum over both.
fn encode_frame(buf: &mut Vec<u8>, tag: u8, put: impl FnOnce(&mut Vec<u8>)) {
    buf.clear();
    buf.extend_from_slice(&[PROTO_VERSION, tag, 0, 0, 0, 0]);
    put(buf);
    // Payload length is bounded by message construction well below
    // u32::MAX; the cast cannot truncate in practice, and the decoder
    // enforces MAX_PAYLOAD_BYTES regardless.
    let len = (buf.len() - HEADER_BYTES) as u32;
    if let Some(field) = buf.get_mut(2..HEADER_BYTES) {
        field.copy_from_slice(&len.to_le_bytes());
    }
    let checksum = frame_checksum(buf);
    put_u64(buf, checksum);
}

/// Checks a frame header — version, then the length bound — and returns
/// its tag and payload length.
fn parse_header(buf: &[u8]) -> Result<(u8, u32), WireError> {
    let header = buf.get(..HEADER_BYTES).ok_or(WireError::Truncated {
        needed: HEADER_BYTES,
        got: buf.len(),
    })?;
    let mut h = Cursor::new(header);
    let version = h.take_u8()?;
    if version != PROTO_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tag = h.take_u8()?;
    let len = h.take_u32()?;
    if len > MAX_PAYLOAD_BYTES {
        return Err(WireError::Oversize(len));
    }
    Ok((tag, len))
}

/// Reads one whole frame into `buf`, replacing its contents. The header is
/// checked first, so a bad version or an oversize claim fails before any
/// payload is read.
fn read_frame<R: Read + ?Sized>(r: &mut R, buf: &mut Vec<u8>) -> Result<(), WireError> {
    buf.clear();
    read_exactly(r, buf, HEADER_BYTES)?;
    let (_, len) = parse_header(buf)?;
    read_exactly(r, buf, len as usize + CHECKSUM_BYTES)
}

/// Appends exactly `n` bytes from `r` to `buf`, growing it only as they
/// arrive.
fn read_exactly<R: Read + ?Sized>(r: &mut R, buf: &mut Vec<u8>, n: usize) -> Result<(), WireError> {
    let got = (&mut *r).take(n as u64).read_to_end(buf)?;
    if got < n {
        return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Little-endian primitives.
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends an element count, then every value's LE bit pattern in bulk.
fn put_vec_f32(out: &mut Vec<u8>, v: &[f32]) {
    // Length bounded by MAX_PAYLOAD_BYTES / 4 on decode; encode mirrors it.
    put_u32(out, v.len() as u32);
    let start = out.len();
    out.resize(start + 4 * v.len(), 0);
    let dst = out.get_mut(start..).unwrap_or_default();
    for (d, x) in dst.chunks_exact_mut(4).zip(v) {
        d.copy_from_slice(&x.to_le_bytes());
    }
}

/// The `Assign` payload, shared by [`Msg::Assign`] and
/// [`encode_assign_into`] so the wire has one Assign layout.
fn put_assign(out: &mut Vec<u8>, round: u32, slot: u32, attempt: u32, model: &[f32]) {
    put_u32(out, round);
    put_u32(out, slot);
    put_u32(out, attempt);
    put_vec_f32(out, model);
}

/// A bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated {
            needed: usize::MAX,
            got: self.remaining(),
        })?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated {
            needed: n,
            got: self.remaining(),
        })?;
        self.pos = end;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        let b = self.take(1)?;
        b.first()
            .copied()
            .ok_or(WireError::Truncated { needed: 1, got: 0 })
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn take_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn take_f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.take_u32()?))
    }

    /// Fails with [`WireError::TrailingBytes`] unless the payload is used up.
    fn end(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(WireError::TrailingBytes(left)),
        }
    }

    /// Reads an element count, then that many values in bulk into `out`,
    /// replacing its contents and reusing its capacity. `out` is untouched
    /// when the count is truncated or lies.
    fn take_vec_f32(&mut self, out: &mut Vec<f32>) -> Result<(), WireError> {
        let n = self.take_u32()? as usize;
        // Each element needs 4 payload bytes; an absurd count is caught
        // here before any allocation.
        if n > self.remaining() / 4 {
            return Err(WireError::Truncated {
                needed: n.saturating_mul(4),
                got: self.remaining(),
            });
        }
        let bytes = self.take(4 * n)?;
        out.clear();
        out.reserve_exact(n);
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|b| b.try_into().map_or(0.0, f32::from_le_bytes)),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::Hello { client: 3 },
            Msg::Welcome {
                client: 3,
                seed: 0xDEAD_BEEF,
                rounds: 12,
                dim: 64,
                population: 8,
                churn_prob: 0.25,
                churn_seed: 99,
            },
            Msg::Assign {
                round: 2,
                slot: 1,
                attempt: 0,
                model: vec![1.0, -2.5, f32::MIN_POSITIVE, 3.25e-7],
            },
            Msg::Update {
                round: 2,
                slot: 1,
                client: 3,
                weight: 4.0,
                loss: 0.125,
                update: vec![0.5; 17],
            },
            Msg::Finish {
                rounds: 12,
                checksum: 0x0123_4567_89AB_CDEF,
            },
            Msg::Bye,
        ]
    }

    /// Frames `payload` under `version` and `tag` with a caller-chosen
    /// checksum function, so tests can build frames the encoder never
    /// would.
    fn raw_frame(version: u8, tag: u8, payload: &[u8], sum: fn(&[u8]) -> u64) -> Vec<u8> {
        let mut frame = vec![version, tag];
        put_u32(&mut frame, payload.len() as u32);
        frame.extend_from_slice(payload);
        let s = sum(&frame);
        put_u64(&mut frame, s);
        frame
    }

    #[test]
    fn every_message_roundtrips_bit_exactly() {
        for msg in sample_msgs() {
            let frame = msg.encode();
            let (decoded, consumed) = Msg::decode(&frame).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(consumed, frame.len());
        }
    }

    #[test]
    fn streams_of_frames_roundtrip_through_read_write() {
        let mut stream = Vec::new();
        let mut buf = Vec::new();
        for msg in sample_msgs() {
            msg.write_to(&mut stream, &mut buf).unwrap();
        }
        let mut r = std::io::Cursor::new(stream);
        for msg in sample_msgs() {
            assert_eq!(Msg::read_from(&mut r, &mut buf).unwrap(), msg);
        }
    }

    #[test]
    fn one_buffer_reads_each_frame_as_its_own_message() {
        let big = Msg::Update {
            round: 7,
            slot: 1,
            client: 1,
            weight: 2.0,
            loss: 0.25,
            update: (0..1 << 18).map(|i| i as f32 * 0.5).collect(),
        };
        let finish = Msg::Finish {
            rounds: 7,
            checksum: 0xFEED,
        };
        let small = Msg::Assign {
            round: 8,
            slot: 0,
            attempt: 1,
            model: vec![1.5, -0.0],
        };
        let prefix = {
            let frame = Msg::Assign {
                round: 8,
                slot: 0,
                attempt: 0,
                model: vec![3.0; 64],
            }
            .encode();
            frame.get(..frame.len() - 1).unwrap().to_vec()
        };
        let mut buf = Vec::new();
        let mut read = |bytes: Vec<u8>| Msg::read_from(&mut std::io::Cursor::new(bytes), &mut buf);
        assert_eq!(read(big.encode()).unwrap(), big);
        assert_eq!(read(finish.encode()).unwrap(), finish);
        assert!(matches!(read(prefix), Err(WireError::Io(_))));
        assert_eq!(read(small.encode()).unwrap(), small);
    }

    #[test]
    fn encode_into_a_used_buffer_matches_a_fresh_encode() {
        let long = Msg::Update {
            round: 1,
            slot: 2,
            client: 3,
            weight: 1.0,
            loss: 0.5,
            update: vec![0.25; 4096],
        };
        let mut buf = Vec::new();
        long.encode_into(&mut buf);
        for short in sample_msgs() {
            short.encode_into(&mut buf);
            assert_eq!(buf, short.encode(), "{}", short.tag_name());
        }
    }

    #[test]
    fn assign_from_a_borrowed_model_matches_the_message_encoding() {
        let model = vec![f32::NAN, -0.0, 1.0, 2.5e-38];
        let mut buf = vec![0xAA; 3];
        encode_assign_into(&mut buf, 4, 5, 6, &model);
        let msg = Msg::Assign {
            round: 4,
            slot: 5,
            attempt: 6,
            model,
        };
        assert_eq!(buf, msg.encode());
    }

    #[test]
    fn a_lying_length_grows_the_buffer_only_by_what_arrives() {
        let mut stream = vec![PROTO_VERSION, tag::UPDATE];
        put_u32(&mut stream, MAX_PAYLOAD_BYTES);
        stream.extend_from_slice(&[7u8; 100]);
        let mut buf = Vec::new();
        let err = Msg::read_from(&mut std::io::Cursor::new(stream), &mut buf).unwrap_err();
        assert!(matches!(err, WireError::Io(_)), "{err}");
        assert!(buf.capacity() < 1 << 20, "capacity {}", buf.capacity());
    }

    #[test]
    fn model_vectors_survive_bit_identically() {
        let model = vec![f32::NAN, -0.0, 1.0 + f32::EPSILON, 1e-40];
        let frame = Msg::Assign {
            round: 0,
            slot: 0,
            attempt: 0,
            model: model.clone(),
        }
        .encode();
        let (decoded, _) = Msg::decode(&frame).unwrap();
        match decoded {
            Msg::Assign { model: got, .. } => {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&model));
            }
            other => panic!("wrong message {other:?}"),
        }
    }

    #[test]
    fn every_truncation_of_a_valid_frame_is_a_typed_error() {
        let frame = sample_msgs()
            .into_iter()
            .nth(2)
            .map(|m| m.encode())
            .unwrap();
        let mut buf = Vec::new();
        for cut in 0..frame.len() {
            let prefix = frame.get(..cut).unwrap_or(&[]);
            let err = Msg::decode(prefix).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut {cut}: {err}"
            );
            let err = Msg::read_from(&mut std::io::Cursor::new(prefix), &mut buf).unwrap_err();
            assert!(matches!(err, WireError::Io(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn any_single_flipped_bit_is_detected() {
        let frame = Msg::Finish {
            rounds: 3,
            checksum: 42,
        }
        .encode();
        for byte in 0..frame.len() {
            let mut bad = frame.clone();
            if let Some(b) = bad.get_mut(byte) {
                *b ^= 0x10;
            }
            assert!(Msg::decode(&bad).is_err(), "flip at byte {byte} undetected");
        }
    }

    #[test]
    fn a_change_confined_to_one_word_is_always_caught() {
        // 37 bytes: four full words, then a partial one.
        let bytes: Vec<u8> = (0..37u8).map(|b| b.wrapping_mul(29)).collect();
        let sum = frame_checksum(&bytes);
        let masks = (0..64)
            .map(|bit| 1u64 << bit)
            .chain([u64::MAX, 0x0101, 0xFF00]);
        for start in (0..bytes.len()).step_by(8) {
            for mask in masks.clone() {
                let mut bad = bytes.clone();
                let word = bad.iter_mut().skip(start).take(8);
                for (b, m) in word.zip(mask.to_le_bytes()) {
                    *b ^= m;
                }
                if bad != bytes {
                    assert_ne!(frame_checksum(&bad), sum, "word at {start}, mask {mask:#x}");
                }
            }
        }
    }

    #[test]
    fn frame_checksum_known_answers() {
        // Pinned from an independent implementation of the definition in
        // `frame_checksum`'s docs: a change here changes the wire format.
        assert_eq!(frame_checksum(&[]), 0x4a70_095e_e956_27d2);
        let ramp: Vec<u8> = (0..100).collect();
        assert_eq!(frame_checksum(&ramp), 0x1fca_7702_6b70_6be2);
        let finish = Msg::Finish {
            rounds: 3,
            checksum: 42,
        };
        let expected: [u8; 26] = [
            0x02, 0x05, 0x0c, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x5e, 0x90, 0xbe, 0x0b, 0x1c, 0x82, 0x91, 0x32,
        ];
        assert_eq!(finish.encode(), expected);
    }

    #[test]
    fn a_v1_frame_is_a_typed_bad_version() {
        let mut payload = Vec::new();
        put_u32(&mut payload, 3);
        put_u64(&mut payload, 42);
        let v1 = raw_frame(1, tag::FINISH, &payload, fnv1a);
        assert!(matches!(Msg::decode(&v1), Err(WireError::BadVersion(1))));
        let mut buf = Vec::new();
        let got = Msg::read_from(&mut std::io::Cursor::new(v1), &mut buf);
        assert!(matches!(got, Err(WireError::BadVersion(1))));
    }

    #[test]
    fn wrong_version_tag_and_oversize_are_typed() {
        let mut frame = Msg::Bye.encode();
        if let Some(b) = frame.first_mut() {
            *b = 9;
        }
        assert!(matches!(Msg::decode(&frame), Err(WireError::BadVersion(9))));

        // A frame with an unknown tag, checksummed so only the tag is bad.
        let body = raw_frame(PROTO_VERSION, 200, &[], frame_checksum);
        assert!(matches!(Msg::decode(&body), Err(WireError::BadTag(200))));

        let mut huge = vec![PROTO_VERSION, 6];
        huge.extend_from_slice(&(MAX_PAYLOAD_BYTES + 1).to_le_bytes());
        assert!(matches!(Msg::decode(&huge), Err(WireError::Oversize(_))));
        let mut buf = Vec::new();
        let got = Msg::read_from(&mut std::io::Cursor::new(huge), &mut buf);
        assert!(matches!(got, Err(WireError::Oversize(_))));
    }

    #[test]
    fn oversized_element_counts_do_not_allocate() {
        // An Assign payload claiming u32::MAX model elements but carrying
        // none: decode must fail without attempting the allocation.
        let mut payload = Vec::new();
        put_u32(&mut payload, 0); // round
        put_u32(&mut payload, 0); // slot
        put_u32(&mut payload, 0); // attempt
        put_u32(&mut payload, u32::MAX); // claimed element count
        let frame = raw_frame(PROTO_VERSION, tag::ASSIGN, &payload, frame_checksum);
        assert!(matches!(
            Msg::decode(&frame),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn model_checksum_matches_bytewise_fnv() {
        let model = vec![0.5f32, -1.25, 3.0];
        let mut bytes = Vec::new();
        for v in &model {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        assert_eq!(model_checksum(&model), fnv1a(&bytes));
        assert_ne!(model_checksum(&model), model_checksum(&[0.5, -1.25]));
    }
}
