//! Model checkpointing in a dependency-free text format.
//!
//! The federated runtime treats a model as an ordered list of parameter
//! matrices ([`Module`]); a checkpoint stores exactly that — shapes plus
//! row-major values — so any module with matching shapes can be restored.
//! The format is line-oriented and human-inspectable:
//!
//! ```text
//! calibre-checkpoint v1
//! tensors <count>
//! tensor <rows> <cols>
//! <v v v ...>           # one line per row
//! ...
//! checksum <fnv64 hex>  # over everything above, verified on load
//! ```
//!
//! # Crash safety
//!
//! [`save`] never writes a checkpoint in place: the text goes to a sibling
//! `*.tmp` file, is fsynced, and is then renamed over the target, so a
//! crash mid-write leaves either the old checkpoint or the new one — never
//! a torn file. The trailing `checksum` line catches the remaining hazards
//! (torn *reads*, bit rot, manual edits): the trainer and server snapshot
//! parsers require it, [`parse`] verifies it when present (plain tensor
//! files written before it was introduced still load), and every parser
//! rejects a non-finite parameter value outright.
//!
//! [`CheckpointStore`] adds one more layer: a `current` / `.prev` rotation
//! where loading falls back to the previous good checkpoint when the
//! current one is missing or corrupt. [`TrainerCheckpoint`] captures a full
//! training snapshot (round index, global encoder, per-client state, loss
//! history) in the same format family so `run_pfl_ssl`-style loops can
//! resume bit-identically after a kill. Clients cost their slot for a round
//! when they drop or crash; the checkpoint is what lets the *server* crash.

use calibre_tensor::nn::Module;
use calibre_tensor::Matrix;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Error produced when loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid checkpoint (message explains where).
    Parse(String),
    /// Checkpoint shapes do not match the target module.
    ShapeMismatch(String),
    /// A parameter value is NaN or infinite — a checkpoint like that could
    /// only have been produced by corrupted training state, and restoring
    /// it would silently poison everything downstream.
    NonFinite(String),
    /// The trailing checksum line does not match the file contents.
    Checksum {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum recomputed from the file body.
        got: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Parse(msg) => write!(f, "invalid checkpoint: {msg}"),
            CheckpointError::ShapeMismatch(msg) => write!(f, "checkpoint shape mismatch: {msg}"),
            CheckpointError::NonFinite(msg) => {
                write!(f, "checkpoint contains non-finite value: {msg}")
            }
            CheckpointError::Checksum { expected, got } => write!(
                f,
                "checkpoint checksum mismatch: recorded {expected:#018x}, recomputed {got:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// The integrity checksum is FNV-1a, the same function as the serve-path
// model fingerprints. Wire frames use their own word checksum.
use crate::adversary::ReputationBook;
use crate::proto::fnv1a;

/// Appends the trailing `checksum <hex>` line over everything written so far.
fn append_checksum(out: &mut String) {
    let h = fnv1a(out.as_bytes());
    let _ = writeln!(out, "checksum {h:016x}");
}

/// Strips and verifies the trailing `checksum` line, returning the body the
/// remaining parser should see, or `None` when the text has no such line.
fn verify_checksum(text: &str) -> Result<Option<&str>, CheckpointError> {
    let Some(pos) = text.rfind("\nchecksum ") else {
        return Ok(None);
    };
    let line = text[pos + 1..].trim_end();
    // Only treat it as a checksum if it really is the final line.
    if text[pos + 1..].trim_end_matches('\n') != line {
        return Ok(None);
    }
    let hex = line.strip_prefix("checksum ").unwrap_or_default();
    let expected = u64::from_str_radix(hex, 16)
        .map_err(|e| CheckpointError::Parse(format!("bad checksum line {line:?}: {e}")))?;
    let body = &text[..pos + 1];
    let got = fnv1a(body.as_bytes());
    if got != expected {
        return Err(CheckpointError::Checksum { expected, got });
    }
    Ok(Some(body))
}

/// [`verify_checksum`] for a format written with its checksum line since
/// it was introduced: text without one is torn or was never a snapshot.
fn require_checksum(text: &str) -> Result<&str, CheckpointError> {
    verify_checksum(text)?
        .ok_or_else(|| CheckpointError::Parse("missing trailing checksum line".into()))
}

/// Writes a `tensor`-block sequence (shape header + row lines per matrix).
fn write_tensors(out: &mut String, tensors: &[&Matrix]) {
    for p in tensors {
        let _ = writeln!(out, "tensor {} {}", p.rows(), p.cols());
        for r in 0..p.rows() {
            let row: Vec<String> = p.row(r).iter().map(|v| format!("{v}")).collect();
            out.push_str(&row.join(" "));
            out.push('\n');
        }
    }
}

/// Parses `count` tensor blocks from the line stream.
///
/// Counts and shapes come from text no checksum may cover, so nothing is
/// sized from them: tensors and their data grow as lines arrive, and a
/// damaged count runs out of lines as a typed error instead of an
/// allocation failure.
fn parse_tensors<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    count: usize,
    ctx: &str,
) -> Result<Vec<Matrix>, CheckpointError> {
    let mut tensors = Vec::new();
    for t in 0..count {
        let shape_line = lines
            .next()
            .ok_or_else(|| CheckpointError::Parse(format!("{ctx}: missing tensor {t} header")))?;
        let mut parts = shape_line.split_whitespace();
        if parts.next() != Some("tensor") {
            return Err(CheckpointError::Parse(format!(
                "{ctx} tensor {t}: expected 'tensor <rows> <cols>', got {shape_line:?}"
            )));
        }
        let rows: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CheckpointError::Parse(format!("{ctx} tensor {t}: bad rows")))?;
        let cols: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CheckpointError::Parse(format!("{ctx} tensor {t}: bad cols")))?;
        if rows.checked_mul(cols).is_none() {
            return Err(CheckpointError::Parse(format!(
                "{ctx} tensor {t}: {rows} x {cols} overflows"
            )));
        }
        let mut data = Vec::new();
        for r in 0..rows {
            let row_line = lines.next().ok_or_else(|| {
                CheckpointError::Parse(format!("{ctx} tensor {t}: missing row {r}"))
            })?;
            let values: Result<Vec<f32>, _> =
                row_line.split_whitespace().map(str::parse::<f32>).collect();
            let values = values
                .map_err(|e| CheckpointError::Parse(format!("{ctx} tensor {t} row {r}: {e}")))?;
            if values.len() != cols {
                return Err(CheckpointError::Parse(format!(
                    "{ctx} tensor {t} row {r}: expected {cols} values, got {}",
                    values.len()
                )));
            }
            if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
                return Err(CheckpointError::NonFinite(format!(
                    "{ctx} tensor {t} row {r}: value {bad}"
                )));
            }
            data.extend(values);
        }
        tensors.push(Matrix::from_vec(rows, cols, data));
    }
    Ok(tensors)
}

/// Serializes a module's parameters to the checkpoint text format,
/// including the trailing integrity checksum.
pub fn to_string<M: Module + ?Sized>(module: &M) -> String {
    let params = module.parameters();
    let mut out = String::new();
    out.push_str("calibre-checkpoint v1\n");
    let _ = writeln!(out, "tensors {}", params.len());
    write_tensors(&mut out, &params);
    append_checksum(&mut out);
    out
}

/// Parses checkpoint text into parameter matrices.
///
/// A trailing `checksum` line, when present, is verified against the body
/// before any tensor is accepted; files written before the checksum was
/// introduced (no such line) parse unverified. Non-finite values are
/// rejected.
///
/// # Errors
///
/// Returns [`CheckpointError::Parse`] on structural problems,
/// [`CheckpointError::Checksum`] on an integrity mismatch, and
/// [`CheckpointError::NonFinite`] when a value is NaN or infinite.
pub fn parse(text: &str) -> Result<Vec<Matrix>, CheckpointError> {
    let body = verify_checksum(text)?.unwrap_or(text);
    let mut lines = body.lines();
    let header = lines.next().unwrap_or_default();
    if header != "calibre-checkpoint v1" {
        return Err(CheckpointError::Parse(format!("unknown header {header:?}")));
    }
    let count_line = lines
        .next()
        .ok_or_else(|| CheckpointError::Parse("missing tensor count".into()))?;
    let count: usize = count_line
        .strip_prefix("tensors ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| CheckpointError::Parse(format!("bad tensor count line {count_line:?}")))?;
    parse_tensors(&mut lines, count, "checkpoint")
}

/// Restores a module from parsed checkpoint tensors.
///
/// # Errors
///
/// Returns [`CheckpointError::ShapeMismatch`] if counts or shapes differ.
pub fn restore<M: Module + ?Sized>(
    module: &mut M,
    tensors: &[Matrix],
) -> Result<(), CheckpointError> {
    let mut params = module.parameters_mut();
    if params.len() != tensors.len() {
        return Err(CheckpointError::ShapeMismatch(format!(
            "module has {} parameters, checkpoint has {}",
            params.len(),
            tensors.len()
        )));
    }
    for (i, (p, t)) in params.iter_mut().zip(tensors).enumerate() {
        if p.shape() != t.shape() {
            return Err(CheckpointError::ShapeMismatch(format!(
                "parameter {i}: module {:?}, checkpoint {:?}",
                p.shape(),
                t.shape()
            )));
        }
    }
    for (p, t) in params.iter_mut().zip(tensors) {
        p.as_mut_slice().copy_from_slice(t.as_slice());
    }
    Ok(())
}

/// Atomically writes `text` to `path`: sibling `.tmp` file, fsync, rename.
///
/// A crash at any point leaves either the previous file or the complete new
/// one — never a torn mix of both.
fn atomic_write(path: &Path, text: &str) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "checkpoint".into());
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Saves a module to a checkpoint file, creating parent directories.
///
/// The write is atomic (temp file + fsync + rename), so an interrupted save
/// never corrupts an existing checkpoint at `path`.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save<M: Module + ?Sized, P: AsRef<Path>>(
    module: &M,
    path: P,
) -> Result<(), CheckpointError> {
    let _span = calibre_telemetry::span("checkpoint_save");
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    atomic_write(path.as_ref(), &to_string(module))?;
    Ok(())
}

/// Loads a checkpoint file into a module with matching shapes.
///
/// # Errors
///
/// Returns I/O, parse, or shape errors.
pub fn load<M: Module + ?Sized, P: AsRef<Path>>(
    module: &mut M,
    path: P,
) -> Result<(), CheckpointError> {
    let _span = calibre_telemetry::span("checkpoint_load");
    let text = std::fs::read_to_string(path)?;
    let tensors = parse(&text)?;
    restore(module, &tensors)
}

/// A crash-safe checkpoint slot with one level of history.
///
/// Saving rotates the current file to `<path>.prev` before atomically
/// writing the new one; loading validates the current file and silently
/// falls back to `.prev` when the current one is missing or fails
/// validation (checksum, parse, non-finite values). Combined with the
/// atomic writes, a process killed at *any* instant leaves at least one
/// loadable checkpoint behind once the first save completed.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    path: PathBuf,
}

impl CheckpointStore {
    /// A store writing its current checkpoint at `path`.
    pub fn new<P: Into<PathBuf>>(path: P) -> Self {
        CheckpointStore { path: path.into() }
    }

    /// Path of the current checkpoint.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Path of the rotated previous checkpoint.
    pub fn prev_path(&self) -> PathBuf {
        let file_name = self
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "checkpoint".into());
        self.path.with_file_name(format!("{file_name}.prev"))
    }

    /// Rotates the current checkpoint to `.prev` and atomically writes
    /// `text` as the new current checkpoint.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save_text(&self, text: &str) -> Result<(), CheckpointError> {
        let _span = calibre_telemetry::span("checkpoint_save");
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        if self.path.exists() {
            std::fs::rename(&self.path, self.prev_path())?;
        }
        atomic_write(&self.path, text)?;
        Ok(())
    }

    /// Loads the newest checkpoint that passes `parse_fn`, preferring the
    /// current file and falling back to `.prev`.
    ///
    /// # Errors
    ///
    /// Returns the *current* file's error when both candidates fail (the
    /// fallback's failure is secondary), or the current file's error when
    /// no `.prev` exists.
    pub fn load_with<T>(
        &self,
        parse_fn: impl Fn(&str) -> Result<T, CheckpointError>,
    ) -> Result<T, CheckpointError> {
        let _span = calibre_telemetry::span("checkpoint_load");
        let current = std::fs::read_to_string(&self.path)
            .map_err(CheckpointError::from)
            .and_then(|text| parse_fn(&text));
        match current {
            Ok(v) => Ok(v),
            Err(primary) => {
                let prev = std::fs::read_to_string(self.prev_path())
                    .map_err(CheckpointError::from)
                    .and_then(|text| parse_fn(&text));
                prev.map_err(|_| primary)
            }
        }
    }
}

/// Complete snapshot of a federated training run.
///
/// Captures everything `run_pfl_ssl`-style loops need to continue
/// bit-identically after a kill: the round index to resume *from* (i.e.
/// rounds `0..round` already folded into the state), the global encoder
/// parameters, each client's cached SSL-method parameters, and the loss
/// history so far. Client selection and per-round RNGs are re-derived from
/// the run config's seed, so they need no persistence.
#[derive(Debug, Clone)]
pub struct TrainerCheckpoint {
    /// Number of rounds already completed (resume starts here).
    pub round: usize,
    /// Global encoder parameter matrices.
    pub global: Vec<Matrix>,
    /// Per-client cached state as `(client_id, parameters)` — only clients
    /// that have trained at least once appear.
    pub clients: Vec<(usize, Vec<Matrix>)>,
    /// Mean training loss per completed round.
    pub round_losses: Vec<f32>,
    /// Byzantine-client reputation state. Empty books write no section and
    /// parse back empty, so unarmed checkpoints stay byte-identical to the
    /// pre-reputation format.
    pub reputation: ReputationBook,
}

impl TrainerCheckpoint {
    /// Serializes the snapshot, with a trailing integrity checksum.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("calibre-trainer-checkpoint v1\n");
        let _ = writeln!(out, "round {}", self.round);
        let _ = write!(out, "losses {}", self.round_losses.len());
        for l in &self.round_losses {
            let _ = write!(out, " {l}");
        }
        out.push('\n');
        let _ = writeln!(out, "global tensors {}", self.global.len());
        let refs: Vec<&Matrix> = self.global.iter().collect();
        write_tensors(&mut out, &refs);
        let _ = writeln!(out, "clients {}", self.clients.len());
        for (id, tensors) in &self.clients {
            let _ = writeln!(out, "client {id} tensors {}", tensors.len());
            let refs: Vec<&Matrix> = tensors.iter().collect();
            write_tensors(&mut out, &refs);
        }
        out.push_str(&self.reputation.to_checkpoint_lines());
        append_checksum(&mut out);
        out
    }

    /// Parses a snapshot, verifying its trailing checksum line.
    ///
    /// # Errors
    ///
    /// Structural, checksum, or non-finite errors as for [`parse`], and
    /// [`CheckpointError::Parse`] when the checksum line is missing.
    pub fn parse(text: &str) -> Result<TrainerCheckpoint, CheckpointError> {
        fn field<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, CheckpointError> {
            line.and_then(|l| l.strip_prefix(key))
                .ok_or_else(|| CheckpointError::Parse(format!("missing/bad {key:?} line")))
        }
        let body = require_checksum(text)?;
        let mut lines = body.lines();
        let header = lines.next().unwrap_or_default();
        if header != "calibre-trainer-checkpoint v1" {
            return Err(CheckpointError::Parse(format!("unknown header {header:?}")));
        }
        let round: usize = field(lines.next(), "round ")?
            .parse()
            .map_err(|e| CheckpointError::Parse(format!("bad round: {e}")))?;
        let losses_line = field(lines.next(), "losses ")?;
        let mut parts = losses_line.split_whitespace();
        let n_losses: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CheckpointError::Parse("bad loss count".into()))?;
        let round_losses: Vec<f32> = parts
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| CheckpointError::Parse(format!("bad loss value: {e}")))?;
        if round_losses.len() != n_losses {
            return Err(CheckpointError::Parse(format!(
                "expected {n_losses} losses, got {}",
                round_losses.len()
            )));
        }
        if let Some(bad) = round_losses.iter().find(|v| !v.is_finite()) {
            return Err(CheckpointError::NonFinite(format!("loss value {bad}")));
        }
        let n_global: usize = field(lines.next(), "global tensors ")?
            .parse()
            .map_err(|e| CheckpointError::Parse(format!("bad global tensor count: {e}")))?;
        let global = parse_tensors(&mut lines, n_global, "global")?;
        let n_clients: usize = field(lines.next(), "clients ")?
            .parse()
            .map_err(|e| CheckpointError::Parse(format!("bad client count: {e}")))?;
        let mut clients = Vec::new();
        for c in 0..n_clients {
            let line = field(lines.next(), "client ")?;
            let mut parts = line.split_whitespace();
            let id: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| CheckpointError::Parse(format!("client entry {c}: bad id")))?;
            let n_tensors: usize = match (parts.next(), parts.next()) {
                (Some("tensors"), Some(n)) => n
                    .parse()
                    .map_err(|e| CheckpointError::Parse(format!("client {id}: bad count: {e}")))?,
                _ => {
                    return Err(CheckpointError::Parse(format!(
                        "client entry {c}: expected 'client <id> tensors <n>'"
                    )))
                }
            };
            let tensors = parse_tensors(&mut lines, n_tensors, &format!("client {id}"))?;
            clients.push((id, tensors));
        }
        let reputation = ReputationBook::parse_checkpoint_lines(lines.peekable())
            .map_err(CheckpointError::Parse)?;
        Ok(TrainerCheckpoint {
            round,
            global,
            clients,
            round_losses,
            reputation,
        })
    }
}

/// Snapshot of a `calibre-serve` run: the round to resume from and the
/// global model, persisted through a [`CheckpointStore`] after every round.
///
/// The model is stored as IEEE-754 bit patterns in hex, so a save/load
/// cycle is **bit-exact** — required for the cross-transport identity
/// guarantee to survive a server restart. Cohort selection, chaos, and the
/// simulated workload are all re-derived from the run seed, so nothing
/// else needs persistence.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerCheckpoint {
    /// Rounds already folded into the model (resume starts here).
    pub round: usize,
    /// The global model after `round` rounds.
    pub model: Vec<f32>,
    /// Byzantine-client reputation state. Empty books write no section and
    /// parse back empty, so unarmed checkpoints stay byte-identical to the
    /// pre-reputation format (and to main's golden files).
    pub reputation: ReputationBook,
}

impl ServerCheckpoint {
    /// Serializes the snapshot, with a trailing integrity checksum.
    pub fn to_text(&self) -> String {
        ServerCheckpoint::text_of(self.round, &self.model, &self.reputation)
    }

    /// The text of `ServerCheckpoint { round, model, reputation }`, written
    /// from borrowed parts: the serve loop checkpoints every round without
    /// copying its model into a snapshot first.
    pub fn text_of(round: usize, model: &[f32], reputation: &ReputationBook) -> String {
        let mut out = String::new();
        out.push_str("calibre-server-checkpoint v1\n");
        let _ = writeln!(out, "round {round}");
        let _ = write!(out, "model {}", model.len());
        for v in model {
            let _ = write!(out, " {:08x}", v.to_bits());
        }
        out.push('\n');
        out.push_str(&reputation.to_checkpoint_lines());
        append_checksum(&mut out);
        out
    }

    /// Parses a snapshot, verifying its trailing checksum line.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Parse`] on structural damage or a missing
    /// checksum line, [`CheckpointError::Checksum`] on integrity failure,
    /// [`CheckpointError::NonFinite`] for a NaN or infinite model element.
    pub fn parse(text: &str) -> Result<ServerCheckpoint, CheckpointError> {
        let body = require_checksum(text)?;
        let mut lines = body.lines();
        let header = lines.next().unwrap_or_default();
        if header != "calibre-server-checkpoint v1" {
            return Err(CheckpointError::Parse(format!("unknown header {header:?}")));
        }
        let round: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("round "))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CheckpointError::Parse("missing/bad round line".into()))?;
        let model_line = lines
            .next()
            .and_then(|l| l.strip_prefix("model "))
            .ok_or_else(|| CheckpointError::Parse("missing/bad model line".into()))?;
        let mut parts = model_line.split_whitespace();
        let n: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CheckpointError::Parse("bad model element count".into()))?;
        let model: Vec<f32> = parts
            .map(|s| u32::from_str_radix(s, 16).map(f32::from_bits))
            .collect::<Result<_, _>>()
            .map_err(|e| CheckpointError::Parse(format!("bad model element: {e}")))?;
        if model.len() != n {
            return Err(CheckpointError::Parse(format!(
                "expected {n} model elements, got {}",
                model.len()
            )));
        }
        if let Some(bad) = model.iter().find(|v| !v.is_finite()) {
            return Err(CheckpointError::NonFinite(format!("model element {bad}")));
        }
        let reputation = ReputationBook::parse_checkpoint_lines(lines.peekable())
            .map_err(CheckpointError::Parse)?;
        Ok(ServerCheckpoint {
            round,
            model,
            reputation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibre_tensor::nn::{Activation, Mlp};
    use calibre_tensor::rng;

    fn model(seed: u64) -> Mlp {
        Mlp::new(&[4, 6, 3], Activation::Relu, &mut rng::seeded(seed))
    }

    #[test]
    fn server_checkpoint_roundtrips_bit_exactly_and_detects_damage() {
        let ckpt = ServerCheckpoint {
            round: 7,
            model: vec![1.5, -0.0, f32::MIN_POSITIVE, 3.141592e-4, 1e30],
            reputation: ReputationBook::new(),
        };
        let text = ckpt.to_text();
        let parsed = ServerCheckpoint::parse(&text).unwrap();
        assert_eq!(parsed.round, 7);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&parsed.model), bits(&ckpt.model), "bit-exact");

        let tampered = text.replace("round 7", "round 8");
        assert!(matches!(
            ServerCheckpoint::parse(&tampered),
            Err(CheckpointError::Checksum { .. })
        ));
        assert!(ServerCheckpoint::parse("garbage").is_err());
    }

    #[test]
    fn roundtrip_through_string_preserves_parameters() {
        let original = model(1);
        let text = to_string(&original);
        let tensors = parse(&text).unwrap();
        let mut restored = model(2);
        assert_ne!(restored.to_flat(), original.to_flat());
        restore(&mut restored, &tensors).unwrap();
        // Text roundtrip via `{}` formatting of f32 is exact.
        assert_eq!(restored.to_flat(), original.to_flat());
    }

    #[test]
    fn roundtrip_through_file() {
        let original = model(3);
        let path = std::env::temp_dir().join(format!(
            "calibre-ckpt-{}-{}.txt",
            std::process::id(),
            line!()
        ));
        save(&original, &path).unwrap();
        let mut restored = model(4);
        load(&mut restored, &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.to_flat(), original.to_flat());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            parse("not a checkpoint\n"),
            Err(CheckpointError::Parse(_))
        ));
    }

    #[test]
    fn rejects_truncated_tensor() {
        let text = "calibre-checkpoint v1\ntensors 1\ntensor 2 2\n1 2\n";
        assert!(matches!(parse(text), Err(CheckpointError::Parse(_))));
    }

    #[test]
    fn rejects_wrong_width_row() {
        let text = "calibre-checkpoint v1\ntensors 1\ntensor 1 3\n1 2\n";
        assert!(matches!(parse(text), Err(CheckpointError::Parse(_))));
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let original = model(5);
        let tensors = parse(&to_string(&original)).unwrap();
        let mut wrong = Mlp::new(&[4, 5, 3], Activation::Relu, &mut rng::seeded(6));
        assert!(matches!(
            restore(&mut wrong, &tensors),
            Err(CheckpointError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CheckpointError::Parse("tensor 0: bad rows".into());
        assert!(e.to_string().contains("invalid checkpoint"));
    }

    #[test]
    fn rejects_nan_and_inf_values() {
        for bad in ["NaN", "inf", "-inf"] {
            let text = format!("calibre-checkpoint v1\ntensors 1\ntensor 1 2\n1 {bad}\n");
            assert!(
                matches!(parse(&text), Err(CheckpointError::NonFinite(_))),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_checksum_mismatch() {
        let original = model(7);
        let text = to_string(&original);
        // Flip one digit in a parameter value; the checksum line stays stale.
        let corrupted = text.replacen("0.", "1.", 1);
        assert_ne!(corrupted, text);
        assert!(matches!(
            parse(&corrupted),
            Err(CheckpointError::Checksum { .. })
        ));
    }

    #[test]
    fn truncated_file_fails_parse_cleanly() {
        // Simulate a torn write: drop the second half of a valid checkpoint.
        let original = model(8);
        let text = to_string(&original);
        let truncated = &text[..text.len() / 2];
        let err = parse(truncated).expect_err("truncated checkpoint must not parse");
        assert!(
            matches!(err, CheckpointError::Parse(_)),
            "expected a parse error, got {err:?}"
        );
    }

    #[test]
    fn checkpoints_without_checksum_still_parse() {
        // Pre-checksum files (or hand-written fixtures) stay loadable.
        let text = "calibre-checkpoint v1\ntensors 1\ntensor 1 2\n1 2\n";
        let tensors = parse(text).unwrap();
        assert_eq!(tensors[0].as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn store_rotates_and_falls_back_on_corruption() {
        let dir =
            std::env::temp_dir().join(format!("calibre-store-{}-{}", std::process::id(), line!()));
        let store = CheckpointStore::new(dir.join("ckpt.txt"));
        let a = model(9);
        let b = model(10);
        store.save_text(&to_string(&a)).unwrap();
        store.save_text(&to_string(&b)).unwrap();
        // Both generations on disk; current wins.
        let tensors = store.load_with(parse).unwrap();
        assert_eq!(tensors[0].as_slice(), b.parameters()[0].as_slice());
        // Corrupt the current file; the previous generation is recovered.
        std::fs::write(store.path(), "garbage").unwrap();
        let tensors = store.load_with(parse).unwrap();
        assert_eq!(tensors[0].as_slice(), a.parameters()[0].as_slice());
        // Corrupt both: the current file's error surfaces.
        std::fs::write(store.prev_path(), "also garbage").unwrap();
        assert!(store.load_with(parse).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Counts and shapes in a file that has lost its checksum line size
    /// nothing: each damaged one is a parse error, so a store falls back to
    /// its previous generation instead of the process aborting.
    #[test]
    fn damaged_counts_are_parse_errors_and_the_store_falls_back() {
        let huge_count = "calibre-checkpoint v1\ntensors 99999999999999999\n";
        let huge_shape = "calibre-checkpoint v1\ntensors 1\ntensor 4000000000 4000000000\n1 2\n";
        let overflowing_shape = format!(
            "calibre-checkpoint v1\ntensors 1\ntensor {} 2\n",
            usize::MAX
        );
        for text in [huge_count, huge_shape, &overflowing_shape] {
            assert!(
                matches!(parse(text), Err(CheckpointError::Parse(_))),
                "{text:?} must be a parse error"
            );
        }
        let mut huge_clients = String::from(
            "calibre-trainer-checkpoint v1\nround 0\nlosses 0\nglobal tensors 0\nclients 99999999999999999\n",
        );
        append_checksum(&mut huge_clients);
        assert!(matches!(
            TrainerCheckpoint::parse(&huge_clients),
            Err(CheckpointError::Parse(_))
        ));

        let dir =
            std::env::temp_dir().join(format!("calibre-store-{}-{}", std::process::id(), line!()));
        let store = CheckpointStore::new(dir.join("ckpt.txt"));
        let good = model(13);
        store.save_text(&to_string(&good)).unwrap();
        store.save_text(huge_count).unwrap();
        let tensors = store.load_with(parse).unwrap();
        assert_eq!(tensors[0].as_slice(), good.parameters()[0].as_slice());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn server_checkpoint_rejects_non_finite_model_elements() {
        let mut text =
            String::from("calibre-server-checkpoint v1\nround 0\nmodel 2 7fc00000 7f800000\n");
        append_checksum(&mut text);
        assert!(matches!(
            ServerCheckpoint::parse(&text),
            Err(CheckpointError::NonFinite(_))
        ));
    }

    /// A server checkpoint cut inside its model line has lost its checksum
    /// line: it is a parse error, never a model with a wrong last element,
    /// so a store falls back to its previous generation.
    #[test]
    fn a_torn_server_checkpoint_is_a_parse_error_and_the_store_falls_back() {
        let good = ServerCheckpoint {
            round: 2,
            model: vec![1.5, 2.5],
            reputation: ReputationBook::new(),
        };
        let torn = "calibre-server-checkpoint v1\nround 3\nmodel 2 3fc00000 402";
        assert!(matches!(
            ServerCheckpoint::parse(torn),
            Err(CheckpointError::Parse(_))
        ));
        let dir =
            std::env::temp_dir().join(format!("calibre-store-{}-{}", std::process::id(), line!()));
        let store = CheckpointStore::new(dir.join("server.ckpt"));
        store.save_text(&good.to_text()).unwrap();
        store.save_text(torn).unwrap();
        assert_eq!(store.load_with(ServerCheckpoint::parse).unwrap(), good);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trainer_checkpoint_roundtrips() {
        let global = model(11).parameters().into_iter().cloned().collect();
        let client_state: Vec<Matrix> = model(12).parameters().into_iter().cloned().collect();
        let ckpt = TrainerCheckpoint {
            round: 3,
            global,
            clients: vec![(2, client_state)],
            round_losses: vec![1.5, 1.25, 1.0],
            reputation: ReputationBook::new(),
        };
        let text = ckpt.to_text();
        let back = TrainerCheckpoint::parse(&text).unwrap();
        assert_eq!(back.round, 3);
        assert_eq!(back.round_losses, ckpt.round_losses);
        assert_eq!(back.clients.len(), 1);
        assert_eq!(back.clients[0].0, 2);
        for (a, b) in ckpt.global.iter().zip(&back.global) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        for (a, b) in ckpt.clients[0].1.iter().zip(&back.clients[0].1) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // Truncation is detected, not mis-parsed.
        assert!(TrainerCheckpoint::parse(&text[..text.len() / 3]).is_err());
    }

    #[test]
    fn trainer_checkpoint_with_no_clients_roundtrips() {
        let ckpt = TrainerCheckpoint {
            round: 0,
            global: vec![Matrix::from_vec(1, 2, vec![0.5, -0.5])],
            clients: vec![],
            round_losses: vec![],
            reputation: ReputationBook::new(),
        };
        let back = TrainerCheckpoint::parse(&ckpt.to_text()).unwrap();
        assert_eq!(back.round, 0);
        assert!(back.clients.is_empty());
        assert!(back.round_losses.is_empty());
    }

    /// A book with strikes and a quarantined client survives both
    /// checkpoint formats bit-exactly.
    #[test]
    fn reputation_state_roundtrips_through_both_checkpoints() {
        use crate::adversary::AnomalyScore;
        let mut book = ReputationBook::new();
        for _ in 0..3 {
            book.observe_round(&[
                AnomalyScore {
                    client: 4,
                    norm_z: 5.0,
                    cosine_z: 0.1,
                },
                AnomalyScore {
                    client: 9,
                    norm_z: 0.2,
                    cosine_z: 0.1,
                },
            ]);
        }
        assert!(book.is_quarantined(4), "three strikes quarantine client 4");

        let server = ServerCheckpoint {
            round: 5,
            model: vec![0.25, -1.0],
            reputation: book.clone(),
        };
        let back = ServerCheckpoint::parse(&server.to_text()).unwrap();
        assert_eq!(back.reputation, book);

        let trainer = TrainerCheckpoint {
            round: 1,
            global: vec![Matrix::from_vec(1, 2, vec![0.5, -0.5])],
            clients: vec![],
            round_losses: vec![2.0],
            reputation: book.clone(),
        };
        let back = TrainerCheckpoint::parse(&trainer.to_text()).unwrap();
        assert_eq!(back.reputation, book);
    }

    /// An empty book writes no reputation section, so unarmed checkpoints
    /// stay byte-identical to the pre-reputation format.
    #[test]
    fn empty_reputation_book_leaves_checkpoints_byte_identical() {
        let ckpt = ServerCheckpoint {
            round: 2,
            model: vec![1.0, 2.0],
            reputation: ReputationBook::new(),
        };
        let text = ckpt.to_text();
        assert!(!text.contains("reputation"), "no section for an empty book");
        let mut legacy = String::new();
        legacy.push_str("calibre-server-checkpoint v1\n");
        let _ = writeln!(legacy, "round 2");
        let _ = write!(legacy, "model 2");
        for v in &ckpt.model {
            let _ = write!(legacy, " {:08x}", v.to_bits());
        }
        legacy.push('\n');
        append_checksum(&mut legacy);
        assert_eq!(text, legacy, "byte-identical to the pre-reputation format");
    }
}
