//! Telemetry event types and their JSON-lines encoding.

use crate::json::JsonValue;
use std::fmt::Write as _;

/// The per-client loss decomposition from the Calibre objective
/// (`L = L_ssl + alpha * L_n + beta * L_p`).
///
/// Methods that do not use the prototype regularizers report zero for
/// [`ClientLosses::l_n`] and [`ClientLosses::l_p`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClientLosses {
    /// Total local training loss (the value the optimizer stepped on).
    pub total: f32,
    /// Self-supervised contrastive term `L_ssl` (`l_s` in the paper).
    pub ssl: f32,
    /// Prototype-noise regularizer `L_n`.
    pub l_n: f32,
    /// Prototype-alignment regularizer `L_p`.
    pub l_p: f32,
}

/// One observable moment in the federated loop.
///
/// Events are plain data: producing one has no side effects, and every field
/// is public so sinks can reduce them however they like.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A federated round began with this set of selected client ids.
    RoundStart {
        /// Zero-based round index.
        round: usize,
        /// Ids of the clients selected for this round.
        selected: Vec<usize>,
    },
    /// One client finished its local update.
    ClientUpdate {
        /// Zero-based round index.
        round: usize,
        /// Client id.
        client: usize,
        /// Wall-clock time of the local update, measured in the worker
        /// thread that ran it, in milliseconds.
        wall_ms: f64,
        /// Loss decomposition at the end of the local update.
        losses: ClientLosses,
        /// Divergence between the client's model and the global model
        /// (the paper's divergence-aware aggregation signal).
        divergence: f32,
    },
    /// The server aggregated the round's client payloads.
    Aggregate {
        /// Zero-based round index.
        round: usize,
        /// Number of client payloads aggregated.
        num_clients: usize,
        /// Sum of aggregation weights (sample counts or divergence weights).
        total_weight: f32,
    },
    /// A federated round completed.
    RoundEnd {
        /// Zero-based round index.
        round: usize,
        /// Mean of the selected clients' total losses.
        mean_loss: f32,
        /// Per-client wall-clock times in milliseconds, in selection order.
        client_wall_ms: Vec<f64>,
        /// Per-client total losses, in selection order.
        client_loss: Vec<f32>,
        /// Bytes the communication model predicts for this round
        /// (both directions, from `calibre_fl::comm::CommReport`).
        planned_bytes: u64,
        /// Bytes actually moved through the aggregator this round.
        observed_bytes: u64,
    },
    /// One client finished the personalization stage.
    Personalize {
        /// Client id.
        client: usize,
        /// Personalized test accuracy of the local probe, in `[0, 1]`.
        accuracy: f32,
    },
    /// One client's fault outcome in one round, emitted once by the round
    /// engine when it decides.
    ///
    /// Every client the engine does not fold gets exactly one event with
    /// `detected: true`: `dropout` or `panic` (dropped before dispatch),
    /// the corruption tag or `invalid` (reply rejected by screening), or
    /// `lost` (a reply the transport could not deliver, including a client
    /// that crashed in-process). A folded client gets one event when it
    /// straggled (`detected: false`) or carried a finite corruption
    /// (`detected` only when the norm clip bit).
    Fault {
        /// Zero-based round index.
        round: usize,
        /// Client id the fault applies to.
        client: usize,
        /// Delivery attempt. Always 0: the engine does not retry; the field
        /// is kept for schema compatibility.
        attempt: usize,
        /// Fault kind tag: `"dropout"`, `"straggle"`, `"panic"`,
        /// `"corrupt_nan"`, `"corrupt_inf"`, `"corrupt_norm"`,
        /// `"corrupt_sign"`, `"invalid"`, `"lost"`.
        kind: &'static str,
        /// Whether the engine caught the fault (the client was not folded,
        /// or the norm clip bit) rather than letting it reach the
        /// aggregate.
        detected: bool,
    },
    /// A Byzantine attack was injected into one client's update by the
    /// adversary layer (`calibre_fl::adversary`).
    ///
    /// Emitted once per attacked `(round, client)` cell, by the server-side
    /// path that applied the perturbation — never by the defense, which
    /// only sees anonymous updates. Replaying the same seeds reproduces
    /// the exact same attack events.
    Attack {
        /// Zero-based round index.
        round: usize,
        /// Client id the attack was applied to.
        client: usize,
        /// Attack kind tag: `"attack_flip"`, `"attack_scale"`,
        /// `"attack_replace"`, `"attack_noise"`, `"attack_collude"`.
        kind: &'static str,
    },
    /// A client crossed the quarantine threshold of the server's
    /// reputation book and will no longer be sampled.
    Quarantine {
        /// Zero-based round index of the offending observation.
        round: usize,
        /// Client id being quarantined.
        client: usize,
        /// EWMA suspicion score at the moment of quarantine.
        suspicion: f32,
    },
    /// One point of a massive-cohort scaling sweep, emitted by the
    /// `cohort` bench: how fast streaming rounds ran at a given simulated
    /// cohort size and how much accumulator state aggregation held at peak.
    CohortPoint {
        /// Simulated cohort size (clients folded per round).
        cohort: usize,
        /// Model dimension (floats per update).
        dim: usize,
        /// Number of edge groups (0 = flat streaming sink).
        groups: usize,
        /// Rounds executed at this sweep point.
        rounds: usize,
        /// Throughput over the sweep point, in rounds per second.
        rounds_per_sec: f64,
        /// Peak bytes held by the aggregation path (sink state + quorum
        /// buffer + in-flight wave) across all rounds of the point.
        peak_state_bytes: u64,
        /// Peak resident set size of the process after the point, in
        /// bytes (0 when the platform does not expose it).
        peak_rss_bytes: u64,
    },
    /// Per-round resilience accounting, emitted by the round engine right
    /// after [`Event::Aggregate`], only for rounds that dropped or rejected
    /// a client or missed the quorum.
    RoundResilience {
        /// Zero-based round index.
        round: usize,
        /// Clients dropped or rejected this round.
        injected: usize,
        /// Clients dropped or rejected this round (the engine detects every
        /// client it does not fold, so this equals `injected`).
        detected: usize,
        /// Retried client updates. Always 0: the engine does not retry; the
        /// field is kept for schema compatibility.
        retries: usize,
        /// Number of client updates that survived into aggregation.
        quorum: usize,
        /// Whether the round was skipped because `quorum < min_quorum`.
        skipped: bool,
    },
}

/// Formats a float as JSON, mapping non-finite values to `null`.
fn json_num(x: f64, out: &mut String) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn json_usize_array(xs: &[usize], out: &mut String) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
}

fn json_f64_array(xs: &[f64], out: &mut String) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_num(x, out);
    }
    out.push(']');
}

fn json_f32_array(xs: &[f32], out: &mut String) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_num(f64::from(x), out);
    }
    out.push(']');
}

impl Event {
    /// Encodes the event as a single JSON object (one JSONL line, without
    /// the trailing newline).
    ///
    /// The encoding is hand-rolled: every field is numeric or an array of
    /// numbers, and the only strings are the fixed `"type"` tags, so no
    /// escaping is needed. Non-finite floats become `null`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        match self {
            Event::RoundStart { round, selected } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"round_start\",\"round\":{round},\"selected\":"
                );
                json_usize_array(selected, &mut s);
                s.push('}');
            }
            Event::ClientUpdate {
                round,
                client,
                wall_ms,
                losses,
                divergence,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"client_update\",\"round\":{round},\"client\":{client},\"wall_ms\":"
                );
                json_num(*wall_ms, &mut s);
                s.push_str(",\"loss\":");
                json_num(f64::from(losses.total), &mut s);
                s.push_str(",\"l_ssl\":");
                json_num(f64::from(losses.ssl), &mut s);
                s.push_str(",\"l_n\":");
                json_num(f64::from(losses.l_n), &mut s);
                s.push_str(",\"l_p\":");
                json_num(f64::from(losses.l_p), &mut s);
                s.push_str(",\"divergence\":");
                json_num(f64::from(*divergence), &mut s);
                s.push('}');
            }
            Event::Aggregate {
                round,
                num_clients,
                total_weight,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"aggregate\",\"round\":{round},\"num_clients\":{num_clients},\"total_weight\":"
                );
                json_num(f64::from(*total_weight), &mut s);
                s.push('}');
            }
            Event::RoundEnd {
                round,
                mean_loss,
                client_wall_ms,
                client_loss,
                planned_bytes,
                observed_bytes,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"round_end\",\"round\":{round},\"mean_loss\":"
                );
                json_num(f64::from(*mean_loss), &mut s);
                s.push_str(",\"client_wall_ms\":");
                json_f64_array(client_wall_ms, &mut s);
                s.push_str(",\"client_loss\":");
                json_f32_array(client_loss, &mut s);
                let _ = write!(
                    s,
                    ",\"planned_bytes\":{planned_bytes},\"observed_bytes\":{observed_bytes}}}"
                );
            }
            Event::Personalize { client, accuracy } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"personalize\",\"client\":{client},\"accuracy\":"
                );
                json_num(f64::from(*accuracy), &mut s);
                s.push('}');
            }
            Event::Fault {
                round,
                client,
                attempt,
                kind,
                detected,
            } => {
                // `kind` comes from a fixed set of static tags, so it needs
                // no JSON escaping.
                let _ = write!(
                    s,
                    "{{\"type\":\"fault\",\"round\":{round},\"client\":{client},\
                     \"attempt\":{attempt},\"kind\":\"{kind}\",\"detected\":{detected}}}"
                );
            }
            Event::RoundResilience {
                round,
                injected,
                detected,
                retries,
                quorum,
                skipped,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"round_resilience\",\"round\":{round},\
                     \"injected\":{injected},\"detected\":{detected},\
                     \"retries\":{retries},\"quorum\":{quorum},\"skipped\":{skipped}}}"
                );
            }
            Event::Attack {
                round,
                client,
                kind,
            } => {
                // `kind` comes from a fixed set of static tags, so it needs
                // no JSON escaping.
                let _ = write!(
                    s,
                    "{{\"type\":\"attack\",\"round\":{round},\"client\":{client},\
                     \"kind\":\"{kind}\"}}"
                );
            }
            Event::Quarantine {
                round,
                client,
                suspicion,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"quarantine\",\"round\":{round},\"client\":{client},\
                     \"suspicion\":"
                );
                json_num(f64::from(*suspicion), &mut s);
                s.push('}');
            }
            Event::CohortPoint {
                cohort,
                dim,
                groups,
                rounds,
                rounds_per_sec,
                peak_state_bytes,
                peak_rss_bytes,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"cohort_point\",\"cohort\":{cohort},\"dim\":{dim},\
                     \"groups\":{groups},\"rounds\":{rounds},\"rounds_per_sec\":"
                );
                json_num(*rounds_per_sec, &mut s);
                let _ = write!(
                    s,
                    ",\"peak_state_bytes\":{peak_state_bytes},\"peak_rss_bytes\":{peak_rss_bytes}}}"
                );
            }
        }
        s
    }

    /// Decodes one JSONL line produced by [`Event::to_json`].
    ///
    /// The inverse of the encoder, with the same conventions: `null` in a
    /// numeric position decodes to `NaN` (so non-finite losses survive a
    /// round trip), a *missing* numeric field is an error. Unknown `"type"`
    /// tags are errors too — a telemetry file from a newer writer should
    /// fail loudly, not fold silently wrong.
    pub fn from_json(line: &str) -> Result<Event, String> {
        let value = JsonValue::parse(line)?;
        Event::from_value(&value)
    }

    /// Decodes an already-parsed JSON object into an event. See
    /// [`Event::from_json`].
    pub fn from_value(value: &JsonValue) -> Result<Event, String> {
        let tag = value
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "event object has no \"type\" tag".to_string())?;
        match tag {
            "round_start" => Ok(Event::RoundStart {
                round: field_usize(value, "round")?,
                selected: field_usize_array(value, "selected")?,
            }),
            "client_update" => Ok(Event::ClientUpdate {
                round: field_usize(value, "round")?,
                client: field_usize(value, "client")?,
                wall_ms: field_f64(value, "wall_ms")?,
                losses: ClientLosses {
                    total: field_f32(value, "loss")?,
                    ssl: field_f32(value, "l_ssl")?,
                    l_n: field_f32(value, "l_n")?,
                    l_p: field_f32(value, "l_p")?,
                },
                divergence: field_f32(value, "divergence")?,
            }),
            "aggregate" => Ok(Event::Aggregate {
                round: field_usize(value, "round")?,
                num_clients: field_usize(value, "num_clients")?,
                total_weight: field_f32(value, "total_weight")?,
            }),
            "round_end" => Ok(Event::RoundEnd {
                round: field_usize(value, "round")?,
                mean_loss: field_f32(value, "mean_loss")?,
                client_wall_ms: field_f64_array(value, "client_wall_ms")?,
                client_loss: field_f32_array(value, "client_loss")?,
                planned_bytes: field_u64(value, "planned_bytes")?,
                observed_bytes: field_u64(value, "observed_bytes")?,
            }),
            "personalize" => Ok(Event::Personalize {
                client: field_usize(value, "client")?,
                accuracy: field_f32(value, "accuracy")?,
            }),
            "fault" => Ok(Event::Fault {
                round: field_usize(value, "round")?,
                client: field_usize(value, "client")?,
                attempt: field_usize(value, "attempt")?,
                kind: intern_fault_kind(
                    value
                        .get("kind")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| "fault event has no \"kind\" string".to_string())?,
                ),
                detected: field_bool(value, "detected")?,
            }),
            "round_resilience" => Ok(Event::RoundResilience {
                round: field_usize(value, "round")?,
                injected: field_usize(value, "injected")?,
                detected: field_usize(value, "detected")?,
                retries: field_usize(value, "retries")?,
                quorum: field_usize(value, "quorum")?,
                skipped: field_bool(value, "skipped")?,
            }),
            "attack" => Ok(Event::Attack {
                round: field_usize(value, "round")?,
                client: field_usize(value, "client")?,
                kind: intern_attack_kind(
                    value
                        .get("kind")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| "attack event has no \"kind\" string".to_string())?,
                ),
            }),
            "quarantine" => Ok(Event::Quarantine {
                round: field_usize(value, "round")?,
                client: field_usize(value, "client")?,
                suspicion: field_f32(value, "suspicion")?,
            }),
            "cohort_point" => Ok(Event::CohortPoint {
                cohort: field_usize(value, "cohort")?,
                dim: field_usize(value, "dim")?,
                groups: field_usize(value, "groups")?,
                rounds: field_usize(value, "rounds")?,
                rounds_per_sec: field_f64(value, "rounds_per_sec")?,
                peak_state_bytes: field_u64(value, "peak_state_bytes")?,
                peak_rss_bytes: field_u64(value, "peak_rss_bytes")?,
            }),
            other => Err(format!("unknown event type tag {other:?}")),
        }
    }

    /// Returns the round index the event belongs to, if it is round-scoped.
    ///
    /// [`Event::Personalize`] happens after training finishes and returns
    /// `None`.
    pub fn round(&self) -> Option<usize> {
        match self {
            Event::RoundStart { round, .. }
            | Event::ClientUpdate { round, .. }
            | Event::Aggregate { round, .. }
            | Event::RoundEnd { round, .. }
            | Event::Fault { round, .. }
            | Event::RoundResilience { round, .. }
            | Event::Attack { round, .. }
            | Event::Quarantine { round, .. } => Some(*round),
            Event::Personalize { .. } | Event::CohortPoint { .. } => None,
        }
    }
}

/// Maps a decoded fault-kind string back to the static tag the producers
/// use. Unknown kinds (from a newer writer) fold to `"other"` — faults
/// still count, the label just coarsens.
fn intern_fault_kind(kind: &str) -> &'static str {
    match kind {
        "dropout" => "dropout",
        "straggle" => "straggle",
        "panic" => "panic",
        "corrupt_nan" => "corrupt_nan",
        "corrupt_inf" => "corrupt_inf",
        "corrupt_norm" => "corrupt_norm",
        "corrupt_sign" => "corrupt_sign",
        "invalid" => "invalid",
        "lost" => "lost",
        _ => "other",
    }
}

/// Maps a decoded attack-kind string back to the static tag the adversary
/// layer uses. Unknown kinds (from a newer writer) fold to `"other"`.
fn intern_attack_kind(kind: &str) -> &'static str {
    match kind {
        "attack_flip" => "attack_flip",
        "attack_scale" => "attack_scale",
        "attack_replace" => "attack_replace",
        "attack_noise" => "attack_noise",
        "attack_collude" => "attack_collude",
        _ => "other",
    }
}

/// A required non-negative integer field.
fn field_usize(value: &JsonValue, name: &str) -> Result<usize, String> {
    let raw = value
        .get(name)
        .and_then(JsonValue::as_i64)
        .ok_or_else(|| format!("missing or non-integer field {name:?}"))?;
    usize::try_from(raw).map_err(|_| format!("field {name:?} is negative: {raw}"))
}

/// A required non-negative integer field, widened to `u64`.
fn field_u64(value: &JsonValue, name: &str) -> Result<u64, String> {
    let raw = value
        .get(name)
        .and_then(JsonValue::as_i64)
        .ok_or_else(|| format!("missing or non-integer field {name:?}"))?;
    u64::try_from(raw).map_err(|_| format!("field {name:?} is negative: {raw}"))
}

/// A required numeric field; `null` decodes to `NaN` (the encoder writes
/// non-finite values as `null`), absence is an error.
fn field_f64(value: &JsonValue, name: &str) -> Result<f64, String> {
    match value.get(name) {
        Some(JsonValue::Null) => Ok(f64::NAN),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("field {name:?} is not a number")),
        None => Err(format!("missing numeric field {name:?}")),
    }
}

fn field_f32(value: &JsonValue, name: &str) -> Result<f32, String> {
    field_f64(value, name).map(|v| v as f32)
}

fn field_bool(value: &JsonValue, name: &str) -> Result<bool, String> {
    value
        .get(name)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("missing or non-bool field {name:?}"))
}

fn field_usize_array(value: &JsonValue, name: &str) -> Result<Vec<usize>, String> {
    let items = value
        .get(name)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing or non-array field {name:?}"))?;
    items
        .iter()
        .map(|v| {
            let raw = v
                .as_i64()
                .ok_or_else(|| format!("non-integer element in {name:?}"))?;
            usize::try_from(raw).map_err(|_| format!("negative element in {name:?}"))
        })
        .collect()
}

fn field_f64_array(value: &JsonValue, name: &str) -> Result<Vec<f64>, String> {
    let items = value
        .get(name)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing or non-array field {name:?}"))?;
    items
        .iter()
        .map(|v| match v {
            JsonValue::Null => Ok(f64::NAN),
            other => other
                .as_f64()
                .ok_or_else(|| format!("non-numeric element in {name:?}")),
        })
        .collect()
}

fn field_f32_array(value: &JsonValue, name: &str) -> Result<Vec<f32>, String> {
    field_f64_array(value, name).map(|xs| xs.into_iter().map(|x| x as f32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_start_encodes_selection() {
        let e = Event::RoundStart {
            round: 3,
            selected: vec![0, 4, 7],
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"round_start\",\"round\":3,\"selected\":[0,4,7]}"
        );
    }

    #[test]
    fn client_update_carries_loss_decomposition() {
        let e = Event::ClientUpdate {
            round: 1,
            client: 9,
            wall_ms: 12.5,
            losses: ClientLosses {
                total: 2.0,
                ssl: 1.5,
                l_n: 0.25,
                l_p: 0.25,
            },
            divergence: 0.125,
        };
        let json = e.to_json();
        assert!(json.contains("\"wall_ms\":12.5"));
        assert!(json.contains("\"l_ssl\":1.5"));
        assert!(json.contains("\"l_n\":0.25"));
        assert!(json.contains("\"l_p\":0.25"));
        assert!(json.contains("\"divergence\":0.125"));
    }

    #[test]
    fn round_end_arrays_and_bytes() {
        let e = Event::RoundEnd {
            round: 0,
            mean_loss: 1.5,
            client_wall_ms: vec![1.0, 2.5],
            client_loss: vec![1.0, 2.0],
            planned_bytes: 100,
            observed_bytes: 120,
        };
        let json = e.to_json();
        assert!(json.contains("\"client_wall_ms\":[1,2.5]"));
        assert!(json.contains("\"client_loss\":[1,2]"));
        assert!(json.contains("\"planned_bytes\":100"));
        assert!(json.contains("\"observed_bytes\":120"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::Personalize {
            client: 0,
            accuracy: f32::NAN,
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"personalize\",\"client\":0,\"accuracy\":null}"
        );
    }

    #[test]
    fn fault_event_encodes_kind_and_detection() {
        let e = Event::Fault {
            round: 2,
            client: 5,
            attempt: 1,
            kind: "corrupt_nan",
            detected: true,
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"fault\",\"round\":2,\"client\":5,\"attempt\":1,\
             \"kind\":\"corrupt_nan\",\"detected\":true}"
        );
        assert_eq!(e.round(), Some(2));
    }

    #[test]
    fn round_resilience_encodes_counters() {
        let e = Event::RoundResilience {
            round: 7,
            injected: 3,
            detected: 2,
            retries: 1,
            quorum: 4,
            skipped: false,
        };
        let json = e.to_json();
        assert!(json.contains("\"type\":\"round_resilience\""));
        assert!(json.contains("\"injected\":3"));
        assert!(json.contains("\"detected\":2"));
        assert!(json.contains("\"retries\":1"));
        assert!(json.contains("\"quorum\":4"));
        assert!(json.contains("\"skipped\":false"));
        assert_eq!(e.round(), Some(7));
    }

    #[test]
    fn cohort_point_encodes_scaling_fields() {
        let e = Event::CohortPoint {
            cohort: 10_000,
            dim: 1024,
            groups: 0,
            rounds: 5,
            rounds_per_sec: 12.5,
            peak_state_bytes: 4096,
            peak_rss_bytes: 1 << 20,
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"cohort_point\",\"cohort\":10000,\"dim\":1024,\
             \"groups\":0,\"rounds\":5,\"rounds_per_sec\":12.5,\
             \"peak_state_bytes\":4096,\"peak_rss_bytes\":1048576"
                .to_owned()
                + "}"
        );
        assert_eq!(e.round(), None, "sweep points are not round-scoped");
    }

    #[test]
    fn every_variant_roundtrips_through_json() {
        let events = vec![
            Event::RoundStart {
                round: 3,
                selected: vec![0, 4, 7],
            },
            Event::ClientUpdate {
                round: 1,
                client: 9,
                wall_ms: 12.5,
                losses: ClientLosses {
                    total: 2.0,
                    ssl: 1.5,
                    l_n: 0.25,
                    l_p: 0.25,
                },
                divergence: 0.125,
            },
            Event::Aggregate {
                round: 2,
                num_clients: 5,
                total_weight: 5.5,
            },
            Event::RoundEnd {
                round: 0,
                mean_loss: 1.5,
                client_wall_ms: vec![1.0, 2.5],
                client_loss: vec![1.0, 2.0],
                planned_bytes: 100,
                observed_bytes: 120,
            },
            Event::Personalize {
                client: 4,
                accuracy: 0.875,
            },
            Event::Fault {
                round: 2,
                client: 5,
                attempt: 1,
                kind: "corrupt_nan",
                detected: true,
            },
            Event::Fault {
                round: 3,
                client: 8,
                attempt: 0,
                kind: "lost",
                detected: true,
            },
            Event::RoundResilience {
                round: 7,
                injected: 3,
                detected: 2,
                retries: 1,
                quorum: 4,
                skipped: false,
            },
            Event::CohortPoint {
                cohort: 10_000,
                dim: 1024,
                groups: 8,
                rounds: 5,
                rounds_per_sec: 12.5,
                peak_state_bytes: 4096,
                peak_rss_bytes: 1 << 20,
            },
            Event::Attack {
                round: 4,
                client: 2,
                kind: "attack_collude",
            },
            Event::Quarantine {
                round: 5,
                client: 2,
                suspicion: 3.25,
            },
        ];
        for event in events {
            let decoded = Event::from_json(&event.to_json()).expect("roundtrip decode");
            assert_eq!(decoded, event);
        }
    }

    #[test]
    fn null_decodes_to_nan() {
        let decoded = Event::from_json("{\"type\":\"personalize\",\"client\":0,\"accuracy\":null}")
            .expect("null accuracy decodes");
        match decoded {
            Event::Personalize { client, accuracy } => {
                assert_eq!(client, 0);
                assert!(accuracy.is_nan());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn attack_event_encodes_kind_and_unknown_kinds_fold() {
        let e = Event::Attack {
            round: 1,
            client: 3,
            kind: "attack_flip",
        };
        assert_eq!(
            e.to_json(),
            "{\"type\":\"attack\",\"round\":1,\"client\":3,\"kind\":\"attack_flip\"}"
        );
        assert_eq!(e.round(), Some(1));
        let decoded = Event::from_json(
            "{\"type\":\"attack\",\"round\":0,\"client\":1,\"kind\":\"attack_from_the_future\"}",
        )
        .expect("unknown attack kinds still decode");
        assert!(matches!(decoded, Event::Attack { kind: "other", .. }));
    }

    #[test]
    fn unknown_fault_kind_folds_to_other() {
        let decoded = Event::from_json(
            "{\"type\":\"fault\",\"round\":0,\"client\":1,\"attempt\":0,\
             \"kind\":\"brand_new_kind\",\"detected\":false}",
        )
        .expect("unknown kinds still decode");
        assert!(matches!(decoded, Event::Fault { kind: "other", .. }));
    }

    #[test]
    fn decode_errors_are_loud() {
        assert!(Event::from_json("not json").is_err());
        assert!(Event::from_json("{\"round\":1}").is_err(), "no type tag");
        assert!(
            Event::from_json("{\"type\":\"warp_drive\",\"round\":1}").is_err(),
            "unknown tag"
        );
        assert!(
            Event::from_json("{\"type\":\"personalize\",\"client\":0}").is_err(),
            "missing numeric field"
        );
        assert!(
            Event::from_json("{\"type\":\"round_start\",\"round\":-1,\"selected\":[]}").is_err(),
            "negative round"
        );
    }

    #[test]
    fn round_accessor() {
        let start = Event::RoundStart {
            round: 2,
            selected: vec![],
        };
        assert_eq!(start.round(), Some(2));
        let p = Event::Personalize {
            client: 0,
            accuracy: 0.5,
        };
        assert_eq!(p.round(), None);
    }
}
