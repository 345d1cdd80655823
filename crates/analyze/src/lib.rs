//! Workspace-aware determinism & panic-safety analyzer.
//!
//! The reproduction's core invariants — bit-identical golden checksums
//! and replay-identical fault injection — are enforced *dynamically*,
//! which means a diff only breaks them when a golden test happens to cover
//! the offending path. This crate checks the static preconditions of those
//! invariants on every file of every workspace crate, at CI time:
//!
//! * no nondeterministic containers or ambient clocks in aggregation and
//!   training paths (fairness variance, PAPER.md §V, is measured as the
//!   std-dev of per-client accuracy — aggregation-order noise pollutes it);
//! * no `unwrap`/`expect`/`panic!` in library code, so a client the round
//!   engine reports as `lost` after a caught panic is never a library bug
//!   in disguise;
//! * every `unsafe` carries a `SAFETY:` justification, and each crate's
//!   `forbid(unsafe_code)` status can only strengthen;
//! * float comparisons are total and loss/aggregation casts are audited;
//! * cross-file: wire/enum/spec vocabularies stay in sync across encoder,
//!   decoder, parser and DESIGN.md ([`passes::schema`]); ambient
//!   time/entropy cannot leak into `fl`/`core` through helper crates and
//!   float folds never iterate hash containers ([`passes::determinism`]);
//!   and slice indexing reachable from the live round/serve/transport
//!   path is held at zero ([`passes::panics`]).
//!
//! Violations ratchet through a committed baseline
//! (`results/analyze_baseline.json`): existing debt is tolerated, new debt
//! fails `check`, and `ratchet` rewrites the baseline downward only.
//! Individual sites opt out with `// analyze:allow(rule-name) -- reason`.
//!
//! ```
//! use calibre_analyze::engine::scan_source;
//!
//! let bad = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }";
//! let violations = scan_source("crates/fl/src/example.rs", bad);
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].rule, "no-unwrap");
//! ```

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod passes;
pub mod report;
pub mod rules;
