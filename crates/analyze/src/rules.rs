//! The domain rules and their token-pattern matchers.
//!
//! Every rule guards an invariant the workspace otherwise only checks
//! dynamically (golden checksums, replay-identical chaos, mask
//! cancellation):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `hash-container` | aggregation crates iterate deterministically |
//! | `wallclock` | training paths are replayable (no ambient time/rng) |
//! | `no-unwrap` / `no-expect` / `no-panic` | library panics stay typed, so a client the engine reports `lost` is never a library bug |
//! | `slice-index` | out-of-bounds indexing cannot masquerade as a fault |
//! | `unsafe-no-safety` | every `unsafe` carries its justification |
//! | `float-cmp-unwrap` | float ordering is total (`total_cmp`), never a NaN panic |
//! | `lossy-cast` | loss/aggregation arithmetic flags precision loss |
//! | `net-read-no-timeout` | socket reads cannot hang a server forever |
//! | `schema-drift` | enum/wire/spec vocabularies stay in sync across files |
//! | `rng-unseeded` | every rng comes from the seeded constructor |
//! | `ambient-taint` | ambient time/entropy never leaks into fl/core via helpers |
//! | `unordered-fold` | float accumulation never iterates a hash container |
//! | `hot-path-index` | the live round path is free of indexing panics |
//!
//! Matchers work on the token stream from [`crate::lexer`]; everything
//! context-sensitive (test regions, allow annotations, `SAFETY:` comments)
//! is resolved by [`crate::engine`].

use crate::lexer::{TokKind, Token};

/// One enforced rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case name used in reports, baselines and
    /// `analyze:allow(...)` annotations.
    pub name: &'static str,
    /// One-line description of the invariant.
    pub summary: &'static str,
    /// What to write instead.
    pub fix: &'static str,
}

/// Every rule the analyzer knows, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "hash-container",
        summary: "HashMap/HashSet in an aggregation crate (iteration order is nondeterministic)",
        fix: "use BTreeMap/BTreeSet or collect + sort before iterating",
    },
    Rule {
        name: "wallclock",
        summary: "ambient time or rng (Instant/SystemTime/thread_rng) outside telemetry/bench",
        fix: "thread a seeded rng or take timestamps via calibre-telemetry",
    },
    Rule {
        name: "no-unwrap",
        summary: "unwrap() in library code can turn a recoverable fault into a bogus panic",
        fix: "return the crate's typed error, or annotate a provably-infallible case",
    },
    Rule {
        name: "no-expect",
        summary: "expect() in library code can turn a recoverable fault into a bogus panic",
        fix: "return the crate's typed error, or annotate a provably-infallible case",
    },
    Rule {
        name: "no-panic",
        summary: "panic!/todo!/unimplemented! in library code",
        fix: "return a typed error; use assert! only for documented contract checks",
    },
    Rule {
        name: "slice-index",
        summary: "slice indexing without get() can panic on malformed input",
        fix: "use .get()/.first()/iterators, or annotate when bounds are provably checked",
    },
    Rule {
        name: "unsafe-no-safety",
        summary: "unsafe without a `// SAFETY:` comment in the 3 lines above",
        fix: "document the invariant that makes the block sound",
    },
    Rule {
        name: "float-cmp-unwrap",
        summary: "partial_cmp().unwrap() panics on NaN and under-specifies float order",
        fix: "use f32::total_cmp / f64::total_cmp",
    },
    Rule {
        name: "lossy-cast",
        summary: "lossy `as` cast in loss/aggregation code",
        fix: "annotate with the value-range argument, or use From/TryFrom",
    },
    Rule {
        name: "net-read-no-timeout",
        summary: "blocking socket read in a file that never sets a read timeout",
        fix: "call set_read_timeout(Some(..)) on the stream before reading",
    },
    Rule {
        name: "malformed-allow",
        summary: "analyze:allow annotation that fails to parse or names an unknown rule",
        fix: "write `// analyze:allow(rule-name) -- reason`",
    },
    Rule {
        name: "schema-drift",
        summary: "enum variant, wire tag or spec keyword missing from its encoder/decoder/parser/doc counterpart",
        fix: "add the missing arm/tag/keyword on the side the note names (or document it in DESIGN.md)",
    },
    Rule {
        name: "rng-unseeded",
        summary: "entropy-fed rng construction (from_entropy/OsRng/ThreadRng) in library code",
        fix: "construct rngs through calibre_tensor::rng::seeded(seed)",
    },
    Rule {
        name: "ambient-taint",
        summary: "fl/core fn transitively calls an ambient time/entropy user (wallclock leak through a helper)",
        fix: "thread the value in as a parameter instead of calling the ambient helper",
    },
    Rule {
        name: "unordered-fold",
        summary: "accumulation over HashMap/HashSet iteration (order-dependent float folds drift)",
        fix: "iterate a BTree container or collect + sort keys before folding",
    },
    Rule {
        name: "hot-path-index",
        summary: "slice indexing inside a fn reachable from the round scheduler / transport / serve loop",
        fix: "use .get() with a typed error; a panic here kills the round, it cannot be retried",
    },
];

/// Looks a rule up by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Path relative to the workspace root, forward slashes.
    pub rel_path: String,
    /// The `crates/<dir>` component (e.g. `fl`, `telemetry`).
    pub crate_dir: String,
    /// Whether the file is a binary target (`src/bin/**` or `src/main.rs`).
    pub is_binary: bool,
}

impl FileCtx {
    /// Derives the context from a workspace-relative path. Returns `None`
    /// for paths outside `crates/*/src/`.
    pub fn from_rel_path(rel_path: &str) -> Option<FileCtx> {
        let mut parts = rel_path.split('/');
        if parts.next() != Some("crates") {
            return None;
        }
        let crate_dir = parts.next()?.to_string();
        if parts.next() != Some("src") {
            return None;
        }
        let rest: Vec<&str> = parts.collect();
        let is_binary = rest.first() == Some(&"bin") || rest == ["main.rs"];
        Some(FileCtx {
            rel_path: rel_path.to_string(),
            crate_dir,
            is_binary,
        })
    }

    fn file_name(&self) -> &str {
        self.rel_path.rsplit('/').next().unwrap_or("")
    }
}

/// Whether `rule` is enforced for the given file at all.
///
/// Binaries (`src/bin`, `src/main.rs`) and the `bench` crate are not
/// library code: a CLI that unwraps its own arguments fails loudly exactly
/// where a human is watching, so the panic-safety family does not apply.
/// `#[cfg(test)]` regions are exempted separately by the engine.
pub fn rule_applies(rule: &str, ctx: &FileCtx) -> bool {
    let bench = ctx.crate_dir == "bench";
    let library = !bench && !ctx.is_binary;
    match rule {
        // Determinism rules for the aggregation path crates. `core` is the
        // Calibre framework crate, `fl` the federated runtime, `cluster`
        // the prototype k-means — everything a client update flows through.
        "hash-container" => {
            matches!(ctx.crate_dir.as_str(), "core" | "fl" | "cluster") && !ctx.is_binary
        }
        // Telemetry owns wall-clock measurement; bench binaries drive runs.
        "wallclock" => ctx.crate_dir != "telemetry" && !bench,
        "no-unwrap" | "no-expect" | "no-panic" | "slice-index" | "float-cmp-unwrap" => library,
        "lossy-cast" => {
            library && matches!(ctx.file_name(), "loss.rs" | "losses.rs" | "aggregate.rs")
        }
        // A blocking read hangs a serve loop no matter where it lives, so
        // unlike the panic-safety family this applies to binaries too.
        "net-read-no-timeout" | "unsafe-no-safety" | "malformed-allow" => true,
        // The cross-file passes (crate::passes) scope their own findings by
        // construction; these arms exist so `analyze:allow` accepts the
        // names and the report table can state the scope.
        "schema-drift" | "rng-unseeded" | "unordered-fold" => library,
        "ambient-taint" | "hot-path-index" => {
            library && matches!(ctx.crate_dir.as_str(), "fl" | "core")
        }
        _ => false,
    }
}

/// A rule hit before exemptions (test regions, allow annotations) are
/// applied by the engine.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Rule name from [`RULES`].
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
}

const NUMERIC_CAST_TARGETS: &[&str] = &[
    "f32", "f64", "usize", "isize", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
];

/// Identifiers that legitimately precede a `[` without it being an index
/// expression: slice patterns (`let [a, b] = …`), array expressions after
/// keywords, `mod tests [cfg]`-style constructs never occur but keywords do.
const NON_INDEX_PREV_IDENTS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "break", "else", "match", "move", "static", "const",
    "type", "impl", "dyn", "where", "for", "as", "box", "if", "while",
];

/// Runs every scoped token-pattern matcher over one file's tokens.
///
/// Exemptions are not applied here — the engine filters candidates through
/// test regions and `analyze:allow` annotations afterwards.
pub fn match_tokens(ctx: &FileCtx, tokens: &[Token]) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = Vec::new();
    let mut consumed = vec![false; tokens.len()];
    let on = |rule: &str| rule_applies(rule, ctx);

    // Pass 1: `partial_cmp(...).unwrap()` / `.expect(...)` — claim the
    // unwrap/expect token so the panic-safety rules don't double-report.
    if on("float-cmp-unwrap") {
        let mut i = 0;
        while let Some(t) = tokens.get(i) {
            if t.is_ident("partial_cmp") && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                if let Some(close) = matching_paren(tokens, i + 1) {
                    let dot = tokens.get(close + 1).is_some_and(|t| t.is_punct('.'));
                    let call = tokens.get(close + 2);
                    if dot && call.is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect")) {
                        if let Some(call) = call {
                            out.push(Candidate {
                                rule: "float-cmp-unwrap",
                                line: call.line,
                            });
                        }
                        if let Some(slot) = consumed.get_mut(close + 2) {
                            *slot = true;
                        }
                    }
                }
            }
            i += 1;
        }
    }

    // Pass 1.5: `net-read-no-timeout` needs two file-level facts before
    // any site can fire — does the file touch raw sockets at all, and does
    // it ever set a read timeout? A file that configures a timeout
    // anywhere is trusted for all its reads: the rule catches servers that
    // *never* bound their blocking reads, not specific call sites.
    if on("net-read-no-timeout") {
        const SOCKET_TYPES: &[&str] = &["TcpStream", "UnixStream", "TcpListener", "UnixListener"];
        let touches_sockets = tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident && SOCKET_TYPES.contains(&t.text.as_str()));
        let sets_timeout = tokens
            .iter()
            .any(|t| t.is_ident("set_read_timeout") || t.is_ident("set_nonblocking"));
        if touches_sockets && !sets_timeout {
            for (i, t) in tokens.iter().enumerate() {
                let reads = t.is_ident("read")
                    || t.is_ident("read_exact")
                    || t.is_ident("read_to_end")
                    || t.is_ident("read_to_string");
                let called = i > 0
                    && tokens.get(i - 1).is_some_and(|p| p.is_punct('.'))
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
                if reads && called {
                    out.push(Candidate {
                        rule: "net-read-no-timeout",
                        line: t.line,
                    });
                }
            }
        }
    }

    // Pass 2: everything that is a local token pattern.
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokKind::Ident => {
                let next_is = |ch: char| tokens.get(i + 1).is_some_and(|n| n.is_punct(ch));
                let prev_is_dot = i > 0 && tokens.get(i - 1).is_some_and(|p| p.is_punct('.'));
                let claimed = consumed.get(i).copied().unwrap_or(false);
                match t.text.as_str() {
                    "HashMap" | "HashSet" if on("hash-container") => out.push(Candidate {
                        rule: "hash-container",
                        line: t.line,
                    }),
                    "Instant" | "SystemTime" | "thread_rng" if on("wallclock") => {
                        out.push(Candidate {
                            rule: "wallclock",
                            line: t.line,
                        })
                    }
                    "unwrap" if on("no-unwrap") && !claimed && prev_is_dot && next_is('(') => out
                        .push(Candidate {
                            rule: "no-unwrap",
                            line: t.line,
                        }),
                    "expect" if on("no-expect") && !claimed && prev_is_dot && next_is('(') => out
                        .push(Candidate {
                            rule: "no-expect",
                            line: t.line,
                        }),
                    "panic" | "todo" | "unimplemented" if on("no-panic") && next_is('!') => {
                        // `panic` only counts as the macro, not e.g. the
                        // `std::panic` module path (`panic::catch_unwind`).
                        out.push(Candidate {
                            rule: "no-panic",
                            line: t.line,
                        })
                    }
                    "unsafe" if on("unsafe-no-safety") => out.push(Candidate {
                        rule: "unsafe-no-safety",
                        line: t.line,
                    }),
                    "as" if on("lossy-cast")
                        && tokens
                            .get(i + 1)
                            .is_some_and(|n| NUMERIC_CAST_TARGETS.contains(&n.text.as_str())) =>
                    {
                        out.push(Candidate {
                            rule: "lossy-cast",
                            line: t.line,
                        });
                    }
                    _ => {}
                }
            }
            TokKind::Punct if t.is_punct('[') && on("slice-index") => {
                let indexes = i > 0
                    && tokens.get(i - 1).is_some_and(|p| match p.kind {
                        TokKind::Ident => !NON_INDEX_PREV_IDENTS.contains(&p.text.as_str()),
                        TokKind::Punct => p.is_punct(')') || p.is_punct(']'),
                        _ => false,
                    });
                if indexes {
                    out.push(Candidate {
                        rule: "slice-index",
                        line: t.line,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Index of the `)` matching the `(` at `open`, if present.
fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(path: &str) -> FileCtx {
        FileCtx::from_rel_path(path).expect("valid crates path")
    }

    fn hits(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        match_tokens(&ctx(path), &lex(src).tokens)
            .into_iter()
            .map(|c| (c.rule, c.line))
            .collect()
    }

    #[test]
    fn file_ctx_classifies_paths() {
        let lib = ctx("crates/fl/src/aggregate.rs");
        assert_eq!(lib.crate_dir, "fl");
        assert!(!lib.is_binary);
        assert!(ctx("crates/bench/src/bin/table1.rs").is_binary);
        assert!(ctx("crates/analyze/src/main.rs").is_binary);
        assert!(FileCtx::from_rel_path("vendor/rand/src/lib.rs").is_none());
    }

    #[test]
    fn hash_container_only_in_aggregation_crates() {
        let src = "use std::collections::HashMap;";
        assert_eq!(hits("crates/fl/src/x.rs", src), vec![("hash-container", 1)]);
        assert_eq!(hits("crates/tensor/src/x.rs", src), vec![]);
    }

    #[test]
    fn wallclock_exempts_telemetry_and_bench() {
        let src = "let t = Instant::now();";
        assert_eq!(hits("crates/core/src/x.rs", src), vec![("wallclock", 1)]);
        assert_eq!(hits("crates/telemetry/src/x.rs", src), vec![]);
        assert_eq!(hits("crates/bench/src/x.rs", src), vec![]);
    }

    #[test]
    fn unwrap_and_expect_require_call_syntax() {
        assert_eq!(
            hits("crates/fl/src/x.rs", "v.unwrap();"),
            vec![("no-unwrap", 1)]
        );
        assert_eq!(
            hits("crates/fl/src/x.rs", "v.expect(\"reason\");"),
            vec![("no-expect", 1)]
        );
        // unwrap_or is the sanctioned spelling and must not fire.
        assert_eq!(hits("crates/fl/src/x.rs", "v.unwrap_or(0);"), vec![]);
        // A method *named* in a path, not called with `.`, is not a hit.
        assert_eq!(hits("crates/fl/src/x.rs", "let f = unwrap;"), vec![]);
    }

    #[test]
    fn panic_macros_but_not_panic_module() {
        assert_eq!(
            hits("crates/fl/src/x.rs", "panic!(\"boom\");"),
            vec![("no-panic", 1)]
        );
        assert_eq!(
            hits("crates/fl/src/x.rs", "std::panic::catch_unwind(f);"),
            vec![]
        );
        assert_eq!(hits("crates/fl/src/x.rs", "todo!()"), vec![("no-panic", 1)]);
    }

    #[test]
    fn binaries_and_bench_are_not_library_code() {
        let src = "v.unwrap(); xs[0];";
        assert_eq!(hits("crates/bench/src/bin/t.rs", src), vec![]);
        assert_eq!(hits("crates/analyze/src/main.rs", src), vec![]);
        assert_eq!(
            hits("crates/fl/src/x.rs", src),
            vec![("no-unwrap", 1), ("slice-index", 1)]
        );
    }

    #[test]
    fn slice_index_spares_patterns_types_and_macros() {
        assert_eq!(hits("crates/fl/src/x.rs", "xs[i] + ys[j];").len(), 2);
        assert_eq!(hits("crates/fl/src/x.rs", "foo()[0];").len(), 1);
        assert_eq!(hits("crates/fl/src/x.rs", "m[0][1];").len(), 2);
        assert_eq!(hits("crates/fl/src/x.rs", "let [a, b] = xs;"), vec![]);
        assert_eq!(hits("crates/fl/src/x.rs", "let v: [f32; 4] = arr;"), vec![]);
        assert_eq!(hits("crates/fl/src/x.rs", "vec![0.0; n];"), vec![]);
        assert_eq!(
            hits("crates/fl/src/x.rs", "#[derive(Debug)] struct S;"),
            vec![]
        );
        assert_eq!(
            hits("crates/fl/src/x.rs", "#![forbid(unsafe_code)]").len(),
            0
        );
    }

    #[test]
    fn float_cmp_unwrap_claims_the_unwrap() {
        let got = hits("crates/fl/src/x.rs", "a.partial_cmp(&b).unwrap();");
        assert_eq!(
            got,
            vec![("float-cmp-unwrap", 1)],
            "no no-unwrap double hit"
        );
        let got = hits(
            "crates/fl/src/x.rs",
            "a.partial_cmp(&b).expect(\"finite\");",
        );
        assert_eq!(got, vec![("float-cmp-unwrap", 1)]);
        // unwrap_or is fine.
        assert_eq!(
            hits("crates/fl/src/x.rs", "a.partial_cmp(&b).unwrap_or(o);"),
            vec![]
        );
        // total_cmp is the fix and never fires.
        assert_eq!(hits("crates/fl/src/x.rs", "a.total_cmp(&b);"), vec![]);
    }

    #[test]
    fn lossy_cast_only_in_loss_and_aggregation_files() {
        let src = "let x = n as f32;";
        assert_eq!(
            hits("crates/fl/src/aggregate.rs", src),
            vec![("lossy-cast", 1)]
        );
        assert_eq!(
            hits("crates/core/src/loss.rs", src),
            vec![("lossy-cast", 1)]
        );
        assert_eq!(hits("crates/fl/src/model.rs", src), vec![]);
        // Casting to a wider or non-numeric type is not flagged.
        assert_eq!(
            hits("crates/fl/src/aggregate.rs", "let y = x as MyType;"),
            vec![]
        );
    }

    #[test]
    fn net_read_requires_sockets_and_no_timeout() {
        // A socket file with an unbounded read fires once per read call.
        let bad = "fn serve(mut s: TcpStream) { s.read_exact(&mut buf); s.read(&mut b); }";
        assert_eq!(
            hits("crates/fl/src/x.rs", bad),
            vec![("net-read-no-timeout", 1), ("net-read-no-timeout", 1)]
        );
        // Setting a read timeout anywhere in the file clears it.
        let good = "fn serve(mut s: TcpStream) { s.set_read_timeout(Some(d)); s.read(&mut b); }";
        assert_eq!(hits("crates/fl/src/x.rs", good), vec![]);
        // Nonblocking sockets cannot hang either.
        let nb = "fn serve(l: TcpListener) { l.set_nonblocking(true); s.read(&mut b); }";
        assert_eq!(hits("crates/fl/src/x.rs", nb), vec![]);
        // Reads in files that never touch sockets (readers, files) are fine.
        let file_io = "fn load(mut f: File) { f.read_to_end(&mut buf); }";
        assert_eq!(hits("crates/fl/src/x.rs", file_io), vec![]);
        // Binaries are covered: a CLI hanging on accept is still a hang.
        assert_eq!(
            hits("crates/bench/src/bin/t.rs", bad),
            vec![("net-read-no-timeout", 1), ("net-read-no-timeout", 1)]
        );
    }

    #[test]
    fn unsafe_always_produces_a_candidate() {
        assert_eq!(
            hits("crates/tensor/src/x.rs", "unsafe { ptr.read() }"),
            vec![("unsafe-no-safety", 1)]
        );
        assert_eq!(
            hits("crates/bench/src/bin/t.rs", "unsafe { f() }"),
            vec![("unsafe-no-safety", 1)],
            "unsafe audit applies to binaries too"
        );
    }
}
