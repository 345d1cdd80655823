//! Schema-drift: wire/enum tags must survive every hop of the round trip.
//!
//! Four contracts, all cross-file:
//!
//! 1. **Enum coverage** — any fn named like an encoder/decoder/parser
//!    (`parse`, `name`, `tag`, `tag_name`, `kind_tag`, `to_json`,
//!    `from_value`, `encode_payload`, `decode_payload`, `sink`, `round`)
//!    implemented on an enum in the same file must mention *every* variant
//!    of that enum. A `_` wildcard arm that silently folds a new variant
//!    into old behaviour is exactly the drift this catches.
//! 2. **Event tag round trip** — every `"type"` tag emitted by
//!    `Event::to_json` must be decoded by `Event::from_value`, and every
//!    tag/field literal `from_value` reads must be produced by `to_json`.
//! 3. **Interning tables** — every fault/attack tag produced by
//!    `ClientFault::kind_tag` / `Corruption::kind_tag` (chaos) and
//!    `AttackKind::kind_tag` (adversary) must be a key of the matching
//!    interning table in `telemetry/src/event.rs`, or a decoded run folds
//!    the kind to `"other"` and replay diverges from the live run.
//! 4. **Spec keyword documentation** — every keyword accepted by the
//!    `Aggregator` / `SamplerKind` / `AttackPlan` spec parsers
//!    (`parse` / `parse_spec`) must appear in `DESIGN.md` (skipped
//!    when the workspace has no `DESIGN.md`, as the fixture trees do not).

use super::Finding;
use crate::lexer::TokKind;
use crate::model::{FileModel, WorkspaceModel};
use crate::parser::FnItem;
use std::collections::BTreeSet;

/// Fn names that promise full variant coverage when implemented on an enum.
const COVERAGE_FNS: &[&str] = &[
    "parse",
    "name",
    "tag",
    "tag_name",
    "kind_tag",
    "to_json",
    "from_value",
    "encode_payload",
    "decode_payload",
    "sink",
    "round",
];

/// Spec parsers whose accepted keywords must be documented in DESIGN.md.
const SPEC_PARSERS: &[&str] = &["Aggregator", "SamplerKind", "AttackPlan"];

/// Tag-producing fns and the interning table that must know their tags:
/// (producer file suffix, producer owners, target file suffix, target fn).
const INTERN_CONTRACTS: &[(&str, &[&str], &str, &str)] = &[
    (
        "crates/fl/src/adversary.rs",
        &["AttackKind"],
        "crates/telemetry/src/event.rs",
        "intern_attack_kind",
    ),
    (
        "crates/fl/src/chaos.rs",
        &["ClientFault", "Corruption"],
        "crates/telemetry/src/event.rs",
        "intern_fault_kind",
    ),
];

/// Runs all schema contracts.
pub fn check(model: &WorkspaceModel) -> Vec<Finding> {
    let mut out = Vec::new();
    enum_coverage(model, &mut out);
    event_round_trip(model, &mut out);
    intern_tables(model, &mut out);
    spec_keywords(model, &mut out);
    out
}

/// Idents appearing inside a fn body.
fn body_idents<'m>(fm: &'m FileModel, f: &FnItem) -> BTreeSet<&'m str> {
    fm.lexed
        .tokens
        .get(f.body.0 + 1..f.body.1)
        .unwrap_or(&[])
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect()
}

/// String literals (inner text, line) inside a fn body.
fn body_literals<'m>(fm: &'m FileModel, f: &FnItem) -> Vec<(&'m str, u32)> {
    fm.lexed
        .tokens
        .get(f.body.0 + 1..f.body.1)
        .unwrap_or(&[])
        .iter()
        .filter(|t| t.kind == TokKind::Literal)
        .map(|t| (t.text.as_str(), t.line))
        .collect()
}

/// Whether a literal looks like a machine tag: lowercase snake_case, short,
/// no spaces or format placeholders.
fn is_tag_like(s: &str) -> bool {
    s.len() >= 2
        && s.len() <= 24
        && s.as_bytes().first().is_some_and(u8::is_ascii_lowercase)
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Contract 1: coverage fns on an enum must mention every variant.
fn enum_coverage(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    for fm in &model.files {
        for e in &fm.items.enums {
            if e.variants.len() < 2 {
                continue;
            }
            for f in &fm.items.fns {
                if f.owner.as_deref() != Some(e.name.as_str())
                    || !COVERAGE_FNS.contains(&f.name.as_str())
                    || f.body.0 == f.body.1
                {
                    continue;
                }
                let mentioned = body_idents(fm, f);
                for (variant, vline) in &e.variants {
                    if !mentioned.contains(variant.as_str()) {
                        out.push(Finding {
                            file: fm.ctx.rel_path.clone(),
                            line: f.line,
                            rule: "schema-drift",
                            note: format!(
                                "`{}::{}` never mentions variant `{}` ({}:{}) — a wildcard arm \
                                 is silently folding it",
                                e.name, f.name, variant, fm.ctx.rel_path, vline
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Extracts `"type"` tags from an encoder literal: every occurrence of
/// `type\":\"<tag>` (the escaped-in-source JSON key) yields `<tag>`.
fn type_tags_in(literal: &str) -> Vec<String> {
    const MARKER: &str = "type\\\":\\\"";
    let mut out = Vec::new();
    let mut rest = literal;
    while let Some(at) = rest.find(MARKER) {
        let tail = rest.get(at + MARKER.len()..).unwrap_or("");
        let tag: String = tail
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        if !tag.is_empty() {
            out.push(tag);
        }
        rest = tail;
    }
    out
}

/// Contract 2: `Event::to_json` and `Event::from_value` agree on tags.
fn event_round_trip(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    let Some((_, fm)) = model.file_by_suffix("crates/telemetry/src/event.rs") else {
        return;
    };
    let event_fn = |name: &str| {
        fm.items
            .fns
            .iter()
            .find(|f| f.name == name && f.owner.as_deref() == Some("Event"))
    };
    let (Some(enc), Some(dec)) = (event_fn("to_json"), event_fn("from_value")) else {
        return;
    };

    // Encoder side: (tag, line of the literal emitting it).
    let mut enc_tags: Vec<(String, u32)> = Vec::new();
    let mut enc_text = String::new();
    for (lit, line) in body_literals(fm, enc) {
        enc_text.push_str(lit);
        enc_text.push('\n');
        for tag in type_tags_in(lit) {
            enc_tags.push((tag, line));
        }
    }
    // Decoder side: every tag-like literal (type tags and field names).
    let dec_lits: Vec<(&str, u32)> = body_literals(fm, dec)
        .into_iter()
        .filter(|(s, _)| is_tag_like(s))
        .collect();

    for (tag, line) in &enc_tags {
        if !dec_lits.iter().any(|(s, _)| s == tag) {
            out.push(Finding {
                file: fm.ctx.rel_path.clone(),
                line: *line,
                rule: "schema-drift",
                note: format!(
                    "`Event::to_json` emits type tag \"{}\" but `Event::from_value` \
                     ({}:{}) never decodes it",
                    tag, fm.ctx.rel_path, dec.line
                ),
            });
        }
    }
    for (lit, line) in &dec_lits {
        if !enc_text.contains(lit) {
            out.push(Finding {
                file: fm.ctx.rel_path.clone(),
                line: *line,
                rule: "schema-drift",
                note: format!(
                    "`Event::from_value` reads \"{}\" but `Event::to_json` ({}:{}) \
                     never writes it",
                    lit, fm.ctx.rel_path, enc.line
                ),
            });
        }
    }
}

/// Contract 3: produced fault/attack tags must be interning-table keys.
fn intern_tables(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    for (src_suffix, owners, dst_suffix, dst_fn) in INTERN_CONTRACTS {
        let Some((_, src)) = model.file_by_suffix(src_suffix) else {
            continue;
        };
        let Some((_, dst)) = model.file_by_suffix(dst_suffix) else {
            continue;
        };
        let Some(table) = dst.items.fns.iter().find(|f| f.name == *dst_fn) else {
            continue;
        };
        let known: BTreeSet<&str> = body_literals(dst, table)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        for f in &src.items.fns {
            let producer =
                f.name == "kind_tag" && f.owner.as_deref().is_some_and(|o| owners.contains(&o));
            if !producer {
                continue;
            }
            for (tag, line) in body_literals(src, f) {
                if is_tag_like(tag) && !known.contains(tag) {
                    out.push(Finding {
                        file: src.ctx.rel_path.clone(),
                        line,
                        rule: "schema-drift",
                        note: format!(
                            "tag \"{}\" from `{}::kind_tag` is not a key of `{}` ({}:{}) — \
                             decoded replays fold it to \"other\"",
                            tag,
                            f.owner.as_deref().unwrap_or("?"),
                            dst_fn,
                            dst.ctx.rel_path,
                            table.line
                        ),
                    });
                }
            }
        }
    }
}

/// Contract 4: spec-parser keywords must appear in DESIGN.md.
fn spec_keywords(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    let Some(doc) = &model.design_doc else {
        return;
    };
    for fm in &model.files {
        for f in &fm.items.fns {
            let spec_parser = (f.name == "parse" || f.name == "parse_spec")
                && f.owner
                    .as_deref()
                    .is_some_and(|o| SPEC_PARSERS.contains(&o));
            if !spec_parser {
                continue;
            }
            for (lit, line) in body_literals(fm, f) {
                // Keywords may carry a `:`/`=` value separator as written
                // (`"trimmed:"`, `"scale="`) and may be kebab-case
                // (`"trimmed-mean"`); normalize before the shape test.
                let keyword = lit.trim_end_matches([':', '=']);
                if !is_tag_like(&keyword.replace('-', "_")) {
                    continue;
                }
                if !doc.contains(keyword) {
                    out.push(Finding {
                        file: fm.ctx.rel_path.clone(),
                        line,
                        rule: "schema-drift",
                        note: format!(
                            "spec keyword \"{}\" accepted by `{}::{}` is not documented \
                             in DESIGN.md",
                            keyword,
                            f.owner.as_deref().unwrap_or("?"),
                            f.name
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<(&str, u32)> {
        findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn orphan_variant_in_a_coverage_fn_is_drift() {
        let src = "pub enum Msg { Hello, Assign, Bye }\n\
                   impl Msg {\n\
                       pub fn tag_name(&self) -> &'static str {\n\
                           match self { Msg::Hello => \"hello\", Msg::Assign => \"assign\", _ => \"?\" }\n\
                       }\n\
                   }\n";
        let model = WorkspaceModel::from_sources(&[("crates/fl/src/proto.rs", src)], None);
        let got = check(&model);
        assert_eq!(rules_of(&got), vec![("schema-drift", 3)]);
        assert!(
            got.first().is_some_and(|f| f.note.contains("`Bye`")),
            "{got:?}"
        );
        assert!(got.first().is_some_and(|f| f.note.contains("proto.rs:1")));
    }

    #[test]
    fn full_coverage_is_clean_and_non_coverage_fns_are_ignored() {
        let src = "pub enum Msg { Hello, Bye }\n\
                   impl Msg {\n\
                       pub fn tag(&self) -> u8 { match self { Msg::Hello => 1, Msg::Bye => 2 } }\n\
                       pub fn is_hello(&self) -> bool { matches!(self, Msg::Hello) }\n\
                   }\n";
        let model = WorkspaceModel::from_sources(&[("crates/fl/src/proto.rs", src)], None);
        assert!(check(&model).is_empty());
    }

    #[test]
    fn type_tag_extraction_reads_escaped_json_keys() {
        assert_eq!(
            type_tags_in("{{\\\"type\\\":\\\"round_start\\\",\\\"round\\\":{round}"),
            vec!["round_start"]
        );
        assert!(type_tags_in("no tags here").is_empty());
    }

    #[test]
    fn event_encoder_decoder_tag_mismatch_fires_both_ways() {
        // Encoder emits `fault`, decoder only knows `round_start` (and
        // reads a field the encoder never writes).
        let src = "pub enum Event { RoundStart, Fault }\n\
                   impl Event {\n\
                       pub fn to_json(&self) -> String {\n\
                           match self {\n\
                               Event::RoundStart => \"{{\\\"type\\\":\\\"round_start\\\"}}\".into(),\n\
                               Event::Fault => \"{{\\\"type\\\":\\\"fault\\\"}}\".into(),\n\
                           }\n\
                       }\n\
                       pub fn from_value(tag: &str) -> Option<Event> {\n\
                           match tag { \"round_start\" => Some(Event::RoundStart), \"mystery\" => None, _ => None }\n\
                       }\n\
                   }\n";
        let model = WorkspaceModel::from_sources(&[("crates/telemetry/src/event.rs", src)], None);
        let got = check(&model);
        let notes: Vec<&str> = got.iter().map(|f| f.note.as_str()).collect();
        assert!(
            notes
                .iter()
                .any(|n| n.contains("\"fault\"") && n.contains("never decodes")),
            "{notes:?}"
        );
        assert!(
            notes
                .iter()
                .any(|n| n.contains("\"mystery\"") && n.contains("never writes")),
            "{notes:?}"
        );
        // from_value not mentioning Fault is also enum-coverage drift.
        assert!(notes
            .iter()
            .any(|n| n.contains("`Event::from_value`") && n.contains("`Fault`")));
    }

    #[test]
    fn unknown_produced_tag_misses_the_interning_table() {
        let adversary = "pub enum AttackKind { SignFlip, Gradient }\n\
                         impl AttackKind {\n\
                             pub fn kind_tag(self) -> &'static str {\n\
                                 match self {\n\
                                     AttackKind::SignFlip => \"attack_flip\",\n\
                                     AttackKind::Gradient => \"attack_gradient\",\n\
                                 }\n\
                             }\n\
                         }\n";
        let event = "fn intern_attack_kind(kind: &str) -> &'static str {\n\
                         match kind { \"attack_flip\" => \"attack_flip\", _ => \"other\" }\n\
                     }\n";
        let model = WorkspaceModel::from_sources(
            &[
                ("crates/fl/src/adversary.rs", adversary),
                ("crates/telemetry/src/event.rs", event),
            ],
            None,
        );
        let got = check(&model);
        assert!(
            got.iter().any(|f| f.rule == "schema-drift"
                && f.line == 6
                && f.note.contains("attack_gradient")
                && f.note.contains("intern_attack_kind")),
            "{got:?}"
        );
        // The known tag is clean.
        assert!(!got.iter().any(|f| f.note.contains("\"attack_flip\" from")));
    }

    #[test]
    fn undocumented_spec_keyword_fires_only_with_a_design_doc() {
        let src = "pub enum Aggregator { Mean, Krum }\n\
                   impl Aggregator {\n\
                       pub fn parse(s: &str) -> Option<Aggregator> {\n\
                           match s { \"mean\" => Some(Aggregator::Mean), \"krum\" => Some(Aggregator::Krum), _ => None }\n\
                       }\n\
                   }\n";
        let files = [("crates/fl/src/aggregate.rs", src)];
        let documented = WorkspaceModel::from_sources(&files, Some("mean and krum are documented"));
        assert!(check(&documented).is_empty());
        let partial = WorkspaceModel::from_sources(&files, Some("only mean is documented"));
        let got = check(&partial);
        assert_eq!(got.len(), 1);
        assert!(got.first().is_some_and(|f| f.note.contains("\"krum\"")));
        // No DESIGN.md (fixture trees): the doc contract is disabled.
        let undocumented = WorkspaceModel::from_sources(&files, None);
        assert!(check(&undocumented).is_empty());
    }
}
