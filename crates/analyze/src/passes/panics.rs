//! Panic reachability: slice-index debt on the live round path gates.
//!
//! A call-graph-lite BFS from the round/serve/transport entry points
//! computes which fns in the runtime crates (`fl`, `core`) are reachable
//! while a round is in flight. A `slice-index` candidate inside a
//! reachable fn is reclassified to `hot-path-index`: an out-of-bounds
//! panic there doesn't fail one computation, it kills the server loop or
//! masquerades as a lost client in the engine's fault accounting, so this
//! debt is held at zero while cold-path `slice-index` debt merely ratchets.
//!
//! Call edges resolve by callee name (the workspace is `dyn`-free on this
//! path), with the shared stoplist and ambiguity cap from the determinism
//! pass keeping ubiquitous names (`get`, `len`, `new`, …) from flooding
//! the graph. Resolution is deliberately confined to the runtime crates:
//! the numeric kernels (`tensor`, `ssl`, `cluster`, `data`, `embed`) are
//! input-validated at the aggregation boundary and their indexing debt
//! stays on the cold ratchet.

use super::determinism::resolve;
use crate::model::{FnId, WorkspaceModel};
use std::collections::BTreeMap;

/// Crates whose fns participate in hot-path reachability.
const RUNTIME_CRATES: &[&str] = &["fl", "core"];

/// serve-loop entry points (by name, in `serve.rs`).
const SERVE_ROOTS: &[&str] = &["run_server", "run_rounds", "run_in_process", "run_client"];

/// Reachable-fn set with, for each fn, the root that first reached it.
#[derive(Debug, Default)]
pub struct HotPaths {
    reached: BTreeMap<FnId, String>,
}

impl HotPaths {
    /// The root label a fn is reachable from, if any.
    pub fn root_of(&self, id: FnId) -> Option<&str> {
        self.reached.get(&id).map(String::as_str)
    }

    /// Number of reachable fns (diagnostics).
    pub fn len(&self) -> usize {
        self.reached.len()
    }

    /// Whether no fn is reachable (no roots in this workspace).
    pub fn is_empty(&self) -> bool {
        self.reached.is_empty()
    }
}

/// Whether a fn id is eligible for the hot set: runtime crate, library
/// file, outside test regions.
fn eligible(model: &WorkspaceModel, id: FnId) -> bool {
    let (Some(fm), Some(f)) = (model.file_of(id), model.get_fn(id)) else {
        return false;
    };
    RUNTIME_CRATES.contains(&fm.ctx.crate_dir.as_str()) && !fm.ctx.is_binary && !fm.in_tests(f.line)
}

/// Whether a fn is a BFS root, and under which label.
fn root_label(model: &WorkspaceModel, id: FnId) -> Option<String> {
    let (fm, f) = (model.file_of(id)?, model.get_fn(id)?);
    if f.owner.as_deref() == Some("RoundScheduler") && f.name.starts_with("run_round") {
        return Some(format!("RoundScheduler::{}", f.name));
    }
    if fm.ctx.rel_path.ends_with("crates/fl/src/transport.rs") {
        return Some(format!("transport `{}`", f.name));
    }
    if fm.ctx.rel_path.ends_with("crates/fl/src/serve.rs") && SERVE_ROOTS.contains(&f.name.as_str())
    {
        return Some(format!("serve::{}", f.name));
    }
    None
}

/// Computes the hot-path reachable set.
pub fn hot_fns(model: &WorkspaceModel) -> HotPaths {
    let mut hot = HotPaths::default();
    let mut queue: Vec<FnId> = Vec::new();
    for (fi, fm) in model.files.iter().enumerate() {
        for (gi, _) in fm.items.fns.iter().enumerate() {
            let id = (fi, gi);
            if !eligible(model, id) {
                continue;
            }
            if let Some(label) = root_label(model, id) {
                hot.reached.insert(id, label);
                queue.push(id);
            }
        }
    }
    while let Some(id) = queue.pop() {
        let Some(label) = hot.reached.get(&id).cloned() else {
            continue;
        };
        let Some(f) = model.get_fn(id) else { continue };
        for call in &f.calls {
            for target in resolve(model, &call.name, |t| eligible(model, t)) {
                if let std::collections::btree_map::Entry::Vacant(slot) = hot.reached.entry(target)
                {
                    slot.insert(label.clone());
                    queue.push(target);
                }
            }
        }
    }
    hot
}

/// If `line` of file `file_idx` sits inside a hot fn, returns the fn name
/// and the root label for the reclassification note.
pub fn hot_context<'m>(
    model: &'m WorkspaceModel,
    hot: &'m HotPaths,
    file_idx: usize,
    line: u32,
) -> Option<(&'m str, &'m str)> {
    let fm = model.files.get(file_idx)?;
    for (gi, f) in fm.items.fns.iter().enumerate() {
        if f.contains_line(line) {
            if let Some(root) = hot.root_of((file_idx, gi)) {
                return Some((f.name.as_str(), root));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(files: &[(&str, &str)]) -> WorkspaceModel {
        WorkspaceModel::from_sources(files, None)
    }

    #[test]
    fn scheduler_roots_reach_their_callees_transitively() {
        let scheduler = "impl RoundScheduler {\n\
                             pub fn run_round(&mut self) { dispatch_updates(); }\n\
                         }\n\
                         pub fn dispatch_updates() { fold_update(); }\n\
                         pub fn fold_update() {}\n\
                         pub fn cold_helper() {}\n";
        let m = model(&[("crates/fl/src/scheduler.rs", scheduler)]);
        let hot = hot_fns(&m);
        assert_eq!(hot.len(), 3, "root + two callees");
        // fold_update is on line 5; cold_helper on line 6.
        let ctx = hot_context(&m, &hot, 0, 5).expect("fold_update is hot");
        assert_eq!(ctx.0, "fold_update");
        assert!(ctx.1.contains("RoundScheduler::run_round"));
        assert!(
            hot_context(&m, &hot, 0, 6).is_none(),
            "cold_helper stays cold"
        );
    }

    #[test]
    fn transport_and_serve_files_are_roots() {
        let transport = "impl SocketTransport {\n\
                             pub fn send_frame(&mut self) { frame_len(); }\n\
                         }\n\
                         pub fn frame_len() {}\n";
        let serve = "pub fn run_server() { accept_one(); }\n\
                     pub fn accept_one() {}\n\
                     pub fn unrelated_tool() {}\n";
        let m = model(&[
            ("crates/fl/src/serve.rs", serve),
            ("crates/fl/src/transport.rs", transport),
        ]);
        let hot = hot_fns(&m);
        // transport: send_frame + frame_len both in-file roots/reached;
        // serve: run_server root + accept_one reached; unrelated_tool cold.
        assert!(hot_context(&m, &hot, 1, 4).is_some(), "frame_len hot");
        assert!(hot_context(&m, &hot, 0, 2).is_some(), "accept_one hot");
        assert!(hot_context(&m, &hot, 0, 3).is_none(), "unrelated_tool cold");
    }

    #[test]
    fn reachability_stops_at_the_numeric_kernel_boundary() {
        let scheduler = "impl RoundScheduler {\n\
                             pub fn run_round(&mut self) { kernel_matmul(); }\n\
                         }\n";
        let tensor = "pub fn kernel_matmul() { inner_index(); }\n\
                      pub fn inner_index() {}\n";
        let m = model(&[
            ("crates/fl/src/scheduler.rs", scheduler),
            ("crates/tensor/src/backend.rs", tensor),
        ]);
        let hot = hot_fns(&m);
        assert_eq!(hot.len(), 1, "only the root itself: {hot:?}");
        assert!(hot_context(&m, &hot, 1, 1).is_none(), "tensor stays cold");
    }

    #[test]
    fn test_region_fns_are_never_hot() {
        let scheduler = "impl RoundScheduler {\n\
                             pub fn run_round(&mut self) { replay_round(); }\n\
                         }\n\
                         #[cfg(test)]\n\
                         mod tests {\n\
                             pub fn replay_round() {}\n\
                         }\n";
        let m = model(&[("crates/fl/src/scheduler.rs", scheduler)]);
        let hot = hot_fns(&m);
        assert!(
            hot_context(&m, &hot, 0, 6).is_none(),
            "test helper stays cold"
        );
    }
}
