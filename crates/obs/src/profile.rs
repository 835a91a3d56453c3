//! In-process self-time profiles aggregated from the span stream.
//!
//! Raw span JSONL (see [`crate::span`]) is complete but post-hoc: you
//! need a second tool to learn *where time went*. When profiling is
//! enabled, every span additionally folds into a process-global profile
//! tree keyed by its **stack path** — the `;`-joined names of the spans
//! open on its thread, innermost last (`mine;compress;cover`). Each node
//! accumulates call count, **total time** (wall time of the span) and
//! **self time** (total minus time spent in child spans).
//!
//! Self times telescope: a span's total is its self time plus its
//! children's totals, so summing self time over every node of a subtree
//! reproduces the root's total exactly (in integer microseconds — the
//! only slack is the clock reads between a child's measurement and the
//! parent's, which the acceptance tests bound by span-clock resolution).
//! That identity is what makes the collapsed-stack export
//! ([`to_collapsed`]) directly feedable to standard flamegraph tooling:
//! `path self_us` per line, weights summing to the run's root total.
//!
//! Profiling is independent of tracing — either, both, or neither may be
//! on. Spans are coarse (one per phase, not per projection), so the
//! global mutex on exit is off the hot path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static PROFILING: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<BTreeMap<String, ProfNode>> = Mutex::new(BTreeMap::new());

/// Aggregated timings of one stack path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfNode {
    /// Spans recorded at this path.
    pub calls: u64,
    /// Σ wall time of those spans, microseconds.
    pub total_us: u64,
    /// Σ (wall time − child-span time), microseconds.
    pub self_us: u64,
}

/// One open frame on this thread's profile stack.
struct Frame {
    /// `;`-joined span names from the thread's outermost span.
    path: String,
    /// Σ total time of already-closed direct children, microseconds.
    child_us: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Turns profile aggregation on or off. Off (the default), span
/// enter/exit skip the profile layer entirely.
pub fn set_enabled(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// True while spans fold into the profile tree.
#[inline]
pub fn enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Pushes a frame for a span named `name`; called by [`crate::span`] on
/// enter when profiling is on. Returns false only during thread
/// teardown (TLS gone), in which case the span skips profile exit too.
pub(crate) fn on_enter(name: &'static str) -> bool {
    STACK
        .try_with(|s| {
            let mut s = s.borrow_mut();
            let path = match s.last() {
                Some(top) => {
                    let mut p = String::with_capacity(top.path.len() + 1 + name.len());
                    p.push_str(&top.path);
                    p.push(';');
                    p.push_str(name);
                    p
                }
                None => name.to_string(),
            };
            s.push(Frame { path, child_us: 0 });
        })
        .is_ok()
}

/// Pops the current frame and records `dur_us` against its path; called
/// by [`crate::span`] on drop when the span pushed a frame.
pub(crate) fn on_exit(dur_us: u64) {
    let _ = STACK.try_with(|s| {
        let mut s = s.borrow_mut();
        let Some(frame) = s.pop() else { return };
        let self_us = dur_us.saturating_sub(frame.child_us);
        if let Some(parent) = s.last_mut() {
            parent.child_us += dur_us;
        }
        let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let node = global.entry(frame.path).or_default();
        node.calls += 1;
        node.total_us += dur_us;
        node.self_us += self_us;
    });
}

/// Every profile node, sorted by stack path.
pub fn snapshot() -> Vec<(String, ProfNode)> {
    let global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    global.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// The node at one exact stack path (`"mine;compress"`), if recorded.
pub fn get(path: &str) -> Option<ProfNode> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).get(path).copied()
}

/// Clears the profile tree. Open frames on the calling thread are kept
/// (their spans have not exited yet).
pub fn reset() {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Σ self time over a root name's whole subtree, microseconds. By the
/// telescoping identity this equals the root path's `total_us`.
pub fn subtree_self_us(root: &str) -> u64 {
    snapshot()
        .iter()
        .filter(|(p, _)| p == root || p.starts_with(root) && p[root.len()..].starts_with(';'))
        .map(|(_, n)| n.self_us)
        .sum()
}

/// Renders the profile as an indented tree table: calls, total and self
/// milliseconds per path, children indented under parents (paths sort
/// lexicographically, so a parent immediately precedes its subtree).
pub fn render_table() -> String {
    let snap = snapshot();
    if snap.is_empty() {
        return "  (no profile recorded)".to_string();
    }
    let mut out = String::new();
    out.push_str("  calls     total_ms      self_ms  phase\n");
    for (path, node) in &snap {
        let depth = path.matches(';').count();
        let leaf = path.rsplit(';').next().unwrap_or(path);
        out.push_str(&format!(
            "  {:>5}  {:>11.3}  {:>11.3}  {:indent$}{leaf}\n",
            node.calls,
            node.total_us as f64 / 1e3,
            node.self_us as f64 / 1e3,
            "",
            indent = depth * 2,
        ));
    }
    out.pop();
    out
}

/// Renders the profile in collapsed-stack format — one `path self_us`
/// line per node, `;`-separated frames — the input format of standard
/// flamegraph tooling. Nodes whose self time rounded to zero are kept:
/// dropping them would hide call counts, and zero weights are harmless.
pub fn to_collapsed() -> String {
    let mut out = String::new();
    for (path, node) in snapshot() {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&node.self_us.to_string());
        out.push('\n');
    }
    out
}

/// Folds an explicit observation into the tree without a live span —
/// used by tests and by replays of recorded span streams. `path` is the
/// full `;`-joined stack path.
pub fn record_raw(path: &str, calls: u64, total_us: u64, self_us: u64) {
    let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let node = global.entry(path.to_string()).or_default();
    node.calls += calls;
    node.total_us += total_us;
    node.self_us += self_us;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    #[test]
    fn disabled_spans_record_no_profile() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        {
            let _sp = span("prof_off");
        }
        assert!(get("prof_off").is_none());
    }

    #[test]
    fn nesting_builds_paths_and_self_times_telescope() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        {
            let _outer = span("outer_p");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner_p");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_enabled(false);
        let outer = get("outer_p").expect("outer recorded");
        let inner = get("outer_p;inner_p").expect("inner recorded");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert_eq!(inner.total_us, inner.self_us, "leaf: all time is self time");
        assert_eq!(
            outer.self_us + inner.self_us,
            outer.total_us,
            "self times telescope to the root total"
        );
        assert_eq!(subtree_self_us("outer_p"), outer.total_us);
        reset();
    }

    #[test]
    fn repeated_calls_accumulate() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        for _ in 0..3 {
            let _sp = span("thrice");
        }
        set_enabled(false);
        assert_eq!(get("thrice").expect("recorded").calls, 3);
        reset();
    }

    #[test]
    fn collapsed_and_table_render() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        record_raw("a", 1, 10, 4);
        record_raw("a;b", 2, 6, 6);
        let collapsed = to_collapsed();
        assert_eq!(collapsed, "a 4\na;b 6\n");
        let table = render_table();
        assert!(table.contains("a\n"), "{table}");
        assert!(table.contains("  b"), "child indented: {table}");
        assert_eq!(subtree_self_us("a"), 10);
        reset();
    }

    #[test]
    fn distinct_prefix_names_do_not_alias_subtrees() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        record_raw("mine", 1, 10, 10);
        record_raw("miner_extra", 1, 99, 99);
        assert_eq!(subtree_self_us("mine"), 10);
        reset();
    }
}
