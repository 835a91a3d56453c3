//! The metrics registry: named counters and max-gauges.
//!
//! # Naming scheme
//!
//! Dotted lowercase names, `<subsystem>.<quantity>`:
//!
//! * `compress.*` / `mine.*` / `session.*` / `storage.*` — **logical
//!   work**: quantities determined by the input and the algorithm, not by
//!   the machine. These are bit-identical at any thread count (updates
//!   are additive or max-merged, both order-independent).
//! * `alloc.*` — projection-arena accounting (`alloc.projection_bytes`,
//!   `alloc.arena_reuses`). Also logical work: each arena generation
//!   records its *used* bytes (never capacity), so the totals equal a
//!   sum over projections regardless of how projections were spread
//!   across workers.
//! * `cover.*` — **machine work** inside the cover kernel (bitmap words
//!   scanned, AND-chains run). Chunked parallel sweeps legitimately do a
//!   different amount of machine work than one serial sweep, so these
//!   may vary with `--threads`; [`is_thread_invariant`] tells the two
//!   classes apart.
//!
//! # Sharding
//!
//! Updates land in a per-thread shard (a plain hash map — no atomics, no
//! locks on the hot path) and merge into the global registry when the
//! thread exits; [`snapshot`] additionally merges the calling thread's
//! shard so the main thread always sees its own writes. The merge runs
//! in a thread-local destructor, and `std::thread::scope`'s implicit
//! join does not wait for those: a caller must join every worker handle
//! explicitly before it reads the registry. `gogreen_util::pool` does,
//! so its workers' shards are merged by the time the fork-join call
//! returns.
//!
//! # Overhead
//!
//! Disabled (the default), an update is one relaxed atomic load and a
//! branch — the budget is < 2% on a compression run even at 10⁴ calls,
//! enforced by `tests/obs_metrics.rs`.

use gogreen_util::{FxHashMap, Json};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// What a metric measures and how shards merge into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count; shards merge by addition.
    Counter,
    /// A high-water mark; shards merge by maximum.
    Max,
}

/// One merged metric value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Merge behaviour.
    pub kind: Kind,
    /// Current merged value.
    pub value: u64,
}

impl Metric {
    fn merge(&mut self, other: Metric) {
        debug_assert_eq!(self.kind, other.kind, "metric kind mismatch");
        match self.kind {
            Kind::Counter => self.value += other.value,
            Kind::Max => self.value = self.value.max(other.value),
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<BTreeMap<&'static str, Metric>> = Mutex::new(BTreeMap::new());

/// The per-thread shard. Dropping it (thread exit) merges into the
/// global registry.
struct Shard {
    map: FxHashMap<&'static str, Metric>,
}

impl Drop for Shard {
    fn drop(&mut self) {
        merge_into_global(&mut self.map);
    }
}

thread_local! {
    static SHARD: RefCell<Shard> = RefCell::new(Shard { map: FxHashMap::default() });
}

fn merge_into_global(map: &mut FxHashMap<&'static str, Metric>) {
    if map.is_empty() {
        return;
    }
    let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    for (name, m) in map.drain() {
        global.entry(name).and_modify(|g| g.merge(m)).or_insert(m);
    }
}

fn record(name: &'static str, kind: Kind, value: u64) {
    let m = Metric { kind, value };
    // Shard access can fail only during thread teardown (the TLS value
    // already dropped); those late stragglers merge directly.
    let direct = SHARD
        .try_with(|s| {
            s.borrow_mut().map.entry(name).and_modify(|g| g.merge(m)).or_insert(m);
        })
        .is_err();
    if direct {
        let mut one = FxHashMap::default();
        one.insert(name, m);
        merge_into_global(&mut one);
    }
}

/// Turns metric recording on or off. Off (the default) makes every
/// update a load-and-branch no-op.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True while updates are being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `delta` to the counter `name`. No-op while disabled.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    record(name, Kind::Counter, delta);
}

/// Raises the max-gauge `name` to at least `value`. No-op while disabled.
#[inline]
pub fn set_max(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    record(name, Kind::Max, value);
}

/// Merges the calling thread's shard and returns every metric, sorted by
/// name.
pub fn snapshot() -> Vec<(&'static str, Metric)> {
    let _ = SHARD.try_with(|s| merge_into_global(&mut s.borrow_mut().map));
    let global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    global.iter().map(|(&k, &v)| (k, v)).collect()
}

/// The current value of one metric, if it has been touched.
pub fn get(name: &str) -> Option<u64> {
    snapshot().iter().find(|(n, _)| *n == name).map(|(_, m)| m.value)
}

/// Clears the registry and the calling thread's shard. (Shards of other
/// still-live threads are untouched; the workspace's worker threads are
/// scoped and gone by the time anyone resets.)
pub fn reset() {
    let _ = SHARD.try_with(|s| s.borrow_mut().map.clear());
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// True when `name` measures logical work (thread-invariant totals), as
/// opposed to machine work inside the chunked cover kernel. The
/// `alloc.*` arena counters are in the invariant class: they record
/// used bytes per projection, so worker count cannot move them.
///
/// Declared names answer from [`crate::registry`]; names outside the
/// registry (test-only counters, ad-hoc experiments) fall back to the
/// historical prefix rule.
pub fn is_thread_invariant(name: &str) -> bool {
    match crate::registry::lookup(name) {
        Some(def) => def.invariant,
        None => !name.starts_with("cover."),
    }
}

/// Renders the registry as an aligned, `gogreen stats`-style table.
pub fn render_table() -> String {
    let snap = snapshot();
    if snap.is_empty() {
        return "  (no metrics recorded)".to_string();
    }
    let width = snap.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, m) in snap {
        let tag = match m.kind {
            Kind::Counter => "",
            Kind::Max => " (max)",
        };
        out.push_str(&format!("  {name:<width$}  {}{tag}\n", m.value));
    }
    out.pop();
    out
}

/// Renders the registry as JSON lines, one metric per line:
/// `{"metric":"mine.candidate_tests","kind":"counter","value":123}`.
pub fn to_jsonl() -> String {
    let mut out = String::new();
    for (name, m) in snapshot() {
        let kind = match m.kind {
            Kind::Counter => "counter",
            Kind::Max => "max",
        };
        let line = Json::obj([
            ("metric", Json::from(name)),
            ("kind", Json::from(kind)),
            ("value", Json::from(m.value)),
        ]);
        out.push_str(&line.dump());
        out.push('\n');
    }
    out
}

/// The metrics, histogram, profile and trace state is process-global,
/// so every test in this crate that touches it holds this one lock.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_updates_record_nothing() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        add("test.counter", 5);
        set_max("test.gauge", 9);
        assert_eq!(get("test.counter"), None);
        assert_eq!(get("test.gauge"), None);
    }

    #[test]
    fn counters_add_and_gauges_max() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        add("test.c", 2);
        add("test.c", 3);
        set_max("test.m", 7);
        set_max("test.m", 4);
        assert_eq!(get("test.c"), Some(5));
        assert_eq!(get("test.m"), Some(7));
        set_enabled(false);
        reset();
    }

    #[test]
    fn scoped_threads_merge_on_exit_and_totals_are_order_free() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    scope.spawn(move || {
                        for _ in 0..100 {
                            add("test.sharded", 1);
                        }
                        set_max("test.depth", 10 + t);
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("worker panicked");
            }
        });
        assert_eq!(get("test.sharded"), Some(400));
        assert_eq!(get("test.depth"), Some(13));
        set_enabled(false);
        reset();
    }

    #[test]
    fn jsonl_and_table_render() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        add("test.a", 1);
        set_max("test.b", 2);
        let jsonl = to_jsonl();
        assert!(jsonl.contains(r#"{"metric":"test.a","kind":"counter","value":1}"#));
        assert!(jsonl.contains(r#"{"metric":"test.b","kind":"max","value":2}"#));
        let table = render_table();
        assert!(table.contains("test.a"));
        assert!(table.contains("(max)"));
        set_enabled(false);
        reset();
    }

    #[test]
    fn thread_invariance_classification() {
        assert!(is_thread_invariant("mine.candidate_tests"));
        assert!(is_thread_invariant("compress.tuples_covered"));
        assert!(is_thread_invariant("alloc.projection_bytes"));
        assert!(is_thread_invariant("alloc.arena_reuses"));
        assert!(!is_thread_invariant("cover.words_scanned"));
    }
}
