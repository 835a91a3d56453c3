//! Point-in-time metric snapshots, deltas between them, and the
//! periodic exporter hook.
//!
//! The one-shot JSONL dump at process exit (`ObsGuard`) cannot serve a
//! long-running `gogreen serve`: a server needs *periodic, mergeable*
//! readings — what happened since the last poll, per tenant or per
//! round. [`MetricsSnapshot`] is that reading: a merge-of-shards capture
//! of every counter, max-gauge and histogram at one instant, with
//! [`MetricsSnapshot::delta_since`] producing the exact activity between
//! two captures (counters and histogram buckets subtract; max-gauges
//! keep the later high-water mark, which is the only meaningful reading
//! of a monotone gauge).
//!
//! Because the underlying counters are bit-identical at any thread count
//! for registry-invariant names, so are snapshot deltas — the property
//! `tests/obs_snapshot.rs` pins.
//!
//! The exporter hook is the polling interface: install a callback with
//! [`set_exporter`] and every [`emit`] call delivers a labelled
//! snapshot. `MiningSession` emits one per round today; `gogreen serve`
//! will emit on a timer.

use crate::histogram::{self, Histogram};
use crate::metrics::{self, Kind, Metric};
use gogreen_util::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// All merged metric state at one point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counters and max-gauges, by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Histograms, by name.
    pub hists: BTreeMap<&'static str, Histogram>,
}

impl MetricsSnapshot {
    /// Captures the current merged state of every counter, gauge and
    /// histogram (merging the calling thread's shards first).
    pub fn capture() -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: metrics::snapshot().into_iter().collect(),
            hists: histogram::snapshot().into_iter().collect(),
        }
    }

    /// The activity between `earlier` and `self`: counters and histogram
    /// buckets subtract element-wise (saturating, so a reset between the
    /// two captures cannot underflow); max-gauges keep `self`'s value.
    /// Names absent from `earlier` pass through unchanged.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (&name, &m) in &self.metrics {
            let value = match (m.kind, earlier.metrics.get(name)) {
                (Kind::Counter, Some(prev)) => m.value.saturating_sub(prev.value),
                _ => m.value,
            };
            out.metrics.insert(name, Metric { kind: m.kind, value });
        }
        for (&name, h) in &self.hists {
            let d = match earlier.hists.get(name) {
                Some(prev) => h.delta_since(prev),
                None => h.clone(),
            };
            out.hists.insert(name, d);
        }
        out
    }

    /// The value of one counter/gauge in this snapshot.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.hists.is_empty()
    }

    /// Serializes as one JSON object:
    /// `{"counters":{..},"maxes":{..},"hists":{name:{count,sum,buckets}}}`.
    pub fn to_json(&self) -> Json {
        let mut counters = Vec::new();
        let mut maxes = Vec::new();
        for (&name, &m) in &self.metrics {
            let pair = (name.to_string(), Json::from(m.value));
            match m.kind {
                Kind::Counter => counters.push(pair),
                Kind::Max => maxes.push(pair),
            }
        }
        let hists =
            self.hists.iter().map(|(&n, h)| (n.to_string(), h.to_json())).collect::<Vec<_>>();
        Json::obj([
            ("counters", Json::Obj(counters)),
            ("maxes", Json::Obj(maxes)),
            ("hists", Json::Obj(hists)),
        ])
    }
}

/// The exporter callback: receives a label and the snapshot.
pub type Exporter = Box<dyn FnMut(&str, &MetricsSnapshot) + Send>;

static EXPORTER: Mutex<Option<Exporter>> = Mutex::new(None);

/// Installs the snapshot exporter; [`emit`] delivers to it until
/// [`take_exporter`] removes it.
pub fn set_exporter(e: Exporter) {
    *EXPORTER.lock().unwrap_or_else(|p| p.into_inner()) = Some(e);
}

/// Removes and returns the exporter (dropping it flushes file sinks).
pub fn take_exporter() -> Option<Exporter> {
    EXPORTER.lock().unwrap_or_else(|p| p.into_inner()).take()
}

/// True while an exporter is installed — emitters use this to skip the
/// capture cost when nothing is listening.
pub fn exporter_installed() -> bool {
    EXPORTER.lock().unwrap_or_else(|p| p.into_inner()).is_some()
}

/// Delivers a labelled snapshot to the installed exporter (no-op
/// otherwise). Callers that want deltas capture before/after and pass
/// the [`MetricsSnapshot::delta_since`] result.
pub fn emit(label: &str, snap: &MetricsSnapshot) {
    let mut exporter = EXPORTER.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(e) = exporter.as_mut() {
        e(label, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counters_and_buckets_keeps_maxes() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        metrics::reset();
        histogram::reset();
        metrics::set_enabled(true);
        metrics::add("test.snap_c", 10);
        metrics::set_max("test.snap_m", 7);
        histogram::observe("test.snap_h", 3);
        let before = MetricsSnapshot::capture();
        metrics::add("test.snap_c", 5);
        metrics::set_max("test.snap_m", 9);
        histogram::observe("test.snap_h", 4);
        histogram::observe("test.snap_h", 40);
        let after = MetricsSnapshot::capture();
        metrics::set_enabled(false);
        let d = after.delta_since(&before);
        assert_eq!(d.value("test.snap_c"), Some(5));
        assert_eq!(d.value("test.snap_m"), Some(9), "maxes keep the later high water");
        let h = d.hists.get("test.snap_h").expect("hist present");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 44);
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[6], 1); // 40
        metrics::reset();
        histogram::reset();
    }

    #[test]
    fn json_shape_groups_by_kind() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        metrics::reset();
        histogram::reset();
        metrics::set_enabled(true);
        metrics::add("test.snap_json_c", 2);
        metrics::set_max("test.snap_json_m", 3);
        histogram::observe("test.snap_json_h", 1);
        let snap = MetricsSnapshot::capture();
        metrics::set_enabled(false);
        let j = snap.to_json();
        assert_eq!(
            j.get("counters").and_then(|c| c.get("test.snap_json_c")).and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            j.get("maxes").and_then(|c| c.get("test.snap_json_m")).and_then(Json::as_u64),
            Some(3)
        );
        let h = j.get("hists").and_then(|h| h.get("test.snap_json_h")).expect("hist");
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(1));
        metrics::reset();
        histogram::reset();
    }

    #[test]
    fn exporter_receives_emits_until_taken() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take_exporter();
        let seen = std::sync::Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = seen.clone();
        set_exporter(Box::new(move |label, snap| {
            sink.lock().unwrap().push(format!("{label}:{}", snap.metrics.len()));
        }));
        assert!(exporter_installed());
        emit("round-1", &MetricsSnapshot::default());
        drop(take_exporter());
        assert!(!exporter_installed());
        emit("round-2", &MetricsSnapshot::default());
        assert_eq!(seen.lock().unwrap().as_slice(), ["round-1:0"]);
    }
}
