//! Deterministic, mergeable log₂-bucketed histograms.
//!
//! Counters (see [`crate::metrics`]) prove *how much* work a run did;
//! histograms show how that work is *distributed* — a handful of
//! pathological projected databases dominating a dense analog looks
//! identical to uniformly spread work in a flat total, but not in a
//! bucket vector. The recorded distributions (projected-DB sizes,
//! per-projection tuple touches, tidset word counts, cover run lengths,
//! spill record bytes) are declared in [`crate::registry`] next to the
//! counters.
//!
//! # Bucketing
//!
//! Bucket `i` holds values whose bit length is `i`: bucket 0 is the
//! value 0, bucket `i ≥ 1` is the range `[2^(i-1), 2^i - 1]`. The
//! mapping is a single `leading_zeros`, needs no configuration, and is
//! identical on every platform — so bucket counts are part of the
//! deterministic observable output, not an approximation detail.
//!
//! # Determinism
//!
//! Observations land in a per-thread shard (same scheme as the counter
//! registry) and merge by element-wise bucket addition — commutative and
//! associative. A workload whose logical units are fixed (the fan-out
//! units of the miners, the groups of a compression) therefore produces
//! **bit-identical bucket vectors at any `--threads N`** for every
//! histogram whose name is thread-invariant per the registry; only the
//! `cover.*` sweep histograms may vary (chunked sweeps re-partition the
//! claims). Enabling follows [`crate::metrics::enabled`]: one registry
//! switch turns the whole measurement layer on.

use crate::metrics;
use gogreen_util::{FxHashMap, Json};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of log₂ buckets: bit lengths 0 (the value 0) through 64.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index of `value`: its bit length.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive value range covered by bucket `i` (`None` above 64).
pub fn bucket_range(i: usize) -> Option<(u64, u64)> {
    match i {
        0 => Some((0, 0)),
        1..=64 => {
            let lo = 1u64 << (i - 1);
            Some((lo, lo - 1 + lo))
        }
        _ => None,
    }
}

/// One merged histogram: observation count, exact sum, and log₂ bucket
/// counts. Merging is element-wise addition everywhere, so totals are
/// order-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Total observations.
    pub count: u64,
    /// Exact sum of observed values (wrapping add is irrelevant at the
    /// magnitudes recorded here; kept u64 like the counters).
    pub sum: u64,
    /// `buckets[i]` = observations with bit length `i`.
    pub buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, buckets: [0; NUM_BUCKETS] }
    }
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.buckets[bucket_of(value)] += 1;
    }

    /// Merges `other` into `self` (element-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Element-wise difference `self − earlier`; the delta of two
    /// snapshots of a monotone histogram. Saturates at zero so a reset
    /// between snapshots cannot underflow.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            ..Histogram::default()
        };
        for (i, o) in out.buckets.iter_mut().enumerate() {
            *o = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `0..=1`), the conventional conservative read of a log₂ sketch.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_range(i).map_or(u64::MAX, |(_, hi)| hi);
            }
        }
        u64::MAX
    }

    /// Index of the highest non-empty bucket (`None` when empty).
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Serializes as `{"count":..,"sum":..,"buckets":{"3":5,...}}` with
    /// only non-empty buckets listed, keyed by bucket index.
    pub fn to_json(&self) -> Json {
        let buckets = Json::Obj(
            self.buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (i.to_string(), Json::from(c)))
                .collect(),
        );
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("buckets", buckets),
        ])
    }

    /// Parses the [`Histogram::to_json`] shape back.
    pub fn from_json(json: &Json) -> Option<Histogram> {
        let mut h = Histogram {
            count: json.get("count")?.as_u64()?,
            sum: json.get("sum")?.as_u64()?,
            ..Histogram::default()
        };
        if let Some(Json::Obj(pairs)) = json.get("buckets") {
            for (k, v) in pairs {
                let i: usize = k.parse().ok()?;
                if i >= NUM_BUCKETS {
                    return None;
                }
                h.buckets[i] = v.as_u64()?;
            }
        }
        Some(h)
    }
}

static GLOBAL: Mutex<BTreeMap<&'static str, Histogram>> = Mutex::new(BTreeMap::new());

struct Shard {
    map: FxHashMap<&'static str, Histogram>,
}

impl Drop for Shard {
    fn drop(&mut self) {
        merge_into_global(&mut self.map);
    }
}

thread_local! {
    static SHARD: RefCell<Shard> = RefCell::new(Shard { map: FxHashMap::default() });
}

fn merge_into_global(map: &mut FxHashMap<&'static str, Histogram>) {
    if map.is_empty() {
        return;
    }
    let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    for (name, h) in map.drain() {
        global.entry(name).and_modify(|g| g.merge(&h)).or_insert(h);
    }
}

/// Records `value` into the histogram `name`. No-op while the metrics
/// registry is disabled (histograms share the counters' master switch,
/// so the disabled path stays one relaxed load and a branch).
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !metrics::enabled() {
        return;
    }
    // Shard access can fail only during thread teardown; stragglers
    // merge directly, mirroring the counter registry.
    let direct =
        SHARD.try_with(|s| s.borrow_mut().map.entry(name).or_default().observe(value)).is_err();
    if direct {
        let mut one = FxHashMap::default();
        one.entry(name).or_insert_with(Histogram::default).observe(value);
        merge_into_global(&mut one);
    }
}

/// Merges the calling thread's shard and returns every histogram,
/// sorted by name.
pub fn snapshot() -> Vec<(&'static str, Histogram)> {
    let _ = SHARD.try_with(|s| merge_into_global(&mut s.borrow_mut().map));
    let global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    global.iter().map(|(&k, v)| (k, v.clone())).collect()
}

/// The merged histogram `name`, if it has been touched.
pub fn get(name: &str) -> Option<Histogram> {
    snapshot().into_iter().find(|(n, _)| *n == name).map(|(_, h)| h)
}

/// Clears the global table and the calling thread's shard (same caveat
/// as [`crate::metrics::reset`]: worker threads are scoped and gone).
pub fn reset() {
    let _ = SHARD.try_with(|s| s.borrow_mut().map.clear());
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Renders every histogram as an aligned table: count, sum, mean, the
/// p50/p90/p99 bucket upper bounds, and the value range of the largest
/// populated bucket.
pub fn render_table() -> String {
    let snap = snapshot();
    if snap.is_empty() {
        return "  (no histograms recorded)".to_string();
    }
    let width = snap.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, h) in snap {
        let top = h
            .max_bucket()
            .and_then(bucket_range)
            .map_or("-".to_string(), |(lo, hi)| format!("{lo}..={hi}"));
        out.push_str(&format!(
            "  {name:<width$}  n={} sum={} mean={:.1} p50≤{} p90≤{} p99≤{} top {top}\n",
            h.count,
            h.sum,
            h.mean(),
            h.quantile_upper(0.50),
            h.quantile_upper(0.90),
            h.quantile_upper(0.99),
        ));
    }
    out.pop();
    out
}

/// Renders every histogram as JSON lines:
/// `{"hist":"mine.projected_db_size","count":..,"sum":..,"buckets":{..}}`.
pub fn to_jsonl() -> String {
    let mut out = String::new();
    for (name, h) in snapshot() {
        let mut line = vec![("hist", Json::from(name))];
        if let Json::Obj(fields) = h.to_json() {
            line.extend(fields.into_iter().map(|(k, v)| match k.as_str() {
                "count" => ("count", v),
                "sum" => ("sum", v),
                _ => ("buckets", v),
            }));
        }
        out.push_str(&Json::obj(line).dump());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_range(0), Some((0, 0)));
        assert_eq!(bucket_range(3), Some((4, 7)));
        assert_eq!(bucket_range(64), Some((1 << 63, u64::MAX)));
        assert_eq!(bucket_range(65), None);
    }

    #[test]
    fn observe_merge_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 5, 9, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 116);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 2); // 1, 1
        assert_eq!(h.buckets[3], 1); // 5
        assert_eq!(h.buckets[4], 1); // 9
        assert_eq!(h.buckets[7], 1); // 100
        assert_eq!(h.quantile_upper(0.5), 1); // 3rd of 6 is a 1
        assert_eq!(h.quantile_upper(1.0), 127);
        assert_eq!(h.max_bucket(), Some(7));
        let mut m = h.clone();
        m.merge(&h);
        assert_eq!(m.count, 12);
        assert_eq!(m.sum, 232);
        assert_eq!(m.buckets[1], 4);
        let d = m.delta_since(&h);
        assert_eq!(d, h);
    }

    #[test]
    fn disabled_observations_record_nothing() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        metrics::set_enabled(false);
        observe("test.hist_disabled", 5);
        assert_eq!(get("test.hist_disabled"), None);
    }

    #[test]
    fn sharded_observations_merge_order_free() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        metrics::set_enabled(true);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4u64)
                .map(|t| {
                    scope.spawn(move || {
                        for i in 0..100u64 {
                            observe("test.hist_sharded", t * 100 + i);
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("worker panicked");
            }
        });
        metrics::set_enabled(false);
        let h = get("test.hist_sharded").expect("recorded");
        assert_eq!(h.count, 400);
        assert_eq!(h.sum, (0..400u64).sum());
        assert_eq!(h.buckets.iter().sum::<u64>(), 400);
        reset();
    }

    #[test]
    fn json_round_trips() {
        let mut h = Histogram::default();
        for v in [3u64, 70, 70, 4096] {
            h.observe(v);
        }
        let j = h.to_json();
        let back = Histogram::from_json(&Json::parse(&j.dump()).unwrap()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn jsonl_lists_nonempty_buckets_only() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        metrics::set_enabled(true);
        observe("test.hist_jsonl", 6);
        metrics::set_enabled(false);
        let text = to_jsonl();
        assert!(
            text.contains(r#"{"hist":"test.hist_jsonl","count":1,"sum":6,"buckets":{"3":1}}"#),
            "{text}"
        );
        assert!(render_table().contains("test.hist_jsonl"));
        reset();
    }
}
