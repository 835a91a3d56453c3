//! Order statistics, the tail-percentile rule and answer digests.

use gogreen::data::PatternSet;

/// Median of `v` (mean of the two middle values for even lengths);
/// `None` for an empty slice.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 })
}

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, by nearest rank: with `n` samples sorted ascending, the value at
/// 0-based index `n − 11` has exactly ten samples above it, and is the
/// `100 · (n − 10) / n`-th percentile. Returns `(percentile, value)`;
/// `None` when there are too few samples for any such rank. Because the
/// rank depends only on `n`, a fixed number of rounds per run reports the
/// same percentile on every run.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = n - TAIL_BEYOND - 1;
    Some((100.0 * (n - TAIL_BEYOND) as f64 / n as f64, s[idx]))
}

/// Count plus an order-free hash of every `(items, support)` pair: two
/// answers agree iff their digests do (up to hash collisions), whatever
/// order a miner emitted them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub count: u64,
    pub hash: u64,
}

fn mix(mut z: u64) -> u64 {
    // splitmix64 finalizer.
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Digest {
    pub fn of(set: &PatternSet) -> Digest {
        let mut d = Digest::default();
        for p in set.iter() {
            d.add(p.items().iter().map(|it| it.id()), p.support());
        }
        d
    }

    /// Adds one pattern; `items` must be in the canonical ascending order
    /// patterns store them in.
    pub fn add(&mut self, items: impl Iterator<Item = u32>, support: u64) {
        let mut h = mix(support ^ 0x5bd1_e995);
        for id in items {
            h = mix(h ^ u64::from(id));
        }
        self.count += 1;
        self.hash = self.hash.wrapping_add(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen::data::Pattern;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        // n = 11: the smallest value has the ten others beyond it.
        assert_eq!(tail(&v), Some((100.0 * 1.0 / 11.0, 1.0)));
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let (pct, val) = tail(&v).unwrap();
        assert_eq!(pct, 95.0);
        assert_eq!(val, 190.0);
        assert_eq!(v.iter().filter(|&&x| x > val).count(), TAIL_BEYOND);
    }

    #[test]
    fn digest_is_order_free_and_sensitive_to_support_and_items() {
        let a = Pattern::from_ids([1, 2], 5);
        let b = Pattern::from_ids([3], 7);
        let mut s1 = PatternSet::new();
        s1.insert(a.clone());
        s1.insert(b.clone());
        let mut s2 = PatternSet::new();
        s2.insert(b);
        s2.insert(a);
        assert_eq!(Digest::of(&s1), Digest::of(&s2));
        assert_eq!(Digest::of(&s1).count, 2);

        let mut other_support = PatternSet::new();
        other_support.insert(Pattern::from_ids([1, 2], 6));
        other_support.insert(Pattern::from_ids([3], 7));
        assert_ne!(Digest::of(&s1), Digest::of(&other_support));

        let mut other_items = PatternSet::new();
        other_items.insert(Pattern::from_ids([1, 3], 5));
        other_items.insert(Pattern::from_ids([3], 7));
        assert_ne!(Digest::of(&s1), Digest::of(&other_items));
        assert_ne!(Digest::of(&s1), Digest::of(&PatternSet::new()));
    }
}
