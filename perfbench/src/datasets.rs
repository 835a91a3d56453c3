//! Seeded inputs: the datagen generators with the paper-analog presets'
//! shape parameters, and the benchmark's seed in place of the preset's.

use gogreen::datagen::{PositionalGenerator, RegimeGenerator};

/// Mixes the workload seed into a preset's own seed, so every workload
/// seed gives a different — but identically shaped — dataset.
fn mixed(preset_seed: u64, seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    preset_seed ^ z ^ (z >> 31)
}

/// The weather analog (sparse, regime-structured; paper Table 3).
pub fn weather(tuples: usize, seed: u64) -> RegimeGenerator {
    RegimeGenerator {
        num_transactions: tuples,
        positions: 15,
        values_per_position: 530,
        num_regimes: 10,
        regime_skew: 1.0,
        adherence: 0.97,
        adherence_lo: 0.10,
        adherence_gamma: 1.0,
        noise_skew: 0.8,
        seed: mixed(0x7765_6174, seed),
    }
}

/// The forest analog (sparse, weakly adhering regimes).
pub fn forest(tuples: usize, seed: u64) -> RegimeGenerator {
    RegimeGenerator {
        num_transactions: tuples,
        positions: 13,
        values_per_position: 1_228,
        num_regimes: 7,
        regime_skew: 0.9,
        adherence: 0.82,
        adherence_lo: 0.05,
        adherence_gamma: 1.2,
        noise_skew: 1.0,
        seed: mixed(0x666f_7265, seed),
    }
}

/// The connect4 analog (dense, positional).
pub fn connect4(tuples: usize, seed: u64) -> PositionalGenerator {
    PositionalGenerator {
        num_transactions: tuples,
        positions: 43,
        values_per_position: 3,
        skew: 1.2,
        dominated_positions: 16,
        dominant_prob: 0.998,
        dominant_prob_lo: 0.80,
        dominant_gamma: 3.0,
        seed: mixed(0x636f_6e34, seed),
    }
}

/// Materialised rows of a regime generator (sorted item ids per row).
pub fn regime_rows(g: &RegimeGenerator) -> Vec<Vec<u32>> {
    let mut rows = Vec::with_capacity(g.num_transactions);
    g.for_each_transaction(|r| rows.push(r.to_vec()));
    rows
}

/// A small deterministic generator for workload choices (constraint
/// items), seeded from the workload seed.
pub struct Choice(u64);

impl Choice {
    pub fn new(seed: u64) -> Choice {
        Choice(mixed(0x6368_6f69, seed))
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.0 = mixed(self.0, 1);
        self.0 % bound.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_other_seed_other_rows() {
        let a = regime_rows(&weather(2_000, 7));
        let b = regime_rows(&weather(2_000, 7));
        let c = regime_rows(&weather(2_000, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), c.len());

        let d = connect4(1_000, 3).generate();
        let e = connect4(1_000, 3).generate();
        let f = connect4(1_000, 4).generate();
        assert!(d.iter().eq(e.iter()));
        assert!(!d.iter().eq(f.iter()));

        let g = regime_rows(&forest(1_000, 1));
        assert_eq!(g, regime_rows(&forest(1_000, 1)));
        assert_ne!(g, regime_rows(&forest(1_000, 2)));

        let mut x = Choice::new(5);
        let mut y = Choice::new(5);
        let xs: Vec<u64> = (0..8).map(|_| x.below(100)).collect();
        let ys: Vec<u64> = (0..8).map(|_| y.below(100)).collect();
        assert_eq!(xs, ys);
    }
}
