//! Timed mining: the families the paper evaluates, each run from
//! scratch or on a compressed database through one entry point.
//!
//! Timings use a [`CountSink`], excluding pattern-output cost as the
//! paper does (§5.2), and return the pattern count as a cross-algorithm
//! checksum: every family must report the same count for the same
//! input, raw or recycled.

use gogreen_core::engine::{Engine, Family, MineInput};
use gogreen_data::{CountSink, MinSupport};
use gogreen_util::pool::Parallelism;
use gogreen_util::{Json, ToJson};
use std::time::Instant;

/// The three families of the paper's evaluation, in its presentation
/// order. Paper-reproduction experiments iterate this set; the
/// extension experiments iterate [`Family::ALL`].
pub const PAPER_FAMILIES: [Family; 3] = [Family::Hm, Family::Fp, Family::Tp];

/// Wall time and emitted-pattern count of one run.
#[derive(Debug, Clone, Copy)]
pub struct TimedRun {
    /// Seconds of mining wall time.
    pub secs: f64,
    /// Patterns emitted.
    pub patterns: u64,
}

impl ToJson for TimedRun {
    fn to_json(&self) -> Json {
        Json::obj([("secs", self.secs.into()), ("patterns", self.patterns.into())])
    }
}

/// Times `family` mining `input` — a raw database (the baseline) or a
/// compressed one (its recycling variant) — with the first-level
/// projections fanned out over `par`.
pub fn timed_mine<I: MineInput>(
    family: Family,
    input: &I,
    ms: MinSupport,
    par: Parallelism,
) -> TimedRun {
    let mut sink = CountSink::new();
    let start = Instant::now();
    Engine::new(family).mine_into(input, ms, par, &mut sink);
    TimedRun { secs: start.elapsed().as_secs_f64(), patterns: sink.count() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_core::{Compressor, Strategy};
    use gogreen_data::TransactionDb;
    use gogreen_miners::mine_apriori;

    #[test]
    fn raw_and_recycled_runs_agree_on_pattern_counts() {
        let db = TransactionDb::paper_example();
        let fp_old = mine_apriori(&db, MinSupport::Absolute(3));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
        let serial = Parallelism::serial();
        for family in Family::ALL {
            let base = timed_mine(family, &db, MinSupport::Absolute(2), serial);
            let rec = timed_mine(family, &cdb, MinSupport::Absolute(2), serial);
            assert_eq!(base.patterns, rec.patterns, "{family:?}");
            assert!(base.secs >= 0.0 && rec.secs >= 0.0);
        }
    }
}
