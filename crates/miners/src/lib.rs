#![warn(missing_docs)]

//! Frequent-pattern mining engines.
//!
//! The paper adapts three representative *projected-database* miners —
//! H-Mine, FP-tree (FP-growth) and Tree Projection — to run on compressed
//! databases. [`engine`] holds each of them once, generic over the
//! `GroupedSource` substrate, plus a fourth *vertical* family (Eclat:
//! tidset bitmaps mined by word-wise AND + popcount, with extension
//! levels pre-sized and terminated by the Kruskal–Katona candidate upper
//! bound of [`bound`]). One [`engine::Engine`] value — a
//! [`engine::Family`] plus its options — mines a plain database here and
//! a compressed one in `gogreen-core`.
//!
//! Two reference miners stay outside the engine table, for tests and
//! the experiment harness:
//!
//! * [`apriori`] — the classic level-wise algorithm, used across the
//!   workspace as the correctness oracle;
//! * [`naive`] — the plain recursive projected-database miner, the
//!   skeleton the paper's Definition 3.2/3.3 framework describes.
//!
//! [`fpgrowth::FpTree`] and [`treeproj::PairMatrix`] are the node
//! structures the engines share.

pub mod apriori;
pub mod bound;
pub mod common;
pub mod engine;
pub mod fpgrowth;
pub mod naive;
pub mod treeproj;

use gogreen_data::{MinSupport, PatternSet, TransactionDb};

pub use apriori::Apriori;
pub use naive::NaiveProjection;

/// Mines with [`Apriori`] (correctness oracle; slowest).
pub fn mine_apriori(db: &TransactionDb, min_support: MinSupport) -> PatternSet {
    Apriori.mine(db, min_support)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Family};

    /// Every miner on the paper's Table 1 example at ξ = 3 must produce
    /// exactly the `FP` set of the paper's Example 1.
    #[test]
    fn all_miners_reproduce_paper_example_1() {
        // a=0,b=1,c=2,d=3,e=4,f=5,g=6,h=7,i=8
        let db = TransactionDb::paper_example();
        let mut runs = vec![
            ("Apriori", Apriori.mine(&db, MinSupport::Absolute(3))),
            ("NaiveProjection", NaiveProjection.mine(&db, MinSupport::Absolute(3))),
        ];
        for f in Family::ALL {
            runs.push((f.name(), Engine::new(f).mine(&db, MinSupport::Absolute(3))));
        }
        for (name, fp) in &runs {
            // The paper's Example 1 lists 10 patterns but omits fc:3 — a
            // typo, since fc ⊂ fgc:3 must be frequent by anti-monotonicity.
            // The complete set has 11 patterns.
            assert_eq!(fp.len(), 11, "{name} pattern count");
            let expect: &[(&[u32], u64)] = &[
                (&[5], 3),       // f
                (&[5, 6], 3),    // fg
                (&[2, 5], 3),    // fc (omitted in the paper's Example 1)
                (&[2, 5, 6], 3), // fgc
                (&[6], 3),       // g
                (&[2, 6], 3),    // gc
                (&[0], 3),       // a
                (&[0, 4], 3),    // ae
                (&[4], 4),       // e
                (&[2, 4], 3),    // ec
                (&[2], 4),       // c
            ];
            for &(ids, sup) in expect {
                let items: Vec<_> = ids.iter().map(|&i| gogreen_data::Item(i)).collect();
                assert_eq!(fp.support_of(&items), Some(sup), "{name}: {ids:?}");
            }
        }
    }

    /// At ξ = 2 the miners must agree with the oracle on the full set,
    /// including the d-extensions the paper's Example 3 walks through.
    #[test]
    fn all_miners_agree_at_support_two() {
        let db = TransactionDb::paper_example();
        let oracle = mine_apriori(&db, MinSupport::Absolute(2));
        // Spot-check Example 3 step (1): dcfg:2 and friends.
        let it = |ids: &[u32]| ids.iter().map(|&i| gogreen_data::Item(i)).collect::<Vec<_>>();
        assert_eq!(oracle.support_of(&it(&[2, 3, 5, 6])), Some(2)); // dcfg
        assert_eq!(oracle.support_of(&it(&[3, 5])), Some(2)); // df
        assert_eq!(oracle.support_of(&it(&[0, 2, 4])), Some(2)); // ace
        for f in Family::ALL {
            let got = Engine::new(f).mine(&db, MinSupport::Absolute(2));
            assert!(got.same_patterns_as(&oracle), "{f:?}");
        }
        assert!(NaiveProjection.mine(&db, MinSupport::Absolute(2)).same_patterns_as(&oracle));
    }
}
