//! The Apriori algorithm (Agrawal & Srikant, VLDB 1994).
//!
//! Level-wise candidate generation with the Apriori pruning rule: every
//! `(k−1)`-subset of a `k`-candidate must itself be frequent. Candidate
//! supports are counted with transaction-id lists carried from the previous
//! level (the Apriori-TID refinement from the same paper), which keeps the
//! oracle usably fast on the randomized databases the property tests throw
//! at it.
//!
//! Apriori is the workspace's *correctness oracle*: its structure is simple
//! enough to audit, and every other miner — baselines and recycling
//! variants alike — is tested for pattern-for-pattern agreement with it.

use gogreen_data::{CollectSink, Item, MinSupport, PatternSet, PatternSink, TransactionDb};
use gogreen_obs::metrics;
use gogreen_util::FxHashSet;

/// Apriori miner configuration. The default is the plain algorithm.
#[derive(Debug, Default, Clone)]
pub struct Apriori;

/// A frequent itemset at the current level: items plus the ids of the
/// tuples containing it (sorted ascending).
struct LevelEntry {
    items: Vec<Item>,
    tids: Vec<u32>,
}

impl Apriori {
    /// Mines the complete frequent-pattern set of `db` into `sink`.
    pub fn mine_into(
        &self,
        db: &TransactionDb,
        min_support: MinSupport,
        sink: &mut dyn PatternSink,
    ) {
        let minsup = min_support.to_absolute(db.len());
        // L1: frequent items with their tidlists.
        let supports = db.item_supports();
        metrics::add("mine.candidate_tests", supports.len() as u64);
        let mut level: Vec<LevelEntry> = Vec::new();
        for (id, &sup) in supports.iter().enumerate() {
            if sup >= minsup {
                level.push(LevelEntry { items: vec![Item(id as u32)], tids: Vec::new() });
            }
        }
        if level.is_empty() {
            return;
        }
        // One scan fills the L1 tidlists.
        {
            let mut pos: Vec<i64> = vec![-1; supports.len()];
            for (slot, e) in level.iter().enumerate() {
                pos[e.items[0].index()] = slot as i64;
            }
            let mut touches = 0u64;
            for (tid, t) in db.iter().enumerate() {
                for &it in t {
                    let p = pos[it.index()];
                    if p >= 0 {
                        level[p as usize].tids.push(tid as u32);
                        touches += 1;
                    }
                }
            }
            metrics::add("mine.tuple_touches", touches);
        }
        for e in &level {
            sink.emit(&e.items, e.tids.len() as u64);
        }

        // Level-wise loop: join, prune, count via tidlist intersection.
        while level.len() > 1 {
            let prev: FxHashSet<&[Item]> = level.iter().map(|e| e.items.as_slice()).collect();
            let mut next: Vec<LevelEntry> = Vec::new();
            // Entries are generated in lexicographic order, so candidates
            // join entries sharing the first k-1 items.
            let mut block_start = 0;
            while block_start < level.len() {
                let k = level[block_start].items.len();
                let prefix = &level[block_start].items[..k - 1];
                let mut block_end = block_start + 1;
                while block_end < level.len() && level[block_end].items[..k - 1] == *prefix {
                    block_end += 1;
                }
                for a in block_start..block_end {
                    for b in (a + 1)..block_end {
                        let mut cand = level[a].items.clone();
                        cand.push(*level[b].items.last().unwrap());
                        if !all_subsets_frequent(&cand, &prev) {
                            continue;
                        }
                        metrics::add("mine.candidate_tests", 1);
                        let tids = intersect(&level[a].tids, &level[b].tids);
                        if tids.len() as u64 >= minsup {
                            sink.emit(&cand, tids.len() as u64);
                            next.push(LevelEntry { items: cand, tids });
                        }
                    }
                }
                block_start = block_end;
            }
            level = next;
        }
    }

    /// [`Apriori::mine_into`] collected into a [`PatternSet`].
    pub fn mine(&self, db: &TransactionDb, min_support: MinSupport) -> PatternSet {
        let mut sink = CollectSink::new();
        self.mine_into(db, min_support, &mut sink);
        sink.into_set()
    }
}

/// Apriori pruning: every (k−1)-subset of `cand` must be in `prev`.
/// The two subsets obtained by dropping the last two positions are the
/// join's parents and need no re-check.
fn all_subsets_frequent(cand: &[Item], prev: &FxHashSet<&[Item]>) -> bool {
    if cand.len() <= 2 {
        return true;
    }
    let mut sub = Vec::with_capacity(cand.len() - 1);
    for drop in 0..cand.len() - 2 {
        sub.clear();
        sub.extend_from_slice(&cand[..drop]);
        sub.extend_from_slice(&cand[drop + 1..]);
        if !prev.contains(sub.as_slice()) {
            return false;
        }
    }
    true
}

/// Sorted-list intersection.
fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mine(db: &TransactionDb, minsup: u64) -> PatternSet {
        Apriori.mine(db, MinSupport::Absolute(minsup))
    }

    #[test]
    fn empty_db_yields_nothing() {
        assert!(mine(&TransactionDb::new(), 1).is_empty());
    }

    #[test]
    fn single_transaction_at_support_one() {
        let db = TransactionDb::from_rows(&[&[1, 2, 3]]);
        let fp = mine(&db, 1);
        // All 7 non-empty subsets.
        assert_eq!(fp.len(), 7);
        assert_eq!(fp.support_of(&[Item(1), Item(2), Item(3)]), Some(1));
    }

    #[test]
    fn threshold_above_everything_yields_nothing() {
        let db = TransactionDb::from_rows(&[&[1, 2], &[2, 3]]);
        assert!(mine(&db, 3).is_empty());
    }

    #[test]
    fn identical_transactions() {
        let db = TransactionDb::from_rows(&[&[4, 5], &[4, 5], &[4, 5]]);
        let fp = mine(&db, 3);
        assert_eq!(fp.len(), 3);
        assert_eq!(fp.support_of(&[Item(4), Item(5)]), Some(3));
    }

    #[test]
    fn paper_example_at_three() {
        let fp = mine(&TransactionDb::paper_example(), 3);
        // 11 patterns: the paper's Example 1 omits fc:3 (subset of fgc:3).
        assert_eq!(fp.len(), 11);
        assert_eq!(fp.max_len(), 3);
        assert_eq!(fp.support_of(&[Item(2), Item(5)]), Some(3));
    }

    #[test]
    fn paper_example_at_two_contains_dcfg() {
        let fp = mine(&TransactionDb::paper_example(), 2);
        assert_eq!(fp.support_of(&[Item(2), Item(3), Item(5), Item(6)]), Some(2));
        // Example 2 of the paper: fgce? f,g,c,e -> tuples 100,300 -> support 2.
        assert_eq!(fp.support_of(&[Item(2), Item(4), Item(5), Item(6)]), Some(2));
    }

    #[test]
    fn intersect_basic() {
        assert_eq!(intersect(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(intersect(&[], &[1]), Vec::<u32>::new());
    }

    #[test]
    fn prune_rejects_candidate_with_infrequent_subset() {
        let mut prev: FxHashSet<&[Item]> = FxHashSet::default();
        let ab = [Item(0), Item(1)];
        let ac = [Item(0), Item(2)];
        prev.insert(&ab);
        prev.insert(&ac);
        // abc requires bc too.
        assert!(!all_subsets_frequent(&[Item(0), Item(1), Item(2)], &prev));
        let bc = [Item(1), Item(2)];
        prev.insert(&bc);
        assert!(all_subsets_frequent(&[Item(0), Item(1), Item(2)], &prev));
    }
}
