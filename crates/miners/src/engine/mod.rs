//! The mining engine: one traversal per algorithm family, generic over
//! the [`gogreen_data::GroupedSource`] substrate, behind one [`Engine`]
//! value.
//!
//! The paper's central identity — a raw database is a compressed database
//! in which every group has an empty head and unit count — means the
//! baseline miners and their recycling adaptations differ only in *what
//! the root of the search is built from*, never in how the search runs.
//! Each submodule here is that single search implementation:
//!
//! * [`hm`] — H-Mine over the RP-Struct arena (paper §4.1, Figures 4–8);
//! * [`fp`] — FP-growth over a forest of conditional groups (§4.2);
//! * [`tp`] — depth-first Tree Projection over grouped partitions (§4.2);
//! * [`vt`] — vertical (Eclat-style) mining over per-rank tid-bitmaps,
//!   the fourth family: support counting is word-wise AND + popcount,
//!   with group runs filled word-at-a-time on the compressed substrate.
//!
//! [`Family`] is the only table that names the families (CLI key,
//! aliases, report name, bench tag). An [`Engine`] is a family plus its
//! [`EngineOpts`]; it mines any [`MineInput`] — a plain
//! [`TransactionDb`] here, a compressed database in `gogreen-core` — by
//! letting the input build its F-list and rank-space substrate
//! ([`gogreen_data::PlainRanks`] or `CompressedRankDb`) and then
//! dispatching once on the family in [`Engine::mine_source`]. Group
//! handling is driven by the substrate's group count (zero for the
//! degenerate view), so the plain instantiations pay nothing for the
//! group machinery.
//!
//! Parallelism contract: each engine routes its first-level fan-out
//! through [`crate::common::fan_out_ordered`] exactly once, so the
//! emitted stream is byte-identical and every `mine.*` counter
//! thread-invariant at any thread count — for both substrates.

pub mod fp;
pub mod hm;
pub mod tp;
pub mod vt;

use crate::common::{encode_db, encode_db_pruned};
use gogreen_data::{
    CollectSink, FList, GroupedSource, MinSupport, PatternSet, PatternSink, PlainRanks,
    SearchPrune, TransactionDb,
};
use gogreen_util::pool::Parallelism;
use vt::VtRepr;

/// One algorithm family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// H-Mine / Recycle-HM.
    Hm,
    /// FP-growth / FP-recycle.
    Fp,
    /// Tree Projection / TP-recycle.
    Tp,
    /// Vertical bitmap Eclat / VT-recycle (not in the paper's
    /// evaluation — the extension family).
    Vt,
}

/// A [`Family`]'s names.
struct Row {
    key: &'static str,
    aliases: &'static [&'static str],
    name: &'static str,
    tag: &'static str,
}

/// Indexed by `Family as usize`.
const ROWS: [Row; 4] = [
    Row { key: "hmine", aliases: &["hm"], name: "H-Mine", tag: "HM" },
    Row { key: "fp", aliases: &[], name: "FP-tree", tag: "FP" },
    Row { key: "tp", aliases: &[], name: "TreeProjection", tag: "TP" },
    Row { key: "vt", aliases: &["eclat"], name: "Eclat", tag: "VT" },
];

impl Family {
    /// Every family, in presentation order. The paper evaluates the
    /// first three.
    pub const ALL: [Family; 4] = [Family::Hm, Family::Fp, Family::Tp, Family::Vt];

    fn row(self) -> &'static Row {
        &ROWS[self as usize]
    }

    /// Canonical key, the primary `--algo` spelling.
    pub fn key(self) -> &'static str {
        self.row().key
    }

    /// Other accepted spellings (`"hm"` for `"hmine"`, …).
    pub fn aliases(self) -> &'static [&'static str] {
        self.row().aliases
    }

    /// Report name of the from-scratch miner, also its bench row id
    /// (`"H-Mine"`, `"FP-tree"`, …).
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Short tag of the recycled variants' names (`"HM"` in `"HM-MCP"`).
    pub fn tag(self) -> &'static str {
        self.row().tag
    }

    /// Looks a family up by key or alias.
    pub fn from_key(key: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.key() == key || f.aliases().contains(&key))
    }
}

/// Looks an engine (with default options) up by key or alias.
pub fn engine_named(key: &str) -> Option<Engine> {
    Family::from_key(key).map(Engine::new)
}

/// The `--algo` help string: every canonical key, `|`-separated.
pub fn engine_keys() -> String {
    Family::ALL.map(Family::key).join("|")
}

/// Options a front end may carry alongside the family. Families ignore
/// what does not apply to them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineOpts {
    /// Vertical representation mode (`--vt-repr`); only the vt family
    /// reads it.
    pub vt_repr: VtRepr,
}

/// A database an [`Engine`] mines: it counts its items and encodes
/// itself into the rank-space substrate the traversals run on.
pub trait MineInput {
    /// Tuples of the (original) database; relative thresholds resolve
    /// against it.
    fn num_tuples(&self) -> usize;

    /// Per-item supports, indexed by item id.
    fn item_supports(&self, par: Parallelism) -> Vec<u64>;

    /// Encodes against `flist` and mines the result with `engine`
    /// through [`Engine::mine_source`].
    fn mine_encoded(
        &self,
        engine: &Engine,
        flist: &FList,
        minsup: u64,
        par: Parallelism,
        sink: &mut dyn PatternSink,
    );
}

impl MineInput for TransactionDb {
    fn num_tuples(&self) -> usize {
        self.len()
    }

    fn item_supports(&self, _par: Parallelism) -> Vec<u64> {
        TransactionDb::item_supports(self)
    }

    fn mine_encoded(
        &self,
        engine: &Engine,
        flist: &FList,
        minsup: u64,
        par: Parallelism,
        sink: &mut dyn PatternSink,
    ) {
        let tuples = encode_db(self, flist);
        engine.mine_source(&PlainRanks::from_csr(&tuples, flist.len()), flist, minsup, par, sink);
    }
}

/// A family plus its options: the one way to mine.
///
/// ```
/// use gogreen_miners::engine::{Engine, Family};
/// use gogreen_data::{MinSupport, TransactionDb};
///
/// let db = TransactionDb::paper_example();
/// let a = Engine::new(Family::Hm).mine(&db, MinSupport::Absolute(3));
/// let b = Engine::new(Family::Fp).mine(&db, MinSupport::Absolute(3));
/// assert!(a.same_patterns_as(&b));
/// assert_eq!(a.len(), 11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    /// The traversal.
    pub family: Family,
    /// Its options.
    pub opts: EngineOpts,
}

impl Engine {
    /// `family` with default options.
    pub const fn new(family: Family) -> Engine {
        Engine { family, opts: EngineOpts { vt_repr: VtRepr::Auto } }
    }

    /// Identity. Exists only because `perfbench/src/layers.rs` calls it;
    /// drop it with the next change to that file.
    pub fn raw(self) -> Engine {
        self
    }

    /// Identity. Exists only because `perfbench/src/layers.rs` calls it;
    /// drop it with the next change to that file.
    pub fn recycling(self, _par: Parallelism) -> Option<Engine> {
        Some(self)
    }

    /// Mines the complete set of frequent patterns of `input` at
    /// `min_support`, emitting each exactly once into `sink`, with the
    /// first-level projections fanned out over `par` scoped threads.
    /// The stream is byte-identical to the serial run at any thread
    /// count.
    pub fn mine_into<I: MineInput + ?Sized>(
        &self,
        input: &I,
        min_support: MinSupport,
        par: Parallelism,
        sink: &mut dyn PatternSink,
    ) {
        let minsup = min_support.to_absolute(input.num_tuples());
        let flist = FList::from_counts(&input.item_supports(par), minsup);
        if flist.is_empty() {
            return;
        }
        input.mine_encoded(self, &flist, minsup, par, sink);
    }

    /// [`Engine::mine_into`] collected into a [`PatternSet`].
    pub fn mine_par<I: MineInput + ?Sized>(
        &self,
        input: &I,
        min_support: MinSupport,
        par: Parallelism,
    ) -> PatternSet {
        let mut sp = gogreen_obs::span("mine");
        let mut sink = CollectSink::new();
        self.mine_into(input, min_support, par, &mut sink);
        let set = sink.into_set();
        sp.field("engine", self.family.name()).field("patterns", set.len());
        set
    }

    /// Serial [`Engine::mine_par`].
    pub fn mine<I: MineInput + ?Sized>(&self, input: &I, min_support: MinSupport) -> PatternSet {
        self.mine_par(input, min_support, Parallelism::serial())
    }

    /// Mines an encoded substrate against `flist` at the absolute
    /// threshold `minsup`: the one dispatch onto the family traversals.
    pub fn mine_source<S: GroupedSource + Sync>(
        &self,
        src: &S,
        flist: &FList,
        minsup: u64,
        par: Parallelism,
        sink: &mut dyn PatternSink,
    ) {
        match self.family {
            Family::Hm => hm::mine_source_par(src, flist, &[], minsup, par, sink),
            Family::Fp => fp::mine_source_par(src, flist, minsup, par, sink),
            Family::Tp => tp::mine_source_par(src, flist, minsup, par, sink),
            Family::Vt => {
                vt::mine_source_par_repr(src, flist, minsup, par, self.opts.vt_repr, sink)
            }
        }
    }

    /// Serial constrained mining with the pushed checks inside the
    /// search: `prune` strips disallowed items, abandons subtrees whose
    /// prefix violates a pushed anti-monotone predicate, and bounds the
    /// extension depth. Only H-Mine implements it; other families
    /// return `false` without mining, and callers then mine
    /// unconstrained and post-filter.
    pub fn mine_pruned<P: SearchPrune + ?Sized>(
        &self,
        db: &TransactionDb,
        min_support: MinSupport,
        prune: &P,
        sink: &mut dyn PatternSink,
    ) -> bool {
        if self.family != Family::Hm {
            return false;
        }
        let minsup = min_support.to_absolute(db.len());
        let flist = FList::from_db(db, minsup);
        if flist.is_empty() {
            return true;
        }
        let allowed: Vec<bool> =
            (0..flist.len() as u32).map(|r| prune.item_allowed(flist.item(r))).collect();
        let tuples = encode_db_pruned(db, &flist, &allowed);
        let src = PlainRanks::from_csr(&tuples, flist.len());
        hm::mine_source_pruned(&src, &flist, &[], minsup, prune, sink);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_resolves_keys_and_aliases() {
        for f in Family::ALL {
            assert_eq!(Family::from_key(f.key()), Some(f));
            assert_eq!(engine_named(f.key()), Some(Engine::new(f)));
        }
        assert_eq!(Family::from_key("hm"), Some(Family::Hm));
        assert_eq!(Family::from_key("eclat"), Some(Family::Vt));
        assert!(engine_named("bogus").is_none());
        assert!(engine_named("naive").is_none());
        assert_eq!(engine_keys(), "hmine|fp|tp|vt");
    }

    #[test]
    fn names_and_tags_are_distinct() {
        let names: std::collections::BTreeSet<_> = Family::ALL.map(Family::name).into();
        let tags: std::collections::BTreeSet<_> = Family::ALL.map(Family::tag).into();
        assert_eq!((names.len(), tags.len()), (4, 4));
    }

    #[test]
    fn pruned_hook_is_hmine_only() {
        let db = TransactionDb::paper_example();
        let oracle = crate::mine_apriori(&db, MinSupport::Absolute(2));
        for f in Family::ALL {
            let mut sink = CollectSink::new();
            let handled = Engine::new(f).mine_pruned(
                &db,
                MinSupport::Absolute(2),
                &gogreen_data::NoPrune,
                &mut sink,
            );
            assert_eq!(handled, f == Family::Hm, "{f:?}");
            if handled {
                assert!(sink.into_set().same_patterns_as(&oracle));
            }
        }
    }
}
