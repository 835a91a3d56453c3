//! One thin adapter per layer: every call the benchmark makes into the
//! program goes through this file, wrapped in a span named after the
//! layer's module (`crate_module`). When the program's public surface
//! moves, this is the file to update.

use crate::trace::Tracer;
use gogreen::constraints::{ConstraintSet, ItemAttributes};
use gogreen::core::engine::engine_named;
use gogreen::core::store::PatternStore;
use gogreen::core::{BatchOutcome, BatchQuery, CompressedDb, Compressor, QueryBatch, Strategy};
use gogreen::data::{MinSupport, PatternSet, TransactionDb};
use gogreen::storage::{
    compact, LimitedHMine, MemoryBudget, OocMiner, SegmentedDb, SegmentedIncrementalMiner,
};
use gogreen::util::pool::Parallelism;
use std::path::Path;
use std::sync::Arc;

/// The four engine families, each with a raw and a recycling miner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Hm,
    Fp,
    Tp,
    Vt,
}

impl Family {
    pub const ALL: [Family; 4] = [Family::Hm, Family::Fp, Family::Tp, Family::Vt];

    /// Short tag used in op types and metric names.
    pub fn tag(self) -> &'static str {
        match self {
            Family::Hm => "hm",
            Family::Fp => "fp",
            Family::Tp => "tp",
            Family::Vt => "vt",
        }
    }
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `data::io` — text databases.
pub mod data_io {
    use super::*;

    pub fn write(tr: &mut Tracer, db: &TransactionDb, path: &Path) -> Result<(), String> {
        tr.span("data_io", "write", |_| gogreen::data::io::write_file(db, path).map_err(io_err))
    }

    pub fn parse(tr: &mut Tracer, path: &Path) -> Result<TransactionDb, String> {
        tr.span("data_io", "parse", |tr| {
            if tr.is_on() {
                let bytes = std::fs::metadata(path).map_err(io_err)?.len();
                tr.attr("bytes", bytes as f64);
            }
            gogreen::data::io::read_file(path).map_err(io_err)
        })
    }
}

/// `data::pattern_io` — answer files.
pub mod data_pattern_io {
    use super::*;

    pub fn write(tr: &mut Tracer, set: &PatternSet, path: &Path) -> Result<(), String> {
        tr.span("data_pattern_io", "write", |tr| {
            gogreen::data::pattern_io::write_patterns_file(set, path).map_err(io_err)?;
            if tr.is_on() {
                tr.attr("bytes", std::fs::metadata(path).map_err(io_err)?.len() as f64);
            }
            Ok(())
        })
    }
}

/// `core::store` — the published pattern sets rounds are answered from.
pub mod core_store {
    use super::*;

    pub fn publish(tr: &mut Tracer, store: &PatternStore, ds: &str, xi: u64, set: PatternSet) {
        tr.span("core_store", "publish", |_| store.publish(ds, xi, set))
    }

    /// The richest published set: the recycling fodder.
    pub fn best_for(tr: &mut Tracer, store: &PatternStore, ds: &str) -> Option<Arc<PatternSet>> {
        tr.span("core_store", "best_for", |tr| {
            let found = store.best_for(ds).map(|(_, set)| set);
            if let Some(set) = &found {
                tr.attr("fodder_patterns", set.len() as f64);
            }
            found
        })
    }
}

/// `core::session` — round dispatch and filtering: a round at ξ is
/// answered from the closest published threshold ≤ ξ when one exists
/// (the session's `Filtered` path).
pub mod core_session {
    use super::*;

    pub fn filtered(
        tr: &mut Tracer,
        store: &PatternStore,
        ds: &str,
        xi: u64,
    ) -> Option<PatternSet> {
        tr.span("core_session", "filter", |tr| {
            let (_, superset) =
                tr.span("core_store", "best_at_most", |_| store.best_at_most(ds, xi))?;
            Some(superset.filter(|p| p.support() >= xi))
        })
    }
}

/// `constraints` — refinement filters beyond minimum support.
pub mod constraints {
    use super::*;

    pub fn filter(tr: &mut Tracer, set: &PatternSet, cs: &ConstraintSet, n: usize) -> PatternSet {
        tr.span("constraints", "filter", |_| {
            let attrs = ItemAttributes::new();
            set.filter(|p| cs.satisfied_by(p, n, &attrs))
        })
    }
}

/// `core::compress` (with `core::cover`).
pub mod core_compress {
    use super::*;

    pub fn compress(
        tr: &mut Tracer,
        db: &TransactionDb,
        fodder: &PatternSet,
        par: Parallelism,
    ) -> CompressedDb {
        tr.span("core_compress", "mcp", |tr| {
            let (cdb, stats) = Compressor::new(Strategy::Mcp)
                .with_parallelism(par)
                .compress_with_stats(db, fodder);
            tr.attr("ratio", stats.ratio);
            tr.attr("groups", stats.num_groups as f64);
            tr.attr("covered_frac", stats.covered_tuples as f64 / stats.num_tuples.max(1) as f64);
            cdb
        })
    }
}

/// `core::recycle_*` through `RecyclingMiner::mine_par`.
pub mod core_recycle {
    use super::*;

    pub fn mine(
        tr: &mut Tracer,
        fam: Family,
        cdb: &CompressedDb,
        xi: MinSupport,
        par: Parallelism,
    ) -> PatternSet {
        let miner = engine_named(fam_key(fam))
            .and_then(|e| e.recycling(par))
            .expect("every benchmark family has a recycling miner");
        tr.span("core_recycle", fam.tag(), |_| miner.mine_par(cdb, xi, par))
    }
}

/// `miners::engine` through the raw `Miner::mine_par`.
pub mod miners_engine {
    use super::*;

    pub fn mine(
        tr: &mut Tracer,
        fam: Family,
        db: &TransactionDb,
        xi: MinSupport,
        par: Parallelism,
    ) -> PatternSet {
        let miner = engine_named(fam_key(fam)).expect("every benchmark family is registered").raw();
        tr.span("miners_engine", fam.tag(), |_| miner.mine_par(db, xi, par))
    }
}

fn fam_key(fam: Family) -> &'static str {
    match fam {
        Family::Hm => "hmine",
        other => other.tag(),
    }
}

/// `core::batch` — one shared pass answers a fleet.
pub mod core_batch {
    use super::*;

    pub fn build(queries: &[BatchQuery], par: Parallelism) -> QueryBatch {
        let mut batch = QueryBatch::new().with_parallelism(par);
        for q in queries {
            batch.push(q.clone());
        }
        batch
    }

    /// `QueryBatch::plan` alone (the run plans again internally).
    pub fn plan(tr: &mut Tracer, batch: &QueryBatch, counts: &[u64], n: usize) {
        tr.span("core_batch", "plan", |_| std::hint::black_box(batch.plan(counts, n, true)));
    }

    pub fn run(
        tr: &mut Tracer,
        batch: &QueryBatch,
        db: &TransactionDb,
        fam: Family,
        store: &PatternStore,
        ds: &str,
    ) -> Result<BatchOutcome, String> {
        tr.span("core_batch", "run", |tr| {
            let out = batch.run_with_store(db, fam_key(fam), store, ds)?;
            tr.attr("admitted", out.report.plan.admitted.len() as f64);
            tr.attr("queries", batch.len() as f64);
            Ok(out)
        })
    }
}

/// `util::pool` — the same shared pass on two threads, for the t2/t1
/// speedup.
pub mod util_pool {
    use super::*;

    pub fn run_t2(
        tr: &mut Tracer,
        queries: &[BatchQuery],
        db: &TransactionDb,
        fam: Family,
    ) -> Result<BatchOutcome, String> {
        let parallel = super::core_batch::build(queries, Parallelism::threads(2));
        tr.span("util_pool", "t2", |_| parallel.run(db, fam_key(fam)))
    }
}

/// `storage::segment` — the segment writer, reader and compaction.
pub mod storage_segment {
    use super::*;

    /// Appends rows through the miner's segment writer.
    pub fn insert(
        tr: &mut Tracer,
        m: &mut SegmentedIncrementalMiner,
        rows: &[Vec<u32>],
    ) -> Result<(), String> {
        tr.span("storage_segment", "write", |_| m.insert(rows).map_err(io_err))
    }

    pub fn open(tr: &mut Tracer, dir: &Path, budget: MemoryBudget) -> Result<SegmentedDb, String> {
        tr.span("storage_segment", "open", |_| {
            SegmentedDb::open(dir).map(|db| db.with_budget(budget)).map_err(io_err)
        })
    }

    pub fn load_all(tr: &mut Tracer, db: &SegmentedDb) -> Result<TransactionDb, String> {
        tr.span("storage_segment", "read", |_| db.to_transaction_db().map_err(io_err))
    }

    pub fn compact(tr: &mut Tracer, dir: &Path, segment_bytes: usize) -> Result<(), String> {
        tr.span("storage_segment", "compact", |_| {
            super::compact(dir, segment_bytes).map(|_| ()).map_err(io_err)
        })
    }
}

/// `storage::ooc` — out-of-core mining over segments.
pub mod storage_ooc {
    use super::*;

    /// One `SegmentedIncrementalMiner` round: compress the segments with
    /// the previous round's patterns, mine, persist a version delta. The
    /// call bundles `core_compress`, `core_recycle` and `storage_version`
    /// work; the traced run reports their registry counters.
    pub fn incremental_mine(
        tr: &mut Tracer,
        m: &mut SegmentedIncrementalMiner,
        xi: MinSupport,
    ) -> Result<PatternSet, String> {
        tr.span("storage_ooc", "incremental", |tr| {
            let out = m.mine(xi).map_err(io_err)?;
            if let Some(cdb) = m.current_version() {
                let st = cdb.stats();
                tr.attr("ratio", st.ratio());
                tr.attr("groups", st.num_groups as f64);
                tr.attr("covered_frac", st.covered_tuples as f64 / st.num_tuples.max(1) as f64);
            }
            Ok(out)
        })
    }

    pub fn scratch_mine(
        tr: &mut Tracer,
        db: &SegmentedDb,
        xi: MinSupport,
    ) -> Result<PatternSet, String> {
        tr.span("storage_ooc", "scratch", |_| OocMiner::new(db).mine(xi).map_err(io_err))
    }
}

/// `storage::limited` — §5.3 memory-limited H-Mine with disk spills.
pub mod storage_limited {
    use super::*;

    pub fn mine(
        tr: &mut Tracer,
        db: &TransactionDb,
        xi: MinSupport,
        budget: MemoryBudget,
    ) -> Result<PatternSet, String> {
        tr.span("storage_limited", "hm", |tr| {
            let (set, report) = LimitedHMine::new(budget).mine(db, xi).map_err(io_err)?;
            tr.attr("spills", report.spills as f64);
            tr.attr("disk_bytes", report.disk_bytes as f64);
            Ok(set)
        })
    }
}
