//! Memory-limited mining drivers (paper Figure 3 + §5.3).
//!
//! Both drivers implement Algorithm *Recycling*'s outer loop: estimate
//! the in-memory structure (`EM(D)`), mine in memory when it fits the
//! budget, otherwise *parallel-project* the database onto its frequent
//! items on disk and recurse per partition. The paper's §5.3 compares
//! H-Mine against HM-MCP under 4 MiB and 8 MiB budgets; these drivers
//! are that pair:
//!
//! * [`LimitedHMine`] — plain databases, H-Mine in memory.
//! * [`LimitedRecycledHMine`] — compressed databases, H-Mine on the
//!   compressed substrate (Recycle-HM) in memory.
//!
//! They differ only at the root. Below it one recursion serves both,
//! because a plain database is a compressed one with no groups. A
//! partition is a segment store ([`crate::segment`]): rank rows plus a
//! group section, which is empty for a plain database. Each group is
//! written once per (partition, group), so the recycling saving
//! survives the disk round trip. The load-vs-respill decision reads the
//! partition's shape from its segment headers
//! ([`estimate_partition_bytes`]). A respill takes its local supports
//! from the segment sidecars and then projects one segment at a time.
//!
//! Both call the H-Mine traversal ([`hm::mine_source_par`]) directly:
//! it is the one entry point that resumes a spilled partition under its
//! item prefix.

use crate::budget::MemoryBudget;
use crate::segment::{SegmentWriter, SegmentedDb};
use gogreen_core::cdb::{CompressedDb, CompressedRankDb};
use gogreen_core::memory::{
    estimate_hmine_bytes, estimate_partition_bytes, estimate_rp_struct_bytes,
};
use gogreen_data::{
    CollectSink, CsrTuples, FList, Item, MinSupport, PatternSet, PatternSink, PlainRanks,
    TransactionDb, TupleSlices,
};
use gogreen_miners::engine::hm;
use gogreen_obs::metrics;
use gogreen_util::pool::Parallelism;
use gogreen_util::FxHashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Payload size at which a partition's segment seals: the bound on each
/// partition's write buffer.
const PARTITION_SEGMENT_BYTES: usize = 256 * 1024;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// I/O metrics of one memory-limited run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LimitedReport {
    /// Times a (sub-)database was projected to disk instead of mined in
    /// memory.
    pub spills: usize,
    /// Partitions mined after loading from disk.
    pub loads: usize,
    /// Total segment file bytes written by parallel projection.
    pub disk_bytes: u64,
    /// Deepest spill nesting reached (0 = everything fit in memory).
    pub max_depth: usize,
}

/// Memory-limited plain H-Mine.
#[derive(Debug, Clone, Copy)]
pub struct LimitedHMine {
    budget: MemoryBudget,
}

impl LimitedHMine {
    /// A driver with the given budget.
    pub fn new(budget: MemoryBudget) -> Self {
        LimitedHMine { budget }
    }

    /// Mines `db`, spilling as the budget demands.
    pub fn mine_into(
        &self,
        db: &TransactionDb,
        min_support: MinSupport,
        sink: &mut dyn PatternSink,
    ) -> io::Result<LimitedReport> {
        let minsup = min_support.to_absolute(db.len());
        let flist = FList::from_db(db, minsup);
        if flist.is_empty() {
            return Ok(LimitedReport::default());
        }
        let mut rdb = CompressedRankDb::empty(flist.len());
        for t in db.iter() {
            let enc = flist.encode(t);
            if !enc.is_empty() {
                rdb.push_plain(&enc);
            }
        }
        let est = estimate_hmine_bytes(rdb.plain().total_elems(), rdb.plain().len());
        Recursion::new(self.budget, &flist, minsup).run(&rdb, est, sink)
    }

    /// Collects into a [`PatternSet`] alongside the report.
    pub fn mine(
        &self,
        db: &TransactionDb,
        min_support: MinSupport,
    ) -> io::Result<(PatternSet, LimitedReport)> {
        let mut sink = CollectSink::new();
        let report = self.mine_into(db, min_support, &mut sink)?;
        Ok((sink.into_set(), report))
    }
}

/// Memory-limited Recycle-HM over a compressed database.
#[derive(Debug, Clone, Copy)]
pub struct LimitedRecycledHMine {
    budget: MemoryBudget,
}

impl LimitedRecycledHMine {
    /// A driver with the given budget.
    pub fn new(budget: MemoryBudget) -> Self {
        LimitedRecycledHMine { budget }
    }

    /// Mines `cdb`, spilling as the budget demands.
    pub fn mine_into(
        &self,
        cdb: &CompressedDb,
        min_support: MinSupport,
        sink: &mut dyn PatternSink,
    ) -> io::Result<LimitedReport> {
        let minsup = min_support.to_absolute(cdb.num_tuples());
        let flist = cdb.flist(minsup);
        if flist.is_empty() {
            return Ok(LimitedReport::default());
        }
        let rdb = cdb.to_ranks(&flist);
        let est = estimate_rp_struct_bytes(&rdb);
        Recursion::new(self.budget, &flist, minsup).run(&rdb, est, sink)
    }

    /// Collects into a [`PatternSet`] alongside the report.
    pub fn mine(
        &self,
        cdb: &CompressedDb,
        min_support: MinSupport,
    ) -> io::Result<(PatternSet, LimitedReport)> {
        let mut sink = CollectSink::new();
        let report = self.mine_into(cdb, min_support, &mut sink)?;
        Ok((sink.into_set(), report))
    }
}

/// H-Mine over `rdb` in memory, under the item `prefix`. A partition
/// without groups is mined as plain ranks, the raw engine's substrate.
fn mine_in_memory(
    rdb: &CompressedRankDb,
    flist: &FList,
    prefix: &[Item],
    minsup: u64,
    sink: &mut dyn PatternSink,
) {
    let serial = Parallelism::serial();
    if rdb.num_groups() == 0 {
        let src = PlainRanks::new(rdb.plain(), flist.len());
        hm::mine_source_par(&src, flist, prefix, minsup, serial, sink);
    } else {
        hm::mine_source_par(rdb, flist, prefix, minsup, serial, sink);
    }
}

/// The recursion both drivers share: everything below the root.
struct Recursion<'a> {
    budget: MemoryBudget,
    flist: &'a FList,
    minsup: u64,
    report: LimitedReport,
}

impl<'a> Recursion<'a> {
    fn new(budget: MemoryBudget, flist: &'a FList, minsup: u64) -> Self {
        Recursion { budget, flist, minsup, report: LimitedReport::default() }
    }

    /// Mines the root database, whose in-memory structure is estimated
    /// at `est` bytes: in memory when that fits, otherwise by parallel
    /// projection of the root (paper §3.3) and one recursion per rank.
    fn run(
        mut self,
        rdb: &CompressedRankDb,
        est: usize,
        sink: &mut dyn PatternSink,
    ) -> io::Result<LimitedReport> {
        metrics::set_max("storage.budget_high_water", est as u64);
        if self.budget.fits(est) {
            mine_in_memory(rdb, self.flist, &[], self.minsup, sink);
            return Ok(self.report);
        }
        self.report.spills = 1;
        self.report.max_depth = 1;
        let ranks = 0..self.flist.len() as u32;
        let frequent: Vec<(u32, u64)> = ranks.map(|r| (r, self.flist.support(r))).collect();
        self.descend(&frequent, &mut Vec::new(), sink, 1, |spill| spill.project(rdb))?;
        Ok(self.report)
    }

    /// Mines partition `r` of `spill` under `prefix` (which ends with
    /// `r`'s item): loaded and mined in memory when its estimate fits,
    /// otherwise projected one level deeper on its locally frequent
    /// ranks, whose supports the sidecars hold.
    fn mine_partition(
        &mut self,
        spill: &Spill,
        r: u32,
        prefix: &mut Vec<Item>,
        sink: &mut dyn PatternSink,
        depth: usize,
    ) -> io::Result<()> {
        let Some(db) = spill.store(r) else {
            return Ok(());
        };
        let n = self.flist.len();
        let est = estimate_partition_bytes(&db.shape());
        metrics::set_max("storage.budget_high_water", est as u64);
        if self.budget.fits(est) {
            let mut rdb = db.load_ranks(0, n)?;
            for i in 1..db.num_segments() {
                rdb.append(&db.load_ranks(i, n)?);
            }
            self.report.loads += 1;
            mine_in_memory(&rdb, self.flist, prefix, self.minsup, sink);
            return Ok(());
        }
        self.report.spills += 1;
        self.report.max_depth = self.report.max_depth.max(depth + 1);
        let mut keep = vec![false; n];
        let mut frequent = Vec::new();
        for (x, c) in db.item_supports()?.into_iter().enumerate().take(n) {
            keep[x] = c >= self.minsup;
            if keep[x] {
                frequent.push((x as u32, c));
            }
        }
        if frequent.is_empty() {
            return Ok(());
        }
        self.descend(&frequent, prefix, sink, depth + 1, |sub| {
            for i in 0..db.num_segments() {
                sub.project(&db.load_ranks(i, n)?.retain_ranks(|x| keep[x as usize]))?;
            }
            Ok(())
        })
    }

    /// Writes one spill level with `project`, then emits each
    /// `(rank, support)` in `frequent` under `prefix` and mines that
    /// rank's partition at `depth`.
    fn descend(
        &mut self,
        frequent: &[(u32, u64)],
        prefix: &mut Vec<Item>,
        sink: &mut dyn PatternSink,
        depth: usize,
        project: impl FnOnce(&mut Spill) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut spill = Spill::new(self.flist.len())?;
        project(&mut spill)?;
        self.report.disk_bytes += spill.seal()?;
        for &(x, c) in frequent {
            prefix.push(self.flist.item(x));
            sink.emit(prefix, c);
            self.mine_partition(&spill, x, prefix, sink, depth)?;
            prefix.pop();
        }
        Ok(())
    }
}

/// One level of parallel projection: a private temp directory holding
/// one segment store per rank (files `p{rank}-seg-NNNNNN.ggs`), written
/// through [`SegmentWriter`]s and, once sealed, read back through
/// [`SegmentedDb`]s. Removed on drop.
struct Spill {
    dir: PathBuf,
    writers: Vec<Option<SegmentWriter>>,
    stores: Vec<Option<SegmentedDb>>,
}

impl Spill {
    /// An empty level of `num_ranks` partitions under a fresh
    /// process-private temp directory.
    fn new(num_ranks: usize) -> io::Result<Self> {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gogreen-spill-{}-{}", std::process::id(), seq));
        std::fs::create_dir_all(&dir)?;
        let writers = (0..num_ranks).map(|_| None).collect();
        Ok(Spill { dir, writers, stores: Vec::new() })
    }

    /// Partition `r`'s writer, created on its first record.
    fn writer(&mut self, r: u32) -> &mut SegmentWriter {
        self.writers[r as usize].get_or_insert_with(|| {
            SegmentWriter::fresh(self.dir.clone(), format!("p{r}-"), PARTITION_SEGMENT_BYTES)
        })
    }

    /// Seals every partition and opens it for reading; returns the
    /// segment bytes written.
    fn seal(&mut self) -> io::Result<u64> {
        let mut bytes = 0;
        for slot in &mut self.writers {
            let store = match slot.take() {
                Some(mut w) => {
                    w.seal()?;
                    bytes += w.bytes_written();
                    Some(w.into_db()?)
                }
                None => None,
            };
            self.stores.push(store);
        }
        Ok(bytes)
    }

    /// The sealed store of partition `r`; `None` when nothing was
    /// projected onto `r`.
    fn store(&self, r: u32) -> Option<&SegmentedDb> {
        self.stores[r as usize].as_ref()
    }

    /// Parallel projection of `rdb`: writes each group and row onto
    /// *every* rank it holds.
    fn project(&mut self, rdb: &CompressedRankDb) -> io::Result<()> {
        for g in 0..rdb.num_groups() {
            self.project_group(rdb.group_pattern(g), rdb.group_outliers(g), rdb.group_bare(g))?;
        }
        for t in rdb.plain() {
            for (i, &r) in t[..t.len() - 1].iter().enumerate() {
                self.writer(r).push_row(&t[i + 1..])?;
            }
        }
        Ok(())
    }

    /// Projects one group. On a pattern rank the whole group follows, on
    /// an outlier rank only the members holding it; either way the
    /// followers carry the pattern and their outlier rows past that
    /// rank, as ONE group per partition — the pattern is written once
    /// per (partition, group), not once per member.
    fn project_group(
        &mut self,
        pattern: &[u32],
        outliers: TupleSlices<'_>,
        bare: u64,
    ) -> io::Result<()> {
        for (k, &p) in pattern.iter().enumerate() {
            let mut followers = (bare, CsrTuples::new());
            for o in outliers.iter() {
                match o.partition_point(|&x| x <= p) {
                    cut if cut < o.len() => followers.1.push_row(&o[cut..]),
                    _ => followers.0 += 1,
                }
            }
            self.push_followers(p, &pattern[k + 1..], followers)?;
        }
        let mut by_rank: FxHashMap<u32, (u64, CsrTuples<u32>)> = FxHashMap::default();
        for o in outliers.iter() {
            for (j, &x) in o.iter().enumerate() {
                let slot = by_rank.entry(x).or_default();
                match &o[j + 1..] {
                    [] => slot.0 += 1,
                    rest => slot.1.push_row(rest),
                }
            }
        }
        let mut ranks: Vec<u32> = by_rank.keys().copied().collect();
        ranks.sort_unstable();
        for x in ranks {
            let followers = by_rank.remove(&x).expect("collected above");
            self.push_followers(x, &pattern[pattern.partition_point(|&p| p <= x)..], followers)?;
        }
        Ok(())
    }

    /// Writes a group's followers on rank `r`: a group over the
    /// `residual` pattern, or plain rows once the pattern is used up
    /// (bare members then hold nothing past `r`).
    fn push_followers(
        &mut self,
        r: u32,
        residual: &[u32],
        (bare, rows): (u64, CsrTuples<u32>),
    ) -> io::Result<()> {
        if residual.is_empty() {
            rows.iter().try_for_each(|row| self.writer(r).push_row(row))
        } else {
            self.writer(r).push_group(residual, rows.as_slices(), bare)
        }
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_core::compress::Compressor;
    use gogreen_core::utility::Strategy;
    use gogreen_miners::mine_apriori;

    #[test]
    fn both_drivers_exact_under_any_budget() {
        // The paper's example, and a database whose compression makes
        // groups that respills must project group by group. 400 and
        // 300 bytes force one spill level; 120 and 100 nested ones.
        let grouped: &[&[u32]] =
            &[&[1, 2, 3, 4], &[1, 2, 3, 5], &[1, 2, 3], &[1, 2, 3, 4, 5], &[4, 5], &[2, 4, 5]];
        for db in [
            TransactionDb::paper_example(),
            TransactionDb::from_rows(grouped),
            TransactionDb::new(),
        ] {
            let fp_old = mine_apriori(&db, MinSupport::Absolute(3));
            let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
            for bytes in [usize::MAX, 400, 300, 120, 100] {
                let budget = MemoryBudget::bytes(bytes);
                for minsup in 1..=4 {
                    let xi = MinSupport::Absolute(minsup);
                    let want = mine_apriori(&db, xi);
                    let (hm, _) = LimitedHMine::new(budget).mine(&db, xi).unwrap();
                    let (rec, _) = LimitedRecycledHMine::new(budget).mine(&cdb, xi).unwrap();
                    assert!(hm.same_patterns_as(&want), "H-Mine @ {bytes} B, ξ {minsup}");
                    assert!(rec.same_patterns_as(&want), "HM-MCP @ {bytes} B, ξ {minsup}");
                }
            }
        }
    }

    #[test]
    fn reports_count_spills_only_under_pressure() {
        let db = TransactionDb::paper_example();
        let mine = |bytes| {
            LimitedHMine::new(MemoryBudget::bytes(bytes)).mine(&db, MinSupport::Absolute(2))
        };
        assert_eq!(mine(usize::MAX).unwrap().1, LimitedReport::default());
        let report = mine(64).unwrap().1;
        assert!(report.spills >= 1 && report.disk_bytes > 0 && report.max_depth >= 1, "{report:?}");
    }

    #[test]
    fn spill_levels_are_per_rank_segment_stores() {
        // One group over ranks {0, 2} with an outlier row [3], then
        // 100k rows [0, k] whose projections onto rank 0 overflow three
        // 256 KiB segments; nothing follows a row's last rank.
        let ranks = 1001;
        let mut rdb = CompressedRankDb::empty(ranks);
        rdb.push_group(&[0, 2], [&[3u32][..]], 1);
        for k in 0..100_000u32 {
            rdb.push_plain(&[0, 1 + k % 1000]);
        }
        let mut spill = Spill::new(ranks).unwrap();
        spill.project(&rdb).unwrap();
        assert!(spill.seal().unwrap() > 0);
        let db = spill.store(0).unwrap();
        assert!(db.num_segments() >= 3, "{} segments", db.num_segments());
        let mut got = CompressedRankDb::empty(ranks);
        for i in 0..db.num_segments() {
            got.append(&db.load_ranks(i, ranks).unwrap());
        }
        // Rank 0 keeps the group under its residual pattern [2].
        assert_eq!((got.group_pattern(0), got.group_bare(0), got.num_groups()), (&[2][..], 1, 1));
        assert!(got.plain().iter().enumerate().all(|(k, t)| t == [1 + k as u32 % 1000]));
        // Rank 2 used the pattern up: the outlier suffix goes plain.
        let two = spill.store(2).unwrap().load_ranks(0, ranks).unwrap();
        assert_eq!((two.num_groups(), two.plain().row(0)), (0, &[3][..]));
        assert!(spill.store(3).is_none());
        let dir = spill.dir.clone();
        drop(spill);
        assert!(!dir.exists(), "the spill directory outlives its level");
    }
}
