//! The compressed database (paper §3.1, Table 2).
//!
//! A [`CompressedDb`] partitions the tuples of the original database into
//! *groups* — tuples covered by the same recycled pattern, stored as the
//! pattern (once) plus each member's *outlying items* — and a residue of
//! *plain* tuples no pattern covered. Compression is lossless:
//! [`CompressedDb::reconstruct`] returns the original tuple multiset.
//!
//! For mining, the item-space structure is re-encoded against an F-list
//! into a [`CompressedRankDb`], mirroring how plain databases become
//! [`gogreen_data::projected::RankDb`]s. Both representations keep their
//! tuple lists in flat CSR storage ([`CsrTuples`]): the rank database is
//! three CSR sections — group pattern heads, outlier member rows
//! (concatenated group by group, delimited by `outlier_start`), and the
//! plain residue — so engines receive `&[u32]` row slices of shared
//! buffers and whole-database counting sweeps one allocation per section.

use gogreen_data::{CsrTuples, FList, Item, Transaction, TransactionDb, TupleSlices};
use gogreen_util::pool::{par_chunks, Parallelism};
use gogreen_util::HeapSize;

/// One compression group: a pattern and its member tuples' outlying items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// The covering pattern, sorted ascending by item id. Never empty.
    pattern: Box<[Item]>,
    /// Outlying items (sorted ascending) of members that have any.
    outliers: CsrTuples<Item>,
    /// Members whose tuple *is* the pattern (no outlying items).
    bare: u32,
}

impl Group {
    /// Creates a group. `pattern` and each outlier list must be sorted
    /// ascending; outlier lists must be non-empty and disjoint from the
    /// pattern.
    pub fn new(pattern: Vec<Item>, outliers: Vec<Vec<Item>>, bare: u32) -> Self {
        let outliers: CsrTuples<Item> = outliers.into_iter().collect::<CsrTuples<Item>>();
        Self::from_csr(pattern, outliers, bare)
    }

    /// [`Group::new`] from outlier rows already in CSR form.
    pub fn from_csr(pattern: Vec<Item>, outliers: CsrTuples<Item>, bare: u32) -> Self {
        debug_assert!(!pattern.is_empty());
        debug_assert!(pattern.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(outliers.iter().all(|o| {
            !o.is_empty()
                && o.windows(2).all(|w| w[0] < w[1])
                && o.iter().all(|it| pattern.binary_search(it).is_err())
        }));
        Group { pattern: pattern.into_boxed_slice(), outliers, bare }
    }

    /// The group pattern.
    pub fn pattern(&self) -> &[Item] {
        &self.pattern
    }

    /// Outlying-item rows of members that have any, as a CSR view.
    pub fn outliers(&self) -> TupleSlices<'_, Item> {
        self.outliers.as_slices()
    }

    /// Number of member tuples (the group count the miners exploit).
    pub fn count(&self) -> u64 {
        self.outliers.len() as u64 + u64::from(self.bare)
    }

    /// Members without outlying items.
    pub fn bare(&self) -> u32 {
        self.bare
    }
}

/// A database compressed with recycled frequent patterns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompressedDb {
    groups: Vec<Group>,
    plain: CsrTuples<Item>,
    original_items: usize,
}

/// Size/ratio summary of a compressed database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdbStats {
    /// Tuples represented (groups' members + plain).
    pub num_tuples: usize,
    /// Number of groups.
    pub num_groups: usize,
    /// Tuples covered by some group.
    pub covered_tuples: usize,
    /// Item occurrences stored: each group pattern once, plus all
    /// outlying items, plus plain tuples.
    pub compressed_size: usize,
    /// Item occurrences of the original database.
    pub original_size: usize,
    /// Mean heap bytes per represented tuple of the compressed storage;
    /// 0 for the empty database. Compare against
    /// [`gogreen_data::DbStats::bytes_per_tuple`] of the source database
    /// for the in-memory (as opposed to item-count) compression ratio.
    pub bytes_per_tuple: f64,
}

impl CdbStats {
    /// `S_c / S_o` — the paper's Table 3 ratio. Smaller is better
    /// compression; 1.0 means nothing was compressed.
    pub fn ratio(&self) -> f64 {
        if self.original_size == 0 {
            1.0
        } else {
            self.compressed_size as f64 / self.original_size as f64
        }
    }
}

impl CompressedDb {
    /// Assembles a compressed database from parts. `original_items` is
    /// the item-occurrence count of the uncompressed database (for the
    /// compression ratio).
    pub fn new(groups: Vec<Group>, plain: CsrTuples<Item>, original_items: usize) -> Self {
        CompressedDb { groups, plain, original_items }
    }

    /// [`CompressedDb::new`] with the plain residue given as owned
    /// transactions.
    pub fn from_parts(groups: Vec<Group>, plain: Vec<Transaction>, original_items: usize) -> Self {
        let mut csr =
            CsrTuples::with_capacity(plain.len(), plain.iter().map(Transaction::len).sum());
        for t in &plain {
            csr.push_row(t.items());
        }
        CompressedDb { groups, plain: csr, original_items }
    }

    /// Wraps a plain database with no compression at all (every tuple in
    /// the plain residue). Recycling miners on such a "compressed"
    /// database behave exactly like their non-recycling counterparts —
    /// used as a correctness bridge in tests. The CSR tuple storage is
    /// cloned wholesale; no per-tuple work.
    pub fn uncompressed(db: &TransactionDb) -> Self {
        let plain = db.csr().clone();
        let original_items = plain.total_elems();
        CompressedDb { groups: Vec::new(), plain, original_items }
    }

    /// The groups.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The uncovered tuples, as a CSR view.
    pub fn plain(&self) -> TupleSlices<'_, Item> {
        self.plain.as_slices()
    }

    /// Total number of tuples represented (= original `|DB|`).
    pub fn num_tuples(&self) -> usize {
        self.groups.iter().map(|g| g.count() as usize).sum::<usize>() + self.plain.len()
    }

    /// Size/ratio summary.
    pub fn stats(&self) -> CdbStats {
        let covered: usize = self.groups.iter().map(|g| g.count() as usize).sum();
        let compressed_size: usize =
            self.groups.iter().map(|g| g.pattern.len() + g.outliers.total_elems()).sum::<usize>()
                + self.plain.total_elems();
        let num_tuples = covered + self.plain.len();
        CdbStats {
            num_tuples,
            num_groups: self.groups.len(),
            covered_tuples: covered,
            compressed_size,
            original_size: self.original_items,
            bytes_per_tuple: if num_tuples == 0 {
                0.0
            } else {
                self.heap_size() as f64 / num_tuples as f64
            },
        }
    }

    /// Per-item supports, computed the compressed way (paper §3.1): each
    /// group pattern item is counted once with the group count; outlying
    /// and plain items per occurrence.
    pub fn item_supports(&self) -> Vec<u64> {
        self.item_supports_par(Parallelism::serial())
    }

    /// [`Self::item_supports`] with the counting pass chunked across
    /// worker threads. Summing per-chunk `u64` count vectors is exact
    /// and order-independent, so the result is identical to the serial
    /// pass for any thread count. The plain residue is chunked over the
    /// flat item buffer directly — occurrence counting ignores row
    /// boundaries, so the split needs no offset arithmetic at all.
    pub fn item_supports_par(&self, par: Parallelism) -> Vec<u64> {
        let mut max_id: Option<u32> = None;
        let mut consider = |id: Option<u32>| {
            if let Some(last) = id {
                max_id = Some(max_id.map_or(last, |m| m.max(last)));
            }
        };
        for g in &self.groups {
            consider(g.pattern.last().map(|it| it.id()));
            consider(g.outliers.flat().iter().map(|it| it.id()).max());
        }
        consider(self.plain.flat().iter().map(|it| it.id()).max());
        let slots = max_id.map_or(0, |m| m as usize + 1);
        let mut counts = vec![0u64; slots];
        if par.for_items(self.groups.len().max(self.plain.len())) <= 1 {
            for g in &self.groups {
                count_group(g, &mut counts);
            }
            for &it in self.plain.flat() {
                counts[it.index()] += 1;
            }
            return counts;
        }
        let group_parts = par_chunks(par, &self.groups, |_, chunk| {
            let mut local = vec![0u64; slots];
            for g in chunk {
                count_group(g, &mut local);
            }
            local
        });
        let plain_parts = par_chunks(par, self.plain.flat(), |_, chunk| {
            let mut local = vec![0u64; slots];
            for &it in chunk {
                local[it.index()] += 1;
            }
            local
        });
        for (_, local) in group_parts.into_iter().chain(plain_parts) {
            for (slot, c) in counts.iter_mut().zip(local) {
                *slot += c;
            }
        }
        counts
    }

    /// Builds the F-list of the represented database at `min_support`
    /// without decompressing.
    pub fn flist(&self, min_support: u64) -> FList {
        FList::from_counts(&self.item_supports(), min_support)
    }

    /// Decompresses back to the original tuple multiset (tuple order is
    /// not preserved). Compression must be lossless; the property tests
    /// assert `reconstruct()` equals the source database as a multiset.
    pub fn reconstruct(&self) -> TransactionDb {
        let mut out = Vec::with_capacity(self.num_tuples());
        for g in &self.groups {
            for o in g.outliers.iter() {
                let mut items = Vec::with_capacity(g.pattern.len() + o.len());
                items.extend_from_slice(&g.pattern);
                items.extend_from_slice(o);
                out.push(Transaction::new(items));
            }
            for _ in 0..g.bare {
                out.push(Transaction::new(g.pattern.to_vec()));
            }
        }
        out.extend(self.plain.iter().map(|t| Transaction::from_sorted_unchecked(t.to_vec())));
        TransactionDb::from_transactions(out)
    }

    /// Re-encodes into rank space against `flist` for mining — one pass,
    /// straight into the rank database's CSR sections. Each pattern /
    /// outlier / plain tuple is rank-encoded into an open CSR row and
    /// committed or discarded in place; no intermediate per-tuple `Vec`
    /// is ever allocated.
    pub fn to_ranks(&self, flist: &FList) -> CompressedRankDb {
        let mut out = CompressedRankDb::empty(flist.len());
        for g in &self.groups {
            if flist.encode_push(&g.pattern, &mut out.patterns) == 0 {
                // Every pattern item infrequent: members degrade to plain
                // tuples of their frequent outliers.
                out.patterns.discard_row();
                for o in g.outliers.iter() {
                    if flist.encode_push(o, &mut out.plain) == 0 {
                        out.plain.discard_row();
                    } else {
                        out.plain.commit_row();
                    }
                }
                continue;
            }
            out.patterns.commit_row();
            let mut bare = u64::from(g.bare);
            for o in g.outliers.iter() {
                if flist.encode_push(o, &mut out.outliers) == 0 {
                    out.outliers.discard_row();
                    bare += 1;
                } else {
                    out.outliers.commit_row();
                }
            }
            out.close_group(bare);
        }
        for t in self.plain.iter() {
            if flist.encode_push(t, &mut out.plain) == 0 {
                out.plain.discard_row();
            } else {
                out.plain.commit_row();
            }
        }
        out
    }
}

/// Counts one group into `counts`: pattern items once with the group
/// count, outlying items per occurrence.
fn count_group(g: &Group, counts: &mut [u64]) {
    let c = g.count();
    for it in g.pattern.iter() {
        counts[it.index()] += c;
    }
    for &it in g.outliers.flat() {
        counts[it.index()] += 1;
    }
}

impl HeapSize for CompressedDb {
    fn heap_size(&self) -> usize {
        let groups: usize = self
            .groups
            .iter()
            .map(|g| g.pattern.len() * std::mem::size_of::<Item>() + g.outliers.heap_size())
            .sum();
        groups + self.plain.heap_size() + self.groups.capacity() * std::mem::size_of::<Group>()
    }
}

/// A compressed database in rank space — the input of every recycling
/// miner.
///
/// Storage is three flat CSR sections plus two per-group scalars:
///
/// ```text
/// patterns      row g            = group g's pattern head (ranks, asc)
/// outliers      rows [s_g, s_{g+1})  where s = outlier_start
///                                = group g's outlier member rows
/// bare[g]                        = members with no frequent outliers
/// plain         rows             = tuples covered by no group
/// ```
///
/// Everything engines read comes out as `&[u32]` slices of these three
/// buffers (see [`gogreen_data::GroupedSource`]); a whole-section scan —
/// F-list counting, H-Mine struct sizing — walks one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedRankDb {
    /// Group pattern heads, one row per group. Rows never empty.
    pub(crate) patterns: CsrTuples<u32>,
    /// All groups' outlier member rows, concatenated in group order.
    pub(crate) outliers: CsrTuples<u32>,
    /// Row partition of `outliers` by group: group `g` owns rows
    /// `outlier_start[g] .. outlier_start[g + 1]`. Length = groups + 1.
    pub(crate) outlier_start: Vec<u32>,
    /// Per-group count of members with no frequent outlying items.
    pub(crate) bare: Vec<u64>,
    /// Plain tuples (rank lists, ascending, non-empty).
    pub(crate) plain: CsrTuples<u32>,
    /// Rank-space size (F-list length).
    pub(crate) num_ranks: usize,
}

impl Default for CompressedRankDb {
    fn default() -> Self {
        Self::empty(0)
    }
}

impl CompressedRankDb {
    /// An empty rank database over `num_ranks` rank slots.
    pub fn empty(num_ranks: usize) -> Self {
        CompressedRankDb {
            patterns: CsrTuples::new(),
            outliers: CsrTuples::new(),
            outlier_start: vec![0],
            bare: Vec::new(),
            plain: CsrTuples::new(),
            num_ranks,
        }
    }

    /// Reassembles a rank database from its raw sections — the inverse
    /// of [`CompressedRankDb::raw_parts`], and how a grouped on-disk
    /// segment loads: a move, not a rebuild. Checks every shape invariant
    /// the engines index by and names the one violated.
    pub fn from_raw_parts(
        patterns: CsrTuples<u32>,
        outliers: CsrTuples<u32>,
        outlier_start: Vec<u32>,
        bare: Vec<u64>,
        plain: CsrTuples<u32>,
        num_ranks: usize,
    ) -> Result<Self, &'static str> {
        let partitioned = outlier_start.len() == patterns.len() + 1
            && outlier_start[0] == 0
            && outlier_start.last() == Some(&(outliers.len() as u32))
            && outlier_start.windows(2).all(|w| w[0] <= w[1]);
        if bare.len() != patterns.len() || !partitioned {
            return Err("group sections disagree");
        }
        let rows_ok = |c: &CsrTuples<u32>| {
            c.iter().all(|r| {
                r.windows(2).all(|w| w[0] < w[1])
                    && r.last().is_some_and(|&x| (x as usize) < num_ranks)
            })
        };
        if !rows_ok(&patterns) || !rows_ok(&outliers) || !rows_ok(&plain) {
            return Err("a row is empty, unsorted or outside the rank range");
        }
        Ok(CompressedRankDb { patterns, outliers, outlier_start, bare, plain, num_ranks })
    }

    /// The raw sections `(patterns, outliers, outlier_start, bare, plain)`.
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> (&CsrTuples<u32>, &CsrTuples<u32>, &[u32], &[u64], &CsrTuples<u32>) {
        (&self.patterns, &self.outliers, &self.outlier_start, &self.bare, &self.plain)
    }

    /// Appends every group and plain row of `other`, which must share
    /// this database's rank space.
    pub fn append(&mut self, other: &CompressedRankDb) {
        for g in 0..other.num_groups() {
            self.push_group(other.group_pattern(g), other.group_outliers(g), other.group_bare(g));
        }
        for t in other.plain() {
            self.push_plain(t);
        }
    }

    /// Appends a group. `pattern` must be non-empty ascending ranks; each
    /// outlier row non-empty ascending ranks disjoint in meaning (the
    /// member's extra items). This is the public construction path for
    /// callers outside the crate.
    pub fn push_group<'a>(
        &mut self,
        pattern: &[u32],
        outliers: impl IntoIterator<Item = &'a [u32]>,
        bare: u64,
    ) {
        debug_assert!(!pattern.is_empty() && pattern.windows(2).all(|w| w[0] < w[1]));
        self.patterns.push_row(pattern);
        for o in outliers {
            debug_assert!(!o.is_empty() && o.windows(2).all(|w| w[0] < w[1]));
            self.outliers.push_row(o);
        }
        self.close_group(bare);
    }

    /// Appends a plain tuple (non-empty ascending ranks).
    pub fn push_plain(&mut self, ranks: &[u32]) {
        debug_assert!(!ranks.is_empty() && ranks.windows(2).all(|w| w[0] < w[1]));
        self.plain.push_row(ranks);
    }

    /// Seals the group whose pattern row and outlier rows were just
    /// pushed: records the outlier partition boundary and the bare count.
    pub(crate) fn close_group(&mut self, bare: u64) {
        self.outlier_start.push(self.outliers.len() as u32);
        self.bare.push(bare);
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.patterns.len()
    }

    /// Rank-space size (F-list length at encoding time).
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// The pattern head of group `g`.
    pub fn group_pattern(&self, g: usize) -> &[u32] {
        self.patterns.row(g)
    }

    /// The outlier member rows of group `g`, as a CSR window.
    pub fn group_outliers(&self, g: usize) -> TupleSlices<'_> {
        self.outliers
            .as_slices()
            .range(self.outlier_start[g] as usize, self.outlier_start[g + 1] as usize)
    }

    /// Members of group `g` with no frequent outlying items.
    pub fn group_bare(&self, g: usize) -> u64 {
        self.bare[g]
    }

    /// Member count of group `g`.
    pub fn group_count(&self, g: usize) -> u64 {
        (self.outlier_start[g + 1] - self.outlier_start[g]) as u64 + self.bare[g]
    }

    /// The plain residue, as a CSR window.
    pub fn plain(&self) -> TupleSlices<'_> {
        self.plain.as_slices()
    }

    /// Returns a copy keeping only ranks accepted by `keep` — the
    /// succinct-constraint pushdown over a compressed database. Groups
    /// whose pattern empties out degrade to plain tuples; supports of
    /// surviving ranks are unchanged (tuples are never removed, only
    /// shortened). One pass: filtered rows are built in place in the
    /// output CSR sections and committed or discarded.
    pub fn retain_ranks(&self, keep: impl Fn(u32) -> bool) -> CompressedRankDb {
        let filter_push = |src: &[u32], dst: &mut CsrTuples<u32>| -> usize {
            for &r in src {
                if keep(r) {
                    dst.push_elem(r);
                }
            }
            dst.open_len()
        };
        let mut out = CompressedRankDb::empty(self.num_ranks);
        for g in 0..self.num_groups() {
            if filter_push(self.group_pattern(g), &mut out.patterns) == 0 {
                out.patterns.discard_row();
                for o in self.group_outliers(g).iter() {
                    if filter_push(o, &mut out.plain) == 0 {
                        out.plain.discard_row();
                    } else {
                        out.plain.commit_row();
                    }
                }
                continue;
            }
            out.patterns.commit_row();
            let mut bare = self.bare[g];
            for o in self.group_outliers(g).iter() {
                if filter_push(o, &mut out.outliers) == 0 {
                    out.outliers.discard_row();
                    bare += 1;
                } else {
                    out.outliers.commit_row();
                }
            }
            out.close_group(bare);
        }
        for t in self.plain.iter() {
            if filter_push(t, &mut out.plain) == 0 {
                out.plain.discard_row();
            } else {
                out.plain.commit_row();
            }
        }
        out
    }

    /// Total item occurrences stored (patterns once + outliers + plain).
    pub fn stored_occurrences(&self) -> usize {
        self.patterns.total_elems() + self.outliers.total_elems() + self.plain.total_elems()
    }

    /// Total outlier member rows across all groups.
    pub fn group_outlier_rows(&self) -> usize {
        self.outliers.len()
    }

    /// Total outlier item occurrences across all groups.
    pub fn group_outlier_items(&self) -> usize {
        self.outliers.total_elems()
    }

    /// Total pattern-head item occurrences across all groups.
    pub fn pattern_items(&self) -> usize {
        self.patterns.total_elems()
    }
}

impl HeapSize for CompressedRankDb {
    fn heap_size(&self) -> usize {
        self.patterns.heap_size()
            + self.outliers.heap_size()
            + self.outlier_start.heap_size()
            + self.bare.heap_size()
            + self.plain.heap_size()
    }
}

/// The real grouped substrate of the unified mining engines: the
/// recycling miners instantiate `gogreen_miners::engine::{hm, fp, tp}`
/// with this, the raw miners with the degenerate
/// [`gogreen_data::PlainRanks`] view.
impl gogreen_data::GroupedSource for CompressedRankDb {
    const GROUPED: bool = true;

    fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    fn num_groups(&self) -> usize {
        CompressedRankDb::num_groups(self)
    }

    fn group_pattern(&self, g: usize) -> &[u32] {
        CompressedRankDb::group_pattern(self, g)
    }

    fn group_outliers(&self, g: usize) -> TupleSlices<'_> {
        CompressedRankDb::group_outliers(self, g)
    }

    fn group_bare(&self, g: usize) -> u64 {
        CompressedRankDb::group_bare(self, g)
    }

    fn plain(&self) -> TupleSlices<'_> {
        CompressedRankDb::plain(self)
    }

    fn group_count(&self, g: usize) -> u64 {
        CompressedRankDb::group_count(self, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::Item;

    fn items(ids: &[u32]) -> Vec<Item> {
        ids.iter().map(|&i| Item(i)).collect()
    }

    /// The paper's Table 2: groups fgc (tuples 100, 200, 300) and ae
    /// (tuples 400, 500).
    fn paper_cdb() -> CompressedDb {
        // fgc = {2,5,6}; outliers 100: a,d,e = {0,3,4}; 200: b,d = {1,3};
        // 300: e = {4}.
        let g1 =
            Group::new(items(&[2, 5, 6]), vec![items(&[0, 3, 4]), items(&[1, 3]), items(&[4])], 0);
        // ae = {0,4}; outliers 400: c,i = {2,8}; 500: h = {7}.
        let g2 = Group::new(items(&[0, 4]), vec![items(&[2, 8]), items(&[7])], 0);
        CompressedDb::new(vec![g1, g2], CsrTuples::new(), 22)
    }

    fn rows(v: TupleSlices<'_>) -> Vec<Vec<u32>> {
        v.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn group_count_includes_bare() {
        let g = Group::new(items(&[1, 2]), vec![items(&[3])], 2);
        assert_eq!(g.count(), 3);
        assert_eq!(g.bare(), 2);
    }

    #[test]
    fn paper_cdb_reconstructs_table_1() {
        let cdb = paper_cdb();
        let rebuilt = cdb.reconstruct();
        let original = TransactionDb::paper_example();
        let mut a: Vec<Vec<Item>> = rebuilt.iter().map(|t| t.to_vec()).collect();
        let mut b: Vec<Vec<Item>> = original.iter().map(|t| t.to_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn item_supports_match_original() {
        let cdb = paper_cdb();
        let original = TransactionDb::paper_example();
        assert_eq!(cdb.item_supports(), original.item_supports());
    }

    #[test]
    fn parallel_item_supports_match_serial() {
        let cdb = paper_cdb();
        for threads in [2, 3, 8] {
            assert_eq!(
                cdb.item_supports_par(Parallelism::threads(threads)),
                cdb.item_supports(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn stats_count_compressed_units() {
        let cdb = paper_cdb();
        let s = cdb.stats();
        assert_eq!(s.num_tuples, 5);
        assert_eq!(s.num_groups, 2);
        assert_eq!(s.covered_tuples, 5);
        // fgc(3) + outliers(3+2+1) + ae(2) + outliers(2+1) = 14.
        assert_eq!(s.compressed_size, 14);
        assert_eq!(s.original_size, 22);
        assert!((s.ratio() - 14.0 / 22.0).abs() < 1e-12);
        assert!(s.bytes_per_tuple > 0.0);
    }

    #[test]
    fn uncompressed_has_no_groups_and_ratio_one() {
        let db = TransactionDb::paper_example();
        let cdb = CompressedDb::uncompressed(&db);
        assert!(cdb.groups().is_empty());
        assert_eq!(cdb.num_tuples(), 5);
        assert_eq!(cdb.stats().ratio(), 1.0);
        assert_eq!(cdb.item_supports(), db.item_supports());
    }

    #[test]
    fn to_ranks_reproduces_paper_table_2_fourth_column() {
        // ξ_new = 2: ranks by (support, id): d:2→0; a,f,g:3→1,2,3;
        // c,e:4→4,5 (c's id 2 < e's id 4). The paper's F-list order
        // differs only in tie-breaks, which do not affect results.
        let cdb = paper_cdb();
        let fl = cdb.flist(2);
        let r = cdb.to_ranks(&fl);
        assert_eq!(r.num_groups(), 2);
        // Group fgc -> ranks {f,g,c} = {2,3,4}.
        assert_eq!(r.group_pattern(0), &[2, 3, 4]);
        // Outliers: 100: d,a,e -> {0,1,5}; 200: d (b infrequent) -> {0};
        // 300: e -> {5}.
        assert_eq!(rows(r.group_outliers(0)), vec![vec![0, 1, 5], vec![0], vec![5]]);
        assert_eq!(r.group_bare(0), 0);
        // Group ae -> {1,5}; outliers 400: c -> {4}; 500: h infrequent ->
        // bare.
        assert_eq!(r.group_pattern(1), &[1, 5]);
        assert_eq!(rows(r.group_outliers(1)), vec![vec![4]]);
        assert_eq!(r.group_bare(1), 1);
        assert_eq!(r.group_count(1), 2);
        assert!(r.plain().is_empty());
        // fgc(3) + outliers(3+1+1) + ae(2) + outlier(1) = 11.
        assert_eq!(r.stored_occurrences(), 11);
    }

    #[test]
    fn retain_ranks_filters_and_degrades() {
        let mut rdb = CompressedRankDb::empty(4);
        rdb.push_group(&[1, 3], [&[0u32, 2] as &[u32], &[2]], 1);
        rdb.push_group(&[0], [&[2u32, 3] as &[u32]], 0);
        rdb.push_plain(&[0, 2]);
        rdb.push_plain(&[1]);
        // Drop rank 0 everywhere.
        let f = rdb.retain_ranks(|r| r != 0);
        assert_eq!(f.num_groups(), 1);
        assert_eq!(f.group_pattern(0), &[1, 3]);
        assert_eq!(rows(f.group_outliers(0)), vec![vec![2], vec![2]]);
        assert_eq!(f.group_bare(0), 1);
        // Second group's pattern emptied: its member became plain.
        let plain = rows(f.plain());
        assert!(plain.contains(&vec![2, 3]));
        // Plain tuple [0,2] -> [2]; [1] survives.
        assert!(plain.contains(&vec![2]));
        assert!(plain.contains(&vec![1]));
        assert_eq!(plain.len(), 3);
    }

    #[test]
    fn retain_ranks_can_empty_everything() {
        let mut rdb = CompressedRankDb::empty(1);
        rdb.push_group(&[0], std::iter::empty(), 3);
        rdb.push_plain(&[0]);
        let f = rdb.retain_ranks(|_| false);
        assert_eq!(f.num_groups(), 0);
        assert!(f.plain().is_empty());
    }

    #[test]
    fn retain_ranks_member_with_empty_filtered_outliers_becomes_bare() {
        let mut rdb = CompressedRankDb::empty(2);
        rdb.push_group(&[1], [&[0u32] as &[u32]], 0);
        let f = rdb.retain_ranks(|r| r == 1);
        assert_eq!(f.num_groups(), 1);
        assert!(f.group_outliers(0).is_empty());
        assert_eq!(f.group_bare(0), 1);
        assert_eq!(f.group_count(0), 1);
    }

    #[test]
    fn to_ranks_degrades_infrequent_patterns_to_plain() {
        // A group whose pattern is entirely infrequent at the new
        // threshold: members must survive as plain tuples.
        let g = Group::new(items(&[9]), vec![items(&[1, 2]), items(&[1])], 1);
        let cdb = CompressedDb::new(vec![g], CsrTuples::new(), 7);
        // Supports: 9 -> 3, 1 -> 2, 2 -> 1. At minsup 2: only item 1... and 9.
        let fl = cdb.flist(2);
        assert!(fl.is_frequent(Item(9)));
        // Force-pick an flist where 9 is infrequent: minsup 4.
        let fl4 = cdb.flist(4);
        assert!(!fl4.is_frequent(Item(9)));
        let r = cdb.to_ranks(&fl4);
        assert_eq!(r.num_groups(), 0);
        assert!(r.plain().is_empty()); // nothing else frequent either
                                       // At minsup 2 with 9 frequent: group survives.
        let r2 = cdb.to_ranks(&fl);
        assert_eq!(r2.num_groups(), 1);
        assert_eq!(r2.group_count(0), 3);
        // Outlier {1,2} keeps 1 (2 infrequent); outlier {1} stays; bare 1.
        assert_eq!(r2.group_outliers(0).len(), 2);
    }

    #[test]
    fn raw_parts_round_trip_and_append_concatenates() {
        let rdb = paper_cdb().to_ranks(&paper_cdb().flist(1));
        let (p, o, s, b, pl) = rdb.raw_parts();
        let back = |n| {
            CompressedRankDb::from_raw_parts(
                p.clone(),
                o.clone(),
                s.to_vec(),
                b.to_vec(),
                pl.clone(),
                n,
            )
        };
        assert_eq!(back(rdb.num_ranks()), Ok(rdb.clone()));
        assert!(back(1).is_err(), "a rank outside the rank space");
        let short_bare = CompressedRankDb::from_raw_parts(
            p.clone(),
            o.clone(),
            s.to_vec(),
            vec![],
            pl.clone(),
            rdb.num_ranks(),
        );
        assert!(short_bare.is_err());
        let mut twice = rdb.clone();
        twice.append(&rdb);
        assert_eq!(twice.num_groups(), 2 * rdb.num_groups());
        assert_eq!(rows(twice.group_outliers(rdb.num_groups())), rows(rdb.group_outliers(0)));
    }
}
