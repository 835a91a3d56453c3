//! Immutable on-disk CSR segments — the out-of-core database substrate.
//!
//! A *segment* is one sealed, checksummed file holding a contiguous run
//! of database tuples in exactly the [`CsrTuples`] layout: a flat
//! element array plus an offsets array, written verbatim. Loading a
//! segment is therefore two bulk array reads straight into the in-memory
//! CSR container — no per-row parsing — and a loaded segment hands the
//! engines the same [`gogreen_data::TupleSlices`] windows an in-memory
//! database would (the layout is mmap-friendly by construction; this
//! implementation reads, it does not map, since the workspace takes no
//! mmap dependency).
//!
//! Each segment additionally carries an **item-support sidecar**: the
//! per-item occurrence counts of its own rows, written at seal time.
//! Whole-database supports — what F-list construction and the cover
//! index need — are the sum of the sidecars, so a mining round reads
//! every *sidecar* cheaply and then makes exactly **one full pass per
//! segment** (the encode or cover pass), which `storage.segments_read`
//! counts. `storage.resident_peak` tracks the largest payload resident
//! at once: segments are loaded one at a time and dropped before the
//! next, so the peak stays bounded by the largest segment, not the
//! database.
//!
//! Lifecycle: **append** rows through a [`SegmentWriter`] (rows
//! accumulate in memory up to the configured segment size) → **seal**
//! (the writer flushes a finished file; sealed files are never modified)
//! → **compact** ([`compact`] merges undersized sealed segments into
//! full-sized ones, e.g. after many small incremental appends).
//!
//! A segment may also carry a **group section** in [`CompressedRankDb`]'s
//! own arrays; a user-data segment has none. A partition the
//! memory-limited drivers ([`crate::limited`]) spill is a store of rank
//! rows plus groups, read back through [`SegmentedDb::load_ranks`]. The
//! sidecar holds per-id *tuple* supports, so a group adds its member
//! count to each of its pattern ids.
//!
//! ## Wire format (version 2)
//!
//! All integers little-endian. A 44-byte header:
//!
//! | bytes | field |
//! |------:|-------|
//! | 0..4  | magic `"GGSG"` |
//! | 4..8  | format version (2) |
//! | 8..32 | counts: plain rows `r`, plain elements, groups `g`, pattern elements, outlier rows `o`, outlier elements |
//! | 32..36| sidecar entry count `s` |
//! | 36..40| CRC-32 of the body |
//! | 40..44| CRC-32 of header bytes 0..40 followed by the sidecar |
//!
//! then the body — `offsets[r+1]`, `data`, `pattern_offsets[g+1]`,
//! `pattern_data`, `bare[g] : u64`, `outlier_start[g+1]`,
//! `outlier_offsets[o+1]`, `outlier_data`, all `u32` unless noted — and
//! `s` sidecar pairs `(id : u32, count : u32)`. A reader checks the file
//! length against the header counts before it allocates anything,
//! [`SegmentedDb::item_supports`] checks the header CRC before it trusts
//! a sidecar count, and a load checks both CRCs and every offset array.

use crate::budget::MemoryBudget;
use crate::crc::{crc32, crc32_parts};
use gogreen_core::cdb::CompressedRankDb;
use gogreen_core::memory::DbShape;
use gogreen_data::{CsrTuples, Item, TransactionDb, TupleSlices};
use gogreen_obs::{histogram, metrics};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Segment file magic.
const MAGIC: [u8; 4] = *b"GGSG";
/// Current format version.
const FORMAT_VERSION: u32 = 2;
/// Header size in bytes; its last word is the header CRC.
const HEADER_BYTES: usize = 44;
const HEADER_CRC_AT: usize = 40;

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn segment_file_name(id: u32) -> String {
    format!("seg-{id:06}.ggs")
}

/// Parses `seg-NNNNNN.ggs` back to its id.
fn parse_segment_id(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?.strip_suffix(".ggs")?.parse().ok()
}

/// Body bytes of a segment of shape `s`, in `u64` so that no header
/// value can overflow it.
fn body_bytes(s: &DbShape) -> u64 {
    let n = |x: usize| x as u64;
    4 * (n(s.rows) + 1 + n(s.elems) + n(s.groups) + 1 + n(s.pattern_elems))
        + 8 * n(s.groups)
        + 4 * (n(s.groups) + 1 + n(s.outlier_rows) + 1 + n(s.outlier_elems))
}

/// One segment's header, read without touching the payload.
#[derive(Debug, Clone)]
struct SegmentMeta {
    path: PathBuf,
    header: [u8; HEADER_BYTES],
    shape: DbShape,
    sidecar_entries: usize,
    body_bytes: usize,
    /// Body plus sidecar bytes — the resident cost of loading it.
    payload_bytes: usize,
}

impl SegmentMeta {
    fn word(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.header[at..at + 4].try_into().unwrap())
    }

    fn check_header_crc(&self, sidecar: &[u8]) -> io::Result<()> {
        let (stored, computed) =
            (self.word(HEADER_CRC_AT), crc32_parts(&[&self.header[..HEADER_CRC_AT], sidecar]));
        if stored != computed {
            return Err(bad_data(format!(
                "{}: header checksum mismatch (stored {stored:#010x}, computed {computed:#010x})",
                self.path.display()
            )));
        }
        Ok(())
    }
}

/// Reads a header and checks it against the file's length.
fn read_header(path: &Path) -> io::Result<SegmentMeta> {
    let mut f = File::open(path)?;
    let file_len = f.metadata()?.len();
    let mut header = [0u8; HEADER_BYTES];
    f.read_exact(&mut header)
        .map_err(|_| bad_data(format!("{}: truncated segment header", path.display())))?;
    if header[0..4] != MAGIC {
        return Err(bad_data(format!("{}: not a segment file (bad magic)", path.display())));
    }
    let w = |i: usize| u32::from_le_bytes(header[4 * i..4 * i + 4].try_into().unwrap()) as usize;
    if w(1) != FORMAT_VERSION as usize {
        let v = w(1);
        return Err(bad_data(format!(
            "{}: unsupported segment format version {v}",
            path.display()
        )));
    }
    let shape = DbShape {
        rows: w(2),
        elems: w(3),
        groups: w(4),
        pattern_elems: w(5),
        outlier_rows: w(6),
        outlier_elems: w(7),
    };
    let body = body_bytes(&shape);
    let expected = HEADER_BYTES as u64 + body + 8 * w(8) as u64;
    if file_len != expected {
        return Err(bad_data(format!(
            "{}: file is {file_len} bytes but its header describes {expected}",
            path.display()
        )));
    }
    let (path, sidecar_entries, body_bytes) = (path.to_owned(), w(8), body as usize);
    let payload_bytes = expected as usize - HEADER_BYTES;
    Ok(SegmentMeta { path, header, shape, sidecar_entries, body_bytes, payload_bytes })
}

/// Builds rows and groups into sealed, immutable segment files under a
/// directory.
///
/// Rows accumulate in an in-memory CSR buffer, groups in a
/// [`CompressedRankDb`]; when the buffer's payload reaches the configured
/// segment size it is sealed to disk and restarts empty — the writer's
/// residency is bounded by one segment regardless of how many rows
/// stream through it.
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    /// File-name prefix: empty for a database store; a spilled
    /// partition's store shares its level's directory under its own.
    prefix: String,
    segment_bytes: usize,
    next_id: u32,
    rows: CsrTuples<u32>,
    groups: CompressedRankDb,
    counts: Vec<u32>,
    /// Ids with a non-zero count: the open segment's sidecar entries.
    distinct: usize,
    /// Headers of the segments this writer sealed.
    sealed: Vec<SegmentMeta>,
}

impl SegmentWriter {
    /// Default segment payload size: 4 MiB, the paper's §5.3 machine
    /// budget.
    pub const DEFAULT_SEGMENT_BYTES: usize = 4 << 20;

    /// Opens `dir` for appending, creating it if needed. New segments
    /// continue after the highest existing id, so appending to a
    /// non-empty store never clobbers sealed files.
    pub fn create(dir: impl AsRef<Path>, segment_bytes: usize) -> io::Result<Self> {
        let dir = dir.as_ref().to_owned();
        std::fs::create_dir_all(&dir)?;
        let next_id = scan_segment_ids(&dir)?.last().map_or(0, |&id| id + 1);
        Ok(SegmentWriter { next_id, ..Self::fresh(dir, String::new(), segment_bytes) })
    }

    /// A writer for a new store whose files are `{prefix}seg-NNNNNN.ggs`
    /// in the existing directory `dir`; touches no file until it seals.
    pub(crate) fn fresh(dir: PathBuf, prefix: String, segment_bytes: usize) -> Self {
        SegmentWriter {
            dir,
            prefix,
            segment_bytes: segment_bytes.max(1),
            next_id: 0,
            rows: CsrTuples::new(),
            groups: CompressedRankDb::default(),
            counts: Vec::new(),
            distinct: 0,
            sealed: Vec::new(),
        }
    }

    /// Appends one tuple (item ids, sorted ascending, duplicate-free),
    /// sealing the open segment first if this row would overflow it.
    pub fn push_row(&mut self, items: &[u32]) -> io::Result<()> {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "rows must be sorted item ids");
        self.make_room((items.len() + 1) * 4)?;
        for &it in items {
            self.count(it, 1);
        }
        self.rows.push_row(items);
        Ok(())
    }

    /// Appends one group (a non-empty ascending `pattern`, its members'
    /// outlier rows and its bare-member count) to the group section.
    pub fn push_group(
        &mut self,
        pattern: &[u32],
        outliers: TupleSlices<'_>,
        bare: u64,
    ) -> io::Result<()> {
        let members = u32::try_from(bare + outliers.len() as u64)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "group too large"))?;
        self.make_room(4 * (pattern.len() + outliers.len() + outliers.total_elems()) + 16)?;
        for &p in pattern {
            self.count(p, members);
        }
        for &x in outliers.flat() {
            self.count(x, 1);
        }
        self.groups.push_group(pattern, outliers, bare);
        Ok(())
    }

    /// Seals the open segment first if `bytes` more would overflow it.
    fn make_room(&mut self, bytes: usize) -> io::Result<()> {
        let open = body_bytes(&self.shape()) as usize + self.distinct * 8;
        let empty = self.rows.is_empty() && self.groups.num_groups() == 0;
        if !empty && open + bytes > self.segment_bytes {
            self.seal()?;
        }
        Ok(())
    }

    fn count(&mut self, id: u32, by: u32) {
        let i = id as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        if self.counts[i] == 0 && by > 0 {
            self.distinct += 1;
        }
        self.counts[i] += by;
    }

    fn shape(&self) -> DbShape {
        DbShape {
            rows: self.rows.len(),
            elems: self.rows.total_elems(),
            groups: self.groups.num_groups(),
            pattern_elems: self.groups.pattern_items(),
            outlier_rows: self.groups.group_outlier_rows(),
            outlier_elems: self.groups.group_outlier_items(),
        }
    }

    /// Total bytes of the segment files this writer has sealed.
    pub fn bytes_written(&self) -> u64 {
        self.sealed.iter().map(|m| (HEADER_BYTES + m.payload_bytes) as u64).sum()
    }

    /// Seals any buffered rows and opens the segments this writer sealed
    /// as a store, from the headers it wrote, with an unlimited
    /// resident budget.
    pub(crate) fn into_db(mut self) -> io::Result<SegmentedDb> {
        self.seal()?;
        Ok(SegmentedDb { segments: self.sealed, budget: MemoryBudget::unlimited() })
    }

    /// Seals the open buffer into a new segment file (no-op when empty).
    pub fn seal(&mut self) -> io::Result<()> {
        if self.rows.is_empty() && self.groups.num_groups() == 0 {
            return Ok(());
        }
        let name = format!("{}{}", self.prefix, segment_file_name(self.next_id));
        let meta = self.write_segment(self.dir.join(name))?;
        metrics::add("storage.segments_written", 1);
        histogram::observe("storage.segment_bytes", (HEADER_BYTES + meta.payload_bytes) as u64);
        self.sealed.push(meta);
        self.rows.clear();
        self.groups = CompressedRankDb::default();
        self.counts.clear();
        self.distinct = 0;
        self.next_id += 1;
        Ok(())
    }

    /// Seals any buffered rows and returns how many segments this
    /// writer sealed in total.
    pub fn finish(mut self) -> io::Result<usize> {
        self.seal()?;
        Ok(self.sealed.len())
    }

    /// Serializes the open segment to `path`; returns its header.
    fn write_segment(&self, path: PathBuf) -> io::Result<SegmentMeta> {
        let shape = self.shape();
        let body = body_bytes(&shape) as usize;
        let mut buf = vec![0u8; HEADER_BYTES];
        buf.reserve(body + 8 * self.distinct);
        let put = |buf: &mut Vec<u8>, xs: &[u32]| {
            xs.iter().for_each(|x| buf.extend_from_slice(&x.to_le_bytes()))
        };
        let (patterns, outliers, outlier_start, bare, _) = self.groups.raw_parts();
        put(&mut buf, self.rows.offsets());
        put(&mut buf, self.rows.flat());
        put(&mut buf, patterns.offsets());
        put(&mut buf, patterns.flat());
        bare.iter().for_each(|b| buf.extend_from_slice(&b.to_le_bytes()));
        put(&mut buf, outlier_start);
        put(&mut buf, outliers.offsets());
        put(&mut buf, outliers.flat());
        for (id, &count) in self.counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
            put(&mut buf, &[id as u32, count]);
        }
        let s = &shape;
        let body_crc = crc32(&buf[HEADER_BYTES..HEADER_BYTES + body]) as usize;
        let fields = [FORMAT_VERSION as usize, s.rows, s.elems, s.groups, s.pattern_elems]
            .into_iter()
            .chain([s.outlier_rows, s.outlier_elems, self.distinct, body_crc]);
        buf[0..4].copy_from_slice(&MAGIC);
        for (k, f) in fields.enumerate() {
            buf[4 + 4 * k..8 + 4 * k].copy_from_slice(&(f as u32).to_le_bytes());
        }
        let header_crc = crc32_parts(&[&buf[..HEADER_CRC_AT], &buf[HEADER_BYTES + body..]]);
        buf[HEADER_CRC_AT..HEADER_BYTES].copy_from_slice(&header_crc.to_le_bytes());
        File::create(&path)?.write_all(&buf)?;
        let header = buf[..HEADER_BYTES].try_into().unwrap();
        let (sidecar_entries, payload_bytes) = (self.distinct, buf.len() - HEADER_BYTES);
        Ok(SegmentMeta { path, header, shape, sidecar_entries, body_bytes: body, payload_bytes })
    }
}

fn scan_segment_ids(dir: &Path) -> io::Result<Vec<u32>> {
    let mut ids = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                if let Some(id) = entry.file_name().to_str().and_then(parse_segment_id) {
                    ids.push(id);
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    ids.sort_unstable();
    Ok(ids)
}

/// The next `n` words of a body.
fn take(words: &mut impl Iterator<Item = u32>, n: usize) -> Vec<u32> {
    words.by_ref().take(n).collect()
}

/// The next CSR section of a body; `None` when its offsets are corrupt.
fn take_csr(
    words: &mut impl Iterator<Item = u32>,
    rows: usize,
    elems: usize,
) -> Option<CsrTuples<u32>> {
    let (offsets, data) = (take(words, rows + 1), take(words, elems));
    let ok = offsets[0] == 0
        && offsets[rows] as usize == elems
        && offsets.windows(2).all(|w| w[0] <= w[1]);
    ok.then(|| CsrTuples::from_raw_parts(data, offsets))
}

/// The arrays one segment body holds: plain rows, then the group section.
struct Body {
    rows: CsrTuples<u32>,
    patterns: CsrTuples<u32>,
    bare: Vec<u64>,
    outlier_start: Vec<u32>,
    outliers: CsrTuples<u32>,
}

/// A read view over a directory of sealed segments.
///
/// Opening reads only headers — row/element counts and payload sizes —
/// so the database's shape (`total_rows`, `total_elems`) is known
/// without touching any payload. Payloads are loaded one segment at a
/// time through [`SegmentedDb::load`] under the configured resident
/// budget; summed item supports come from the sidecars alone.
#[derive(Debug)]
pub struct SegmentedDb {
    segments: Vec<SegmentMeta>,
    budget: MemoryBudget,
}

impl SegmentedDb {
    /// Opens the segment store under `dir` with an unlimited resident
    /// budget.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        let mut segments = Vec::new();
        for id in scan_segment_ids(dir)? {
            segments.push(read_header(&dir.join(segment_file_name(id)))?);
        }
        Ok(SegmentedDb { segments, budget: MemoryBudget::unlimited() })
    }

    /// Sets the resident budget: [`SegmentedDb::load`] refuses any
    /// single segment whose payload exceeds it.
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Number of sealed segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The summed CSR counts of every segment, from the headers alone.
    pub fn shape(&self) -> DbShape {
        let mut total = DbShape::default();
        self.segments.iter().for_each(|s| total += s.shape);
        total
    }

    /// Total rows across all segments.
    pub fn total_rows(&self) -> usize {
        self.shape().rows
    }

    /// Total elements across all segments.
    pub fn total_elems(&self) -> usize {
        self.shape().elems
    }

    /// Total on-disk payload bytes across all segments.
    pub fn total_payload_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.payload_bytes as u64).sum()
    }

    /// Largest single-segment payload — the minimum workable resident
    /// budget.
    pub fn max_segment_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.payload_bytes).max().unwrap_or(0)
    }

    /// Whole-database per-id tuple supports, summed from the
    /// per-segment sidecars, each checked against its header CRC first.
    /// Reads sidecar tails only — **not** counted as a segment pass.
    pub fn item_supports(&self) -> io::Result<Vec<u64>> {
        let mut counts: Vec<u64> = Vec::new();
        for seg in &self.segments {
            let mut f = File::open(&seg.path)?;
            f.seek(SeekFrom::Start((HEADER_BYTES + seg.body_bytes) as u64))?;
            let mut sidecar = vec![0u8; seg.sidecar_entries * 8];
            f.read_exact(&mut sidecar)
                .map_err(|_| bad_data(format!("{}: truncated sidecar", seg.path.display())))?;
            seg.check_header_crc(&sidecar)?;
            for pair in sidecar.chunks_exact(8) {
                let item = u32::from_le_bytes(pair[0..4].try_into().unwrap()) as usize;
                let count = u32::from_le_bytes(pair[4..8].try_into().unwrap()) as u64;
                if item >= counts.len() {
                    counts.resize(item + 1, 0);
                }
                counts[item] += count;
            }
        }
        Ok(counts)
    }

    /// Reads segment `i` whole after checking the resident budget, and
    /// checks that it still matches the header seen at open, both CRCs
    /// and every offset array. Bumps `storage.segments_read` and tracks
    /// `storage.resident_peak`.
    fn read_body(&self, i: usize) -> io::Result<Body> {
        let seg = &self.segments[i];
        let path = seg.path.display();
        if !self.budget.fits(seg.payload_bytes) {
            return Err(bad_data(format!(
                "{path}: segment payload ({} bytes) exceeds the resident budget ({} bytes)",
                seg.payload_bytes,
                self.budget.limit()
            )));
        }
        let bytes = std::fs::read(&seg.path)?;
        if bytes.len() != HEADER_BYTES + seg.payload_bytes || bytes[..HEADER_BYTES] != seg.header {
            return Err(bad_data(format!("{path}: segment changed since the store was opened")));
        }
        let (body, sidecar) = bytes[HEADER_BYTES..].split_at(seg.body_bytes);
        seg.check_header_crc(sidecar)?;
        let (stored, computed) = (seg.word(36), crc32(body));
        if computed != stored {
            return Err(bad_data(format!(
                "{path}: payload checksum mismatch (stored {stored:#010x}, computed \
                 {computed:#010x})"
            )));
        }
        let w = &mut body.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()));
        let s = seg.shape;
        let corrupt = || bad_data(format!("{path}: corrupt offsets array"));
        let rows = take_csr(w, s.rows, s.elems).ok_or_else(corrupt)?;
        let patterns = take_csr(w, s.groups, s.pattern_elems).ok_or_else(corrupt)?;
        let bare = take(w, 2 * s.groups);
        let bare = bare.chunks_exact(2).map(|h| h[0] as u64 | (h[1] as u64) << 32).collect();
        let outlier_start = take(w, s.groups + 1);
        let outliers = take_csr(w, s.outlier_rows, s.outlier_elems).ok_or_else(corrupt)?;
        metrics::add("storage.segments_read", 1);
        metrics::set_max("storage.resident_peak", seg.payload_bytes as u64);
        Ok(Body { rows, patterns, bare, outlier_start, outliers })
    }

    /// Loads segment `i` fully as a [`TransactionDb`] via
    /// [`CsrTuples::from_raw_parts`]. A segment with groups is a spilled
    /// partition, not a database: read it with
    /// [`SegmentedDb::load_ranks`].
    pub fn load(&self, i: usize) -> io::Result<TransactionDb> {
        let body = self.read_body(i)?;
        let path = self.segments[i].path.display();
        if !body.bare.is_empty() {
            return Err(bad_data(format!("{path}: segment holds groups; load it as ranks")));
        }
        if body.rows.iter().any(|t| t.windows(2).any(|w| w[0] >= w[1])) {
            return Err(bad_data(format!("{path}: a row is not sorted ascending")));
        }
        let (data, offsets) = body.rows.into_raw_parts();
        let data = data.into_iter().map(Item).collect();
        Ok(TransactionDb::from_csr(CsrTuples::from_raw_parts(data, offsets)))
    }

    /// Loads segment `i` fully as a [`CompressedRankDb`] over
    /// `num_ranks` ranks: the plain rows become the plain residue and the
    /// group section moves in as it is.
    pub fn load_ranks(&self, i: usize, num_ranks: usize) -> io::Result<CompressedRankDb> {
        let b = self.read_body(i)?;
        CompressedRankDb::from_raw_parts(
            b.patterns,
            b.outliers,
            b.outlier_start,
            b.bare,
            b.rows,
            num_ranks,
        )
        .map_err(|e| bad_data(format!("{}: {e}", self.segments[i].path.display())))
    }

    /// Loads each segment in turn (one resident at a time) and hands it
    /// to `f` with its index.
    pub fn for_each_segment(
        &self,
        mut f: impl FnMut(usize, &TransactionDb) -> io::Result<()>,
    ) -> io::Result<()> {
        for i in 0..self.segments.len() {
            let db = self.load(i)?;
            f(i, &db)?;
        }
        Ok(())
    }

    /// Materializes the entire store as one in-memory database —
    /// test/compat convenience, not an out-of-core path (residency is
    /// the whole database).
    pub fn to_transaction_db(&self) -> io::Result<TransactionDb> {
        let mut csr = CsrTuples::with_capacity(self.total_rows(), self.total_elems());
        self.for_each_segment(|_, db| {
            for t in db.iter() {
                csr.push_row(t);
            }
            Ok(())
        })?;
        Ok(TransactionDb::from_csr(csr))
    }
}

/// Outcome of a [`compact`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Segment count before compaction.
    pub segments_before: usize,
    /// Segment count after compaction.
    pub segments_after: usize,
    /// Total rows (unchanged by compaction).
    pub rows: usize,
}

/// Rewrites the store so every segment (except possibly the last)
/// reaches the target payload size — merging the undersized tails that
/// accumulate from incremental appends. Row order is preserved exactly;
/// new files are written alongside the old ones and swapped in only
/// after every new segment sealed cleanly.
pub fn compact(dir: impl AsRef<Path>, segment_bytes: usize) -> io::Result<CompactReport> {
    let dir = dir.as_ref();
    let db = SegmentedDb::open(dir)?;
    let before = db.num_segments();
    let rows = db.total_rows();
    let tmp = dir.join("compact-tmp");
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp)?;
    }
    let mut writer = SegmentWriter::create(&tmp, segment_bytes)?;
    let mut row_ids: Vec<u32> = Vec::new();
    db.for_each_segment(|_, seg_db| {
        for t in seg_db.iter() {
            row_ids.clear();
            row_ids.extend(t.iter().map(|it| it.id()));
            writer.push_row(&row_ids)?;
        }
        Ok(())
    })?;
    let after = writer.finish()?;
    // Swap: drop the old sealed files, move the new ones into place.
    for id in scan_segment_ids(dir)? {
        std::fs::remove_file(dir.join(segment_file_name(id)))?;
    }
    for id in scan_segment_ids(&tmp)? {
        let name = segment_file_name(id);
        std::fs::rename(tmp.join(&name), dir.join(&name))?;
    }
    std::fs::remove_dir_all(&tmp)?;
    Ok(CompactReport { segments_before: before, segments_after: after, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gogreen-segment-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        dir
    }

    fn fill(dir: &Path, rows: &[&[u32]], segment_bytes: usize) -> usize {
        let mut w = SegmentWriter::create(dir, segment_bytes).unwrap();
        for r in rows {
            w.push_row(r).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn round_trip_single_segment() {
        let dir = temp_dir("single");
        let rows: &[&[u32]] = &[&[0, 2, 5], &[1], &[2, 3, 4, 9]];
        assert_eq!(fill(&dir, rows, 1 << 20), 1);
        let db = SegmentedDb::open(&dir).unwrap();
        assert_eq!(db.num_segments(), 1);
        assert_eq!(db.total_rows(), 3);
        assert_eq!(db.total_elems(), 8);
        let loaded = db.load(0).unwrap();
        assert_eq!(loaded, TransactionDb::from_rows(rows));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rolls_over_at_the_byte_budget_and_preserves_order() {
        let dir = temp_dir("roll");
        let rows: Vec<Vec<u32>> = (0..100u32).map(|k| vec![k, k + 1, k + 200]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        // ~16 bytes per row payload; a 64-byte budget forces many segments.
        let sealed = fill(&dir, &refs, 64);
        assert!(sealed > 10, "expected many segments, got {sealed}");
        let db = SegmentedDb::open(&dir).unwrap();
        assert_eq!(db.num_segments(), sealed);
        assert_eq!(db.total_rows(), 100);
        assert_eq!(db.to_transaction_db().unwrap(), TransactionDb::from_rows(&refs));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sidecar_supports_match_full_scan() {
        let dir = temp_dir("sidecar");
        let rows: Vec<Vec<u32>> = (0..50u32).map(|k| vec![k % 7, 7 + k % 3, 20]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        fill(&dir, &refs, 128);
        let db = SegmentedDb::open(&dir).unwrap();
        let from_sidecars = db.item_supports().unwrap();
        let from_scan = TransactionDb::from_rows(&refs).item_supports();
        assert_eq!(from_sidecars, from_scan);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_continues_numbering() {
        let dir = temp_dir("append");
        fill(&dir, &[&[1, 2]], 1 << 20);
        fill(&dir, &[&[3, 4]], 1 << 20);
        let db = SegmentedDb::open(&dir).unwrap();
        assert_eq!(db.num_segments(), 2);
        assert_eq!(db.to_transaction_db().unwrap(), TransactionDb::from_rows(&[&[1, 2], &[3, 4]]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_refuses_oversized_segment() {
        let dir = temp_dir("budget");
        fill(&dir, &[&[1, 2, 3, 4, 5, 6, 7, 8]], 1 << 20);
        let db = SegmentedDb::open(&dir).unwrap().with_budget(MemoryBudget::bytes(8));
        let err = db.load(0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("resident budget"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_merges_small_segments() {
        let dir = temp_dir("compact");
        let rows: Vec<Vec<u32>> = (0..60u32).map(|k| vec![k, k + 100]).collect();
        let refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let sealed = fill(&dir, &refs, 48);
        assert!(sealed > 5);
        let report = compact(&dir, 1 << 20).unwrap();
        assert_eq!(report.segments_before, sealed);
        assert_eq!(report.segments_after, 1);
        assert_eq!(report.rows, 60);
        let db = SegmentedDb::open(&dir).unwrap();
        assert_eq!(db.num_segments(), 1);
        assert_eq!(db.to_transaction_db().unwrap(), TransactionDb::from_rows(&refs));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_segment_files_are_ignored() {
        let dir = temp_dir("ignore");
        fill(&dir, &[&[1]], 1 << 20);
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        let db = SegmentedDb::open(&dir).unwrap();
        assert_eq!(db.num_segments(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flips `bytes[at(len)] ^= mask` in a one-segment store over items
    /// 0..=5 (six 8-byte sidecar pairs end the file), then returns the
    /// error of opening the store and reading its sidecars.
    fn flipped(tag: &str, at: fn(usize) -> usize, mask: u8) -> String {
        let dir = temp_dir(tag);
        fill(&dir, &[&[0, 2, 5], &[1], &[2, 3, 4, 5]], 1 << 20);
        let path = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let k = at(bytes.len());
        bytes[k] ^= mask;
        std::fs::write(&path, &bytes).unwrap();
        let err = SegmentedDb::open(&dir).and_then(|db| db.item_supports()).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        err.to_string()
    }

    #[test]
    fn flipped_row_count_fails_open_before_allocating() {
        // The row count's top byte: ~2^31 rows, an ~8 GiB payload.
        let err = flipped("rows", |_| 11, 0x80);
        assert!(err.contains("header describes"), "{err}");
    }

    #[test]
    fn flipped_sidecar_id_fails_the_header_checksum() {
        // The first sidecar id's top byte: id ~2^30.
        let err = flipped("id", |len| len - 48 + 3, 0x40);
        assert!(err.contains("header checksum"), "{err}");
    }

    #[test]
    fn flipped_sidecar_count_fails_the_header_checksum() {
        // Item 1's count: 1 -> 5.
        let err = flipped("count", |len| len - 48 + 12, 0x04);
        assert!(err.contains("header checksum"), "{err}");
    }

    #[test]
    fn format_version_1_is_unsupported() {
        let err = flipped("v1", |_| 4, 0x03);
        assert!(err.contains("unsupported segment format version 1"), "{err}");
    }
}
