//! Differential suite for the flat (CSR + arena) datapath: the memory
//! layout is an implementation detail, so every miner must emit a
//! *byte-identical* pattern stream over every substrate view — raw,
//! MCP-compressed, MLP-compressed — at any thread count, and the
//! `mine.*` / `alloc.*` counters must be bit-identical between thread
//! counts. A segment's CSR group section must survive a write/read
//! round trip.
//!
//! The metrics registry is process-global, so every test that mines
//! holds `TEST_LOCK` for its whole body: an unlocked run would land its
//! counts in another test's enabled registry.

use gogreen::core::cdb::CompressedRankDb;
use gogreen::data::FnSink;
use gogreen::obs::metrics;
use gogreen::prelude::*;
use gogreen::storage::{SegmentWriter, SegmentedDb};
use gogreen::util::pool::Parallelism;
use gogreen_datagen::{DatasetPreset, PresetKind};
use std::sync::Mutex;

const HM: Engine = Engine::new(Family::Hm);

static TEST_LOCK: Mutex<()> = Mutex::new(());

const XI_NEW: MinSupport = MinSupport::Relative(0.02);

/// Raw database plus one compressed view per strategy family.
fn substrates() -> (TransactionDb, CompressedDb, CompressedDb) {
    let preset = DatasetPreset::new(PresetKind::Weather, 0.005);
    let db = preset.generate();
    let fp = HM.mine(&db, preset.xi_old());
    let mcp = Compressor::new(Strategy::Mcp).compress(&db, &fp);
    let mlp = Compressor::new(Strategy::Mlp).compress(&db, &fp);
    (db, mcp, mlp)
}

type Stream = Vec<(Vec<Item>, u64)>;

fn stream_of(f: &mut dyn FnMut(&mut dyn PatternSink)) -> Stream {
    let mut out: Stream = Vec::new();
    {
        let mut sink = FnSink(|items: &[Item], sup: u64| out.push((items.to_vec(), sup)));
        f(&mut sink);
    }
    out
}

/// Every engine family on every substrate, plus RP-Mine on the
/// compressed ones, threads 1 vs 4: the stream must not move by a byte.
#[test]
fn all_miners_identical_on_every_substrate() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (db, mcp, mlp) = substrates();
    let raw = CompressedDb::uncompressed(&db);

    for family in Family::ALL {
        let engine = Engine::new(family);
        let serial =
            stream_of(&mut |sink| engine.mine_into(&db, XI_NEW, Parallelism::serial(), sink));
        let par =
            stream_of(&mut |sink| engine.mine_into(&db, XI_NEW, Parallelism::threads(4), sink));
        assert!(!serial.is_empty(), "{family:?}: serial run emitted nothing");
        assert!(serial == par, "{family:?}: stream diverged at 4 threads");
    }

    // `None` is RP-Mine, the serial reference.
    let recycle =
        |who: Option<Family>, cdb: &CompressedDb, par, sink: &mut dyn PatternSink| match who {
            Some(family) => Engine::new(family).mine_into(cdb, XI_NEW, par, sink),
            None => RpMine::default().mine_into(cdb, XI_NEW, sink),
        };
    for who in Family::ALL.map(Some).into_iter().chain([None]) {
        let name = who.map_or("RP-Mine", Family::tag);
        let mut oracle: Option<PatternSet> = None;
        for (label, view) in [("raw", &raw), ("MCP", &mcp), ("MLP", &mlp)] {
            let serial = stream_of(&mut |sink| recycle(who, view, Parallelism::serial(), sink));
            let par = stream_of(&mut |sink| recycle(who, view, Parallelism::threads(4), sink));
            assert!(!serial.is_empty(), "{name} on {label}: serial run emitted nothing");
            assert!(serial == par, "{name} on {label}: stream diverged at 4 threads");
            // Substrates may reorder the stream but never change the set.
            let set: PatternSet =
                serial.iter().map(|(items, sup)| Pattern::new(items.clone(), *sup)).collect();
            match &oracle {
                None => oracle = Some(set),
                Some(o) => assert!(set.same_patterns_as(o), "{name} on {label}: pattern set moved"),
            }
        }
    }
}

/// Runs every miner once at `threads`; returns all `mine.*` and
/// `alloc.*` totals.
fn counters(db: &TransactionDb, cdb: &CompressedDb, threads: usize) -> Vec<(&'static str, u64)> {
    let par = Parallelism::threads(threads);
    metrics::reset();
    metrics::set_enabled(true);
    let mut sink = FnSink(|_: &[Item], _: u64| {});
    for family in Family::ALL {
        Engine::new(family).mine_into(db, XI_NEW, par, &mut sink);
        Engine::new(family).mine_into(cdb, XI_NEW, par, &mut sink);
    }
    RpMine::default().mine_into(cdb, XI_NEW, &mut sink);
    metrics::set_enabled(false);
    let snap: Vec<(&'static str, u64)> = metrics::snapshot()
        .into_iter()
        .filter(|(name, _)| name.starts_with("mine.") || name.starts_with("alloc."))
        .map(|(name, m)| (name, m.value))
        .collect();
    metrics::reset();
    snap
}

/// The arena accounting counts *used* bytes per projection, so worker
/// count cannot move `alloc.*` — and `mine.*` stays bit-identical as
/// before the flat layout.
#[test]
fn alloc_and_mine_counters_thread_invariant() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (db, mcp, _) = substrates();
    let serial = counters(&db, &mcp, 1);
    let threaded = counters(&db, &mcp, 4);
    for required in ["alloc.projection_bytes", "alloc.arena_reuses", "mine.candidate_tests"] {
        assert!(metrics::is_thread_invariant(required));
        assert!(
            serial.iter().any(|&(n, v)| n == required && v > 0),
            "counter {required} missing from {serial:?}"
        );
    }
    assert_eq!(serial, threaded);
}

/// The database's CSR storage is faithful: rows come back exactly as
/// pushed, via both the row iterator and the borrowed window.
#[test]
fn csr_storage_round_trips_tuples() {
    let db = TransactionDb::paper_example();
    let rows: Vec<Vec<Item>> = db.iter().map(|t| t.to_vec()).collect();
    assert_eq!(rows.len(), db.len());
    let view = db.tuples();
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(db.tuple(i), row.as_slice());
        assert_eq!(view.row(i), row.as_slice());
    }
    assert_eq!(view.flat().len(), rows.iter().map(Vec::len).sum::<usize>());
}

fn csr(rows: &[&[u32]]) -> CsrTuples<u32> {
    let mut c = CsrTuples::new();
    for r in rows {
        c.push_row(r);
    }
    c
}

/// A grouped segment — plain rank rows plus CSR groups, as a spilled
/// partition stores them — reads back as the same rank database, with
/// sidecar supports that count each group's members once per pattern
/// rank.
#[test]
fn segment_round_trips_csr_groups() {
    let dir = std::env::temp_dir().join(format!("gogreen-flat-groups-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let groups: [(&[u32], CsrTuples<u32>, u64); 2] =
        [(&[2, 5], csr(&[&[6], &[7, 8]]), 3), (&[0], CsrTuples::new(), 0)];
    let plain: [&[u32]; 2] = [&[1, 4, 9], &[0]];
    let mut want = CompressedRankDb::empty(10);
    let mut w = SegmentWriter::create(&dir, 1 << 20).unwrap();
    for (pattern, outliers, bare) in &groups {
        w.push_group(pattern, outliers.as_slices(), *bare).unwrap();
        want.push_group(pattern, outliers.iter(), *bare);
    }
    for row in plain {
        w.push_row(row).unwrap();
        want.push_plain(row);
    }
    assert_eq!(w.finish().unwrap(), 1);
    let db = SegmentedDb::open(&dir).unwrap();
    assert_eq!(db.load_ranks(0, 10).unwrap(), want);
    // Rank 2 and 5: the first group's 5 members; 6, 7, 8: one outlier
    // row each; the empty second group adds nothing to rank 0.
    assert_eq!(db.item_supports().unwrap(), vec![1, 1, 5, 0, 1, 5, 1, 1, 1, 1]);
    let shape = db.shape();
    assert_eq!((shape.rows, shape.groups, shape.outlier_rows), (2, 2, 2));
    // A grouped segment is not a plain database.
    assert!(db.load(0).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}
