//! Differential tests for the unified engine: each algorithm family is
//! written once, generically over `GroupedSource`, and one `Engine`
//! mines it on two substrates — the degenerate `PlainRanks` view of a
//! raw database and the real `CompressedRankDb` of a compressed one.
//! Every test here is table-driven over `Family::ALL`, so each family
//! sees every fixture. The suite pins the unification down four ways:
//!
//! 1. the raw run equals the Apriori oracle;
//! 2. mining an *uncompressed* compressed database (every tuple in the
//!    plain partition, zero groups) emits the **byte-identical stream**
//!    the raw run emits — the degenerate substrate is a view, not a
//!    different algorithm;
//! 3. MCP- and MLP-compressed databases mine to the oracle set too,
//!    serial and at 4 threads, and agree with the RP-Mine reference;
//! 4. the fixtures single families were once hand-tested on (partial
//!    groups, bare members, single paths, long prefix chains,
//!    interleaved queues, …) feed every family.

use gogreen::core::engine::{engine_keys, engine_named, VtRepr};
use gogreen::data::FnSink;
use gogreen::prelude::*;
use gogreen::util::pool::Parallelism;

/// The exact emission sequence of one mining run.
type Stream = Vec<(Vec<Item>, u64)>;

fn stream_of(f: &mut dyn FnMut(&mut dyn PatternSink)) -> Stream {
    let mut out: Stream = Vec::new();
    {
        let mut sink = FnSink(|items: &[Item], sup: u64| out.push((items.to_vec(), sup)));
        f(&mut sink);
    }
    out
}

fn as_set(stream: &Stream) -> PatternSet {
    stream.iter().map(|(items, sup)| Pattern::new(items.clone(), *sup)).collect()
}

/// A database with shared prefixes, identical tuples (bare group
/// members), and items that fall in and out of frequency across
/// thresholds.
fn structured_db() -> TransactionDb {
    TransactionDb::from_rows(&[
        &[1, 2, 3, 4],
        &[1, 2, 3, 5],
        &[1, 2, 4, 5],
        &[2, 3, 4, 5],
        &[1, 2, 3],
        &[1, 2, 3],
        &[1, 2],
        &[4, 5],
        &[4, 5, 6],
        &[1, 6],
    ])
}

/// Small databases each shaped to stress one traversal's corner, fed to
/// every family.
fn fixtures() -> Vec<(&'static str, TransactionDb)> {
    let db = |rows: &[&[u32]]| TransactionDb::from_rows(rows);
    vec![
        ("paper example", TransactionDb::paper_example()),
        ("structured", structured_db()),
        (
            "branching tree",
            db(&[
                &[1, 2, 5],
                &[2, 4],
                &[2, 3],
                &[1, 2, 4],
                &[1, 3],
                &[2, 3],
                &[1, 3],
                &[1, 2, 3, 5],
                &[1, 2, 3],
            ]),
        ),
        // Groups split by outlier projections: {8,9} has members with and
        // without outlier 1, and deeper projections interleave pattern
        // and outlier items.
        (
            "partial groups",
            db(&[
                &[1, 8, 9],
                &[1, 2, 8, 9],
                &[2, 8, 9],
                &[8, 9],
                &[1, 2],
                &[1, 2, 3],
                &[2, 3, 8],
                &[1, 3, 9],
            ]),
        ),
        ("bare members", db(&[&[1, 2, 3], &[1, 2, 3], &[1, 2, 3], &[1, 2, 3, 4], &[4, 5]])),
        ("all bare", db(&[&[1, 2, 3], &[1, 2, 3], &[1, 2, 3], &[1, 2, 3]])),
        // Deep pattern chains force repeated projections of one shared
        // structure.
        (
            "shared chain",
            db(&[
                &[1, 2, 3, 4, 5, 6],
                &[1, 2, 3, 4, 5, 7],
                &[1, 2, 3, 4, 5],
                &[1, 2, 3, 4, 5, 6, 7],
                &[6, 7],
            ]),
        ),
        (
            "long prefix chain",
            db(&[
                &[1, 2, 3, 4, 5, 6],
                &[1, 2, 3, 4, 5, 6],
                &[1, 2, 3, 4, 5, 7],
                &[1, 2, 3, 4, 8, 9],
            ]),
        ),
        // First frequent items differ, forcing queue relinks in every
        // direction.
        (
            "interleaved queues",
            db(&[&[1, 3, 5], &[2, 3, 5], &[1, 2, 5], &[1, 2, 3], &[4, 5], &[1, 4]]),
        ),
        ("single path", db(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[1, 2, 3, 4]])),
        ("single path, varying counts", db(&[&[1, 2, 3], &[1, 2, 3], &[1, 2], &[1]])),
        ("pairs never co-occur", db(&[&[1, 3], &[2, 3], &[1, 3], &[2, 3]])),
        ("bound prune", db(&[&[1, 2, 3], &[1, 2, 3], &[1, 2], &[1, 3], &[2, 3]])),
        ("singleton", db(&[&[1]])),
    ]
}

/// Every family on every fixture, raw, uncompressed and recycled under
/// both strategies at ξ_old 2–4, equals the oracle at every ξ_new 1–5;
/// recycled runs also equal RP-Mine on the same compressed database.
#[test]
fn every_family_is_exact_on_every_fixture() {
    for (name, db) in fixtures() {
        let oracle: Vec<PatternSet> =
            (1..=5).map(|xi| mine_apriori(&db, MinSupport::Absolute(xi))).collect();
        let plain = CompressedDb::uncompressed(&db);
        let mut compressed = Vec::new();
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            for xi_old in 2..=4u64 {
                let fp_old = mine_apriori(&db, MinSupport::Absolute(xi_old));
                compressed.push((
                    strategy,
                    xi_old,
                    Compressor::new(strategy).compress(&db, &fp_old),
                ));
            }
        }
        for family in Family::ALL {
            let engine = Engine::new(family);
            for (xi, want) in (1..=5u64).zip(&oracle) {
                let ms = MinSupport::Absolute(xi);
                let raw = engine.mine(&db, ms);
                assert!(raw.same_patterns_as(want), "{name} {family:?} raw ξ={xi}");
                let unc = engine.mine(&plain, ms);
                assert!(unc.same_patterns_as(want), "{name} {family:?} uncompressed ξ={xi}");
                for (strategy, xi_old, cdb) in &compressed {
                    let got = engine.mine(cdb, ms);
                    let case = format!("{name} {family:?} {strategy:?} ξ_old={xi_old} ξ={xi}");
                    assert!(got.same_patterns_as(want), "{case}: {} vs {}", got.len(), want.len());
                    let rp = RpMine::default().mine(cdb, ms);
                    assert!(got.same_patterns_as(&rp), "{case}: disagrees with RP-Mine");
                }
            }
        }
    }
}

/// Hand-checked supports (the paper's Example 5, single-path and pair
/// shortcuts) hold for every family, raw and MCP-recycled.
#[test]
fn fixture_spot_supports_hold_for_every_family() {
    type Spot = (&'static [u32], Option<u64>);
    /// Fixture, ξ_old, ξ_new, expected pattern count, spot supports.
    type Case = (TransactionDb, u64, u64, Option<usize>, Vec<Spot>);
    let db = |rows: &[&[u32]]| TransactionDb::from_rows(rows);
    let cases: Vec<Case> = vec![
        (
            TransactionDb::paper_example(),
            3,
            2,
            None,
            // Example 5: fg, fgc, fe, fec, fc, then ae, ace, ac.
            vec![
                (&[5, 6], Some(3)),
                (&[2, 5, 6], Some(3)),
                (&[4, 5], Some(2)),
                (&[2, 4, 5], Some(2)),
                (&[2, 5], Some(3)),
                (&[0, 4], Some(3)),
                (&[0, 2, 4], Some(2)),
                (&[0, 2], Some(2)),
            ],
        ),
        (
            db(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[1, 2, 3, 4]]),
            3,
            2,
            Some(15),
            vec![(&[1, 2, 3, 4], Some(3))],
        ),
        (
            db(&[&[1, 2, 3], &[1, 2, 3], &[1, 2], &[1]]),
            2,
            1,
            None,
            vec![(&[1], Some(4)), (&[1, 2], Some(3)), (&[1, 2, 3], Some(2))],
        ),
        (
            db(&[&[1, 3], &[2, 3], &[1, 3], &[2, 3]]),
            3,
            2,
            None,
            vec![(&[1, 2], None), (&[1, 3], Some(2))],
        ),
        (db(&[&[1, 2, 3], &[1, 2, 3], &[1, 2, 3], &[1, 2, 3]]), 4, 2, Some(7), vec![]),
        (db(&[&[1]]), 1, 1, Some(1), vec![(&[1], Some(1))]),
    ];
    for (db, xi_old, xi_new, count, spots) in cases {
        let fp_old = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
        for family in Family::ALL {
            let engine = Engine::new(family);
            let ms = MinSupport::Absolute(xi_new);
            for (substrate, got) in [("raw", engine.mine(&db, ms)), ("MCP", engine.mine(&cdb, ms))]
            {
                if let Some(n) = count {
                    assert_eq!(got.len(), n, "{family:?} {substrate} pattern count");
                }
                for &(ids, want) in &spots {
                    let items: Vec<Item> = ids.iter().map(|&i| Item(i)).collect();
                    assert_eq!(got.support_of(&items), want, "{family:?} {substrate} {ids:?}");
                }
            }
        }
    }
    // The bare-members fixture really does compress into bare members.
    let bare = db(&[&[1, 2, 3], &[1, 2, 3], &[1, 2, 3], &[1, 2, 3, 4], &[4, 5]]);
    let fp_old = mine_apriori(&bare, MinSupport::Absolute(3));
    let cdb = Compressor::new(Strategy::Mcp).compress(&bare, &fp_old);
    assert!(cdb.groups().iter().any(|g| g.bare() > 0));
}

#[test]
fn empty_inputs_mine_to_nothing_for_every_family() {
    let db = TransactionDb::new();
    let cdb = CompressedDb::uncompressed(&db);
    for family in Family::ALL {
        let engine = Engine::new(family);
        assert!(engine.mine(&db, MinSupport::Absolute(1)).is_empty(), "{family:?} raw");
        assert!(engine.mine(&cdb, MinSupport::Absolute(1)).is_empty(), "{family:?} compressed");
    }
}

#[test]
fn registry_pairs_every_family() {
    let keys: Vec<&str> = Family::ALL.iter().map(|f| f.key()).collect();
    assert_eq!(keys, vec!["hmine", "fp", "tp", "vt"]);
    assert_eq!(engine_keys(), keys.join("|"));
    for family in Family::ALL {
        let engine = Engine::new(family);
        for key in std::iter::once(family.key()).chain(family.aliases().iter().copied()) {
            assert_eq!(engine_named(key), Some(engine), "{key}");
        }
        // The benchmark adapter's identity one-liners.
        assert_eq!(engine.raw(), engine);
        assert_eq!(engine.recycling(Parallelism::serial()), Some(engine));
    }
    for reference_only in ["apriori", "naive"] {
        assert!(engine_named(reference_only).is_none(), "{reference_only}");
    }
}

/// A dense connect4-style analog: few distinct items, long tuples, heavy
/// overlap — the regime where tidset bitmaps stay word-dense and the
/// vertical engine's chain shortcut and bound pruning matter most. Every
/// family must stay exact and thread-invariant here too.
fn dense_analog_db() -> TransactionDb {
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for i in 0..90u32 {
        // Ten base items, each row dropping two rotating positions plus
        // a sparse tail item: supports cluster near the top like a
        // game-position database.
        let mut r: Vec<u32> =
            (0..10u32).filter(|&x| x != i % 10 && x != (i * 3 + 1) % 10).collect();
        if i % 9 == 0 {
            r.push(10 + i % 4);
        }
        rows.push(r);
    }
    let row_refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
    TransactionDb::from_rows(&row_refs)
}

#[test]
fn dense_analog_is_exact_for_every_family() {
    let db = dense_analog_db();
    let fp_old = mine_apriori(&db, MinSupport::Absolute(60));
    for family in Family::ALL {
        let engine = Engine::new(family);
        for minsup in [30u64, 50, 70] {
            let ms = MinSupport::Absolute(minsup);
            let oracle = mine_apriori(&db, ms);
            let raw = stream_of(&mut |sink| engine.mine_into(&db, ms, Parallelism::serial(), sink));
            assert!(
                as_set(&raw).same_patterns_as(&oracle),
                "{family:?} raw ξ={minsup}: {} vs oracle {}",
                raw.len(),
                oracle.len()
            );
            for strategy in [Strategy::Mcp, Strategy::Mlp] {
                let cdb = Compressor::new(strategy).compress(&db, &fp_old);
                for threads in [1usize, 4] {
                    let par = Parallelism::threads(threads);
                    let got = stream_of(&mut |sink| engine.mine_into(&cdb, ms, par, sink));
                    assert!(
                        as_set(&got).same_patterns_as(&oracle),
                        "{family:?} {strategy:?} ξ={minsup} t={threads}"
                    );
                }
            }
        }
    }
}

/// A sparse pumsb-style analog: a wide universe (census categories),
/// short tuples, and a support distribution with a handful of heavy
/// items over a long light tail — the regime where tid-lists beat
/// bitmaps and the adaptive engine switches representations early.
fn sparse_pumsb_analog_db() -> TransactionDb {
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for i in 0..240u32 {
        // Two heavy demographic codes most rows share, one mid-frequency
        // band, and a sparse tail over a 200-item universe.
        let mut r = vec![i % 2, 2 + i % 3];
        r.push(5 + i % 12);
        r.push(17 + (i * 7) % 83);
        if i % 4 == 0 {
            r.push(100 + (i * 13) % 100);
        }
        r.sort_unstable();
        r.dedup();
        rows.push(r);
    }
    let row_refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
    TransactionDb::from_rows(&row_refs)
}

/// The vertical family under every `--vt-repr` mode: on both the dense
/// connect4-style and sparse pumsb-style analogs, raw and recycled,
/// every forced representation must emit the byte-identical stream the
/// adaptive default emits (which in turn matches the oracle), serial
/// and threaded alike.
#[test]
fn vt_repr_modes_emit_identical_streams() {
    for (db, xi_old, minsup) in
        [(dense_analog_db(), 60u64, 40u64), (sparse_pumsb_analog_db(), 100, 20)]
    {
        let ms = MinSupport::Absolute(minsup);
        let oracle = mine_apriori(&db, ms);
        let fp_old = mine_apriori(&db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
        let mut raw_auto: Option<Stream> = None;
        let mut rec_auto: Option<Stream> = None;
        for repr in VtRepr::ALL {
            let engine = Engine { family: Family::Vt, opts: EngineOpts { vt_repr: repr } };
            for threads in [1usize, 4] {
                let par = Parallelism::threads(threads);
                let raw = stream_of(&mut |sink| engine.mine_into(&db, ms, par, sink));
                let rec = stream_of(&mut |sink| engine.mine_into(&cdb, ms, par, sink));
                assert!(
                    as_set(&raw).same_patterns_as(&oracle),
                    "vt --vt-repr {repr} t={threads}: raw diverges from oracle"
                );
                assert_eq!(
                    &raw,
                    raw_auto.get_or_insert_with(|| raw.clone()),
                    "vt --vt-repr {repr} t={threads}: raw stream differs from auto"
                );
                assert_eq!(
                    &rec,
                    rec_auto.get_or_insert_with(|| rec.clone()),
                    "vt --vt-repr {repr} t={threads}: recycled stream differs from auto"
                );
            }
        }
    }
}

#[test]
fn raw_and_degenerate_grouped_streams_are_identical() {
    for db in [TransactionDb::paper_example(), structured_db()] {
        let cdb = CompressedDb::uncompressed(&db);
        for family in Family::ALL {
            let engine = Engine::new(family);
            for minsup in [1, 2, 3] {
                let ms = MinSupport::Absolute(minsup);
                for threads in [1usize, 4] {
                    let par = Parallelism::threads(threads);
                    let raw = stream_of(&mut |sink| engine.mine_into(&db, ms, par, sink));
                    let grouped = stream_of(&mut |sink| engine.mine_into(&cdb, ms, par, sink));
                    assert_eq!(
                        raw, grouped,
                        "{family:?} ξ={minsup} t={threads}: raw and degenerate streams differ"
                    );
                    let oracle = mine_apriori(&db, ms);
                    assert!(
                        as_set(&raw).same_patterns_as(&oracle),
                        "{family:?} ξ={minsup} t={threads}: raw diverges from oracle"
                    );
                }
            }
        }
    }
}

#[test]
fn compressed_mining_matches_oracle_for_both_strategies() {
    for db in [TransactionDb::paper_example(), structured_db()] {
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            for xi_old in [3u64, 4] {
                let fp_old = mine_apriori(&db, MinSupport::Absolute(xi_old));
                let cdb = Compressor::new(strategy).compress(&db, &fp_old);
                for family in Family::ALL {
                    let engine = Engine::new(family);
                    for minsup in [1u64, 2, 3] {
                        let ms = MinSupport::Absolute(minsup);
                        let oracle = mine_apriori(&db, ms);
                        for threads in [1usize, 4] {
                            let par = Parallelism::threads(threads);
                            let got = stream_of(&mut |sink| engine.mine_into(&cdb, ms, par, sink));
                            assert!(
                                as_set(&got).same_patterns_as(&oracle),
                                "{family:?} {strategy:?} ξ_old={xi_old} ξ={minsup} t={threads}: \
                                 {} vs oracle {}",
                                got.len(),
                                oracle.len()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn recycled_streams_are_thread_invariant() {
    let db = structured_db();
    let fp_old = mine_apriori(&db, MinSupport::Absolute(3));
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
    for family in Family::ALL {
        let engine = Engine::new(family);
        let ms = MinSupport::Absolute(2);
        let serial = stream_of(&mut |sink| engine.mine_into(&cdb, ms, Parallelism::serial(), sink));
        for threads in [2usize, 4] {
            let par = Parallelism::threads(threads);
            let threaded = stream_of(&mut |sink| engine.mine_into(&cdb, ms, par, sink));
            assert_eq!(serial, threaded, "{family:?} t={threads}: stream not byte-identical");
        }
    }
}
