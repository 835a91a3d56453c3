//! Snapshot and profile semantics across the real pipeline:
//!
//! 1. A snapshot delta equals the between-point counter activity — the
//!    same numbers a reset-then-run measurement reports.
//! 2. `MiningSession` emits one labelled snapshot per round through the
//!    exporter hook, and the thread-invariant part of each delta is
//!    bit-identical at `--threads 1` and `--threads 8` (histogram bucket
//!    vectors included).
//! 3. The self-time profile telescopes: summing `self_us` over a root's
//!    subtree reproduces the root's `total_us` exactly, and the
//!    collapsed-stack export carries the same numbers.
//!
//! The metric registries and the exporter slot are process-global, so
//! every test holds `TEST_LOCK` for its whole body.

use gogreen::obs::{histogram, metrics, profile, snapshot, MetricsSnapshot};
use gogreen::prelude::*;
use gogreen_datagen::{DatasetPreset, PresetKind};
use std::sync::{Arc, Mutex};

const HM: Engine = Engine::new(Family::Hm);

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn reset_all() {
    metrics::reset();
    histogram::reset();
    drop(snapshot::take_exporter());
}

fn weather_db() -> TransactionDb {
    DatasetPreset::new(PresetKind::Weather, 0.005).generate()
}

#[test]
fn delta_equals_between_point_activity() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset_all();
    metrics::set_enabled(true);
    let db = weather_db();
    let fp = HM.mine(&db, MinSupport::percent(5.0));

    // Reference: reset, run the workload alone, snapshot the totals.
    let reference = {
        metrics::reset();
        histogram::reset();
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        std::hint::black_box(HM.mine(&cdb, MinSupport::percent(2.0)));
        MetricsSnapshot::capture()
    };

    // Same workload again without a reset: the delta of two captures
    // must report exactly the same activity, invariant or not.
    let before = MetricsSnapshot::capture();
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
    std::hint::black_box(HM.mine(&cdb, MinSupport::percent(2.0)));
    let delta = MetricsSnapshot::capture().delta_since(&before);
    metrics::set_enabled(false);

    for (name, m) in &reference.metrics {
        if m.kind == metrics::Kind::Counter {
            assert_eq!(delta.value(name), Some(m.value), "counter {name}");
        }
    }
    for (name, h) in &reference.hists {
        assert_eq!(delta.hists.get(name), Some(h), "histogram {name}");
    }
    assert!(delta.value("compress.runs").is_some_and(|v| v > 0));
    assert!(delta.hists.contains_key("mine.projected_db_size"));
    reset_all();
}

/// Runs a two-round session (mine, then relax-and-recycle) with the
/// exporter installed and returns each round's labelled delta.
fn session_round_deltas(db: &TransactionDb, threads: usize) -> Vec<(String, MetricsSnapshot)> {
    reset_all();
    metrics::set_enabled(true);
    let collected: Arc<Mutex<Vec<(String, MetricsSnapshot)>>> = Arc::default();
    let sink = collected.clone();
    snapshot::set_exporter(Box::new(move |label, snap| {
        sink.lock().unwrap().push((label.to_owned(), snap.clone()));
    }));
    let mut session = gogreen::core::session::MiningSession::new(db.clone())
        .with_engine(Engine::new(Family::Fp))
        .with_threads(threads);
    session.run(gogreen_constraints::ConstraintSet::support_only(MinSupport::percent(5.0)));
    session.run(gogreen_constraints::ConstraintSet::support_only(MinSupport::percent(2.0)));
    metrics::set_enabled(false);
    reset_all();
    Arc::try_unwrap(collected).expect("exporter dropped").into_inner().unwrap()
}

/// Strips a delta down to its registry-invariant part (thread-variant
/// machine work like `cover.*` legitimately differs across fan-outs).
fn invariant_part(snap: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = snap.clone();
    out.metrics.retain(|name, _| metrics::is_thread_invariant(name));
    out.hists.retain(|name, _| metrics::is_thread_invariant(name));
    out
}

#[test]
fn session_emits_one_delta_per_round_identical_across_threads() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = weather_db();
    let serial = session_round_deltas(&db, 1);
    let threaded = session_round_deltas(&db, 8);

    let labels: Vec<&str> = serial.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels, ["session.round/1", "session.round/2"]);
    assert_eq!(threaded.len(), 2);

    // Round 2 recycles, so its delta shows compression activity that
    // round 1's does not — the deltas really are per-round.
    assert_eq!(serial[0].1.value("compress.runs"), None);
    assert!(serial[1].1.value("compress.runs").is_some_and(|v| v > 0));
    assert!(serial[1].1.hists.contains_key("compress.group_size"));

    // Bit-identical invariant deltas at 1 and 8 threads: counters, and
    // full 65-bucket histogram vectors via Histogram's PartialEq.
    for ((l1, s1), (l8, s8)) in serial.iter().zip(threaded.iter()) {
        assert_eq!(l1, l8);
        assert_eq!(invariant_part(s1), invariant_part(s8), "round {l1}");
    }
}

#[test]
fn profile_self_times_telescope_to_root_total() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset_all();
    profile::reset();
    profile::set_enabled(true);
    let db = weather_db();
    let fp = HM.mine(&db, MinSupport::percent(5.0));
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
    std::hint::black_box(HM.mine(&cdb, MinSupport::percent(2.0)));
    profile::set_enabled(false);

    let nodes = profile::snapshot();
    assert!(!nodes.is_empty(), "profiling recorded nothing");
    let roots: Vec<&str> =
        nodes.iter().map(|(p, _)| p.as_str()).filter(|p| !p.contains(';')).collect();
    assert!(roots.contains(&"compress"), "roots: {roots:?}");
    // Telescoping: every root's subtree self-times sum back to exactly
    // its own total (integer µs — no drift, no double counting).
    for root in &roots {
        let total = profile::get(root).expect("root node").total_us;
        assert_eq!(profile::subtree_self_us(root), total, "root {root}");
    }

    // The collapsed export carries the same self-times: re-summing the
    // "path self_us" lines per root reproduces the totals again.
    let collapsed = profile::to_collapsed();
    for root in &roots {
        let sum: u64 = collapsed
            .lines()
            .map(|line| {
                let (path, self_us) = line.rsplit_once(' ').expect("collapsed line shape");
                let self_us: u64 = self_us.parse().expect("numeric self time");
                (path, self_us)
            })
            .filter(|(p, _)| {
                *p == *root || p.strip_prefix(root).is_some_and(|r| r.starts_with(';'))
            })
            .map(|(_, s)| s)
            .sum();
        assert_eq!(sum, profile::get(root).unwrap().total_us, "collapsed root {root}");
    }
    profile::reset();
    reset_all();
}
