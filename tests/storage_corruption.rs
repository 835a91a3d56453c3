//! Every binary on-disk format turns corrupt bytes into an `Err`.
//!
//! One table of fixtures covers a plain segment, a grouped partition
//! segment (the format the memory-limited drivers spill), a full
//! version and a delta version. Every byte of each file is flipped
//! under masks 0x01 and 0x80, and the file is cut at every length. No
//! read may panic, each read must return `Err` or exactly the clean
//! contents, and at least one must return `Err` — a segment's sidecar
//! supports and its loaded rows are read separately, so neither can
//! pass a wrong answer on the strength of the other's check.

use gogreen::core::cdb::CompressedDb;
use gogreen::core::utility::Strategy;
use gogreen::prelude::*;
use gogreen::storage::{SegmentWriter, SegmentedDb, VersionStore};
use std::fmt::Debug;
use std::io::Result;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Reads a fixture: each of its reads, rendered.
type Read = fn(&Path) -> Vec<Result<String>>;

fn show<T: Debug>(r: Result<T>) -> Result<String> {
    r.map(|v| format!("{v:?}"))
}

fn read_segments<T: Debug>(
    dir: &Path,
    load: fn(&SegmentedDb, usize) -> Result<T>,
) -> Vec<Result<String>> {
    match SegmentedDb::open(dir) {
        Ok(db) => vec![
            show(db.item_supports()),
            show((0..db.num_segments()).map(|i| load(&db, i)).collect::<Result<Vec<_>>>()),
        ],
        Err(e) => vec![Err(e)],
    }
}

fn read_plain(dir: &Path) -> Vec<Result<String>> {
    read_segments(dir, SegmentedDb::load)
}

fn read_grouped(dir: &Path) -> Vec<Result<String>> {
    read_segments(dir, |db, i| db.load_ranks(i, 12))
}

fn read_version(dir: &Path) -> Vec<Result<String>> {
    vec![show(VersionStore::open(dir).map(|s| s.current().cloned()))]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gogreen-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(name, store directory, file to corrupt, read)` per format.
fn fixtures() -> Vec<(&'static str, PathBuf, &'static str, Read)> {
    let plain = fresh_dir("plain");
    let mut w = SegmentWriter::create(&plain, 1 << 20).unwrap();
    for row in [&[0u32, 2, 5][..], &[1], &[2, 3, 4, 9], &[]] {
        w.push_row(row).unwrap();
    }
    w.finish().unwrap();

    let grouped = fresh_dir("grouped");
    let outliers: CsrTuples<u32> = vec![vec![6], vec![7, 11]].into_iter().collect();
    let mut w = SegmentWriter::create(&grouped, 1 << 20).unwrap();
    w.push_group(&[2, 5], outliers.as_slices(), 3).unwrap();
    w.push_group(&[0, 1], CsrTuples::new().as_slices(), 2).unwrap();
    w.push_row(&[1, 4, 9]).unwrap();
    w.push_row(&[10]).unwrap();
    w.finish().unwrap();

    // 60 rows over 13 items recycled at ξ = 8; the delta adds a row.
    let rows: Vec<Vec<u32>> = (0..60u32)
        .map(|k| {
            [k % 3, 3 + k % 4, 7 + k % 5].into_iter().chain((k % 7 == 0).then_some(12)).collect()
        })
        .collect();
    let db = TransactionDb::from_rows(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
    let fp = Engine::new(Family::Hm).mine(&db, MinSupport::Absolute(8));
    let v0 = Compressor::new(Strategy::Mcp).compress(&db, &fp);
    let extra = [Item(1), Item(12)];
    let plain_rows: CsrTuples<Item> =
        v0.plain().iter().chain([&extra[..]]).map(<[Item]>::to_vec).collect();
    let v1 = CompressedDb::new(v0.groups().to_vec(), plain_rows, v0.stats().original_size + 2);
    let full = fresh_dir("full");
    VersionStore::open(&full).unwrap().push(&v0).unwrap();
    let delta = fresh_dir("delta");
    let mut store = VersionStore::open(&delta).unwrap();
    store.push(&v0).unwrap();
    store.push(&v1).unwrap();
    assert_eq!(std::fs::read(delta.join("v-0001.ggd")).unwrap()[8], 1, "v-0001 must be a delta");

    vec![
        ("plain segment", plain, "seg-000000.ggs", read_plain as Read),
        ("grouped segment", grouped, "seg-000000.ggs", read_grouped),
        ("full version", full, "v-0000.ggd", read_version),
        ("delta version", delta, "v-0001.ggd", read_version),
    ]
}

#[test]
fn every_flip_and_truncation_of_every_format_is_an_err() {
    for (name, dir, file, read) in fixtures() {
        let target = dir.join(file);
        let clean = std::fs::read(&target).unwrap();
        let want: Vec<String> =
            read(&dir).into_iter().map(|r| r.expect("clean fixture reads")).collect();
        let flips = (0..clean.len()).flat_map(|at| {
            [0x01u8, 0x80].map(|mask| {
                let mut bytes = clean.clone();
                bytes[at] ^= mask;
                (format!("byte {at} ^ {mask:#04x}"), bytes)
            })
        });
        let cuts =
            (0..clean.len()).map(|len| (format!("cut to {len} bytes"), clean[..len].to_vec()));
        for (what, bytes) in flips.chain(cuts) {
            std::fs::write(&target, &bytes).unwrap();
            let Ok(got) = catch_unwind(AssertUnwindSafe(|| read(&dir))) else {
                panic!("{name}: {what} panicked");
            };
            assert!(got.iter().any(Result::is_err), "{name}: {what} read back as Ok");
            for (g, w) in got.iter().zip(&want) {
                if let Ok(g) = g {
                    assert_eq!(g, w, "{name}: {what} read back different contents");
                }
            }
        }
        std::fs::write(&target, &clean).unwrap();
        let restored: Vec<String> = read(&dir).into_iter().map(Result::unwrap).collect();
        assert_eq!(restored, want, "{name}: restored file");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
