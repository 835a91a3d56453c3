//! `ingest-ooc`: the forest analog streamed into a segmented store under
//! a memory budget below the dataset size, single-threaded.
//!
//! Each cycle, in a fresh directory: ingest the base rows, mine (the
//! first round has nothing to recycle), then K rounds of append batch →
//! recycled mine (which persists a version delta), each followed by a
//! tightened query answered from the published set; then one `OocMiner`
//! scratch mine, `compact`, and one spilling `LimitedHMine` mine.

use super::{Ctx, Info};
use crate::datasets;
use crate::layers::{
    core_session, data_pattern_io, miners_engine, storage_limited, storage_ooc, storage_segment,
    Family,
};
use crate::run::{Kind, Runner};
use crate::stats::Digest;
use gogreen::core::store::PatternStore;
use gogreen::data::{MinSupport, TransactionDb};
use gogreen::storage::{MemoryBudget, SegmentedIncrementalMiner};
use gogreen::util::pool::Parallelism;
use std::path::Path;
use std::sync::Arc;

/// About 7% of the paper's 581,012 tuples.
pub const TUPLES: usize = 40_000;
/// Share of the rows in the base load; the rest arrives in K batches.
const BASE_FRAC: f64 = 0.6;
const K: usize = 4;
const XI_PCT: f64 = 0.5;
const TIGHT_PCT: f64 = 1.0;
const SEGMENT_BYTES: usize = 128 << 10;
const BUDGET_BYTES: usize = 256 << 10;
/// `LimitedHMine` mines the full rows at this ξ under this budget: below
/// the root projection, so the root spills.
const LIMITED_PCT: f64 = 6.0;
const LIMITED_BUDGET_BYTES: usize = 512 << 10;
const DS: &str = "forest";
pub const NOMINAL_CYCLE_S: f64 = 1.6;

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn user_bytes(rows: &[Vec<u32>]) -> f64 {
    rows.iter().map(|r| 4 * r.len()).sum::<usize>() as f64
}

pub fn run(r: &mut Runner, ctx: &Ctx) -> Result<Info, String> {
    let answer = ctx.work.join("answer.txt");
    let budget = MemoryBudget::bytes(BUDGET_BYTES);
    let limited_budget = MemoryBudget::bytes(LIMITED_BUDGET_BYTES);
    let gen = datasets::forest(TUPLES, ctx.seed);
    let mut rows = Vec::new();
    for rep in 0..ctx.setup_reps {
        let dir = ctx.work.join(format!("setup{rep}"));
        rows = r.setup_rep(|tr| -> Result<Vec<Vec<u32>>, String> {
            let rows = datasets::regime_rows(&gen);
            let mut m = SegmentedIncrementalMiner::create(&dir, SEGMENT_BYTES)
                .map_err(|e| e.to_string())?
                .with_budget(budget);
            storage_segment::insert(tr, &mut m, &rows)?;
            let db = storage_segment::open(tr, &dir, budget)?;
            db.item_supports().map_err(|e| e.to_string())?;
            Ok(rows)
        })?;
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    let base = (rows.len() as f64 * BASE_FRAC) as usize;
    let step = (rows.len() - base).div_ceil(K);
    let batches: Vec<&[Vec<u32>]> = rows[base..].chunks(step).collect();
    let xi = MinSupport::percent(XI_PCT);
    let tight = MinSupport::percent(TIGHT_PCT);
    let dataset_bytes = user_bytes(&rows);

    // Untimed warm-up: in-memory mining of the same rows after every
    // round gives the reference digests.
    let par = Parallelism::serial();
    let mut want = Vec::new();
    let mut want_tight = Vec::new();
    for round in 0..=K {
        let upto = base + batches[..round].iter().map(|b| b.len()).sum::<usize>();
        let refs: Vec<&[u32]> = rows[..upto].iter().map(|r| r.as_slice()).collect();
        let db = TransactionDb::from_rows(&refs);
        want.push(Digest::of(&miners_engine::mine(&mut r.tr, Family::Hm, &db, xi, par)));
        want_tight.push(Digest::of(&miners_engine::mine(&mut r.tr, Family::Hm, &db, tight, par)));
    }
    let want_full = want[K];
    let limited_xi = MinSupport::percent(LIMITED_PCT);
    let all: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
    let want_limited = Digest::of(&miners_engine::mine(
        &mut r.tr,
        Family::Hm,
        &TransactionDb::from_rows(&all),
        limited_xi,
        par,
    ));
    let total_rows = rows.len();

    for c in 0..ctx.cycles {
        r.begin_cycle(c, ctx.trace && c % 2 == 1);
        let dir = ctx.work.join(format!("cycle{c}"));
        let store = Arc::new(PatternStore::new());
        let created = SegmentedIncrementalMiner::create(&dir, SEGMENT_BYTES)
            .map(|m| m.with_budget(budget).with_store(Arc::clone(&store), DS))
            .map_err(|e| e.to_string());
        let mut m = match created {
            Ok(m) => m,
            Err(e) => return Err(format!("create {}: {e}", dir.display())),
        };

        let ingested = r.op(Kind::Ingest, "ingest/base", |tr| {
            storage_segment::insert(tr, &mut m, &rows[..base])
        });
        r.set_bytes(user_bytes(&rows[..base]));
        if let Err(e) = ingested {
            r.fail(format!("ingest: {e}"));
        }
        r.note("budget_bytes", BUDGET_BYTES as f64);
        r.note("user_bytes", user_bytes(&rows[..base]));
        r.note("disk_bytes", dir_bytes(&dir) as f64);

        for round in 0..=K {
            if round > 0 {
                let batch = batches[round - 1];
                let appended = r.op(Kind::Ingest, format!("append/r{round}"), |tr| {
                    storage_segment::insert(tr, &mut m, batch)
                });
                r.set_bytes(user_bytes(batch));
                if let Err(e) = appended {
                    r.fail(format!("append: {e}"));
                }
            }
            // Round 0 has no earlier patterns: a scratch round through
            // the same path.
            let kind = if round == 0 { Kind::Scratch } else { Kind::Recycled };
            let got = r.op(kind, format!("{}/hm/r{round}", kind.label()), |tr| {
                let set = storage_ooc::incremental_mine(tr, &mut m, xi)?;
                data_pattern_io::write(tr, &set, &answer)?;
                Ok::<_, String>(set)
            });
            r.check("incremental", got.map(|s| Digest::of(&s)), want[round]);

            let got = r.op(Kind::Filtered, format!("filtered/r{round}"), |tr| {
                let upto_rows = base + batches[..round].iter().map(|b| b.len()).sum::<usize>();
                let set = core_session::filtered(tr, &store, DS, tight.to_absolute(upto_rows))
                    .ok_or("no stored superset")?;
                data_pattern_io::write(tr, &set, &answer)?;
                Ok::<_, String>(set)
            });
            r.check("filtered", got.map(|s| Digest::of(&s)), want_tight[round]);
        }

        r.note("version_bytes", dir_bytes(&dir.join("versions")) as f64);

        let got = r.op(Kind::Scratch, "scratch/ooc-hm", |tr| {
            let db = storage_segment::open(tr, &dir, budget)?;
            let set = storage_ooc::scratch_mine(tr, &db, xi)?;
            data_pattern_io::write(tr, &set, &answer)?;
            Ok::<_, String>(set)
        });
        r.check("ooc scratch", got.map(|s| Digest::of(&s)), want_full);

        r.note("compact_bytes_rewritten", dir_bytes(&dir) as f64);
        let compacted =
            r.op(Kind::Compact, "compact", |tr| storage_segment::compact(tr, &dir, SEGMENT_BYTES));
        if let Err(e) = compacted {
            r.fail(format!("compact: {e}"));
        }

        let got = r.op(Kind::Limited, "limited/hm", |tr| {
            let sdb = storage_segment::open(tr, &dir, budget)?;
            let db = storage_segment::load_all(tr, &sdb)?;
            let set = storage_limited::mine(tr, &db, limited_xi, limited_budget)?;
            data_pattern_io::write(tr, &set, &answer)?;
            Ok::<_, String>(set)
        });
        r.check("limited", got.map(|s| Digest::of(&s)), want_limited);

        drop(m);
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    r.end_cycles();

    Ok(vec![
        ("dataset".into(), "forest analog".into()),
        ("tuples".into(), total_rows.to_string()),
        ("base_rows".into(), base.to_string()),
        ("append_batches".into(), format!("{K} x {step}")),
        ("user_bytes".into(), format!("{dataset_bytes}")),
        ("budget_bytes".into(), BUDGET_BYTES.to_string()),
        ("limited_budget_bytes".into(), LIMITED_BUDGET_BYTES.to_string()),
        ("segment_bytes".into(), SEGMENT_BYTES.to_string()),
        ("patterns".into(), want_full.count.to_string()),
        ("threads".into(), "1".into()),
    ])
}
