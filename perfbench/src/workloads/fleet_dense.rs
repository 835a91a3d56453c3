//! `fleet-dense`: a fleet of analysts on the connect4 analog, vt family,
//! single-threaded.
//!
//! Each cycle answers one k = 8 Zipf-ladder fleet (92 … 80%, one member
//! with a max-length and one with an item constraint) through a shared
//! `QueryBatch` pass, then eight follow-up single queries from the
//! published ξ_min set (filtered), then one query at 77% by recycling
//! the stored set, and the same 77% query from scratch; then the store
//! is reset. Traced cycles also time the same shared pass at two threads
//! (`util_pool.t2_speedup`).
//!
//! The timed ops run on one thread: on a shared two-core host, two-thread
//! ops drifted by up to 30% between sessions while the single-threaded
//! reference kernel stayed put, so no calibration could make them steady.

use super::{Ctx, Info};
use crate::datasets::{self, Choice};
use crate::layers::{
    constraints, core_batch, core_compress, core_recycle, core_session, core_store, data_io,
    data_pattern_io, miners_engine, util_pool, Family,
};
use crate::run::{Kind, Runner};
use crate::stats::Digest;
use gogreen::constraints::{Constraint, ConstraintSet};
use gogreen::core::store::PatternStore;
use gogreen::core::BatchQuery;
use gogreen::data::{Item, MinSupport, PatternSet, TransactionDb};
use gogreen::util::pool::Parallelism;

/// The paper's connect-4 size.
pub const TUPLES: usize = 67_557;
const K: usize = 8;
const RECYCLE_PCT: f64 = 77.0;
const FAM: Family = Family::Vt;
const DS: &str = "connect4";
pub const NOMINAL_CYCLE_S: f64 = 0.32;

/// Rung `k` of the Zipf ladder: 92% at the top, crowding towards 80% the
/// way thresholds of many users crowd near the low end.
fn rung(k: usize) -> f64 {
    let top = 1.0 - 1.0 / K as f64;
    80.0 + 12.0 * (1.0 / (k + 1) as f64 - 1.0 / K as f64) / top
}

fn query(pct: f64, extra: Option<Constraint>) -> ConstraintSet {
    let cs = ConstraintSet::support_only(MinSupport::percent(pct));
    match extra {
        Some(c) => cs.with(c),
        None => cs,
    }
}

/// Reference answer: a scratch mine at ξ through the constraint filter.
fn reference(r: &mut Runner, db: &TransactionDb, cs: &ConstraintSet, par: Parallelism) -> Digest {
    let set: PatternSet = miners_engine::mine(&mut r.tr, FAM, db, cs.min_support(), par);
    Digest::of(&constraints::filter(&mut r.tr, &set, cs, db.len()))
}

pub fn run(r: &mut Runner, ctx: &Ctx) -> Result<Info, String> {
    let text = ctx.work.join("connect4.txt");
    let answer = ctx.work.join("answer.txt");
    let gen = datasets::connect4(TUPLES, ctx.seed);
    let mut db = TransactionDb::new();
    for _ in 0..ctx.setup_reps {
        db = r.setup_rep(|tr| -> Result<TransactionDb, String> {
            data_io::write(tr, &gen.generate(), &text)?;
            data_io::parse(tr, &text)
        })?;
    }
    let n = db.len();
    let par = Parallelism::serial();

    // The item constraint: a seeded half of the items frequent at 80%.
    let counts = db.item_supports();
    let floor = MinSupport::percent(80.0).to_absolute(n);
    let mut pick = Choice::new(ctx.seed);
    let items: Vec<Item> = (0..counts.len() as u32)
        .filter(|&i| counts[i as usize] >= floor && pick.below(2) == 0)
        .map(Item)
        .collect();
    let constraint = |k: usize, maxlen_at: usize, items_at: usize, len: usize| match k {
        _ if k == maxlen_at => Some(Constraint::MaxLength(len)),
        _ if k == items_at => Some(Constraint::SubsetOf(items.clone())),
        _ => None,
    };
    let fleet: Vec<BatchQuery> = (0..K)
        .map(|k| BatchQuery::new(format!("q{k}"), query(rung(k), constraint(k, 2, 5, 5))))
        .collect();
    let follow: Vec<ConstraintSet> =
        (0..K).map(|k| query(rung(k) + 0.5, constraint(k, 1, 4, 4))).collect();
    let relaxed = query(RECYCLE_PCT, None);

    // Untimed warm-up: every answer's reference digest.
    let want_fleet: Vec<Digest> =
        fleet.iter().map(|q| reference(r, &db, q.constraints(), par)).collect();
    let want_follow: Vec<Digest> = follow.iter().map(|cs| reference(r, &db, cs, par)).collect();
    let want_relaxed = reference(r, &db, &relaxed, par);

    let batch = core_batch::build(&fleet, par);
    for c in 0..ctx.cycles {
        r.begin_cycle(c, ctx.trace && c % 2 == 1);
        let store = PatternStore::new();

        let out =
            r.op(Kind::Batch, "batch/k8", |tr| core_batch::run(tr, &batch, &db, FAM, &store, DS));
        match out {
            Ok(out) => {
                for (k, set) in out.results.iter().enumerate() {
                    r.check("fleet member", Ok(Digest::of(set)), want_fleet[k]);
                }
            }
            Err(e) => {
                for _ in 0..K {
                    r.check("fleet member", Err(e.clone()), Digest::default());
                }
            }
        }

        for (k, cs) in follow.iter().enumerate() {
            let got = r.op(Kind::Filtered, format!("filtered/f{k}"), |tr| {
                let xi = cs.min_support().to_absolute(n);
                let set = core_session::filtered(tr, &store, DS, xi).ok_or("no stored superset")?;
                let set =
                    if cs.others().is_empty() { set } else { constraints::filter(tr, &set, cs, n) };
                data_pattern_io::write(tr, &set, &answer)?;
                Ok::<_, String>(set)
            });
            r.check("follow-up", got.map(|s| Digest::of(&s)), want_follow[k]);
        }

        let xi = relaxed.min_support();
        let got = r.op(Kind::Recycled, "recycled/vt/77%", |tr| {
            let fodder = core_store::best_for(tr, &store, DS).ok_or("no stored fodder")?;
            let cdb = core_compress::compress(tr, &db, &fodder, par);
            let set = core_recycle::mine(tr, FAM, &cdb, xi, par);
            data_pattern_io::write(tr, &set, &answer)?;
            core_store::publish(tr, &store, DS, xi.to_absolute(n), set.clone());
            Ok::<_, String>(set)
        });
        r.check("recycled", got.map(|s| Digest::of(&s)), want_relaxed);

        let got = r.op(Kind::Scratch, "scratch/vt/77%", |tr| {
            let set = miners_engine::mine(tr, FAM, &db, xi, par);
            data_pattern_io::write(tr, &set, &answer)?;
            Ok::<_, String>(set)
        });
        r.check("scratch", got.map(|s| Digest::of(&s)), want_relaxed);

        if r.is_traced() {
            // Plan alone, and the same shared pass at two threads.
            let t2 = r.op(Kind::Probe, "probe", |tr| {
                core_batch::plan(tr, &batch, &counts, n);
                util_pool::run_t2(tr, &fleet, &db, FAM)
            });
            if let Err(e) = t2 {
                r.fail(format!("t2 probe: {e}"));
            }
        }
    }
    r.end_cycles();

    Ok(vec![
        ("dataset".into(), "connect4 analog".into()),
        ("tuples".into(), n.to_string()),
        ("fleet".into(), (0..K).map(|k| format!("{:.2}%", rung(k))).collect::<Vec<_>>().join(",")),
        ("constraint_items".into(), items.len().to_string()),
        ("patterns_at_77pct".into(), want_relaxed.count.to_string()),
        ("threads".into(), "1 (probe: 2)".into()),
    ])
}
