//! `refine-sparse`: one analyst refining ξ on the weather analog.
//!
//! Each cycle uses one engine family (hm, fp, tp, vt in turn): parse the
//! text database, mine fresh at ξ_old = 5%, relax 4 → 3 → 2 → 1.5 → 1%
//! recycling each step, tighten back up (filtered), add a max-length
//! refinement at 1% (filtered plus `constraints`), mine from scratch at
//! every sweep ξ (the paper's comparator), and write every answer.
//! Single-threaded.

use super::{Ctx, Info};
use crate::datasets;
use crate::layers::{
    constraints, core_compress, core_recycle, core_session, core_store, data_io, data_pattern_io,
    miners_engine, Family,
};
use crate::run::{Kind, Runner};
use crate::stats::Digest;
use gogreen::constraints::{Constraint, ConstraintSet};
use gogreen::core::store::PatternStore;
use gogreen::data::{MinSupport, TransactionDb};
use gogreen::util::pool::Parallelism;
use std::collections::BTreeMap;

/// About 5% of the paper's 1,015,367 tuples.
pub const TUPLES: usize = 50_768;
const XI_OLD: f64 = 5.0;
const RELAX: [f64; 5] = [4.0, 3.0, 2.0, 1.5, 1.0];
const TIGHTEN: [f64; 4] = [1.5, 2.0, 3.0, 4.0];
const MAX_LEN: usize = 3;
const DS: &str = "weather";
/// Nominal calibrated seconds per cycle on the reference host; the cycle
/// count is derived from `--seconds` with it, so it never depends on how
/// fast a run happens to go.
pub const NOMINAL_CYCLE_S: f64 = 1.15;

fn pct(p: f64) -> MinSupport {
    MinSupport::percent(p)
}

fn label(p: f64) -> String {
    format!("{p}%")
}

pub fn run(r: &mut Runner, ctx: &Ctx) -> Result<Info, String> {
    let text = ctx.work.join("weather.txt");
    let answer = ctx.work.join("answer.txt");
    let gen = datasets::weather(TUPLES, ctx.seed);
    let mut db = TransactionDb::new();
    for _ in 0..ctx.setup_reps {
        db = r.setup_rep(|tr| -> Result<TransactionDb, String> {
            data_io::write(tr, &gen.generate(), &text)?;
            data_io::parse(tr, &text)
        })?;
    }
    let n = db.len();
    let par = Parallelism::serial();
    let maxlen = |p: f64| ConstraintSet::support_only(pct(p)).with(Constraint::MaxLength(MAX_LEN));

    // Untimed warm-up: reference digests from the vt family at every ξ.
    let mut want: BTreeMap<String, Digest> = BTreeMap::new();
    for p in std::iter::once(XI_OLD).chain(RELAX) {
        let set = miners_engine::mine(&mut r.tr, Family::Vt, &db, pct(p), par);
        want.insert(label(p), Digest::of(&set));
        if p == 1.0 {
            let cs = maxlen(p);
            want.insert("maxlen".into(), Digest::of(&constraints::filter(&mut r.tr, &set, &cs, n)));
        }
    }

    for c in 0..ctx.cycles {
        let fam = Family::ALL[c as usize % 4];
        let f = fam.tag();
        r.begin_cycle(c, ctx.trace && (c / 4) % 2 == 1);
        let parsed = r.op(Kind::Load, "parse", |tr| data_io::parse(tr, &text));
        let db = match parsed {
            Ok(db) if db.len() == n => db,
            Ok(other) => {
                return Err(format!("parse returned {} tuples, expected {n}", other.len()))
            }
            Err(e) => return Err(e),
        };
        let store = PatternStore::new();

        let fresh = r.op(Kind::Scratch, format!("scratch/{f}/{}", label(XI_OLD)), |tr| {
            let set = miners_engine::mine(tr, fam, &db, pct(XI_OLD), par);
            data_pattern_io::write(tr, &set, &answer)?;
            core_store::publish(tr, &store, DS, pct(XI_OLD).to_absolute(n), set.clone());
            Ok::<_, String>(set)
        });
        r.check("fresh", fresh.map(|s| Digest::of(&s)), want[&label(XI_OLD)]);

        for p in RELAX {
            let got = r.op(Kind::Recycled, format!("recycled/{f}/{}", label(p)), |tr| {
                let fodder = core_store::best_for(tr, &store, DS).ok_or("no stored fodder")?;
                let cdb = core_compress::compress(tr, &db, &fodder, par);
                let set = core_recycle::mine(tr, fam, &cdb, pct(p), par);
                data_pattern_io::write(tr, &set, &answer)?;
                core_store::publish(tr, &store, DS, pct(p).to_absolute(n), set.clone());
                Ok::<_, String>(set)
            });
            r.check("recycled", got.map(|s| Digest::of(&s)), want[&label(p)]);
        }

        for p in TIGHTEN {
            let got = r.op(Kind::Filtered, format!("filtered/{}", label(p)), |tr| {
                let set = core_session::filtered(tr, &store, DS, pct(p).to_absolute(n))
                    .ok_or("no stored superset")?;
                data_pattern_io::write(tr, &set, &answer)?;
                Ok::<_, String>(set)
            });
            r.check("filtered", got.map(|s| Digest::of(&s)), want[&label(p)]);
        }

        let got = r.op(Kind::Filtered, "filtered/maxlen", |tr| {
            let cs = maxlen(1.0);
            let set = core_session::filtered(tr, &store, DS, pct(1.0).to_absolute(n))
                .ok_or("no stored superset")?;
            let set = constraints::filter(tr, &set, &cs, n);
            data_pattern_io::write(tr, &set, &answer)?;
            Ok::<_, String>(set)
        });
        r.check("maxlen", got.map(|s| Digest::of(&s)), want["maxlen"]);

        for p in RELAX {
            let got = r.op(Kind::Scratch, format!("scratch/{f}/{}", label(p)), |tr| {
                let set = miners_engine::mine(tr, fam, &db, pct(p), par);
                data_pattern_io::write(tr, &set, &answer)?;
                Ok::<_, String>(set)
            });
            r.check("scratch", got.map(|s| Digest::of(&s)), want[&label(p)]);
        }
    }
    r.end_cycles();

    let text_bytes = std::fs::metadata(&text).map_err(|e| e.to_string())?.len();
    Ok(vec![
        ("dataset".into(), "weather analog".into()),
        ("tuples".into(), n.to_string()),
        ("text_bytes".into(), text_bytes.to_string()),
        ("patterns_at_1pct".into(), want[&label(1.0)].count.to_string()),
        ("threads".into(), "1".into()),
    ])
}
