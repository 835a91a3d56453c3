//! Host-calibrated end-to-end and per-layer benchmark for gogreen.
//!
//! ```text
//! perfbench --workload <refine-sparse|fleet-dense|ingest-ooc> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of metrics (value, unit, sample count, uncalibrated
//! value) and, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Inputs are generated from the seed; scratch files live
//! under `.bench_work/` in the working directory and are removed on exit.

mod datasets;
mod host;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{Metric, Runner};
use std::path::PathBuf;
use workloads::{Ctx, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: u32 = 5;

/// The end-to-end metrics every workload reports (`BENCHMARK.json`).
const END_TO_END: [&str; 7] = [
    "setup_s",
    "queries_per_s",
    "recycled_round_p50_ms",
    "scratch_round_p50_ms",
    "filtered_round_p50_ms",
    "round_tail_ms",
    "peak_rss_mb",
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::named(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// A JSON number with every digit; -0 and non-finite values print as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = std::env::current_dir()
        .map(|d| {
            d.join(".bench_work").join(format!("{}-{}", args.workload.name, std::process::id()))
        })
        .and_then(|w| std::fs::create_dir_all(w.join("tmp")).map(|_| w));
    let work = match work {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            std::process::exit(1);
        }
    };
    // Spill files go to the temporary directory: keep them in the checkout.
    std::env::set_var("TMPDIR", work.join("tmp"));
    let code = bench(&args, work.clone());
    let _ = std::fs::remove_dir_all(&work);
    std::process::exit(code);
}

fn bench(args: &Args, work: PathBuf) -> i32 {
    let w = args.workload;
    let ctx = Ctx {
        seed: args.seed,
        cycles: w.cycles(args.seconds),
        setup_reps: SETUP_REPS,
        trace: args.trace,
        work,
    };
    let mut runner = Runner::default();
    let started = std::time::Instant::now();
    let info = match (w.run)(&mut runner, &ctx) {
        Ok(info) => info,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            return 1;
        }
    };
    let f = runner.finish();
    println!(
        "workload {} seed {} cycles {} trace {} elapsed_s {:.1}",
        w.name,
        args.seed,
        ctx.cycles,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    for (k, v) in &info {
        println!("  {k} = {v}");
    }
    println!("op types, calibrated ms: n median min max");
    for (ty, n, med, lo, hi) in f.per_type() {
        println!("  {ty:<24} {n:>5} {med:>10.3} {lo:>10.3} {hi:>10.3}");
    }
    for msg in &f.failures {
        println!("  FAILED {msg}");
    }
    let reported: Vec<Metric> = if args.trace {
        let layers = report::per_layer(&f);
        report::print_table("per-layer metrics (traced cycles)", &layers);
        println!("layer self time per traced cycle");
        for (name, ms, share) in report::layer_table(&f) {
            println!("  {name:<20} {ms:>12.3} ms {:>6.1}%", share * 100.0);
        }
        layers
    } else {
        let all = f.end_to_end();
        report::print_table("end-to-end metrics", &all);
        all.into_iter().filter(|m| END_TO_END.contains(&m.name.as_str())).collect()
    };
    let body: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        f.failed == 0,
        f.attempted,
        f.failed,
        body.join(", ")
    );
    0
}
