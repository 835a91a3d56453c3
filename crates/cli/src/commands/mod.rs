//! One module per subcommand.

pub mod compact;
pub mod compress;
pub mod diff;
pub mod generate;
pub mod mine;
pub mod recycle;
pub mod session;
pub mod stats;

use crate::args::Args;
use gogreen_core::engine::{engine_keys, Engine, EngineOpts, Family, VtRepr};
use gogreen_core::utility::Strategy;
use gogreen_data::{MinSupport, TransactionDb};
use gogreen_util::pool::Parallelism;
use std::io::Write;

/// Loads a transaction database with a friendly error.
pub fn load_db(path: &str) -> Result<TransactionDb, String> {
    gogreen_data::io::read_file(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Parses a `--strategy` value (default MCP).
pub fn parse_strategy(opt: Option<&str>) -> Result<Strategy, String> {
    match opt.unwrap_or("mcp") {
        "mcp" => Ok(Strategy::Mcp),
        "mlp" => Ok(Strategy::Mlp),
        other => Err(format!("unknown strategy {other:?} (mcp|mlp)")),
    }
}

/// Parses a `--threads` value (default 1 = serial; `0` = all cores).
pub fn parse_threads(opt: Option<&str>) -> Result<Parallelism, String> {
    match opt {
        None => Ok(Parallelism::serial()),
        Some(v) => {
            let n: usize = v.parse().map_err(|_| format!("invalid --threads {v:?}"))?;
            Ok(Parallelism::threads(n))
        }
    }
}

/// Parses the engine flags shared by `mine` and `recycle`: `--algo`
/// (default H-Mine) and `--vt-repr auto|bitmap|tidlist|diffset`.
pub fn parse_engine(args: &Args) -> Result<Engine, String> {
    let family = match args.opt("algo") {
        None => Family::Hm,
        Some(a) => {
            Family::from_key(a).ok_or_else(|| format!("unknown algo {a:?} ({})", engine_keys()))?
        }
    };
    let vt_repr = match args.opt("vt-repr") {
        None => VtRepr::Auto,
        Some(v) => VtRepr::parse(v)
            .ok_or_else(|| format!("unknown --vt-repr {v:?} (auto|bitmap|tidlist|diffset)"))?,
    };
    Ok(Engine { family, opts: EngineOpts { vt_repr } })
}

/// Renders a support back for messages.
pub fn show_support(ms: MinSupport, db_len: usize) -> String {
    format!("{ms} (≥ {} tuples)", ms.to_absolute(db_len))
}

/// Measures a mining closure's arena traffic: runs `f` with the metrics
/// registry enabled and returns the `alloc.projection_bytes` delta —
/// the bytes every engine family's slab arenas (horizontal projection
/// slabs and vertical column arenas alike) report on flush. Restores
/// the registry's enabled state, so `--metrics-out` accounting is
/// unaffected.
pub fn measure_arena_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let was_enabled = gogreen_obs::metrics::enabled();
    if !was_enabled {
        gogreen_obs::metrics::set_enabled(true);
    }
    let before = gogreen_obs::metrics::get("alloc.projection_bytes").unwrap_or(0);
    let out = f();
    let after = gogreen_obs::metrics::get("alloc.projection_bytes").unwrap_or(0);
    if !was_enabled {
        gogreen_obs::metrics::set_enabled(false);
    }
    (out, after.saturating_sub(before))
}

/// Segment traffic of an out-of-core command, for the summary row.
pub struct StorageTraffic {
    /// Full segment payload loads (`storage.segments_read` delta).
    pub passes: u64,
    /// Largest segment payload resident at once.
    pub resident_peak: u64,
}

/// Measures a closure's segment traffic alongside its arena bytes: the
/// out-of-core analog of [`measure_arena_bytes`], returning how many
/// segment passes the work made and the resident high-water mark.
pub fn measure_storage<T>(f: impl FnOnce() -> T) -> (T, u64, StorageTraffic) {
    let was_enabled = gogreen_obs::metrics::enabled();
    if !was_enabled {
        gogreen_obs::metrics::set_enabled(true);
    }
    let arena_before = gogreen_obs::metrics::get("alloc.projection_bytes").unwrap_or(0);
    let passes_before = gogreen_obs::metrics::get("storage.segments_read").unwrap_or(0);
    let out = f();
    let arena_after = gogreen_obs::metrics::get("alloc.projection_bytes").unwrap_or(0);
    let passes_after = gogreen_obs::metrics::get("storage.segments_read").unwrap_or(0);
    let resident_peak = gogreen_obs::metrics::get("storage.resident_peak").unwrap_or(0);
    if !was_enabled {
        gogreen_obs::metrics::set_enabled(false);
    }
    let traffic =
        StorageTraffic { passes: passes_after.saturating_sub(passes_before), resident_peak };
    (out, arena_after.saturating_sub(arena_before), traffic)
}

/// Parses a byte count with an optional binary suffix: `4096`, `64k`,
/// `4M`, `1g`, `8MiB`.
pub fn parse_bytes(text: &str) -> Result<usize, String> {
    let lower = text.to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = lower.strip_suffix("kib").or(lower.strip_suffix("kb")) {
        (d, 1usize << 10)
    } else if let Some(d) = lower.strip_suffix("mib").or(lower.strip_suffix("mb")) {
        (d, 1 << 20)
    } else if let Some(d) = lower.strip_suffix("gib").or(lower.strip_suffix("gb")) {
        (d, 1 << 30)
    } else if let Some(d) = lower.strip_suffix('k') {
        (d, 1 << 10)
    } else if let Some(d) = lower.strip_suffix('m') {
        (d, 1 << 20)
    } else if let Some(d) = lower.strip_suffix('g') {
        (d, 1 << 30)
    } else {
        (lower.as_str(), 1)
    };
    let n: usize = digits.trim().parse().map_err(|_| format!("invalid byte count {text:?}"))?;
    n.checked_mul(mult).ok_or_else(|| format!("byte count {text:?} overflows"))
}

/// Renders a byte count for summary rows (`1.4 MiB`, `312 KiB`, `96 B`).
pub fn show_bytes(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 20 => format!("{:.1} MiB", b as f64 / (1 << 20) as f64),
        b if b >= 1 << 10 => format!("{:.1} KiB", b as f64 / (1 << 10) as f64),
        b => format!("{b} B"),
    }
}

/// Observability wiring shared by the mining subcommands: honours
/// `--trace-out <file>`, `--metrics-out <file>`, `--profile-out <file>`,
/// `--snapshot-out <file>` and `--quiet-metrics`. Build one right after
/// [`Args::parse`] and call [`ObsGuard::finish`] once the command's work
/// is done.
pub struct ObsGuard {
    metrics_out: Option<String>,
    profile_out: Option<String>,
    snapshot_out: bool,
}

/// Installs the trace writer, enables the metrics registry and the
/// profile/snapshot layers as requested, and records where to write
/// each output on [`ObsGuard::finish`].
pub fn setup_obs(args: &Args) -> Result<ObsGuard, String> {
    gogreen_obs::set_quiet(args.switch("quiet-metrics"));
    if let Some(path) = args.opt("trace-out") {
        let f = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        gogreen_obs::set_trace_writer(Box::new(std::io::BufWriter::new(f)));
    }
    let metrics_out = args.opt("metrics-out").map(str::to_owned);
    let profile_out = args.opt("profile-out").map(str::to_owned);
    let snapshot_out = args.opt("snapshot-out").map(str::to_owned);
    if metrics_out.is_some() || snapshot_out.is_some() || args.opt("trace-out").is_some() {
        gogreen_obs::metrics::set_enabled(true);
    }
    if profile_out.is_some() {
        gogreen_obs::profile::reset();
        gogreen_obs::profile::set_enabled(true);
    }
    if let Some(path) = &snapshot_out {
        // Each emitted snapshot (e.g. one per session round) becomes one
        // JSON line: {"snapshot":label,"counters":{..},..}.
        let f = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut w = std::io::BufWriter::new(f);
        gogreen_obs::snapshot::set_exporter(Box::new(move |label, snap| {
            let mut line = vec![("snapshot", gogreen_util::Json::from(label))];
            if let gogreen_util::Json::Obj(fields) = snap.to_json() {
                line.extend(fields.into_iter().map(|(k, v)| match k.as_str() {
                    "counters" => ("counters", v),
                    "maxes" => ("maxes", v),
                    _ => ("hists", v),
                }));
            }
            let _ = writeln!(w, "{}", gogreen_util::Json::obj(line).dump());
        }));
    }
    Ok(ObsGuard { metrics_out, profile_out, snapshot_out: snapshot_out.is_some() })
}

impl ObsGuard {
    /// Writes the metric snapshot as JSONL (counters + histograms),
    /// writes the collapsed-stack profile, prints the human-readable
    /// tables to stderr (unless `--quiet-metrics`), and flushes/closes
    /// the trace and snapshot writers.
    pub fn finish(self) -> Result<(), String> {
        if let Some(path) = &self.metrics_out {
            let mut body = gogreen_obs::metrics::to_jsonl();
            body.push_str(&gogreen_obs::histogram::to_jsonl());
            std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
            if !gogreen_obs::quiet() {
                eprintln!("metrics ({path}):\n{}", gogreen_obs::metrics::render_table());
                let hists = gogreen_obs::histogram::render_table();
                if !hists.contains("no histograms") {
                    eprintln!("histograms ({path}):\n{hists}");
                }
            }
        }
        if let Some(path) = &self.profile_out {
            gogreen_obs::profile::set_enabled(false);
            std::fs::write(path, gogreen_obs::profile::to_collapsed())
                .map_err(|e| format!("writing {path}: {e}"))?;
            if !gogreen_obs::quiet() {
                eprintln!("profile ({path}):\n{}", gogreen_obs::profile::render_table());
            }
        }
        if self.snapshot_out {
            // Dropping the exporter flushes its BufWriter.
            drop(gogreen_obs::snapshot::take_exporter());
        }
        if let Some(mut w) = gogreen_obs::take_trace_writer() {
            w.flush().map_err(|e| format!("flushing trace: {e}"))?;
        }
        Ok(())
    }
}
