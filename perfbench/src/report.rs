//! Per-layer metrics of the traced run, and the printed tables.

use crate::layers::Family;
use crate::run::{Finished, Kind, Layers, Metric};
use crate::stats::median;
use gogreen::obs::metrics;

fn m(name: String, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit, n: 0, raw: None, note: String::new() }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. Times are
/// calibrated self times per traced cycle unless the name says
/// otherwise; layers a workload does not exercise report 0.
pub fn per_layer(f: &Finished) -> Vec<Metric> {
    let l = Layers::new(f);
    let mut out = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| out.push(m(name.into(), value, unit));

    let (busy, cover) = l.busy_and_cover();
    push("host.ref_kernel_ms", median(&f.refs).unwrap_or(0.0), "ms");
    push("host.wall_queries_per_s", l.wall_qps_untraced(), "1/s");
    push("host.busy_ms", busy, "ms");
    push("host.layer_cover_frac", cover, "1");
    push("obs.trace_overhead_frac", l.trace_overhead_frac(), "1");

    let parse_s = l.self_total_ms("data_io", Some("parse")) / 1e3;
    push("data_io.parse_ms", l.self_ms("data_io", Some("parse")), "ms");
    push(
        "data_io.parse_mb_per_s",
        ratio(l.attr_sum("data_io", Some("parse"), "bytes") / 1e6, parse_s),
        "MB/s",
    );
    push("data_pattern_io.write_ms", l.self_ms("data_pattern_io", None), "ms");
    push(
        "data_pattern_io.write_bytes",
        l.per_cycle(l.attr_sum("data_pattern_io", None, "bytes")),
        "bytes",
    );

    let compress_spans = ["core_compress", "storage_ooc"];
    push("core_compress.ms", l.self_ms("core_compress", None), "ms");
    push("core_compress.ratio", l.attr_mean(&compress_spans, "ratio"), "1");
    push("core_compress.groups", l.attr_mean(&compress_spans, "groups"), "count");
    push("core_compress.covered_frac", l.attr_mean(&compress_spans, "covered_frac"), "1");

    for layer in ["core_recycle", "miners_engine"] {
        for fam in Family::ALL {
            let t = fam.tag();
            push(&format!("{layer}.{t}_ms"), l.self_ms(layer, Some(t)), "ms");
            push(
                &format!("{layer}.{t}_touches"),
                l.counter(layer, Some(t), "mine.tuple_touches"),
                "count",
            );
        }
    }

    push("core_session.filter_ms", l.self_ms("core_session", None), "ms");
    push("core_session.hit_frac", l.hit_frac(), "1");
    push("core_store.fodder_patterns", l.attr_mean(&["core_store"], "fodder_patterns"), "count");
    push("constraints.filter_ms", l.self_ms("constraints", None), "ms");

    let plans = l.durations("core_batch", Some("plan"));
    let runs = l.durations("core_batch", Some("run"));
    let t2 = l.durations("util_pool", Some("t2"));
    push("core_batch.plan_ms", median(&plans).unwrap_or(0.0), "ms");
    push("core_batch.run_ms", l.self_ms("core_batch", Some("run")), "ms");
    push("core_batch.fleet_p50_ms", l.ops_p50(Kind::Batch), "ms");
    push(
        "core_batch.shared_passes",
        l.counter("core_batch", Some("run"), "batch.shared_passes"),
        "count",
    );
    push(
        "core_batch.admit_frac",
        ratio(
            l.attr_sum("core_batch", Some("run"), "admitted"),
            l.attr_sum("core_batch", Some("run"), "queries"),
        ),
        "1",
    );
    push(
        "core_batch.demux_patterns",
        l.counter("core_batch", Some("run"), "batch.demux_patterns"),
        "count",
    );
    push(
        "util_pool.t2_speedup",
        ratio(median(&runs).unwrap_or(0.0), median(&t2).unwrap_or(0.0)),
        "1",
    );

    push("storage_segment.write_ms", l.self_ms("storage_segment", Some("write")), "ms");
    push("storage_segment.ingest_mb_per_s", f.ingest_mb_per_s(true).map_or(0.0, |t| t.0), "MB/s");
    push(
        "storage_segment.bytes_per_user_byte",
        ratio(l.note_sum("disk_bytes"), l.note_sum("user_bytes")),
        "1",
    );
    push(
        "storage_segment.segments_written",
        l.counter("op", None, "storage.segments_written"),
        "count",
    );
    push("storage_segment.segments_read", l.counter("op", None, "storage.segments_read"), "count");
    push("storage_segment.compact_ms", l.self_ms("storage_segment", Some("compact")), "ms");
    push(
        "storage_segment.compact_bytes_rewritten",
        l.per_cycle(l.note_sum("compact_bytes_rewritten")),
        "bytes",
    );
    push("storage_version.bytes", l.per_cycle(l.note_sum("version_bytes")), "bytes");
    push("storage_version.delta_bytes", l.counter("op", None, "storage.delta_bytes"), "bytes");
    push("storage_ooc.mine_ms", l.self_ms("storage_ooc", None), "ms");
    let budget =
        f.notes.iter().filter(|(k, _)| *k == "budget_bytes").map(|&(_, v)| v).fold(0.0, f64::max);
    let peak = metrics::get("storage.resident_peak").unwrap_or(0) as f64;
    push("storage_ooc.resident_peak_frac", ratio(peak, budget), "1");
    push("storage_limited.mine_ms", l.self_ms("storage_limited", None), "ms");
    push(
        "storage_limited.spills",
        l.per_cycle(l.attr_sum("storage_limited", None, "spills")),
        "count",
    );
    push(
        "storage_limited.disk_bytes",
        l.per_cycle(l.attr_sum("storage_limited", None, "disk_bytes")),
        "bytes",
    );
    for x in &mut out {
        x.n = l.traced_cycles();
    }
    out
}

/// Calibrated self time per traced cycle of every layer, largest first,
/// with its share of the traced busy time.
pub fn layer_table(f: &Finished) -> Vec<(String, f64, f64)> {
    let l = Layers::new(f);
    let (busy, _) = l.busy_and_cover();
    let mut names: Vec<&str> =
        f.tracer.spans().iter().map(|s| s.name).filter(|&n| n != "op").collect();
    names.sort_unstable();
    names.dedup();
    let mut rows: Vec<(String, f64, f64)> = names
        .into_iter()
        .map(|n| {
            let ms = l.self_ms(n, None);
            (n.to_string(), ms, ratio(ms, busy))
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!("  {:<40} {:>14} {:<6} {:>6} {:>14}  note", "metric", "value", "unit", "n", "raw");
    for x in metrics {
        let raw = x.raw.map_or(String::new(), |r| format!("{r:.4}"));
        println!(
            "  {:<40} {:>14.4} {:<6} {:>6} {:>14}  {}",
            x.name, x.value, x.unit, x.n, raw, x.note
        );
    }
}
