//! The closed-loop runner: timed ops with host calibration, the
//! correctness gate, and the end-to-end and per-layer metrics computed
//! from what was recorded.

use crate::host;
use crate::stats::{median, tail, Digest};
use crate::trace::{self_times, Tracer};
use std::time::Instant;

/// What an op does. Each `*_p50_ms` metric covers one kind, and within a
/// kind every op type (kind, family, ξ, …) is summarised by its own
/// median first, so no percentile is taken over a mix of op types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Parse a text database.
    Load,
    /// Append rows through the segment writer.
    Ingest,
    /// Mine from scratch.
    Scratch,
    /// Compress with a stored set and mine the compressed database.
    Recycled,
    /// Answer from a stored set by filtering.
    Filtered,
    /// Answer a fleet of queries with one shared pass.
    Batch,
    /// Rewrite segments.
    Compact,
    /// Memory-limited mining with disk spills.
    Limited,
    /// Traced-run-only measurements (plan, two-thread pass); never in end-to-end
    /// metrics.
    Probe,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Load => "load",
            Kind::Ingest => "ingest",
            Kind::Scratch => "scratch",
            Kind::Recycled => "recycled",
            Kind::Filtered => "filtered",
            Kind::Batch => "batch",
            Kind::Compact => "compact",
            Kind::Limited => "limited",
            Kind::Probe => "probe",
        }
    }

    /// Ops that answer queries; `round_tail_ms` is taken over these.
    pub fn is_round(self) -> bool {
        matches!(
            self,
            Kind::Scratch | Kind::Recycled | Kind::Filtered | Kind::Batch | Kind::Limited
        )
    }
}

#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub ty: String,
    pub traced: bool,
    pub wall_ms: f64,
    /// Answers of this op that passed the correctness gate.
    pub answers_ok: u32,
    /// Input bytes the op took in (ingest ops).
    pub bytes: f64,
}

#[derive(Default)]
pub struct Runner {
    pub tr: Tracer,
    pub ops: Vec<Op>,
    /// Reference-kernel time before each op, plus one closing run.
    refs: Vec<f64>,
    /// Calibrated set-up repetitions, in seconds.
    pub setup_s: Vec<f64>,
    pub setup_wall_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    cycle: u32,
    traced: bool,
    /// Values a workload records in traced cycles for per-layer metrics.
    pub notes: Vec<(&'static str, f64)>,
}

impl Runner {
    /// Times one set-up repetition between two reference-kernel runs.
    pub fn setup_rep<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let before = host::ref_kernel();
        let t0 = Instant::now();
        let out = f(&mut self.tr);
        let wall = t0.elapsed().as_secs_f64();
        let after = host::ref_kernel();
        self.setup_wall_s.push(wall);
        self.setup_s.push(host::calibrate(wall, (before + after) / 2.0));
        out
    }

    pub fn begin_cycle(&mut self, cycle: u32, traced: bool) {
        self.cycle = cycle;
        self.traced = traced;
        self.tr.set_on(traced);
    }

    /// Stops tracing after the last cycle.
    pub fn end_cycles(&mut self) {
        self.tr.set_on(false);
    }

    pub fn is_traced(&self) -> bool {
        self.traced
    }

    /// Runs one timed op, preceded by a reference-kernel run.
    pub fn op<T>(
        &mut self,
        kind: Kind,
        ty: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.refs.push(host::ref_kernel());
        let idx = self.ops.len();
        self.tr.set_position(self.cycle, idx);
        let t0 = Instant::now();
        let out = self.tr.span("op", kind.label(), f);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.ops.push(Op {
            kind,
            ty: ty.into(),
            traced: self.traced,
            wall_ms,
            answers_ok: 0,
            bytes: 0.0,
        });
        out
    }

    /// The correctness gate: one attempted query whose answer must match
    /// its reference digest. The answer is credited to the latest op.
    pub fn check(&mut self, label: &str, got: Result<Digest, String>, want: Digest) {
        self.attempted += 1;
        match got {
            Ok(d) if d == want => {
                if let Some(op) = self.ops.last_mut() {
                    op.answers_ok += 1;
                }
            }
            Ok(d) => self.fail(format!(
                "{label}: digest {}/{:016x}, expected {}/{:016x}",
                d.count, d.hash, want.count, want.hash
            )),
            Err(e) => self.fail(format!("{label}: {e}")),
        }
    }

    /// Sets the input bytes of the latest op.
    pub fn set_bytes(&mut self, bytes: f64) {
        if let Some(op) = self.ops.last_mut() {
            op.bytes = bytes;
        }
    }

    /// Records a failure that is not a query answer (set-up, I/O).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    pub fn note(&mut self, key: &'static str, value: f64) {
        if self.traced {
            self.notes.push((key, value));
        }
    }

    /// Closes the run: one last reference-kernel run so every op has a
    /// kernel run on each side, then the calibrated op times.
    pub fn finish(self) -> Finished {
        let mut refs = self.refs;
        refs.push(host::ref_kernel());
        let factor: Vec<f64> = (0..self.ops.len())
            .map(|i| host::REF_NOMINAL_MS / host::adjacent_ref(&refs, i))
            .collect();
        let cal_ms = self.ops.iter().zip(&factor).map(|(op, f)| op.wall_ms * f).collect();
        Finished {
            ops: self.ops,
            cal_ms,
            factor,
            refs,
            setup_s: self.setup_s,
            setup_wall_s: self.setup_wall_s,
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            tracer: self.tr,
            notes: self.notes,
        }
    }
}

/// One metric as printed: value, unit, sample count and, for timings,
/// the uncalibrated counterpart.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    pub raw: Option<f64>,
    pub note: String,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit, n: 0, raw: None, note: String::new() }
    }
}

pub struct Finished {
    pub ops: Vec<Op>,
    pub cal_ms: Vec<f64>,
    factor: Vec<f64>,
    pub refs: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub setup_wall_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub tracer: Tracer,
    pub notes: Vec<(&'static str, f64)>,
}

impl Finished {
    fn select(&self, traced: bool, keep: impl Fn(&Op) -> bool) -> Vec<usize> {
        (0..self.ops.len())
            .filter(|&i| self.ops[i].traced == traced && keep(&self.ops[i]))
            .collect()
    }

    /// Mean over op types of each type's median (calibrated, raw), with
    /// the sample and type counts.
    fn kind_p50(&self, kind: Kind, traced: bool) -> Option<(f64, f64, usize, usize)> {
        let idx = self.select(traced, |op| op.kind == kind);
        let mut types: Vec<&str> = idx.iter().map(|&i| self.ops[i].ty.as_str()).collect();
        types.sort_unstable();
        types.dedup();
        if types.is_empty() {
            return None;
        }
        let (mut cal, mut raw) = (0.0, 0.0);
        for ty in &types {
            let of_ty: Vec<usize> =
                idx.iter().copied().filter(|&i| self.ops[i].ty == *ty).collect();
            let c: Vec<f64> = of_ty.iter().map(|&i| self.cal_ms[i]).collect();
            let r: Vec<f64> = of_ty.iter().map(|&i| self.ops[i].wall_ms).collect();
            cal += median(&c).expect("type has samples");
            raw += median(&r).expect("type has samples");
        }
        let k = types.len() as f64;
        Some((cal / k, raw / k, idx.len(), types.len()))
    }

    /// Per op type: (type, samples, calibrated median, min, max), in
    /// first-seen order.
    pub fn per_type(&self) -> Vec<(String, usize, f64, f64, f64)> {
        let mut types: Vec<&str> = Vec::new();
        for op in &self.ops {
            if !types.contains(&op.ty.as_str()) {
                types.push(&op.ty);
            }
        }
        types
            .into_iter()
            .map(|ty| {
                let v: Vec<f64> = (0..self.ops.len())
                    .filter(|&i| self.ops[i].ty == ty)
                    .map(|i| self.cal_ms[i])
                    .collect();
                let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = v.iter().copied().fold(0.0, f64::max);
                (ty.to_string(), v.len(), median(&v).unwrap_or(0.0), lo, hi)
            })
            .collect()
    }

    /// Answers per second of summed op time (calibrated, raw), over the
    /// cycles with the given tracing state.
    fn qps(&self, traced: bool) -> (f64, f64) {
        let idx = self.select(traced, |op| op.kind != Kind::Probe);
        let answers: u32 = idx.iter().map(|&i| self.ops[i].answers_ok).sum();
        let cal: f64 = idx.iter().map(|&i| self.cal_ms[i]).sum();
        let raw: f64 = idx.iter().map(|&i| self.ops[i].wall_ms).sum();
        let a = f64::from(answers);
        (a / (cal / 1e3).max(1e-9), a / (raw / 1e3).max(1e-9))
    }

    /// The end-to-end metrics, from the untraced cycles. The first seven
    /// are the ones every workload reports; the rest appear only where
    /// the workload exercises them, or are diagnostics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        let mut m = Metric::new("setup_s", median(&self.setup_s).unwrap_or(0.0), "s");
        m.n = self.setup_s.len();
        m.raw = median(&self.setup_wall_s);
        out.push(m);

        let (qps, qps_raw) = self.qps(false);
        let mut m = Metric::new("queries_per_s", qps, "1/s");
        m.n = self.select(false, |op| op.answers_ok > 0).len();
        m.raw = Some(qps_raw);
        out.push(m);

        for (name, kind) in [
            ("recycled_round_p50_ms", Kind::Recycled),
            ("scratch_round_p50_ms", Kind::Scratch),
            ("filtered_round_p50_ms", Kind::Filtered),
        ] {
            let (cal, raw, n, types) = self.kind_p50(kind, false).unwrap_or((0.0, 0.0, 0, 0));
            let mut m = Metric::new(name, cal, "ms");
            m.n = n;
            m.raw = Some(raw);
            m.note = format!("mean of {types} per-type medians");
            out.push(m);
        }

        let rounds = self.select(false, |op| op.kind.is_round());
        let cal: Vec<f64> = rounds.iter().map(|&i| self.cal_ms[i]).collect();
        let raw: Vec<f64> = rounds.iter().map(|&i| self.ops[i].wall_ms).collect();
        let (pct, v) = tail(&cal).unwrap_or((0.0, 0.0));
        let mut m = Metric::new("round_tail_ms", v, "ms");
        m.n = cal.len();
        m.raw = tail(&raw).map(|t| t.1);
        m.note = format!("p{pct:.2}");
        out.push(m);

        let mut m = Metric::new("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MiB");
        m.n = 1;
        out.push(m);

        if let Some((cal, raw, n, _)) = self.kind_p50(Kind::Batch, false) {
            let mut m = Metric::new("batch_p50_ms", cal, "ms");
            m.n = n;
            m.raw = Some(raw);
            out.push(m);
        }
        if let Some((cal, raw, n)) = self.ingest_mb_per_s(false) {
            let mut m = Metric::new("ingest_mb_per_s", cal, "MB/s");
            m.n = n;
            m.raw = Some(raw);
            out.push(m);
        }
        let mut m = Metric::new("host.ref_kernel_ms", median(&self.refs).unwrap_or(0.0), "ms");
        m.n = self.refs.len();
        out.push(m);
        let mut m =
            Metric::new("failed_frac", self.failed as f64 / self.attempted.max(1) as f64, "1");
        m.n = self.attempted as usize;
        out.push(m);
        out
    }

    /// Raw row bytes appended per second of segment-writer op time
    /// (calibrated, raw, ops).
    pub fn ingest_mb_per_s(&self, traced: bool) -> Option<(f64, f64, usize)> {
        let idx = self.select(traced, |op| op.kind == Kind::Ingest);
        if idx.is_empty() {
            return None;
        }
        let mb: f64 = idx.iter().map(|&i| self.ops[i].bytes).sum::<f64>() / 1e6;
        let cal: f64 = idx.iter().map(|&i| self.cal_ms[i]).sum::<f64>() / 1e3;
        let raw: f64 = idx.iter().map(|&i| self.ops[i].wall_ms).sum::<f64>() / 1e3;
        Some((mb / cal, mb / raw, idx.len()))
    }

    fn notes_all(&self, key: &str) -> Vec<f64> {
        self.notes.iter().filter(|(k, _)| *k == key).map(|&(_, v)| v).collect()
    }
}

/// Per-layer aggregation over the traced cycles' spans.
pub struct Layers<'a> {
    f: &'a Finished,
    own: Vec<f64>,
    /// Spans of probe ops: measured, but outside the workload's busy time.
    probe: Vec<bool>,
    cycles: f64,
}

impl<'a> Layers<'a> {
    pub fn new(f: &'a Finished) -> Layers<'a> {
        let own = self_times(f.tracer.spans())
            .into_iter()
            .zip(f.tracer.spans())
            .map(|(t, s)| t * f.factor[s.op])
            .collect();
        let probe: Vec<bool> =
            f.tracer.spans().iter().map(|s| f.ops[s.op].kind == Kind::Probe).collect();
        let mut traced: Vec<u32> = f.tracer.spans().iter().map(|s| s.cycle).collect();
        traced.sort_unstable();
        traced.dedup();
        Layers { f, own, probe, cycles: traced.len().max(1) as f64 }
    }

    fn matching(&self, name: &str, tag: Option<&str>) -> Vec<usize> {
        let spans = self.f.tracer.spans();
        (0..spans.len())
            .filter(|&i| spans[i].name == name && tag.is_none_or(|t| spans[i].tag == t))
            .collect()
    }

    /// Calibrated self time per traced cycle, probe ops excluded.
    pub fn self_ms(&self, name: &str, tag: Option<&str>) -> f64 {
        self.self_total_ms(name, tag) / self.cycles
    }

    /// Total calibrated self time (not per cycle), probe ops excluded.
    pub fn self_total_ms(&self, name: &str, tag: Option<&str>) -> f64 {
        self.matching(name, tag)
            .iter()
            .filter(|&&i| !self.probe[i])
            .map(|&i| self.own[i])
            .sum::<f64>()
            + 0.0
    }

    /// Calibrated span durations, one per matching span.
    pub fn durations(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        let spans = self.f.tracer.spans();
        self.matching(name, tag)
            .iter()
            .map(|&i| spans[i].ms() * self.f.factor[spans[i].op])
            .collect()
    }

    /// Counter delta inside matching spans, per traced cycle, probe ops
    /// excluded.
    pub fn counter(&self, name: &str, tag: Option<&str>, counter: &str) -> f64 {
        let spans = self.f.tracer.spans();
        let total: f64 = self
            .matching(name, tag)
            .iter()
            .filter(|&&i| !self.probe[i])
            .map(|&i| spans[i].counter(counter) as f64)
            .sum();
        total / self.cycles + 0.0
    }

    pub fn attr_sum(&self, name: &str, tag: Option<&str>, key: &str) -> f64 {
        let spans = self.f.tracer.spans();
        self.matching(name, tag).iter().filter_map(|&i| spans[i].attr(key)).sum::<f64>() + 0.0
    }

    pub fn attr_mean(&self, names: &[&str], key: &str) -> f64 {
        let spans = self.f.tracer.spans();
        let v: Vec<f64> =
            spans.iter().filter(|s| names.contains(&s.name)).filter_map(|s| s.attr(key)).collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    pub fn note_sum(&self, key: &str) -> f64 {
        self.f.notes_all(key).iter().sum::<f64>() + 0.0
    }

    pub fn traced_cycles(&self) -> usize {
        self.cycles as usize
    }

    pub fn per_cycle(&self, total: f64) -> f64 {
        total / self.cycles
    }

    /// Calibrated busy time of the traced cycles and the share of it the
    /// layers' self times cover.
    pub fn busy_and_cover(&self) -> (f64, f64) {
        let spans = self.f.tracer.spans();
        let busy: f64 = (0..spans.len())
            .filter(|&i| spans[i].name == "op" && !self.probe[i])
            .map(|i| spans[i].ms() * self.f.factor[spans[i].op])
            .sum();
        let layered: f64 = (0..spans.len())
            .filter(|&i| spans[i].name != "op" && !self.probe[i])
            .map(|i| self.own[i])
            .sum();
        (busy / self.cycles, if busy > 0.0 { layered / busy } else { 0.0 })
    }

    /// Answers per second, traced vs untraced cycles: the tracing cost.
    pub fn trace_overhead_frac(&self) -> f64 {
        let (traced, _) = self.f.qps(true);
        let (untraced, _) = self.f.qps(false);
        if untraced > 0.0 {
            1.0 - traced / untraced
        } else {
            0.0
        }
    }

    pub fn wall_qps_untraced(&self) -> f64 {
        self.f.qps(false).1
    }

    pub fn ops_p50(&self, kind: Kind) -> f64 {
        self.f.kind_p50(kind, true).map_or(0.0, |t| t.0)
    }

    pub fn hit_frac(&self) -> f64 {
        let rounds = self.f.ops.iter().filter(|o| o.kind.is_round() && o.kind != Kind::Batch);
        let (mut hit, mut all) = (0.0, 0.0);
        for o in rounds {
            all += 1.0;
            if o.kind == Kind::Filtered {
                hit += 1.0;
            }
        }
        if all > 0.0 {
            hit / all
        } else {
            0.0
        }
    }
}
