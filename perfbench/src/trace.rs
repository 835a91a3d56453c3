//! The benchmark's own spans, recorded around each call into a layer.
//!
//! Spans (name, tag, start, end, parent, cycle, op) are kept in memory
//! until the run ends. While tracing is off every call is a direct
//! pass-through. While it is on, each span also captures the delta of
//! every `gogreen_obs::metrics` counter across its extent, so counts are
//! attributed to the layer call that did the work.

use gogreen::obs::metrics::{self, Kind};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name in `crate_module` form, or `op` for an op's root span.
    pub name: &'static str,
    /// Sub-label: the engine family, or the kind of storage call.
    pub tag: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub cycle: u32,
    /// Index of the enclosing op in the runner's op list.
    pub op: usize,
    /// Nonzero counter deltas across the span.
    pub counters: Vec<(&'static str, u64)>,
    /// Values the adapter attached (bytes, ratios, sizes).
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
    }

    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

fn counters_now() -> BTreeMap<&'static str, u64> {
    metrics::snapshot()
        .into_iter()
        .filter(|(_, m)| m.kind == Kind::Counter)
        .map(|(n, m)| (n, m.value))
        .collect()
}

#[derive(Default)]
pub struct Tracer {
    on: bool,
    cycle: u32,
    op: usize,
    spans: Vec<Span>,
    /// Open spans: index into `spans` and the counters at open.
    stack: Vec<(usize, BTreeMap<&'static str, u64>)>,
}

impl Tracer {
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns span recording and the program's metric counters on or off
    /// for the cycles that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        metrics::set_enabled(on);
    }

    pub fn set_position(&mut self, cycle: u32, op: usize) {
        self.cycle = cycle;
        self.op = op;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`/`tag`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().map(|&(i, _)| i);
        let before = counters_now();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            tag,
            start: now,
            end: now,
            parent,
            cycle: self.cycle,
            op: self.op,
            counters: Vec::new(),
            attrs: Vec::new(),
        });
        self.stack.push((idx, before));
        let out = f(self);
        let end = Instant::now();
        let (_, before) = self.stack.pop().expect("span stack is balanced");
        let after = counters_now();
        let span = &mut self.spans[idx];
        span.end = end;
        span.counters = after
            .into_iter()
            .filter_map(|(n, v)| {
                let d = v - before.get(n).copied().unwrap_or(0);
                (d > 0).then_some((n, d))
            })
            .collect();
        out
    }

    /// Attaches `key = value` to the innermost open span (no-op while
    /// tracing is off).
    pub fn attr(&mut self, key: &'static str, value: f64) {
        if let Some(&(i, _)) = self.stack.last() {
            self.spans[i].attrs.push((key, value));
        }
    }
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one span never overlap (calls are sequential), so
/// the covered time is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.ms();
        }
    }
    own.into_iter().map(|t| t.max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_counts_land_in_the_span() {
        let mut tr = Tracer::default();
        tr.set_on(true);
        tr.span("op", "", |tr| {
            tr.span("outer", "", |tr| {
                tr.attr("bytes", 3.0);
                tr.span("inner", "", |_| {
                    metrics::add("mine.tuple_touches", 5);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                });
            });
        });
        tr.set_on(false);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].attr("bytes"), Some(3.0));
        assert_eq!(spans[2].counter("mine.tuple_touches"), 5);
        assert_eq!(spans[1].counter("mine.tuple_touches"), 5);
        let own = self_times(spans);
        assert!(spans[2].ms() >= 20.0);
        assert!(own[1] < spans[1].ms() - 19.0);
        assert!((own.iter().sum::<f64>() - spans[0].ms()).abs() < 1e-6);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::default();
        assert_eq!(tr.span("op", "", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
