//! Hierarchical wall-time spans, emitted as JSON lines.
//!
//! A [`Span`] is entered with [`span`] and exited on drop, writing one
//! line to the installed trace writer:
//!
//! ```json
//! {"type":"span","id":3,"parent":1,"name":"cover.sweep",
//!  "start_us":120,"dur_us":4512,"fields":{"tuples":6758}}
//! ```
//!
//! Parent links come from a per-thread span stack, so nesting on one
//! thread is captured without any caller bookkeeping. `start_us` is
//! microseconds since the first span/event of the process, making a
//! trace self-contained and diffable.
//!
//! With no writer installed and profiling off (the default), [`span`]
//! reads no clock, allocates nothing, and the guard's drop is a branch.
//! When [`crate::profile`] is enabled, each span additionally folds its
//! duration into the in-process profile tree — with or without a trace
//! writer.

use crate::profile;
use gogreen_util::{Json, Stopwatch};
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The process trace epoch: set by the first span or event.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// Ids of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Installs the JSONL trace writer and enables span emission.
pub fn set_trace_writer(w: Box<dyn Write + Send>) {
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = Some(w);
    TRACING.store(true, Ordering::Relaxed);
}

/// Disables tracing and returns the writer (dropping it flushes file
/// sinks).
pub fn take_trace_writer() -> Option<Box<dyn Write + Send>> {
    TRACING.store(false, Ordering::Relaxed);
    SINK.lock().unwrap_or_else(|e| e.into_inner()).take()
}

/// True while a trace writer is installed.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

fn write_line(json: &Json) {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(w) = sink.as_mut() {
        let _ = writeln!(w, "{json}");
    }
}

/// An open span; exits (and emits its line) on drop.
///
/// ```
/// let mut sp = gogreen_obs::span("compress");
/// sp.field("patterns", 42u64);
/// // ... the timed phase ...
/// drop(sp); // emits {"type":"span","name":"compress",...}
/// ```
#[derive(Debug)]
pub struct Span {
    /// 0 = inactive for tracing (off at enter, or profile-only span).
    id: u64,
    name: &'static str,
    parent: Option<u64>,
    start_us: u64,
    /// True when enter pushed a [`crate::profile`] frame that drop must
    /// pop.
    profiled: bool,
    watch: Stopwatch,
    fields: Vec<(&'static str, Json)>,
}

/// Enters a span named `name`. While tracing and profiling are both off
/// this is free and the returned guard does nothing.
pub fn span(name: &'static str) -> Span {
    let tracing = tracing_enabled();
    let profiled = profile::enabled() && profile::on_enter(name);
    if !tracing && !profiled {
        return Span {
            id: 0,
            name,
            parent: None,
            start_us: 0,
            profiled: false,
            watch: Stopwatch::new(),
            fields: Vec::new(),
        };
    }
    let (id, start_us, parent) = if tracing {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let start_us = epoch().elapsed().as_micros() as u64;
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        (id, start_us, parent)
    } else {
        (0, 0, None)
    };
    Span { id, name, parent, start_us, profiled, watch: Stopwatch::started(), fields: Vec::new() }
}

impl Span {
    /// Attaches a `key=value` field, reported at exit.
    pub fn field(&mut self, key: &'static str, value: impl Into<Json>) -> &mut Self {
        if self.id != 0 {
            self.fields.push((key, value.into()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 && !self.profiled {
            return;
        }
        // `lap` reads the split since enter; a span is one lap long.
        let dur_us = self.watch.lap().as_micros() as u64;
        if self.profiled {
            profile::on_exit(dur_us);
        }
        if self.id == 0 {
            return;
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            } else {
                // Out-of-order drop (spans moved across an await-like
                // boundary): remove wherever it is.
                s.retain(|&x| x != self.id);
            }
        });
        let parent = match self.parent {
            Some(p) => Json::from(p),
            None => Json::Null,
        };
        let json = Json::obj([
            ("type", Json::from("span")),
            ("id", Json::from(self.id)),
            ("parent", parent),
            ("name", Json::from(self.name)),
            ("start_us", Json::from(self.start_us)),
            ("dur_us", Json::from(dur_us)),
            ("fields", Json::Obj(self.fields.drain(..).map(|(k, v)| (k.to_string(), v)).collect())),
        ]);
        write_line(&json);
    }
}

/// Emits a point-in-time event line (`{"type":"event",...}`) into the
/// trace stream. No-op while tracing is off.
pub fn event(name: &'static str, fields: impl IntoIterator<Item = (&'static str, Json)>) {
    if !tracing_enabled() {
        return;
    }
    let at_us = epoch().elapsed().as_micros() as u64;
    let parent = STACK.with(|s| s.borrow().last().copied());
    let json = Json::obj([
        ("type", Json::from("event")),
        ("name", Json::from(name)),
        ("at_us", Json::from(at_us)),
        ("parent", parent.map_or(Json::Null, Json::from)),
        ("fields", Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())),
    ]);
    write_line(&json);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A writer into a shared buffer, for asserting on emitted lines.
    struct Buf(Arc<StdMutex<Vec<u8>>>);
    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_spans_emit_nothing() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take_trace_writer();
        let mut sp = span("quiet");
        sp.field("x", 1u64);
        drop(sp);
        event("nothing", []);
        // No writer: nothing to assert beyond "did not panic/allocate a
        // sink"; the buffer-based test below covers the enabled path.
    }

    #[test]
    fn nested_spans_carry_parent_links_and_fields() {
        let _g = crate::metrics::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let buf = Arc::new(StdMutex::new(Vec::new()));
        set_trace_writer(Box::new(Buf(buf.clone())));
        {
            let mut outer = span("outer");
            outer.field("k", 7u64);
            {
                let _inner = span("inner");
                event("tick", [("n", Json::from(1u64))]);
            }
        }
        drop(take_trace_writer());
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        // Emission order: event, inner exit, outer exit.
        let event_line = Json::parse(lines[0]).unwrap();
        let inner = Json::parse(lines[1]).unwrap();
        let outer = Json::parse(lines[2]).unwrap();
        assert_eq!(event_line.get("type").and_then(Json::as_str), Some("event"));
        assert_eq!(inner.get("name").and_then(Json::as_str), Some("inner"));
        assert_eq!(outer.get("name").and_then(Json::as_str), Some("outer"));
        // inner's parent is outer's id; the event nests under inner.
        assert_eq!(inner.get("parent"), outer.get("id"));
        assert_eq!(event_line.get("parent"), inner.get("id"));
        assert_eq!(outer.get("parent"), Some(&Json::Null));
        let fields = outer.get("fields").unwrap();
        assert_eq!(fields.get("k").and_then(Json::as_u64), Some(7));
    }
}
