//! The harness's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into each
//! crate's public functions; nothing inside the product is instrumented and
//! the product's own tracing stays off. A span names its layer (the crate
//! the call enters), the span that caused it, its thread and, where there is
//! one, the query it belongs to. Spans live in memory until the run ends.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layers of the per-layer table, in the order they are printed: the
/// crates a call can enter, plus `bench` for the harness's own stage spans.
pub const LAYERS: [&str; 10] =
    ["storage", "udf", "plan", "exec", "runtime", "cfg", "card", "core", "nn", "bench"];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 when the span has no parent.
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 0 when the span belongs to no single query.
    pub query_id: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

pub struct Recorder {
    origin: Instant,
    // Relaxed: the counter only hands out distinct ids, it publishes nothing.
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    query_id: u64,
    start_ns: u64,
}

impl Guard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            layer: self.layer,
            name: self.name,
            thread: THREAD.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
            query_id: self.query_id,
        };
        // A worker that panicked while holding the lock has already failed
        // the run; the spans recorded so far are still whole.
        self.rec.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span of this thread.
    pub fn span(&self, layer: &'static str, name: &'static str, query_id: u64) -> Guard<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied().unwrap_or(0));
        self.span_under(parent, layer, name, query_id)
    }

    /// Open a span under an explicit parent — for work a pool worker does on
    /// behalf of a span the calling thread opened.
    pub fn span_under(
        &self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        query_id: u64,
    ) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        Guard { rec: self, id, parent, layer, name, query_id, start_ns: self.now_ns() }
    }

    /// Time one call as a span.
    pub fn time<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(layer, name, 0);
        f()
    }

    /// Record, inside `parent`, time that was measured by timing the same
    /// call separately: the only way to split a public function that does
    /// two layers' work in one call (`GracefulModel::train` featurizes, then
    /// trains). The carved span starts with its parent and is cut to fit.
    pub fn carve(&self, parent: &Span, layer: &'static str, name: &'static str, seconds: f64) {
        let dur = ((seconds * 1e9) as u64).min(parent.end_ns - parent.start_ns);
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.id,
            layer,
            name,
            thread: parent.thread,
            start_ns: parent.start_ns,
            end_ns: parent.start_ns + dur,
            query_id: 0,
        };
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }

    /// Every closed span, ordered by start time (ties by id).
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Totals of one `layer.name` over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub calls: u64,
    /// Span durations, summed over threads.
    pub busy_s: f64,
    /// Durations minus the part covered by child spans.
    pub self_s: f64,
}

/// Self time of every span: its duration minus its children's. Children run
/// inside their parent on the same thread, except under a `bench` stage
/// span, whose children may run on pool workers; stage spans are therefore
/// never attributed and a negative remainder is cut to zero.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut own: BTreeMap<u64, f64> = spans.iter().map(|s| (s.id, s.seconds())).collect();
    for s in spans {
        if let Some(parent) = own.get_mut(&s.parent) {
            *parent -= s.seconds();
        }
    }
    for v in own.values_mut() {
        *v = v.max(0.0);
    }
    own
}

/// Totals per `layer.name`.
pub fn totals(spans: &[Span]) -> BTreeMap<String, Total> {
    let own = self_seconds(spans);
    let mut out: BTreeMap<String, Total> = BTreeMap::new();
    for s in spans {
        let t = out.entry(format!("{}.{}", s.layer, s.name)).or_default();
        t.calls += 1;
        t.busy_s += s.seconds();
        t.self_s += own[&s.id];
    }
    out
}

/// Totals per layer. Busy time counts only spans with no ancestor of the
/// same layer, so nested calls into one crate are not counted twice.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let own = self_seconds(spans);
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for s in spans {
        let mut ancestor = by_id.get(&s.parent);
        let mut nested = false;
        while let Some(a) = ancestor {
            if a.layer == s.layer {
                nested = true;
                break;
            }
            ancestor = by_id.get(&a.parent);
        }
        let t = out.entry(s.layer).or_default();
        t.calls += 1;
        t.self_s += own[&s.id];
        if !nested {
            t.busy_s += s.seconds();
        }
    }
    out
}

/// Chrome trace-event JSON (complete events, microseconds): loads in
/// `chrome://tracing` and `ui.perfetto.dev`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::str(format!("{}.{}", s.layer, s.name))),
                ("cat", Json::str(s.layer)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.thread))),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::Num(s.id as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                        ("workload", Json::str(workload)),
                        ("query_id", Json::Num(s.query_id as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let rec = Recorder::new();
        let outer_id;
        {
            let outer = rec.span("core", "outer", 7);
            outer_id = outer.id();
            rec.time("exec", "inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
            let worker_parent = outer.id();
            std::thread::scope(|s| {
                s.spawn(|| drop(rec.span_under(worker_parent, "exec", "worker", 7)));
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!((outer.id, outer.parent, outer.query_id), (outer_id, 0, 7));
        assert!(spans.iter().filter(|s| s.layer == "exec").all(|s| s.parent == outer_id));
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_ne!(worker.thread, outer.thread);
        let own = self_seconds(&spans);
        assert!(own[&outer_id] < outer.seconds());
        let layers = layer_totals(&spans);
        assert_eq!(layers["exec"].calls, 2);
        let text = chrome_trace(&spans, "w").render();
        assert!(crate::json::parse(&text).is_ok());
    }

    #[test]
    fn carved_time_is_cut_to_its_parent() {
        let rec = Recorder::new();
        drop(rec.span("nn", "train", 0));
        let parent = rec.spans()[0].clone();
        rec.carve(&parent, "core", "featurize_corpora", 10.0);
        let spans = rec.spans();
        let carved = spans.iter().find(|s| s.layer == "core").unwrap();
        assert_eq!(carved.end_ns, parent.end_ns);
        assert_eq!(self_seconds(&spans)[&parent.id], 0.0);
    }
}
