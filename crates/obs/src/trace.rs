//! Scoped span tracing with Chrome-trace-event JSON export.
//!
//! Spans are recorded into per-thread buffers (no cross-thread contention on
//! the hot path) and merged on export in `(timestamp, sequence)` order, so
//! the emitted event array is deterministic for a given recording. The JSON
//! is the Chrome trace-event format — an array of complete (`"ph": "X"`)
//! events — loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! When tracing is disabled (the default), [`span`] costs a single relaxed
//! atomic load and allocates nothing. A process-wide cap of [`EVENT_CAP`]
//! events bounds memory when tracing is left on for a whole test suite; the
//! number of events dropped past the cap is reported by [`dropped_count`]
//! and in the exported JSON metadata.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum events retained process-wide (1 Mi). Past the cap new spans still
/// time correctly but are not recorded; [`dropped_count`] says how many.
pub const EVENT_CAP: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static RECORDED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Clone)]
struct Event {
    name: &'static str,
    cat: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    tid: u64,
    seq: u64,
    args: Vec<(&'static str, String)>,
}

type Buffer = Arc<Mutex<Vec<Event>>>;

fn sinks() -> &'static Mutex<Vec<Buffer>> {
    static SINKS: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

fn configured() -> &'static Mutex<Option<String>> {
    static PATH: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

/// Process-start anchor; all span timestamps are nanoseconds since this.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: (u64, Buffer) = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let buf: Buffer = Arc::new(Mutex::new(Vec::new()));
        sinks().lock().expect("trace sinks lock").push(buf.clone());
        (tid, buf)
    };
}

/// Whether span recording is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on.
pub fn enable() {
    epoch(); // pin the timestamp anchor before the first span
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn span recording off (already-recorded events are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Enable recording and remember `path` as the default [`flush`] target
/// (the `GRACEFUL_TRACE=path` knob resolves to this).
pub fn configure(path: &str) {
    *configured().lock().expect("trace path lock") = Some(path.to_string());
    enable();
}

/// The path set by [`configure`], if any.
pub fn configured_path() -> Option<String> {
    configured().lock().expect("trace path lock").clone()
}

/// Events recorded so far (post-cap drops excluded).
pub fn event_count() -> u64 {
    RECORDED.load(Ordering::Relaxed)
}

/// Events dropped because the [`EVENT_CAP`] was reached.
pub fn dropped_count() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Open a span named `name` in category `cat`; the span closes (and records
/// one complete event) when the guard drops. When tracing is disabled this
/// is a no-op costing one atomic load.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    SpanGuard(Some(ActiveSpan {
        name,
        cat,
        start_ns: epoch().elapsed().as_nanos() as u64,
        args: Vec::new(),
    }))
}

struct ActiveSpan {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, String)>,
}

/// RAII guard returned by [`span`]; records the event on drop.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Attach a key/value argument to the span (shown in the trace viewer).
    /// The value is only formatted when the span is actually recording.
    pub fn arg(mut self, key: &'static str, value: impl std::fmt::Display) -> Self {
        if let Some(active) = self.0.as_mut() {
            active.args.push((key, value.to_string()));
        }
        self
    }
}

fn dropped_metric() -> &'static crate::registry::Counter {
    static DROPPED_METRIC: OnceLock<crate::registry::Counter> = OnceLock::new();
    DROPPED_METRIC.get_or_init(|| crate::registry::counter("trace.dropped_events"))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let end_ns = epoch().elapsed().as_nanos() as u64;
        if RECORDED.fetch_add(1, Ordering::Relaxed) >= EVENT_CAP as u64 {
            RECORDED.fetch_sub(1, Ordering::Relaxed);
            DROPPED.fetch_add(1, Ordering::Relaxed);
            dropped_metric().incr();
            return;
        }
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        LOCAL.with(|(tid, buf)| {
            buf.lock().expect("trace buffer lock").push(Event {
                name: active.name,
                cat: active.cat,
                ts_ns: active.start_ns,
                dur_ns: end_ns.saturating_sub(active.start_ns),
                tid: *tid,
                seq,
                args: active.args,
            });
        });
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render every recorded span as a Chrome trace-event JSON array, merged
/// across threads in `(timestamp, sequence)` order. Timestamps and durations
/// are microseconds with a forced decimal point. The array always parses as
/// JSON, even when empty.
pub fn export_json() -> String {
    let mut events: Vec<Event> = Vec::new();
    for buf in sinks().lock().expect("trace sinks lock").iter() {
        events.extend(buf.lock().expect("trace buffer lock").iter().cloned());
    }
    events.sort_by_key(|e| (e.ts_ns, e.seq));
    let mut out = String::from("[\n");
    let dropped = dropped_count();
    if dropped > 0 {
        let _ = write!(
            out,
            "{{\"name\":\"trace_dropped_events\",\"cat\":\"meta\",\"ph\":\"X\",\
             \"ts\":0.000,\"dur\":0.000,\"pid\":1,\"tid\":0,\
             \"args\":{{\"dropped\":\"{dropped}\"}}}}"
        );
        if !events.is_empty() {
            out.push_str(",\n");
        }
    }
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{}",
            json_escape(e.name),
            json_escape(e.cat),
            e.ts_ns as f64 / 1_000.0,
            e.dur_ns as f64 / 1_000.0,
            e.tid
        );
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// Write the exported JSON to `path`.
pub fn write_to(path: &str) -> std::io::Result<()> {
    std::fs::write(path, export_json())
}

/// Write the exported JSON to the [`configure`]d path, if one is set.
/// Returns whether a file was written. Flushing is explicit (examples,
/// tests and benches call it once at the end) so per-query work never pays
/// file I/O.
pub fn flush() -> std::io::Result<bool> {
    match configured_path() {
        Some(path) => write_to(&path).map(|()| true),
        None => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled flag and event buffers are process-global, so the trace
    // tests run as ONE test body to avoid racing each other (the rest of
    // the suite never enables tracing).
    #[test]
    fn spans_record_merge_and_export() {
        // Disabled: no allocation, no recording.
        assert!(!enabled());
        let before = event_count();
        {
            let _s = span("test", "disabled_span").arg("k", 1);
        }
        assert_eq!(event_count(), before);

        enable();
        {
            let _outer = span("test", "outer").arg("morsel", 3);
            let _inner = span("test", "inner");
        }
        {
            let _second = span("test", "second").arg("quote", "a\"b");
        }
        disable();
        assert!(event_count() >= before + 3);

        let json = export_json();
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"outer\""));
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"morsel\":\"3\""));
        assert!(json.contains("a\\\"b"));
        // ts/dur carry a forced decimal point so f64 parsers accept them.
        assert!(json.contains("\"ts\":"));
        let ts_field = json.split("\"ts\":").nth(1).expect("ts present");
        assert!(ts_field.split(',').next().expect("value").contains('.'));

        // Ordering: events come out sorted by (ts, seq) — the inner span
        // starts after the outer one.
        let outer_at = json.find("\"name\":\"outer\"").unwrap();
        let inner_at = json.find("\"name\":\"inner\"").unwrap();
        assert!(outer_at < inner_at);

        // configure() remembers the flush target and enables recording.
        configure("/tmp/graceful-obs-test-trace.json");
        assert!(enabled());
        assert_eq!(configured_path().as_deref(), Some("/tmp/graceful-obs-test-trace.json"));
        disable();
    }
}
