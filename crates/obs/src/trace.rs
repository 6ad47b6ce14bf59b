//! Scoped span tracing with Chrome-trace-event JSON export.
//!
//! Spans are recorded into per-thread buffers (no cross-thread contention on
//! the hot path) and merged on export in `(timestamp, sequence)` order, so
//! the emitted event array is deterministic for a given recording. The JSON
//! is the Chrome trace-event format — an array of complete (`"ph": "X"`)
//! events — loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The switch, the cap and the flush target are the shared sink
//! (`sink.rs`): when tracing is disabled (the default), [`span`] costs a
//! single relaxed atomic load and allocates nothing; past [`EVENT_CAP`]
//! events new spans are dropped and counted in [`dropped_count`], the
//! registry counter `trace.dropped_events` and the exported JSON metadata.

use crate::sink::{lock, Sink};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum events retained process-wide (1 Mi). Past the cap new spans still
/// time correctly but are not recorded; [`dropped_count`] says how many.
pub const EVENT_CAP: usize = 1 << 20;

static SINK: Sink = Sink::new(EVENT_CAP, "trace.dropped_events");
static SEQ: AtomicU64 = AtomicU64::new(0);
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

/// Every thread's buffer, registered on the thread's first span.
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

/// Process-start anchor; all span timestamps are nanoseconds since this.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: (u64, Buffer) = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let buf: Buffer = Arc::new(Mutex::new(Vec::new()));
        lock(&BUFFERS).push(buf.clone());
        (tid, buf)
    };
}

/// Whether span recording is currently on.
#[inline]
pub fn enabled() -> bool {
    SINK.enabled()
}

/// Turn span recording on.
pub fn enable() {
    epoch(); // pin the timestamp anchor before the first span
    SINK.set_enabled(true);
}

/// Turn span recording off (already-recorded events are kept).
pub fn disable() {
    SINK.set_enabled(false);
}

/// Enable recording and remember `path` as the default [`flush`] target
/// (the `GRACEFUL_TRACE=path` knob resolves to this).
pub fn configure(path: &str) {
    epoch();
    SINK.configure(path);
}

/// The path set by [`configure`], if any.
pub fn configured_path() -> Option<String> {
    SINK.configured_path()
}

/// Events recorded so far (post-cap drops excluded).
pub fn event_count() -> u64 {
    SINK.kept()
}

/// Events dropped because the [`EVENT_CAP`] was reached.
pub fn dropped_count() -> u64 {
    SINK.dropped()
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

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let end_ns = epoch().elapsed().as_nanos() as u64;
        if !SINK.admit() {
            return;
        }
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        LOCAL.with(|(tid, buf)| {
            lock(buf).push(Event {
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

/// `s` as a JSON string literal, quotes included, escaped the one way the
/// serde shim escapes every string.
fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_default()
}

/// Render every recorded span as a Chrome trace-event JSON array, merged
/// across threads in `(timestamp, sequence)` order. Timestamps and durations
/// are microseconds with a forced decimal point. The array always parses as
/// JSON, even when empty.
pub fn export_json() -> String {
    let mut events: Vec<Event> = Vec::new();
    for buf in lock(&BUFFERS).iter() {
        events.extend(lock(buf).iter().cloned());
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
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{}",
            json_str(e.name),
            json_str(e.cat),
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
                let _ = write!(out, "{}:{}", json_str(k), json_str(v));
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
/// Returns whether a file was written. Flushing is explicit (examples and
/// tests call it once at the end) so per-query work never pays file I/O.
pub fn flush() -> std::io::Result<bool> {
    SINK.flush(export_json)
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
