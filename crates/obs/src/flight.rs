//! The query flight recorder: one durable JSONL record per executed query.
//!
//! Where [`crate::trace`] answers *where did the time go?* and
//! [`crate::registry`] answers *how much, in aggregate?*, the flight
//! recorder answers *what exactly did this query do, and how wrong were the
//! estimates?* — durably enough to replay the records as training labels
//! (the online-learning on-ramp: `graceful_core::telemetry` converts flight
//! records back into fresh labelled corpus rows).
//!
//! Each executed query appends one [`FlightRecord`]: the stable plan
//! fingerprint, the exec options it ran under, wall time, the per-operator
//! profile (estimated vs actual rows and work with their q-errors), and —
//! when a model prediction was staged — the predicted whole-query cost next
//! to the simulated truth. Records are serialized through the serde shim at
//! record time with **stable field order** (struct declaration order), so
//! the JSONL output is deterministic for a given sequence of runs and every
//! line parses back into the exact same `FlightRecord`, float bits included.
//!
//! Like the span tracer, the recorder is process-global, write-only and
//! explicitly **outside the bit-identity contract**: recording is a single
//! relaxed atomic load when disabled, a cap of [`RECORD_CAP`] records bounds
//! memory (drops are counted in [`dropped_count`] and the registry counter
//! `flight.dropped_records`), and flushing to the `GRACEFUL_FLIGHT` path is
//! explicit — per-query work never pays file I/O.

use crate::registry::{counter, Counter};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Maximum records retained process-wide (64 Ki). Past the cap queries still
/// run normally but are not recorded; [`dropped_count`] and the registry
/// counter `flight.dropped_records` say how many went missing.
pub const RECORD_CAP: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Per-operator slice of a [`FlightRecord`], aligned with `plan.ops`.
///
/// `est_rows`/`est_work` are the pre-execution predictions (cardinality from
/// the annotating estimator, work from the closed-form operator cost model);
/// `rows`/`work` are the measured truth from the run. The q-errors are
/// computed at record time with `graceful_common::metrics::q_error` and kept
/// in the record so offline consumers never have to re-derive the clamping —
/// though recomputing from the stored est/actual pairs reproduces them bit
/// for bit (floats round-trip exactly through the serde shim).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightOp {
    /// Human-readable operator description (kind plus key argument).
    pub op: String,
    /// Operator kind (`SCAN`, `FILTER`, `JOIN`, `UDF_FILTER`, `UDF_PROJECT`,
    /// `AGG`).
    pub kind: String,
    /// Estimated output cardinality (0.0 when the plan was not annotated).
    pub est_rows: f64,
    /// Actual output cardinality.
    pub rows: u64,
    /// Cardinality q-error, `None` when the plan carried no estimates.
    pub card_q: Option<f64>,
    /// Predicted work units from the closed-form operator cost model.
    pub est_work: f64,
    /// Accounted work units actually spent.
    pub work: f64,
    /// Cost q-error, `None` when the plan carried no estimates.
    pub cost_q: Option<f64>,
    /// Wall self-time in nanoseconds (0 when profiling was off).
    pub wall_ns: u64,
    /// Batches processed (0 when profiling was off).
    pub batches: u64,
}

/// One flight-recorder record: everything needed to replay a query run as a
/// labelled observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Seed passed to the executor (keys the deterministic jitter).
    pub seed: u64,
    /// Stable plan fingerprint (`graceful_plan::Plan::fingerprint_hex`).
    pub plan: String,
    /// Worker-thread budget.
    pub threads: u64,
    /// Rows per morsel.
    pub morsel: u64,
    /// Rows per UDF VM batch.
    pub udf_batch: u64,
    /// Total wall time in nanoseconds (0 when profiling was off).
    pub wall_ns: u64,
    /// Simulated runtime in nanoseconds (the contracted label).
    pub runtime_ns: f64,
    /// Aggregate result value.
    pub agg_value: f64,
    /// Rows fed into the UDF operator.
    pub udf_rows: u64,
    /// Staged model prediction of the whole-query cost, if one was wired in
    /// (see [`stage_prediction`]).
    pub model_pred_ns: Option<f64>,
    /// Q-error of the staged model prediction against `runtime_ns`.
    pub model_q: Option<f64>,
    /// Per-operator slices, aligned with `plan.ops`.
    pub ops: Vec<FlightOp>,
}

impl FlightRecord {
    /// Index of the worst-estimated operator (largest cardinality q-error),
    /// `None` when the record carries no estimates.
    pub fn worst_estimated_op(&self) -> Option<usize> {
        let mut worst: Option<(usize, f64)> = None;
        for (i, op) in self.ops.iter().enumerate() {
            if let Some(q) = op.card_q {
                if worst.is_none_or(|(_, w)| q > w) {
                    worst = Some((i, q));
                }
            }
        }
        worst.map(|(i, _)| i)
    }

    /// Render the record as an aligned `EXPLAIN ANALYZE` report: per
    /// operator, the predicted cardinality/cost next to the measured truth
    /// with their q-errors, the worst-estimated operator marked. This is
    /// *the* explain-analyze renderer — the live path builds a
    /// `FlightRecord` and renders it, so a record parsed back from the
    /// JSONL reproduces the report bit for bit.
    pub fn render_analyze(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "EXPLAIN ANALYZE  threads={} morsel={} udf_batch={} wall={} simulated={}",
            self.threads,
            self.morsel,
            self.udf_batch,
            fmt_ns(self.wall_ns),
            fmt_ns(self.runtime_ns as u64),
        );
        if let (Some(pred), Some(q)) = (self.model_pred_ns, self.model_q) {
            let _ = writeln!(
                s,
                "  model predicted {} vs simulated {}  (Q-error {q:.3})",
                fmt_ns(pred as u64),
                fmt_ns(self.runtime_ns as u64),
            );
        }
        let worst = self.worst_estimated_op();
        let name_w = self.ops.iter().map(|o| o.op.len()).max().unwrap_or(4).max(4);
        let _ = writeln!(
            s,
            "  {:>2}  {:<name_w$}  {:>12}  {:>12}  {:>8}  {:>14}  {:>14}  {:>8}",
            "#", "op", "est rows", "rows", "q(card)", "est work", "work", "q(cost)",
        );
        for (i, op) in self.ops.iter().enumerate() {
            let card_q = op.card_q.map_or_else(|| "-".to_string(), |q| format!("{q:.2}"));
            let cost_q = op.cost_q.map_or_else(|| "-".to_string(), |q| format!("{q:.2}"));
            let mark = if worst == Some(i) { "  <- worst estimate" } else { "" };
            let _ = writeln!(
                s,
                "  {i:>2}  {:<name_w$}  {:>12.0}  {:>12}  {:>8}  {:>14.1}  {:>14.1}  {:>8}{mark}",
                op.op, op.est_rows, op.rows, card_q, op.est_work, op.work, cost_q,
            );
        }
        s
    }
}

fn buffer() -> &'static Mutex<Vec<String>> {
    static BUF: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(Vec::new()))
}

fn configured() -> &'static Mutex<Option<String>> {
    static PATH: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

struct FlightMetrics {
    records: Counter,
    dropped: Counter,
}

fn metrics() -> &'static FlightMetrics {
    static METRICS: OnceLock<FlightMetrics> = OnceLock::new();
    METRICS.get_or_init(|| FlightMetrics {
        records: counter("flight.records"),
        dropped: counter("flight.dropped_records"),
    })
}

thread_local! {
    /// A whole-query cost prediction staged for the *next* run on this
    /// thread (set by the model-aware wrapper, consumed by the executor's
    /// recording hook). Thread-local so concurrent sessions never attach a
    /// prediction to each other's records.
    static STAGED_PRED: Cell<Option<f64>> = const { Cell::new(None) };
}

/// Whether flight recording is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn flight recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn flight recording off (already-recorded records are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Enable recording and remember `path` as the default [`flush`] target
/// (the `GRACEFUL_FLIGHT=path` knob resolves to this).
pub fn configure(path: &str) {
    *configured().lock().expect("flight path lock") = Some(path.to_string());
    enable();
}

/// The path set by [`configure`], if any.
pub fn configured_path() -> Option<String> {
    configured().lock().expect("flight path lock").clone()
}

/// Records kept so far (post-cap drops excluded).
pub fn record_count() -> u64 {
    RECORDED.load(Ordering::Relaxed)
}

/// Records dropped because [`RECORD_CAP`] was reached.
pub fn dropped_count() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Discard all recorded records (the enabled flag and configured path are
/// untouched). Benches use this between measured sections.
pub fn clear() {
    buffer().lock().expect("flight buffer lock").clear();
    RECORDED.store(0, Ordering::Relaxed);
    DROPPED.store(0, Ordering::Relaxed);
}

/// Stage a whole-query cost prediction for the next run on this thread; the
/// executor's recording hook consumes it into that run's record. A staged
/// prediction not consumed by a run is overwritten by the next stage.
pub fn stage_prediction(pred_ns: f64) {
    STAGED_PRED.with(|c| c.set(Some(pred_ns)));
}

/// Consume the prediction staged on this thread, if any.
pub fn take_staged_prediction() -> Option<f64> {
    STAGED_PRED.with(Cell::take)
}

/// Append one record. Each record serializes to a single JSONL line at
/// record time (so the buffer holds finished lines and export is a cheap
/// join), under the [`RECORD_CAP`]; past the cap the record is dropped and
/// counted. Appends are atomic per record — concurrent sessions interleave
/// whole lines, never fragments.
pub fn record(rec: &FlightRecord) {
    if !enabled() {
        return;
    }
    if RECORDED.fetch_add(1, Ordering::Relaxed) >= RECORD_CAP as u64 {
        RECORDED.fetch_sub(1, Ordering::Relaxed);
        DROPPED.fetch_add(1, Ordering::Relaxed);
        metrics().dropped.incr();
        return;
    }
    metrics().records.incr();
    let line = serde_json::to_string(rec).expect("flight record serializes");
    buffer().lock().expect("flight buffer lock").push(line);
}

/// Render every recorded record as JSONL (one JSON object per line, in
/// record order). Empty when nothing was recorded.
pub fn export_jsonl() -> String {
    let buf = buffer().lock().expect("flight buffer lock");
    let mut out = String::with_capacity(buf.iter().map(|l| l.len() + 1).sum());
    for line in buf.iter() {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Parse a JSONL export back into records — the reader half of the
/// recorder. Blank lines are skipped; a malformed line is an error naming
/// its (1-based) line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<FlightRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: FlightRecord = serde_json::from_str(line)
            .map_err(|e| format!("flight record on line {} is malformed: {e}", i + 1))?;
        records.push(rec);
    }
    Ok(records)
}

/// Write the exported JSONL to `path`.
pub fn write_to(path: &str) -> std::io::Result<()> {
    std::fs::write(path, export_jsonl())
}

/// Write the exported JSONL to the [`configure`]d path, if one is set.
/// Returns whether a file was written. Like the span tracer, flushing is
/// explicit and idempotent — the buffer is retained, so flushing twice
/// writes the same bytes.
pub fn flush() -> std::io::Result<bool> {
    match configured_path() {
        Some(path) => write_to(&path).map(|()| true),
        None => Ok(false),
    }
}

/// Format nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.3}s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> FlightRecord {
        FlightRecord {
            seed,
            plan: format!("{seed:016x}"),
            threads: 2,
            morsel: 64,
            udf_batch: 37,
            wall_ns: 1_500,
            runtime_ns: 123_456.75,
            agg_value: 42.5,
            udf_rows: 10,
            model_pred_ns: Some(110_000.5),
            model_q: Some(1.12),
            ops: vec![
                FlightOp {
                    op: "SCAN t".into(),
                    kind: "SCAN".into(),
                    est_rows: 100.0,
                    rows: 100,
                    card_q: Some(1.0),
                    est_work: 2_000.0,
                    work: 2_000.0,
                    cost_q: Some(1.0),
                    wall_ns: 900,
                    batches: 2,
                },
                FlightOp {
                    op: "AGG COUNT(*)".into(),
                    kind: "AGG".into(),
                    est_rows: 1.0,
                    rows: 1,
                    card_q: Some(1.5),
                    est_work: 900.0,
                    work: 450.25,
                    cost_q: Some(2.0),
                    wall_ns: 600,
                    batches: 1,
                },
            ],
        }
    }

    // The enabled flag, buffer and counters are process-global, so the
    // flight tests run as ONE test body to avoid racing each other (the
    // rest of this crate's suite never enables the recorder).
    #[test]
    fn records_roundtrip_render_and_cap() {
        // Disabled: recording is a no-op.
        assert!(!enabled());
        let before = record_count();
        record(&sample(1));
        assert_eq!(record_count(), before);

        enable();
        record(&sample(1));
        record(&sample(2));
        disable();
        assert!(record_count() >= before + 2);

        // JSONL round-trip is exact, float bits included.
        let jsonl = export_jsonl();
        let parsed = parse_jsonl(&jsonl).expect("export parses");
        let one = parsed.iter().find(|r| r.seed == 1).expect("record 1 present");
        assert_eq!(one, &sample(1));
        assert_eq!(one.runtime_ns.to_bits(), sample(1).runtime_ns.to_bits());

        // Malformed lines fail with their line number.
        let err = parse_jsonl("{\"seed\":}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");

        // The renderer marks the worst-estimated operator.
        let text = one.render_analyze();
        assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
        assert!(text.contains("model predicted"), "{text}");
        assert_eq!(one.worst_estimated_op(), Some(1));
        let worst_line = text.lines().find(|l| l.contains("<- worst estimate")).expect("marked");
        assert!(worst_line.contains("AGG COUNT(*)"), "{worst_line}");
        // A parsed record renders the identical report.
        assert_eq!(
            text,
            parse_jsonl(&serde_json::to_string(one).unwrap()).unwrap()[0].render_analyze()
        );

        // configure() remembers the flush target and enables recording.
        configure("/tmp/graceful-obs-test-flight.jsonl");
        assert!(enabled());
        assert_eq!(configured_path().as_deref(), Some("/tmp/graceful-obs-test-flight.jsonl"));
        disable();

        // Staged predictions are consumed exactly once.
        stage_prediction(99.0);
        assert_eq!(take_staged_prediction(), Some(99.0));
        assert_eq!(take_staged_prediction(), None);

        // The cap drops (and counts) overflow records.
        enable();
        let already = record_count();
        for s in 0..(RECORD_CAP as u64 + 10 - already) {
            record(&sample(s + 1000));
        }
        disable();
        assert_eq!(record_count(), RECORD_CAP as u64);
        assert!(dropped_count() >= 10, "dropped {}", dropped_count());
        assert!(crate::registry::snapshot().counter("flight.dropped_records") >= 10);

        clear();
        assert_eq!(record_count(), 0);
        assert_eq!(dropped_count(), 0);
        assert!(export_jsonl().is_empty());
    }

    #[test]
    fn fmt_ns_picks_adaptive_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000s");
    }
}
