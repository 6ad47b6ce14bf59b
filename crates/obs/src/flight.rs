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
//! when the run was given one (`Session::run_analyzed`) — the model's
//! whole-query cost prediction next to the simulated truth. The executor
//! builds that record once per query, and the same record is the one
//! appended here and the one handed back to the caller. Records are
//! serialized through the serde shim at record time with **stable field
//! order** (struct declaration order), so the JSONL output is deterministic
//! for a given sequence of runs and every line parses back into the exact
//! same `FlightRecord`, float bits included.
//!
//! Like the span tracer, the recorder is process-global, write-only and
//! explicitly **outside the bit-identity contract**; its switch, cap and
//! flush target are the shared sink (`sink.rs`). Recording is a single
//! relaxed atomic load when disabled, a cap of [`RECORD_CAP`] records bounds
//! memory (drops are counted in [`dropped_count`] and the registry counter
//! `flight.dropped_records`), and flushing to the `GRACEFUL_FLIGHT` path is
//! explicit — per-query work never pays file I/O.

use crate::registry::{counter, Counter};
use crate::sink::{lock, Sink};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// Maximum records retained process-wide (64 Ki). Past the cap queries still
/// run normally but are not recorded; [`dropped_count`] and the registry
/// counter `flight.dropped_records` say how many went missing.
pub const RECORD_CAP: usize = 1 << 16;

static SINK: Sink = Sink::new(RECORD_CAP, "flight.dropped_records");

/// The recorded records, one finished JSONL line each.
static LINES: Mutex<Vec<String>> = Mutex::new(Vec::new());

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
    /// Wall time of the whole query in nanoseconds, the query's
    /// `exec.query_wall_ns` reading.
    pub wall_ns: u64,
    /// Simulated runtime in nanoseconds (the contracted label).
    pub runtime_ns: f64,
    /// Aggregate result value; `None` when it is not finite (a `SUM` over
    /// a NaN), which JSON cannot hold.
    pub agg_value: Option<f64>,
    /// Rows fed into the UDF operator.
    pub udf_rows: u64,
    /// The model's whole-query cost prediction, when the run was given one.
    pub model_pred_ns: Option<f64>,
    /// Q-error of `model_pred_ns` against `runtime_ns`.
    pub model_q: Option<f64>,
    /// Per-operator slices, aligned with `plan.ops`.
    pub ops: Vec<FlightOp>,
}

impl FlightRecord {
    /// Index of the worst-estimated operator: the largest cardinality
    /// q-error above 1, the first such on a tie. `None` when no operator was
    /// misestimated (every q-error is 1) or the record carries no estimates.
    pub fn worst_estimated_op(&self) -> Option<usize> {
        let mut worst: Option<(usize, f64)> = None;
        for (i, op) in self.ops.iter().enumerate() {
            if let Some(q) = op.card_q.filter(|&q| q > 1.0) {
                if worst.is_none_or(|(_, w)| q > w) {
                    worst = Some((i, q));
                }
            }
        }
        worst.map(|(i, _)| i)
    }

    /// Render the record as an aligned `EXPLAIN ANALYZE` report: per
    /// operator, the predicted cardinality/cost next to the measured truth
    /// with their q-errors and its wall self-time, the worst-estimated
    /// operator marked. This is
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
            "  {:>2}  {:<name_w$}  {:>12}  {:>12}  {:>8}  {:>14}  {:>14}  {:>8}  {:>10}",
            "#", "op", "est rows", "rows", "q(card)", "est work", "work", "q(cost)", "wall",
        );
        for (i, op) in self.ops.iter().enumerate() {
            let card_q = op.card_q.map_or_else(|| "-".to_string(), |q| format!("{q:.2}"));
            let cost_q = op.cost_q.map_or_else(|| "-".to_string(), |q| format!("{q:.2}"));
            let mark = if worst == Some(i) { "  <- worst estimate" } else { "" };
            let _ = writeln!(
                s,
                "  {i:>2}  {:<name_w$}  {:>12.0}  {:>12}  {:>8}  {:>14.1}  {:>14.1}  {:>8}  {:>10}{mark}",
                op.op,
                op.est_rows,
                op.rows,
                card_q,
                op.est_work,
                op.work,
                cost_q,
                fmt_ns(op.wall_ns),
            );
        }
        s
    }
}

/// Whether flight recording is currently on.
#[inline]
pub fn enabled() -> bool {
    SINK.enabled()
}

/// Turn flight recording on.
pub fn enable() {
    SINK.set_enabled(true);
}

/// Turn flight recording off (already-recorded records are kept).
pub fn disable() {
    SINK.set_enabled(false);
}

/// Enable recording and remember `path` as the default [`flush`] target
/// (the `GRACEFUL_FLIGHT=path` knob resolves to this).
pub fn configure(path: &str) {
    SINK.configure(path);
}

/// The path set by [`configure`], if any.
pub fn configured_path() -> Option<String> {
    SINK.configured_path()
}

/// Records kept so far (post-cap drops excluded).
pub fn record_count() -> u64 {
    SINK.kept()
}

/// Records dropped because [`RECORD_CAP`] was reached.
pub fn dropped_count() -> u64 {
    SINK.dropped()
}

/// Discard all recorded records (the enabled flag and configured path are
/// untouched), so a test reads only the records of its own runs.
pub fn clear() {
    lock(&LINES).clear();
    SINK.reset();
}

/// Append one record when recording is on. Each record serializes to a
/// single JSONL line at record time (so the buffer holds finished lines and
/// export is a cheap join), under the [`RECORD_CAP`]; past the cap the
/// record is dropped and counted. Appends are atomic per record —
/// concurrent sessions interleave whole lines, never fragments.
pub fn record(rec: &FlightRecord) {
    static RECORDS: OnceLock<Counter> = OnceLock::new();
    if !enabled() || !SINK.admit() {
        return;
    }
    RECORDS.get_or_init(|| counter("flight.records")).incr();
    // The shim's serializer never fails.
    if let Ok(line) = serde_json::to_string(rec) {
        lock(&LINES).push(line);
    }
}

/// Render every recorded record as JSONL (one JSON object per line, in
/// record order). Empty when nothing was recorded.
pub fn export_jsonl() -> String {
    let buf = lock(&LINES);
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

/// Write the exported JSONL to the [`configure`]d path, if one is set.
/// Returns whether a file was written. Like the span tracer, flushing is
/// explicit and idempotent — the buffer is retained, so flushing twice
/// writes the same bytes.
pub fn flush() -> std::io::Result<bool> {
    SINK.flush(export_jsonl)
}

/// Format nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`) — the
/// one formatter of the `EXPLAIN ANALYZE` and query-profile tables.
pub fn fmt_ns(ns: u64) -> String {
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
            agg_value: Some(42.5),
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

    /// Exact estimates everywhere: no operator is marked. Two operators
    /// off by the same factor: the first is.
    #[test]
    fn an_all_exact_record_marks_no_operator() {
        let mut exact = sample(1);
        exact.ops.iter_mut().for_each(|op| op.card_q = Some(1.0));
        assert_eq!(exact.worst_estimated_op(), None);
        assert!(!exact.render_analyze().contains("<- worst estimate"));
        exact.ops.iter_mut().for_each(|op| op.card_q = Some(1.5));
        assert_eq!(exact.worst_estimated_op(), Some(0));
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

    /// A record whose aggregate is not finite writes `null` there and
    /// parses back whole, as `None`.
    #[test]
    fn a_record_without_a_finite_aggregate_parses_back() {
        let rec = FlightRecord { agg_value: None, ..sample(3) };
        let line = serde_json::to_string(&rec).unwrap();
        assert!(line.contains("\"agg_value\":null"), "{line}");
        assert_eq!(parse_jsonl(&line).unwrap(), vec![rec]);
    }

    /// A line the recorder wrote before `agg_value` became optional (a
    /// model-scored quickstart query, captured verbatim) still parses, its
    /// aggregate as `Some`.
    #[test]
    fn a_line_in_the_earlier_format_still_parses() {
        const LINE: &str = r#"{"seed":7,"plan":"f683c6f17ed13f03","threads":2,"morsel":2048,"udf_batch":1024,"wall_ns":1184133,"runtime_ns":4959876.982638653,"agg_value":395.0,"udf_rows":800,"model_pred_ns":3550092.5988705275,"model_q":1.3971120032803237,"ops":[{"op":"SCAN title","kind":"SCAN","est_rows":800.0,"rows":800,"card_q":1.0,"est_work":16000.0,"work":16000.0,"cost_q":1.0,"wall_ns":2859,"batches":1},{"op":"UDF_FILTER score(..) Le 120","kind":"UDF_FILTER","est_rows":395.0,"rows":395,"card_q":1.0,"est_work":1497600.0,"work":4973326.0,"cost_q":3.320864049145299,"wall_ns":1147604,"batches":1},{"op":"AGG CountStar","kind":"AGG","est_rows":1.0,"rows":1,"card_q":1.0,"est_work":3555.0,"work":3555.0,"cost_q":1.0,"wall_ns":1940,"batches":1}]}"#;
        let recs = parse_jsonl(LINE).expect("the earlier format parses");
        let rec = &recs[0];
        assert_eq!((rec.seed, rec.plan.as_str(), rec.udf_rows), (7, "f683c6f17ed13f03", 800));
        assert_eq!(rec.agg_value, Some(395.0));
        assert_eq!(rec.runtime_ns.to_bits(), 4959876.982638653f64.to_bits());
        assert_eq!(rec.model_pred_ns, Some(3550092.5988705275));
        assert_eq!(rec.ops.len(), 3);
        assert_eq!(rec.ops[1].cost_q, Some(3.320864049145299));
        // Written back out, the record is the line it was read from.
        assert_eq!(serde_json::to_string(rec).unwrap(), LINE);
    }

    #[test]
    fn fmt_ns_picks_adaptive_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000s");
    }
}
