//! Integration tests for the observability subsystem: per-operator query
//! profiles ([`ExecProfile`]: a run's flight record and its UDF counters),
//! Chrome-trace-event JSON export, and the unified metrics registry.
//!
//! The bit-identity side (profiled runs identical to unobserved runs) lives
//! in `tests/parallel_determinism.rs`; here we check the *content* of the
//! observations: every plan in a generated suite yields a profile covering
//! every operator, the trace export parses as a valid event array, the
//! registry's snapshot/diff surfaces the engine counters, and the flight
//! recorder's JSONL round-trips the estimator-quality telemetry bit for bit.

use graceful::obs::{flight, registry, trace};
use graceful::plan::{Plan, PlanOpKind};
use graceful::prelude::*;
use graceful::udf::generator::apply_adaptations;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The span tracer and the flight recorder are process-global; every test
/// that executes a query serializes on this lock — the ones that enable a
/// sink so buffer contents stay attributable to one test at a time, and the
/// ones that do not because a span they open while another test has tracing
/// on would close between that test's two flushes.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Generated plans (with every valid UDF placement) over one small database.
fn suite_plans() -> (Database, Vec<(u64, Plan)>) {
    let mut db = generate(&schema("tpc_h"), 0.02, 3);
    let g = QueryGenerator::default();
    let mut plans = Vec::new();
    for seed in [7u64, 11, 42, 99, 1234] {
        let mut rng = Rng::seed(seed);
        let Ok(spec) = g.generate(&db, seed, &mut rng) else { continue };
        if let Some(u) = &spec.udf {
            if apply_adaptations(&mut db, &u.adaptations).is_err() {
                continue;
            }
        }
        for placement in graceful::plan::valid_placements(&spec) {
            if let Ok(plan) = build_plan(&spec, placement) {
                plans.push((seed, plan));
            }
        }
    }
    assert!(plans.len() >= 3, "query suite too small: {} plans", plans.len());
    (db, plans)
}

fn profiled(threads: usize) -> Session {
    ExecOptions::new()
        .udf_batch_size(37)
        .threads(threads)
        .morsel_rows(64)
        .profile(true)
        .build()
        .expect("valid options")
}

/// Every plan in the suite yields an [`ExecProfile`] whose record's
/// per-operator rows/work agree exactly with the contracted `QueryRun`
/// fields, whose UDF counters appear exactly on the UDF operators, and whose
/// explain rendering names every operator. The reference run is never
/// profiled.
#[test]
fn profiles_cover_every_plan_in_the_suite() {
    let _g = obs_lock();
    let (db, plans) = suite_plans();
    let mut udf_plans = 0usize;
    for (seed, plan) in &plans {
        let reference = profiled(2).run_reference(&db, plan, *seed).expect("reference run");
        assert!(reference.profile.is_none(), "seed {seed}: the reference run is unobserved");
        let run = profiled(2).run(&db, plan, *seed).expect("profiled run succeeds");
        let what = format!("seed {seed}");
        let prof = run.profile.as_ref().unwrap_or_else(|| panic!("{what}: no profile"));
        let record = &prof.record;
        assert_eq!(record.ops.len(), plan.ops.len(), "{what}: op coverage");
        assert_eq!(prof.udf.len(), plan.ops.len(), "{what}: UDF counter coverage");
        assert_eq!(record.threads, 2);
        assert!(record.wall_ns > 0, "{what}: zero total wall time");
        let wall_sum: u64 = record.ops.iter().map(|o| o.wall_ns).sum();
        assert!(
            wall_sum <= record.wall_ns,
            "{what}: self-times {wall_sum} exceed total {}",
            record.wall_ns
        );
        for (i, ((op, p), udf)) in plan.ops.iter().zip(&record.ops).zip(&prof.udf).enumerate() {
            assert!(!p.op.is_empty(), "{what}: op {i} unnamed");
            assert_eq!(p.rows as usize, run.out_rows[i], "{what}: op {i} rows");
            assert_eq!(
                p.work.to_bits(),
                run.op_work[i].to_bits(),
                "{what}: op {i} work diverges from the accounted value"
            );
            let is_udf =
                matches!(op.kind, PlanOpKind::UdfFilter { .. } | PlanOpKind::UdfProject { .. });
            assert_eq!(udf.is_some(), is_udf, "{what}: op {i} UDF counter presence");
            if let Some(u) = udf {
                if u.rows > 0 {
                    assert!(u.batches > 0, "{what}: rows without batches");
                }
                // The typed fast path classifies every row it sees as fast
                // or bailed; an ineligible shape runs the boxed VM and
                // records neither.
                let classified = u.lane_rows + u.bail_rows;
                assert!(
                    classified == u.rows || classified == 0,
                    "{what}: {classified} classified of {} rows",
                    u.rows
                );
                assert!(u.bail_rate() >= 0.0 && u.bail_rate() <= 1.0);
            }
        }
        // One UDF per query spec, so the per-op totals must add up to the
        // contracted input-row count.
        let udf_rows: u64 = prof.udf.iter().flatten().map(|u| u.rows).sum();
        assert_eq!(udf_rows as usize, run.udf_input_rows, "{what}: UDF row total");
        if run.udf_input_rows > 0 {
            udf_plans += 1;
        }
        let text = prof.explain();
        assert!(text.contains("EXPLAIN ANALYZE"), "{what}: explain header");
        for p in &record.ops {
            assert!(text.contains(&p.op), "{what}: explain omits {}", p.op);
        }
        let udf_lines = text.lines().filter(|l| l.contains(" udf rows=")).count();
        assert_eq!(udf_lines, prof.udf.iter().flatten().count(), "{what}: one line per UDF op");
    }
    assert!(udf_plans > 0, "suite exercised no UDF operators");
}

/// Every flight record carries the query's wall time — the
/// `exec.query_wall_ns` reading — profiled or not; the per-operator
/// self-times and batch counts need the profiler's clock and stay 0
/// without it.
#[test]
fn an_unprofiled_record_carries_the_query_wall_time() {
    let _g = obs_lock();
    let (db, plans) = suite_plans();
    let session = ExecOptions::new().threads(2).build().expect("valid options");
    let seed = 0x3a11_0001;
    flight::clear();
    flight::enable();
    let run = session.run(&db, &plans[0].1, seed).expect("recorded run");
    flight::disable();
    assert!(run.profile.is_none());
    let parsed = flight::parse_jsonl(&flight::export_jsonl()).expect("flight JSONL parses");
    let record = parsed.iter().find(|r| r.seed == seed).expect("the run was recorded");
    assert!(record.wall_ns > 0, "an unprofiled record lost the query's wall time");
    assert!(
        record.ops.iter().all(|o| o.wall_ns == 0 && o.batches == 0),
        "the per-operator clock ran without profiling"
    );
}

/// Profiles are strictly opt-in: a default session attaches none.
#[test]
fn profile_is_opt_in() {
    let _g = obs_lock();
    let (db, plans) = suite_plans();
    let (seed, plan) = &plans[0];
    let run = Session::new().run(&db, plan, *seed).expect("run succeeds");
    assert!(run.profile.is_none());
}

/// The subset of a Chrome trace event the export contract guarantees.
/// Unknown keys (like `args`) are ignored by deserialization.
#[derive(Debug, Deserialize)]
struct Ev {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
}

/// The trace export is a valid Chrome-trace-event JSON array of complete
/// events, both in memory and round-tripped through a file.
#[test]
fn chrome_trace_export_is_a_valid_event_array() {
    let _g = obs_lock();
    // Empty (or near-empty) traces still parse as an array.
    let events: Vec<Ev> = serde_json::from_str(&trace::export_json()).expect("empty trace parses");
    drop(events);

    trace::enable();
    let (db, plans) = suite_plans();
    for (seed, plan) in plans.iter().take(2) {
        profiled(2).run(&db, plan, *seed).expect("traced run succeeds");
    }
    trace::disable();

    let json = trace::export_json();
    let events: Vec<Ev> = serde_json::from_str(&json).expect("trace JSON parses");
    assert!(!events.is_empty(), "no events recorded");
    for e in &events {
        assert_eq!(e.ph, "X", "only complete events are emitted");
        assert!(e.ts >= 0.0 && e.dur >= 0.0, "negative time in {e:?}");
        assert!(e.pid >= 1);
        assert!(!e.name.is_empty() && !e.cat.is_empty());
    }
    assert!(events.iter().any(|e| e.cat == "exec" && e.name == "query"), "missing exec/query span");
    assert!(
        events.iter().any(|e| e.cat == "udf" && e.name == "eval_morsel"),
        "missing udf/eval_morsel span"
    );
    // Worker spans carry distinct synthetic thread ids.
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(!tids.is_empty());

    // File round-trip (the `GRACEFUL_TRACE=path` flush target).
    let path = std::env::temp_dir().join("graceful-observability-trace.json");
    let path = path.to_str().expect("utf-8 temp path");
    trace::write_to(path).expect("trace file written");
    let reread: Vec<Ev> =
        serde_json::from_str(&std::fs::read_to_string(path).expect("trace file read"))
            .expect("trace file parses");
    assert!(reread.len() >= events.len());
    let _ = std::fs::remove_file(path);
}

/// The registry's snapshot/diff view surfaces the engine's work counters:
/// executed queries, UDF evaluation volume, and the query wall-time
/// histogram.
#[test]
fn registry_snapshot_diff_tracks_engine_counters() {
    let _g = obs_lock();
    let (db, plans) = suite_plans();
    let before = registry::snapshot();
    let mut ran = 0u64;
    let mut udf_rows = 0u64;
    for (seed, plan) in &plans {
        let run = profiled(2).run(&db, plan, *seed).expect("run succeeds");
        ran += 1;
        udf_rows += run.udf_input_rows as u64;
    }
    let delta = registry::snapshot().diff(&before);
    // Counters only ever add (and the registry is process-global), so the
    // deltas are checked as lower bounds.
    assert!(delta.counter("exec.queries") >= ran, "exec.queries under-counts");
    assert!(delta.counter("udf.rows") >= udf_rows, "udf.rows under-counts");
    assert!(delta.counter("udf.batches") >= 1);
    let after = registry::snapshot();
    let wall = after.histograms.get("exec.query_wall_ns").expect("wall histogram registered");
    assert!(wall.count >= ran);
    assert!(wall.p50 > 0.0 && wall.p99 >= wall.p50);
    let rendered = after.render();
    assert!(rendered.contains("exec.queries") && rendered.contains("exec.query_wall_ns"));
}

/// The acceptance bar of the estimator-quality telemetry: q-errors
/// recomputed *offline* from the parsed flight JSONL — with the same shared
/// `q_error` function — match the stored per-op values, the registry's
/// `est.*` histogram summaries, and the `explain analyze` rendering **bit
/// for bit**.
#[test]
fn flight_qerrors_recompute_offline_bit_for_bit() {
    let _g = obs_lock();
    let (db, plans) = suite_plans();
    // Annotate with the naive estimator: deterministic, and wrong enough to
    // produce q-errors worth histogramming.
    let estimator = NaiveCard::new(&db);
    let mut annotated = plans.clone();
    for (_, plan) in &mut annotated {
        estimator.annotate(plan).expect("naive estimator annotates");
    }

    flight::clear();
    flight::enable();
    let mut live = Vec::new();
    for (seed, plan) in &annotated {
        let (_, record) =
            profiled(2).run_analyzed(&db, plan, *seed, None).expect("analyzed run succeeds");
        live.push(record);
    }
    flight::disable();

    let parsed = flight::parse_jsonl(&flight::export_jsonl()).expect("flight JSONL parses");
    // Concurrent tests in this binary never annotate plans, so the
    // annotated records in the buffer are exactly this test's runs.
    let ours: Vec<&FlightRecord> =
        parsed.iter().filter(|r| r.ops.iter().any(|o| o.card_q.is_some())).collect();
    assert_eq!(ours.len(), live.len(), "one record per analyzed run");

    // (1) Per-op q-errors recompute bit-for-bit from the serialized
    // predicted/actual pairs; collect them per registry key as we go.
    let mut card: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut cost: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for rec in &ours {
        for op in &rec.ops {
            let cq = q_error(op.est_rows, op.rows as f64);
            assert_eq!(cq.to_bits(), op.card_q.expect("annotated").to_bits(), "card q-error");
            let wq = q_error(op.est_work, op.work);
            assert_eq!(wq.to_bits(), op.cost_q.expect("annotated").to_bits(), "cost q-error");
            let key = op.kind.to_ascii_lowercase();
            card.entry(key.clone()).or_default().push(cq);
            cost.entry(key).or_default().push(wq);
        }
    }
    assert!(card.keys().any(|k| k.starts_with("udf")), "no UDF operator exercised");

    // (2) The registry's est.* histograms aggregate exactly these samples:
    // counts match, and min/max/percentiles are bit-identical to the same
    // statistics over the offline multiset (this test is the binary's sole
    // writer of annotated+profiled runs).
    let snap = registry::snapshot();
    for (by_key, prefix) in [(&card, "est.card.qerror"), (&cost, "est.cost.qerror")] {
        for (key, samples) in by_key {
            let name = format!("{prefix}.{key}");
            let h = snap.histograms.get(&name).unwrap_or_else(|| panic!("{name} not registered"));
            assert_eq!(h.count, samples.len() as u64, "{name}: sample count");
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(h.min.to_bits(), min.to_bits(), "{name}: min");
            assert_eq!(h.max.to_bits(), max.to_bits(), "{name}: max");
            for (q, got) in [(0.5, h.p50), (0.95, h.p95), (0.99, h.p99)] {
                assert_eq!(
                    registry::percentile(samples, q).to_bits(),
                    got.to_bits(),
                    "{name}: p{}",
                    (q * 100.0) as u32
                );
            }
        }
    }

    // (3) explain analyze renders bit-for-bit from the parsed copy.
    for rec in &live {
        let twin = ours
            .iter()
            .find(|r| ***r == *rec)
            .unwrap_or_else(|| panic!("no parsed twin for seed {}", rec.seed));
        let report = twin.render_analyze();
        assert_eq!(report, rec.render_analyze(), "explain analyze drifted through JSONL");
        assert!(report.contains("EXPLAIN ANALYZE") && report.contains("q(card)"));
        assert!(report.contains("<- worst estimate"), "worst-estimate marker missing");
    }
}

/// Flushing is explicit and idempotent for both sinks: the buffers are
/// retained, so flushing twice (with recording off in between) writes the
/// same bytes, and the flight flush parses back into complete records.
#[test]
fn trace_and_flight_flush_are_idempotent() {
    let _g = obs_lock();
    let (db, plans) = suite_plans();
    let (seed, plan) = &plans[0];

    trace::enable();
    profiled(2).run(&db, plan, *seed).expect("traced run");
    trace::disable();
    let tpath = std::env::temp_dir().join("graceful-obs-flush-trace.json");
    let tpath = tpath.to_str().expect("utf-8 temp path");
    trace::write_to(tpath).expect("first trace flush");
    let first = std::fs::read(tpath).expect("trace file read");
    trace::write_to(tpath).expect("second trace flush");
    assert_eq!(
        first,
        std::fs::read(tpath).expect("trace file reread"),
        "trace flush not idempotent"
    );
    let _ = std::fs::remove_file(tpath);

    let fpath = std::env::temp_dir().join("graceful-obs-flush-flight.jsonl");
    let fpath = fpath.to_str().expect("utf-8 temp path");
    flight::clear();
    flight::configure(fpath);
    assert_eq!(flight::configured_path().as_deref(), Some(fpath));
    flight::enable();
    profiled(2).run(&db, plan, *seed).expect("recorded run");
    flight::disable();
    assert!(flight::flush().expect("first flight flush"), "configured flush writes a file");
    let first = std::fs::read_to_string(fpath).expect("flight file read");
    assert!(flight::flush().expect("second flight flush"));
    let second = std::fs::read_to_string(fpath).expect("flight file reread");
    assert_eq!(first, second, "flight flush not idempotent");
    let records = flight::parse_jsonl(&second).expect("flushed JSONL parses");
    assert!(!records.is_empty(), "flush lost the recorded run");
    let _ = std::fs::remove_file(fpath);
}

/// Two sessions recording concurrently interleave whole records, never
/// fragments: every record either thread produced parses back from the
/// shared buffer complete and field-for-field equal to the one its profile
/// holds.
#[test]
fn concurrent_sessions_write_complete_flight_records() {
    let _g = obs_lock();
    let (db, plans) = suite_plans();
    flight::clear();
    flight::enable();
    trace::enable();
    let expected: Vec<FlightRecord> = std::thread::scope(|s| {
        // Different thread budgets, so the two sessions' records differ.
        let handles: Vec<_> = [2usize, 3]
            .into_iter()
            .map(|threads| {
                let (db, plans) = (&db, &plans);
                s.spawn(move || {
                    let session = profiled(threads);
                    plans
                        .iter()
                        .map(|(seed, plan)| {
                            let run = session.run(db, plan, *seed).expect("concurrent run");
                            run.profile.expect("profiled run").record
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker thread")).collect()
    });
    trace::disable();
    flight::disable();

    let parsed = flight::parse_jsonl(&flight::export_jsonl()).expect("every line is one record");
    assert!(parsed.len() >= expected.len(), "records went missing");
    for rec in &expected {
        assert!(
            parsed.contains(rec),
            "record for seed {} ({} threads) is missing or torn",
            rec.seed,
            rec.threads
        );
    }
}
