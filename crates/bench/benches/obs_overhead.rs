//! Observability overhead: what do profiling, tracing and the
//! estimator-quality telemetry cost, and — the number that matters — what
//! does *disabled* instrumentation cost?
//!
//! Five arms run the same UDF-heavy plan corpus, interleaved within every
//! repetition so thermal / cache drift hits all arms equally:
//!
//! * `off_a`    — observability disabled (first baseline arm),
//! * `profile`  — per-operator [`ExecProfile`] collection on,
//! * `trace`    — profiling *and* span recording on,
//! * `qerror`   — profiling over *annotated* plans with the flight recorder
//!   on: every run scores per-op q-errors into the registry histograms and
//!   appends one JSONL flight record,
//! * `off_b`    — observability disabled again (second baseline arm).
//!
//! `disabled_overhead_pct` compares the two baseline arms: with every span
//! site compiled in but recording off, the A/A difference is the noise
//! floor, and the acceptance bar is that it stays under 2%. The profile and
//! trace arms report their (real, expected-nonzero) cost next to it.
//!
//! Per-arm medians across repetitions go to stdout and to `BENCH_obs.json`
//! at the repo root (overwritten). Scale knobs apply as everywhere
//! (`GRACEFUL_SCALE`, `GRACEFUL_QUERIES_PER_DB`, `GRACEFUL_THREADS`, …).

use graceful_bench::announce;
use graceful_card::{CardEstimator, NaiveCard};
use graceful_common::rng::Rng;
use graceful_exec::{ExecOptions, Session};
use graceful_obs::{flight, trace};
use graceful_plan::{build_plan, Plan, QueryGenerator};
use graceful_storage::datagen::{generate, schema};
use graceful_storage::Database;
use graceful_udf::generator::apply_adaptations;
use std::time::Instant;

const REPS: usize = 7;

fn udf_plans(cfg: &graceful_common::config::ScaleConfig) -> (Database, Vec<(Plan, u64)>) {
    let mut db = generate(&schema("tpc_h"), cfg.data_scale, cfg.seed);
    let g = QueryGenerator::default();
    let mut rng = Rng::seed(cfg.seed ^ 0x0B5);
    let mut plans = Vec::new();
    let mut id = 0u64;
    while plans.len() < cfg.queries_per_db && id < cfg.queries_per_db as u64 * 8 {
        id += 1;
        let Ok(spec) = g.generate(&db, id, &mut rng) else { continue };
        if spec.udf.is_none() {
            continue; // UDF evaluation is where the instrumentation lives
        }
        if let Some(u) = &spec.udf {
            if apply_adaptations(&mut db, &u.adaptations).is_err() {
                continue;
            }
        }
        for placement in graceful_plan::valid_placements(&spec) {
            if let Ok(plan) = build_plan(&spec, placement) {
                plans.push((plan, spec.id));
            }
        }
    }
    (db, plans)
}

fn session(profile: bool) -> Session {
    ExecOptions::new().profile(profile).build_with_env().expect("valid GRACEFUL_* configuration")
}

/// One timed pass of every plan under `session`; returns seconds.
fn pass(session: &Session, db: &Database, plans: &[(Plan, u64)]) -> f64 {
    let exec = session.executor(db);
    let started = Instant::now();
    for (plan, seed) in plans {
        let run = exec.run(plan, *seed).expect("plan executes");
        std::hint::black_box(run.runtime_ns);
    }
    started.elapsed().as_secs_f64()
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let (_, cfg) = announce(
        "obs_overhead: cost of profiling, tracing, q-error recording, and disabled instrumentation",
    );
    let (db, plans) = udf_plans(&cfg);
    println!("corpus: {} UDF plans, {REPS} interleaved repetitions\n", plans.len());
    assert!(!plans.is_empty(), "no UDF plans generated at this scale");

    let off = session(false);
    let profiled = session(true);
    // The q-error arm scores estimates, so it needs annotated plans (the
    // engine ignores annotations — execution is identical either way).
    let estimator = NaiveCard::new(&db);
    let annotated: Vec<(Plan, u64)> = plans
        .iter()
        .map(|(plan, seed)| {
            let mut p = plan.clone();
            estimator.annotate(&mut p).expect("naive estimator annotates");
            (p, *seed)
        })
        .collect();
    // Warm-up pass so allocator and cache state is steady before rep 0.
    pass(&off, &db, &plans);

    let (mut off_a, mut prof, mut traced, mut qerr, mut off_b) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        off_a.push(pass(&off, &db, &plans));
        prof.push(pass(&profiled, &db, &plans));
        trace::enable();
        traced.push(pass(&profiled, &db, &plans));
        trace::disable();
        trace::clear(); // keep the event buffers from growing across reps
        flight::enable();
        qerr.push(pass(&profiled, &db, &annotated));
        flight::disable();
        flight::clear(); // keep the record buffer from growing across reps
        off_b.push(pass(&off, &db, &plans));
    }

    let (m_off_a, m_prof, m_traced, m_qerr, m_off_b) = (
        median(&mut off_a),
        median(&mut prof),
        median(&mut traced),
        median(&mut qerr),
        median(&mut off_b),
    );
    let pct = |arm: f64| (arm - m_off_a) / m_off_a.max(1e-12) * 100.0;
    let disabled_overhead_pct = pct(m_off_b);
    let profile_overhead_pct = pct(m_prof);
    let trace_overhead_pct = pct(m_traced);
    let qerror_overhead_pct = pct(m_qerr);

    println!("median seconds per pass ({} plans):", plans.len());
    println!("  off (A)         {m_off_a:.4}s");
    println!("  profile         {m_prof:.4}s  ({profile_overhead_pct:+.2}%)");
    println!("  profile+trace   {m_traced:.4}s  ({trace_overhead_pct:+.2}%)");
    println!("  profile+qerror  {m_qerr:.4}s  ({qerror_overhead_pct:+.2}%)  <- histograms + flight records");
    println!("  off (B)         {m_off_b:.4}s  ({disabled_overhead_pct:+.2}%)  <- disabled overhead (A/A)");

    let json = format!(
        "{{\"bench\":\"obs_overhead\",\"seed\":{},\"data_scale\":{},\"plans\":{},\"reps\":{REPS},\
         \"median_s\":{{\"off_a\":{m_off_a:.6},\"profile\":{m_prof:.6},\
         \"trace\":{m_traced:.6},\"qerror\":{m_qerr:.6},\"off_b\":{m_off_b:.6}}},\
         \"profile_overhead_pct\":{profile_overhead_pct:.3},\
         \"trace_overhead_pct\":{trace_overhead_pct:.3},\
         \"qerror_overhead_pct\":{qerror_overhead_pct:.3},\
         \"disabled_overhead_pct\":{disabled_overhead_pct:.3}}}\n",
        cfg.seed,
        cfg.data_scale,
        plans.len(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
