//! Quickstart: the full GRACEFUL pipeline on one database in under a minute.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Steps: generate a database → write a UDF → build and execute a query plan
//! → train a small GRACEFUL model on a generated workload → predict the
//! query's runtime and compare against the measured truth, with an
//! `explain analyze` report of predicted vs. actual per operator.

use graceful::prelude::*;
use graceful_plan::{AggFunc, ColRef, Plan, PlanOp, PlanOpKind};
use graceful_udf::ast::CmpOp;
use graceful_udf::GeneratedUdf;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A database: the synthetic IMDB stand-in at small scale.
    let db = generate(&schema("imdb"), 0.1, 42);
    println!(
        "database `{}`: {} tables, {} rows total",
        db.name,
        db.tables().len(),
        db.total_rows()
    );

    // 2. A scalar UDF, written as Python-like source and parsed for real.
    let udf_src = "\
def score(production_year, kind_id):
    z = production_year - 1900
    if kind_id < 3:
        z = z * 1.5 + math.sqrt(abs(z) + 1)
    else:
        for i in range(25):
            z = z + np.log(production_year) / (abs(kind_id) + 1)
    return z
";
    let def = parse_udf(udf_src)?;
    println!(
        "\nparsed UDF `{}` ({} ops, {} branches, {} loops)",
        def.name,
        def.op_count(),
        def.branch_count(),
        def.loop_count()
    );
    let udf =
        Arc::new(GeneratedUdf::new(def, "title", vec!["production_year".into(), "kind_id".into()]));

    // 3. A query plan: SELECT COUNT(*) FROM title WHERE score(...) <= 120.
    let plan = Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table: "title".into() }, vec![]),
            PlanOp::new(
                PlanOpKind::UdfFilter { udf: udf.clone(), op: CmpOp::Le, literal: 120.0 },
                vec![0],
            ),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![1]),
        ],
        root: 2,
    };
    // Engine configuration is programmatic: `Session::from_env()` applies
    // the documented GRACEFUL_* defaults once, `ExecOptions::new()` builds a
    // fully env-free session (e.g. `.threads(2).udf_batch_size(512)`). Here
    // the environment defaults are kept but per-operator profiling is forced on
    // (`GRACEFUL_PROFILE=1` would do the same).
    let session = ExecOptions::new().profile(true).build_with_env()?;
    let mut annotated = plan.clone();
    let run = session.run_and_annotate(&db, &mut annotated, 7)?;
    println!("\nexecuted plan:\n{}", annotated.explain());
    println!("measured runtime: {:.3} ms ({} rows kept)", run.runtime_ns * 1e-6, run.out_rows[1]);
    // The profile is pure observability — outside the bit-identity contract:
    // the run's flight record (wall self-time per operator) and the UDF
    // evaluator's counters.
    if let Some(profile) = &run.profile {
        println!("\n{}", profile.explain());
    }

    // 4. Train a small model on a generated workload over the same database.
    let cfg = ScaleConfig {
        data_scale: 0.1,
        queries_per_db: 40,
        epochs: 12,
        hidden: 24,
        ..ScaleConfig::default()
    };
    let corpus = build_corpus_in(&session, "imdb", &cfg, 42)?;
    println!("\ntraining on {} labelled queries...", corpus.queries.len());
    let model = train_graceful(&session, std::slice::from_ref(&corpus), &cfg, Featurizer::full())?;
    println!("model has {} parameters", model.param_count());

    // 5. Predict the hand-written query's runtime.
    // NOTE: the model was trained on *this* database, so this is the easy
    // (seen-data) case — the paper's experiments always predict on unseen
    // databases; `tests/paper_claims.rs` runs that setup.
    let spec = QuerySpec {
        id: 999,
        database: db.name.clone(),
        base_table: "title".into(),
        joins: vec![],
        filters: vec![],
        udf: Some(udf),
        udf_usage: UdfUsage::Filter,
        udf_filter_op: CmpOp::Le,
        udf_filter_literal: 120.0,
        target_udf_selectivity: 0.5,
        agg: AggFunc::CountStar,
        agg_col: None,
    };
    let est = ActualCard::new(&corpus.db);
    let _ = ColRef::new("title", "id"); // (ColRef is part of the public plan API)
    let scored = run_with_model(&session, &corpus.db, &model, &spec, &annotated, &est, 7)?;
    if let (Some(predicted_ns), Some(q)) = (scored.record.model_pred_ns, scored.record.model_q) {
        println!(
            "\npredicted {:.3} ms vs measured {:.3} ms  (Q-error {q:.2})",
            predicted_ns * 1e-6,
            scored.run.runtime_ns * 1e-6,
        );
    }

    // 6. `explain analyze`: predicted vs. actual per operator, q-errors per
    // row-count and work estimate, worst-estimated operator flagged. The
    // same report renders from any record parsed back out of the flight
    // recorder's JSONL.
    println!("\n{}", scored.record.render_analyze());

    // 7. With GRACEFUL_TRACE=/tmp/trace.json set, flush every span recorded
    // above (query execution, pool regions, training epochs/steps) as
    // Chrome-trace JSON — open it in chrome://tracing or ui.perfetto.dev.
    // With GRACEFUL_FLIGHT=/tmp/flight.jsonl set, flush one JSONL flight
    // record per executed query (parse them back with
    // `graceful::obs::flight::parse_jsonl`, or re-label a training corpus
    // via `labels_from_flight`).
    if graceful::obs::trace::flush()? {
        let path = graceful::obs::trace::configured_path().unwrap_or_default();
        println!("wrote {} trace events to {path}", graceful::obs::trace::event_count());
    }
    if graceful::obs::flight::flush()? {
        let path = graceful::obs::flight::configured_path().unwrap_or_default();
        println!("wrote {} flight records to {path}", graceful::obs::flight::record_count());
    }
    Ok(())
}
