//! Each generated UDF is compiled, verified and pruned once: by the first
//! consumer of its prepared program (the query generator's literal
//! calibration or its first operator run), and borrowed by every later one.
//! The `udf.compiles` registry counter is process-wide, so this file is its
//! own test process and holds one test.

use graceful::core_model::experiments::run_advisor_in;
use graceful::obs::registry;
use graceful::plan::{AggFunc, Plan, PlanOp, PlanOpKind};
use graceful::prelude::*;
use graceful::udf::GeneratedUdf;
use std::sync::Arc;

fn compiles() -> u64 {
    registry::snapshot().counter("udf.compiles")
}

/// Every contracted field of a run, floats as bits.
fn contract(run: &graceful::exec::QueryRun) -> (u64, Vec<usize>, Vec<u64>, u64, usize) {
    let work = run.op_work.iter().map(|w| w.to_bits()).collect();
    (
        run.runtime_ns.to_bits(),
        run.out_rows.clone(),
        work,
        run.agg_value.to_bits(),
        run.udf_input_rows,
    )
}

/// `SELECT SUM(udf(..)) FROM udf.table`.
fn project(udf: Arc<GeneratedUdf>) -> Plan {
    let table = udf.table.clone();
    Plan {
        ops: vec![
            PlanOp::new(PlanOpKind::Scan { table }, vec![]),
            PlanOp::new(PlanOpKind::UdfProject { udf }, vec![0]),
            PlanOp::new(PlanOpKind::Agg { func: AggFunc::Sum, column: None }, vec![1]),
        ],
        root: 2,
    }
}

#[test]
fn a_label_pass_compiles_each_udf_once_and_a_stale_program_never_runs() {
    let session = Session::from_env().expect("a valid GRACEFUL_* environment");
    let cfg = ScaleConfig {
        data_scale: 0.02,
        queries_per_db: 14,
        epochs: 8,
        hidden: 12,
        folds: 2,
        ..ScaleConfig::default()
    };

    // Labelling: one compile per UDF-bearing spec, whether calibration or
    // the label run uses it first.
    let before = compiles();
    let corpora = build_all_corpora_in(&session, &cfg);
    let built = compiles() - before;
    let skipped: usize = corpora.iter().map(|c| c.skipped).sum();
    assert_eq!(skipped, 0, "a skipped spec may have compiled without being counted");
    let udf_specs = corpora.iter().flat_map(|c| &c.queries).filter(|q| q.has_udf()).count();
    assert!(udf_specs > 100, "only {udf_specs} UDF-bearing specs");
    assert_eq!(built, udf_specs as u64, "compiles per UDF-bearing spec");

    // Advising re-runs every advisable query's plan variants on the same
    // UDFs: nothing left to compile.
    let model = GracefulModel::new(Featurizer::full(), cfg.hidden, cfg.seed).expect("a model");
    let before = compiles();
    let mut advised = 0;
    for corpus in &corpora {
        let outcomes = run_advisor_in(
            &session,
            &model,
            corpus,
            EstimatorKind::Actual,
            Strategy::Conservative,
            cfg.seed,
            corpus.queries.len(),
        );
        advised += outcomes.len();
    }
    assert!(advised > 0, "no query was advised");
    assert_eq!(compiles() - before, 0, "advising compiled again");

    // The harness's way of making a UDF: take one that has run, overwrite
    // its public fields. It runs what it holds now, exactly as a UDF built
    // fresh from those fields does, and not the program it ran before:
    // first with the definition alone overwritten (same parameters, so the
    // same column types), then with the input columns too.
    let corpus = &corpora[0];
    let ran = corpus.queries.iter().find_map(|q| q.spec.udf.clone()).expect("a UDF query");
    let run = |udf: &GeneratedUdf| {
        let plan = project(Arc::new(udf.clone()));
        contract(&session.run(&corpus.db, &plan, 1).expect("the UDF runs"))
    };
    let fresh = |udf: &GeneratedUdf| {
        run(&GeneratedUdf::new(udf.def.clone(), udf.table.clone(), udf.input_columns.clone()))
    };
    let before = run(&ran);
    let mut overwritten = (*ran).clone();
    let params = ran.def.params.join(", ");
    overwritten.def = parse_udf(&format!("def f({params}):\n    return 1.5\n")).expect("parses");
    assert_eq!(run(&overwritten), fresh(&overwritten));
    assert_ne!(run(&overwritten), before, "the overwritten UDF ran its old program");

    let table = corpus.db.table(&ran.table).expect("the UDF's table");
    let numeric = |c: &&String| table.column(c).is_ok_and(|c| c.data_type() != DataType::Text);
    let column = ran.input_columns.iter().find(numeric).expect("a numeric input").clone();
    overwritten.def = parse_udf("def f(x0):\n    return x0 * 3.0 + 1.0\n").expect("parses");
    overwritten.input_columns = vec![column];
    assert_eq!(run(&overwritten), fresh(&overwritten));
    assert_ne!(run(&overwritten), before, "the overwritten UDF ran its old program");
}
