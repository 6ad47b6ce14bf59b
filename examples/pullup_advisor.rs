//! The Figure 1 scenario as a library example: an expensive UDF filter on a
//! join query, where the textbook push-down heuristic is badly wrong — and
//! the GRACEFUL advisor fixes it.
//!
//! ```sh
//! cargo run --release --example pullup_advisor
//! ```

use graceful::prelude::*;
use graceful_plan::querygen::JoinStep;
use graceful_plan::{AggFunc, ColRef, Pred};
use graceful_udf::ast::CmpOp;
use graceful_udf::GeneratedUdf;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = generate(&schema("imdb"), 0.25, 7);
    // An expensive keyword-scoring UDF (loops dominate on most rows).
    let src = "\
def udf(movie_id, keyword_id):
    z = keyword_id * 1.0
    if keyword_id < 400:
        z = z + math.sqrt(movie_id)
    else:
        for i in range(50):
            z = z + math.pow(math.sqrt(keyword_id + 1), 2) / (abs(movie_id) + 1)
    return z
";
    let def = parse_udf(src)?;
    let udf = Arc::new(GeneratedUdf::new(
        def,
        "movie_keyword",
        vec!["movie_id".into(), "keyword_id".into()],
    ));
    // Selective series_years filter high in the plan (like the paper's
    // `t.series_years = '1987-1997'`).
    let series = db.stats("title")?.column("series_years")?.mcv[0].0.clone();
    let spec = QuerySpec {
        id: 1,
        database: db.name.clone(),
        base_table: "movie_keyword".into(),
        joins: vec![
            JoinStep {
                table: "title".into(),
                left_col: ColRef::new("movie_keyword", "movie_id"),
                right_col: ColRef::new("title", "id"),
            },
            JoinStep {
                table: "movie_info_idx".into(),
                left_col: ColRef::new("title", "id"),
                right_col: ColRef::new("movie_info_idx", "movie_id"),
            },
        ],
        filters: vec![Pred::new("title", "series_years", CmpOp::Eq, series)],
        udf: Some(udf),
        udf_usage: UdfUsage::Filter,
        udf_filter_op: CmpOp::Le,
        udf_filter_literal: 1.0e9,
        target_udf_selectivity: 0.9,
        agg: AggFunc::CountStar,
        agg_col: None,
    };

    // Ground truth: execute both placements.
    let session = Session::from_env()?;
    let exec = session.executor(&db);
    let mut pd = build_plan(&spec, UdfPlacement::PushDown)?;
    let mut pu = build_plan(&spec, UdfPlacement::PullUp)?;
    let pd_run = exec.run_and_annotate(&mut pd, 1)?;
    let pu_run = exec.run_and_annotate(&mut pu, 1)?;
    println!(
        "push-down: {:8.2} ms  (UDF on {:>7} rows)",
        pd_run.runtime_ns * 1e-6,
        pd_run.udf_input_rows
    );
    println!(
        "pull-up:   {:8.2} ms  (UDF on {:>7} rows)",
        pu_run.runtime_ns * 1e-6,
        pu_run.udf_input_rows
    );
    println!("speedup from pull-up: {:.1}x\n", pd_run.runtime_ns / pu_run.runtime_ns);

    // Train a model on two *other* databases (zero-shot for IMDB).
    let cfg = ScaleConfig {
        data_scale: 0.08,
        queries_per_db: 40,
        epochs: 12,
        hidden: 24,
        ..ScaleConfig::default()
    };
    println!("training advisor model on tpc_h + financial (imdb unseen)...");
    let train = vec![
        build_corpus_in(&session, "tpc_h", &cfg, 21)?,
        build_corpus_in(&session, "financial", &cfg, 22)?,
    ];
    let model = train_graceful(&session, &train, &cfg, Featurizer::full())?;
    let advisor = PullUpAdvisor::new(&model);
    let est = DataDrivenCard::build(&db, 9);
    for strat in [Strategy::Conservative, Strategy::AreaUnderCurve, Strategy::UpperBoundCardinality]
    {
        let d = advisor.decide(&db, &spec, &est, strat, None)?;
        let truth = pu_run.runtime_ns < pd_run.runtime_ns;
        println!(
            "{:<28} -> {}  ({}correct)",
            format!("{strat:?}"),
            if d.pull_up { "PULL UP" } else { "push down" },
            if d.pull_up == truth { "" } else { "in" }
        );
    }
    Ok(())
}
