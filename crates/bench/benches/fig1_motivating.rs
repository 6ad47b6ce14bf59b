//! **Figure 1** — the motivating example: a 2-join IMDB query with an
//! expensive UDF filter. Prints both plans with intermediate cardinalities
//! and the push-down vs pull-up runtimes, then lets a (small) trained
//! GRACEFUL advisor make the call.

use graceful_bench::announce;
use graceful_card::{ActualCard, CardEstimator};
use graceful_common::config::ScaleConfig;
use graceful_core::advisor::{PullUpAdvisor, Strategy};
use graceful_core::corpus::build_corpus_in;
use graceful_core::experiments::train_graceful;
use graceful_core::featurize::Featurizer;
use graceful_plan::querygen::JoinStep;
use graceful_plan::{build_plan, AggFunc, ColRef, Pred, QuerySpec, UdfPlacement, UdfUsage};
use graceful_storage::datagen::{generate, schema};
use graceful_storage::Value;
use graceful_udf::ast::CmpOp;
use graceful_udf::{parse_udf, print_udf, GeneratedUdf};
use std::sync::Arc;

/// The paper's example UDF: branchy, loop-heavy keyword scoring.
const UDF_SRC: &str = "\
def udf(movie_id, keyword_id):
    z = keyword_id * 1.0
    if keyword_id < 600:
        z = z + math.sqrt(movie_id)
    else:
        for i in range(60):
            z = z + math.pow(math.sqrt(keyword_id + 1), 2) / (abs(movie_id) + 1)
    return z
";

fn main() {
    let (session, cfg) = announce("Figure 1: pull-up optimization on a SQL query with a UDF");
    let db = generate(&schema("imdb"), cfg.data_scale, cfg.seed);
    let udf_def = parse_udf(UDF_SRC).expect("example UDF parses");
    println!("UDF source:\n{}", print_udf(&udf_def));
    let udf = Arc::new(GeneratedUdf {
        source: print_udf(&udf_def),
        def: udf_def,
        table: "movie_keyword".into(),
        input_columns: vec!["movie_id".into(), "keyword_id".into()],
        adaptations: vec![],
    });
    // SELECT COUNT(*) FROM movie_keyword mk JOIN title t ON mk.movie_id=t.id
    // JOIN movie_info_idx mi ON t.id=mi.movie_id
    // WHERE t.series_years = <mcv> AND udf(mk.movie_id, mk.keyword_id) <= L
    let series_mcv = db
        .stats("title")
        .unwrap()
        .column("series_years")
        .unwrap()
        .mcv
        .first()
        .map(|(v, _)| v.clone())
        .unwrap_or(Value::Text("1987-1997".into()));
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
        filters: vec![Pred::new("title", "series_years", CmpOp::Eq, series_mcv)],
        udf: Some(udf),
        udf_usage: UdfUsage::Filter,
        udf_filter_op: CmpOp::Le,
        udf_filter_literal: 26026.0,
        target_udf_selectivity: 0.6,
        agg: AggFunc::CountStar,
        agg_col: None,
    };
    let exec = session.executor(&db);
    let mut pd = build_plan(&spec, UdfPlacement::PushDown).unwrap();
    let mut pu = build_plan(&spec, UdfPlacement::PullUp).unwrap();
    let pd_run = exec.run_and_annotate(&mut pd, 1).unwrap();
    let pu_run = exec.run_and_annotate(&mut pu, 1).unwrap();
    println!("--- push-down plan (DBMS default) ---");
    println!("{}", pd.explain());
    println!(
        "runtime: {:.4}s (UDF applied to {} rows)\n",
        pd_run.runtime_s(),
        pd_run.udf_input_rows
    );
    println!("--- pull-up plan ---");
    println!("{}", pu.explain());
    println!(
        "runtime: {:.4}s (UDF applied to {} rows)\n",
        pu_run.runtime_s(),
        pu_run.udf_input_rows
    );
    let speedup = pd_run.runtime_ns / pu_run.runtime_ns;
    println!("pull-up speedup: {speedup:.1}x (paper's example: 21.86s -> 0.48s ≈ 45x)\n");

    // Let a quickly trained advisor decide (trained on two other datasets).
    let train_cfg = ScaleConfig {
        data_scale: (cfg.data_scale * 0.5).max(0.02),
        queries_per_db: cfg.queries_per_db.min(40),
        epochs: cfg.epochs.min(12),
        hidden: cfg.hidden.min(24),
        ..cfg
    };
    let train = vec![
        build_corpus_in(&session, "tpc_h", &train_cfg, 3).unwrap(),
        build_corpus_in(&session, "ssb", &train_cfg, 4).unwrap(),
    ];
    let model = train_graceful(&session, &train, &train_cfg, Featurizer::full())
        .expect("the advisor's model trains");
    let est = ActualCard::new(&db);
    let advisor = PullUpAdvisor::new(&model);
    let decision = advisor
        .decide(&db, &spec, &est as &dyn CardEstimator, Strategy::AreaUnderCurve, None)
        .expect("advisor decides");
    println!(
        "GRACEFUL advisor (AuC): {}",
        if decision.pull_up { "Pull-Up!" } else { "keep push-down" }
    );
    println!("cost curves (selectivity -> predicted cost):");
    for ((s, up), (_, down)) in decision.pullup_costs.iter().zip(&decision.pushdown_costs) {
        println!("  sel {s:.1}: pull-up {up:>14.0} ns   push-down {down:>14.0} ns");
    }
    let correct = decision.pull_up == (pu_run.runtime_ns < pd_run.runtime_ns);
    println!("\ndecision matches ground truth: {correct}");
}
