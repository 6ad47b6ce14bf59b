//! Exp 5 / **Figure 8** — pull-up advisor speedups per dataset:
//! the no-pull-up baseline (1.0), the optimum, GRACEFUL with actual
//! cardinalities (Cost) and the three distribution strategies with
//! DeepDB-like cardinalities.

use graceful_bench::{announce, corpora, rule};
use graceful_core::advisor::Strategy;
use graceful_core::experiments::{
    cross_validate, run_advisor_in, summarize_advisor, EstimatorKind,
};
use graceful_core::featurize::Featurizer;

fn main() {
    let (session, cfg) = announce("Exp 5 / Figure 8: advisor speedups per dataset");
    let all = corpora(&session, &cfg);
    let folds =
        cross_validate(&session, &all, &cfg, Featurizer::full()).expect("cross-validation trains");
    let per_db = (cfg.queries_per_db / 2).clamp(8, 500);

    println!(
        "{:<12} | {:>8} | {:>12} | {:>14} | {:>12} | {:>12}",
        "dataset", "Optimum", "Cost/Actual", "Conservative", "AuC", "UBC"
    );
    rule(90);
    for fold in &folds {
        for &t in &fold.test_indices {
            let corpus = &all[t];
            let cost = summarize_advisor(&run_advisor_in(
                &session,
                &fold.model,
                corpus,
                EstimatorKind::Actual,
                Strategy::Cost,
                1,
                per_db,
            ));
            let cons = summarize_advisor(&run_advisor_in(
                &session,
                &fold.model,
                corpus,
                EstimatorKind::DataDriven,
                Strategy::Conservative,
                1,
                per_db,
            ));
            let auc = summarize_advisor(&run_advisor_in(
                &session,
                &fold.model,
                corpus,
                EstimatorKind::DataDriven,
                Strategy::AreaUnderCurve,
                1,
                per_db,
            ));
            let ubc = summarize_advisor(&run_advisor_in(
                &session,
                &fold.model,
                corpus,
                EstimatorKind::DataDriven,
                Strategy::UpperBoundCardinality,
                1,
                per_db,
            ));
            if cost.n == 0 {
                println!("{:<12} | (no advisable queries at this scale)", corpus.name);
                continue;
            }
            let optimum = cost.total_pushdown_ns / cost.total_optimal_ns.max(1e-9);
            println!(
                "{:<12} | {:>8.3} | {:>12.3} | {:>14.3} | {:>12.3} | {:>12.3}",
                corpus.name,
                optimum,
                cost.total_speedup,
                cons.total_speedup,
                auc.total_speedup,
                ubc.total_speedup
            );
        }
    }
    rule(90);
    println!(
        "\npaper shape check: advisor speedups track the optimum on most datasets; \
         airline/baseball are the weakest (limited potential / card-est errors); \
         speedup 1.0 = always-push-down baseline"
    );
}
