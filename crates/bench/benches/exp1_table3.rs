//! Exp 1 / **Table III** — cost-estimation Q-errors across unseen databases,
//! by cardinality-annotation method and UDF position, plus the Flat+Graph
//! and Graph+Graph baselines and the top-node cardinality estimation error.

use graceful_bench::{announce, corpora, fmt_q, rule};
use graceful_common::metrics::{percentile, QErrorSummary};
use graceful_core::baselines::{FlatGraphBaseline, GraphGraphBaseline};
use graceful_core::corpus::DatasetCorpus;
use graceful_core::experiments::{
    cross_validate, evaluate_flat, evaluate_graphgraph, evaluate_model, summarize, EstimatorKind,
    EvalRecord,
};
use graceful_core::featurize::Featurizer;

fn row(label: &str, card: &str, recs: &[EvalRecord]) {
    let overall = summarize(recs, |r| r.has_udf);
    let pull = summarize(recs, |r| r.has_udf && r.position == "Pull-Up");
    let inter = summarize(recs, |r| r.has_udf && r.position == "Intermediate");
    let push = summarize(recs, |r| r.has_udf && r.position == "Push-Down");
    let cards: Vec<f64> = recs.iter().filter(|r| r.has_udf).map(|r| r.card_q_top).collect();
    let card_str = if cards.is_empty() {
        "     -       -".to_string()
    } else {
        format!("{:>6.2} {:>7.2}", percentile(&cards, 0.5), percentile(&cards, 0.95))
    };
    println!(
        "{label:<13} {card:<16} | {} | {} | {} | {} | {card_str}",
        fmt_q(&overall),
        fmt_q(&pull),
        fmt_q(&inter),
        fmt_q(&push)
    );
}

fn main() {
    let (session, cfg) = announce("Exp 1 / Table III: Q-errors across unseen databases");
    let all = corpora(&session, &cfg);
    let folds =
        cross_validate(&session, &all, &cfg, Featurizer::full()).expect("cross-validation trains");

    // Collect records per (model/baseline, estimator) across folds.
    let kinds = EstimatorKind::ALL;
    let mut graceful_recs: Vec<Vec<EvalRecord>> = vec![Vec::new(); kinds.len()];
    let mut flat_recs: Vec<EvalRecord> = Vec::new();
    let mut gg_recs: Vec<EvalRecord> = Vec::new();
    for (f, fold) in folds.iter().enumerate() {
        // Train the split baselines on the same training partition.
        let train: Vec<&DatasetCorpus> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| !fold.test_indices.contains(i))
            .map(|(_, c)| c)
            .collect();
        let train_ref: Vec<&DatasetCorpus> =
            if train.is_empty() { all.iter().collect() } else { train };
        let flat = FlatGraphBaseline::train(&train_ref, cfg.epochs, cfg.hidden, cfg.seed + 51)
            .expect("flat baseline trains");
        let gg = GraphGraphBaseline::train(&train_ref, cfg.epochs, cfg.hidden, cfg.seed + 52)
            .expect("graph+graph baseline trains");
        for &t in &fold.test_indices {
            for (k, kind) in kinds.iter().enumerate() {
                graceful_recs[k].extend(evaluate_model(&fold.model, &all[t], *kind, f as u64));
            }
            flat_recs.extend(evaluate_flat(&flat, &all[t], EstimatorKind::Actual, f as u64));
            gg_recs.extend(evaluate_graphgraph(&gg, &all[t], EstimatorKind::Actual, f as u64));
        }
    }

    println!(
        "{:<13} {:<16} | {:^22} | {:^22} | {:^22} | {:^22} | {:^14}",
        "Model",
        "Card. Est.",
        "Overall (med/p95/p99)",
        "Pull-Up",
        "Intermediate",
        "Push-Down",
        "CardEst err"
    );
    rule(150);
    row("GRACEFUL", "Actual", &graceful_recs[0]);
    row("Flat+Graph", "Actual", &flat_recs);
    row("Graph+Graph", "Actual", &gg_recs);
    row("GRACEFUL", "DeepDB-like", &graceful_recs[1]);
    row("GRACEFUL", "WanderJoin-like", &graceful_recs[2]);
    row("GRACEFUL", "DuckDB-like", &graceful_recs[3]);
    rule(150);
    println!(
        "\nmeasured medians: GRACEFUL(Actual) {:.2}, Flat+Graph {:.2}, Graph+Graph {:.2}.",
        summarize(&graceful_recs[0], |r| r.has_udf).median,
        summarize(&flat_recs, |r| r.has_udf).median,
        summarize(&gg_recs, |r| r.has_udf).median,
    );
    println!(
        "paper shape checks: (a) estimated-card medians and tails degrade monotonically \
         Actual -> DeepDB-like -> WanderJoin-like -> DuckDB-like, with DuckDB-like's top-node \
         card error exploding; (b) GRACEFUL(Actual) <= Graph+Graph. \
         NOTE: at the default reduced corpus (~10^3 queries vs the paper's ~10^5) the GBDT-based \
         Flat+Graph is more sample-efficient than any GNN and can lead overall — raise \
         GRACEFUL_QUERIES_PER_DB/GRACEFUL_EPOCHS to recover the paper's ordering."
    );
    let _ = QErrorSummary::average; // silence potential unused warnings at tiny scales
}
