//! Exp 3 / **Table IV** — graph-based vs flat UDF representation on a
//! select-only workload (`SELECT udf(col) FROM table WHERE filter`), where
//! UDF cost dominates and representation quality is isolated.

use graceful_bench::{announce, fmt_q, rule};
use graceful_core::baselines::FlatGraphBaseline;
use graceful_core::corpus::{build_corpus_with_in, DatasetCorpus};
use graceful_core::experiments::{evaluate_flat, evaluate_model, summarize, EstimatorKind};
use graceful_core::featurize::Featurizer;
use graceful_plan::{QueryGenConfig, QueryGenerator};
use graceful_storage::datagen::DATASET_NAMES;
use graceful_udf::UdfGenerator;

fn select_only_generator() -> QueryGenerator {
    QueryGenerator::new(
        QueryGenConfig {
            join_weights: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], // no joins
            udf_prob: 1.0,
            udf_filter_prob: 0.6,
            max_filters_per_table: 2,
            ..QueryGenConfig::default()
        },
        UdfGenerator::default(),
    )
}

fn main() {
    let (session, cfg) =
        announce("Exp 3 / Table IV: UDF representations on a select-only workload");
    // Build select-only corpora for all datasets.
    let mut corpora: Vec<DatasetCorpus> = Vec::new();
    for (i, name) in DATASET_NAMES.iter().enumerate() {
        let seed = cfg.seed.wrapping_add(i as u64 * 37);
        corpora.push(
            build_corpus_with_in(&session, name, &cfg, seed, select_only_generator())
                .expect("select-only corpus builds"),
        );
    }
    let n: usize = corpora.iter().map(|c| c.queries.len()).sum();
    println!("built {n} select-only queries over {} datasets\n", corpora.len());
    // Train on all but the last dataset; test zero-shot on the held-out one
    // (rotating over `folds` held-out datasets).
    let hold_outs = cfg.folds.clamp(1, corpora.len());
    let mut g_actual = Vec::new();
    let mut g_deepdb = Vec::new();
    let mut f_actual = Vec::new();
    let mut f_deepdb = Vec::new();
    for h in 0..hold_outs {
        let test_idx = corpora.len() - 1 - h;
        let train_refs: Vec<&DatasetCorpus> =
            corpora.iter().enumerate().filter(|(i, _)| *i != test_idx).map(|(_, c)| c).collect();
        let mut model =
            graceful_core::GracefulModel::new(Featurizer::full(), cfg.hidden, cfg.seed + h as u64)
                .expect("valid GNN architecture");
        model
            .train(
                &train_refs,
                &graceful_core::model::TrainOptions::new()
                    .epochs(cfg.epochs)
                    .seed(cfg.seed)
                    .build_with_env()
                    .expect("invalid GRACEFUL_* configuration"),
            )
            .expect("training succeeds");
        let flat = FlatGraphBaseline::train(&train_refs, cfg.epochs, cfg.hidden, cfg.seed + 5)
            .expect("flat baseline trains");
        let test = &corpora[test_idx];
        g_actual.extend(evaluate_model(&model, test, EstimatorKind::Actual, 1));
        g_deepdb.extend(evaluate_model(&model, test, EstimatorKind::DataDriven, 1));
        f_actual.extend(evaluate_flat(&flat, test, EstimatorKind::Actual, 1));
        f_deepdb.extend(evaluate_flat(&flat, test, EstimatorKind::DataDriven, 1));
    }

    println!("{:<12} {:<14} | {:^22}", "Model", "Card. Est.", "Q-error (med/p95/p99)");
    rule(54);
    println!(
        "{:<12} {:<14} | {}",
        "GRACEFUL",
        "Actual",
        fmt_q(&summarize(&g_actual, |r| r.has_udf))
    );
    println!(
        "{:<12} {:<14} | {}",
        "GRACEFUL",
        "DeepDB-like",
        fmt_q(&summarize(&g_deepdb, |r| r.has_udf))
    );
    println!(
        "{:<12} {:<14} | {}",
        "FlatVector",
        "Actual",
        fmt_q(&summarize(&f_actual, |r| r.has_udf))
    );
    println!(
        "{:<12} {:<14} | {}",
        "FlatVector",
        "DeepDB-like",
        fmt_q(&summarize(&f_deepdb, |r| r.has_udf))
    );
    rule(54);
    println!(
        "\npaper shape reference: in the paper GRACEFUL (1.29/1.37) beats FlatVector \
         (1.89/2.01) under actual/DeepDB cards. At this reduced corpus size the GBDT-based \
         FlatVector is more sample-efficient and can lead; the gap closes as \
         GRACEFUL_QUERIES_PER_DB and GRACEFUL_EPOCHS grow."
    );
}
