//! Exp 4 / **Figure 7** — feature ablation with actual cardinalities,
//! evaluated on the held-out `genome` dataset:
//!
//! (1) RET node only → (2) + LOOP/COMP/BRANCH/INV → (3) + on-udf filter flag
//! → (4) + LOOP_END → (5) + residual LOOP edge.

use graceful_bench::{announce, corpora, fmt_q, rule};
use graceful_core::corpus::DatasetCorpus;
use graceful_core::experiments::{evaluate_model, summarize, EstimatorKind};
use graceful_core::featurize::Featurizer;
use graceful_core::model::TrainOptions;
use graceful_core::GracefulModel;

const LABELS: [&str; 5] = [
    "(1) RET nodes only",
    "(2) + LOOP, COMP, BRANCH, INV",
    "(3) + FILTER on-udf feature",
    "(4) + LOOP_END",
    "(5) + residual LOOP edge",
];

fn main() {
    let (session, cfg) =
        announce("Exp 4 / Figure 7: feature ablation (actual cards, genome held out)");
    let all = corpora(&session, &cfg);
    let genome_idx = all.iter().position(|c| c.name == "genome").expect("genome exists");
    let train: Vec<&DatasetCorpus> =
        all.iter().enumerate().filter(|(i, _)| *i != genome_idx).map(|(_, c)| c).collect();
    let test = &all[genome_idx];

    println!("{:<32} | {:^22}", "variant", "Q-error (med/p95/p99)");
    rule(60);
    let mut medians = Vec::new();
    for level in 1..=5u8 {
        let featurizer = Featurizer::level(level).expect("levels 1..=5 exist");
        let mut model =
            GracefulModel::new(featurizer, cfg.hidden, cfg.seed).expect("valid GNN architecture");
        model
            .train(
                &train,
                &TrainOptions::new()
                    .epochs(cfg.epochs)
                    .seed(cfg.seed)
                    .build_with_env()
                    .expect("invalid GRACEFUL_* configuration"),
            )
            .expect("training succeeds");
        let recs = evaluate_model(&model, test, EstimatorKind::Actual, 1);
        let s = summarize(&recs, |r| r.has_udf);
        medians.push(s.median);
        println!("{:<32} | {}", LABELS[(level - 1) as usize], fmt_q(&s));
    }
    rule(60);
    println!(
        "\npaper shape check: median error decreases monotonically from (1) {:.2} to (5) {:.2} \
         (paper: 2.05 -> 1.13)",
        medians[0], medians[4]
    );
}
