//! Exp 1 / **Figure 5** — per-dataset Q-errors (median / p95 / p99) under the
//! four cardinality annotation methods, every dataset evaluated zero-shot.

use graceful_bench::{announce, corpora, rule};
use graceful_core::experiments::{cross_validate, evaluate_model, summarize, EstimatorKind};
use graceful_core::featurize::Featurizer;

fn main() {
    let (session, cfg) =
        announce("Exp 1 / Figure 5: per-dataset Q-errors (leave-out cross-validation)");
    let all = corpora(&session, &cfg);
    let folds =
        cross_validate(&session, &all, &cfg, Featurizer::full()).expect("cross-validation trains");

    println!(
        "{:<12} | {:^24} | {:^24} | {:^24} | {:^24}",
        "dataset", "Actual (med/p95/p99)", "DeepDB-like", "WanderJoin-like", "DuckDB-like"
    );
    rule(124);
    let mut per_kind_medians = vec![Vec::new(); EstimatorKind::ALL.len()];
    for fold in &folds {
        for &t in &fold.test_indices {
            let mut cells = Vec::new();
            for (k, kind) in EstimatorKind::ALL.iter().enumerate() {
                let recs = evaluate_model(&fold.model, &all[t], *kind, 7);
                let s = summarize(&recs, |r| r.has_udf);
                per_kind_medians[k].push(s.median);
                cells.push(graceful_bench::fmt_q(&s));
            }
            println!(
                "{:<12} | {} | {} | {} | {}",
                all[t].name, cells[0], cells[1], cells[2], cells[3]
            );
        }
    }
    rule(124);
    for (k, kind) in EstimatorKind::ALL.iter().enumerate() {
        let meds = &per_kind_medians[k];
        let avg = meds.iter().sum::<f64>() / meds.len().max(1) as f64;
        println!("{:<18} mean-of-medians {:.2}", kind.label(), avg);
    }
    println!(
        "\npaper shape check: medians below ~1.5 for Actual/DeepDB-like on most datasets; \
         airline/baseball are the hardest with estimated cards"
    );
}
