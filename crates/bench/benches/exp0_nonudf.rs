//! Section VI setup claim — accuracy on **non-UDF queries**: the paper
//! reports a median Q-error of 1.21 and p95 of 2.02 when <10% non-UDF
//! queries are mixed into training.

use graceful_bench::{announce, corpora, fmt_q, rule};
use graceful_core::experiments::{cross_validate, evaluate_model, summarize, EstimatorKind};
use graceful_core::featurize::Featurizer;

fn main() {
    let (session, cfg) = announce("Exp 0: accuracy on non-UDF queries (Section VI setup)");
    let all = corpora(&session, &cfg);
    let folds =
        cross_validate(&session, &all, &cfg, Featurizer::full()).expect("cross-validation trains");
    let mut recs = Vec::new();
    for fold in &folds {
        for &t in &fold.test_indices {
            recs.extend(evaluate_model(&fold.model, &all[t], EstimatorKind::Actual, 2));
        }
    }
    let non_udf = summarize(&recs, |r| !r.has_udf);
    let udf = summarize(&recs, |r| r.has_udf);
    println!("{:<24} | {:^22}", "query class", "Q-error (med/p95/p99)");
    rule(52);
    println!("{:<24} | {}", format!("non-UDF (n={})", non_udf.count), fmt_q(&non_udf));
    println!("{:<24} | {}", format!("UDF (n={})", udf.count), fmt_q(&udf));
    rule(52);
    println!("\npaper reference: non-UDF median 1.21 / p95 2.02");
}
