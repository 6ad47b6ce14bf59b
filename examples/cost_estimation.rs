//! Zero-shot cost estimation across databases — a miniature Exp 1.
//!
//! Trains on three databases and predicts runtimes on a fourth, unseen one,
//! under all four cardinality-annotation methods.
//!
//! ```sh
//! cargo run --release --example cost_estimation
//! ```

use graceful::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::from_env()?;
    let cfg = ScaleConfig {
        data_scale: 0.08,
        queries_per_db: 50,
        epochs: 14,
        hidden: 24,
        ..ScaleConfig::default()
    };
    println!("building corpora (train: tpc_h, ssb, movielens; test: airline)...");
    let train = vec![
        build_corpus_in(&session, "tpc_h", &cfg, 1)?,
        build_corpus_in(&session, "ssb", &cfg, 2)?,
        build_corpus_in(&session, "movielens", &cfg, 3)?,
    ];
    let test = build_corpus_in(&session, "airline", &cfg, 4)?;
    let n_train: usize = train.iter().map(|c| c.queries.len()).sum();
    println!("training GRACEFUL on {n_train} queries...");
    let model = train_graceful(&session, &train, &cfg, Featurizer::full())?;

    println!("\nzero-shot Q-errors on `airline` ({} queries):", test.queries.len());
    println!("{:<18} {:>8} {:>8} {:>8}", "card. estimator", "median", "p95", "p99");
    for kind in EstimatorKind::ALL {
        let recs = evaluate_model(&model, &test, kind, 11);
        let s = summarize(&recs, |r| r.has_udf);
        println!("{:<18} {:>8.2} {:>8.2} {:>8.2}", kind.label(), s.median, s.p95, s.p99);
    }
    println!("\n(expect the Actual row to be the best and DuckDB-like the worst —");
    println!(" the model is robust to small estimation errors, not to naive ones)");
    Ok(())
}
