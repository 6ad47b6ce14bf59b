//! Exp 2 / **Figure 6** — Q-error robustness across UDF complexity:
//! (A) graph size (COMP-node count), (B) number of branches, (C) number of
//! loops; GRACEFUL with actual vs DeepDB-like cardinalities.

use graceful_bench::{announce, corpora, fmt_q, rule};
use graceful_core::experiments::{cross_validate, evaluate_model, summarize, EstimatorKind};
use graceful_core::featurize::Featurizer;

const SIZE_BINS: [(usize, usize, &str); 5] =
    [(0, 6, "0-6"), (6, 12, "6-12"), (12, 24, "12-24"), (24, 40, "24-40"), (40, 100, "40-100")];

fn main() {
    let (session, cfg) = announce("Exp 2 / Figure 6: robustness across UDF complexities");
    let all = corpora(&session, &cfg);
    let folds =
        cross_validate(&session, &all, &cfg, Featurizer::full()).expect("cross-validation trains");
    let mut actual = Vec::new();
    let mut deepdb = Vec::new();
    for fold in &folds {
        for &t in &fold.test_indices {
            actual.extend(evaluate_model(&fold.model, &all[t], EstimatorKind::Actual, 3));
            deepdb.extend(evaluate_model(&fold.model, &all[t], EstimatorKind::DataDriven, 3));
        }
    }

    // (A) graph size.
    println!("\n(A) Graph size (number of COMP nodes)");
    println!("{:<10} | {:^22} | {:^22}", "bin", "Actual (med/p95/p99)", "DeepDB-like");
    rule(62);
    for (lo, hi, label) in SIZE_BINS {
        let a = summarize(&actual, |r| r.has_udf && r.comp_nodes >= lo && r.comp_nodes < hi);
        let d = summarize(&deepdb, |r| r.has_udf && r.comp_nodes >= lo && r.comp_nodes < hi);
        println!("{label:<10} | {} | {}", fmt_q(&a), fmt_q(&d));
    }

    // (B) branches, (C) loops.
    let branch_bins: Vec<(String, usize)> = (0..=3).map(|b| (b.to_string(), b)).collect();
    println!("\n(B) Number of branches");
    println!("{:<10} | {:^22} | {:^22}", "branches", "Actual (med/p95/p99)", "DeepDB-like");
    rule(62);
    for (label, b) in &branch_bins {
        let a = summarize(&actual, |r| r.has_udf && r.branches == *b);
        let d = summarize(&deepdb, |r| r.has_udf && r.branches == *b);
        println!("{label:<10} | {} | {}", fmt_q(&a), fmt_q(&d));
    }
    println!("\n(C) Number of loops");
    println!("{:<10} | {:^22} | {:^22}", "loops", "Actual (med/p95/p99)", "DeepDB-like");
    rule(62);
    for (label, b) in &branch_bins {
        let a = summarize(&actual, |r| r.has_udf && r.loops == *b);
        let d = summarize(&deepdb, |r| r.has_udf && r.loops == *b);
        println!("{label:<10} | {} | {}", fmt_q(&a), fmt_q(&d));
    }
    println!(
        "\npaper shape check: Actual-card medians stay flat across bins; DeepDB-like errors \
         grow with branch count (hit-ratio estimation gets harder)"
    );
}
