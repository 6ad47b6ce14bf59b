//! Exp 5 / **Table V** — selection-strategy analysis over all datasets:
//! total runtime, total/median speedup, false positives, FP impact, and
//! optimization overhead, for Optimal / Cost(actual) / Conservative / AuC /
//! UBC / No-Pull-Up.

use graceful_bench::{announce, corpora, rule};
use graceful_core::advisor::Strategy;
use graceful_core::experiments::{
    cross_validate, run_advisor_in, summarize_advisor, AdvisorOutcome, EstimatorKind,
};
use graceful_core::featurize::Featurizer;

fn main() {
    let (session, cfg) = announce("Exp 5 / Table V: advisor strategies over all datasets");
    let all = corpora(&session, &cfg);
    let folds =
        cross_validate(&session, &all, &cfg, Featurizer::full()).expect("cross-validation trains");
    let per_db = (cfg.queries_per_db / 2).clamp(8, 500);

    let configs: [(&str, EstimatorKind, Strategy); 4] = [
        ("GRACEFUL (Cost)", EstimatorKind::Actual, Strategy::Cost),
        ("GRACEFUL (Conservative)", EstimatorKind::DataDriven, Strategy::Conservative),
        ("GRACEFUL (AuC)", EstimatorKind::DataDriven, Strategy::AreaUnderCurve),
        ("GRACEFUL (UBC)", EstimatorKind::DataDriven, Strategy::UpperBoundCardinality),
    ];
    let mut rows: Vec<(String, Vec<AdvisorOutcome>)> = Vec::new();
    for (label, kind, strat) in configs {
        let mut outcomes = Vec::new();
        for fold in &folds {
            for &t in &fold.test_indices {
                outcomes.extend(run_advisor_in(
                    &session,
                    &fold.model,
                    &all[t],
                    kind,
                    strat,
                    1,
                    per_db,
                ));
            }
        }
        rows.push((label.to_string(), outcomes));
    }

    println!(
        "{:<26} | {:>12} | {:>12} | {:>12} | {:>8} | {:>10} | {:>10}",
        "strategy", "runtime (s)", "tot speedup", "med speedup", "FP rate", "FP impact", "overhead"
    );
    rule(110);
    // Optimal and No-Pull-Up derive from any outcome set (ground truths are
    // identical across strategies).
    let base = &rows[0].1;
    let opt_total: f64 = base.iter().map(|o| o.optimal_ns()).sum();
    let pd_total: f64 = base.iter().map(|o| o.pushdown_ns).sum();
    println!(
        "{:<26} | {:>12.3} | {:>12.3} | {:>12} | {:>8} | {:>10} | {:>10}",
        "Optimal",
        opt_total * 1e-9,
        pd_total / opt_total.max(1e-9),
        "-",
        "-",
        "-",
        "-"
    );
    for (label, outcomes) in &rows {
        let s = summarize_advisor(outcomes);
        println!(
            "{:<26} | {:>12.3} | {:>12.3} | {:>12.3} | {:>7.1}% | {:>9.1}% | {:>9.2}%",
            label,
            s.total_chosen_ns * 1e-9,
            s.total_speedup,
            s.median_speedup,
            s.false_positive_rate * 100.0,
            s.fp_impact * 100.0,
            s.overhead_fraction * 100.0
        );
    }
    println!(
        "{:<26} | {:>12.3} | {:>12.3} | {:>12.3} | {:>7.1}% | {:>9.1}% | {:>10}",
        "No Pull-Up (default)",
        pd_total * 1e-9,
        1.0,
        1.0,
        0.0,
        0.0,
        "-"
    );
    rule(110);
    println!(
        "\npaper shape check: Cost(actual) approaches Optimal; Conservative has the fewest \
         regressions among estimated-card strategies; UBC is the most aggressive \
         (highest FP impact); No-Pull-Up is the slowest overall"
    );
}
