//! Shared plumbing for the experiment bench targets.
//!
//! Every paper table/figure has its own `harness = false` bench target, so
//! `cargo bench --workspace` regenerates the whole evaluation as text. All
//! targets scale with the `GRACEFUL_*` environment variables (see
//! `graceful-common::config`); the defaults finish in minutes, while
//! `GRACEFUL_FOLDS=20 GRACEFUL_QUERIES_PER_DB=4000 GRACEFUL_SCALE=10`
//! approaches the paper's full setup.

#![forbid(unsafe_code)]

use graceful_common::config::ScaleConfig;
use graceful_common::metrics::QErrorSummary;
use graceful_core::corpus::{build_all_corpora_in, DatasetCorpus};
use graceful_exec::Session;
use std::time::Instant;

/// Resolve the engine session and the experiment scale from the environment
/// — once, here, for everything the target runs — and echo the scale. An
/// invalid `GRACEFUL_*` value ends the bench: the message on stderr, a
/// non-zero exit.
pub fn announce(experiment: &str) -> (Session, ScaleConfig) {
    let fail = |e: String| -> ! {
        eprintln!("{experiment}: {e}");
        std::process::exit(2)
    };
    let session = Session::from_env().unwrap_or_else(|e| fail(e.to_string()));
    let cfg = ScaleConfig::try_from_env().unwrap_or_else(|e| fail(e));
    println!("=== {experiment} ===");
    println!(
        "scale: data x{:.2}, {} queries/db, {} folds, {} epochs, hidden {}, seed {}",
        cfg.data_scale, cfg.queries_per_db, cfg.folds, cfg.epochs, cfg.hidden, cfg.seed
    );
    println!(
        "(set GRACEFUL_FOLDS=20 / GRACEFUL_QUERIES_PER_DB / GRACEFUL_SCALE for paper scale)\n"
    );
    (session, cfg)
}

/// Build (and time) the 20-database corpus.
pub fn corpora(session: &Session, cfg: &ScaleConfig) -> Vec<DatasetCorpus> {
    let started = Instant::now();
    let corpora = build_all_corpora_in(session, cfg);
    let n: usize = corpora.iter().map(|c| c.queries.len()).sum();
    println!(
        "built {} corpora / {} labelled queries in {:.1}s\n",
        corpora.len(),
        n,
        started.elapsed().as_secs_f64()
    );
    corpora
}

/// Format a Q-error summary as "med / p95 / p99" table cells.
pub fn fmt_q(s: &QErrorSummary) -> String {
    if s.count == 0 {
        return "    -      -      -".to_string();
    }
    format!("{:>6.2} {:>7.2} {:>7.2}", s.median, s.p95, s.p99)
}

/// Simple fixed-width header printer.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}
