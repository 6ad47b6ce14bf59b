//! The paper's claims, computed once and asserted.
//!
//! [`claims`] runs the whole evaluation of GRACEFUL over the 20 generated
//! databases — one cross-validation, the two baselines per fold, the
//! cardinality-estimator ladder, the featurizer ablation, the pull-up
//! advisor and the benchmark statistics — and prints one line per table row,
//! with Table III's per-position columns, Fig. 6's complexity bins and
//! Fig. 8's per-database speed-ups (`--nocapture` shows them), then the
//! [`known_gaps`]: the paper's orderings that do not hold.
//! `paper_claims_hold_at_the_test_tier` asserts each ordering of the paper
//! that holds at a test-sized tier. `cross_validate` is pool-size
//! independent, so every `GRACEFUL_THREADS` sees the same numbers.
//!
//! The same computation at the scale the `GRACEFUL_*` knobs set, printed and
//! not asserted (`GRACEFUL_FOLDS=20` is the paper's leave-one-out):
//!
//! ```sh
//! GRACEFUL_FOLDS=20 GRACEFUL_QUERIES_PER_DB=4000 GRACEFUL_SCALE=10 \
//!     cargo test --release --test paper_claims -- --ignored --nocapture
//! ```

use graceful::common::metrics::percentile;
use graceful::core_model::baselines::{FlatGraphBaseline, GraphGraphBaseline};
use graceful::core_model::corpus::{benchmark_stats, BenchmarkStats};
use graceful::core_model::experiments::{
    evaluate_flat, evaluate_graphgraph, run_advisor_in, summarize_advisor, AdvisorSummary,
    EvalRecord,
};
use graceful::prelude::*;

/// Labels of the ablation levels of Fig. 7.
const LEVELS: [&str; 5] = [
    "(1) RET nodes only",
    "(2) + LOOP, COMP, BRANCH, INV",
    "(3) + FILTER on-udf feature",
    "(4) + LOOP_END",
    "(5) + residual LOOP edge",
];

/// Fig. 6 (A): bins of the UDF graph's COMP-node count, `lo..hi`.
const SIZE_BINS: [(usize, usize); 5] = [(0, 6), (6, 12), (12, 24), (24, 40), (40, 100)];

/// Every record and summary the tables print and the assertions read.
struct Claims {
    /// Table III / Fig. 6: GRACEFUL's records under each of
    /// `EstimatorKind::ALL`, over the held-out databases of every fold.
    ladder: [Vec<EvalRecord>; 4],
    /// Table III: the baselines' records, under actual cardinalities.
    flat: Vec<EvalRecord>,
    graph_graph: Vec<EvalRecord>,
    /// Fig. 7: levels 1..=5, `genome` held out.
    levels: [QErrorSummary; 5],
    /// Table V: the Cost strategy with actual cardinalities.
    advisor: AdvisorSummary,
    /// Fig. 8: the same, per held-out database.
    per_dataset: Vec<(String, AdvisorSummary)>,
    /// Table II.
    stats: BenchmarkStats,
}

fn udf(records: &[EvalRecord]) -> QErrorSummary {
    summarize(records, |r| r.has_udf)
}

/// Median, p95 and p99, or dashes for an empty bin.
fn q(s: &QErrorSummary) -> String {
    if s.count == 0 {
        return format!("{:>24}", "-");
    }
    format!("{:>7.3} {:>8.3} {:>7.3}", s.median, s.p95, s.p99)
}

/// The whole evaluation, once: corpora, cross-validation, baselines,
/// estimator ladder, ablation, advisor and benchmark statistics.
fn claims(session: &Session, cfg: &ScaleConfig) -> Claims {
    let all = build_all_corpora_in(session, cfg);
    let folds = cross_validate(session, &all, cfg, Featurizer::full()).expect("folds train");
    let mut ladder: [Vec<EvalRecord>; 4] = Default::default();
    let (mut flat, mut graph_graph, mut advised) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_dataset = Vec::new();
    let (actual, cost) = (EstimatorKind::Actual, Strategy::Cost);
    let per_db = (cfg.queries_per_db / 2).clamp(8, 500);
    for (f, fold) in folds.iter().enumerate() {
        // One fold has no training partner; `cross_validate` then trains on
        // every corpus, and so do the baselines.
        let held_out = |i: &usize| folds.len() > 1 && fold.test_indices.contains(i);
        let train: Vec<&DatasetCorpus> =
            all.iter().enumerate().filter(|(i, _)| !held_out(i)).map(|(_, c)| c).collect();
        let flat_model = FlatGraphBaseline::train(&train, cfg.epochs, cfg.hidden, cfg.seed + 51)
            .expect("Flat+Graph trains");
        let gg_model = GraphGraphBaseline::train(&train, cfg.epochs, cfg.hidden, cfg.seed + 52)
            .expect("Graph+Graph trains");
        let seed = f as u64;
        for corpus in fold.test_indices.iter().map(|&t| &all[t]) {
            for (records, kind) in ladder.iter_mut().zip(EstimatorKind::ALL) {
                records.extend(evaluate_model(&fold.model, corpus, kind, seed));
            }
            flat.extend(evaluate_flat(&flat_model, corpus, actual, seed));
            graph_graph.extend(evaluate_graphgraph(&gg_model, corpus, actual, seed));
            let outcomes = run_advisor_in(session, &fold.model, corpus, actual, cost, 1, per_db);
            per_dataset.push((corpus.name.clone(), summarize_advisor(&outcomes)));
            advised.extend(outcomes);
        }
    }

    let genome = all.iter().position(|c| c.name == "genome").expect("genome is a dataset");
    let train: Vec<&DatasetCorpus> =
        all.iter().enumerate().filter(|&(i, _)| i != genome).map(|(_, c)| c).collect();
    let options = TrainOptions::new().epochs(cfg.epochs).seed(cfg.seed);
    let options = options.threads(session.config().threads).build().expect("valid options");
    let levels = [1, 2, 3, 4, 5].map(|level| {
        let featurizer = Featurizer::level(level).expect("levels 1..=5 exist");
        let mut model = GracefulModel::new(featurizer, cfg.hidden, cfg.seed).expect("valid GNN");
        model.train(&train, &options).expect("ablation level trains");
        udf(&evaluate_model(&model, &all[genome], actual, 1))
    });

    let claims = Claims {
        ladder,
        flat,
        graph_graph,
        levels,
        advisor: summarize_advisor(&advised),
        per_dataset,
        stats: benchmark_stats(&all),
    };
    print_tables(cfg, &claims);
    claims
}

/// One Table III row: UDF queries overall and per UDF position, then the
/// top node's cardinality Q-error (median, p95).
fn table3_row(label: &str, records: &[EvalRecord]) {
    let at = |position| summarize(records, |r| r.has_udf && r.position == position);
    let cards: Vec<f64> = records.iter().filter(|r| r.has_udf).map(|r| r.card_q_top).collect();
    let cards = if cards.is_empty() {
        format!("{:>16}", "-")
    } else {
        format!("{:>7.3} {:>8.3}", percentile(&cards, 0.5), percentile(&cards, 0.95))
    };
    let positions = ["Pull-Up", "Intermediate", "Push-Down"].map(|p| q(&at(p))).join(" |");
    println!("{label:<30}|{} |{positions} |{cards}", q(&udf(records)));
}

/// One Fig. 6 row: UDF queries in a complexity bin, Actual vs DeepDB-like.
fn fig6_row(c: &Claims, label: &str, bin: impl Fn(&EvalRecord) -> bool) {
    let at = |records: &[EvalRecord]| q(&summarize(records, |r| r.has_udf && bin(r)));
    println!("  {label:<10}|{} |{}", at(&c.ladder[0]), at(&c.ladder[1]));
}

/// The paper's orderings that do not hold in `c`, with their numbers.
/// Printed, not asserted: findings, not failures.
fn known_gaps(c: &Claims) -> Vec<String> {
    let mut gaps = Vec::new();
    let (graceful, flat) = (udf(&c.ladder[0]).median, udf(&c.flat).median);
    if flat < graceful {
        gaps.push(format!(
            "Table III: Flat+Graph ({flat:.3}) leads GRACEFUL ({graceful:.3}); \
             the paper has GRACEFUL first"
        ));
    }
    let kinds = EstimatorKind::ALL;
    for i in 1..kinds.len() - 1 {
        let (a, b) = (udf(&c.ladder[i]).median, udf(&c.ladder[i + 1]).median);
        if b < a {
            gaps.push(format!(
                "Table III: {} ({b:.3}) beats {} ({a:.3}); the paper has the ladder the other way",
                kinds[i + 1].label(),
                kinds[i].label()
            ));
        }
    }
    if c.stats.max_branches > 3 {
        let most = c.stats.max_branches;
        gaps.push(format!("Table II: UDFs carry 0-{most} branches; the paper has 0-3"));
    }
    gaps
}

fn print_tables(cfg: &ScaleConfig, c: &Claims) {
    println!(
        "scale {}, {} queries/db, {} folds, {} epochs, hidden {}, seed {}",
        cfg.data_scale, cfg.queries_per_db, cfg.folds, cfg.epochs, cfg.hidden, cfg.seed
    );
    println!("Table III: UDF queries over unseen databases, Q-error median / p95 / p99");
    let header = ["overall", "Pull-Up", "Intermediate", "Push-Down"].map(|h| format!("{h:^24}"));
    println!("{:<30}|{} |{:^16}", "model, cardinalities", header.join(" |"), "top card err");
    for (kind, records) in EstimatorKind::ALL.iter().zip(&c.ladder) {
        table3_row(&format!("GRACEFUL, {}", kind.label()), records);
    }
    table3_row("Flat+Graph, Actual", &c.flat);
    table3_row("Graph+Graph, Actual", &c.graph_graph);
    let non_udf = summarize(&c.ladder[0], |r| !r.has_udf);
    println!("Exp 0: GRACEFUL on non-UDF queries (paper 1.21): {}", q(&non_udf));

    println!("Fig. 6: UDF queries by complexity, Q-error median / p95 / p99");
    println!("{:<12}|{:^24} |{:^24}", "", "Actual", "DeepDB-like");
    println!("(A) COMP nodes");
    for (lo, hi) in SIZE_BINS {
        fig6_row(c, &format!("{lo}-{hi}"), |r| (lo..hi).contains(&r.comp_nodes));
    }
    println!("(B) branches");
    for b in 0..=c.stats.max_branches {
        fig6_row(c, &b.to_string(), |r| r.branches == b);
    }
    println!("(C) loops");
    for l in 0..=c.stats.max_loops {
        fig6_row(c, &l.to_string(), |r| r.loops == l);
    }

    println!("Fig. 7: feature ablation, genome held out (paper 2.05 -> 1.13)");
    for (label, s) in LEVELS.iter().zip(&c.levels) {
        println!("  {label:<32}{}", q(s));
    }

    let optimum = |a: &AdvisorSummary| a.total_pushdown_ns / a.total_optimal_ns.max(1e-9);
    let a = &c.advisor;
    println!(
        "Table V: Cost / Actual over {} queries: total speed-up {:.3} (optimum {:.3}), \
         median {:.3}, false positives {:.1}%",
        a.n,
        a.total_speedup,
        optimum(a),
        a.median_speedup,
        a.false_positive_rate * 100.0
    );
    println!("Fig. 8: total speed-up per unseen database, Cost / Actual (optimum)");
    for (name, a) in &c.per_dataset {
        match a.n {
            0 => println!("  {name:<12} no advisable query"),
            n => println!("  {name:<12} {:>7.3} ({:.3}), {n} queries", a.total_speedup, optimum(a)),
        }
    }

    let BenchmarkStats { n_queries, n_udf_filter, n_udf_projection, n_non_udf, .. } = c.stats;
    let BenchmarkStats { n_databases, max_joins, max_filters, max_branches, .. } = c.stats;
    let BenchmarkStats { max_loops, min_ops, max_ops, total_runtime_hours, .. } = c.stats;
    let seconds = total_runtime_hours * 3600.0;
    println!(
        "Table II: {n_queries} queries ({n_udf_filter} UDF filter, {n_udf_projection} UDF \
         projection, {n_non_udf} non-UDF) over {n_databases} databases, {seconds:.1} s \
         simulated; 0-{max_joins} joins, 0-{max_filters} filters; UDFs: 0-{max_branches} \
         branches, 0-{max_loops} loops, {min_ops}-{max_ops} ops"
    );
    println!("known gaps (not asserted):");
    for gap in known_gaps(c) {
        println!("  {gap}");
    }
}

#[test]
fn paper_claims_hold_at_the_test_tier() {
    let cfg = ScaleConfig {
        data_scale: 0.02,
        queries_per_db: 14,
        epochs: 8,
        hidden: 12,
        folds: 2,
        ..ScaleConfig::default()
    };
    let session = Session::from_env().expect("a valid GRACEFUL_* environment");
    let c = claims(&session, &cfg);

    let ladder = c.ladder.each_ref().map(|records| udf(records).median);
    let (graceful, graph_graph) = (ladder[0], udf(&c.graph_graph).median);
    assert!(
        graceful < graph_graph,
        "Table III: GRACEFUL {graceful} must beat Graph+Graph {graph_graph}"
    );
    assert!(
        ladder.iter().all(|&m| graceful <= m),
        "Table III: Actual cards must be the best rung of {ladder:?}"
    );
    assert!(
        ladder.iter().all(|&m| ladder[3] >= m),
        "Table III: Naive (DuckDB-like) must be the worst rung of {ladder:?}"
    );

    let levels = c.levels.each_ref().map(|s| s.median);
    assert!(levels[4] <= levels[0], "Fig. 7: level 5 must beat level 1 in {levels:?}");
    assert!(
        levels[..4].iter().all(|&m| m >= 0.95 * levels[4]),
        "Fig. 7: no ablated level may beat level 5 by more than 5% in {levels:?}"
    );

    let a = &c.advisor;
    assert!(a.n > 0, "Table V: no advisable query");
    assert!(a.total_speedup > 1.0, "Table V: total speed-up {} must exceed 1", a.total_speedup);
    assert!(
        a.total_optimal_ns <= a.total_chosen_ns,
        "Table V: optimum {} slower than the chosen plans {}",
        a.total_optimal_ns,
        a.total_chosen_ns
    );

    let s = &c.stats;
    assert_eq!(
        s.n_udf_filter + s.n_udf_projection + s.n_non_udf,
        s.n_queries,
        "Table II: usage counts"
    );
    assert_eq!(s.n_databases, 20, "Table II: databases");
    assert!(s.max_loops <= 3, "Table II: UDFs carry up to {} loops, the paper 3", s.max_loops);
}

#[test]
#[ignore = "paper scale: set the GRACEFUL_* knobs and run with --ignored --nocapture"]
fn paper_scale_tables() {
    let session = Session::from_env().expect("a valid GRACEFUL_* environment");
    let cfg = ScaleConfig::try_from_env().expect("a valid GRACEFUL_* environment");
    claims(&session, &cfg);
}
