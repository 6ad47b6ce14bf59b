//! Cross-crate integration tests: the full pipeline at miniature scale.

use graceful::prelude::*;

/// The environment's session: the CI legs' `GRACEFUL_THREADS` /
/// `GRACEFUL_SCALE` reach these tests through it.
fn session() -> Session {
    Session::from_env().expect("a valid GRACEFUL_* environment")
}

fn corpus(dataset: &str, cfg: &ScaleConfig, seed: u64) -> DatasetCorpus {
    build_corpus_in(&session(), dataset, cfg, seed).expect("corpus builds")
}

fn trained(corpora: &[DatasetCorpus], cfg: &ScaleConfig, featurizer: Featurizer) -> GracefulModel {
    train_graceful(&session(), corpora, cfg, featurizer).expect("training succeeds")
}

fn tiny_cfg() -> ScaleConfig {
    ScaleConfig {
        data_scale: 0.02,
        queries_per_db: 14,
        epochs: 8,
        hidden: 12,
        folds: 2,
        ..ScaleConfig::default()
    }
}

#[test]
fn end_to_end_corpus_train_predict() {
    let cfg = tiny_cfg();
    let train = vec![corpus("tpc_h", &cfg, 1), corpus("ssb", &cfg, 2)];
    let test = corpus("imdb", &cfg, 3);
    let model = trained(&train, &cfg, Featurizer::full());
    let recs = evaluate_model(&model, &test, EstimatorKind::Actual, 1);
    assert!(!recs.is_empty());
    let s = summarize(&recs, |_| true);
    assert!(s.median >= 1.0 && s.median.is_finite());
    // Sanity ceiling: even a tiny model must not be orders of magnitude off
    // in the median (the target normalization alone guarantees the scale).
    assert!(s.median < 100.0, "median Q-error {} absurd", s.median);
}

#[test]
fn pullup_and_pushdown_always_agree_on_answers() {
    // The correctness invariant behind the whole optimization: UDF-filter
    // placement never changes results, only runtimes.
    let cfg = tiny_cfg();
    let corpus = corpus("movielens", &cfg, 9);
    let exec = session().executor(&corpus.db);
    let mut checked = 0;
    for q in &corpus.queries {
        if !(q.has_udf() && q.spec.udf_usage == UdfUsage::Filter && !q.spec.joins.is_empty()) {
            continue;
        }
        let pd = build_plan(&q.spec, UdfPlacement::PushDown).unwrap();
        let pu = build_plan(&q.spec, UdfPlacement::PullUp).unwrap();
        let a = exec.run(&pd, q.spec.id).unwrap().agg_value;
        let b = exec.run(&pu, q.spec.id).unwrap().agg_value;
        let rel = (a - b).abs() / a.abs().max(1e-9);
        assert!(rel < 1e-9, "placement changed the answer: {a} vs {b}");
        checked += 1;
    }
    assert!(checked > 0, "no movable UDF queries in corpus");
}

#[test]
fn estimator_ladder_orders_card_errors() {
    // Median top-node cardinality error: Actual <= DataDriven and
    // Actual <= Naive (the strict full ladder needs larger scale).
    let cfg = tiny_cfg();
    let train = corpus("tpc_h", &cfg, 21);
    let test = corpus("airline", &cfg, 22);
    let model = trained(std::slice::from_ref(&train), &cfg, Featurizer::full());
    let med = |kind: EstimatorKind| {
        let recs = evaluate_model(&model, &test, kind, 5);
        let qs: Vec<f64> = recs.iter().map(|r| r.card_q_top).collect();
        graceful::common::metrics::median(&qs)
    };
    let actual = med(EstimatorKind::Actual);
    let datadriven = med(EstimatorKind::DataDriven);
    let naive = med(EstimatorKind::Naive);
    assert!(actual <= datadriven + 1e-9, "actual {actual} > datadriven {datadriven}");
    assert!(actual <= naive + 1e-9, "actual {actual} > naive {naive}");
    assert!((actual - 1.0).abs() < 1e-6, "oracle must be exact, got {actual}");
}

#[test]
fn advisor_cost_strategy_tracks_ground_truth() {
    let cfg = ScaleConfig { queries_per_db: 24, ..tiny_cfg() };
    let corpus = corpus("imdb", &cfg, 31);
    let model = trained(std::slice::from_ref(&corpus), &cfg, Featurizer::full());
    let outcomes = graceful::core_model::experiments::run_advisor_in(
        &session(),
        &model,
        &corpus,
        EstimatorKind::Actual,
        Strategy::Cost,
        1,
        10,
    );
    if outcomes.is_empty() {
        return; // tiny corpora occasionally lack advisable queries
    }
    let s = graceful::core_model::experiments::summarize_advisor(&outcomes);
    // The chosen plan set can never beat the optimum and shouldn't be much
    // worse than always-push-down in aggregate.
    assert!(s.total_optimal_ns <= s.total_chosen_ns + 1e-6);
    assert!(s.total_speedup > 0.75, "speedup {}", s.total_speedup);
}

#[test]
fn ablation_level1_loses_to_full_model_on_udf_heavy_workload() {
    // Figure 7's qualitative claim at miniature scale: knowing the UDF's
    // structure helps. We only assert the full model is not *worse* by a
    // large factor (tiny-scale training is noisy).
    let cfg = ScaleConfig { queries_per_db: 30, epochs: 10, ..tiny_cfg() };
    let train = vec![corpus("tpc_h", &cfg, 41), corpus("financial", &cfg, 42)];
    let test = corpus("genome", &cfg, 43);
    let full = {
        let m = trained(&train, &cfg, Featurizer::full());
        summarize(&evaluate_model(&m, &test, EstimatorKind::Actual, 1), |r| r.has_udf).median
    };
    let black_box = {
        let m = trained(&train, &cfg, Featurizer::level(1).unwrap());
        summarize(&evaluate_model(&m, &test, EstimatorKind::Actual, 1), |r| r.has_udf).median
    };
    assert!(
        full < black_box * 2.0,
        "full model ({full:.2}) should not be far worse than RET-only ({black_box:.2})"
    );
}

#[test]
fn model_persistence_round_trip() {
    let cfg = tiny_cfg();
    let corpus = corpus("ssb", &cfg, 51);
    let model = trained(std::slice::from_ref(&corpus), &cfg, Featurizer::full());
    let json = model.to_json();
    let loaded = GracefulModel::from_json(&json).unwrap();
    let est = ActualCard::new(&corpus.db);
    let q = &corpus.queries[0];
    let mut plan = q.plan.clone();
    est.annotate(&mut plan).unwrap();
    let a = model.predict(&corpus.db, &q.spec, &plan, &est).unwrap();
    let b = loaded.predict(&corpus.db, &q.spec, &plan, &est).unwrap();
    assert!((a - b).abs() / a < 1e-6);
}
