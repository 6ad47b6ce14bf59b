//! Shared experiment harness: leave-one-out training/evaluation and the
//! advisor end-to-end runner. `tests/paper_claims.rs` computes every paper
//! table and figure from these functions once and asserts its orderings.

use crate::advisor::{PullUpAdvisor, Strategy};
use crate::baselines::{FlatGraphBaseline, GraphGraphBaseline};
use crate::corpus::{DatasetCorpus, LabeledQuery};
use crate::featurize::Featurizer;
use crate::model::{GracefulModel, TrainConfig, TrainOptions};
use graceful_card::{ActualCard, CardEstimator, DataDrivenCard, NaiveCard, SamplingCard};
use graceful_common::config::ScaleConfig;
use graceful_common::metrics::QErrorSummary;
use graceful_common::Result;
use graceful_exec::Session;
use graceful_plan::{build_plan, UdfPlacement, UdfUsage};
use graceful_storage::Database;

/// The cardinality-annotation ladder of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    Actual,
    DataDriven,
    Sampling,
    Naive,
}

impl EstimatorKind {
    pub const ALL: [EstimatorKind; 4] = [
        EstimatorKind::Actual,
        EstimatorKind::DataDriven,
        EstimatorKind::Sampling,
        EstimatorKind::Naive,
    ];

    pub fn label(self) -> &'static str {
        match self {
            EstimatorKind::Actual => "Actual",
            EstimatorKind::DataDriven => "DeepDB-like",
            EstimatorKind::Sampling => "WanderJoin-like",
            EstimatorKind::Naive => "DuckDB-like",
        }
    }

    /// Instantiate the estimator over a database.
    pub fn build<'a>(self, db: &'a Database, seed: u64) -> Box<dyn CardEstimator + 'a> {
        match self {
            EstimatorKind::Actual => Box::new(ActualCard::new(db)),
            EstimatorKind::DataDriven => Box::new(DataDrivenCard::build(db, seed)),
            EstimatorKind::Sampling => Box::new(SamplingCard::new(db, 100, seed)),
            EstimatorKind::Naive => Box::new(NaiveCard::new(db)),
        }
    }
}

/// The trainer's configuration for a scale config on `session`'s thread
/// budget.
fn train_config(session: &Session, cfg: &ScaleConfig) -> Result<TrainConfig> {
    TrainOptions::new().epochs(cfg.epochs).seed(cfg.seed).threads(session.config().threads).build()
}

/// Train GRACEFUL on a set of corpora with the scale-config hyper-parameters,
/// featurizing on `session`'s thread budget.
pub fn train_graceful(
    session: &Session,
    corpora: &[DatasetCorpus],
    cfg: &ScaleConfig,
    featurizer: Featurizer,
) -> Result<GracefulModel> {
    let mut model = GracefulModel::new(featurizer, cfg.hidden, cfg.seed)?;
    let refs: Vec<&DatasetCorpus> = corpora.iter().collect();
    model.train(&refs, &train_config(session, cfg)?)?;
    Ok(model)
}

/// One cross-validation fold: the model and the held-out corpus indices.
pub struct Fold {
    pub model: GracefulModel,
    pub test_indices: Vec<usize>,
}

/// Grouped cross-validation over the corpora.
///
/// The paper runs leave-one-out over 20 databases (20 trainings). At
/// reduced scale we partition the datasets into `cfg.folds` groups; each
/// group's model is trained on all *other* datasets and evaluated zero-shot
/// on every dataset in the group, so all 20 datasets are still evaluated
/// unseen; 20 folds (`GRACEFUL_FOLDS=20` for `paper_claims`'s ignored
/// paper-scale test) are exact leave-one-out. Fold trainings run on
/// `session`'s morsel pool (one fold per morsel; every fold seeds its own
/// model, so results are pool-size independent). An empty corpus set is a
/// typed [`graceful_common::GracefulError::Model`], like any training failure.
pub fn cross_validate(
    session: &Session,
    corpora: &[DatasetCorpus],
    cfg: &ScaleConfig,
    featurizer: Featurizer,
) -> Result<Vec<Fold>> {
    let n = corpora.len();
    let folds = cfg.folds.clamp(1, n.max(1));
    let groups: Vec<Vec<usize>> =
        (0..folds).map(|f| (0..n).filter(|i| i % folds == f).collect()).collect();
    let tcfg = train_config(session, cfg)?;
    let trained = session.pool().ordered_map(&groups, |f, group| {
        let train: Vec<&DatasetCorpus> = corpora
            .iter()
            .enumerate()
            .filter(|(i, _)| !group.contains(i))
            .map(|(_, c)| c)
            .collect();
        let mut model = GracefulModel::new(featurizer, cfg.hidden, cfg.seed + f as u64)?;
        // A single-fold setup has no training partner; train on the
        // test group itself (degenerate but still useful smoke mode).
        if train.is_empty() {
            let all: Vec<&DatasetCorpus> = corpora.iter().collect();
            model.train(&all, &tcfg)?;
        } else {
            model.train(&train, &tcfg)?;
        }
        Ok(Fold { model, test_indices: group.clone() })
    });
    trained.into_iter().collect()
}

/// One evaluated query.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    pub dataset: String,
    pub predicted_ns: f64,
    pub actual_ns: f64,
    pub position: &'static str,
    pub has_udf: bool,
    /// COMP-node count of the UDF graph (Figure 6 A bins); 0 for non-UDF.
    pub comp_nodes: usize,
    pub branches: usize,
    pub loops: usize,
    /// Q-error of the cardinality estimate at the top (pre-aggregate) node:
    /// the root's first child, or the root of a one-operator plan.
    pub card_q_top: f64,
}

impl EvalRecord {
    pub fn q_error(&self) -> f64 {
        graceful_common::metrics::q_error(self.predicted_ns, self.actual_ns)
    }
}

/// Evaluate an arbitrary predictor over a corpus with a given annotation
/// method. The predictor receives the estimator-annotated plan.
pub fn evaluate_with<F>(
    corpus: &DatasetCorpus,
    kind: EstimatorKind,
    seed: u64,
    mut predict: F,
) -> Vec<EvalRecord>
where
    F: FnMut(
        &DatasetCorpus,
        &LabeledQuery,
        &graceful_plan::Plan,
        &dyn CardEstimator,
    ) -> Result<f64>,
{
    let est = kind.build(&corpus.db, seed);
    let mut out = Vec::with_capacity(corpus.queries.len());
    for q in &corpus.queries {
        let mut plan = q.plan.clone();
        if est.annotate(&mut plan).is_err() {
            continue;
        }
        let pred = match predict(corpus, q, &plan, est.as_ref()) {
            Ok(p) => p,
            Err(_) => continue,
        };
        // `annotate` verified the plan, so every index below is in range.
        let root = &plan.ops[plan.root];
        let top = root.children.first().map_or(root, |&c| &plan.ops[c]);
        let card_q_top = graceful_common::metrics::q_error(
            top.est_out_rows.max(1.0),
            top.actual_out_rows.max(1.0),
        );
        let (comp_nodes, branches, loops) = match &q.spec.udf {
            Some(u) => {
                // COMP count from the default DAG (cheap recomputation).
                let dag = graceful_cfg::build_dag(
                    &u.def,
                    &[],
                    graceful_storage::DataType::Float,
                    graceful_cfg::DagConfig::default(),
                );
                (dag.comp_count(), u.def.branch_count(), u.def.loop_count())
            }
            None => (0, 0, 0),
        };
        out.push(EvalRecord {
            dataset: corpus.name.clone(),
            predicted_ns: pred,
            actual_ns: q.runtime_ns,
            position: if q.has_udf() && q.spec.udf_usage == UdfUsage::Filter {
                q.position_label()
            } else {
                "n/a"
            },
            has_udf: q.has_udf(),
            comp_nodes,
            branches,
            loops,
            card_q_top,
        });
    }
    out
}

/// Evaluate the GRACEFUL model over a corpus.
pub fn evaluate_model(
    model: &GracefulModel,
    corpus: &DatasetCorpus,
    kind: EstimatorKind,
    seed: u64,
) -> Vec<EvalRecord> {
    evaluate_with(corpus, kind, seed, |c, q, plan, est| model.predict(&c.db, &q.spec, plan, est))
}

/// Evaluate the Flat+Graph baseline.
pub fn evaluate_flat(
    model: &FlatGraphBaseline,
    corpus: &DatasetCorpus,
    kind: EstimatorKind,
    seed: u64,
) -> Vec<EvalRecord> {
    evaluate_with(corpus, kind, seed, |c, q, plan, est| model.predict(&c.db, &q.spec, plan, est))
}

/// Evaluate the Graph+Graph baseline.
pub fn evaluate_graphgraph(
    model: &GraphGraphBaseline,
    corpus: &DatasetCorpus,
    kind: EstimatorKind,
    seed: u64,
) -> Vec<EvalRecord> {
    evaluate_with(corpus, kind, seed, |c, q, plan, est| model.predict(&c.db, &q.spec, plan, est))
}

/// Convenience: Q-error summary under actual cardinalities (doc example).
pub fn evaluate_actual(model: &GracefulModel, corpus: &DatasetCorpus) -> QErrorSummary {
    let recs = evaluate_model(model, corpus, EstimatorKind::Actual, 0);
    summarize(&recs, |r| r.has_udf)
}

/// Summarize the Q-errors of the records matching `filter`.
pub fn summarize<F: Fn(&EvalRecord) -> bool>(records: &[EvalRecord], filter: F) -> QErrorSummary {
    let qs: Vec<f64> = records.iter().filter(|r| filter(r)).map(EvalRecord::q_error).collect();
    if qs.is_empty() {
        return QErrorSummary { median: f64::NAN, p95: f64::NAN, p99: f64::NAN, count: 0 };
    }
    QErrorSummary::from_q_errors(&qs)
}

/// Per-query advisor outcome (Exp 5).
#[derive(Debug, Clone)]
pub struct AdvisorOutcome {
    pub pulled_up: bool,
    pub pushdown_ns: f64,
    pub pullup_ns: f64,
    pub chosen_ns: f64,
    /// Wall-clock seconds spent deciding (the "optimization overhead").
    pub decide_seconds: f64,
}

impl AdvisorOutcome {
    pub fn optimal_ns(&self) -> f64 {
        self.pushdown_ns.min(self.pullup_ns)
    }

    /// A pull-up that made the query slower.
    pub fn is_false_positive(&self) -> bool {
        self.pulled_up && self.pullup_ns > self.pushdown_ns
    }
}

/// Run the advisor over every advisable query of a corpus, executing both
/// placements on the engine `session` configures.
///
/// Ground-truth runtimes for both placements come from real execution; the
/// "Cost" strategy receives the query's actual UDF-filter selectivity.
#[allow(clippy::too_many_arguments)]
pub fn run_advisor_in(
    session: &Session,
    model: &GracefulModel,
    corpus: &DatasetCorpus,
    kind: EstimatorKind,
    strategy: Strategy,
    seed: u64,
    max_queries: usize,
) -> Vec<AdvisorOutcome> {
    let est = kind.build(&corpus.db, seed);
    let advisor = PullUpAdvisor::new(model);
    let mut out = Vec::new();
    for q in corpus.queries.iter().take(max_queries * 3) {
        if out.len() >= max_queries {
            break;
        }
        if !(q.has_udf() && q.spec.udf_usage == UdfUsage::Filter && !q.spec.joins.is_empty()) {
            continue;
        }
        let Ok(pd_plan) = build_plan(&q.spec, UdfPlacement::PushDown) else { continue };
        let Ok(pu_plan) = build_plan(&q.spec, UdfPlacement::PullUp) else { continue };
        let Ok(pd_run) = session.run(&corpus.db, &pd_plan, q.spec.id) else { continue };
        let Ok(pu_run) = session.run(&corpus.db, &pu_plan, q.spec.id) else { continue };
        // Actual UDF-filter selectivity for the Cost strategy.
        let known_sel = q
            .plan
            .udf_op()
            .map(|i| {
                let input = q.plan.ops[q.plan.ops[i].children[0]].actual_out_rows.max(1.0);
                (q.plan.ops[i].actual_out_rows / input).clamp(0.0, 1.0)
            })
            .unwrap_or(0.5);
        let started = std::time::Instant::now();
        let decision =
            match advisor.decide(&corpus.db, &q.spec, est.as_ref(), strategy, Some(known_sel)) {
                Ok(d) => d,
                Err(_) => continue,
            };
        let decide_seconds = started.elapsed().as_secs_f64();
        let chosen_ns = if decision.pull_up { pu_run.runtime_ns } else { pd_run.runtime_ns };
        out.push(AdvisorOutcome {
            pulled_up: decision.pull_up,
            pushdown_ns: pd_run.runtime_ns,
            pullup_ns: pu_run.runtime_ns,
            chosen_ns,
            decide_seconds,
        });
    }
    out
}

/// Aggregate advisor outcomes into the Table V metrics.
#[derive(Debug, Clone)]
pub struct AdvisorSummary {
    pub total_chosen_ns: f64,
    pub total_pushdown_ns: f64,
    pub total_optimal_ns: f64,
    pub total_speedup: f64,
    pub median_speedup: f64,
    pub false_positive_rate: f64,
    /// Slowdown introduced by bad pull-ups, relative to total runtime.
    pub fp_impact: f64,
    /// Advisor wall-clock relative to total (simulated) runtime.
    pub overhead_fraction: f64,
    pub n: usize,
}

pub fn summarize_advisor(outcomes: &[AdvisorOutcome]) -> AdvisorSummary {
    let n = outcomes.len();
    let total_chosen: f64 = outcomes.iter().map(|o| o.chosen_ns).sum();
    let total_pd: f64 = outcomes.iter().map(|o| o.pushdown_ns).sum();
    let total_opt: f64 = outcomes.iter().map(|o| o.optimal_ns()).sum();
    let speedups: Vec<f64> =
        outcomes.iter().map(|o| o.pushdown_ns / o.chosen_ns.max(1e-9)).collect();
    let fp = outcomes.iter().filter(|o| o.is_false_positive()).count();
    let fp_loss: f64 = outcomes
        .iter()
        .filter(|o| o.is_false_positive())
        .map(|o| o.pullup_ns - o.pushdown_ns)
        .sum();
    let decide_total: f64 = outcomes.iter().map(|o| o.decide_seconds).sum();
    AdvisorSummary {
        total_chosen_ns: total_chosen,
        total_pushdown_ns: total_pd,
        total_optimal_ns: total_opt,
        total_speedup: total_pd / total_chosen.max(1e-9),
        median_speedup: if speedups.is_empty() {
            1.0
        } else {
            graceful_common::metrics::median(&speedups)
        },
        false_positive_rate: if n > 0 { fp as f64 / n as f64 } else { 0.0 },
        fp_impact: fp_loss / total_chosen.max(1e-9),
        overhead_fraction: decide_total / (total_chosen * 1e-9).max(1e-9),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::env_corpus;

    fn cfg() -> ScaleConfig {
        ScaleConfig {
            data_scale: 0.02,
            queries_per_db: 16,
            epochs: 8,
            hidden: 12,
            ..ScaleConfig::default()
        }
    }

    fn session() -> Session {
        Session::from_env().expect("a valid GRACEFUL_* environment")
    }

    fn trained_on(corpus: &DatasetCorpus, cfg: &ScaleConfig) -> GracefulModel {
        train_graceful(&session(), std::slice::from_ref(corpus), cfg, Featurizer::full())
            .expect("training succeeds")
    }

    #[test]
    fn leave_one_out_mini() {
        let cfg = cfg();
        let train = env_corpus("tpc_h", &cfg, 1);
        let test = env_corpus("movielens", &cfg, 2);
        let model = trained_on(&train, &cfg);
        for kind in EstimatorKind::ALL {
            let recs = evaluate_model(&model, &test, kind, 3);
            assert!(!recs.is_empty(), "{:?} produced no records", kind);
            let s = summarize(&recs, |_| true);
            assert!(s.median.is_finite() && s.median >= 1.0);
        }
    }

    #[test]
    fn actual_cards_beat_naive_cards() {
        let cfg = cfg();
        let train = env_corpus("tpc_h", &cfg, 5);
        let test = env_corpus("airline", &cfg, 6);
        let model = trained_on(&train, &cfg);
        let actual =
            summarize(&evaluate_model(&model, &test, EstimatorKind::Actual, 1), |r| r.has_udf);
        let naive =
            summarize(&evaluate_model(&model, &test, EstimatorKind::Naive, 1), |r| r.has_udf);
        // Card-est error at the top node must be worse for naive.
        let actual_card = summarize_card(&evaluate_model(&model, &test, EstimatorKind::Actual, 1));
        let naive_card = summarize_card(&evaluate_model(&model, &test, EstimatorKind::Naive, 1));
        assert!(actual_card <= naive_card + 1e-9, "{actual_card} vs {naive_card}");
        // Cost Q-error ordering usually follows; assert weakly (tiny scale).
        assert!(actual.median.is_finite() && naive.median.is_finite());
    }

    fn summarize_card(recs: &[EvalRecord]) -> f64 {
        let qs: Vec<f64> = recs.iter().map(|r| r.card_q_top).collect();
        graceful_common::metrics::median(&qs)
    }

    #[test]
    fn advisor_end_to_end_beats_or_matches_pushdown() {
        let cfg = cfg();
        let corpus = env_corpus("imdb", &cfg, 8);
        let model = trained_on(&corpus, &cfg);
        let outcomes = run_advisor_in(
            &session(),
            &model,
            &corpus,
            EstimatorKind::Actual,
            Strategy::Cost,
            1,
            8,
        );
        if outcomes.is_empty() {
            return; // tiny corpus may lack advisable queries
        }
        let s = summarize_advisor(&outcomes);
        // With the Cost strategy and actual cards, the advisor should never
        // be much worse than always-push-down on aggregate.
        assert!(s.total_speedup > 0.8, "advisor badly regressed: speedup {}", s.total_speedup);
        assert!(s.total_optimal_ns <= s.total_chosen_ns + 1e-6);
    }

    /// A lone SCAN passes `verify_structure`; its record scores the root,
    /// which has no child to read.
    #[test]
    fn evaluate_with_scores_a_one_operator_plan() {
        use graceful_plan::{Plan, PlanOp, PlanOpKind};
        let cfg = ScaleConfig { queries_per_db: 2, ..cfg() };
        let mut corpus = env_corpus("tpc_h", &cfg, 4);
        corpus.queries.truncate(1);
        let q = &mut corpus.queries[0];
        let mut scan = PlanOp::new(PlanOpKind::Scan { table: q.spec.base_table.clone() }, vec![]);
        scan.actual_out_rows = corpus.db.table(&q.spec.base_table).unwrap().num_rows() as f64;
        q.plan = Plan { ops: vec![scan], root: 0 };
        for kind in EstimatorKind::ALL {
            let recs = evaluate_with(&corpus, kind, 3, |_, _, _, _| Ok(1.0));
            assert_eq!(recs.len(), 1, "{kind:?}");
            assert_eq!(recs[0].predicted_ns, 1.0, "{kind:?}");
            assert!(recs[0].card_q_top.is_finite() && recs[0].card_q_top >= 1.0, "{kind:?}");
            if kind == EstimatorKind::Actual {
                assert_eq!(recs[0].card_q_top, 1.0);
            }
        }
    }
}
