//! The pull-up/push-down advisor (Section IV).
//!
//! The UDF filter's selectivity is unknowable before execution, so the
//! advisor performs **regret optimization**: it instantiates both candidate
//! plans (push-down and pull-up) at a ladder of assumed selectivities,
//! rescales all cardinalities above the UDF filter accordingly
//! ([`graceful_card::scale_above_udf`]), predicts each instance's cost with
//! the GRACEFUL model, and compares the resulting *cost distributions* with
//! one of three heuristics:
//!
//! * **UBC** (upper-bound cardinality) — compare costs at selectivity 1.0,
//! * **AuC** — compare the areas under the two cost curves (uniform prior
//!   over selectivities),
//! * **Conservative** — pull up only when the pull-up curve is below the
//!   push-down curve at *every* selectivity (no-regression guarantee).
//!
//! A fourth mode, **Cost**, uses a single known selectivity (the "actual
//! selectivity" rows of Table V).
//!
//! # One decision, one graph
//!
//! The twelve instances are not twelve estimates. `scale_above_udf` changes
//! `est_out_rows` only on the UDF filter and the operators above it, so per
//! placement the plan is built and annotated once and its ladder is one
//! estimate vector per selectivity ([`graceful_card::scale_ladder`]). Both
//! ladders go into one graph through one `GraphBuilder` of the featurizer,
//! which emits what a ladder's variants share once, lets push-down reuse
//! every pull-up node it would emit bit for bit (each table's
//! TABLE/SCAN/FILTER/COLUMN nodes, the UDF's input columns, the joins below
//! a late-joining pushed-down UDF) and builds the UDF's return type and DAG
//! once. One forward reads out all twelve roots; the GNN is a
//! bottom-up pass over a DAG, so every cost keeps its bits
//! (`a_decision_equals_twelve_independent_estimates`). Every estimator is a
//! function of its input (`graceful_card`'s contract), so what the
//! estimator is asked, and in which order, moves no cost.

use crate::model::GracefulModel;
use graceful_card::{scale_ladder, CardEstimator};
use graceful_common::{GracefulError, Result};
use graceful_nn::TypedGraph;
use graceful_plan::{build_plan, QuerySpec, UdfPlacement, UdfUsage};
use graceful_storage::Database;

/// The selectivity ladder of Figure 4 (plus 1.0 for the UBC bound).
pub const SELECTIVITY_LADDER: [f64; 6] = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0];

/// Decision strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Single cost estimate at a known (actual) selectivity.
    Cost,
    UpperBoundCardinality,
    AreaUnderCurve,
    Conservative,
}

impl Strategy {
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Cost => "GRACEFUL (Cost)",
            Strategy::UpperBoundCardinality => "GRACEFUL (UBC)",
            Strategy::AreaUnderCurve => "GRACEFUL (AuC)",
            Strategy::Conservative => "GRACEFUL (Conservative)",
        }
    }
}

/// Advisor output: the decision plus both cost distributions.
#[derive(Debug, Clone)]
pub struct AdvisorDecision {
    pub pull_up: bool,
    /// `(selectivity, predicted cost)` for the pull-up plan.
    pub pullup_costs: Vec<(f64, f64)>,
    /// `(selectivity, predicted cost)` for the push-down plan.
    pub pushdown_costs: Vec<(f64, f64)>,
}

/// The advisor: a GRACEFUL model plus a cardinality estimator.
pub struct PullUpAdvisor<'a> {
    pub model: &'a GracefulModel,
}

impl<'a> PullUpAdvisor<'a> {
    pub fn new(model: &'a GracefulModel) -> Self {
        PullUpAdvisor { model }
    }

    /// Both placements' ladders across `sels` in one graph, and their roots:
    /// pull-up first, each plan built and annotated once.
    fn decision_graph(
        &self,
        db: &Database,
        spec: &QuerySpec,
        estimator: &dyn CardEstimator,
        sels: &[f64],
    ) -> Result<(TypedGraph, Vec<usize>)> {
        let mut plans =
            [build_plan(spec, UdfPlacement::PullUp)?, build_plan(spec, UdfPlacement::PushDown)?];
        let mut g = self.model.featurizer().builder(db, spec, estimator);
        let mut roots = Vec::with_capacity(2 * sels.len());
        for plan in &mut plans {
            // Annotate without any execution feedback: the UDF hint defaults
            // to 0.5 and is immediately overridden per assumed selectivity.
            estimator.annotate(plan)?;
            roots.extend(g.ladder(plan, &scale_ladder(plan, sels))?);
        }
        Ok((g.graph(roots[0]), roots))
    }

    /// Decide pull-up vs push-down for a UDF-filter query.
    ///
    /// `known_selectivity` is only consulted by [`Strategy::Cost`], which
    /// rejects a missing or non-finite one with a typed error.
    pub fn decide(
        &self,
        db: &Database,
        spec: &QuerySpec,
        estimator: &dyn CardEstimator,
        strategy: Strategy,
        known_selectivity: Option<f64>,
    ) -> Result<AdvisorDecision> {
        if spec.udf.is_none() || spec.udf_usage != UdfUsage::Filter || spec.joins.is_empty() {
            return Err(GracefulError::InvalidPlan(
                "advisor requires a UDF-filter query with at least one join".into(),
            ));
        }
        let sels: Vec<f64> = match strategy {
            Strategy::Cost => match known_selectivity {
                Some(s) if s.is_finite() => vec![s.clamp(0.0, 1.0)],
                other => {
                    return Err(GracefulError::Model(format!(
                        "Cost strategy needs a known, finite selectivity, got {other:?}"
                    )))
                }
            },
            _ => SELECTIVITY_LADDER.to_vec(),
        };
        let (graph, roots) = self.decision_graph(db, spec, estimator, &sels)?;
        let roots: Vec<_> = roots.into_iter().map(|r| (0, r)).collect();
        let costs = self.model.gnn().predict_roots(&[&graph], &roots)?;
        let curve = |c: &[f64]| -> Vec<_> { sels.iter().copied().zip(c.iter().copied()).collect() };
        let (pullup, pushdown) = (curve(&costs[..sels.len()]), curve(&costs[sels.len()..]));
        let mut costs = pullup.iter().zip(&pushdown).map(|((_, up), (_, down))| (up, down));
        let pull_up = match strategy {
            // One selectivity (Cost), or the maximum one (UBC: 1.0 is the
            // last ladder entry).
            Strategy::Cost | Strategy::UpperBoundCardinality => {
                costs.next_back().is_some_and(|(up, down)| up < down)
            }
            Strategy::AreaUnderCurve => {
                let a: f64 = pullup.iter().map(|(_, c)| c).sum();
                let b: f64 = pushdown.iter().map(|(_, c)| c).sum();
                a < b
            }
            Strategy::Conservative => costs.all(|(up, down)| up < down),
        };
        Ok(AdvisorDecision { pull_up, pullup_costs: pullup, pushdown_costs: pushdown })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::env_corpus;
    use crate::featurize::Featurizer;
    use crate::model::TrainOptions;
    use graceful_card::{scale_above_udf, ActualCard};
    use graceful_common::config::ScaleConfig;

    #[test]
    fn advisor_produces_distributions_and_decisions() {
        let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 16, ..ScaleConfig::default() };
        let c = env_corpus("imdb", &cfg, 11);
        let mut model = GracefulModel::new(Featurizer::full(), 12, 3).unwrap();
        model.train(&[&c], &TrainOptions::new().epochs(6).build().unwrap()).unwrap();
        let est = ActualCard::new(&c.db);
        let advisor = PullUpAdvisor::new(&model);
        let q = c
            .queries
            .iter()
            .find(|q| {
                q.has_udf() && q.spec.udf_usage == UdfUsage::Filter && !q.spec.joins.is_empty()
            })
            .expect("corpus has an advisable query");
        for strat in
            [Strategy::UpperBoundCardinality, Strategy::AreaUnderCurve, Strategy::Conservative]
        {
            let d = advisor.decide(&c.db, &q.spec, &est, strat, None).unwrap();
            assert_eq!(d.pullup_costs.len(), SELECTIVITY_LADDER.len());
            assert!(d.pullup_costs.iter().all(|(_, c)| c.is_finite() && *c > 0.0));
        }
        let d = advisor.decide(&c.db, &q.spec, &est, Strategy::Cost, Some(0.4)).unwrap();
        assert_eq!(d.pullup_costs.len(), 1);
        // A selectivity that is missing or not a number is refused, not
        // clamped into NaN costs and a silent "push down".
        for bad in [None, Some(f64::NAN), Some(f64::INFINITY)] {
            let refused = advisor.decide(&c.db, &q.spec, &est, Strategy::Cost, bad);
            assert!(matches!(refused, Err(GracefulError::Model(_))), "{bad:?}: {refused:?}");
        }
    }

    /// One decision is, bit for bit, twelve independent estimates: for every
    /// advisable query of the 20-schema corpus, under every estimator and at
    /// every ablation level, each cost of the shared ladder equals
    /// `featurize` + the tape reference on a `scale_above_udf`-ed plan of its
    /// own. The sampling estimator draws from its RNG on every call, so an
    /// independent estimate starts from a fresh estimator and replays the
    /// calls a decision makes before it: annotate and one featurization per
    /// placement, pull-up first.
    #[test]
    fn a_decision_equals_twelve_independent_estimates() {
        use crate::experiments::EstimatorKind;
        let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 4, ..ScaleConfig::default() };
        let bits = |curve: &[(f64, f64)]| -> Vec<(u64, u64)> {
            curve.iter().map(|(s, c)| (s.to_bits(), c.to_bits())).collect()
        };
        let mut decisions = 0;
        for (i, name) in graceful_storage::datagen::DATASET_NAMES.iter().enumerate() {
            let c = env_corpus(name, &cfg, 60 + i as u64);
            let advisable = c.queries.iter().filter(|q| {
                q.has_udf() && q.spec.udf_usage == UdfUsage::Filter && !q.spec.joins.is_empty()
            });
            for (q, level, kind) in advisable.flat_map(|q| {
                Featurizer::LEVELS.flat_map(move |l| EstimatorKind::ALL.map(|k| (q, l, k)))
            }) {
                let model = GracefulModel::new(Featurizer::level(level).unwrap(), 8, 9).unwrap();
                let independent = |placements: &[UdfPlacement]| -> Vec<(f64, f64)> {
                    let estimate = |&sel: &f64| {
                        let est = kind.build(&c.db, 3);
                        let graph = |&placement: &UdfPlacement| {
                            let mut plan = build_plan(&q.spec, placement).unwrap();
                            est.annotate(&mut plan).unwrap();
                            scale_above_udf(&mut plan, sel);
                            model
                                .featurizer()
                                .featurize(&c.db, &q.spec, &plan, est.as_ref())
                                .unwrap()
                        };
                        let graphs: Vec<_> = placements.iter().map(graph).collect();
                        (sel, model.gnn().predict_reference(&graphs[graphs.len() - 1]).unwrap())
                    };
                    SELECTIVITY_LADDER.iter().map(estimate).collect()
                };
                let up = independent(&[UdfPlacement::PullUp]);
                let down = independent(&[UdfPlacement::PullUp, UdfPlacement::PushDown]);
                let d = PullUpAdvisor::new(&model)
                    .decide(
                        &c.db,
                        &q.spec,
                        kind.build(&c.db, 3).as_ref(),
                        Strategy::AreaUnderCurve,
                        None,
                    )
                    .unwrap();
                let what = format!("{name} query {} level {level} {kind:?}", q.spec.id);
                assert_eq!(bits(&d.pullup_costs), bits(&up), "pull-up curve, {what}");
                assert_eq!(bits(&d.pushdown_costs), bits(&down), "push-down curve, {what}");
                let area = |curve: &[(f64, f64)]| curve.iter().map(|(_, c)| c).sum::<f64>();
                assert_eq!(d.pull_up, area(&up) < area(&down), "decision, {what}");
                decisions += 1;
            }
        }
        assert!(decisions >= 20 * 40, "only {decisions} decisions checked");
    }

    /// The decision graph is the pull-up ladder followed by what the
    /// push-down ladder does not share with it: over the 20-schema corpus
    /// under `ActualCard`, its first nodes and edges are the pull-up ladder
    /// featurized apart, what the push-down roots reach holds the nodes of
    /// the push-down ladder featurized apart, and every node it reuses is
    /// one it does not emit again. The costs are the oracle test's business.
    #[test]
    fn a_decision_graph_emits_shared_operators_once() {
        let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 4, ..ScaleConfig::default() };
        let model = GracefulModel::new(Featurizer::full(), 8, 9).unwrap();
        let advisor = PullUpAdvisor::new(&model);
        let sels = &SELECTIVITY_LADDER;
        // The nodes `roots` reach in `g`, each as its type and feature bits.
        let reach = |g: &TypedGraph, roots: &[usize]| -> Vec<usize> {
            let mut seen = vec![false; g.len()];
            let mut stack = roots.to_vec();
            while let Some(v) = stack.pop() {
                if !std::mem::replace(&mut seen[v], true) {
                    stack.extend(g.edges.iter().filter(|e| e.1 == v).map(|e| e.0));
                }
            }
            (0..g.len()).filter(|&v| seen[v]).collect()
        };
        let rows = |g: &TypedGraph, nodes: &[usize]| -> Vec<(usize, Vec<u32>)> {
            let row = |&v: &usize| {
                (g.node_types[v], g.features.row(v).iter().map(|f| f.to_bits()).collect())
            };
            let mut rows: Vec<_> = nodes.iter().map(row).collect();
            rows.sort();
            rows
        };
        let (mut decisions, mut sharing, mut reused_total, mut apart_total) = (0, 0, 0, 0);
        for (i, name) in graceful_storage::datagen::DATASET_NAMES.iter().enumerate() {
            let c = env_corpus(name, &cfg, 60 + i as u64);
            let est = ActualCard::new(&c.db);
            let advisable = c.queries.iter().filter(|q| {
                q.has_udf() && q.spec.udf_usage == UdfUsage::Filter && !q.spec.joins.is_empty()
            });
            for q in advisable {
                let (g, roots) = advisor.decision_graph(&c.db, &q.spec, &est, sels).unwrap();
                let [up, down] = [UdfPlacement::PullUp, UdfPlacement::PushDown].map(|p| {
                    let mut plan = build_plan(&q.spec, p).unwrap();
                    est.annotate(&mut plan).unwrap();
                    let ladder = scale_ladder(&plan, sels);
                    model
                        .featurizer()
                        .featurize_ladder(&c.db, &q.spec, &plan, &ladder, &est)
                        .unwrap()
                });
                let what = format!("{name} query {}", q.spec.id);
                let n_up = up.0.len();
                assert_eq!(g.node_types[..n_up], up.0.node_types, "{what}");
                assert_eq!(g.edges[..up.0.edges.len()], up.0.edges, "{what}");
                assert_eq!(
                    rows(&g, &(0..n_up).collect::<Vec<_>>()),
                    rows(&up.0, &(0..n_up).collect::<Vec<_>>()),
                    "{what}"
                );
                assert_eq!(roots[..sels.len()], up.1, "{what}");
                let reached = reach(&g, &roots[sels.len()..]);
                let apart = reach(&down.0, &down.1);
                assert_eq!(rows(&g, &reached), rows(&down.0, &apart), "push-down nodes, {what}");
                let reused = reached.iter().filter(|&&v| v < n_up).count();
                assert_eq!(g.len(), up.0.len() + down.0.len() - reused, "{what}");
                assert!(g.len() <= up.0.len() + down.0.len(), "{what}");
                decisions += 1;
                sharing += usize::from(reused > 0);
                (reused_total, apart_total) =
                    (reused_total + reused, apart_total + up.0.len() + down.0.len());
            }
        }
        println!(
            "{sharing} of {decisions} decision graphs share nodes; {reused_total} of {apart_total} rows ({:.1} %) are emitted once instead of twice",
            100.0 * reused_total as f64 / apart_total as f64
        );
        assert!(decisions >= 40 && 2 * sharing > decisions, "{sharing} of {decisions} share");
    }

    #[test]
    fn conservative_is_most_reluctant() {
        // Conservative can only pull up when AuC would too (dominated curves
        // imply a smaller area).
        let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 20, ..ScaleConfig::default() };
        let c = env_corpus("tpc_h", &cfg, 13);
        let mut model = GracefulModel::new(Featurizer::full(), 12, 5).unwrap();
        model.train(&[&c], &TrainOptions::new().epochs(6).build().unwrap()).unwrap();
        let est = ActualCard::new(&c.db);
        let advisor = PullUpAdvisor::new(&model);
        for q in &c.queries {
            if !(q.has_udf() && q.spec.udf_usage == UdfUsage::Filter && !q.spec.joins.is_empty()) {
                continue;
            }
            let cons = advisor.decide(&c.db, &q.spec, &est, Strategy::Conservative, None).unwrap();
            let auc = advisor.decide(&c.db, &q.spec, &est, Strategy::AreaUnderCurve, None).unwrap();
            if cons.pull_up {
                assert!(auc.pull_up, "conservative pulled up but AuC did not");
            }
        }
    }

    #[test]
    fn rejects_non_advisable_queries() {
        let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 8, ..ScaleConfig::default() };
        let c = env_corpus("ssb", &cfg, 15);
        let model = GracefulModel::new(Featurizer::full(), 8, 1).unwrap();
        let est = ActualCard::new(&c.db);
        let advisor = PullUpAdvisor::new(&model);
        let q = c.queries.iter().find(|q| !q.has_udf() || q.spec.joins.is_empty());
        if let Some(q) = q {
            assert!(advisor.decide(&c.db, &q.spec, &est, Strategy::AreaUnderCurve, None).is_err());
        }
    }
}
