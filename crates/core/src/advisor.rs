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
//! # One decision, one pass
//!
//! The twelve instances are not twelve estimates. `scale_above_udf` changes
//! `est_out_rows` only on the UDF filter and the operators above it, so per
//! placement the plan is built and annotated once, its ladder is featurized
//! into one graph ([`Featurizer::featurize_ladder`](crate::featurize::Featurizer::featurize_ladder):
//! tables, columns, scans, side joins and the whole UDF subgraph once, the
//! FILTER/JOIN/AGG suffix once per selectivity), and both graphs go through
//! one forward that reads out twelve roots. The GNN is a bottom-up pass over
//! a DAG, so a shared node's state is what it would be in each stand-alone
//! graph, and every cost keeps its bits (`a_decision_equals_twelve_independent_estimates`).
//! The estimator is asked once per placement (annotation, then the UDF's hit
//! ratios), so one that samples per call draws once per placement too.

use crate::model::GracefulModel;
use graceful_card::{scale_above_udf, CardEstimator};
use graceful_common::{GracefulError, Result};
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

    /// Predicted cost distributions of both placements across `sels`, as
    /// `[pull-up, push-down]`: one annotated base plan and one ladder graph
    /// per placement, one forward over the two.
    fn cost_curves(
        &self,
        db: &Database,
        spec: &QuerySpec,
        estimator: &dyn CardEstimator,
        sels: &[f64],
    ) -> Result<[Vec<(f64, f64)>; 2]> {
        let mut graphs = Vec::with_capacity(2);
        let mut roots = Vec::with_capacity(2 * sels.len());
        for (gi, placement) in
            [UdfPlacement::PullUp, UdfPlacement::PushDown].into_iter().enumerate()
        {
            let mut base = build_plan(spec, placement)?;
            // Annotate without any execution feedback: the UDF hint defaults to
            // 0.5 and is immediately overridden per assumed selectivity.
            estimator.annotate(&mut base)?;
            let mut variants = vec![base; sels.len()];
            for (plan, &sel) in variants.iter_mut().zip(sels) {
                scale_above_udf(plan, sel);
            }
            let (graph, variant_roots) =
                self.model.featurizer().featurize_ladder(db, spec, &variants, estimator)?;
            roots.extend(variant_roots.into_iter().map(|r| (gi, r)));
            graphs.push(graph);
        }
        let costs = self.model.gnn().predict_roots(&[&graphs[0], &graphs[1]], &roots)?;
        let (up, down) = costs.split_at(sels.len());
        let curve = |costs: &[f64]| sels.iter().copied().zip(costs.iter().copied()).collect();
        Ok([curve(up), curve(down)])
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
        let [pullup, pushdown] = self.cost_curves(db, spec, estimator, &sels)?;
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
    use graceful_card::ActualCard;
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
