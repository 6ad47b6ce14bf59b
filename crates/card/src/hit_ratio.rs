//! The hit-ratio estimator of Section III-B.
//!
//! UDF branches route different rows down different code paths, so the cost
//! of a UDF depends on *how many rows hit each branch*. The paper's key idea:
//! trace the conditions along every control path, rewrite them into an SQL
//! query over the data the UDF actually sees
//! (`SELECT * FROM tables WHERE joins ∧ pre-filters ∧ branch-conds`), and ask
//! an off-the-shelf cardinality estimator for the result size — the path's
//! hit frequency.
//!
//! Here the rewrite goes from [`BranchCondInfo`] (a `param CMP literal`
//! condition) back to the UDF's input column via the positional
//! param→column mapping of [`GeneratedUdf`], conjoined with the plain
//! filters already applied to the UDF's base table. Join-induced
//! distribution shift on the input columns is second-order for FK joins and
//! is ignored (documented simplification). Untraceable conditions (on
//! derived variables) contribute the 0.5 fallback.

use crate::CardEstimator;
use graceful_cfg::{BranchCondInfo, UdfDag};
use graceful_plan::Pred;
use graceful_storage::Value;
use graceful_udf::GeneratedUdf;

/// Hit-ratio estimator bridging UDF branch conditions and a cardinality
/// estimator.
pub struct HitRatioEstimator<'e> {
    card: &'e dyn CardEstimator,
}

impl<'e> HitRatioEstimator<'e> {
    pub fn new(card: &'e dyn CardEstimator) -> Self {
        HitRatioEstimator { card }
    }

    /// Rewrite a traced branch condition into a predicate over the UDF's
    /// input column. Returns `None` for parameters that do not map to a
    /// column (should not happen for generator-produced UDFs).
    pub fn rewrite(&self, udf: &GeneratedUdf, cond: &BranchCondInfo) -> Option<Pred> {
        let pos = udf.def.params.iter().position(|p| *p == cond.param)?;
        let column = udf.input_columns.get(pos)?;
        Some(Pred {
            col: graceful_plan::ColRef::new(&udf.table, column),
            op: cond.op,
            value: Value::Float(cond.literal),
        })
    }

    /// The predicate a path adds at a branch on `cond`: the rewritten
    /// condition when the branch is taken, its negation when not.
    fn branch_pred(&self, udf: &GeneratedUdf, cond: &BranchCondInfo, taken: bool) -> Option<Pred> {
        let mut pred = self.rewrite(udf, cond)?;
        if !taken {
            pred.op = pred.op.negated();
        }
        Some(pred)
    }

    /// Probability of one control path: the joint selectivity of its
    /// (taken-adjusted) conditions, conditioned on the pre-UDF filters.
    ///
    /// `P(path | pre) = sel(pre ∧ conds) / sel(pre)`; untraceable conditions
    /// multiply in 0.5.
    pub fn path_probability(
        &self,
        udf: &GeneratedUdf,
        pre_filters: &[Pred],
        conditions: &[(Option<BranchCondInfo>, bool)],
    ) -> f64 {
        let mut preds: Vec<Pred> = pre_filters.to_vec();
        let mut fallback = 1.0;
        for (cond, taken) in conditions {
            match cond.as_ref().and_then(|c| self.branch_pred(udf, c, *taken)) {
                Some(p) => preds.push(p),
                None => fallback *= 0.5,
            }
        }
        let denom = self.pre_selectivity(udf, pre_filters);
        self.ratio(udf, &preds, denom, fallback)
    }

    /// `sel(pre)`, the denominator every path of one UDF divides by.
    fn pre_selectivity(&self, udf: &GeneratedUdf, pre_filters: &[Pred]) -> f64 {
        if pre_filters.is_empty() {
            1.0
        } else {
            self.card.conjunction_selectivity(&udf.table, pre_filters).max(1e-9)
        }
    }

    /// `sel(preds) / sel(pre) · fallback`, clamped to a probability.
    fn ratio(&self, udf: &GeneratedUdf, preds: &[Pred], denom: f64, fallback: f64) -> f64 {
        let joint = self.card.conjunction_selectivity(&udf.table, preds);
        (joint / denom * fallback).clamp(0.0, 1.0)
    }

    /// Annotate `in_rows` on the whole UDF DAG: the paper's step ④.
    ///
    /// `input_rows` is the (estimated) number of rows reaching the UDF
    /// operator; `pre_filters` are the plain predicates already applied on
    /// the UDF's base table below it. Every path gets
    /// [`HitRatioEstimator::path_probability`]'s number, bit for bit, but
    /// `sel(pre)` is taken once and each traceable condition is rewritten
    /// once per DAG, both ways: the predicate it adds when its branch is
    /// taken and when it is not. A path moves its predicates into one
    /// conjunction buffer behind the pre-filters and back out after the
    /// call, so pricing a path allocates nothing.
    pub fn annotate_dag(
        &self,
        dag: &mut UdfDag,
        udf: &GeneratedUdf,
        input_rows: f64,
        pre_filters: &[Pred],
    ) {
        let denom = self.pre_selectivity(udf, pre_filters);
        // Per BRANCH node with a condition: the predicate of the branch not
        // taken, then taken.
        let mut rewritten: Vec<(usize, [Option<Pred>; 2])> = (dag.nodes.iter().enumerate())
            .filter_map(|(i, n)| {
                n.cond.as_ref().map(|c| (i, [false, true].map(|t| self.branch_pred(udf, c, t))))
            })
            .collect();
        let (mut preds, mut moved) = (pre_filters.to_vec(), Vec::new());
        dag.annotate_rows_by_branch(input_rows, |decisions| {
            let mut fallback = 1.0;
            for &(b, taken) in decisions {
                let slot = rewritten.iter().position(|r| r.0 == b);
                match slot.and_then(|s| Some((s, rewritten[s].1[taken as usize].take()?))) {
                    Some((s, p)) => {
                        preds.push(p);
                        moved.push((s, taken as usize));
                    }
                    None => fallback *= 0.5,
                }
            }
            let p = self.ratio(udf, &preds, denom, fallback);
            for ((s, taken), pred) in moved.drain(..).zip(preds.drain(pre_filters.len()..)) {
                rewritten[s].1[taken] = Some(pred);
            }
            p
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ActualCard;
    use graceful_cfg::{build_dag, DagConfig, UdfNodeKind};
    use graceful_storage::datagen::{generate, schema};
    use graceful_storage::{DataType, Database};
    use graceful_udf::parse_udf;
    use std::sync::Arc;

    fn setup() -> (Database, Arc<GeneratedUdf>) {
        let db = generate(&schema("tpc_h"), 0.05, 3);
        // quantity is uniform in 1..=50; branch on x0 < 10 keeps ~18%.
        let def = parse_udf(
            "def f(x0):\n    if x0 < 10:\n        z = x0 * 2\n    else:\n        z = x0 + 1\n    return z\n",
        )
        .unwrap();
        let udf = Arc::new(GeneratedUdf::new(def, "lineitem_t", vec!["quantity".into()]));
        (db, udf)
    }

    #[test]
    fn rewrites_param_to_column() {
        let (db, udf) = setup();
        let actual = ActualCard::new(&db);
        let hr = HitRatioEstimator::new(&actual);
        let cond =
            BranchCondInfo { param: "x0".into(), op: graceful_udf::ast::CmpOp::Lt, literal: 10.0 };
        let pred = hr.rewrite(&udf, &cond).unwrap();
        assert_eq!(pred.col.table, "lineitem_t");
        assert_eq!(pred.col.column, "quantity");
    }

    #[test]
    fn branch_hit_ratios_match_data() {
        let (db, udf) = setup();
        let actual = ActualCard::new(&db);
        let hr = HitRatioEstimator::new(&actual);
        let mut dag = build_dag(&udf.def, &[DataType::Int], DataType::Float, DagConfig::default());
        hr.annotate_dag(&mut dag, &udf, 1000.0, &[]);
        // The then-side COMP should get ~18% of rows (quantity in 1..=9 of 1..=50).
        let comps: Vec<&graceful_cfg::UdfNode> =
            dag.nodes.iter().filter(|n| n.kind == UdfNodeKind::Comp).collect();
        let min_rows = comps.iter().map(|n| n.in_rows).fold(f64::INFINITY, f64::min);
        assert!(
            (min_rows / 1000.0 - 0.18).abs() < 0.05,
            "then-branch rows {min_rows} should be ≈180"
        );
        assert!((dag.nodes[dag.ret].in_rows - 1000.0).abs() < 1.0);
    }

    #[test]
    fn pre_filters_condition_the_ratio() {
        let (db, udf) = setup();
        let actual = ActualCard::new(&db);
        let hr = HitRatioEstimator::new(&actual);
        // Pre-filter quantity <= 10 makes the branch (x0 < 10) almost always
        // taken.
        let pre =
            vec![Pred::new("lineitem_t", "quantity", graceful_udf::ast::CmpOp::Le, Value::Int(10))];
        let cond = vec![(
            Some(BranchCondInfo {
                param: "x0".into(),
                op: graceful_udf::ast::CmpOp::Lt,
                literal: 10.0,
            }),
            true,
        )];
        let p = hr.path_probability(&udf, &pre, &cond);
        assert!(p > 0.8, "conditional hit ratio should be high, got {p}");
        // Without conditioning it is ~0.18.
        let p0 = hr.path_probability(&udf, &[], &cond);
        assert!(p0 < 0.3, "unconditional ratio should be low, got {p0}");
    }

    /// Sharing `sel(pre)` between the paths of one UDF changes no row count:
    /// `annotate_dag` equals the per-path formula bit for bit, with and
    /// without pre-filters, on a UDF with three control paths.
    #[test]
    fn annotate_dag_equals_the_per_path_formula() {
        let (db, mut udf) = setup();
        Arc::make_mut(&mut udf).def = parse_udf(
            "def f(x0):\n    if x0 < 10:\n        z = x0 * 2\n    else:\n        if x0 > 40:\n            z = x0 - 3\n        else:\n            z = x0 + 1\n    return z\n",
        )
        .unwrap();
        let pre =
            [Pred::new("lineitem_t", "quantity", graceful_udf::ast::CmpOp::Le, Value::Int(45))];
        let (actual, data_driven) = (ActualCard::new(&db), crate::DataDrivenCard::build(&db, 2));
        for card in [&actual as &dyn CardEstimator, &data_driven] {
            let hr = HitRatioEstimator::new(card);
            for pre in [&pre[..0], &pre[..]] {
                let mut shared =
                    build_dag(&udf.def, &[DataType::Int], DataType::Float, DagConfig::default());
                let mut per_path = shared.clone();
                hr.annotate_dag(&mut shared, &udf, 1000.0, pre);
                per_path.annotate_rows(1000.0, |conds| hr.path_probability(&udf, pre, conds));
                let rows = |dag: &UdfDag| -> Vec<u64> {
                    dag.nodes.iter().map(|n| n.in_rows.to_bits()).collect()
                };
                assert_eq!(rows(&shared), rows(&per_path), "{} pre-filters", pre.len());
                assert!(shared.nodes.iter().any(|n| n.in_rows > 0.0 && n.in_rows < 999.0));
            }
        }
    }

    #[test]
    fn untraceable_conditions_fall_back() {
        let (db, udf) = setup();
        let actual = ActualCard::new(&db);
        let hr = HitRatioEstimator::new(&actual);
        let p = hr.path_probability(&udf, &[], &[(None, true)]);
        assert_eq!(p, 0.5);
        let p2 = hr.path_probability(&udf, &[], &[(None, true), (None, false)]);
        assert_eq!(p2, 0.25);
    }
}
