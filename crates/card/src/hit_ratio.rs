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
use graceful_cfg::{BranchCondInfo, ControlPaths};
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

    /// Each node's `in_rows` over a UDF's kept control paths: the paper's
    /// step ④, for `input_rows` rows into the UDF operator behind the plain
    /// predicates `pre_filters` on its base table. Every path gets
    /// [`HitRatioEstimator::path_probability`]'s number, bit for bit, but
    /// `sel(pre)` is taken once and each traceable condition is rewritten
    /// once, both ways. A path moves its predicates into one conjunction
    /// buffer behind the pre-filters and back out, allocating nothing.
    pub fn annotate_paths(
        &self,
        paths: &ControlPaths,
        udf: &GeneratedUdf,
        input_rows: f64,
        pre_filters: &[Pred],
    ) -> Vec<f64> {
        let denom = self.pre_selectivity(udf, pre_filters);
        // Per BRANCH node with a condition: the predicate of the branch not
        // taken, then taken.
        let mut rewritten: Vec<(u32, [Option<Pred>; 2])> = (paths.conds.iter())
            .map(|(b, c)| (*b, [false, true].map(|t| self.branch_pred(udf, c, t))))
            .collect();
        let (mut preds, mut moved) = (pre_filters.to_vec(), Vec::new());
        paths.in_rows(input_rows, |decisions| {
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
        })
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
        let dag = build_dag(&udf.def, &[DataType::Int], DataType::Float, DagConfig::default());
        let rows = hr.annotate_paths(&dag.control_paths(), &udf, 1000.0, &[]);
        // The then-side COMP should get ~18% of rows (quantity in 1..=9 of 1..=50).
        let comps = dag.nodes.iter().zip(&rows).filter(|(n, _)| n.kind == UdfNodeKind::Comp);
        let min_rows = comps.map(|(_, &r)| r).fold(f64::INFINITY, f64::min);
        assert!(
            (min_rows / 1000.0 - 0.18).abs() < 0.05,
            "then-branch rows {min_rows} should be ≈180"
        );
        assert!((rows[dag.ret] - 1000.0).abs() < 1.0);
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

    /// Pricing a UDF's kept paths, `sel(pre)` shared between them, changes no
    /// row count: `annotate_paths` equals the per-path formula
    /// (`path_probability` of each path's conditions) bit for bit, under the
    /// actual and the data-driven estimator, with and without pre-filters,
    /// on a UDF with three control paths.
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
                let dag =
                    build_dag(&udf.def, &[DataType::Int], DataType::Float, DagConfig::default());
                let kept = hr.annotate_paths(&dag.control_paths(), &udf, 1000.0, pre);
                // Per path: its probability from its conditions, normalised,
                // summed into the nodes it visits in path order.
                let paths = dag.enumerate_paths(256).unwrap();
                let probs: Vec<f64> =
                    paths.iter().map(|p| hr.path_probability(&udf, pre, &p.conditions)).collect();
                let (total, mut want) = (probs.iter().sum::<f64>(), vec![0.0; dag.len()]);
                for (p, prob) in paths.iter().zip(&probs) {
                    p.nodes.iter().for_each(|&n| want[n] += prob / total);
                }
                let bits = |rows: &[f64]| rows.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                let want: Vec<f64> = want.iter().map(|r| 1000.0 * r.clamp(0.0, 1.0)).collect();
                assert_eq!(bits(&kept), bits(&want), "{} pre-filters", pre.len());
                assert!(kept.iter().any(|&r| r > 0.0 && r < 999.0));
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
