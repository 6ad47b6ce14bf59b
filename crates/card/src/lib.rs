//! Cardinality estimation (the ladder of Table III) and hit-ratio estimation
//! (Section III-B).
//!
//! The paper evaluates GRACEFUL under four cardinality annotation methods of
//! decreasing quality: **actual** cardinalities, **DeepDB** (data-driven),
//! **WanderJoin** (sampling) and the **DuckDB optimizer** (histogram +
//! independence). This crate implements a functional stand-in for each:
//!
//! | Paper | Here | Technique | Failure mode |
//! |---|---|---|---|
//! | Actual | [`ActualCard`] | execute the plan | none (oracle) |
//! | DeepDB | [`DataDrivenCard`] | per-table row samples evaluate filter conjunctions exactly; FK fan-out from key statistics | cross-join correlations, sampling floor |
//! | WanderJoin | [`SamplingCard`] | push a row sample through the plan (sampling-based join estimation) | variance on selective queries (heavy tails) |
//! | DuckDB | [`NaiveCard`] | uniformity + attribute independence | correlated predicates, skewed fan-outs |
//!
//! All estimators implement [`CardEstimator`]: they annotate whole plans
//! bottom-up and expose conjunctive single-table selectivities, which is the
//! primitive the **hit-ratio estimator** ([`hit_ratio::HitRatioEstimator`])
//! uses after rewriting UDF branch conditions back into predicates over the
//! UDF's input columns.
//!
//! UDF-filter operators themselves are *not estimatable* by any method (the
//! paper's central observation): during corpus annotation their selectivity
//! is taken from the recorded ground truth (the model must still learn
//! everything else), while the advisor of Section IV instead *enumerates*
//! selectivities via [`scale_above_udf`].

#![forbid(unsafe_code)]

pub mod actual;
pub mod datadriven;
pub mod hit_ratio;
pub mod naive;
pub mod sampling;

use graceful_common::Result;
use graceful_plan::{Plan, PlanOpKind, Pred};
use graceful_storage::Value;
use graceful_udf::ast::CmpOp;

pub use actual::ActualCard;
pub use datadriven::DataDrivenCard;
pub use hit_ratio::HitRatioEstimator;
pub use naive::NaiveCard;
pub use sampling::SamplingCard;

/// A cardinality estimator.
pub trait CardEstimator {
    /// Display name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Fill `est_out_rows` for every operator, bottom-up.
    ///
    /// UDF-filter selectivity is copied from the plan's recorded actual
    /// cardinalities when available (see module docs) and defaults to 0.5
    /// otherwise.
    fn annotate(&self, plan: &mut Plan) -> Result<()>;

    /// Selectivity of a conjunction of single-table predicates.
    fn conjunction_selectivity(&self, table: &str, preds: &[Pred]) -> f64;
}

/// The UDF-filter selectivity hint used during corpus annotation: the true
/// selectivity when the plan has been executed, 0.5 otherwise.
pub(crate) fn udf_filter_hint(plan: &Plan, idx: usize) -> f64 {
    let op = &plan.ops[idx];
    let child = op.children[0];
    let input = plan.ops[child].actual_out_rows;
    if input > 0.0 && op.actual_out_rows >= 0.0 && op.actual_out_rows <= input {
        (op.actual_out_rows / input).clamp(0.0, 1.0)
    } else {
        0.5
    }
}

/// Rescale the estimated cardinalities of every operator above the UDF
/// filter by assuming the UDF filter keeps `selectivity` of its input —
/// the per-selectivity graph instantiation of the advisor (Figure 4).
///
/// The UDF filter's own output is set to `input × selectivity`; every
/// ancestor's estimate is multiplied by the ratio between the new and the
/// previously annotated UDF output.
pub fn scale_above_udf(plan: &mut Plan, selectivity: f64) {
    let Some(udf_idx) = plan.udf_op() else { return };
    let child = plan.ops[udf_idx].children[0];
    let input = plan.ops[child].est_out_rows.max(0.0);
    let old_out = plan.ops[udf_idx].est_out_rows.max(1e-9);
    let new_out = input * selectivity.clamp(0.0, 1.0);
    let ratio = new_out / old_out;
    plan.ops[udf_idx].est_out_rows = new_out;
    for anc in plan.ops_above(udf_idx) {
        if matches!(plan.ops[anc].kind, PlanOpKind::Agg { .. }) {
            plan.ops[anc].est_out_rows = 1.0;
        } else {
            plan.ops[anc].est_out_rows *= ratio;
        }
    }
}

/// `hit[i] &= cell i op literal` over a numeric column — the matcher both
/// count-based estimators run, one typed pass per predicate. It keeps
/// `Pred::matches`' outcome: `Value::compare` widens Int and Bool cells and
/// literals to `f64` (`Value::as_f64`) and orders them with `partial_cmp`,
/// so a NULL cell, passed as NaN, matches under no operator, and neither
/// does any cell against a NaN, Text or NULL literal.
pub(crate) fn and_num(hit: &mut [bool], xs: impl Iterator<Item = f64>, op: CmpOp, literal: &Value) {
    let Some(y) = literal.as_f64() else {
        return hit.fill(false);
    };
    // One loop per operator, so that each compiles to a bare comparison.
    let and =
        |op| hit.iter_mut().zip(xs).for_each(|(h, x)| *h &= Pred::accepts(op, x.partial_cmp(&y)));
    match op {
        CmpOp::Lt => and(CmpOp::Lt),
        CmpOp::Le => and(CmpOp::Le),
        CmpOp::Gt => and(CmpOp::Gt),
        CmpOp::Ge => and(CmpOp::Ge),
        CmpOp::Eq => and(CmpOp::Eq),
        CmpOp::Ne => and(CmpOp::Ne),
    }
}

/// [`and_num`] over a text column, a NULL cell passed as `None`: only a
/// Text literal compares with text.
pub(crate) fn and_text<'a>(
    hit: &mut [bool],
    xs: impl Iterator<Item = Option<&'a str>>,
    op: CmpOp,
    literal: &Value,
) {
    let Value::Text(y) = literal else {
        return hit.fill(false);
    };
    for (h, x) in hit.iter_mut().zip(xs) {
        *h &= Pred::accepts(op, x.map(|x| x.cmp(y)));
    }
}

/// Shared annotation skeleton: walks the arena bottom-up and delegates the
/// table-level and join-level decisions to the estimator via callbacks.
pub(crate) fn annotate_with<FS, FJ>(
    plan: &mut Plan,
    mut scan_rows: FS,
    mut join_out: FJ,
    filter_sel: impl Fn(&str, &[Pred]) -> f64,
) -> Result<()>
where
    FS: FnMut(&str) -> f64,
    FJ: FnMut(&Plan, usize, f64, f64) -> f64,
{
    for idx in 0..plan.ops.len() {
        let est = match &plan.ops[idx].kind {
            PlanOpKind::Scan { table } => scan_rows(table),
            PlanOpKind::Filter { preds } => {
                let input = plan.ops[plan.ops[idx].children[0]].est_out_rows;
                let table = preds.first().map_or("", |p| p.col.table.as_str());
                input * filter_sel(table, preds)
            }
            PlanOpKind::Join { .. } => {
                let l = plan.ops[plan.ops[idx].children[0]].est_out_rows;
                let r = plan.ops[plan.ops[idx].children[1]].est_out_rows;
                join_out(plan, idx, l, r)
            }
            PlanOpKind::UdfFilter { .. } => {
                let input = plan.ops[plan.ops[idx].children[0]].est_out_rows;
                input * udf_filter_hint(plan, idx)
            }
            PlanOpKind::UdfProject { .. } => plan.ops[plan.ops[idx].children[0]].est_out_rows,
            PlanOpKind::Agg { .. } => 1.0,
        };
        plan.ops[idx].est_out_rows = est.max(0.0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_plan::{AggFunc, ColRef, PlanOp};
    use graceful_udf::ast::CmpOp;
    use graceful_udf::GeneratedUdf;
    use std::sync::Arc;

    fn udf_plan() -> Plan {
        let udf = Arc::new(GeneratedUdf {
            def: graceful_udf::parse_udf("def f(x0):\n    return x0\n").unwrap(),
            source: String::new(),
            table: "a".into(),
            input_columns: vec!["x".into()],
            adaptations: vec![],
        });
        Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "a".into() }, vec![]),
                PlanOp::new(PlanOpKind::Scan { table: "b".into() }, vec![]),
                PlanOp::new(
                    PlanOpKind::Join {
                        left_col: ColRef::new("a", "id"),
                        right_col: ColRef::new("b", "a_id"),
                    },
                    vec![0, 1],
                ),
                PlanOp::new(PlanOpKind::UdfFilter { udf, op: CmpOp::Le, literal: 1.0 }, vec![2]),
                PlanOp::new(
                    PlanOpKind::Join {
                        left_col: ColRef::new("a", "id"),
                        right_col: ColRef::new("b", "a_id"),
                    },
                    vec![3, 3],
                ),
                PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![4]),
            ],
            root: 5,
        }
    }

    #[test]
    fn scale_above_udf_rescales_ancestors() {
        let mut plan = udf_plan();
        // Pretend the plan was annotated: UDF input 1000, output 500 (sel .5),
        // join above 2000.
        plan.ops[0].est_out_rows = 1000.0;
        plan.ops[1].est_out_rows = 10.0;
        plan.ops[2].est_out_rows = 1000.0;
        plan.ops[3].est_out_rows = 500.0;
        plan.ops[4].est_out_rows = 2000.0;
        plan.ops[5].est_out_rows = 1.0;
        scale_above_udf(&mut plan, 0.1);
        assert!((plan.ops[3].est_out_rows - 100.0).abs() < 1e-9);
        assert!((plan.ops[4].est_out_rows - 400.0).abs() < 1e-9);
        assert_eq!(plan.ops[5].est_out_rows, 1.0);
        // Below the UDF nothing changes.
        assert_eq!(plan.ops[2].est_out_rows, 1000.0);
    }

    #[test]
    fn udf_hint_uses_recorded_truth() {
        let mut plan = udf_plan();
        plan.ops[2].actual_out_rows = 800.0;
        plan.ops[3].actual_out_rows = 200.0;
        assert!((udf_filter_hint(&plan, 3) - 0.25).abs() < 1e-12);
        plan.ops[2].actual_out_rows = 0.0;
        assert_eq!(udf_filter_hint(&plan, 3), 0.5);
    }
}
