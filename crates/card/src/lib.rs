//! Cardinality estimation (the ladder of Table III) and hit-ratio estimation
//! (Section III-B).
//!
//! The paper evaluates GRACEFUL under four cardinality annotation methods of
//! decreasing quality: **actual** cardinalities, **DeepDB** (data-driven),
//! **WanderJoin** (sampling) and the **DuckDB optimizer** (uniformity between
//! min and max, 1/NDV equality and independence). This crate implements a
//! functional stand-in for each:
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
//!
//! # The contract
//!
//! Every call is a function of the estimator's seed, its input (a plan, or a
//! table and a conjunction) and the data, never of the calls before it (the
//! sampling estimator draws each call from a fresh stream of its seed). Every
//! `annotate` first runs [`Plan::validate`] (`verify_structure`, the one
//! definition of a well-formed plan), so a malformed plan is a `PlanVerify`
//! error naming the operator under every estimator.

#![forbid(unsafe_code)]

pub mod actual;
pub mod datadriven;
pub mod hit_ratio;
pub mod naive;
pub mod sampling;

use graceful_common::Result;
use graceful_plan::predicate::RowTest;
use graceful_plan::{Plan, PlanOpKind, Pred};
use graceful_storage::Table;

pub use actual::ActualCard;
pub use datadriven::DataDrivenCard;
pub use hit_ratio::HitRatioEstimator;
pub use naive::NaiveCard;
pub use sampling::SamplingCard;

/// A cardinality estimator.
pub trait CardEstimator {
    /// Display name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Validate the plan, then fill `est_out_rows` for every operator, bottom-up.
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
    if let Some(rows) = scale_ladder(plan, &[selectivity]).pop() {
        plan.ops.iter_mut().zip(rows).for_each(|(op, rows)| op.est_out_rows = rows);
    }
}

/// Every operator's estimate after [`scale_above_udf`] at each of
/// `selectivities`, the plan left as it is: the advisor's ladder of one
/// placement, one estimate vector per assumed selectivity.
pub fn scale_ladder(plan: &Plan, selectivities: &[f64]) -> Vec<Vec<f64>> {
    let rows: Vec<f64> = plan.ops.iter().map(|op| op.est_out_rows).collect();
    let Some(udf_idx) = plan.udf_op() else { return vec![rows; selectivities.len()] };
    let above = plan.ops_above(udf_idx);
    let child = plan.ops[udf_idx].children.first().and_then(|&c| rows.get(c));
    let input = child.map_or(0.0, |r| r.max(0.0));
    let old_out = rows[udf_idx].max(1e-9);
    let variant = |&selectivity: &f64| {
        let (mut rows, new_out) = (rows.clone(), input * selectivity.clamp(0.0, 1.0));
        let ratio = new_out / old_out;
        rows[udf_idx] = new_out;
        for &anc in &above {
            let agg = matches!(plan.ops[anc].kind, PlanOpKind::Agg { .. });
            rows[anc] = if agg { 1.0 } else { rows[anc] * ratio };
        }
        rows
    };
    selectivities.iter().map(variant).collect()
}

/// How many of the rows `ids` of `table` pass every predicate of the
/// conjunction `preds`: the executor's FILTER test ([`RowTest`]), compiled
/// once for `ids.len()` rows, narrowing at most [`CHUNK_ROWS`] ids at a
/// time so that a whole-table count holds no table-sized selection. Each
/// predicate reads its column of `table` by name.
pub(crate) fn count_passing(
    table: &Table,
    preds: &[Pred],
    mut ids: impl ExactSizeIterator<Item = u32>,
) -> usize {
    let tests: Vec<_> = preds.iter().map(|p| RowTest::compile(p, table, ids.len())).collect();
    let (mut sel, mut passing) = (Vec::with_capacity(ids.len().min(CHUNK_ROWS)), 0);
    loop {
        sel.clear();
        sel.extend(ids.by_ref().take(CHUNK_ROWS));
        if sel.is_empty() {
            return passing;
        }
        tests.iter().for_each(|test| test.narrow(&mut sel, |r| r as usize));
        passing += sel.len();
    }
}

/// Row ids [`count_passing`] narrows at once (a 16 KiB selection).
const CHUNK_ROWS: usize = 4096;

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
    plan.validate()?;
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
        let udf = Arc::new(GeneratedUdf::new(
            graceful_udf::parse_udf("def f(x0):\n    return x0\n").unwrap(),
            "a",
            vec!["x".into()],
        ));
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

    /// A UDF operator without a child scales from no input rows: every
    /// variant sets it to 0 and scales the operators above by the same
    /// ratio, without reading past the operator's children.
    #[test]
    fn scale_ladder_reads_a_childless_udf_op_as_empty_input() {
        let mut plan = udf_plan();
        plan.ops[3].children.clear();
        plan.ops.iter_mut().for_each(|op| op.est_out_rows = 10.0);
        let ladder = scale_ladder(&plan, &[0.1, 1.0]);
        assert_eq!(ladder, vec![vec![10.0, 10.0, 10.0, 0.0, 0.0, 1.0]; 2]);
    }

    /// A NaN literal matches no row, so no estimator may turn it into a
    /// NaN: under every operator, a FILTER on a NaN, an Int or a Text
    /// literal, alone or all three in one conjunction, gets a finite,
    /// non-negative estimate on every operator and a selectivity in [0, 1]
    /// from all four estimators.
    #[test]
    fn every_estimator_is_finite_on_nan_int_or_text_literals() {
        use graceful_storage::{Column, ColumnData, Database, Table, Value};
        let n = 200;
        let text = ColumnData::Text((0..n).map(|r| format!("v{}", r % 5)).collect());
        let columns = vec![
            Column::new("f", ColumnData::Float((0..n).map(|r| r as f64 / 7.0).collect())),
            Column::new("i", ColumnData::Int((0..n as i64).map(|r| r % 13).collect())),
            Column::with_nulls("s", text, (0..n).map(|r| r % 9 == 0).collect()),
        ];
        let db = Database::new("d", vec![Table::new("t", columns).unwrap()]);
        let estimators: [Box<dyn CardEstimator>; 4] = [
            Box::new(ActualCard::new(&db)),
            Box::new(DataDrivenCard::build(&db, 1)),
            Box::new(SamplingCard::new(&db, 100, 1)),
            Box::new(NaiveCard::new(&db)),
        ];
        for op in CmpOp::ALL {
            let preds = [
                Pred::new("t", "f", op, Value::Float(f64::NAN)),
                Pred::new("t", "i", op, Value::Int(4)),
                Pred::new("t", "s", op, Value::Text("v2".into())),
            ];
            for est in &estimators {
                for conj in preds.iter().map(|p| vec![p.clone()]).chain([preds.to_vec()]) {
                    let sel = est.conjunction_selectivity("t", &conj);
                    assert!((0.0..=1.0).contains(&sel), "{}: {conj:?} -> {sel}", est.name());
                    let scan = PlanOp::new(PlanOpKind::Scan { table: "t".into() }, vec![]);
                    let filter = PlanOp::new(PlanOpKind::Filter { preds: conj.clone() }, vec![0]);
                    let count = AggFunc::CountStar;
                    let agg = PlanOp::new(PlanOpKind::Agg { func: count, column: None }, vec![1]);
                    let mut plan = Plan { ops: vec![scan, filter, agg], root: 2 };
                    est.annotate(&mut plan).unwrap();
                    for o in &plan.ops {
                        let e = o.est_out_rows;
                        assert!(e.is_finite() && e >= 0.0, "{}: {conj:?} -> {e}", est.name());
                    }
                }
            }
            let nan = &preds[..1];
            assert_eq!(estimators[3].conjunction_selectivity("t", nan), 0.0, "{op:?}");
            assert_eq!(estimators[0].conjunction_selectivity("t", nan), 0.0, "{op:?}");
        }
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
