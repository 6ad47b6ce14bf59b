//! Estimator-quality telemetry: predicted vs. actual, per operator.
//!
//! The paper's thesis is that a learned model predicts UDF-query cost well —
//! this module is where the system *measures its own prediction quality* at
//! runtime. After every [`crate::Executor::run`], `observe_run` compares
//! the plan's pre-execution annotations (cardinalities from whichever
//! estimator annotated it, work from the closed-form operator cost model
//! below) against the measured truth in the [`QueryRun`], and
//!
//! * aggregates the per-operator **q-errors** into registry histograms
//!   (`est.card.qerror.<kind>` / `est.cost.qerror.<kind>`) when profiling is
//!   on and the plan is annotated, and
//! * appends one [`FlightRecord`] to the global flight recorder
//!   (`graceful_obs::flight`, armed by `GRACEFUL_FLIGHT=path`) carrying the
//!   full predicted/actual picture per operator.
//!
//! Q-errors use `graceful_common::metrics::q_error` — the *same* function
//! the paper metrics and the offline flight-record reader use, so a q-error
//! recomputed from a parsed JSONL record matches the registry histograms bit
//! for bit.
//!
//! Everything here is write-only observability, **outside the bit-identity
//! contract**: `tests/parallel_determinism.rs` proves flight-recorded runs
//! are bit-identical to plain runs. When both profiling and the flight
//! recorder are off, `observe_run` costs one relaxed atomic load.

use crate::engine::{ExecConfig, QueryRun};
use crate::profile::plan_op_name;
use graceful_common::metrics::q_error;
use graceful_obs::flight::{self, FlightOp, FlightRecord};
use graceful_obs::registry::histogram;
use graceful_plan::{Plan, PlanOpKind};
use graceful_udf::{CostWeights, UdfDef};

/// Loop trip count assumed by the static UDF cost prior. The real trip
/// count is data-dependent (`range(n)` over a column expression); a fixed
/// small prior keeps the estimate cheap and *measurably* wrong — the
/// `est.cost.qerror.udf_*` histograms quantify exactly how wrong, which is
/// the gap the learned estimator exists to close.
pub const ASSUMED_LOOP_TRIPS: f64 = 8.0;

/// Closed-form per-row cost prior for one UDF invocation, from static shape
/// counts only (no execution): invocation overhead plus one arithmetic
/// charge per AST operation, a branch charge per conditional, and
/// [`ASSUMED_LOOP_TRIPS`] iterations per loop. This deliberately ignores
/// operand types, library-call tiers and data-dependent control flow — it
/// is the "what a textbook optimizer would guess" baseline the q-error
/// telemetry scores.
pub fn static_udf_row_cost(def: &UdfDef, n_args: usize, w: &CostWeights) -> f64 {
    w.invoke_base
        + n_args as f64 * w.invoke_per_arg
        + w.return_conv
        + def.op_count() as f64 * w.arith
        + def.branch_count() as f64 * w.branch
        + def.loop_count() as f64 * ASSUMED_LOOP_TRIPS * (w.loop_iter + w.arith)
}

/// Whether `plan` carries cardinality annotations (any estimator ran over
/// it). Un-annotated plans have nothing to score predictions against.
pub fn is_annotated(plan: &Plan) -> bool {
    plan.ops.iter().any(|o| o.est_out_rows > 0.0)
}

/// Predicted work units per operator: the executor's own closed-form
/// charges ([`crate::OperatorWeights::scan`] / `filter` / `join` / `agg` —
/// the one place each formula is written) evaluated over the plan's
/// *estimated* cardinalities (`est_out_rows`) instead of the measured ones,
/// so with exact estimates the prediction equals `QueryRun::op_work` bit for
/// bit on those operators. Same indexing as `plan.ops`. UDF operators, whose
/// real cost is data-dependent, use the static per-row prior of
/// [`static_udf_row_cost`].
pub fn estimated_work(plan: &Plan, config: &ExecConfig) -> Vec<f64> {
    let w = &config.weights;
    let est = |i: usize| plan.ops[i].est_out_rows;
    plan.ops
        .iter()
        .enumerate()
        .map(|(i, op)| match &op.kind {
            PlanOpKind::Scan { .. } => w.scan(est(i)),
            PlanOpKind::Filter { preds } => w.filter(est(op.children[0]), preds.len()),
            PlanOpKind::Join { .. } => w.join(est(op.children[1]), est(op.children[0]), est(i)),
            PlanOpKind::UdfFilter { udf, .. } => {
                let row =
                    static_udf_row_cost(&udf.def, udf.input_columns.len(), &config.udf_weights);
                est(op.children[0]) * (row + w.udf_compare)
            }
            PlanOpKind::UdfProject { udf } => {
                let row =
                    static_udf_row_cost(&udf.def, udf.input_columns.len(), &config.udf_weights);
                est(op.children[0]) * (row + w.project_row)
            }
            PlanOpKind::Agg { .. } => w.agg(est(op.children[0])),
        })
        .collect()
}

/// Registry histogram key suffix for one operator: the lowercase kind name.
fn op_key(kind: &PlanOpKind) -> String {
    kind.name().to_ascii_lowercase()
}

/// Build the [`FlightRecord`] for one finished run: the stable plan
/// fingerprint, the exec options, the contracted results, and — per
/// operator — predicted vs. actual rows/work with their q-errors
/// (`None` when the plan was never annotated). `model_pred_ns` is the
/// whole-query model prediction when one was staged. This is the single
/// construction path for `explain analyze`: render it with
/// [`FlightRecord::render_analyze`].
pub fn flight_record(
    plan: &Plan,
    config: &ExecConfig,
    run: &QueryRun,
    seed: u64,
    model_pred_ns: Option<f64>,
) -> FlightRecord {
    let annotated = is_annotated(plan);
    let est_work = estimated_work(plan, config);
    let ops = plan
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let rows = run.out_rows[i] as u64;
            let work = run.op_work[i];
            let (wall_ns, batches) =
                run.profile.as_ref().map_or((0, 0), |p| (p.ops[i].wall_ns, p.ops[i].batches));
            FlightOp {
                op: plan_op_name(&op.kind),
                kind: op.kind.name().to_string(),
                est_rows: op.est_out_rows,
                rows,
                card_q: annotated.then(|| q_error(op.est_out_rows, rows as f64)),
                est_work: est_work[i],
                work,
                cost_q: annotated.then(|| q_error(est_work[i], work)),
                wall_ns,
                batches,
            }
        })
        .collect();
    FlightRecord {
        seed,
        plan: plan.fingerprint_hex(),
        threads: config.threads as u64,
        morsel: config.morsel_rows as u64,
        udf_batch: config.udf_batch_size as u64,
        wall_ns: run.profile.as_ref().map_or(0, |p| p.total_wall_ns),
        runtime_ns: run.runtime_ns,
        agg_value: run.agg_value,
        udf_rows: run.udf_input_rows as u64,
        model_pred_ns,
        model_q: model_pred_ns.map(|p| q_error(p, run.runtime_ns)),
        ops,
    }
}

/// Post-run observation hook, called by [`crate::Executor::run`] on every
/// successful query. Costs one atomic load when both profiling and the
/// flight recorder are off.
pub(crate) fn observe_run(plan: &Plan, config: &ExecConfig, run: &QueryRun, seed: u64) {
    if !flight::enabled() && !config.profile {
        return;
    }
    if config.profile && is_annotated(plan) {
        let est_work = estimated_work(plan, config);
        for (i, op) in plan.ops.iter().enumerate() {
            let key = op_key(&op.kind);
            histogram(&format!("est.card.qerror.{key}"))
                .record(q_error(op.est_out_rows, run.out_rows[i] as f64));
            histogram(&format!("est.cost.qerror.{key}"))
                .record(q_error(est_work[i], run.op_work[i]));
        }
    }
    if flight::enabled() {
        let pred = flight::take_staged_prediction();
        flight::record(&flight_record(plan, config, run, seed, pred));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_plan::{AggFunc, ColRef, PlanOp};
    use graceful_udf::parse_udf;
    use graceful_udf::GeneratedUdf;
    use std::sync::Arc;

    fn udf() -> Arc<GeneratedUdf> {
        let def = parse_udf(
            "def f(x0):\n    z = x0 + 1\n    if x0 < 3:\n        z = z * 2\n    return z\n",
        )
        .unwrap();
        Arc::new(GeneratedUdf {
            source: graceful_udf::print_udf(&def),
            def,
            table: "t".into(),
            input_columns: vec!["x0".into()],
            adaptations: vec![],
        })
    }

    fn annotated_plan() -> Plan {
        let mut plan = Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "t".into() }, vec![]),
                PlanOp::new(
                    PlanOpKind::UdfFilter {
                        udf: udf(),
                        op: graceful_udf::ast::CmpOp::Ge,
                        literal: 0.0,
                    },
                    vec![0],
                ),
                PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![1]),
            ],
            root: 2,
        };
        plan.ops[0].est_out_rows = 100.0;
        plan.ops[1].est_out_rows = 50.0;
        plan.ops[2].est_out_rows = 1.0;
        plan
    }

    #[test]
    fn estimated_work_mirrors_engine_charging() {
        let plan = annotated_plan();
        let config = ExecConfig::base();
        let est = estimated_work(&plan, &config);
        assert_eq!(est.len(), 3);
        assert_eq!(est[0], 100.0 * config.weights.scan_row);
        let row = static_udf_row_cost(&udf().def, 1, &config.udf_weights);
        assert_eq!(est[1], 100.0 * (row + config.weights.udf_compare));
        assert_eq!(est[2], 50.0 * config.weights.agg_row);
        assert!(row > config.udf_weights.invoke_base, "prior counts the body");
    }

    #[test]
    fn join_estimate_uses_both_children_and_output() {
        let mut plan = Plan {
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
                PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![2]),
            ],
            root: 3,
        };
        plan.ops[0].est_out_rows = 10.0;
        plan.ops[1].est_out_rows = 20.0;
        plan.ops[2].est_out_rows = 30.0;
        plan.ops[3].est_out_rows = 1.0;
        let config = ExecConfig::base();
        let w = &config.weights;
        let est = estimated_work(&plan, &config);
        assert_eq!(
            est[2],
            20.0 * w.join_build_row + 10.0 * w.join_probe_row + 30.0 * w.join_out_row
        );
    }

    #[test]
    fn annotation_detection_and_op_keys() {
        let plan = annotated_plan();
        assert!(is_annotated(&plan));
        let mut blank = plan.clone();
        for op in &mut blank.ops {
            op.est_out_rows = 0.0;
        }
        assert!(!is_annotated(&blank));
        assert_eq!(op_key(&plan.ops[0].kind), "scan");
        assert_eq!(op_key(&plan.ops[1].kind), "udf_filter");
        assert_eq!(op_key(&plan.ops[2].kind), "agg");
    }
}
