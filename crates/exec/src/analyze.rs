//! Estimator-quality telemetry: predicted vs. actual, per operator.
//!
//! The paper's thesis is that a learned model predicts UDF-query cost well —
//! this module is where the system *measures its own prediction quality* at
//! runtime. `observe` builds an observed run's one `FlightRecord`, scoring
//! the plan's pre-execution annotations
//! (cardinalities from whichever estimator annotated it, work from the
//! closed-form operator cost model below) against the measured truth in the
//! [`QueryRun`], computing each operator's q-errors once. That record is the
//! one source of the registry histograms `est.card.qerror.<kind>` /
//! `est.cost.qerror.<kind>` (profiling on, plan annotated) and the one
//! record the global flight recorder (`graceful_obs::flight`, armed by
//! `GRACEFUL_FLIGHT=path`) appends.
//!
//! Q-errors use `graceful_common::metrics::q_error` — the *same* function
//! the paper metrics and the offline flight-record reader use, so a q-error
//! recomputed from a parsed JSONL record matches the registry histograms bit
//! for bit.
//!
//! Everything here is write-only observability, **outside the bit-identity
//! contract**: `tests/parallel_determinism.rs` proves flight-recorded runs
//! are bit-identical to plain runs. With profiling and the flight recorder
//! off, [`Session::run`](crate::Session::run) builds no record; with
//! profiling on, the record it builds is the one its
//! [`ExecProfile`](crate::ExecProfile) holds.

use crate::engine::{ExecConfig, QueryRun};
use crate::physical::OpTally;
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
/// [`static_udf_row_cost`]. A child the operator lacks, or one outside the
/// plan, counts as 0 rows (as in `graceful_card::scale_ladder`), so every
/// plan gets a finite vector.
pub fn estimated_work(plan: &Plan, config: &ExecConfig) -> Vec<f64> {
    let (w, udf_costs) = (&config.weights, CostWeights::default());
    let rows = |i: Option<&usize>| i.and_then(|&i| plan.ops.get(i)).map_or(0.0, |o| o.est_out_rows);
    plan.ops
        .iter()
        .map(|op| {
            let child = |k: usize| rows(op.children.get(k));
            match &op.kind {
                PlanOpKind::Scan { .. } => w.scan(op.est_out_rows),
                PlanOpKind::Filter { preds } => w.filter(child(0), preds.len()),
                PlanOpKind::Join { .. } => w.join(child(1), child(0), op.est_out_rows),
                PlanOpKind::UdfFilter { udf, .. } => {
                    let row = static_udf_row_cost(&udf.def, udf.input_columns.len(), &udf_costs);
                    child(0) * (row + w.udf_compare)
                }
                PlanOpKind::UdfProject { udf } => {
                    let row = static_udf_row_cost(&udf.def, udf.input_columns.len(), &udf_costs);
                    child(0) * (row + w.project_row)
                }
                PlanOpKind::Agg { .. } => w.agg(child(0)),
            }
        })
        .collect()
}

/// Registry histogram key suffix for one operator: the lowercase kind name.
fn op_key(kind: &PlanOpKind) -> String {
    kind.name().to_ascii_lowercase()
}

/// Human-readable operator description for the record's `op` field.
fn plan_op_name(kind: &PlanOpKind) -> String {
    match kind {
        PlanOpKind::Scan { table } => format!("SCAN {table}"),
        PlanOpKind::Filter { preds } => format!("FILTER[{}]", preds.len()),
        PlanOpKind::Join { left_col, right_col } => format!("JOIN {left_col}={right_col}"),
        PlanOpKind::UdfFilter { udf, op, literal } => {
            format!("UDF_FILTER {}(..) {op:?} {literal}", udf.def.name)
        }
        PlanOpKind::UdfProject { udf } => format!("UDF_PROJECT {}(..)", udf.def.name),
        PlanOpKind::Agg { func, .. } => format!("AGG {func:?}"),
    }
}

/// Build the [`FlightRecord`] of one finished run and hand it to its
/// consumers. The record holds the stable plan fingerprint, the exec
/// options, the query's wall time `wall_ns`, the contracted results, and —
/// per operator — predicted vs. actual rows/work with their q-errors
/// (`None` when the plan was never annotated) and the driver's wall
/// self-time and batch count from `ops`. `model_pred_ns` is the model's
/// whole-query prediction, when the run was given one. This is the single
/// construction path for `explain analyze`: render it with
/// [`FlightRecord::render_analyze`]. With profiling on, its per-op q-errors
/// go into the `est.*` histograms (an un-annotated plan has none); with the
/// flight recorder on, the record itself is appended.
pub(crate) fn observe(
    plan: &Plan,
    config: &ExecConfig,
    run: &QueryRun,
    ops: &[OpTally],
    wall_ns: u64,
    seed: u64,
    model_pred_ns: Option<f64>,
) -> FlightRecord {
    let annotated = is_annotated(plan);
    let est_work = estimated_work(plan, config);
    let ops = plan
        .ops
        .iter()
        .zip(ops)
        .enumerate()
        .map(|(i, (op, tally))| {
            let rows = run.out_rows[i] as u64;
            let work = run.op_work[i];
            FlightOp {
                op: plan_op_name(&op.kind),
                kind: op.kind.name().to_string(),
                est_rows: op.est_out_rows,
                rows,
                card_q: annotated.then(|| q_error(op.est_out_rows, rows as f64)),
                est_work: est_work[i],
                work,
                cost_q: annotated.then(|| q_error(est_work[i], work)),
                wall_ns: tally.wall_ns,
                batches: tally.batches,
            }
        })
        .collect();
    let record = FlightRecord {
        seed,
        plan: plan.fingerprint_hex(),
        threads: config.threads as u64,
        morsel: config.morsel_rows as u64,
        udf_batch: config.udf_batch_size as u64,
        wall_ns,
        runtime_ns: run.runtime_ns,
        agg_value: run.agg_value.is_finite().then_some(run.agg_value),
        udf_rows: run.udf_input_rows as u64,
        model_pred_ns,
        model_q: model_pred_ns.map(|p| q_error(p, run.runtime_ns)),
        ops,
    };
    if config.profile {
        for (op, scored) in plan.ops.iter().zip(&record.ops) {
            if let (Some(card_q), Some(cost_q)) = (scored.card_q, scored.cost_q) {
                let key = op_key(&op.kind);
                histogram(&format!("est.card.qerror.{key}")).record(card_q);
                histogram(&format!("est.cost.qerror.{key}")).record(cost_q);
            }
        }
    }
    flight::record(&record);
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecOptions, Session};
    use graceful_plan::{AggFunc, ColRef, PlanOp};
    use graceful_storage::{Column, ColumnData, Database, Table};
    use graceful_udf::parse_udf;
    use graceful_udf::GeneratedUdf;
    use std::sync::Arc;

    fn udf() -> Arc<GeneratedUdf> {
        let def = parse_udf(
            "def f(x0):\n    z = x0 + 1\n    if x0 < 3:\n        z = z * 2\n    return z\n",
        )
        .unwrap();
        Arc::new(GeneratedUdf::new(def, "t", vec!["x0".into()]))
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
        let row = static_udf_row_cost(&udf().def, 1, &CostWeights::default());
        assert_eq!(est[1], 100.0 * (row + config.weights.udf_compare));
        assert_eq!(est[2], 50.0 * config.weights.agg_row);
        assert!(row > CostWeights::default().invoke_base, "prior counts the body");
    }

    /// A plan no verifier has seen still prices: a one-child JOIN, a FILTER
    /// whose child is out of range and a childless UDF operator read a
    /// missing child as 0 rows.
    #[test]
    fn estimated_work_prices_missing_children_at_zero_rows() {
        let join = PlanOpKind::Join {
            left_col: ColRef::new("t", "x0"),
            right_col: ColRef::new("u", "x0"),
        };
        let mut plan = Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "t".into() }, vec![]),
                PlanOp::new(join, vec![0]),
                PlanOp::new(PlanOpKind::Filter { preds: vec![] }, vec![9]),
                PlanOp::new(PlanOpKind::UdfProject { udf: udf() }, vec![]),
            ],
            root: 1,
        };
        plan.ops.iter_mut().for_each(|op| op.est_out_rows = 40.0);
        let config = ExecConfig::base();
        let w = &config.weights;
        let est = estimated_work(&plan, &config);
        assert_eq!(est.len(), 4);
        assert!(est.iter().all(|x| x.is_finite()), "{est:?}");
        assert_eq!(est[1], w.join(0.0, 40.0, 40.0));
        assert_eq!(est[2], w.filter(0.0, 0));
        assert_eq!(est[3], 0.0);
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

    /// The flight recorder is process-global: the tests that switch it on
    /// take turns, and each finds its own records by seed.
    static FLIGHT: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// `SUM(x)` over the five rows `[1, 2, NaN, NaN, 1]` of table `t`.
    fn nan_sum() -> (Database, Plan) {
        let x = vec![1.0, 2.0, f64::NAN, f64::NAN, 1.0];
        let table = Table::new("t", vec![Column::new("x", ColumnData::Float(x))]).unwrap();
        let plan = Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "t".into() }, vec![]),
                PlanOp::new(
                    PlanOpKind::Agg { func: AggFunc::Sum, column: Some(ColRef::new("t", "x")) },
                    vec![0],
                ),
            ],
            root: 1,
        };
        (Database::new("nandb", vec![table]), plan)
    }

    /// The records of this process's recorder with seed `seed`.
    fn recorded(seed: u64) -> Vec<FlightRecord> {
        let all = flight::parse_jsonl(&flight::export_jsonl()).expect("every line parses");
        all.into_iter().filter(|r| r.seed == seed).collect()
    }

    #[test]
    fn a_failed_run_leaves_its_prediction_on_no_other_query() {
        let _turn = FLIGHT.lock().unwrap_or_else(|e| e.into_inner());
        let (db, plan) = nan_sum();
        let capped = ExecOptions::new().max_intermediate_rows(2).build().unwrap();
        let (failing, plain) = (0x1ea4_0001, 0x1ea4_0002);
        flight::enable();
        let failed = capped.run_analyzed(&db, &plan, failing, Some(12_345.0));
        Session::new().run(&db, &plan, plain).unwrap();
        flight::disable();
        assert!(failed.is_err(), "5 scanned rows exceed the cap of 2");
        assert!(recorded(failing).is_empty(), "a failed run records nothing");
        let records = recorded(plain);
        assert_eq!(records.len(), 1);
        assert_eq!((records[0].model_pred_ns, records[0].model_q), (None, None));
    }

    #[test]
    fn a_nan_aggregate_records_a_line_that_parses() {
        let _turn = FLIGHT.lock().unwrap_or_else(|e| e.into_inner());
        let (db, plan) = nan_sum();
        let seed = 0x1ea4_0003;
        flight::enable();
        let (run, record) = Session::new().run_analyzed(&db, &plan, seed, None).unwrap();
        flight::disable();
        assert!(run.agg_value.is_nan());
        assert_eq!(record.agg_value, None);
        assert_eq!(recorded(seed), vec![record], "the returned record is the one appended");
    }
}
