//! Monotone cardinality upper bounds.
//!
//! A bottom-up pass computing, per operator, a bound no correct execution
//! can exceed: scans emit at most the table's rows, filters and UDF
//! operators at most their input, joins at most the product of their inputs,
//! and the single-group aggregate exactly one value. Estimates above the
//! bound are *impossible*, not merely inaccurate — the cross-check
//! ([`verify_bounds`]) flags estimator bugs the q-error telemetry would
//! average away.

use crate::logical::{Plan, PlanOpKind};
use graceful_common::{GracefulError, Result};
use graceful_storage::Database;

/// Per-operator monotone output-cardinality upper bounds.
///
/// Runs [`verify_structure`](crate::analysis::verify_structure) first so the
/// bottom-up walk can index children freely; unknown scan tables are a
/// `PlanVerify` error.
pub fn upper_bounds(plan: &Plan, db: &Database) -> Result<Vec<f64>> {
    crate::analysis::verify_structure(plan)?;
    let mut bounds = vec![0.0f64; plan.ops.len()];
    for (i, op) in plan.ops.iter().enumerate() {
        bounds[i] = match &op.kind {
            PlanOpKind::Scan { table } => {
                let t = db.table(table).map_err(|_| {
                    GracefulError::PlanVerify(format!("op {i} (SCAN): unknown table {table}"))
                })?;
                t.num_rows() as f64
            }
            PlanOpKind::Filter { .. }
            | PlanOpKind::UdfFilter { .. }
            | PlanOpKind::UdfProject { .. } => bounds[op.children[0]],
            PlanOpKind::Join { .. } => bounds[op.children[0]] * bounds[op.children[1]],
            PlanOpKind::Agg { .. } => 1.0,
        };
    }
    Ok(bounds)
}

/// Cross-check `est_out_rows` annotations against the monotone bounds.
///
/// This is a *lint*, not part of the execution gate ([`verify`]): the
/// cardinality advisor's what-if scaling multiplies ancestor estimates by a
/// hypothetical UDF selectivity and can legitimately exceed the bound.
/// Estimators that annotate from actual data (`annotate`) must stay within
/// it — `examples/lint.rs` holds them to that.
///
/// A small relative-plus-absolute slack absorbs float rounding in estimator
/// arithmetic (selectivity products over large row counts).
///
/// [`verify`]: crate::analysis::verify
pub fn verify_bounds(plan: &Plan, db: &Database) -> Result<()> {
    let bounds = upper_bounds(plan, db)?;
    for (i, op) in plan.ops.iter().enumerate() {
        let est = op.est_out_rows;
        let kind = op.kind.name();
        if !est.is_finite() || est < 0.0 {
            return Err(GracefulError::PlanVerify(format!(
                "op {i} ({kind}): est_out_rows {est} is not finite and non-negative"
            )));
        }
        let slack = bounds[i] * 1e-9 + 1e-6;
        if est > bounds[i] + slack {
            return Err(GracefulError::PlanVerify(format!(
                "op {i} ({kind}): est_out_rows {est} exceeds the monotone upper bound {}",
                bounds[i]
            )));
        }
    }
    Ok(())
}
