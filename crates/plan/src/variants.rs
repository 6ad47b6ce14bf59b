//! UDF placement variants: push-down, intermediate positions, pull-up.
//!
//! The advisor of Section IV chooses between a plan that evaluates the UDF
//! filter directly above its base table (push-down — what every DBMS does by
//! default) and one that defers it to the top of the join tree (pull-up).
//! Table III additionally evaluates *intermediate* positions. All variants
//! share the same join order, mirroring the paper's Exp 5 setup where only
//! the UDF position is forced via optimizer hints.

use crate::logical::{AggFunc, Plan, PlanOp, PlanOpKind};
use crate::querygen::{QuerySpec, UdfUsage};
use graceful_common::{GracefulError, Result};

/// Where the UDF filter sits in the join tree: the number of joins executed
/// *below* it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UdfPlacement {
    /// Directly above the UDF's base table (0 joins below).
    PushDown,
    /// After `k` joins (1 ≤ k < total joins).
    Intermediate(usize),
    /// Above all joins.
    PullUp,
}

impl UdfPlacement {
    /// Joins below the UDF filter for a plan with `n_joins` joins.
    pub fn joins_below(self, n_joins: usize) -> usize {
        match self {
            UdfPlacement::PushDown => 0,
            UdfPlacement::Intermediate(k) => k.min(n_joins),
            UdfPlacement::PullUp => n_joins,
        }
    }

    /// All distinct placements available for a query with `n_joins` joins.
    pub fn available(n_joins: usize) -> Vec<UdfPlacement> {
        let mut out = vec![UdfPlacement::PushDown];
        for k in 1..n_joins {
            out.push(UdfPlacement::Intermediate(k));
        }
        if n_joins > 0 {
            out.push(UdfPlacement::PullUp);
        }
        out
    }

    pub fn label(self) -> &'static str {
        match self {
            UdfPlacement::PushDown => "Push-Down",
            UdfPlacement::Intermediate(_) => "Intermediate",
            UdfPlacement::PullUp => "Pull-Up",
        }
    }
}

/// Placements that are actually valid for `spec`.
///
/// `Intermediate(k)` requires the UDF's base table to be bound after `k`
/// joins: if the table only enters the walk at join `j`, positions `k < j`
/// do not exist (push-down still does — the filter then sits directly above
/// that table's scan, before its join).
pub fn valid_placements(spec: &QuerySpec) -> Vec<UdfPlacement> {
    let n = spec.joins.len();
    let udf = match &spec.udf {
        Some(u) => u,
        None => return vec![UdfPlacement::PushDown],
    };
    if spec.udf_usage == UdfUsage::Projection {
        return vec![UdfPlacement::PushDown];
    }
    let entry = if udf.table == spec.base_table {
        0
    } else {
        spec.joins.iter().position(|j| j.table == udf.table).map(|j| j + 1).unwrap_or(0)
    };
    let mut out = vec![UdfPlacement::PushDown];
    for k in entry.max(1)..n {
        out.push(UdfPlacement::Intermediate(k));
    }
    if n > 0 {
        out.push(UdfPlacement::PullUp);
    }
    out
}

/// Build the logical plan for `spec` with the UDF filter at `placement`.
///
/// The join order is the spec's FK-walk order (identical across
/// placements). Non-UDF filters are always pushed to their scans — the
/// paper only ever moves the *UDF* filter.
pub fn build_plan(spec: &QuerySpec, placement: UdfPlacement) -> Result<Plan> {
    let mut ops: Vec<PlanOp> = Vec::new();
    // Scan + pushed-down plain filters for one table; returns op index.
    let scan_of = |ops: &mut Vec<PlanOp>, table: &str| -> usize {
        ops.push(PlanOp::new(PlanOpKind::Scan { table: table.to_string() }, vec![]));
        let mut top = ops.len() - 1;
        let preds: Vec<_> = spec.filters.iter().filter(|p| p.col.table == table).cloned().collect();
        if !preds.is_empty() {
            ops.push(PlanOp::new(PlanOpKind::Filter { preds }, vec![top]));
            top = ops.len() - 1;
        }
        top
    };

    let udf_table = spec.udf.as_ref().map(|u| u.table.clone());
    let n_joins = spec.joins.len();
    let udf_filter = match (&spec.udf, spec.udf_usage) {
        (Some(u), UdfUsage::Filter) => Some(u),
        _ => None,
    };
    let udf_after_joins = udf_filter.map(|_| placement.joins_below(n_joins));

    let mut current = scan_of(&mut ops, &spec.base_table);
    let mut bound = vec![spec.base_table.clone()];
    // Push-down placement: UDF filter goes right above its table's scan —
    // which must be a bound table. If the UDF table enters later in the walk,
    // the filter attaches to that table's scan subtree instead.
    let mut udf_placed = false;
    // Every call is behind `udf_after_joins`, so only a UDF filter is placed.
    let place_udf = |ops: &mut Vec<PlanOp>, child: usize| -> usize {
        let Some(u) = udf_filter else { return child };
        ops.push(PlanOp::new(
            PlanOpKind::UdfFilter {
                udf: u.clone(),
                op: spec.udf_filter_op,
                literal: spec.udf_filter_literal,
            },
            vec![child],
        ));
        ops.len() - 1
    };

    if udf_after_joins == Some(0) && udf_table.as_deref() == Some(spec.base_table.as_str()) {
        current = place_udf(&mut ops, current);
        udf_placed = true;
    }
    for (j, step) in spec.joins.iter().enumerate() {
        let mut right = scan_of(&mut ops, &step.table);
        // Push-down onto a table that joins in later.
        if udf_after_joins == Some(0)
            && !udf_placed
            && udf_table.as_deref() == Some(step.table.as_str())
        {
            right = place_udf(&mut ops, right);
            udf_placed = true;
        }
        ops.push(PlanOp::new(
            PlanOpKind::Join { left_col: step.left_col.clone(), right_col: step.right_col.clone() },
            vec![current, right],
        ));
        current = ops.len() - 1;
        bound.push(step.table.clone());
        if let Some(k) = udf_after_joins {
            if k == j + 1 && !udf_placed {
                // The UDF's table must already be bound below this point.
                if !bound.iter().any(|t| Some(t.as_str()) == udf_table.as_deref()) {
                    return Err(GracefulError::InvalidPlan(format!(
                        "UDF table {:?} not bound after {} joins",
                        udf_table,
                        j + 1
                    )));
                }
                current = place_udf(&mut ops, current);
                udf_placed = true;
            }
        }
    }
    if udf_after_joins.is_some() && !udf_placed {
        // 0-join query or the requested position never materialised: place now.
        if !bound.iter().any(|t| Some(t.as_str()) == udf_table.as_deref()) {
            return Err(GracefulError::InvalidPlan(format!(
                "UDF table {udf_table:?} is not part of the join tree"
            )));
        }
        current = place_udf(&mut ops, current);
    }
    // Projection UDFs always compute after all joins/filters.
    if let (Some(u), UdfUsage::Projection) = (&spec.udf, spec.udf_usage) {
        ops.push(PlanOp::new(PlanOpKind::UdfProject { udf: u.clone() }, vec![current]));
        current = ops.len() - 1;
    }
    let agg_col = match (spec.udf_usage, &spec.udf) {
        (UdfUsage::Projection, Some(_)) => None, // aggregate the UDF output
        _ => spec.agg_col.clone(),
    };
    let func =
        if agg_col.is_none() && !(spec.udf_usage == UdfUsage::Projection && spec.udf.is_some()) {
            AggFunc::CountStar
        } else {
            spec.agg
        };
    ops.push(PlanOp::new(PlanOpKind::Agg { func, column: agg_col }, vec![current]));
    let root = ops.len() - 1;
    let plan = Plan { ops, root };
    plan.validate()?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_enumeration() {
        assert_eq!(UdfPlacement::available(0), vec![UdfPlacement::PushDown]);
        assert_eq!(
            UdfPlacement::available(3),
            vec![
                UdfPlacement::PushDown,
                UdfPlacement::Intermediate(1),
                UdfPlacement::Intermediate(2),
                UdfPlacement::PullUp
            ]
        );
    }

    #[test]
    fn joins_below() {
        assert_eq!(UdfPlacement::PushDown.joins_below(4), 0);
        assert_eq!(UdfPlacement::Intermediate(2).joins_below(4), 2);
        assert_eq!(UdfPlacement::PullUp.joins_below(4), 4);
    }
}
