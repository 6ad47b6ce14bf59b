//! Required-lane liveness.
//!
//! Intermediate tuples carry one row-id lane per bound base table, and
//! operators read those lanes positionally (resolved by table name).
//! Liveness asks, for each operator, what the operators *strictly above* it
//! can still read: a lane whose table no ancestor reads can be dropped from
//! a join's output.
//!
//! The plan is a tree (verified: every op has exactly one parent), so the
//! live set below an operator is simply the parent's live set plus the
//! parent's own reads — one top-down pass over the topologically ordered
//! arena.

use crate::logical::{Plan, PlanOpKind};
use std::collections::BTreeSet;

/// Base tables operator `idx` reads from its **input** tuples.
///
/// Scans read nothing (they are sources); filters read their predicate
/// columns' tables; joins read both key tables; UDF operators read the UDF's
/// input table; aggregates read the aggregate column's table if any.
fn op_tables_read(plan: &Plan, idx: usize) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    match &plan.ops[idx].kind {
        PlanOpKind::Scan { .. } => {}
        PlanOpKind::Filter { preds } => {
            for p in preds {
                out.insert(p.col.table.clone());
            }
        }
        PlanOpKind::Join { left_col, right_col } => {
            out.insert(left_col.table.clone());
            out.insert(right_col.table.clone());
        }
        PlanOpKind::UdfFilter { udf, .. } | PlanOpKind::UdfProject { udf } => {
            out.insert(udf.table.clone());
        }
        PlanOpKind::Agg { column, .. } => {
            if let Some(c) = column {
                out.insert(c.table.clone());
            }
        }
    }
    out
}

/// For every operator, the base tables read by its strict ancestors — the
/// lanes its **output** must still carry (beyond what the operator's own
/// parent consumes structurally).
///
/// `live[root]` is empty: nothing sits above the root. A join output lane
/// whose table is absent from `live[join]` can be pruned — the join itself
/// reads its key lanes from its *inputs*, before the output is formed.
///
/// Assumes a structurally valid plan (topological arena, single parents);
/// callers go through [`verify`](crate::analysis::verify) or
/// [`RewriteSet::analyze`](crate::analysis::RewriteSet::analyze), which do.
pub fn live_tables_above(plan: &Plan) -> Vec<BTreeSet<String>> {
    let n = plan.ops.len();
    let mut live: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    // Parents have larger indices than children, so a reverse index walk
    // visits every parent before its children.
    for i in (0..n).rev() {
        if plan.ops[i].children.is_empty() {
            continue;
        }
        let mut below = live[i].clone();
        below.extend(op_tables_read(plan, i));
        for &c in &plan.ops[i].children {
            live[c] = below.clone();
        }
    }
    live
}
