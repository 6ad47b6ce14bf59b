//! The plan verifier: structural checks plus catalog-backed checks.

use crate::analysis::schema::infer_schemas;
use crate::logical::{Plan, PlanOpKind};
use graceful_common::{GracefulError, Result};
use graceful_storage::Database;

fn fail<T>(msg: String) -> Result<T> {
    Err(GracefulError::PlanVerify(msg))
}

/// Catalog-free structural verification of the operator arena.
///
/// Rejects: an empty arena, an out-of-bounds root, dangling child indices,
/// wrong operator arity, cycles, operators unreachable from the root, shared
/// children / wrong parent counts, non-topological child order, and an
/// aggregate anywhere but the root. Every diagnostic names the offending
/// operator index and kind. [`Plan::validate`] forwards here, so this is the
/// single source of truth for structural checks.
pub fn verify_structure(plan: &Plan) -> Result<()> {
    let n = plan.ops.len();
    if n == 0 {
        return fail("plan has no operators".into());
    }
    if plan.root >= n {
        return fail(format!("root {} out of bounds (plan has {n} ops)", plan.root));
    }

    // Arity and child bounds first, so every later walk can index freely.
    for (i, op) in plan.ops.iter().enumerate() {
        let kind = op.kind.name();
        let expected = match op.kind {
            PlanOpKind::Scan { .. } => 0,
            PlanOpKind::Join { .. } => 2,
            _ => 1,
        };
        if op.children.len() != expected {
            return fail(format!(
                "op {i} ({kind}) has {} children (expected {expected})",
                op.children.len()
            ));
        }
        for &c in &op.children {
            if c >= n {
                return fail(format!("op {i} ({kind}) has dangling child {c} (plan has {n} ops)"));
            }
        }
    }

    // Genuine cycle + reachability detection: iterative three-color DFS from
    // the root. This works on arbitrary (even non-topological) arenas, so a
    // cycle is reported as a cycle rather than as a child-order violation.
    let mut color = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    let mut stack: Vec<(usize, usize)> = vec![(plan.root, 0)];
    color[plan.root] = 1;
    while let Some(top) = stack.last_mut() {
        let (node, cursor) = (top.0, top.1);
        if cursor < plan.ops[node].children.len() {
            top.1 += 1;
            let c = plan.ops[node].children[cursor];
            match color[c] {
                0 => {
                    color[c] = 1;
                    stack.push((c, 0));
                }
                1 => {
                    return fail(format!(
                        "cycle through op {c} ({}) back to itself",
                        plan.ops[c].kind.name()
                    ));
                }
                _ => {}
            }
        } else {
            color[node] = 2;
            stack.pop();
        }
    }
    if let Some(i) = color.iter().position(|&c| c != 2) {
        return fail(format!("op {i} ({}) is unreachable from the root", plan.ops[i].kind.name()));
    }

    // Parent counts: the root has none, everyone else exactly one.
    let mut parents = vec![0usize; n];
    for op in &plan.ops {
        for &c in &op.children {
            parents[c] += 1;
        }
    }
    for (i, &p) in parents.iter().enumerate() {
        let kind = plan.ops[i].kind.name();
        if i == plan.root && p != 0 {
            return fail(format!("root op {i} ({kind}) has a parent"));
        }
        if i != plan.root && p != 1 {
            return fail(format!("op {i} ({kind}) has {p} parents (expected 1)"));
        }
    }

    // Topological order: children strictly precede parents. The executor's
    // single forward pass and the GNN's level schedule both rely on this.
    for (i, op) in plan.ops.iter().enumerate() {
        for &c in &op.children {
            if c >= i {
                return fail(format!(
                    "op {i} ({}) has child {c} >= itself (arena not topological)",
                    op.kind.name()
                ));
            }
        }
    }

    // Aggregates terminate the plan; the engine computes a single scalar.
    for (i, op) in plan.ops.iter().enumerate() {
        if matches!(op.kind, PlanOpKind::Agg { .. }) && i != plan.root {
            return fail(format!("op {i} (AGG) must be the plan root"));
        }
    }
    Ok(())
}

/// Full pre-execution verification: structural checks, schema/type inference
/// against the catalog, and `est_out_rows` sanity (finite and non-negative).
///
/// This is the gate the execution engine runs before every query. Cardinality *bound* cross-checking is
/// intentionally excluded (see [`crate::analysis::verify_bounds`]): the
/// advisor's what-if scaling legitimately pushes ancestor estimates past the
/// monotone bound, and an estimate — however wrong — never makes execution
/// unsound, whereas the malformations rejected here do.
pub fn verify(plan: &Plan, db: &Database) -> Result<()> {
    verify_structure(plan)?;
    infer_schemas(plan, db)?;
    for (i, op) in plan.ops.iter().enumerate() {
        let est = op.est_out_rows;
        if !est.is_finite() || est < 0.0 {
            return fail(format!(
                "op {i} ({}): est_out_rows {est} is not finite and non-negative",
                op.kind.name()
            ));
        }
    }
    Ok(())
}
