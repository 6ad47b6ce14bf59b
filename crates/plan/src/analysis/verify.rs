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
    if well_formed_small(plan) {
        return Ok(());
    }
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

/// One allocation-free pass that accepts exactly the well-formed plans of up
/// to 64 operators (every generated plan); `false` sends a plan to the full
/// checks above, which name what is wrong. It checks child bounds and arity,
/// children before parents, one parent for every operator but the root (a
/// bit set) and AGG only at the root. Children before parents rule out a
/// cycle, and since an operator's parent comes after it, following parents
/// from any operator ends at the one without a parent, the root: every
/// operator is reachable — the DFS's two checks.
fn well_formed_small(plan: &Plan) -> bool {
    let n = plan.ops.len();
    if n == 0 || n > 64 || plan.root >= n {
        return false;
    }
    let mut has_parent = 0u64;
    for (i, op) in plan.ops.iter().enumerate() {
        let arity = match op.kind {
            PlanOpKind::Scan { .. } => 0,
            PlanOpKind::Join { .. } => 2,
            PlanOpKind::Agg { .. } if i != plan.root => return false,
            _ => 1,
        };
        if op.children.len() != arity {
            return false;
        }
        for &c in &op.children {
            if c >= i || has_parent & (1 << c) != 0 {
                return false;
            }
            has_parent |= 1 << c;
        }
    }
    has_parent == (u64::MAX >> (64 - n)) & !(1 << plan.root)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggFunc, ColRef, PlanOp};
    use graceful_common::GracefulError;

    fn scan() -> PlanOp {
        PlanOp::new(PlanOpKind::Scan { table: "a".into() }, vec![])
    }

    fn filter(child: usize) -> PlanOp {
        PlanOp::new(PlanOpKind::Filter { preds: vec![] }, vec![child])
    }

    fn join(l: usize, r: usize) -> PlanOp {
        let (left_col, right_col) = (ColRef::new("a", "id"), ColRef::new("b", "a_id"));
        PlanOp::new(PlanOpKind::Join { left_col, right_col }, vec![l, r])
    }

    fn agg(child: usize) -> PlanOp {
        PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![child])
    }

    /// The one-pass check accepts no malformed plan, so each shape gets the
    /// message of the full checks, word for word.
    #[test]
    fn malformed_plans_keep_the_messages_of_the_full_checks() {
        let shapes = [
            (vec![filter(1), filter(0), agg(1)], 2, "cycle through op 1 (FILTER) back to itself"),
            (vec![scan(), scan(), agg(0)], 2, "op 1 (SCAN) is unreachable from the root"),
            (
                vec![scan(), filter(0), join(0, 1), agg(2)],
                3,
                "op 0 (SCAN) has 2 parents (expected 1)",
            ),
            (
                vec![filter(2), agg(0), scan()],
                1,
                "op 0 (FILTER) has child 2 >= itself (arena not topological)",
            ),
            (vec![scan(), agg(0), agg(1)], 2, "op 1 (AGG) must be the plan root"),
        ];
        for (ops, root, message) in shapes {
            let plan = Plan { ops, root };
            assert!(!well_formed_small(&plan), "{message}");
            assert_eq!(verify_structure(&plan), Err(GracefulError::PlanVerify(message.into())));
        }
    }

    /// Well-formed plans pass either way: within 64 operators on the one
    /// pass, a longer chain on the full checks, a root that is not last in
    /// the arena on neither.
    #[test]
    fn well_formed_plans_pass_at_every_size() {
        for len in [1, 2, 63, 64, 65, 200] {
            let mut ops = vec![scan()];
            ops.extend((1..len).map(|i| filter(i - 1)));
            let plan = Plan { ops, root: len - 1 };
            assert_eq!(well_formed_small(&plan), len <= 64, "{len} operators");
            assert_eq!(verify_structure(&plan), Ok(()), "{len} operators");
        }
        let plan = Plan { ops: vec![scan(), scan(), join(0, 1), agg(2)], root: 3 };
        assert!(well_formed_small(&plan));
        let root_first = Plan { ops: vec![agg(1), scan()], root: 0 };
        assert!(!well_formed_small(&root_first) && verify_structure(&root_first).is_err());
    }
}
