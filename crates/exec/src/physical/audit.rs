//! The physical-plan audit: what the IR's types cannot carry.
//!
//! Pipeline *shape* — a scan heads every pipeline, builds end in a hash
//! build, the root in an aggregate or collect, every streaming operator
//! names a logical operator — is unrepresentable when wrong. The bookkeeping
//! a type cannot express is checked here, before any rows flow.

use super::{PhysicalOp, PhysicalOpKind, PhysicalPlan, RootSink, Scan};
use graceful_common::{GracefulError, Result};
use graceful_plan::{Plan, PlanOpKind};

/// Audit a lowered [`PhysicalPlan`] against the logical plan it came from,
/// promoting the executor's internal invariants to typed
/// [`GracefulError::PlanVerify`] errors naming the pipeline and operator:
///
/// * every probe names an *earlier* build pipeline;
/// * declared strides match the tuple width actually flowing at that point
///   (including lane-pruned join outputs), and every resolved position and
///   kept lane falls inside its input stride;
/// * work-charge placement is sound — every plan index is in range and names
///   a logical operator of the corresponding kind (the scan, of the same
///   table), each logical operator is charged by exactly one physical node,
///   and none is left uncharged.
pub fn verify_physical(phys: &PhysicalPlan<'_>, plan: &Plan) -> Result<()> {
    let mut audit = Audit { plan, charged: vec![false; plan.ops.len()], build_widths: Vec::new() };
    for (pi, pipe) in phys.builds.iter().enumerate() {
        let width = audit.chain(pi, &pipe.scan, &pipe.ops)?;
        let at = At { pi, k: pipe.ops.len() + 1, name: "HASH_BUILD" };
        at.stride(pipe.sink.stride, width)?;
        at.inside("key position", pipe.sink.pos, width)?;
        at.lanes(&pipe.sink.keep, width)?;
        audit.build_widths.push(pipe.sink.keep.len());
    }
    let root = &phys.root;
    let width = audit.chain(phys.builds.len(), &root.scan, &root.ops)?;
    if let RootSink::Agg { column, plan_idx, stride, .. } = &root.sink {
        let at = At { pi: phys.builds.len(), k: root.ops.len() + 1, name: "AGG" };
        audit.charge(&at, *plan_idx, |l| matches!(l, PlanOpKind::Agg { .. }))?;
        at.stride(*stride, width)?;
        if let Some((_, pos)) = column {
            at.inside("column position", *pos, width)?;
        }
    }
    match audit.charged.iter().position(|c| !c) {
        Some(i) => Err(GracefulError::PlanVerify(format!(
            "plan op {i} ({}) has no physical node charging its work",
            plan.ops[i].kind.name()
        ))),
        None => Ok(()),
    }
}

/// Where a finding is: pipeline, chain index (0 is the scan, the sink comes
/// last) and operator name.
struct At {
    pi: usize,
    k: usize,
    name: &'static str,
}

impl At {
    fn fail<T>(&self, msg: String) -> Result<T> {
        let At { pi, k, name } = self;
        Err(GracefulError::PlanVerify(format!("pipeline {pi} op {k} ({name}): {msg}")))
    }

    fn stride(&self, declared: usize, width: usize) -> Result<()> {
        if declared != width {
            return self
                .fail(format!("declares input stride {declared} but {width} lanes flow into it"));
        }
        Ok(())
    }

    fn inside(&self, what: &str, pos: usize, width: usize) -> Result<()> {
        if pos >= width {
            return self.fail(format!("{what} {pos} outside input stride {width}"));
        }
        Ok(())
    }

    fn lanes(&self, keep: &[usize], width: usize) -> Result<()> {
        keep.iter().try_for_each(|&lane| self.inside("kept lane", lane, width))
    }
}

struct Audit<'a> {
    plan: &'a Plan,
    /// Per logical operator: has a physical node charged it yet?
    charged: Vec<bool>,
    /// Post-pruning output widths of the build pipelines audited so far.
    build_widths: Vec<usize>,
}

impl Audit<'_> {
    /// Bind the node at `at` to logical operator `plan_idx`, which must
    /// exist, be of the kind `implements` accepts and not be charged yet.
    fn charge(
        &mut self,
        at: &At,
        plan_idx: usize,
        implements: impl Fn(&PlanOpKind) -> bool,
    ) -> Result<()> {
        let Some(logical) = self.plan.ops.get(plan_idx) else {
            return at.fail(format!("bound to plan op {plan_idx}, out of range"));
        };
        if !implements(&logical.kind) {
            let kind = logical.kind.name();
            return at.fail(format!("bound to plan op {plan_idx} ({kind}), kinds disagree"));
        }
        if std::mem::replace(&mut self.charged[plan_idx], true) {
            return at.fail(format!("plan op {plan_idx} is charged by two physical nodes"));
        }
        Ok(())
    }

    /// Audit pipeline `pi`'s scan and streaming operators; returns the tuple
    /// width flowing into its sink.
    fn chain(&mut self, pi: usize, scan: &Scan<'_>, ops: &[PhysicalOp<'_>]) -> Result<usize> {
        let at = At { pi, k: 0, name: "SCAN" };
        let table = scan.table;
        self.charge(&at, scan.plan_idx, |l| matches!(l, PlanOpKind::Scan { .. }))?;
        if let PlanOpKind::Scan { table: logical } = &self.plan.ops[scan.plan_idx].kind {
            if logical != table {
                let i = scan.plan_idx;
                return at.fail(format!("scans {table} but plan op {i} scans {logical}"));
            }
        }
        let mut width = 1;
        for (k, op) in ops.iter().enumerate() {
            let at = At { pi, k: k + 1, name: op.kind.name() };
            self.charge(&at, op.plan_idx, |logical| {
                matches!(
                    (&op.kind, logical),
                    (PhysicalOpKind::Filter { .. }, PlanOpKind::Filter { .. })
                        | (PhysicalOpKind::UdfFilter { .. }, PlanOpKind::UdfFilter { .. })
                        | (PhysicalOpKind::UdfProject { .. }, PlanOpKind::UdfProject { .. })
                        | (PhysicalOpKind::HashJoinProbe { .. }, PlanOpKind::Join { .. })
                )
            })?;
            at.stride(op.stride, width)?;
            match &op.kind {
                PhysicalOpKind::Filter { preds } => {
                    preds.iter().try_for_each(|&(_, pos)| at.inside("position", pos, width))?
                }
                PhysicalOpKind::UdfFilter { pos, .. } | PhysicalOpKind::UdfProject { pos, .. } => {
                    at.inside("position", *pos, width)?
                }
                PhysicalOpKind::HashJoinProbe { pos, build, keep, .. } => {
                    at.inside("key position", *pos, width)?;
                    at.lanes(keep, width)?;
                    // Builds are audited in execution order, so the ones
                    // recorded so far are exactly the earlier ones.
                    let Some(build_width) = self.build_widths.get(*build) else {
                        return at.fail(format!(
                            "probes build pipeline {build}, which does not precede pipeline {pi}"
                        ));
                    };
                    width = keep.len() + build_width;
                }
            }
        }
        Ok(width)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{lower_under, HashBuild};
    use super::*;
    use crate::engine::Shortcuts;
    use graceful_common::rng::Rng;
    use graceful_plan::{build_plan, valid_placements, QueryGenerator};
    use graceful_storage::datagen::{generate, schema};

    /// Corrupts one field of a lowered plan and returns the finding the
    /// audit owes for it, or `None` when the plan has no such node.
    type Corrupt = for<'a, 'p> fn(&'a mut PhysicalPlan<'p>, &'p Plan) -> Option<String>;

    /// The first streaming operator `want` accepts, as (pipeline, chain
    /// index, operator).
    fn find<'a, 'p>(
        phys: &'a mut PhysicalPlan<'p>,
        want: fn(&PhysicalOpKind<'p>) -> bool,
    ) -> Option<(usize, usize, &'a mut PhysicalOp<'p>)> {
        let builds = phys.builds.iter_mut().map(|pipe| &mut pipe.ops);
        let chains = builds.chain([&mut phys.root.ops]).enumerate();
        chains
            .flat_map(|(pi, ops)| ops.iter_mut().enumerate().map(move |(k, op)| (pi, k + 1, op)))
            .find(|(_, _, op)| want(&op.kind))
    }

    fn is_filter(kind: &PhysicalOpKind<'_>) -> bool {
        matches!(kind, PhysicalOpKind::Filter { .. })
    }
    fn is_udf(kind: &PhysicalOpKind<'_>) -> bool {
        matches!(kind, PhysicalOpKind::UdfFilter { .. } | PhysicalOpKind::UdfProject { .. })
    }
    fn is_probe(kind: &PhysicalOpKind<'_>) -> bool {
        matches!(kind, PhysicalOpKind::HashJoinProbe { .. })
    }

    /// The first build sink and where findings about it point.
    fn build0<'a, 'p>(phys: &'a mut PhysicalPlan<'p>) -> Option<(&'a mut HashBuild<'p>, String)> {
        let pipe = phys.builds.first_mut()?;
        let at = format!("pipeline 0 op {} (HASH_BUILD)", pipe.ops.len() + 1);
        Some((&mut pipe.sink, at))
    }

    /// The aggregate sink's location.
    fn agg_at(phys: &PhysicalPlan<'_>) -> String {
        format!("pipeline {} op {} (AGG)", phys.builds.len(), phys.root.ops.len() + 1)
    }

    const CASES: &[(&str, Corrupt)] = &[
        ("declared stride", |phys, _| {
            let (pi, k, op) = find(phys, |_| true)?;
            op.stride += 1;
            Some(format!("pipeline {pi} op {k} ({}): declares input stride", op.kind.name()))
        }),
        ("filter position", |phys, _| {
            let (pi, k, op) = find(phys, is_filter)?;
            let PhysicalOpKind::Filter { preds } = &mut op.kind else { return None };
            preds.last_mut()?.1 = 99;
            Some(format!("pipeline {pi} op {k} (FILTER): position 99 outside input stride"))
        }),
        ("UDF position", |phys, _| {
            let (pi, k, op) = find(phys, is_udf)?;
            match &mut op.kind {
                PhysicalOpKind::UdfFilter { pos, .. } | PhysicalOpKind::UdfProject { pos, .. } => {
                    *pos = 99
                }
                _ => return None,
            }
            Some(format!("pipeline {pi} op {k} ({}): position 99 outside", op.kind.name()))
        }),
        ("probe key position", |phys, _| {
            let (pi, k, op) = find(phys, is_probe)?;
            let PhysicalOpKind::HashJoinProbe { pos, .. } = &mut op.kind else { return None };
            *pos = 99;
            Some(format!("pipeline {pi} op {k} (HASH_PROBE): key position 99 outside"))
        }),
        ("probe kept lane", |phys, _| {
            let (pi, k, op) = find(phys, is_probe)?;
            let PhysicalOpKind::HashJoinProbe { keep, .. } = &mut op.kind else { return None };
            keep.push(99);
            Some(format!("pipeline {pi} op {k} (HASH_PROBE): kept lane 99 outside"))
        }),
        ("probe names a missing build", |phys, _| {
            let missing = phys.builds.len();
            let (pi, k, op) = find(phys, is_probe)?;
            let PhysicalOpKind::HashJoinProbe { build, .. } = &mut op.kind else { return None };
            *build = missing;
            Some(format!(
                "pipeline {pi} op {k} (HASH_PROBE): probes build pipeline {missing}, which does not precede"
            ))
        }),
        ("probe names a later build", |phys, plan| {
            // A probe inside build pipeline 0 naming build 0: not earlier.
            let join = plan.ops.iter().position(|op| matches!(op.kind, PlanOpKind::Join { .. }))?;
            let pipe = phys.builds.first_mut()?;
            let (key, stride) = (pipe.sink.key, pipe.sink.stride);
            let kind = PhysicalOpKind::HashJoinProbe { key, pos: 0, build: 0, keep: vec![0] };
            pipe.ops.push(PhysicalOp { kind, plan_idx: join, stride });
            let k = pipe.ops.len();
            Some(format!("pipeline 0 op {k} (HASH_PROBE): probes build pipeline 0, which does not"))
        }),
        ("plan index out of range", |phys, plan| {
            let (pi, k, op) = find(phys, |_| true)?;
            op.plan_idx = plan.ops.len();
            let (name, n) = (op.kind.name(), plan.ops.len());
            Some(format!("pipeline {pi} op {k} ({name}): bound to plan op {n}, out of range"))
        }),
        ("plan index of the wrong kind", |phys, _| {
            let scan = phys.root.scan.plan_idx;
            let (pi, k, op) = find(phys, |_| true)?;
            op.plan_idx = scan;
            let name = op.kind.name();
            Some(format!("pipeline {pi} op {k} ({name}): bound to plan op {scan} (SCAN), kinds"))
        }),
        ("scan index of the wrong kind", |phys, plan| {
            phys.root.scan.plan_idx = plan.root;
            let pi = phys.builds.len();
            Some(format!("pipeline {pi} op 0 (SCAN): bound to plan op {}", plan.root))
        }),
        ("one logical operator charged twice", |phys, _| {
            let taken = phys.builds.first()?.scan.plan_idx;
            phys.root.scan.plan_idx = taken;
            let pi = phys.builds.len();
            Some(format!("pipeline {pi} op 0 (SCAN): plan op {taken} is charged by two"))
        }),
        ("one logical operator left uncharged", |phys, plan| {
            let RootSink::Agg { plan_idx, .. } = phys.root.sink else { return None };
            phys.root.sink = RootSink::Collect;
            let kind = plan.ops[plan_idx].kind.name();
            Some(format!("plan op {plan_idx} ({kind}) has no physical node charging its work"))
        }),
        ("scan bound to another table", |phys, _| {
            let other = phys.root.scan.table;
            let scan = &mut phys.builds.first_mut()?.scan;
            let own = std::mem::replace(&mut scan.table, other);
            (own != other).then(|| format!("pipeline 0 op 0 (SCAN): scans {other} but plan op"))
        }),
        ("build stride", |phys, _| {
            let (sink, at) = build0(phys)?;
            sink.stride += 1;
            Some(format!("{at}: declares input stride"))
        }),
        ("build key position", |phys, _| {
            let (sink, at) = build0(phys)?;
            sink.pos = 99;
            Some(format!("{at}: key position 99 outside"))
        }),
        ("build kept lane", |phys, _| {
            let (sink, at) = build0(phys)?;
            sink.keep.push(99);
            Some(format!("{at}: kept lane 99 outside"))
        }),
        ("aggregate index of the wrong kind", |phys, _| {
            let at = agg_at(phys);
            let scan = phys.root.scan.plan_idx;
            let RootSink::Agg { plan_idx, .. } = &mut phys.root.sink else { return None };
            *plan_idx = scan;
            Some(format!("{at}: bound to plan op {scan} (SCAN), kinds disagree"))
        }),
        ("aggregate stride", |phys, _| {
            let at = agg_at(phys);
            let RootSink::Agg { stride, .. } = &mut phys.root.sink else { return None };
            *stride += 1;
            Some(format!("{at}: declares input stride"))
        }),
        ("aggregate column position", |phys, _| {
            let at = agg_at(phys);
            let RootSink::Agg { column: Some((_, pos)), .. } = &mut phys.root.sink else {
                return None;
            };
            *pos = 99;
            Some(format!("{at}: column position 99 outside"))
        }),
    ];

    #[test]
    fn every_rejection_has_a_failing_input_and_names_its_node() {
        // Generated join + UDF + aggregate plans, lowered as `run` lowers
        // them; each case corrupts one field of a fresh lowering.
        let db = generate(&schema("tpc_h"), 0.03, 5);
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(61);
        let mut hits = vec![0usize; CASES.len()];
        for id in 0..40 {
            let spec = g.generate(&db, id, &mut rng).unwrap();
            for placement in valid_placements(&spec) {
                let Ok(plan) = build_plan(&spec, placement) else { continue };
                let lowered = || lower_under(&db, &plan, Shortcuts::SHIPPED).unwrap();
                verify_physical(&lowered(), &plan).expect("the lowering passes its own audit");
                for (hit, (case, corrupt)) in hits.iter_mut().zip(CASES) {
                    let mut phys = lowered();
                    let Some(expected) = corrupt(&mut phys, &plan) else { continue };
                    match verify_physical(&phys, &plan) {
                        Err(GracefulError::PlanVerify(m)) => {
                            assert!(m.contains(&expected), "{case}, query {id}: {m:?}")
                        }
                        other => panic!("{case}, query {id}: {other:?}\n{}", phys.explain()),
                    }
                    *hit += 1;
                }
            }
        }
        for (hit, (case, _)) in hits.iter().zip(CASES) {
            assert!(*hit > 0, "no generated plan reached case {case:?}");
        }
    }
}
