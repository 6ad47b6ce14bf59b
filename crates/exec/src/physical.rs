//! The executor: physical-operator pipelines, the driver that ships and the
//! reference driver.
//!
//! [`lower`] turns a logical [`Plan`] into a [`PhysicalPlan`]: a set of
//! [`Pipeline`]s, each a scan source followed by streaming operators and
//! terminated by a sink (hash-join build, aggregate, or plain collect).
//! `execute` instantiates each pipeline's [`Operator`] chain and drives it:
//!
//! * **streaming** (what `Executor::run` does): fixed-size [`Batch`]es of
//!   row ids are pushed through the chain and every emission cascades
//!   downstream immediately, so peak memory for a non-blocking chain is
//!   bounded by O(threads × morsel × pipeline depth). Hash-join build sides
//!   are the one deliberate exception — a build side is materialized by
//!   construction, exactly as in any hash-join engine.
//! * **collecting** (what `Executor::run_reference` does, with the other
//!   `Shortcuts` off too): each operator receives its whole input as one
//!   batch, is finished, and its emissions are collected before the next
//!   operator runs — an operator at a time, every intermediate fully
//!   resident.
//!
//! One node set, two drivers: lowering, the audit, the operators and the
//! accounting are shared, so the drivers can only differ in scheduling.
//!
//! # Bit-identity across drivers, thread counts and batch sizes
//!
//! Every `QueryRun` value, cardinality and accounted work total is
//! bit-identical however the rows were scheduled. Floats make this a
//! scheduling problem, not just a semantics problem; three rules solve it:
//!
//! 1. **Morsel-aligned rebatching.** Each parallel operator buffers its
//!    input and only evaluates *complete* `morsel_rows`-row morsels
//!    mid-stream (the ragged tail waits for `finish`). An operator's morsel
//!    boundaries therefore sit at the `Pool::morsel_range` partition of its
//!    whole input stream — no matter how upstream batched its output, in
//!    morsels or all at once — so per-morsel work sums group identically.
//! 2. **Ordered merges.** Per-morsel results merge in morsel-index order
//!    (the runtime's standard contract), and `work` accumulators fold those
//!    sums in that order.
//! 3. **Closed-form charges at `finish`.** Work terms that are functions of
//!    whole-input counts (scan, filter, join, aggregate) are charged once
//!    from those counts through the [`OperatorWeights`] methods — the one
//!    place each formula is written — not accumulated per batch.
//!
//! Flush timing — how many full morsels an operator queues before running
//! them in parallel — affects only wall-clock behaviour, never boundaries or
//! merge order, so results are independent of the thread count.
//!
//! Structural plan validation (unbound tables, missing UdfProject below an
//! aggregate) happens during lowering or operator construction, before rows
//! flow; data-dependent errors (the `max_intermediate_rows` valve) surface
//! mid-stream as typed [`GracefulError::InvalidPlan`]. The lowered plan is
//! always audited by [`verify_physical`] too — pipeline shape, sink
//! placement, build/probe ordering, stride bookkeeping and the
//! plan-index/work-charge mapping — so a malformed `PhysicalPlan` is
//! rejected as a typed [`GracefulError::PlanVerify`] instead of panicking
//! or silently mis-charging work.
//!
//! # Verified rewrites
//!
//! [`lower_with`] accepts a [`RewriteSet`] (the shipped run always passes
//! one, the reference run never) and applies its execution hint: join lanes
//! that liveness proves dead above the join are dropped from build storage
//! and probe output. Work charges are closed-form from row counts, which
//! lane pruning never changes, so the rewrite keeps every `QueryRun` value
//! bit-identical with the unrewritten run.

use crate::engine::{
    cmp_f64, jitter_factor, AggState, ExecConfig, OperatorWeights, QueryRun, Shortcuts,
};
use crate::profile::ExecProfile;
use crate::row_test::RowTest;
use crate::udf_eval::{record_udf_metrics, UdfEvalSpec, UdfEvalStats};
use graceful_common::{GracefulError, Result};
use graceful_obs::trace;
use graceful_plan::analysis::join_keep_lanes;
use graceful_plan::{AggFunc, ColRef, Plan, PlanOpKind, Pred, RewriteSet};
use graceful_runtime::Pool;
use graceful_storage::{Column, Database, Value};
use graceful_udf::ast::CmpOp;
use graceful_udf::GeneratedUdf;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Physical plan representation (pure lowering, no data access)

/// A lowered plan: pipelines in execution order (every hash-join build
/// pipeline precedes the pipeline that probes it; the final pipeline carries
/// the root).
#[derive(Debug)]
pub struct PhysicalPlan<'p> {
    pub pipelines: Vec<Pipeline<'p>>,
}

/// One streaming chain: `ops[0]` is always [`PhysicalOpKind::Scan`], the
/// last element is a sink (`HashJoinBuild`, `Agg` or `Collect`), and
/// everything between streams batches.
#[derive(Debug)]
pub struct Pipeline<'p> {
    pub ops: Vec<PhysicalOp<'p>>,
}

/// One physical operator node plus the logical plan operator it accounts its
/// work and output cardinality to (`None` for nodes that are bookkeeping
/// halves of a logical operator, like the build side of a join, or pure
/// terminators like `Collect`).
#[derive(Debug)]
pub struct PhysicalOp<'p> {
    pub kind: PhysicalOpKind<'p>,
    pub plan_idx: Option<usize>,
}

/// Physical operator kinds. `stride` fields are the width (bound base
/// tables) of the operator's *input* row tuples; `pos` fields are resolved
/// first-occurrence positions within that tuple.
#[derive(Debug)]
pub enum PhysicalOpKind<'p> {
    /// Source: emits morsel-sized batches of consecutive row ids.
    Scan { table: &'p str },
    /// Conjunctive predicate filter; `positions[i]` locates `preds[i]`'s
    /// table in the input tuple.
    Filter { preds: &'p [Pred], positions: Vec<usize>, stride: usize },
    /// Filter on a UDF's output: `udf(args...) cmp literal`.
    UdfFilter { udf: &'p GeneratedUdf, cmp: CmpOp, literal: f64, pos: usize, stride: usize },
    /// Compute the UDF per row as a projected column travelling with the
    /// batch (consumed by `Agg`).
    UdfProject { udf: &'p GeneratedUdf, pos: usize, stride: usize },
    /// Pipeline-breaking sink: materializes its input as a hash table keyed
    /// by `key`; the owning pipeline's result is consumed by the matching
    /// `HashJoinProbe`. Only the input lanes listed in `keep` are stored —
    /// liveness-pruned dead lanes never enter the build table (the key is
    /// read from the *input* tuple at `pos`, so the key lane itself may be
    /// pruned from storage).
    HashJoinBuild { key: &'p ColRef, pos: usize, stride: usize, keep: Vec<usize> },
    /// Streaming probe against build pipeline `build` (an index into
    /// [`PhysicalPlan::pipelines`]); emits `left[keep] ++ build` tuples
    /// (`keep` lists the surviving left lanes; the build side was already
    /// pruned at build time).
    HashJoinProbe { key: &'p ColRef, pos: usize, stride: usize, build: usize, keep: Vec<usize> },
    /// Final aggregate sink. `column` is `Some((col, pos))` for a base-table
    /// aggregate; `None` aggregates the UDF-projected column
    /// (`expects_computed` records whether the direct child is a
    /// `UdfProject`, the structural requirement for that).
    Agg {
        func: AggFunc,
        column: Option<(&'p ColRef, usize)>,
        expects_computed: bool,
        stride: usize,
    },
    /// Terminator for non-aggregate roots: swallows batches (the root
    /// operator's counts were already accounted by the node producing them).
    Collect,
}

impl PhysicalOpKind<'_> {
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOpKind::Scan { .. } => "SCAN",
            PhysicalOpKind::Filter { .. } => "FILTER",
            PhysicalOpKind::UdfFilter { .. } => "UDF_FILTER",
            PhysicalOpKind::UdfProject { .. } => "UDF_PROJECT",
            PhysicalOpKind::HashJoinBuild { .. } => "HASH_BUILD",
            PhysicalOpKind::HashJoinProbe { .. } => "HASH_PROBE",
            PhysicalOpKind::Agg { .. } => "AGG",
            PhysicalOpKind::Collect => "COLLECT",
        }
    }
}

impl PhysicalPlan<'_> {
    /// EXPLAIN-style rendering: one line per pipeline.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for (i, pipe) in self.pipelines.iter().enumerate() {
            let _ = write!(out, "Pipeline {i}:");
            for op in &pipe.ops {
                let label = match &op.kind {
                    PhysicalOpKind::Scan { table } => format!("SCAN {table}"),
                    PhysicalOpKind::Filter { preds, .. } => {
                        format!("FILTER[{}]", preds.len())
                    }
                    PhysicalOpKind::UdfFilter { udf, cmp, literal, .. } => {
                        format!("UDF_FILTER {}(...) {} {literal}", udf.def.name, cmp.symbol())
                    }
                    PhysicalOpKind::UdfProject { udf, .. } => {
                        format!("UDF_PROJECT {}(...)", udf.def.name)
                    }
                    PhysicalOpKind::HashJoinBuild { key, .. } => format!("HASH_BUILD {key}"),
                    PhysicalOpKind::HashJoinProbe { key, build, .. } => {
                        format!("HASH_PROBE {key} (build: pipeline {build})")
                    }
                    PhysicalOpKind::Agg { func, column, .. } => match column {
                        Some((c, _)) => format!("AGG {}({c})", func.name()),
                        None => format!("AGG {}", func.name()),
                    },
                    PhysicalOpKind::Collect => "COLLECT".to_string(),
                };
                let _ = write!(out, " -> {label}");
            }
            out.push('\n');
        }
        out
    }
}

/// Lower a logical plan into its physical-operator pipelines with no
/// rewrite hints (every join lane stored).
pub fn lower(plan: &Plan) -> Result<PhysicalPlan<'_>> {
    lower_with(plan, None)
}

/// Lower a logical plan into its physical-operator pipelines, applying the
/// verified rewrite hints when given. Pure plan analysis: table-binding
/// positions are resolved, but no data is touched.
pub fn lower_with<'p>(plan: &'p Plan, rewrites: Option<&RewriteSet>) -> Result<PhysicalPlan<'p>> {
    plan.validate()?;
    let mut pipelines = Vec::new();
    let (mut ops, _tables) = lower_subtree(plan, plan.root, &mut pipelines, rewrites)?;
    if !matches!(ops.last().map(|o| &o.kind), Some(PhysicalOpKind::Agg { .. })) {
        ops.push(PhysicalOp { kind: PhysicalOpKind::Collect, plan_idx: None });
    }
    pipelines.push(Pipeline { ops });
    Ok(PhysicalPlan { pipelines })
}

/// The lowering `execute` drives under `cuts`: join lanes are pruned iff
/// [`Shortcuts::lane_pruning`] is on.
pub(crate) fn lower_under<'p>(
    db: &Database,
    plan: &'p Plan,
    cuts: Shortcuts,
) -> Result<PhysicalPlan<'p>> {
    let rewrites = cuts.lane_pruning.then(|| RewriteSet::analyze(plan, db));
    lower_with(plan, rewrites.as_ref())
}

/// Recursively lower the subtree rooted at `idx`; returns the streaming
/// chain so far plus the bound-table list of its output tuples. Join build
/// sides are completed into `pipelines` along the way.
fn lower_subtree<'p>(
    plan: &'p Plan,
    idx: usize,
    pipelines: &mut Vec<Pipeline<'p>>,
    rewrites: Option<&RewriteSet>,
) -> Result<(Vec<PhysicalOp<'p>>, Vec<&'p str>)> {
    let op = &plan.ops[idx];
    match &op.kind {
        PlanOpKind::Scan { table } => Ok((
            vec![PhysicalOp { kind: PhysicalOpKind::Scan { table }, plan_idx: Some(idx) }],
            vec![table.as_str()],
        )),
        PlanOpKind::Filter { preds } => {
            let (mut ops, tables) = lower_subtree(plan, op.children[0], pipelines, rewrites)?;
            let positions = preds
                .iter()
                .map(|p| {
                    table_pos(&tables, &p.col.table).ok_or_else(|| {
                        GracefulError::InvalidPlan(format!(
                            "filter on unbound table {}",
                            p.col.table
                        ))
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            ops.push(PhysicalOp {
                kind: PhysicalOpKind::Filter { preds, positions, stride: tables.len() },
                plan_idx: Some(idx),
            });
            Ok((ops, tables))
        }
        PlanOpKind::UdfFilter { udf, op: cmp, literal } => {
            let (mut ops, tables) = lower_subtree(plan, op.children[0], pipelines, rewrites)?;
            let pos = udf_pos(&tables, udf)?;
            ops.push(PhysicalOp {
                kind: PhysicalOpKind::UdfFilter {
                    udf,
                    cmp: *cmp,
                    literal: *literal,
                    pos,
                    stride: tables.len(),
                },
                plan_idx: Some(idx),
            });
            Ok((ops, tables))
        }
        PlanOpKind::UdfProject { udf } => {
            let (mut ops, tables) = lower_subtree(plan, op.children[0], pipelines, rewrites)?;
            let pos = udf_pos(&tables, udf)?;
            ops.push(PhysicalOp {
                kind: PhysicalOpKind::UdfProject { udf, pos, stride: tables.len() },
                plan_idx: Some(idx),
            });
            Ok((ops, tables))
        }
        PlanOpKind::Join { left_col, right_col } => {
            // Build on the right side (the newly joined table), then
            // continue the left side's pipeline through the probe.
            let (mut rops, rtables) = lower_subtree(plan, op.children[1], pipelines, rewrites)?;
            let rpos = table_pos(&rtables, &right_col.table).ok_or_else(|| {
                GracefulError::InvalidPlan(format!("join col {right_col} not on right side"))
            })?;
            // The build's kept lanes depend on the left side's table list
            // too (duplicate names across the sides veto pruning), which is
            // only known after the left subtree lowers; push the build with
            // all lanes kept and patch it below.
            rops.push(PhysicalOp {
                kind: PhysicalOpKind::HashJoinBuild {
                    key: right_col,
                    pos: rpos,
                    stride: rtables.len(),
                    keep: (0..rtables.len()).collect(),
                },
                plan_idx: None,
            });
            pipelines.push(Pipeline { ops: rops });
            let build = pipelines.len() - 1;
            let (mut lops, ltables) = lower_subtree(plan, op.children[0], pipelines, rewrites)?;
            let lpos = table_pos(&ltables, &left_col.table).ok_or_else(|| {
                GracefulError::InvalidPlan(format!("join col {left_col} not on left side"))
            })?;
            let (keep_l, keep_r) = match rewrites {
                Some(rw) => join_keep_lanes(&rw.live_above[idx], &ltables, &rtables)
                    .unwrap_or_else(|| all_lanes(ltables.len(), rtables.len())),
                None => all_lanes(ltables.len(), rtables.len()),
            };
            if let Some(PhysicalOp { kind: PhysicalOpKind::HashJoinBuild { keep, .. }, .. }) =
                pipelines[build].ops.last_mut()
            {
                keep.clone_from(&keep_r);
            }
            let mut out_tables: Vec<&'p str> = keep_l.iter().map(|&i| ltables[i]).collect();
            out_tables.extend(keep_r.iter().map(|&i| rtables[i]));
            lops.push(PhysicalOp {
                kind: PhysicalOpKind::HashJoinProbe {
                    key: left_col,
                    pos: lpos,
                    stride: ltables.len(),
                    build,
                    keep: keep_l,
                },
                plan_idx: Some(idx),
            });
            Ok((lops, out_tables))
        }
        PlanOpKind::Agg { func, column } => {
            let child = op.children[0];
            let (mut ops, tables) = lower_subtree(plan, child, pipelines, rewrites)?;
            let column = match column {
                Some(c) => {
                    let pos = table_pos(&tables, &c.table).ok_or_else(|| {
                        GracefulError::InvalidPlan(format!("agg on unbound table {}", c.table))
                    })?;
                    Some((c, pos))
                }
                None => None,
            };
            let expects_computed = matches!(plan.ops[child].kind, PlanOpKind::UdfProject { .. });
            if *func != AggFunc::CountStar && column.is_none() && !expects_computed {
                return Err(GracefulError::InvalidPlan(
                    "agg over UDF output requires a UdfProject below".into(),
                ));
            }
            ops.push(PhysicalOp {
                kind: PhysicalOpKind::Agg {
                    func: *func,
                    column,
                    expects_computed,
                    stride: tables.len(),
                },
                plan_idx: Some(idx),
            });
            Ok((ops, tables))
        }
    }
}

/// First occurrence of `table` in the bound-table list.
fn table_pos(tables: &[&str], table: &str) -> Option<usize> {
    tables.iter().position(|t| *t == table)
}

/// Keep-every-lane fallback for a join: all left lanes, all right lanes.
fn all_lanes(l: usize, r: usize) -> (Vec<usize>, Vec<usize>) {
    ((0..l).collect(), (0..r).collect())
}

fn udf_pos(tables: &[&str], udf: &GeneratedUdf) -> Result<usize> {
    table_pos(tables, &udf.table)
        .ok_or_else(|| GracefulError::InvalidPlan(format!("UDF table {} not bound", udf.table)))
}

// ---------------------------------------------------------------------------
// Physical-plan audit

/// Does a physical node implement this logical operator? (A join's logical
/// op is carried by the probe; builds and collects are plan-less.)
fn kinds_match(phys: &PhysicalOpKind<'_>, logical: &PlanOpKind) -> bool {
    matches!(
        (phys, logical),
        (PhysicalOpKind::Scan { .. }, PlanOpKind::Scan { .. })
            | (PhysicalOpKind::Filter { .. }, PlanOpKind::Filter { .. })
            | (PhysicalOpKind::UdfFilter { .. }, PlanOpKind::UdfFilter { .. })
            | (PhysicalOpKind::UdfProject { .. }, PlanOpKind::UdfProject { .. })
            | (PhysicalOpKind::HashJoinProbe { .. }, PlanOpKind::Join { .. })
            | (PhysicalOpKind::Agg { .. }, PlanOpKind::Agg { .. })
    )
}

/// Audit a lowered [`PhysicalPlan`] against the logical plan it came from.
/// Run before any rows flow, this promotes
/// the executor's internal invariants to typed [`GracefulError::PlanVerify`]
/// errors:
///
/// * every pipeline is non-empty, headed by a scan, and terminated by the
///   right sink (hash build for non-final pipelines; aggregate or collect
///   for the final one);
/// * every probe references an *earlier* pipeline that ends in a build;
/// * declared strides match the tuple width actually flowing at that point
///   (including lane-pruned join outputs), and every resolved position and
///   kept lane falls inside its input stride;
/// * work-charge placement is sound — every physical node is bound to a
///   logical operator of the corresponding kind (builds and collects are
///   the plan-less exceptions), each logical operator is charged by exactly
///   one physical node, and none is left uncharged.
pub fn verify_physical(phys: &PhysicalPlan<'_>, plan: &Plan) -> Result<()> {
    fn fail(pi: usize, k: usize, name: &str, msg: String) -> GracefulError {
        GracefulError::PlanVerify(format!("pipeline {pi} op {k} ({name}): {msg}"))
    }
    fn check_stride(pi: usize, k: usize, name: &str, declared: usize, width: usize) -> Result<()> {
        if declared != width {
            return Err(fail(
                pi,
                k,
                name,
                format!("declares input stride {declared} but {width} lanes flow into it"),
            ));
        }
        Ok(())
    }
    if phys.pipelines.is_empty() {
        return Err(GracefulError::PlanVerify("physical plan has no pipelines".into()));
    }
    let n_pipes = phys.pipelines.len();
    let mut seen = vec![false; plan.ops.len()];
    // Post-pruning output widths of build-terminated pipelines.
    let mut build_out: Vec<Option<usize>> = vec![None; n_pipes];
    for (pi, pipe) in phys.pipelines.iter().enumerate() {
        let final_pipe = pi == n_pipes - 1;
        let Some((tail, _)) = pipe.ops.split_last() else {
            return Err(GracefulError::PlanVerify(format!("pipeline {pi} has no operators")));
        };
        let mut width = 0usize;
        for (k, op) in pipe.ops.iter().enumerate() {
            let name = op.kind.name();
            let sink = k == pipe.ops.len() - 1;
            match op.plan_idx {
                Some(i) => {
                    let Some(lop) = plan.ops.get(i) else {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            format!("bound to plan op {i}, out of range"),
                        ));
                    };
                    if !kinds_match(&op.kind, &lop.kind) {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            format!("bound to plan op {i} ({}), kinds disagree", lop.kind.name()),
                        ));
                    }
                    if std::mem::replace(&mut seen[i], true) {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            format!("plan op {i} is charged by two physical nodes"),
                        ));
                    }
                }
                None => {
                    if !matches!(
                        op.kind,
                        PhysicalOpKind::HashJoinBuild { .. } | PhysicalOpKind::Collect
                    ) {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            "not bound to a logical plan op; its work has nowhere to go".into(),
                        ));
                    }
                }
            }
            if k == 0 && !matches!(op.kind, PhysicalOpKind::Scan { .. }) {
                return Err(fail(pi, k, name, "pipeline must start with a scan".into()));
            }
            match &op.kind {
                PhysicalOpKind::Scan { table } => {
                    if k > 0 {
                        return Err(fail(pi, k, name, "scan can only head a pipeline".into()));
                    }
                    if let Some(i) = op.plan_idx {
                        if let PlanOpKind::Scan { table: lt } = &plan.ops[i].kind {
                            if lt != table {
                                return Err(fail(
                                    pi,
                                    k,
                                    name,
                                    format!("scans {table} but plan op {i} scans {lt}"),
                                ));
                            }
                        }
                    }
                    width = 1;
                }
                PhysicalOpKind::Filter { preds, positions, stride } => {
                    check_stride(pi, k, name, *stride, width)?;
                    if positions.len() != preds.len() {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            format!("{} preds but {} positions", preds.len(), positions.len()),
                        ));
                    }
                    if let Some(&bad) = positions.iter().find(|&&p| p >= width) {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            format!("position {bad} outside input stride {width}"),
                        ));
                    }
                }
                PhysicalOpKind::UdfFilter { pos, stride, .. }
                | PhysicalOpKind::UdfProject { pos, stride, .. } => {
                    check_stride(pi, k, name, *stride, width)?;
                    if *pos >= width {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            format!("position {pos} outside input stride {width}"),
                        ));
                    }
                }
                PhysicalOpKind::HashJoinBuild { pos, stride, keep, .. } => {
                    check_stride(pi, k, name, *stride, width)?;
                    if *pos >= width {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            format!("key position {pos} outside input stride {width}"),
                        ));
                    }
                    if let Some(&bad) = keep.iter().find(|&&l| l >= width) {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            format!("kept lane {bad} outside input stride {width}"),
                        ));
                    }
                    if !sink || final_pipe {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            "hash build must be the sink of a non-final pipeline".into(),
                        ));
                    }
                    build_out[pi] = Some(keep.len());
                }
                PhysicalOpKind::HashJoinProbe { pos, stride, build, keep, .. } => {
                    check_stride(pi, k, name, *stride, width)?;
                    if *pos >= width {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            format!("key position {pos} outside input stride {width}"),
                        ));
                    }
                    if let Some(&bad) = keep.iter().find(|&&l| l >= width) {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            format!("kept lane {bad} outside input stride {width}"),
                        ));
                    }
                    if *build >= pi {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            format!(
                                "probes pipeline {build}, which does not precede pipeline {pi}"
                            ),
                        ));
                    }
                    let Some(bw) = build_out[*build] else {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            format!("probes pipeline {build}, which does not end in a hash build"),
                        ));
                    };
                    width = keep.len() + bw;
                }
                PhysicalOpKind::Agg { column, stride, .. } => {
                    check_stride(pi, k, name, *stride, width)?;
                    if let Some((_, pos)) = column {
                        if *pos >= width {
                            return Err(fail(
                                pi,
                                k,
                                name,
                                format!("column position {pos} outside input stride {width}"),
                            ));
                        }
                    }
                    if !sink || !final_pipe {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            "aggregate must be the sink of the final pipeline".into(),
                        ));
                    }
                }
                PhysicalOpKind::Collect => {
                    if !sink || !final_pipe {
                        return Err(fail(
                            pi,
                            k,
                            name,
                            "collect must be the sink of the final pipeline".into(),
                        ));
                    }
                }
            }
        }
        let tail_ok = if final_pipe {
            matches!(tail.kind, PhysicalOpKind::Agg { .. } | PhysicalOpKind::Collect)
        } else {
            matches!(tail.kind, PhysicalOpKind::HashJoinBuild { .. })
        };
        if !tail_ok {
            return Err(fail(
                pi,
                pipe.ops.len() - 1,
                tail.kind.name(),
                if final_pipe {
                    "final pipeline must end in an aggregate or collect".into()
                } else {
                    "non-final pipeline must end in a hash build".into()
                },
            ));
        }
    }
    if let Some(i) = seen.iter().position(|s| !s) {
        return Err(GracefulError::PlanVerify(format!(
            "plan op {i} ({}) has no physical node charging its work",
            plan.ops[i].kind.name()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Execution: batches, context, the Operator trait

/// One batch of intermediate rows flowing between operators: a flat row-id
/// matrix (`rows.len() == n_rows × stride`, stride known to each operator
/// from lowering) plus the UDF-projected column when a `UdfProject` produced
/// it. Typed lane buffers ([`graceful_udf::simd::TypedCol`]) appear inside
/// the UDF operators, which gather straight from storage's typed slices.
#[derive(Debug, Default)]
pub struct Batch {
    pub rows: Vec<u32>,
    pub computed: Option<Vec<Value>>,
}

/// Full morsels a parallel operator queues *per worker* before flushing
/// them through the pool. A region costs about a microsecond to post, but a
/// parked helper needs tens of microseconds to wake and each worker that
/// joins builds its own evaluator (`init`), so a window must hold enough
/// rows for a second thread to arrive and pay off; four morsels per worker
/// also leave the morsel cursor room to balance uneven morsels. The value
/// only trades memory for wall-clock and **never affects results** — morsel
/// boundaries and merge order are window-invariant.
const FLUSH_MORSELS_PER_WORKER: usize = 4;

/// Shared read-only execution context handed to every operator call.
pub struct ExecCtx<'a> {
    pub pool: &'a Pool,
    /// Completed hash-join build sides of earlier pipelines.
    pub builds: &'a [BuildSide],
    /// Rows per morsel — the work-accounting unit.
    pub morsel: usize,
    /// `max_intermediate_rows` valve.
    pub cap: usize,
    /// Full-morsel count an operator queues before a parallel flush.
    pub flush_morsels: usize,
}

/// Post-run accounting an operator reports into the [`QueryRun`].
#[derive(Debug, Default)]
pub struct OpStats {
    /// Logical operator this node accounts to (`None`: bookkeeping node).
    pub plan_idx: Option<usize>,
    /// Work units for `op_work[plan_idx]`.
    pub work: f64,
    /// Output cardinality for `out_rows[plan_idx]`.
    pub out_rows: Option<usize>,
    /// Rows fed into this node if it is a UDF operator.
    pub udf_input_rows: Option<usize>,
    /// Aggregate result if this node is the aggregate sink.
    pub agg_value: Option<f64>,
    /// Peak rows this node kept resident (rebatch buffers, build tables).
    pub peak_resident: usize,
    /// Input batches pushed into this node (profile bookkeeping).
    pub batches: u64,
    /// UDF evaluation counters if this node is a UDF operator.
    pub udf_stats: Option<UdfEvalStats>,
}

/// Downstream consumer an operator emits its output batches into. Emission
/// cascades immediately through the rest of the chain, so a producer's
/// output is consumed batch by batch instead of accumulating.
pub type Emit<'e> = dyn FnMut(Batch) -> Result<()> + 'e;

/// A streaming physical operator: receives input batches via
/// [`Operator::push`], emits output batches into the downstream [`Emit`]
/// sink, and flushes buffered state in [`Operator::finish`] (also where
/// closed-form work is charged). After the run, [`Operator::stats`] reports
/// its accounting.
pub trait Operator {
    fn push(&mut self, batch: Batch, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()>;
    fn finish(&mut self, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()>;
    fn stats(&self) -> OpStats;
    /// The completed build side, if this operator is a hash-join build sink.
    fn take_build(&mut self) -> Option<BuildSide> {
        None
    }
}

/// A materialized hash-join build side: the radix-partitioned key →
/// build-row-index index (see `crate::join`) plus the build rows' id
/// tuples (indexed by insertion order, which equals the build input's row
/// order).
pub struct BuildSide {
    index: crate::join::PartitionedIndex,
    rows: Vec<u32>,
    stride: usize,
    n_rows: usize,
}

// ---------------------------------------------------------------------------
// Operator implementations

/// Morsel-aligned rebatch buffer shared by the parallel operators: appends
/// input rows, hands out complete morsels mid-stream and the ragged tail at
/// finish.
struct Rebatcher {
    rows: Vec<u32>,
    stride: usize,
    peak: usize,
}

impl Rebatcher {
    fn new(stride: usize) -> Self {
        Rebatcher { rows: Vec::new(), stride, peak: 0 }
    }

    fn append(&mut self, batch: &Batch) {
        self.rows.extend_from_slice(&batch.rows);
        self.peak = self.peak.max(self.rows.len() / self.stride);
    }

    fn buffered_rows(&self) -> usize {
        self.rows.len() / self.stride
    }

    /// Rows to evaluate now: mid-stream only complete morsels, and only once
    /// `flush_morsels` of them are queued; at finish, everything.
    fn take_rows(&self, all: bool, ctx: &ExecCtx<'_>) -> usize {
        let n = self.buffered_rows();
        if all {
            return n;
        }
        let complete = n / ctx.morsel;
        if complete >= ctx.flush_morsels {
            complete * ctx.morsel
        } else {
            0
        }
    }

    fn drain(&mut self, rows: usize) {
        self.rows.drain(..rows * self.stride);
    }
}

/// Conjunctive predicate filter (morsel-parallel).
struct FilterExec<'a> {
    plan_idx: usize,
    /// Each with the tuple lane that holds its table's row id.
    preds: Vec<(RowTest<'a>, usize)>,
    buf: Rebatcher,
    stride: usize,
    rows_in: usize,
    rows_out: usize,
    batches: u64,
    work: f64,
    weights: &'a OperatorWeights,
}

impl FilterExec<'_> {
    fn flush(&mut self, all: bool, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()> {
        let take = self.buf.take_rows(all, ctx);
        if take == 0 {
            return Ok(());
        }
        let stride = self.stride;
        let preds = &self.preds;
        let pending = &self.buf.rows[..take * stride];
        let parts: Vec<Vec<u32>> = ctx.pool.try_map_init(
            Pool::morsel_count(take, ctx.morsel),
            || (),
            |_, m| {
                let mut kept = Vec::new();
                for r in Pool::morsel_range(m, take, ctx.morsel) {
                    let keep = preds
                        .iter()
                        .all(|(test, pos)| test.accepts(pending[r * stride + pos] as usize));
                    if keep {
                        kept.extend_from_slice(&pending[r * stride..(r + 1) * stride]);
                    }
                }
                kept
            },
        )?;
        for kept in parts {
            self.rows_out += kept.len() / stride;
            if self.rows_out > ctx.cap {
                return Err(cap_error(self.rows_out));
            }
            if !kept.is_empty() {
                emit(Batch { rows: kept, computed: None })?;
            }
        }
        self.buf.drain(take);
        Ok(())
    }
}

impl Operator for FilterExec<'_> {
    fn push(&mut self, batch: Batch, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()> {
        self.rows_in += batch.rows.len() / self.stride;
        self.batches += 1;
        self.buf.append(&batch);
        self.flush(false, ctx, emit)
    }

    fn finish(&mut self, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()> {
        self.flush(true, ctx, emit)?;
        self.work += self.weights.filter(self.rows_in as f64, self.preds.len());
        Ok(())
    }

    fn stats(&self) -> OpStats {
        OpStats {
            plan_idx: Some(self.plan_idx),
            work: self.work,
            out_rows: Some(self.rows_out),
            peak_resident: self.buf.peak,
            batches: self.batches,
            ..OpStats::default()
        }
    }
}

/// UDF filter/projection over the evaluators of `crate::udf_eval`
/// (morsel-parallel, batch boundaries restart per morsel).
struct UdfExec<'a> {
    plan_idx: usize,
    spec: UdfEvalSpec<'a>,
    /// `Some((cmp, literal))` for a UDF filter, `None` for a projection.
    filter: Option<(CmpOp, f64)>,
    pos: usize,
    stride: usize,
    buf: Rebatcher,
    rows_in: usize,
    rows_out: usize,
    batches: u64,
    work: f64,
    eval_stats: UdfEvalStats,
}

impl UdfExec<'_> {
    fn flush(&mut self, all: bool, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()> {
        let take = self.buf.take_rows(all, ctx);
        if take == 0 {
            return Ok(());
        }
        let stride = self.stride;
        let pos = self.pos;
        let pending = &self.buf.rows[..take * stride];
        let parts = self
            .spec
            .eval_morsels(ctx.pool, take, ctx.morsel, |r| pending[r * stride + pos] as usize)?;
        // Ordered merge in morsel-index order (== row order).
        for (m, part) in parts.into_iter().enumerate() {
            let (morsel_work, values, morsel_stats) = part?;
            self.work += morsel_work;
            self.eval_stats.merge(&morsel_stats);
            let range = Pool::morsel_range(m, take, ctx.morsel);
            match self.filter {
                Some((cmp, literal)) => {
                    let mut kept = Vec::new();
                    for (r, value) in range.zip(values) {
                        let keep = match value.as_f64() {
                            Some(v) => cmp_f64(cmp, v, literal),
                            None => false, // NULL and text outputs never pass
                        };
                        if keep {
                            kept.extend_from_slice(&pending[r * stride..(r + 1) * stride]);
                        }
                    }
                    self.rows_out += kept.len() / stride;
                    if self.rows_out > ctx.cap {
                        return Err(cap_error(self.rows_out));
                    }
                    if !kept.is_empty() {
                        emit(Batch { rows: kept, computed: None })?;
                    }
                }
                None => {
                    let rows = pending[range.start * stride..range.end * stride].to_vec();
                    self.rows_out += range.len();
                    if self.rows_out > ctx.cap {
                        return Err(cap_error(self.rows_out));
                    }
                    emit(Batch { rows, computed: Some(values) })?;
                }
            }
        }
        self.buf.drain(take);
        Ok(())
    }
}

impl Operator for UdfExec<'_> {
    fn push(&mut self, batch: Batch, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()> {
        self.rows_in += batch.rows.len() / self.stride;
        self.batches += 1;
        self.buf.append(&batch);
        self.flush(false, ctx, emit)
    }

    fn finish(&mut self, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()> {
        self.flush(true, ctx, emit)
    }

    fn stats(&self) -> OpStats {
        OpStats {
            plan_idx: Some(self.plan_idx),
            work: self.work,
            out_rows: Some(self.rows_out),
            udf_input_rows: Some(self.rows_in),
            peak_resident: self.buf.peak,
            batches: self.batches,
            udf_stats: Some(self.eval_stats),
            ..OpStats::default()
        }
    }
}

/// Hash-join build sink: materializes the pipeline's output as the probe's
/// hash table, storing only the `keep` lanes of each input tuple (the key
/// is read from the full input tuple, so even the key lane can be pruned
/// from storage). Keys are gathered while rows stream in; the partitioned
/// index itself is built in parallel at `finish` (see
/// [`crate::join::PartitionedIndex`]) with per-key match lists identical to
/// a sequential insertion-order build. Work is accounted by the probe (the
/// join's logical operator).
struct BuildExec<'a> {
    key_col: &'a Column,
    pos: usize,
    stride: usize,
    keep: &'a [usize],
    /// Kept lanes of every input tuple, insertion order.
    rows: Vec<u32>,
    /// Per input row, its join key (`None` = NULL, never matches).
    keys: Vec<Option<i64>>,
    side: Option<BuildSide>,
}

impl Operator for BuildExec<'_> {
    fn push(&mut self, batch: Batch, _ctx: &ExecCtx<'_>, _emit: &mut Emit<'_>) -> Result<()> {
        for tuple in batch.rows.chunks_exact(self.stride) {
            self.keys.push(self.key_col.get_i64(tuple[self.pos] as usize));
            self.rows.extend(self.keep.iter().map(|&i| tuple[i]));
        }
        Ok(())
    }

    fn finish(&mut self, ctx: &ExecCtx<'_>, _emit: &mut Emit<'_>) -> Result<()> {
        let keys = std::mem::take(&mut self.keys);
        let index =
            crate::join::PartitionedIndex::build(ctx.pool, keys.len(), ctx.morsel, |r| keys[r])?;
        self.side = Some(BuildSide {
            index,
            rows: std::mem::take(&mut self.rows),
            stride: self.keep.len(),
            n_rows: keys.len(),
        });
        Ok(())
    }

    fn stats(&self) -> OpStats {
        OpStats { peak_resident: self.side.as_ref().map_or(0, |s| s.n_rows), ..OpStats::default() }
    }

    fn take_build(&mut self) -> Option<BuildSide> {
        self.side.take()
    }
}

/// Hash-join probe (morsel-parallel): looks up each left row's key in the
/// partitioned build index, emits matched `left[keep] ++ build` tuples (the
/// build side was lane-pruned at build time). Input rows rebatch to morsel
/// boundaries; per-morsel output chunks merge in morsel-index order, which
/// reproduces the sequential probe's output row order exactly. Accounts the
/// whole join's work at finish — lane pruning never changes row counts, so
/// the charge is rewrite-invariant.
struct ProbeExec<'a> {
    plan_idx: usize,
    key_col: &'a Column,
    pos: usize,
    stride: usize,
    keep: &'a [usize],
    build: usize,
    buf: Rebatcher,
    rows_in: usize,
    rows_out: usize,
    batches: u64,
    work: f64,
    weights: &'a OperatorWeights,
}

impl ProbeExec<'_> {
    fn flush(&mut self, all: bool, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()> {
        let take = self.buf.take_rows(all, ctx);
        if take == 0 {
            return Ok(());
        }
        let side = &ctx.builds[self.build];
        let lstride = self.stride;
        let keep = self.keep;
        let pos = self.pos;
        let key_col = self.key_col;
        let cap = ctx.cap;
        let pending = &self.buf.rows[..take * lstride];
        // The intermediate cap is enforced per morsel (bounding memory
        // mid-probe) and again cumulatively on merge — a query errors iff
        // its total output exceeds the cap, the same outcome the sequential
        // row-by-row check produced.
        let parts = ctx.pool.try_map_init(
            Pool::morsel_count(take, ctx.morsel),
            || (),
            |_, m| -> Result<(Vec<u32>, usize)> {
                let mut chunk: Vec<u32> = Vec::new();
                let mut emitted = 0usize;
                for l in Pool::morsel_range(m, take, ctx.morsel) {
                    let tuple = &pending[l * lstride..(l + 1) * lstride];
                    let Some(k) = key_col.get_i64(tuple[pos] as usize) else { continue };
                    if let Some(matches) = side.index.get(k) {
                        for &r in matches {
                            chunk.extend(keep.iter().map(|&i| tuple[i]));
                            chunk.extend_from_slice(
                                &side.rows
                                    [r as usize * side.stride..(r as usize + 1) * side.stride],
                            );
                            emitted += 1;
                            if emitted > cap {
                                return Err(GracefulError::InvalidPlan(
                                    "join output exceeds intermediate cap".into(),
                                ));
                            }
                        }
                    }
                }
                Ok((chunk, emitted))
            },
        )?;
        for part in parts {
            let (chunk, emitted) = part?;
            self.rows_out += emitted;
            if self.rows_out > cap {
                return Err(GracefulError::InvalidPlan(
                    "join output exceeds intermediate cap".into(),
                ));
            }
            if !chunk.is_empty() {
                emit(Batch { rows: chunk, computed: None })?;
            }
        }
        self.rows_in += take;
        self.buf.drain(take);
        Ok(())
    }
}

impl Operator for ProbeExec<'_> {
    fn push(&mut self, batch: Batch, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()> {
        self.batches += 1;
        self.buf.append(&batch);
        self.flush(false, ctx, emit)
    }

    fn finish(&mut self, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()> {
        self.flush(true, ctx, emit)?;
        let rn = ctx.builds[self.build].n_rows;
        self.work += self.weights.join(rn as f64, self.rows_in as f64, self.rows_out as f64);
        Ok(())
    }

    fn stats(&self) -> OpStats {
        OpStats {
            plan_idx: Some(self.plan_idx),
            work: self.work,
            out_rows: Some(self.rows_out),
            batches: self.batches,
            peak_resident: self.buf.peak,
            ..OpStats::default()
        }
    }
}

/// Aggregate sink (morsel-parallel): rebatches its input to morsel
/// boundaries, folds each morsel into its own [`AggState`] partial on the
/// pool, and merges partials in morsel-index order, so the fold shape is
/// fixed by the morsel size alone. `COUNT(*)` never touches a float and
/// streams unbuffered.
struct AggExec<'a> {
    plan_idx: usize,
    func: AggFunc,
    /// The aggregated base column and its table's lane; `None` aggregates
    /// the UDF-projected column travelling with the batches.
    column: Option<(&'a Column, usize)>,
    stride: usize,
    state: AggState,
    buf: Rebatcher,
    /// UDF-projected values travelling with the buffered rows (column-less
    /// aggregates only), row-aligned with `buf`.
    computed_buf: Vec<Value>,
    rows_in: usize,
    batches: u64,
    work: f64,
    weights: &'a OperatorWeights,
}

impl AggExec<'_> {
    fn flush(&mut self, all: bool, ctx: &ExecCtx<'_>) -> Result<()> {
        let take = self.buf.take_rows(all, ctx);
        if take == 0 {
            return Ok(());
        }
        let stride = self.stride;
        let func = self.func;
        // Flushes drain whole morsels mid-stream, so partial boundaries sit
        // at the same input-stream offsets as `Pool::morsel_range` over the
        // whole input.
        let (column, rows, computed) = (self.column, &self.buf.rows, &self.computed_buf);
        let partials: Vec<AggState> = ctx.pool.try_map_init(
            Pool::morsel_count(take, ctx.morsel),
            || (),
            |_, m| {
                let mut part = AggState::new(func);
                for r in Pool::morsel_range(m, take, ctx.morsel) {
                    part.observe(match column {
                        Some((col, pos)) => col.get_f64(rows[r * stride + pos] as usize),
                        None => computed[r].as_f64(),
                    });
                }
                part
            },
        )?;
        for part in &partials {
            self.state.merge(part);
        }
        self.buf.drain(take);
        if self.column.is_none() {
            self.computed_buf.drain(..take);
        }
        Ok(())
    }
}

impl Operator for AggExec<'_> {
    fn push(&mut self, batch: Batch, ctx: &ExecCtx<'_>, _emit: &mut Emit<'_>) -> Result<()> {
        let n = batch.rows.len() / self.stride;
        self.rows_in += n;
        self.batches += 1;
        if self.func == AggFunc::CountStar {
            self.state.count_rows(n);
            return Ok(());
        }
        if n == 0 {
            // Nothing to fold. The collecting driver pushes one batch per
            // operator even when upstream emitted none, and such a batch
            // carries no projected column to check for.
            return Ok(());
        }
        let mut batch = batch;
        if self.column.is_none() {
            // Aggregate the UDF-projected column (presence is structural:
            // guaranteed by `expects_computed`, which lowering verified).
            let computed = batch.computed.take().ok_or_else(|| {
                GracefulError::InvalidPlan("agg over UDF output requires a UdfProject below".into())
            })?;
            self.computed_buf.extend(computed);
        }
        self.buf.append(&batch);
        self.flush(false, ctx)
    }

    fn finish(&mut self, ctx: &ExecCtx<'_>, _emit: &mut Emit<'_>) -> Result<()> {
        if self.func != AggFunc::CountStar {
            self.flush(true, ctx)?;
        }
        self.work += self.weights.agg(self.rows_in as f64);
        Ok(())
    }

    fn stats(&self) -> OpStats {
        OpStats {
            plan_idx: Some(self.plan_idx),
            work: self.work,
            out_rows: Some(1),
            agg_value: Some(self.state.finish()),
            batches: self.batches,
            ..OpStats::default()
        }
    }
}

/// Terminator for non-aggregate roots.
struct CollectExec;

impl Operator for CollectExec {
    fn push(&mut self, _batch: Batch, _ctx: &ExecCtx<'_>, _emit: &mut Emit<'_>) -> Result<()> {
        Ok(())
    }

    fn finish(&mut self, _ctx: &ExecCtx<'_>, _emit: &mut Emit<'_>) -> Result<()> {
        Ok(())
    }

    fn stats(&self) -> OpStats {
        OpStats::default()
    }
}

fn cap_error(rows: usize) -> GracefulError {
    GracefulError::InvalidPlan(format!("intermediate result exceeds cap: {rows} rows"))
}

// ---------------------------------------------------------------------------
// Wall-time self-profiler

/// Self-time wall profiler for one pipeline's operator chain (chain index 0
/// is the scan source, `k + 1` is `pipe.ops[1..][k]`).
///
/// The batch cascade is recursive — an operator's `push` calls downstream
/// `push`es before returning — so inclusive timings would double-count every
/// upstream operator. Instead the driver marks enter/exit transitions and
/// attributes each elapsed slice to the operator on top of the stack: time an
/// operator spends before emitting (or after its emit returns) is its own;
/// time inside a downstream push belongs to that downstream operator.
///
/// Single-threaded by design (the driver and the Emit cascade run on the
/// driving thread; pool workers' time shows up as their operator's own,
/// because the operator blocks on the parallel region it launched).
struct ChainProf {
    wall: Vec<Cell<u64>>,
    stack: RefCell<Vec<usize>>,
    last: Cell<Instant>,
}

impl ChainProf {
    fn new(chain_len: usize) -> Self {
        ChainProf {
            wall: (0..chain_len).map(|_| Cell::new(0)).collect(),
            stack: RefCell::new(Vec::with_capacity(chain_len)),
            last: Cell::new(Instant::now()),
        }
    }

    /// Nanoseconds since the previous mark; advances the mark.
    fn mark(&self) -> u64 {
        let now = Instant::now();
        let dt = now.duration_since(self.last.get()).as_nanos() as u64;
        self.last.set(now);
        dt
    }

    fn enter(&self, chain_idx: usize) {
        let dt = self.mark();
        if let Some(&top) = self.stack.borrow().last() {
            self.wall[top].set(self.wall[top].get() + dt);
        }
        self.stack.borrow_mut().push(chain_idx);
    }

    fn exit(&self) {
        let dt = self.mark();
        if let Some(top) = self.stack.borrow_mut().pop() {
            self.wall[top].set(self.wall[top].get() + dt);
        }
    }
}

// ---------------------------------------------------------------------------
// Driver

/// Execute `plan`: lower it, audit the lowering, and drive each pipeline's
/// operators, taking the execution shortcuts `cuts` allows. What
/// `Executor::run` and `Executor::run_reference` call after the logical-plan
/// verification gate.
pub(crate) fn execute(
    db: &Database,
    plan: &Plan,
    config: &ExecConfig,
    seed: u64,
    cuts: Shortcuts,
) -> Result<QueryRun> {
    let started = Instant::now();
    // Only the streaming driver is instrumented.
    let profiling = config.profile && cuts.streaming;
    let phys = lower_under(db, plan, cuts)?;
    verify_physical(&phys, plan)?;
    let pool = Pool::new(config.threads);
    let n_ops = plan.ops.len();
    let mut out_rows = vec![0usize; n_ops];
    let mut op_work = vec![0f64; n_ops];
    let mut wall_ns = vec![0u64; n_ops];
    let mut batches = vec![0u64; n_ops];
    let mut udf_stats: Vec<Option<UdfEvalStats>> = vec![None; n_ops];
    // `(plan_idx, rows_in)` of the UDF operator that owns `udf_input_rows`:
    // the highest plan index wins, regardless of pipeline order.
    let mut udf_mark: Option<(usize, usize)> = None;
    let mut agg_value = 0.0;
    let mut peak_inter_rows = 0usize;
    let mut builds: Vec<BuildSide> = Vec::new();
    // Self time of each pipeline's plan-less build sink, indexed like
    // `phys.pipelines` (a probe's `build` field is a pipeline index); folded
    // into the probing join operator's wall time.
    let mut build_wall: Vec<u64> = Vec::new();
    for pipe in &phys.pipelines {
        let _pipe_span = trace::span("exec", "pipeline").arg("ops", pipe.ops.len());
        let ctx = ExecCtx {
            pool: &pool,
            builds: &builds,
            morsel: config.morsel_rows.max(1),
            cap: config.max_intermediate_rows,
            flush_morsels: config.threads.max(1) * FLUSH_MORSELS_PER_WORKER,
        };
        // Source: the scan at the head of the chain. Shape violations are
        // typed errors, not panics — the `verify_physical` audit has already
        // rejected them before rows flow.
        let (scan_table, scan_idx) = match pipe.ops.first() {
            Some(PhysicalOp { kind: PhysicalOpKind::Scan { table }, plan_idx: Some(idx) }) => {
                (*table, *idx)
            }
            Some(other) => {
                return Err(GracefulError::PlanVerify(format!(
                    "pipeline must start with a scan bound to a plan op, got {}",
                    other.kind.name()
                )))
            }
            None => {
                return Err(GracefulError::PlanVerify("pipeline has no operators".into()));
            }
        };
        let t = db.table(scan_table)?;
        let n = t.num_rows();
        op_work[scan_idx] += config.weights.scan(n as f64);
        out_rows[scan_idx] = n;
        if n > config.max_intermediate_rows {
            return Err(cap_error(n));
        }
        let mut ops: Vec<Box<dyn Operator + '_>> = pipe.ops[1..]
            .iter()
            .map(|op| instantiate(db, config, cuts, op))
            .collect::<Result<_>>()?;
        let prof = profiling.then(|| ChainProf::new(pipe.ops.len()));
        batches[scan_idx] += if cuts.streaming {
            stream_all(&mut ops, &ctx, n, prof.as_ref())?
        } else {
            collect_all(&mut ops, &ctx, n)?
        };
        let stats: Vec<OpStats> = ops.iter().map(|op| op.stats()).collect();
        for s in &stats {
            if let Some(i) = s.plan_idx {
                op_work[i] += s.work;
                batches[i] += s.batches;
                if let Some(r) = s.out_rows {
                    out_rows[i] = r;
                }
                if let Some(us) = s.udf_stats {
                    udf_stats[i].get_or_insert_with(UdfEvalStats::default).merge(&us);
                    record_udf_metrics(&us);
                }
            }
            if let (Some(i), Some(u)) = (s.plan_idx, s.udf_input_rows) {
                if udf_mark.is_none_or(|(j, _)| i > j) {
                    udf_mark = Some((i, u));
                }
            }
            if let Some(a) = s.agg_value {
                agg_value = a;
            }
        }
        // Rows resident while this pipeline ran. Streaming: one in-flight
        // scan batch plus every operator's buffers. Collecting: the largest
        // (whole input + whole output) any one operator held, a build
        // sink's output being the side it holds.
        let pipe_resident = if cuts.streaming {
            n.min(ctx.morsel) + stats.iter().map(|s| s.peak_resident).sum::<usize>()
        } else {
            let (mut peak, mut rows_in) = (n, n);
            for s in &stats {
                let rows_out = s.out_rows.unwrap_or(s.peak_resident);
                peak = peak.max(rows_in + rows_out);
                rows_in = rows_out;
            }
            peak
        };
        // Attribute the chain's wall self-times to their logical operators.
        // Plan-less nodes fold elsewhere: a build sink's time is stashed for
        // the probing join, a collect's folds into the last planned operator
        // upstream of it.
        let mut orphan_build = 0u64;
        if let Some(p) = &prof {
            wall_ns[scan_idx] += p.wall[0].get();
            let mut last_planned = scan_idx;
            for (k, phys_op) in pipe.ops[1..].iter().enumerate() {
                let w = p.wall[k + 1].get();
                match phys_op.plan_idx {
                    Some(i) => {
                        wall_ns[i] += w;
                        last_planned = i;
                        if let PhysicalOpKind::HashJoinProbe { build, .. } = &phys_op.kind {
                            wall_ns[i] += build_wall.get(*build).copied().unwrap_or(0);
                        }
                    }
                    None => match phys_op.kind {
                        PhysicalOpKind::HashJoinBuild { .. } => orphan_build += w,
                        _ => wall_ns[last_planned] += w,
                    },
                }
            }
        }
        build_wall.push(orphan_build);
        // Build sides persist past their pipeline; buffers do not.
        let held: usize = builds.iter().map(|b| b.n_rows).sum();
        peak_inter_rows = peak_inter_rows.max(held + pipe_resident);
        if let Some(side) = ops.last_mut().and_then(|o| o.take_build()) {
            drop(ops);
            builds.push(side);
        }
    }
    let total: f64 = op_work.iter().sum();
    let runtime_ns = total * jitter_factor(seed, config.jitter);
    let udf_input_rows = udf_mark.map_or(0, |(_, u)| u);
    let profile = profiling.then(|| {
        ExecProfile::assemble(
            plan,
            config,
            started.elapsed().as_nanos() as u64,
            &wall_ns,
            &batches,
            &out_rows,
            &op_work,
            &udf_stats,
        )
    });
    Ok(QueryRun {
        runtime_ns,
        out_rows,
        op_work,
        agg_value,
        udf_input_rows,
        peak_inter_rows,
        profile,
    })
}

/// The logical plan op a physical node charges its work to; a missing
/// binding on a node that needs one is a lowering invariant violation,
/// reported as the typed verifier error rather than a panic.
fn planned(op: &PhysicalOp<'_>) -> Result<usize> {
    op.plan_idx.ok_or_else(|| {
        GracefulError::PlanVerify(format!(
            "physical {} is not bound to a logical plan op, so its work \
             and cardinality have nowhere to be charged",
            op.kind.name()
        ))
    })
}

/// Instantiate the execution state for one lowered node, resolving its
/// storage columns.
fn instantiate<'a>(
    db: &'a Database,
    config: &'a ExecConfig,
    cuts: Shortcuts,
    op: &'a PhysicalOp<'_>,
) -> Result<Box<dyn Operator + 'a>> {
    let w = &config.weights;
    Ok(match &op.kind {
        PhysicalOpKind::Scan { .. } => {
            return Err(GracefulError::PlanVerify(
                "scan is the pipeline source, not a streaming operator".into(),
            ))
        }
        PhysicalOpKind::Filter { preds, positions, stride } => {
            let resolved = preds
                .iter()
                .zip(positions)
                .map(|(p, &pos)| Ok((RowTest::compile(p, db.table(&p.col.table)?), pos)))
                .collect::<Result<_>>()?;
            Box::new(FilterExec {
                plan_idx: planned(op)?,
                preds: resolved,
                buf: Rebatcher::new(*stride),
                stride: *stride,
                rows_in: 0,
                rows_out: 0,
                batches: 0,
                work: 0.0,
                weights: w,
            })
        }
        PhysicalOpKind::UdfFilter { udf, cmp, literal, pos, stride } => Box::new(UdfExec {
            plan_idx: planned(op)?,
            spec: udf_spec(db, config, cuts, udf, w.udf_compare)?,
            filter: Some((*cmp, *literal)),
            pos: *pos,
            stride: *stride,
            buf: Rebatcher::new(*stride),
            rows_in: 0,
            rows_out: 0,
            batches: 0,
            work: 0.0,
            eval_stats: UdfEvalStats::default(),
        }),
        PhysicalOpKind::UdfProject { udf, pos, stride } => Box::new(UdfExec {
            plan_idx: planned(op)?,
            spec: udf_spec(db, config, cuts, udf, w.project_row)?,
            filter: None,
            pos: *pos,
            stride: *stride,
            buf: Rebatcher::new(*stride),
            rows_in: 0,
            rows_out: 0,
            batches: 0,
            work: 0.0,
            eval_stats: UdfEvalStats::default(),
        }),
        PhysicalOpKind::HashJoinBuild { key, pos, stride, keep } => Box::new(BuildExec {
            key_col: db.table(&key.table)?.column(&key.column)?,
            pos: *pos,
            stride: *stride,
            keep,
            rows: Vec::new(),
            keys: Vec::new(),
            side: None,
        }),
        PhysicalOpKind::HashJoinProbe { key, pos, stride, build, keep } => Box::new(ProbeExec {
            plan_idx: planned(op)?,
            key_col: db.table(&key.table)?.column(&key.column)?,
            pos: *pos,
            stride: *stride,
            keep,
            build: *build,
            buf: Rebatcher::new(*stride),
            rows_in: 0,
            rows_out: 0,
            batches: 0,
            work: 0.0,
            weights: w,
        }),
        PhysicalOpKind::Agg { func, column, stride, .. } => Box::new(AggExec {
            plan_idx: planned(op)?,
            func: *func,
            column: match column {
                Some((c, pos)) => Some((db.table(&c.table)?.column(&c.column)?, *pos)),
                None => None,
            },
            stride: *stride,
            state: AggState::new(*func),
            buf: Rebatcher::new(*stride),
            computed_buf: Vec::new(),
            rows_in: 0,
            batches: 0,
            work: 0.0,
            weights: w,
        }),
        PhysicalOpKind::Collect => Box::new(CollectExec),
    })
}

/// Push one batch into operator `ops[0]`; its emissions cascade through the
/// rest of the chain batch by batch, so no operator's full output is ever
/// collected in one place. `chain` is `ops[0]`'s chain index for the
/// optional wall-time profiler.
fn feed(
    ops: &mut [Box<dyn Operator + '_>],
    ctx: &ExecCtx<'_>,
    batch: Batch,
    prof: Option<&ChainProf>,
    chain: usize,
) -> Result<()> {
    let Some((first, rest)) = ops.split_first_mut() else {
        return Ok(());
    };
    if let Some(p) = prof {
        p.enter(chain);
    }
    let pushed = first.push(batch, ctx, &mut |b| feed(rest, ctx, b, prof, chain + 1));
    if let Some(p) = prof {
        p.exit();
    }
    pushed
}

/// Flush every operator in chain order, cascading flushed batches through
/// the not-yet-finished downstream operators.
fn finish_all(
    ops: &mut [Box<dyn Operator + '_>],
    ctx: &ExecCtx<'_>,
    prof: Option<&ChainProf>,
    chain: usize,
) -> Result<()> {
    let Some((first, rest)) = ops.split_first_mut() else {
        return Ok(());
    };
    if let Some(p) = prof {
        p.enter(chain);
    }
    let finished = first.finish(ctx, &mut |b| feed(rest, ctx, b, prof, chain + 1));
    if let Some(p) = prof {
        p.exit();
    }
    finished?;
    finish_all(rest, ctx, prof, chain + 1)
}

/// The scan source's output: the row ids of `range`.
fn scan_batch(range: std::ops::Range<usize>) -> Batch {
    Batch { rows: range.map(|r| r as u32).collect(), computed: None }
}

/// The streaming driver: the scan's `n` rows enter the chain one morsel at
/// a time and every emission cascades downstream immediately; the chain is
/// flushed once the source is dry. Returns the scan's batch count.
fn stream_all(
    ops: &mut [Box<dyn Operator + '_>],
    ctx: &ExecCtx<'_>,
    n: usize,
    prof: Option<&ChainProf>,
) -> Result<u64> {
    let morsels = Pool::morsel_count(n, ctx.morsel);
    for m in 0..morsels {
        if let Some(p) = prof {
            p.enter(0);
        }
        let fed = feed(ops, ctx, scan_batch(Pool::morsel_range(m, n, ctx.morsel)), prof, 1);
        if let Some(p) = prof {
            p.exit();
        }
        fed?;
    }
    finish_all(ops, ctx, prof, 1)?;
    Ok(morsels as u64)
}

/// The collecting driver (the reference's): the scan's `n` rows are one
/// batch, and every operator receives its whole input as one batch, is
/// finished, and has its emissions concatenated into the next operator's
/// input. The operators rebatch to morsel boundaries themselves, so they
/// evaluate exactly the morsels the streaming cascade feeds them. Returns
/// the scan's batch count.
fn collect_all(ops: &mut [Box<dyn Operator + '_>], ctx: &ExecCtx<'_>, n: usize) -> Result<u64> {
    let mut batch = scan_batch(0..n);
    for op in ops.iter_mut() {
        let mut out = Batch::default();
        let mut collect = |b: Batch| {
            out.rows.extend_from_slice(&b.rows);
            if let Some(values) = b.computed {
                out.computed.get_or_insert_with(Vec::new).extend(values);
            }
            Ok(())
        };
        op.push(batch, ctx, &mut collect).and_then(|()| op.finish(ctx, &mut collect))?;
        batch = out;
    }
    Ok(1)
}

fn udf_spec<'a>(
    db: &'a Database,
    config: &ExecConfig,
    cuts: Shortcuts,
    udf: &'a GeneratedUdf,
    overhead: f64,
) -> Result<UdfEvalSpec<'a>> {
    let t = db.table(&udf.table)?;
    let cols =
        udf.input_columns.iter().map(|c| t.column(c)).collect::<Result<Vec<&'a Column>>>()?;
    UdfEvalSpec::prepare(
        udf,
        cols,
        cuts.typed_lanes,
        config.udf_weights.clone(),
        config.udf_batch_size,
        overhead,
    )
}
