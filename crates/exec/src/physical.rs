//! The executor: typed physical pipelines, one morsel stage, two drivers.
//!
//! [`lower`] turns a logical [`Plan`] into a [`PhysicalPlan`]: the hash-join
//! build [`Pipeline`]s in execution order, then the root pipeline. A pipeline
//! is a scan, streaming operators and a sink, and its *shape is a type*: a
//! scan can only head it, every streaming operator carries the logical
//! operator it charges, a build pipeline can only end in a [`HashBuild`] and
//! the root only in a [`RootSink`]. What a type cannot carry — strides,
//! positions, probe → earlier build, every logical operator charged exactly
//! once — `audit::verify_physical` checks before rows flow. `driver::execute`
//! then instantiates each pipeline's operators (`stage`) and drives them:
//!
//! * **streaming** (what `Session::run` does): fixed-size [`Batch`]es of
//!   row ids are pushed through the chain and every emission cascades
//!   downstream immediately, so peak memory for a non-blocking chain is
//!   bounded by O(threads × morsel × pipeline depth). Hash-join build sides
//!   are the one deliberate exception — a build side is materialized by
//!   construction, exactly as in any hash-join engine.
//! * **collecting** (what `Session::run_reference` does, with the other
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
//! scheduling problem, not just a semantics problem; three rules solve it,
//! and all three are implemented in one place, `stage::Stage`, which every
//! parallel operator (filter, UDF, probe, aggregate) is an instance of:
//!
//! 1. **Morsel-aligned rebatching.** The stage buffers its input and only
//!    evaluates *complete* `morsel_rows`-row morsels mid-stream (the ragged
//!    tail waits for `finish`). An operator's morsel boundaries therefore
//!    sit at the `Pool::morsel_range` partition of its whole input stream —
//!    no matter how upstream batched its output, in morsels or all at once —
//!    so per-morsel work sums group identically.
//! 2. **Ordered merges.** Per-morsel results merge in morsel-index order
//!    (the runtime's standard contract), and the stage's `work` accumulator
//!    folds those sums in that order.
//! 3. **Closed-form charges at `finish`.** Work terms that are functions of
//!    whole-input counts (scan, filter, join, aggregate) are charged once
//!    from those counts through the [`OperatorWeights`](crate::OperatorWeights)
//!    methods — the one place each formula is written — not accumulated per
//!    batch.
//!
//! Flush timing — how many full morsels the stage queues before running them
//! in parallel — affects only wall-clock behaviour, never boundaries or
//! merge order, so results are independent of the thread count.
//!
//! Structural plan validation (unbound tables, missing UdfProject below an
//! aggregate) happens during lowering or operator construction, before rows
//! flow; data-dependent errors (the `max_intermediate_rows` valve) surface
//! mid-stream as typed [`GracefulError::InvalidPlan`].
//!
//! # Verified rewrites
//!
//! [`lower`] accepts a [`RewriteSet`] (the shipped run always passes one,
//! the reference run never) and applies its execution hint: join lanes that
//! liveness proves dead above the join are dropped from build storage and
//! probe output. Work charges are closed-form from row counts, which lane
//! pruning never changes, so the rewrite keeps every `QueryRun` value
//! bit-identical with the unrewritten run.

mod audit;
mod driver;
mod stage;

pub use audit::verify_physical;
pub(crate) use driver::{execute, OpTally};
pub use stage::{Batch, BuildSide, Emit, ExecCtx, OpStats, Operator};

use crate::engine::Shortcuts;
use graceful_common::{GracefulError, Result};
use graceful_plan::analysis::join_keep_lanes;
use graceful_plan::{AggFunc, ColRef, Plan, PlanOpKind, Pred, RewriteSet};
use graceful_storage::Database;
use graceful_udf::ast::CmpOp;
use graceful_udf::GeneratedUdf;
use std::fmt::{Display, Write as _};

/// A lowered plan: the hash-join build pipelines in execution order — a
/// probe names its build by position in `builds`, and only earlier ones —
/// followed by the pipeline that carries the plan root.
#[derive(Debug)]
pub struct PhysicalPlan<'p> {
    pub builds: Vec<Pipeline<'p, HashBuild<'p>>>,
    pub root: Pipeline<'p, RootSink<'p>>,
}

/// One streaming chain: a scan source, the operators batches stream
/// through, and the sink `S` that terminates it.
#[derive(Debug)]
pub struct Pipeline<'p, S> {
    pub scan: Scan<'p>,
    pub ops: Vec<PhysicalOp<'p>>,
    pub sink: S,
}

/// Pipeline source: emits morsel-sized batches of `table`'s consecutive row
/// ids, charged to the logical scan `plan_idx`.
#[derive(Debug)]
pub struct Scan<'p> {
    pub table: &'p str,
    pub plan_idx: usize,
}

/// One streaming operator, the logical plan operator it accounts its work
/// and output cardinality to, and the width (bound base tables) of its
/// *input* row tuples.
#[derive(Debug)]
pub struct PhysicalOp<'p> {
    pub kind: PhysicalOpKind<'p>,
    pub plan_idx: usize,
    pub stride: usize,
}

/// Streaming operator kinds. `pos` fields are resolved first-occurrence
/// positions within the input tuple.
#[derive(Debug)]
pub enum PhysicalOpKind<'p> {
    /// Conjunctive predicate filter; each predicate with the position of its
    /// table in the input tuple.
    Filter { preds: Vec<(&'p Pred, usize)> },
    /// Filter on a UDF's output: `udf(args...) cmp literal`.
    UdfFilter { udf: &'p GeneratedUdf, cmp: CmpOp, literal: f64, pos: usize },
    /// Compute the UDF per row as a projected column travelling with the
    /// batch (consumed by the aggregate sink).
    UdfProject { udf: &'p GeneratedUdf, pos: usize },
    /// Streaming probe against build pipeline `build` (an index into
    /// [`PhysicalPlan::builds`]); emits `left[keep] ++ build` tuples (`keep`
    /// lists the surviving left lanes; the build side was already pruned at
    /// build time).
    HashJoinProbe { key: &'p ColRef, pos: usize, build: usize, keep: Vec<usize> },
}

/// Sink of a build pipeline: materializes its input as a join index keyed
/// by `key`, consumed by the matching `HashJoinProbe`, which also carries
/// the join's logical operator. Only the input lanes listed in `keep` are
/// stored — liveness-pruned dead lanes never enter the build table (the key
/// is read from the *input* tuple at `pos`, so the key lane itself may be
/// pruned from storage).
#[derive(Debug)]
pub struct HashBuild<'p> {
    pub key: &'p ColRef,
    pub pos: usize,
    pub stride: usize,
    pub keep: Vec<usize>,
}

/// Sink of the root pipeline.
#[derive(Debug)]
pub enum RootSink<'p> {
    /// The aggregate. `column` is `Some((col, pos))` for a base-table
    /// aggregate; `None` aggregates the UDF-projected column (lowering has
    /// checked that the operator below is a `UdfProject`).
    Agg { func: AggFunc, column: Option<(&'p ColRef, usize)>, plan_idx: usize, stride: usize },
    /// Non-aggregate root: batches are swallowed (the root operator's counts
    /// were already accounted by the node producing them).
    Collect,
}

impl PhysicalOpKind<'_> {
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOpKind::Filter { .. } => "FILTER",
            PhysicalOpKind::UdfFilter { .. } => "UDF_FILTER",
            PhysicalOpKind::UdfProject { .. } => "UDF_PROJECT",
            PhysicalOpKind::HashJoinProbe { .. } => "HASH_PROBE",
        }
    }
}

impl PhysicalPlan<'_> {
    /// EXPLAIN-style rendering: one line per pipeline.
    pub fn explain(&self) -> String {
        fn chain(out: &mut String, i: usize, scan: &Scan<'_>, ops: &[PhysicalOp<'_>]) {
            let _ = write!(out, "Pipeline {i}: -> SCAN {}", scan.table);
            for op in ops {
                let _ = match &op.kind {
                    PhysicalOpKind::Filter { preds } => write!(out, " -> FILTER[{}]", preds.len()),
                    PhysicalOpKind::UdfFilter { udf, cmp, literal, .. } => {
                        let (name, cmp) = (&udf.def.name, cmp.symbol());
                        write!(out, " -> UDF_FILTER {name}(...) {cmp} {literal}")
                    }
                    PhysicalOpKind::UdfProject { udf, .. } => {
                        write!(out, " -> UDF_PROJECT {}(...)", udf.def.name)
                    }
                    PhysicalOpKind::HashJoinProbe { key, build, .. } => {
                        write!(out, " -> HASH_PROBE {key} (build: pipeline {build})")
                    }
                };
            }
        }
        let mut out = String::new();
        for (i, pipe) in self.builds.iter().enumerate() {
            chain(&mut out, i, &pipe.scan, &pipe.ops);
            let _ = writeln!(out, " -> HASH_BUILD {}", pipe.sink.key);
        }
        chain(&mut out, self.builds.len(), &self.root.scan, &self.root.ops);
        let _ = match &self.root.sink {
            RootSink::Agg { func, column: Some((c, _)), .. } => {
                writeln!(out, " -> AGG {}({c})", func.name())
            }
            RootSink::Agg { func, column: None, .. } => writeln!(out, " -> AGG {}", func.name()),
            RootSink::Collect => writeln!(out, " -> COLLECT"),
        };
        out
    }
}

/// Lower a logical plan into its physical pipelines, applying the verified
/// rewrite hints when given (`None`: every join lane stored). Pure plan
/// analysis: table-binding positions are resolved, but no data is touched.
pub fn lower<'p>(plan: &'p Plan, rewrites: Option<&RewriteSet>) -> Result<PhysicalPlan<'p>> {
    plan.validate()?;
    let mut builds = Vec::new();
    let root_op = &plan.ops[plan.root];
    let root = match &root_op.kind {
        PlanOpKind::Agg { func, column } => {
            let child = root_op.children[0];
            let chain = lower_subtree(plan, child, &mut builds, rewrites)?;
            let column = match column {
                Some(c) => Some((c, chain.pos(&c.table, "aggregate")?)),
                None => None,
            };
            let computed_below = matches!(plan.ops[child].kind, PlanOpKind::UdfProject { .. });
            if *func != AggFunc::CountStar && column.is_none() && !computed_below {
                return Err(GracefulError::InvalidPlan(
                    "agg over UDF output requires a UdfProject below".into(),
                ));
            }
            let stride = chain.tables.len();
            let sink = RootSink::Agg { func: *func, column, plan_idx: plan.root, stride };
            Pipeline { scan: chain.scan, ops: chain.ops, sink }
        }
        _ => {
            let Chain { scan, ops, .. } = lower_subtree(plan, plan.root, &mut builds, rewrites)?;
            Pipeline { scan, ops, sink: RootSink::Collect }
        }
    };
    Ok(PhysicalPlan { builds, root })
}

/// The lowering `execute` drives under `cuts`: join lanes are pruned iff
/// [`Shortcuts::lane_pruning`] is on.
pub(crate) fn lower_under<'p>(
    db: &Database,
    plan: &'p Plan,
    cuts: Shortcuts,
) -> Result<PhysicalPlan<'p>> {
    let rewrites = cuts.lane_pruning.then(|| RewriteSet::analyze(plan, db));
    lower(plan, rewrites.as_ref())
}

/// A pipeline under construction: its source, the streaming chain so far,
/// and the bound-table list of the chain's output tuples.
struct Chain<'p> {
    scan: Scan<'p>,
    ops: Vec<PhysicalOp<'p>>,
    tables: Vec<&'p str>,
}

impl<'p> Chain<'p> {
    /// Append a streaming operator reading the current output tuples.
    fn push(&mut self, kind: PhysicalOpKind<'p>, plan_idx: usize) {
        self.ops.push(PhysicalOp { kind, plan_idx, stride: self.tables.len() });
    }

    /// First occurrence of `table` in the output tuples, for `reader` (named
    /// in the error when there is none).
    fn pos(&self, table: &str, reader: impl Display) -> Result<usize> {
        self.tables.iter().position(|t| *t == table).ok_or_else(|| {
            GracefulError::InvalidPlan(format!("{reader} reads table {table}, not bound below it"))
        })
    }
}

/// Recursively lower the subtree rooted at `idx` into the chain streaming
/// its output. Join build sides are completed into `builds` along the way.
fn lower_subtree<'p>(
    plan: &'p Plan,
    idx: usize,
    builds: &mut Vec<Pipeline<'p, HashBuild<'p>>>,
    rewrites: Option<&RewriteSet>,
) -> Result<Chain<'p>> {
    let op = &plan.ops[idx];
    match &op.kind {
        PlanOpKind::Scan { table } => Ok(Chain {
            scan: Scan { table, plan_idx: idx },
            ops: Vec::new(),
            tables: vec![table.as_str()],
        }),
        PlanOpKind::Filter { preds } => {
            let mut chain = lower_subtree(plan, op.children[0], builds, rewrites)?;
            let at = |p: &'p Pred| Ok((p, chain.pos(&p.col.table, "filter")?));
            let preds = preds.iter().map(at).collect::<Result<_>>()?;
            chain.push(PhysicalOpKind::Filter { preds }, idx);
            Ok(chain)
        }
        PlanOpKind::UdfFilter { udf, op: cmp, literal } => {
            let mut chain = lower_subtree(plan, op.children[0], builds, rewrites)?;
            let pos = chain.pos(&udf.table, "UDF")?;
            chain.push(PhysicalOpKind::UdfFilter { udf, cmp: *cmp, literal: *literal, pos }, idx);
            Ok(chain)
        }
        PlanOpKind::UdfProject { udf } => {
            let mut chain = lower_subtree(plan, op.children[0], builds, rewrites)?;
            let pos = chain.pos(&udf.table, "UDF")?;
            chain.push(PhysicalOpKind::UdfProject { udf, pos }, idx);
            Ok(chain)
        }
        PlanOpKind::Join { left_col, right_col } => {
            // Build on the right side (the newly joined table), then
            // continue the left side's pipeline through the probe.
            let right = lower_subtree(plan, op.children[1], builds, rewrites)?;
            let rpos = right.pos(&right_col.table, format_args!("join key {right_col}"))?;
            // The build's kept lanes depend on the left side's table list
            // too (duplicate names across the sides veto pruning), which is
            // only known after the left subtree lowers; push the build with
            // all lanes kept and patch it below.
            let stride = right.tables.len();
            let sink = HashBuild { key: right_col, pos: rpos, stride, keep: (0..stride).collect() };
            builds.push(Pipeline { scan: right.scan, ops: right.ops, sink });
            let build = builds.len() - 1;
            let mut left = lower_subtree(plan, op.children[0], builds, rewrites)?;
            let lpos = left.pos(&left_col.table, format_args!("join key {left_col}"))?;
            let pruned = rewrites
                .and_then(|rw| join_keep_lanes(&rw.live_above[idx], &left.tables, &right.tables));
            let keep = match pruned {
                Some((keep_l, keep_r)) => {
                    builds[build].sink.keep = keep_r;
                    keep_l
                }
                None => (0..left.tables.len()).collect(),
            };
            let mut out_tables: Vec<&'p str> = keep.iter().map(|&i| left.tables[i]).collect();
            out_tables.extend(builds[build].sink.keep.iter().map(|&i| right.tables[i]));
            left.push(PhysicalOpKind::HashJoinProbe { key: left_col, pos: lpos, build, keep }, idx);
            left.tables = out_tables;
            Ok(left)
        }
        // `Plan::validate` admits an aggregate at the root only, and `lower`
        // takes the root itself.
        PlanOpKind::Agg { .. } => {
            Err(GracefulError::InvalidPlan(format!("op {idx} (AGG) must be the plan root")))
        }
    }
}
