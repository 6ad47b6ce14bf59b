//! Opt-in per-query execution profiles.
//!
//! When [`crate::ExecOptions::profile`] (or `GRACEFUL_PROFILE=1`) is on, the
//! executor attaches an [`ExecProfile`] to the [`crate::QueryRun`] of every
//! [`crate::Executor::run`]: per-plan-operator wall time, output rows, batch
//! counts, accounted work and — for the UDF operators — the evaluators'
//! [`UdfStats`], the values the `udf.*` registry counters sum. The total wall
//! time is the `exec.query_wall_ns` reading of [`crate::Executor::run`].
//!
//! # Outside the bit-identity contract
//!
//! Like [`crate::QueryRun::peak_inter_rows`], the profile is an
//! execution-strategy observation, **not** part of the bit-identity
//! contract: wall times are real `Instant` measurements and batch counts
//! depend on flush timing. None of the contracted fields (`runtime_ns`,
//! `out_rows`, `op_work`, `agg_value`, `udf_input_rows`) read anything the
//! profiler writes — `tests/parallel_determinism.rs` proves runs with
//! profiling on and off stay bit-identical.
//!
//! Wall-time attribution uses *self time*: the streaming
//! driver marks operator enter/exit around the recursive batch cascade and
//! attributes each elapsed slice to the operator on top of the stack, so a
//! downstream operator's time is never double-counted into its upstream.

use crate::engine::ExecConfig;
use graceful_obs::flight::fmt_ns;
use graceful_plan::{Plan, PlanOpKind};
use graceful_udf::UdfStats;
use std::fmt::Write as _;

/// Per-query execution profile, one [`OpProfile`] per logical plan operator
/// (same indexing as `plan.ops`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecProfile {
    /// Worker-thread budget.
    pub threads: usize,
    /// Rows per morsel.
    pub morsel_rows: usize,
    /// Rows per UDF VM batch.
    pub udf_batch_size: usize,
    /// Total wall time of the [`crate::Executor::run`] call, in nanoseconds.
    pub total_wall_ns: u64,
    /// Per-operator profiles, aligned with `plan.ops`.
    pub ops: Vec<OpProfile>,
}

/// Profile of one logical plan operator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpProfile {
    /// Human-readable operator description (kind plus its key argument).
    pub name: String,
    /// Wall self-time attributed to this operator, in nanoseconds. A hash
    /// join's build side and the final collect fold into their owning plan
    /// operator.
    pub wall_ns: u64,
    /// Output cardinality (same value as `QueryRun::out_rows`).
    pub rows_out: usize,
    /// Batches this operator processed: input batches pushed into it
    /// (morsel count for scans).
    pub batches: u64,
    /// Accounted work units (same value as `QueryRun::op_work`).
    pub work: f64,
    /// UDF evaluation counters, for `UdfFilter` / `UdfProject` only.
    pub udf: Option<UdfStats>,
}

/// Human-readable operator description for the profile / explain output.
pub(crate) fn plan_op_name(kind: &PlanOpKind) -> String {
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

impl ExecProfile {
    /// The profile of one run from its per-operator accounting `ops`,
    /// indexed like `plan.ops`, each named here. `total_wall_ns` is left 0
    /// for [`crate::Executor::run`], which holds the query's clock, to fill
    /// in.
    pub(crate) fn assemble(plan: &Plan, config: &ExecConfig, mut ops: Vec<OpProfile>) -> Self {
        for (op, plan_op) in ops.iter_mut().zip(&plan.ops) {
            op.name = plan_op_name(&plan_op.kind);
        }
        ExecProfile {
            threads: config.threads,
            morsel_rows: config.morsel_rows,
            udf_batch_size: config.udf_batch_size,
            total_wall_ns: 0,
            ops,
        }
    }

    /// Render the profile as an aligned explain-style table.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "QUERY PROFILE  threads={} morsel={} udf_batch={} wall={}",
            self.threads,
            self.morsel_rows,
            self.udf_batch_size,
            fmt_ns(self.total_wall_ns),
        );
        let name_w = self.ops.iter().map(|o| o.name.len()).max().unwrap_or(4).max(4);
        let _ = writeln!(
            s,
            "  {:>2}  {:<name_w$}  {:>10}  {:>10}  {:>8}  {:>14}  udf",
            "#", "op", "wall", "rows", "batches", "work",
        );
        for (i, op) in self.ops.iter().enumerate() {
            let udf = match &op.udf {
                None => String::new(),
                Some(u) => format!(
                    "rows={} batches={} memo={} fast={} bail={} ({:.1}%) splits={}",
                    u.rows,
                    u.batches,
                    u.memo_rows,
                    u.lane_rows,
                    u.bail_rows,
                    u.bail_rate() * 100.0,
                    u.group_splits,
                ),
            };
            let _ = writeln!(
                s,
                "  {:>2}  {:<name_w$}  {:>10}  {:>10}  {:>8}  {:>14.1}  {}",
                i,
                op.name,
                fmt_ns(op.wall_ns),
                op.rows_out,
                op.batches,
                op.work,
                udf,
            );
        }
        s
    }
}
