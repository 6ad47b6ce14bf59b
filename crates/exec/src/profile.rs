//! Opt-in per-query execution profiles.
//!
//! When [`crate::ExecOptions::profile`] (or `GRACEFUL_PROFILE=1`) is on, the
//! executor attaches an [`ExecProfile`] to the [`crate::QueryRun`] of every
//! [`crate::Executor::run`]: per-plan-operator wall time, output rows, batch
//! counts, accounted work and — for the UDF operators — memo-served rows and
//! typed-lane effectiveness counters (fast-path vs per-row bail rows, group
//! splits).
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
use crate::udf_eval::UdfEvalStats;
use graceful_plan::{Plan, PlanOpKind};
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
    /// Total wall time of the executor call, in nanoseconds.
    pub total_wall_ns: u64,
    /// Per-operator profiles, aligned with `plan.ops`.
    pub ops: Vec<OpProfile>,
}

/// Profile of one logical plan operator.
#[derive(Debug, Clone, PartialEq)]
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
    pub udf: Option<UdfOpProfile>,
}

/// UDF evaluation counters for one UDF operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdfOpProfile {
    /// Rows evaluated.
    pub rows: u64,
    /// Internal evaluation batches.
    pub batches: u64,
    /// Rows the dictionary-code memo served without running the VM.
    pub memo_rows: u64,
    /// Rows carried end-to-end by the typed columnar fast path.
    pub simd_fast_rows: u64,
    /// Rows that bailed to the per-row VM.
    pub simd_bail_rows: u64,
    /// Selection-vector group splits at branch divergence.
    pub simd_group_splits: u64,
}

impl UdfOpProfile {
    pub(crate) fn from_stats(s: &UdfEvalStats) -> Self {
        UdfOpProfile {
            rows: s.rows,
            batches: s.batches,
            memo_rows: s.memo_rows,
            simd_fast_rows: s.simd.fast_rows,
            simd_bail_rows: s.simd.bail_rows,
            simd_group_splits: s.simd.group_splits,
        }
    }

    /// Fraction of evaluated rows that bailed from the columnar fast path
    /// to the per-row VM (0.0 for operators with no columnar path and for
    /// zero rows).
    pub fn bail_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.simd_bail_rows as f64 / self.rows as f64
        }
    }
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
    /// Assemble a profile from per-operator accumulators. `wall_ns`,
    /// `batches` and `udf_stats` are indexed like `plan.ops`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        plan: &Plan,
        config: &ExecConfig,
        total_wall_ns: u64,
        wall_ns: &[u64],
        batches: &[u64],
        out_rows: &[usize],
        op_work: &[f64],
        udf_stats: &[Option<UdfEvalStats>],
    ) -> Self {
        let ops = plan
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| OpProfile {
                name: plan_op_name(&op.kind),
                wall_ns: wall_ns[i],
                rows_out: out_rows[i],
                batches: batches[i],
                work: op_work[i],
                udf: udf_stats[i].as_ref().map(UdfOpProfile::from_stats),
            })
            .collect();
        ExecProfile {
            threads: config.threads,
            morsel_rows: config.morsel_rows,
            udf_batch_size: config.udf_batch_size,
            total_wall_ns,
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
                    u.simd_fast_rows,
                    u.simd_bail_rows,
                    u.bail_rate() * 100.0,
                    u.simd_group_splits,
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

/// Format nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.3}s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bail_rate_is_guarded_and_proportional() {
        let mut s = UdfEvalStats::default();
        let empty = UdfOpProfile::from_stats(&s);
        assert_eq!(empty.bail_rate(), 0.0);
        s.rows = 200;
        s.simd.bail_rows = 50;
        let p = UdfOpProfile::from_stats(&s);
        assert_eq!(p.bail_rate(), 0.25);
    }

    #[test]
    fn fmt_ns_picks_adaptive_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000s");
    }
}
