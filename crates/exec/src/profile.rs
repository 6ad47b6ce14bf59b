//! Opt-in per-query execution profiles.
//!
//! When [`crate::ExecOptions::profile`] (or `GRACEFUL_PROFILE=1`) is on,
//! [`crate::Session::run`] attaches an [`ExecProfile`] to the
//! [`crate::QueryRun`]: the query's one [`FlightRecord`] — per-plan-operator
//! wall self-time, output rows, batch counts and accounted work next to
//! their estimates, and the query's wall time, the `exec.query_wall_ns`
//! reading — plus, for the UDF operators, the evaluators' [`UdfStats`], the
//! values the `udf.*` registry counters sum and the one fact the record
//! does not carry.
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

use crate::physical::OpTally;
use graceful_obs::flight::FlightRecord;
use graceful_udf::UdfStats;
use std::fmt::Write as _;

/// Per-query execution profile: the run's record and the UDF counters it
/// lacks, both indexed like `plan.ops`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecProfile {
    /// The run's flight record — the one the flight recorder appended, when
    /// it is on — with each operator's wall self-time and batch count.
    pub record: FlightRecord,
    /// UDF evaluation counters, `Some` for `UdfFilter` / `UdfProject` only.
    pub udf: Vec<Option<UdfStats>>,
}

impl ExecProfile {
    /// A profiled run's profile: its record and the UDF counters of `ops`.
    pub(crate) fn new(record: FlightRecord, ops: Vec<OpTally>) -> Self {
        ExecProfile { record, udf: ops.into_iter().map(|op| op.udf).collect() }
    }

    /// The record's `explain analyze` report followed by one line of
    /// evaluator counters per UDF operator.
    pub fn explain(&self) -> String {
        let mut s = self.record.render_analyze();
        for (i, u) in self.udf.iter().enumerate() {
            let Some(u) = u else { continue };
            let _ = writeln!(
                s,
                "  {i:>2}  udf rows={} batches={} memo={} fast={} bail={} ({:.1}%) splits={}",
                u.rows,
                u.batches,
                u.memo_rows,
                u.lane_rows,
                u.bail_rows,
                u.bail_rate() * 100.0,
                u.group_splits,
            );
        }
        s
    }
}
