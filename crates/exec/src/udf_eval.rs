//! UDF evaluation for the execution engine: one shipped path, one oracle.
//!
//! Every relational operator that invokes a UDF — `UdfFilter`, `UdfProject`,
//! under either driver — evaluates it through one [`UdfWorker`] per pool
//! worker, built by [`UdfEvalSpec`] (both crate-private: the spec is the
//! only construction path). Under [`crate::Session::run`] every operator
//! runs the UDF's one [`PreparedUdf`] (compiled, verified and pruned once per
//! UDF, [`GeneratedUdf::prepared`]); under
//! [`crate::Session::run_reference`] (`udf_pruning` off) it runs the plain
//! compiled program, built for that operator alone. Either way a worker
//! hands its batches to one [`ColumnEvaluator`], `graceful_udf`'s one entry
//! over storage columns, which chooses memo, else typed lanes, else the
//! batch VM as the run's `memo` and `typed_lanes` shortcuts allow, and
//! counts what it ran into the worker's [`UdfStats`]. What is left here is
//! the operator's part: cutting morsels into batches, the per-row overhead
//! and the span.
//!
//! The tree-walking `graceful_udf::Interpreter` is not an engine path: the
//! `graceful-udf` suites prove interpreter = VM = typed lanes per UDF, and
//! `tests/executor_api.rs` holds the engine to it through an operator-free
//! naive evaluator.
//!
//! # The bit-identity contract
//!
//! [`UdfWorker::eval_morsel`] receives one *morsel* of row ids and is the one
//! place batches are cut: at most `udf_batch_size` rows each, boundaries
//! restarting at the morsel start, `batch_cost + rows × overhead` added to
//! the morsel's work once per batch. No evaluator cuts a batch again.
//! Callers merge per-morsel `(work, values)` pairs in morsel-index order.
//! Because grouping depends only on the morsel boundaries — never on thread
//! count, driver or flush timing — and the memo and the typed lanes merge
//! the same per-row costs in the same order as the batch VM, every accounted
//! total is bit-identical across all of them (enforced by
//! `tests/parallel_determinism.rs` and the engine differential tests).

use crate::engine::Shortcuts;
use graceful_common::Result;
use graceful_obs::trace;
use graceful_storage::{Column, Value};
use graceful_udf::{
    compile, ColumnEvaluator, CostCounter, GeneratedUdf, PreparedUdf, Program, SimdShape, UdfStats,
};
use std::sync::Arc;

/// One morsel of [`UdfWorker::eval_morsel`]: accounted work, one value per
/// row, evaluator statistics.
pub(crate) type MorselEval = (f64, Vec<Value>, UdfStats);

/// One pool worker's evaluation state, reused across all morsels that
/// worker pulls: its [`ColumnEvaluator`] and the row-id buffer.
pub(crate) struct UdfWorker<'s> {
    spec: &'s UdfEvalSpec<'s>,
    eval: ColumnEvaluator<'s>,
    rids: Vec<usize>,
}

impl UdfWorker<'_> {
    /// Evaluate one morsel — the storage rows `rids`, in order — returning
    /// its `(work, values, stats)` triple. Callers merge the triples **in
    /// morsel-index order**.
    ///
    /// This is the one kernel behind both drivers' UDF operators and the one
    /// loop that cuts batches: the per-morsel float grouping lives here and
    /// only here, so neither the drivers nor the three evaluators can drift
    /// apart. The statistics are write-only, never consulted for results.
    pub(crate) fn eval_morsel(&mut self, rids: impl Iterator<Item = usize>) -> Result<MorselEval> {
        self.rids.clear();
        self.rids.extend(rids);
        let _span = trace::span("udf", "eval_morsel").arg("rows", self.rids.len());
        let (batch, overhead) = (self.spec.batch, self.spec.overhead);
        let mut work = 0.0f64;
        let mut stats = UdfStats::default();
        let mut values = Vec::with_capacity(self.rids.len());
        for rids in self.rids.chunks(batch) {
            let mut cost = CostCounter::new();
            self.eval.eval(rids, &mut values, &mut cost, &mut stats)?;
            work += cost.total + rids.len() as f64 * overhead;
        }
        Ok((work, values, stats))
    }
}

/// The program one UDF operator runs.
enum OperatorProgram {
    /// The UDF's prepared program, shared with every other consumer.
    Prepared(Arc<PreparedUdf>),
    /// `udf_pruning` off: the plain compiled program and its lane shape.
    Plain(Program, SimdShape),
}

/// Everything resolved once per UDF operator: input columns, the program,
/// the shortcuts and batching parameters. [`UdfEvalSpec::worker`] then
/// builds one evaluator per worker.
pub(crate) struct UdfEvalSpec<'a> {
    cols: Vec<&'a Column>,
    prog: OperatorProgram,
    cuts: Shortcuts,
    batch: usize,
    overhead: f64,
}

impl<'a> UdfEvalSpec<'a> {
    /// Resolve an operator's evaluation plan: the UDF's prepared program for
    /// the input columns' types (built on the UDF's first use, which runs
    /// the bytecode verifier, so a rejected UDF surfaces here as a typed
    /// [`graceful_common::GracefulError::Verify`] before any row runs).
    ///
    /// `cuts` are the run's [`Shortcuts`]: `memo` and `typed_lanes` pass
    /// through to every worker's [`ColumnEvaluator`], and with `udf_pruning`
    /// off the operator compiles the plain program itself.
    ///
    /// `batch` is `udf_batch_size`, any count from 1 to `usize::MAX`: it
    /// bounds how many rows one evaluator call sees and sizes nothing.
    ///
    /// `overhead` is the operator's own per-row work (comparison against the
    /// filter literal, projection bookkeeping) charged alongside the UDF
    /// cost.
    pub(crate) fn prepare(
        udf: &GeneratedUdf,
        cols: Vec<&'a Column>,
        cuts: Shortcuts,
        batch: usize,
        overhead: f64,
    ) -> Result<Self> {
        let prog = if cuts.udf_pruning {
            let types: Vec<_> = cols.iter().map(|c| c.data_type()).collect();
            OperatorProgram::Prepared(udf.prepared(&types)?)
        } else {
            let plain = compile(&udf.def)?;
            let shape = plain.simd_shape();
            OperatorProgram::Plain(plain, shape)
        };
        Ok(UdfEvalSpec { cols, prog, cuts, batch: batch.max(1), overhead })
    }

    /// One pool worker's evaluation state. The stage (`physical::stage`)
    /// builds one per worker per region and hands it that worker's morsels.
    /// The instance owns all its scratch state, so parallel evaluation never
    /// contends.
    pub(crate) fn worker(&self) -> UdfWorker<'_> {
        let (prog, shape) = match &self.prog {
            OperatorProgram::Prepared(p) => (p.program(), p.shape()),
            OperatorProgram::Plain(prog, shape) => (prog, shape),
        };
        let Shortcuts { memo, typed_lanes, .. } = self.cuts;
        let eval = ColumnEvaluator::new(prog, shape, &self.cols, memo, typed_lanes);
        UdfWorker { spec: self, eval, rids: Vec::new() }
    }
}
