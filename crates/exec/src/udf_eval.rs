//! UDF evaluation for the execution engine: one shipped path, one oracle.
//!
//! Every relational operator that invokes a UDF — `UdfFilter`, `UdfProject`,
//! under either driver — evaluates it through one [`UdfWorker`] per pool
//! worker, built by [`UdfEvalSpec`] (both crate-private: the spec is the
//! only construction path). Every evaluator runs one program: the compiled,
//! verified UDF pruned once per operator to the values its result reads
//! ([`graceful_udf::prune()`]: dead instructions become their exact
//! charges, dead `for` loops one closed-form charge), on a warmed [`Vm`]. A
//! worker differs only in what it gathers a batch into:
//!
//! * **dictionary codes** for an exact memo in front of the VM
//!   ([`CodeMemo`]): each distinct code tuple is evaluated once per worker
//!   and later rows reuse its value, cost and error — what
//!   [`crate::Executor::run`] uses wherever every input is dictionary-encoded
//!   within [`graceful_udf::MAX_MEMO_CODES`] code tuples;
//! * **typed lanes** gathered straight from storage, rows the lanes cannot
//!   carry bailing to the per-row VM ([`simd::eval_batch_typed`]) — what
//!   `run` uses for the other operators wherever the program has a lane path
//!   and no input is `Text`;
//! * **boxed `Value` columns** for the batch VM ([`Vm::eval_batch`]) — the
//!   remaining operators under `run`, and every operator under
//!   [`crate::Executor::run_reference`], which runs the plain program.
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
//! `tests/parallel_determinism.rs` and the engine differential tests). The
//! memo may hold outcomes from another morsel of the same worker; that
//! changes nothing, because the VM is a pure function of its arguments and
//! a dictionary holds distinct values: equal codes are bit-equal arguments.

use crate::engine::Shortcuts;
use graceful_common::Result;
use graceful_obs::registry::{counter, Counter};
use graceful_obs::trace;
use graceful_storage::{Column, Value};
use graceful_udf::simd::{self, SimdBatchStats, TypedCol};
use graceful_udf::{compile, prune, CodeMemo, CostCounter, CostWeights, Program, SimdShape, Vm};
use std::sync::OnceLock;

/// Evaluation-volume counters one UDF evaluator accumulates while it runs.
/// Observability only — the engine never reads them on a result path, so
/// they cannot affect the bit-identity contract. Per-morsel stats merge in
/// morsel-index order like every other per-morsel result, making the totals
/// themselves deterministic too — all but `memo_rows`, which counts what the
/// worker's memo already held and so depends on which morsels that worker
/// pulled before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdfEvalStats {
    /// Rows evaluated.
    pub rows: u64,
    /// Internal evaluation batches (each at most `udf_batch_size` rows).
    pub batches: u64,
    /// Rows the dictionary-code memo served without running the VM.
    pub memo_rows: u64,
    /// Typed-lane effectiveness (zero for operators on the boxed batch VM).
    pub simd: SimdBatchStats,
}

impl UdfEvalStats {
    /// Accumulate another evaluator's counters into this one.
    pub fn merge(&mut self, other: &UdfEvalStats) {
        self.rows += other.rows;
        self.batches += other.batches;
        self.memo_rows += other.memo_rows;
        self.simd.merge(&other.simd);
    }
}

struct UdfMetrics {
    rows: Counter,
    batches: Counter,
    memo_rows: Counter,
    simd_fast_rows: Counter,
    simd_bail_rows: Counter,
    simd_group_splits: Counter,
}

/// Fold `stats` into the process-wide registry (`udf.rows`, `udf.batches`,
/// `udf.memo_rows`, `udf.simd.fast_rows`, `udf.simd.bail_rows`,
/// `udf.simd.group_splits`).
/// The executor calls this once per UDF operator.
pub(crate) fn record_udf_metrics(stats: &UdfEvalStats) {
    static METRICS: OnceLock<UdfMetrics> = OnceLock::new();
    let m = METRICS.get_or_init(|| UdfMetrics {
        rows: counter("udf.rows"),
        batches: counter("udf.batches"),
        memo_rows: counter("udf.memo_rows"),
        simd_fast_rows: counter("udf.simd.fast_rows"),
        simd_bail_rows: counter("udf.simd.bail_rows"),
        simd_group_splits: counter("udf.simd.group_splits"),
    });
    m.rows.add(stats.rows);
    m.batches.add(stats.batches);
    m.memo_rows.add(stats.memo_rows);
    m.simd_fast_rows.add(stats.simd.fast_rows);
    m.simd_bail_rows.add(stats.simd.bail_rows);
    m.simd_group_splits.add(stats.simd.group_splits);
}

/// One morsel of [`UdfWorker::eval_morsel`]: accounted work, one value per
/// row, evaluator statistics.
pub(crate) type MorselEval = (f64, Vec<Value>, UdfEvalStats);

/// What a worker gathers one batch of argument rows into, which decides the
/// evaluator that batch runs on. The spec holds an empty one that every
/// worker clones, so a memo lives as long as its worker: one region.
#[derive(Clone)]
enum Gather<'a> {
    /// Boxed `Value` columns, one per UDF parameter, for the batch VM.
    Boxed(Vec<Vec<Value>>),
    /// Unboxed lanes, one per UDF parameter, and the program's shape.
    Typed(SimdShape, Vec<TypedCol>),
    /// Nothing: the memo reads the input columns' codes itself.
    Memo(CodeMemo<'a>),
}

/// One pool worker's evaluation state, reused across all morsels that
/// worker pulls: a warmed VM (register file allocated), the row-id buffer and
/// the gather buffers, which grow to the largest batch seen and are never
/// sized from configuration, or the memo, sized by its code space.
pub(crate) struct UdfWorker<'s> {
    spec: &'s UdfEvalSpec<'s>,
    vm: Vm,
    rids: Vec<usize>,
    gather: Gather<'s>,
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
        let UdfEvalSpec { cols, prog, batch, overhead, .. } = self.spec;
        let mut work = 0.0f64;
        let mut stats = UdfEvalStats::default();
        let mut values = Vec::with_capacity(self.rids.len());
        for rids in self.rids.chunks(*batch) {
            let mut cost = CostCounter::new();
            match &mut self.gather {
                Gather::Boxed(bufs) => {
                    for (buf, col) in bufs.iter_mut().zip(cols) {
                        buf.clear();
                        buf.extend(rids.iter().map(|&rid| col.value(rid)));
                    }
                    let slices: Vec<&[Value]> = bufs.iter().map(Vec::as_slice).collect();
                    self.vm.eval_batch(prog, &slices, &mut values, &mut cost)?;
                }
                Gather::Typed(shape, lanes) => {
                    for (lane, col) in lanes.iter_mut().zip(cols) {
                        lane.fill_from_column(col, rids)?;
                    }
                    simd::eval_batch_typed(
                        &mut self.vm,
                        prog,
                        shape,
                        lanes,
                        &mut values,
                        &mut cost,
                        &mut stats.simd,
                    )?;
                }
                Gather::Memo(memo) => {
                    stats.memo_rows +=
                        memo.eval_batch(&mut self.vm, prog, rids, &mut values, &mut cost)?;
                }
            }
            work += cost.total + rids.len() as f64 * overhead;
            stats.rows += rids.len() as u64;
            stats.batches += 1;
        }
        Ok((work, values, stats))
    }
}

/// Everything resolved once per UDF operator: input columns, the compiled
/// program, the evaluator decision, weights and batching parameters.
/// [`UdfEvalSpec::worker`] then builds one evaluator per worker.
pub(crate) struct UdfEvalSpec<'a> {
    cols: Vec<&'a Column>,
    weights: CostWeights,
    prog: Program,
    /// The memo if it is on and every input is dictionary-encoded within
    /// its bound; else typed lanes if they are on, the program has a
    /// vectorizable path and every input has an unboxed lane type (no
    /// `Text`); else boxed columns. All three produce bit-identical values,
    /// costs and errors.
    gather: Gather<'a>,
    batch: usize,
    overhead: f64,
}

impl<'a> UdfEvalSpec<'a> {
    /// Resolve an operator's evaluation plan: compile the UDF once and
    /// decide which evaluator its workers run.
    ///
    /// Compilation runs the bytecode verifier, so a program that reaches an
    /// evaluator has proven jump targets, register/constant bounds,
    /// cost-charge placement and definite initialization — a rejected UDF
    /// surfaces here as a typed [`graceful_common::GracefulError::Verify`]
    /// before any row runs.
    ///
    /// `cuts` are the run's [`Shortcuts`]: with `memo` and `typed_lanes`
    /// both off, every operator runs the boxed batch VM, and with
    /// `udf_pruning` off, the plain program.
    ///
    /// `batch` is `udf_batch_size`, any count from 1 to `usize::MAX`: it
    /// bounds how many rows one evaluator call sees and sizes nothing.
    ///
    /// `overhead` is the operator's own per-row work (comparison against the
    /// filter literal, projection bookkeeping) charged alongside the UDF
    /// cost.
    pub(crate) fn prepare(
        udf: &'a graceful_udf::GeneratedUdf,
        cols: Vec<&'a Column>,
        cuts: Shortcuts,
        weights: CostWeights,
        batch: usize,
        overhead: f64,
    ) -> Result<Self> {
        let prog = compile(&udf.def)?;
        let types: Vec<_> = cols.iter().map(|c| c.data_type()).collect();
        let prog = if cuts.udf_pruning { prune(prog, &types, &weights) } else { prog };
        // `for_type` has no lane for `Text`, so one such column makes the
        // whole list `None`.
        let typed = || {
            let shape = cuts.typed_lanes.then(|| prog.simd_shape()).filter(|s| s.has_fast_path)?;
            let lanes: Option<Vec<TypedCol>> =
                cols.iter().map(|c| TypedCol::for_type(c.data_type())).collect();
            Some(Gather::Typed(shape, lanes?))
        };
        let memo = cuts.memo.then(|| CodeMemo::new(&cols).map(Gather::Memo)).flatten();
        let gather = memo.or_else(typed).unwrap_or_else(|| Gather::Boxed(vec![vec![]; cols.len()]));
        Ok(UdfEvalSpec { cols, weights, prog, gather, batch: batch.max(1), overhead })
    }

    /// One pool worker's evaluation state. The stage (`physical::stage`)
    /// builds one per worker per region and hands it that worker's morsels.
    /// The instance owns all its scratch state, so parallel evaluation never
    /// contends.
    pub(crate) fn worker(&self) -> UdfWorker<'_> {
        let mut vm = Vm::new(self.weights.clone());
        vm.warm(&self.prog);
        UdfWorker { spec: self, vm, rids: Vec::new(), gather: self.gather.clone() }
    }
}
