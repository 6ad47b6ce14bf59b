//! UDF evaluation for the execution engine: one shipped path, one oracle.
//!
//! Every relational operator that invokes a UDF — `UdfFilter`, `UdfProject`,
//! under either driver — evaluates it through the [`UdfEval`] trait, built by
//! [`UdfEvalSpec`] (crate-private, like its two implementors: the factory is
//! the only construction path). Both run the compiled, verified program:
//!
//! * `SimdEval` — typed lanes gathered straight from storage, rows the
//!   columnar executor cannot carry bailing to the per-row VM — is what
//!   [`crate::Executor::run`] uses wherever the program has a columnar path
//!   and no input is `Text`;
//! * `VmEval` — the boxed-`Value` batch VM — serves the remaining operators
//!   under `run`, and every operator under [`crate::Executor::run_reference`].
//!
//! The tree-walking `graceful_udf::Interpreter` is not an engine path: the
//! `graceful-udf` suites prove interpreter = VM = typed lanes per UDF, and
//! `tests/executor_api.rs` holds the engine to it through an operator-free
//! naive evaluator.
//!
//! # The bit-identity contract
//!
//! [`UdfEval::eval_rows`] receives one *morsel* of row ids and a fresh `work`
//! accumulator, and adds `batch_cost + rows × overhead` once per internal
//! batch, restarting batch boundaries at the morsel start. Callers merge
//! per-morsel `(work, values)` pairs in morsel-index order. Because grouping
//! depends only on the morsel boundaries — never on thread count, driver or
//! flush timing — and the typed lanes merge the same per-row costs in the
//! same order as the batch VM, every accounted total is bit-identical across
//! all of them (enforced by `tests/parallel_determinism.rs` and the engine
//! differential tests).

use graceful_common::Result;
use graceful_obs::registry::{counter, Counter};
use graceful_obs::trace;
use graceful_storage::{Column, Value};
use graceful_udf::simd::{self, SimdBatchStats, TypedCol};
use graceful_udf::{compile, CostCounter, CostWeights, Program, SimdShape, Vm};
use std::sync::OnceLock;

/// Evaluation-volume counters one UDF evaluator accumulates while it runs.
/// Observability only — the engine never reads them on a result path, so
/// they cannot affect the bit-identity contract. Per-morsel stats merge in
/// morsel-index order like every other per-morsel result, making the totals
/// themselves deterministic too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdfEvalStats {
    /// Rows evaluated.
    pub rows: u64,
    /// Internal evaluation batches (each at most `udf_batch_size` rows).
    pub batches: u64,
    /// Typed-lane effectiveness (zero for operators on the boxed batch VM).
    pub simd: SimdBatchStats,
}

impl UdfEvalStats {
    /// Accumulate another evaluator's counters into this one.
    pub fn merge(&mut self, other: &UdfEvalStats) {
        self.rows += other.rows;
        self.batches += other.batches;
        self.simd.merge(&other.simd);
    }
}

struct UdfMetrics {
    rows: Counter,
    batches: Counter,
    simd_fast_rows: Counter,
    simd_bail_rows: Counter,
    simd_group_splits: Counter,
}

/// Fold `stats` into the process-wide registry (`udf.rows`, `udf.batches`,
/// `udf.simd.fast_rows`, `udf.simd.bail_rows`, `udf.simd.group_splits`).
/// The executor calls this once per UDF operator.
pub(crate) fn record_udf_metrics(stats: &UdfEvalStats) {
    static METRICS: OnceLock<UdfMetrics> = OnceLock::new();
    let m = METRICS.get_or_init(|| UdfMetrics {
        rows: counter("udf.rows"),
        batches: counter("udf.batches"),
        simd_fast_rows: counter("udf.simd.fast_rows"),
        simd_bail_rows: counter("udf.simd.bail_rows"),
        simd_group_splits: counter("udf.simd.group_splits"),
    });
    m.rows.add(stats.rows);
    m.batches.add(stats.batches);
    m.simd_fast_rows.add(stats.simd.fast_rows);
    m.simd_bail_rows.add(stats.simd.bail_rows);
    m.simd_group_splits.add(stats.simd.group_splits);
}

/// Batched UDF evaluation over gathered input rows.
///
/// One instance is created per pool worker (via [`UdfEvalSpec::worker`])
/// and reused across all morsels that worker pulls, so scratch buffers are
/// allocated once.
pub(crate) trait UdfEval {
    /// Evaluate the UDF over the rows `rids` (row ids into the operator's
    /// input columns), appending one output [`Value`] per row to `values`
    /// and accumulating accounted work — UDF cost plus the operator's
    /// per-row overhead — into `work`, once per internal batch.
    /// Evaluation-volume counters accumulate into `stats` (write-only, never
    /// consulted for results).
    fn eval_rows(
        &mut self,
        rids: &[usize],
        values: &mut Vec<Value>,
        work: &mut f64,
        stats: &mut UdfEvalStats,
    ) -> Result<()>;
}

/// One morsel of [`UdfWorker::eval_morsel`]: accounted work, one value per
/// row, evaluator statistics.
pub(crate) type MorselEval = (f64, Vec<Value>, UdfEvalStats);

/// One evaluator and the row-id gather buffer it reuses across the morsels
/// its pool worker pulls.
pub(crate) struct UdfWorker<'s> {
    eval: Box<dyn UdfEval + 's>,
    rids: Vec<usize>,
}

impl UdfWorker<'_> {
    /// Evaluate one morsel — the storage rows `rids`, in order — returning
    /// its `(work, values, stats)` triple. Callers merge the triples **in
    /// morsel-index order**.
    ///
    /// This is the one kernel behind both drivers' UDF operators: the
    /// per-morsel float grouping lives here and only here, so the drivers
    /// cannot drift apart.
    pub(crate) fn eval_morsel(&mut self, rids: impl Iterator<Item = usize>) -> Result<MorselEval> {
        self.rids.clear();
        self.rids.extend(rids);
        let _span = trace::span("udf", "eval_morsel").arg("rows", self.rids.len());
        let mut morsel_work = 0.0f64;
        let mut stats = UdfEvalStats::default();
        let mut values = Vec::with_capacity(self.rids.len());
        self.eval.eval_rows(&self.rids, &mut values, &mut morsel_work, &mut stats)?;
        Ok((morsel_work, values, stats))
    }
}

/// Everything resolved once per UDF operator: input columns, the compiled
/// program, the columnar-eligibility decision, weights and batching
/// parameters. [`UdfEvalSpec::worker`] then builds one evaluator per
/// worker.
pub(crate) struct UdfEvalSpec<'a> {
    cols: Vec<&'a Column>,
    weights: CostWeights,
    prog: Program,
    /// `Some` iff typed lanes are on *and* the program has a vectorizable
    /// path *and* every input column has an unboxed lane type (no `Text`):
    /// the program's shape plus one batch-sized lane buffer per parameter,
    /// which every worker's evaluator clones. Other operators run the boxed
    /// batch VM — the two produce bit-identical values and costs either way.
    typed: Option<(SimdShape, Vec<TypedCol>)>,
    batch: usize,
    overhead: f64,
}

impl<'a> UdfEvalSpec<'a> {
    /// Resolve an operator's evaluation plan: compile the UDF once and
    /// decide columnar eligibility.
    ///
    /// Compilation runs the bytecode verifier, so a program that reaches an
    /// evaluator has proven jump targets, register/constant bounds,
    /// cost-charge placement and definite initialization — a rejected UDF
    /// surfaces here as a typed [`graceful_common::GracefulError::Verify`]
    /// before any row runs.
    ///
    /// `typed_lanes` is [`crate::engine::Shortcuts::typed_lanes`]: off, every
    /// operator runs the boxed batch VM.
    ///
    /// `overhead` is the operator's own per-row work (comparison against the
    /// filter literal, projection bookkeeping) charged alongside the UDF
    /// cost.
    pub(crate) fn prepare(
        udf: &'a graceful_udf::GeneratedUdf,
        cols: Vec<&'a Column>,
        typed_lanes: bool,
        weights: CostWeights,
        batch: usize,
        overhead: f64,
    ) -> Result<Self> {
        let prog = compile(&udf.def)?;
        // `for_type` has no lane for `Text`, so one such column makes the
        // whole list `None`. Each lane holds one zeroed batch, so a worker's
        // clone of it is allocated at batch size once.
        let batch = batch.max(1);
        let shape = typed_lanes.then(|| prog.simd_shape()).filter(|s| s.has_fast_path);
        let typed = shape.and_then(|shape| {
            let lanes: Option<Vec<TypedCol>> = cols
                .iter()
                .map(|c| {
                    let mut lane = TypedCol::for_type(c.data_type(), batch)?;
                    lane.fill_zero(batch);
                    Some(lane)
                })
                .collect();
            Some((shape, lanes?))
        });
        Ok(UdfEvalSpec { cols, weights, prog, typed, batch, overhead })
    }

    /// One pool worker's evaluation state. The stage (`physical::stage`)
    /// builds one per worker per region and hands it that worker's morsels.
    pub(crate) fn worker(&self) -> UdfWorker<'_> {
        UdfWorker { eval: self.new_eval(), rids: Vec::new() }
    }

    /// Build one evaluator for a pool worker. The instance owns all its
    /// scratch state (warmed VM register file, gather buffers), so parallel
    /// evaluation never contends and never reallocates per row.
    fn new_eval(&self) -> Box<dyn UdfEval + '_> {
        let mut vm = Vm::new(self.weights.clone());
        vm.warm(&self.prog);
        match &self.typed {
            Some((shape, lanes)) => Box::new(SimdEval {
                vm,
                prog: &self.prog,
                shape,
                typed_bufs: lanes.clone(),
                outs: Vec::with_capacity(self.batch),
                cols: &self.cols,
                batch: self.batch,
                overhead: self.overhead,
            }),
            None => Box::new(VmEval {
                vm,
                prog: &self.prog,
                col_bufs: self.cols.iter().map(|_| Vec::with_capacity(self.batch)).collect(),
                outs: Vec::with_capacity(self.batch),
                cols: &self.cols,
                batch: self.batch,
                overhead: self.overhead,
            }),
        }
    }
}

/// Bytecode batch VM: rows are gathered into boxed-`Value` column buffers and
/// evaluated `batch` rows at a time; work accounted per batch. Serves the
/// operators with no columnar path, and every operator of the reference run.
struct VmEval<'a> {
    vm: Vm,
    prog: &'a Program,
    /// Columnar gather buffers, one per UDF parameter.
    col_bufs: Vec<Vec<Value>>,
    /// Batch output buffer.
    outs: Vec<Value>,
    cols: &'a [&'a Column],
    batch: usize,
    overhead: f64,
}

impl UdfEval for VmEval<'_> {
    fn eval_rows(
        &mut self,
        rids: &[usize],
        values: &mut Vec<Value>,
        work: &mut f64,
        stats: &mut UdfEvalStats,
    ) -> Result<()> {
        let mut start = 0;
        while start < rids.len() {
            let end = (start + self.batch).min(rids.len());
            for buf in self.col_bufs.iter_mut() {
                buf.clear();
            }
            for &rid in &rids[start..end] {
                for (buf, col) in self.col_bufs.iter_mut().zip(self.cols.iter()) {
                    buf.push(col.value(rid));
                }
            }
            self.outs.clear();
            let mut cost = CostCounter::new();
            let col_slices: Vec<&[Value]> = self.col_bufs.iter().map(|b| b.as_slice()).collect();
            self.vm.eval_batch(self.prog, &col_slices, &mut self.outs, &mut cost)?;
            *work += cost.total + (end - start) as f64 * self.overhead;
            stats.rows += (end - start) as u64;
            stats.batches += 1;
            values.append(&mut self.outs);
            start = end;
        }
        Ok(())
    }
}

/// Typed columnar fast path: batches gather straight from the storage
/// columns' typed slices into unboxed lane buffers — no `Value` boxing on the
/// way in. Rows the columnar executor cannot carry fall back to the per-row
/// VM inside [`simd::eval_batch_typed`].
struct SimdEval<'a> {
    vm: Vm,
    prog: &'a Program,
    shape: &'a SimdShape,
    /// Unboxed gather buffers, one per UDF parameter.
    typed_bufs: Vec<TypedCol>,
    /// Batch output buffer.
    outs: Vec<Value>,
    cols: &'a [&'a Column],
    batch: usize,
    overhead: f64,
}

impl UdfEval for SimdEval<'_> {
    fn eval_rows(
        &mut self,
        rids: &[usize],
        values: &mut Vec<Value>,
        work: &mut f64,
        stats: &mut UdfEvalStats,
    ) -> Result<()> {
        let mut start = 0;
        while start < rids.len() {
            let end = (start + self.batch).min(rids.len());
            for (buf, col) in self.typed_bufs.iter_mut().zip(self.cols.iter()) {
                buf.fill_from_column(col, rids[start..end].iter().copied())?;
            }
            self.outs.clear();
            let mut cost = CostCounter::new();
            simd::eval_batch_typed_with_stats(
                &mut self.vm,
                self.prog,
                self.shape,
                &self.typed_bufs,
                &mut self.outs,
                &mut cost,
                &mut stats.simd,
            )?;
            *work += cost.total + (end - start) as f64 * self.overhead;
            stats.rows += (end - start) as u64;
            stats.batches += 1;
            values.append(&mut self.outs);
            start = end;
        }
        Ok(())
    }
}
