//! Operators: the one morsel [`Stage`], its four kernels, the build sink.
//!
//! [`Stage`] is the only implementation of the three bit-identity rules of
//! the [module docs](super): it rebatches its input to morsel boundaries,
//! runs a window of complete morsels as one pool region, merges the
//! per-morsel results in morsel-index order, checks the intermediate cap,
//! emits, drains, and charges the closed-form work at `finish`. Filter, UDF
//! filter/projection, hash probe and aggregate are [`Kernel`]s: a per-worker
//! state, a function from one morsel of pending tuples to its output, an
//! ordered fold, and an [`OperatorWeights`] formula.

use super::{HashBuild, PhysicalOp, PhysicalOpKind};
use crate::engine::{AggState, ExecConfig, OperatorWeights, Shortcuts};
use crate::join::JoinIndex;
use crate::udf_eval::{UdfEvalSpec, UdfWorker};
use graceful_common::{GracefulError, Result};
use graceful_plan::predicate::{self, RowTest};
use graceful_plan::{AggFunc, ColRef, Pred};
use graceful_runtime::Pool;
use graceful_storage::{Column, Database, Value};
use graceful_udf::ast::CmpOp;
use graceful_udf::{GeneratedUdf, UdfStats};
use std::ops::Range;

/// One batch of intermediate rows flowing between operators: a flat row-id
/// matrix (`rows.len() == n_rows × stride`, stride known to each operator
/// from lowering) plus the UDF-projected column when a `UdfProject` produced
/// it. Typed lane buffers ([`graceful_udf::simd::TypedCol`]) appear inside
/// the UDF evaluators, which gather straight from storage's typed slices.
#[derive(Debug, Default)]
pub struct Batch {
    pub rows: Vec<u32>,
    pub computed: Option<Vec<Value>>,
}

/// Shared read-only execution context handed to every operator call.
pub struct ExecCtx<'a> {
    pub pool: &'a Pool,
    /// Completed hash-join build sides of earlier pipelines.
    pub builds: &'a [BuildSide],
    /// Rows per morsel — the work-accounting unit.
    pub morsel: usize,
    /// `max_intermediate_rows` valve.
    pub cap: usize,
    /// Full-morsel count a stage queues before a parallel flush.
    pub flush_morsels: usize,
}

/// Post-run accounting an operator reports into the `QueryRun`, under the
/// logical operator its IR node names.
#[derive(Debug, Default)]
pub struct OpStats {
    /// Work units for `op_work`.
    pub work: f64,
    /// Output cardinality for `out_rows`.
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
    pub udf_stats: Option<UdfStats>,
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
}

/// The one intermediate-cap error: which operator overflowed, and by how
/// far it had got.
pub(super) fn cap_error(op: &str, rows: usize) -> GracefulError {
    GracefulError::InvalidPlan(format!("{op} output exceeds the intermediate cap: {rows} rows"))
}

// ---------------------------------------------------------------------------
// The stage

/// Morsel-aligned rebatch buffer: input tuples, and the projected column
/// travelling with them (empty, or one value per buffered tuple).
struct Rebatcher {
    rows: Vec<u32>,
    computed: Vec<Value>,
    stride: usize,
    peak: usize,
}

impl Rebatcher {
    fn append(&mut self, batch: Batch) {
        self.rows.extend_from_slice(&batch.rows);
        self.computed.extend(batch.computed.into_iter().flatten());
        self.peak = self.peak.max(self.rows.len() / self.stride);
    }

    /// Rows to evaluate now: mid-stream only complete morsels, and only once
    /// `flush_morsels` of them are queued; at finish, everything.
    fn take_rows(&self, all: bool, ctx: &ExecCtx<'_>) -> usize {
        let n = self.rows.len() / self.stride;
        let complete = n / ctx.morsel;
        if all {
            n
        } else if complete >= ctx.flush_morsels {
            complete * ctx.morsel
        } else {
            0
        }
    }

    fn drain(&mut self, rows: usize) {
        self.rows.drain(..rows * self.stride);
        self.computed.drain(..rows.min(self.computed.len()));
    }
}

/// One morsel of a flush, as the kernels see it: the pending tuples with
/// their projected column, and the rows `range` of them to evaluate.
struct Morsel<'b> {
    rows: &'b [u32],
    computed: &'b [Value],
    stride: usize,
    range: Range<usize>,
    ctx: &'b ExecCtx<'b>,
}

impl Morsel<'_> {
    fn tuple(&self, r: usize) -> &[u32] {
        &self.rows[r * self.stride..(r + 1) * self.stride]
    }

    /// The morsel's tuples, in row order.
    fn tuples(&self) -> impl Iterator<Item = &[u32]> {
        self.range.clone().map(|r| self.tuple(r))
    }
}

/// What a kernel makes of one morsel.
struct MorselOut<X> {
    /// Work accounted per morsel (UDF cost); closed-form terms are charged
    /// at finish instead.
    work: f64,
    rows_out: usize,
    batch: Batch,
    /// Kernel-private result for [`Kernel::fold`].
    extra: X,
}

impl MorselOut<()> {
    fn rows(rows: Vec<u32>, rows_out: usize) -> Result<Self> {
        Ok(MorselOut { work: 0.0, rows_out, batch: Batch { rows, computed: None }, extra: () })
    }
}

/// What differs between the parallel operators.
trait Kernel: Sync {
    /// State each pool worker builds once per region and reuses across the
    /// morsels it pulls.
    type Worker<'s>
    where
        Self: 's;
    type Extra: Send;

    fn worker(&self) -> Self::Worker<'_>;

    /// Whether `batch` (of `n` rows) goes through the rebatch buffer.
    fn admit(&mut self, _batch: &Batch, _n: usize, _ctx: &ExecCtx<'_>) -> Result<bool> {
        Ok(true)
    }

    /// Evaluate one morsel. Runs on the pool.
    fn morsel<'s>(
        &'s self,
        worker: &mut Self::Worker<'s>,
        morsel: &Morsel<'_>,
    ) -> Result<MorselOut<Self::Extra>>;

    /// Fold one morsel's private result; called in morsel-index order.
    fn fold(&mut self, _extra: Self::Extra) {}

    /// The closed-form work charge over the whole input, at finish.
    fn charge(&self, rows_in: usize, rows_out: usize, ctx: &ExecCtx<'_>) -> f64;

    /// Kernel-specific accounting on top of the stage's.
    fn report(&self, _rows_in: usize, _stats: &mut OpStats) {}
}

/// A morsel-parallel operator: `kernel` under the rebatch → region →
/// ordered merge → cap → emit → drain protocol.
struct Stage<K> {
    name: &'static str,
    kernel: K,
    buf: Rebatcher,
    rows_in: usize,
    rows_out: usize,
    batches: u64,
    work: f64,
}

impl<'a, K: Kernel + 'a> Stage<K> {
    fn boxed(name: &'static str, stride: usize, kernel: K) -> Box<dyn Operator + 'a> {
        let buf = Rebatcher { rows: Vec::new(), computed: Vec::new(), stride, peak: 0 };
        Box::new(Stage { name, kernel, buf, rows_in: 0, rows_out: 0, batches: 0, work: 0.0 })
    }

    fn flush(&mut self, all: bool, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()> {
        let take = self.buf.take_rows(all, ctx);
        if take == 0 {
            return Ok(());
        }
        // Flushes drain whole morsels mid-stream, so morsel boundaries sit
        // at the same input-stream offsets as `Pool::morsel_range` over the
        // whole input.
        let (rows, computed, stride) =
            (&self.buf.rows[..], &self.buf.computed[..], self.buf.stride);
        let kernel = &self.kernel;
        let parts = ctx.pool.try_map_init(
            Pool::morsel_count(take, ctx.morsel),
            || kernel.worker(),
            |worker, m| {
                let range = Pool::morsel_range(m, take, ctx.morsel);
                kernel.morsel(worker, &Morsel { rows, computed, stride, range, ctx })
            },
        )?;
        for part in parts {
            let part = part?;
            self.work += part.work;
            self.kernel.fold(part.extra);
            self.rows_out += part.rows_out;
            if self.rows_out > ctx.cap {
                return Err(cap_error(self.name, self.rows_out));
            }
            if !part.batch.rows.is_empty() {
                emit(part.batch)?;
            }
        }
        self.buf.drain(take);
        Ok(())
    }
}

impl<K: Kernel> Operator for Stage<K> {
    fn push(&mut self, batch: Batch, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()> {
        let n = batch.rows.len() / self.buf.stride;
        self.rows_in += n;
        self.batches += 1;
        if !self.kernel.admit(&batch, n, ctx)? {
            return Ok(());
        }
        self.buf.append(batch);
        self.flush(false, ctx, emit)
    }

    fn finish(&mut self, ctx: &ExecCtx<'_>, emit: &mut Emit<'_>) -> Result<()> {
        self.flush(true, ctx, emit)?;
        self.work += self.kernel.charge(self.rows_in, self.rows_out, ctx);
        Ok(())
    }

    fn stats(&self) -> OpStats {
        let mut stats = OpStats {
            work: self.work,
            out_rows: Some(self.rows_out),
            peak_resident: self.buf.peak,
            batches: self.batches,
            ..OpStats::default()
        };
        self.kernel.report(self.rows_in, &mut stats);
        stats
    }
}

// ---------------------------------------------------------------------------
// Kernels

/// Conjunctive predicate filter.
struct FilterKernel<'a> {
    /// Each with the tuple lane that holds its table's row id.
    preds: Vec<(RowTest<'a>, usize)>,
    weights: &'a OperatorWeights,
}

impl Kernel for FilterKernel<'_> {
    type Worker<'s>
        = ()
    where
        Self: 's;
    type Extra = ();

    fn worker(&self) {}

    fn morsel(&self, _: &mut (), morsel: &Morsel<'_>) -> Result<MorselOut<()>> {
        let Range { start, end } = morsel.range;
        let rows = &morsel.rows[start * morsel.stride..end * morsel.stride];
        let kept = predicate::filter(&self.preds, rows, morsel.stride);
        let rows_out = kept.len() / morsel.stride;
        MorselOut::rows(kept, rows_out)
    }

    fn charge(&self, rows_in: usize, _: usize, _: &ExecCtx<'_>) -> f64 {
        self.weights.filter(rows_in as f64, self.preds.len())
    }
}

/// UDF filter/projection over the evaluators of `crate::udf_eval`: one
/// evaluator per pool worker, batch boundaries restarting per morsel.
struct UdfKernel<'a> {
    spec: UdfEvalSpec<'a>,
    /// `Some((cmp, literal))` for a UDF filter, `None` for a projection.
    filter: Option<(CmpOp, f64)>,
    pos: usize,
    eval_stats: UdfStats,
}

impl Kernel for UdfKernel<'_> {
    type Worker<'s>
        = UdfWorker<'s>
    where
        Self: 's;
    type Extra = UdfStats;

    fn worker(&self) -> UdfWorker<'_> {
        self.spec.worker()
    }

    fn morsel<'s>(
        &'s self,
        worker: &mut UdfWorker<'s>,
        morsel: &Morsel<'_>,
    ) -> Result<MorselOut<UdfStats>> {
        let rids = morsel.tuples().map(|tuple| tuple[self.pos] as usize);
        let (work, values, extra) = worker.eval_morsel(rids)?;
        let batch = match self.filter {
            Some((cmp, literal)) => {
                let mut kept = Vec::new();
                for (tuple, value) in morsel.tuples().zip(&values) {
                    // NULL, text and NaN outputs never pass, `!=` included:
                    // the table every SQL comparison in the engine applies.
                    let ord = value.as_f64().and_then(|v| v.partial_cmp(&literal));
                    if Pred::accepts(cmp, ord) {
                        kept.extend_from_slice(tuple);
                    }
                }
                Batch { rows: kept, computed: None }
            }
            None => {
                let Range { start, end } = morsel.range;
                let rows = morsel.rows[start * morsel.stride..end * morsel.stride].to_vec();
                Batch { rows, computed: Some(values) }
            }
        };
        Ok(MorselOut { work, rows_out: batch.rows.len() / morsel.stride, batch, extra })
    }

    fn fold(&mut self, morsel_stats: UdfStats) {
        self.eval_stats.merge(&morsel_stats);
    }

    fn charge(&self, _: usize, _: usize, _: &ExecCtx<'_>) -> f64 {
        0.0 // all of a UDF operator's work is per-morsel
    }

    fn report(&self, rows_in: usize, stats: &mut OpStats) {
        stats.udf_input_rows = Some(rows_in);
        stats.udf_stats = Some(self.eval_stats);
    }
}

/// Hash-join probe: looks up each left row's key in the build side's join
/// index and emits matched `left[keep] ++ build` tuples (the build side was
/// lane-pruned at build time). Match lists are row-ascending and chunks
/// merge in morsel-index order, which is the sequential probe's output row
/// order exactly. A build side with no keyed row admits no batch: its probe
/// input is counted but never read. Accounts the whole join's work — lane
/// pruning never changes row counts, so the charge is rewrite-invariant.
struct ProbeKernel<'a> {
    key_col: &'a Column,
    pos: usize,
    keep: &'a [usize],
    build: usize,
    weights: &'a OperatorWeights,
}

impl Kernel for ProbeKernel<'_> {
    type Worker<'s>
        = ()
    where
        Self: 's;
    type Extra = ();

    fn worker(&self) {}

    fn admit(&mut self, _: &Batch, _: usize, ctx: &ExecCtx<'_>) -> Result<bool> {
        Ok(!ctx.builds[self.build].index.is_empty())
    }

    fn morsel(&self, _: &mut (), morsel: &Morsel<'_>) -> Result<MorselOut<()>> {
        let side = &morsel.ctx.builds[self.build];
        let mut chunk = Vec::new();
        let mut emitted = 0usize;
        for tuple in morsel.tuples() {
            let Some(k) = self.key_col.get_i64(tuple[self.pos] as usize) else { continue };
            for &r in side.index.get(k) {
                let r = r as usize * side.stride;
                chunk.extend(self.keep.iter().map(|&i| tuple[i]));
                chunk.extend_from_slice(&side.rows[r..r + side.stride]);
                emitted += 1;
                // The cap is enforced here per morsel (bounding memory
                // mid-probe) and by the stage cumulatively on merge — a
                // query errors iff its total output exceeds the cap.
                if emitted > morsel.ctx.cap {
                    return Err(cap_error("HASH_PROBE", emitted));
                }
            }
        }
        MorselOut::rows(chunk, emitted)
    }

    fn charge(&self, rows_in: usize, rows_out: usize, ctx: &ExecCtx<'_>) -> f64 {
        let built = ctx.builds[self.build].n_rows;
        self.weights.join(built as f64, rows_in as f64, rows_out as f64)
    }
}

/// Aggregate sink: folds each morsel into its own [`AggState`] partial on
/// the pool and merges partials in morsel-index order, so the fold shape is
/// fixed by the morsel size alone. `COUNT(*)` never touches a float and
/// streams unbuffered.
struct AggKernel<'a> {
    func: AggFunc,
    /// The aggregated base column and its table's lane; `None` aggregates
    /// the UDF-projected column travelling with the batches.
    column: Option<(&'a Column, usize)>,
    state: AggState,
    weights: &'a OperatorWeights,
}

impl Kernel for AggKernel<'_> {
    type Worker<'s>
        = ()
    where
        Self: 's;
    type Extra = AggState;

    fn worker(&self) {}

    fn admit(&mut self, batch: &Batch, n: usize, _: &ExecCtx<'_>) -> Result<bool> {
        if self.func == AggFunc::CountStar {
            self.state.count_rows(n);
            return Ok(false);
        }
        // An empty batch carries no projected column to check for (the
        // collecting driver pushes one even when upstream emitted nothing).
        if n > 0 && self.column.is_none() && batch.computed.is_none() {
            return Err(GracefulError::InvalidPlan(
                "agg over UDF output requires a UdfProject below".into(),
            ));
        }
        Ok(true)
    }

    fn morsel(&self, _: &mut (), morsel: &Morsel<'_>) -> Result<MorselOut<AggState>> {
        let mut part = AggState::new(self.func);
        for r in morsel.range.clone() {
            part.observe(match self.column {
                Some((col, pos)) => col.get_f64(morsel.tuple(r)[pos] as usize),
                None => morsel.computed.get(r).and_then(Value::as_f64),
            });
        }
        Ok(MorselOut { work: 0.0, rows_out: 0, batch: Batch::default(), extra: part })
    }

    fn fold(&mut self, part: AggState) {
        self.state.merge(&part);
    }

    fn charge(&self, rows_in: usize, _: usize, _: &ExecCtx<'_>) -> f64 {
        self.weights.agg(rows_in as f64)
    }

    fn report(&self, _: usize, stats: &mut OpStats) {
        stats.out_rows = Some(1);
        stats.agg_value = Some(self.state.finish());
        // The sink's buffer has never counted towards `peak_inter_rows`.
        stats.peak_resident = 0;
    }
}

// ---------------------------------------------------------------------------
// The build sink

/// A materialized hash-join build side: the key → build-row index (see
/// `crate::join`) plus the build rows' kept lanes, indexed by insertion
/// order, which equals the build input's row order.
pub struct BuildSide {
    index: JoinIndex,
    rows: Vec<u32>,
    stride: usize,
    pub(super) n_rows: usize,
}

/// Hash-join build sink: materializes the pipeline's output as the probe's
/// build side, storing only the `keep` lanes of each input tuple (the key
/// is read from the full input tuple, so even the key lane can be pruned
/// from storage). Each row's key (`None` for NULL) is gathered in row order
/// while rows stream in, and indexed at `finish`. Work is accounted by the
/// probe (the join's logical operator).
pub(super) struct BuildExec<'a> {
    key_col: &'a Column,
    sink: &'a HashBuild<'a>,
    keys: Vec<Option<i64>>,
    side: BuildSide,
}

impl<'a> BuildExec<'a> {
    pub(super) fn new(db: &'a Database, sink: &'a HashBuild<'a>) -> Result<Self> {
        let side = BuildSide {
            index: JoinIndex::default(),
            rows: Vec::new(),
            stride: sink.keep.len(),
            n_rows: 0,
        };
        Ok(BuildExec { key_col: storage_column(db, sink.key)?, sink, keys: Vec::new(), side })
    }

    pub(super) fn into_side(self) -> BuildSide {
        self.side
    }
}

impl Operator for BuildExec<'_> {
    fn push(&mut self, batch: Batch, _ctx: &ExecCtx<'_>, _emit: &mut Emit<'_>) -> Result<()> {
        for tuple in batch.rows.chunks_exact(self.sink.stride) {
            self.keys.push(self.key_col.get_i64(tuple[self.sink.pos] as usize));
            self.side.rows.extend(self.sink.keep.iter().map(|&i| tuple[i]));
            self.side.n_rows += 1;
        }
        Ok(())
    }

    fn finish(&mut self, _ctx: &ExecCtx<'_>, _emit: &mut Emit<'_>) -> Result<()> {
        self.side.index = JoinIndex::new(&std::mem::take(&mut self.keys));
        Ok(())
    }

    fn stats(&self) -> OpStats {
        OpStats { peak_resident: self.side.n_rows, ..OpStats::default() }
    }
}

// ---------------------------------------------------------------------------
// Instantiation

fn storage_column<'a>(db: &'a Database, col: &ColRef) -> Result<&'a Column> {
    db.table(&col.table)?.column(&col.column)
}

/// Instantiate the execution state for one streaming operator, resolving its
/// storage columns.
pub(super) fn instantiate<'a>(
    db: &'a Database,
    config: &'a ExecConfig,
    cuts: Shortcuts,
    op: &'a PhysicalOp<'_>,
) -> Result<Box<dyn Operator + 'a>> {
    let weights = &config.weights;
    let udf = |udf: &'a GeneratedUdf, overhead: f64, filter, pos| -> Result<UdfKernel<'a>> {
        let t = db.table(&udf.table)?;
        let cols = udf.input_columns.iter().map(|c| t.column(c)).collect::<Result<_>>()?;
        let spec = UdfEvalSpec::prepare(udf, cols, cuts, config.udf_batch_size, overhead)?;
        Ok(UdfKernel { spec, filter, pos, eval_stats: UdfStats::default() })
    };
    let (name, stride) = (op.kind.name(), op.stride);
    Ok(match &op.kind {
        PhysicalOpKind::Filter { preds } => {
            let compile = |&(p, pos): &(&'a Pred, usize)| {
                let t = db.table(&p.col.table)?;
                Ok((RowTest::compile(p, t, t.num_rows()), pos))
            };
            let preds = preds.iter().map(compile).collect::<Result<_>>()?;
            Stage::boxed(name, stride, FilterKernel { preds, weights })
        }
        PhysicalOpKind::UdfFilter { udf: u, cmp, literal, pos } => {
            Stage::boxed(name, stride, udf(u, weights.udf_compare, Some((*cmp, *literal)), *pos)?)
        }
        PhysicalOpKind::UdfProject { udf: u, pos } => {
            Stage::boxed(name, stride, udf(u, weights.project_row, None, *pos)?)
        }
        PhysicalOpKind::HashJoinProbe { key, pos, build, keep } => {
            let key_col = storage_column(db, key)?;
            Stage::boxed(
                name,
                stride,
                ProbeKernel { key_col, pos: *pos, keep, build: *build, weights },
            )
        }
    })
}

/// Instantiate the aggregate sink.
pub(super) fn agg_sink<'a>(
    db: &'a Database,
    config: &'a ExecConfig,
    func: AggFunc,
    column: Option<(&ColRef, usize)>,
    stride: usize,
) -> Result<Box<dyn Operator + 'a>> {
    let column = match column {
        Some((c, pos)) => Some((storage_column(db, c)?, pos)),
        None => None,
    };
    let kernel = AggKernel { func, column, state: AggState::new(func), weights: &config.weights };
    Ok(Stage::boxed("AGG", stride, kernel))
}
