//! The two drivers, the per-query accounting and the wall-time profiler.

use super::stage::{agg_sink, cap_error, instantiate, BuildExec};
use super::{
    lower_under, verify_physical, Batch, BuildSide, ExecCtx, OpStats, Operator, PhysicalOp,
    PhysicalOpKind, RootSink, Scan,
};
use crate::engine::{jitter_factor, ExecConfig, QueryRun, Shortcuts};
use graceful_common::Result;
use graceful_obs::trace;
use graceful_plan::Plan;
use graceful_runtime::Pool;
use graceful_storage::Database;
use graceful_udf::UdfStats;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Full morsels a stage queues *per worker* before flushing them through
/// the pool. A region costs about a microsecond to post, but a parked helper
/// needs tens of microseconds to wake and each worker that joins builds its
/// own evaluator, so a window must hold enough rows for a second thread to
/// arrive and pay off; four morsels per worker also leave the morsel cursor
/// room to balance uneven morsels. The value only trades memory for
/// wall-clock and **never affects results** — morsel boundaries and merge
/// order are window-invariant.
const FLUSH_MORSELS_PER_WORKER: usize = 4;

// ---------------------------------------------------------------------------
// Wall-time self-profiler

/// Self-time wall profiler for one pipeline's operator chain (chain index 0
/// is the scan source, `k + 1` is the chain's operator `k`, the sink last).
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

    /// Attribute the time since the previous mark to the operator on top of
    /// the stack; advances the mark.
    fn mark(&self) {
        let now = Instant::now();
        let dt = now.duration_since(self.last.replace(now)).as_nanos() as u64;
        if let Some(&top) = self.stack.borrow().last() {
            self.wall[top].set(self.wall[top].get() + dt);
        }
    }

    /// Run `f` as chain operator `chain_idx`'s own time — the one
    /// enter/exit bracket.
    fn time<T>(prof: Option<&Self>, chain_idx: usize, f: impl FnOnce() -> T) -> T {
        let Some(p) = prof else { return f() };
        p.mark();
        p.stack.borrow_mut().push(chain_idx);
        let out = f();
        p.mark();
        p.stack.borrow_mut().pop();
        out
    }
}

// ---------------------------------------------------------------------------
// Driver

/// One logical operator's accounting, indexed like `plan.ops`: each fact
/// once. The contracted `work` and `rows_out` become the [`QueryRun`]'s
/// `op_work` and `out_rows`; the rest is what a run's flight record and
/// profile add to it (`wall_ns` and `batches` stay 0 unless profiling, the
/// per-operator clock being what profiling costs).
#[derive(Debug, Clone, Default)]
pub(crate) struct OpTally {
    work: f64,
    rows_out: usize,
    /// Wall self-time; a hash join's build side and the final collect fold
    /// into their owning plan operator.
    pub(crate) wall_ns: u64,
    /// Input batches pushed into the operator (morsel count for scans).
    pub(crate) batches: u64,
    /// UDF evaluation counters, for `UdfFilter` / `UdfProject` only.
    pub(crate) udf: Option<UdfStats>,
}

/// One query's execution state: what stays fixed across its pipelines, the
/// accounting they fold into, and the build sides completed so far.
struct Query<'a> {
    db: &'a Database,
    config: &'a ExecConfig,
    cuts: Shortcuts,
    pool: Pool,
    /// Only the streaming driver is instrumented.
    profiling: bool,
    ops: Vec<OpTally>,
    /// `(plan_idx, rows_in)` of the UDF operator that owns `udf_input_rows`:
    /// the highest plan index wins, regardless of pipeline order.
    udf_mark: Option<(usize, usize)>,
    agg_value: f64,
    peak_inter_rows: usize,
    builds: Vec<BuildSide>,
    /// Wall self-time of each build sink, indexed like `builds`; folded into
    /// the probing join operator's.
    build_wall: Vec<u64>,
}

/// Execute `plan`: lower it, audit the lowering, and drive each pipeline's
/// operators, taking the execution shortcuts `cuts` allows. What
/// `Session::run` and `Session::run_reference` call after the logical-plan
/// verification gate. The run comes without a profile, next to the
/// per-operator tallies it was read from.
pub(crate) fn execute(
    db: &Database,
    plan: &Plan,
    config: &ExecConfig,
    seed: u64,
    cuts: Shortcuts,
) -> Result<(QueryRun, Vec<OpTally>)> {
    let phys = lower_under(db, plan, cuts)?;
    verify_physical(&phys, plan)?;
    let mut q = Query {
        db,
        config,
        cuts,
        pool: Pool::new(config.threads),
        profiling: config.profile && cuts.streaming,
        ops: vec![OpTally::default(); plan.ops.len()],
        udf_mark: None,
        agg_value: 0.0,
        peak_inter_rows: 0,
        builds: Vec::new(),
        build_wall: Vec::new(),
    };
    for pipe in &phys.builds {
        let mut sink = BuildExec::new(db, &pipe.sink)?;
        q.pipeline(&pipe.scan, &pipe.ops, Some((&mut sink, None)))?;
        q.builds.push(sink.into_side());
    }
    let root = &phys.root;
    let mut sink = match &root.sink {
        RootSink::Agg { func, column, plan_idx, stride } => {
            Some((agg_sink(db, config, *func, *column, *stride)?, *plan_idx))
        }
        RootSink::Collect => None,
    };
    q.pipeline(&root.scan, &root.ops, sink.as_mut().map(|(op, i)| (&mut **op, Some(*i))))?;
    let out_rows = q.ops.iter().map(|op| op.rows_out).collect();
    let op_work: Vec<f64> = q.ops.iter().map(|op| op.work).collect();
    let total: f64 = op_work.iter().sum();
    let run = QueryRun {
        runtime_ns: total * jitter_factor(seed, config.jitter),
        out_rows,
        op_work,
        agg_value: q.agg_value,
        udf_input_rows: q.udf_mark.map_or(0, |(_, u)| u),
        peak_inter_rows: q.peak_inter_rows,
        profile: None,
    };
    Ok((run, q.ops))
}

impl<'a> Query<'a> {
    /// Fold one operator's accounting into logical operator `i`.
    fn absorb(&mut self, i: usize, s: &OpStats, wall: u64) {
        let op = &mut self.ops[i];
        op.work += s.work;
        if self.profiling {
            op.batches += s.batches;
            op.wall_ns += wall;
        }
        if let Some(r) = s.out_rows {
            op.rows_out = r;
        }
        if let Some(us) = s.udf_stats {
            op.udf.get_or_insert_with(UdfStats::default).merge(&us);
            us.publish();
        }
        if let Some(u) = s.udf_input_rows {
            if self.udf_mark.is_none_or(|(j, _)| i > j) {
                self.udf_mark = Some((i, u));
            }
        }
        if let Some(a) = s.agg_value {
            self.agg_value = a;
        }
    }

    /// Drive one pipeline — `scan` through `ops` into `sink`, if any — and
    /// fold its accounting into the query's. A sink comes with the logical
    /// operator it charges; the build sink has none, and its wall self-time
    /// is kept for the probing join.
    fn pipeline(
        &mut self,
        scan: &Scan<'_>,
        ops: &'a [PhysicalOp<'a>],
        sink: Option<(&mut (dyn Operator + 'a), Option<usize>)>,
    ) -> Result<()> {
        let (db, config, cuts) = (self.db, self.config, self.cuts);
        let chain_len = 1 + ops.len() + usize::from(sink.is_some());
        let _span = trace::span("exec", "pipeline").arg("ops", chain_len);
        let ctx = ExecCtx {
            pool: &self.pool,
            builds: &self.builds,
            morsel: config.morsel_rows.max(1),
            cap: config.max_intermediate_rows,
            flush_morsels: config.threads.max(1) * FLUSH_MORSELS_PER_WORKER,
        };
        let n = db.table(scan.table)?.num_rows();
        if n > ctx.cap {
            return Err(cap_error("SCAN", n));
        }
        let mut stages: Vec<Box<dyn Operator + 'a>> =
            ops.iter().map(|op| instantiate(db, config, cuts, op)).collect::<Result<_>>()?;
        let mut chain: Vec<&mut (dyn Operator + 'a)> =
            stages.iter_mut().map(|s| &mut **s).collect();
        let (sink, sink_idx) = sink.unzip();
        chain.extend(sink);
        let prof = self.profiling.then(|| ChainProf::new(chain_len));
        let scan_batches = if cuts.streaming {
            stream_all(&mut chain, &ctx, n, prof.as_ref())?
        } else {
            collect_all(&mut chain, &ctx, n)?
        };
        let stats: Vec<OpStats> = chain.iter().map(|op| op.stats()).collect();
        // Rows resident while this pipeline ran. Streaming: one in-flight
        // scan batch plus every operator's buffers. Collecting: the largest
        // (whole input + whole output) any one operator held, a build
        // sink's output being the side it holds.
        let resident = if cuts.streaming {
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
        // Build sides persist past their pipeline; buffers do not.
        let held: usize = self.builds.iter().map(|b| b.n_rows).sum();
        self.peak_inter_rows = self.peak_inter_rows.max(held + resident);
        // Attribute work, cardinalities and the chain's wall self-times to
        // the logical operators. Without a sink (a collect) the last
        // operator's emissions go nowhere and cost nothing.
        let wall = |k: usize| prof.as_ref().map_or(0, |p| p.wall[k].get());
        let scanned = OpStats {
            work: config.weights.scan(n as f64),
            out_rows: Some(n),
            batches: scan_batches,
            ..OpStats::default()
        };
        self.absorb(scan.plan_idx, &scanned, wall(0));
        for (k, (op, s)) in ops.iter().zip(&stats).enumerate() {
            let built = match &op.kind {
                PhysicalOpKind::HashJoinProbe { build, .. } => self.build_wall[*build],
                _ => 0,
            };
            self.absorb(op.plan_idx, s, wall(k + 1) + built);
        }
        match (sink_idx, stats.last()) {
            (Some(Some(i)), Some(s)) => self.absorb(i, s, wall(chain_len - 1)),
            (Some(None), _) => self.build_wall.push(wall(chain_len - 1)),
            _ => {}
        }
        Ok(())
    }
}

/// Push one batch into operator `ops[0]`; its emissions cascade through the
/// rest of the chain batch by batch, so no operator's full output is ever
/// collected in one place. `chain` is `ops[0]`'s chain index for the
/// optional wall-time profiler.
fn feed(
    ops: &mut [&mut (dyn Operator + '_)],
    ctx: &ExecCtx<'_>,
    batch: Batch,
    prof: Option<&ChainProf>,
    chain: usize,
) -> Result<()> {
    let Some((first, rest)) = ops.split_first_mut() else {
        return Ok(());
    };
    ChainProf::time(prof, chain, || {
        first.push(batch, ctx, &mut |b| feed(rest, ctx, b, prof, chain + 1))
    })
}

/// Flush every operator in chain order, cascading flushed batches through
/// the not-yet-finished downstream operators.
fn finish_all(
    ops: &mut [&mut (dyn Operator + '_)],
    ctx: &ExecCtx<'_>,
    prof: Option<&ChainProf>,
    chain: usize,
) -> Result<()> {
    let Some((first, rest)) = ops.split_first_mut() else {
        return Ok(());
    };
    ChainProf::time(prof, chain, || {
        first.finish(ctx, &mut |b| feed(rest, ctx, b, prof, chain + 1))
    })?;
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
    ops: &mut [&mut (dyn Operator + '_)],
    ctx: &ExecCtx<'_>,
    n: usize,
    prof: Option<&ChainProf>,
) -> Result<u64> {
    let morsels = Pool::morsel_count(n, ctx.morsel);
    for m in 0..morsels {
        ChainProf::time(prof, 0, || {
            feed(ops, ctx, scan_batch(Pool::morsel_range(m, n, ctx.morsel)), prof, 1)
        })?;
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
fn collect_all(ops: &mut [&mut (dyn Operator + '_)], ctx: &ExecCtx<'_>, n: usize) -> Result<u64> {
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
