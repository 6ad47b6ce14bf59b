//! Plan execution with exact work accounting.
//!
//! [`Executor::run`] dispatches on [`ExecConfig::mode`]: the default
//! [`ExecMode::Pipeline`] lowers the plan to the physical-operator pipeline
//! of [`crate::physical`] and streams batches through it, while
//! [`ExecMode::Materialize`] runs this module's original recursive
//! interpreter, which fully materializes every intermediate result. Both
//! produce bit-identical [`QueryRun`]s (values, cardinalities, accounted
//! work) — the differential suite enforces it — so the materializing path is
//! kept as the executable reference semantics.
//!
//! # Parallelism
//!
//! Every data-plane operator runs on the morsel-driven pool of
//! `graceful-runtime`: rows are split into `morsel_rows`-row morsels
//! (`GRACEFUL_MORSEL`), workers pull morsels from a shared queue, and
//! per-morsel results — scanned row ids, kept rows, projected values, join
//! output chunks, aggregate partials, accounted work — merge in
//! morsel-index order. Hash joins build and probe the radix-partitioned
//! index of `crate::join`; filters over identity scans skip whole morsels
//! via the zone maps of `crate::prune`. Work totals are grouped *per
//! morsel* regardless of the thread count, so every `QueryRun` field is
//! **bit-identical for any `GRACEFUL_THREADS` value** (enforced by
//! `tests/parallel_determinism.rs`).
//! Each worker owns its UDF evaluation state through the [`crate::udf_eval`]
//! layer: one tree-walking interpreter, or one batch VM whose register file
//! is preallocated once and reused across all morsels the worker pulls.

use crate::profile::ExecProfile;
use crate::udf_eval::{record_udf_metrics, UdfEvalSpec, UdfEvalStats};
use graceful_common::config::{self, ExecMode, PlanVerifyMode, UdfBackend};
use graceful_common::{GracefulError, Result};
use graceful_obs::registry::{counter, histogram, Counter, Histogram};
use graceful_obs::trace;
use graceful_plan::analysis::join_keep_lanes;
use graceful_plan::{AggFunc, ColRef, Plan, PlanOpKind, PredFold, RewriteSet};
use graceful_runtime::Pool;
use graceful_storage::{Database, Table, Value};
use graceful_udf::CostWeights;
use std::sync::OnceLock;
use std::time::Instant;

/// Per-row work-unit weights of the relational operators (≈ simulated
/// nanoseconds, calibrated to a vectorized engine's per-tuple costs with the
/// UDF weights of `graceful-udf::costs` — UDF invocation is ~20× a scanned
/// row, matching the DuckDB-with-Python-UDF regime the paper studies).
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorWeights {
    pub scan_row: f64,
    pub filter_pred: f64,
    pub join_build_row: f64,
    pub join_probe_row: f64,
    pub join_out_row: f64,
    pub agg_row: f64,
    /// Comparison of the UDF output against the filter literal.
    pub udf_compare: f64,
    pub project_row: f64,
}

impl Default for OperatorWeights {
    fn default() -> Self {
        OperatorWeights {
            scan_row: 20.0,
            filter_pred: 14.0,
            join_build_row: 46.0,
            join_probe_row: 34.0,
            join_out_row: 12.0,
            agg_row: 9.0,
            udf_compare: 12.0,
            project_row: 14.0,
        }
    }
}

/// Executor configuration.
///
/// [`ExecConfig::base`] (also `Default`) is **pure** — fixed defaults, no
/// environment reads. [`ExecConfig::from_env`] resolves the documented
/// `GRACEFUL_*` defaults exactly once, surfacing invalid values as typed
/// [`GracefulError::Config`] errors. Prefer constructing through
/// [`crate::Session`] / [`crate::ExecOptions`], which validate every field.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    pub weights: OperatorWeights,
    pub udf_weights: CostWeights,
    /// Relative amplitude of the deterministic "measurement" jitter applied
    /// to total runtime (keyed by the seed passed to [`Executor::run`]).
    /// Mimics the irreducible noise of the paper's wall-clock labels without
    /// sacrificing reproducibility.
    pub jitter: f64,
    /// Safety cap on intermediate result sizes: any operator whose output
    /// exceeds it aborts the query with a typed error instead of eating the
    /// machine's memory.
    pub max_intermediate_rows: usize,
    /// Which UDF evaluation backend serves `UdfFilter` / `UdfProject`.
    /// All backends produce identical values and accounted work; see
    /// [`UdfBackend`].
    pub udf_backend: UdfBackend,
    /// Rows per batch fed to the UDF VM (ignored by the tree-walker).
    pub udf_batch_size: usize,
    /// Worker threads for the morsel-driven operator paths. Never changes
    /// results — only wall-clock time.
    pub threads: usize,
    /// Rows per morsel for the parallel operator paths. Fixes the
    /// work-accounting float grouping, so runs with the same morsel size are
    /// bit-identical at any thread count.
    pub morsel_rows: usize,
    /// Execution strategy; see [`ExecMode`]. Both modes are bit-identical.
    pub mode: ExecMode,
    /// Attach a per-operator [`ExecProfile`] to every [`QueryRun`]. Pure
    /// observability: never changes any contracted result field.
    pub profile: bool,
    /// Static plan verification before lowering; see [`PlanVerifyMode`].
    /// Under the default `Strict`, every plan handed to [`Executor::run`]
    /// goes through `graceful_plan::analysis::verify` and malformed plans
    /// are rejected with a typed [`GracefulError::PlanVerify`] naming the
    /// offending operator; the physical lowering additionally audits its
    /// own invariants (pipeline shape, charge placement, lane strides).
    pub plan_verify: PlanVerifyMode,
    /// Apply the analysis-driven verified rewrites (constant-predicate
    /// folding, dead UDF-parameter pruning, join-payload lane pruning).
    /// Rewrites are execution hints proven to leave every contracted
    /// `QueryRun` field bit-identical — this switch exists so the
    /// differential suite can prove exactly that. Programmatic only (no
    /// environment knob); defaults to on.
    pub rewrites: bool,
    /// Skip whole filter morsels whose storage zone maps prove no row can
    /// match (see `crate::prune`). Like `rewrites`, pruning is an
    /// execution shortcut proven to leave every contracted `QueryRun` field
    /// bit-identical — the switch exists so the differential suite can prove
    /// exactly that. Programmatic only (no environment knob); defaults to
    /// on.
    pub pruning: bool,
    /// Base-row multiplier for generated databases (`GRACEFUL_SCALE`).
    /// Execution itself never reads it — it rides on the session config so
    /// benches and experiment drivers size their `datagen::generate` calls
    /// from the same validated knob surface as every other setting.
    pub data_scale: f64,
}

impl ExecConfig {
    /// The pure baseline configuration: fixed defaults, no environment
    /// reads, machine thread count from `available_parallelism`.
    pub fn base() -> Self {
        ExecConfig {
            weights: OperatorWeights::default(),
            udf_weights: CostWeights::default(),
            jitter: 0.03,
            max_intermediate_rows: 20_000_000,
            udf_backend: UdfBackend::default(),
            udf_batch_size: config::DEFAULT_UDF_BATCH,
            threads: config::default_threads(),
            morsel_rows: config::DEFAULT_MORSEL_ROWS,
            mode: ExecMode::default(),
            profile: false,
            plan_verify: PlanVerifyMode::default(),
            rewrites: true,
            pruning: true,
            data_scale: 1.0,
        }
    }

    /// [`ExecConfig::base`] with the documented `GRACEFUL_*` environment
    /// defaults applied (`GRACEFUL_UDF_BATCH`, `GRACEFUL_THREADS`,
    /// `GRACEFUL_MORSEL`, `GRACEFUL_EXEC`, `GRACEFUL_PROFILE`,
    /// `GRACEFUL_PLAN_VERIFY`, `GRACEFUL_SCALE`). Invalid values are a typed
    /// [`GracefulError::Config`], not a panic. The UDF backend has no
    /// environment default: a set variable of its removed knob is a `Config`
    /// error too (see `config::reject_udf_backend_env`).
    ///
    /// `GRACEFUL_TRACE` and `GRACEFUL_FLIGHT` are also resolved here: a
    /// valid path arms the global span-trace collector / query flight
    /// recorder (`graceful-obs`) so the process can flush Chrome-trace JSON
    /// / per-query JSONL on demand; an invalid value is a config error like
    /// every other knob.
    pub fn from_env() -> Result<Self> {
        let cfg = GracefulError::Config;
        config::try_udf_backend_env_unset().map_err(cfg)?;
        if let Some(path) = config::try_trace_from_env().map_err(cfg)? {
            trace::configure(&path);
        }
        if let Some(path) = config::try_flight_from_env().map_err(cfg)? {
            graceful_obs::flight::configure(&path);
        }
        Ok(ExecConfig {
            udf_batch_size: config::try_udf_batch_from_env().map_err(cfg)?,
            threads: config::try_threads_from_env().map_err(cfg)?,
            morsel_rows: config::try_morsel_from_env().map_err(cfg)?,
            mode: ExecMode::try_from_env().map_err(cfg)?,
            profile: config::try_profile_from_env().map_err(cfg)?,
            plan_verify: PlanVerifyMode::try_from_env().map_err(cfg)?,
            data_scale: config::try_scale_from_env().map_err(cfg)?,
            ..ExecConfig::base()
        })
    }

    /// Check the numeric invariants the engine relies on, returning `self`
    /// unchanged. [`crate::ExecOptions::build`] funnels every construction
    /// path through here.
    pub fn validated(self) -> Result<Self> {
        let bad = |m: String| Err(GracefulError::Config(m));
        if self.udf_batch_size == 0 {
            return bad("udf_batch_size must be >= 1".into());
        }
        if self.morsel_rows == 0 {
            return bad("morsel_rows must be >= 1".into());
        }
        if self.threads == 0 {
            return bad("threads must be >= 1".into());
        }
        if self.max_intermediate_rows == 0 {
            return bad("max_intermediate_rows must be >= 1".into());
        }
        if !self.jitter.is_finite() || !(0.0..=1.0).contains(&self.jitter) {
            return bad(format!("jitter must be a finite fraction in [0, 1], got {}", self.jitter));
        }
        if !self.data_scale.is_finite() || self.data_scale <= 0.0 {
            return bad(format!("data_scale must be a finite float > 0, got {}", self.data_scale));
        }
        Ok(self)
    }
}

impl Default for ExecConfig {
    /// Same as [`ExecConfig::base`] — pure, no environment reads.
    fn default() -> Self {
        ExecConfig::base()
    }
}

/// Result of executing one plan.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Total simulated runtime in nanoseconds (after jitter).
    pub runtime_ns: f64,
    /// Actual output cardinality per plan operator (same indexing as
    /// `plan.ops`).
    pub out_rows: Vec<usize>,
    /// Work units spent per plan operator (before jitter).
    pub op_work: Vec<f64>,
    /// Aggregate result value.
    pub agg_value: f64,
    /// Rows fed into the UDF operator (0 when the plan has none).
    pub udf_input_rows: usize,
    /// Approximate peak number of intermediate rows resident at once — the
    /// memory-footprint gauge the pipeline-vs-materialized bench records.
    /// This is an execution-strategy metric, **not** part of the
    /// bit-identity contract: the pipeline executor's whole point is that it
    /// stays far below the materializing executor's peak.
    pub peak_inter_rows: usize,
    /// Per-operator execution profile, attached when
    /// [`ExecConfig::profile`] is on. Like `peak_inter_rows`, this is pure
    /// observability — wall-clock times, batch counts — and **not** part of
    /// the bit-identity contract.
    pub profile: Option<ExecProfile>,
}

impl QueryRun {
    /// Runtime in seconds.
    pub fn runtime_s(&self) -> f64 {
        self.runtime_ns * 1e-9
    }
}

/// Intermediate relation: per output row, one row-id per bound base table.
struct Inter {
    tables: Vec<String>,
    /// Flat row-id matrix, `rows.len() == n_rows * tables.len()`.
    rows: Vec<u32>,
    /// UDF-projected output column, if a UdfProject ran.
    computed: Option<Vec<Value>>,
    /// True while `rows` is still the scan's identity fill (`rows[r] == r`
    /// over one base table): set by Scan, preserved by row-preserving
    /// operators (identity filters, UDF projections), cleared by anything
    /// that selects or recombines rows. Zone pruning is only sound on
    /// identity row ids, where morsel `m` covers the contiguous base-table
    /// range the zone maps summarize.
    identity: bool,
}

impl Inter {
    fn n_rows(&self) -> usize {
        if self.tables.is_empty() {
            0
        } else {
            self.rows.len() / self.tables.len()
        }
    }

    fn table_pos(&self, table: &str) -> Option<usize> {
        self.tables.iter().position(|t| t == table)
    }

    fn row_id(&self, row: usize, table_pos: usize) -> u32 {
        self.rows[row * self.tables.len() + table_pos]
    }
}

/// The execution engine.
pub struct Executor<'a> {
    db: &'a Database,
    pub config: ExecConfig,
}

impl<'a> Executor<'a> {
    pub fn new(db: &'a Database) -> Self {
        Executor { db, config: ExecConfig::default() }
    }

    pub fn with_config(db: &'a Database, config: ExecConfig) -> Self {
        Executor { db, config }
    }

    /// Execute `plan`; `seed` keys the deterministic runtime jitter (pass the
    /// query id so re-running the same query gives the same "measurement").
    ///
    /// Dispatches on [`ExecConfig::mode`]; both modes return bit-identical
    /// `QueryRun`s (aside from the [`QueryRun::peak_inter_rows`] gauge and
    /// the opt-in [`QueryRun::profile`]).
    ///
    /// Every call increments the registry counter `exec.queries` and records
    /// its wall time into the `exec.query_wall_ns` histogram.
    pub fn run(&self, plan: &Plan, seed: u64) -> Result<QueryRun> {
        struct ExecMetrics {
            queries: Counter,
            wall_ns: Histogram,
        }
        static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
        let m = METRICS.get_or_init(|| ExecMetrics {
            queries: counter("exec.queries"),
            wall_ns: histogram("exec.query_wall_ns"),
        });
        let _span = trace::span("exec", "query").arg("seed", seed).arg("ops", plan.ops.len());
        let started = Instant::now();
        // The plan-verification gate: under the default strict mode, every
        // plan is statically checked against the catalog before any lowering
        // or execution, so malformed plans fail as one typed PlanVerify
        // error naming the operator instead of as a mid-execution surprise.
        if self.config.plan_verify == PlanVerifyMode::Strict {
            graceful_plan::analysis::verify(plan, self.db)?;
        }
        let run = match self.config.mode {
            ExecMode::Pipeline => self.run_pipelined(plan, seed),
            ExecMode::Materialize => self.run_materialized(plan, seed),
        };
        m.queries.incr();
        m.wall_ns.record(started.elapsed().as_nanos() as f64);
        // Estimator-quality telemetry (q-error histograms, flight record) —
        // write-only observability, one atomic load when everything is off.
        if let Ok(r) = &run {
            crate::analyze::observe_run(plan, &self.config, r, seed);
        }
        run
    }

    /// Execute through the physical-operator pipeline (see
    /// [`crate::physical`]), regardless of the configured mode.
    pub fn run_pipelined(&self, plan: &Plan, seed: u64) -> Result<QueryRun> {
        crate::physical::execute(self.db, plan, &self.config, seed)
    }

    /// Execute with the original materializing interpreter, regardless of
    /// the configured mode: every operator fully materializes its output
    /// before its parent runs. Kept as the differential-testing reference.
    pub fn run_materialized(&self, plan: &Plan, seed: u64) -> Result<QueryRun> {
        plan.validate()?;
        let started = Instant::now();
        let profiling = self.config.profile;
        let mut out_rows = vec![0usize; plan.ops.len()];
        let mut op_work = vec![0f64; plan.ops.len()];
        let mut wall_ns = vec![0u64; plan.ops.len()];
        let mut udf_stats: Vec<Option<UdfEvalStats>> = vec![None; plan.ops.len()];
        let mut udf_input_rows = 0usize;
        let mut agg_value = 0.0;
        let mut peak_inter_rows = 0usize;
        let mut results: Vec<Option<Inter>> = (0..plan.ops.len()).map(|_| None).collect();
        // Rewrite hints (constant folds, dead params, live lanes), computed
        // once per query. Conservative and infallible: when disabled (or
        // unprovable) everything degrades to the unrewritten path.
        let rewrites = if self.config.rewrites {
            RewriteSet::analyze(plan, self.db)
        } else {
            RewriteSet::none(plan)
        };
        for idx in 0..plan.ops.len() {
            let op = &plan.ops[idx];
            let op_started = profiling.then(Instant::now);
            // Rows resident while this operator runs: every live
            // intermediate (its inputs included — they are only dropped
            // when the operator returns) plus the output it materializes.
            let live_before: usize = results.iter().flatten().map(Inter::n_rows).sum();
            let inter = match &op.kind {
                PlanOpKind::Scan { table } => {
                    let t = self.db.table(table)?;
                    let n = t.num_rows();
                    op_work[idx] += n as f64 * self.config.weights.scan_row;
                    // Morsel-parallel identity fill: each morsel writes its
                    // own contiguous row-id range and the per-morsel chunks
                    // concatenate in morsel-index order, reproducing the
                    // sequential 0..n fill exactly.
                    let morsel = self.config.morsel_rows.max(1);
                    let rows = self.pool().ordered_reduce(
                        Pool::morsel_count(n, morsel),
                        || (),
                        |_, m| {
                            Pool::morsel_range(m, n, morsel).map(|r| r as u32).collect::<Vec<_>>()
                        },
                        Vec::with_capacity(n),
                        |mut acc: Vec<u32>, chunk| {
                            acc.extend_from_slice(&chunk);
                            acc
                        },
                    );
                    Inter { tables: vec![table.clone()], rows, computed: None, identity: true }
                }
                PlanOpKind::Filter { preds } => {
                    let child = take_child(&mut results, op.children[0], idx)?;
                    self.exec_filter(preds, &rewrites.pred_folds[idx], child, &mut op_work[idx])?
                }
                PlanOpKind::Join { left_col, right_col } => {
                    let left = take_child(&mut results, op.children[0], idx)?;
                    let right = take_child(&mut results, op.children[1], idx)?;
                    self.exec_join(
                        left_col,
                        right_col,
                        left,
                        right,
                        &rewrites.live_above[idx],
                        &mut op_work[idx],
                    )?
                }
                PlanOpKind::UdfFilter { udf, op: cmp, literal } => {
                    let child = take_child(&mut results, op.children[0], idx)?;
                    udf_input_rows = child.n_rows();
                    let stats = udf_stats[idx].insert(UdfEvalStats::default());
                    self.exec_udf_filter(udf, *cmp, *literal, child, &mut op_work[idx], stats)?
                }
                PlanOpKind::UdfProject { udf } => {
                    let child = take_child(&mut results, op.children[0], idx)?;
                    udf_input_rows = child.n_rows();
                    let stats = udf_stats[idx].insert(UdfEvalStats::default());
                    self.exec_udf_project(udf, child, &mut op_work[idx], stats)?
                }
                PlanOpKind::Agg { func, column } => {
                    let child = take_child(&mut results, op.children[0], idx)?;
                    let n = child.n_rows();
                    op_work[idx] += n as f64 * self.config.weights.agg_row;
                    agg_value = self.exec_agg(*func, column.as_ref(), &child)?;
                    Inter {
                        tables: child.tables,
                        rows: Vec::new(),
                        computed: None,
                        identity: false,
                    }
                }
            };
            out_rows[idx] =
                if matches!(op.kind, PlanOpKind::Agg { .. }) { 1 } else { inter.n_rows() };
            if out_rows[idx] > self.config.max_intermediate_rows {
                return Err(GracefulError::InvalidPlan(format!(
                    "intermediate result exceeds cap: {} rows",
                    out_rows[idx]
                )));
            }
            peak_inter_rows = peak_inter_rows.max(live_before + inter.n_rows());
            results[idx] = Some(inter);
            if let Some(t) = op_started {
                wall_ns[idx] = t.elapsed().as_nanos() as u64;
            }
        }
        let total: f64 = op_work.iter().sum();
        let runtime_ns = total * jitter_factor(seed, self.config.jitter);
        let profile = profiling.then(|| {
            // Every operator fully materializes in one pass here, so each
            // counts as one batch.
            let batches = vec![1u64; plan.ops.len()];
            ExecProfile::assemble(
                plan,
                &self.config,
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

    /// Lower `plan` into its physical-operator pipelines without executing
    /// — the EXPLAIN-level view of what [`ExecMode::Pipeline`] will run.
    pub fn physical_plan<'p>(&self, plan: &'p Plan) -> Result<crate::physical::PhysicalPlan<'p>> {
        crate::physical::lower(plan)
    }

    /// Execute and write the actual cardinalities back onto the plan.
    pub fn run_and_annotate(&self, plan: &mut Plan, seed: u64) -> Result<QueryRun> {
        let run = self.run(plan, seed)?;
        for (op, &n) in plan.ops.iter_mut().zip(run.out_rows.iter()) {
            op.actual_out_rows = n as f64;
        }
        Ok(run)
    }

    fn table(&self, name: &str) -> Result<&'a Table> {
        self.db.table(name)
    }

    /// The morsel pool for this executor's thread budget. `Pool` is a
    /// trivial handle, so building it per parallel region keeps it in sync
    /// with the (public, mutable) config.
    fn pool(&self) -> Pool {
        Pool::new(self.config.threads)
    }

    fn exec_filter(
        &self,
        preds: &[graceful_plan::Pred],
        folds: &[PredFold],
        child: Inter,
        work: &mut f64,
    ) -> Result<Inter> {
        let n = child.n_rows();
        let stride = child.tables.len();
        // Work is charged closed-form over the full conjunction — folded
        // predicates cost the same as evaluated ones, which is exactly what
        // makes folding invisible to the accounting contract.
        *work += n as f64 * preds.len() as f64 * self.config.weights.filter_pred;
        // A provably-false predicate empties the output without evaluation.
        if folds.contains(&PredFold::AlwaysFalse) {
            return Ok(Inter {
                tables: child.tables,
                rows: Vec::new(),
                computed: None,
                identity: false,
            });
        }
        // Resolve predicate table positions once, skipping provably-true
        // predicates (statistics guarantee every row passes them).
        let mut resolved = Vec::with_capacity(preds.len());
        for (k, p) in preds.iter().enumerate() {
            if folds.get(k) == Some(&PredFold::AlwaysTrue) {
                continue;
            }
            let pos = child.table_pos(&p.col.table).ok_or_else(|| {
                GracefulError::InvalidPlan(format!("filter on unbound table {}", p.col.table))
            })?;
            resolved.push((p, pos, self.table(&p.col.table)?));
        }
        // Everything folded to true: the filter is the identity.
        if resolved.is_empty() {
            return Ok(Inter {
                tables: child.tables,
                rows: child.rows,
                computed: None,
                identity: child.identity,
            });
        }
        // Over identity row ids, morsel `m` covers the contiguous base-table
        // range the storage zone maps summarize, so a conjunct that provably
        // fails on every covering zone empties the morsel without touching a
        // row. The filter's work was already charged closed-form above, so
        // pruning shortcuts execution without moving a single contracted bit
        // (the differential suite proves it against `pruning: false`).
        let prune_scan = self.config.pruning && child.identity;
        // Evaluate predicates morsel-parallel; concatenating per-morsel
        // keep-lists in morsel order reproduces the sequential row order.
        let morsel = self.config.morsel_rows.max(1);
        let rows = self.pool().ordered_reduce(
            Pool::morsel_count(n, morsel),
            || (),
            |_, m| {
                let range = Pool::morsel_range(m, n, morsel);
                if prune_scan
                    && resolved
                        .iter()
                        .any(|(p, _, t)| crate::prune::pred_prunes_range(t, p, range.clone()))
                {
                    crate::prune::pruned_morsels_counter().incr();
                    return Vec::new();
                }
                let mut kept = Vec::new();
                for r in range {
                    let keep = resolved
                        .iter()
                        .all(|(p, pos, t)| p.matches(t, child.row_id(r, *pos) as usize));
                    if keep {
                        kept.extend_from_slice(&child.rows[r * stride..(r + 1) * stride]);
                    }
                }
                kept
            },
            Vec::new(),
            |mut acc: Vec<u32>, kept| {
                acc.extend_from_slice(&kept);
                acc
            },
        );
        Ok(Inter { tables: child.tables, rows, computed: None, identity: false })
    }

    fn exec_join(
        &self,
        left_col: &ColRef,
        right_col: &ColRef,
        left: Inter,
        right: Inter,
        live_above: &std::collections::BTreeSet<String>,
        work: &mut f64,
    ) -> Result<Inter> {
        let w = &self.config.weights;
        let lpos = left.table_pos(&left_col.table).ok_or_else(|| {
            GracefulError::InvalidPlan(format!("join col {left_col} not on left side"))
        })?;
        let rpos = right.table_pos(&right_col.table).ok_or_else(|| {
            GracefulError::InvalidPlan(format!("join col {right_col} not on right side"))
        })?;
        let ltable = self.table(&left_col.table)?;
        let rtable = self.table(&right_col.table)?;
        let lcol = ltable.column(&left_col.column)?;
        let rcol = rtable.column(&right_col.column)?;
        let (ln, rn) = (left.n_rows(), right.n_rows());
        *work += rn as f64 * w.join_build_row + ln as f64 * w.join_probe_row;
        // Payload pruning: output lanes whose tables nothing above the join
        // reads are dropped. Key lanes are read here from the *inputs*
        // (before the output is formed), so even they can be pruned. Row
        // counts — and with them every work charge and the peak gauge, which
        // count rows, not lanes — are untouched. With rewrites off (or when
        // duplicate table names make positional pruning ambiguous) the keep
        // sets cover every lane and the path below is the identity.
        let lstride = left.tables.len();
        let rstride = right.tables.len();
        let (keep_l, keep_r) = if self.config.rewrites {
            let lrefs: Vec<&str> = left.tables.iter().map(String::as_str).collect();
            let rrefs: Vec<&str> = right.tables.iter().map(String::as_str).collect();
            join_keep_lanes(live_above, &lrefs, &rrefs)
                .unwrap_or(((0..lstride).collect(), (0..rstride).collect()))
        } else {
            ((0..lstride).collect(), (0..rstride).collect())
        };
        // Build on the right side (the newly joined table): a radix-
        // partitioned index whose per-key match lists are exactly the
        // row-ascending lists the old sequential HashMap build produced
        // (see `crate::join`), built morsel-parallel.
        let morsel = self.config.morsel_rows.max(1);
        let pool = self.pool();
        let build = crate::join::PartitionedIndex::build(&pool, rn, morsel, |r| {
            rcol.get_i64(right.row_id(r, rpos) as usize)
        });
        // Probe morsel-parallel over the left side. Each morsel emits its
        // own output chunk; merging chunks in morsel-index order reproduces
        // the sequential probe's output row order exactly. The intermediate
        // cap is enforced per morsel (bounding memory mid-probe) and again
        // cumulatively on merge — a query errors iff its total output
        // exceeds the cap, the same outcome the sequential row-by-row check
        // produced.
        let cap = self.config.max_intermediate_rows;
        let parts = pool.map_init(
            Pool::morsel_count(ln, morsel),
            || (),
            |_, m| -> Result<(Vec<u32>, usize)> {
                let mut chunk: Vec<u32> = Vec::new();
                let mut emitted = 0usize;
                for l in Pool::morsel_range(m, ln, morsel) {
                    let lid = left.row_id(l, lpos) as usize;
                    let Some(k) = lcol.get_i64(lid) else { continue };
                    if let Some(matches) = build.get(k) {
                        for &r in matches {
                            let lrow = &left.rows[l * lstride..(l + 1) * lstride];
                            let rrow =
                                &right.rows[r as usize * rstride..(r as usize + 1) * rstride];
                            chunk.extend(keep_l.iter().map(|&i| lrow[i]));
                            chunk.extend(keep_r.iter().map(|&i| rrow[i]));
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
        );
        let mut rows: Vec<u32> = Vec::new();
        let mut n_out = 0usize;
        for part in parts {
            let (chunk, emitted) = part?;
            n_out += emitted;
            if n_out > cap {
                return Err(GracefulError::InvalidPlan(
                    "join output exceeds intermediate cap".into(),
                ));
            }
            rows.extend_from_slice(&chunk);
        }
        *work += n_out as f64 * w.join_out_row;
        let mut tables: Vec<String> = keep_l.iter().map(|&i| left.tables[i].clone()).collect();
        tables.extend(keep_r.iter().map(|&i| right.tables[i].clone()));
        debug_assert_eq!(rows.len() % tables.len(), 0);
        Ok(Inter { tables, rows, computed: None, identity: false })
    }

    fn udf_args(
        &self,
        udf: &graceful_udf::GeneratedUdf,
        inter: &Inter,
    ) -> Result<(usize, Vec<&'a graceful_storage::Column>)> {
        let pos = inter.table_pos(&udf.table).ok_or_else(|| {
            GracefulError::InvalidPlan(format!("UDF table {} not bound", udf.table))
        })?;
        let t = self.table(&udf.table)?;
        let cols = udf.input_columns.iter().map(|c| t.column(c)).collect::<Result<Vec<_>>>()?;
        Ok((pos, cols))
    }

    /// Evaluate `udf` over every row of `child`, invoking `consume(row, value)`
    /// for each output in row order. `per_row_overhead` is the operator's own
    /// per-row work (comparison against the filter literal, projection
    /// bookkeeping).
    ///
    /// Rows are split into `morsel_rows`-row morsels executed on the pool;
    /// each worker owns one [`UdfEval`] instance (tree-walking interpreter,
    /// or batch VM warmed once and reused across its morsels). Work is
    /// summed per morsel and merged in morsel-index order, so the accounted
    /// totals are bit-identical for any thread count. The backends still
    /// only differ in float summation *grouping* (per row vs per batch
    /// within a morsel), which changes `op_work` by at most rounding in the
    /// last ulps.
    fn exec_udf_rows(
        &self,
        udf: &graceful_udf::GeneratedUdf,
        child: &Inter,
        work: &mut f64,
        stats: &mut UdfEvalStats,
        per_row_overhead: f64,
        mut consume: impl FnMut(usize, Value),
    ) -> Result<()> {
        let (pos, cols) = self.udf_args(udf, child)?;
        let n = child.n_rows();
        let spec = UdfEvalSpec::prepare(
            udf,
            cols,
            self.config.udf_backend,
            self.config.udf_weights.clone(),
            self.config.udf_batch_size,
            per_row_overhead,
            self.config.rewrites,
        )?;
        let morsel = self.config.morsel_rows.max(1);
        let parts = spec.eval_morsels(&self.pool(), n, morsel, |r| child.row_id(r, pos) as usize);
        // Ordered merge: work totals and output rows in morsel-index order
        // (== row order); the first failing morsel wins deterministically.
        for (m, part) in parts.into_iter().enumerate() {
            let (morsel_work, values, morsel_stats) = part?;
            *work += morsel_work;
            stats.merge(&morsel_stats);
            let base = m * morsel;
            for (j, value) in values.into_iter().enumerate() {
                consume(base + j, value);
            }
        }
        record_udf_metrics(stats);
        Ok(())
    }

    fn exec_udf_filter(
        &self,
        udf: &graceful_udf::GeneratedUdf,
        cmp: graceful_udf::ast::CmpOp,
        literal: f64,
        child: Inter,
        work: &mut f64,
        stats: &mut UdfEvalStats,
    ) -> Result<Inter> {
        let stride = child.tables.len();
        let mut rows = Vec::new();
        self.exec_udf_rows(
            udf,
            &child,
            work,
            stats,
            self.config.weights.udf_compare,
            |r, value| {
                let keep = match value.as_f64() {
                    Some(v) => cmp_f64(cmp, v, literal),
                    None => false, // NULL and text outputs never pass the filter
                };
                if keep {
                    rows.extend_from_slice(&child.rows[r * stride..(r + 1) * stride]);
                }
            },
        )?;
        Ok(Inter { tables: child.tables, rows, computed: None, identity: false })
    }

    fn exec_udf_project(
        &self,
        udf: &graceful_udf::GeneratedUdf,
        child: Inter,
        work: &mut f64,
        stats: &mut UdfEvalStats,
    ) -> Result<Inter> {
        let n = child.n_rows();
        let mut computed = Vec::with_capacity(n);
        self.exec_udf_rows(
            udf,
            &child,
            work,
            stats,
            self.config.weights.project_row,
            |_, value| computed.push(value),
        )?;
        Ok(Inter {
            tables: child.tables,
            rows: child.rows,
            computed: Some(computed),
            identity: child.identity,
        })
    }

    fn exec_agg(&self, func: AggFunc, column: Option<&ColRef>, child: &Inter) -> Result<f64> {
        let n = child.n_rows();
        if func == AggFunc::CountStar {
            return Ok(n as f64);
        }
        // Fold each morsel into its own partial AggState, then merge
        // partials in morsel-index order (see `AggState::merge`). The float
        // grouping is fixed by the morsel size alone, so the result is
        // bit-identical at any thread count — and matches the pipeline
        // executor, which rebatches its agg input to the same morsel
        // boundaries.
        let morsel = self.config.morsel_rows.max(1);
        let fold = |observe_of: &(dyn Fn(usize) -> Option<f64> + Sync)| {
            self.pool().ordered_reduce(
                Pool::morsel_count(n, morsel),
                || (),
                |_, m| {
                    let mut part = AggState::new(func);
                    for r in Pool::morsel_range(m, n, morsel) {
                        part.observe(observe_of(r));
                    }
                    part
                },
                AggState::new(func),
                |mut acc: AggState, part| {
                    acc.merge(&part);
                    acc
                },
            )
        };
        let state = match column {
            Some(c) => {
                let pos = child.table_pos(&c.table).ok_or_else(|| {
                    GracefulError::InvalidPlan(format!("agg on unbound table {}", c.table))
                })?;
                let col = self.table(&c.table)?.column(&c.column)?;
                fold(&|r| col.get_f64(child.row_id(r, pos) as usize))
            }
            None => {
                // Aggregate the UDF-projected column.
                let computed = child.computed.as_ref().ok_or_else(|| {
                    GracefulError::InvalidPlan(
                        "agg over UDF output requires a UdfProject below".into(),
                    )
                })?;
                fold(&|r| computed[r].as_f64())
            }
        };
        Ok(state.finish())
    }
}

/// Streaming aggregate accumulator shared by both executor modes, so their
/// float fold order is identical by construction. Values are observed **in
/// row order** within a morsel-sized partial; `Sum`/`Avg` left-fold
/// `sum += v`, `Min`/`Max` left-fold through `f64::min`/`f64::max` (NaN
/// inputs are absorbed per IEEE min/max). Partials combine via
/// [`AggState::merge`] in morsel-index order, so the full fold shape is a
/// function of the morsel size alone — identical for any thread count and
/// in both executors.
///
/// Empty-input semantics are pinned: `COUNT(*)` of zero rows is 0, and
/// `SUM`/`AVG`/`MIN`/`MAX` over zero observed values are 0.0 (the engine's
/// aggregate channel is a plain `f64`; there is no NULL).
pub(crate) struct AggState {
    func: AggFunc,
    /// Input rows seen (including NULLs) — the `COUNT(*)` tally.
    rows: usize,
    sum: f64,
    /// Non-NULL values observed.
    count: usize,
    extreme: f64,
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> Self {
        AggState { func, rows: 0, sum: 0.0, count: 0, extreme: 0.0 }
    }

    /// Count `n` input rows without touching values (the `COUNT(*)` path,
    /// which never reads a column).
    pub(crate) fn count_rows(&mut self, n: usize) {
        self.rows += n;
    }

    /// Observe one row's value in row order (`None` = NULL / non-numeric).
    #[inline]
    pub(crate) fn observe(&mut self, v: Option<f64>) {
        self.rows += 1;
        let Some(v) = v else { return };
        match self.func {
            AggFunc::CountStar => {}
            AggFunc::Sum | AggFunc::Avg => {
                self.sum += v;
                self.count += 1;
            }
            AggFunc::Min => {
                self.extreme = if self.count == 0 { v } else { self.extreme.min(v) };
                self.count += 1;
            }
            AggFunc::Max => {
                self.extreme = if self.count == 0 { v } else { self.extreme.max(v) };
                self.count += 1;
            }
        }
    }

    /// Fold another accumulator's state into this one. Partials are built
    /// per morsel and merged **in morsel-index order**, so the float chain
    /// is `((m0 ⊕ m1) ⊕ m2) …` — fixed by the morsel boundaries, never by
    /// thread count. `Sum`/`Avg` merge by `sum += o.sum`; `Min`/`Max`
    /// replay the same `f64::min`/`f64::max` left-fold the observes use
    /// (IEEE min/max ignore NaN, which keeps the fold associative across
    /// morsel splits).
    pub(crate) fn merge(&mut self, o: &AggState) {
        debug_assert_eq!(self.func, o.func);
        self.rows += o.rows;
        if o.count == 0 {
            return;
        }
        match self.func {
            AggFunc::CountStar => {}
            AggFunc::Sum | AggFunc::Avg => self.sum += o.sum,
            AggFunc::Min => {
                self.extreme = if self.count == 0 { o.extreme } else { self.extreme.min(o.extreme) }
            }
            AggFunc::Max => {
                self.extreme = if self.count == 0 { o.extreme } else { self.extreme.max(o.extreme) }
            }
        }
        self.count += o.count;
    }

    pub(crate) fn finish(&self) -> f64 {
        match self.func {
            AggFunc::CountStar => self.rows as f64,
            AggFunc::Sum => self.sum,
            AggFunc::Avg => {
                if self.count > 0 {
                    self.sum / self.count as f64
                } else {
                    0.0
                }
            }
            AggFunc::Min | AggFunc::Max => {
                if self.count > 0 {
                    self.extreme
                } else {
                    0.0
                }
            }
        }
    }
}

/// Take a child's materialized result, promoting the former "child executed"
/// panic into a typed error. Reachable only with `GRACEFUL_PLAN_VERIFY=off`
/// — the strict gate rejects dangling children and non-topological arenas
/// before execution starts — and bounds-safe even for out-of-range indices.
fn take_child(results: &mut [Option<Inter>], child: usize, parent: usize) -> Result<Inter> {
    results.get_mut(child).and_then(Option::take).ok_or_else(|| {
        GracefulError::PlanVerify(format!(
            "op {parent} consumes child {child}, which has not produced a result \
             (malformed DAG reached the engine; run with GRACEFUL_PLAN_VERIFY=strict \
             to reject it before execution)"
        ))
    })
}

pub(crate) fn cmp_f64(op: graceful_udf::ast::CmpOp, a: f64, b: f64) -> bool {
    use graceful_udf::ast::CmpOp::*;
    match op {
        Lt => a < b,
        Le => a <= b,
        Gt => a > b,
        Ge => a >= b,
        Eq => a == b,
        Ne => a != b,
    }
}

/// Deterministic multiplicative jitter in `[1-amp, 1+amp]`, keyed by `seed`.
pub(crate) fn jitter_factor(seed: u64, amp: f64) -> f64 {
    // SplitMix64 scramble → uniform in [0,1).
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + amp * (2.0 * u - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_common::rng::Rng;
    use graceful_plan::{build_plan, QueryGenerator, UdfPlacement, UdfUsage};
    use graceful_storage::datagen::{generate, schema};
    use graceful_udf::generator::apply_adaptations;

    fn db() -> Database {
        generate(&schema("tpc_h"), 0.03, 5)
    }

    #[test]
    fn count_star_scan() {
        let db = db();
        use graceful_plan::{Plan, PlanOp};
        let plan = Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
                PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![0]),
            ],
            root: 1,
        };
        let run = Executor::new(&db).run(&plan, 1).unwrap();
        assert_eq!(run.agg_value, db.table("orders_t").unwrap().num_rows() as f64);
        assert_eq!(run.out_rows[1], 1);
        assert!(run.runtime_ns > 0.0);
    }

    #[test]
    fn join_cardinality_matches_fk_semantics() {
        // orders_t ⋈ customer_t on cust_id=id: every order matches exactly
        // one customer, so |join| == |orders|.
        let db = db();
        use graceful_plan::{ColRef, Plan, PlanOp};
        let plan = Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
                PlanOp::new(PlanOpKind::Scan { table: "customer_t".into() }, vec![]),
                PlanOp::new(
                    PlanOpKind::Join {
                        left_col: ColRef::new("orders_t", "cust_id"),
                        right_col: ColRef::new("customer_t", "id"),
                    },
                    vec![0, 1],
                ),
                PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![2]),
            ],
            root: 3,
        };
        let run = Executor::new(&db).run(&plan, 1).unwrap();
        assert_eq!(run.out_rows[2], db.table("orders_t").unwrap().num_rows());
    }

    #[test]
    fn pushdown_and_pullup_agree_on_results() {
        // The core semantic invariant behind the whole paper: moving the UDF
        // filter must not change the query answer, only its cost.
        let mut database = db();
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(7);
        let mut checked = 0;
        for id in 0..40 {
            let spec = g.generate(&database, id, &mut rng).unwrap();
            if !spec.has_udf() || spec.udf_usage != UdfUsage::Filter || spec.joins.is_empty() {
                continue;
            }
            if let Some(u) = &spec.udf {
                apply_adaptations(&mut database, &u.adaptations).unwrap();
            }
            let exec = Executor::new(&database);
            let pd = build_plan(&spec, UdfPlacement::PushDown).unwrap();
            let pu = build_plan(&spec, UdfPlacement::PullUp).unwrap();
            let r1 = exec.run(&pd, id).unwrap();
            let r2 = exec.run(&pu, id).unwrap();
            let rel = (r1.agg_value - r2.agg_value).abs() / r1.agg_value.abs().max(1e-9);
            assert!(rel < 1e-9, "results differ: {} vs {}", r1.agg_value, r2.agg_value);
            // Final cardinalities agree too.
            assert_eq!(r1.out_rows[pd.root], r2.out_rows[pu.root]);
            checked += 1;
        }
        assert!(checked >= 5, "only {checked} UDF-filter queries generated");
    }

    #[test]
    fn udf_position_changes_cost_not_semantics() {
        // With a selective plain filter above the UDF table, pull-up should
        // process fewer UDF rows than push-down whenever joins filter rows.
        let mut database = db();
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(11);
        for id in 100..160 {
            let spec = g.generate(&database, id, &mut rng).unwrap();
            if !spec.has_udf() || spec.udf_usage != UdfUsage::Filter || spec.joins.len() < 2 {
                continue;
            }
            if let Some(u) = &spec.udf {
                apply_adaptations(&mut database, &u.adaptations).unwrap();
            }
            let exec = Executor::new(&database);
            let pd = build_plan(&spec, UdfPlacement::PushDown).unwrap();
            let pu = build_plan(&spec, UdfPlacement::PullUp).unwrap();
            let r_pd = exec.run(&pd, id).unwrap();
            let r_pu = exec.run(&pu, id).unwrap();
            // UDF input rows recorded for both runs.
            assert!(r_pd.udf_input_rows > 0 || r_pu.udf_input_rows > 0);
            return;
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let f1 = jitter_factor(42, 0.03);
        let f2 = jitter_factor(42, 0.03);
        assert_eq!(f1, f2);
        for seed in 0..100 {
            let f = jitter_factor(seed, 0.03);
            assert!((0.97..=1.03).contains(&f));
        }
        assert_ne!(jitter_factor(1, 0.03), jitter_factor(2, 0.03));
    }

    #[test]
    fn actual_cards_annotated() {
        let db = db();
        use graceful_plan::{Plan, PlanOp};
        let mut plan = Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "nation_t".into() }, vec![]),
                PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![0]),
            ],
            root: 1,
        };
        Executor::new(&db).run_and_annotate(&mut plan, 3).unwrap();
        assert_eq!(plan.ops[0].actual_out_rows, db.table("nation_t").unwrap().num_rows() as f64);
        assert_eq!(plan.ops[1].actual_out_rows, 1.0);
    }

    #[test]
    fn sum_and_avg() {
        let db = db();
        use graceful_plan::{ColRef, Plan, PlanOp};
        let mk = |func| Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "lineitem_t".into() }, vec![]),
                PlanOp::new(
                    PlanOpKind::Agg { func, column: Some(ColRef::new("lineitem_t", "quantity")) },
                    vec![0],
                ),
            ],
            root: 1,
        };
        let exec = Executor::new(&db);
        let sum = exec.run(&mk(AggFunc::Sum), 1).unwrap().agg_value;
        let avg = exec.run(&mk(AggFunc::Avg), 1).unwrap().agg_value;
        let n = db.table("lineitem_t").unwrap().num_rows() as f64;
        assert!((sum / n - avg).abs() < 1e-9);
        assert!((1.0..=50.0).contains(&avg));
    }

    #[test]
    fn vm_backend_matches_tree_walker_on_generated_queries() {
        // Same plans, same data, both backends: identical answers and
        // cardinalities, and runtimes equal up to float-summation grouping.
        let mut database = db();
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(23);
        let mut checked = 0;
        for id in 0..60 {
            let spec = g.generate(&database, id, &mut rng).unwrap();
            if !spec.has_udf() {
                continue;
            }
            if let Some(u) = &spec.udf {
                apply_adaptations(&mut database, &u.adaptations).unwrap();
            }
            let tree = Executor::with_config(
                &database,
                ExecConfig { udf_backend: UdfBackend::TreeWalk, ..ExecConfig::default() },
            );
            let vm = Executor::with_config(
                &database,
                ExecConfig {
                    udf_backend: UdfBackend::Vm,
                    udf_batch_size: 7, // deliberately awkward batch boundary
                    ..ExecConfig::default()
                },
            );
            for placement in graceful_plan::valid_placements(&spec) {
                let plan = build_plan(&spec, placement).unwrap();
                let a = tree.run(&plan, id).unwrap();
                let b = vm.run(&plan, id).unwrap();
                assert_eq!(a.out_rows, b.out_rows, "cardinalities differ (query {id})");
                assert_eq!(a.agg_value, b.agg_value, "answers differ (query {id})");
                assert_eq!(a.udf_input_rows, b.udf_input_rows);
                let rel = (a.runtime_ns - b.runtime_ns).abs() / a.runtime_ns.max(1.0);
                assert!(rel < 1e-9, "runtimes diverge: {} vs {}", a.runtime_ns, b.runtime_ns);
                checked += 1;
            }
        }
        assert!(checked >= 10, "only {checked} UDF plans compared");
    }

    #[test]
    fn simd_backend_matches_vm_bit_exactly_on_generated_queries() {
        // The columnar fast path merges the same per-row costs in the same
        // order as the batch VM, so the whole QueryRun — runtime included —
        // must be bit-identical, not merely close.
        let mut database = db();
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(31);
        let mut checked = 0;
        for id in 0..60 {
            let spec = g.generate(&database, id, &mut rng).unwrap();
            if !spec.has_udf() {
                continue;
            }
            if let Some(u) = &spec.udf {
                apply_adaptations(&mut database, &u.adaptations).unwrap();
            }
            for batch in [7usize, 1024] {
                let vm = Executor::with_config(
                    &database,
                    ExecConfig {
                        udf_backend: UdfBackend::Vm,
                        udf_batch_size: batch,
                        ..ExecConfig::default()
                    },
                );
                let simd = Executor::with_config(
                    &database,
                    ExecConfig {
                        udf_backend: UdfBackend::Simd,
                        udf_batch_size: batch,
                        ..ExecConfig::default()
                    },
                );
                for placement in graceful_plan::valid_placements(&spec) {
                    let plan = build_plan(&spec, placement).unwrap();
                    let a = vm.run(&plan, id).unwrap();
                    let b = simd.run(&plan, id).unwrap();
                    assert_eq!(a.out_rows, b.out_rows, "cardinalities differ (query {id})");
                    assert_eq!(
                        a.agg_value.to_bits(),
                        b.agg_value.to_bits(),
                        "answers differ (query {id})"
                    );
                    assert_eq!(
                        a.runtime_ns.to_bits(),
                        b.runtime_ns.to_bits(),
                        "runtimes differ (query {id}): {} vs {}",
                        a.runtime_ns,
                        b.runtime_ns
                    );
                    for (x, y) in a.op_work.iter().zip(b.op_work.iter()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "op_work differs (query {id})");
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked >= 10, "only {checked} UDF plans compared");
    }

    #[test]
    fn vm_backend_batch_size_does_not_change_results() {
        let mut database = db();
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(29);
        for id in 200..260 {
            let spec = g.generate(&database, id, &mut rng).unwrap();
            if !spec.has_udf() {
                continue;
            }
            if let Some(u) = &spec.udf {
                apply_adaptations(&mut database, &u.adaptations).unwrap();
            }
            let plan = build_plan(&spec, graceful_plan::UdfPlacement::PushDown).unwrap();
            let mut previous: Option<QueryRun> = None;
            for batch in [1usize, 3, 1024] {
                let exec = Executor::with_config(
                    &database,
                    ExecConfig {
                        udf_backend: UdfBackend::Vm,
                        udf_batch_size: batch,
                        ..ExecConfig::default()
                    },
                );
                let run = exec.run(&plan, id).unwrap();
                if let Some(p) = &previous {
                    assert_eq!(p.out_rows, run.out_rows);
                    assert_eq!(p.agg_value, run.agg_value);
                }
                previous = Some(run);
            }
            return;
        }
        panic!("no UDF query generated");
    }

    #[test]
    fn pipeline_is_bit_identical_to_materialized_on_generated_queries() {
        // The pipeline executor must reproduce the materializing engine
        // exactly: every QueryRun value, cardinality and per-operator work
        // total, bit for bit, across UDF backends × thread counts × batch
        // sizes, in every valid UDF placement.
        let mut database = db();
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(47);
        let mut checked = 0;
        for id in 0..80 {
            let spec = g.generate(&database, id, &mut rng).unwrap();
            if let Some(u) = &spec.udf {
                apply_adaptations(&mut database, &u.adaptations).unwrap();
            }
            for backend in [UdfBackend::TreeWalk, UdfBackend::Vm, UdfBackend::Simd] {
                for threads in [1usize, 4] {
                    let cfg = |mode| ExecConfig {
                        udf_backend: backend,
                        udf_batch_size: 37,
                        threads,
                        morsel_rows: 64,
                        mode,
                        ..ExecConfig::default()
                    };
                    let mat = Executor::with_config(&database, cfg(ExecMode::Materialize));
                    let pipe = Executor::with_config(&database, cfg(ExecMode::Pipeline));
                    for placement in graceful_plan::valid_placements(&spec) {
                        let plan = match build_plan(&spec, placement) {
                            Ok(p) => p,
                            Err(_) => continue,
                        };
                        let a = mat.run(&plan, id).unwrap();
                        let b = pipe.run(&plan, id).unwrap();
                        assert_eq!(a.out_rows, b.out_rows, "cardinalities (query {id})");
                        assert_eq!(a.udf_input_rows, b.udf_input_rows, "udf rows (query {id})");
                        assert_eq!(
                            a.agg_value.to_bits(),
                            b.agg_value.to_bits(),
                            "answers (query {id}): {} vs {}",
                            a.agg_value,
                            b.agg_value
                        );
                        assert_eq!(
                            a.runtime_ns.to_bits(),
                            b.runtime_ns.to_bits(),
                            "runtimes (query {id}, {backend:?}, {threads} threads): {} vs {}",
                            a.runtime_ns,
                            b.runtime_ns
                        );
                        for (i, (x, y)) in a.op_work.iter().zip(b.op_work.iter()).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "op_work[{i}] (query {id}): {x} vs {y}"
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 100, "only {checked} plans compared");
    }

    #[test]
    fn pipeline_peaks_below_materialized_on_join_plans() {
        // The memory story: a join + filter chain must keep fewer rows
        // resident in the pipeline than under full materialization.
        let db = db();
        use graceful_plan::{ColRef, Plan, PlanOp};
        let plan = Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "lineitem_t".into() }, vec![]),
                PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
                PlanOp::new(
                    PlanOpKind::Join {
                        left_col: ColRef::new("lineitem_t", "order_id"),
                        right_col: ColRef::new("orders_t", "id"),
                    },
                    vec![0, 1],
                ),
                PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![2]),
            ],
            root: 3,
        };
        let cfg = |mode| ExecConfig { threads: 1, morsel_rows: 256, mode, ..ExecConfig::default() };
        let mat = Executor::with_config(&db, cfg(ExecMode::Materialize)).run(&plan, 1).unwrap();
        let pipe = Executor::with_config(&db, cfg(ExecMode::Pipeline)).run(&plan, 1).unwrap();
        assert_eq!(mat.agg_value, pipe.agg_value);
        assert!(
            pipe.peak_inter_rows < mat.peak_inter_rows,
            "pipeline resident rows {} should undercut materialized {}",
            pipe.peak_inter_rows,
            mat.peak_inter_rows
        );
    }

    #[test]
    fn physical_plan_explains_pipeline_structure() {
        let db = db();
        use graceful_plan::{ColRef, Plan, PlanOp};
        let plan = Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
                PlanOp::new(PlanOpKind::Scan { table: "customer_t".into() }, vec![]),
                PlanOp::new(
                    PlanOpKind::Join {
                        left_col: ColRef::new("orders_t", "cust_id"),
                        right_col: ColRef::new("customer_t", "id"),
                    },
                    vec![0, 1],
                ),
                PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![2]),
            ],
            root: 3,
        };
        let phys = Executor::new(&db).physical_plan(&plan).unwrap();
        assert_eq!(phys.pipelines.len(), 2, "build pipeline + probe pipeline");
        let text = phys.explain();
        assert!(text.contains("HASH_BUILD customer_t.id"), "{text}");
        assert!(text.contains("HASH_PROBE orders_t.cust_id"), "{text}");
        assert!(text.contains("AGG COUNT(*)"), "{text}");
    }

    #[test]
    fn more_expensive_udfs_cost_more() {
        use graceful_udf::parse_udf;
        use graceful_udf::GeneratedUdf;
        use std::sync::Arc;
        let db = db();
        let cheap_udf = parse_udf("def f(x0):\n    return x0 + 1\n").unwrap();
        let pricey_udf = parse_udf(
            "def f(x0):\n    z = 0\n    for i in range(40):\n        z = z + math.sqrt(x0) * np.log(x0 + 1)\n    return z + x0\n",
        )
        .unwrap();
        let mk = |def: graceful_udf::UdfDef| {
            let source = graceful_udf::print_udf(&def);
            Arc::new(GeneratedUdf {
                def,
                source,
                table: "orders_t".into(),
                input_columns: vec!["totalprice".into()],
                adaptations: vec![],
            })
        };
        use graceful_plan::{Plan, PlanOp};
        let plan_for = |udf: Arc<GeneratedUdf>| Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
                PlanOp::new(
                    PlanOpKind::UdfFilter { udf, op: graceful_udf::ast::CmpOp::Ge, literal: 0.0 },
                    vec![0],
                ),
                PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![1]),
            ],
            root: 2,
        };
        let exec = Executor::new(&db);
        let cheap = exec.run(&plan_for(mk(cheap_udf)), 1).unwrap();
        let pricey = exec.run(&plan_for(mk(pricey_udf)), 1).unwrap();
        assert!(
            pricey.runtime_ns > 5.0 * cheap.runtime_ns,
            "loop-heavy UDF should dominate: {} vs {}",
            pricey.runtime_ns,
            cheap.runtime_ns
        );
    }
}
