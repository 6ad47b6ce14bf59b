//! Executor configuration, results and the single entry point.
//!
//! [`Executor::run`] verifies the plan and hands it to the one executor,
//! `crate::physical::execute`: the plan is lowered to physical-operator
//! pipelines and morsel batches stream through each chain, with every
//! execution shortcut on (the dictionary-code UDF memo, typed UDF lanes,
//! streaming, join-lane pruning, UDF programs pruned to their live values).
//! [`Executor::run_reference`] is the oracle reached by name: the same
//! operators, morsel boundaries, merge order and charges with every shortcut
//! off at once, bit-identical to `run` in every contracted [`QueryRun`]
//! field (values, cardinalities, accounted work). Which shortcuts exist is
//! the crate-private `Shortcuts` value; no option selects among them.
//!
//! This module also owns what every operator shares: [`OperatorWeights`]
//! with the closed-form work charges (written once, called by the operators
//! over measured rows and by [`crate::analyze::estimated_work`] over
//! estimated ones), the `AggState` fold and the runtime jitter.
//!
//! # Parallelism
//!
//! Every data-plane operator runs on the morsel-driven pool of
//! `graceful-runtime`: rows are split into `morsel_rows`-row morsels
//! ([`crate::ExecOptions::morsel_rows`]), workers pull morsels from a shared
//! queue, and per-morsel results — kept rows, projected values, join output chunks,
//! aggregate partials, accounted work — merge in morsel-index order (one
//! protocol, written once: `physical`'s morsel stage). Hash joins probe the
//! counted, slot-addressed index of [`crate::join`].
//! Work totals are grouped *per morsel* regardless of the thread count, so
//! every `QueryRun` field is **bit-identical for any `GRACEFUL_THREADS`
//! value** (enforced by `tests/parallel_determinism.rs`).
//! Each worker owns its UDF evaluation state through the `udf_eval` layer:
//! one batch VM whose register file is preallocated once and reused across
//! all morsels the worker pulls.

use crate::profile::ExecProfile;
use graceful_common::config;
use graceful_common::{GracefulError, Result};
use graceful_obs::registry::{counter, histogram, Counter, Histogram};
use graceful_obs::trace;
use graceful_plan::{AggFunc, Plan};
use graceful_storage::Database;
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

/// The closed-form work charges of the relational operators. Each formula —
/// and its float association, which the bit-identity contract depends on —
/// is written here once: the scan source and the filter, probe and
/// aggregate kernels call these over measured row counts, and
/// [`crate::analyze::estimated_work`] over estimated ones.
impl OperatorWeights {
    /// A scan of `rows` base-table rows.
    pub fn scan(&self, rows: f64) -> f64 {
        rows * self.scan_row
    }

    /// A conjunctive filter of `n_preds` predicates over `rows` input rows.
    pub fn filter(&self, rows: f64, n_preds: usize) -> f64 {
        rows * n_preds as f64 * self.filter_pred
    }

    /// A hash join: build side rows, probe side rows, output rows.
    pub fn join(&self, build: f64, probe: f64, out: f64) -> f64 {
        build * self.join_build_row + probe * self.join_probe_row + out * self.join_out_row
    }

    /// An aggregate over `rows` input rows.
    pub fn agg(&self, rows: f64) -> f64 {
        rows * self.agg_row
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
    /// Rows per batch fed to the UDF VM.
    pub udf_batch_size: usize,
    /// Worker threads for the morsel-driven operator paths. Never changes
    /// results — only wall-clock time.
    pub threads: usize,
    /// Rows per morsel for the parallel operator paths. Fixes the
    /// work-accounting float grouping, so runs with the same morsel size are
    /// bit-identical at any thread count.
    pub morsel_rows: usize,
    /// Attach a per-operator [`ExecProfile`] to every [`QueryRun`]. Pure
    /// observability: never changes any contracted result field.
    pub profile: bool,
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
            udf_batch_size: config::DEFAULT_UDF_BATCH,
            threads: config::default_threads(),
            morsel_rows: config::DEFAULT_MORSEL_ROWS,
            profile: false,
            data_scale: 1.0,
        }
    }

    /// [`ExecConfig::base`] with the documented `GRACEFUL_*` environment
    /// defaults applied (`GRACEFUL_THREADS`, `GRACEFUL_PROFILE`,
    /// `GRACEFUL_SCALE`). Invalid
    /// values are a typed [`GracefulError::Config`], not a panic; so is a
    /// set variable that is no longer a knob (see
    /// `config::try_removed_knobs_unset`).
    ///
    /// `GRACEFUL_TRACE` and `GRACEFUL_FLIGHT` are also resolved here: a
    /// valid path arms the global span-trace collector / query flight
    /// recorder (`graceful-obs`) so the process can flush Chrome-trace JSON
    /// / per-query JSONL on demand; an invalid value is a config error like
    /// every other knob.
    pub fn from_env() -> Result<Self> {
        let cfg = GracefulError::Config;
        config::try_removed_knobs_unset().map_err(cfg)?;
        if let Some(path) = config::try_trace_from_env().map_err(cfg)? {
            trace::configure(&path);
        }
        if let Some(path) = config::try_flight_from_env().map_err(cfg)? {
            graceful_obs::flight::configure(&path);
        }
        Ok(ExecConfig {
            threads: config::try_threads_from_env().map_err(cfg)?,
            profile: config::try_profile_from_env().map_err(cfg)?,
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

/// The execution shortcuts. Each is proven to leave every contracted
/// [`QueryRun`] field bit-identical, so none is an option: [`Executor::run`]
/// takes them all, [`Executor::run_reference`] none, and only this crate's
/// unit tests flip one at a time, to localise a failure of that identity —
/// and to show, over generated queries, that each one has traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shortcuts {
    /// UDF operators whose inputs are all dictionary-encoded evaluate each
    /// code tuple once per worker and reuse its outcome
    /// ([`graceful_udf::CodeMemo`]). Off: every row runs an evaluator.
    pub(crate) memo: bool,
    /// UDF operators gather into unboxed typed lanes wherever the program
    /// has a columnar path. Off: the boxed-`Value` batch VM everywhere.
    pub(crate) typed_lanes: bool,
    /// Morsel batches stream through each operator chain. Off: every
    /// operator's whole output is collected before the next one runs.
    pub(crate) streaming: bool,
    /// Lowering applies the [`graceful_plan::RewriteSet`] hint: join lanes
    /// no operator above the join reads are neither stored nor emitted.
    pub(crate) lane_pruning: bool,
    /// UDF operators run their program pruned to the values its result
    /// reads ([`graceful_udf::prune()`]). Off: the plain compiled program.
    pub(crate) udf_pruning: bool,
}

impl Shortcuts {
    /// What ships: everything on.
    pub(crate) const SHIPPED: Shortcuts = Shortcuts::all(true);
    /// The reference: everything off.
    pub(crate) const REFERENCE: Shortcuts = Shortcuts::all(false);

    const fn all(on: bool) -> Shortcuts {
        Shortcuts { memo: on, typed_lanes: on, streaming: on, lane_pruning: on, udf_pruning: on }
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
    /// memory-footprint gauge the benchmark ledger records
    /// (`exec.peak_inter_rows_max`). This is an execution-strategy metric,
    /// **not** part of the bit-identity contract: the streaming driver's
    /// whole point is that it stays far below the reference's collecting
    /// peak (an operator's whole input plus its whole output, on top of the
    /// held build sides).
    pub peak_inter_rows: usize,
    /// Per-operator execution profile, attached by [`Executor::run`] when
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
    /// The plan-verification gate comes first, always: every plan is
    /// statically checked against the catalog before any lowering or
    /// execution, so a malformed plan fails as one typed
    /// [`GracefulError::PlanVerify`] naming the operator instead of as a
    /// mid-execution surprise.
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
        let run = self.run_with(plan, seed, Shortcuts::SHIPPED);
        m.queries.incr();
        m.wall_ns.record(started.elapsed().as_nanos() as f64);
        // Estimator-quality telemetry (q-error histograms, flight record) —
        // write-only observability, one atomic load when everything is off.
        if let Ok(r) = &run {
            crate::analyze::observe_run(plan, &self.config, r, seed);
        }
        run
    }

    /// [`Executor::run`]'s oracle: the same verification gate, operators,
    /// morsel boundaries, merge order and [`OperatorWeights`] charges with
    /// every execution shortcut off at once — the boxed-`Value` batch VM for
    /// every UDF row, every operator's whole output collected before
    /// the next runs, every join lane carried. Bit-identical
    /// to `run` in every contracted [`QueryRun`] field (`runtime_ns`,
    /// `agg_value`, `out_rows`, `udf_input_rows`, `op_work`), errors
    /// included; `peak_inter_rows` is the collecting peak. None of `run`'s
    /// instruments sees it: no profile, no `exec.queries` tick, no q-error
    /// telemetry, no flight record. Nothing in production calls it.
    pub fn run_reference(&self, plan: &Plan, seed: u64) -> Result<QueryRun> {
        self.run_with(plan, seed, Shortcuts::REFERENCE)
    }

    pub(crate) fn run_with(&self, plan: &Plan, seed: u64, cuts: Shortcuts) -> Result<QueryRun> {
        graceful_plan::analysis::verify(plan, self.db)?;
        crate::physical::execute(self.db, plan, &self.config, seed, cuts)
    }

    /// Lower `plan` into its physical-operator pipelines without executing
    /// — the EXPLAIN-level view of what [`Executor::run`] will drive.
    pub fn physical_plan<'p>(&self, plan: &'p Plan) -> Result<crate::physical::PhysicalPlan<'p>> {
        crate::physical::lower(plan, None)
    }

    /// Execute and write the actual cardinalities back onto the plan.
    pub fn run_and_annotate(&self, plan: &mut Plan, seed: u64) -> Result<QueryRun> {
        let run = self.run(plan, seed)?;
        for (op, &n) in plan.ops.iter_mut().zip(run.out_rows.iter()) {
            op.actual_out_rows = n as f64;
        }
        Ok(run)
    }
}

/// Streaming aggregate accumulator. Values are observed **in row order**
/// within a morsel-sized partial; `Sum`/`Avg` left-fold `sum += v`,
/// `Min`/`Max` left-fold through `f64::min`/`f64::max` (NaN inputs are
/// absorbed per IEEE min/max). Partials combine via [`AggState::merge`] in
/// morsel-index order, so the full fold shape is a function of the morsel
/// size alone — identical for any thread count and under both drivers.
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
    use graceful_plan::{build_plan, PlanOpKind, QueryGenerator, UdfPlacement, UdfUsage};
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

    fn assert_bit_identical(a: &QueryRun, b: &QueryRun, what: &str) {
        assert_eq!(a.out_rows, b.out_rows, "{what}: cardinalities");
        assert_eq!(a.udf_input_rows, b.udf_input_rows, "{what}: udf rows");
        assert_eq!(a.agg_value.to_bits(), b.agg_value.to_bits(), "{what}: answers");
        assert_eq!(
            a.runtime_ns.to_bits(),
            b.runtime_ns.to_bits(),
            "{what}: runtimes {} vs {}",
            a.runtime_ns,
            b.runtime_ns
        );
        for (i, (x, y)) in a.op_work.iter().zip(b.op_work.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: op_work[{i}] {x} vs {y}");
        }
    }

    /// Generated queries `ids` over `db()` (UDF adaptations applied as they
    /// are drawn), each in every valid placement, handed to `check` with the
    /// database as it stands for that query.
    fn for_generated_plans(
        rng_seed: u64,
        ids: std::ops::Range<u64>,
        udf_only: bool,
        mut check: impl FnMut(&Database, u64, &Plan),
    ) {
        let mut database = db();
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(rng_seed);
        for id in ids {
            let spec = g.generate(&database, id, &mut rng).unwrap();
            if udf_only && !spec.has_udf() {
                continue;
            }
            if let Some(u) = &spec.udf {
                apply_adaptations(&mut database, &u.adaptations).unwrap();
            }
            for placement in graceful_plan::valid_placements(&spec) {
                if let Ok(plan) = build_plan(&spec, placement) {
                    check(&database, id, &plan);
                }
            }
        }
    }

    /// Small morsels and an awkward VM batch size: ragged boundaries even on
    /// test-scale tables.
    fn ragged(threads: usize) -> ExecConfig {
        ExecConfig { udf_batch_size: 37, threads, morsel_rows: 64, ..ExecConfig::default() }
    }

    // The tests down to the last one flip ONE shortcut each (the fifth,
    // UDF pruning, inside the traffic test), so a failure
    // of `run` == `run_reference` (the last) names the shortcut at fault.

    #[test]
    fn simd_backend_matches_vm_bit_exactly_on_generated_queries() {
        // The columnar fast path merges the same per-row costs in the same
        // order as the batch VM, so the whole QueryRun — runtime included —
        // must be bit-identical, not merely close.
        let boxed = Shortcuts { typed_lanes: false, ..Shortcuts::SHIPPED };
        let mut checked = 0;
        for_generated_plans(31, 0..60, true, |database, id, plan| {
            for batch in [7usize, 1024] {
                let exec = Executor::with_config(
                    database,
                    ExecConfig { udf_batch_size: batch, ..ExecConfig::default() },
                );
                let vm = exec.run_with(plan, id, boxed).unwrap();
                let simd = exec.run(plan, id).unwrap();
                assert_bit_identical(&vm, &simd, &format!("query {id}, batch {batch}"));
                checked += 1;
            }
        });
        assert!(checked >= 10, "only {checked} UDF plans compared");
    }

    #[test]
    fn vm_backend_batch_size_does_not_change_results() {
        let boxed = Shortcuts { typed_lanes: false, ..Shortcuts::SHIPPED };
        let mut checked = 0;
        for_generated_plans(29, 200..230, true, |database, id, plan| {
            let mut previous: Option<QueryRun> = None;
            for batch in [1usize, 3, 1024] {
                let exec = Executor::with_config(
                    database,
                    ExecConfig { udf_batch_size: batch, ..ExecConfig::default() },
                );
                let run = exec.run_with(plan, id, boxed).unwrap();
                if let Some(p) = &previous {
                    assert_eq!(p.out_rows, run.out_rows);
                    assert_eq!(p.agg_value, run.agg_value);
                }
                previous = Some(run);
            }
            checked += 1;
        });
        assert!(checked > 0, "no UDF query generated");
    }

    #[test]
    fn pipeline_is_bit_identical_to_materialized_on_generated_queries() {
        // The streaming driver must reproduce the collecting one exactly:
        // every QueryRun value, cardinality and per-operator work total, bit
        // for bit, on typed lanes and on the boxed VM × thread counts, in
        // every valid UDF placement.
        let mut checked = 0;
        for_generated_plans(47, 0..80, false, |database, id, plan| {
            for typed_lanes in [true, false] {
                for threads in [1usize, 4] {
                    let exec = Executor::with_config(database, ragged(threads));
                    let cuts =
                        |streaming| Shortcuts { typed_lanes, streaming, ..Shortcuts::SHIPPED };
                    let mat = exec.run_with(plan, id, cuts(false)).unwrap();
                    let pipe = exec.run_with(plan, id, cuts(true)).unwrap();
                    let what = format!("query {id}, typed lanes {typed_lanes}, {threads} threads");
                    assert_bit_identical(&mat, &pipe, &what);
                    checked += 1;
                }
            }
        });
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
        let exec = Executor::with_config(
            &db,
            ExecConfig { threads: 1, morsel_rows: 256, ..ExecConfig::default() },
        );
        let collecting = Shortcuts { streaming: false, ..Shortcuts::SHIPPED };
        let mat = exec.run_with(&plan, 1, collecting).unwrap();
        let pipe = exec.run(&plan, 1).unwrap();
        assert_eq!(mat.agg_value, pipe.agg_value);
        assert!(
            pipe.peak_inter_rows < mat.peak_inter_rows,
            "pipeline resident rows {} should undercut materialized {}",
            pipe.peak_inter_rows,
            mat.peak_inter_rows
        );
    }

    #[test]
    fn each_shortcut_alone_changes_no_contracted_bit_and_has_traffic() {
        // Flipping one shortcut off (a) leaves every contracted bit where it
        // was and (b) moves something the contract leaves free — over
        // generator-produced queries only, so a shortcut no workload takes
        // fails here instead of riding along behind a hand-built trigger.
        use crate::physical::{lower_under, PhysicalOpKind};
        use crate::profile::UdfOpProfile;
        let udf_rows = |run: &QueryRun, rows: fn(UdfOpProfile) -> u64| -> u64 {
            let ops = &run.profile.as_ref().expect("streaming runs are profiled").ops;
            ops.iter().filter_map(|op| op.udf).map(rows).sum()
        };
        let fast_rows = |run: &QueryRun| udf_rows(run, |u| u.simd_fast_rows);
        let memo_rows = |run: &QueryRun| udf_rows(run, |u| u.memo_rows);
        let join_lanes = |database: &Database, plan: &Plan, cuts| -> usize {
            let phys = lower_under(database, plan, cuts).unwrap();
            let built: usize = phys.builds.iter().map(|pipe| pipe.sink.keep.len()).sum();
            let ops = phys.builds.iter().flat_map(|pipe| &pipe.ops).chain(&phys.root.ops);
            let probed = ops.map(|op| match &op.kind {
                PhysicalOpKind::HashJoinProbe { keep, .. } => keep.len(),
                _ => 0,
            });
            built + probed.sum::<usize>()
        };
        let mut checked = 0;
        let (mut memo_served, mut lane_rows, mut counted_loops) = (0u64, 0u64, 0usize);
        let (mut join_plans, mut streamed_below) = (0usize, 0usize);
        let (mut joins_with_fewer_lanes, mut pruned_programs) = (0usize, 0usize);
        for_generated_plans(59, 0..60, false, |database, id, plan| {
            let exec = Executor::with_config(database, ExecConfig { profile: true, ..ragged(2) });
            let shipped = exec.run(plan, id).unwrap();
            let mut without = |what: &str, cuts: Shortcuts| {
                let run = exec.run_with(plan, id, cuts).unwrap();
                assert_bit_identical(&run, &shipped, &format!("query {id} without {what}"));
                checked += 1;
                run
            };

            let unmemoized = Shortcuts { memo: false, ..Shortcuts::SHIPPED };
            assert_eq!(memo_rows(&without("memo", unmemoized)), 0);
            memo_served += memo_rows(&shipped);

            let boxed = Shortcuts { typed_lanes: false, ..Shortcuts::SHIPPED };
            assert_eq!(fast_rows(&without("typed lanes", boxed)), 0);
            if fast_rows(&shipped) > 0 {
                lane_rows += fast_rows(&shipped);
                let udf = plan.ops.iter().find_map(|op| match &op.kind {
                    PlanOpKind::UdfFilter { udf, .. } | PlanOpKind::UdfProject { udf } => Some(udf),
                    _ => None,
                });
                let shape = graceful_udf::compile(&udf.unwrap().def).unwrap().simd_shape();
                counted_loops += shape.trip_count.iter().flatten().count() / 2;
            }

            let collecting = Shortcuts { streaming: false, ..Shortcuts::SHIPPED };
            let collected = without("streaming", collecting);
            if plan.join_count() > 0 {
                join_plans += 1;
                streamed_below += usize::from(shipped.peak_inter_rows < collected.peak_inter_rows);
            }

            let all_lanes = Shortcuts { lane_pruning: false, ..Shortcuts::SHIPPED };
            without("lane pruning", all_lanes);
            joins_with_fewer_lanes += usize::from(
                join_lanes(database, plan, Shortcuts::SHIPPED)
                    < join_lanes(database, plan, all_lanes),
            );

            without("UDF pruning", Shortcuts { udf_pruning: false, ..Shortcuts::SHIPPED });
            for op in &plan.ops {
                let (PlanOpKind::UdfFilter { udf, .. } | PlanOpKind::UdfProject { udf }) = &op.kind
                else {
                    continue;
                };
                let table = database.table(&udf.table).unwrap();
                let types: Vec<_> = udf
                    .input_columns
                    .iter()
                    .map(|c| table.column(c).unwrap().data_type())
                    .collect();
                let plain = graceful_udf::compile(&udf.def).unwrap();
                let weights = graceful_udf::CostWeights::default();
                pruned_programs +=
                    usize::from(graceful_udf::prune(plain.clone(), &types, &weights) != plain);
            }
        });
        assert!(checked >= 400, "only {checked} plans compared");
        assert!(memo_served > 0, "the memo served no generated UDF row");
        assert!(lane_rows > 0, "typed lanes carried no generated UDF row");
        assert!(counted_loops > 0, "no generated loop ran Counted on the lanes");
        assert!(
            streamed_below * 2 > join_plans,
            "streaming peaked below collecting on {streamed_below} of {join_plans} join plans"
        );
        assert!(joins_with_fewer_lanes > 0, "lane pruning dropped no generated join lane");
        assert!(pruned_programs > 0, "UDF pruning rewrote no generated program");
    }

    #[test]
    fn run_is_bit_identical_to_run_reference_on_generated_queries() {
        // What the root suites hold the engine to, here next to the three
        // one-shortcut differentials above: every shortcut on, at threads
        // {1, 2, 4}, against every shortcut off.
        let mut checked = 0;
        for_generated_plans(53, 0..60, false, |database, id, plan| {
            let reference =
                Executor::with_config(database, ragged(1)).run_reference(plan, id).unwrap();
            assert!(reference.profile.is_none());
            for threads in [1usize, 2, 4] {
                let run = Executor::with_config(database, ragged(threads)).run(plan, id).unwrap();
                assert_bit_identical(&run, &reference, &format!("query {id}, {threads} threads"));
                checked += 1;
            }
        });
        assert!(checked >= 100, "only {checked} plans compared");
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
        assert_eq!(phys.builds.len(), 1, "build pipeline + probe pipeline");
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
