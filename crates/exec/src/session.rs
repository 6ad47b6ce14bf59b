//! The engine's front door: [`ExecOptions`] (a validating builder) and
//! [`Session`] (an immutable, validated configuration that runs every query
//! and sizes the pools).
//!
//! **Programs configure the engine; the environment only supplies
//! documented defaults**, resolved exactly once by [`Session::from_env`]
//! (or [`ExecOptions::build_with_env`] when explicit overrides should win
//! over it), with invalid values surfaced as typed
//! [`GracefulError::Config`](graceful_common::GracefulError::Config) errors.
//!
//! ```
//! use graceful_exec::{ExecOptions, Session};
//!
//! # fn main() -> graceful_common::Result<()> {
//! // Fully programmatic — no environment involved.
//! let session = ExecOptions::new()
//!     .udf_batch_size(512)
//!     .threads(2)
//!     .morsel_rows(1024)
//!     .build()?;
//! assert_eq!(session.config().udf_batch_size, 512);
//!
//! // Zero values are rejected with a typed error instead of a panic.
//! let err = ExecOptions::new().udf_batch_size(0).build().unwrap_err();
//! assert!(matches!(err, graceful_common::GracefulError::Config(_)));
//!
//! // Environment-defaulted (the one place `GRACEFUL_*` is applied).
//! let session = Session::from_env()?;
//! let _pool = session.pool();
//! # Ok(())
//! # }
//! ```
//!
//! What the options configure is sizes, weights and instruments. None of
//! them picks an implementation or switches a check off: [`Session::run`]
//! is the one engine, and [`Session::run_reference`] — the same operators
//! with every execution shortcut off — is the oracle tests compare it
//! against, reached by name.

use crate::analyze;
use crate::engine::{ExecConfig, OperatorWeights, QueryRun, Shortcuts};
use crate::physical::OpTally;
use crate::profile::ExecProfile;
use graceful_common::Result;
use graceful_obs::flight::{self, FlightRecord};
use graceful_obs::registry::{counter, histogram, Counter, Histogram};
use graceful_obs::trace;
use graceful_plan::Plan;
use graceful_runtime::Pool;
use graceful_storage::Database;
use std::sync::OnceLock;
use std::time::Instant;

/// Builder for [`Session`]: unset fields fall back to the pure
/// [`ExecConfig::base`] defaults ([`ExecOptions::build`]) or to the
/// environment-resolved defaults ([`ExecOptions::build_with_env`]).
///
/// Every terminal method validates through [`ExecConfig::validated`], so a
/// zero batch/morsel/thread count or a non-finite jitter is a typed
/// `GracefulError::Config` — never a panic, never a silent clamp.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    udf_batch_size: Option<usize>,
    threads: Option<usize>,
    morsel_rows: Option<usize>,
    jitter: Option<f64>,
    max_intermediate_rows: Option<usize>,
    weights: Option<OperatorWeights>,
    profile: Option<bool>,
}

impl ExecOptions {
    pub fn new() -> Self {
        ExecOptions::default()
    }

    /// Rows per batch fed to the UDF VM.
    pub fn udf_batch_size(mut self, rows: usize) -> Self {
        self.udf_batch_size = Some(rows);
        self
    }

    /// Worker threads for the morsel-driven operator paths (never changes
    /// results, only wall-clock time).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Rows per morsel — the work-accounting grouping unit.
    pub fn morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = Some(rows);
        self
    }

    /// Relative amplitude of the deterministic measurement jitter, in
    /// `[0, 1]`.
    pub fn jitter(mut self, jitter: f64) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// Safety cap on intermediate result sizes.
    pub fn max_intermediate_rows(mut self, rows: usize) -> Self {
        self.max_intermediate_rows = Some(rows);
        self
    }

    /// Per-row work weights of the relational operators.
    pub fn weights(mut self, weights: OperatorWeights) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Attach a per-operator [`crate::ExecProfile`] to every
    /// [`QueryRun`]. Pure observability — profiled and unprofiled runs are
    /// bit-identical in every contracted `QueryRun` field.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = Some(on);
        self
    }

    /// Apply the explicit options over `defaults`.
    fn over(self, defaults: ExecConfig) -> ExecConfig {
        ExecConfig {
            udf_batch_size: self.udf_batch_size.unwrap_or(defaults.udf_batch_size),
            threads: self.threads.unwrap_or(defaults.threads),
            morsel_rows: self.morsel_rows.unwrap_or(defaults.morsel_rows),
            jitter: self.jitter.unwrap_or(defaults.jitter),
            max_intermediate_rows: self
                .max_intermediate_rows
                .unwrap_or(defaults.max_intermediate_rows),
            weights: self.weights.unwrap_or(defaults.weights),
            profile: self.profile.unwrap_or(defaults.profile),
        }
    }

    /// Validate and build a [`Session`] over the pure [`ExecConfig::base`]
    /// defaults — fully environment-free.
    pub fn build(self) -> Result<Session> {
        Ok(Session { config: self.over(ExecConfig::base()).validated()? })
    }

    /// Validate and build a [`Session`] whose unset fields fall back to the
    /// documented `GRACEFUL_*` environment defaults.
    pub fn build_with_env(self) -> Result<Session> {
        Ok(Session { config: self.over(ExecConfig::from_env()?).validated()? })
    }
}

/// A validated engine configuration and the one way to run a query under
/// it: corpus building, experiments, examples, tests and the benchmark all
/// execute through [`Session::run`] and its siblings, so every query runs
/// under a configuration that passed [`ExecConfig::validated`].
#[derive(Debug, Clone)]
pub struct Session {
    config: ExecConfig,
}

impl Session {
    /// The pure baseline session (no environment reads). Infallible: the
    /// base configuration is valid by construction.
    pub fn new() -> Session {
        Session { config: ExecConfig::base() }
    }

    /// A session from the documented `GRACEFUL_*` environment defaults.
    /// Invalid values are typed `GracefulError::Config` errors.
    pub fn from_env() -> Result<Session> {
        Ok(Session { config: ExecConfig::from_env()?.validated()? })
    }

    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// A morsel pool with this session's thread budget (for the parallel
    /// loops outside the executor: corpus labelling, CV folds).
    pub fn pool(&self) -> Pool {
        Pool::new(self.config.threads)
    }

    /// Execute `plan` over `db`; `seed` keys the deterministic runtime
    /// jitter (pass the query id so re-running the same query gives the
    /// same "measurement").
    ///
    /// The plan-verification gate comes first, always: every plan is
    /// statically checked against the catalog before any lowering or
    /// execution, so a malformed plan fails as one typed
    /// [`GracefulError::PlanVerify`](graceful_common::GracefulError::PlanVerify)
    /// naming the operator instead of as a mid-execution surprise.
    ///
    /// Every call increments the registry counter `exec.queries` and records
    /// its wall time into the `exec.query_wall_ns` histogram. With profiling
    /// or the flight recorder on, the run's [`FlightRecord`] is built and
    /// observed once, as in [`Session::run_analyzed`]; a profiled run then
    /// carries it in its [`ExecProfile`].
    pub fn run(&self, db: &Database, plan: &Plan, seed: u64) -> Result<QueryRun> {
        let (mut run, ops, wall_ns) = self.run_timed(db, plan, seed)?;
        if self.config.profile || flight::enabled() {
            let record = analyze::observe(plan, &self.config, &run, &ops, wall_ns, seed, None);
            run.profile = self.config.profile.then(|| ExecProfile::new(record, ops));
        }
        Ok(run)
    }

    /// [`Session::run`], returning the query's [`FlightRecord`] — the
    /// `explain analyze` input, rendered with
    /// [`FlightRecord::render_analyze`] — with `model_pred_ns`, a model's
    /// whole-query cost prediction made before the run, scored in it.
    /// Annotate the plan with a cardinality estimator first to get per-op
    /// q-errors (they are `None` on un-annotated plans). The record is built
    /// once: its q-errors are the ones the `est.*` histograms receive, and
    /// with the flight recorder on it is the record appended. A run that
    /// fails records nothing.
    pub fn run_analyzed(
        &self,
        db: &Database,
        plan: &Plan,
        seed: u64,
        model_pred_ns: Option<f64>,
    ) -> Result<(QueryRun, FlightRecord)> {
        let (mut run, ops, wall_ns) = self.run_timed(db, plan, seed)?;
        let record = analyze::observe(plan, &self.config, &run, &ops, wall_ns, seed, model_pred_ns);
        if self.config.profile {
            run.profile = Some(ExecProfile::new(record.clone(), ops));
        }
        Ok((run, record))
    }

    /// Execute and write the actual cardinalities back onto the plan.
    pub fn run_and_annotate(&self, db: &Database, plan: &mut Plan, seed: u64) -> Result<QueryRun> {
        let run = self.run(db, plan, seed)?;
        for (op, &n) in plan.ops.iter_mut().zip(run.out_rows.iter()) {
            op.actual_out_rows = n as f64;
        }
        Ok(run)
    }

    /// [`Session::run`]'s oracle: the same verification gate, operators,
    /// morsel boundaries, merge order and
    /// [`OperatorWeights`] charges with every execution shortcut off at
    /// once — the boxed-`Value` batch VM for every UDF row, every operator's
    /// whole output collected before the next runs, every join lane carried.
    /// Bit-identical to `run` in every contracted [`QueryRun`] field
    /// (`runtime_ns`, `agg_value`, `out_rows`, `udf_input_rows`, `op_work`),
    /// errors included; `peak_inter_rows` is the collecting peak. None of
    /// `run`'s instruments sees it: no profile, no `exec.queries` tick, no
    /// q-error telemetry, no flight record. Nothing in production calls it.
    pub fn run_reference(&self, db: &Database, plan: &Plan, seed: u64) -> Result<QueryRun> {
        self.run_with(db, plan, seed, Shortcuts::REFERENCE).map(|(run, _)| run)
    }

    /// The shipped run between one clock pair: the span, the `exec.*`
    /// registry metrics and the query's wall time, which every record
    /// carries.
    fn run_timed(
        &self,
        db: &Database,
        plan: &Plan,
        seed: u64,
    ) -> Result<(QueryRun, Vec<OpTally>, u64)> {
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
        let done = self.run_with(db, plan, seed, Shortcuts::SHIPPED);
        let wall_ns = started.elapsed().as_nanos() as u64;
        m.queries.incr();
        m.wall_ns.record(wall_ns as f64);
        let (run, ops) = done?;
        Ok((run, ops, wall_ns))
    }

    pub(crate) fn run_with(
        &self,
        db: &Database,
        plan: &Plan,
        seed: u64,
        cuts: Shortcuts,
    ) -> Result<(QueryRun, Vec<OpTally>)> {
        graceful_plan::analysis::verify(plan, db)?;
        crate::physical::execute(db, plan, &self.config, seed, cuts)
    }
}

impl Default for Session {
    /// Same as [`Session::new`] — pure, no environment reads.
    fn default() -> Self {
        Session::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_common::GracefulError;

    #[test]
    fn builder_overrides_and_defaults() {
        let s = ExecOptions::new()
            .udf_batch_size(77)
            .threads(3)
            .morsel_rows(128)
            .jitter(0.0)
            .max_intermediate_rows(1_000)
            .build()
            .unwrap();
        let c = s.config();
        assert_eq!(c.udf_batch_size, 77);
        assert_eq!(c.threads, 3);
        assert_eq!(c.morsel_rows, 128);
        assert_eq!(c.jitter, 0.0);
        assert_eq!(c.max_intermediate_rows, 1_000);
        // Unset fields come from the pure base.
        let base = ExecConfig::base();
        assert_eq!(c.weights, base.weights);
        assert_eq!(s.pool().threads(), 3);
    }

    #[test]
    fn zero_values_are_typed_config_errors() {
        for (opts, what) in [
            (ExecOptions::new().udf_batch_size(0), "udf_batch_size"),
            (ExecOptions::new().morsel_rows(0), "morsel_rows"),
            (ExecOptions::new().threads(0), "threads"),
            (ExecOptions::new().max_intermediate_rows(0), "max_intermediate_rows"),
        ] {
            match opts.build() {
                Err(GracefulError::Config(m)) => {
                    assert!(m.contains(what), "message {m:?} names {what}")
                }
                other => panic!("{what}=0 produced {other:?}"),
            }
        }
        assert!(matches!(
            ExecOptions::new().jitter(f64::NAN).build(),
            Err(GracefulError::Config(_))
        ));
        assert!(matches!(ExecOptions::new().jitter(2.0).build(), Err(GracefulError::Config(_))));
    }

    #[test]
    fn data_plane_knobs_default_on_and_override() {
        let s = Session::new();
        assert!(!s.config().profile);
        let s = ExecOptions::new().profile(true).build().unwrap();
        assert!(s.config().profile);
    }

    #[test]
    fn base_session_is_pure_and_valid() {
        let s = Session::new();
        let built = ExecOptions::new().build().unwrap();
        assert_eq!(s.config().udf_batch_size, built.config().udf_batch_size);
        assert_eq!(s.config().morsel_rows, built.config().morsel_rows);
        assert!(s.config().threads >= 1);
    }
}
