//! Programmatic engine configuration: [`ExecOptions`] (a validating
//! builder) and [`Session`] (an immutable, validated handle that constructs
//! executors and pools).
//!
//! Historically the engine configured itself from `GRACEFUL_*` environment
//! variables at `ExecConfig::default()` time — every construction re-read
//! the environment, and invalid values panicked deep inside worker code.
//! `Session` inverts that: **programs configure the engine; the environment
//! only supplies documented defaults**, resolved exactly once by
//! [`Session::from_env`] (or [`ExecOptions::build_with_env`] when explicit
//! overrides should win over it), with invalid values surfaced as typed
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

use crate::engine::{ExecConfig, Executor, OperatorWeights, QueryRun};
use graceful_common::Result;
use graceful_plan::Plan;
use graceful_runtime::Pool;
use graceful_storage::Database;

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

/// A validated engine configuration: the single construction path for
/// executors across the workspace (corpus building, experiments, examples,
/// tests and benches all go through here).
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

    /// Start building custom options (alias for [`ExecOptions::new`]).
    pub fn options() -> ExecOptions {
        ExecOptions::new()
    }

    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// An executor over `db` with this session's configuration.
    pub fn executor<'a>(&self, db: &'a Database) -> Executor<'a> {
        Executor::with_config(db, self.config.clone())
    }

    /// A morsel pool with this session's thread budget (for the parallel
    /// loops outside the executor: corpus labelling, CV folds).
    pub fn pool(&self) -> Pool {
        Pool::new(self.config.threads)
    }

    /// Convenience: execute one plan over `db`.
    pub fn run(&self, db: &Database, plan: &Plan, seed: u64) -> Result<QueryRun> {
        self.executor(db).run(plan, seed)
    }

    /// Convenience: [`Executor::run_reference`] over `db` — the oracle the
    /// differential suites hold [`Session::run`] to, bit for bit.
    pub fn run_reference(&self, db: &Database, plan: &Plan, seed: u64) -> Result<QueryRun> {
        self.executor(db).run_reference(plan, seed)
    }

    /// Convenience: execute and write actual cardinalities onto the plan.
    pub fn run_and_annotate(&self, db: &Database, plan: &mut Plan, seed: u64) -> Result<QueryRun> {
        self.executor(db).run_and_annotate(plan, seed)
    }

    /// Convenience: [`Executor::run_analyzed`] over `db` with no model
    /// prediction — the query's run and its
    /// [`FlightRecord`](graceful_obs::flight::FlightRecord), the `explain
    /// analyze` input rendered with `FlightRecord::render_analyze()`.
    /// Annotate the plan with a cardinality estimator first to get per-op
    /// q-errors (they are `None` on un-annotated plans). With the flight
    /// recorder on, the record returned is the one it appended.
    pub fn run_analyzed(
        &self,
        db: &Database,
        plan: &Plan,
        seed: u64,
    ) -> Result<(QueryRun, graceful_obs::flight::FlightRecord)> {
        self.executor(db).run_analyzed(plan, seed, None)
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
