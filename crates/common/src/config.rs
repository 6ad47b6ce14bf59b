//! Experiment scaling knobs.
//!
//! The paper's corpus is 93.8k queries over 20 databases and took 142 hours
//! of execution to label. The reproduction defaults to a scale that finishes
//! the full experiment suite in minutes; every knob can be raised through
//! environment variables so the corpus approaches the paper's size:
//!
//! | Env var | Meaning | Default |
//! |---|---|---|
//! | `GRACEFUL_SCALE`          | multiplier on base-table row counts | `1.0` |
//! | `GRACEFUL_QUERIES_PER_DB` | labelled queries generated per database | `45` |
//! | `GRACEFUL_FOLDS`          | cross-validation groups (20 = the paper's leave-one-out) | `2` |
//! | `GRACEFUL_EPOCHS`         | GNN training epochs | `14` |
//! | `GRACEFUL_HIDDEN`         | GNN hidden width | `32` |
//! | `GRACEFUL_SEED`           | global seed | `20250331` (the arXiv date) |
//! | `GRACEFUL_UDF_BATCH`      | rows per batch fed to the UDF VM | `1024` |
//! | `GRACEFUL_THREADS`        | worker threads of the morsel-driven runtime (`graceful-runtime`) | all cores |
//! | `GRACEFUL_MORSEL`         | rows per morsel in parallel operators | `2048` |
//! | `GRACEFUL_GNN_EXEC`       | GNN trainer mode: `batched` (level-synchronous) or `node-at-a-time` (reference) | `batched` |
//! | `GRACEFUL_PROFILE`        | attach a per-operator `ExecProfile` to every `QueryRun`: `1`/`0` (also `true`/`false`, `on`/`off`, `yes`/`no`) | `0` |
//! | `GRACEFUL_TRACE`          | enable span tracing and write Chrome-trace JSON to this path on flush | off |
//! | `GRACEFUL_FLIGHT`         | enable the query flight recorder and write per-query JSONL records to this path on flush | off |
//! | `GRACEFUL_VERIFY`         | bytecode verification of every compiled UDF: `strict` or `off` (bench-only) | `strict` |
//! | `GRACEFUL_PLAN_VERIFY`    | static plan verification before lowering: `strict` or `off` (bench-only) | `strict` |
//!
//! `GRACEFUL_SCALE`, `GRACEFUL_UDF_BATCH`, `GRACEFUL_THREADS`,
//! `GRACEFUL_MORSEL`, `GRACEFUL_GNN_EXEC`,
//! `GRACEFUL_PROFILE`, `GRACEFUL_TRACE`, `GRACEFUL_FLIGHT`, `GRACEFUL_VERIFY`
//! and `GRACEFUL_PLAN_VERIFY` are validated strictly: an unknown
//! mode name, a non-positive/unparsable thread, batch or morsel count, a
//! non-finite or non-positive data scale, an
//! unrecognized boolean or an empty trace/flight path is
//! a hard error (listing the valid options), not a silent fallback — a typo
//! in an experiment environment must not silently re-run the wrong
//! configuration. Results never depend on any of them: the runtime merges
//! per-morsel work in morsel-index order, so every output is bit-identical
//! for any thread count and batch size — and profiling/tracing
//! are write-only observers, so `tests/parallel_determinism.rs` proves they
//! flip no contracted bit either.
//!
//! These environment variables are only *defaults*: the engine is configured
//! programmatically through `graceful_exec::Session` / `ExecOptions`, which
//! resolve the environment exactly once (via the `try_*_from_env` helpers
//! here) and surface invalid values as typed `GracefulError::Config` errors.
//! This module is the **only** place in the workspace that reads `GRACEFUL_*`
//! variables.
//!
//! The UDF backend and the executor mode are not among them: the engine
//! ships one UDF path ([`UdfBackend::Simd`]) and one driver
//! ([`ExecMode::Pipeline`]); the alternatives are differential oracles
//! selected programmatically (`ExecOptions::udf_backend`,
//! `ExecOptions::mode`). The variables that used to choose between them are
//! rejected when set ([`try_removed_knobs_unset`]), not silently ignored.

/// Which UDF evaluation backend the execution engine uses.
///
/// All three produce identical values and identical accounted work (the
/// differential suites enforce it). [`UdfBackend::Simd`] is the one shipped
/// path; [`UdfBackend::Vm`] and [`UdfBackend::TreeWalk`] stay selectable
/// through `ExecOptions::udf_backend` only, as the oracles those suites
/// compare it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UdfBackend {
    /// Reference tree-walking interpreter (`graceful-udf::interp`).
    TreeWalk,
    /// Bytecode compiler + vectorized batch VM (`graceful-udf::vm`).
    Vm,
    /// Batch VM with the typed columnar fast path (`graceful-udf::simd`):
    /// straight-line numeric segments execute column-at-a-time over unboxed
    /// lanes; diverging or non-numeric rows, and UDFs with no columnar path
    /// at all, fall back to the per-row VM.
    #[default]
    Simd,
}

/// Variables that left the environment surface when what they selected
/// stopped being a user choice, each with what to use instead.
const REMOVED_KNOBS: [(&str, &str); 2] = [
    (
        "GRACEFUL_UDF_BACKEND",
        "the engine ships one UDF path (`simd`, per-row VM fallback); select the \
         `vm`/`treewalk` oracles programmatically with `ExecOptions::udf_backend`",
    ),
    (
        "GRACEFUL_EXEC",
        "the engine ships one executor (the streaming pipeline driver); select the \
         collecting oracle driver programmatically with `ExecOptions::mode`",
    ),
];

/// Every removed knob must be unset: an experiment script that still sets
/// one must fail loudly instead of believing it pinned a backend or a mode.
pub fn try_removed_knobs_unset() -> Result<(), String> {
    removed_knobs_unset(|name| std::env::var_os(name))
}

fn removed_knobs_unset(var: impl Fn(&str) -> Option<std::ffi::OsString>) -> Result<(), String> {
    for (name, instead) in REMOVED_KNOBS {
        if let Some(v) = var(name) {
            return Err(format!(
                "{name} is set (`{}`) but is no longer read: {instead} and unset the variable",
                v.to_string_lossy()
            ));
        }
    }
    Ok(())
}

/// Whether compiled UDF bytecode is statically verified before execution.
///
/// Under [`VerifyMode::Strict`] (the default) every `compile()` result runs
/// through `graceful_udf::analysis::verify` — jump targets in bounds, no
/// use-before-def registers, return on all paths, cost-charge placement —
/// and a failing program is rejected with a typed `GracefulError::Verify`
/// before any backend executes it. [`VerifyMode::Off`] skips the check and
/// exists for compile-throughput benchmarking only: with verification off, a
/// buggy compiler output reaches the interpreters unchecked, so it must
/// never be set in experiments or tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Verify every compiled program; reject failures with a typed error.
    #[default]
    Strict,
    /// Skip verification (bench-only escape hatch).
    Off,
}

impl VerifyMode {
    /// Parse a verification mode (`strict` | `off`, case insensitive).
    /// Unknown names are an error listing the valid options.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value.trim().to_ascii_lowercase().as_str() {
            "strict" | "on" => Ok(VerifyMode::Strict),
            "off" => Ok(VerifyMode::Off),
            other => Err(format!(
                "invalid GRACEFUL_VERIFY `{other}`: valid values are `strict` \
                 (alias `on`; the default) and `off` (bench-only — skips \
                 bytecode verification)"
            )),
        }
    }

    /// Resolve from `GRACEFUL_VERIFY`; unset means [`VerifyMode::Strict`],
    /// an unknown value is an error (see [`VerifyMode::parse`]).
    pub fn try_from_env() -> Result<Self, String> {
        match std::env::var("GRACEFUL_VERIFY") {
            Ok(v) => Self::parse(&v),
            Err(_) => Ok(VerifyMode::default()),
        }
    }
}

/// Whether logical plans are statically verified before lowering/execution.
///
/// Under [`PlanVerifyMode::Strict`] (the default) every plan handed to the
/// executor runs through `graceful_plan::analysis::verify` — DAG structure
/// (cycles, dangling children, operator arity, reachability), schema/type
/// resolution against the catalog (tables, columns, join-key compatibility,
/// UDF inputs, aggregate arity) and cardinality-annotation sanity — and a
/// failing plan is rejected with a typed `GracefulError::PlanVerify` before
/// anything executes it. [`PlanVerifyMode::Off`] skips the check and exists
/// for plan-throughput benchmarking only: with verification off, a malformed
/// plan reaches the engine unchecked and surfaces as a mid-execution error,
/// so it must never be set in experiments or tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanVerifyMode {
    /// Verify every plan before lowering; reject failures with a typed error.
    #[default]
    Strict,
    /// Skip plan verification (bench-only escape hatch).
    Off,
}

impl PlanVerifyMode {
    /// Parse a plan-verification mode (`strict` | `off`, case insensitive).
    /// Unknown names are an error listing the valid options.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value.trim().to_ascii_lowercase().as_str() {
            "strict" | "on" => Ok(PlanVerifyMode::Strict),
            "off" => Ok(PlanVerifyMode::Off),
            other => Err(format!(
                "invalid GRACEFUL_PLAN_VERIFY `{other}`: valid values are \
                 `strict` (alias `on`; the default) and `off` (bench-only — \
                 skips static plan verification)"
            )),
        }
    }

    /// Resolve from `GRACEFUL_PLAN_VERIFY`; unset means
    /// [`PlanVerifyMode::Strict`], an unknown value is an error (see
    /// [`PlanVerifyMode::parse`]).
    pub fn try_from_env() -> Result<Self, String> {
        match std::env::var("GRACEFUL_PLAN_VERIFY") {
            Ok(v) => Self::parse(&v),
            Err(_) => Ok(PlanVerifyMode::default()),
        }
    }
}

/// Which driver `graceful_exec`'s `Executor` runs the lowered operator
/// pipelines with. Both produce bit-identical `QueryRun`s (values,
/// cardinalities and accounted work); they differ only in peak memory.
/// Selected programmatically (`ExecOptions::mode`) — there is no
/// environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Stream fixed-size row batches through each pipeline — peak memory is
    /// bounded by O(batch × pipeline depth) for non-blocking chains.
    #[default]
    Pipeline,
    /// Collect every operator's whole output before the next operator runs.
    /// Kept as the differential-testing oracle.
    Materialize,
}

/// Default rows per batch fed to the UDF VM.
pub const DEFAULT_UDF_BATCH: usize = 1024;

/// Parse a `GRACEFUL_UDF_BATCH` value: an integer ≥ 1 (rows per VM batch).
pub fn parse_udf_batch(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "invalid GRACEFUL_UDF_BATCH `{}`: expected an integer >= 1 \
             (rows per UDF VM batch; unset means {DEFAULT_UDF_BATCH})",
            value.trim()
        )),
    }
}

/// Resolve the UDF VM batch size from `GRACEFUL_UDF_BATCH` (default
/// [`DEFAULT_UDF_BATCH`]); an invalid value is an error.
pub fn try_udf_batch_from_env() -> Result<usize, String> {
    match std::env::var("GRACEFUL_UDF_BATCH") {
        Ok(v) => parse_udf_batch(&v),
        Err(_) => Ok(DEFAULT_UDF_BATCH),
    }
}

/// Rows per morsel when none is configured.
pub const DEFAULT_MORSEL_ROWS: usize = 2048;

/// The machine's thread budget: `available_parallelism`, or 1 when the
/// platform cannot report it.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Parse a `GRACEFUL_THREADS` value: an integer ≥ 1.
pub fn parse_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "invalid GRACEFUL_THREADS `{}`: expected an integer >= 1 \
             (worker threads; unset means all cores)",
            value.trim()
        )),
    }
}

/// Parse a `GRACEFUL_MORSEL` value: an integer ≥ 1 (rows per morsel).
pub fn parse_morsel(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "invalid GRACEFUL_MORSEL `{}`: expected an integer >= 1 \
             (rows per morsel; unset means {DEFAULT_MORSEL_ROWS})",
            value.trim()
        )),
    }
}

/// Resolve the worker-thread count from `GRACEFUL_THREADS` (default: all
/// cores); an invalid value is an error.
pub fn try_threads_from_env() -> Result<usize, String> {
    match std::env::var("GRACEFUL_THREADS") {
        Ok(v) => parse_threads(&v),
        Err(_) => Ok(default_threads()),
    }
}

/// [`try_threads_from_env`], panicking on invalid values.
pub fn threads_from_env() -> usize {
    try_threads_from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// Resolve the morsel size from `GRACEFUL_MORSEL` (default
/// [`DEFAULT_MORSEL_ROWS`]); an invalid value is an error.
pub fn try_morsel_from_env() -> Result<usize, String> {
    match std::env::var("GRACEFUL_MORSEL") {
        Ok(v) => parse_morsel(&v),
        Err(_) => Ok(DEFAULT_MORSEL_ROWS),
    }
}

/// [`try_morsel_from_env`], panicking on invalid values.
pub fn morsel_from_env() -> usize {
    try_morsel_from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// Parse a `GRACEFUL_PROFILE` value: a boolean written as `1`/`0`, `true`/
/// `false`, `on`/`off` or `yes`/`no` (case insensitive). Anything else is an
/// error listing the valid spellings.
pub fn parse_profile(value: &str) -> Result<bool, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Ok(true),
        "0" | "false" | "off" | "no" => Ok(false),
        other => Err(format!(
            "invalid GRACEFUL_PROFILE `{other}`: expected a boolean — \
             `1`/`0`, `true`/`false`, `on`/`off` or `yes`/`no`"
        )),
    }
}

/// Resolve per-query profiling from `GRACEFUL_PROFILE` (default: off); an
/// invalid value is an error.
pub fn try_profile_from_env() -> Result<bool, String> {
    match std::env::var("GRACEFUL_PROFILE") {
        Ok(v) => parse_profile(&v),
        Err(_) => Ok(false),
    }
}

/// Parse a `GRACEFUL_TRACE` value: a non-empty output path for the
/// Chrome-trace JSON. An empty (or all-whitespace) value is an error — an
/// accidentally blank variable must not silently disable the trace the
/// experiment asked for.
pub fn parse_trace(value: &str) -> Result<String, String> {
    let path = value.trim();
    if path.is_empty() {
        Err("invalid GRACEFUL_TRACE ``: expected a non-empty output path for the \
             Chrome-trace JSON (unset the variable to disable tracing)"
            .to_string())
    } else {
        Ok(path.to_string())
    }
}

/// Resolve the trace output path from `GRACEFUL_TRACE` (unset → `None`,
/// tracing off); an empty value is an error.
pub fn try_trace_from_env() -> Result<Option<String>, String> {
    match std::env::var("GRACEFUL_TRACE") {
        Ok(v) => parse_trace(&v).map(Some),
        Err(_) => Ok(None),
    }
}

/// Parse a `GRACEFUL_FLIGHT` value: a non-empty output path for the
/// flight-recorder JSONL. An empty (or all-whitespace) value is an error —
/// an accidentally blank variable must not silently disable the recording
/// the experiment asked for.
pub fn parse_flight(value: &str) -> Result<String, String> {
    let path = value.trim();
    if path.is_empty() {
        Err("invalid GRACEFUL_FLIGHT ``: expected a non-empty output path for the \
             flight-recorder JSONL (unset the variable to disable recording)"
            .to_string())
    } else {
        Ok(path.to_string())
    }
}

/// Resolve the flight-recorder output path from `GRACEFUL_FLIGHT` (unset →
/// `None`, recording off); an empty value is an error.
pub fn try_flight_from_env() -> Result<Option<String>, String> {
    match std::env::var("GRACEFUL_FLIGHT") {
        Ok(v) => parse_flight(&v).map(Some),
        Err(_) => Ok(None),
    }
}

/// Parse a `GRACEFUL_SCALE` value: a finite float > 0 multiplying every
/// dataset's base-table row counts. NaN, infinities, non-positive values
/// and garbage are hard errors — a typo'd scale must not silently re-run
/// the experiment at 1× (or, worse, at `max(0.01)` of garbage).
pub fn parse_scale(value: &str) -> Result<f64, String> {
    match value.trim().parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 => Ok(s),
        _ => Err(format!(
            "invalid GRACEFUL_SCALE `{}`: expected a finite float > 0 \
             (base-row multiplier; unset means 1.0)",
            value.trim()
        )),
    }
}

/// Resolve the data scale from `GRACEFUL_SCALE` (default `1.0`); an invalid
/// value is an error.
pub fn try_scale_from_env() -> Result<f64, String> {
    match std::env::var("GRACEFUL_SCALE") {
        Ok(v) => parse_scale(&v),
        Err(_) => Ok(1.0),
    }
}

/// [`try_scale_from_env`], panicking on invalid values — a misconfigured
/// experiment must fail loudly at startup.
pub fn scale_from_env() -> f64 {
    try_scale_from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// Raw `GRACEFUL_GNN_EXEC` value (unset → `None`). This crate cannot depend
/// on `graceful-nn`, so the value is parsed (and strictly validated) by
/// `graceful_nn::GnnExecMode::parse` at the train-options layer — this
/// module stays the only place in the workspace that reads `GRACEFUL_*`.
pub fn gnn_exec_from_env() -> Option<String> {
    std::env::var("GRACEFUL_GNN_EXEC").ok()
}

/// Scaling configuration resolved from the environment with sane defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Multiplier applied to every dataset's base row counts.
    pub data_scale: f64,
    /// Number of labelled queries generated per database.
    pub queries_per_db: usize,
    /// Number of leave-one-out folds to actually run (the paper runs all 20).
    pub folds: usize,
    /// GNN training epochs.
    pub epochs: usize,
    /// GNN hidden width.
    pub hidden: usize,
    /// Global seed from which all others are forked.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            data_scale: 1.0,
            queries_per_db: 45,
            folds: 2,
            epochs: 14,
            hidden: 32,
            seed: 20_250_331,
        }
    }
}

fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok().and_then(|v| v.trim().parse().ok())
}

impl ScaleConfig {
    /// Resolve the configuration from `GRACEFUL_*` environment variables,
    /// falling back to the defaults above. `GRACEFUL_SCALE` is validated
    /// strictly ([`parse_scale`]) and panics on invalid values, like every
    /// other execution knob; use [`ScaleConfig::try_from_env`] for a typed
    /// error instead.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ScaleConfig::from_env`] with the strict `GRACEFUL_SCALE` validation
    /// surfaced as an error.
    pub fn try_from_env() -> Result<Self, String> {
        let d = ScaleConfig::default();
        Ok(ScaleConfig {
            data_scale: try_scale_from_env()?,
            queries_per_db: env_parse("GRACEFUL_QUERIES_PER_DB").unwrap_or(d.queries_per_db).max(4),
            folds: env_parse::<usize>("GRACEFUL_FOLDS").unwrap_or(d.folds).clamp(1, 20),
            epochs: env_parse("GRACEFUL_EPOCHS").unwrap_or(d.epochs).max(1),
            hidden: env_parse("GRACEFUL_HIDDEN").unwrap_or(d.hidden).clamp(4, 512),
            seed: env_parse("GRACEFUL_SEED").unwrap_or(d.seed),
        })
    }

    /// Scale a base row count by `data_scale`, keeping at least 16 rows.
    pub fn rows(&self, base: usize) -> usize {
        ((base as f64 * self.data_scale) as usize).max(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ScaleConfig::default();
        assert!(c.folds >= 1 && c.folds <= 20);
        assert!(c.queries_per_db >= 4);
        assert_eq!(c.rows(1000), 1000);
    }

    #[test]
    fn rows_floor() {
        let c = ScaleConfig { data_scale: 0.001, ..ScaleConfig::default() };
        assert_eq!(c.rows(1000), 16);
    }

    // Env-knob validation is tested through the pure parsers: the resolver
    // functions only add `std::env::var`, and mutating the environment from
    // tests would race the rest of the (multi-threaded) suite.

    #[test]
    fn backend_defaults_to_simd_and_its_env_knob_is_rejected() {
        assert_eq!(UdfBackend::default(), UdfBackend::Simd);
        assert_eq!(removed_knobs_unset(|_| None), Ok(()));
        for (knob, setter) in [
            ("GRACEFUL_UDF_BACKEND", "ExecOptions::udf_backend"),
            ("GRACEFUL_EXEC", "ExecOptions::mode"),
        ] {
            for set in ["vm", "pipeline", ""] {
                let err =
                    removed_knobs_unset(|name| (name == knob).then(|| set.into())).unwrap_err();
                assert!(
                    err.contains(knob) && err.contains(setter),
                    "names the knob and its replacement: {err}"
                );
            }
        }
    }

    #[test]
    fn udf_batch_parses_and_rejects() {
        assert_eq!(parse_udf_batch("37"), Ok(37));
        for bad in ["0", "-1", "", "fast", "2.5"] {
            assert!(parse_udf_batch(bad).is_err(), "batch accepted {bad:?}");
        }
        assert!(parse_udf_batch("0").unwrap_err().contains("GRACEFUL_UDF_BATCH"));
    }

    #[test]
    fn scale_knob_rejects_nonpositive_nan_and_garbage() {
        assert_eq!(parse_scale("100"), Ok(100.0));
        assert_eq!(parse_scale(" 0.25 "), Ok(0.25));
        for bad in ["0", "-1", "", "NaN", "inf", "-inf", "big", "1e999"] {
            let err = parse_scale(bad).unwrap_err();
            assert!(err.contains("GRACEFUL_SCALE"), "error names the knob: {err}");
        }
    }

    #[test]
    fn thread_and_morsel_knobs_reject_invalid_values() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_morsel(" 512 "), Ok(512));
        for bad in ["0", "-2", "many", "", "1.5"] {
            assert!(parse_threads(bad).is_err(), "threads accepted {bad:?}");
            assert!(parse_morsel(bad).is_err(), "morsel accepted {bad:?}");
        }
        assert!(parse_threads("0").unwrap_err().contains("GRACEFUL_THREADS"));
        assert!(parse_morsel("x").unwrap_err().contains("GRACEFUL_MORSEL"));
        assert!(default_threads() >= 1);
    }

    #[test]
    fn profile_knob_parses_booleans_and_rejects_unknown() {
        for on in ["1", "true", "ON", " Yes "] {
            assert_eq!(parse_profile(on), Ok(true), "{on:?} should enable");
        }
        for off in ["0", "false", "Off", " no "] {
            assert_eq!(parse_profile(off), Ok(false), "{off:?} should disable");
        }
        for bad in ["", "2", "enabled", "y"] {
            let err = parse_profile(bad).unwrap_err();
            assert!(err.contains("GRACEFUL_PROFILE"), "error names the knob: {err}");
        }
    }

    #[test]
    fn verify_knob_parses_modes_and_rejects_unknown() {
        assert_eq!(VerifyMode::parse("strict"), Ok(VerifyMode::Strict));
        assert_eq!(VerifyMode::parse(" On "), Ok(VerifyMode::Strict));
        assert_eq!(VerifyMode::parse("OFF"), Ok(VerifyMode::Off));
        assert_eq!(VerifyMode::default(), VerifyMode::Strict);
        for bad in ["", "lax", "1", "disabled"] {
            let err = VerifyMode::parse(bad).unwrap_err();
            assert!(err.contains("GRACEFUL_VERIFY"), "error names the knob: {err}");
            assert!(err.contains("strict") && err.contains("off"), "lists options: {err}");
        }
    }

    #[test]
    fn plan_verify_knob_parses_modes_and_rejects_unknown() {
        assert_eq!(PlanVerifyMode::parse("strict"), Ok(PlanVerifyMode::Strict));
        assert_eq!(PlanVerifyMode::parse(" On "), Ok(PlanVerifyMode::Strict));
        assert_eq!(PlanVerifyMode::parse("OFF"), Ok(PlanVerifyMode::Off));
        assert_eq!(PlanVerifyMode::default(), PlanVerifyMode::Strict);
        for bad in ["", "lax", "1", "disabled"] {
            let err = PlanVerifyMode::parse(bad).unwrap_err();
            assert!(err.contains("GRACEFUL_PLAN_VERIFY"), "error names the knob: {err}");
            assert!(err.contains("strict") && err.contains("off"), "lists options: {err}");
        }
    }

    #[test]
    fn trace_knob_requires_nonempty_path() {
        assert_eq!(parse_trace(" /tmp/trace.json "), Ok("/tmp/trace.json".to_string()));
        for bad in ["", "   ", "\t"] {
            let err = parse_trace(bad).unwrap_err();
            assert!(err.contains("GRACEFUL_TRACE"), "error names the knob: {err}");
        }
    }

    #[test]
    fn flight_knob_requires_nonempty_path() {
        assert_eq!(parse_flight(" /tmp/flight.jsonl "), Ok("/tmp/flight.jsonl".to_string()));
        for bad in ["", "   ", "\t"] {
            let err = parse_flight(bad).unwrap_err();
            assert!(err.contains("GRACEFUL_FLIGHT"), "error names the knob: {err}");
        }
    }
}
