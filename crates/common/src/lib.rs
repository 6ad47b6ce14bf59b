//! Shared primitives for the GRACEFUL reproduction.
//!
//! This crate hosts the pieces every other crate needs: a deterministic,
//! seedable random-number generator ([`rng::Rng`]), evaluation metrics
//! (Q-error and percentile helpers in [`metrics`]), experiment scaling knobs
//! ([`config::ScaleConfig`]) and the shared error type ([`GracefulError`]).
//!
//! Everything in the reproduction is deterministic given a seed: data
//! generation, workload generation, model initialisation and training all
//! draw from [`rng::Rng`] instances derived from explicit seeds, so every
//! experiment table can be regenerated bit-for-bit.

#![forbid(unsafe_code)]

pub mod config;
pub mod metrics;
pub mod rng;

use std::fmt;

/// Errors surfaced by the GRACEFUL crates.
///
/// The reproduction favours explicit `Result`s over panics for anything that
/// can be triggered by user input (parsing UDF source, building plans over a
/// catalog, featurizing graphs). Internal invariant violations still use
/// `debug_assert!`/`panic!` as they indicate bugs, not bad input.
#[derive(Debug, Clone, PartialEq)]
pub enum GracefulError {
    /// UDF source code failed to lex or parse.
    Parse { line: usize, message: String },
    /// A UDF failed while being evaluated (type error, unknown function, ...).
    Eval(String),
    /// A UDF loop ran past the engine's iteration cap. Typed (rather than a
    /// generic `Eval` string) so executors and schedulers can distinguish
    /// "this UDF diverges" from ordinary evaluation failures; both UDF
    /// backends report it identically.
    IterationLimit {
        /// The cap that was exceeded.
        limit: u64,
    },
    /// A name (table, column, UDF parameter) could not be resolved.
    Unresolved(String),
    /// A plan is structurally invalid (e.g. join on missing columns).
    InvalidPlan(String),
    /// Model training / inference failed (shape mismatch, empty dataset, ...).
    Model(String),
    /// Corpus/bench construction failed.
    Benchmark(String),
    /// Invalid engine configuration (zero batch/morsel/thread counts, an
    /// unknown backend name, a malformed `GRACEFUL_*` value). Surfaced by
    /// `Session`/`ExecOptions` validation instead of panicking, so embedding
    /// programs can report misconfiguration like any other error.
    Config(String),
    /// A logical plan failed pre-execution static verification (cycle or
    /// dangling child in the DAG, wrong operator arity, unknown table or
    /// column, type-incompatible join keys, UDF input mismatch, an impossible
    /// `est_out_rows` annotation, or a violated physical-lowering invariant).
    /// Raised by `graceful_plan::analysis::verify` — every plan is checked
    /// before lowering, so a malformed plan surfaces here as a typed error
    /// naming the offending operator instead of as an engine panic
    /// mid-execution.
    PlanVerify(String),
    /// Compiled UDF bytecode failed static verification (out-of-bounds jump
    /// target or register, use of a possibly-uninitialized register, a path
    /// that falls off the end of the program, misplaced cost charges, ...).
    /// Raised by `graceful_udf::analysis::verify` — every `compile()` result
    /// is checked, so a compiler bug surfaces here as a typed error instead
    /// of as backend-divergent behaviour or a release-mode panic downstream.
    Verify(String),
    /// A morsel closure panicked inside a `graceful_runtime::Pool` region.
    /// The region still joined and the pool stays usable; `morsel` is the
    /// lowest panicking morsel index seen and `message` the panic payload's
    /// text (empty when the payload was not a string).
    WorkerPanic { morsel: usize, message: String },
}

impl fmt::Display for GracefulError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GracefulError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GracefulError::Eval(m) => write!(f, "UDF evaluation error: {m}"),
            GracefulError::IterationLimit { limit } => {
                write!(f, "iteration limit: loop exceeded {limit} iterations")
            }
            GracefulError::Unresolved(m) => write!(f, "unresolved name: {m}"),
            GracefulError::InvalidPlan(m) => write!(f, "invalid plan: {m}"),
            GracefulError::Model(m) => write!(f, "model error: {m}"),
            GracefulError::Benchmark(m) => write!(f, "benchmark error: {m}"),
            GracefulError::Config(m) => write!(f, "configuration error: {m}"),
            GracefulError::PlanVerify(m) => write!(f, "plan verification failed: {m}"),
            GracefulError::Verify(m) => write!(f, "bytecode verification failed: {m}"),
            GracefulError::WorkerPanic { morsel, message } => {
                write!(f, "pool worker panicked at morsel {morsel}: {message}")
            }
        }
    }
}

impl std::error::Error for GracefulError {}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, GracefulError>;

/// The FNV-1a (64-bit) state before any byte: what [`fnv1a`] starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `state` advanced by FNV-1a (64-bit) over `bytes`. A fixed algorithm over
/// explicit bytes (not `std::hash`), so every digest, fingerprint and seed
/// salt built on it is stable across runs, platforms and compiler versions.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Runs `f` on every item of a slice and returns the results in item order.
///
/// The seam between crates that have independent jobs and the one that
/// schedules them: `graceful_runtime::Pool` implements it on its workers,
/// [`Serial`] on the calling thread. The results must not depend on which.
pub trait OrderedMap {
    fn ordered_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync;
}

/// [`OrderedMap`] on the calling thread, one item after the other.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

impl OrderedMap for Serial {
    fn ordered_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        items.iter().enumerate().map(|(i, item)| f(i, item)).collect()
    }
}
