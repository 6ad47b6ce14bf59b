//! The execution engine: the reproduction's stand-in for DuckDB.
//!
//! [`Session::run`] really executes logical plans over `graceful-storage`
//! data — hash joins build and probe real hash tables, filters evaluate real
//! predicates, UDFs are evaluated row by row or in typed batches — and
//! *accounts* every unit of work into a deterministic simulated runtime (see
//! `graceful-udf::costs` for why simulated time replaces wall clocks).
//! Execution also yields the per-operator **actual cardinalities**, which
//! serve as the paper's "Actual" cardinality annotation oracle and as ground
//! truth for evaluating the other estimators.
//!
//! The crate is layered as a small vectorized engine:
//!
//! * [`session`] — [`ExecOptions`], the validating builder, and [`Session`],
//!   the one way to run a query: [`Session::run`], what ships, and
//!   [`Session::run_reference`], the same operators with every execution
//!   shortcut off (boxed batch VM, collecting driver, every join lane
//!   carried) — the oracle the differential suites reach by name. Every
//!   query runs under a configuration that passed [`ExecConfig::validated`]
//!   (environment variables are only documented defaults, applied once by
//!   [`Session::from_env`]);
//! * [`physical`] — the executor: [`physical::lower`] turns a plan into a
//!   [`physical::PhysicalPlan`] whose pipeline shape is a type (build
//!   pipelines, then the root; each a scan, streaming operators and a
//!   sink), audited by [`physical::verify_physical`] and driven by
//!   streaming row [`physical::Batch`]es through each chain of
//!   [`physical::Operator`]s (peak memory O(threads × morsel × depth) for
//!   non-blocking chains); every parallel operator is one morsel stage
//!   around a kernel, so the rebatch / ordered-merge / closed-form-charge
//!   protocol is written once;
//! * [`join`] — the counted, slot-addressed [`join::JoinIndex`] (key →
//!   ascending build rows) the build sink and the sampling estimator build;
//! * [`engine`] — [`ExecConfig`], [`QueryRun`] and [`OperatorWeights`] with
//!   the closed-form work charges, written once;
//! * `udf_eval` — UDF evaluation on the compiled program: the
//!   dictionary-code memo where every input is dictionary-encoded, typed
//!   lanes where it has a columnar path, the boxed batch VM elsewhere;
//! * [`analyze`] — estimator-quality telemetry: an observed run's predicted
//!   cardinalities/costs are scored against the measured truth once, in the
//!   `explain analyze` record [`Session::run_analyzed`] returns, which
//!   feeds the q-error registry histograms and the `graceful-obs` flight
//!   recorder;
//! * [`profile`] — the opt-in per-query [`profile::ExecProfile`]: that one
//!   record (per-operator wall time, rows, batches, work) and, on UDF
//!   operators, the evaluators' `graceful_udf::UdfStats`, attached to
//!   [`QueryRun`] when [`ExecOptions::profile`] is on and explicitly
//!   **outside** the bit-identity contract below.
//!
//! Every data-plane operator runs morsel-parallel on the
//! `graceful-runtime` pool: filters narrow a selection vector per morsel
//! through the compiled row tests of `graceful_plan::predicate`,
//! hash joins probe the build side's index per morsel (none if it is
//! empty), and aggregates fold per-morsel partial states.
//! Work accounting is grouped per morsel and merged in morsel-index order,
//! so results and accounted runtimes are **bit-identical for any thread
//! count and batch size, and between `run` and `run_reference`** — the
//! paper's effects (UDF cost ∝ rows × code path, join cost ∝ input sizes,
//! pull-up crossovers) and the experiment labels never depend on the
//! machine's parallelism or the engine's execution strategy.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod engine;
pub mod join;
pub mod physical;
pub mod profile;
pub mod session;
mod udf_eval;

pub use analyze::{estimated_work, static_udf_row_cost};
pub use engine::{ExecConfig, OperatorWeights, QueryRun};
pub use physical::{Batch, Operator, PhysicalOp, PhysicalOpKind, PhysicalPlan, Pipeline};
pub use profile::ExecProfile;
pub use session::{ExecOptions, Session};
