//! The execution engine: the reproduction's stand-in for DuckDB.
//!
//! [`Executor`] really executes logical plans over `graceful-storage` data —
//! hash joins build and probe real hash tables, filters evaluate real
//! predicates, UDFs are evaluated row by row or in typed batches — and
//! *accounts* every unit of work into a deterministic simulated runtime (see
//! `graceful-udf::costs` for why simulated time replaces wall clocks).
//! Execution also yields the per-operator **actual cardinalities**, which
//! serve as the paper's "Actual" cardinality annotation oracle and as ground
//! truth for evaluating the other estimators.
//!
//! The crate is layered as a small vectorized engine:
//!
//! * [`session`] — [`Session`] / [`ExecOptions`], the validated programmatic
//!   configuration API (environment variables are only documented defaults,
//!   applied once by [`Session::from_env`]);
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
//! * [`engine`] — [`ExecConfig`], [`QueryRun`], [`OperatorWeights`] with the
//!   closed-form work charges, written once, and the [`Executor`] with its
//!   two entry points: [`Executor::run`], what ships, and
//!   [`Executor::run_reference`], the same operators with every execution
//!   shortcut off (boxed batch VM, collecting driver, every join lane
//!   carried) — the oracle the differential suites reach by name;
//! * `udf_eval` — UDF evaluation on the compiled program: the
//!   dictionary-code memo where every input is dictionary-encoded, typed
//!   lanes where it has a columnar path, the boxed batch VM elsewhere;
//! * [`profile`] — the opt-in per-query [`profile::ExecProfile`]
//!   (per-operator wall time, rows, batches, memo-served rows, typed-lane
//!   effectiveness),
//!   attached to [`QueryRun`] when [`ExecOptions::profile`] is on and
//!   explicitly **outside** the bit-identity contract below;
//! * [`analyze`] — estimator-quality telemetry: after every run, predicted
//!   cardinalities/costs are scored against the measured truth (q-error
//!   registry histograms, the `graceful-obs` flight recorder, and the
//!   `explain analyze` record built by [`analyze::flight_record`]).
//!
//! Every data-plane operator runs morsel-parallel on the
//! `graceful-runtime` pool: filters narrow a selection vector per morsel,
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
mod row_test;
pub mod session;
mod udf_eval;

pub use analyze::{estimated_work, flight_record, static_udf_row_cost};
pub use engine::{ExecConfig, Executor, OperatorWeights, QueryRun};
pub use physical::{Batch, Operator, PhysicalOp, PhysicalOpKind, PhysicalPlan, Pipeline};
pub use profile::{ExecProfile, OpProfile, UdfOpProfile};
pub use session::{ExecOptions, Session};
pub use udf_eval::UdfEvalStats;
