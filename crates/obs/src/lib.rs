//! In-tree observability for the GRACEFUL reproduction: a typed metrics
//! registry, lightweight span tracing and the per-query flight recorder,
//! shared by every layer (runtime pool, execution engine, UDF evaluators,
//! trainer).
//!
//! The crate depends only on std and the in-tree serde shims and sits
//! *below* `graceful-common` in the crate graph, so any crate in the
//! workspace can record into it without cycles.
//!
//! # Design constraints
//!
//! * **Never on a result path.** Metrics, spans and flight records are
//!   write-only from the engine's perspective: nothing in the workspace
//!   reads them to make a decision, so they can never affect the
//!   bit-identity contract (`tests/parallel_determinism.rs` enforces this
//!   end to end).
//! * **One producer per fact.** Each observed fact is made once and every
//!   instrument reads that one value: the UDF evaluators fill one counter
//!   struct (`graceful_udf::UdfStats`) that the profile shows and the
//!   registry sums, and the executor builds one [`flight::FlightRecord`] per
//!   observed query whose q-errors feed the `est.*` histograms and which is
//!   the record appended and returned.
//! * **Near-zero cost when disabled.** The tracer and the recorder share
//!   one armed, capped and flushable sink (`sink.rs`): off, a span or a
//!   record costs a single relaxed atomic load; on, a fixed cap bounds
//!   memory and counts what it drops. Counters are relaxed atomic adds; histograms cap their
//!   retained samples so long corpus builds cannot grow memory without
//!   bound. No recorder measures the disabled overhead today.
//! * **Deterministic merge.** Spans are recorded into per-thread buffers and
//!   merged on export by (timestamp, sequence number); per-morsel spans carry
//!   their morsel index as an argument so worker interleavings remain
//!   attributable.
//!
//! See [`registry`] for counters/gauges/histograms with a snapshot/diff API,
//! [`trace`] for scoped spans exported as Chrome-trace-event JSON
//! (loadable in `chrome://tracing` or <https://ui.perfetto.dev>), and
//! [`flight`] for the per-query JSONL flight recorder capturing predicted
//! vs. actual cardinalities/costs with their q-errors.

#![forbid(unsafe_code)]

pub mod flight;
pub mod registry;
mod sink;
pub mod trace;
