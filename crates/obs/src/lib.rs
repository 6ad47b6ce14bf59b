//! In-tree observability for the GRACEFUL reproduction: a typed metrics
//! registry and lightweight span tracing, shared by every layer (runtime
//! pool, execution engine, UDF backends, trainer).
//!
//! The crate depends only on std and the in-tree serde shims and sits
//! *below* `graceful-common` in the crate graph, so any crate in the
//! workspace can record into it without cycles.
//!
//! # Design constraints
//!
//! * **Never on a result path.** Metrics and spans are write-only from the
//!   engine's perspective: nothing in the workspace reads them to make a
//!   decision, so they can never affect the bit-identity contract
//!   (`tests/parallel_determinism.rs` enforces this end to end).
//! * **Near-zero cost when disabled.** Span construction is a single relaxed
//!   atomic load when tracing is off; counters are relaxed atomic adds;
//!   histograms cap their retained samples so long corpus builds cannot grow
//!   memory without bound. The `obs_overhead` bench pins the disabled
//!   overhead under 2%.
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
pub mod trace;
