//! Static analysis of compiled UDF bytecode.
//!
//! [`crate::bytecode::compile`] lowers a UDF into a flat [`Program`](crate::bytecode::Program) that
//! three backends execute — the tree-walker (via the shared slot table), the
//! batch VM and the columnar SIMD executor. Those backends trust a pile of
//! structural invariants (jump targets in bounds, registers written before
//! read, cost markers adjacent to the instructions they describe, every path
//! ending in a return). This module makes that trust *checked*:
//!
//! - [`mod@cfg`] builds a basic-block control-flow graph over the instruction
//!   stream, with edge kinds and dominators.
//! - `dataflow` is the one forward dataflow the verifier needs: definite
//!   initialization, a worklist fixpoint over that graph.
//! - [`verify`](verify::verify) runs on every `compile()` result and turns a
//!   violated invariant into a typed
//!   [`GracefulError::Verify`](graceful_common::GracefulError::Verify)
//!   instead of backend-divergent behaviour or a release-mode panic.
//! - [`tripcount`] reads the trip count of `for` loops whose limit is an
//!   integer literal, which lets
//!   [`Program::simd_shape`](crate::bytecode::Program::simd_shape) reclassify
//!   them from [`InstrClass::Bail`](crate::bytecode::InstrClass::Bail) into
//!   [`InstrClass::Counted`](crate::bytecode::InstrClass::Counted) segments
//!   the columnar executor runs on the lane registers.
//!
//! Every analysis here is conservative: it may say "don't know" but must
//! never claim a fact the interpreters can falsify — the property suite runs
//! the verifier over the whole generated corpus and the counted loops
//! differentially against all three backends to keep it honest.

pub mod cfg;
mod dataflow;
pub mod tripcount;
pub mod verify;

pub use cfg::{Cfg, EdgeKind};
pub use tripcount::{trip_counts, MAX_COUNTED_TRIPS};
pub use verify::verify;
