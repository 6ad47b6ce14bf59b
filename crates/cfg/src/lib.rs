//! The UDF graph representation of GRACEFUL (Section III-A).
//!
//! The paper derives its UDF representation from the control-flow graph in
//! three steps: (1) compute the CFG, (2) split basic blocks into a
//! *single-statement* CFG, (3) replace loop back-edges with an acyclic
//! `LOOP` / `LOOP_END` encoding plus a residual `LOOP → LOOP_END` edge.
//! This crate performs the three steps in one fused lowering pass over the
//! AST ([`dag::build_dag`]); the result is identical to transforming a
//! block-level CFG because our AST is structured (no `goto`).
//!
//! * [`node`] — the five node types of Table I (`INV`, `COMP`, `BRANCH`,
//!   `LOOP`/`LOOP_END`, `RET`) with their transferable features,
//! * [`dag`] — DAG construction, topological order, execution-probability
//!   propagation (in-rows annotation) and branch-path condition tracing for
//!   the hit-ratio estimator of Section III-B.

#![forbid(unsafe_code)]

pub mod dag;
pub mod node;

pub use dag::{build_dag, BranchPath, ControlPaths, DagConfig, UdfDag};
pub use node::{BranchCondInfo, EdgeKind, LoopKindFeat, UdfNode, UdfNodeKind};
