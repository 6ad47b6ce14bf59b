//! A small, dependency-free neural-network stack.
//!
//! The paper trains its GNN-MLP cost model in PyTorch. The repro hint for
//! this paper flags Rust's graph-NN support as thin (`tch`/`burn` bindings
//! exist but typed DAG message passing is not idiomatic in either), so this
//! crate implements exactly the stack GRACEFUL needs, from scratch:
//!
//! * [`tensor`] — dense row-major `f32` matrices and the one product kernel
//!   every matrix product runs on ([`tensor::matmul_rows`]: each output
//!   element one pinned chain, 32-wide output tiles held in registers), plus
//!   the batched building blocks (row gather/scatter, in-order segment sums,
//!   broadcast bias/activation),
//! * [`tape`] — reverse-mode automatic differentiation over a per-sample
//!   tape with a closed operation set (verified against finite differences),
//! * [`mlp`] — parameter store (Xavier init, Adam with gradient clipping),
//!   linear layers and MLPs,
//! * [`gnn`] — the typed **topological message-passing GNN**: per-node-type
//!   encoders, child-state sum aggregation in topological order, per-type
//!   update networks, and an MLP readout on the root state (Section III-D).
//!   Training and every prediction run on the **batched level-synchronous
//!   engine** — every MLP applied once per (level × type) group, a single
//!   graph being a batch of one. The node-at-a-time tape implementation
//!   stays as the bit-identical differential oracle, reached by name
//!   ([`GnnModel::predict_reference`], [`GnnModel::train_batch_reference`]).
//!
//! Everything is deterministic given the seed, and models serialize with
//! `serde` so trained estimators can be saved and reloaded.

#![forbid(unsafe_code)]

mod batched;
pub mod gnn;
pub mod mlp;
pub mod tape;
pub mod tensor;

pub use gnn::{GnnConfig, GnnModel, TypedGraph};
pub use mlp::{AdamConfig, Linear, Mlp, ParamId, ParamStore};
pub use tape::{Op, Tape, VarId};
pub use tensor::Tensor;
