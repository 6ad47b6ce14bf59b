//! The scalar UDF language of the GRACEFUL reproduction.
//!
//! The paper studies *scalar Python UDFs*: row-by-row functions containing
//! branches, loops, arithmetic and string operations and calls into `math` /
//! `numpy`. CPython is not part of this reproduction, so this crate
//! implements a Python-like UDF language end to end:
//!
//! * [`ast`] — expressions, statements and function definitions,
//! * [`lexer`] / [`parser`] — an indentation-aware Python-subset parser so
//!   UDFs exist as real source text (and round-trip through [`printer`]),
//! * [`libfns`] — the closed registry of `math`/`numpy`/string builtins with
//!   per-call cost weights (the featurization vocabulary of Table I),
//! * [`costs`] — the work-unit cost model that turns interpreted operations
//!   into deterministic simulated nanoseconds,
//! * [`interp`] — a tree-walking interpreter that both *computes* the UDF
//!   result for a row and *accounts* every operation it executes,
//! * [`bytecode`] / [`vm`] — a register-based bytecode compiler (variables
//!   resolved to numeric slots at compile time) and a batch VM that evaluates
//!   compiled UDFs over whole row batches with zero per-row allocation while
//!   producing bit-identical values and costs to the tree-walker,
//! * [`ops`] — the scalar kernels both backends share (the mechanism behind
//!   that bit-identical guarantee),
//! * [`simd`] — a typed columnar execution path over the compiled bytecode:
//!   straight-line numeric segments run column-at-a-time over unboxed lanes
//!   with selection-vector branch divergence, falling back per row to the
//!   VM (at every loop, among others), with values and costs bit-identical
//!   to both backends,
//! * [`memo`] — an exact memo in front of the VM: over dictionary-encoded
//!   inputs, each code tuple is evaluated once and its outcome reused,
//! * [`prune`](mod@prune) — strong liveness over a compiled program: dead
//!   values become their exact charges, so every evaluator computes only
//!   what the UDF returns,
//! * [`prepared`] — the production path: [`PreparedUdf`] is a UDF compiled,
//!   verified and pruned once ([`GeneratedUdf::prepared`] builds it on first
//!   use and shares it), and [`ColumnEvaluator`] the one entry that runs a
//!   program over storage columns, choosing memo, else lanes, else VM,
//! * [`generator`] — the synthetic UDF generator of Section V (0–3 branches,
//!   0–3 loops, 10–150 ops, library calls, data-adaptation actions).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod ast;
pub mod bytecode;
pub mod costs;
pub mod generator;
pub mod interp;
pub mod lexer;
pub mod libfns;
pub mod memo;
pub mod ops;
pub mod parser;
pub mod prepared;
pub mod printer;
pub mod prune;
pub mod simd;
pub mod typecheck;
pub mod vm;

pub use ast::{BinOp, CmpOp, Expr, Stmt, UdfDef, UnOp};
pub use bytecode::{compile, InstrClass, Program, SimdShape, SlotTable};
pub use costs::{CostCounter, CostWeights};
pub use generator::{AdaptAction, GeneratedUdf, UdfGenConfig, UdfGenerator};
pub use interp::{EvalOutcome, Interpreter, MAX_WHILE_ITERS};
pub use libfns::LibFn;
pub use memo::{CodeMemo, MAX_MEMO_CODES};
pub use parser::parse_udf;
pub use prepared::{ColumnEvaluator, PreparedUdf};
pub use printer::print_udf;
pub use prune::prune;
pub use simd::{TypedCol, UdfStats};
pub use typecheck::infer_return_type;
pub use vm::Vm;
