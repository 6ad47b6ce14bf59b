//! Typed columnar (SIMD) execution of compiled UDF bytecode.
//!
//! The batch VM in [`crate::vm`] already amortizes compilation and register
//! allocation, but it still walks every instruction once *per row* over boxed
//! [`Value`]s. This module executes the vectorizable parts of a program once
//! per *batch* instead: every live register holds an unboxed column of
//! `i64`/`f64`/`bool` lanes plus a null bitmap, and each instruction is one
//! chunked, auto-vectorizable loop over those lanes.
//!
//! # Execution model
//!
//! A batch is processed in fixed-size chunks ([`SIMD_CHUNK`] rows). Within a
//! chunk, rows travel in **selection groups**: a group is a selection vector
//! (lane → row index), a register file of typed columns, and the program
//! counter all its rows share.
//!
//! * Straight-line numeric instructions ([`InstrClass::Vector`]) execute
//!   column-at-a-time over the whole selection.
//! * Conditional jumps ([`InstrClass::Split`]) evaluate the condition column
//!   and split the selection by truthiness — branch divergence becomes two
//!   smaller groups, each compacted to dense lanes.
//! * `for` loops whose limit is an integer literal
//!   ([`InstrClass::Counted`], see [`crate::analysis::tripcount`]) stay on
//!   the fast path: every row runs the same iterations, so the group unrolls
//!   the loop in lockstep over the lane registers, replaying the scalar VM's
//!   per-iteration charges. The limit lanes are re-checked at run time.
//! * Rows that reach a non-vectorizable instruction ([`InstrClass::Bail`]:
//!   data-dependent loops, string builtins, a not-yet-defined variable read,
//!   or an operand whose runtime type the lane model cannot hold) **leave
//!   the fast path**: their group falls back to the per-row [`Vm::eval`],
//!   which recomputes those rows from scratch with the reference scalar
//!   semantics.
//!
//! # Bit-identical values *and* costs
//!
//! The lane kernels mirror the scalar kernels of [`crate::ops`] expression
//! for expression, so values match bit-for-bit. Costs match because, along a
//! straight-line path, every cost charge is value-independent (string costs —
//! the only data-dependent charges — never vectorize): all rows of a group
//! share one per-row [`CostCounter`] built by replaying the exact charge
//! sequence the scalar VM would perform. The final merge visits rows in row
//! order and merges each row's counter exactly like `Vm::eval_batch` does, so
//! the accumulated `f64` totals are bit-identical, batch after batch.

use crate::bytecode::{Instr, InstrClass, Operand, Program, SimdShape};
use crate::costs::CostCounter;
use crate::interp::EvalOutcome;
use crate::libfns::LibFn;
use crate::ops::{f64_to_i64, np_clip, np_sign, sanitize};
use crate::vm::Vm;
use graceful_common::{GracefulError, Result};
use graceful_storage::{Column, ColumnData, DataType, Value};

/// Rows per internal chunk: bounds lane-buffer memory and keeps the working
/// set cache-resident. The execution engine's `GRACEFUL_UDF_BATCH` default
/// matches it, so engine batches are exactly one chunk.
pub const SIMD_CHUNK: usize = 1024;

/// Divergence cap per chunk: once this many selection groups have been
/// spawned, further splits fall back to the scalar VM instead of dividing
/// again (a chain of `k` short-circuit conditions can otherwise spawn `2^k`
/// groups). Deterministic, and purely a performance valve — fallback rows
/// produce identical results.
const MAX_GROUPS: usize = 64;

// ---------------------------------------------------------------------------
// Typed input columns

/// An unboxed input column for one UDF parameter: dense typed data plus a
/// null bitmap, gathered straight from storage without materializing
/// [`Value`]s. Text columns have no typed representation — batches over them
/// take the scalar path.
#[derive(Debug, Clone, PartialEq)]
pub enum TypedCol {
    Int { data: Vec<i64>, nulls: Vec<bool> },
    Float { data: Vec<f64>, nulls: Vec<bool> },
    Bool { data: Vec<bool>, nulls: Vec<bool> },
}

impl TypedCol {
    /// An empty column of the lane type matching `dt`, with `cap` rows
    /// preallocated. `None` for Text — there is no unboxed lane type for it.
    pub fn for_type(dt: DataType, cap: usize) -> Option<TypedCol> {
        match dt {
            DataType::Int => Some(TypedCol::Int {
                data: Vec::with_capacity(cap),
                nulls: Vec::with_capacity(cap),
            }),
            DataType::Float => Some(TypedCol::Float {
                data: Vec::with_capacity(cap),
                nulls: Vec::with_capacity(cap),
            }),
            DataType::Bool => Some(TypedCol::Bool {
                data: Vec::with_capacity(cap),
                nulls: Vec::with_capacity(cap),
            }),
            DataType::Text => None,
        }
    }

    /// Refill from a storage column via its typed-slice accessors, gathering
    /// the given row ids. The column's type must match `self`'s lane type
    /// (callers fix the type once per operator via [`TypedCol::for_type`]).
    ///
    /// Dictionary-encoded integer columns decode straight into the lanes
    /// here — a per-row dictionary lookup, never a boxed
    /// [`graceful_storage::Value`] — so the columnar fast path runs unchanged
    /// over compressed storage.
    pub fn fill_from_column(
        &mut self,
        col: &Column,
        rids: impl Iterator<Item = usize>,
    ) -> Result<()> {
        let mismatch =
            || GracefulError::Eval(format!("column {} does not match its typed buffer", col.name));
        match self {
            TypedCol::Int { data, nulls } => {
                data.clear();
                nulls.clear();
                match &col.data {
                    ColumnData::Int(src) => {
                        for rid in rids {
                            data.push(src[rid]);
                            nulls.push(col.nulls[rid]);
                        }
                    }
                    ColumnData::DictInt { codes, dict } => {
                        for rid in rids {
                            data.push(dict[codes[rid] as usize]);
                            nulls.push(col.nulls[rid]);
                        }
                    }
                    _ => return Err(mismatch()),
                }
            }
            TypedCol::Float { data, nulls } => {
                let src = col.float_data().ok_or_else(mismatch)?;
                data.clear();
                nulls.clear();
                for rid in rids {
                    data.push(src[rid]);
                    nulls.push(col.nulls[rid]);
                }
            }
            TypedCol::Bool { data, nulls } => {
                let src = col.bool_data().ok_or_else(mismatch)?;
                data.clear();
                nulls.clear();
                for rid in rids {
                    data.push(src[rid]);
                    nulls.push(col.nulls[rid]);
                }
            }
        }
        Ok(())
    }

    /// Reset to `n` rows of the lane type's zero value with a clean (all
    /// non-null) mask: how an operator sizes the lane buffers its workers
    /// clone, once, before any row is gathered.
    pub fn fill_zero(&mut self, n: usize) {
        match self {
            TypedCol::Int { data, nulls } => {
                data.clear();
                data.resize(n, 0);
                nulls.clear();
                nulls.resize(n, false);
            }
            TypedCol::Float { data, nulls } => {
                data.clear();
                data.resize(n, 0.0);
                nulls.clear();
                nulls.resize(n, false);
            }
            TypedCol::Bool { data, nulls } => {
                data.clear();
                data.resize(n, false);
                nulls.clear();
                nulls.resize(n, false);
            }
        }
    }

    /// Convert a uniformly-typed `Value` column (bench/test convenience).
    /// `None` when the column mixes non-null types or contains Text.
    pub fn from_values(vals: &[Value]) -> Option<TypedCol> {
        let ty = vals.iter().find_map(Value::data_type).unwrap_or(DataType::Int);
        let mut out = TypedCol::for_type(ty, vals.len())?;
        for v in vals {
            let ok = match (&mut out, v) {
                (TypedCol::Int { data, nulls }, Value::Int(i)) => {
                    data.push(*i);
                    nulls.push(false);
                    true
                }
                (TypedCol::Int { data, nulls }, Value::Null) => {
                    data.push(0);
                    nulls.push(true);
                    true
                }
                (TypedCol::Float { data, nulls }, Value::Float(f)) => {
                    data.push(*f);
                    nulls.push(false);
                    true
                }
                (TypedCol::Float { data, nulls }, Value::Null) => {
                    data.push(0.0);
                    nulls.push(true);
                    true
                }
                (TypedCol::Bool { data, nulls }, Value::Bool(b)) => {
                    data.push(*b);
                    nulls.push(false);
                    true
                }
                (TypedCol::Bool { data, nulls }, Value::Null) => {
                    data.push(false);
                    nulls.push(true);
                    true
                }
                _ => false,
            };
            if !ok {
                return None;
            }
        }
        Some(out)
    }

    pub fn len(&self) -> usize {
        match self {
            TypedCol::Int { data, .. } => data.len(),
            TypedCol::Float { data, .. } => data.len(),
            TypedCol::Bool { data, .. } => data.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Boxed value at `row` (for the scalar fallback's argument gather).
    pub fn value(&self, row: usize) -> Value {
        match self {
            TypedCol::Int { data, nulls } => {
                if nulls[row] {
                    Value::Null
                } else {
                    Value::Int(data[row])
                }
            }
            TypedCol::Float { data, nulls } => {
                if nulls[row] {
                    Value::Null
                } else {
                    Value::Float(data[row])
                }
            }
            TypedCol::Bool { data, nulls } => {
                if nulls[row] {
                    Value::Null
                } else {
                    Value::Bool(data[row])
                }
            }
        }
    }

    /// Lane view of rows `range`, as the executor's internal column type.
    fn lane_col(&self, range: std::ops::Range<usize>) -> LaneCol {
        match self {
            TypedCol::Int { data, nulls } => LaneCol {
                lanes: Lanes::Int(data[range.clone()].to_vec()),
                nulls: nulls[range].to_vec(),
            },
            TypedCol::Float { data, nulls } => LaneCol {
                lanes: Lanes::Float(data[range.clone()].to_vec()),
                nulls: nulls[range].to_vec(),
            },
            TypedCol::Bool { data, nulls } => LaneCol {
                lanes: Lanes::Bool(data[range.clone()].to_vec()),
                nulls: nulls[range].to_vec(),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Lane columns (internal register representation)

/// Typed lanes of one virtual register across a selection group.
#[derive(Debug, Clone)]
enum Lanes {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
}

/// A register column: lanes plus a null bitmap (one bool per lane, the same
/// representation storage uses for its null bitmaps).
#[derive(Debug, Clone)]
struct LaneCol {
    lanes: Lanes,
    nulls: Vec<bool>,
}

impl LaneCol {
    /// The SQL-NULL column: lane values are never read through the set mask.
    fn all_null(n: usize) -> LaneCol {
        LaneCol { lanes: Lanes::Float(vec![0.0; n]), nulls: vec![true; n] }
    }

    fn broadcast(v: &Value, n: usize) -> Option<LaneCol> {
        Some(match v {
            Value::Int(i) => LaneCol { lanes: Lanes::Int(vec![*i; n]), nulls: vec![false; n] },
            Value::Float(f) => LaneCol { lanes: Lanes::Float(vec![*f; n]), nulls: vec![false; n] },
            Value::Bool(b) => LaneCol { lanes: Lanes::Bool(vec![*b; n]), nulls: vec![false; n] },
            Value::Null => LaneCol::all_null(n),
            Value::Text(_) => return None,
        })
    }

    /// Widen to `f64` lanes following `Value::as_f64` (ints widen, bools map
    /// to 0/1). Null lanes keep whatever value sits there — masked.
    fn to_f64(&self) -> Vec<f64> {
        match &self.lanes {
            Lanes::Float(v) => v.clone(),
            Lanes::Int(v) => v.iter().map(|&x| x as f64).collect(),
            Lanes::Bool(v) => v.iter().map(|&b| b as u8 as f64).collect(),
        }
    }

    /// Truthiness per lane, following `Value::truthy` (NULL is falsy).
    fn truthy(&self) -> Vec<bool> {
        let mut out = match &self.lanes {
            Lanes::Int(v) => v.iter().map(|&x| x != 0).collect::<Vec<bool>>(),
            Lanes::Float(v) => v.iter().map(|&x| x != 0.0).collect(),
            Lanes::Bool(v) => v.clone(),
        };
        for (o, &null) in out.iter_mut().zip(&self.nulls) {
            *o = *o && !null;
        }
        out
    }

    /// Keep only the lanes listed in `keep` (selection compaction).
    fn filter(&self, keep: &[u32]) -> LaneCol {
        let lanes = match &self.lanes {
            Lanes::Int(v) => Lanes::Int(keep.iter().map(|&i| v[i as usize]).collect()),
            Lanes::Float(v) => Lanes::Float(keep.iter().map(|&i| v[i as usize]).collect()),
            Lanes::Bool(v) => Lanes::Bool(keep.iter().map(|&i| v[i as usize]).collect()),
        };
        LaneCol { lanes, nulls: keep.iter().map(|&i| self.nulls[i as usize]).collect() }
    }

    /// Boxed value of lane `i`.
    fn value(&self, i: usize) -> Value {
        if self.nulls[i] {
            return Value::Null;
        }
        match &self.lanes {
            Lanes::Int(v) => Value::Int(v[i]),
            Lanes::Float(v) => Value::Float(v[i]),
            Lanes::Bool(v) => Value::Bool(v[i]),
        }
    }
}

// ---------------------------------------------------------------------------
// Selection groups

/// Rows sharing one control-flow history: a selection vector, the typed
/// register file, and the per-row cost replayed along the shared path.
struct Group {
    pc: usize,
    /// Selection vector: lane `i` is chunk row `sel[i]`.
    sel: Vec<u32>,
    regs: Vec<Option<LaneCol>>,
    defined: Vec<bool>,
    /// The exact per-row `CostCounter` every row of this group has accrued.
    cost: CostCounter,
}

impl Group {
    fn filtered(&self, pc: usize, keep: &[u32]) -> Group {
        Group {
            pc,
            sel: keep.iter().map(|&i| self.sel[i as usize]).collect(),
            regs: self.regs.iter().map(|r| r.as_ref().map(|c| c.filter(keep))).collect(),
            defined: self.defined.clone(),
            cost: self.cost.clone(),
        }
    }
}

/// Outcome of one chunk row.
enum RowResult {
    /// Completed on the fast path; cost lives in the group's shared counter.
    Columnar { value: Value, group: u32 },
    /// Fell back to the scalar VM.
    Scalar(EvalOutcome),
    /// Scalar fallback failed; surfaced in row order like `Vm::eval_batch`.
    Failed(GracefulError),
}

// ---------------------------------------------------------------------------
// Public entry points

/// Fast-path effectiveness counters for one (or more, when accumulated)
/// typed-batch evaluations. Observability only: the engine never reads these
/// to make a decision, so they cannot affect results. The per-row bail rate
/// (`bail_rows / rows`) is the signal the SIMD fast-path widening work
/// tracks: it is exactly the fraction of rows the lane model could not keep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimdBatchStats {
    /// Rows evaluated in total.
    pub rows: u64,
    /// Rows completed on the columnar fast path.
    pub fast_rows: u64,
    /// Rows that fell back to the scalar VM (bail opcodes, untyped lanes,
    /// group-budget exhaustion, undefined reads).
    pub bail_rows: u64,
    /// True control-flow divergences that split a selection group in two.
    pub group_splits: u64,
}

impl SimdBatchStats {
    /// Accumulate another batch's counters into this one.
    pub fn merge(&mut self, other: &SimdBatchStats) {
        self.rows += other.rows;
        self.fast_rows += other.fast_rows;
        self.bail_rows += other.bail_rows;
        self.group_splits += other.group_splits;
    }
}

/// Evaluate a batch with the columnar fast path, falling back row-by-row to
/// the scalar VM wherever the lane model cannot follow. Appends one value per
/// row to `out` and merges per-row costs into `cost` **in row order** —
/// values, errors and `CostCounter` totals are bit-identical to
/// [`Vm::eval_batch`] (and therefore to a tree-walker row loop).
pub fn eval_batch_typed(
    vm: &mut Vm,
    prog: &Program,
    shape: &SimdShape,
    cols: &[TypedCol],
    out: &mut Vec<Value>,
    cost: &mut CostCounter,
) -> Result<()> {
    eval_batch_typed_with_stats(vm, prog, shape, cols, out, cost, &mut SimdBatchStats::default())
}

/// [`eval_batch_typed`] that additionally accumulates fast-path
/// effectiveness counters into `stats`. Values, errors and costs are
/// unaffected by the accounting (it only observes which `RowResult` variant
/// each row produced), so this is what the execution engine's instrumented
/// UDF path calls.
pub fn eval_batch_typed_with_stats(
    vm: &mut Vm,
    prog: &Program,
    shape: &SimdShape,
    cols: &[TypedCol],
    out: &mut Vec<Value>,
    cost: &mut CostCounter,
    stats: &mut SimdBatchStats,
) -> Result<()> {
    if cols.len() != prog.n_params() {
        return Err(GracefulError::Eval(format!(
            "{} expects {} args, got {} columns",
            prog.name,
            prog.n_params(),
            cols.len()
        )));
    }
    // A shape computed for a different (or since-recompiled) program would
    // misclassify instructions — the executor indexes `shape.class[pc]`
    // unchecked past this point.
    if shape.class.len() != prog.instrs.len() {
        return Err(GracefulError::Verify(format!(
            "{}: SIMD shape covers {} instructions but the program has {}",
            prog.name,
            shape.class.len(),
            prog.instrs.len()
        )));
    }
    let rows = cols.first().map_or(0, TypedCol::len);
    if let Some(bad) = cols.iter().find(|c| c.len() != rows) {
        return Err(GracefulError::Eval(format!(
            "{}: ragged batch: column of {} rows, expected {rows}",
            prog.name,
            bad.len()
        )));
    }
    out.reserve(rows);
    let mut start = 0;
    while start < rows {
        let end = (start + SIMD_CHUNK).min(rows);
        let (results, group_costs, groups_spawned) = run_chunk(vm, prog, shape, cols, start..end)?;
        // Every divergence spawned two child groups on top of the root.
        stats.group_splits += ((groups_spawned - 1) / 2) as u64;
        // Ordered merge: one value push + one cost merge per row, exactly the
        // per-row cadence of `Vm::eval_batch`; the first failing row wins.
        for r in results {
            stats.rows += 1;
            match r {
                RowResult::Columnar { value, group } => {
                    stats.fast_rows += 1;
                    out.push(value);
                    cost.merge(&group_costs[group as usize]);
                }
                RowResult::Scalar(o) => {
                    stats.bail_rows += 1;
                    out.push(o.value);
                    cost.merge(&o.cost);
                }
                RowResult::Failed(e) => return Err(e),
            }
        }
        start = end;
    }
    Ok(())
}

/// Convenience wrapper over boxed `Value` columns (benches, tests): converts
/// each column to its typed form when possible, otherwise delegates the whole
/// batch to [`Vm::eval_batch`]. Results are identical either way.
pub fn eval_batch_values(
    vm: &mut Vm,
    prog: &Program,
    shape: &SimdShape,
    cols: &[&[Value]],
    out: &mut Vec<Value>,
    cost: &mut CostCounter,
) -> Result<()> {
    if shape.has_fast_path {
        let typed: Option<Vec<TypedCol>> = cols.iter().map(|c| TypedCol::from_values(c)).collect();
        if let Some(typed) = typed {
            if cols.len() == prog.n_params() {
                return eval_batch_typed(vm, prog, shape, &typed, out, cost);
            }
        }
    }
    vm.eval_batch(prog, cols, out, cost)
}

// ---------------------------------------------------------------------------
// Chunk execution

/// Why a group leaves the fast path (all variants route to the scalar VM).
struct Bail;

type Kernel<T> = std::result::Result<T, Bail>;

fn run_chunk(
    vm: &mut Vm,
    prog: &Program,
    shape: &SimdShape,
    cols: &[TypedCol],
    range: std::ops::Range<usize>,
) -> Result<(Vec<RowResult>, Vec<CostCounter>, usize)> {
    let n = range.len();
    let w = vm.weights().clone();
    let mut results: Vec<Option<RowResult>> = (0..n).map(|_| None).collect();
    let mut group_costs: Vec<CostCounter> = Vec::new();

    // Root group: all chunk rows, parameters gathered into lane columns.
    let n_slots = prog.slots.len();
    let mut regs: Vec<Option<LaneCol>> = (0..prog.n_regs as usize).map(|_| None).collect();
    for (slot, col) in cols.iter().enumerate() {
        regs[slot] = Some(col.lane_col(range.clone()));
    }
    let mut defined = vec![false; n_slots];
    for d in defined.iter_mut().take(prog.n_params()) {
        *d = true;
    }
    let mut root_cost = CostCounter::new();
    // Typed columns carry no text, so the invocation conversion charge is the
    // exact expression `Vm::eval_batch` computes with zero text chars.
    root_cost.add_invocation(&w, cols.len(), 0);
    let mut worklist =
        vec![Group { pc: 0, sel: (0..n as u32).collect(), regs, defined, cost: root_cost }];
    let mut groups_spawned = 1usize;

    while let Some(mut g) = worklist.pop() {
        if g.sel.is_empty() {
            continue;
        }
        loop {
            let pc = g.pc;
            if shape.class[pc] == InstrClass::Bail {
                fallback_group(vm, prog, cols, range.start, &g, &mut results);
                break;
            }
            match &prog.instrs[pc] {
                Instr::Copy { dst, src } => {
                    let col = match resolve_owned(&g, &prog.consts, *src) {
                        Ok(c) => c,
                        Err(Bail) => {
                            fallback_group(vm, prog, cols, range.start, &g, &mut results);
                            break;
                        }
                    };
                    g.regs[*dst as usize] = Some(col);
                }
                Instr::Unary { op, dst, src } => {
                    g.cost.add_arith(&w, false);
                    let out = match resolve(&g, &prog.consts, *src)
                        .and_then(|s| unary_kernel(*op, s, g.sel.len()))
                    {
                        Ok(c) => c,
                        Err(Bail) => {
                            fallback_group(vm, prog, cols, range.start, &g, &mut results);
                            break;
                        }
                    };
                    g.regs[*dst as usize] = Some(out);
                }
                Instr::Binary { op, dst, l, r } => {
                    let slow = matches!(
                        op,
                        crate::ast::BinOp::Pow
                            | crate::ast::BinOp::FloorDiv
                            | crate::ast::BinOp::Mod
                    );
                    g.cost.add_arith(&w, slow);
                    let out = match binary_dispatch(&g, &prog.consts, *op, *l, *r) {
                        Ok(c) => c,
                        Err(Bail) => {
                            fallback_group(vm, prog, cols, range.start, &g, &mut results);
                            break;
                        }
                    };
                    g.regs[*dst as usize] = Some(out);
                }
                Instr::Compare { op, dst, l, r } => {
                    g.cost.add_compare(&w);
                    let out = match compare_dispatch(&g, &prog.consts, *op, *l, *r) {
                        Ok(c) => c,
                        Err(Bail) => {
                            fallback_group(vm, prog, cols, range.start, &g, &mut results);
                            break;
                        }
                    };
                    g.regs[*dst as usize] = Some(out);
                }
                Instr::CastBool { dst, src } => {
                    let out = match resolve(&g, &prog.consts, *src) {
                        Ok(Src::Col(c)) => LaneCol {
                            lanes: Lanes::Bool(c.truthy()),
                            nulls: vec![false; g.sel.len()],
                        },
                        Ok(Src::Const(v)) => LaneCol {
                            lanes: Lanes::Bool(vec![v.truthy(); g.sel.len()]),
                            nulls: vec![false; g.sel.len()],
                        },
                        Err(Bail) => {
                            fallback_group(vm, prog, cols, range.start, &g, &mut results);
                            break;
                        }
                    };
                    g.regs[*dst as usize] = Some(out);
                }
                Instr::Call { func, dst, base, n_args, has_recv } => {
                    g.cost.add_lib_call(*func);
                    if *has_recv {
                        // String methods only; their shape class is Bail, so
                        // a receiver here means an unexpected combination —
                        // take the safe road.
                        fallback_group(vm, prog, cols, range.start, &g, &mut results);
                        break;
                    }
                    let out = match call_kernel(&g, *func, *base as usize, *n_args as usize) {
                        Ok(c) => c,
                        Err(Bail) => {
                            fallback_group(vm, prog, cols, range.start, &g, &mut results);
                            break;
                        }
                    };
                    g.regs[*dst as usize] = Some(out);
                }
                Instr::Jump { target } => {
                    g.pc = *target as usize;
                    continue;
                }
                Instr::JumpIfFalse { cond, target } | Instr::JumpIfTrue { cond, target } => {
                    let on_true_stays = matches!(&prog.instrs[pc], Instr::JumpIfFalse { .. });
                    let truthy = match resolve(&g, &prog.consts, *cond) {
                        Ok(Src::Col(c)) => c.truthy(),
                        Ok(Src::Const(v)) => {
                            // Uniform condition: the whole group follows one
                            // edge, no divergence.
                            if v.truthy() == on_true_stays {
                                g.pc = pc + 1;
                            } else {
                                g.pc = *target as usize;
                            }
                            continue;
                        }
                        Err(Bail) => {
                            fallback_group(vm, prog, cols, range.start, &g, &mut results);
                            break;
                        }
                    };
                    let mut stay: Vec<u32> = Vec::new();
                    let mut jump: Vec<u32> = Vec::new();
                    for (i, &t) in truthy.iter().enumerate() {
                        if t == on_true_stays {
                            stay.push(i as u32);
                        } else {
                            jump.push(i as u32);
                        }
                    }
                    if jump.is_empty() {
                        g.pc = pc + 1;
                        continue;
                    }
                    if stay.is_empty() {
                        g.pc = *target as usize;
                        continue;
                    }
                    // True divergence: compact each side into its own group.
                    if groups_spawned + 2 > MAX_GROUPS {
                        fallback_group(vm, prog, cols, range.start, &g, &mut results);
                        break;
                    }
                    groups_spawned += 2;
                    worklist.push(g.filtered(pc + 1, &stay));
                    worklist.push(g.filtered(*target as usize, &jump));
                    break;
                }
                Instr::Cost(kind) => match kind {
                    crate::bytecode::CostKind::Stmt => g.cost.add_stmt(&w),
                    crate::bytecode::CostKind::Assign => g.cost.add_assign(&w),
                    crate::bytecode::CostKind::Branch => g.cost.add_branch(&w),
                    crate::bytecode::CostKind::Compare => g.cost.add_compare(&w),
                },
                Instr::CheckDef { slot } => {
                    if !g.defined[*slot as usize] {
                        // Every row of this group reads an undefined variable;
                        // the scalar VM reports the exact per-row error.
                        fallback_group(vm, prog, cols, range.start, &g, &mut results);
                        break;
                    }
                }
                Instr::MarkDef { slot } => {
                    g.defined[*slot as usize] = true;
                }
                Instr::Return { src } => {
                    g.cost.add_return(&w);
                    let gid = group_costs.len() as u32;
                    group_costs.push(g.cost.clone());
                    match resolve(&g, &prog.consts, *src) {
                        Ok(Src::Col(c)) => {
                            for (i, &row) in g.sel.iter().enumerate() {
                                results[row as usize] =
                                    Some(RowResult::Columnar { value: c.value(i), group: gid });
                            }
                        }
                        Ok(Src::Const(v)) => {
                            for &row in &g.sel {
                                results[row as usize] =
                                    Some(RowResult::Columnar { value: v.clone(), group: gid });
                            }
                        }
                        Err(Bail) => {
                            group_costs.pop();
                            fallback_group(vm, prog, cols, range.start, &g, &mut results);
                        }
                    }
                    break;
                }
                Instr::ReturnNull => {
                    g.cost.add_return(&w);
                    let gid = group_costs.len() as u32;
                    group_costs.push(g.cost.clone());
                    for &row in &g.sel {
                        results[row as usize] =
                            Some(RowResult::Columnar { value: Value::Null, group: gid });
                    }
                    break;
                }
                // Counted loops (`InstrClass::Counted`): the limit is an
                // integer literal, so the group unrolls the loop in lockstep —
                // every lane runs the same iterations, replaying the exact
                // per-iteration charges of `Vm::run`. The limit is re-checked
                // at run time (uniform non-null Int across the lanes); any
                // surprise degrades to the scalar fallback, never to a wrong
                // answer.
                Instr::ForInit { counter, limit, src } => {
                    let n_lanes = g.sel.len();
                    let trips = match resolve(&g, &prog.consts, *src) {
                        Ok(Src::Const(Value::Int(n))) => Some((*n).max(0)),
                        Ok(Src::Col(c)) => uniform_int(c).map(|n| n.max(0)),
                        _ => None,
                    };
                    let Some(n) = trips else {
                        fallback_group(vm, prog, cols, range.start, &g, &mut results);
                        break;
                    };
                    g.regs[*limit as usize] = Some(broadcast_int(n, n_lanes));
                    g.regs[*counter as usize] = Some(broadcast_int(0, n_lanes));
                }
                Instr::ForNext { counter, limit, var_slot, exit } => {
                    let n_lanes = g.sel.len();
                    let c = g.regs[*counter as usize].as_ref().and_then(uniform_int);
                    let n = g.regs[*limit as usize].as_ref().and_then(uniform_int);
                    let (Some(c), Some(n)) = (c, n) else {
                        fallback_group(vm, prog, cols, range.start, &g, &mut results);
                        break;
                    };
                    if c < n {
                        // Same charge point as the scalar VM: one loop_iter
                        // per entered iteration, before the body.
                        g.cost.add_loop_iter(&w);
                        g.regs[*var_slot as usize] = Some(broadcast_int(c, n_lanes));
                        g.defined[*var_slot as usize] = true;
                        g.regs[*counter as usize] = Some(broadcast_int(c + 1, n_lanes));
                    } else {
                        g.pc = *exit as usize;
                        continue;
                    }
                }
                // While loops are always Bail-class and intercepted before
                // this match; reaching here means a corrupt shape — take the
                // safe road.
                Instr::WhileInit { .. } | Instr::WhileIter { .. } => {
                    fallback_group(vm, prog, cols, range.start, &g, &mut results);
                    break;
                }
            }
            g.pc = pc + 1;
        }
    }
    // Every row must have resolved (columnar return, scalar fallback, or a
    // recorded error). A gap is a bookkeeping bug in this module — surface
    // it as a typed error rather than a release-mode panic mid-query.
    let mut resolved = Vec::with_capacity(results.len());
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Some(r) => resolved.push(r),
            None => {
                return Err(GracefulError::Verify(format!(
                    "{}: chunk row {i} never resolved to a result",
                    prog.name
                )))
            }
        }
    }
    Ok((resolved, group_costs, groups_spawned))
}

/// Re-run every row of `g` on the scalar VM (the authentic per-row
/// semantics, including errors), recording per-row outcomes.
fn fallback_group(
    vm: &mut Vm,
    prog: &Program,
    cols: &[TypedCol],
    chunk_start: usize,
    g: &Group,
    results: &mut [Option<RowResult>],
) {
    let mut args: Vec<Value> = Vec::with_capacity(cols.len());
    for &row in &g.sel {
        args.clear();
        args.extend(cols.iter().map(|c| c.value(chunk_start + row as usize)));
        results[row as usize] = Some(match vm.eval(prog, &args) {
            Ok(o) => RowResult::Scalar(o),
            Err(e) => RowResult::Failed(e),
        });
    }
}

/// One `Int` value broadcast across `n` non-null lanes (loop counters and
/// limits of counted loops).
fn broadcast_int(v: i64, n: usize) -> LaneCol {
    LaneCol { lanes: Lanes::Int(vec![v; n]), nulls: vec![false; n] }
}

/// The single `Int` every lane of `c` holds, if the column is uniform,
/// non-null and int-typed — the run-time guard of counted-loop execution.
fn uniform_int(c: &LaneCol) -> Option<i64> {
    if c.nulls.iter().any(|&b| b) {
        return None;
    }
    match &c.lanes {
        Lanes::Int(v) => {
            let first = *v.first()?;
            v.iter().all(|&x| x == first).then_some(first)
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Operand resolution

enum Src<'a> {
    Col(&'a LaneCol),
    Const(&'a Value),
}

fn resolve<'a>(g: &'a Group, consts: &'a [Value], op: Operand) -> Kernel<Src<'a>> {
    if op.is_const() {
        Ok(Src::Const(&consts[op.index()]))
    } else {
        match &g.regs[op.index()] {
            Some(c) => Ok(Src::Col(c)),
            None => Err(Bail),
        }
    }
}

fn resolve_owned(g: &Group, consts: &[Value], op: Operand) -> Kernel<LaneCol> {
    match resolve(g, consts, op)? {
        Src::Col(c) => Ok(c.clone()),
        Src::Const(v) => LaneCol::broadcast(v, g.sel.len()).ok_or(Bail),
    }
}

/// Materialize a source as a lane column (broadcasting constants).
fn materialize<'a>(s: Src<'a>, n: usize) -> Kernel<std::borrow::Cow<'a, LaneCol>> {
    match s {
        Src::Col(c) => Ok(std::borrow::Cow::Borrowed(c)),
        Src::Const(v) => Ok(std::borrow::Cow::Owned(LaneCol::broadcast(v, n).ok_or(Bail)?)),
    }
}

// ---------------------------------------------------------------------------
// Lane kernels (mirroring crate::ops expression for expression)

fn unary_kernel(op: crate::ast::UnOp, src: Src<'_>, n: usize) -> Kernel<LaneCol> {
    let col = materialize(src, n)?;
    Ok(match op {
        crate::ast::UnOp::Neg => match &col.lanes {
            Lanes::Int(v) => LaneCol {
                lanes: Lanes::Int(v.iter().map(|x| x.wrapping_neg()).collect()),
                nulls: col.nulls.clone(),
            },
            Lanes::Float(v) => LaneCol {
                lanes: Lanes::Float(v.iter().map(|x| -x).collect()),
                nulls: col.nulls.clone(),
            },
            Lanes::Bool(_) => LaneCol::all_null(n),
        },
        crate::ast::UnOp::Not => {
            let t = col.truthy();
            LaneCol { lanes: Lanes::Bool(t.iter().map(|&b| !b).collect()), nulls: vec![false; n] }
        }
    })
}

fn binary_dispatch(
    g: &Group,
    consts: &[Value],
    op: crate::ast::BinOp,
    l: Operand,
    r: Operand,
) -> Kernel<LaneCol> {
    use crate::ast::BinOp;
    let n = g.sel.len();
    let ls = resolve(g, consts, l)?;
    let rs = resolve(g, consts, r)?;
    // `Int ** Int` picks its result type from the exponent's value; only a
    // constant exponent keeps the lane type static, so an int base with a
    // dynamic int exponent bails (float bases never hit the int fast path).
    let int_pow_exponent = if op == BinOp::Pow {
        let l_is_int = matches!(&ls, Src::Col(c) if matches!(c.lanes, Lanes::Int(_)))
            || matches!(&ls, Src::Const(Value::Int(_)));
        match &rs {
            Src::Const(Value::Int(k)) => Some(*k),
            Src::Col(c) if l_is_int && matches!(c.lanes, Lanes::Int(_)) => return Err(Bail),
            _ => None,
        }
    } else {
        None
    };
    let lc = materialize(ls, n)?;
    let rc = materialize(rs, n)?;
    let mut nulls: Vec<bool> = lc.nulls.iter().zip(&rc.nulls).map(|(&a, &b)| a | b).collect();
    if let (Lanes::Int(a), Lanes::Int(b)) = (&lc.lanes, &rc.lanes) {
        // Integer fast path of `ops::apply_binary`: int-typed data stays int.
        let lanes = match op {
            BinOp::Add => Lanes::Int(zip_i64(a, b, |x, y| x.wrapping_add(y))),
            BinOp::Sub => Lanes::Int(zip_i64(a, b, |x, y| x.wrapping_sub(y))),
            BinOp::Mul => Lanes::Int(zip_i64(a, b, |x, y| x.wrapping_mul(y))),
            BinOp::Div => {
                for (nl, &y) in nulls.iter_mut().zip(b) {
                    *nl |= y == 0;
                }
                // Zero divisors are masked above; write 0.0 instead of the
                // ±inf/NaN the division would leave, so masked-lane garbage
                // never reaches a downstream kernel.
                Lanes::Float(zip_i64_f(a, b, |x, y| if y == 0 { 0.0 } else { x as f64 / y as f64 }))
            }
            BinOp::Mod => {
                for (nl, &y) in nulls.iter_mut().zip(b) {
                    *nl |= y == 0;
                }
                Lanes::Int(zip_i64(a, b, |x, y| x.checked_rem_euclid(y).unwrap_or(0)))
            }
            BinOp::FloorDiv => {
                for (nl, &y) in nulls.iter_mut().zip(b) {
                    *nl |= y == 0;
                }
                Lanes::Int(zip_i64(a, b, |x, y| x.checked_div_euclid(y).unwrap_or(i64::MAX)))
            }
            BinOp::Pow => {
                // The dispatch above bailed every int-base/dynamic-int-
                // exponent combination; a `None` here would mean that guard
                // rotted, so refuse the selection instead of guessing.
                let Some(k) = int_pow_exponent else { return Err(Bail) };
                if (0..=16).contains(&k) {
                    Lanes::Int(a.iter().map(|&x| x.saturating_pow(k as u32)).collect())
                } else {
                    Lanes::Float(a.iter().map(|&x| (x as f64).powf(k as f64)).collect())
                }
            }
        };
        return Ok(LaneCol { lanes, nulls });
    }
    // Float path: widen both sides, sanitize like the scalar kernel.
    let a = lc.to_f64();
    let b = rc.to_f64();
    let mut vals = vec![0.0f64; n];
    match op {
        BinOp::Add => {
            for i in 0..n {
                vals[i] = sanitize(a[i] + b[i]);
            }
        }
        BinOp::Sub => {
            for i in 0..n {
                vals[i] = sanitize(a[i] - b[i]);
            }
        }
        BinOp::Mul => {
            for i in 0..n {
                vals[i] = sanitize(a[i] * b[i]);
            }
        }
        BinOp::Div => {
            for i in 0..n {
                if b[i] == 0.0 {
                    nulls[i] = true;
                } else {
                    vals[i] = sanitize(a[i] / b[i]);
                }
            }
        }
        BinOp::Mod => {
            for i in 0..n {
                if b[i] == 0.0 {
                    nulls[i] = true;
                } else {
                    vals[i] = sanitize(a[i].rem_euclid(b[i]));
                }
            }
        }
        BinOp::FloorDiv => {
            for i in 0..n {
                if b[i] == 0.0 {
                    nulls[i] = true;
                } else {
                    vals[i] = sanitize((a[i] / b[i]).floor());
                }
            }
        }
        BinOp::Pow => {
            for i in 0..n {
                vals[i] = sanitize(a[i].powf(b[i]));
            }
        }
    }
    Ok(LaneCol { lanes: Lanes::Float(vals), nulls })
}

fn zip_i64(a: &[i64], b: &[i64], f: impl Fn(i64, i64) -> i64) -> Vec<i64> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

fn zip_i64_f(a: &[i64], b: &[i64], f: impl Fn(i64, i64) -> f64) -> Vec<f64> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

fn compare_dispatch(
    g: &Group,
    consts: &[Value],
    op: crate::ast::CmpOp,
    l: Operand,
    r: Operand,
) -> Kernel<LaneCol> {
    use crate::ast::CmpOp;
    let n = g.sel.len();
    let lc = materialize(resolve(g, consts, l)?, n)?;
    let rc = materialize(resolve(g, consts, r)?, n)?;
    // `Value::compare` sends every numeric pairing through `as_f64`
    // (including Int/Int — large ints compare with f64 precision), with NULL
    // never comparing true; `Ne` must stay false for NULL *and* NaN.
    let a = lc.to_f64();
    let b = rc.to_f64();
    let mut out = vec![false; n];
    match op {
        CmpOp::Lt => {
            for i in 0..n {
                out[i] = a[i] < b[i];
            }
        }
        CmpOp::Le => {
            for i in 0..n {
                out[i] = a[i] <= b[i];
            }
        }
        CmpOp::Gt => {
            for i in 0..n {
                out[i] = a[i] > b[i];
            }
        }
        CmpOp::Ge => {
            for i in 0..n {
                out[i] = a[i] >= b[i];
            }
        }
        CmpOp::Eq => {
            for i in 0..n {
                out[i] = a[i] == b[i];
            }
        }
        CmpOp::Ne => {
            // NOT `a != b`: that is true for NaN operands, where
            // `Value::compare` yields `None` and the scalar kernel says
            // false. `<` and `>` are both false for NaN, matching exactly.
            #[allow(clippy::double_comparisons)]
            for i in 0..n {
                out[i] = a[i] < b[i] || a[i] > b[i];
            }
        }
    }
    for ((o, &nl), &nr) in out.iter_mut().zip(&lc.nulls).zip(&rc.nulls) {
        *o = *o && !nl && !nr;
    }
    Ok(LaneCol { lanes: Lanes::Bool(out), nulls: vec![false; n] })
}

fn call_kernel(g: &Group, func: LibFn, base: usize, n_args: usize) -> Kernel<LaneCol> {
    use LibFn::*;
    let n = g.sel.len();
    let args: Vec<&LaneCol> =
        (0..n_args).map(|i| g.regs[base + i].as_ref().ok_or(Bail)).collect::<Kernel<_>>()?;
    // NULL propagation: any NULL input yields NULL (the call is charged by
    // the caller either way, exactly like `ops::apply_lib`).
    let mut nulls = vec![false; n];
    for a in &args {
        for (o, &x) in nulls.iter_mut().zip(&a.nulls) {
            *o |= x;
        }
    }
    let arg_f = |i: usize| -> Kernel<Vec<f64>> { args.get(i).map(|c| c.to_f64()).ok_or(Bail) };
    // Arity underflow maps to NULL in the scalar kernel (`num(i)` → `None`).
    let needs = match func {
        MathPow | NpPower | NpMinimum | NpMaximum | BuiltinMin | BuiltinMax => 2,
        NpClip => 3,
        _ => 1,
    };
    if n_args < needs {
        return Ok(LaneCol::all_null(n));
    }
    let float_map = |xs: Vec<f64>, f: &dyn Fn(f64) -> f64| -> Lanes {
        Lanes::Float(xs.into_iter().map(f).collect())
    };
    let lanes = match func {
        MathSqrt | NpSqrt => float_map(arg_f(0)?, &|x| sanitize(x.abs().sqrt())),
        MathPow | NpPower => {
            let (a, b) = (arg_f(0)?, arg_f(1)?);
            Lanes::Float((0..n).map(|i| sanitize(a[i].powf(b[i]))).collect())
        }
        MathLog | NpLog => float_map(arg_f(0)?, &|x| sanitize(x.abs().max(1e-12).ln())),
        MathExp | NpExp => float_map(arg_f(0)?, &|x| sanitize(x.min(700.0).exp())),
        MathSin => float_map(arg_f(0)?, &|x| x.sin()),
        MathCos => float_map(arg_f(0)?, &|x| x.cos()),
        MathAtan => float_map(arg_f(0)?, &|x| x.atan()),
        MathFloor => Lanes::Int(arg_f(0)?.into_iter().map(|x| f64_to_i64(x.floor())).collect()),
        MathCeil => Lanes::Int(arg_f(0)?.into_iter().map(|x| f64_to_i64(x.ceil())).collect()),
        MathFabs | NpAbs => float_map(arg_f(0)?, &|x| x.abs()),
        NpMinimum | BuiltinMin => {
            let (a, b) = (arg_f(0)?, arg_f(1)?);
            Lanes::Float((0..n).map(|i| a[i].min(b[i])).collect())
        }
        NpMaximum | BuiltinMax => {
            let (a, b) = (arg_f(0)?, arg_f(1)?);
            Lanes::Float((0..n).map(|i| a[i].max(b[i])).collect())
        }
        NpClip => {
            let (x, lo, hi) = (arg_f(0)?, arg_f(1)?, arg_f(2)?);
            // np_clip, not f64::clamp: masked lanes can carry NaN garbage
            // and clamp panics on NaN bounds.
            Lanes::Float((0..n).map(|i| np_clip(x[i], lo[i], hi[i])).collect())
        }
        NpSign => float_map(arg_f(0)?, &np_sign),
        NpRound | BuiltinRound => float_map(arg_f(0)?, &|x| x.round()),
        BuiltinAbs => match &args[0].lanes {
            Lanes::Int(v) => {
                Lanes::Int(v.iter().map(|x| x.checked_abs().unwrap_or(i64::MAX)).collect())
            }
            _ => float_map(arg_f(0)?, &|x| x.abs()),
        },
        BuiltinInt => Lanes::Int(arg_f(0)?.into_iter().map(f64_to_i64).collect()),
        BuiltinFloat => Lanes::Float(arg_f(0)?),
        // String-shaped builtins are Bail-class; reaching here is a shape
        // mismatch — refuse rather than guess.
        BuiltinLen | BuiltinStr | StrUpper | StrLower | StrStrip | StrReplace | StrStartswith
        | StrEndswith | StrFind | StrSplitCount => return Err(Bail),
    };
    Ok(LaneCol { lanes, nulls })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, CmpOp, Expr as E, Stmt, UdfDef};
    use crate::bytecode::compile;
    use crate::interp::Interpreter;

    fn udf(params: &[&str], body: Vec<Stmt>) -> UdfDef {
        UdfDef { name: "f".into(), params: params.iter().map(|s| s.to_string()).collect(), body }
    }

    /// Run the columnar path against the tree-walker and the row-at-a-time
    /// VM over the given columns; assert values and the merged CostCounter
    /// are bit-identical to both.
    fn differential(u: &UdfDef, cols: &[Vec<Value>]) {
        let prog = compile(u).unwrap();
        let shape = prog.simd_shape();
        let slices: Vec<&[Value]> = cols.iter().map(|c| c.as_slice()).collect();
        let rows = cols.first().map_or(0, |c| c.len());

        let mut simd_vm = Vm::default();
        let mut simd_out = Vec::new();
        let mut simd_cost = CostCounter::new();
        eval_batch_values(&mut simd_vm, &prog, &shape, &slices, &mut simd_out, &mut simd_cost)
            .unwrap();
        assert_eq!(simd_out.len(), rows);

        let mut vm = Vm::default();
        let mut vm_out = Vec::new();
        let mut vm_cost = CostCounter::new();
        vm.eval_batch(&prog, &slices, &mut vm_out, &mut vm_cost).unwrap();
        assert_eq!(simd_out, vm_out, "values differ from row-at-a-time VM");
        assert_eq!(simd_cost, vm_cost, "costs differ from row-at-a-time VM");
        assert_eq!(simd_cost.total.to_bits(), vm_cost.total.to_bits(), "totals not bit-identical");

        let mut interp = Interpreter::default();
        let mut tw_cost = CostCounter::new();
        for r in 0..rows {
            let args: Vec<Value> = cols.iter().map(|c| c[r].clone()).collect();
            let o = interp.eval(u, &args).unwrap();
            assert_eq!(o.value, simd_out[r], "row {r} differs from tree-walker");
            tw_cost.merge(&o.cost);
        }
        assert_eq!(simd_cost, tw_cost, "costs differ from tree-walker");
    }

    fn int_col(n: usize, f: impl Fn(usize) -> i64) -> Vec<Value> {
        (0..n).map(|i| Value::Int(f(i))).collect()
    }

    fn float_col(n: usize, f: impl Fn(usize) -> f64) -> Vec<Value> {
        (0..n).map(|i| Value::Float(f(i))).collect()
    }

    #[test]
    fn straightline_arithmetic_is_columnar_and_identical() {
        // z = x * 1.5 + y; return z * z - x / (y + 1)
        let u = udf(
            &["x", "y"],
            vec![
                Stmt::Assign {
                    target: "z".into(),
                    expr: E::bin(
                        BinOp::Add,
                        E::bin(BinOp::Mul, E::name("x"), E::Float(1.5)),
                        E::name("y"),
                    ),
                },
                Stmt::Return(E::bin(
                    BinOp::Sub,
                    E::bin(BinOp::Mul, E::name("z"), E::name("z")),
                    E::bin(BinOp::Div, E::name("x"), E::bin(BinOp::Add, E::name("y"), E::Int(1))),
                )),
            ],
        );
        let n = 3000; // spans multiple SIMD_CHUNKs
        differential(&u, &[int_col(n, |i| i as i64 % 97), float_col(n, |i| (i % 13) as f64 - 6.0)]);
    }

    #[test]
    fn branch_divergence_splits_selections_identically() {
        // if x < 50: return x * 2.0 else: return math.sqrt(x) + y
        let u = udf(
            &["x", "y"],
            vec![Stmt::If {
                cond: E::cmp(CmpOp::Lt, E::name("x"), E::Int(50)),
                then_body: vec![Stmt::Return(E::bin(BinOp::Mul, E::name("x"), E::Float(2.0)))],
                else_body: vec![Stmt::Return(E::bin(
                    BinOp::Add,
                    E::call(LibFn::MathSqrt, vec![E::name("x")]),
                    E::name("y"),
                ))],
            }],
        );
        let n = 500;
        differential(&u, &[int_col(n, |i| i as i64 % 100), int_col(n, |i| i as i64 % 7)]);
    }

    #[test]
    fn nulls_and_division_by_zero_propagate_identically() {
        let u = udf(
            &["x", "y"],
            vec![Stmt::Return(E::bin(
                BinOp::Add,
                E::bin(BinOp::Div, E::name("x"), E::name("y")),
                E::bin(BinOp::Mod, E::name("x"), E::name("y")),
            ))],
        );
        let n = 200;
        let xs: Vec<Value> =
            (0..n).map(|i| if i % 5 == 0 { Value::Null } else { Value::Int(i as i64) }).collect();
        let ys: Vec<Value> = (0..n).map(|i| Value::Int((i as i64 % 4) - 1)).collect(); // hits 0
        differential(&u, &[xs, ys]);
    }

    #[test]
    fn loops_fall_back_to_the_scalar_vm_per_row() {
        // Straight-line prefix, then a *data-dependent* loop on one branch:
        // loop rows leave the fast path, the others stay columnar. (A
        // constant-count loop would be Counted and stay columnar — see the
        // next test.)
        let u = udf(
            &["x", "y"],
            vec![
                Stmt::Assign {
                    target: "z".into(),
                    expr: E::bin(BinOp::Mul, E::name("x"), E::Int(3)),
                },
                Stmt::If {
                    cond: E::cmp(CmpOp::Lt, E::name("z"), E::Int(60)),
                    then_body: vec![Stmt::Return(E::name("z"))],
                    else_body: vec![Stmt::For {
                        var: "i".into(),
                        count: E::name("y"),
                        body: vec![Stmt::Assign {
                            target: "z".into(),
                            expr: E::bin(BinOp::Add, E::name("z"), E::name("i")),
                        }],
                    }],
                },
                Stmt::Return(E::name("z")),
            ],
        );
        let n = 300;
        differential(&u, &[int_col(n, |i| i as i64 % 50), int_col(n, |i| i as i64 % 4)]);
    }

    #[test]
    fn counted_loops_stay_columnar_with_zero_bails() {
        // for i in range(12): a literal limit, so every row completes on the
        // fast path — values and costs still bit-identical to both scalar
        // backends.
        let u = udf(
            &["x", "y"],
            vec![
                Stmt::Assign { target: "z".into(), expr: E::name("y") },
                Stmt::For {
                    var: "i".into(),
                    count: E::Int(12),
                    body: vec![Stmt::Assign {
                        target: "z".into(),
                        expr: E::bin(
                            BinOp::Add,
                            E::name("z"),
                            E::bin(BinOp::Mul, E::name("i"), E::name("x")),
                        ),
                    }],
                },
                Stmt::Return(E::name("z")),
            ],
        );
        let prog = compile(&u).unwrap();
        let shape = prog.simd_shape();
        assert!(shape.class.contains(&InstrClass::Counted), "loop reclassified");
        assert!(!shape.class.contains(&InstrClass::Bail), "nothing bails");
        assert_eq!(shape.trip_count.iter().flatten().copied().max(), Some(12));

        let n = 2500; // spans multiple chunks
        let cols = [int_col(n, |i| i as i64 % 13 - 6), int_col(n, |i| i as i64 % 7)];
        differential(&u, &cols);

        // And the stats must confirm the fast path took every row.
        let typed: Vec<TypedCol> = cols.iter().map(|c| TypedCol::from_values(c).unwrap()).collect();
        let mut stats = SimdBatchStats::default();
        let mut out = Vec::new();
        eval_batch_typed_with_stats(
            &mut Vm::default(),
            &prog,
            &shape,
            &typed,
            &mut out,
            &mut CostCounter::new(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.bail_rows, 0, "counted loop must not bail: {stats:?}");
        assert_eq!(stats.fast_rows, n as u64);
    }

    #[test]
    fn counted_loop_with_branch_divergence_inside_the_body_matches() {
        // Divergence *inside* a counted loop body: groups split mid-loop and
        // each continues its own lockstep iterations.
        let u = udf(
            &["x", "y"],
            vec![
                Stmt::Assign { target: "z".into(), expr: E::Int(0) },
                Stmt::For {
                    var: "i".into(),
                    count: E::Int(4),
                    body: vec![Stmt::If {
                        cond: E::cmp(CmpOp::Lt, E::name("x"), E::Int(25)),
                        then_body: vec![Stmt::Assign {
                            target: "z".into(),
                            expr: E::bin(BinOp::Add, E::name("z"), E::name("i")),
                        }],
                        else_body: vec![Stmt::Assign {
                            target: "z".into(),
                            expr: E::bin(BinOp::Sub, E::name("z"), E::name("y")),
                        }],
                    }],
                },
                Stmt::Return(E::name("z")),
            ],
        );
        let n = 400;
        differential(&u, &[int_col(n, |i| i as i64 % 50), int_col(n, |i| i as i64 % 9)]);
        // Null rows in the limit-feeding columns don't exist here, but null
        // *data* rows must still match through the loop.
        let xs: Vec<Value> =
            (0..64).map(|i| if i % 5 == 0 { Value::Null } else { Value::Int(i) }).collect();
        let ys: Vec<Value> = (0..64).map(Value::Int).collect();
        differential(&u, &[xs, ys]);
    }

    #[test]
    fn lib_calls_and_comparisons_match() {
        // w = np.clip(x, 0, 10); return np.sign(w - y) + math.floor(x / 3)
        let u = udf(
            &["x", "y"],
            vec![
                Stmt::Assign {
                    target: "w".into(),
                    expr: E::call(LibFn::NpClip, vec![E::name("x"), E::Int(0), E::Int(10)]),
                },
                Stmt::Return(E::bin(
                    BinOp::Add,
                    E::call(LibFn::NpSign, vec![E::bin(BinOp::Sub, E::name("w"), E::name("y"))]),
                    E::call(LibFn::MathFloor, vec![E::bin(BinOp::Div, E::name("x"), E::Int(3))]),
                )),
            ],
        );
        let n = 256;
        differential(&u, &[float_col(n, |i| (i as f64) - 128.0), int_col(n, |i| i as i64 % 11)]);
    }

    #[test]
    fn float_to_int_cast_edges_match_across_paths() {
        // int(x) + math.ceil(y): NaN, ±inf and beyond-i64 floats saturate
        // identically on every path.
        let u = udf(
            &["x", "y"],
            vec![Stmt::Return(E::bin(
                BinOp::Add,
                E::call(LibFn::BuiltinInt, vec![E::name("x")]),
                E::call(LibFn::MathCeil, vec![E::name("y")]),
            ))],
        );
        let edges = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e19, -1e19, 9.5, -9.5, 0.0, -0.0];
        let xs: Vec<Value> =
            (0..edges.len() * 8).map(|i| Value::Float(edges[i % edges.len()])).collect();
        let ys: Vec<Value> =
            (0..edges.len() * 8).map(|i| Value::Float(edges[(i + 3) % edges.len()])).collect();
        differential(&u, &[xs, ys]);
    }

    #[test]
    fn bool_columns_and_boolops_match() {
        // return (b and x < 3) or y — exercises short-circuit splits over a
        // Bool input column.
        let u = udf(
            &["b", "x", "y"],
            vec![Stmt::Return(E::BoolOp {
                is_and: false,
                left: Box::new(E::BoolOp {
                    is_and: true,
                    left: Box::new(E::name("b")),
                    right: Box::new(E::cmp(CmpOp::Lt, E::name("x"), E::Int(3))),
                }),
                right: Box::new(E::name("y")),
            })],
        );
        let n = 128;
        let bs: Vec<Value> = (0..n).map(|i| Value::Bool(i % 3 == 0)).collect();
        differential(&u, &[bs, int_col(n, |i| i as i64 % 6), int_col(n, |i| (i as i64) % 2)]);
    }

    #[test]
    fn string_udfs_take_the_scalar_path_wholesale() {
        let u = udf(
            &["s", "y"],
            vec![Stmt::Return(E::Method {
                func: LibFn::StrUpper,
                recv: Box::new(E::name("s")),
                args: vec![],
            })],
        );
        let prog = compile(&u).unwrap();
        let shape = prog.simd_shape();
        assert!(!shape.has_fast_path);
        let ss: Vec<Value> = (0..10).map(|i| Value::Text(format!("ab{i}"))).collect();
        let ys: Vec<Value> = (0..10).map(Value::Int).collect();
        let slices: Vec<&[Value]> = vec![&ss, &ys];
        let mut out = Vec::new();
        let mut cost = CostCounter::new();
        eval_batch_values(&mut Vm::default(), &prog, &shape, &slices, &mut out, &mut cost).unwrap();
        let mut vm_out = Vec::new();
        let mut vm_cost = CostCounter::new();
        Vm::default().eval_batch(&prog, &slices, &mut vm_out, &mut vm_cost).unwrap();
        assert_eq!(out, vm_out);
        assert_eq!(cost, vm_cost);
    }

    #[test]
    fn undefined_variable_paths_error_identically() {
        // z defined only on the then-path; else-path rows must report the
        // tree-walker's undefined-variable error, in the VM's batch order.
        let u = udf(
            &["x"],
            vec![
                Stmt::If {
                    cond: E::cmp(CmpOp::Lt, E::name("x"), E::Int(5)),
                    then_body: vec![Stmt::Assign { target: "z".into(), expr: E::Int(1) }],
                    else_body: vec![],
                },
                Stmt::Return(E::name("z")),
            ],
        );
        let prog = compile(&u).unwrap();
        let shape = prog.simd_shape();
        let xs: Vec<Value> = (0..20).map(Value::Int).collect();
        let slices: Vec<&[Value]> = vec![&xs];
        let mut out = Vec::new();
        let mut cost = CostCounter::new();
        let simd_err =
            eval_batch_values(&mut Vm::default(), &prog, &shape, &slices, &mut out, &mut cost)
                .unwrap_err();
        let mut vm_out = Vec::new();
        let mut vm_cost = CostCounter::new();
        let vm_err =
            Vm::default().eval_batch(&prog, &slices, &mut vm_out, &mut vm_cost).unwrap_err();
        assert_eq!(simd_err, vm_err);
        assert_eq!(out, vm_out, "partial outputs before the failing row must match");
        assert_eq!(cost, vm_cost);
    }

    #[test]
    fn masked_division_garbage_never_panics_downstream_kernels() {
        // lo = a / b; return np.clip(c, lo, 100): a 0/0 row leaves a masked
        // lane feeding np.clip's lower bound — the clip kernel must not
        // panic on it, and the row must come back Null like the scalar VM.
        let u = udf(
            &["a", "b", "c"],
            vec![
                Stmt::Assign {
                    target: "lo".into(),
                    expr: E::bin(BinOp::Div, E::name("a"), E::name("b")),
                },
                Stmt::Return(E::call(
                    LibFn::NpClip,
                    vec![E::name("c"), E::name("lo"), E::Int(100)],
                )),
            ],
        );
        let n = 64;
        let asv = int_col(n, |i| if i % 7 == 0 { 0 } else { i as i64 });
        let bs = int_col(n, |i| if i % 7 == 0 { 0 } else { (i as i64 % 5) + 1 });
        let cs = int_col(n, |i| i as i64);
        differential(&u, &[asv, bs, cs]);
    }

    #[test]
    fn typed_cols_round_trip_and_reject_mixed_types() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(3)];
        let t = TypedCol::from_values(&vals).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.value(0), Value::Int(1));
        assert_eq!(t.value(1), Value::Null);
        assert!(TypedCol::from_values(&[Value::Int(1), Value::Float(2.0)]).is_none());
        assert!(TypedCol::from_values(&[Value::Text("x".into())]).is_none());
        assert!(TypedCol::for_type(DataType::Text, 4).is_none());
    }

    #[test]
    fn ragged_typed_batch_is_a_typed_error() {
        let u = udf(&["x", "y"], vec![Stmt::Return(E::name("x"))]);
        let prog = compile(&u).unwrap();
        let shape = prog.simd_shape();
        let a = TypedCol::from_values(&int_col(4, |i| i as i64)).unwrap();
        let b = TypedCol::from_values(&int_col(2, |i| i as i64)).unwrap();
        let err = eval_batch_typed(
            &mut Vm::default(),
            &prog,
            &shape,
            &[a, b],
            &mut Vec::new(),
            &mut CostCounter::new(),
        )
        .unwrap_err();
        assert!(matches!(&err, GracefulError::Eval(m) if m.contains("ragged batch")), "{err}");
    }
}
