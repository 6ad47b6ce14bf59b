//! Typed columnar (SIMD) execution of compiled UDF bytecode.
//!
//! The batch VM in [`crate::vm`] already amortizes compilation and register
//! allocation, but it still walks every instruction once *per row* over boxed
//! [`Value`]s. This module executes the vectorizable parts of a program once
//! per *batch* instead: every live register holds a [`TypedCol`] — unboxed
//! `i64`/`f64`/`bool` lanes plus a null mask, the same type the caller
//! gathers the UDF's arguments into — and each instruction is one
//! auto-vectorizable loop over those lanes.
//!
//! # Execution model
//!
//! A batch is whatever the caller passes ([`eval_batch_typed`]; production
//! reaches it only through [`crate::ColumnEvaluator`], whose caller cuts the
//! batches) and is never cut again here. Its rows travel in **selection groups**: a
//! group is a selection vector (lane → batch row), a register file of typed
//! columns, and the program counter all its rows share. One function, `step`,
//! executes one instruction over one group and says where the group goes:
//!
//! * Straight-line numeric instructions ([`InstrClass::Vector`]) execute
//!   column-at-a-time over the whole selection, and the group moves on.
//! * Conditional jumps ([`InstrClass::Split`]) evaluate the condition column
//!   and split the selection by truthiness — branch divergence becomes two
//!   smaller groups, each compacted to dense lanes. A split needs a row on
//!   either side, so a batch never holds more groups than rows.
//! * A `Return` ends the group with one value per lane.
//! * Loops are [`InstrClass::Bail`], a literal trip count included: the
//!   lanes carry no per-row iteration state.
//!
//! # One way off the lanes
//!
//! Whatever the lanes cannot carry makes `step` return `Err(Bail)`, every
//! kernel through `?`, and the driver loop of [`eval_batch_typed`] holds the
//! one fallback: each row of that group is recomputed from scratch by the
//! per-row [`Vm::eval`], the authentic scalar semantics, errors included.
//! Counted on the three benchmark workloads (CHANGES.md, PR 22), every row
//! that leaves does so at an [`InstrClass::Bail`] instruction; of all rows
//! the lanes do not carry (operators without a lane path included), 70–94 %
//! first meet a data-dependent `for`, 5–28 % a `while` and 0.4–4 % a string
//! builtin. A loop with a literal limit bails like any other: a lane path for
//! such loops carried at most 2.2 % of the loop-bearing rows on those
//! workloads (CHANGES.md). The other exits are guards that carried no row
//! there and stay because a wrong answer is the alternative: an operand whose
//! run-time type has no lane (text) or whose register was never written, a
//! call with a receiver, a read of a variable its path never defined (the VM
//! then reports the exact per-row error), an int base under a non-constant
//! int exponent (`**` picks its result type from the exponent's value), a
//! shape that disagrees with the program.
//!
//! # Bit-identical values *and* costs
//!
//! The lane kernels mirror the scalar kernels of [`crate::ops`] expression
//! for expression, so values match bit-for-bit; the test
//! `lane_kernels_mirror_the_scalar_kernels_over_edge_values` holds every
//! operator and every function with a lane kernel to that over each lane
//! type and the edge values of `i64` and `f64`. Costs match because, along a
//! straight-line path, every cost charge is value-independent (string costs —
//! the only data-dependent charges — never vectorize): all rows of a group
//! share one per-row [`CostCounter`] built by replaying the exact charge
//! sequence the scalar VM would perform. The final merge visits rows in row
//! order and merges each row's counter exactly like `Vm::eval_batch` does, so
//! the accumulated `f64` totals are bit-identical, batch after batch.

use crate::ast::{BinOp, CmpOp, UnOp};
use crate::bytecode::{Instr, InstrClass, Operand, Program, SimdShape};
use crate::costs::{CostCounter, CostWeights};
use crate::interp::EvalOutcome;
use crate::libfns::LibFn;
use crate::ops::{f64_to_i64, np_clip, np_sign, sanitize};
use crate::vm::{batch_rows, Vm};
use graceful_common::{GracefulError, Result};
use graceful_obs::registry::{counter, Counter};
use graceful_storage::{Column, ColumnData, DataType, Value};
use std::borrow::Cow;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Typed columns

/// Unboxed lanes of one lane type.
#[derive(Debug, Clone, PartialEq)]
enum Lanes {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
}

/// An unboxed column: dense typed lanes plus a null mask (one bool per lane,
/// as storage holds a mask where a NULL exists). It is both the
/// gather buffer of one UDF parameter — filled straight from storage without
/// materializing [`Value`]s — and the register of a selection group. A lane
/// under a set mask bit holds an unspecified value that nothing reads. Text
/// has no lane type: operators over a text column run on the batch VM.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedCol {
    lanes: Lanes,
    nulls: Vec<bool>,
}

impl TypedCol {
    /// An empty column of the lane type matching `dt`; `None` for Text.
    pub fn for_type(dt: DataType) -> Option<TypedCol> {
        let lanes = match dt {
            DataType::Int => Lanes::Int(Vec::new()),
            DataType::Float => Lanes::Float(Vec::new()),
            DataType::Bool => Lanes::Bool(Vec::new()),
            DataType::Text => return None,
        };
        Some(TypedCol { lanes, nulls: Vec::new() })
    }

    /// Refill with the rows `rids` of a storage column, whose type must
    /// match `self`'s lane type (callers fix the type once per operator via
    /// [`TypedCol::for_type`]). The buffer grows to the largest batch
    /// gathered, never to a configured size.
    ///
    /// Dictionary-encoded integer columns decode straight into the lanes
    /// here — a per-row dictionary lookup, never a boxed [`Value`] — so the
    /// lanes run unchanged over compressed storage.
    pub fn fill_from_column(&mut self, col: &Column, rids: &[usize]) -> Result<()> {
        fn gather<T>(dst: &mut Vec<T>, rids: &[usize], at: impl Fn(usize) -> T) {
            dst.clear();
            dst.extend(rids.iter().map(|&rid| at(rid)));
        }
        match (&mut self.lanes, &col.data) {
            (Lanes::Int(dst), ColumnData::Int(src)) => gather(dst, rids, |r| src[r]),
            (Lanes::Int(dst), ColumnData::DictInt { codes, dict }) => {
                gather(dst, rids, |r| dict[codes[r] as usize])
            }
            (Lanes::Float(dst), ColumnData::Float(src)) => gather(dst, rids, |r| src[r]),
            (Lanes::Bool(dst), ColumnData::Bool(src)) => gather(dst, rids, |r| src[r]),
            _ => {
                return Err(GracefulError::Eval(format!(
                    "column {} does not match its typed buffer",
                    col.name
                )))
            }
        }
        match col.nulls.as_slice() {
            Some(nulls) => gather(&mut self.nulls, rids, |r| nulls[r]),
            None => gather(&mut self.nulls, rids, |_| false),
        }
        Ok(())
    }

    /// Convert a uniformly-typed `Value` column (test convenience). `None`
    /// when the column mixes non-null types or contains Text; an all-NULL
    /// column gets `Int` lanes.
    pub fn from_values(vals: &[Value]) -> Option<TypedCol> {
        let ty = vals.iter().find_map(Value::data_type).unwrap_or(DataType::Int);
        let mut col = TypedCol::for_type(ty)?;
        for v in vals {
            match (&mut col.lanes, v) {
                (Lanes::Int(d), Value::Int(_) | Value::Null) => d.push(v.as_i64().unwrap_or(0)),
                (Lanes::Float(d), Value::Float(_) | Value::Null) => {
                    d.push(v.as_f64().unwrap_or(0.0))
                }
                (Lanes::Bool(d), Value::Bool(_) | Value::Null) => d.push(v.truthy()),
                _ => return None,
            }
            col.nulls.push(v.is_null());
        }
        Some(col)
    }

    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nulls.is_empty()
    }

    /// Boxed value of lane `i` (returned values; the scalar fallback's
    /// argument gather).
    pub fn value(&self, i: usize) -> Value {
        if self.nulls[i] {
            return Value::Null;
        }
        match &self.lanes {
            Lanes::Int(v) => Value::Int(v[i]),
            Lanes::Float(v) => Value::Float(v[i]),
            Lanes::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// `lanes` with no lane NULL.
    fn non_null(lanes: Lanes, n: usize) -> TypedCol {
        TypedCol { lanes, nulls: vec![false; n] }
    }

    /// The SQL-NULL column: lane values are never read through the set mask.
    fn all_null(n: usize) -> TypedCol {
        TypedCol { lanes: Lanes::Float(vec![0.0; n]), nulls: vec![true; n] }
    }

    /// A constant across `n` lanes; `None` for text.
    fn broadcast(v: &Value, n: usize) -> Option<TypedCol> {
        Some(match v {
            Value::Int(i) => TypedCol::non_null(Lanes::Int(vec![*i; n]), n),
            Value::Float(f) => TypedCol::non_null(Lanes::Float(vec![*f; n]), n),
            Value::Bool(b) => TypedCol::non_null(Lanes::Bool(vec![*b; n]), n),
            Value::Null => TypedCol::all_null(n),
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
    fn filter(&self, keep: &[u32]) -> TypedCol {
        let lanes = match &self.lanes {
            Lanes::Int(v) => Lanes::Int(keep.iter().map(|&i| v[i as usize]).collect()),
            Lanes::Float(v) => Lanes::Float(keep.iter().map(|&i| v[i as usize]).collect()),
            Lanes::Bool(v) => Lanes::Bool(keep.iter().map(|&i| v[i as usize]).collect()),
        };
        TypedCol { lanes, nulls: keep.iter().map(|&i| self.nulls[i as usize]).collect() }
    }
}

// ---------------------------------------------------------------------------
// Selection groups

/// Rows sharing one control-flow history: a selection vector, the typed
/// register file, and the per-row cost replayed along the shared path.
struct Group {
    pc: usize,
    /// Selection vector: lane `i` is batch row `sel[i]`.
    sel: Vec<u32>,
    regs: Vec<Option<TypedCol>>,
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

/// Where a group goes after one instruction.
enum Step {
    /// On to this program counter, every row together.
    Goto(usize),
    /// True divergence: lanes `stay` go on to the next instruction, lanes
    /// `jump` to `target`; neither side is empty.
    Split { stay: Vec<u32>, jump: Vec<u32>, target: usize },
    /// Every row returned: one value per lane.
    Return(Vec<Value>),
}

/// Outcome of one batch row.
enum RowResult {
    /// Completed on the lanes; its cost is that of group `group`.
    Columnar { value: Value, group: u32 },
    /// Fell back to the scalar VM.
    Scalar(EvalOutcome),
    /// Scalar fallback failed; surfaced in row order like `Vm::eval_batch`.
    Failed(GracefulError),
}

// ---------------------------------------------------------------------------
// The evaluator

/// What UDF evaluation carried, and how — the one counter struct the
/// engine's profile shows per UDF operator and [`UdfStats::publish`] sums
/// into the registry. Each evaluation path counts its batch and rows; the
/// typed lanes also say which way each row went. Observability only: no
/// result reads it. Per-morsel counts merge in morsel-index order, so every
/// total is deterministic but `memo_rows`, which depends on which morsels a
/// worker's memo saw before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdfStats {
    /// Rows evaluated.
    pub rows: u64,
    /// Batches evaluated (each at most `udf_batch_size` rows in the engine).
    pub batches: u64,
    /// Rows the dictionary-code memo served without running the VM.
    pub memo_rows: u64,
    /// Rows completed on the typed lanes.
    pub lane_rows: u64,
    /// Rows that bailed from the lanes to the scalar VM (see "One way off
    /// the lanes" in the module docs).
    pub bail_rows: u64,
    /// True control-flow divergences that split a selection group in two.
    pub group_splits: u64,
}

impl UdfStats {
    /// Accumulate another evaluation's counters into this one.
    pub fn merge(&mut self, other: &UdfStats) {
        self.rows += other.rows;
        self.batches += other.batches;
        self.memo_rows += other.memo_rows;
        self.lane_rows += other.lane_rows;
        self.bail_rows += other.bail_rows;
        self.group_splits += other.group_splits;
    }

    /// Fraction of evaluated rows that bailed from the lanes to the scalar
    /// VM (0.0 for zero rows and where no row ran on the lanes).
    pub fn bail_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.bail_rows as f64 / self.rows as f64
        }
    }

    /// Add these counts to the registry counters `udf.rows`, `udf.batches`,
    /// `udf.memo_rows`, `udf.simd.fast_rows` (the lane rows),
    /// `udf.simd.bail_rows` and `udf.simd.group_splits`.
    pub fn publish(&self) {
        static COUNTERS: OnceLock<[Counter; 6]> = OnceLock::new();
        let counters = COUNTERS.get_or_init(|| {
            [
                "udf.rows",
                "udf.batches",
                "udf.memo_rows",
                "udf.simd.fast_rows",
                "udf.simd.bail_rows",
                "udf.simd.group_splits",
            ]
            .map(counter)
        });
        let UdfStats { rows, batches, memo_rows, lane_rows, bail_rows, group_splits } = *self;
        let counts = [rows, batches, memo_rows, lane_rows, bail_rows, group_splits];
        for (c, n) in counters.iter().zip(counts) {
            c.add(n);
        }
    }
}

/// Evaluate one batch on the typed lanes, falling back row-by-row to the
/// scalar VM wherever the lane model cannot follow. Appends one value per
/// row to `out` and merges per-row costs into `cost` **in row order** —
/// values, errors and `CostCounter` totals are bit-identical to
/// [`Vm::eval_batch`] (and therefore to a tree-walker row loop).
///
/// `stats` counts the batch, its rows and which way each row went. It only
/// observes — values, errors and costs do not depend on it — and it is not
/// optional, so every caller can tell what the lanes carried.
pub fn eval_batch_typed(
    vm: &mut Vm,
    prog: &Program,
    shape: &SimdShape,
    cols: &[TypedCol],
    out: &mut Vec<Value>,
    cost: &mut CostCounter,
    stats: &mut UdfStats,
) -> Result<()> {
    let rows = batch_rows(prog, cols.iter().map(TypedCol::len))?;
    // A shape computed for a different (or since-recompiled) program would
    // misclassify instructions — `step` indexes `shape.class[pc]` unchecked
    // past this point.
    if shape.class.len() != prog.instrs.len() {
        return Err(GracefulError::Verify(format!(
            "{}: SIMD shape covers {} instructions but the program has {}",
            prog.name,
            shape.class.len(),
            prog.instrs.len()
        )));
    }
    let all_rows = u32::try_from(rows).map_err(|_| {
        GracefulError::Eval(format!(
            "{}: a batch of {rows} rows is more than a u32 selection vector can index",
            prog.name
        ))
    })?;
    if rows == 0 {
        return Ok(());
    }
    let w = vm.weights().clone();
    let mut results: Vec<Option<RowResult>> = (0..rows).map(|_| None).collect();
    let mut group_costs: Vec<CostCounter> = Vec::new();
    let mut args: Vec<Value> = Vec::with_capacity(cols.len());

    // Root group: every row, the gathered parameters as its first registers.
    let mut regs: Vec<Option<TypedCol>> = vec![None; prog.n_regs as usize];
    for (reg, col) in regs.iter_mut().zip(cols) {
        *reg = Some(col.clone());
    }
    let mut defined = vec![false; prog.slots.len()];
    for d in defined.iter_mut().take(cols.len()) {
        *d = true;
    }
    let mut root_cost = CostCounter::new();
    // Typed columns carry no text, so the invocation conversion charge is the
    // exact expression `Vm::eval_batch` computes with zero text chars.
    root_cost.add_invocation(&w, cols.len(), 0);
    let mut worklist =
        vec![Group { pc: 0, sel: (0..all_rows).collect(), regs, defined, cost: root_cost }];

    while let Some(mut g) = worklist.pop() {
        loop {
            match step(&mut g, prog, shape, &w) {
                Ok(Step::Goto(pc)) => g.pc = pc,
                Ok(Step::Split { stay, jump, target }) => {
                    stats.group_splits += 1;
                    worklist.push(g.filtered(g.pc + 1, &stay));
                    worklist.push(g.filtered(target, &jump));
                    break;
                }
                Ok(Step::Return(values)) => {
                    let group = group_costs.len() as u32;
                    for (&row, value) in g.sel.iter().zip(values) {
                        results[row as usize] = Some(RowResult::Columnar { value, group });
                    }
                    group_costs.push(g.cost);
                    break;
                }
                // The one way off the lanes: every row of the group again,
                // from its arguments, on the scalar VM.
                Err(Bail) => {
                    for &row in &g.sel {
                        args.clear();
                        args.extend(cols.iter().map(|c| c.value(row as usize)));
                        results[row as usize] = Some(match vm.eval(prog, &args) {
                            Ok(o) => RowResult::Scalar(o),
                            Err(e) => RowResult::Failed(e),
                        });
                    }
                    break;
                }
            }
        }
    }

    // Ordered merge: one value push + one cost merge per row, exactly the
    // per-row cadence of `Vm::eval_batch`; the first failing row wins.
    out.reserve(rows);
    stats.batches += 1;
    for (row, result) in results.into_iter().enumerate() {
        stats.rows += 1;
        match result {
            Some(RowResult::Columnar { value, group }) => {
                stats.lane_rows += 1;
                out.push(value);
                cost.merge(&group_costs[group as usize]);
            }
            Some(RowResult::Scalar(o)) => {
                stats.bail_rows += 1;
                out.push(o.value);
                cost.merge(&o.cost);
            }
            Some(RowResult::Failed(e)) => return Err(e),
            // Every row resolves (a return, the fallback, or its error). A
            // gap is a bookkeeping bug in this module — surface it as a
            // typed error rather than a release-mode panic mid-query.
            None => {
                return Err(GracefulError::Verify(format!(
                    "{}: batch row {row} never resolved to a result",
                    prog.name
                )))
            }
        }
    }
    Ok(())
}

/// A group leaves the lanes; the driver loop of [`eval_batch_typed`] is the
/// only place that catches it.
struct Bail;

type Kernel<T> = std::result::Result<T, Bail>;

/// Execute the instruction at `g.pc` over every lane of `g`: charge what the
/// scalar VM charges there, write the register it writes, and say where the
/// group goes next — or `Err(Bail)` when the lanes cannot carry it.
fn step(g: &mut Group, prog: &Program, shape: &SimdShape, w: &CostWeights) -> Kernel<Step> {
    let (pc, n) = (g.pc, g.sel.len());
    // Data-dependent loops and string builtins: per the census the only exit
    // that carries rows.
    if shape.class[pc] == InstrClass::Bail {
        return Err(Bail);
    }
    let consts = &prog.consts;
    match &prog.instrs[pc] {
        Instr::Copy { dst, src } => {
            let out = resolve(g, consts, *src)?.into_col(n)?.into_owned();
            g.regs[*dst as usize] = Some(out);
        }
        Instr::Unary { op, dst, src } => {
            g.cost.add_arith(w, false);
            let out = unary_kernel(*op, &*resolve(g, consts, *src)?.into_col(n)?);
            g.regs[*dst as usize] = Some(out);
        }
        Instr::Binary { op, dst, l, r } => {
            g.cost.add_arith(w, op.is_slow());
            let out = binary_kernel(*op, resolve(g, consts, *l)?, resolve(g, consts, *r)?, n)?;
            g.regs[*dst as usize] = Some(out);
        }
        Instr::Compare { op, dst, l, r } => {
            g.cost.add_compare(w);
            let lc = resolve(g, consts, *l)?.into_col(n)?;
            let rc = resolve(g, consts, *r)?.into_col(n)?;
            let out = compare_kernel(*op, &lc, &rc);
            g.regs[*dst as usize] = Some(out);
        }
        Instr::CastBool { dst, src } => {
            let truthy = match resolve(g, consts, *src)? {
                Src::Col(c) => c.truthy(),
                Src::Const(v) => vec![v.truthy(); n],
            };
            g.regs[*dst as usize] = Some(TypedCol::non_null(Lanes::Bool(truthy), n));
        }
        Instr::Call { func, dst, base, n_args, has_recv } => {
            g.cost.add_lib_call(*func);
            // String methods (the only calls with a receiver) and the
            // string builtins are Bail-class, so one here is an unexpected
            // combination.
            if *has_recv || !func.has_lane_kernel() {
                return Err(Bail);
            }
            let out = call_kernel(g, *func, *base as usize, *n_args as usize)?;
            g.regs[*dst as usize] = Some(out);
        }
        Instr::Jump { target } => return Ok(Step::Goto(*target as usize)),
        Instr::JumpIfFalse { cond, target } | Instr::JumpIfTrue { cond, target } => {
            let target = *target as usize;
            let true_stays = matches!(&prog.instrs[pc], Instr::JumpIfFalse { .. });
            let truthy = match resolve(g, consts, *cond)? {
                Src::Col(c) => c.truthy(),
                // Uniform condition: the whole group follows one edge.
                Src::Const(v) => {
                    return Ok(Step::Goto(if v.truthy() == true_stays { pc + 1 } else { target }))
                }
            };
            let (mut stay, mut jump) = (Vec::new(), Vec::new());
            for (i, &t) in truthy.iter().enumerate() {
                if t == true_stays {
                    stay.push(i as u32);
                } else {
                    jump.push(i as u32);
                }
            }
            return Ok(if jump.is_empty() {
                Step::Goto(pc + 1)
            } else if stay.is_empty() {
                Step::Goto(target)
            } else {
                Step::Split { stay, jump, target }
            });
        }
        Instr::Cost(kind) => g.cost.charge(w, *kind),
        Instr::Charge { idx } => g.cost.merge(&prog.charges[*idx as usize]),
        // Every row of the group reads a variable its path never defined;
        // the scalar VM reports the exact per-row error.
        Instr::CheckDef { slot } => {
            if !g.defined[*slot as usize] {
                return Err(Bail);
            }
        }
        Instr::MarkDef { slot } => g.defined[*slot as usize] = true,
        Instr::Return { src } => {
            g.cost.add_return(w);
            return Ok(Step::Return(match resolve(g, consts, *src)? {
                Src::Col(c) => (0..n).map(|i| c.value(i)).collect(),
                Src::Const(v) => vec![v.clone(); n],
            }));
        }
        Instr::ReturnNull => {
            g.cost.add_return(w);
            return Ok(Step::Return(vec![Value::Null; n]));
        }
        // Loops are always Bail-class and caught above; reaching here means
        // the shape disagrees with the program.
        Instr::ForInit { .. }
        | Instr::ForNext { .. }
        | Instr::ForClosed { .. }
        | Instr::WhileInit { .. }
        | Instr::WhileIter { .. } => return Err(Bail),
    }
    Ok(Step::Goto(pc + 1))
}

// ---------------------------------------------------------------------------
// Operand resolution

enum Src<'a> {
    Col(&'a TypedCol),
    Const(&'a Value),
}

/// The register or constant behind `op`; bails on a register no instruction
/// of this path has written.
fn resolve<'a>(g: &'a Group, consts: &'a [Value], op: Operand) -> Kernel<Src<'a>> {
    if op.is_const() {
        Ok(Src::Const(&consts[op.index()]))
    } else {
        g.regs[op.index()].as_ref().map(Src::Col).ok_or(Bail)
    }
}

impl<'a> Src<'a> {
    /// As a lane column of `n` lanes, broadcasting a constant; bails on a
    /// text constant.
    fn into_col(self, n: usize) -> Kernel<Cow<'a, TypedCol>> {
        match self {
            Src::Col(c) => Ok(Cow::Borrowed(c)),
            Src::Const(v) => TypedCol::broadcast(v, n).map(Cow::Owned).ok_or(Bail),
        }
    }
}

// ---------------------------------------------------------------------------
// Lane kernels (mirroring crate::ops expression for expression)

fn unary_kernel(op: UnOp, col: &TypedCol) -> TypedCol {
    let n = col.len();
    match op {
        UnOp::Neg => match &col.lanes {
            Lanes::Int(v) => TypedCol {
                lanes: Lanes::Int(v.iter().map(|x| x.wrapping_neg()).collect()),
                nulls: col.nulls.clone(),
            },
            Lanes::Float(v) => TypedCol {
                lanes: Lanes::Float(v.iter().map(|x| -x).collect()),
                nulls: col.nulls.clone(),
            },
            Lanes::Bool(_) => TypedCol::all_null(n),
        },
        UnOp::Not => TypedCol::non_null(Lanes::Bool(col.truthy().iter().map(|&b| !b).collect()), n),
    }
}

fn binary_kernel(op: BinOp, ls: Src<'_>, rs: Src<'_>, n: usize) -> Kernel<TypedCol> {
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
    let lc = ls.into_col(n)?;
    let rc = rs.into_col(n)?;
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
                let k = int_pow_exponent.ok_or(Bail)?;
                if (0..=16).contains(&k) {
                    Lanes::Int(a.iter().map(|&x| x.saturating_pow(k as u32)).collect())
                } else {
                    Lanes::Float(a.iter().map(|&x| (x as f64).powf(k as f64)).collect())
                }
            }
        };
        return Ok(TypedCol { lanes, nulls });
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
    Ok(TypedCol { lanes: Lanes::Float(vals), nulls })
}

fn zip_i64(a: &[i64], b: &[i64], f: impl Fn(i64, i64) -> i64) -> Vec<i64> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

fn zip_i64_f(a: &[i64], b: &[i64], f: impl Fn(i64, i64) -> f64) -> Vec<f64> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

fn compare_kernel(op: CmpOp, lc: &TypedCol, rc: &TypedCol) -> TypedCol {
    let n = lc.len();
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
    TypedCol::non_null(Lanes::Bool(out), n)
}

fn call_kernel(g: &Group, func: LibFn, base: usize, n_args: usize) -> Kernel<TypedCol> {
    use LibFn::*;
    let n = g.sel.len();
    let args: Vec<&TypedCol> =
        (0..n_args).map(|i| g.regs[base + i].as_ref().ok_or(Bail)).collect::<Kernel<_>>()?;
    // Arity underflow maps to NULL in the scalar kernel (`num(i)` → `None`).
    if n_args < func.arity() {
        return Ok(TypedCol::all_null(n));
    }
    // NULL propagation: any NULL input yields NULL (the call is charged by
    // the caller either way, exactly like `ops::apply_lib`).
    let mut nulls = vec![false; n];
    for a in &args {
        for (o, &x) in nulls.iter_mut().zip(&a.nulls) {
            *o |= x;
        }
    }
    let arg_f = |i: usize| -> Kernel<Vec<f64>> { args.get(i).map(|c| c.to_f64()).ok_or(Bail) };
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
        // `step` asked `LibFn::has_lane_kernel` before calling: a function
        // that lands here was promised a kernel this match does not have.
        // Refuse rather than guess; the mirror test fails on it.
        _ => return Err(Bail),
    };
    Ok(TypedCol { lanes, nulls })
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

    fn typed(cols: &[Vec<Value>]) -> Vec<TypedCol> {
        cols.iter().map(|c| TypedCol::from_values(c).expect("uniformly typed column")).collect()
    }

    #[test]
    fn bail_rate_is_guarded_and_proportional() {
        assert_eq!(UdfStats::default().bail_rate(), 0.0);
        let s = UdfStats { rows: 200, bail_rows: 50, ..UdfStats::default() };
        assert_eq!(s.bail_rate(), 0.25);
    }

    /// Run the typed lanes against the tree-walker and the row-at-a-time VM
    /// over the given columns; assert values and the merged CostCounter are
    /// bit-identical to both. Returns what the lanes carried, for the caller
    /// to assert on.
    fn differential(u: &UdfDef, cols: &[Vec<Value>]) -> UdfStats {
        let prog = compile(u).unwrap();
        let shape = prog.simd_shape();
        let slices: Vec<&[Value]> = cols.iter().map(|c| c.as_slice()).collect();
        let rows = cols.first().map_or(0, |c| c.len());

        let mut simd_out = Vec::new();
        let mut simd_cost = CostCounter::new();
        let mut stats = UdfStats::default();
        eval_batch_typed(
            &mut Vm::default(),
            &prog,
            &shape,
            &typed(cols),
            &mut simd_out,
            &mut simd_cost,
            &mut stats,
        )
        .unwrap();
        assert_eq!(simd_out.len(), rows);
        assert_eq!(stats.rows, rows as u64);
        assert_eq!(stats.lane_rows + stats.bail_rows, stats.rows, "every row is classified");

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
        stats
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
        let n = 3000;
        let stats = differential(
            &u,
            &[int_col(n, |i| i as i64 % 97), float_col(n, |i| (i % 13) as f64 - 6.0)],
        );
        assert_eq!((stats.lane_rows, stats.group_splits), (n as u64, 0));
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
        let stats =
            differential(&u, &[int_col(n, |i| i as i64 % 100), int_col(n, |i| i as i64 % 7)]);
        assert_eq!((stats.lane_rows, stats.group_splits), (n as u64, 1));
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
        assert_eq!(differential(&u, &[xs, ys]).lane_rows, n as u64);
    }

    #[test]
    fn loops_fall_back_to_the_scalar_vm_per_row() {
        // Straight-line prefix, then a *data-dependent* loop on one branch:
        // loop rows leave the fast path, the others stay columnar. (A loop
        // with a literal limit leaves it too — see the next test.)
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
        let stats =
            differential(&u, &[int_col(n, |i| i as i64 % 50), int_col(n, |i| i as i64 % 4)]);
        // z = 3x < 60 for x in 0..20: those rows return on the lanes, the
        // other 30 of every 50 reach the loop.
        assert_eq!((stats.lane_rows, stats.bail_rows), (120, 180));
    }

    #[test]
    fn literal_loops_bail_to_the_vm_bit_identically() {
        // for i in range(12): a literal limit is still a loop, so every row
        // leaves the lanes at it — values and costs bit-identical to both
        // scalar backends.
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
        for (pc, instr) in prog.instrs.iter().enumerate() {
            if matches!(instr, Instr::ForInit { .. } | Instr::ForNext { .. }) {
                assert_eq!(shape.class[pc], InstrClass::Bail, "pc {pc}");
            }
        }

        let n = 2500;
        let cols = [int_col(n, |i| i as i64 % 13 - 6), int_col(n, |i| i as i64 % 7)];
        let stats = differential(&u, &cols);
        assert_eq!((stats.lane_rows, stats.bail_rows), (0, n as u64), "every row bails");
    }

    #[test]
    fn counted_loop_with_branch_divergence_inside_the_body_matches() {
        // Divergence *inside* a literal loop's body: the whole selection
        // bails at the loop head, and the VM follows each row's branches.
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
        let stats =
            differential(&u, &[int_col(n, |i| i as i64 % 50), int_col(n, |i| i as i64 % 9)]);
        assert_eq!(stats.bail_rows, n as u64);
        // Null *data* rows must match through the loop too.
        let xs: Vec<Value> =
            (0..64).map(|i| if i % 5 == 0 { Value::Null } else { Value::Int(i) }).collect();
        let ys: Vec<Value> = (0..64).map(Value::Int).collect();
        assert_eq!(differential(&u, &[xs, ys]).bail_rows, 64);
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
        let stats = differential(
            &u,
            &[float_col(n, |i| (i as f64) - 128.0), int_col(n, |i| i as i64 % 11)],
        );
        assert_eq!(stats.lane_rows, n as u64);
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
        assert_eq!(differential(&u, &[xs, ys]).lane_rows, edges.len() as u64 * 8);
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
        let stats =
            differential(&u, &[bs, int_col(n, |i| i as i64 % 6), int_col(n, |i| (i as i64) % 2)]);
        assert_eq!(stats.lane_rows, n as u64);
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
        // No lane path and no lane type: the operator runs on the batch VM,
        // called here by name, which agrees with the tree-walker.
        let prog = compile(&u).unwrap();
        assert!(!prog.simd_shape().has_fast_path);
        let ss: Vec<Value> = (0..10).map(|i| Value::Text(format!("ab{i}"))).collect();
        let ys: Vec<Value> = (0..10).map(Value::Int).collect();
        assert!(TypedCol::from_values(&ss).is_none());
        let mut vm_out = Vec::new();
        let mut vm_cost = CostCounter::new();
        Vm::default().eval_batch(&prog, &[&ss, &ys], &mut vm_out, &mut vm_cost).unwrap();
        let mut interp = Interpreter::default();
        let mut tw_cost = CostCounter::new();
        for r in 0..10 {
            let o = interp.eval(&u, &[ss[r].clone(), ys[r].clone()]).unwrap();
            assert_eq!(o.value, vm_out[r]);
            assert_eq!(o.value, Value::Text(format!("AB{r}")));
            tw_cost.merge(&o.cost);
        }
        assert_eq!(vm_cost, tw_cost);
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
        let mut stats = UdfStats::default();
        let simd_err = eval_batch_typed(
            &mut Vm::default(),
            &prog,
            &shape,
            &typed(std::slice::from_ref(&xs)),
            &mut out,
            &mut cost,
            &mut stats,
        )
        .unwrap_err();
        // Rows 0..5 define z and return on the lanes; row 5 is the first of
        // the group that bailed, and the one whose error surfaces.
        assert_eq!((stats.rows, stats.lane_rows, stats.bail_rows), (6, 5, 0));
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
        assert_eq!(differential(&u, &[asv, bs, cs]).lane_rows, n as u64);
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
        assert!(TypedCol::for_type(DataType::Text).is_none());
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
            &mut UdfStats::default(),
        )
        .unwrap_err();
        assert!(matches!(&err, GracefulError::Eval(m) if m.contains("ragged batch")), "{err}");
    }

    // -----------------------------------------------------------------------
    // The kernel mirror, checked mechanically

    /// An operand of a mirror-test expression: one of [`edge_cols`] (by
    /// index), read through a parameter, or a literal.
    #[derive(Clone)]
    enum Arg {
        Col(usize),
        Lit(E),
    }

    /// Every lane type over its edge values, once with no lane NULL and once
    /// with every lane NULL — the same values under the mask, garbage that no
    /// kernel may read or trip over.
    fn edge_cols() -> Vec<TypedCol> {
        let ints = vec![0, 1, -1, 16, 17, i64::MIN, i64::MAX];
        let floats =
            vec![0.0, 1.0, -1.0, 16.0, 17.0, -0.0, f64::NAN, f64::INFINITY, -f64::INFINITY, 1e308];
        let mut cols = Vec::new();
        for (lanes, n) in
            [(Lanes::Int(ints), 7), (Lanes::Float(floats), 10), (Lanes::Bool(vec![false, true]), 2)]
        {
            cols.push(TypedCol { lanes: lanes.clone(), nulls: vec![false; n] });
            cols.push(TypedCol { lanes, nulls: vec![true; n] });
        }
        cols
    }

    /// The same edge values as literals, plus `None`.
    fn edge_lits() -> Vec<E> {
        let mut lits = vec![E::NoneLit];
        for col in edge_cols().iter().step_by(2) {
            lits.extend((0..col.len()).map(|i| match col.value(i) {
                Value::Int(v) => E::Int(v),
                Value::Float(v) => E::Float(v),
                Value::Bool(v) => E::Bool(v),
                other => unreachable!("edge columns hold numbers: {other:?}"),
            }));
        }
        lits
    }

    /// Every operand assignment of an `arity`-ary expression: all columns, or
    /// one literal among columns.
    fn assignments(arity: usize) -> Vec<Vec<Arg>> {
        let n_cols = edge_cols().len();
        let mut all: Vec<Vec<Arg>> = vec![vec![]];
        for _ in 0..arity {
            all = all
                .iter()
                .flat_map(|pre| (0..n_cols).map(move |c| [pre.as_slice(), &[Arg::Col(c)]].concat()))
                .collect();
        }
        let mut with_lit = Vec::new();
        for cols in &all {
            for pos in 0..arity {
                // One literal position at a time; skip the duplicates the
                // column it replaces would produce.
                if !matches!(cols[pos], Arg::Col(0)) {
                    continue;
                }
                for lit in edge_lits() {
                    let mut args = cols.clone();
                    args[pos] = Arg::Lit(lit);
                    with_lit.push(args);
                }
            }
        }
        all.extend(with_lit);
        all
    }

    fn same_bits(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    /// Evaluate `return build(args)` over the cross product of its column
    /// operands on the lanes, the batch VM and the tree-walker, and hold
    /// values (bit for bit, NaN included) and every cost field equal. The
    /// lanes must carry every row, or — `expect_bail` — none.
    fn mirror_case(what: &str, build: &dyn Fn(Vec<E>) -> E, args: &[Arg], expect_bail: bool) {
        let edge = edge_cols();
        let params = ["a", "b", "c"];
        let col_ids: Vec<usize> =
            args.iter().filter_map(|a| if let Arg::Col(c) = a { Some(*c) } else { None }).collect();
        let mut next_param = 0;
        let exprs: Vec<E> = args
            .iter()
            .map(|a| match a {
                Arg::Lit(e) => e.clone(),
                Arg::Col(_) => {
                    next_param += 1;
                    E::name(params[next_param - 1])
                }
            })
            .collect();
        let what = format!("{what} over {exprs:?} with columns {col_ids:?}");
        let u = udf(&params[..col_ids.len().max(1)], vec![Stmt::Return(build(exprs))]);

        // Cross product: column operand j repeats each of its lanes `stride`
        // times, `stride` the product of the lengths to its right.
        let rows: usize = col_ids.iter().map(|&c| edge[c].len()).product();
        let mut stride = rows;
        let mut cols: Vec<TypedCol> = col_ids
            .iter()
            .map(|&c| {
                stride /= edge[c].len();
                let keep: Vec<u32> =
                    (0..rows).map(|r| (r / stride % edge[c].len()) as u32).collect();
                edge[c].filter(&keep)
            })
            .collect();
        if cols.is_empty() {
            cols.push(TypedCol::non_null(Lanes::Int(vec![0; rows]), rows)); // an unused parameter carries the row count
        }
        let values: Vec<Vec<Value>> =
            cols.iter().map(|c| (0..rows).map(|r| c.value(r)).collect()).collect();
        let slices: Vec<&[Value]> = values.iter().map(|c| c.as_slice()).collect();

        let prog = compile(&u).unwrap();
        let mut out = Vec::new();
        let mut cost = CostCounter::new();
        let mut stats = UdfStats::default();
        let mut vm = Vm::default();
        eval_batch_typed(
            &mut vm,
            &prog,
            &prog.simd_shape(),
            &cols,
            &mut out,
            &mut cost,
            &mut stats,
        )
        .unwrap();
        let carried = if expect_bail { stats.bail_rows } else { stats.lane_rows };
        assert_eq!(carried, rows as u64, "{what}: {stats:?}");

        let mut vm_out = Vec::new();
        let mut vm_cost = CostCounter::new();
        vm.eval_batch(&prog, &slices, &mut vm_out, &mut vm_cost).unwrap();
        let mut interp = Interpreter::default();
        let mut tw_cost = CostCounter::new();
        for r in 0..rows {
            let row: Vec<Value> = values.iter().map(|c| c[r].clone()).collect();
            let tw = interp.eval(&u, &row).unwrap();
            assert!(same_bits(&out[r], &vm_out[r]), "{what}, row {row:?}: VM {:?}", vm_out[r]);
            assert!(same_bits(&out[r], &tw.value), "{what}, row {row:?}: walker {:?}", tw.value);
            tw_cost.merge(&tw.cost);
        }
        assert_eq!(cost, vm_cost, "{what}");
        assert_eq!(cost, tw_cost, "{what}");
        assert_eq!(cost.total.to_bits(), vm_cost.total.to_bits(), "{what}");
    }

    /// The mechanical check behind "mirror `crate::ops` expression for
    /// expression": every operator and every function with a lane kernel,
    /// over every lane type, NULLs, literals and the edge values of `i64` and
    /// `f64`, stays on the lanes and agrees with both scalar evaluators bit
    /// for bit. The one refusal by design is `**` with an int base under an
    /// int exponent that is not a literal, which must bail every row.
    #[test]
    fn lane_kernels_mirror_the_scalar_kernels_over_edge_values() {
        let edge = edge_cols();
        let is_int_col =
            |a: &Arg| matches!(a, Arg::Col(c) if matches!(edge[*c].lanes, Lanes::Int(_)));
        for args in assignments(2) {
            for op in BinOp::ALL {
                let refused = op == BinOp::Pow
                    && (is_int_col(&args[0]) || matches!(args[0], Arg::Lit(E::Int(_))))
                    && is_int_col(&args[1]);
                let build = |mut e: Vec<E>| {
                    let r = e.pop().unwrap();
                    E::bin(op, e.pop().unwrap(), r)
                };
                mirror_case(op.symbol(), &build, &args, refused);
            }
            for op in CmpOp::ALL {
                let build = |mut e: Vec<E>| {
                    let r = e.pop().unwrap();
                    E::cmp(op, e.pop().unwrap(), r)
                };
                mirror_case(op.symbol(), &build, &args, false);
            }
        }
        for args in assignments(1) {
            for op in [UnOp::Neg, UnOp::Not] {
                let build = |mut e: Vec<E>| E::Unary { op, operand: Box::new(e.pop().unwrap()) };
                mirror_case(&format!("{op:?}"), &build, &args, false);
            }
        }
        let kernels: Vec<LibFn> = LibFn::ALL.into_iter().filter(|f| f.has_lane_kernel()).collect();
        assert_eq!(kernels.len(), 26);
        for func in kernels {
            for args in assignments(func.arity()) {
                mirror_case(func.python_name(), &|e| E::call(func, e), &args, false);
            }
        }
    }

    /// Divergence is bounded by the rows, not by a valve: ten sequential
    /// bit tests over 1 024 distinct rows end in 1 024 single-row groups
    /// after 1 023 splits, every row still on the lanes and bit-identical.
    #[test]
    fn a_thousand_splits_stay_on_the_lanes() {
        let mut body = vec![Stmt::Assign { target: "z".into(), expr: E::Int(0) }];
        for bit in 0..10 {
            let shifted = E::bin(BinOp::FloorDiv, E::name("x"), E::Int(1 << bit));
            body.push(Stmt::If {
                cond: E::cmp(CmpOp::Eq, E::bin(BinOp::Mod, shifted, E::Int(2)), E::Int(1)),
                then_body: vec![Stmt::Assign {
                    target: "z".into(),
                    expr: E::bin(BinOp::Add, E::name("z"), E::Int(3 << bit)),
                }],
                else_body: vec![],
            });
        }
        body.push(Stmt::Return(E::name("z")));
        let stats = differential(&udf(&["x"], body), &[int_col(1024, |i| i as i64)]);
        assert_eq!((stats.lane_rows, stats.bail_rows, stats.group_splits), (1024, 0, 1023));
    }
}
