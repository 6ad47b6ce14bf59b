//! Bytecode compilation of UDFs: slot-resolved variables and a compact
//! register-based instruction set.
//!
//! The tree-walking interpreter re-walks the AST and resolves every variable
//! through its name for every row. This module performs that work **once per
//! UDF**: [`SlotTable`] assigns each variable a dense numeric slot, and
//! [`compile`] lowers the AST into a [`Program`] — a flat instruction vector
//! over a register file (variable slots first, expression temporaries after)
//! plus a constant pool. The batch VM in [`crate::vm`] then evaluates a
//! `Program` over many rows with zero per-row allocation.
//!
//! # Cost parity
//!
//! The instruction stream is arranged so that executing it performs exactly
//! the same sequence of [`CostCounter`] additions
//! as the tree-walker: dedicated [`Instr::Cost`] markers mirror the
//! per-statement / per-assign / per-branch / short-circuit charges, loop
//! instructions charge `loop_iter` at the same point in the iteration, and
//! all scalar arithmetic goes through the shared kernels in [`crate::ops`].
//! Identical sequence ⇒ bit-identical `f64` totals — which the differential
//! property suite asserts over the whole generated corpus.
//!
//! A program [`crate::prune()`] rewrote charges the same amounts grouped
//! differently: [`Instr::Charge`] adds a block's charges pre-summed, and
//! [`Instr::ForClosed`] a loop's remaining trips as one product. That is
//! bit-identical by an integral-charge argument, and the pass rewrites only
//! where it holds: no text (no per-character charge), and every weight the
//! program can charge an integer-valued `f64` in `[0, 2^20]`, as the default
//! weights and every library base cost are. Then every charge and every
//! partial sum of a row's total is an integer below 2^53 (a row would need
//! 2^32 charges to get there, and a closed form never takes a total to
//! 2^52), where `f64` addition is exact, hence associative: any grouping
//! gives the same bits. A row that errors returns no cost, so where in its
//! block a charge lands cannot show either.

use crate::ast::{Expr, Stmt, UdfDef, UnOp};
use crate::costs::CostCounter;
use crate::interp::MAX_WHILE_ITERS;
use crate::libfns::LibFn;
use graceful_common::{GracefulError, Result};
use graceful_storage::Value;

/// Dense name → slot mapping for one UDF (parameters first, in order).
///
/// Shared by the bytecode compiler and the tree-walking interpreter, so both
/// backends agree on slot numbering and neither hashes variable names on the
/// per-row path. Lookup is a linear scan: UDFs in the paper's corpus have a
/// handful of variables, where scanning a dozen `&str`s beats hashing.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotTable {
    names: Vec<String>,
    n_params: usize,
}

impl SlotTable {
    /// Collect every variable the UDF can touch: parameters (slots `0..k` in
    /// declaration order), assignment targets, loop variables, and any name
    /// that is only ever *read* (so undefined-variable errors surface at
    /// evaluation time, exactly like the tree-walker).
    pub fn build(udf: &UdfDef) -> SlotTable {
        let mut names: Vec<String> = Vec::with_capacity(udf.params.len() + 4);
        for p in &udf.params {
            if !names.contains(p) {
                names.push(p.clone());
            }
        }
        let n_params = names.len();
        let mut add = |n: &str| {
            if !names.iter().any(|x| x == n) {
                names.push(n.to_string());
            }
        };
        udf.visit_stmts(&mut |s| {
            s.expr().visit(&mut |e| {
                if let Expr::Name(n) = e {
                    add(n);
                }
            });
            if let Stmt::Assign { target: v, .. } | Stmt::For { var: v, .. } = s {
                add(v);
            }
        });
        SlotTable { names, n_params }
    }

    /// Slot of `name`, if the UDF mentions it anywhere.
    pub fn slot_of(&self, name: &str) -> Option<u16> {
        self.names.iter().position(|n| n == name).map(|i| i as u16)
    }

    /// Number of slots (parameters + locals).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of parameter slots (`0..n_params` are the parameters).
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// All slot names, indexed by slot.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// An instruction operand: either a register or a constant-pool entry.
///
/// Encoded in one `u16`; the high bit selects the constant pool. Register
/// operands may point at variable slots directly, so reading a variable does
/// not copy it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operand(u16);

const CONST_BIT: u16 = 1 << 15;

impl Operand {
    pub fn reg(r: u16) -> Operand {
        debug_assert!(r < CONST_BIT);
        Operand(r)
    }

    pub fn constant(idx: u16) -> Operand {
        debug_assert!(idx < CONST_BIT);
        Operand(idx | CONST_BIT)
    }

    #[inline]
    pub fn is_const(self) -> bool {
        self.0 & CONST_BIT != 0
    }

    #[inline]
    pub fn index(self) -> usize {
        (self.0 & !CONST_BIT) as usize
    }
}

/// Which fixed-rate cost a [`Instr::Cost`] marker charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// Per-statement dispatch (`add_stmt`).
    Stmt,
    /// Per-assignment store (`add_assign`).
    Assign,
    /// Per-`if` branch evaluation (`add_branch`).
    Branch,
    /// Short-circuit boolean evaluation (`add_compare`, matching the
    /// tree-walker's charge on `and` / `or`).
    Compare,
}

/// The register-based instruction set.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `regs[dst] = value(src)` (variable reads/writes, constant loads).
    Copy { dst: u16, src: Operand },
    /// Unary op; charges one (fast) arithmetic op.
    Unary { op: UnOp, dst: u16, src: Operand },
    /// Binary op via [`crate::ops::apply_binary`] (charges inside).
    Binary { op: crate::ast::BinOp, dst: u16, l: Operand, r: Operand },
    /// Comparison; charges one compare.
    Compare { op: crate::ast::CmpOp, dst: u16, l: Operand, r: Operand },
    /// `regs[dst] = Bool(value(src).truthy())` — boolean coercion for
    /// short-circuit results. Free, like the tree-walker's `truthy()`.
    CastBool { dst: u16, src: Operand },
    /// Library/builtin/method call. The receiver (if `has_recv`) and the
    /// arguments live in consecutive registers starting at `base`.
    Call { func: LibFn, dst: u16, base: u16, n_args: u8, has_recv: bool },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Jump when `value(cond)` is falsy (NULL/0/empty are falsy).
    JumpIfFalse { cond: Operand, target: u32 },
    /// Jump when `value(cond)` is truthy.
    JumpIfTrue { cond: Operand, target: u32 },
    /// `for` prologue: clamp the trip count and zero the counter.
    ForInit { counter: u16, limit: u16, src: Operand },
    /// `for` loop head: exit when done, else charge an iteration, bind the
    /// loop variable and advance.
    ForNext { counter: u16, limit: u16, var_slot: u16, exit: u32 },
    /// `while` prologue: zero the iteration guard.
    WhileInit { counter: u16 },
    /// `while` body entry: charge an iteration and enforce
    /// [`MAX_WHILE_ITERS`] (typed [`GracefulError::IterationLimit`]).
    WhileIter { counter: u16 },
    /// Error if the variable slot has not been assigned yet this row.
    CheckDef { slot: u16 },
    /// Mark a variable slot as assigned.
    MarkDef { slot: u16 },
    /// Charge a fixed-rate cost (see [`CostKind`]).
    Cost(CostKind),
    /// Merge the pre-summed `charges[idx]` of a pruned program: one run of
    /// a basic block's charges, dead instructions' included.
    Charge { idx: u32 },
    /// The head of a `for` loop whose body only charges: `ForNext`, after
    /// charging all remaining trips but the last × `charges[per_iter]` at
    /// once (unless that would reach 2^52) and skipping the counter ahead.
    ForClosed { counter: u16, limit: u16, var_slot: u16, exit: u32, per_iter: u32 },
    /// Return `value(src)`.
    Return { src: Operand },
    /// Implicit `return None` at the end of the body.
    ReturnNull,
}

/// A compiled UDF.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub instrs: Vec<Instr>,
    pub consts: Vec<Value>,
    pub slots: SlotTable,
    /// Total register-file size (variable slots + expression temporaries).
    pub n_regs: u16,
    pub name: String,
    /// The pre-summed charges [`Instr::Charge`] and [`Instr::ForClosed`]
    /// index; empty unless [`crate::prune()`] rewrote the program.
    pub charges: Vec<CostCounter>,
}

impl Instr {
    /// Where a jump, or a `for` loop head on exit, goes.
    pub fn target(&self) -> Option<u32> {
        self.clone().target_mut().map(|t| *t)
    }

    /// [`Instr::target`], to patch.
    pub fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Instr::Jump { target: t }
            | Instr::JumpIfFalse { target: t, .. }
            | Instr::JumpIfTrue { target: t, .. }
            | Instr::ForNext { exit: t, .. }
            | Instr::ForClosed { exit: t, .. } => Some(t),
            _ => None,
        }
    }
}

impl Program {
    pub fn n_params(&self) -> usize {
        self.slots.n_params()
    }
}

/// Reject duplicate parameter names (the parser already does; this guards
/// programmatically-constructed `UdfDef`s, with the same error in both
/// backends).
pub(crate) fn check_params(udf: &UdfDef) -> Result<()> {
    for (i, p) in udf.params.iter().enumerate() {
        if udf.params[..i].contains(p) {
            return Err(GracefulError::Eval(format!("{}: duplicate parameter {p}", udf.name)));
        }
    }
    Ok(())
}

/// Compile a UDF definition to bytecode.
///
/// Fails for duplicate parameter names, for degenerate inputs the register
/// encoding cannot express (>32k registers or constants) — every UDF the
/// generator or parser produces compiles — and for any program the bytecode
/// verifier ([`crate::analysis::verify()`]) rejects, so a compiler bug
/// surfaces here as a typed error instead of as backend-divergent behaviour
/// downstream. The verifier always runs: nothing switches it off.
pub fn compile(udf: &UdfDef) -> Result<Program> {
    check_params(udf)?;
    let slots = SlotTable::build(udf);
    let mut c = Compiler {
        instrs: Vec::new(),
        consts: Vec::new(),
        temp_next: slots.len() as u16,
        max_regs: slots.len() as u16,
        slots: &slots,
        udf_name: &udf.name,
    };
    // Parameters are definitely assigned on entry.
    let mut assigned = vec![false; slots.len()];
    for a in assigned.iter_mut().take(slots.n_params()) {
        *a = true;
    }
    c.block(&udf.body, &mut assigned)?;
    c.emit(Instr::ReturnNull);
    let prog = Program {
        instrs: c.instrs,
        consts: c.consts,
        n_regs: c.max_regs,
        slots,
        name: udf.name.clone(),
        charges: Vec::new(),
    };
    crate::analysis::verify(&prog)?;
    Ok(prog)
}

struct Compiler<'a> {
    instrs: Vec<Instr>,
    consts: Vec<Value>,
    temp_next: u16,
    max_regs: u16,
    slots: &'a SlotTable,
    udf_name: &'a str,
}

impl<'a> Compiler<'a> {
    fn emit(&mut self, i: Instr) -> usize {
        self.instrs.push(i);
        self.instrs.len() - 1
    }

    fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match self.instrs[at].target_mut() {
            Some(t) => *t = target,
            None => unreachable!("patching non-jump instruction at pc {at}"),
        }
    }

    fn alloc_temp(&mut self) -> Result<u16> {
        let r = self.temp_next;
        if r >= CONST_BIT {
            return Err(GracefulError::Eval(format!(
                "UDF {} too complex to compile: register file exceeded",
                self.udf_name
            )));
        }
        self.temp_next += 1;
        self.max_regs = self.max_regs.max(self.temp_next);
        Ok(r)
    }

    fn temp_mark(&self) -> u16 {
        self.temp_next
    }

    fn temp_reset(&mut self, mark: u16) {
        self.temp_next = mark;
    }

    fn const_idx(&mut self, v: Value) -> Result<Operand> {
        let idx = match self.consts.iter().position(|c| *c == v) {
            Some(i) => i,
            None => {
                self.consts.push(v);
                self.consts.len() - 1
            }
        };
        if idx >= CONST_BIT as usize {
            return Err(GracefulError::Eval(format!(
                "UDF {} too complex to compile: constant pool exceeded",
                self.udf_name
            )));
        }
        Ok(Operand::constant(idx as u16))
    }

    /// `SlotTable::build` gives every name the body mentions a slot, so a
    /// miss is a compiler bug, reported like the verifier's findings.
    fn slot(&self, name: &str) -> Result<u16> {
        self.slots.slot_of(name).ok_or_else(|| {
            GracefulError::Verify(format!("{}: `{name}` has no slot", self.udf_name))
        })
    }

    // -- statements ---------------------------------------------------------

    fn block(&mut self, body: &[Stmt], assigned: &mut [bool]) -> Result<()> {
        for stmt in body {
            self.emit(Instr::Cost(CostKind::Stmt));
            match stmt {
                Stmt::Assign { target, expr } => {
                    let slot = self.slot(target)?;
                    let mark = self.temp_mark();
                    // Compiling the expression straight into the variable slot
                    // skips a copy, but is only sound when no instruction can
                    // write `slot` before the final one: short-circuit
                    // (`BoolOp`) lowering writes `dst` early, so route those
                    // through a temporary.
                    if contains_boolop(expr) {
                        let t = self.expr_value(expr, assigned)?;
                        self.emit(Instr::Copy { dst: slot, src: t });
                    } else {
                        self.expr_into(expr, slot, assigned)?;
                    }
                    self.temp_reset(mark);
                    self.emit(Instr::Cost(CostKind::Assign));
                    self.emit(Instr::MarkDef { slot });
                    assigned[slot as usize] = true;
                }
                Stmt::If { cond, then_body, else_body } => {
                    let mark = self.temp_mark();
                    let c = self.expr_value(cond, assigned)?;
                    self.emit(Instr::Cost(CostKind::Branch));
                    let jf = self.emit(Instr::JumpIfFalse { cond: c, target: 0 });
                    self.temp_reset(mark);
                    let mut then_assigned = assigned.to_vec();
                    self.block(then_body, &mut then_assigned)?;
                    if else_body.is_empty() {
                        let end = self.here();
                        self.patch(jf, end);
                        // Else side assigns nothing: definite set unchanged.
                    } else {
                        let jend = self.emit(Instr::Jump { target: 0 });
                        let else_at = self.here();
                        self.patch(jf, else_at);
                        let mut else_assigned = assigned.to_vec();
                        self.block(else_body, &mut else_assigned)?;
                        let end = self.here();
                        self.patch(jend, end);
                        for (a, (t, e)) in
                            assigned.iter_mut().zip(then_assigned.iter().zip(else_assigned.iter()))
                        {
                            *a = *a || (*t && *e);
                        }
                    }
                }
                Stmt::For { var, count, body } => {
                    let var_slot = self.slot(var)?;
                    let mark = self.temp_mark();
                    let src = self.expr_value(count, assigned)?;
                    // Counter/limit temporaries live across the body; they are
                    // allocated above `src`'s temp (not over it) so `ForInit`
                    // never reads a register it just clobbered.
                    let counter = self.alloc_temp()?;
                    let limit = self.alloc_temp()?;
                    self.emit(Instr::ForInit { counter, limit, src });
                    let head = self.here();
                    let next = self.emit(Instr::ForNext { counter, limit, var_slot, exit: 0 });
                    // The loop variable is assigned on every path through the
                    // body; the body may run zero times, so nothing it (or
                    // the binding) assigns is definite afterwards.
                    let mut body_assigned = assigned.to_vec();
                    body_assigned[var_slot as usize] = true;
                    self.block(body, &mut body_assigned)?;
                    self.emit(Instr::Jump { target: head });
                    let exit = self.here();
                    self.patch(next, exit);
                    self.temp_reset(mark);
                }
                Stmt::While { cond, body } => {
                    let outer = self.temp_mark();
                    let counter = self.alloc_temp()?;
                    self.emit(Instr::WhileInit { counter });
                    let head = self.here();
                    let mark = self.temp_mark();
                    let c = self.expr_value(cond, assigned)?;
                    let jf = self.emit(Instr::JumpIfFalse { cond: c, target: 0 });
                    self.temp_reset(mark);
                    self.emit(Instr::WhileIter { counter });
                    let mut body_assigned = assigned.to_vec();
                    self.block(body, &mut body_assigned)?;
                    self.emit(Instr::Jump { target: head });
                    let exit = self.here();
                    self.patch(jf, exit);
                    self.temp_reset(outer);
                }
                Stmt::Return(e) => {
                    let mark = self.temp_mark();
                    let src = self.expr_value(e, assigned)?;
                    self.emit(Instr::Return { src });
                    self.temp_reset(mark);
                }
            }
        }
        Ok(())
    }

    // -- expressions --------------------------------------------------------

    /// Compile `expr` and return an operand holding its value. Names and
    /// literals become direct operands (no copy, no instruction); compound
    /// expressions land in a fresh temporary.
    fn expr_value(&mut self, expr: &Expr, assigned: &[bool]) -> Result<Operand> {
        match expr {
            Expr::Name(n) => {
                let slot = self.slot(n)?;
                if !assigned[slot as usize] {
                    self.emit(Instr::CheckDef { slot });
                }
                Ok(Operand::reg(slot))
            }
            Expr::Int(i) => self.const_idx(Value::Int(*i)),
            Expr::Float(f) => self.const_idx(Value::Float(*f)),
            Expr::Str(s) => self.const_idx(Value::Text(s.clone())),
            Expr::Bool(b) => self.const_idx(Value::Bool(*b)),
            Expr::NoneLit => self.const_idx(Value::Null),
            _ => {
                let t = self.alloc_temp()?;
                self.expr_into(expr, t, assigned)?;
                Ok(Operand::reg(t))
            }
        }
    }

    /// Compile `expr` so its value ends up in register `dst`.
    fn expr_into(&mut self, expr: &Expr, dst: u16, assigned: &[bool]) -> Result<()> {
        match expr {
            Expr::Name(_)
            | Expr::Int(_)
            | Expr::Float(_)
            | Expr::Str(_)
            | Expr::Bool(_)
            | Expr::NoneLit => {
                let src = self.expr_value(expr, assigned)?;
                self.emit(Instr::Copy { dst, src });
            }
            Expr::Unary { op, operand } => {
                let mark = self.temp_mark();
                let src = self.expr_value(operand, assigned)?;
                self.emit(Instr::Unary { op: *op, dst, src });
                self.temp_reset(mark);
            }
            Expr::Binary { op, left, right } => {
                let mark = self.temp_mark();
                let l = self.expr_value(left, assigned)?;
                let r = self.expr_value(right, assigned)?;
                self.emit(Instr::Binary { op: *op, dst, l, r });
                self.temp_reset(mark);
            }
            Expr::Compare { op, left, right } => {
                let mark = self.temp_mark();
                let l = self.expr_value(left, assigned)?;
                let r = self.expr_value(right, assigned)?;
                self.emit(Instr::Compare { op: *op, dst, l, r });
                self.temp_reset(mark);
            }
            Expr::BoolOp { is_and, left, right } => {
                // Tree-walker order: evaluate left, charge one compare, then
                // short-circuit. `dst` is always a temporary here (never a
                // variable slot — see the Assign lowering), so writing it
                // before deciding the branch is safe.
                let mark = self.temp_mark();
                let l = self.expr_value(left, assigned)?;
                self.emit(Instr::Cost(CostKind::Compare));
                self.emit(Instr::CastBool { dst, src: l });
                self.temp_reset(mark);
                let jump = if *is_and {
                    self.emit(Instr::JumpIfFalse { cond: Operand::reg(dst), target: 0 })
                } else {
                    self.emit(Instr::JumpIfTrue { cond: Operand::reg(dst), target: 0 })
                };
                let mark = self.temp_mark();
                let r = self.expr_value(right, assigned)?;
                self.emit(Instr::CastBool { dst, src: r });
                self.temp_reset(mark);
                let end = self.here();
                self.patch(jump, end);
            }
            Expr::Call { func, args } => {
                self.call(*func, None, args, dst, assigned)?;
            }
            Expr::Method { func, recv, args } => {
                self.call(*func, Some(recv), args, dst, assigned)?;
            }
        }
        Ok(())
    }

    /// Lower a library call: receiver (if any) and arguments are evaluated
    /// left-to-right into consecutive registers, mirroring the tree-walker's
    /// evaluation (and therefore cost) order.
    fn call(
        &mut self,
        func: LibFn,
        recv: Option<&Expr>,
        args: &[Expr],
        dst: u16,
        assigned: &[bool],
    ) -> Result<()> {
        let mark = self.temp_mark();
        let has_recv = recv.is_some();
        let n_total = args.len() + has_recv as usize;
        let base = self.temp_next;
        for _ in 0..n_total {
            self.alloc_temp()?;
        }
        let mut at = base;
        if let Some(r) = recv {
            self.expr_into(r, at, assigned)?;
            at += 1;
        }
        for a in args {
            self.expr_into(a, at, assigned)?;
            at += 1;
        }
        if args.len() > u8::MAX as usize {
            return Err(GracefulError::Eval(format!(
                "UDF {}: call with more than 255 arguments",
                self.udf_name
            )));
        }
        self.emit(Instr::Call { func, dst, base, n_args: args.len() as u8, has_recv });
        self.temp_reset(mark);
        Ok(())
    }
}

fn contains_boolop(e: &Expr) -> bool {
    match e {
        Expr::BoolOp { .. } => true,
        Expr::Unary { operand, .. } => contains_boolop(operand),
        Expr::Binary { left, right, .. } | Expr::Compare { left, right, .. } => {
            contains_boolop(left) || contains_boolop(right)
        }
        Expr::Call { args, .. } => args.iter().any(contains_boolop),
        Expr::Method { recv, args, .. } => {
            contains_boolop(recv) || args.iter().any(contains_boolop)
        }
        _ => false,
    }
}

/// The iteration cap enforced by [`Instr::WhileIter`] (re-exported for
/// callers that match on [`GracefulError::IterationLimit`]).
pub const WHILE_ITERATION_LIMIT: u64 = MAX_WHILE_ITERS;

// -- shape analysis for the columnar (SIMD) executor --------------------------

/// How the columnar executor in [`crate::simd`] treats one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrClass {
    /// Executes column-at-a-time over the whole selection (numeric
    /// arithmetic, comparisons, copies, cost markers, unconditional jumps).
    /// Operand *types* are still checked at run time — a `Vector`-class
    /// binary op over a string register bails the selection.
    Vector,
    /// Conditional jump: splits the selection vector by the condition
    /// column's truthiness (branch divergence).
    Split,
    /// Terminates a selection's rows with a value.
    Return,
    /// Not vectorizable (loops, string/length builtins): rows that reach it
    /// leave the fast path and fall back to the per-row [`crate::vm::Vm`].
    Bail,
}

/// Result of [`Program::simd_shape`]: per-instruction classes plus the
/// verdict on whether attempting columnar execution can pay off at all.
#[derive(Debug, Clone, PartialEq)]
pub struct SimdShape {
    /// `class[pc]` for every instruction of the program.
    pub class: Vec<InstrClass>,
    /// True when at least one entry→`Return` path exists that touches only
    /// `Vector`/`Split` instructions — i.e. some rows *can* complete on the
    /// fast path. When false the columnar executor is pure overhead (every
    /// selection would bail) and callers should go straight to the batch VM.
    pub has_fast_path: bool,
}

impl Program {
    /// Classify every instruction for the columnar executor and decide
    /// whether the program has any all-vectorizable path from entry to a
    /// `Return`.
    ///
    /// This is a *shape* analysis: it looks only at opcodes and control
    /// flow, never at value types (those are concrete per selection at run
    /// time — an `Int` column stays `Int` for every row of a batch). String
    /// *methods* and the string-only builtins are `Bail` by shape; numeric
    /// ops that merely *could* see a string-typed register stay `Vector` and
    /// are rejected per-selection by the executor's type checks.
    pub fn simd_shape(&self) -> SimdShape {
        let class: Vec<InstrClass> = self
            .instrs
            .iter()
            .map(|i| match i {
                Instr::Copy { .. }
                | Instr::Unary { .. }
                | Instr::Binary { .. }
                | Instr::Compare { .. }
                | Instr::CastBool { .. }
                | Instr::MarkDef { .. }
                | Instr::Cost(_)
                | Instr::Charge { .. }
                | Instr::Jump { .. } => InstrClass::Vector,
                // Definedness is path-determined, and the columnar executor
                // follows concrete paths: it tracks `MarkDef` per selection
                // and bails only the selections whose rows would actually
                // error (the scalar VM then reports the exact per-row error).
                Instr::CheckDef { .. } => InstrClass::Vector,
                // String receivers/outputs and the allocation-bound builtins
                // stay on the scalar path.
                Instr::Call { func, .. } if func.has_lane_kernel() => InstrClass::Vector,
                Instr::Call { .. } => InstrClass::Bail,
                Instr::JumpIfFalse { .. } | Instr::JumpIfTrue { .. } => InstrClass::Split,
                Instr::Return { .. } | Instr::ReturnNull => InstrClass::Return,
                // A loop keeps per-row iteration state the columnar model
                // does not carry, whether its limit is data-dependent or a
                // literal.
                Instr::ForInit { .. }
                | Instr::ForNext { .. }
                | Instr::ForClosed { .. }
                | Instr::WhileInit { .. }
                | Instr::WhileIter { .. } => InstrClass::Bail,
            })
            .collect();
        // DFS over the CFG restricted to Vector/Split/Return instructions.
        let mut visited = vec![false; class.len()];
        let mut stack = vec![0usize];
        let mut has_fast_path = false;
        while let Some(pc) = stack.pop() {
            if pc >= class.len() || visited[pc] {
                continue;
            }
            visited[pc] = true;
            match class[pc] {
                InstrClass::Bail => {}
                InstrClass::Return => {
                    has_fast_path = true;
                    break;
                }
                InstrClass::Vector | InstrClass::Split => match &self.instrs[pc] {
                    Instr::Jump { target } => stack.push(*target as usize),
                    Instr::JumpIfFalse { target, .. } | Instr::JumpIfTrue { target, .. } => {
                        stack.push(*target as usize);
                        stack.push(pc + 1);
                    }
                    _ => stack.push(pc + 1),
                },
            }
        }
        SimdShape { class, has_fast_path }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, CmpOp};

    fn udf(params: &[&str], body: Vec<Stmt>) -> UdfDef {
        UdfDef { name: "f".into(), params: params.iter().map(|s| s.to_string()).collect(), body }
    }

    #[test]
    fn slot_table_orders_params_first() {
        let u = udf(
            &["x", "y"],
            vec![
                Stmt::Assign { target: "z".into(), expr: Expr::name("x") },
                Stmt::For {
                    var: "i".into(),
                    count: Expr::Int(3),
                    body: vec![Stmt::Assign {
                        target: "z".into(),
                        expr: Expr::bin(BinOp::Add, Expr::name("z"), Expr::name("i")),
                    }],
                },
            ],
        );
        let t = SlotTable::build(&u);
        assert_eq!(t.n_params(), 2);
        assert_eq!(t.slot_of("x"), Some(0));
        assert_eq!(t.slot_of("y"), Some(1));
        assert_eq!(t.slot_of("z"), Some(2));
        assert_eq!(t.slot_of("i"), Some(3));
        assert_eq!(t.slot_of("nope"), None);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn read_only_names_get_slots() {
        let u = udf(&["x"], vec![Stmt::Return(Expr::name("ghost"))]);
        let t = SlotTable::build(&u);
        assert!(t.slot_of("ghost").is_some());
    }

    #[test]
    fn compile_emits_cost_markers_per_statement() {
        let u = udf(
            &["x"],
            vec![
                Stmt::Assign { target: "z".into(), expr: Expr::Int(1) },
                Stmt::Return(Expr::name("z")),
            ],
        );
        let p = compile(&u).unwrap();
        let stmt_costs =
            p.instrs.iter().filter(|i| matches!(i, Instr::Cost(CostKind::Stmt))).count();
        assert_eq!(stmt_costs, 2);
        assert!(p.instrs.iter().any(|i| matches!(i, Instr::Cost(CostKind::Assign))));
        assert!(matches!(p.instrs.last(), Some(Instr::ReturnNull)));
    }

    #[test]
    fn constants_are_deduplicated() {
        let u = udf(&["x"], vec![Stmt::Return(Expr::bin(BinOp::Add, Expr::Int(7), Expr::Int(7)))]);
        let p = compile(&u).unwrap();
        assert_eq!(p.consts.iter().filter(|c| **c == Value::Int(7)).count(), 1);
    }

    #[test]
    fn temporaries_are_reused_across_statements() {
        let assign = |t: &str| Stmt::Assign {
            target: t.into(),
            expr: Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::name("x"), Expr::Int(2)),
                Expr::Int(1),
            ),
        };
        let one = compile(&udf(&["x"], vec![assign("a")])).unwrap();
        let many = compile(&udf(&["x"], vec![assign("a"), assign("b"), assign("c")])).unwrap();
        // More statements must not grow the register file (beyond the extra
        // variable slots themselves).
        assert_eq!(many.n_regs as usize - many.slots.len(), one.n_regs as usize - one.slots.len());
    }

    #[test]
    fn definite_assignment_elides_checks_for_params() {
        let u = udf(
            &["x"],
            vec![Stmt::Return(Expr::bin(BinOp::Add, Expr::name("x"), Expr::name("x")))],
        );
        let p = compile(&u).unwrap();
        assert!(!p.instrs.iter().any(|i| matches!(i, Instr::CheckDef { .. })));
    }

    #[test]
    fn branch_only_assignment_keeps_the_check() {
        // z is assigned only in the then-branch, so the later read of z must
        // be guarded.
        let u = udf(
            &["x"],
            vec![
                Stmt::If {
                    cond: Expr::cmp(CmpOp::Lt, Expr::name("x"), Expr::Int(0)),
                    then_body: vec![Stmt::Assign { target: "z".into(), expr: Expr::Int(1) }],
                    else_body: vec![],
                },
                Stmt::Return(Expr::name("z")),
            ],
        );
        let p = compile(&u).unwrap();
        assert!(p.instrs.iter().any(|i| matches!(i, Instr::CheckDef { .. })));
    }

    #[test]
    fn both_branch_assignment_elides_the_check() {
        let u = udf(
            &["x"],
            vec![
                Stmt::If {
                    cond: Expr::cmp(CmpOp::Lt, Expr::name("x"), Expr::Int(0)),
                    then_body: vec![Stmt::Assign { target: "z".into(), expr: Expr::Int(1) }],
                    else_body: vec![Stmt::Assign { target: "z".into(), expr: Expr::Int(2) }],
                },
                Stmt::Return(Expr::name("z")),
            ],
        );
        let p = compile(&u).unwrap();
        assert!(!p.instrs.iter().any(|i| matches!(i, Instr::CheckDef { .. })));
    }

    #[test]
    fn simd_shape_classifies_straightline_numeric_as_fast() {
        let u = udf(
            &["x", "y"],
            vec![Stmt::Return(Expr::bin(BinOp::Add, Expr::name("x"), Expr::name("y")))],
        );
        let shape = compile(&u).unwrap().simd_shape();
        assert!(shape.has_fast_path);
        assert!(shape.class.iter().all(|c| *c != InstrClass::Bail));
    }

    #[test]
    fn simd_shape_marks_loops_as_bail_but_keeps_branchy_fast_paths() {
        // One branch returns straight-line, the other runs a *data-dependent*
        // loop: the program still has a fast path (the loop-free branch).
        let u = udf(
            &["x"],
            vec![
                Stmt::If {
                    cond: Expr::cmp(CmpOp::Lt, Expr::name("x"), Expr::Int(0)),
                    then_body: vec![Stmt::Return(Expr::name("x"))],
                    else_body: vec![Stmt::For {
                        var: "i".into(),
                        count: Expr::name("x"),
                        body: vec![Stmt::Assign { target: "z".into(), expr: Expr::name("i") }],
                    }],
                },
                Stmt::Return(Expr::Int(0)),
            ],
        );
        let p = compile(&u).unwrap();
        let shape = p.simd_shape();
        assert!(shape.has_fast_path);
        assert!(shape.class.contains(&InstrClass::Bail), "loop instructions classified Bail");
        assert!(shape.class.contains(&InstrClass::Split), "branch classified Split");
    }

    #[test]
    fn simd_shape_marks_literal_trip_loops_as_bail() {
        // A literal `range(3)` loop is a loop like any other: both loop
        // instructions are Bail, and with no other path to a return the
        // program has no fast path.
        let u = udf(
            &["x"],
            vec![
                Stmt::For {
                    var: "i".into(),
                    count: Expr::Int(3),
                    body: vec![Stmt::Assign { target: "z".into(), expr: Expr::name("i") }],
                },
                Stmt::Return(Expr::Int(0)),
            ],
        );
        let p = compile(&u).unwrap();
        let shape = p.simd_shape();
        assert!(!shape.has_fast_path, "every path runs the loop");
        let loop_classes: Vec<_> = (p.instrs.iter().zip(&shape.class))
            .filter(|(i, _)| matches!(i, Instr::ForInit { .. } | Instr::ForNext { .. }))
            .map(|(_, c)| *c)
            .collect();
        assert_eq!(loop_classes, [InstrClass::Bail; 2], "ForInit and ForNext both Bail");
    }

    #[test]
    fn simd_shape_rejects_programs_with_no_vectorizable_path() {
        // Every path runs through a while loop: nothing to vectorize.
        let u = udf(
            &["x"],
            vec![
                Stmt::While {
                    cond: Expr::cmp(CmpOp::Lt, Expr::name("x"), Expr::Int(0)),
                    body: vec![Stmt::Assign { target: "x".into(), expr: Expr::Int(0) }],
                },
                Stmt::Return(Expr::name("x")),
            ],
        );
        assert!(!compile(&u).unwrap().simd_shape().has_fast_path);
        // String methods bail too.
        let s = udf(
            &["s"],
            vec![Stmt::Return(Expr::Method {
                func: crate::libfns::LibFn::StrUpper,
                recv: Box::new(Expr::name("s")),
                args: vec![],
            })],
        );
        assert!(!compile(&s).unwrap().simd_shape().has_fast_path);
    }

    #[test]
    fn operand_encoding_round_trips() {
        let r = Operand::reg(5);
        assert!(!r.is_const());
        assert_eq!(r.index(), 5);
        let c = Operand::constant(9);
        assert!(c.is_const());
        assert_eq!(c.index(), 9);
    }
}
