//! Vectorized batch VM for compiled UDF bytecode.
//!
//! Executes a [`Program`] over one row or a whole batch of rows with a
//! preallocated register file: aside from the `Value` clones string
//! operations inherently need, the per-row path performs **zero heap
//! allocation**. The VM produces the exact values and the bit-identical
//! [`CostCounter`] totals of the tree-walking [`Interpreter`] — both backends
//! share the scalar kernels in [`crate::ops`] and charge fixed-rate costs in
//! the same order (see the module docs of [`crate::bytecode`]).
//!
//! [`Interpreter`]: crate::interp::Interpreter

use crate::bytecode::{Instr, Operand, Program};
use crate::costs::{CostCounter, CostWeights};
use crate::interp::{EvalOutcome, MAX_WHILE_ITERS};
use crate::ops;
use graceful_common::{GracefulError, Result};
use graceful_storage::Value;

/// A reusable VM: holds the cost weights, the register file and the
/// per-variable definedness bits. Reuse one instance across rows/batches so
/// the register file is allocated once.
#[derive(Debug)]
pub struct Vm {
    weights: CostWeights,
    regs: Vec<Value>,
    defined: Vec<bool>,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new(CostWeights::default())
    }
}

impl Vm {
    pub fn new(weights: CostWeights) -> Self {
        Vm { weights, regs: Vec::new(), defined: Vec::new() }
    }

    pub fn weights(&self) -> &CostWeights {
        &self.weights
    }

    /// Evaluate one row, mirroring [`Interpreter::eval`] exactly (same
    /// arity checks, same invocation/return conversion charges, same
    /// outcome).
    ///
    /// [`Interpreter::eval`]: crate::interp::Interpreter::eval
    pub fn eval(&mut self, prog: &Program, args: &[Value]) -> Result<EvalOutcome> {
        check_arity(prog, args.len())?;
        self.eval_row(prog, args.iter())
    }

    /// Evaluate a batch of rows given **columnar** inputs: `cols[p][r]` is
    /// parameter `p` of row `r`. Outputs are appended to `out` (one value
    /// per row) and all accounted work is merged row-by-row into `cost`,
    /// in the same order a per-row loop over the tree-walker would merge it.
    pub fn eval_batch(
        &mut self,
        prog: &Program,
        cols: &[&[Value]],
        out: &mut Vec<Value>,
        cost: &mut CostCounter,
    ) -> Result<()> {
        let rows = batch_rows(prog, cols.iter().map(|c| c.len()))?;
        out.reserve(rows);
        for r in 0..rows {
            let row = self.eval_row(prog, cols.iter().map(|c| &c[r]))?;
            out.push(row.value);
            cost.merge(&row.cost);
        }
        Ok(())
    }

    /// One row, for [`Vm::eval`] and [`Vm::eval_batch`] alike: the
    /// invocation charge (argument count and text characters), a reset
    /// register file with the arguments loaded, the run, the return charge.
    /// Callers have checked the arity.
    fn eval_row<'v>(
        &mut self,
        prog: &Program,
        args: impl ExactSizeIterator<Item = &'v Value> + Clone,
    ) -> Result<EvalOutcome> {
        let mut cost = CostCounter::new();
        let text_chars: usize = args.clone().map(|v| v.as_str().map_or(0, str::len)).sum();
        cost.add_invocation(&self.weights, args.len(), text_chars);
        self.reset(prog);
        for (slot, v) in args.enumerate() {
            self.regs[slot] = v.clone();
        }
        let value = self.run(prog, &mut cost)?;
        cost.add_return(&self.weights);
        Ok(EvalOutcome { value, cost })
    }

    /// Preallocate the register file and definedness bits for `prog` without
    /// evaluating anything. Parallel executors call this once per worker VM
    /// so the subsequent morsel loop is allocation-free from the first row
    /// (otherwise the first `eval`/`eval_batch` pays the resize).
    pub fn warm(&mut self, prog: &Program) {
        self.reset(prog);
    }

    /// Size the register file for `prog` and reset definedness: parameters
    /// defined, locals not. Register *contents* from previous rows are left
    /// in place (they are dead — every read is either dominated by a write
    /// or guarded by `CheckDef`), which is what makes the row loop
    /// allocation-free.
    fn reset(&mut self, prog: &Program) {
        if self.regs.len() < prog.n_regs as usize {
            self.regs.resize(prog.n_regs as usize, Value::Null);
        }
        let n_slots = prog.slots.len();
        if self.defined.len() < n_slots {
            self.defined.resize(n_slots, false);
        }
        let n_params = prog.n_params();
        for d in self.defined.iter_mut().take(n_params) {
            *d = true;
        }
        for d in self.defined.iter_mut().take(n_slots).skip(n_params) {
            *d = false;
        }
    }

    #[inline]
    fn val<'a>(regs: &'a [Value], consts: &'a [Value], op: Operand) -> &'a Value {
        if op.is_const() {
            &consts[op.index()]
        } else {
            &regs[op.index()]
        }
    }

    fn run(&mut self, prog: &Program, cost: &mut CostCounter) -> Result<Value> {
        let regs = &mut self.regs;
        let defined = &mut self.defined;
        let consts = &prog.consts;
        let w = &self.weights;
        let mut pc = 0usize;
        loop {
            match &prog.instrs[pc] {
                Instr::Copy { dst, src } => {
                    regs[*dst as usize] = Self::val(regs, consts, *src).clone();
                }
                Instr::Unary { op, dst, src } => {
                    let out = ops::apply_unary(w, *op, Self::val(regs, consts, *src), cost);
                    regs[*dst as usize] = out;
                }
                Instr::Binary { op, dst, l, r } => {
                    let out = ops::apply_binary(
                        w,
                        *op,
                        Self::val(regs, consts, *l),
                        Self::val(regs, consts, *r),
                        cost,
                    )?;
                    regs[*dst as usize] = out;
                }
                Instr::Compare { op, dst, l, r } => {
                    let lv = Self::val(regs, consts, *l);
                    let rv = Self::val(regs, consts, *r);
                    cost.add_compare(w);
                    let out = Value::Bool(ops::compare(*op, lv, rv));
                    regs[*dst as usize] = out;
                }
                Instr::CastBool { dst, src } => {
                    regs[*dst as usize] = Value::Bool(Self::val(regs, consts, *src).truthy());
                }
                Instr::Call { func, dst, base, n_args, has_recv } => {
                    let base = *base as usize;
                    let args_start = base + *has_recv as usize;
                    let recv = has_recv.then(|| &regs[base]);
                    let args = &regs[args_start..args_start + *n_args as usize];
                    let out = ops::apply_lib(w, *func, recv, args, cost)?;
                    regs[*dst as usize] = out;
                }
                Instr::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Instr::JumpIfFalse { cond, target } => {
                    if !Self::val(regs, consts, *cond).truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Instr::JumpIfTrue { cond, target } => {
                    if Self::val(regs, consts, *cond).truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Instr::ForInit { counter, limit, src } => {
                    let n = Self::val(regs, consts, *src).as_i64().unwrap_or(0).max(0);
                    regs[*limit as usize] = Value::Int(n);
                    regs[*counter as usize] = Value::Int(0);
                }
                Instr::ForNext { counter, limit, var_slot, exit }
                | Instr::ForClosed { counter, limit, var_slot, exit, .. } => {
                    let mut c = loop_int(prog, pc, regs, *counter, "counter")?;
                    let n = loop_int(prog, pc, regs, *limit, "limit")?;
                    // A closed-form head charges every remaining trip but
                    // the last at once (iterating where that would reach
                    // 2^52); the last runs its body like any other.
                    if let (Instr::ForClosed { per_iter, .. }, true) = (&prog.instrs[pc], n - c > 1)
                    {
                        let per_iter = &prog.charges[*per_iter as usize];
                        if let Some(all) = per_iter.repeated((n - 1 - c) as u64, cost.total) {
                            cost.merge(&all);
                            c = n - 1;
                        }
                    }
                    if c < n {
                        cost.add_loop_iter(w);
                        regs[*var_slot as usize] = Value::Int(c);
                        defined[*var_slot as usize] = true;
                        regs[*counter as usize] = Value::Int(c + 1);
                    } else {
                        pc = *exit as usize;
                        continue;
                    }
                }
                Instr::WhileInit { counter } => {
                    regs[*counter as usize] = Value::Int(0);
                }
                Instr::WhileIter { counter } => {
                    cost.add_loop_iter(w);
                    let iters = match &regs[*counter as usize] {
                        Value::Int(c) => *c + 1,
                        other => {
                            return Err(GracefulError::Verify(format!(
                                "{}: pc {pc}: while counter holds {other:?}, expected Int",
                                prog.name
                            )))
                        }
                    };
                    if iters as u64 > MAX_WHILE_ITERS {
                        return Err(GracefulError::IterationLimit { limit: MAX_WHILE_ITERS });
                    }
                    regs[*counter as usize] = Value::Int(iters);
                }
                Instr::CheckDef { slot } => {
                    if !defined[*slot as usize] {
                        return Err(GracefulError::Eval(format!(
                            "undefined variable {}",
                            prog.slots.names()[*slot as usize]
                        )));
                    }
                }
                Instr::MarkDef { slot } => {
                    defined[*slot as usize] = true;
                }
                Instr::Cost(kind) => cost.charge(w, *kind),
                Instr::Charge { idx } => cost.merge(&prog.charges[*idx as usize]),
                Instr::Return { src } => {
                    return Ok(Self::val(regs, consts, *src).clone());
                }
                Instr::ReturnNull => {
                    return Ok(Value::Null);
                }
            }
            pc += 1;
        }
    }
}

/// The `Int` a `for` loop's counter or limit register holds. `ForInit`
/// (which the verifier proves immediately precedes the loop head on every
/// path) stores `Int` in both; anything else is corrupted state and must be
/// a typed error, not a release-mode panic.
fn loop_int(prog: &Program, pc: usize, regs: &[Value], reg: u16, what: &str) -> Result<i64> {
    match &regs[reg as usize] {
        Value::Int(v) => Ok(*v),
        other => Err(GracefulError::Verify(format!(
            "{}: pc {pc}: for {what} holds {other:?}, expected Int",
            prog.name
        ))),
    }
}

/// Typed error unless a call passes one argument (or argument column) per
/// parameter of `prog`.
fn check_arity(prog: &Program, got: usize) -> Result<()> {
    if got == prog.n_params() {
        return Ok(());
    }
    Err(GracefulError::Eval(format!("{} expects {} args, got {got}", prog.name, prog.n_params())))
}

/// The shape check of a batch evaluator, before its first row: one column
/// per parameter, every column of one length. Returns that length.
///
/// A ragged batch is caller error, but it must fail loudly in release builds
/// too — a `debug_assert!` here would let release indexing panic mid-batch
/// instead of returning a typed error.
pub(crate) fn batch_rows(
    prog: &Program,
    mut col_lens: impl ExactSizeIterator<Item = usize>,
) -> Result<usize> {
    check_arity(prog, col_lens.len())?;
    let rows = col_lens.next().unwrap_or(0);
    match col_lens.find(|&len| len != rows) {
        Some(bad) => Err(GracefulError::Eval(format!(
            "{}: ragged batch: column of {bad} rows, expected {rows}",
            prog.name
        ))),
        None => Ok(rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, CmpOp, Expr as E, Stmt, UdfDef};
    use crate::bytecode::compile;
    use crate::interp::Interpreter;
    use crate::libfns::LibFn;

    fn udf(body: Vec<Stmt>) -> UdfDef {
        UdfDef { name: "f".into(), params: vec!["x".into(), "y".into()], body }
    }

    /// Run both backends and assert they agree exactly (value and cost).
    fn both(u: &UdfDef, x: Value, y: Value) -> EvalOutcome {
        let args = [x, y];
        let reference = Interpreter::default().eval(u, &args).unwrap();
        let prog = compile(u).unwrap();
        let vm_out = Vm::default().eval(&prog, &args).unwrap();
        assert_eq!(vm_out.value, reference.value, "value mismatch vs tree-walker");
        assert_eq!(vm_out.cost, reference.cost, "cost mismatch vs tree-walker");
        vm_out
    }

    #[test]
    fn arithmetic_and_return() {
        let u = udf(vec![Stmt::Return(E::bin(BinOp::Add, E::name("x"), E::name("y")))]);
        let out = both(&u, Value::Int(2), Value::Int(3));
        assert_eq!(out.value, Value::Int(5));
        assert_eq!(out.cost.arith_ops, 1);
    }

    #[test]
    fn branches_loops_and_implicit_return() {
        let u = udf(vec![
            Stmt::Assign { target: "z".into(), expr: E::Int(0) },
            Stmt::If {
                cond: E::cmp(CmpOp::Lt, E::name("x"), E::Int(20)),
                then_body: vec![Stmt::Assign {
                    target: "z".into(),
                    expr: E::bin(BinOp::Mul, E::name("x"), E::Int(2)),
                }],
                else_body: vec![Stmt::For {
                    var: "i".into(),
                    count: E::Int(50),
                    body: vec![Stmt::Assign {
                        target: "z".into(),
                        expr: E::bin(BinOp::Add, E::name("z"), E::Int(1)),
                    }],
                }],
            },
            Stmt::Return(E::name("z")),
        ]);
        assert_eq!(both(&u, Value::Int(1), Value::Int(0)).value, Value::Int(2));
        let pricey = both(&u, Value::Int(99), Value::Int(0));
        assert_eq!(pricey.value, Value::Int(50));
        assert_eq!(pricey.cost.loop_iters, 50);
    }

    #[test]
    fn null_semantics_match() {
        let u = udf(vec![Stmt::Return(E::bin(BinOp::Mul, E::name("x"), E::name("y")))]);
        assert_eq!(both(&u, Value::Null, Value::Int(3)).value, Value::Null);
        let branch = udf(vec![Stmt::If {
            cond: E::cmp(CmpOp::Lt, E::name("x"), E::Int(10)),
            then_body: vec![Stmt::Return(E::Int(1))],
            else_body: vec![Stmt::Return(E::Int(2))],
        }]);
        assert_eq!(both(&branch, Value::Null, Value::Int(0)).value, Value::Int(2));
    }

    #[test]
    fn while_loop_and_string_ops() {
        let u = udf(vec![
            Stmt::Assign { target: "i".into(), expr: E::Int(0) },
            Stmt::While {
                cond: E::cmp(CmpOp::Lt, E::name("i"), E::Int(7)),
                body: vec![Stmt::Assign {
                    target: "i".into(),
                    expr: E::bin(BinOp::Add, E::name("i"), E::Int(1)),
                }],
            },
            Stmt::Return(E::name("i")),
        ]);
        let out = both(&u, Value::Int(0), Value::Int(0));
        assert_eq!(out.value, Value::Int(7));
        assert_eq!(out.cost.loop_iters, 7);

        let s = udf(vec![Stmt::Return(E::Method {
            func: LibFn::StrUpper,
            recv: Box::new(E::name("x")),
            args: vec![],
        })]);
        let out = both(&s, Value::Text("abc".into()), Value::Int(0));
        assert_eq!(out.value, Value::Text("ABC".into()));
    }

    #[test]
    fn short_circuit_skips_work_identically() {
        let cond = E::BoolOp {
            is_and: true,
            left: Box::new(E::cmp(CmpOp::Lt, E::name("x"), E::Int(0))),
            right: Box::new(E::cmp(
                CmpOp::Gt,
                E::call(LibFn::MathSqrt, vec![E::name("y")]),
                E::Int(1),
            )),
        };
        let u = udf(vec![Stmt::Return(cond)]);
        let skipped = both(&u, Value::Int(5), Value::Int(100));
        assert_eq!(skipped.cost.lib_calls, 0);
        let taken = both(&u, Value::Int(-5), Value::Int(100));
        assert_eq!(taken.cost.lib_calls, 1);
        assert_eq!(taken.value, Value::Bool(true));
    }

    #[test]
    fn boolop_reading_its_own_assign_target() {
        // x = (y and x) must read the *original* x on the right-hand side.
        let u = udf(vec![
            Stmt::Assign {
                target: "x".into(),
                expr: E::BoolOp {
                    is_and: true,
                    left: Box::new(E::name("y")),
                    right: Box::new(E::name("x")),
                },
            },
            Stmt::Return(E::name("x")),
        ]);
        let out = both(&u, Value::Int(0), Value::Int(1));
        assert_eq!(out.value, Value::Bool(false));
        let out = both(&u, Value::Int(7), Value::Int(1));
        assert_eq!(out.value, Value::Bool(true));
    }

    #[test]
    fn runaway_while_reports_typed_limit() {
        let u = udf(vec![Stmt::While {
            cond: E::Bool(true),
            body: vec![Stmt::Assign { target: "z".into(), expr: E::Int(1) }],
        }]);
        let prog = compile(&u).unwrap();
        let err = Vm::default().eval(&prog, &[Value::Int(0), Value::Int(0)]).unwrap_err();
        assert_eq!(err, GracefulError::IterationLimit { limit: MAX_WHILE_ITERS });
    }

    #[test]
    fn undefined_variable_errors_like_tree_walker() {
        let u = udf(vec![Stmt::Return(E::name("ghost"))]);
        let prog = compile(&u).unwrap();
        let vm_err = Vm::default().eval(&prog, &[Value::Int(0), Value::Int(0)]).unwrap_err();
        let tw_err = Interpreter::default().eval(&u, &[Value::Int(0), Value::Int(0)]).unwrap_err();
        assert_eq!(vm_err, tw_err);
    }

    #[test]
    fn wrong_arity_errors() {
        let u = udf(vec![Stmt::Return(E::Int(1))]);
        let prog = compile(&u).unwrap();
        assert!(Vm::default().eval(&prog, &[Value::Int(1)]).is_err());
    }

    #[test]
    fn ragged_batch_is_a_typed_error_not_a_panic() {
        let u = udf(vec![Stmt::Return(E::bin(BinOp::Add, E::name("x"), E::name("y")))]);
        let prog = compile(&u).unwrap();
        let xs: Vec<Value> = (0..5).map(Value::Int).collect();
        let ys: Vec<Value> = (0..3).map(Value::Int).collect();
        let mut out = Vec::new();
        let mut cost = CostCounter::new();
        let err = Vm::default().eval_batch(&prog, &[&xs, &ys], &mut out, &mut cost).unwrap_err();
        assert!(matches!(&err, GracefulError::Eval(m) if m.contains("ragged batch")), "{err}");
        assert!(out.is_empty(), "no partial outputs before the shape check");
    }

    #[test]
    fn batch_matches_per_row_and_merges_costs() {
        let u = udf(vec![
            Stmt::Assign {
                target: "z".into(),
                expr: E::bin(BinOp::Mul, E::name("x"), E::Float(1.5)),
            },
            Stmt::If {
                cond: E::cmp(CmpOp::Lt, E::name("x"), E::Int(50)),
                then_body: vec![Stmt::Return(E::bin(BinOp::Add, E::name("z"), E::name("y")))],
                else_body: vec![Stmt::Return(E::call(LibFn::MathSqrt, vec![E::name("z")]))],
            },
        ]);
        let prog = compile(&u).unwrap();
        let xs: Vec<Value> = (0..100).map(Value::Int).collect();
        let ys: Vec<Value> = (0..100).map(|i| Value::Float(i as f64 / 3.0)).collect();
        let mut vm = Vm::default();
        let mut out = Vec::new();
        let mut batch_cost = CostCounter::new();
        vm.eval_batch(&prog, &[&xs, &ys], &mut out, &mut batch_cost).unwrap();
        assert_eq!(out.len(), 100);
        let mut expected_cost = CostCounter::new();
        let mut interp = Interpreter::default();
        for r in 0..100 {
            let o = interp.eval(&u, &[xs[r].clone(), ys[r].clone()]).unwrap();
            assert_eq!(o.value, out[r], "row {r}");
            expected_cost.merge(&o.cost);
        }
        assert_eq!(batch_cost, expected_cost);
    }
}
