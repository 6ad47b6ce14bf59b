//! Bytecode verifier: every structural invariant the backends trust,
//! checked.
//!
//! The VM and the SIMD executor index registers, constants and jump targets
//! straight out of the [`Program`] — a compiler bug there would surface as a
//! release-mode panic, silent garbage, or backend-divergent cost totals.
//! Every [`compile`](crate::bytecode::compile) result passes through
//! [`verify`] first, so a violated invariant becomes a typed
//! [`GracefulError::Verify`] at compile time instead. The checks, in order:
//!
//! 1. **Bounds** — every register (including call windows) is inside the
//!    register file, every constant-pool index resolves, and the register
//!    file covers the slot table.
//! 2. **Control flow** — [`Cfg::build`] rejects out-of-bounds jump targets
//!    and any path that can fall off the end of the instruction vector
//!    ("return on all paths").
//! 3. **Definite initialization** — no instruction reads a register that
//!    some path leaves unwritten (the `definite_init` dataflow; runtime
//!    [`Instr::CheckDef`] guards count as definitions because the VM errors
//!    the row out before any fall-through).
//! 4. **Cost placement** — the cost markers that keep the three backends'
//!    [`CostCounter`](crate::costs::CostCounter) totals bit-identical sit
//!    exactly where the tree-walker charges them: `Cost(Assign)` fused to
//!    its `MarkDef`, `Cost(Branch)` to its conditional jump, `Cost(Compare)`
//!    to its `CastBool`.
//! 5. **Loop pairing** — every `ForInit` is immediately followed by its
//!    `ForNext` or `ForClosed` (same counter and limit registers), the
//!    layout both the VM dispatch and the trip-count check rely on.
//!
//! A program [`crate::prune()`] rewrote passes the same checks (1 covers its
//! charge indices; in 4, it holds no marker at all).

use super::cfg::Cfg;
use super::dataflow::definite_init;
use crate::bytecode::{CostKind, Instr, Operand, Program};
use graceful_common::GracefulError;

fn err(prog: &Program, msg: String) -> GracefulError {
    GracefulError::Verify(format!("{}: {msg}", prog.name))
}

/// Registers `instr` reads, appended to `out` (constant operands excluded).
pub(crate) fn read_regs(instr: &Instr, out: &mut Vec<u16>) {
    let mut op = |o: &Operand| {
        if !o.is_const() {
            out.push(o.index() as u16);
        }
    };
    match instr {
        Instr::Copy { src, .. } | Instr::CastBool { src, .. } | Instr::Unary { src, .. } => op(src),
        Instr::Binary { l, r, .. } | Instr::Compare { l, r, .. } => {
            op(l);
            op(r);
        }
        Instr::Call { base, n_args, has_recv, .. } => {
            let total = *n_args as u16 + *has_recv as u16;
            for r in *base..base.saturating_add(total) {
                out.push(r);
            }
        }
        Instr::JumpIfFalse { cond, .. } | Instr::JumpIfTrue { cond, .. } => op(cond),
        Instr::ForInit { src, .. } => op(src),
        Instr::ForNext { counter, limit, .. } | Instr::ForClosed { counter, limit, .. } => {
            out.push(*counter);
            out.push(*limit);
        }
        Instr::WhileIter { counter } => out.push(*counter),
        Instr::Return { src } => op(src),
        // CheckDef is the runtime definedness guard itself; MarkDef and the
        // rest read nothing.
        Instr::CheckDef { .. }
        | Instr::MarkDef { .. }
        | Instr::WhileInit { .. }
        | Instr::Jump { .. }
        | Instr::Cost(_)
        | Instr::Charge { .. }
        | Instr::ReturnNull => {}
    }
}

/// Registers `instr` writes, appended to `out`.
fn write_regs(instr: &Instr, out: &mut Vec<u16>) {
    match instr {
        Instr::Copy { dst, .. }
        | Instr::Unary { dst, .. }
        | Instr::Binary { dst, .. }
        | Instr::Compare { dst, .. }
        | Instr::CastBool { dst, .. }
        | Instr::Call { dst, .. } => out.push(*dst),
        Instr::ForInit { counter, limit, .. } => {
            out.push(*counter);
            out.push(*limit);
        }
        Instr::ForNext { counter, var_slot, .. } | Instr::ForClosed { counter, var_slot, .. } => {
            out.push(*counter);
            out.push(*var_slot);
        }
        Instr::WhileInit { counter } | Instr::WhileIter { counter } => out.push(*counter),
        Instr::CheckDef { slot } | Instr::MarkDef { slot } => out.push(*slot),
        Instr::Jump { .. }
        | Instr::JumpIfFalse { .. }
        | Instr::JumpIfTrue { .. }
        | Instr::Cost(_)
        | Instr::Charge { .. }
        | Instr::Return { .. }
        | Instr::ReturnNull => {}
    }
}

/// Constant-pool indices `instr` references, appended to `out`.
fn const_idxs(instr: &Instr, out: &mut Vec<usize>) {
    let mut op = |o: &Operand| {
        if o.is_const() {
            out.push(o.index());
        }
    };
    match instr {
        Instr::Copy { src, .. } | Instr::CastBool { src, .. } | Instr::Unary { src, .. } => op(src),
        Instr::Binary { l, r, .. } | Instr::Compare { l, r, .. } => {
            op(l);
            op(r);
        }
        Instr::JumpIfFalse { cond, .. } | Instr::JumpIfTrue { cond, .. } => op(cond),
        Instr::ForInit { src, .. } => op(src),
        Instr::Return { src } => op(src),
        _ => {}
    }
}

/// Human label for a register: its slot name when it is a named slot, its
/// index otherwise (temporaries).
fn reg_label(prog: &Program, r: u16) -> String {
    match prog.slots.names().get(r as usize) {
        Some(name) => format!("r{r} (`{name}`)"),
        None => format!("r{r}"),
    }
}

fn check_bounds(prog: &Program) -> Result<(), GracefulError> {
    let n_regs = prog.n_regs as usize;
    let n_consts = prog.consts.len();
    if n_regs < prog.slots.len() {
        return Err(err(
            prog,
            format!(
                "register file ({n_regs}) does not cover the slot table ({} slots)",
                prog.slots.len()
            ),
        ));
    }
    let mut regs = Vec::with_capacity(8);
    let mut consts = Vec::with_capacity(4);
    for (pc, instr) in prog.instrs.iter().enumerate() {
        regs.clear();
        consts.clear();
        read_regs(instr, &mut regs);
        write_regs(instr, &mut regs);
        const_idxs(instr, &mut consts);
        if let Some(&r) = regs.iter().find(|&&r| r as usize >= n_regs) {
            return Err(err(
                prog,
                format!("pc {pc}: register r{r} out of bounds ({n_regs} registers)"),
            ));
        }
        if let Some(&c) = consts.iter().find(|&&c| c >= n_consts) {
            return Err(err(
                prog,
                format!("pc {pc}: constant index {c} out of bounds ({n_consts} constants)"),
            ));
        }
        if let Instr::Charge { idx: c } | Instr::ForClosed { per_iter: c, .. } = instr {
            if *c as usize >= prog.charges.len() {
                return Err(err(prog, format!("pc {pc}: charge index {c} out of bounds")));
            }
        }
        // The call window must also fit as a whole (an empty window at the
        // end of the file is fine; `read_regs` covers the occupied slots).
        if let Instr::Call { base, n_args, has_recv, .. } = instr {
            let end = *base as usize + *n_args as usize + *has_recv as usize;
            if end > n_regs {
                return Err(err(
                    prog,
                    format!("pc {pc}: call argument window r{base}..r{end} out of bounds"),
                ));
            }
        }
    }
    Ok(())
}

fn check_definite_init(prog: &Program, cfg: &Cfg) -> Result<(), GracefulError> {
    let facts = definite_init(cfg, prog);
    let mut reads = Vec::with_capacity(8);
    for (pc, instr) in prog.instrs.iter().enumerate() {
        let Some(fact) = &facts[pc] else { continue }; // unreachable instruction
        reads.clear();
        read_regs(instr, &mut reads);
        for &r in &reads {
            if !fact.get(r as usize).copied().unwrap_or(false) {
                return Err(err(
                    prog,
                    format!("pc {pc}: {} may be read before it is written", reg_label(prog, r)),
                ));
            }
        }
    }
    Ok(())
}

/// Cost markers must sit exactly where the tree-walker charges: the three
/// backends replay these markers, so a drifted marker silently breaks cost
/// parity rather than crashing. A pruned program pre-summed them all into
/// [`Instr::Charge`]s (see "Cost parity" in the `bytecode` module docs).
fn check_cost_placement(prog: &Program) -> Result<(), GracefulError> {
    if !prog.charges.is_empty() {
        return match prog.instrs.iter().position(|i| matches!(i, Instr::Cost(_))) {
            Some(pc) => Err(err(prog, format!("pc {pc}: a cost marker in a pruned program"))),
            None => Ok(()),
        };
    }
    for (pc, instr) in prog.instrs.iter().enumerate() {
        let next = prog.instrs.get(pc + 1);
        match instr {
            Instr::Cost(CostKind::Assign) if !matches!(next, Some(Instr::MarkDef { .. })) => {
                return Err(err(prog, format!("pc {pc}: Cost(Assign) not fused to a MarkDef")));
            }
            Instr::Cost(CostKind::Branch)
                if !matches!(next, Some(Instr::JumpIfFalse { .. } | Instr::JumpIfTrue { .. })) =>
            {
                return Err(err(
                    prog,
                    format!("pc {pc}: Cost(Branch) not fused to a conditional jump"),
                ));
            }
            Instr::Cost(CostKind::Compare) if !matches!(next, Some(Instr::CastBool { .. })) => {
                return Err(err(prog, format!("pc {pc}: Cost(Compare) not fused to a CastBool")));
            }
            // A MarkDef without its Cost(Assign) under-charges assignments.
            Instr::MarkDef { .. } => {
                let prev = pc.checked_sub(1).and_then(|p| prog.instrs.get(p));
                if !matches!(prev, Some(Instr::Cost(CostKind::Assign))) {
                    return Err(err(
                        prog,
                        format!("pc {pc}: MarkDef not preceded by Cost(Assign)"),
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// `ForInit` at `pc` pairs with `ForNext` at `pc + 1` over the same counter
/// and limit registers — the layout the VM's dispatch falls through and
/// the trip-count check pattern-matches.
fn check_loop_pairing(prog: &Program) -> Result<(), GracefulError> {
    for (pc, instr) in prog.instrs.iter().enumerate() {
        match instr {
            Instr::ForInit { counter, limit, .. } => match prog.instrs.get(pc + 1) {
                Some(
                    Instr::ForNext { counter: c, limit: l, .. }
                    | Instr::ForClosed { counter: c, limit: l, .. },
                ) if c == counter && l == limit => {}
                _ => {
                    return Err(err(
                        prog,
                        format!("pc {pc}: ForInit not followed by its matching ForNext"),
                    ))
                }
            },
            Instr::ForNext { counter, limit, .. } | Instr::ForClosed { counter, limit, .. } => {
                let prev = pc.checked_sub(1).and_then(|p| prog.instrs.get(p));
                match prev {
                    Some(Instr::ForInit { counter: c, limit: l, .. })
                        if c == counter && l == limit => {}
                    _ => {
                        return Err(err(
                            prog,
                            format!("pc {pc}: ForNext not preceded by its matching ForInit"),
                        ))
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Verify `prog` against every invariant above. `Ok(())` means the backends
/// can execute the program without trusting the compiler.
pub fn verify(prog: &Program) -> Result<(), GracefulError> {
    if prog.instrs.is_empty() {
        return Err(err(prog, "program has no instructions".to_string()));
    }
    check_bounds(prog)?;
    let cfg = Cfg::build(prog).map_err(|e| err(prog, e))?;
    // Cheap syntactic checks before the dataflow solve — and an unpaired
    // loop would otherwise surface as a confusing downstream
    // use-before-write diagnostic.
    check_cost_placement(prog)?;
    check_loop_pairing(prog)?;
    check_definite_init(prog, &cfg)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, CmpOp, Expr, Stmt, UdfDef};
    use crate::bytecode::compile;

    fn branchy() -> Program {
        let u = UdfDef {
            name: "f".into(),
            params: vec!["x".into()],
            body: vec![
                Stmt::If {
                    cond: Expr::cmp(CmpOp::Lt, Expr::name("x"), Expr::Int(0)),
                    then_body: vec![Stmt::Assign { target: "z".into(), expr: Expr::Int(1) }],
                    else_body: vec![],
                },
                Stmt::For {
                    var: "i".into(),
                    count: Expr::Int(3),
                    body: vec![Stmt::Assign {
                        target: "z".into(),
                        expr: Expr::bin(BinOp::Add, Expr::name("i"), Expr::Int(1)),
                    }],
                },
                Stmt::Return(Expr::name("z")),
            ],
        };
        compile(&u).unwrap()
    }

    fn expect_verify_err(p: &Program, needle: &str) {
        match verify(p) {
            Err(GracefulError::Verify(m)) => {
                assert!(m.contains(needle), "expected `{needle}` in: {m}")
            }
            other => panic!("expected Verify error mentioning `{needle}`, got {other:?}"),
        }
    }

    #[test]
    fn accepts_compiler_output() {
        verify(&branchy()).expect("compiled programs verify");
    }

    #[test]
    fn rejects_out_of_bounds_registers_and_consts() {
        let mut p = branchy();
        if let Instr::Copy { dst, .. } =
            p.instrs.iter_mut().find(|i| matches!(i, Instr::Copy { .. })).unwrap()
        {
            *dst = 999;
        }
        expect_verify_err(&p, "out of bounds");

        let mut p = branchy();
        for i in p.instrs.iter_mut() {
            if let Instr::Return { src } = i {
                *src = Operand::constant(999);
            }
        }
        expect_verify_err(&p, "constant index 999");
    }

    #[test]
    fn rejects_corrupt_control_flow() {
        let mut p = branchy();
        for i in p.instrs.iter_mut() {
            if let Instr::Jump { target } = i {
                *target = 40_000;
            }
        }
        expect_verify_err(&p, "out of bounds");

        // Dropping the trailing return lets control fall off the end.
        let mut p = branchy();
        let last = p.instrs.len() - 1;
        p.instrs[last] = Instr::Cost(CostKind::Stmt);
        expect_verify_err(&p, "fall off the end");
    }

    #[test]
    fn rejects_use_before_def_when_the_guard_is_removed() {
        // `z` is assigned on only one arm; the compiler guards the read with
        // CheckDef. Deleting that guard must trip definite-initialization.
        let mut p = branchy();
        let check = p
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::CheckDef { .. }))
            .expect("branch-only assignment is guarded");
        p.instrs[check] = Instr::Cost(CostKind::Stmt);
        expect_verify_err(&p, "read before it is written");
        // The diagnostic names the variable.
        expect_verify_err(&p, "`z`");
    }

    #[test]
    fn rejects_drifted_cost_markers_and_unpaired_loops() {
        // Detach a Cost(Assign) from its MarkDef by swapping the pair.
        let mut p = branchy();
        let pc = p
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Cost(CostKind::Assign)))
            .expect("assignments charge");
        p.instrs.swap(pc, pc + 1);
        expect_verify_err(&p, "Cost(Assign)");

        // Orphan a ForNext by overwriting its ForInit.
        let mut p = branchy();
        let pc = p
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::ForInit { .. }))
            .expect("program has a for loop");
        p.instrs[pc] = Instr::Cost(CostKind::Stmt);
        expect_verify_err(&p, "ForNext not preceded");
    }
}
