//! Definite initialization: the verifier's forward dataflow over the
//! basic-block CFG.
//!
//! The fact at a program point is one bit per register: true when the
//! register has been written on **every** path reaching the point.
//! Parameters start initialized; joins intersect. [`Instr::CheckDef`] *sets*
//! the bit — the VM errors the row out unless the slot is defined, so any
//! fall-through is a runtime guarantee (eliding this makes the verifier
//! reject legitimate compiler output for conditionally-assigned variables).
//! [`Instr::ForNext`] (and its closed form [`Instr::ForClosed`]) is the one
//! instruction whose effect differs between its outgoing edges: it binds the
//! loop variable only when the loop continues.
//!
//! A worklist iterates blocks until the block-entry facts reach a fixpoint;
//! bits only ever clear at a join, so it terminates. "Unreachable" is a block
//! whose entry fact is still `None`.

use super::cfg::{Cfg, EdgeKind};
use crate::bytecode::{Instr, Program};

fn set(fact: &mut [bool], reg: u16) {
    if let Some(slot) = fact.get_mut(reg as usize) {
        *slot = true;
    }
}

/// Effect of executing `instr` — the part common to all outgoing edges.
fn transfer(instr: &Instr, fact: &mut [bool]) {
    match instr {
        Instr::Copy { dst, .. }
        | Instr::Unary { dst, .. }
        | Instr::Binary { dst, .. }
        | Instr::Compare { dst, .. }
        | Instr::CastBool { dst, .. }
        | Instr::Call { dst, .. } => set(fact, *dst),
        Instr::ForInit { counter, limit, .. } => {
            set(fact, *counter);
            set(fact, *limit);
        }
        Instr::WhileInit { counter } | Instr::WhileIter { counter } => set(fact, *counter),
        Instr::CheckDef { slot } | Instr::MarkDef { slot } => set(fact, *slot),
        Instr::Jump { .. }
        | Instr::JumpIfFalse { .. }
        | Instr::JumpIfTrue { .. }
        | Instr::ForNext { .. }
        | Instr::ForClosed { .. }
        | Instr::Cost(_)
        | Instr::Charge { .. }
        | Instr::Return { .. }
        | Instr::ReturnNull => {}
    }
}

/// Intersect `other` into `fact`; returns whether `fact` changed.
fn join(fact: &mut [bool], other: &[bool]) -> bool {
    let mut changed = false;
    for (a, b) in fact.iter_mut().zip(other) {
        if *a && !b {
            *a = false;
            changed = true;
        }
    }
    changed
}

/// Per-instruction definite-initialization facts: `result[pc][r]` is true
/// when register `r` is written on every path reaching `prog.instrs[pc]`
/// (the fact holding **before** it executes); `None` for unreachable
/// instructions.
pub(crate) fn definite_init(cfg: &Cfg, prog: &Program) -> Vec<Option<Vec<bool>>> {
    let nb = cfg.blocks.len();
    let mut entry = vec![false; prog.n_regs as usize];
    entry.iter_mut().take(prog.n_params()).for_each(|slot| *slot = true);
    let mut block_in: Vec<Option<Vec<bool>>> = vec![None; nb];
    block_in[0] = Some(entry);
    let mut queued = vec![false; nb];
    let mut work = std::collections::VecDeque::with_capacity(nb);
    work.push_back(0usize);
    queued[0] = true;
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        let Some(mut out) = block_in[b].clone() else { continue };
        let blk = cfg.blocks[b];
        for pc in blk.range() {
            transfer(&prog.instrs[pc], &mut out);
        }
        for &(succ, kind) in &cfg.succs[b] {
            let mut f = out.clone();
            // The loop variable and the advanced counter are written only
            // when the loop continues into its body.
            if let (
                Instr::ForNext { counter, var_slot, .. }
                | Instr::ForClosed { counter, var_slot, .. },
                EdgeKind::Next,
            ) = (&prog.instrs[blk.terminator()], kind)
            {
                set(&mut f, *var_slot);
                set(&mut f, *counter);
            }
            let changed = match &mut block_in[succ] {
                Some(cur) => join(cur, &f),
                slot @ None => {
                    *slot = Some(f);
                    true
                }
            };
            if changed && !queued[succ] {
                queued[succ] = true;
                work.push_back(succ);
            }
        }
    }
    let mut facts: Vec<Option<Vec<bool>>> = vec![None; prog.instrs.len()];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let Some(mut f) = block_in[b].clone() else { continue };
        for pc in blk.range() {
            facts[pc] = Some(f.clone());
            transfer(&prog.instrs[pc], &mut f);
        }
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, CmpOp, Expr, Stmt, UdfDef};
    use crate::bytecode::compile;

    fn udf(body: Vec<Stmt>) -> Program {
        compile(&UdfDef { name: "f".into(), params: vec!["x".into()], body }).unwrap()
    }

    #[test]
    fn solver_reaches_a_fixpoint_on_loopy_programs() {
        let p = udf(vec![
            Stmt::While {
                cond: Expr::cmp(CmpOp::Lt, Expr::name("x"), Expr::Int(3)),
                body: vec![
                    Stmt::Assign { target: "y".into(), expr: Expr::Int(1) },
                    Stmt::Assign {
                        target: "x".into(),
                        expr: Expr::bin(BinOp::Add, Expr::name("x"), Expr::Int(1)),
                    },
                ],
            },
            Stmt::Return(Expr::name("x")),
        ]);
        let cfg = Cfg::build(&p).unwrap();
        let facts = definite_init(&cfg, &p);
        // Every reachable block got a fact, and the back edge — which
        // arrives with `y` written — did not make `y` definite at the loop
        // exit: zero iterations leave it unwritten.
        for b in cfg.rpo() {
            assert!(facts[cfg.blocks[b].range().start].is_some(), "reachable block {b} unsolved");
        }
        let (x, y) = (p.slots.slot_of("x").unwrap(), p.slots.slot_of("y").unwrap());
        let ret = p.instrs.iter().position(|i| matches!(i, Instr::Return { .. })).unwrap();
        let at_ret = facts[ret].as_ref().unwrap();
        assert!(at_ret[x as usize] && !at_ret[y as usize]);
        let mark_y = p
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::MarkDef { slot } if *slot == y))
            .unwrap();
        assert!(facts[mark_y + 1].as_ref().unwrap()[y as usize], "definite inside the body");
    }

    #[test]
    fn definite_init_rejects_branch_only_assignments_until_checked() {
        let p = udf(vec![
            Stmt::If {
                cond: Expr::cmp(CmpOp::Lt, Expr::name("x"), Expr::Int(0)),
                then_body: vec![Stmt::Assign { target: "z".into(), expr: Expr::Int(1) }],
                else_body: vec![],
            },
            Stmt::Return(Expr::name("z")),
        ]);
        let facts = definite_init(&Cfg::build(&p).unwrap(), &p);
        let z = p.slots.slot_of("z").unwrap();
        // Before the CheckDef, z is not definitely assigned; after it (at the
        // Return), the runtime guarantee makes it definite.
        let check_pc = p
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::CheckDef { slot } if *slot == z))
            .expect("compiler guards the read");
        assert!(!facts[check_pc].as_ref().unwrap()[z as usize]);
        let ret = p.instrs.iter().position(|i| matches!(i, Instr::Return { .. })).unwrap();
        assert!(facts[ret].as_ref().unwrap()[z as usize], "CheckDef establishes definiteness");
    }
}
