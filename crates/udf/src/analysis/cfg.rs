//! Basic-block control-flow graph over the bytecode instruction stream.
//!
//! Leaders are the entry (pc 0), every jump target and every instruction
//! after a branch/return; blocks are the maximal straight-line runs between
//! leaders. Construction is total over *arbitrary* (possibly corrupted)
//! programs: an out-of-bounds jump target or a path that can fall off the
//! end of the instruction vector is reported as an `Err` with the offending
//! pc, never a panic — the verifier turns these into typed errors.

use crate::bytecode::{Instr, Program};

/// Which outgoing edge of an instruction a successor sits on.
///
/// The distinction matters to edge-sensitive dataflow transfers:
/// [`Instr::ForNext`] binds the loop variable only when the loop *continues*
/// (its [`EdgeKind::Next`] edge), not on the exit jump; so does
/// [`Instr::ForClosed`], a `ForNext` that may skip trips ahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Fall through to `pc + 1` (a conditional branch not taken, a `ForNext`
    /// entering the loop body, or ordinary sequential flow).
    Next,
    /// The taken jump edge (unconditional jumps, taken conditionals, the
    /// `ForNext` exit).
    Branch,
}

/// One basic block: the half-open instruction range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First instruction (a leader).
    pub start: usize,
    /// One past the last instruction (the terminator is `end - 1`).
    pub end: usize,
}

impl Block {
    /// Iterate the block's instruction indices.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// The block's terminator pc (its last instruction).
    pub fn terminator(&self) -> usize {
        self.end - 1
    }
}

/// Basic-block CFG of one [`Program`], with per-edge kinds.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Blocks in instruction order; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// `succs[b]` — successor blocks of `b` with the edge kind they sit on.
    pub succs: Vec<Vec<(usize, EdgeKind)>>,
    /// `preds[b]` — predecessor blocks of `b`.
    pub preds: Vec<Vec<usize>>,
    block_of: Vec<usize>,
}

impl Cfg {
    /// Build the CFG, validating control flow as it goes: every jump target
    /// must be inside the program and no instruction may fall through past
    /// the end (i.e. every path ends in a `Return`/`ReturnNull` or loops).
    pub fn build(prog: &Program) -> Result<Cfg, String> {
        let n = prog.instrs.len();
        if n == 0 {
            return Err("program has no instructions".to_string());
        }
        let check = |pc: usize, target: u32| -> Result<usize, String> {
            let t = target as usize;
            if t < n {
                Ok(t)
            } else {
                Err(format!("pc {pc}: jump target {t} out of bounds ({n} instructions)"))
            }
        };
        let mut leader = vec![false; n];
        leader[0] = true;
        let mut mark = |pc: usize| {
            if pc < n {
                leader[pc] = true;
            }
        };
        for (pc, instr) in prog.instrs.iter().enumerate() {
            let target = instr.target();
            if let Some(t) = target {
                mark(check(pc, t)?);
            }
            if target.is_some() || matches!(instr, Instr::Return { .. } | Instr::ReturnNull) {
                mark(pc + 1);
            }
            // Everything except an unconditional transfer falls through to
            // `pc + 1`; at the last instruction that is past the end.
            let falls_through =
                !matches!(instr, Instr::Jump { .. } | Instr::Return { .. } | Instr::ReturnNull);
            if falls_through && pc + 1 == n {
                return Err(format!("pc {pc}: control can fall off the end of the program"));
            }
        }
        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for (pc, &is_leader) in leader.iter().enumerate().skip(1) {
            if is_leader {
                let id = blocks.len();
                blocks.push(Block { start, end: pc });
                block_of[start..pc].fill(id);
                start = pc;
            }
        }
        let id = blocks.len();
        blocks.push(Block { start, end: n });
        block_of[start..n].fill(id);
        let mut succs: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); blocks.len()];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); blocks.len()];
        for (b, blk) in blocks.iter().enumerate() {
            let pc = blk.terminator();
            let mut edges: Vec<(usize, EdgeKind)> = Vec::with_capacity(2);
            match &prog.instrs[pc] {
                Instr::Jump { target } => {
                    edges.push((block_of[*target as usize], EdgeKind::Branch))
                }
                Instr::JumpIfFalse { target, .. } | Instr::JumpIfTrue { target, .. } => {
                    edges.push((block_of[pc + 1], EdgeKind::Next));
                    edges.push((block_of[*target as usize], EdgeKind::Branch));
                }
                Instr::ForNext { exit, .. } | Instr::ForClosed { exit, .. } => {
                    edges.push((block_of[pc + 1], EdgeKind::Next));
                    edges.push((block_of[*exit as usize], EdgeKind::Branch));
                }
                Instr::Return { .. } | Instr::ReturnNull => {}
                // Any other terminator falls through into the next leader
                // (`pc + 1 < n` was checked above).
                _ => edges.push((block_of[pc + 1], EdgeKind::Next)),
            }
            for &(s, _) in &edges {
                preds[s].push(b);
            }
            succs[b] = edges;
        }
        Ok(Cfg { blocks, succs, preds, block_of })
    }

    /// Block containing instruction `pc`.
    pub fn block_of(&self, pc: usize) -> usize {
        self.block_of[pc]
    }

    /// Reachable blocks in reverse postorder (entry first). Unreachable
    /// blocks are absent.
    pub fn rpo(&self) -> Vec<usize> {
        let nb = self.blocks.len();
        let mut state = vec![0u8; nb]; // 0 unvisited, 1 on stack, 2 done
        let mut post = Vec::with_capacity(nb);
        // Iterative DFS with an explicit (block, next-successor) stack.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        state[0] = 1;
        while let Some(top) = stack.last_mut() {
            let b = top.0;
            if let Some(&(s, _)) = self.succs[b].get(top.1) {
                top.1 += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b] = 2;
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Immediate dominators (`idoms[b]`), computed with the iterative
    /// Cooper–Harvey–Kennedy algorithm over the reverse postorder. The entry
    /// block is its own idom; unreachable blocks get `None`.
    pub fn idoms(&self) -> Vec<Option<usize>> {
        let rpo = self.rpo();
        let mut order = vec![usize::MAX; self.blocks.len()];
        for (i, &b) in rpo.iter().enumerate() {
            order[b] = i;
        }
        let mut idom: Vec<Option<usize>> = vec![None; self.blocks.len()];
        idom[0] = Some(0);
        let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| -> usize {
            while a != b {
                while order[a] > order[b] {
                    a = idom[a].expect("processed block has an idom");
                }
                while order[b] > order[a] {
                    b = idom[b].expect("processed block has an idom");
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom = None;
                for &p in &self.preds[b] {
                    if idom[p].is_none() {
                        continue; // unreachable, or not processed yet
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, p, cur),
                    });
                }
                if new_idom.is_some() && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        idom
    }

    /// Whether block `a` dominates block `b` (both must be reachable).
    pub fn dominates(&self, idoms: &[Option<usize>], a: usize, b: usize) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match idoms[cur] {
                Some(d) if d != cur => cur = d,
                _ => return false, // reached the entry (its own idom) or unreachable
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, Expr, Stmt, UdfDef};
    use crate::bytecode::compile;

    fn branchy() -> Program {
        let u = UdfDef {
            name: "f".into(),
            params: vec!["x".into()],
            body: vec![
                Stmt::If {
                    cond: Expr::cmp(CmpOp::Lt, Expr::name("x"), Expr::Int(0)),
                    then_body: vec![Stmt::Assign { target: "z".into(), expr: Expr::Int(1) }],
                    else_body: vec![Stmt::Assign { target: "z".into(), expr: Expr::Int(2) }],
                },
                Stmt::Return(Expr::name("z")),
            ],
        };
        compile(&u).unwrap()
    }

    #[test]
    fn blocks_partition_the_program_and_entry_dominates_all() {
        let p = branchy();
        let cfg = Cfg::build(&p).unwrap();
        // Blocks tile [0, n) without gaps or overlaps.
        let mut pc = 0;
        for b in &cfg.blocks {
            assert_eq!(b.start, pc);
            assert!(b.end > b.start);
            pc = b.end;
        }
        assert_eq!(pc, p.instrs.len());
        // An if/else diamond: at least 4 blocks, entry reaches all of them.
        assert!(cfg.blocks.len() >= 4, "expected a diamond, got {} blocks", cfg.blocks.len());
        let idoms = cfg.idoms();
        for b in cfg.rpo() {
            assert!(cfg.dominates(&idoms, 0, b), "entry must dominate block {b}");
        }
        // The then/else arms do NOT dominate the join block.
        let rpo = cfg.rpo();
        let join = *rpo.last().unwrap();
        let arms: Vec<usize> = rpo
            .iter()
            .copied()
            .filter(|&b| b != 0 && b != join && !cfg.succs[b].is_empty())
            .collect();
        for a in arms {
            if cfg.succs[a].iter().any(|&(s, _)| s == join) && cfg.preds[join].len() > 1 {
                assert!(!cfg.dominates(&idoms, a, join), "arm {a} must not dominate the join");
            }
        }
    }

    #[test]
    fn corrupt_targets_and_missing_returns_are_reported_not_panicked() {
        let mut p = branchy();
        let n = p.instrs.len();
        // Out-of-bounds jump.
        for (pc, i) in p.instrs.iter_mut().enumerate() {
            if let Instr::JumpIfFalse { target, .. } = i {
                *target = 10_000;
                let err = Cfg::build(&p).unwrap_err();
                assert!(err.contains(&format!("pc {pc}")), "{err}");
                assert!(err.contains("out of bounds"), "{err}");
                break;
            }
        }
        // Dropped trailing return → fall off the end.
        let mut p = branchy();
        p.instrs[n - 1] = Instr::Cost(crate::bytecode::CostKind::Stmt);
        let err = Cfg::build(&p).unwrap_err();
        assert!(err.contains("fall off the end"), "{err}");
        // Empty program.
        p.instrs.clear();
        assert!(Cfg::build(&p).unwrap_err().contains("no instructions"));
    }
}
