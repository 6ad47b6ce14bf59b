//! Literal trip counts for `for` loops.
//!
//! A `for i in range(n)` loop lowers to a `ForInit`/`ForNext` pair. When `n`
//! is an integer literal — the `ForInit` reads the constant pool — the
//! loop's iteration structure is data-independent: every row executes
//! exactly `n` iterations.
//! [`Program::simd_shape`](crate::bytecode::Program::simd_shape) uses this
//! to reclassify such loops from
//! [`InstrClass::Bail`](crate::bytecode::InstrClass::Bail) (scalar per-row
//! fallback) into [`InstrClass::Counted`](crate::bytecode::InstrClass::Counted)
//! segments the columnar executor unrolls across the whole lane block,
//! replaying the per-iteration cost charges so values *and*
//! [`CostCounter`](crate::costs::CostCounter) totals stay bit-identical with
//! the tree-walker and the VM.
//!
//! A limit held in a register is never counted, even one a dataflow analysis
//! could pin (`n = 7; range(n)`): the generator writes loop limits as
//! literals or as `int(x) % M + 1`, so no corpus loop would take that path.
//!
//! The executor additionally re-checks the limit lanes at run time (uniform
//! non-null `Int` scan), so a bug here degrades to a bail-out, never to a
//! wrong answer — the differential property suite keeps both layers honest.

use crate::bytecode::{Instr, Program};
use graceful_storage::Value;

/// Largest trip count eligible for SIMD widening. Beyond this, unrolling a
/// whole lane block per iteration stops paying for itself against the
/// batch VM (each iteration replays every body instruction across the
/// block), so larger loops stay on the scalar fallback.
pub const MAX_COUNTED_TRIPS: i64 = 64;

/// Per-instruction literal trip counts: `out[pc]` is `Some(n)` iff `pc` is a
/// `ForInit` or `ForNext` of a loop whose limit is the integer literal `n`
/// (negative literals clamp to zero trips), with `n <= `[`MAX_COUNTED_TRIPS`].
/// Total over arbitrary programs — trip counts are an optimization, not a
/// soundness gate, and the verifier reports corruption separately.
pub fn trip_counts(prog: &Program) -> Vec<Option<u32>> {
    let mut out = vec![None; prog.instrs.len()];
    for pc in 0..prog.instrs.len() {
        let Instr::ForInit { counter, limit, src } = &prog.instrs[pc] else { continue };
        // The verifier guarantees this pairing; re-check so the analysis is
        // total over arbitrary programs.
        let paired = matches!(
            prog.instrs.get(pc + 1),
            Some(Instr::ForNext { counter: c, limit: l, .. }) if c == counter && l == limit
        );
        if !paired || !src.is_const() {
            continue;
        }
        // Float/Text/NULL literals are not counted.
        let Some(Value::Int(n)) = prog.consts.get(src.index()) else { continue };
        // `ForInit` clamps negative limits to zero trips.
        let n = (*n).max(0);
        if n <= MAX_COUNTED_TRIPS {
            out[pc] = Some(n as u32);
            out[pc + 1] = Some(n as u32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr, Stmt, UdfDef};
    use crate::bytecode::compile;

    fn loop_udf(count: Expr, prefix: Vec<Stmt>) -> Program {
        let mut body = prefix;
        body.push(Stmt::For {
            var: "i".into(),
            count,
            body: vec![Stmt::Assign {
                target: "z".into(),
                expr: Expr::bin(BinOp::Add, Expr::name("i"), Expr::name("x")),
            }],
        });
        body.push(Stmt::Return(Expr::name("z")));
        let u = UdfDef { name: "f".into(), params: vec!["x".into()], body };
        compile(&u).unwrap()
    }

    fn the_trip(p: &Program) -> Option<u32> {
        let t = trip_counts(p);
        let pc = p.instrs.iter().position(|i| matches!(i, Instr::ForInit { .. })).unwrap();
        assert_eq!(t[pc], t[pc + 1], "ForInit and ForNext agree");
        t[pc]
    }

    #[test]
    fn literal_limits_are_counted() {
        assert_eq!(the_trip(&loop_udf(Expr::Int(12), vec![])), Some(12));
        assert_eq!(the_trip(&loop_udf(Expr::Int(0), vec![])), Some(0));
        assert_eq!(the_trip(&loop_udf(Expr::Int(-3), vec![])), Some(0), "negative clamps to 0");
    }

    #[test]
    fn data_dependent_oversized_and_non_int_limits_are_not() {
        // range(x): parameter-dependent.
        assert_eq!(the_trip(&loop_udf(Expr::name("x"), vec![])), None);
        // n = 7; for i in range(n): a register limit, whatever it holds.
        let p = loop_udf(
            Expr::name("n"),
            vec![Stmt::Assign { target: "n".into(), expr: Expr::Int(7) }],
        );
        assert_eq!(the_trip(&p), None);
        // range(65): provable but past the widening payoff bound.
        assert_eq!(the_trip(&loop_udf(Expr::Int(MAX_COUNTED_TRIPS + 1), vec![])), None);
        assert_eq!(the_trip(&loop_udf(Expr::Int(MAX_COUNTED_TRIPS), vec![])), Some(64));
        // range(2.5): Float literal limit — `int(...)` at runtime, skip.
        assert_eq!(the_trip(&loop_udf(Expr::Float(2.5), vec![])), None);
    }
}
