//! Liveness pruning: a UDF program that computes only what it returns.
//!
//! The generator keeps overwriting a UDF's variables, so much of what a
//! generated program computes is never read. [`prune`] rewrites a compiled,
//! verified [`Program`] so that every evaluator skips that work and still
//! charges exactly what the plain program charges:
//!
//! * **Strong (faint-variable) liveness** over registers, one monotone
//!   backward fixpoint over the basic-block [`Cfg`] with one bitset per
//!   block: a value instruction whose result is not live is dead, and its
//!   operands are not live on its account, so dead chains fall at once.
//! * **A dead instruction becomes its charge** — `Binary` charges
//!   `add_arith(op.is_slow())`, `Unary` `add_arith(false)`, `Compare`
//!   `add_compare`, `Call` `add_lib_call`; `Copy`, `CastBool` and (in a
//!   program without `CheckDef`) `MarkDef` charge nothing — and **a block's
//!   charges become one** pre-summed [`Instr::Charge`].
//! * **A `for` loop whose body only charges** gets an [`Instr::ForClosed`]
//!   head that charges every remaining trip at once. With a literal limit
//!   and a loop variable nothing reads afterwards, the whole loop folds into
//!   its block's charge, so nested dead loops collapse.
//!
//! `CheckDef`, control flow, loop heads and returns stay; `while` loops keep
//! their counters and their `IterationLimit`.
//!
//! The pass applies to a program with no `Text` parameter or constant and no
//! string method, `len` or `str` call, under weights whose every field a
//! text-free program charges is an integer-valued `f64` in `[0, 2^20]` (the
//! defaults are); any other program comes back unchanged. It is exact: a
//! removed instruction's result is unread and cannot fail
//! (`ops::apply_binary`, `apply_unary`, `apply_lib` and `compare` return `Ok`
//! on the numbers and NULLs a text-free program holds), and its charges are
//! the same integers, grouped differently ("Cost parity" in
//! [`crate::bytecode`]). A pruned program charges the weights it was pruned
//! with: run it on a [`crate::Vm`] with the same weights.

use crate::analysis::verify::read_regs;
use crate::analysis::{Cfg, EdgeKind};
use crate::bytecode::{Instr, Program};
use crate::costs::{CostCounter, CostWeights};
use graceful_storage::{DataType, Value};

/// The largest weight a pruned program may charge: a row then runs at least
/// 2^32 charges before its total could reach 2^52.
const MAX_WEIGHT: f64 = (1u64 << 20) as f64;

/// `prog` pruned to the values its result reads, charging `w` exactly as the
/// plain program does; `prog` unchanged where the pass does not apply (see
/// the module docs). `params` are the argument columns' types, in order.
pub fn prune(prog: Program, params: &[DataType], w: &CostWeights) -> Program {
    let cfg = eligible(&prog, params, w).then(|| Cfg::build(&prog).ok()).flatten();
    let Some(cfg) = cfg else { return prog };
    let (live_in, dead) = liveness(&prog, &cfg);
    let words = live_in.len() / cfg.blocks.len();
    let has_check = prog.instrs.iter().any(|i| matches!(i, Instr::CheckDef { .. }));
    let mut items: Vec<Item> =
        prog.instrs.iter().zip(dead).map(|(i, dead)| item(i, dead, has_check, w)).collect();
    let mut targets = vec![0u32; items.len()];
    prog.instrs.iter().filter_map(Instr::target).for_each(|t| targets[t as usize] += 1);
    // `for` loops whose body only charges, inner (later) loops first: the
    // compiler lays one out as `ForInit`, `ForNext` at the head, the body,
    // a jump back to the head, and nothing else enters the body.
    let mut charges = Vec::new();
    for pc in (0..items.len()).rev() {
        let Some(Instr::ForInit { counter, limit, src }) = items[pc].0 else { continue };
        let (head, next) = (pc + 1, items.get(pc + 1).and_then(|i| i.0.clone()));
        let Some(Instr::ForNext { var_slot, exit, .. }) = next else { continue };
        let exit = exit as usize;
        let back = exit.checked_sub(1).and_then(|p| items[p].0.as_ref());
        if exit < head + 2
            || !matches!(back, Some(Instr::Jump { target }) if *target as usize == head)
            || targets[head] != 1
            || targets[head + 1..exit].iter().any(|&t| t > 0)
            || items[head + 1..exit - 1].iter().any(|(kept, _)| kept.is_some())
        {
            continue;
        }
        let mut per_iter = CostCounter::new();
        per_iter.add_loop_iter(w);
        items[head + 1..exit - 1].iter().for_each(|(_, c)| per_iter.merge(c));
        let after = &live_in[cfg.block_of(exit) * words..][..words];
        let unread = !has_check && [var_slot, counter, limit].iter().all(|&r| !test(after, r));
        let trips = (src.is_const() && unread)
            .then(|| prog.consts.get(src.index()).and_then(Value::as_i64).unwrap_or(0).max(0));
        match trips.and_then(|k| per_iter.repeated(k as u64, 0.0)) {
            Some(all) => {
                items[pc] = (None, all);
                items[head..exit].fill((None, CostCounter::new()));
                targets[head] -= 1;
                targets[exit] -= 1;
            }
            None => {
                let per_iter_at = charges.len() as u32;
                charges.push(per_iter);
                let closed = Instr::ForClosed {
                    counter,
                    limit,
                    var_slot,
                    exit: exit as u32,
                    per_iter: per_iter_at,
                };
                items[head].0 = Some(closed);
            }
        }
    }
    emit(prog, items, &targets, charges)
}

fn eligible(prog: &Program, params: &[DataType], w: &CostWeights) -> bool {
    let fixed = [w.stmt_dispatch, w.arith, w.arith_slow_extra, w.compare, w.loop_iter, w.branch];
    let per_call = [w.assign, w.invoke_base, w.invoke_per_arg, w.return_conv];
    params.len() == prog.n_params()
        && prog.charges.is_empty()
        && !params.contains(&DataType::Text)
        && !prog.consts.iter().any(|c| matches!(c, Value::Text(_)))
        && !prog.instrs.iter().any(
            |i| matches!(i, Instr::Call { func, has_recv, .. } if *has_recv || !func.has_lane_kernel()),
        )
        && fixed.iter().chain(&per_call).all(|x| x.fract() == 0.0 && (0.0..=MAX_WEIGHT).contains(x))
}

/// The register a removable instruction writes: a value instruction's,
/// whose only other effect is a fixed charge.
fn removable_dst(instr: &Instr) -> Option<u16> {
    match instr {
        Instr::Copy { dst, .. }
        | Instr::Unary { dst, .. }
        | Instr::Binary { dst, .. }
        | Instr::Compare { dst, .. }
        | Instr::CastBool { dst, .. } => Some(*dst),
        Instr::Call { dst, func, has_recv: false, .. } if func.has_lane_kernel() => Some(*dst),
        _ => None,
    }
}

fn set(bits: &mut [u64], r: u16, live: bool) {
    if let Some(w) = bits.get_mut(r as usize / 64) {
        *w = if live { *w | 1 << (r % 64) } else { *w & !(1 << (r % 64)) };
    }
}

fn test(bits: &[u64], r: u16) -> bool {
    bits.get(r as usize / 64).is_some_and(|w| w & (1 << (r % 64)) != 0)
}

/// Strong liveness: the registers live on entry to each block (a run of
/// ⌈`n_regs` / 64⌉ words per block) and the dead instructions.
fn liveness(prog: &Program, cfg: &Cfg) -> (Vec<u64>, Vec<bool>) {
    let words = (prog.n_regs as usize).div_ceil(64);
    let mut live_in = vec![0u64; cfg.blocks.len() * words];
    let mut dead = vec![false; prog.instrs.len()];
    let (mut bits, mut reads) = (vec![0u64; words], Vec::new());
    // Sets only grow from empty, so the passes end at the least fixpoint;
    // one more pass over it marks the dead.
    let mut marking = false;
    loop {
        let mut changed = false;
        for b in (0..cfg.blocks.len()).rev() {
            // Live after the block: its successors', less what a loop head
            // binds on the edge into its body.
            bits.fill(0);
            let term = &prog.instrs[cfg.blocks[b].terminator()];
            for kind in [EdgeKind::Next, EdgeKind::Branch] {
                for &(s, _) in cfg.succs[b].iter().filter(|(_, k)| *k == kind) {
                    bits.iter_mut().zip(&live_in[s * words..]).for_each(|(o, i)| *o |= i);
                }
                if let (EdgeKind::Next, Instr::ForNext { counter, var_slot, .. }) = (kind, term) {
                    set(&mut bits, *var_slot, false);
                    set(&mut bits, *counter, false);
                }
            }
            for pc in cfg.blocks[b].range().rev() {
                let instr = &prog.instrs[pc];
                match (instr, removable_dst(instr)) {
                    (_, Some(dst)) if !test(&bits, dst) => {
                        dead[pc] |= marking;
                        continue;
                    }
                    (_, Some(dst)) => set(&mut bits, dst, false),
                    (Instr::WhileInit { counter }, _) => set(&mut bits, *counter, false),
                    (Instr::ForInit { counter, limit, .. }, _) => {
                        set(&mut bits, *counter, false);
                        set(&mut bits, *limit, false);
                    }
                    _ => {}
                }
                reads.clear();
                read_regs(instr, &mut reads);
                reads.iter().for_each(|&r| set(&mut bits, r, true));
            }
            let entry = &mut live_in[b * words..][..words];
            changed |= entry != bits.as_slice();
            entry.copy_from_slice(&bits);
        }
        if marking {
            return (live_in, dead);
        }
        marking = !changed;
    }
}

/// What one instruction becomes: kept or not, and the charge it leaves.
type Item = (Option<Instr>, CostCounter);

fn item(instr: &Instr, dead: bool, has_check: bool, w: &CostWeights) -> Item {
    let mut c = CostCounter::new();
    match instr {
        Instr::Cost(kind) => c.charge(w, *kind),
        Instr::MarkDef { .. } if !has_check => {}
        _ if !dead => return (Some(instr.clone()), c),
        Instr::Binary { op, .. } => c.add_arith(w, op.is_slow()),
        Instr::Unary { .. } => c.add_arith(w, false),
        Instr::Compare { .. } => c.add_compare(w),
        Instr::Call { func, .. } => c.add_lib_call(*func),
        _ => {}
    }
    (None, c)
}

/// Lay the items out as the pruned program: a block's charges merged into
/// one [`Instr::Charge`] where the first of them stood, jumps renumbered.
fn emit(
    prog: Program,
    items: Vec<Item>,
    targets: &[u32],
    mut charges: Vec<CostCounter>,
) -> Program {
    let mut instrs = Vec::with_capacity(items.len());
    let mut new_pc = vec![0u32; items.len()];
    let mut run: Option<usize> = None;
    for (pc, (kept, charge)) in items.into_iter().enumerate() {
        new_pc[pc] = instrs.len() as u32;
        if targets[pc] > 0 {
            run = None;
        }
        if charge != CostCounter::default() {
            match run {
                Some(at) => charges[at].merge(&charge),
                None => {
                    run = Some(charges.len());
                    instrs.push(Instr::Charge { idx: charges.len() as u32 });
                    charges.push(charge);
                }
            }
        }
        if let Some(instr) = kept {
            if instr.target().is_some() || matches!(instr, Instr::Return { .. } | Instr::ReturnNull)
            {
                run = None;
            }
            instrs.push(instr);
        }
    }
    for t in instrs.iter_mut().filter_map(Instr::target_mut) {
        *t = new_pc[*t as usize];
    }
    Program { instrs, charges, ..prog }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::UdfDef;
    use crate::interp::{EvalOutcome, Interpreter};
    use crate::simd::{eval_batch_typed, TypedCol, UdfStats};
    use crate::{compile, parse_udf, UdfGenerator, Vm};
    use graceful_common::rng::Rng;
    use graceful_common::Result;
    use graceful_storage::datagen::{generate, schema};

    fn same_value(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    /// Value, all nine counters and the total's bits, or the same error.
    fn same(a: &Result<EvalOutcome>, b: &Result<EvalOutcome>) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                same_value(&a.value, &b.value)
                    && a.cost == b.cost
                    && a.cost.total.to_bits() == b.cost.total.to_bits()
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    /// What the four evaluators saw over one UDF.
    #[derive(Default)]
    struct Seen {
        pruned: bool,
        errors: usize,
        lane_rows: u64,
    }

    /// `u` over `rows` (one argument per parameter each) on four
    /// evaluators, under weights `w`: `Vm::eval` on the plain program,
    /// `Vm::eval` on the pruned one, the typed lanes on the pruned one and
    /// the tree-walker. Every row must agree on its value, every cost field
    /// and total bit, or its error; the lanes, over the batch, on the values,
    /// the merged cost and the first error.
    fn four_way(u: &UdfDef, types: &[DataType], rows: &[Vec<Value>], w: &CostWeights) -> Seen {
        let plain = compile(u).unwrap();
        let pruned = prune(plain.clone(), types, w);
        crate::analysis::verify(&pruned).unwrap_or_else(|e| panic!("{}: {e}", u.name));
        let (mut vm, mut interp) = (Vm::new(w.clone()), Interpreter::new(w.clone()));
        let mut seen = Seen { pruned: pruned != plain, ..Seen::default() };
        let mut want = Vec::new();
        for args in rows {
            let reference = interp.eval(u, args);
            let (a, b) = (vm.eval(&plain, args), vm.eval(&pruned, args));
            assert!(same(&a, &reference), "{}: plain VM vs interpreter on {args:?}", u.name);
            assert!(same(&b, &reference), "{}: pruned VM vs interpreter on {args:?}", u.name);
            seen.errors += usize::from(reference.is_err());
            want.push(reference);
        }
        let Some(cols) = (0..types.len())
            .map(|p| TypedCol::from_values(&rows.iter().map(|r| r[p].clone()).collect::<Vec<_>>()))
            .collect::<Option<Vec<_>>>()
        else {
            return seen;
        };
        let shape = pruned.simd_shape();
        let (mut out, mut cost, mut stats) = (Vec::new(), CostCounter::new(), UdfStats::default());
        let got =
            eval_batch_typed(&mut vm, &pruned, &shape, &cols, &mut out, &mut cost, &mut stats);
        let first_error = want.iter().find_map(|r| r.as_ref().err());
        assert_eq!(got.as_ref().err(), first_error, "{}: lanes' first error", u.name);
        if first_error.is_none() {
            let mut merged = CostCounter::new();
            for (o, r) in out.iter().zip(&want) {
                let r = r.as_ref().unwrap();
                assert!(same_value(o, &r.value), "{}: lane value {o:?} vs {:?}", u.name, r.value);
                merged.merge(&r.cost);
            }
            assert_eq!(cost, merged, "{}: lanes' cost", u.name);
            assert_eq!(cost.total.to_bits(), merged.total.to_bits(), "{}: lanes' total", u.name);
            seen.lane_rows = stats.lane_rows;
        }
        seen
    }

    /// The `lint udf` corpus (6 schemas × 250 generated UDFs), each over 16
    /// argument rows drawn across its table.
    #[test]
    fn pruned_equals_plain_equals_interpreter_on_the_lint_corpus() {
        let w = CostWeights::default();
        let (mut programs, mut pruned, mut lane_rows) = (0, 0, 0);
        for name in ["tpc_h", "imdb", "ssb", "airline", "baseball", "movielens"] {
            let db = generate(&schema(name), 0.02, 7);
            for seed in 0..250 {
                let u = UdfGenerator::default().generate(&db, &mut Rng::seed(seed)).unwrap();
                let t = db.table(&u.table).unwrap();
                let cols: Vec<_> = u.input_columns.iter().map(|c| t.column(c).unwrap()).collect();
                let types: Vec<_> = cols.iter().map(|c| c.data_type()).collect();
                let n = t.num_rows();
                let rows: Vec<Vec<Value>> =
                    (0..16).map(|i| cols.iter().map(|c| c.value(i * n / 16)).collect()).collect();
                let seen = four_way(&u.def, &types, &rows, &w);
                programs += 1;
                pruned += usize::from(seen.pruned);
                lane_rows += seen.lane_rows;
            }
        }
        assert!(pruned * 10 > programs * 8, "only {pruned} of {programs} programs pruned");
        assert!(lane_rows > 0, "the lanes carried no row of a pruned program");
    }

    fn ints(xs: &[Option<i64>]) -> Vec<Vec<Value>> {
        xs.iter().map(|x| vec![x.map_or(Value::Null, Value::Int)]).collect()
    }

    fn udf(src: &str) -> UdfDef {
        parse_udf(src).unwrap()
    }

    /// What `prune` made of `src`'s program: how many loops are left
    /// iterating (`ForNext`), how many have a closed-form head.
    fn loops(src: &str, types: &[DataType]) -> (usize, usize) {
        let p = prune(compile(&udf(src)).unwrap(), types, &CostWeights::default());
        let count = |f: fn(&Instr) -> bool| p.instrs.iter().filter(|i| f(i)).count();
        (
            count(|i| matches!(i, Instr::ForNext { .. })),
            count(|i| matches!(i, Instr::ForClosed { .. })),
        )
    }

    #[test]
    fn dead_loops_close_over_every_trip_count_and_limit() {
        let w = CostWeights::default();
        // A data-dependent trip count: 0, 1 and many trips, negative and
        // NULL limits, all charged by the closed-form head.
        let src = "def f(x0):\n    z = 0\n    for i in range(x0):\n        z = z + i * 3\n    z = x0 * 2\n    return z\n";
        assert_eq!(loops(src, &[DataType::Int]), (0, 1));
        let rows = ints(&[Some(0), Some(1), Some(2), Some(1000), Some(-3), None, Some(i64::MIN)]);
        assert!(four_way(&udf(src), &[DataType::Int], &rows, &w).pruned);
        // A float limit truncates like `ForInit` does.
        let floats: Vec<Vec<Value>> =
            [2.5, -0.5, 0.0, 7.9, f64::NAN].iter().map(|&x| vec![Value::Float(x)]).collect();
        four_way(&udf(src), &[DataType::Float], &floats, &w);
        // Nested literal loops with a dead body fold into one charge.
        let nested = "def f(x0):\n    z = x0\n    for i in range(26):\n        for j in range(45):\n            z = z * 3 + i - j\n    z = x0 + 1\n    return z\n";
        assert_eq!(loops(nested, &[DataType::Int]), (0, 0));
        assert!(four_way(&udf(nested), &[DataType::Int], &ints(&[Some(4), None]), &w).pruned);
        // A literal loop whose variable is read afterwards keeps a head
        // that leaves the variable at its last value.
        let read_after = "def f(x0):\n    i = x0\n    for i in range(5):\n        z = i * 2\n    return i + x0\n";
        four_way(&udf(read_after), &[DataType::Int], &ints(&[Some(3), None]), &w);
        assert_eq!(loops(read_after, &[DataType::Int]), (0, 1));
    }

    #[test]
    fn checks_errors_and_the_iteration_cap_survive_pruning() {
        let w = CostWeights::default();
        // A loop variable read after a loop that may not run: a `CheckDef`
        // that errors on zero trips, and a head that must define it.
        let maybe = "def f(x0):\n    for i in range(x0):\n        z = i * 2\n    return i\n";
        let seen = four_way(&udf(maybe), &[DataType::Int], &ints(&[Some(0), Some(3), Some(1)]), &w);
        assert_eq!((seen.pruned, seen.errors), (true, 1));
        // A branch-only definition read by dead arithmetic: the check stays.
        let branchy = "def f(x0):\n    if x0 > 5:\n        a = x0\n    b = a * 2\n    return x0\n";
        let seen =
            four_way(&udf(branchy), &[DataType::Int], &ints(&[Some(9), Some(2), Some(7)]), &w);
        assert_eq!((seen.pruned, seen.errors), (true, 1));
        // A dead-bodied `while` keeps its counter and hits the cap.
        let spin =
            "def f(x0):\n    i = 0\n    while x0 > 0:\n        z = i * 2 + x0\n    return 1\n";
        let seen = four_way(&udf(spin), &[DataType::Int], &ints(&[Some(-1), Some(1)]), &w);
        assert_eq!((seen.pruned, seen.errors), (true, 1));
    }

    #[test]
    fn text_and_fractional_weights_leave_the_program_plain() {
        let src = "def f(x0, x1):\n    z = x0 * 2\n    return x1 + 1\n";
        let plain = compile(&udf(src)).unwrap();
        let text = [DataType::Text, DataType::Int];
        assert_eq!(prune(plain.clone(), &text, &CostWeights::default()), plain);
        let rows =
            vec![vec![Value::Text("ab".into()), Value::Int(3)], vec![Value::Null, Value::Int(-1)]];
        assert!(!four_way(&udf(src), &text, &rows, &CostWeights::default()).pruned);
        let ints = [DataType::Int, DataType::Int];
        let fractional = CostWeights { arith: 32.5, ..CostWeights::default() };
        assert_eq!(prune(plain.clone(), &ints, &fractional), plain);
        let rows = vec![vec![Value::Int(2), Value::Int(3)]];
        assert!(!four_way(&udf(src), &ints, &rows, &fractional).pruned);
        assert!(four_way(&udf(src), &ints, &rows, &CostWeights::default()).pruned);
    }
}
