//! One prepared UDF, and the one entry that evaluates a program over storage
//! columns.
//!
//! [`PreparedUdf`] is what every production consumer of a generated UDF runs:
//! its definition compiled — so verified — and pruned ([`prune()`]) once,
//! under the default cost weights, for its parameter types, together with
//! the lane shape of the result.
//! [`GeneratedUdf::prepared`](crate::GeneratedUdf::prepared) builds it on the
//! first use and hands the same `Arc` to every later one: the query
//! generator's literal calibration and every UDF operator of every run of
//! every plan variant borrow one object. The `udf.compiles` registry counter
//! counts the builds.
//!
//! [`ColumnEvaluator`] is the one way a program meets storage: a worker's
//! evaluation state over fixed input columns, which gathers a batch of row
//! ids into one of three inputs, decided once when it is built:
//!
//! * **dictionary codes** for an exact memo in front of the VM
//!   ([`CodeMemo`]): each distinct code tuple is evaluated once per evaluator
//!   and later rows reuse its value, cost and error — wherever the memo is
//!   on and every input is dictionary-encoded within
//!   [`crate::MAX_MEMO_CODES`] code tuples;
//! * **typed lanes** gathered straight from storage, rows the lanes cannot
//!   carry bailing to the per-row VM ([`simd::eval_batch_typed`]) — wherever
//!   the lanes are on, the program has a lane path and no input is `Text`;
//! * **boxed `Value` columns** for the batch VM ([`Vm::eval_batch`]) —
//!   everywhere else.
//!
//! All three return bit-identical values, costs and errors, batch for batch
//! (the memo may hold outcomes of earlier batches; that changes nothing,
//! because the VM is a pure function of its arguments and a dictionary holds
//! distinct values: equal codes are bit-equal arguments).

use crate::ast::{Expr, Stmt, UdfDef};
use crate::bytecode::{compile, Program, SimdShape};
use crate::costs::{CostCounter, CostWeights};
use crate::memo::CodeMemo;
use crate::prune::prune;
use crate::simd::{self, TypedCol, UdfStats};
use crate::vm::Vm;
use graceful_common::Result;
use graceful_obs::registry::{counter, Counter};
use graceful_storage::{Column, DataType, Value};
use std::sync::OnceLock;

/// A UDF ready to run: the compiled, verified and pruned program of one
/// definition over one list of parameter types, and its lane shape.
#[derive(Debug)]
pub struct PreparedUdf {
    prog: Program,
    shape: SimdShape,
}

impl PreparedUdf {
    /// Compile `def` (which runs the bytecode verifier: a rejected UDF is a
    /// typed `GracefulError::Verify` here, before any row runs), prune it
    /// for parameters of `types` under [`CostWeights::default`], and
    /// classify the result for the lanes.
    pub fn new(def: &UdfDef, types: &[DataType]) -> Result<PreparedUdf> {
        static COMPILES: OnceLock<Counter> = OnceLock::new();
        COMPILES.get_or_init(|| counter("udf.compiles")).incr();
        let prog = prune(compile(def)?, types, &CostWeights::default());
        let shape = prog.simd_shape();
        // The program lives as long as its UDF (a corpus keeps hundreds). A
        // copy made once the compiler's and the pass's temporaries are freed
        // has no spare capacity and lands in the space they left, where the
        // original sits between their holes: 3–4 MiB less peak RSS on the
        // benchmark's `paper_loop` and `train_and_advise`.
        let prog = prog.clone();
        Ok(PreparedUdf { prog, shape })
    }

    /// The pruned program.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// [`Program::simd_shape`] of the pruned program.
    pub fn shape(&self) -> &SimdShape {
        &self.shape
    }
}

/// An exact image of `def` in one allocation: per node a tag and a
/// self-delimiting number (an operator, a length, a literal's bits), then
/// its strings and children. Two definitions have equal images exactly when
/// they are the same tree with bit-equal literals (stricter than `==`, which
/// holds `0.0` equal to `-0.0`, two literals that compile to different
/// constants). A [`crate::GeneratedUdf`] keeps this image of the definition
/// its prepared program and its analysis were built from, not a copy of the
/// tree: over the `lint udf` corpus a copy takes 175 allocations and 7.3 KB
/// per UDF, the image one allocation of ~0.8 KB. [`image_is`] checks a
/// definition against a kept image without building its own.
pub(crate) fn image(def: &UdfDef) -> Vec<u8> {
    let mut image = Image { bytes: Vec::new(), kept: None, same: true };
    image.def(def).bytes.shrink_to_fit();
    image.bytes
}

/// Whether `def`'s [`image`] is `kept`, compared as it is walked.
pub(crate) fn image_is(def: &UdfDef, kept: &[u8]) -> bool {
    let mut image = Image { bytes: Vec::new(), kept: Some(kept), same: true };
    image.def(def).same && image.kept.is_some_and(|rest| rest.is_empty())
}

/// An image being written to `bytes`, or compared with the rest of `kept`.
struct Image<'k> {
    bytes: Vec<u8>,
    kept: Option<&'k [u8]>,
    same: bool,
}

impl Image<'_> {
    /// Append `bytes`, or match them against what `kept` holds next.
    fn put(&mut self, bytes: &[u8]) {
        match &mut self.kept {
            None => self.bytes.extend_from_slice(bytes),
            Some(kept) if kept.starts_with(bytes) => *kept = &kept[bytes.len()..],
            Some(_) => self.same = false,
        }
    }
    /// `tag`, then `n` in base-128 digits, the last one below 128.
    fn tag(&mut self, tag: u8, mut n: u64) -> &mut Self {
        self.put(&[tag]);
        while n >= 0x80 {
            self.put(&[(n as u8) | 0x80]);
            n >>= 7;
        }
        self.put(&[n as u8]);
        self
    }
    fn text(&mut self, s: &str) -> &mut Self {
        self.tag(0, s.len() as u64).put(s.as_bytes());
        self
    }
    fn expr(&mut self, e: &Expr) -> &mut Self {
        match e {
            Expr::Name(s) => self.tag(0, 0).text(s),
            Expr::Int(i) => self.tag(1, *i as u64),
            Expr::Float(f) => self.tag(2, f.to_bits()),
            Expr::Str(s) => self.tag(3, 0).text(s),
            Expr::Bool(b) => self.tag(4, u64::from(*b)),
            Expr::NoneLit => self.tag(5, 0),
            Expr::Unary { op, operand } => self.tag(6, *op as u64).expr(operand),
            Expr::Binary { op, left, right } => self.tag(7, *op as u64).expr(left).expr(right),
            Expr::Compare { op, left, right } => self.tag(8, *op as u64).expr(left).expr(right),
            Expr::BoolOp { is_and, left, right } => {
                self.tag(9, u64::from(*is_and)).expr(left).expr(right)
            }
            Expr::Call { func, args } => self.tag(10, *func as u64).exprs(args),
            Expr::Method { func, recv, args } => self.tag(11, *func as u64).expr(recv).exprs(args),
        }
    }
    fn exprs(&mut self, es: &[Expr]) -> &mut Self {
        es.iter().fold(self.tag(0, es.len() as u64), |image, e| image.expr(e))
    }
    fn block(&mut self, body: &[Stmt]) -> &mut Self {
        body.iter().fold(self.tag(0, body.len() as u64), |image, stmt| match stmt {
            Stmt::Assign { target, expr } => image.tag(0, 0).text(target).expr(expr),
            Stmt::If { cond, then_body, else_body } => {
                image.tag(1, 0).expr(cond).block(then_body).block(else_body)
            }
            Stmt::For { var, count, body } => image.tag(2, 0).text(var).expr(count).block(body),
            Stmt::While { cond, body } => image.tag(3, 0).expr(cond).block(body),
            Stmt::Return(e) => image.tag(4, 0).expr(e),
        })
    }
    fn def(&mut self, def: &UdfDef) -> &mut Self {
        self.text(&def.name).tag(0, def.params.len() as u64);
        def.params.iter().fold(self, |image, p| image.text(p)).block(&def.body)
    }
}

/// What an evaluator gathers a batch of rows into, which decides the
/// evaluator the batch runs on.
enum Gather<'c> {
    /// Boxed `Value` columns, one per parameter, for the batch VM.
    Boxed(Vec<Vec<Value>>),
    /// Unboxed lanes, one per parameter.
    Typed(Vec<TypedCol>),
    /// Nothing: the memo reads the input columns' codes itself.
    Memo(CodeMemo<'c>),
}

/// One worker's evaluation of one program over fixed input columns: a
/// warmed VM and the gather buffers (they grow to the largest batch seen and
/// are never sized from configuration), or the memo, sized by its code
/// space. See the module docs for which input a batch is gathered into.
pub struct ColumnEvaluator<'a> {
    prog: &'a Program,
    shape: &'a SimdShape,
    cols: &'a [&'a Column],
    vm: Vm,
    gather: Gather<'a>,
}

impl<'a> ColumnEvaluator<'a> {
    /// An evaluator of `prog`, whose lane shape is `shape`, over `cols`, one
    /// column per parameter in order. `memo` and `typed_lanes` allow the
    /// memo and the lanes; with both off every batch runs the boxed batch
    /// VM.
    pub fn new(
        prog: &'a Program,
        shape: &'a SimdShape,
        cols: &'a [&'a Column],
        memo: bool,
        typed_lanes: bool,
    ) -> Self {
        // `for_type` has no lane for `Text`, so one such column makes the
        // whole list `None`.
        let typed = || {
            let lanes = cols.iter().map(|c| TypedCol::for_type(c.data_type())).collect();
            (typed_lanes && shape.has_fast_path).then_some(lanes).flatten().map(Gather::Typed)
        };
        let gather = memo
            .then(|| CodeMemo::new(cols).map(Gather::Memo))
            .flatten()
            .or_else(typed)
            .unwrap_or_else(|| Gather::Boxed(vec![Vec::new(); cols.len()]));
        let mut vm = Vm::default();
        vm.warm(prog);
        ColumnEvaluator { prog, shape, cols, vm, gather }
    }

    /// Evaluate the storage rows `rows`, in order, as one batch: one value
    /// per row appended to `out`, every row's cost merged into `cost` in row
    /// order, the error of the first failing row returned — what
    /// [`Vm::eval_batch`] returns over the rows' arguments, bit for bit.
    /// `stats` counts the batch and its rows, the rows the memo served
    /// without running the VM and which way the typed lanes took each row.
    pub fn eval(
        &mut self,
        rows: &[usize],
        out: &mut Vec<Value>,
        cost: &mut CostCounter,
        stats: &mut UdfStats,
    ) -> Result<()> {
        let (prog, cols) = (self.prog, self.cols);
        match &mut self.gather {
            Gather::Boxed(bufs) => {
                for (buf, col) in bufs.iter_mut().zip(cols) {
                    buf.clear();
                    buf.extend(rows.iter().map(|&row| col.value(row)));
                }
                let slices: Vec<&[Value]> = bufs.iter().map(Vec::as_slice).collect();
                self.vm.eval_batch(prog, &slices, out, cost)?;
            }
            Gather::Typed(typed) => {
                for (lane, col) in typed.iter_mut().zip(cols) {
                    lane.fill_from_column(col, rows)?;
                }
                // The lanes count their own batch and rows.
                let vm = &mut self.vm;
                return simd::eval_batch_typed(vm, prog, self.shape, typed, out, cost, stats);
            }
            Gather::Memo(memo) => {
                stats.memo_rows += memo.eval_batch(&mut self.vm, prog, rows, out, cost)?;
            }
        }
        stats.rows += rows.len() as u64;
        stats.batches += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_udf;
    use crate::GeneratedUdf;
    use std::sync::Arc;

    /// A definition is its own image, bit for bit and to the end, and no
    /// other definition's.
    #[test]
    fn a_definition_is_checked_against_its_image_to_the_last_byte() {
        let def = parse_udf("def f(x0):\n    if x0 > 2:\n        return x0 * 0.5\n    return 1\n");
        let def = def.unwrap();
        let kept = image(&def);
        assert!(image_is(&def, &kept));
        assert!(!image_is(&def, &kept[..kept.len() - 1]));
        assert!(!image_is(&def, &[&kept[..], &[0]].concat()));
        let other =
            parse_udf("def f(x0):\n    if x0 > 2:\n        return x0 * 0.5\n    return 2\n");
        assert!(!image_is(&other.unwrap(), &kept));
    }

    #[test]
    fn the_kept_program_is_only_ever_the_one_of_what_the_udf_holds_now() {
        let def = parse_udf("def f(x0):\n    return x0 * 0.0\n").unwrap();
        let mut udf = GeneratedUdf::new(def.clone(), "t", vec!["x".into()]);
        let ints = [DataType::Int];
        let kept = udf.prepared(&ints).unwrap();
        assert!(Arc::ptr_eq(&kept, &udf.prepared(&ints).unwrap()), "built once, then shared");

        // Other types: built afresh, and the kept program stays kept.
        let floats = udf.prepared(&[DataType::Float]).unwrap();
        assert!(!Arc::ptr_eq(&kept, &floats));
        assert!(Arc::ptr_eq(&kept, &udf.prepared(&ints).unwrap()));

        // A literal overwritten by one `==` holds equal (-0.0 for 0.0) but
        // that compiles to another constant: built afresh too.
        let Some(Stmt::Return(Expr::Binary { right, .. })) = udf.def.body.first_mut() else {
            panic!("the return of x0 * 0.0")
        };
        **right = Expr::Float(-0.0);
        assert_eq!(udf.def, def);
        let negated = udf.prepared(&ints).unwrap();
        assert!(!Arc::ptr_eq(&kept, &negated));
        // `Program`'s `==` holds the two constants equal too; `{:?}` does not.
        let text = |p: &PreparedUdf| format!("{:?}", p.program());
        assert_ne!(text(&negated), text(&kept));
        assert_eq!(text(&negated), text(&PreparedUdf::new(&udf.def, &ints).unwrap()));
    }
}
