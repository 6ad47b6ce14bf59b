//! A filter predicate resolved once against its storage column.
//!
//! [`Pred::matches`] looks its column up by name and boxes the row's
//! [`Value`] for every row. A [`RowTest`] decides once per operator, in the
//! form the column's representation allows: a verdict per dictionary code
//! or `Bool` value, an IEEE comparison for plain `Float`/`Int` (a NaN is
//! neither less, equal nor greater, so it passes nothing, `!=` included), a
//! string comparison for plain `Text`. It decides exactly what `matches`
//! decides (property-tested below), so the naive evaluator and `card` agree
//! with the executor on every row. [`filter`] narrows a selection vector one
//! test at a time, with writes that do not branch on the outcome, then
//! gathers the survivors in row order.

use graceful_plan::Pred;
use graceful_storage::{ColumnData, Table, Value};
use std::cmp::Ordering::{self, Equal, Greater, Less};

/// How [`RowTest::narrow`] reads the column, with the literal.
enum Form<'a> {
    /// No row passes: no such column, a NULL literal, or Text on one side
    /// and a number on the other.
    Never,
    /// Dictionary codes, and the verdict of each code.
    Codes(&'a [u16], Vec<bool>),
    /// Bools, and the verdicts of `false` and `true`.
    Bool(&'a [bool], [bool; 2]),
    Float(&'a [f64], f64),
    Int(&'a [i64], f64),
    Text(&'a [String], &'a str),
}

pub(crate) struct RowTest<'a> {
    /// Whether the operator accepts less, equal and greater.
    accept: [bool; 3],
    /// The column's NULL mask; `None` when no row is NULL.
    nulls: Option<&'a [bool]>,
    form: Form<'a>,
}

impl<'a> RowTest<'a> {
    pub(crate) fn compile(pred: &'a Pred, table: &'a Table) -> Self {
        let accept = [Less, Equal, Greater].map(|ord| Pred::accepts(pred.op, Some(ord)));
        let verdict = |ord: Option<Ordering>| Pred::accepts(pred.op, ord);
        // The literal's views, as `Value::compare` takes them.
        let num = pred.value.as_f64();
        let text = if let Value::Text(s) = &pred.value { Some(s.as_str()) } else { None };
        let col = table.column(&pred.col.column).ok();
        let form = match (col.map(|c| &c.data), num, text) {
            (Some(ColumnData::DictInt { codes, dict }), Some(lit), _) => Form::Codes(
                codes,
                dict.iter().map(|&v| verdict((v as f64).partial_cmp(&lit))).collect(),
            ),
            (Some(ColumnData::DictText { codes, dict }), _, Some(lit)) => Form::Codes(
                codes,
                dict.iter().map(|s| verdict(Some(s.as_str().cmp(lit)))).collect(),
            ),
            (Some(ColumnData::Bool(values)), Some(lit), _) => {
                Form::Bool(values, [0.0, 1.0].map(|v: f64| verdict(v.partial_cmp(&lit))))
            }
            (Some(ColumnData::Float(values)), Some(lit), _) => Form::Float(values, lit),
            (Some(ColumnData::Int(values)), Some(lit), _) => Form::Int(values, lit),
            (Some(ColumnData::Text(values)), _, Some(lit)) => Form::Text(values, lit),
            _ => Form::Never,
        };
        RowTest { accept, nulls: col.and_then(|c| c.nulls.as_slice()), form }
    }

    /// Keep the entries of `sel` whose table row (`row` of the entry)
    /// passes, in order.
    fn narrow(&self, sel: &mut Vec<u32>, row: impl Fn(u32) -> usize) {
        let ([lt, eq, gt], nulls) = (self.accept, self.nulls);
        let ieee = |x: f64, lit: f64| (x < lit) & lt | (x == lit) & eq | (x > lit) & gt;
        let ord = |o: Ordering| o.is_lt() & lt | o.is_eq() & eq | o.is_gt() & gt;
        match &self.form {
            Form::Never => sel.clear(),
            Form::Codes(codes, verdicts) => {
                retain(sel, row, nulls, |r| verdicts[codes[r] as usize])
            }
            Form::Bool(values, verdicts) => {
                retain(sel, row, nulls, |r| verdicts[values[r] as usize])
            }
            &Form::Float(values, lit) => retain(sel, row, nulls, |r| ieee(values[r], lit)),
            &Form::Int(values, lit) => retain(sel, row, nulls, |r| ieee(values[r] as f64, lit)),
            &Form::Text(values, lit) => {
                retain(sel, row, nulls, |r| ord(values[r].as_str().cmp(lit)))
            }
        }
    }
}

/// Keep the entries of `sel` whose table row `r` (`row` of the entry) is
/// not NULL under the mask `nulls` and `passes`, in order.
#[inline]
fn retain(
    sel: &mut Vec<u32>,
    row: impl Fn(u32) -> usize,
    nulls: Option<&[bool]>,
    passes: impl Fn(usize) -> bool,
) {
    match nulls {
        Some(nulls) => retain_rows(sel, row, |r| passes(r) & !nulls[r]),
        None => retain_rows(sel, row, passes),
    }
}

/// Keep the entries of `sel` whose table row (`row` of the entry) `keeps`,
/// in order: every entry is written to the next free place, which advances
/// only past a kept one.
#[inline]
fn retain_rows(sel: &mut Vec<u32>, row: impl Fn(u32) -> usize, keeps: impl Fn(usize) -> bool) {
    let mut kept = 0;
    for i in 0..sel.len() {
        let e = sel[i];
        sel[kept] = e;
        kept += usize::from(keeps(row(e)));
    }
    sel.truncate(kept);
}

/// The tuples of `rows` (a `stride`-wide row-id matrix) that pass every
/// test, each test with the lane that holds its table's row id, in order.
pub(crate) fn filter(tests: &[(RowTest<'_>, usize)], rows: &[u32], stride: usize) -> Vec<u32> {
    let mut sel: Vec<u32> = (0..(rows.len() / stride) as u32).collect();
    for (test, pos) in tests {
        test.narrow(&mut sel, |t| rows[t as usize * stride + pos] as usize);
    }
    let mut kept = Vec::with_capacity(sel.len() * stride);
    for t in sel {
        kept.extend_from_slice(&rows[t as usize * stride..][..stride]);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_storage::{Column, ColumnData};
    use graceful_udf::ast::CmpOp;

    impl RowTest<'_> {
        /// The compiled test at one row: whether a one-tuple morsel keeps it.
        fn accepts(&self, row: usize) -> bool {
            let mut sel = vec![0];
            self.narrow(&mut sel, |_| row);
            !sel.is_empty()
        }
    }

    /// One column per `ColumnData` representation, each with NULLs; the
    /// values sit on and around the literals below.
    fn table() -> Table {
        let big = (1i64 << 53) + 1;
        let ints = vec![-3, 0, 1, 2, 2, 2, 7, big, i64::MIN, i64::MAX, 0, 1];
        let floats =
            vec![-0.0, 0.0, 1.0, 2.5, f64::NAN, f64::INFINITY, -1e300, 9.0e15, 2.0, 7.0, 1.5, -3.0];
        let texts: Vec<String> = ["", "a", "b", "b", "abc", "2", "1", "true", "b", "a", "zz", "B"]
            .map(String::from)
            .into();
        let bools =
            vec![true, false, true, true, false, false, true, false, true, true, false, true];
        let nulls: Vec<bool> = (0..ints.len()).map(|r| r % 5 == 3).collect();
        let dict_int = ColumnData::DictInt {
            codes: vec![0, 1, 2, 3, 3, 3, 4, 5, 0, 1, 1, 2],
            dict: vec![-3, 0, 1, 2, 7, big],
        };
        let dict_text = ColumnData::DictText {
            codes: vec![0, 1, 2, 2, 3, 4, 1, 0, 2, 1, 3, 4],
            dict: ["", "a", "b", "abc", "2"].map(String::from).into(),
        };
        let columns = [
            ("int", ColumnData::Int(ints)),
            ("float", ColumnData::Float(floats)),
            ("text", ColumnData::Text(texts)),
            ("bool", ColumnData::Bool(bools)),
            ("dict_int", dict_int),
            ("dict_text", dict_text),
        ];
        let columns =
            columns.map(|(name, data)| Column::with_nulls(name, data, nulls.clone())).into();
        Table::new("t", columns).expect("equal-length columns")
    }

    #[test]
    fn the_compiled_test_decides_what_matches_decides() {
        let t = table();
        let big = (1i64 << 53) + 1;
        let literals = [
            Value::Null,
            Value::Int(2),
            Value::Int(0),
            Value::Int(big),
            Value::Int(big - 1),
            Value::Int(i64::MIN),
            Value::Float(2.0),
            Value::Float(f64::NAN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(9007199254740992.0),
            Value::Float(f64::NEG_INFINITY),
            Value::Bool(true),
            Value::Bool(false),
            Value::Text("b".into()),
            Value::Text("".into()),
            Value::Text("2".into()),
        ];
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
        let names = t.columns().iter().map(|c| c.name.clone()).chain(["missing".to_string()]);
        let mut accepted = 0;
        for name in names {
            for op in ops {
                for lit in &literals {
                    let pred = Pred::new("t", &name, op, lit.clone());
                    let test = RowTest::compile(&pred, &t);
                    for row in 0..t.num_rows() {
                        let expected = pred.matches(&t, row);
                        assert_eq!(test.accepts(row), expected, "{pred:?} at row {row}");
                        accepted += usize::from(expected);
                    }
                }
            }
        }
        assert!(accepted > 500, "the grid exercises accepting rows too, got {accepted}");
    }

    /// The filter loop as first written, one tuple at a time, with the
    /// written definition in place of the compiled test: the oracle of
    /// [`filter`].
    fn filter_row_at_a_time(
        preds: &[(&Pred, usize)],
        t: &Table,
        rows: &[u32],
        stride: usize,
    ) -> Vec<u32> {
        let mut kept = Vec::new();
        for tuple in rows.chunks_exact(stride) {
            if preds.iter().all(|(pred, pos)| pred.matches(t, tuple[*pos] as usize)) {
                kept.extend_from_slice(tuple);
            }
        }
        kept
    }

    /// Every representation × operator × literal (NaN, ±0.0, NULL, 2^53 + 1,
    /// the `i64` extremes, Text against numbers and numbers against Text),
    /// alone on either lane of a 3-wide tuple matrix and in a conjunction.
    #[test]
    fn the_selection_vector_keeps_what_the_row_loop_keeps() {
        let t = table();
        let n = t.num_rows() as u32;
        // Lanes 0 and 2 hold rows of `t` in two orders; lane 1 is another
        // table's row id, which no test may read.
        let rows: Vec<u32> = (0..40u32).flat_map(|i| [i % n, 1000 + i, (i * 5 + 3) % n]).collect();
        let big = (1i64 << 53) + 1;
        let literals = [
            Value::Null,
            Value::Int(2),
            Value::Int(big),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(f64::NAN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Text("b".into()),
            Value::Text("2".into()),
        ];
        let names = t.columns().iter().map(|c| c.name.clone()).chain(["missing".to_string()]);
        let mut preds = Vec::new();
        for name in names {
            for op in CmpOp::ALL {
                preds.extend(literals.iter().map(|lit| Pred::new("t", &name, op, lit.clone())));
            }
        }
        let (mut kept, mut forms) = (0, [0usize; 6]);
        for (i, pred) in preds.iter().enumerate() {
            forms[match RowTest::compile(pred, &t).form {
                Form::Never => 0,
                Form::Codes(..) => 1,
                Form::Bool(..) => 2,
                Form::Float(..) => 3,
                Form::Int(..) => 4,
                Form::Text(..) => 5,
            }] += 1;
            let other = &preds[(i * 31 + 7) % preds.len()];
            for lanes in [&[(pred, 0)][..], &[(pred, 2)], &[(pred, 0), (other, 2)]] {
                let tests: Vec<_> =
                    lanes.iter().map(|&(p, pos)| (RowTest::compile(p, &t), pos)).collect();
                let expected = filter_row_at_a_time(lanes, &t, &rows, 3);
                assert_eq!(filter(&tests, &rows, 3), expected, "{lanes:?}");
                kept += expected.len() / 3;
            }
        }
        assert!(forms.iter().all(|&f| f > 0), "every test form is exercised: {forms:?}");
        assert!(kept > 2000, "the grid keeps tuples too, got {kept}");
    }
}
