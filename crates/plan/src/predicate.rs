//! Simple predicates: `table.column CMP literal`, and the one evaluator
//! that decides them over storage.
//!
//! The workload generator only emits predicates of this shape (plus
//! conjunctions of them on FILTER operators), matching the workloads of the
//! zero-shot cost model line of work the paper builds on. The same shape is
//! reused by the hit-ratio estimator when UDF branch conditions are rewritten
//! back into SQL.
//!
//! [`Pred::matches`] is the written definition: it looks its column up by
//! name and boxes the row's [`Value`] for every row, and only tests call it.
//! Every base-table predicate in production — the executor's FILTER and the
//! actual, data-driven and sampling estimators — is decided by a
//! [`RowTest`], compiled once per predicate in the form the column's
//! representation allows: a verdict per dictionary code or `Bool` value, an
//! IEEE comparison for plain `Float`/`Int` (a NaN is neither less, equal nor
//! greater, so it passes nothing, `!=` included), a string comparison for
//! plain `Text`. A dictionary larger than the number of rows the caller will
//! test is not turned into verdicts: each row's decoded value goes through
//! the plain columns' comparison instead. A `RowTest` decides exactly what
//! `matches` decides (property-tested below), so every estimator counts the
//! rows the executor's FILTER keeps. [`filter`] narrows a selection vector
//! one test at a time, with writes that do not branch on the outcome, then
//! gathers the survivors in row order.

use crate::logical::ColRef;
use graceful_storage::{ColumnData, Table, Value};
use graceful_udf::ast::CmpOp;
use std::cmp::Ordering;

/// A column-vs-literal comparison predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    pub col: ColRef,
    pub op: CmpOp,
    pub value: Value,
}

impl Pred {
    pub fn new(table: &str, column: &str, op: CmpOp, value: Value) -> Self {
        Pred { col: ColRef::new(table, column), op, value }
    }

    /// Evaluate against a base-table row. NULL never satisfies a predicate.
    /// The definition [`RowTest`] is held to; production code compiles a
    /// `RowTest` instead.
    pub fn matches(&self, table: &Table, row: usize) -> bool {
        let Ok(col) = table.column(&self.col.column) else { return false };
        Self::accepts(self.op, col.value(row).compare(&self.value))
    }

    /// The one operator table: whether `op` holds for an SQL comparison
    /// outcome. `None` (a NULL or incomparable side) satisfies no operator.
    /// [`Pred::matches`] applies it to a row's value, [`RowTest::compile`]
    /// to each dictionary code and to less, equal and greater, and the
    /// executor's UDF filter to a UDF's result.
    pub fn accepts(op: CmpOp, ord: Option<Ordering>) -> bool {
        ord.is_some_and(|ord| match op {
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
        })
    }

    /// SQL-ish rendering for EXPLAIN output and debugging.
    pub fn display(&self) -> String {
        format!("{}.{} {} {}", self.col.table, self.col.column, self.op.symbol(), self.value)
    }
}

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
    /// Dictionary ints decoded row by row: more entries than rows tested.
    DictInt(&'a [u16], &'a [i64], f64),
    /// Dictionary text decoded row by row: more entries than rows tested.
    DictText(&'a [u16], &'a [String], &'a str),
}

/// A predicate resolved once against its table's column.
pub struct RowTest<'a> {
    op: CmpOp,
    /// The column's NULL mask; `None` when no row is NULL.
    nulls: Option<&'a [bool]>,
    form: Form<'a>,
}

impl<'a> RowTest<'a> {
    /// Resolve `pred` against `table` (its column is looked up by name; the
    /// predicate's table name is not read) for a caller that will test
    /// `rows` rows: a dictionary of at most `rows` entries gets one verdict
    /// per code, a larger one is decoded per row.
    pub fn compile(pred: &'a Pred, table: &'a Table, rows: usize) -> Self {
        let verdict = |ord: Option<Ordering>| Pred::accepts(pred.op, ord);
        // The literal's views, as `Value::compare` takes them.
        let num = pred.value.as_f64();
        let text = if let Value::Text(s) = &pred.value { Some(s.as_str()) } else { None };
        let col = table.column(&pred.col.column).ok();
        let form = match (col.map(|c| &c.data), num, text) {
            (Some(ColumnData::DictInt { codes, dict }), Some(lit), _) if dict.len() > rows => {
                Form::DictInt(codes, dict, lit)
            }
            (Some(ColumnData::DictInt { codes, dict }), Some(lit), _) => Form::Codes(
                codes,
                dict.iter().map(|&v| verdict((v as f64).partial_cmp(&lit))).collect(),
            ),
            (Some(ColumnData::DictText { codes, dict }), _, Some(lit)) if dict.len() > rows => {
                Form::DictText(codes, dict, lit)
            }
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
        RowTest { op: pred.op, nulls: col.and_then(|c| c.nulls.as_slice()), form }
    }

    /// Keep the entries of `sel` whose table row (`row` of the entry)
    /// passes, in order.
    pub fn narrow(&self, sel: &mut Vec<u32>, row: impl Fn(u32) -> usize) {
        // One instantiation per operator, so that each test compiles to a
        // bare comparison.
        match self.op {
            CmpOp::Lt => self.narrow_by(sel, row, |o| Pred::accepts(CmpOp::Lt, o)),
            CmpOp::Le => self.narrow_by(sel, row, |o| Pred::accepts(CmpOp::Le, o)),
            CmpOp::Gt => self.narrow_by(sel, row, |o| Pred::accepts(CmpOp::Gt, o)),
            CmpOp::Ge => self.narrow_by(sel, row, |o| Pred::accepts(CmpOp::Ge, o)),
            CmpOp::Eq => self.narrow_by(sel, row, |o| Pred::accepts(CmpOp::Eq, o)),
            CmpOp::Ne => self.narrow_by(sel, row, |o| Pred::accepts(CmpOp::Ne, o)),
        }
    }

    /// [`RowTest::narrow`] with `accepts`, the operator's verdict on a
    /// comparison outcome: a NaN on either side of a number compares as
    /// `None`, so it passes nothing, `!=` included.
    fn narrow_by(
        &self,
        sel: &mut Vec<u32>,
        row: impl Fn(u32) -> usize,
        accepts: impl Fn(Option<Ordering>) -> bool,
    ) {
        let nulls = self.nulls;
        let ieee = |x: f64, lit: f64| accepts(x.partial_cmp(&lit));
        let ord = |o: Ordering| accepts(Some(o));
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
            &Form::DictInt(codes, dict, lit) => {
                retain(sel, row, nulls, |r| ieee(dict[codes[r] as usize] as f64, lit))
            }
            &Form::DictText(codes, dict, lit) => {
                retain(sel, row, nulls, |r| ord(dict[codes[r] as usize].as_str().cmp(lit)))
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

/// The tuples of `rows` (a `stride`-wide row-id matrix, `stride` ≥ 1) that
/// pass every test, each test with the lane that holds its table's row id,
/// in order.
pub fn filter(tests: &[(RowTest<'_>, usize)], rows: &[u32], stride: usize) -> Vec<u32> {
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
    use graceful_storage::{Column, ColumnData, Table};

    fn keyed() -> Table {
        let mut t = Table::new(
            "t",
            vec![
                Column::new("x", ColumnData::Int(vec![1, 5, 9])),
                Column::with_nulls(
                    "y",
                    ColumnData::Float(vec![0.5, 1.5, 2.5]),
                    vec![false, true, false],
                ),
            ],
        )
        .unwrap();
        t.set_primary_key("x").unwrap();
        t
    }

    #[test]
    fn comparisons() {
        let t = keyed();
        let p = Pred::new("t", "x", CmpOp::Lt, Value::Int(6));
        assert!(p.matches(&t, 0));
        assert!(p.matches(&t, 1));
        assert!(!p.matches(&t, 2));
    }

    #[test]
    fn null_never_matches() {
        let t = keyed();
        let p = Pred::new("t", "y", CmpOp::Gt, Value::Float(0.0));
        assert!(p.matches(&t, 0));
        assert!(!p.matches(&t, 1), "NULL must not match");
        let ne = Pred::new("t", "y", CmpOp::Ne, Value::Float(0.0));
        assert!(!ne.matches(&t, 1), "NULL must not match even !=");
    }

    #[test]
    fn missing_column_is_false() {
        let t = keyed();
        let p = Pred::new("t", "nope", CmpOp::Eq, Value::Int(1));
        assert!(!p.matches(&t, 0));
    }

    #[test]
    fn display_is_sqlish() {
        let p = Pred::new("t", "x", CmpOp::Ge, Value::Int(3));
        assert_eq!(p.display(), "t.x >= 3");
    }

    impl RowTest<'_> {
        /// The compiled test at one row: whether a one-tuple morsel keeps it.
        fn accepts(&self, row: usize) -> bool {
            let mut sel = vec![0];
            self.narrow(&mut sel, |_| row);
            !sel.is_empty()
        }

        /// Which of the eight forms the test took.
        fn form_index(&self) -> usize {
            match self.form {
                Form::Never => 0,
                Form::Codes(..) => 1,
                Form::Bool(..) => 2,
                Form::Float(..) => 3,
                Form::Int(..) => 4,
                Form::Text(..) => 5,
                Form::DictInt(..) => 6,
                Form::DictText(..) => 7,
            }
        }
    }

    /// The row counts a caller compiles for: the table's (no smaller than
    /// any dictionary below, so verdicts per code) and one (smaller than
    /// both dictionaries, so each row's value decoded).
    const ROW_COUNTS: [usize; 2] = [12, 1];

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
        let (mut accepted, mut forms) = (0, [0usize; 8]);
        for name in names {
            for op in ops {
                for lit in &literals {
                    let pred = Pred::new("t", &name, op, lit.clone());
                    for rows in ROW_COUNTS {
                        let test = RowTest::compile(&pred, &t, rows);
                        forms[test.form_index()] += 1;
                        for row in 0..t.num_rows() {
                            let expected = pred.matches(&t, row);
                            let at = format!("{pred:?} at row {row}, compiled for {rows} rows");
                            assert_eq!(test.accepts(row), expected, "{at}");
                            accepted += usize::from(expected);
                        }
                    }
                }
            }
        }
        assert!(forms.iter().all(|&f| f > 0), "every test form is exercised: {forms:?}");
        assert!(accepted > 1000, "the grid exercises accepting rows too, got {accepted}");
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
    /// alone on either lane of a 3-wide tuple matrix and in a conjunction,
    /// each dictionary as verdicts and decoded.
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
        let (mut kept, mut forms) = (0, [0usize; 8]);
        for (i, pred) in preds.iter().enumerate() {
            let other = &preds[(i * 31 + 7) % preds.len()];
            for count in ROW_COUNTS {
                forms[RowTest::compile(pred, &t, count).form_index()] += 1;
                for lanes in [&[(pred, 0)][..], &[(pred, 2)], &[(pred, 0), (other, 2)]] {
                    let tests: Vec<_> = lanes
                        .iter()
                        .map(|&(p, pos)| (RowTest::compile(p, &t, count), pos))
                        .collect();
                    let expected = filter_row_at_a_time(lanes, &t, &rows, 3);
                    assert_eq!(filter(&tests, &rows, 3), expected, "{lanes:?} for {count} rows");
                    kept += expected.len() / 3;
                }
            }
        }
        assert!(forms.iter().all(|&f| f > 0), "every test form is exercised: {forms:?}");
        assert!(kept > 4000, "the grid keeps tuples too, got {kept}");
    }
}
