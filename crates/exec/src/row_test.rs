//! A filter predicate resolved once against its storage column.
//!
//! [`Pred::matches`] looks its column up by name and boxes the row's
//! [`Value`] (a `String` allocation on Text columns) for every row. A
//! [`RowTest`] makes those decisions once, when the filter operator is
//! instantiated, and answers per row through the typed accessors. It decides
//! exactly what `matches` decides — `Value::compare` widens both sides to
//! `f64` unless both are Text (Bool/Bool orders like its widening), and a
//! NULL, a NaN or a type mismatch on either side satisfies no operator — so
//! the naive-evaluator oracle and `card`, which keep calling `matches`, agree
//! with the executor on every row (property-tested below).

use graceful_plan::Pred;
use graceful_storage::{Column, Table, Value};

enum Literal<'a> {
    /// An Int, Float or Bool literal, widened once.
    Num(f64),
    Text(&'a str),
    /// A NULL literal.
    Never,
}

pub(crate) struct RowTest<'a> {
    pred: &'a Pred,
    /// `None` (no such column in the table) matches no row.
    col: Option<&'a Column>,
    literal: Literal<'a>,
}

impl<'a> RowTest<'a> {
    pub(crate) fn compile(pred: &'a Pred, table: &'a Table) -> Self {
        let literal = match &pred.value {
            Value::Null => Literal::Never,
            Value::Text(s) => Literal::Text(s),
            v => Literal::Num(v.as_f64().expect("Int/Float/Bool literals widen")),
        };
        RowTest { pred, col: table.column(&pred.col.column).ok(), literal }
    }

    /// What `Pred::matches` returns for this predicate at `row` of its table: a
    /// Text row has no `f64` view and a numeric row no `str` view, so a type
    /// mismatch compares as `None` here exactly as in `Value::compare`.
    #[inline]
    pub(crate) fn accepts(&self, row: usize) -> bool {
        let Some(col) = self.col else { return false };
        let ord = match self.literal {
            Literal::Num(lit) => col.get_f64(row).and_then(|x| x.partial_cmp(&lit)),
            Literal::Text(lit) => col.get_str(row).map(|s| s.cmp(lit)),
            Literal::Never => None,
        };
        Pred::accepts(self.pred.op, ord)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_storage::ColumnData;
    use graceful_udf::ast::CmpOp;

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
}
