//! Simple predicates: `table.column CMP literal`.
//!
//! The workload generator only emits predicates of this shape (plus
//! conjunctions of them on FILTER operators), matching the workloads of the
//! zero-shot cost model line of work the paper builds on. The same shape is
//! reused by the hit-ratio estimator when UDF branch conditions are rewritten
//! back into SQL.

use crate::logical::ColRef;
use graceful_storage::{Table, Value};
use graceful_udf::ast::CmpOp;

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
    pub fn matches(&self, table: &Table, row: usize) -> bool {
        let col = match table.column(&self.col.column) {
            Ok(c) => c,
            Err(_) => return false,
        };
        let v = col.value(row);
        match v.compare(&self.value) {
            None => false,
            Some(ord) => {
                use std::cmp::Ordering::*;
                match self.op {
                    CmpOp::Lt => ord == Less,
                    CmpOp::Le => ord != Greater,
                    CmpOp::Gt => ord == Greater,
                    CmpOp::Ge => ord != Less,
                    CmpOp::Eq => ord == Equal,
                    CmpOp::Ne => ord != Equal,
                }
            }
        }
    }

    /// The table [`Pred::matches`] applies, for callers that hold typed
    /// column slices instead of a [`Table`]: whether `op` holds for an SQL
    /// comparison outcome. `None` (a NULL or incomparable side) satisfies no
    /// operator. `matches` keeps its own copy: the executor's filter calls it
    /// per row, and routing it through here cost 3.6 % of `paper_loop`'s
    /// label rate in ten of ten paired runs.
    pub fn accepts(op: CmpOp, ord: Option<std::cmp::Ordering>) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_storage::{Column, ColumnData, Table};

    fn table() -> Table {
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
        let t = table();
        let p = Pred::new("t", "x", CmpOp::Lt, Value::Int(6));
        assert!(p.matches(&t, 0));
        assert!(p.matches(&t, 1));
        assert!(!p.matches(&t, 2));
    }

    #[test]
    fn null_never_matches() {
        let t = table();
        let p = Pred::new("t", "y", CmpOp::Gt, Value::Float(0.0));
        assert!(p.matches(&t, 0));
        assert!(!p.matches(&t, 1), "NULL must not match");
        let ne = Pred::new("t", "y", CmpOp::Ne, Value::Float(0.0));
        assert!(!ne.matches(&t, 1), "NULL must not match even !=");
    }

    #[test]
    fn missing_column_is_false() {
        let t = table();
        let p = Pred::new("t", "nope", CmpOp::Eq, Value::Int(1));
        assert!(!p.matches(&t, 0));
    }

    #[test]
    fn display_is_sqlish() {
        let p = Pred::new("t", "x", CmpOp::Ge, Value::Int(3));
        assert_eq!(p.display(), "t.x >= 3");
    }
}
