//! Data-driven estimation (the paper's DeepDB column).
//!
//! DeepDB learns sum-product networks over table samples, capturing
//! intra-table correlations that independence-based estimators miss. We
//! reproduce that capability with materialized per-table row samples:
//! filter conjunctions are evaluated *exactly on the sample* (so correlated
//! predicates are handled), while joins use FK fan-out statistics collected
//! at build time. The residual error sources — sampling floor on very
//! selective predicates, fan-out/filter correlations across tables — are the
//! same ones that make real DeepDB imperfect (Table III's mid rows, and the
//! `baseball` dataset discussion in Exp 5).
//!
//! The sample is materialized at build, column by column and typed, so a
//! conjunction is a pass per predicate over a dense slice: no column lookup
//! by name and no `Value` per row. The passes are the crate's matcher
//! ([`ActualCard`](crate::ActualCard) runs it over every row of a table); it
//! counts the rows `Pred::matches` would, hence returns the same floats.

use crate::{and_num, and_text, CardEstimator};
use graceful_common::rng::Rng;
use graceful_common::Result;
use graceful_plan::{ColRef, Plan, PlanOpKind, Pred};
use graceful_storage::{DataType, Database};
use std::collections::HashMap;

/// Per-table sample size (larger = tighter estimates, slower build).
const SAMPLE_ROWS: usize = 600;

/// Fan-out statistics for one FK edge direction.
#[derive(Debug, Clone, Copy)]
struct Fanout {
    /// Average children per parent key *present in the child table*.
    avg: f64,
}

/// One column of a table sample, in the two shapes the matcher takes (see
/// [`crate::and_num`]): numbers, NULL as NaN, and text, NULL as `None`.
enum SampleColumn<'a> {
    Num(Vec<f64>),
    Text(Vec<Option<&'a str>>),
}

/// The sampled rows of one table, column by column.
struct TableSample<'a> {
    rows: usize,
    columns: HashMap<&'a str, SampleColumn<'a>>,
}

/// Data-driven estimator with per-table samples and FK fan-out synopses.
pub struct DataDrivenCard<'a> {
    db: &'a Database,
    /// table → its sample.
    samples: HashMap<&'a str, TableSample<'a>>,
    /// (child_table, child_col) → fan-out of parent ⋈ child.
    fanouts: HashMap<(&'a str, &'a str), Fanout>,
}

impl<'a> DataDrivenCard<'a> {
    /// Build the synopses (the "training" of the data-driven model).
    pub fn build(db: &'a Database, seed: u64) -> Self {
        let mut rng = Rng::seed(seed ^ 0xDEED);
        let mut samples = HashMap::new();
        for t in db.tables() {
            let n = t.num_rows();
            let ids: Vec<usize> = if n <= SAMPLE_ROWS {
                (0..n).collect()
            } else {
                rng.sample_indices(n, SAMPLE_ROWS)
            };
            let columns = t.columns().iter().map(|c| {
                let data = if c.data_type() == DataType::Text {
                    SampleColumn::Text(ids.iter().map(|&r| c.get_str(r)).collect())
                } else {
                    SampleColumn::Num(
                        ids.iter().map(|&r| c.get_f64(r).unwrap_or(f64::NAN)).collect(),
                    )
                };
                (c.name.as_str(), data)
            });
            samples.insert(
                t.name.as_str(),
                TableSample { rows: ids.len(), columns: columns.collect() },
            );
        }
        let mut fanouts = HashMap::new();
        for t in db.tables() {
            for fk in &t.foreign_keys {
                let col = match t.column(&fk.column) {
                    Ok(c) => c,
                    Err(_) => continue,
                };
                let mut counts: HashMap<i64, usize> = HashMap::new();
                for r in 0..t.num_rows() {
                    if let Some(k) = col.get_i64(r) {
                        *counts.entry(k).or_insert(0) += 1;
                    }
                }
                let parents = db.table(&fk.ref_table).map(|p| p.num_rows()).unwrap_or(1).max(1);
                let avg = counts.values().sum::<usize>() as f64 / parents as f64;
                fanouts.insert((t.name.as_str(), fk.column.as_str()), Fanout { avg });
            }
        }
        DataDrivenCard { db, samples, fanouts }
    }

    /// Sample-based conjunctive selectivity (exact on the sample): the hit
    /// count of a `Pred::matches` loop over the sampled rows, taken one
    /// predicate at a time over that column's typed slice.
    fn sample_selectivity(&self, table: &str, preds: &[Pred]) -> f64 {
        if preds.is_empty() {
            return 1.0;
        }
        let Some(sample) = self.samples.get(table) else {
            return 0.5;
        };
        if sample.rows == 0 {
            return 0.0;
        }
        let mut hit = vec![true; sample.rows];
        for p in preds {
            match sample.columns.get(p.col.column.as_str()) {
                Some(SampleColumn::Num(xs)) => {
                    and_num(&mut hit, xs.iter().copied(), p.op, &p.value)
                }
                Some(SampleColumn::Text(xs)) => {
                    and_text(&mut hit, xs.iter().copied(), p.op, &p.value)
                }
                // An unknown column: no row matches.
                None => hit.fill(false),
            }
        }
        let hits = hit.iter().filter(|&&h| h).count();
        // Laplace smoothing: zero sample hits become a small non-zero
        // probability (DeepDB's SPN leaves never output exact zero either).
        (hits as f64 + 0.5) / (sample.rows as f64 + 1.0)
    }

    fn fanout(&self, child_col: &ColRef) -> Option<Fanout> {
        self.fanouts.get(&(child_col.table.as_str(), child_col.column.as_str())).copied()
    }
}

impl CardEstimator for DataDrivenCard<'_> {
    fn name(&self) -> &'static str {
        "DeepDB-like (data-driven)"
    }

    fn annotate(&self, plan: &mut Plan) -> Result<()> {
        let db = self.db;
        crate::annotate_with(
            plan,
            |table| db.table(table).map(|t| t.num_rows() as f64).unwrap_or(0.0),
            |plan, idx, l, r| {
                let PlanOpKind::Join { left_col, right_col } = &plan.ops[idx].kind else {
                    return l.min(r);
                };
                // FK join: child side × survival ratio of parent side.
                // Identify which side is the child (FK holder).
                if let Some(f) = self.fanout(right_col) {
                    // Right is the child: parents(left) × fanout × right
                    // survival.
                    let right_base =
                        db.table(&right_col.table).map(|t| t.num_rows() as f64).unwrap_or(1.0);
                    let survival = if right_base > 0.0 { r / right_base } else { 0.0 };
                    l * f.avg * survival
                } else if let Some(f) = self.fanout(left_col) {
                    let left_base =
                        db.table(&left_col.table).map(|t| t.num_rows() as f64).unwrap_or(1.0);
                    let survival = if left_base > 0.0 { l / left_base } else { 0.0 };
                    r * f.avg * survival
                } else {
                    // Non-FK equi-join: fall back to the NDV formula.
                    let ndv = |c: &ColRef| {
                        db.stats(&c.table)
                            .ok()
                            .and_then(|s| s.column(&c.column).ok())
                            .map(|cs| cs.ndv.max(1) as f64)
                            .unwrap_or(1.0)
                    };
                    l * r / ndv(left_col).max(ndv(right_col)).max(1.0)
                }
            },
            |table, preds| self.sample_selectivity(table, preds),
        )
    }

    fn conjunction_selectivity(&self, table: &str, preds: &[Pred]) -> f64 {
        self.sample_selectivity(table, preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_storage::datagen::{generate, schema};
    use graceful_storage::Value;
    use graceful_udf::ast::CmpOp;

    #[test]
    fn captures_correlated_conjunctions() {
        let db = generate(&schema("airline"), 0.1, 3);
        let est = DataDrivenCard::build(&db, 1);
        let st = db.stats("flight").unwrap();
        let dep = st.column("dep_delay").unwrap();
        let arr = st.column("arr_delay").unwrap();
        let preds = vec![
            Pred::new(
                "flight",
                "dep_delay",
                CmpOp::Gt,
                Value::Int(((dep.min + dep.max) / 2.0) as i64),
            ),
            Pred::new("flight", "arr_delay", CmpOp::Gt, Value::Float((arr.min + arr.max) / 2.0)),
        ];
        let est_sel = est.conjunction_selectivity("flight", &preds);
        let t = db.table("flight").unwrap();
        let truth = (0..t.num_rows()).filter(|&r| preds.iter().all(|p| p.matches(t, r))).count()
            as f64
            / t.num_rows() as f64;
        let q = (est_sel / truth).max(truth / est_sel);
        assert!(q < 1.5, "data-driven should capture correlation: q={q}");
    }

    #[test]
    fn fk_join_estimate_close_to_truth() {
        use graceful_plan::{AggFunc, Plan, PlanOp};
        let db = generate(&schema("tpc_h"), 0.1, 3);
        let est = DataDrivenCard::build(&db, 2);
        let mut plan = Plan {
            ops: vec![
                PlanOp::new(PlanOpKind::Scan { table: "customer_t".into() }, vec![]),
                PlanOp::new(PlanOpKind::Scan { table: "orders_t".into() }, vec![]),
                PlanOp::new(
                    PlanOpKind::Join {
                        left_col: ColRef::new("customer_t", "id"),
                        right_col: ColRef::new("orders_t", "cust_id"),
                    },
                    vec![0, 1],
                ),
                PlanOp::new(PlanOpKind::Agg { func: AggFunc::CountStar, column: None }, vec![2]),
            ],
            root: 3,
        };
        est.annotate(&mut plan).unwrap();
        let truth = db.table("orders_t").unwrap().num_rows() as f64;
        let q = (plan.ops[2].est_out_rows / truth).max(truth / plan.ops[2].est_out_rows);
        assert!(q < 1.2, "FK join estimate q={q}");
    }

    /// The typed sample counts what the `Pred::matches` row loop counts, so
    /// the selectivity keeps its bits: every operator against every literal
    /// type on every column shape — NULL runs, NaN, ±0.0 and infinities, an
    /// Int column against a Float literal, plain and dictionary text, Bool,
    /// dictionary ints — alone and in a conjunction, plus an unknown column,
    /// an empty table and an unknown table. [`crate::ActualCard`], which runs
    /// the same matcher over every row, counts the same rows unsmoothed.
    #[test]
    fn typed_sample_counts_what_the_row_loop_counts() {
        use graceful_storage::{Column, ColumnData, Table};
        let n = 12usize;
        let nulls = |runs: &[usize]| (0..n).map(|r| runs.contains(&(r / 3))).collect::<Vec<_>>();
        let text = |r: usize| ["b", "", "a", "c"][r % 4].to_string();
        let floats = [
            0.0,
            -0.0,
            f64::NAN,
            1.5,
            -1.5,
            2.0,
            f64::INFINITY,
            -f64::INFINITY,
            0.5,
            1.5,
            2.0,
            -0.0,
        ];
        let columns = vec![
            Column::with_nulls(
                "i",
                ColumnData::Int((0..n as i64).map(|x| x % 5 - 2).collect()),
                nulls(&[1, 3]),
            ),
            Column::with_nulls("f", ColumnData::Float(floats.to_vec()), nulls(&[2])),
            Column::new("s", ColumnData::Text((0..n).map(text).collect())),
            Column::with_nulls(
                "ds",
                ColumnData::DictText {
                    codes: (0..n as u16).map(|r| r % 3).collect(),
                    dict: vec!["b".into(), "a".into(), "".into()],
                },
                nulls(&[0]),
            ),
            Column::new(
                "di",
                ColumnData::DictInt {
                    codes: (0..n as u16).map(|r| r % 4).collect(),
                    dict: vec![2, 0, -1, 1],
                },
            ),
            Column::new("b", ColumnData::Bool((0..n).map(|r| r % 3 == 0).collect())),
        ];
        let empty = Table::new("e", vec![Column::new("i", ColumnData::Int(vec![]))]).unwrap();
        let db = Database::new("d", vec![Table::new("t", columns).unwrap(), empty]);
        let (sample, actual) = (DataDrivenCard::build(&db, 1), crate::ActualCard::new(&db));
        let literals = [
            Value::Int(0),
            Value::Int(1),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.5),
            Value::Float(f64::NAN),
            Value::Text("b".into()),
            Value::Text(String::new()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
        ];
        let first = Pred::new("t", "i", CmpOp::Ge, Value::Float(-1.0));
        for table in ["t", "e"] {
            let t = db.table(table).unwrap();
            for (column, op, literal) in ["i", "f", "s", "ds", "di", "b", "nope"]
                .iter()
                .flat_map(|c| CmpOp::ALL.map(|op| (c, op)))
                .flat_map(|(c, op)| literals.iter().map(move |l| (c, op, l)))
            {
                let pred = Pred::new(table, column, op, literal.clone());
                for preds in [vec![pred.clone()], vec![first.clone(), pred]] {
                    let rows = t.num_rows();
                    let hits = (0..rows).filter(|&r| preds.iter().all(|p| p.matches(t, r))).count();
                    let (smoothed, exact) = match rows {
                        0 => (0.0, 0.0),
                        _ => ((hits as f64 + 0.5) / (rows as f64 + 1.0), hits as f64 / rows as f64),
                    };
                    let got = sample.conjunction_selectivity(table, &preds);
                    assert_eq!(got.to_bits(), smoothed.to_bits(), "{table}: {preds:?}");
                    let got = actual.conjunction_selectivity(table, &preds);
                    assert_eq!(got.to_bits(), exact.to_bits(), "actual, {table}: {preds:?}");
                }
            }
        }
        assert_eq!(sample.conjunction_selectivity("nope", std::slice::from_ref(&first)), 0.5);
        assert_eq!(actual.conjunction_selectivity("nope", &[first]), 0.5);
    }

    #[test]
    fn smoothing_avoids_zero() {
        let db = generate(&schema("tpc_h"), 0.05, 3);
        let est = DataDrivenCard::build(&db, 3);
        // Impossible predicate: quantity < min.
        let sel = est.conjunction_selectivity(
            "lineitem_t",
            &[Pred::new("lineitem_t", "quantity", CmpOp::Lt, Value::Int(-5))],
        );
        assert!(sel > 0.0 && sel < 0.01);
    }
}
