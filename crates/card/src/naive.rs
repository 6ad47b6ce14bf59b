//! The naive "system optimizer" estimator (the paper's DuckDB column).
//!
//! Classic textbook estimation: uniformity within `[min, max]`, `1/NDV`
//! equality selectivity, attribute-value independence across predicates, and
//! the `|L|·|R| / max(ndv_l, ndv_r)` join formula. On the benchmark's
//! correlated columns and skewed fan-outs this is exactly the estimator that
//! produces the large errors of Table III's last row.

use crate::CardEstimator;
use graceful_common::Result;
use graceful_plan::{Plan, PlanOpKind, Pred};
use graceful_storage::{DataType, Database, Value};
use graceful_udf::ast::CmpOp;

/// Histogram-free uniformity estimator.
pub struct NaiveCard<'a> {
    db: &'a Database,
}

impl<'a> NaiveCard<'a> {
    pub fn new(db: &'a Database) -> Self {
        NaiveCard { db }
    }

    /// Selectivity of one predicate under uniformity assumptions. A
    /// predicate no row can pass has selectivity 0, as `RowTest` counts it:
    /// a NaN literal compares with nothing, so it matches no row under any
    /// operator, `!=` included; nor does a NULL literal, Text on one side
    /// and a number on the other, or a column that does not exist.
    fn pred_selectivity(&self, pred: &Pred) -> f64 {
        if pred.value.as_f64().is_some_and(f64::is_nan) {
            return 0.0;
        }
        let Ok(stats) = self.db.stats(&pred.col.table) else {
            return 0.33;
        };
        let Ok(cs) = stats.column(&pred.col.column) else {
            return 0.0;
        };
        let non_null = 1.0 - cs.null_fraction;
        let per_value = |op: CmpOp| match op {
            CmpOp::Eq => 1.0 / cs.ndv.max(1) as f64,
            CmpOp::Ne => 1.0 - 1.0 / cs.ndv.max(1) as f64,
            // Range over text: no histogram, classic magic constant.
            _ => 0.33,
        };
        let sel = match (cs.data_type, pred.value.as_f64(), &pred.value) {
            (DataType::Int | DataType::Float, Some(v), _) => {
                let span = (cs.max - cs.min).max(f64::EPSILON);
                let frac_below = ((v - cs.min) / span).clamp(0.0, 1.0);
                match pred.op {
                    CmpOp::Lt | CmpOp::Le => frac_below,
                    CmpOp::Gt | CmpOp::Ge => 1.0 - frac_below,
                    op => per_value(op),
                }
            }
            (DataType::Bool, Some(_), _) | (DataType::Text, _, Value::Text(_)) => {
                per_value(pred.op)
            }
            _ => return 0.0,
        };
        (sel * non_null).clamp(0.0, 1.0)
    }
}

impl CardEstimator for NaiveCard<'_> {
    fn name(&self) -> &'static str {
        "DuckDB-like (naive)"
    }

    fn annotate(&self, plan: &mut Plan) -> Result<()> {
        let db = self.db;
        crate::annotate_with(
            plan,
            |table| db.table(table).map(|t| t.num_rows() as f64).unwrap_or(0.0),
            |plan, idx, l, r| {
                // |L|·|R| / max(ndv_l, ndv_r), the System-R formula.
                let PlanOpKind::Join { left_col, right_col } = &plan.ops[idx].kind else {
                    return l.min(r);
                };
                let ndv = |c: &graceful_plan::ColRef| {
                    db.stats(&c.table)
                        .ok()
                        .and_then(|s| s.column(&c.column).ok())
                        .map(|cs| cs.ndv.max(1) as f64)
                        .unwrap_or(1.0)
                };
                let d = ndv(left_col).max(ndv(right_col)).max(1.0);
                (l * r / d).max(0.0)
            },
            |table, preds| {
                // Independence: multiply marginal selectivities.
                let _ = table;
                preds.iter().map(|p| self.pred_selectivity(p)).product()
            },
        )
    }

    fn conjunction_selectivity(&self, _table: &str, preds: &[Pred]) -> f64 {
        preds.iter().map(|p| self.pred_selectivity(p)).product::<f64>().clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ActualCard;
    use graceful_storage::datagen::{generate, schema};

    #[test]
    fn uniform_range_selectivity_is_reasonable() {
        let db = generate(&schema("tpc_h"), 0.05, 3);
        let est = NaiveCard::new(&db);
        // quantity is uniform 1..=50: `quantity <= 25` ≈ 0.5.
        let sel = est.conjunction_selectivity(
            "lineitem_t",
            &[Pred::new("lineitem_t", "quantity", CmpOp::Le, Value::Int(25))],
        );
        assert!((sel - 0.5).abs() < 0.1, "sel={sel}");
    }

    /// Every predicate `RowTest` compiles to "no row passes" gets
    /// selectivity 0, as `ActualCard` counts it — not a fallback to the
    /// column's minimum or to `1/ndv`.
    #[test]
    fn a_predicate_no_row_can_pass_has_selectivity_zero() {
        let db = generate(&schema("accidents"), 0.05, 3);
        let (naive, actual) = (NaiveCard::new(&db), ActualCard::new(&db));
        let text = || Value::Text("a".into());
        let cases = [
            ("accident", "severity", Value::Null),
            ("accident", "severity", text()),
            ("accident", "damage", Value::Null),
            ("accident", "damage", text()),
            ("accident", "fatal", text()),
            ("accident", "fatal", Value::Null),
            ("region", "name", Value::Int(3)),
            ("region", "name", Value::Float(0.5)),
            ("region", "name", Value::Bool(true)),
            ("region", "name", Value::Null),
            ("accident", "no_such_column", Value::Int(3)),
        ];
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
        for (table, column, value) in cases {
            for op in ops {
                let pred = [Pred::new(table, column, op, value.clone())];
                let what = pred[0].display();
                assert_eq!(actual.conjunction_selectivity(table, &pred), 0.0, "{what}: actual");
                assert_eq!(naive.conjunction_selectivity(table, &pred), 0.0, "{what}: naive");
            }
        }
        // A literal of the column's own kind still estimates as before.
        for (table, column, value) in
            [("region", "name", text()), ("accident", "fatal", Value::Bool(true))]
        {
            let pred = [Pred::new(table, column, CmpOp::Eq, value)];
            assert!(naive.conjunction_selectivity(table, &pred) > 0.0, "{}", pred[0].display());
        }
    }

    #[test]
    fn independence_underestimates_correlated_conjunctions() {
        // airline: arr_delay ≈ dep_delay. The conjunction
        // dep_delay > m AND arr_delay > m' keeps ~half the rows, but
        // independence predicts ~0.25.
        let db = generate(&schema("airline"), 0.1, 3);
        let est = NaiveCard::new(&db);
        let st = db.stats("flight").unwrap();
        let dep = st.column("dep_delay").unwrap();
        let arr = st.column("arr_delay").unwrap();
        let dep_mid = (dep.min + dep.max) / 2.0;
        let arr_mid = (arr.min + arr.max) / 2.0;
        let naive_sel = est.conjunction_selectivity(
            "flight",
            &[
                Pred::new("flight", "dep_delay", CmpOp::Gt, Value::Int(dep_mid as i64)),
                Pred::new("flight", "arr_delay", CmpOp::Gt, Value::Float(arr_mid)),
            ],
        );
        // True selectivity by scanning.
        let t = db.table("flight").unwrap();
        let (d, a) = (t.column("dep_delay").unwrap(), t.column("arr_delay").unwrap());
        let truth = (0..t.num_rows())
            .filter(|&r| {
                d.get_f64(r).is_some_and(|x| x > dep_mid)
                    && a.get_f64(r).is_some_and(|x| x > arr_mid)
            })
            .count() as f64
            / t.num_rows() as f64;
        assert!(
            naive_sel < truth * 0.75,
            "expected underestimation: naive={naive_sel}, truth={truth}"
        );
    }

    #[test]
    fn annotates_whole_plan() {
        use graceful_common::rng::Rng;
        use graceful_plan::{build_plan, QueryGenerator, UdfPlacement};
        let db = generate(&schema("imdb"), 0.03, 4);
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(3);
        let est = NaiveCard::new(&db);
        for id in 0..20 {
            let spec = g.generate(&db, id, &mut rng).unwrap();
            let mut plan = build_plan(&spec, UdfPlacement::PushDown).unwrap();
            est.annotate(&mut plan).unwrap();
            for op in &plan.ops {
                assert!(op.est_out_rows.is_finite() && op.est_out_rows >= 0.0);
            }
            assert_eq!(plan.ops[plan.root].est_out_rows, 1.0);
        }
    }
}
