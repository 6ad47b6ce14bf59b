//! The oracle estimator: actual cardinalities from execution.
//!
//! The paper's upper baseline ("Actual" rows of Table III). Annotation simply
//! copies the executor-recorded actual cardinalities into the estimate slots;
//! conjunctive selectivities are computed by scanning every row: a typed pass
//! per predicate over its column, with the matcher the data-driven sample
//! runs.

use crate::{and_num, and_text, CardEstimator};
use graceful_common::{GracefulError, Result};
use graceful_exec::Session;
use graceful_plan::{Plan, Pred};
use graceful_storage::{DataType, Database};

/// Perfect cardinalities (executes or reuses recorded actuals).
pub struct ActualCard<'a> {
    db: &'a Database,
    session: Session,
}

impl<'a> ActualCard<'a> {
    /// Oracle over `db`. Its internal executor uses the pure base
    /// [`Session`] — actual cardinalities are bit-identical at every thread
    /// count, batch and morsel size, so the oracle consults no environment
    /// knobs and works in fully env-free programs.
    pub fn new(db: &'a Database) -> Self {
        ActualCard { db, session: Session::new() }
    }
}

impl CardEstimator for ActualCard<'_> {
    fn name(&self) -> &'static str {
        "Actual"
    }

    fn annotate(&self, plan: &mut Plan) -> Result<()> {
        // Reuse recorded actuals when the plan has been executed; otherwise
        // execute it now (the oracle is allowed to).
        let recorded = plan.ops.iter().any(|o| o.actual_out_rows > 0.0);
        if !recorded {
            self.session
                .executor(self.db)
                .run_and_annotate(plan, 0)
                .map_err(|e| GracefulError::Model(format!("oracle execution failed: {e}")))?;
        }
        for op in plan.ops.iter_mut() {
            op.est_out_rows = op.actual_out_rows;
        }
        Ok(())
    }

    fn conjunction_selectivity(&self, table: &str, preds: &[Pred]) -> f64 {
        let Some(t) = self.db.tables().iter().find(|t| t.name == table) else {
            return 0.5;
        };
        let n = t.num_rows();
        if n == 0 {
            return 0.0;
        }
        let mut hit = vec![true; n];
        for p in preds {
            let Some(col) = t.columns().iter().find(|c| c.name == p.col.column) else {
                return 0.0; // an unknown column matches no row
            };
            if col.data_type() == DataType::Text {
                and_text(&mut hit, (0..n).map(|r| col.get_str(r)), p.op, &p.value);
            } else {
                let cells = (0..n).map(|r| col.get_f64(r).unwrap_or(f64::NAN));
                and_num(&mut hit, cells, p.op, &p.value);
            }
        }
        hit.iter().filter(|&&h| h).count() as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_storage::datagen::{generate, schema};
    use graceful_storage::Value;
    use graceful_udf::ast::CmpOp;

    #[test]
    fn exact_selectivity() {
        let db = generate(&schema("tpc_h"), 0.05, 3);
        let est = ActualCard::new(&db);
        let sel = est.conjunction_selectivity(
            "lineitem_t",
            &[Pred::new("lineitem_t", "quantity", CmpOp::Le, Value::Int(25))],
        );
        // Exactly count.
        let t = db.table("lineitem_t").unwrap();
        let c = t.column("quantity").unwrap();
        let truth = (0..t.num_rows()).filter(|&r| c.get_i64(r).is_some_and(|v| v <= 25)).count()
            as f64
            / t.num_rows() as f64;
        assert_eq!(sel, truth);
    }

    /// `conjunction_selectivity` as first written: `Pred::matches` per row
    /// per predicate, a column lookup by name and a boxed `Value` each time.
    struct RowLoop<'a>(&'a Database);

    impl CardEstimator for RowLoop<'_> {
        fn name(&self) -> &'static str {
            "Actual, row loop"
        }

        fn annotate(&self, _: &mut Plan) -> Result<()> {
            Ok(())
        }

        fn conjunction_selectivity(&self, table: &str, preds: &[Pred]) -> f64 {
            let t = match self.0.table(table) {
                Ok(t) => t,
                Err(_) => return 0.5,
            };
            let n = t.num_rows();
            if n == 0 {
                return 0.0;
            }
            let hits = (0..n).filter(|&r| preds.iter().all(|p| p.matches(t, r))).count();
            hits as f64 / n as f64
        }
    }

    /// The column-at-a-time scan counts what the row loop counted, bit for
    /// bit, on the conjunctions the hit-ratio estimator forms over the
    /// `lint udf` corpus (6 schemas × 250 generated UDFs): every path's
    /// conditions behind no pre-filter and behind one, and the rows
    /// `annotate_dag` derives from them.
    #[test]
    fn column_scan_counts_what_the_row_loop_counted() {
        use crate::HitRatioEstimator;
        use graceful_cfg::{build_dag, BranchCondInfo, DagConfig};
        use graceful_common::rng::Rng;
        use graceful_storage::DataType;
        use graceful_udf::UdfGenerator;
        let mut conjunctions = 0;
        for name in ["tpc_h", "imdb", "ssb", "airline", "baseball", "movielens"] {
            let db = generate(&schema(name), 0.02, 7);
            let (scan, rows) = (ActualCard::new(&db), RowLoop(&db));
            for seed in 0..250 {
                let Ok(u) = UdfGenerator::default().generate(&db, &mut Rng::seed(seed)) else {
                    continue;
                };
                let dag = build_dag(&u.def, &[], DataType::Float, DagConfig::default());
                let hr = HitRatioEstimator::new(&scan);
                let pred = |c: &BranchCondInfo, taken| {
                    let op = if taken { c.op } else { c.op.negated() };
                    hr.rewrite(&u, &BranchCondInfo { op, ..c.clone() })
                };
                let first = dag.nodes.iter().find_map(|n| pred(n.cond.as_ref()?, false));
                for pre in [None, first] {
                    let pre = Vec::from_iter(pre);
                    for path in dag.enumerate_paths(256).unwrap_or_default() {
                        let mut conj = pre.clone();
                        conj.extend(
                            path.conditions.iter().filter_map(|(c, t)| pred(c.as_ref()?, *t)),
                        );
                        let (got, want) = (
                            scan.conjunction_selectivity(&u.table, &conj),
                            rows.conjunction_selectivity(&u.table, &conj),
                        );
                        assert_eq!(got.to_bits(), want.to_bits(), "{conj:?}");
                        conjunctions += 1;
                    }
                    let (mut got, mut want) = (dag.clone(), dag.clone());
                    hr.annotate_dag(&mut got, &u, 1000.0, &pre);
                    HitRatioEstimator::new(&rows).annotate_dag(&mut want, &u, 1000.0, &pre);
                    let bits = |d: &graceful_cfg::UdfDag| {
                        d.nodes.iter().map(|n| n.in_rows.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&got), bits(&want), "{}", u.source);
                }
            }
        }
        assert!(conjunctions >= 5000, "{conjunctions} conjunctions");
    }

    #[test]
    fn annotation_matches_execution() {
        use graceful_common::rng::Rng;
        use graceful_plan::{build_plan, QueryGenerator, UdfPlacement};
        use graceful_udf::generator::apply_adaptations;
        let mut db = generate(&schema("imdb"), 0.02, 4);
        let g = QueryGenerator::default();
        let mut rng = Rng::seed(5);
        let spec = g.generate(&db, 0, &mut rng).unwrap();
        if let Some(u) = &spec.udf {
            apply_adaptations(&mut db, &u.adaptations).unwrap();
        }
        let mut plan = build_plan(&spec, UdfPlacement::PushDown).unwrap();
        let est = ActualCard::new(&db);
        est.annotate(&mut plan).unwrap();
        for op in &plan.ops {
            assert_eq!(op.est_out_rows, op.actual_out_rows);
        }
    }
}
