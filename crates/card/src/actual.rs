//! The oracle estimator: actual cardinalities from execution.
//!
//! The paper's upper baseline ("Actual" rows of Table III). Annotation simply
//! copies the executor-recorded actual cardinalities into the estimate slots;
//! conjunctive selectivities are computed by scanning.

use crate::CardEstimator;
use graceful_common::{GracefulError, Result};
use graceful_exec::Session;
use graceful_plan::{Plan, Pred};
use graceful_storage::Database;

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
        let t = match self.db.table(table) {
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
