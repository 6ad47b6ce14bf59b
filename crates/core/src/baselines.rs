//! The split baselines of Exp 1 and Exp 3.
//!
//! Both baselines decompose the cost as `query cost + UDF cost` with two
//! separately trained models (the paper splits the training workload the
//! same way):
//!
//! * **Flat+Graph** — the UDF is a *flat feature vector* (loop/branch/op/lib
//!   counts, the FlatVector approach of Ganapathi et al.) fed to a GBDT
//!   (XGBoost stand-in) that predicts per-tuple UDF cost, scaled by the
//!   estimated rows the UDF processes; the query side is GRACEFUL's query
//!   graph with the UDF as a black box.
//! * **Graph+Graph** — the UDF part of GRACEFUL's graph, isolated from the
//!   query, trained as a standalone GNN on UDF-only runtimes; query side as
//!   above.
//!
//! What both baselines miss — and what Exp 1/3 quantify — is the *joint*
//! signal: invocation overhead interacting with plan position, hit ratios
//! conditioned on pre-filters, and data-type conversion costs.

use crate::corpus::DatasetCorpus;
use crate::featurize::{feature_dims, log_mag, udf_graph, Featurizer};
use graceful_card::{ActualCard, CardEstimator};
use graceful_common::rng::Rng;
use graceful_common::{GracefulError, Result, Serial};
use graceful_gbdt::{Gbdt, GbdtConfig};
use graceful_nn::{AdamConfig, GnnConfig, GnnModel, TypedGraph};
use graceful_plan::{Plan, QuerySpec};
use graceful_storage::Database;
use graceful_udf::ast::BinOp;
use graceful_udf::{GeneratedUdf, LibFn};

/// FlatVector featurization of a UDF: structural counts only.
pub fn flat_features(udf: &GeneratedUdf, input_rows: f64) -> Vec<f64> {
    let def = &udf.def;
    let mut f = Vec::with_capacity(8 + BinOp::ALL.len() + LibFn::COUNT);
    f.push(def.branch_count() as f64);
    f.push(def.loop_count() as f64);
    f.push(def.op_count() as f64);
    f.push(def.params.len() as f64);
    f.push(log_mag(input_rows) as f64);
    let mut ops = vec![0f64; BinOp::ALL.len()];
    let mut libs = vec![0f64; LibFn::COUNT];
    def.visit_stmts(&mut |s| {
        s.expr().visit(&mut |e| match e {
            graceful_udf::Expr::Binary { op, .. } => ops[op.index()] += 1.0,
            graceful_udf::Expr::Call { func, .. } | graceful_udf::Expr::Method { func, .. } => {
                libs[func.index()] += 1.0
            }
            _ => {}
        })
    });
    f.extend(ops);
    f.extend(libs);
    f
}

/// The query-side model shared by both baselines: GRACEFUL's query graph
/// with the UDF reduced to a black box (ablation level 1), trained on
/// query-only runtimes (total minus UDF work).
#[derive(Debug, Clone)]
pub struct QuerySideModel {
    gnn: GnnModel,
}

impl QuerySideModel {
    pub fn train(
        corpora: &[&DatasetCorpus],
        epochs: usize,
        hidden: usize,
        seed: u64,
    ) -> Result<Self> {
        let config = GnnConfig { hidden, feature_dims: feature_dims(), readout_hidden: hidden };
        let mut gnn = GnnModel::new(config, seed)?;
        let fz = Featurizer::level(1)?;
        let mut samples: Vec<(TypedGraph, f64)> = Vec::new();
        for c in corpora {
            let est = ActualCard::new(&c.db);
            for q in &c.queries {
                let mut plan = q.plan.clone();
                est.annotate(&mut plan)?;
                let g = fz.featurize(&c.db, &q.spec, &plan, &est)?;
                let query_only = (q.runtime_ns - q.udf_work_ns).max(1.0);
                samples.push((g, query_only));
            }
        }
        train_gnn(&mut gnn, &mut samples, epochs, seed)?;
        Ok(QuerySideModel { gnn })
    }

    pub fn predict(
        &self,
        db: &Database,
        spec: &QuerySpec,
        plan: &Plan,
        estimator: &dyn CardEstimator,
    ) -> Result<f64> {
        let g = Featurizer::level(1)?.featurize(db, spec, plan, estimator)?;
        self.gnn.predict(&g)
    }
}

fn train_gnn(
    gnn: &mut GnnModel,
    samples: &mut [(TypedGraph, f64)],
    epochs: usize,
    seed: u64,
) -> Result<()> {
    if samples.is_empty() {
        return Err(GracefulError::Model("no training samples".into()));
    }
    let targets: Vec<f64> = samples.iter().map(|(_, t)| *t).collect();
    gnn.fit_target_norm(&targets)?;
    let adam = AdamConfig { lr: 2e-3, ..AdamConfig::default() };
    let mut rng = Rng::seed(seed ^ 0xBA5E);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    for _ in 0..epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(16) {
            let graphs: Vec<&TypedGraph> = chunk.iter().map(|&i| &samples[i].0).collect();
            let ts: Vec<f64> = chunk.iter().map(|&i| samples[i].1).collect();
            gnn.train_batch(&Serial, &graphs, &ts, &adam, 1.0)?;
        }
    }
    Ok(())
}

/// Flat+Graph baseline.
#[derive(Debug, Clone)]
pub struct FlatGraphBaseline {
    /// Predicts `ln(per-tuple UDF cost)` from flat features.
    gbdt: Gbdt,
    query_side: QuerySideModel,
}

impl FlatGraphBaseline {
    pub fn train(
        corpora: &[&DatasetCorpus],
        epochs: usize,
        hidden: usize,
        seed: u64,
    ) -> Result<Self> {
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for c in corpora {
            for q in &c.queries {
                let Some(u) = &q.spec.udf else { continue };
                if q.udf_input_rows == 0 {
                    continue;
                }
                let per_tuple = (q.udf_work_ns / q.udf_input_rows as f64).max(1e-3);
                xs.push(flat_features(u, q.udf_input_rows as f64));
                ys.push(per_tuple.ln());
            }
        }
        if xs.is_empty() {
            return Err(GracefulError::Model("no UDF samples for FlatVector".into()));
        }
        let gbdt = Gbdt::fit(&xs, &ys, GbdtConfig { seed, ..GbdtConfig::default() })?;
        let query_side = QuerySideModel::train(corpora, epochs, hidden, seed)?;
        Ok(FlatGraphBaseline { gbdt, query_side })
    }

    /// Predict the UDF-only runtime (ns) given estimated input rows.
    pub fn predict_udf(&self, udf: &GeneratedUdf, est_input_rows: f64) -> f64 {
        let per_tuple = self.gbdt.predict(&flat_features(udf, est_input_rows)).exp();
        per_tuple * est_input_rows.max(0.0)
    }

    /// Predict total runtime: query side + scaled UDF side.
    pub fn predict(
        &self,
        db: &Database,
        spec: &QuerySpec,
        plan: &Plan,
        estimator: &dyn CardEstimator,
    ) -> Result<f64> {
        let query = self.query_side.predict(db, spec, plan, estimator)?;
        let udf = match (&spec.udf, plan.udf_op()) {
            (Some(u), Some(idx)) => {
                let input = plan.ops[plan.ops[idx].children[0]].est_out_rows;
                self.predict_udf(u, input)
            }
            _ => 0.0,
        };
        Ok(query + udf)
    }
}

/// Graph+Graph baseline: GRACEFUL's UDF subgraph as a standalone estimator.
#[derive(Debug, Clone)]
pub struct GraphGraphBaseline {
    udf_gnn: GnnModel,
    query_side: QuerySideModel,
}

impl GraphGraphBaseline {
    pub fn train(
        corpora: &[&DatasetCorpus],
        epochs: usize,
        hidden: usize,
        seed: u64,
    ) -> Result<Self> {
        let config = GnnConfig { hidden, feature_dims: feature_dims(), readout_hidden: hidden };
        let mut udf_gnn = GnnModel::new(config, seed ^ 0x66)?;
        let mut samples: Vec<(TypedGraph, f64)> = Vec::new();
        for c in corpora {
            let est = ActualCard::new(&c.db);
            for q in &c.queries {
                let Some(u) = &q.spec.udf else { continue };
                if q.udf_input_rows == 0 {
                    continue;
                }
                let g = udf_graph(&c.db, &q.spec, u, q.udf_input_rows as f64, &est)?;
                samples.push((g, q.udf_work_ns.max(1.0)));
            }
        }
        train_gnn(&mut udf_gnn, &mut samples, epochs, seed ^ 0x66)?;
        let query_side = QuerySideModel::train(corpora, epochs, hidden, seed)?;
        Ok(GraphGraphBaseline { udf_gnn, query_side })
    }

    pub fn predict(
        &self,
        db: &Database,
        spec: &QuerySpec,
        plan: &Plan,
        estimator: &dyn CardEstimator,
    ) -> Result<f64> {
        let query = self.query_side.predict(db, spec, plan, estimator)?;
        let udf = match (&spec.udf, plan.udf_op()) {
            (Some(u), Some(idx)) => {
                let input = plan.ops[plan.ops[idx].children[0]].est_out_rows;
                let g = udf_graph(db, spec, u, input, estimator)?;
                self.udf_gnn.predict(&g)?
            }
            _ => 0.0,
        };
        Ok(query + udf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_common::config::ScaleConfig;

    fn tiny() -> DatasetCorpus {
        let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 14, ..ScaleConfig::default() };
        crate::corpus::env_corpus("tpc_h", &cfg, 9)
    }

    #[test]
    fn flat_features_reflect_structure() {
        let c = tiny();
        let q = c.queries.iter().find(|q| q.has_udf()).unwrap();
        let u = q.spec.udf.as_ref().unwrap();
        let f = flat_features(u, 100.0);
        assert_eq!(f[0], u.def.branch_count() as f64);
        assert_eq!(f[1], u.def.loop_count() as f64);
        assert_eq!(f[2], u.def.op_count() as f64);
    }

    #[test]
    fn baselines_train_and_predict() {
        let c = tiny();
        let flat = FlatGraphBaseline::train(&[&c], 3, 8, 1).unwrap();
        let gg = GraphGraphBaseline::train(&[&c], 3, 8, 2).unwrap();
        let est = ActualCard::new(&c.db);
        use graceful_card::CardEstimator as _;
        for q in c.queries.iter().take(5) {
            let mut plan = q.plan.clone();
            est.annotate(&mut plan).unwrap();
            let p1 = flat.predict(&c.db, &q.spec, &plan, &est).unwrap();
            let p2 = gg.predict(&c.db, &q.spec, &plan, &est).unwrap();
            assert!(p1.is_finite() && p1 > 0.0);
            assert!(p2.is_finite() && p2 > 0.0);
        }
    }
}
