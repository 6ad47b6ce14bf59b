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

use crate::corpus::{DatasetCorpus, LabeledQuery};
use crate::featurize::{log_mag, udf_graph, Featurizer};
use crate::model::{actual_graph, corpus_samples, fit, GracefulModel, TrainConfig};
use graceful_card::{ActualCard, CardEstimator};
use graceful_common::{GracefulError, Result};
use graceful_gbdt::{Gbdt, GbdtConfig};
use graceful_nn::TypedGraph;
use graceful_plan::{Plan, QuerySpec};
use graceful_runtime::Pool;
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

/// Train a GNN of GRACEFUL's architecture (built with `featurizer`, width
/// `hidden` and initialisation seed `seed`) through the one training loop,
/// on the samples `sample` yields per query (see `corpus_samples`), with
/// the `TrainConfig` defaults and the shuffle stream `seed ^ 0xBA5E`.
fn train_split<F>(
    corpora: &[&DatasetCorpus],
    featurizer: Featurizer,
    epochs: usize,
    hidden: usize,
    seed: u64,
    sample: F,
) -> Result<GracefulModel>
where
    F: Fn(&Database, &LabeledQuery, &ActualCard) -> Result<Option<(TypedGraph, f64)>> + Sync,
{
    let cfg = TrainConfig { epochs, seed, ..TrainConfig::default() };
    cfg.validate()?;
    let mut model = GracefulModel::new(featurizer, hidden, seed)?;
    let pool = Pool::new(cfg.threads);
    let samples = corpus_samples(&pool, corpora, sample)?;
    fit(model.gnn_mut(), &pool, &samples, &cfg, seed ^ 0xBA5E)?;
    Ok(model)
}

/// The query side both baselines share: GRACEFUL's query graph with the UDF
/// reduced to a black box (ablation level 1), trained on query-only
/// runtimes (total minus UDF work).
fn train_query_side(
    corpora: &[&DatasetCorpus],
    epochs: usize,
    hidden: usize,
    seed: u64,
) -> Result<GracefulModel> {
    let fz = Featurizer::level(1)?;
    train_split(corpora, fz, epochs, hidden, seed, |db, q, est| {
        let query_only = (q.runtime_ns - q.udf_work_ns).max(1.0);
        Ok(Some((actual_graph(fz, db, q, est)?, query_only)))
    })
}

/// The plan's UDF and the estimated rows into its operator, when the query
/// has both.
fn udf_input<'a>(spec: &'a QuerySpec, plan: &Plan) -> Option<(&'a GeneratedUdf, f64)> {
    let child = *plan.ops.get(plan.udf_op()?)?.children.first()?;
    Some((spec.udf.as_ref()?, plan.ops.get(child)?.est_out_rows))
}

/// Flat+Graph baseline.
#[derive(Debug, Clone)]
pub struct FlatGraphBaseline {
    /// Predicts `ln(per-tuple UDF cost)` from flat features.
    gbdt: Gbdt,
    query_side: GracefulModel,
}

impl FlatGraphBaseline {
    pub fn train(
        corpora: &[&DatasetCorpus],
        epochs: usize,
        hidden: usize,
        seed: u64,
    ) -> Result<Self> {
        let queries = corpora.iter().flat_map(|c| &c.queries);
        let (xs, ys): (Vec<_>, Vec<_>) = queries
            .filter_map(|q| {
                let u = q.spec.udf.as_ref().filter(|_| q.udf_input_rows > 0)?;
                let per_tuple = (q.udf_work_ns / q.udf_input_rows as f64).max(1e-3);
                Some((flat_features(u, q.udf_input_rows as f64), per_tuple.ln()))
            })
            .unzip();
        if xs.is_empty() {
            return Err(GracefulError::Model("no UDF samples for FlatVector".into()));
        }
        let gbdt = Gbdt::fit(&xs, &ys, GbdtConfig { seed, ..GbdtConfig::default() })?;
        let query_side = train_query_side(corpora, epochs, hidden, seed)?;
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
        let udf = udf_input(spec, plan).map_or(0.0, |(u, rows)| self.predict_udf(u, rows));
        Ok(query + udf)
    }
}

/// Graph+Graph baseline: GRACEFUL's UDF subgraph as a standalone estimator.
#[derive(Debug, Clone)]
pub struct GraphGraphBaseline {
    udf_side: GracefulModel,
    query_side: GracefulModel,
}

impl GraphGraphBaseline {
    pub fn train(
        corpora: &[&DatasetCorpus],
        epochs: usize,
        hidden: usize,
        seed: u64,
    ) -> Result<Self> {
        let fz = Featurizer::full();
        let udf_side = train_split(corpora, fz, epochs, hidden, seed ^ 0x66, |db, q, est| {
            let Some(u) = q.spec.udf.as_ref().filter(|_| q.udf_input_rows > 0) else {
                return Ok(None);
            };
            let g = udf_graph(db, &q.spec, u, q.udf_input_rows as f64, est)?;
            Ok(Some((g, q.udf_work_ns.max(1.0))))
        })?;
        let query_side = train_query_side(corpora, epochs, hidden, seed)?;
        Ok(GraphGraphBaseline { udf_side, query_side })
    }

    pub fn predict(
        &self,
        db: &Database,
        spec: &QuerySpec,
        plan: &Plan,
        estimator: &dyn CardEstimator,
    ) -> Result<f64> {
        let query = self.query_side.predict(db, spec, plan, estimator)?;
        let udf = match udf_input(spec, plan) {
            Some((u, rows)) => {
                self.udf_side.predict_graph(&udf_graph(db, spec, u, rows, estimator)?)?
            }
            None => 0.0,
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
