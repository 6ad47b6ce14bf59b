//! # GRACEFUL — A Learned Cost Estimator for UDFs (reproduction)
//!
//! This workspace reproduces *GRACEFUL: A Learned Cost Estimator For UDFs*
//! (Wehrstein, Bang, Heinrich, Binnig — ICDE 2025) end to end in Rust,
//! including every substrate the paper depends on: a columnar storage engine
//! with statistics, a Python-like scalar UDF language and interpreter, the
//! transformed control-flow-graph representation, a cardinality-estimator
//! ladder, a from-scratch GNN stack, gradient-boosted trees, the benchmark
//! generator, the learned cost model, and the pull-up/push-down advisor.
//!
//! This crate is the facade: it re-exports the workspace crates under short
//! module names and hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`).
//!
//! The engine is configured programmatically through [`Session`] /
//! [`ExecOptions`] (re-exported in the [`prelude`]); `GRACEFUL_*`
//! environment variables are only documented defaults, applied by
//! [`Session::from_env`]:
//!
//! ```
//! use graceful::prelude::*;
//!
//! // An env-free, fully programmatic engine session.
//! let session = ExecOptions::new()
//!     .udf_batch_size(512)
//!     .threads(2)
//!     .build()
//!     .expect("valid options");
//! let db = generate(&schema("tpc_h"), 0.02, 7);
//! let spec = QueryGenerator::default()
//!     .generate(&db, 1, &mut Rng::seed(1))
//!     .expect("query generated");
//! # let mut db = db;
//! # if let Some(u) = &spec.udf {
//! #     graceful::udf::generator::apply_adaptations(&mut db, &u.adaptations).unwrap();
//! # }
//! let plan = build_plan(&spec, UdfPlacement::PushDown).expect("plan built");
//! let run = session.run(&db, &plan, spec.id).expect("plan executes");
//! assert!(run.runtime_ns > 0.0);
//! // The oracle, reached by name: every execution shortcut off, same bits.
//! let oracle = session.run_reference(&db, &plan, spec.id).expect("plan executes");
//! assert_eq!(run.runtime_ns.to_bits(), oracle.runtime_ns.to_bits());
//! ```
//!
//! ```no_run
//! use graceful::prelude::*;
//!
//! // Generate a database, build a workload, train and apply the estimator.
//! let session = Session::from_env().unwrap(); // the documented GRACEFUL_* defaults
//! let cfg = ScaleConfig { queries_per_db: 40, ..ScaleConfig::default() };
//! let corpus = build_corpus_in(&session, "imdb", &cfg, 42).unwrap();
//! let model =
//!     train_graceful(&session, std::slice::from_ref(&corpus), &cfg, Featurizer::full()).unwrap();
//! println!("{}", evaluate_actual(&model, &corpus));
//! ```

#![forbid(unsafe_code)]

pub use graceful_card as card;
pub use graceful_cfg as cfg;
pub use graceful_common as common;
pub use graceful_core as core_model;
pub use graceful_exec as exec;
pub use graceful_gbdt as gbdt;
pub use graceful_nn as nn;
pub use graceful_obs as obs;
pub use graceful_plan as plan;
pub use graceful_runtime as runtime;
pub use graceful_storage as storage;
pub use graceful_udf as udf;

pub use graceful_exec::{ExecOptions, Session};

/// Everything a downstream user typically needs.
pub mod prelude {
    pub use graceful_card::{
        ActualCard, CardEstimator, DataDrivenCard, HitRatioEstimator, NaiveCard, SamplingCard,
    };
    pub use graceful_cfg::{build_dag, DagConfig, UdfDag, UdfNodeKind};
    pub use graceful_common::config::ScaleConfig;
    pub use graceful_common::metrics::{q_error, QErrorSummary};
    pub use graceful_common::rng::Rng;
    pub use graceful_core::advisor::{PullUpAdvisor, Strategy};
    pub use graceful_core::corpus::{build_all_corpora_in, build_corpus_in, DatasetCorpus};
    pub use graceful_core::experiments::{
        cross_validate, evaluate_actual, evaluate_model, summarize, train_graceful, EstimatorKind,
    };
    pub use graceful_core::featurize::Featurizer;
    pub use graceful_core::model::{GracefulModel, TrainConfig, TrainOptions};
    pub use graceful_core::telemetry::{labels_from_flight, run_with_model, ModelRun};
    pub use graceful_exec::{ExecOptions, ExecProfile, Session};
    pub use graceful_obs::flight::{FlightOp, FlightRecord};
    pub use graceful_plan::{build_plan, QueryGenerator, QuerySpec, UdfPlacement, UdfUsage};
    pub use graceful_runtime::Pool;
    pub use graceful_storage::datagen::{generate, schema, DATASET_NAMES};
    pub use graceful_storage::{DataType, Database, Value};
    pub use graceful_udf::{compile, parse_udf, print_udf, Interpreter, UdfGenerator, Vm};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let mut rng = Rng::seed(1);
        assert!(rng.unit() < 1.0);
        assert_eq!(DATASET_NAMES.len(), 20);
        assert!(q_error(2.0, 1.0) >= 1.0);
    }
}
