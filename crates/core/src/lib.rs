//! GRACEFUL — a learned cost estimator for UDFs.
//!
//! This crate assembles the paper's contribution from the substrate crates:
//!
//! * [`featurize`] — the joint query–UDF graph (Section III): query-plan
//!   operator nodes annotated with cardinalities, the transformed UDF DAG
//!   with Table I features and hit-ratio row annotations, data-flow edges
//!   between column nodes and the UDF, the `on-udf` filter flag, and the
//!   ablation levels of Figure 7,
//! * [`corpus`] — the benchmark builder of Section V: 20 databases ×
//!   generated SPJA+UDF queries × recorded ground-truth runtimes (Table II),
//! * [`model`] — the GRACEFUL estimator: train on 19 databases, predict
//!   zero-shot on the 20th,
//! * [`baselines`] — the Flat+Graph (FlatVector/XGBoost-style) and
//!   Graph+Graph split baselines of Exp 1/3,
//! * [`advisor`] — the pull-up/push-down advisor of Section IV: selectivity
//!   enumeration, cost distributions, and the UBC / AuC / Conservative
//!   decision strategies,
//! * [`experiments`] — shared leave-one-out harness used by the bench
//!   targets that regenerate each table/figure,
//! * [`telemetry`] — model-aware execution (predict → run → q-error into
//!   the metrics registry and flight recorder) and the flight-record →
//!   training-label on-ramp.
//!
//! # Quickstart
//!
//! ```no_run
//! use graceful_common::config::ScaleConfig;
//! use graceful_core::corpus::build_all_corpora_in;
//! use graceful_core::experiments::train_graceful;
//! use graceful_core::featurize::Featurizer;
//! use graceful_exec::Session;
//!
//! # fn main() -> graceful_common::Result<()> {
//! let session = Session::from_env()?; // the documented GRACEFUL_* defaults
//! let cfg = ScaleConfig { queries_per_db: 30, ..ScaleConfig::default() };
//! let corpora = build_all_corpora_in(&session, &cfg);
//! // Train on all but the last database, predict on the held-out one.
//! let (test, train) = corpora.split_last().expect("20 corpora");
//! let model = train_graceful(&session, train, &cfg, Featurizer::full())?;
//! let q_errors = graceful_core::experiments::evaluate_actual(&model, test);
//! println!("median Q-error: {}", q_errors.median);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod advisor;
pub mod baselines;
pub mod corpus;
pub mod experiments;
pub mod featurize;
pub mod model;
pub mod telemetry;

pub use advisor::{AdvisorDecision, PullUpAdvisor, Strategy};
pub use corpus::{build_all_corpora_in, build_corpus_in, DatasetCorpus, LabeledQuery};
pub use featurize::Featurizer;
pub use model::GracefulModel;
pub use telemetry::{labels_from_flight, run_with_model, ModelRun};
