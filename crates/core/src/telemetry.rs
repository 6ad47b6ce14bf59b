//! Model-aware execution telemetry and the flight-record → training-label
//! on-ramp.
//!
//! `graceful-exec`'s [`analyze`](graceful_exec::analyze) layer scores the
//! *per-operator* estimates it can see (cardinality annotations, the
//! closed-form cost prior). This module adds the half only the model layer
//! can provide:
//!
//! * [`run_with_model`] — predict a query's cost with a loaded
//!   [`GracefulModel`] *before* running it, execute it through
//!   [`Session::run_analyzed`], and score the prediction: it rides along
//!   inside the query's one [`FlightRecord`] (`model_pred_ns` / `model_q`) —
//!   the record returned and, when the flight recorder is enabled, the one
//!   appended — and its q-error lands in the registry histogram
//!   `est.cost.qerror.query`.
//! * [`labels_from_flight`] — the online-learning on-ramp: convert recorded
//!   flight records back into fresh [`LabeledQuery`] rows by joining on the
//!   stable plan fingerprint, so production traffic recorded via
//!   `GRACEFUL_FLIGHT` can re-enter the training corpus.

use crate::corpus::LabeledQuery;
use crate::model::GracefulModel;
use graceful_card::CardEstimator;
use graceful_common::Result;
use graceful_exec::{QueryRun, Session};
use graceful_obs::flight::FlightRecord;
use graceful_obs::registry::histogram;
use graceful_plan::{Plan, QuerySpec};
use graceful_storage::Database;

/// A model-scored query execution: the run and its [`FlightRecord`], which
/// holds the model's whole-query prediction made *before* execution
/// (`model_pred_ns`, in nanoseconds) and its q-error against the simulated
/// truth (`model_q`). Render it with `FlightRecord::render_analyze()` for
/// `explain analyze` output.
#[derive(Debug, Clone)]
pub struct ModelRun {
    pub run: QueryRun,
    /// The predicted-vs-actual record for this run, model prediction
    /// included.
    pub record: FlightRecord,
}

/// Annotate `plan` with `estimator`, predict its cost with `model`, then
/// execute it through `session` and score the prediction.
///
/// The prediction happens strictly before execution (this is the deployment
/// scenario — the model never sees the truth it is scored against). The run
/// goes through [`Session::run_analyzed`] with the prediction, so the
/// query's record — built once, and appended when the flight recorder is
/// enabled — scores it, and its q-error is recorded into the registry
/// histogram `est.cost.qerror.query`. A failed run records nothing: no
/// prediction outlives its query.
pub fn run_with_model(
    session: &Session,
    db: &Database,
    model: &GracefulModel,
    spec: &QuerySpec,
    plan: &Plan,
    estimator: &dyn CardEstimator,
    seed: u64,
) -> Result<ModelRun> {
    let mut annotated = plan.clone();
    estimator.annotate(&mut annotated)?;
    let predicted_ns = model.predict(db, spec, &annotated, estimator)?;
    let (run, record) = session.run_analyzed(db, &annotated, seed, Some(predicted_ns))?;
    if let Some(q) = record.model_q {
        histogram("est.cost.qerror.query").record(q);
    }
    Ok(ModelRun { run, record })
}

/// Convert flight records back into labelled training rows by joining on
/// the stable plan fingerprint: each record whose `plan` matches a catalog
/// entry yields a fresh [`LabeledQuery`] with the *recorded* runtime,
/// cardinalities and UDF volume as labels. Records with no catalog match
/// (or a stale catalog whose plan shape drifted) are skipped — the
/// fingerprint covers the full plan structure, so a match guarantees the
/// per-op arrays line up.
///
/// This is the ROADMAP's "feed measured work back as fresh training labels"
/// on-ramp: run production queries under `GRACEFUL_FLIGHT`, parse the JSONL
/// with `flight::parse_jsonl`, and append the result of this function to
/// the training corpus.
pub fn labels_from_flight(catalog: &[LabeledQuery], records: &[FlightRecord]) -> Vec<LabeledQuery> {
    let fingerprints: Vec<String> = catalog.iter().map(|q| q.plan.fingerprint_hex()).collect();
    let mut out = Vec::new();
    for rec in records {
        let Some(pos) = fingerprints.iter().position(|fp| *fp == rec.plan) else {
            continue;
        };
        let template = &catalog[pos];
        if rec.ops.len() != template.plan.ops.len() {
            continue;
        }
        let mut labelled = template.clone();
        labelled.runtime_ns = rec.runtime_ns;
        labelled.udf_input_rows = rec.udf_rows as usize;
        labelled.udf_work_ns =
            rec.ops.iter().filter(|o| o.kind.starts_with("UDF")).map(|o| o.work).sum();
        for (op, recorded) in labelled.plan.ops.iter_mut().zip(rec.ops.iter()) {
            op.actual_out_rows = recorded.rows as f64;
        }
        out.push(labelled);
    }
    out
}
