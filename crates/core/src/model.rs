//! The GRACEFUL model: training and zero-shot inference.
//!
//! Training follows the paper's setup (Section VI): the model sees the
//! labelled workloads of the training databases — with **actual** cardinality
//! annotations, since ground-truth labels imply executed plans — and learns
//! to map joint query–UDF graphs to log runtimes. At test time the plan can
//! be annotated by *any* cardinality estimator, which is how Table III
//! evaluates robustness to estimation errors.
//!
//! # The training pipeline
//!
//! [`GracefulModel::train`] is a two-stage pipeline, both stages fast and
//! deterministic:
//!
//! 1. **Parallel featurization** — every `(query, plan)` pair of the corpus
//!    is annotated with actual cardinalities and featurized into a
//!    [`TypedGraph`] on the [`graceful_runtime::Pool`] ([`TrainConfig`]'s
//!    `threads` budget, `GRACEFUL_THREADS` via
//!    [`TrainOptions::build_with_env`]). Results merge in item order, so the
//!    sample list — and therefore the whole training run — is bit-identical
//!    for any thread count.
//! 2. **Batched mini-batch SGD** — each shuffled mini-batch is one step of
//!    the level-synchronous GNN engine ([`GnnModel::train_batch`]) on the
//!    same pool: its graphs run as shards of eight consecutive graphs (pack,
//!    forward and backward per shard, then one job per parameter-gradient
//!    product), with the loss, the readout and Adam on the caller. Every
//!    cross-graph sum keeps the reference's order, so the step's bits do not
//!    depend on the thread count either.
//!
//! Estimates ([`GracefulModel::predict`], [`GracefulModel::predict_graph`],
//! [`GracefulModel::predict_graphs`]) run on the same engine, a single graph
//! as a batch of one and a batch of graphs as the training step's shards of
//! eight consecutive graphs, one after the other, so a batched estimate
//! holds one shard's stashes at a time, not the whole batch's. The
//! node-at-a-time tape reference is the bit-identical differential oracle,
//! not a mode: no option trains on it. The differential suites step it
//! themselves, through [`GracefulModel::gnn_mut`] and
//! [`GnnModel::train_batch_reference`].
//!
//! Configuration mirrors the engine's `Session`/`ExecOptions` pattern:
//! [`TrainOptions`] is the validating builder, [`TrainConfig`] the validated
//! value, and zero `epochs`/`batch_size`/`threads` are typed
//! [`GracefulError::Config`] errors rather than panics.

use crate::corpus::DatasetCorpus;
use crate::featurize::{feature_dims, Featurizer};
use graceful_card::{ActualCard, CardEstimator};
use graceful_common::config;
use graceful_common::rng::Rng;
use graceful_common::{GracefulError, Result};
use graceful_nn::{AdamConfig, GnnConfig, GnnModel, TypedGraph};
use graceful_obs::registry::{counter, gauge, histogram, Counter, Gauge, Histogram};
use graceful_obs::trace;
use graceful_plan::{Plan, QuerySpec};
use graceful_runtime::Pool;
use graceful_storage::Database;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use std::time::Instant;

/// Serialized-model format version (bumped on any layout change so stale
/// files fail with a typed error instead of garbage predictions).
pub const MODEL_FORMAT_VERSION: u32 = 1;

/// Training hyper-parameters (validated; build via [`TrainOptions`] or use
/// [`TrainConfig::default`], which is valid by construction).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub adam: AdamConfig,
    /// Huber delta in normalized log-target units.
    pub huber_delta: f32,
    pub seed: u64,
    /// Worker threads for featurization and for the shards of every training
    /// step (never changes results, only wall-clock time).
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 24,
            batch_size: 16,
            adam: AdamConfig { lr: 2e-3, ..AdamConfig::default() },
            huber_delta: 1.0,
            seed: 20_250_331,
            threads: config::default_threads(),
        }
    }
}

impl TrainConfig {
    /// Validate the configuration: zero `epochs`/`batch_size`/`threads`,
    /// non-finite or non-positive `huber_delta`/learning rates/Adam `eps`,
    /// Adam betas outside `[0, 1)` and a negative or non-finite `clip_norm`
    /// are typed [`GracefulError::Config`] errors (matching `ExecOptions`
    /// semantics): Adam divides by `1 - beta^t` and `sqrt(v) + eps`.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(GracefulError::Config("epochs must be >= 1, got 0".into()));
        }
        if self.batch_size == 0 {
            return Err(GracefulError::Config("batch_size must be >= 1, got 0".into()));
        }
        if self.threads == 0 {
            return Err(GracefulError::Config("threads must be >= 1, got 0".into()));
        }
        if !(self.huber_delta.is_finite() && self.huber_delta > 0.0) {
            return Err(GracefulError::Config(format!(
                "huber_delta must be finite and > 0, got {}",
                self.huber_delta
            )));
        }
        let adam = &self.adam;
        if !(adam.lr.is_finite() && adam.lr > 0.0) {
            return Err(GracefulError::Config(format!(
                "learning rate must be finite and > 0, got {}",
                adam.lr
            )));
        }
        for (name, beta) in [("beta1", adam.beta1), ("beta2", adam.beta2)] {
            if !(0.0..1.0).contains(&beta) {
                return Err(GracefulError::Config(format!(
                    "Adam {name} must be in [0, 1), got {beta}"
                )));
            }
        }
        if !(adam.eps.is_finite() && adam.eps > 0.0) {
            return Err(GracefulError::Config(format!(
                "Adam eps must be finite and > 0, got {}",
                adam.eps
            )));
        }
        if !(adam.clip_norm.is_finite() && adam.clip_norm >= 0.0) {
            return Err(GracefulError::Config(format!(
                "clip_norm must be finite and >= 0, got {}",
                adam.clip_norm
            )));
        }
        Ok(())
    }
}

/// Builder for [`TrainConfig`], mirroring the engine's `ExecOptions`
/// pattern: unset fields fall back to the pure [`TrainConfig::default`]
/// ([`TrainOptions::build`]) or to the documented `GRACEFUL_*` environment
/// defaults ([`TrainOptions::build_with_env`], which resolves
/// `GRACEFUL_THREADS`/`GRACEFUL_EPOCHS`/`GRACEFUL_SEED`). Every terminal
/// method validates, so misconfiguration is a typed error, never a panic.
///
/// ```
/// use graceful_core::model::TrainOptions;
///
/// let cfg = TrainOptions::new()
///     .epochs(8)
///     .batch_size(32)
///     .learning_rate(1e-3)
///     .threads(2)
///     .build()
///     .expect("valid options");
/// assert_eq!(cfg.batch_size, 32);
/// assert!(TrainOptions::new().epochs(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrainOptions {
    epochs: Option<usize>,
    batch_size: Option<usize>,
    adam: Option<AdamConfig>,
    learning_rate: Option<f32>,
    huber_delta: Option<f32>,
    seed: Option<u64>,
    threads: Option<usize>,
}

impl TrainOptions {
    pub fn new() -> Self {
        TrainOptions::default()
    }

    /// Number of passes over the shuffled training set.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = Some(epochs);
        self
    }

    /// Graphs per training step (the mini-batch the batched engine packs).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size);
        self
    }

    /// Full Adam configuration (overrides [`TrainOptions::learning_rate`]).
    pub fn adam(mut self, adam: AdamConfig) -> Self {
        self.adam = Some(adam);
        self
    }

    /// Adam learning rate (keeps the remaining Adam defaults).
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = Some(lr);
        self
    }

    /// Huber delta in normalized log-target units.
    pub fn huber_delta(mut self, delta: f32) -> Self {
        self.huber_delta = Some(delta);
        self
    }

    /// Shuffling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Worker threads for featurization and training steps (never changes
    /// results).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    fn over(self, defaults: TrainConfig) -> TrainConfig {
        let mut adam = self.adam.unwrap_or(defaults.adam);
        if self.adam.is_none() {
            if let Some(lr) = self.learning_rate {
                adam.lr = lr;
            }
        }
        TrainConfig {
            epochs: self.epochs.unwrap_or(defaults.epochs),
            batch_size: self.batch_size.unwrap_or(defaults.batch_size),
            adam,
            huber_delta: self.huber_delta.unwrap_or(defaults.huber_delta),
            seed: self.seed.unwrap_or(defaults.seed),
            threads: self.threads.unwrap_or(defaults.threads),
        }
    }

    /// Validate and build over the pure [`TrainConfig::default`] — fully
    /// environment-free.
    pub fn build(self) -> Result<TrainConfig> {
        let cfg = self.over(TrainConfig::default());
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validate and build with unset fields falling back to the documented
    /// `GRACEFUL_*` environment defaults (`GRACEFUL_THREADS`,
    /// `GRACEFUL_EPOCHS`, `GRACEFUL_SEED`). An invalid value of any scale
    /// knob, or a set variable that is no longer a knob
    /// (`config::try_removed_knobs_unset`), is a typed
    /// [`GracefulError::Config`].
    pub fn build_with_env(self) -> Result<TrainConfig> {
        let bad = GracefulError::Config;
        config::try_removed_knobs_unset().map_err(bad)?;
        let scale = config::ScaleConfig::try_from_env().map_err(bad)?;
        let defaults = TrainConfig {
            epochs: scale.epochs,
            seed: scale.seed,
            threads: config::try_threads_from_env().map_err(bad)?,
            ..TrainConfig::default()
        };
        let cfg = self.over(defaults);
        cfg.validate()?;
        Ok(cfg)
    }
}

/// The learned cost estimator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GracefulModel {
    gnn: GnnModel,
    featurizer_level: u8,
}

/// The on-disk envelope: a format version wrapping the model payload.
#[derive(Serialize, Deserialize)]
struct ModelEnvelope {
    format_version: u32,
    model: GracefulModel,
}

impl GracefulModel {
    /// Create an untrained model. A zero `hidden` width is a typed
    /// [`GracefulError::Config`].
    pub fn new(featurizer: Featurizer, hidden: usize, seed: u64) -> Result<Self> {
        let config = GnnConfig { hidden, feature_dims: feature_dims(), readout_hidden: hidden };
        Ok(GracefulModel { gnn: GnnModel::new(config, seed)?, featurizer_level: featurizer.level })
    }

    /// The featurizer this model was built (or loaded and checked) with.
    pub fn featurizer(&self) -> Featurizer {
        Featurizer { level: self.featurizer_level }
    }

    /// Featurize one labelled/annotated query.
    pub fn graph_for(
        &self,
        db: &Database,
        spec: &QuerySpec,
        plan: &Plan,
        estimator: &dyn CardEstimator,
    ) -> Result<TypedGraph> {
        self.featurizer().featurize(db, spec, plan, estimator)
    }

    /// Featurize a whole training corpus set — per-query [`ActualCard`]
    /// annotation plus featurization, fanned out on the pool with results
    /// merged in item order (bit-identical for any thread count). Sample
    /// order is corpus-major, matching a sequential double loop.
    pub fn featurize_corpora(
        &self,
        pool: &Pool,
        corpora: &[&DatasetCorpus],
    ) -> Result<Vec<(TypedGraph, f64)>> {
        let items: Vec<(usize, usize)> = corpora
            .iter()
            .enumerate()
            .flat_map(|(ci, c)| (0..c.queries.len()).map(move |qi| (ci, qi)))
            .collect();
        let featurizer = self.featurizer();
        let labelled = pool.ordered_map(&items, |_, &(ci, qi)| {
            let c = corpora[ci];
            let q = &c.queries[qi];
            let est = ActualCard::new(&c.db);
            let mut plan = q.plan.clone();
            est.annotate(&mut plan)?;
            let g = featurizer.featurize(&c.db, &q.spec, &plan, &est)?;
            Ok((g, q.runtime_ns))
        });
        labelled.into_iter().collect()
    }

    /// Train on a set of corpora (the 19 training databases of a fold).
    ///
    /// Returns the per-epoch mean training losses. The run is deterministic
    /// in `cfg.seed` and independent of `cfg.threads`. The trained model
    /// keeps its parameters only: the optimizer state is freed on return, so
    /// a later `train` restarts Adam from zero moments, as a loaded model does.
    ///
    /// Observability (write-only, never on the result path): spans
    /// `train/train` → `train/featurize` → `train/epoch` → `train/step`,
    /// plus the registry metrics `train.epochs`, `train.samples`,
    /// `train.epoch_loss` and the `train.rows_per_s` histogram.
    pub fn train(&mut self, corpora: &[&DatasetCorpus], cfg: &TrainConfig) -> Result<Vec<f32>> {
        struct TrainMetrics {
            epochs: Counter,
            samples: Counter,
            epoch_loss: Gauge,
            rows_per_s: Histogram,
        }
        static METRICS: OnceLock<TrainMetrics> = OnceLock::new();
        let m = METRICS.get_or_init(|| TrainMetrics {
            epochs: counter("train.epochs"),
            samples: counter("train.samples"),
            epoch_loss: gauge("train.epoch_loss"),
            rows_per_s: histogram("train.rows_per_s"),
        });
        cfg.validate()?;
        let _train_span =
            trace::span("train", "train").arg("corpora", corpora.len()).arg("epochs", cfg.epochs);
        // Pre-featurize the whole training set once (actual cardinalities),
        // in parallel on the configured thread budget; every step's shards
        // run on the same pool.
        let pool = Pool::new(cfg.threads);
        let samples = {
            let _span = trace::span("train", "featurize");
            self.featurize_corpora(&pool, corpora)?
        };
        if samples.is_empty() {
            return Err(GracefulError::Model("no training samples".into()));
        }
        m.samples.add(samples.len() as u64);
        let targets: Vec<f64> = samples.iter().map(|(_, t)| *t).collect();
        self.gnn.fit_target_norm(&targets)?;
        let mut rng = Rng::seed(cfg.seed ^ 0x7EA1);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut losses = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            let _epoch_span = trace::span("train", "epoch").arg("epoch", epoch);
            let epoch_started = Instant::now();
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch_size) {
                let _step_span = trace::span("train", "step").arg("rows", chunk.len());
                let graphs: Vec<&TypedGraph> = chunk.iter().map(|&i| &samples[i].0).collect();
                let ts: Vec<f64> = chunk.iter().map(|&i| samples[i].1).collect();
                epoch_loss +=
                    self.gnn.train_batch(&pool, &graphs, &ts, &cfg.adam, cfg.huber_delta)?;
                batches += 1;
            }
            let mean = epoch_loss / batches.max(1) as f32;
            losses.push(mean);
            m.epochs.incr();
            m.epoch_loss.set(mean as f64);
            let secs = epoch_started.elapsed().as_secs_f64();
            if secs > 0.0 {
                m.rows_per_s.record(samples.len() as f64 / secs);
            }
        }
        self.gnn.release_optimizer_state();
        Ok(losses)
    }

    /// Predict the runtime (ns) for an annotated plan.
    pub fn predict(
        &self,
        db: &Database,
        spec: &QuerySpec,
        plan: &Plan,
        estimator: &dyn CardEstimator,
    ) -> Result<f64> {
        let g = self.graph_for(db, spec, plan, estimator)?;
        self.gnn.predict(&g)
    }

    /// Predict from a pre-built graph.
    pub fn predict_graph(&self, g: &TypedGraph) -> Result<f64> {
        self.gnn.predict(g)
    }

    /// Predict a batch of pre-built graphs, shard by shard through the
    /// level-synchronous pass, in memory bounded by one shard
    /// (bit-identical to per-graph [`GracefulModel::predict_graph`]).
    pub fn predict_graphs(&self, graphs: &[&TypedGraph]) -> Result<Vec<f64>> {
        self.gnn.predict_batch(graphs)
    }

    /// Borrow the underlying GNN.
    pub fn gnn(&self) -> &GnnModel {
        &self.gnn
    }

    /// Mutable access to the underlying GNN (direct per-step training in
    /// the differential suites and experiments).
    pub fn gnn_mut(&mut self) -> &mut GnnModel {
        &mut self.gnn
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.gnn.param_count()
    }

    /// FNV-1a digest over every trained parameter's bit pattern (for
    /// determinism assertions).
    pub fn param_checksum(&self) -> u64 {
        self.gnn.param_checksum()
    }

    /// Serialize to versioned JSON (see [`MODEL_FORMAT_VERSION`]).
    pub fn to_json(&self) -> String {
        let envelope = ModelEnvelope { format_version: MODEL_FORMAT_VERSION, model: self.clone() };
        serde_json::to_string(&envelope).expect("model serializes")
    }

    /// Deserialize from JSON (rebuilds optimizer buffers). A missing or
    /// mismatched format version, or a payload that is not a consistent
    /// model (a tensor whose shape and data disagree, a layer pointing at a
    /// missing or mis-shaped parameter, unusable target normalization, a
    /// featurizer level that does not exist), is a typed [`GracefulError::Model`] —
    /// never a panic on first use.
    pub fn from_json(json: &str) -> Result<Self> {
        let envelope: ModelEnvelope = serde_json::from_str(json).map_err(|e| {
            GracefulError::Model(format!(
                "model load failed (expected format_version {MODEL_FORMAT_VERSION}): {e}"
            ))
        })?;
        if envelope.format_version != MODEL_FORMAT_VERSION {
            return Err(GracefulError::Model(format!(
                "unsupported model format version {} (this build reads version \
                 {MODEL_FORMAT_VERSION})",
                envelope.format_version
            )));
        }
        let mut m = envelope.model;
        if !Featurizer::LEVELS.contains(&m.featurizer_level) {
            return Err(GracefulError::Model(format!(
                "corrupt model: featurizer level {} is outside {:?}",
                m.featurizer_level,
                Featurizer::LEVELS
            )));
        }
        m.gnn.rebuild_after_load()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_common::config::ScaleConfig;
    use graceful_common::metrics::QErrorSummary;

    #[test]
    fn trains_and_predicts_in_sane_range() {
        let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 16, ..ScaleConfig::default() };
        let train = crate::corpus::env_corpus("tpc_h", &cfg, 1);
        let test = crate::corpus::env_corpus("ssb", &cfg, 2);
        let mut model = GracefulModel::new(Featurizer::full(), 16, 3).unwrap();
        let tcfg = TrainOptions::new().epochs(10).build().unwrap();
        let losses = model.train(&[&train], &tcfg).unwrap();
        assert!(losses.last().unwrap() < losses.first().unwrap(), "loss should decrease");
        // Zero-shot predictions on the unseen database: within a couple of
        // orders of magnitude even with this tiny training set.
        let est = ActualCard::new(&test.db);
        let mut pairs = Vec::new();
        for q in &test.queries {
            let mut plan = q.plan.clone();
            est.annotate(&mut plan).unwrap();
            let pred = model.predict(&test.db, &q.spec, &plan, &est).unwrap();
            assert!(pred.is_finite() && pred > 0.0);
            pairs.push((pred, q.runtime_ns));
        }
        let summary = QErrorSummary::from_pairs(&pairs);
        assert!(summary.median < 50.0, "tiny-scale sanity bound: {summary}");
    }

    #[test]
    fn model_round_trips_through_json() {
        let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 8, ..ScaleConfig::default() };
        let c = crate::corpus::env_corpus("imdb", &cfg, 4);
        let mut model = GracefulModel::new(Featurizer::full(), 8, 5).unwrap();
        let tcfg = TrainOptions::new().epochs(2).build().unwrap();
        model.train(&[&c], &tcfg).unwrap();
        let loaded = GracefulModel::from_json(&model.to_json()).unwrap();
        // Parameters and predictions are bit-identical after the round trip
        // (rebuild_after_load restores fresh optimizer buffers).
        assert_eq!(model.param_checksum(), loaded.param_checksum());
        let est = ActualCard::new(&c.db);
        let q = &c.queries[0];
        let mut plan = q.plan.clone();
        est.annotate(&mut plan).unwrap();
        let a = model.predict(&c.db, &q.spec, &plan, &est).unwrap();
        let b = loaded.predict(&c.db, &q.spec, &plan, &est).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        // The rebuilt optimizer state trains onward without error and the
        // models stay in lockstep (fresh Adam buffers on both sides).
        let mut fresh = GracefulModel::from_json(&loaded.to_json()).unwrap();
        let losses = fresh.train(&[&c], &TrainOptions::new().epochs(1).build().unwrap()).unwrap();
        assert!(losses[0].is_finite());
    }

    /// A corpus with an infinite runtime label fails to train with a typed
    /// error naming the label, instead of fitting `target_mean = inf` and
    /// training a model that predicts NaN and cannot be saved.
    #[test]
    fn training_on_a_non_finite_label_is_a_typed_error() {
        let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 4, ..ScaleConfig::default() };
        let mut c = crate::corpus::env_corpus("tpc_h", &cfg, 6);
        c.queries[1].runtime_ns = f64::INFINITY;
        let mut model = GracefulModel::new(Featurizer::full(), 8, 5).unwrap();
        match model.train(&[&c], &TrainOptions::new().epochs(1).build().unwrap()) {
            Err(GracefulError::Model(m)) => assert!(m.contains("label 1 is inf"), "{m}"),
            other => panic!("expected a typed Model error, got {other:?}"),
        }
    }

    #[test]
    fn from_json_rejects_wrong_or_missing_version() {
        let model = GracefulModel::new(Featurizer::full(), 8, 5).unwrap();
        let good = model.to_json();
        assert!(good.contains("\"format_version\""));
        // Wrong version number.
        let bad = good.replace(
            &format!("\"format_version\":{MODEL_FORMAT_VERSION}"),
            "\"format_version\":999",
        );
        match GracefulModel::from_json(&bad) {
            Err(GracefulError::Model(m)) => assert!(m.contains("999"), "message: {m}"),
            other => panic!("expected version error, got {other:?}"),
        }
        // Pre-versioning payload (no envelope at all).
        match GracefulModel::from_json("{\"gnn\":{},\"featurizer_level\":5}") {
            Err(GracefulError::Model(m)) => {
                assert!(m.contains("format_version"), "message: {m}")
            }
            other => panic!("expected load error, got {other:?}"),
        }
    }

    /// A file that parses but is not a consistent model is a typed error at
    /// load, naming what is wrong — not a `matmul` shape panic on the first
    /// estimate, and not an allocation of whatever size the file declares.
    #[test]
    fn from_json_rejects_corrupt_models() {
        let good = GracefulModel::new(Featurizer::full(), 8, 5).unwrap().to_json();
        // The first stored tensor: encoder 0's weight, `feature_dims[0]`×hidden.
        let first = "{\"rows\":2,\"cols\":8,\"data\":[";
        let at = good.find(first).expect("the first tensor is where it is expected");
        let cut = |from: usize, through: &str| {
            let end = from + good[from..].find(through).unwrap() + through.len();
            format!("{}{}", &good[..from], &good[end..])
        };
        let cases = [
            ("rows edited", good.replacen("\"rows\":2,", "\"rows\":3,", 1), "parameter 0"),
            (
                "rows = 2^60",
                good.replacen("\"rows\":2,", "\"rows\":1152921504606846976,", 1),
                "parameter 0",
            ),
            ("data truncated", cut(at + first.len(), ","), "parameter 0 declares 2x8 but holds 15"),
            ("a tensor dropped", cut(at, "},"), "parameter 0"),
            (
                "a ParamId out of range",
                good.replacen("\"w\":0,", "\"w\":4096,", 1),
                "parameter 4096",
            ),
            ("target_std = 0", good.replace("\"target_std\":1.0", "\"target_std\":0.0"), "std 0"),
            ("target_std < 0", good.replace("\"target_std\":1.0", "\"target_std\":-1.0"), "std -1"),
            // What a NaN serializes to (JSON has no NaN).
            ("target_std = NaN", good.replace("\"target_std\":1.0", "\"target_std\":null"), ""),
            (
                "an encoder dropped",
                cut(good.find("\"encoders\":[").unwrap() + 12, "]},"),
                "12 encoders",
            ),
            (
                "level 0",
                good.replace("\"featurizer_level\":5", "\"featurizer_level\":0"),
                "level 0",
            ),
            (
                "level 9",
                good.replace("\"featurizer_level\":5", "\"featurizer_level\":9"),
                "level 9",
            ),
        ];
        for (what, json, names) in cases {
            assert_ne!(json, good, "{what}: the mutation applied");
            match GracefulModel::from_json(&json) {
                Err(GracefulError::Model(m)) => assert!(m.contains(names), "{what}: {m}"),
                other => panic!("{what}: expected a typed Model error, got {other:?}"),
            }
        }
    }

    #[test]
    fn train_options_validate_like_exec_options() {
        for (opts, what) in [
            (TrainOptions::new().epochs(0), "epochs"),
            (TrainOptions::new().batch_size(0), "batch_size"),
            (TrainOptions::new().threads(0), "threads"),
        ] {
            match opts.build() {
                Err(GracefulError::Config(m)) => {
                    assert!(m.contains(what), "message {m:?} names {what}")
                }
                other => panic!("{what}=0 produced {other:?}"),
            }
        }
        assert!(matches!(
            TrainOptions::new().huber_delta(f32::NAN).build(),
            Err(GracefulError::Config(_))
        ));
        assert!(matches!(
            TrainOptions::new().learning_rate(0.0).build(),
            Err(GracefulError::Config(_))
        ));
        // Adam settings whose first step would write NaN parameters (or
        // never move any) are rejected before training, each by name.
        let adam = |set: fn(&mut AdamConfig)| {
            let mut adam = AdamConfig::default();
            set(&mut adam);
            TrainOptions::new().adam(adam)
        };
        for (opts, what) in [
            (adam(|a| a.eps = 0.0), "eps"),
            (adam(|a| a.eps = f32::NAN), "eps"),
            (adam(|a| a.eps = f32::INFINITY), "eps"),
            (adam(|a| a.beta1 = 1.0), "beta1"),
            (adam(|a| a.beta1 = -0.1), "beta1"),
            (adam(|a| a.beta2 = 1.5), "beta2"),
            (adam(|a| a.beta2 = f32::NAN), "beta2"),
            (adam(|a| a.clip_norm = -1.0), "clip_norm"),
            (adam(|a| a.clip_norm = f32::INFINITY), "clip_norm"),
        ] {
            match opts.build() {
                Err(GracefulError::Config(m)) => assert!(m.contains(what), "{m:?} names {what}"),
                other => panic!("a bad {what} produced {other:?}"),
            }
        }
        let (zero_beta, no_clip) = (adam(|a| a.beta1 = 0.0), adam(|a| a.clip_norm = 0.0));
        assert!(zero_beta.build().is_ok() && no_clip.build().is_ok());
        // Zero hidden width is rejected at model construction.
        assert!(matches!(
            GracefulModel::new(Featurizer::full(), 0, 1),
            Err(GracefulError::Config(_))
        ));
        // The builder composes like ExecOptions.
        let cfg = TrainOptions::new()
            .epochs(3)
            .batch_size(4)
            .learning_rate(1e-2)
            .huber_delta(0.5)
            .seed(42)
            .threads(2)
            .build()
            .unwrap();
        assert_eq!(cfg.epochs, 3);
        assert_eq!(cfg.batch_size, 4);
        assert_eq!(cfg.adam.lr, 1e-2);
        assert_eq!(cfg.huber_delta, 0.5);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.threads, 2);
    }
}
