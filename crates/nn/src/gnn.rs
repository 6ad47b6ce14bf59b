//! The typed topological message-passing GNN (Section III-D).
//!
//! "Each node type in our graph directly translates into a node type of the
//! GNN and a final MLP produces the cost prediction based on the embedding
//! the GNN produces." The model has three stages:
//!
//! 1. **Node encoding** — a per-type encoder MLP embeds the node's feature
//!    vector into the hidden dimension.
//! 2. **Topological message passing** — nodes are processed in topological
//!    order; each node's state is `U_t([enc(x_v), sum(h_children)])` where
//!    `U_t` is the per-type update MLP and the children are the nodes with
//!    edges *into* `v`. Because the graph is a DAG processed bottom-up, one
//!    pass aggregates the whole graph into the root (as in the zero-shot
//!    cost model line of work the paper builds on).
//! 3. **Readout** — an MLP on the root state yields the (normalized log)
//!    runtime prediction.
//!
//! Targets are trained in normalized log space with a Huber loss, which is
//! what makes the Q-error metric well behaved across 6 orders of magnitude
//! of runtimes.
//!
//! A [`TypedGraph`] holds every node's features in one flat buffer beside
//! each row's nonzero positions ([`Features`]); an encoder multiplies those
//! alone, which is the dense row's chain (the kernel skips a zero input).
//! Every estimate and training step validates each graph once before it
//! reads it, so whoever builds one need not.
//!
//! # One engine, one oracle
//!
//! Every estimate ([`GnnModel::predict`], [`GnnModel::predict_batch`]) and
//! every training step ([`GnnModel::train_batch`]) runs on the
//! level-synchronous engine in the crate-private `batched` module: graphs (a
//! one-graph batch for `predict`; shards of eight consecutive graphs for a
//! batched estimate, one after the other, and for a training step, each
//! shard a job on the caller's `OrderedMap`) packed together, nodes grouped
//! by (topological level × node type), every MLP applied once per group on
//! an `N×f` matrix.
//!
//! The node-at-a-time implementation in this file — a fresh [`Tape`] per
//! graph, every per-type MLP applied to `1×f` row tensors in topological
//! order; simple, obviously correct, slow — is kept as the **differential
//! oracle** the engine's hand-derived backward is verified against. It is
//! reachable only by name — [`GnnModel::predict_reference`] and
//! [`GnnModel::train_batch_reference`] — and no option selects it. Child
//! aggregation and parameter-gradient accumulation in the engine replay the
//! oracle's float-addition chains exactly, so predictions, losses and trained
//! parameters are **bit-identical** at every batch size (the differential
//! suite enforces it).

use crate::batched;
use crate::mlp::{AdamConfig, Mlp, ParamStore};
use crate::tape::{Tape, VarId};
use crate::tensor::Tensor;
use graceful_common::rng::Rng;
use graceful_common::{GracefulError, OrderedMap, Result};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A typed DAG instance ready for the GNN.
///
/// Invariant: `edges` are `(src, dst)` with `src < dst` (topological index
/// order), and messages flow from `src` to `dst`; `root` is the node whose
/// state feeds the readout. [`GnnModel`] checks it ([`TypedGraph::validate`])
/// once per graph before it reads one.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedGraph {
    /// Node type id per node (indexes the encoder/updater lists).
    pub node_types: Vec<usize>,
    /// Per-node feature vector; length must equal the type's feature dim.
    pub features: Features,
    pub edges: Vec<(usize, usize)>,
    pub root: usize,
}

impl TypedGraph {
    pub fn len(&self) -> usize {
        self.node_types.len()
    }

    pub fn is_empty(&self) -> bool {
        self.node_types.is_empty()
    }

    /// Validate the topological-index invariant, feature dims, and that every
    /// feature is finite (the featurizer never emits another: counted over
    /// the benchmark's three workloads).
    pub fn validate(&self, feature_dims: &[usize]) -> Result<()> {
        if self.features.len() != self.node_types.len() {
            return Err(GracefulError::Model("features/types length mismatch".into()));
        }
        if self.root >= self.len() {
            return Err(GracefulError::Model("root out of bounds".into()));
        }
        for (i, (&t, f)) in self.node_types.iter().zip(self.features.iter()).enumerate() {
            let dim = *feature_dims
                .get(t)
                .ok_or_else(|| GracefulError::Model(format!("unknown node type {t}")))?;
            if f.len() != dim {
                return Err(GracefulError::Model(format!(
                    "node {i} (type {t}) has {} features, expected {dim}",
                    f.len()
                )));
            }
            if let Some(x) = f.iter().find(|x| !x.is_finite()) {
                return Err(GracefulError::Model(format!("node {i} (type {t}) has feature {x}")));
            }
        }
        for &(s, d) in &self.edges {
            if s >= d || d >= self.len() {
                return Err(GracefulError::Model(format!(
                    "edge ({s},{d}) violates topological order"
                )));
            }
        }
        Ok(())
    }
}

/// The feature rows of a graph's nodes, in node order, in one buffer, with
/// each row's nonzero positions (ascending; `-0.0` counts as zero) recorded
/// once as it is appended — rows are only appended whole, so they always
/// agree. A COMP row of 45 features holds two or three nonzeros.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Features {
    values: Vec<f32>,
    nonzero: Vec<u32>,
    /// Per node: where its row and its nonzero positions end.
    ends: Vec<(u32, u32)>,
}

impl Features {
    /// Room for `nodes` more rows holding `values` more features.
    pub fn reserve(&mut self, nodes: usize, values: usize) {
        self.values.reserve(values);
        self.nonzero.reserve(4 * nodes);
        self.ends.reserve(nodes);
    }

    /// Give back the room nothing was pushed into.
    pub fn shrink_to_fit(&mut self) {
        self.values.shrink_to_fit();
        self.nonzero.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Append the next node's row (`u32` ends: 2^32 features take 16 GiB).
    pub fn push(&mut self, row: &[f32]) {
        self.values.extend_from_slice(row);
        let nonzero = row.iter().enumerate().filter(|(_, &x)| x != 0.0);
        self.nonzero.extend(nonzero.map(|(p, _)| p as u32));
        self.ends.push((self.values.len() as u32, self.nonzero.len() as u32));
    }

    /// Number of rows (nodes).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Where row `v` and its nonzero positions start and end.
    fn spans(&self, v: usize) -> (Range<usize>, Range<usize>) {
        let (start, end) = (v.checked_sub(1).map_or((0, 0), |u| self.ends[u]), self.ends[v]);
        (start.0 as usize..end.0 as usize, start.1 as usize..end.1 as usize)
    }

    /// Node `v`'s row. Panics if `v >= len()`.
    pub fn row(&self, v: usize) -> &[f32] {
        &self.values[self.spans(v).0]
    }

    /// Node `v`'s nonzero features as `(position, value)`, positions
    /// ascending: the entries of [`Features::row`] a product does not skip.
    pub(crate) fn nonzeros(&self, v: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (values, nonzero) = self.spans(v);
        let row = &self.values[values];
        self.nonzero[nonzero].iter().map(move |&p| (p as usize, row[p as usize]))
    }

    /// Every row, in node order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        (0..self.len()).map(|v| self.row(v))
    }
}

impl<R: AsRef<[f32]>> FromIterator<R> for Features {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Self {
        let mut features = Features::default();
        rows.into_iter().for_each(|row| features.push(row.as_ref()));
        features
    }
}

/// GNN architecture configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GnnConfig {
    /// Hidden state width.
    pub hidden: usize,
    /// Feature dimension per node type.
    pub feature_dims: Vec<usize>,
    /// Readout MLP hidden width.
    pub readout_hidden: usize,
}

impl GnnConfig {
    /// The widths every layer depends on must be usable.
    fn check(&self) -> std::result::Result<(), String> {
        if self.hidden == 0 {
            return Err("GNN hidden width must be >= 1, got 0".into());
        }
        if self.readout_hidden == 0 {
            return Err("GNN readout hidden width must be >= 1, got 0".into());
        }
        if self.feature_dims.is_empty() {
            return Err("GNN needs at least one node type (feature_dims is empty)".into());
        }
        Ok(())
    }

    /// Layer widths of a type's encoder. With the two below: what
    /// `GnnModel::new` builds and what a loaded model is checked against.
    fn encoder_dims(&self, ty: usize) -> [usize; 2] {
        [self.feature_dims[ty].max(1), self.hidden]
    }

    /// Two-layer update networks: runtimes are *multiplicative* in
    /// (rows × iterations × per-op cost), which a single affine layer over
    /// log-scaled features cannot express.
    fn updater_dims(&self) -> [usize; 3] {
        [2 * self.hidden, self.hidden, self.hidden]
    }

    fn readout_dims(&self) -> [usize; 3] {
        [self.hidden, self.readout_hidden, 1]
    }
}

/// The trainable model: per-type encoders & updaters plus a readout MLP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GnnModel {
    pub config: GnnConfig,
    pub(crate) store: ParamStore,
    pub(crate) encoders: Vec<Mlp>,
    pub(crate) updaters: Vec<Mlp>,
    pub(crate) readout: Mlp,
    /// Target normalization (mean, std) in log space, set by `fit_target_norm`.
    pub target_mean: f32,
    pub target_std: f32,
}

impl GnnModel {
    /// Build a model, validating the architecture: a zero `hidden` or
    /// `readout_hidden` width, or an empty `feature_dims`, is a typed
    /// [`GracefulError::Config`] (matching `ExecOptions` semantics).
    pub fn new(config: GnnConfig, seed: u64) -> Result<Self> {
        config.check().map_err(GracefulError::Config)?;
        let mut rng = Rng::seed(seed);
        let mut store = ParamStore::new(seed);
        let n_types = config.feature_dims.len();
        let encoders =
            (0..n_types).map(|t| Mlp::new(&mut store, &config.encoder_dims(t), &mut rng)).collect();
        let updaters =
            (0..n_types).map(|_| Mlp::new(&mut store, &config.updater_dims(), &mut rng)).collect();
        let readout = Mlp::new(&mut store, &config.readout_dims(), &mut rng);
        Ok(GnnModel {
            config,
            store,
            encoders,
            updaters,
            readout,
            target_mean: 0.0,
            target_std: 1.0,
        })
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.store.param_count()
    }

    /// FNV-1a digest over the bit patterns of every parameter scalar — the
    /// cheap way for differential tests to assert two models' trained
    /// weights are bit-identical.
    pub fn param_checksum(&self) -> u64 {
        self.store.param_checksum()
    }

    /// Compute target normalization from raw (positive) runtime labels.
    /// An empty label set, or a non-finite label, is a typed
    /// [`GracefulError::Model`].
    pub fn fit_target_norm(&mut self, targets_ns: &[f64]) -> Result<()> {
        if targets_ns.is_empty() {
            return Err(GracefulError::Model(
                "cannot fit target normalization on zero labels".into(),
            ));
        }
        check_labels(targets_ns)?;
        let logs: Vec<f32> = targets_ns.iter().map(|&t| (t.max(1.0)).ln() as f32).collect();
        let mean = logs.iter().sum::<f32>() / logs.len() as f32;
        let var = logs.iter().map(|l| (l - mean).powi(2)).sum::<f32>() / logs.len() as f32;
        self.target_mean = mean;
        self.target_std = var.sqrt().max(1e-3);
        Ok(())
    }

    /// The reference forward pass, node at a time on a fresh tape; returns
    /// the tape and the prediction variable (normalized log space).
    fn forward_reference(&self, graph: &TypedGraph) -> (Tape, VarId) {
        let mut tape = Tape::new();
        let n = graph.len();
        // Incoming edge lists (children states to aggregate).
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(s, d) in &graph.edges {
            children[d].push(s);
        }
        // One state per node, pushed in id order. `validate` holds every
        // edge to `src < dst` and the root to `root < n`, so each index below
        // is in range.
        let mut states: Vec<VarId> = Vec::with_capacity(n);
        let zero = tape.input(Tensor::zeros(1, self.config.hidden));
        let nodes = graph.node_types.iter().zip(graph.features.iter()).zip(&children);
        for ((&t, features), kids) in nodes {
            let x = tape.input(Tensor::row(features));
            let enc = self.encoders[t].forward(&mut tape, &self.store, x);
            let enc = tape.leaky_relu(enc, crate::mlp::LEAKY_SLOPE);
            let agg = if kids.is_empty() {
                zero
            } else {
                // Sum aggregation: cost is additive over children (a join's
                // cost includes both inputs' costs; a loop's cost includes
                // every statement's). Mean aggregation would dilute with
                // fan-in; scaling stability comes from LeakyReLU + gradient
                // clipping + the log-space target.
                tape.sum_rows(kids.iter().map(|&c| states[c]).collect())
            };
            let joint = tape.concat_cols(enc, agg);
            let h = self.updaters[t].forward(&mut tape, &self.store, joint);
            let h = tape.leaky_relu(h, crate::mlp::LEAKY_SLOPE);
            states.push(h);
        }
        let out = self.readout.forward(&mut tape, &self.store, states[graph.root]);
        (tape, out)
    }

    /// Predict a runtime in nanoseconds (a one-graph batch on the engine).
    pub fn predict(&self, graph: &TypedGraph) -> Result<f64> {
        Ok(self.predict_batch(&[graph])?[0])
    }

    /// Predict runtimes (ns) for a batch of graphs, packed and run through
    /// the level-synchronous pass one shard of consecutive graphs at a time,
    /// so memory is bounded by a shard, not by the batch. An empty slice is
    /// `Ok(vec![])`.
    pub fn predict_batch(&self, graphs: &[&TypedGraph]) -> Result<Vec<f64>> {
        batched::predict_roots(self, graphs, &batched::own_roots(graphs))
    }

    /// Predict runtimes (ns) at several roots of the graphs, one per
    /// `(graph index, node)` of `roots` in that order (each graph's own
    /// `root` is ignored; roots may come in any graph order and repeat).
    /// The graphs run shard by shard as in [`GnnModel::predict_batch`], each
    /// shard reading out the roots that fall in it. Nodes that several roots
    /// reach are computed once, and each result keeps the bits of
    /// [`GnnModel::predict_reference`] on the graph with that root alone. An
    /// invalid graph or an out-of-range root is a typed
    /// [`GracefulError::Model`] before any shard runs. So is a non-finite
    /// estimate, naming the first such root in `roots` order by its graph's
    /// index in `graphs`.
    pub fn predict_roots(
        &self,
        graphs: &[&TypedGraph],
        roots: &[(usize, usize)],
    ) -> Result<Vec<f64>> {
        batched::predict_roots(self, graphs, roots)
    }

    /// [`GnnModel::predict`] on the node-at-a-time tape reference — the
    /// oracle the differential suites compare the engine against, bit for
    /// bit. Nothing in production calls it.
    pub fn predict_reference(&self, graph: &TypedGraph) -> Result<f64> {
        graph.validate(&self.config.feature_dims)?;
        let (tape, out) = self.forward_reference(graph);
        let norm = tape.value(out).data[0];
        let log_ns = norm * self.target_std + self.target_mean;
        Ok((log_ns as f64).exp())
    }

    /// One training step over a mini-batch on the engine; returns the mean
    /// Huber loss. The batch runs as shards of consecutive graphs, each
    /// shard's jobs on `map` (a `graceful_runtime::Pool`, or
    /// [`graceful_common::Serial`] on the calling thread); no bit of the
    /// loss, the gradients or the step depends on the map.
    ///
    /// Targets are runtimes in nanoseconds; the Huber delta is in normalized
    /// log units.
    pub fn train_batch(
        &mut self,
        map: &impl OrderedMap,
        graphs: &[&TypedGraph],
        targets_ns: &[f64],
        adam: &AdamConfig,
        huber_delta: f32,
    ) -> Result<f32> {
        batched::train_batch(self, map, graphs, targets_ns, adam, huber_delta)
    }

    /// [`GnnModel::train_batch`] on the node-at-a-time tape reference — the
    /// oracle of the engine's hand-derived backward: bit-identical loss,
    /// gradients and post-step parameters at every batch size. Nothing in
    /// production calls it.
    pub fn train_batch_reference(
        &mut self,
        graphs: &[&TypedGraph],
        targets_ns: &[f64],
        adam: &AdamConfig,
        huber_delta: f32,
    ) -> Result<f32> {
        if graphs.is_empty() || graphs.len() != targets_ns.len() {
            return Err(GracefulError::Model("empty or mismatched batch".into()));
        }
        for g in graphs {
            g.validate(&self.config.feature_dims)?;
        }
        let targets = self.normalized_targets(targets_ns)?;
        self.store.zero_grad();
        let mut total_loss = 0.0f32;
        let bsz = graphs.len() as f32;
        for (g, target) in graphs.iter().zip(targets) {
            let (tape, out) = self.forward_reference(g);
            let pred = tape.value(out).data[0];
            let (loss, dloss) = huber(pred - target, huber_delta);
            total_loss += loss;
            tape.backward(out, Tensor::from_vec(1, 1, vec![dloss / bsz]), &mut self.store);
        }
        let loss = finite_loss(total_loss / bsz)?;
        self.store.adam_step(adam)?;
        Ok(loss)
    }

    /// Free the optimizer's gradient and moment buffers once training is
    /// over: they hold three more copies of every parameter, and estimates
    /// never read them. The next training step rebuilds them and restarts
    /// Adam, as on a loaded model.
    pub fn release_optimizer_state(&mut self) {
        self.store.release_buffers();
    }

    /// Finish loading a deserialized model: check everything `Deserialize`
    /// does not, then restore the transient optimizer buffers. Nothing is
    /// allocated for a model that fails, and the error is a typed
    /// [`GracefulError::Model`] naming the offending parameter.
    pub fn rebuild_after_load(&mut self) -> Result<()> {
        self.validate()?;
        self.store.rebuild_buffers();
        Ok(())
    }

    /// A model read from a file must be the model `new` would have built for
    /// its `config`: every tensor holds `rows × cols` values, every MLP has
    /// the family's layer widths and points at in-range parameters of those
    /// shapes, and the target normalization is usable. Otherwise the first
    /// `predict` would panic in `matmul`.
    fn validate(&self) -> Result<()> {
        let bad = |m: String| GracefulError::Model(format!("corrupt model: {m}"));
        self.config.check().map_err(bad)?;
        let n_types = self.config.feature_dims.len();
        if self.encoders.len() != n_types || self.updaters.len() != n_types {
            return Err(bad(format!(
                "{} encoders and {} updaters for {n_types} node types",
                self.encoders.len(),
                self.updaters.len()
            )));
        }
        self.store.check_shapes().map_err(bad)?;
        for (t, (enc, upd)) in self.encoders.iter().zip(&self.updaters).enumerate() {
            enc.check(&self.store, &self.config.encoder_dims(t))
                .map_err(|m| bad(format!("encoder {t}: {m}")))?;
            upd.check(&self.store, &self.config.updater_dims())
                .map_err(|m| bad(format!("updater {t}: {m}")))?;
        }
        self.readout
            .check(&self.store, &self.config.readout_dims())
            .map_err(|m| bad(format!("readout: {m}")))?;
        if !(self.target_std.is_finite() && self.target_std > 0.0 && self.target_mean.is_finite()) {
            return Err(bad(format!(
                "target normalization (mean {}, std {}) must be finite with std > 0",
                self.target_mean, self.target_std
            )));
        }
        Ok(())
    }

    /// Normalize raw runtime labels into the model's log-space targets; a
    /// non-finite label is a typed [`GracefulError::Model`].
    pub(crate) fn normalized_targets(&self, targets_ns: &[f64]) -> Result<Vec<f32>> {
        check_labels(targets_ns)?;
        Ok(targets_ns
            .iter()
            .map(|&t| ((t.max(1.0)).ln() as f32 - self.target_mean) / self.target_std)
            .collect())
    }
}

/// Every runtime label is finite; the error names the first that is not.
fn check_labels(targets_ns: &[f64]) -> Result<()> {
    match targets_ns.iter().position(|t| !t.is_finite()) {
        Some(i) => Err(GracefulError::Model(format!(
            "runtime label {i} is {}; labels must be finite",
            targets_ns[i]
        ))),
        None => Ok(()),
    }
}

/// A step whose mean loss is not finite is rejected before it moves a
/// parameter (shared by the engine and the reference).
pub(crate) fn finite_loss(loss: f32) -> Result<f32> {
    if loss.is_finite() {
        Ok(loss)
    } else {
        Err(GracefulError::Model(format!(
            "training loss is {loss}; the step is rejected and no parameter changes"
        )))
    }
}

/// Huber loss and its derivative at `err` (shared by the engine and the
/// reference so the formulas cannot drift apart).
pub(crate) fn huber(err: f32, delta: f32) -> (f32, f32) {
    if err.abs() <= delta {
        (0.5 * err * err, err)
    } else {
        (delta * (err.abs() - 0.5 * delta), delta * err.signum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_common::Serial;

    /// Synthetic task: runtime = 100 · (sum of leaf features) over a small
    /// chain DAG. The GNN must aggregate leaf information into the root.
    fn chain_graph(leaf_vals: &[f32]) -> TypedGraph {
        // type 0 = leaf (1 feature), type 1 = inner (1 dummy feature),
        // type 2 = root (1 dummy feature).
        let n_leaves = leaf_vals.len();
        let mut node_types: Vec<usize> = vec![0; n_leaves];
        let mut rows: Vec<Vec<f32>> = leaf_vals.iter().map(|&v| vec![v]).collect();
        node_types.push(1);
        rows.push(vec![0.5]);
        node_types.push(2);
        rows.push(vec![1.0]);
        let inner = n_leaves;
        let root = n_leaves + 1;
        let mut edges: Vec<(usize, usize)> = (0..n_leaves).map(|i| (i, inner)).collect();
        edges.push((inner, root));
        TypedGraph { node_types, features: rows.iter().collect(), edges, root }
    }

    #[test]
    fn validate_catches_bad_graphs() {
        let cfg = GnnConfig { hidden: 8, feature_dims: vec![1, 1, 1], readout_hidden: 8 };
        let mut model = GnnModel::new(cfg, 1).unwrap();
        let mut g = chain_graph(&[1.0, 2.0]);
        g.edges.push((3, 0)); // backward edge
        let mut g2 = chain_graph(&[1.0]);
        // Wrong dim on node 0.
        g2.features = [&[1.0, 2.0][..], &[0.5], &[1.0]].into_iter().collect();
        let (inf, nan) = (chain_graph(&[1.0, f32::INFINITY]), chain_graph(&[f32::NAN]));
        // The engine (alone, in a batch, or training) and the oracle reject
        // them alike, and a rejected step changes no parameter.
        let params = model.param_checksum();
        let adam = AdamConfig::default();
        for bad in [&g, &g2, &inf, &nan] {
            for result in [
                model.predict(bad),
                model.predict_batch(&[bad]).map(|p| p[0]),
                model.predict_reference(bad),
                model.train_batch(&Serial, &[bad], &[100.0], &adam, 1.0).map(f64::from),
                model.train_batch_reference(&[bad], &[100.0], &adam, 1.0).map(f64::from),
            ] {
                assert!(matches!(result, Err(GracefulError::Model(_))), "got {result:?}");
            }
        }
        assert_eq!(model.param_checksum(), params);
    }

    /// A non-finite runtime label is a typed error naming it — when fitting
    /// the normalization (which stays as it was) and when training on it.
    #[test]
    fn non_finite_labels_are_typed_errors() {
        let cfg = GnnConfig { hidden: 8, feature_dims: vec![1, 1, 1], readout_hidden: 8 };
        let mut model = GnnModel::new(cfg, 4).unwrap();
        let adam = AdamConfig::default();
        let g = chain_graph(&[0.5]);
        for (labels, named) in
            [(vec![1e3, f64::INFINITY], "label 1 is inf"), (vec![f64::NAN], "label 0 is NaN")]
        {
            match model.fit_target_norm(&labels) {
                Err(GracefulError::Model(m)) => assert!(m.contains(named), "{m}"),
                other => panic!("{labels:?}: {other:?}"),
            }
        }
        assert_eq!((model.target_mean, model.target_std), (0.0, 1.0));
        model.fit_target_norm(&[1e3, 1e5]).unwrap();
        let params = model.param_checksum();
        for t in [f64::NAN, f64::NEG_INFINITY] {
            for result in [
                model.train_batch(&Serial, &[&g, &g], &[1e3, t], &adam, 1.0),
                model.train_batch_reference(&[&g, &g], &[1e3, t], &adam, 1.0),
            ] {
                match result {
                    Err(GracefulError::Model(m)) => assert!(m.contains("label 1 is"), "{m}"),
                    other => panic!("{t}: {other:?}"),
                }
            }
        }
        assert_eq!(model.param_checksum(), params);
    }

    #[test]
    fn learns_leaf_sum_task() {
        let mut rng = Rng::seed(5);
        let cfg = GnnConfig { hidden: 16, feature_dims: vec![1, 1, 1], readout_hidden: 16 };
        let mut model = GnnModel::new(cfg, 5).unwrap();
        // Dataset: 3-leaf chains, runtime = exp of scaled sum (so log target
        // is linear in the sum).
        let data: Vec<(TypedGraph, f64)> = (0..128)
            .map(|_| {
                let leaves: Vec<f32> = (0..3).map(|_| rng.range(0.1..1.0) as f32).collect();
                let sum: f32 = leaves.iter().sum();
                (chain_graph(&leaves), (5.0 + 2.0 * sum as f64).exp())
            })
            .collect();
        let targets: Vec<f64> = data.iter().map(|(_, t)| *t).collect();
        model.fit_target_norm(&targets).unwrap();
        let adam = AdamConfig { lr: 3e-3, ..AdamConfig::default() };
        for _epoch in 0..60 {
            for chunk in data.chunks(16) {
                let graphs: Vec<&TypedGraph> = chunk.iter().map(|(g, _)| g).collect();
                let ts: Vec<f64> = chunk.iter().map(|(_, t)| *t).collect();
                model.train_batch(&Serial, &graphs, &ts, &adam, 1.0).unwrap();
            }
        }
        // Evaluate Q-error on fresh graphs.
        let mut max_q = 1.0f64;
        for _ in 0..32 {
            let leaves: Vec<f32> = (0..3).map(|_| rng.range(0.1..1.0) as f32).collect();
            let sum: f32 = leaves.iter().sum();
            let truth = (5.0 + 2.0 * sum as f64).exp();
            let pred = model.predict(&chain_graph(&leaves)).unwrap();
            let q = (pred / truth).max(truth / pred);
            max_q = max_q.max(q);
        }
        assert!(max_q < 1.6, "GNN failed to learn leaf-sum task: max Q-error {max_q}");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = GnnConfig { hidden: 8, feature_dims: vec![1, 1, 1], readout_hidden: 8 };
        let m1 = GnnModel::new(cfg.clone(), 9).unwrap();
        let m2 = GnnModel::new(cfg, 9).unwrap();
        let g = chain_graph(&[0.3, 0.6]);
        assert_eq!(m1.predict(&g).unwrap(), m2.predict(&g).unwrap());
    }

    #[test]
    fn serde_round_trip() {
        let cfg = GnnConfig { hidden: 8, feature_dims: vec![1, 1, 1], readout_hidden: 8 };
        let model = GnnModel::new(cfg, 11).unwrap();
        let g = chain_graph(&[0.2, 0.4, 0.8]);
        let before = model.predict(&g).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let mut loaded: GnnModel = serde_json::from_str(&json).unwrap();
        loaded.rebuild_after_load().unwrap();
        assert!((loaded.predict(&g).unwrap() - before).abs() < 1e-9);
    }

    #[test]
    fn param_count_positive_and_stable() {
        let cfg = GnnConfig { hidden: 8, feature_dims: vec![2, 3], readout_hidden: 4 };
        let model = GnnModel::new(cfg, 2).unwrap();
        // encoders: (2*8+8)+(3*8+8) = 56; updaters (two layers each):
        // 2×((16*8+8)+(8*8+8)) = 416; readout: (8*4+4)+(4*1+1) = 41.
        assert_eq!(model.param_count(), 56 + 416 + 41);
    }
}
