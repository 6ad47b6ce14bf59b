//! Level-synchronous, graph-vectorized GNN execution.
//!
//! The engine behind every estimate and every training step. The
//! node-at-a-time reference it is verified against
//! ([`GnnModel::predict_reference`], [`GnnModel::train_batch_reference`])
//! builds a fresh tape per graph and runs every per-type MLP on `1×f` row
//! tensors. This module replaces that with a **batched** pass (a single graph
//! is a batch of one):
//!
//! 1. A shard of consecutive [`TypedGraph`]s is packed into one
//!    [`GraphBatch`]: every node becomes one *row*, rows numbered by
//!    (topological level, type, batch id) — level `0` for leaves,
//!    `1 + max(child level)` otherwise — so every `(level, type)` *group* is
//!    one contiguous row range. The pack holds what forward reads (rows,
//!    groups, child CSR, roots) in a handful of flat arrays; only a training
//!    step asks for the parent CSR, liveness and each type's live rows in
//!    the reference's accumulation order ([`BackLinks`]).
//! 2. Every quantity the step needs — encoder pre-activation, the updater's
//!    joint input `[enc | Σ children]`, both updater pre-activations, the
//!    layer-2 input, the state, and in backward the state, layer-1 and joint
//!    gradients — is one `n×w` stash allocated once per shard. The forward
//!    pass walks groups bottom-up and the backward pass top-down; each stage
//!    is one [`matmul_rows`] call that reads the group's rows of one stash
//!    and writes them into another, in place; an encoder reads only a row's
//!    nonzero features.
//! 3. Parameter gradients are reduced per (type, layer) in a final pass that
//!    replays the reference's accumulation order exactly.
//!
//! A training step and an estimate both run in *shards* of [`SHARD_GRAPHS`]
//! consecutive graphs; a step runs each shard as one job on an
//! [`OrderedMap`] (see "Shards" below).
//!
//! # The kernels, and why the result is bit-identical to the reference
//!
//! Every product runs on [`matmul_rows`]: each output element is one chain —
//! `+0.0`, then `+= a · b` over the inner index ascending, skipping `a ==
//! 0.0` — the chain of the tape's [`Tensor::matmul`], also for a row listed
//! by its nonzero entries ([`matmul_entries`]). At widths that are a
//! multiple of 32 (all of them in a hidden-32 model) the kernel holds each
//! 32-wide tile of an output row in registers; the tiling changes where the
//! chain lives, not its order, and the compiler contracts no `a · b + s`
//! into an FMA. `tensor`'s `kernels_match_the_written_definition` test pins
//! every path against the loops as first written, bit for bit — the tape
//! calls the same kernel, so the engine-vs-tape suites alone could not see a
//! reordered chain. Batching never changes a row's value. The two places
//! floats *reduce* across rows are pinned to the reference's order:
//!
//! * **Child aggregation** sums child states in child-list order from zero —
//!   the same chain as the reference's `sum_rows`.
//! * **Parameter gradients**: the reference accumulates per-use
//!   contributions into the store in reverse-tape order per graph, graphs in
//!   batch order — i.e. for each parameter of node type `t`: graph 0's type-
//!   `t` nodes in *descending* node order, then graph 1's, and so on. The
//!   final pass gathers each type's rows in exactly that `(graph ascending,
//!   node descending)` order and reduces them with one product
//!   ([`linear_grads`]). Gradient flow *into* a node state likewise
//!   folds parent contributions in descending parent order, readout first —
//!   matching the reference's reverse-tape accumulation.
//!
//! # Several roots of one graph
//!
//! A prediction reads out a list of `(graph, node)` roots
//! ([`GnnModel::predict_roots`]); a plain batch is the list of each graph's
//! own root. A node's state depends only on its features and its children's
//! states, and the readout runs row by row on the `R×h` root matrix, so a
//! graph in which N cost variants of one plan share their common operators
//! yields, at each variant's root, the bits of that variant's own graph.
//!
//! Nodes whose state cannot reach the loss (possible when a root is not the
//! last node) are left out of the backward pass, exactly as the reference's
//! `None` gradient slots skip them.
//!
//! # Shards
//!
//! [`train_batch`] packs each run of [`SHARD_GRAPHS`] consecutive graphs on
//! its own and runs three regions on the caller's [`OrderedMap`] (the
//! morsels of Leis et al., applied to a batch of graphs):
//!
//! 1. per shard: validate, pack, forward and the readout forward;
//! 2. per shard: backward over its groups, seeded from its roots' rows of
//!    the root-state gradient;
//! 3. per (type, layer): that layer's parameter-gradient product.
//!
//! Between them, on the caller and in graph order, run the loss and its
//! seeds and the readout backward; Adam runs after them. No bit depends on
//! the split or on which thread runs a job:
//!
//! * Rows of different graphs never meet in forward or backward, and every
//!   row's chains are the ones above whatever rows share its pack. So each
//!   row of a shard holds the bits it would hold in a pack of the whole
//!   batch.
//! * The cross-graph reductions have a fixed order. The loss and the readout
//!   backward run over the shards' roots concatenated, i.e. in graph order.
//!   A shard's canonical rows are (graph ascending, node descending) over
//!   consecutive graphs, so a type's rows gathered shard after shard are the
//!   batch's canonical order, and one product reduces them as before.
//! * The map returns results in item order, and each result is added into
//!   the gradients on the caller.
//!
//! [`predict_roots`] (hence every estimate) validates every graph once and
//! checks every root first, then packs, runs forward and reads out one shard
//! at a time: the roots that fall in it, each prediction written into its
//! root's slot. A shard never splits a graph, so nodes several roots reach
//! are still computed once, and an error names its graph by its index in the
//! batch. A shard's stashes are dropped before the next is packed, so an
//! estimate's memory is bounded by one shard, not by the batch.

use crate::gnn::{finite_loss, huber, GnnModel, TypedGraph};
use crate::mlp::{AdamConfig, Linear, Mlp, ParamStore, LEAKY_SLOPE};
use crate::tensor::{matmul_entries, matmul_rows, Tensor};
use graceful_common::{GracefulError, OrderedMap, Result};
use std::ops::Range;

/// One `(level, type)` node group: the same row range of every stash.
struct Group {
    ty: usize,
    rows: Range<usize>,
}

/// A mini-batch of graphs packed for level-synchronous execution.
///
/// Every node of the batch is one *row* of every stash, rows ordered by
/// (level, type, batch id), so each group is one row range. Adjacency is
/// CSR-shaped (offset + data arrays), so packing allocates a handful of flat
/// arrays, none per node.
struct GraphBatch {
    /// Each graph's first batch id (graph-major, nodes in their own order),
    /// then the node count.
    first: Vec<usize>,
    /// The batch id behind each row.
    ids: Vec<usize>,
    /// The row of each batch id.
    row: Vec<usize>,
    /// CSR offsets into `child_dat` (length `ids + 1`).
    child_off: Vec<usize>,
    /// Children (batch ids, edge order) of each batch id, concatenated.
    child_dat: Vec<usize>,
    /// The row read out per requested `(graph, node)` root (training:
    /// exactly one per graph, in graph order).
    roots: Vec<usize>,
    /// Groups by (level ascending, type ascending).
    groups: Vec<Group>,
    /// What only a training step's backward reads; empty in an estimate.
    links: BackLinks,
}

/// The part of a pack that only backward and the parameter gradients read.
#[derive(Default)]
struct BackLinks {
    /// CSR offsets into `parent_dat` (length `rows + 1`).
    parent_off: Vec<usize>,
    /// Parents (rows, descending node id, one entry per edge), concatenated.
    parent_dat: Vec<usize>,
    /// Whether a row's state reaches a root: it is one, or has a live parent
    /// (the reference's `None` gradient slots skip the rest).
    live: Vec<bool>,
    /// The live rows of type `t` in the reference's accumulation order
    /// (graph ascending, node descending) are
    /// `canon[canon_off[t]..canon_off[t + 1]]`.
    canon_off: Vec<usize>,
    canon: Vec<usize>,
}

impl GraphBatch {
    /// Pack `graphs` for a forward pass that reads out `roots`, plus, when
    /// `train`, the [`BackLinks`] of a training step.
    fn pack(graphs: &[&TypedGraph], roots: &[(usize, usize)], n_types: usize, train: bool) -> Self {
        // Batch ids: graph-major, each graph's nodes in their own order.
        let mut first = Vec::with_capacity(graphs.len() + 1);
        first.push(0);
        for g in graphs {
            first.push(first[first.len() - 1] + g.len());
        }
        let n = first[graphs.len()];
        // Children of each id, in edge order.
        let edges = graphs
            .iter()
            .zip(&first)
            .flat_map(|(g, &base)| g.edges.iter().map(move |&(s, d)| (base + d, base + s)));
        let (child_off, child_dat) = csr(n, edges);
        let children = |v: usize| &child_dat[child_off[v]..child_off[v + 1]];
        // Each id's topological level (children have smaller ids: one
        // forward scan) and type.
        let mut key: Vec<(usize, usize)> = Vec::with_capacity(n);
        for (v, &t) in graphs.iter().flat_map(|g| &g.node_types).enumerate() {
            key.push((children(v).iter().map(|&c| key[c].0 + 1).max().unwrap_or(0), t));
        }
        // Rows: the ids sorted by (level, type), ids ascending within a key
        // (a counting sort by level, then each level, a few nodes, stably by
        // type), so each run of one key is one group.
        let n_levels = key.iter().map(|k| k.0 + 1).max().unwrap_or(0);
        let (level_off, mut ids) = csr(n_levels, key.iter().map(|k| k.0).zip(0..n));
        level_off.windows(2).for_each(|l| ids[l[0]..l[1]].sort_by_key(|&v| key[v].1));
        let mut row = vec![0usize; n];
        let mut groups: Vec<Group> = Vec::with_capacity(n_levels);
        for (r, &v) in ids.iter().enumerate() {
            row[v] = r;
            match groups.last_mut() {
                Some(g) if key[ids[g.rows.start]] == key[v] => g.rows.end = r + 1,
                _ => groups.push(Group { ty: key[v].1, rows: r..r + 1 }),
            }
        }
        let roots = roots.iter().map(|&(g, v)| row[first[g] + v]).collect();
        let links = BackLinks::default();
        let mut batch = GraphBatch { first, ids, row, child_off, child_dat, roots, groups, links };
        if train {
            batch.links = batch.back_links(graphs, n_types);
        }
        batch
    }

    /// The `(graph, node)` behind row `r`.
    fn node(&self, r: usize) -> (usize, usize) {
        let id = self.ids[r];
        let g = self.first.partition_point(|&f| f <= id) - 1;
        (g, id - self.first[g])
    }

    /// Children of row `r`, as rows (edge order).
    fn children(&self, r: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        let v = self.ids[r];
        self.child_dat[self.child_off[v]..self.child_off[v + 1]].iter().map(|&c| self.row[c])
    }

    /// Parents of row `r` (descending node id, one entry per edge).
    fn parents(&self, r: usize) -> &[usize] {
        &self.links.parent_dat[self.links.parent_off[r]..self.links.parent_off[r + 1]]
    }

    /// The live rows of type `ty`, graph ascending, node descending.
    fn canon(&self, ty: usize) -> &[usize] {
        &self.links.canon[self.links.canon_off[ty]..self.links.canon_off[ty + 1]]
    }

    /// The [`BackLinks`] of this pack.
    fn back_links(&self, graphs: &[&TypedGraph], n_types: usize) -> BackLinks {
        let (row, n) = (&self.row, self.ids.len());
        // Parents descending: the child lists visited from the last id down.
        let edges = (0..n).rev().flat_map(|v| self.children(row[v]).map(move |c| (c, row[v])));
        let (parent_off, parent_dat) = csr(n, edges);
        // Liveness: a parent sits at a higher level, so on a later row.
        let mut live = vec![false; n];
        self.roots.iter().for_each(|&r| live[r] = true);
        for r in (0..n).rev() {
            live[r] =
                live[r] || parent_dat[parent_off[r]..parent_off[r + 1]].iter().any(|&p| live[p]);
        }
        // Canonical order: the live rows bucketed by type, graphs ascending,
        // nodes descending.
        let rows = graphs.iter().zip(&self.first).flat_map(|(g, &base)| {
            (0..g.len()).rev().map(move |v| (g.node_types[v], row[base + v]))
        });
        let (canon_off, canon) = csr(n_types, rows.filter(|&(_, r)| live[r]));
        BackLinks { parent_off, parent_dat, live, canon_off, canon }
    }
}

/// `(key, item)` pairs bucketed by key, stably: key `k`'s items are
/// `dat[off[k]..off[k + 1]]`, in the order given (a counting sort).
fn csr(
    n_keys: usize,
    pairs: impl Iterator<Item = (usize, usize)> + Clone,
) -> (Vec<usize>, Vec<usize>) {
    let mut off = vec![0usize; n_keys + 1];
    for (k, _) in pairs.clone() {
        off[k + 1] += 1;
    }
    for k in 0..n_keys {
        off[k + 1] += off[k];
    }
    // Each bucket's start is its cursor; once filled it has moved to the
    // next bucket's start, so one shift restores the offsets.
    let mut dat = vec![0usize; off[n_keys]];
    for (k, item) in pairs {
        dat[off[k]] = item;
        off[k] += 1;
    }
    off.copy_within(0..n_keys, 1);
    off[0] = 0;
    (off, dat)
}

/// Forward trace of one batched MLP application (per-layer inputs and
/// pre-activation outputs, needed by backward).
struct MlpTrace {
    inputs: Vec<Tensor>,
    pre: Vec<Tensor>,
}

/// Mirror of [`Mlp::forward`] over an `N×in` matrix: LeakyReLU between
/// layers, none after the last. Returns the final pre-activation output and,
/// when `train`, the trace backward reads.
fn mlp_forward(mlp: &Mlp, store: &ParamStore, x: Tensor, train: bool) -> (Tensor, MlpTrace) {
    let mut trace = MlpTrace { inputs: Vec::new(), pre: Vec::new() };
    let last = mlp.layers.len() - 1;
    let mut cur = x;
    for (i, layer) in mlp.layers.iter().enumerate() {
        let mut y = cur.matmul(store.value(layer.w));
        y.add_row_broadcast(store.value(layer.b));
        if train {
            trace.inputs.push(cur);
            trace.pre.push(y.clone());
        }
        if i != last {
            y.leaky_relu_assign(LEAKY_SLOPE);
        }
        cur = y;
    }
    (cur, trace)
}

/// `out = x · W + b` for every row of `out`, row `i`'s input given as its
/// `(position, value)` entries ([`matmul_entries`]).
fn linear<I: Iterator<Item = (usize, f32)>>(
    store: &ParamStore,
    layer: &Linear,
    x: impl Fn(usize) -> I,
    out: &mut [f32],
) {
    let (w, b) = (store.value(layer.w), store.value(layer.b));
    matmul_entries(x, &w.data, w.cols, out);
    for row in out.chunks_exact_mut(w.cols) {
        for (y, &b) in row.iter_mut().zip(&b.data) {
            *y += b;
        }
    }
}

/// Every entry of a dense row.
fn dense(row: &[f32]) -> impl Iterator<Item = (usize, f32)> + '_ {
    row.iter().copied().enumerate()
}

/// `dst = LeakyReLU(src)`, element by element.
fn leaky_into(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = if s < 0.0 { s * LEAKY_SLOPE } else { s };
    }
}

/// LeakyReLU adjoint: scale gradient entries whose pre-activation was
/// negative (same predicate as the reference's tape op), written as a select
/// so it vectorizes instead of branching on the sign of every entry.
fn leaky_mask(grad: &mut [f32], pre: &[f32]) {
    for (g, &x) in grad.iter_mut().zip(pre) {
        *g = if x < 0.0 { *g * LEAKY_SLOPE } else { *g };
    }
}

/// Row `i` of a row-major block of `k`-wide rows.
fn rows_of<'a>(block: &'a [f32], k: usize) -> impl Fn(usize) -> &'a [f32] + Copy {
    move |i| &block[i * k..(i + 1) * k]
}

/// The nonzero features of row `r` (read where the graph holds them): all
/// of the row an encoder's product does not skip.
fn features<'a>(
    batch: &GraphBatch,
    graphs: &[&'a TypedGraph],
    r: usize,
) -> impl Iterator<Item = (usize, f32)> + 'a {
    let (g, v) = batch.node(r);
    graphs[g].features.nonzeros(v)
}

/// One linear layer's parameter-gradient sums over its `k` uses, each an
/// input row and a pre-activation gradient row: the weight's rows, then the
/// bias's (see [`add_grads`]).
///
/// The uses are gathered, inputs transposed, into `[Xᵀ; 1]` and `G`, so one
/// product `[Xᵀ; 1] · G` yields the weight's `Xᵀ·G` and, against the row of
/// ones, the bias's column sums — each element reducing the uses in the
/// order listed. Listing them in the reference's order therefore replays
/// its per-use adds (`1 · g` is `g`, bit for bit). An input is given as its
/// entries, and one left out stays the `0.0` the product skips, so an
/// encoder's use lists its row's nonzero features alone.
fn linear_grads<'a, X: Iterator<Item = (usize, f32)>>(
    layer: &Linear,
    k: usize,
    uses: impl Iterator<Item = (X, &'a [f32])>,
) -> Vec<f32> {
    let (m, n) = (layer.in_dim, layer.out_dim);
    let mut xt = vec![0.0f32; m * k];
    xt.resize((m + 1) * k, 1.0);
    let mut gs = Vec::with_capacity(k * n);
    uses.enumerate().for_each(|(p, (x, g))| {
        for (i, v) in x {
            xt[i * k + p] = v;
        }
        gs.extend_from_slice(g);
    });
    let mut sums = vec![0.0f32; (m + 1) * n];
    matmul_rows(rows_of(&xt, k), &gs, n, &mut sums);
    sums
}

/// Add a layer's [`linear_grads`] sums into its weight and bias gradients.
fn add_grads(store: &mut ParamStore, layer: &Linear, sums: &[f32]) {
    let (gw, gb) = sums.split_at(layer.in_dim * layer.out_dim);
    for (grad, sum) in [(layer.w, gw), (layer.b, gb)] {
        for (d, &s) in store.grad_mut(grad).data.iter_mut().zip(sum) {
            *d += s;
        }
    }
}

/// Everything forward computes that backward (or prediction) needs: one
/// stash per quantity, one row per node.
struct BatchedForward {
    batch: GraphBatch,
    /// Encoder pre-activation (`n×h`).
    enc_pre: Tensor,
    /// Updater layer-1 input `[LeakyReLU(enc) | Σ child states]` (`n×2h`).
    upd1_in: Tensor,
    /// Updater layer-1 pre-activation (`n×h`).
    upd1_pre: Tensor,
    /// Updater layer-2 input (`n×h`).
    upd2_in: Tensor,
    /// Updater layer-2 pre-activation (`n×h`).
    upd2_pre: Tensor,
    /// Readout trace over the `R×h` root-state matrix (training only).
    readout: MlpTrace,
    /// Normalized log-space predictions, one per root.
    preds: Vec<f32>,
}

/// Level-synchronous forward over a validated batch, reading out the state
/// of every `(graph, node)` in `roots`; `train` keeps what backward reads.
fn forward(
    model: &GnnModel,
    graphs: &[&TypedGraph],
    roots: &[(usize, usize)],
    train: bool,
) -> BatchedForward {
    // The engine hard-codes the architecture `GnnModel::new` builds
    // (1-layer encoders, 2-layer updaters); fail loudly if that ever drifts
    // rather than silently dropping layers.
    assert!(
        model.encoders.iter().all(|e| e.layers.len() == 1)
            && model.updaters.iter().all(|u| u.layers.len() == 2),
        "batched GNN engine expects 1-layer encoders and 2-layer updaters"
    );
    let batch = GraphBatch::pack(graphs, roots, model.config.feature_dims.len(), train);
    let (n, h) = (batch.ids.len(), model.config.hidden);
    let store = &model.store;
    let mut upd1_in = Tensor::zeros(n, 2 * h);
    let [mut enc_pre, mut upd1_pre, mut upd2_in, mut upd2_pre, mut state] =
        [(); 5].map(|_| Tensor::zeros(n, h));
    // One application of each MLP layer per group, children always resolved
    // at lower levels, every stage reading and writing the group's rows of
    // the stash in place.
    for group in &batch.groups {
        let span = |w: usize| group.rows.start * w..group.rows.end * w;
        let start = group.rows.start;
        let upd = &model.updaters[group.ty].layers;
        let enc = &model.encoders[group.ty].layers[0];
        linear(store, enc, |i| features(&batch, graphs, start + i), &mut enc_pre.data[span(h)]);
        // joint = [LeakyReLU(enc) | agg]: the right half accumulates child
        // states in fixed child order from zero — the reference's `sum_rows`
        // chain (leaves aggregate to zero rows, matching the reference's
        // shared zero input).
        for r in group.rows.clone() {
            let (enc, agg) = upd1_in.row_slice_mut(r).split_at_mut(h);
            leaky_into(enc, enc_pre.row_slice(r));
            for c in batch.children(r) {
                for (d, &x) in agg.iter_mut().zip(state.row_slice(c)) {
                    *d += x;
                }
            }
        }
        let x = rows_of(&upd1_in.data[span(2 * h)], 2 * h);
        linear(store, &upd[0], |i| dense(x(i)), &mut upd1_pre.data[span(h)]);
        leaky_into(&mut upd2_in.data[span(h)], &upd1_pre.data[span(h)]);
        let x = rows_of(&upd2_in.data[span(h)], h);
        linear(store, &upd[1], |i| dense(x(i)), &mut upd2_pre.data[span(h)]);
        leaky_into(&mut state.data[span(h)], &upd2_pre.data[span(h)]);
    }
    let root_states = batch.roots.iter().flat_map(|&r| state.row_slice(r));
    let root_states = Tensor::from_vec(batch.roots.len(), h, root_states.copied().collect());
    let (r_out, readout) = mlp_forward(&model.readout, store, root_states, train);
    let preds = (0..roots.len()).map(|r| r_out.get(r, 0)).collect();
    BatchedForward { batch, enc_pre, upd1_in, upd1_pre, upd2_in, upd2_pre, readout, preds }
}

/// One shard's gradient rows, one stash per quantity, filled top-down.
struct ShardGrads {
    /// The state gradient, masked in place into updater layer 2's
    /// pre-activation gradient (`n×h`).
    state: Tensor,
    /// Updater layer 1's pre-activation gradient (`n×h`).
    upd1: Tensor,
    /// `[encoder pre-activation | child sum]` gradient (`n×2h`).
    joint: Tensor,
}

/// Backward over one shard's groups from its roots' state gradients
/// (`g_root`: one `h`-wide row per root, in root order), with every updater
/// weight transposed once per step in `upd_t`.
fn backward_groups(fwd: &BatchedForward, upd_t: &[[Tensor; 2]], g_root: &[f32]) -> ShardGrads {
    let batch = &fwd.batch;
    let (n, h) = (batch.ids.len(), fwd.upd1_pre.cols);
    let mut g_h = Tensor::zeros(n, h);
    let mut g_upd1 = Tensor::zeros(n, h);
    let mut g_joint = Tensor::zeros(n, 2 * h);
    let mut seeded = vec![false; n];
    for (&r, g) in batch.roots.iter().zip(g_root.chunks_exact(h)) {
        // First contribution to a root state comes from the readout (pushed
        // last on the reference tape, so visited first).
        g_h.row_slice_mut(r).copy_from_slice(g);
        seeded[r] = true;
    }
    for group in batch.groups.iter().rev() {
        let rows = || group.rows.clone();
        // Fold parent contributions into each live state gradient,
        // descending parent order (reverse tape), after any readout seed.
        // Dead rows keep zero gradients and feed nothing.
        let live = &batch.links.live;
        for r in rows().filter(|&r| live[r]) {
            for &p in batch.parents(r).iter().filter(|&&p| live[p]) {
                let (dst, src) = (g_h.row_slice_mut(r), &g_joint.row_slice(p)[h..]);
                if seeded[r] {
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                } else {
                    dst.copy_from_slice(src);
                    seeded[r] = true;
                }
            }
        }
        let [w1t, w2t] = &upd_t[group.ty];
        // Through the trailing state activation into updater layer 2, its
        // inter-layer activation into layer 1, and the encoder activation
        // (features are inputs; flow stops).
        leaky_mask(g_h.row_range_mut(rows()), fwd.upd2_pre.row_range(rows()));
        matmul_rows(rows_of(g_h.row_range(rows()), h), &w2t.data, h, g_upd1.row_range_mut(rows()));
        leaky_mask(g_upd1.row_range_mut(rows()), fwd.upd1_pre.row_range(rows()));
        matmul_rows(
            rows_of(g_upd1.row_range(rows()), h),
            &w1t.data,
            2 * h,
            g_joint.row_range_mut(rows()),
        );
        for r in rows() {
            leaky_mask(&mut g_joint.row_slice_mut(r)[..h], fwd.enc_pre.row_slice(r));
        }
    }
    ShardGrads { state: g_h, upd1: g_upd1, joint: g_joint }
}

/// Matrices of one width stacked row-wise, in the order given.
fn stack<'a>(parts: impl Iterator<Item = &'a Tensor>) -> Tensor {
    let (mut rows, mut cols, mut data) = (0, 0, Vec::new());
    for t in parts {
        (rows, cols) = (rows + t.rows, t.cols);
        data.extend_from_slice(&t.data);
    }
    Tensor::from_vec(rows, cols, data)
}

/// Each graph's own root, in graph order: the root list of a plain batch.
pub(crate) fn own_roots(graphs: &[&TypedGraph]) -> Vec<(usize, usize)> {
    graphs.iter().enumerate().map(|(gi, g)| (gi, g.root)).collect()
}

/// Predict runtimes (ns) at every `(graph, node)` of `roots`, one shard of
/// graphs at a time (see "Shards"). Finite features can still overflow the
/// pass: an estimate that is not a finite runtime is a typed error naming
/// its root, the first such in root order.
pub(crate) fn predict_roots(
    model: &GnnModel,
    graphs: &[&TypedGraph],
    roots: &[(usize, usize)],
) -> Result<Vec<f64>> {
    for g in graphs {
        g.validate(&model.config.feature_dims)?;
    }
    for &(g, v) in roots {
        if graphs.get(g).is_none_or(|graph| v >= graph.len()) {
            return Err(GracefulError::Model(format!("root {v} of graph {g} out of bounds")));
        }
    }
    if roots.is_empty() {
        return Ok(Vec::new());
    }
    // Each shard's root slots, in root order; a shard no root reads is skipped.
    let by_shard = roots.iter().enumerate().map(|(i, &(g, _))| (g / SHARD_GRAPHS, i));
    let (off, slots) = csr(graphs.len().div_ceil(SHARD_GRAPHS), by_shard);
    let mut preds = vec![0.0f32; roots.len()];
    for (s, shard) in graphs.chunks(SHARD_GRAPHS).enumerate() {
        let slots = &slots[off[s]..off[s + 1]];
        if !slots.is_empty() {
            let first = s * SHARD_GRAPHS;
            let local: Vec<(usize, usize)> =
                slots.iter().map(|&i| (roots[i].0 - first, roots[i].1)).collect();
            for (&i, p) in slots.iter().zip(forward(model, shard, &local, false).preds) {
                preds[i] = p;
            }
        }
    }
    let estimate = |(&(g, v), &p): (&(usize, usize), &f32)| {
        let ns = ((p * model.target_std + model.target_mean) as f64).exp();
        if ns.is_finite() {
            Ok(ns)
        } else {
            Err(GracefulError::Model(format!("the estimate at root {v} of graph {g} is {ns}")))
        }
    };
    roots.iter().zip(&preds).map(estimate).collect()
}

/// Graphs per shard of a training step (one job of each per-shard region)
/// and of an estimate. A constant like a morsel size, not an option; no bit
/// depends on it.
const SHARD_GRAPHS: usize = 8;

/// One training step, its jobs on `map` (bit-identical to the reference
/// for any map; see "Shards"). Errors come in the order: empty or
/// mismatched batch, the first invalid graph, the first non-finite label, a
/// non-finite loss, a non-finite gradient norm. A rejected step changes no
/// parameter and no optimizer moment.
pub(crate) fn train_batch(
    model: &mut GnnModel,
    map: &impl OrderedMap,
    graphs: &[&TypedGraph],
    targets_ns: &[f64],
    adam: &AdamConfig,
    huber_delta: f32,
) -> Result<f32> {
    if graphs.is_empty() || graphs.len() != targets_ns.len() {
        return Err(GracefulError::Model("empty or mismatched batch".into()));
    }
    let m = &*model;
    // Region 1. The first error in shard order is the first in graph order.
    let shards: Vec<&[&TypedGraph]> = graphs.chunks(SHARD_GRAPHS).collect();
    let fwds = map.ordered_map(&shards, |_, shard| {
        for g in *shard {
            g.validate(&m.config.feature_dims)?;
        }
        Ok(forward(m, shard, &own_roots(shard), true))
    });
    let fwds = fwds.into_iter().collect::<Result<Vec<_>>>()?;
    let targets = m.normalized_targets(targets_ns)?;
    let bsz = graphs.len() as f32;
    let mut total_loss = 0.0f32;
    let mut seeds = Vec::with_capacity(graphs.len());
    for (&pred, target) in fwds.iter().flat_map(|f| &f.preds).zip(targets) {
        let (loss, dloss) = huber(pred - target, huber_delta);
        total_loss += loss;
        seeds.push(dloss / bsz);
    }
    let loss = finite_loss(total_loss / bsz)?;
    // Readout backward over the B×h root matrix: rows are graphs ascending,
    // the reference's accumulation order for readout parameters.
    let last = m.readout.layers.len() - 1;
    let mut g_root = Tensor::from_vec(seeds.len(), 1, seeds);
    let mut sums = Vec::new();
    for (l, layer) in m.readout.layers.iter().enumerate().rev() {
        if l != last {
            leaky_mask(&mut g_root.data, &stack(fwds.iter().map(|f| &f.readout.pre[l])).data);
        }
        let x = stack(fwds.iter().map(|f| &f.readout.inputs[l]));
        let uses = (0..x.rows).map(|p| (dense(x.row_slice(p)), g_root.row_slice(p)));
        sums.push((*layer, linear_grads(layer, x.rows, uses)));
        // `matmul` against the materialized transpose is bit-identical to
        // `matmul_transpose_b` (see `Tensor::transpose`) but vectorizes.
        g_root = g_root.matmul(&m.store.value(layer.w).transpose());
    }
    let upd_t: Vec<[Tensor; 2]> = (m.updaters.iter())
        .map(|u| {
            [m.store.value(u.layers[0].w).transpose(), m.store.value(u.layers[1].w).transpose()]
        })
        .collect();
    // Region 2, seeded from each shard's own rows of the root gradient.
    let grads = map.ordered_map(&fwds, |s, fwd| {
        let first = s * SHARD_GRAPHS;
        backward_groups(fwd, &upd_t, g_root.row_range(first..first + fwd.preds.len()))
    });
    // Region 3: a type's live rows shard after shard, the batch's canonical
    // order, against each of its layers.
    let h = m.config.hidden;
    let jobs: Vec<(usize, usize)> =
        (0..m.config.feature_dims.len()).flat_map(|ty| (0..3).map(move |l| (ty, l))).collect();
    let layer_sums = map.ordered_map(&jobs, |_, &(ty, l)| {
        let upd = &m.updaters[ty].layers;
        let layer = [m.encoders[ty].layers[0], upd[0], upd[1]][l];
        let k = fwds.iter().map(|f| f.batch.canon(ty).len()).sum();
        let uses =
            shards.iter().zip(&fwds).zip(&grads).flat_map(|((shard, f), g)| {
                f.batch.canon(ty).iter().map(move |&r| (shard, f, g, r))
            });
        let sums = match l {
            0 => linear_grads(
                &layer,
                k,
                uses.map(|(shard, f, g, r)| {
                    (features(&f.batch, shard, r), &g.joint.row_slice(r)[..h])
                }),
            ),
            1 => linear_grads(
                &layer,
                k,
                uses.map(|(_, f, g, r)| (dense(f.upd1_in.row_slice(r)), g.upd1.row_slice(r))),
            ),
            _ => linear_grads(
                &layer,
                k,
                uses.map(|(_, f, g, r)| (dense(f.upd2_in.row_slice(r)), g.state.row_slice(r))),
            ),
        };
        (layer, sums)
    });
    model.store.zero_grad();
    for (layer, sums) in sums.iter().chain(&layer_sums) {
        add_grads(&mut model.store, layer, sums);
    }
    model.store.adam_step(adam)?;
    Ok(loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnn::{Features, GnnConfig};
    use graceful_common::rng::Rng;
    use graceful_common::Serial;

    /// Random typed DAG with heterogeneous fan-in, shared children, multiple
    /// levels and (sometimes) trailing nodes after the root — the shapes that
    /// stress level packing, liveness and gradient-fold order.
    fn random_graph(rng: &mut Rng, feature_dims: &[usize]) -> TypedGraph {
        let n = 2 + (rng.next_u64() % 14) as usize;
        let mut node_types = Vec::with_capacity(n);
        let mut features = Features::default();
        for _ in 0..n {
            let t = (rng.next_u64() % feature_dims.len() as u64) as usize;
            node_types.push(t);
            let row: Vec<f32> = (0..feature_dims[t]).map(|_| rng.range(-1.0..1.0) as f32).collect();
            features.push(&row);
        }
        let mut edges = Vec::new();
        for d in 1..n {
            // Between 0 and 3 children per node, duplicates allowed.
            let k = (rng.next_u64() % 4) as usize;
            for _ in 0..k.min(d) {
                edges.push(((rng.next_u64() % d as u64) as usize, d));
            }
        }
        // Root is usually the last node, sometimes interior (leaving dead
        // trailing nodes whose gradients must be skipped).
        let root = if rng.unit() < 0.8 { n - 1 } else { (rng.next_u64() % n as u64) as usize };
        TypedGraph { node_types, features, edges, root }
    }

    fn dims() -> Vec<usize> {
        vec![1, 3, 2, 5]
    }

    /// `g` with feature `p` of node `v` set to `x` (rows are appended whole,
    /// so the graph's rows are rebuilt).
    fn set_feature(g: &mut TypedGraph, v: usize, p: usize, x: f32) {
        let mut rows: Vec<Vec<f32>> = g.features.iter().map(<[f32]>::to_vec).collect();
        rows[v][p] = x;
        g.features = rows.iter().collect();
    }

    /// `g` with every feature set to `x`.
    fn fill_features(g: &mut TypedGraph, x: f32) {
        g.features = g.features.iter().map(|row| vec![x; row.len()]).collect();
    }

    fn graphs_and_targets(seed: u64, count: usize) -> (Vec<TypedGraph>, Vec<f64>) {
        let mut rng = Rng::seed(seed);
        let graphs: Vec<TypedGraph> = (0..count).map(|_| random_graph(&mut rng, &dims())).collect();
        let targets: Vec<f64> = (0..count).map(|_| (3.0 + 10.0 * rng.unit()).exp()).collect();
        (graphs, targets)
    }

    /// Every prediction entry point against the tape oracle, bit for bit:
    /// the whole slice as one batch, and each graph alone as the one-graph
    /// batch every estimate runs (`predict`, `predict_batch(&[g])`) — on the
    /// property-generated graphs plus the N = 1 packing edges.
    #[test]
    fn batched_predictions_bit_identical_to_reference() {
        let cfg = GnnConfig { hidden: 9, feature_dims: dims(), readout_hidden: 7 };
        let mut model = GnnModel::new(cfg, 17).unwrap();
        let (mut graphs, targets) = graphs_and_targets(101, 64);
        model.fit_target_norm(&targets).unwrap();
        let node = |t: usize, x: f32| (t, vec![x; dims()[t]]);
        let graph = |nodes: Vec<(usize, Vec<f32>)>, edges: Vec<(usize, usize)>, root: usize| {
            let (node_types, features): (_, Vec<_>) = nodes.into_iter().unzip();
            TypedGraph { node_types, features: features.into_iter().collect(), edges, root }
        };
        // A single node; a root followed by dead nodes; and every node fed by
        // every earlier node (one node per level, maximal fan-in).
        graphs.push(graph(vec![node(3, 0.7)], vec![], 0));
        graphs.push(graph(
            vec![node(0, 0.4), node(1, -0.2), node(2, 0.9), node(1, 0.1)],
            vec![(0, 1), (1, 2), (0, 3), (2, 3)],
            1,
        ));
        graphs.push(graph(
            (0..6).map(|i| node(i % 4, 0.1 * i as f32 - 0.3)).collect(),
            (0..6).flat_map(|d| (0..d).map(move |s| (s, d))).collect(),
            5,
        ));
        let refs: Vec<&TypedGraph> = graphs.iter().collect();
        let batched = model.predict_batch(&refs).unwrap();
        for (g, &b) in refs.iter().zip(&batched) {
            let oracle = model.predict_reference(g).unwrap().to_bits();
            assert_eq!(b.to_bits(), oracle, "prediction diverged in the batch");
            assert_eq!(model.predict(g).unwrap().to_bits(), oracle, "predict diverged");
            let alone = model.predict_batch(&[g]).unwrap();
            assert_eq!(alone.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), [oracle]);
        }
        // Several roots of one pass: every node of every graph read out at
        // once — roots at every level, children shared between roots, roots
        // followed by dead nodes — and one of them twice, each against the
        // oracle on the graph with that node as its only root.
        let mut roots: Vec<(usize, usize)> = refs
            .iter()
            .enumerate()
            .flat_map(|(gi, g)| (0..g.len()).map(move |v| (gi, v)))
            .collect();
        roots.push(roots[3]);
        let multi = model.predict_roots(&refs, &roots).unwrap();
        assert_eq!(multi.len(), roots.len());
        for (&(gi, v), y) in roots.iter().zip(&multi) {
            let alone = TypedGraph { root: v, ..refs[gi].clone() };
            let oracle = model.predict_reference(&alone).unwrap();
            assert_eq!(y.to_bits(), oracle.to_bits(), "root {v} of graph {gi} diverged");
        }
    }

    #[test]
    fn batched_training_bit_identical_to_reference_across_batch_sizes() {
        let (graphs, targets) = graphs_and_targets(555, 48);
        let adam = AdamConfig { lr: 3e-3, ..AdamConfig::default() };
        for bsz in [1usize, 2, 5, 16, 48] {
            let cfg = GnnConfig { hidden: 8, feature_dims: dims(), readout_hidden: 8 };
            let mut a = GnnModel::new(cfg.clone(), 23).unwrap();
            let mut b = GnnModel::new(cfg, 23).unwrap();
            a.fit_target_norm(&targets).unwrap();
            b.fit_target_norm(&targets).unwrap();
            for (chunk_g, chunk_t) in graphs.chunks(bsz).zip(targets.chunks(bsz)) {
                let refs: Vec<&TypedGraph> = chunk_g.iter().collect();
                let la = a.train_batch_reference(&refs, chunk_t, &adam, 1.0).unwrap();
                let lb = b.train_batch(&Serial, &refs, chunk_t, &adam, 1.0).unwrap();
                assert_eq!(la.to_bits(), lb.to_bits(), "loss diverged at batch size {bsz}");
            }
            assert_eq!(
                a.param_checksum(),
                b.param_checksum(),
                "parameters diverged at batch size {bsz}"
            );
            // And the trained models still predict identically.
            let refs: Vec<&TypedGraph> = graphs.iter().take(8).collect();
            let pb = b.predict_batch(&refs).unwrap();
            for (g, y) in refs.iter().zip(&pb) {
                assert_eq!(a.predict_reference(g).unwrap().to_bits(), y.to_bits());
            }
        }
    }

    /// An [`OrderedMap`] that computes its items last to first and returns
    /// them in item order: a step whose bits depended on the order its jobs
    /// ran in would disagree with [`Serial`].
    struct Reversed;

    impl OrderedMap for Reversed {
        fn ordered_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
        where
            T: Sync,
            R: Send,
            F: Fn(usize, &T) -> R + Sync,
        {
            let mut out: Vec<R> = items.iter().enumerate().rev().map(|(i, t)| f(i, t)).collect();
            out.reverse();
            out
        }
    }

    /// Shards against the reference, bit for bit, on [`Reversed`]: one to six
    /// shards per step, the last one ragged or full, three epochs — every
    /// loss, the parameters after each epoch (which pin the Adam moments
    /// every later step reads) and the trained model's predictions.
    #[test]
    fn sharded_steps_bit_identical_to_reference_on_any_map() {
        let (graphs, targets) = graphs_and_targets(808, 48);
        let adam = AdamConfig { lr: 3e-3, ..AdamConfig::default() };
        for bsz in [1usize, 7, 8, 9, 16, 17, 48] {
            let cfg = GnnConfig { hidden: 8, feature_dims: dims(), readout_hidden: 6 };
            let mut a = GnnModel::new(cfg.clone(), 29).unwrap();
            let mut b = GnnModel::new(cfg, 29).unwrap();
            a.fit_target_norm(&targets).unwrap();
            b.fit_target_norm(&targets).unwrap();
            for epoch in 0..3 {
                let chunks = graphs.chunks(bsz).zip(targets.chunks(bsz));
                for (step, (chunk_g, chunk_t)) in chunks.enumerate() {
                    let refs: Vec<&TypedGraph> = chunk_g.iter().collect();
                    let la = a.train_batch_reference(&refs, chunk_t, &adam, 1.0).unwrap();
                    let lb = b.train_batch(&Reversed, &refs, chunk_t, &adam, 1.0).unwrap();
                    let at = format!("batch size {bsz}, epoch {epoch}, step {step}");
                    assert_eq!(la.to_bits(), lb.to_bits(), "loss diverged at {at}");
                }
                let at = format!("batch size {bsz}, epoch {epoch}");
                assert_eq!(a.param_checksum(), b.param_checksum(), "parameters diverged at {at}");
            }
            let refs: Vec<&TypedGraph> = graphs.iter().collect();
            for (g, y) in refs.iter().zip(b.predict_batch(&refs).unwrap()) {
                assert_eq!(a.predict_reference(g).unwrap().to_bits(), y.to_bits());
            }
        }
    }

    /// Errors keep the reference's precedence, word for word, whatever shard
    /// they sit in — an invalid graph before a bad label, the first invalid
    /// graph in graph order — and a rejected step changes nothing.
    #[test]
    fn sharded_errors_keep_the_reference_precedence() {
        let (mut graphs, mut targets) = graphs_and_targets(41, 17);
        let cfg = GnnConfig { hidden: 8, feature_dims: dims(), readout_hidden: 8 };
        let mut model = GnnModel::new(cfg, 3).unwrap();
        model.fit_target_norm(&targets).unwrap();
        let (adam, params) = (AdamConfig::default(), model.param_checksum());
        let mut check = |graphs: &[TypedGraph], targets: &[f64], names: &str| {
            let refs: Vec<&TypedGraph> = graphs.iter().collect();
            let engine = model.train_batch(&Reversed, &refs, targets, &adam, 1.0);
            let reference = model.train_batch_reference(&refs, targets, &adam, 1.0);
            match (&engine, &reference) {
                (Err(GracefulError::Model(m)), Err(_)) => assert!(m.contains(names), "{m}"),
                _ => panic!("{engine:?} / {reference:?}"),
            }
            assert_eq!(engine, reference);
            assert_eq!(model.param_checksum(), params);
        };
        targets[2] = f64::INFINITY;
        check(&graphs, &targets, "label 2 is inf");
        set_feature(&mut graphs[12], 0, 0, f32::NAN);
        check(&graphs, &targets, "feature NaN");
        graphs[9].root = graphs[9].len();
        check(&graphs, &targets, "root out of bounds");
    }

    /// Finite features can overflow the forward pass. No estimate is then
    /// `Ok(inf)` or `Ok(NaN)`: `predict`, `predict_batch` and `predict_roots`
    /// return a typed error naming the root, and the other roots still
    /// estimate.
    #[test]
    fn estimates_that_overflow_are_typed_errors_naming_the_root() {
        let (graphs, targets) = graphs_and_targets(12, 2);
        let cfg = GnnConfig { hidden: 8, feature_dims: dims(), readout_hidden: 8 };
        let mut model = GnnModel::new(cfg, 6).unwrap();
        model.fit_target_norm(&targets).unwrap();
        for x in [1e10, f32::MAX] {
            let mut huge = graphs[1].clone();
            fill_features(&mut huge, x);
            let refs = [&graphs[0], &huge];
            let roots = [(0, graphs[0].root), (1, huge.root)];
            for (result, names) in [
                (model.predict(&huge).map(|y| vec![y]), format!("root {} of graph 0 ", huge.root)),
                (model.predict_batch(&refs), format!("root {} of graph 1 ", huge.root)),
                (model.predict_roots(&refs, &roots), format!("root {} of graph 1 ", huge.root)),
            ] {
                match result {
                    Err(GracefulError::Model(m)) => assert!(m.contains(&names), "{x}: {m}"),
                    other => panic!("{x}: expected a typed Model error, got {other:?}"),
                }
            }
            assert!(model.predict_roots(&refs, &roots[..1]).unwrap()[0].is_finite());
        }
    }

    /// Estimates run shard by shard. A batch of `3 × SHARD_GRAPHS + 3` graphs
    /// of mixed sizes keeps the oracle's bits on each graph, and roots that
    /// cross shards, come in reversed graph order, repeat and share a graph
    /// read out, in root order, the bits of each graph with that root alone.
    #[test]
    fn sharded_estimates_bit_identical_to_reference() {
        let cfg = GnnConfig { hidden: 8, feature_dims: dims(), readout_hidden: 6 };
        let mut model = GnnModel::new(cfg, 31).unwrap();
        let (graphs, targets) = graphs_and_targets(303, 3 * SHARD_GRAPHS + 3);
        model.fit_target_norm(&targets).unwrap();
        let refs: Vec<&TypedGraph> = graphs.iter().collect();
        let oracle = |gi: usize, v: usize| {
            let alone = TypedGraph { root: v, ..refs[gi].clone() };
            model.predict_reference(&alone).unwrap().to_bits()
        };
        let batch = model.predict_batch(&refs).unwrap();
        for (gi, (g, y)) in refs.iter().zip(&batch).enumerate() {
            assert_eq!(y.to_bits(), oracle(gi, g.root), "graph {gi} diverged in the batch");
        }
        // Two roots per graph, graphs last to first, then repeats from both
        // ends and from the first graph of the second shard.
        let mut roots: Vec<(usize, usize)> =
            (0..refs.len()).rev().flat_map(|gi| [(gi, refs[gi].len() - 1), (gi, 0)]).collect();
        roots.extend([(0, 1), (refs.len() - 1, 1), (SHARD_GRAPHS, 0), (0, 1)]);
        let multi = model.predict_roots(&refs, &roots).unwrap();
        assert_eq!(multi.len(), roots.len());
        for (&(gi, v), y) in roots.iter().zip(&multi) {
            assert_eq!(y.to_bits(), oracle(gi, v), "root {v} of graph {gi} diverged");
        }
    }

    /// Errors of a sharded estimate name the graph by its index in the batch:
    /// an overflow in the second shard names `graph 9`, also behind an
    /// overflow in an earlier shard whose root comes later, and an invalid
    /// graph or an out-of-range root there is reported before any shard runs.
    #[test]
    fn sharded_estimate_errors_name_the_batch_index() {
        let (mut graphs, targets) = graphs_and_targets(12, 2 * SHARD_GRAPHS + 1);
        let cfg = GnnConfig { hidden: 8, feature_dims: dims(), readout_hidden: 8 };
        let mut model = GnnModel::new(cfg, 6).unwrap();
        model.fit_target_norm(&targets).unwrap();
        let at = SHARD_GRAPHS + 1;
        let (r1, r9, len9) = (graphs[1].root, graphs[at].root, graphs[at].len());
        let overflow = |g: &mut TypedGraph| fill_features(g, 1e30);
        let check = |graphs: &[TypedGraph], roots: Option<&[(usize, usize)]>, names: &str| {
            let refs: Vec<&TypedGraph> = graphs.iter().collect();
            let result = match roots {
                Some(roots) => model.predict_roots(&refs, roots),
                None => model.predict_batch(&refs),
            };
            match result {
                Err(GracefulError::Model(m)) => assert!(m.contains(names), "{m}"),
                other => panic!("expected a Model error naming {names:?}, got {other:?}"),
            }
        };
        overflow(&mut graphs[at]);
        check(&graphs, None, &format!("root {r9} of graph 9 "));
        overflow(&mut graphs[1]);
        check(&graphs, None, &format!("root {r1} of graph 1 "));
        check(&graphs, Some(&[(0, 0), (at, r9), (1, r1)]), &format!("root {r9} of graph 9 "));
        check(&graphs, Some(&[(1, r1), (at, len9)]), &format!("root {len9} of graph 9 out of"));
        set_feature(&mut graphs[at], 0, 0, f32::NAN);
        check(&graphs, Some(&[(1, r1)]), "has feature NaN");
    }

    #[test]
    fn dead_nodes_after_root_do_not_contribute_gradients() {
        // A graph whose root is node 0: every other node is dead weight.
        let g = TypedGraph {
            node_types: vec![0, 1, 2],
            features: [&[0.4][..], &[0.1, -0.2, 0.3], &[0.9, -0.7]].into_iter().collect(),
            edges: vec![(0, 1), (1, 2)],
            root: 0,
        };
        let cfg = GnnConfig { hidden: 6, feature_dims: dims(), readout_hidden: 4 };
        let mut a = GnnModel::new(cfg.clone(), 3).unwrap();
        let mut b = GnnModel::new(cfg, 3).unwrap();
        a.fit_target_norm(&[100.0]).unwrap();
        b.fit_target_norm(&[100.0]).unwrap();
        let adam = AdamConfig::default();
        for _ in 0..5 {
            let la = a.train_batch_reference(&[&g], &[100.0], &adam, 1.0);
            let lb = b.train_batch(&Serial, &[&g], &[100.0], &adam, 1.0);
            assert_eq!(la.unwrap().to_bits(), lb.unwrap().to_bits());
        }
        assert_eq!(a.param_checksum(), b.param_checksum());
    }

    /// A step whose loss is not finite — here from features that are finite
    /// but overflow the forward pass — is a typed error on the engine and the
    /// reference alike, and changes nothing: not the parameters, and not the
    /// Adam moments or step count (the next good step matches a twin's that
    /// never saw it). Estimates on good graphs stay finite.
    #[test]
    fn a_non_finite_step_is_rejected_and_changes_nothing() {
        let (graphs, targets) = graphs_and_targets(77, 4);
        let refs: Vec<&TypedGraph> = graphs.iter().collect();
        let cfg = GnnConfig { hidden: 8, feature_dims: dims(), readout_hidden: 8 };
        let adam = AdamConfig::default();
        let (mut model, mut twin) =
            (GnnModel::new(cfg.clone(), 5).unwrap(), GnnModel::new(cfg, 5).unwrap());
        for m in [&mut model, &mut twin] {
            m.fit_target_norm(&targets).unwrap();
            m.train_batch(&Serial, &refs, &targets, &adam, 1.0).unwrap();
        }
        let mut huge = graphs[0].clone();
        fill_features(&mut huge, f32::MAX);
        let params = model.param_checksum();
        for result in [
            model.train_batch(&Serial, &[&huge], &[1e4], &adam, 1.0),
            model.train_batch_reference(&[&huge], &[1e4], &adam, 1.0),
        ] {
            assert!(matches!(result, Err(GracefulError::Model(_))), "{result:?}");
            assert_eq!(model.param_checksum(), params);
        }
        model.train_batch(&Serial, &refs, &targets, &adam, 1.0).unwrap();
        twin.train_batch(&Serial, &refs, &targets, &adam, 1.0).unwrap();
        assert_eq!(model.param_checksum(), twin.param_checksum());
        assert!(model.predict_batch(&refs).unwrap().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn empty_and_mismatched_batches_error() {
        let cfg = GnnConfig { hidden: 4, feature_dims: dims(), readout_hidden: 4 };
        let mut m = GnnModel::new(cfg, 1).unwrap();
        let adam = AdamConfig::default();
        assert!(m.train_batch(&Serial, &[], &[], &adam, 1.0).is_err());
        let (graphs, _) = graphs_and_targets(9, 2);
        let refs: Vec<&TypedGraph> = graphs.iter().collect();
        assert!(m.train_batch(&Serial, &refs, &[1.0], &adam, 1.0).is_err());
        assert!(m.predict_batch(&[]).unwrap().is_empty());
        assert!(m.predict_roots(&refs, &[]).unwrap().is_empty());
        for root in [(0, refs[0].len()), (refs.len(), 0)] {
            let out_of_range = m.predict_roots(&refs, &[(0, 0), root]);
            assert!(matches!(out_of_range, Err(GracefulError::Model(_))), "{out_of_range:?}");
        }
    }
}
