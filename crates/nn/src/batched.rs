//! Level-synchronous, graph-vectorized GNN execution.
//!
//! The engine behind every estimate and every training step. The
//! node-at-a-time reference it is verified against
//! ([`GnnModel::predict_reference`], [`GnnModel::train_batch_reference`])
//! builds a fresh tape per graph and runs every per-type MLP on `1×f` row
//! tensors — for a hidden width of 32 that means cloning a `64×32` weight matrix onto
//! the tape per node per layer and paying allocator overhead per op. This
//! module replaces that with a **batched** pass (a single graph is a batch
//! of one):
//!
//! 1. A whole mini-batch of [`TypedGraph`]s is packed into one
//!    [`GraphBatch`]: global node ids (graph-major), per-node topological
//!    *levels* (`0` for leaves, `1 + max(child level)` otherwise), child and
//!    parent adjacency, and node *groups* keyed by `(level, type)`.
//! 2. The forward pass walks levels bottom-up; each group runs its type's
//!    encoder/updater MLP **once** on an `N×f` matrix. Child aggregation
//!    sums child states in fixed child order (the pinned in-order reduction
//!    of [`Tensor::segment_sum`], fused into the joint-matrix assembly so no
//!    intermediate gather materializes; the standalone `Tensor`/`Tape`
//!    segment ops expose the same reduction as general-purpose API).
//! 3. The backward pass walks levels top-down, computing all row gradients
//!    with batched matmuls, then accumulates parameter gradients in a final
//!    pass that replays the reference's accumulation order exactly.
//!
//! # Why the result is bit-identical to the reference
//!
//! Every row of a matrix product is computed independently by the `Tensor`
//! kernels (same inner loops, same `a == 0.0` skips), so batching never
//! changes per-row values. The two places floats actually *reduce* across
//! rows are pinned to the reference's order:
//!
//! * **Child aggregation** sums child states in child-list order from zero —
//!   the same chain as the reference's `sum_rows`.
//! * **Parameter gradients**: the reference accumulates per-use
//!   contributions into the store in reverse-tape order per graph, graphs in
//!   batch order — i.e. for each parameter of node type `t`: graph 0's type-
//!   `t` nodes in *descending* node order, then graph 1's, and so on. The
//!   final pass here gathers each type's per-node gradient rows in exactly
//!   that `(graph ascending, node descending)` order and reduces them
//!   in-order via [`Tensor::transpose_a_matmul`] (whose accumulation loop is
//!   row-major) and in-order column sums. Gradient flow *into* a node state
//!   likewise folds parent contributions in descending parent order, readout
//!   first — matching the reference's reverse-tape accumulation.
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
//! last node) are skipped in backward, exactly as the reference's `None`
//! gradient slots skip them.

use crate::gnn::{huber, GnnModel, TypedGraph};
use crate::mlp::{AdamConfig, Linear, Mlp, ParamStore, LEAKY_SLOPE};
use crate::tensor::Tensor;
use graceful_common::{GracefulError, Result};
use std::collections::BTreeMap;

/// One `(level, type)` node group of a packed batch.
struct Group {
    ty: usize,
    /// Global node ids, ascending.
    nodes: Vec<usize>,
}

/// A mini-batch of graphs packed for level-synchronous execution.
///
/// Adjacency is CSR-shaped (offset + data arrays) — packing happens once
/// per training step, so it avoids per-node `Vec` allocations.
struct GraphBatch {
    /// Total node count across the batch.
    n: usize,
    /// First global node id per graph (length `graphs + 1`).
    offsets: Vec<usize>,
    /// Node type per global node.
    types: Vec<usize>,
    /// Owning graph per global node.
    node_graph: Vec<usize>,
    /// CSR offsets into `child_dat` (length `n + 1`).
    child_off: Vec<usize>,
    /// Children (global ids, edge order), all nodes concatenated.
    child_dat: Vec<usize>,
    /// CSR offsets into `parent_dat` (length `n + 1`).
    parent_off: Vec<usize>,
    /// Parents (global ids, descending, one entry per edge), concatenated.
    parent_dat: Vec<usize>,
    /// Global node ids read out, one per requested `(graph, node)` root
    /// (training: exactly one per graph, in graph order).
    roots: Vec<usize>,
    /// Nodes per type (ascending) — the encoder grouping, which needs no
    /// levels because encodings depend only on the node's own features.
    type_nodes: Vec<Vec<usize>>,
    /// Groups ordered by (level ascending, type ascending) — the updater
    /// grouping.
    groups: Vec<Group>,
}

impl GraphBatch {
    fn pack(graphs: &[&TypedGraph], roots: &[(usize, usize)], n_types: usize) -> GraphBatch {
        let n: usize = graphs.iter().map(|g| g.len()).sum();
        let n_edges: usize = graphs.iter().map(|g| g.edges.len()).sum();
        let mut offsets = Vec::with_capacity(graphs.len() + 1);
        let mut types = Vec::with_capacity(n);
        let mut node_graph = Vec::with_capacity(n);
        let mut off = 0usize;
        for (gi, g) in graphs.iter().enumerate() {
            offsets.push(off);
            types.extend_from_slice(&g.node_types);
            node_graph.extend(std::iter::repeat_n(gi, g.len()));
            off += g.len();
        }
        offsets.push(off);
        let roots = roots.iter().map(|&(g, v)| offsets[g] + v).collect();
        // CSR adjacency: degree count, prefix sum, ordered fill (children
        // keep edge order; parents are sorted descending afterwards).
        let mut child_off = vec![0usize; n + 1];
        let mut parent_off = vec![0usize; n + 1];
        for (gi, g) in graphs.iter().enumerate() {
            let base = offsets[gi];
            for &(s, d) in &g.edges {
                child_off[base + d + 1] += 1;
                parent_off[base + s + 1] += 1;
            }
        }
        for v in 0..n {
            child_off[v + 1] += child_off[v];
            parent_off[v + 1] += parent_off[v];
        }
        let mut child_dat = vec![0usize; n_edges];
        let mut parent_dat = vec![0usize; n_edges];
        let mut child_cur = child_off.clone();
        let mut parent_cur = parent_off.clone();
        for (gi, g) in graphs.iter().enumerate() {
            let base = offsets[gi];
            for &(s, d) in &g.edges {
                child_dat[child_cur[base + d]] = base + s;
                child_cur[base + d] += 1;
                parent_dat[parent_cur[base + s]] = base + d;
                parent_cur[base + s] += 1;
            }
        }
        // Topological levels (children have smaller ids, so one forward scan
        // suffices); parents sorted descending for the backward fold.
        let mut levels = vec![0usize; n];
        for v in 0..n {
            levels[v] = child_dat[child_off[v]..child_off[v + 1]]
                .iter()
                .map(|&c| levels[c] + 1)
                .max()
                .unwrap_or(0);
            parent_dat[parent_off[v]..parent_off[v + 1]].sort_unstable_by(|a, b| b.cmp(a));
        }
        let mut type_nodes: Vec<Vec<usize>> = vec![Vec::new(); n_types];
        let mut buckets: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for v in 0..n {
            type_nodes[types[v]].push(v);
            buckets.entry((levels[v], types[v])).or_default().push(v);
        }
        let groups = buckets.into_iter().map(|((_, ty), nodes)| Group { ty, nodes }).collect();
        GraphBatch {
            n,
            offsets,
            types,
            node_graph,
            child_off,
            child_dat,
            parent_off,
            parent_dat,
            roots,
            type_nodes,
            groups,
        }
    }

    /// Children of `v` (edge order).
    fn children(&self, v: usize) -> &[usize] {
        &self.child_dat[self.child_off[v]..self.child_off[v + 1]]
    }

    /// Parents of `v` (descending, one entry per edge).
    fn parents(&self, v: usize) -> &[usize] {
        &self.parent_dat[self.parent_off[v]..self.parent_off[v + 1]]
    }
}

/// Forward trace of one batched MLP application (per-layer inputs and
/// pre-activation outputs, needed by backward).
struct MlpTrace {
    inputs: Vec<Tensor>,
    pre: Vec<Tensor>,
}

/// Mirror of [`Mlp::forward`] over an `N×in` matrix: LeakyReLU between
/// layers, none after the last. Returns the final pre-activation output.
fn mlp_forward(mlp: &Mlp, store: &ParamStore, x: Tensor) -> (Tensor, MlpTrace) {
    let mut trace = MlpTrace { inputs: Vec::new(), pre: Vec::new() };
    let last = mlp.layers.len() - 1;
    let mut cur = x;
    for (i, layer) in mlp.layers.iter().enumerate() {
        let mut y = cur.matmul(store.value(layer.w));
        y.add_row_broadcast(store.value(layer.b));
        trace.inputs.push(cur);
        trace.pre.push(y.clone());
        if i != last {
            y.leaky_relu_assign(LEAKY_SLOPE);
        }
        cur = y;
    }
    (cur, trace)
}

/// LeakyReLU adjoint: scale gradient entries whose pre-activation was
/// negative (same predicate as the reference's tape op).
fn leaky_mask(grad: &mut Tensor, pre: &Tensor) {
    debug_assert_eq!(grad.data.len(), pre.data.len());
    for (g, &x) in grad.data.iter_mut().zip(&pre.data) {
        if x < 0.0 {
            *g *= LEAKY_SLOPE;
        }
    }
}

/// [`leaky_mask`] with the pre-activation rows looked up in a stash matrix
/// (row `i` of `grad` masks against row `rows[i]` of `pre`), avoiding a
/// gather allocation.
fn leaky_mask_rows(grad: &mut Tensor, pre: &Tensor, rows: &[usize]) {
    debug_assert_eq!(grad.rows, rows.len());
    for (i, &v) in rows.iter().enumerate() {
        let g = &mut grad.data[i * grad.cols..(i + 1) * grad.cols];
        for (gi, &x) in g.iter_mut().zip(pre.row_slice(v)) {
            if x < 0.0 {
                *gi *= LEAKY_SLOPE;
            }
        }
    }
}

/// Accumulate one linear layer's parameter gradients from `x` (layer input,
/// canonical row order) and `gy` (gradient at the pre-activation output).
/// `transpose_a_matmul` reduces row-major, and the column sums scan rows
/// ascending, so the float chains equal the reference's per-use adds.
fn accumulate_linear(store: &mut ParamStore, layer: &Linear, x: &Tensor, gy: &Tensor) {
    let gw = x.transpose_a_matmul(gy);
    store.grad_mut(layer.w).add_assign(&gw);
    let mut gb = Tensor::zeros(1, gy.cols);
    for r in 0..gy.rows {
        for (b, &g) in gb.data.iter_mut().zip(gy.row_slice(r)) {
            *b += g;
        }
    }
    store.grad_mut(layer.b).add_assign(&gb);
}

/// Column-split a `N×(ca+cb)` matrix (the adjoint of a row-wise concat).
fn split_cols(m: &Tensor, ca: usize) -> (Tensor, Tensor) {
    let cb = m.cols - ca;
    let mut a = Tensor::zeros(m.rows, ca);
    let mut b = Tensor::zeros(m.rows, cb);
    for r in 0..m.rows {
        let row = m.row_slice(r);
        a.data[r * ca..(r + 1) * ca].copy_from_slice(&row[..ca]);
        b.data[r * cb..(r + 1) * cb].copy_from_slice(&row[ca..]);
    }
    (a, b)
}

/// Copy `src` rows into `dst` at the given row indices (plain overwrite).
fn scatter_copy(dst: &mut Tensor, rows: &[usize], src: &Tensor) {
    debug_assert_eq!(rows.len(), src.rows);
    debug_assert_eq!(dst.cols, src.cols);
    for (i, &r) in rows.iter().enumerate() {
        dst.data[r * dst.cols..(r + 1) * dst.cols].copy_from_slice(src.row_slice(i));
    }
}

/// Everything forward computes that backward (or prediction) needs.
struct BatchedForward {
    batch: GraphBatch,
    /// Encoder pre-activation per node (`n×h`).
    enc_pre: Tensor,
    /// Updater layer-1 input (`[enc, agg]`, `n×2h`).
    upd1_in: Tensor,
    /// Updater layer-1 pre-activation (`n×h`).
    upd1_pre: Tensor,
    /// Updater layer-2 input (`n×h`).
    upd2_in: Tensor,
    /// Updater layer-2 pre-activation (`n×h`).
    upd2_pre: Tensor,
    /// Readout trace over the `R×h` root-state matrix.
    readout: MlpTrace,
    /// Normalized log-space predictions, one per root.
    preds: Vec<f32>,
}

/// Gather the feature rows of `nodes` (all of one type) into an `N×width`
/// matrix.
fn gather_features(
    batch: &GraphBatch,
    graphs: &[&TypedGraph],
    nodes: &[usize],
    width: usize,
) -> Tensor {
    let mut x = Tensor::zeros(nodes.len(), width);
    for (i, &v) in nodes.iter().enumerate() {
        let g = batch.node_graph[v];
        x.data[i * width..(i + 1) * width]
            .copy_from_slice(&graphs[g].features[v - batch.offsets[g]]);
    }
    x
}

/// Level-synchronous forward over a validated batch, reading out the state
/// of every `(graph, node)` in `roots`.
fn forward(model: &GnnModel, graphs: &[&TypedGraph], roots: &[(usize, usize)]) -> BatchedForward {
    // The engine hard-codes the architecture `GnnModel::new` builds
    // (1-layer encoders, 2-layer updaters); fail loudly if that ever drifts
    // rather than silently dropping layers.
    assert!(
        model.encoders.iter().all(|e| e.layers.len() == 1)
            && model.updaters.iter().all(|u| u.layers.len() == 2),
        "batched GNN engine expects 1-layer encoders and 2-layer updaters"
    );
    let batch = GraphBatch::pack(graphs, roots, model.config.feature_dims.len());
    let h = model.config.hidden;
    let n = batch.n;
    let store = &model.store;
    let mut enc_pre = Tensor::zeros(n, h);
    let mut enc_post = Tensor::zeros(n, h);
    let mut upd1_in = Tensor::zeros(n, 2 * h);
    let mut upd1_pre = Tensor::zeros(n, h);
    let mut upd2_in = Tensor::zeros(n, h);
    let mut upd2_pre = Tensor::zeros(n, h);
    let mut h_all = Tensor::zeros(n, h);
    // Encoders depend only on each node's own features, so they run once
    // per *type* over every node of that type — the largest matrices the
    // batch affords.
    for (ty, nodes) in batch.type_nodes.iter().enumerate() {
        if nodes.is_empty() {
            continue;
        }
        let width = model.config.feature_dims[ty];
        let x = gather_features(&batch, graphs, nodes, width);
        // Encoders are single-layer MLPs; apply the linear layer directly.
        let enc_layer = &model.encoders[ty].layers[0];
        let mut e_pre = x.matmul(store.value(enc_layer.w));
        e_pre.add_row_broadcast(store.value(enc_layer.b));
        scatter_copy(&mut enc_pre, nodes, &e_pre);
        let mut e_post = e_pre;
        e_post.leaky_relu_assign(LEAKY_SLOPE);
        scatter_copy(&mut enc_post, nodes, &e_post);
    }
    // Updaters run level-synchronously: one application per (level, type)
    // group, children always resolved at lower levels. The loop is written
    // allocation-lean (small batches make per-group overhead the bottleneck):
    // the joint input is assembled in place and every intermediate is moved
    // into its stash rather than cloned.
    for group in &batch.groups {
        let ty = group.ty;
        let rows = &group.nodes;
        let nrows = rows.len();
        // joint = [enc_post | agg]: the left half is copied, the right half
        // accumulates child states in fixed child order from zero — the
        // reference's `sum_rows` chain (leaves aggregate to zero rows,
        // matching the reference's shared zero input).
        let mut joint = Tensor::zeros(nrows, 2 * h);
        for (i, &v) in rows.iter().enumerate() {
            let row = &mut joint.data[i * 2 * h..(i + 1) * 2 * h];
            row[..h].copy_from_slice(enc_post.row_slice(v));
            for &c in batch.children(v) {
                for (d, &x) in row[h..].iter_mut().zip(h_all.row_slice(c)) {
                    *d += x;
                }
            }
        }
        let upd = &model.updaters[ty];
        let mut y1 = joint.matmul(store.value(upd.layers[0].w));
        y1.add_row_broadcast(store.value(upd.layers[0].b));
        scatter_copy(&mut upd1_in, rows, &joint);
        scatter_copy(&mut upd1_pre, rows, &y1);
        let mut z1 = y1;
        z1.leaky_relu_assign(LEAKY_SLOPE);
        let mut y2 = z1.matmul(store.value(upd.layers[1].w));
        y2.add_row_broadcast(store.value(upd.layers[1].b));
        scatter_copy(&mut upd2_in, rows, &z1);
        scatter_copy(&mut upd2_pre, rows, &y2);
        let mut state = y2;
        state.leaky_relu_assign(LEAKY_SLOPE);
        scatter_copy(&mut h_all, rows, &state);
    }
    let root_states = h_all.gather_rows(&batch.roots);
    let (r_out, readout) = mlp_forward(&model.readout, store, root_states);
    let preds = (0..roots.len()).map(|r| r_out.get(r, 0)).collect();
    BatchedForward { batch, enc_pre, upd1_in, upd1_pre, upd2_in, upd2_pre, readout, preds }
}

/// Backward from per-graph loss-derivative seeds, accumulating parameter
/// gradients into the store in the reference's order.
fn backward(model: &mut GnnModel, fwd: &BatchedForward, graphs: &[&TypedGraph], seeds: &[f32]) {
    let batch = &fwd.batch;
    let n = batch.n;
    let h = model.config.hidden;
    let n_graphs = seeds.len();
    // Liveness: a node's state reaches the loss iff it is a root or has a
    // live parent (the reference's `None` gradient slots skip the rest).
    let mut live = vec![false; n];
    for &r in &batch.roots {
        live[r] = true;
    }
    for v in (0..n).rev() {
        if !live[v] {
            live[v] = batch.parents(v).iter().any(|&p| live[p]);
        }
    }
    // Readout backward over the B×h root matrix. Rows are graphs ascending,
    // which is the reference's store-accumulation order for readout params,
    // so parameters can be accumulated directly here.
    let mut g = Tensor::zeros(n_graphs, 1);
    for (i, &s) in seeds.iter().enumerate() {
        g.data[i] = s;
    }
    let last = model.readout.layers.len() - 1;
    for l in (0..=last).rev() {
        if l != last {
            leaky_mask(&mut g, &fwd.readout.pre[l]);
        }
        let layer = model.readout.layers[l];
        accumulate_linear(&mut model.store, &layer, &fwd.readout.inputs[l], &g);
        // `matmul` against the materialized transpose is bit-identical to
        // `matmul_transpose_b` (see `Tensor::transpose`) but vectorizes.
        g = g.matmul(&model.store.value(layer.w).transpose());
    }
    let g_roots = g; // B×h gradient at the root states
                     // Transpose every updater weight once per step; the level loop below
                     // reuses them for all groups of that type.
    let upd_t: Vec<(Tensor, Tensor)> = model
        .updaters
        .iter()
        .map(|u| {
            (
                model.store.value(u.layers[0].w).transpose(),
                model.store.value(u.layers[1].w).transpose(),
            )
        })
        .collect();
    // Per-node gradient rows (filled as levels are processed, top-down).
    let mut g_h = Tensor::zeros(n, h);
    let mut g_agg = Tensor::zeros(n, h);
    let mut g_upd1_pre = Tensor::zeros(n, h);
    let mut g_upd2_pre = Tensor::zeros(n, h);
    let mut g_enc_pre = Tensor::zeros(n, h);
    let mut seeded = vec![false; n];
    for (i, &r) in batch.roots.iter().enumerate() {
        // First contribution to a root state comes from the readout (pushed
        // last on the reference tape, so visited first).
        g_h.data[r * h..(r + 1) * h].copy_from_slice(g_roots.row_slice(i));
        seeded[r] = true;
    }
    for group in batch.groups.iter().rev() {
        let rows: Vec<usize> = group.nodes.iter().copied().filter(|&v| live[v]).collect();
        if rows.is_empty() {
            continue;
        }
        // Fold parent contributions into each state gradient, descending
        // parent order (reverse tape), after any readout seed.
        for &v in &rows {
            for &p in batch.parents(v) {
                if !live[p] {
                    continue;
                }
                let (dst, src) = (v * h, p * h);
                if !seeded[v] {
                    g_h.data[dst..dst + h].copy_from_slice(&g_agg.data[src..src + h]);
                    seeded[v] = true;
                } else {
                    for c in 0..h {
                        g_h.data[dst + c] += g_agg.data[src + c];
                    }
                }
            }
        }
        // Through the trailing state activation into updater layer 2.
        let mut gy2 = g_h.gather_rows(&rows);
        leaky_mask_rows(&mut gy2, &fwd.upd2_pre, &rows);
        let (w1t, w2t) = &upd_t[group.ty];
        let gz1 = gy2.matmul(w2t);
        scatter_copy(&mut g_upd2_pre, &rows, &gy2);
        // Through the inter-layer activation into updater layer 1.
        let mut gy1 = gz1;
        leaky_mask_rows(&mut gy1, &fwd.upd1_pre, &rows);
        let gjoint = gy1.matmul(w1t);
        scatter_copy(&mut g_upd1_pre, &rows, &gy1);
        // Split the joint gradient into encoder and aggregation parts.
        let (genc_post, gagg) = split_cols(&gjoint, h);
        scatter_copy(&mut g_agg, &rows, &gagg);
        // Through the encoder activation (features are inputs; flow stops).
        let mut gye = genc_post;
        leaky_mask_rows(&mut gye, &fwd.enc_pre, &rows);
        scatter_copy(&mut g_enc_pre, &rows, &gye);
    }
    // Final pass: parameter-gradient accumulation in the reference's
    // canonical order — for every type, live nodes sorted (graph ascending,
    // node descending).
    let n_types = model.config.feature_dims.len();
    for ty in 0..n_types {
        let mut canon: Vec<usize> = Vec::new();
        for gidx in 0..n_graphs {
            for v in (batch.offsets[gidx]..batch.offsets[gidx + 1]).rev() {
                if batch.types[v] == ty && live[v] {
                    canon.push(v);
                }
            }
        }
        if canon.is_empty() {
            continue;
        }
        let upd = model.updaters[ty].clone();
        accumulate_linear(
            &mut model.store,
            &upd.layers[1],
            &fwd.upd2_in.gather_rows(&canon),
            &g_upd2_pre.gather_rows(&canon),
        );
        accumulate_linear(
            &mut model.store,
            &upd.layers[0],
            &fwd.upd1_in.gather_rows(&canon),
            &g_upd1_pre.gather_rows(&canon),
        );
        // Encoder inputs are the raw feature rows (regathered from the
        // graphs; they are not stashed because widths vary per type).
        let enc = model.encoders[ty].clone();
        let x = gather_features(batch, graphs, &canon, model.config.feature_dims[ty]);
        accumulate_linear(&mut model.store, &enc.layers[0], &x, &g_enc_pre.gather_rows(&canon));
    }
}

/// Each graph's own root, in graph order: the root list of a plain batch.
pub(crate) fn own_roots(graphs: &[&TypedGraph]) -> Vec<(usize, usize)> {
    graphs.iter().enumerate().map(|(gi, g)| (gi, g.root)).collect()
}

/// Predict runtimes (ns) at every `(graph, node)` of `roots`, in one pass
/// over the packed graphs.
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
    let fwd = forward(model, graphs, roots);
    Ok(fwd
        .preds
        .iter()
        .map(|&p| ((p * model.target_std + model.target_mean) as f64).exp())
        .collect())
}

/// One batched training step (bit-identical to the reference).
pub(crate) fn train_batch(
    model: &mut GnnModel,
    graphs: &[&TypedGraph],
    targets_ns: &[f64],
    adam: &AdamConfig,
    huber_delta: f32,
) -> Result<f32> {
    if graphs.is_empty() || graphs.len() != targets_ns.len() {
        return Err(GracefulError::Model("empty or mismatched batch".into()));
    }
    for g in graphs {
        g.validate(&model.config.feature_dims)?;
    }
    model.store.zero_grad();
    let fwd = forward(model, graphs, &own_roots(graphs));
    let bsz = graphs.len() as f32;
    let mut total_loss = 0.0f32;
    let mut seeds = Vec::with_capacity(graphs.len());
    for (i, &t_ns) in targets_ns.iter().enumerate() {
        let target = model.normalized_target(t_ns);
        let (loss, dloss) = huber(fwd.preds[i] - target, huber_delta);
        total_loss += loss;
        seeds.push(dloss / bsz);
    }
    backward(model, &fwd, graphs, &seeds);
    model.store.adam_step(adam);
    Ok(total_loss / bsz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnn::GnnConfig;
    use graceful_common::rng::Rng;

    /// Random typed DAG with heterogeneous fan-in, shared children, multiple
    /// levels and (sometimes) trailing nodes after the root — the shapes that
    /// stress level packing, liveness and gradient-fold order.
    fn random_graph(rng: &mut Rng, feature_dims: &[usize]) -> TypedGraph {
        let n = 2 + (rng.next_u64() % 14) as usize;
        let mut node_types = Vec::with_capacity(n);
        let mut features = Vec::with_capacity(n);
        for _ in 0..n {
            let t = (rng.next_u64() % feature_dims.len() as u64) as usize;
            node_types.push(t);
            features.push((0..feature_dims[t]).map(|_| rng.range(-1.0..1.0) as f32).collect());
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
            let (node_types, features) = nodes.into_iter().unzip();
            TypedGraph { node_types, features, edges, root }
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
                let lb = b.train_batch(&refs, chunk_t, &adam, 1.0).unwrap();
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

    #[test]
    fn dead_nodes_after_root_do_not_contribute_gradients() {
        // A graph whose root is node 0: every other node is dead weight.
        let g = TypedGraph {
            node_types: vec![0, 1, 2],
            features: vec![vec![0.4], vec![0.1, -0.2, 0.3], vec![0.9, -0.7]],
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
            let lb = b.train_batch(&[&g], &[100.0], &adam, 1.0);
            assert_eq!(la.unwrap().to_bits(), lb.unwrap().to_bits());
        }
        assert_eq!(a.param_checksum(), b.param_checksum());
    }

    #[test]
    fn empty_and_mismatched_batches_error() {
        let cfg = GnnConfig { hidden: 4, feature_dims: dims(), readout_hidden: 4 };
        let mut m = GnnModel::new(cfg, 1).unwrap();
        let adam = AdamConfig::default();
        assert!(m.train_batch(&[], &[], &adam, 1.0).is_err());
        let (graphs, _) = graphs_and_targets(9, 2);
        let refs: Vec<&TypedGraph> = graphs.iter().collect();
        assert!(m.train_batch(&refs, &[1.0], &adam, 1.0).is_err());
        assert!(m.predict_batch(&[]).unwrap().is_empty());
        assert!(m.predict_roots(&refs, &[]).unwrap().is_empty());
        for root in [(0, refs[0].len()), (refs.len(), 0)] {
            let out_of_range = m.predict_roots(&refs, &[(0, 0), root]);
            assert!(matches!(out_of_range, Err(GracefulError::Model(_))), "{out_of_range:?}");
        }
    }
}
