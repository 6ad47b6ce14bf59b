//! Joint query–UDF graph featurization (Section III).
//!
//! The featurizer turns an annotated plan (+ its UDF) into the
//! [`TypedGraph`] the GNN consumes:
//!
//! * **query part** — one node per plan operator with log-scaled estimated
//!   cardinalities (the representation of Hilprecht & Binnig \[11\]); TABLE
//!   and COLUMN nodes feed scans and filters,
//! * **UDF part** — the transformed DAG of `graceful-cfg` with Table I
//!   features; `in_rows` comes from the hit-ratio machinery,
//! * **stitching** (Section III-C) — COLUMN → INV and COLUMN → COMP
//!   data-flow edges, child-operator → INV, RET → consuming FILTER (with the
//!   `on-udf` flag) or RET → UDF_PROJECT node.
//!
//! One emitter serves one plan and a *ladder*: one plan's structure with one
//! estimate vector per variant in place of its `est_out_rows`
//! ([`Featurizer::featurize_ladder`]). An operator is emitted once for all
//! variants whose estimates agree, bit for bit, on it and on everything below
//! it, and once per variant otherwise. Nothing but the estimates enters a
//! node from a variant and in-edges keep their order, so what a variant's
//! root reaches is node for node the graph of that variant alone.
//!
//! One `GraphBuilder` takes one or more ladders of a query (the advisor's
//! two placements). A later ladder reuses each node of an earlier one that
//! it would emit with the same type, feature bits and children's nodes (a
//! node's state depends on nothing else).
//!
//! All features are database-independent (one-hot vocabularies + magnitudes),
//! which is what enables zero-shot transfer. The [`Featurizer`]'s `level`
//! reproduces the ablation lattice of Figure 7.
//!
//! A UDF's return type, DAG and control paths are analysed once into a
//! ~1.1 KB template the UDF keeps ([`GeneratedUdf::analysis`], checked like
//! its prepared program). A call prices the kept paths into one `in_rows`
//! vector (each branch condition rewritten once) and emits the graph: every
//! row built in a stack buffer and appended to the graph's one flat buffer
//! ([`graceful_nn::Features`]), reserved once and trimmed at the end. The
//! model validates the graph, once, when it estimates or trains. On a
//! 2-thread Xeon VM the held-out queries of the benchmark's
//! `train_and_advise` workload, under the data-driven estimator on one
//! thread, take ~12 µs a call (~20 µs when every call analysed its UDF):
//! checking the template ~2, hit ratios ~3, emission the rest; building a
//! template adds ~13 µs to the call that builds it.

use graceful_card::{CardEstimator, HitRatioEstimator};
use graceful_cfg::{build_dag, ControlPaths, DagConfig, UdfNodeKind};
use graceful_common::{GracefulError, Result};
use graceful_nn::{Features, TypedGraph};
use graceful_obs::registry::{counter, Counter};
use graceful_plan::{AggFunc, Plan, PlanOp, PlanOpKind, Pred, QuerySpec};
use graceful_storage::{DataType, Database};
use graceful_udf::ast::{BinOp, CmpOp};
use graceful_udf::{GeneratedUdf, LibFn};
use std::sync::{Arc, OnceLock};

/// GNN node-type ids of the joint graph.
pub mod node_type {
    pub const TABLE: usize = 0;
    pub const COLUMN: usize = 1;
    pub const SCAN: usize = 2;
    pub const FILTER: usize = 3;
    pub const JOIN: usize = 4;
    pub const AGG: usize = 5;
    pub const UDF_PROJECT: usize = 6;
    pub const INV: usize = 7;
    pub const COMP: usize = 8;
    pub const BRANCH: usize = 9;
    pub const LOOP: usize = 10;
    pub const LOOP_END: usize = 11;
    pub const RET: usize = 12;
    pub const COUNT: usize = 13;
}

/// Feature dimensions per node type (indexed by the ids above).
const DIMS: [usize; node_type::COUNT] = [
    2,                                   // TABLE: log rows, n_cols
    8,                      // COLUMN: dtype(4), log ndv, null frac, log width, log rows
    1,                      // SCAN: log out
    4,                      // FILTER: log in, log out, n_preds, on_udf
    3,                      // JOIN: log in_l, log in_r, log out
    1 + AggFunc::ALL.len(), // AGG: log in, agg one-hot
    1,                      // UDF_PROJECT: log in
    2 + DataType::COUNT,    // INV: log rows, nr_params, dtype counts
    2 + BinOp::ALL.len() + LibFn::COUNT, // COMP: log rows, loop_part, op and lib counts
    2 + CmpOp::ALL.len(),   // BRANCH: log rows, loop_part, cmp one-hot
    5,                      // LOOP: log rows, loop_part, for/while, log iters
    5,                      // LOOP_END: as LOOP
    1 + DataType::COUNT,    // RET: log rows, out dtype
];

/// Feature dimensions per node type (indexable by the ids above).
pub fn feature_dims() -> Vec<usize> {
    DIMS.to_vec()
}

/// Log-scale a cardinality-like magnitude into roughly `[0, 1.5]`.
#[inline]
pub fn log_mag(x: f64) -> f32 {
    ((1.0 + x.max(0.0)).log10() / 6.0) as f32
}

/// Featurization configuration = ablation level (Figure 7):
///
/// 1. UDF as a black box (RET node only),
/// 2. \+ LOOP / COMP / BRANCH / INV nodes,
/// 3. \+ `on-udf` flag on the consuming FILTER,
/// 4. \+ explicit LOOP_END nodes,
/// 5. \+ residual LOOP → LOOP_END edges (the full model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Featurizer {
    pub level: u8,
}

impl Featurizer {
    /// The full model (ablation level 5).
    pub fn full() -> Self {
        Featurizer { level: 5 }
    }

    /// The ablation levels that exist.
    pub const LEVELS: std::ops::RangeInclusive<u8> = 1..=5;

    /// The featurizer at ablation `level`; a level outside
    /// [`Featurizer::LEVELS`] is a [`GracefulError::Config`].
    pub fn level(level: u8) -> Result<Self> {
        if !Self::LEVELS.contains(&level) {
            return Err(GracefulError::Config(format!("ablation level {level} is outside 1..=5")));
        }
        Ok(Featurizer { level })
    }

    fn dag_config(&self) -> DagConfig {
        DagConfig { loop_end_nodes: self.level >= 4, residual_loop_edges: self.level >= 5 }
    }

    fn include_udf_structure(&self) -> bool {
        self.level >= 2
    }

    fn on_udf_flag(&self) -> bool {
        self.level >= 3
    }

    /// Featurize an annotated plan into the joint typed graph: the one-rung
    /// [`Featurizer::featurize_ladder`].
    ///
    /// The plan's `est_out_rows` must already be annotated (by any
    /// [`CardEstimator`]); `estimator` is additionally used for the branch
    /// hit-ratio estimation inside the UDF.
    pub fn featurize(
        &self,
        db: &Database,
        spec: &QuerySpec,
        plan: &Plan,
        estimator: &dyn CardEstimator,
    ) -> Result<TypedGraph> {
        let rows = plan.ops.iter().map(|op| op.est_out_rows).collect();
        Ok(self.featurize_ladder(db, spec, plan, &[rows], estimator)?.0)
    }

    /// Featurize a ladder — `plan` with each of `variants` as every
    /// operator's estimate in place of its `est_out_rows` — into one *ladder
    /// graph* plus one root per variant, sharing what the module docs say
    /// can be shared. `graph.root` is the first variant's root; read all of
    /// them out at the returned roots. A plan [`Plan::validate`] rejects is
    /// its [`GracefulError::PlanVerify`], before anything is emitted.
    pub fn featurize_ladder(
        &self,
        db: &Database,
        spec: &QuerySpec,
        plan: &Plan,
        variants: &[Vec<f64>],
        estimator: &dyn CardEstimator,
    ) -> Result<(TypedGraph, Vec<usize>)> {
        plan.validate()?;
        let mut g = self.builder(db, spec, estimator);
        let roots = g.ladder(plan, variants)?;
        Ok((g.graph(roots[0]), roots))
    }

    /// An empty graph for ladders of `spec`'s plans ([`GraphBuilder::ladder`]).
    pub(crate) fn builder<'a>(
        &self,
        db: &'a Database,
        spec: &'a QuerySpec,
        estimator: &'a dyn CardEstimator,
    ) -> GraphBuilder<'a> {
        let (node_types, features, edges) = (Vec::new(), Features::default(), Vec::new());
        let (fz, shared) = (*self, (Vec::new(), 0));
        GraphBuilder { fz, db, spec, estimator, node_types, features, edges, shared }
    }
}

/// The UDF part of the joint graph on its own, as the full model emits it —
/// the input COLUMN nodes, then the annotated DAG, rooted at RET — for the
/// standalone UDF model of the Graph+Graph baseline.
pub(crate) fn udf_graph(
    db: &Database,
    spec: &QuerySpec,
    udf: &GeneratedUdf,
    input_rows: f64,
    estimator: &dyn CardEstimator,
) -> Result<TypedGraph> {
    let mut g = Featurizer::full().builder(db, spec, estimator);
    let ret = g.emit_udf(udf, input_rows, None)?;
    Ok(g.graph(ret))
}

/// The widest node type's (COMP's) feature count.
const MAX_DIM: usize = DIMS[node_type::COMP];

/// Table I featurization of one UDF DAG node: its node type, and its static
/// features as the first `DIMS[type]` entries of a zeroed row (position 0,
/// `log_mag(in_rows)` for every type, is the caller's).
fn udf_node_features(n: &graceful_cfg::UdfNode) -> (usize, [f32; MAX_DIM]) {
    let mut f = [0f32; MAX_DIM];
    let lp = if n.loop_part { 1.0 } else { 0.0 };
    let ty = match n.kind {
        UdfNodeKind::Inv => {
            f[1] = n.nr_params as f32 / 4.0;
            f[2..2 + DataType::COUNT].iter_mut().zip(&n.in_dts).for_each(|(f, &c)| *f = c as f32);
            node_type::INV
        }
        UdfNodeKind::Comp => {
            f[1] = lp;
            let counts = n.ops.iter().chain(&n.libs);
            f[2..].iter_mut().zip(counts).for_each(|(f, &c)| *f = c as f32);
            node_type::COMP
        }
        UdfNodeKind::Branch => {
            f[1] = lp;
            if let Some(op) = n.cmp_op {
                f[2 + op.index()] = 1.0;
            }
            node_type::BRANCH
        }
        UdfNodeKind::Loop | UdfNodeKind::LoopEnd => {
            let (is_for, is_while) = match n.loop_kind {
                Some(graceful_cfg::LoopKindFeat::For) => (1.0, 0.0),
                Some(graceful_cfg::LoopKindFeat::While) => (0.0, 1.0),
                None => (0.0, 0.0),
            };
            f[1..5].copy_from_slice(&[lp, is_for, is_while, log_mag(n.nr_iter)]);
            if n.kind == UdfNodeKind::Loop {
                node_type::LOOP
            } else {
                node_type::LOOP_END
            }
        }
        UdfNodeKind::Ret => {
            if let Some(d) = n.out_dt {
                f[1 + d.index()] = 1.0;
            }
            node_type::RET
        }
    };
    (ty, f)
}

/// What featurizing a UDF needs of its analysis under one DAG configuration,
/// built once and kept on the UDF ([`GeneratedUdf::analysis`]).
struct UdfTemplate {
    config: DagConfig,
    /// Per DAG node: its type and how many static features and reads are its.
    nodes: Box<[(u8, u8, u16)]>,
    /// The nonzero static features' positions and values: all but position
    /// 0, `log_mag(in_rows)` for every UDF node type.
    positions: Box<[u8]>,
    values: Box<[f32]>,
    /// The parameters each (COMP or BRANCH) node reads.
    reads: Box<[u8]>,
    edges: Box<[(u32, u32)]>,
    ret: usize,
    paths: ControlPaths,
}

impl UdfTemplate {
    /// Analyse `udf` over arguments of `arg_types` (return type, DAG, control
    /// paths), counted by the `core.udf_templates` registry counter.
    fn build(udf: &GeneratedUdf, arg_types: &[DataType], config: DagConfig) -> Self {
        static BUILDS: OnceLock<Counter> = OnceLock::new();
        BUILDS.get_or_init(|| counter("core.udf_templates")).incr();
        let ret_type = graceful_udf::infer_return_type(&udf.def, arg_types);
        let dag = build_dag(&udf.def, arg_types, ret_type, config);
        let (mut nodes, mut statics, mut reads) =
            (Vec::new(), (Vec::new(), Vec::new()), Vec::new());
        for n in &dag.nodes {
            let (ty, f) = udf_node_features(n);
            let nonzero = f.iter().enumerate().skip(1).filter(|(_, x)| x.to_bits() != 0);
            let (e, r) = (statics.1.len(), reads.len());
            statics.extend(nonzero.map(|(p, &x)| (p as u8, x)));
            reads.extend_from_slice(&n.param_reads);
            nodes.push((ty as u8, (statics.1.len() - e) as u8, (reads.len() - r) as u16));
        }
        let edges = dag.edges.iter().map(|&(s, d, _)| (s as u32, d as u32)).collect();
        let (nodes, positions, values) = (nodes.into(), statics.0.into(), statics.1.into());
        let (reads, paths) = (reads.into(), dag.control_paths());
        UdfTemplate { config, nodes, positions, values, reads, edges, ret: dag.ret, paths }
    }
}

/// COLUMN node features from statistics (database-independent magnitudes).
fn column_features(db: &Database, table: &str, column: &str) -> Result<[f32; 8]> {
    let stats = db.stats(table)?;
    let cs = stats
        .column(column)
        .map_err(|_| GracefulError::Unresolved(format!("column {table}.{column}")))?;
    let mut f = [0f32; 8];
    f[cs.data_type.index()] = 1.0;
    f[4] = log_mag(cs.ndv as f64);
    f[5] = cs.null_fraction as f32;
    f[6] = log_mag(cs.avg_text_len.max((cs.max - cs.min).abs()));
    f[7] = log_mag(cs.num_rows as f64);
    Ok(f)
}

/// Incremental builder of one query's graph, enforcing forward edges: the
/// ladders of one or more of its plans ([`GraphBuilder::ladder`]), or the
/// one plan of [`Featurizer::featurize`].
pub(crate) struct GraphBuilder<'a> {
    fz: Featurizer,
    db: &'a Database,
    spec: &'a QuerySpec,
    estimator: &'a dyn CardEstimator,
    node_types: Vec<usize>,
    features: Features,
    edges: Vec<(usize, usize)>,
    /// Each node a later ladder may reuse, with its first in-edge; and how
    /// many of them earlier ladders emitted.
    shared: (Vec<(usize, usize)>, usize),
}

impl<'a> GraphBuilder<'a> {
    /// Emit `plan` once per variant of `variants` (each a full set of
    /// operator estimates) and return the variants' roots: an operator once
    /// for all variants whose estimates agree, bit for bit, on it and on
    /// everything below it, and once per variant otherwise. Each operator or
    /// UDF input COLUMN node of an earlier ladder is reused, once, where this
    /// ladder would emit one with its type, features and children, bit for
    /// bit. `plan` is one [`Plan::validate`] accepted.
    pub(crate) fn ladder(&mut self, plan: &'a Plan, variants: &[Vec<f64>]) -> Result<Vec<usize>> {
        if variants.is_empty() {
            return Err(GracefulError::InvalidPlan("featurize needs at least one plan".into()));
        }
        if variants.iter().any(|v| v.len() != plan.ops.len()) {
            return Err(GracefulError::InvalidPlan("ladder variants differ in shape".into()));
        }
        let n = variants.len();
        // Room for the first variant (a few nodes per operator, and a UDF's
        // DAG: 36 nodes, mostly COMP, on the benchmark's held-out queries).
        let nodes = 3 * plan.ops.len() + 64;
        self.reserve(nodes, 32 * nodes, 2 * nodes);
        self.shared.1 = self.shared.0.len();
        // Per variant: plan-op index -> graph node index (set as we emit).
        let mut op_node = vec![vec![usize::MAX; plan.ops.len()]; n];
        let mut varies = vec![false; plan.ops.len()];
        for (idx, op) in plan.ops.iter().enumerate() {
            let bits = variants[0][idx].to_bits();
            varies[idx] = op.children.iter().any(|&c| varies[c])
                || variants[1..].iter().any(|rows| rows[idx].to_bits() != bits);
            let mut ret_node = usize::MAX;
            for v in 0..n {
                if v > 0 && !varies[idx] {
                    op_node[v][idx] = op_node[0][idx];
                    continue;
                }
                if let PlanOpKind::UdfFilter { udf, .. } | PlanOpKind::UdfProject { udf } = &op.kind
                {
                    let child = op.children[0];
                    if v == 0 || varies[child] {
                        let child_node = Some(op_node[v][child]);
                        ret_node = self.emit_udf(udf, variants[v][child], child_node)?;
                    }
                }
                op_node[v][idx] = self.emit_op(op, idx, &variants[v], &op_node[v], ret_node)?;
            }
        }
        Ok(op_node.iter().map(|nodes| nodes[plan.root]).collect())
    }

    /// The graph built so far, rooted at `root`. The model validates it
    /// when it estimates or trains on it.
    pub(crate) fn graph(self, root: usize) -> TypedGraph {
        let (mut node_types, mut features, mut edges) =
            (self.node_types, self.features, self.edges);
        node_types.shrink_to_fit();
        features.shrink_to_fit();
        edges.shrink_to_fit();
        TypedGraph { node_types, features, edges, root }
    }

    /// Room for `nodes` more nodes holding `values` features and `edges`
    /// more edges.
    fn reserve(&mut self, nodes: usize, values: usize, edges: usize) {
        self.node_types.reserve(nodes);
        self.features.reserve(nodes, values);
        self.edges.reserve(edges);
        self.shared.0.reserve(nodes);
    }

    fn push(&mut self, ty: usize, feats: &[f32]) -> usize {
        self.node_types.push(ty);
        self.features.push(feats);
        self.node_types.len() - 1
    }

    fn edge(&mut self, src: usize, dst: usize) {
        debug_assert!(src < dst, "edge {src}->{dst} must be forward");
        self.edges.push((src, dst));
    }

    /// A node of type `ty` with features `feats`, fed by `children` in
    /// order: an earlier ladder's node where all three match bit for bit,
    /// else a new one. Its state is the same either way.
    fn node(&mut self, ty: usize, feats: &[f32], children: &[usize]) -> usize {
        let same = |&(v, first): &(usize, usize)| {
            self.node_types.get(v) == Some(&ty)
                && (self.edges[first..].iter().take_while(|e| e.1 == v).map(|e| e.0))
                    .eq(children.iter().copied())
                && (self.features.row(v).iter().map(|x| x.to_bits()))
                    .eq(feats.iter().map(|x| x.to_bits()))
        };
        if let Some(k) = self.shared.0[..self.shared.1].iter().position(same) {
            // Reused once, so that two equal nodes of a ladder stay two.
            return std::mem::replace(&mut self.shared.0[k].0, usize::MAX);
        }
        let (v, first) = (self.push(ty, feats), self.edges.len());
        children.iter().for_each(|&c| self.edge(c, v));
        self.shared.0.push((v, first));
        v
    }

    /// Emit the node of `op`, the plan's `idx`-th operator (after the
    /// TABLE/COLUMN nodes only it reads), and return its index. `rows` holds
    /// every operator's estimate, `op_node` the nodes of the operators below,
    /// `ret_node` the RET node of the UDF `op` applies, if it applies one.
    fn emit_op(
        &mut self,
        op: &PlanOp,
        idx: usize,
        rows: &[f64],
        op_node: &[usize],
        ret_node: usize,
    ) -> Result<usize> {
        let db = self.db;
        let est_out = rows[idx];
        let in_rows = |side: usize| rows[op.children[side]];
        let child = |side: usize| op_node[op.children[side]];
        Ok(match &op.kind {
            PlanOpKind::Scan { table } => {
                let t = db.table(table)?;
                let f = [log_mag(t.num_rows() as f64), t.num_columns() as f32 / 16.0];
                let tbl = self.node(node_type::TABLE, &f, &[]);
                self.node(node_type::SCAN, &[log_mag(est_out)], &[tbl])
            }
            PlanOpKind::Filter { preds } => {
                // Column nodes must precede the filter node (edges are
                // forward-only in the typed graph).
                let mut cols = Vec::with_capacity(preds.len() + 1);
                for p in preds {
                    let f = column_features(db, &p.col.table, &p.col.column)?;
                    cols.push(self.node(node_type::COLUMN, &f, &[]));
                }
                cols.push(child(0));
                // Plain filters never sit on a UDF output.
                let f = [log_mag(in_rows(0)), log_mag(est_out), preds.len() as f32 / 8.0, 0.0];
                self.node(node_type::FILTER, &f, &cols)
            }
            PlanOpKind::Join { .. } => {
                let f = [log_mag(in_rows(0)), log_mag(in_rows(1)), log_mag(est_out)];
                self.node(node_type::JOIN, &f, &[child(0), child(1)])
            }
            PlanOpKind::UdfFilter { .. } => {
                let on_udf = if self.fz.on_udf_flag() { 1.0 } else { 0.0 };
                let f = [log_mag(in_rows(0)), log_mag(est_out), 1.0 / 8.0, on_udf];
                self.node(node_type::FILTER, &f, &[ret_node, child(0)])
            }
            PlanOpKind::UdfProject { .. } => {
                self.node(node_type::UDF_PROJECT, &[log_mag(in_rows(0))], &[ret_node, child(0)])
            }
            PlanOpKind::Agg { func, .. } => {
                let mut f = [0.0; 1 + AggFunc::ALL.len()];
                f[0] = log_mag(in_rows(0));
                f[1 + func.index()] = 1.0;
                self.node(node_type::AGG, &f, &[child(0)])
            }
        })
    }

    /// Emit the UDF subgraph and return the graph index of its RET node;
    /// `child_node`, the operator below, feeds INV (or RET at level 1).
    fn emit_udf(
        &mut self,
        udf: &GeneratedUdf,
        input_rows: f64,
        child_node: Option<usize>,
    ) -> Result<usize> {
        let db = self.db;
        let table = db.table(&udf.table)?;
        let arg_types: Vec<DataType> =
            udf.input_columns.iter().map(|c| table.column_type(c)).collect::<Result<_>>()?;
        // The UDF keeps the template of the first configuration it met.
        let config = self.fz.dag_config();
        let build = || UdfTemplate::build(udf, &arg_types, config);
        let kept = udf.analysis(&arg_types, || Ok(build()))?;
        let t = if kept.config == config { kept } else { Arc::new(build()) };
        // Hit-ratio row annotation (Section III-B), conditioned on the plain
        // filters already applied to the UDF's base table.
        let pre: Vec<Pred> =
            self.spec.filters.iter().filter(|p| p.col.table == udf.table).cloned().collect();
        let rows =
            HitRatioEstimator::new(self.estimator).annotate_paths(&t.paths, udf, input_rows, &pre);

        // COLUMN nodes for the UDF's inputs.
        let mut col_nodes = Vec::with_capacity(udf.input_columns.len());
        for c in &udf.input_columns {
            col_nodes.push(self.node(node_type::COLUMN, &column_features(db, &udf.table, c)?, &[]));
        }
        // DAG node `i` becomes graph node `first + i` (DAG indices are
        // already topological, so emitting in order preserves the
        // invariant); at ablation level 1 the UDF is a black box, its RET
        // node alone.
        let (first, structure) = (self.node_types.len(), self.fz.include_udf_structure());
        let (mut e, mut r) = (0, 0);
        for (i, &(ty, entries, reads)) in t.nodes.iter().enumerate() {
            let (ty, entries, mut f) = (ty as usize, e..e + entries as usize, [0f32; MAX_DIM]);
            let read = &t.reads[r..r + reads as usize];
            (e, r) = (entries.end, r + read.len());
            if !structure && i != t.ret {
                continue;
            }
            f[0] = log_mag(rows[i]);
            let statics = t.positions[entries.clone()].iter().zip(&t.values[entries]);
            statics.for_each(|(&p, &x)| f[p as usize] = x);
            let v = self.push(ty, &f[..DIMS[ty]]);
            // Data-flow edges: columns feed INV (the black box) and the
            // COMP/BRANCH nodes that read them directly.
            if ty == node_type::INV || !structure {
                for &c in col_nodes.iter().chain(&child_node) {
                    self.edge(c, v);
                }
            }
            for &c in read.iter().filter_map(|&p| col_nodes.get(p as usize)) {
                self.edge(c, v);
            }
        }
        if !structure {
            return Ok(first);
        }
        // Residual edges are already filtered by DagConfig; map them all.
        for &(s, d) in &t.edges {
            self.edge(first + s as usize, first + d as usize);
        }
        Ok(first + t.ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_card::ActualCard;
    use graceful_common::config::ScaleConfig;

    fn corpus() -> crate::corpus::DatasetCorpus {
        let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 12, ..ScaleConfig::default() };
        crate::corpus::env_corpus("imdb", &cfg, 5)
    }

    #[test]
    fn featurizes_whole_corpus() {
        let c = corpus();
        let est = ActualCard::new(&c.db);
        let fz = Featurizer::full();
        for q in &c.queries {
            let mut plan = q.plan.clone();
            use graceful_card::CardEstimator as _;
            est.annotate(&mut plan).unwrap();
            let g = fz.featurize(&c.db, &q.spec, &plan, &est).unwrap();
            g.validate(&feature_dims()).unwrap();
            assert!(g.len() >= plan.ops.len());
            // Root is the AGG node.
            assert_eq!(g.node_types[g.root], node_type::AGG);
        }
    }

    #[test]
    fn ablation_levels_shrink_graph() {
        let c = corpus();
        let est = ActualCard::new(&c.db);
        use graceful_card::CardEstimator as _;
        let q = c
            .queries
            .iter()
            .find(|q| {
                q.has_udf()
                    && q.spec.udf.as_ref().unwrap().def.loop_count() > 0
                    && q.spec.udf_usage == graceful_plan::UdfUsage::Filter
            })
            .expect("corpus contains a loop UDF filter query");
        let mut plan = q.plan.clone();
        est.annotate(&mut plan).unwrap();
        let sizes: Vec<usize> = (1..=5)
            .map(|lvl| {
                Featurizer::level(lvl)
                    .unwrap()
                    .featurize(&c.db, &q.spec, &plan, &est)
                    .unwrap()
                    .len()
            })
            .collect();
        // Level 1 (RET only) is the smallest; level 4 adds LOOP_END nodes
        // over level 3; level 5 only adds edges.
        assert!(sizes[0] < sizes[1], "sizes={sizes:?}");
        assert!(sizes[3] > sizes[2], "sizes={sizes:?}");
        assert_eq!(sizes[3], sizes[4], "sizes={sizes:?}");
        // Level 3 sets the on-udf flag; level 2 does not.
        let g2 = Featurizer::level(2).unwrap().featurize(&c.db, &q.spec, &plan, &est).unwrap();
        let g3 = Featurizer::level(3).unwrap().featurize(&c.db, &q.spec, &plan, &est).unwrap();
        let on_udf = |g: &graceful_nn::TypedGraph| {
            g.node_types
                .iter()
                .zip(g.features.iter())
                .filter(|(t, _)| **t == node_type::FILTER)
                .map(|(_, f)| f[3])
                .fold(0.0f32, f32::max)
        };
        assert_eq!(on_udf(&g2), 0.0);
        assert_eq!(on_udf(&g3), 1.0);
    }

    /// Every graph `featurize` emits — node order, edge order, feature bits —
    /// is the graph the per-plan emitter produced before the ladder emitter
    /// replaced it: the digest below was recorded on that commit, over all
    /// queries of the 20-schema corpus at every ablation level under the
    /// data-driven estimator (so the typed-sample selectivities and the
    /// shared hit-ratio denominator are pinned with it). Re-record it only
    /// for a change that means to alter the data, the workload or a feature.
    #[test]
    fn featurize_emits_the_graphs_it_always_did() {
        use graceful_card::{CardEstimator as _, DataDrivenCard};
        let cfg = ScaleConfig { data_scale: 0.02, queries_per_db: 10, ..ScaleConfig::default() };
        let mut digest = 0xcbf29ce484222325u64;
        let mut word = |w: u64| digest = (digest ^ w).wrapping_mul(0x100000001b3);
        let mut graphs = 0;
        for (i, name) in graceful_storage::datagen::DATASET_NAMES.iter().enumerate() {
            let c = crate::corpus::env_corpus(name, &cfg, 40 + i as u64);
            let est = DataDrivenCard::build(&c.db, 7);
            for q in &c.queries {
                let mut plan = q.plan.clone();
                est.annotate(&mut plan).unwrap();
                for level in Featurizer::LEVELS {
                    let g = Featurizer::level(level)
                        .unwrap()
                        .featurize(&c.db, &q.spec, &plan, &est)
                        .unwrap();
                    g.node_types.iter().for_each(|&t| word(t as u64));
                    g.features.iter().flatten().for_each(|f| word(f.to_bits() as u64));
                    g.edges.iter().for_each(|&(s, d)| word(((s as u64) << 32) | d as u64));
                    word(g.root as u64);
                    graphs += 1;
                }
            }
        }
        assert_eq!(
            (graphs, digest),
            (1000, 17425677983038948407),
            "featurize drifted from the recorded graphs"
        );
    }

    /// A ladder with no variant, or with a variant that does not give one
    /// estimate per operator, is a typed error, never a panic or a graph.
    #[test]
    fn ladder_edge_cases_are_typed_errors() {
        let c = corpus();
        let est = ActualCard::new(&c.db);
        let q = &c.queries[0];
        let fz = Featurizer::full();
        let rows: Vec<f64> = q.plan.ops.iter().map(|_| 10.0).collect();
        let ladder =
            |variants: &[Vec<f64>]| fz.featurize_ladder(&c.db, &q.spec, &q.plan, variants, &est);
        let words = |r: Result<(TypedGraph, Vec<usize>)>| match r {
            Err(GracefulError::InvalidPlan(w)) => w,
            other => panic!("expected InvalidPlan, got {other:?}"),
        };
        assert_eq!(words(ladder(&[])), "featurize needs at least one plan");
        let short = rows[1..].to_vec();
        let long = [&rows[..], &[1.0]].concat();
        for bad in [vec![short.clone()], vec![rows.clone(), long], vec![rows.clone(), short]] {
            assert_eq!(words(ladder(&bad)), "ladder variants differ in shape");
        }
        let (g, roots) = ladder(&[rows.clone(), rows]).unwrap();
        assert_eq!((roots.len(), roots[0], roots[1], g.root), (2, g.root, g.root, g.root));
    }

    #[test]
    fn levels_outside_the_lattice_are_config_errors() {
        for level in [0, 6, u8::MAX] {
            assert!(matches!(Featurizer::level(level), Err(GracefulError::Config(_))), "{level}");
        }
        for level in Featurizer::LEVELS {
            assert_eq!(Featurizer::level(level).unwrap(), Featurizer { level });
        }
    }

    #[test]
    fn feature_dims_match_emitted_features() {
        let dims = feature_dims();
        assert_eq!(dims.len(), node_type::COUNT);
        assert_eq!(dims[node_type::COMP], 2 + 7 + 36);
    }

    #[test]
    fn log_mag_monotone_bounded() {
        assert_eq!(log_mag(0.0), 0.0);
        assert!(log_mag(1e6) > log_mag(1e3));
        assert!(log_mag(1e9) < 2.0);
    }
}
