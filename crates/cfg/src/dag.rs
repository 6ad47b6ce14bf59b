//! Construction and analysis of the transformed UDF DAG.
//!
//! [`build_dag`] lowers a parsed UDF into the acyclic single-statement graph
//! of Figure 2 ③: one `INV` node, one `COMP` node per statement, `BRANCH`
//! nodes with true/false edges, loops encoded as `LOOP … LOOP_END` with a
//! residual shortcut edge, and a single `RET` sink that every control path
//! reaches. Node indices are created in topological order by construction.
//!
//! [`UdfDag::annotate_rows`] implements the row-count annotation of Section
//! III-B: control paths are enumerated (residual edges excluded, footnote 4),
//! a caller-supplied estimator assigns each path a probability from its
//! branch conditions, and every node receives
//! `in_rows = input_rows · P(node on taken path)`.
//!
//! One call costs what it builds, and nothing is cached across calls:
//! `build_dag` walks each statement's expression once, with names borrowed
//! from the AST, and path enumeration builds successor lists once and runs
//! one depth-first walk over a single path buffer, materializing a path only
//! at RET. On a 2-thread Xeon VM the benchmark's held-out UDFs (36 nodes and
//! 3.3 paths on average) take ~6 µs to build and ~2 µs to enumerate.

use crate::node::{BranchCondInfo, EdgeKind, LoopKindFeat, UdfNode, UdfNodeKind};
use graceful_storage::DataType;
use graceful_udf::ast::{CmpOp, Expr, Stmt, UdfDef};
use graceful_udf::CostWeights;

/// Which graph transformations to apply — the knobs of the ablation study
/// (Figure 7, variants (4) and (5)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagConfig {
    /// Emit explicit `LOOP_END` nodes (ablation variant 4).
    pub loop_end_nodes: bool,
    /// Emit residual `LOOP → LOOP_END` edges (ablation variant 5; requires
    /// `loop_end_nodes`).
    pub residual_loop_edges: bool,
}

impl Default for DagConfig {
    fn default() -> Self {
        DagConfig { loop_end_nodes: true, residual_loop_edges: true }
    }
}

/// One control path through the DAG: the branch decisions taken and the
/// nodes visited.
#[derive(Debug, Clone)]
pub struct BranchPath {
    /// `(condition, taken)` for every BRANCH node on the path. `None` means
    /// the condition is untraceable (estimators fall back to 0.5).
    pub conditions: Vec<(Option<BranchCondInfo>, bool)>,
    /// Node indices visited (in order).
    pub nodes: Vec<usize>,
}

/// The transformed UDF graph.
#[derive(Debug, Clone)]
pub struct UdfDag {
    pub nodes: Vec<UdfNode>,
    pub edges: Vec<(usize, usize, EdgeKind)>,
    /// Index of the INV source node.
    pub inv: usize,
    /// Index of the RET sink node.
    pub ret: usize,
}

/// Builder state. Names are borrowed from the UDF's AST.
struct Builder<'a> {
    nodes: Vec<UdfNode>,
    edges: Vec<(usize, usize, EdgeKind)>,
    cfg: DagConfig,
    params: &'a [String],
    weights: CostWeights,
    /// Value of variables currently known to hold an integer literal
    /// (used to estimate `while` trip counts from counting-down patterns).
    literal_env: Vec<(&'a str, i64)>,
    /// Nodes of explicit `return`s, to be joined to RET once it exists.
    returns: Vec<usize>,
}

/// Lower a UDF into its transformed DAG.
///
/// `arg_types` are the data types of the input columns, positionally
/// matching `udf.params` (they featurize the INV node); `ret_type` is the
/// UDF's output type (featurizes RET).
pub fn build_dag(
    udf: &UdfDef,
    arg_types: &[DataType],
    ret_type: DataType,
    cfg: DagConfig,
) -> UdfDag {
    let mut b = Builder {
        nodes: Vec::new(),
        edges: Vec::new(),
        cfg,
        params: &udf.params,
        weights: CostWeights::default(),
        literal_env: Vec::new(),
        returns: Vec::new(),
    };
    // INV node.
    let mut inv = UdfNode::new(UdfNodeKind::Inv);
    inv.nr_params = udf.params.len() as u8;
    for (i, _) in udf.params.iter().enumerate() {
        if let Some(dt) = arg_types.get(i) {
            inv.in_dts[dt.index()] += 1;
        }
    }
    b.nodes.push(inv);
    let inv_idx = 0;
    // RET node is created lazily but must be the last index; lower the body
    // first with a placeholder, then append RET.
    let dangling = b.lower_block(&udf.body, vec![(inv_idx, EdgeKind::Flow)], false);
    let mut ret = UdfNode::new(UdfNodeKind::Ret);
    ret.out_dt = Some(ret_type);
    b.nodes.push(ret);
    let ret_idx = b.nodes.len() - 1;
    // Implicit `return None` for paths that fall off the end, plus all
    // explicit returns recorded during lowering.
    let returns = b.returns.iter().map(|&r| (r, EdgeKind::Flow));
    for (src, kind) in dangling.into_iter().chain(returns) {
        b.edges.push((src, ret_idx, kind));
    }
    UdfDag { nodes: b.nodes, edges: b.edges, inv: inv_idx, ret: ret_idx }
}

impl<'a> Builder<'a> {
    /// Lower a block; returns the dangling `(node, edge-kind)` pairs that
    /// must connect to whatever comes next.
    fn lower_block(
        &mut self,
        body: &'a [Stmt],
        mut prev: Vec<(usize, EdgeKind)>,
        in_loop: bool,
    ) -> Vec<(usize, EdgeKind)> {
        for stmt in body {
            if prev.is_empty() {
                break; // unreachable code after return on all paths
            }
            match stmt {
                Stmt::Assign { target, expr } => {
                    self.literal_env.retain(|&(name, _)| name != target);
                    if let Expr::Int(n) = expr {
                        self.literal_env.push((target, *n));
                    }
                    let idx = self.push_comp(expr, in_loop);
                    self.connect(&prev, idx);
                    prev.clear();
                    prev.push((idx, EdgeKind::Flow));
                }
                Stmt::Return(expr) => {
                    let idx = self.push_comp(expr, in_loop);
                    self.connect(&prev, idx);
                    self.returns.push(idx);
                    prev.clear();
                }
                Stmt::If { cond, then_body, else_body } => {
                    let idx = self.push_branch(cond, in_loop);
                    self.connect(&prev, idx);
                    let then_ends =
                        self.lower_block(then_body, vec![(idx, EdgeKind::BranchTrue)], in_loop);
                    let else_ends = if else_body.is_empty() {
                        vec![(idx, EdgeKind::BranchFalse)]
                    } else {
                        self.lower_block(else_body, vec![(idx, EdgeKind::BranchFalse)], in_loop)
                    };
                    prev = then_ends;
                    prev.extend(else_ends);
                }
                Stmt::For { count, body, .. } => {
                    prev =
                        self.lower_loop(LoopKindFeat::For, estimate_for_iters(count), body, prev);
                }
                Stmt::While { cond, body } => {
                    let iters = self.estimate_while_iters(cond);
                    prev = self.lower_loop(LoopKindFeat::While, iters, body, prev);
                }
            }
        }
        prev
    }

    fn lower_loop(
        &mut self,
        kind: LoopKindFeat,
        nr_iter: f64,
        body: &'a [Stmt],
        prev: Vec<(usize, EdgeKind)>,
    ) -> Vec<(usize, EdgeKind)> {
        let mut loop_node = UdfNode::new(UdfNodeKind::Loop);
        loop_node.loop_kind = Some(kind);
        loop_node.nr_iter = nr_iter;
        self.nodes.push(loop_node);
        let loop_idx = self.nodes.len() - 1;
        self.connect(&prev, loop_idx);
        let body_ends = self.lower_block(body, vec![(loop_idx, EdgeKind::Flow)], true);
        if self.cfg.loop_end_nodes {
            let mut end = UdfNode::new(UdfNodeKind::LoopEnd);
            end.loop_kind = Some(kind);
            end.nr_iter = nr_iter;
            self.nodes.push(end);
            let end_idx = self.nodes.len() - 1;
            self.connect(&body_ends, end_idx);
            if self.cfg.residual_loop_edges {
                self.edges.push((loop_idx, end_idx, EdgeKind::Residual));
            }
            if body_ends.is_empty() && !self.cfg.residual_loop_edges {
                // Keep the graph connected even when the whole body returns.
                self.edges.push((loop_idx, end_idx, EdgeKind::Flow));
            }
            vec![(end_idx, EdgeKind::Flow)]
        } else {
            // Ablation variant without LOOP_END: the body ends (and the loop
            // head for empty bodies) dangle forward directly.
            let mut ends = body_ends;
            if ends.is_empty() {
                ends.push((loop_idx, EdgeKind::Flow));
            }
            ends
        }
    }

    fn push_comp(&mut self, expr: &Expr, in_loop: bool) -> usize {
        let mut node = UdfNode::new(UdfNodeKind::Comp);
        node.loop_part = in_loop;
        self.read(expr, &mut node);
        node.static_cost_hint = node.ops.len() as f64 * self.weights.arith
            + node.libs.iter().map(|l| l.base_cost()).sum::<f64>()
            + self.weights.stmt_dispatch;
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn push_branch(&mut self, cond: &Expr, in_loop: bool) -> usize {
        let mut node = UdfNode::new(UdfNodeKind::Branch);
        node.loop_part = in_loop;
        node.cond = trace_condition(cond, self.params);
        node.cmp_op = first_cmp_op(cond).or(node.cond.as_ref().map(|c| c.op));
        self.read(cond, &mut node);
        node.static_cost_hint = self.weights.branch + self.weights.compare;
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn connect(&mut self, prev: &[(usize, EdgeKind)], dst: usize) {
        for &(src, kind) in prev {
            self.edges.push((src, dst, kind));
        }
    }

    /// Record on `node`, in one walk over `expr`, the UDF parameters it reads
    /// (each once, in order of first appearance) and, for a COMP node, its
    /// arithmetic operators and library calls.
    fn read(&self, expr: &Expr, node: &mut UdfNode) {
        let comp = node.kind == UdfNodeKind::Comp;
        expr.visit(&mut |e| match e {
            Expr::Binary { op, .. } if comp => node.ops.push(*op),
            Expr::Call { func, .. } | Expr::Method { func, .. } if comp => node.libs.push(*func),
            Expr::Name(n) => {
                let param = self.params.iter().position(|p| p == n).map(|i| i as u8);
                if let Some(i) = param.filter(|i| !node.param_reads.contains(i)) {
                    node.param_reads.push(i);
                }
            }
            _ => {}
        });
    }

    /// Estimate the trip count of a generated counting-down `while` loop
    /// (`w = N; while w > 0:`); defaults to 8 for unknown patterns.
    fn estimate_while_iters(&self, cond: &Expr) -> f64 {
        if let Expr::Compare { op: CmpOp::Gt, left, right } = cond {
            if let (Expr::Name(var), Expr::Int(0)) = (left.as_ref(), right.as_ref()) {
                if let Some(&(_, n)) = self.literal_env.iter().find(|(name, _)| name == var) {
                    return n.max(0) as f64;
                }
            }
        }
        8.0
    }
}

/// Trip-count estimate for `for _ in range(count)`.
///
/// Literal counts are exact; the generator's data-dependent pattern
/// `int(x) % m + 1` has expectation ≈ `m/2 + 1` under a uniform modulus;
/// anything else defaults to 8 (the calibration value used for unknown
/// loops).
fn estimate_for_iters(count: &Expr) -> f64 {
    match count {
        Expr::Int(n) => (*n).max(0) as f64,
        Expr::Float(f) => f.max(0.0),
        Expr::Binary { op: graceful_udf::BinOp::Add, left, right } => {
            if let (
                Expr::Binary { op: graceful_udf::BinOp::Mod, right: modulus, .. },
                Expr::Int(k),
            ) = (left.as_ref(), right.as_ref())
            {
                if let Expr::Int(m) = modulus.as_ref() {
                    return (*m as f64) / 2.0 + *k as f64;
                }
            }
            8.0
        }
        _ => 8.0,
    }
}

/// Extract a traceable `param CMP literal` condition (normalizing the
/// parameter onto the left side). Compound conditions trace their first
/// traceable comparison; everything else is untraceable.
fn trace_condition(cond: &Expr, params: &[String]) -> Option<BranchCondInfo> {
    match cond {
        Expr::Compare { op, left, right } => match (left.as_ref(), right.as_ref()) {
            (Expr::Name(n), lit) if params.contains(n) => {
                literal_value(lit).map(|v| BranchCondInfo { param: n.clone(), op: *op, literal: v })
            }
            (lit, Expr::Name(n)) if params.contains(n) => literal_value(lit)
                .map(|v| BranchCondInfo { param: n.clone(), op: op.flipped(), literal: v }),
            _ => None,
        },
        Expr::BoolOp { left, right, .. } => {
            trace_condition(left, params).or_else(|| trace_condition(right, params))
        }
        Expr::Unary { op: graceful_udf::UnOp::Not, operand } => {
            trace_condition(operand, params).map(|c| BranchCondInfo { op: c.op.negated(), ..c })
        }
        _ => None,
    }
}

fn literal_value(e: &Expr) -> Option<f64> {
    match e {
        Expr::Int(i) => Some(*i as f64),
        Expr::Float(f) => Some(*f),
        _ => None,
    }
}

fn first_cmp_op(cond: &Expr) -> Option<CmpOp> {
    match cond {
        Expr::Compare { op, .. } => Some(*op),
        Expr::BoolOp { left, right, .. } => first_cmp_op(left).or_else(|| first_cmp_op(right)),
        Expr::Unary { operand, .. } => first_cmp_op(operand),
        _ => None,
    }
}

impl UdfDag {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of COMP nodes — the "graph size" axis of Figure 6 A.
    pub fn comp_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind == UdfNodeKind::Comp).count()
    }

    /// Outgoing `(dst, kind)` pairs of `node`.
    pub fn successors(&self, node: usize) -> impl Iterator<Item = (usize, EdgeKind)> + '_ {
        self.edges.iter().filter(move |(s, _, _)| *s == node).map(|&(_, d, k)| (d, k))
    }

    /// Topological order (Kahn). By construction this equals index order;
    /// the method exists so consumers need not rely on that invariant.
    pub fn topo_order(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for &(_, d, _) in &self.edges {
            indeg[d] += 1;
        }
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for (d, _) in self.successors(i) {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    queue.push_back(d);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "UDF DAG contains a cycle");
        order
    }

    /// Enumerate control paths from INV to RET, excluding residual edges
    /// (footnote 4). Paths are capped at `max_paths`; `None` signals the cap
    /// was hit and callers should fall back to independent propagation.
    pub fn enumerate_paths(&self, max_paths: usize) -> Option<Vec<BranchPath>> {
        let mut paths = Vec::new();
        self.walk_paths(max_paths, |nodes, decisions| {
            let conditions =
                decisions.iter().map(|&(b, taken)| (self.nodes[b].cond.clone(), taken)).collect();
            paths.push(BranchPath { conditions, nodes: nodes.to_vec() });
        })?;
        Some(paths)
    }

    /// The depth-first walk behind [`UdfDag::enumerate_paths`]: `at_ret` sees
    /// each path, as it reaches RET, as its nodes and its `(BRANCH node,
    /// taken)` decisions. The current path is one node buffer and one
    /// decision buffer, truncated on backtrack; the stack holds one light
    /// entry per pending path, so the cap fires exactly where a stack of
    /// whole paths would. A path longer than the DAG (a cycle in a hand-built
    /// graph) returns `None` too.
    fn walk_paths(
        &self,
        max_paths: usize,
        mut at_ret: impl FnMut(&[usize], &[(usize, bool)]),
    ) -> Option<()> {
        // Node `i`'s out-edges, in edge order: `out[first[i]..first[i + 1]]`.
        let n = self.nodes.len();
        let mut first = vec![0; n + 1];
        self.edges.iter().filter(|e| e.0 < n).for_each(|e| first[e.0 + 1] += 1);
        (0..n).for_each(|i| first[i + 1] += first[i]);
        let (mut out, mut next) = (vec![(0, EdgeKind::Flow); first[n]], first.clone());
        for &(s, d, k) in self.edges.iter().filter(|e| e.0 < n) {
            out[next[s]] = (d, k);
            next[s] += 1;
        }
        // Pending: `node`, after the first `depth` nodes and `decided`
        // decisions on the buffers, entered through `decision`.
        let (mut nodes, mut decisions) = (Vec::new(), Vec::new());
        let mut stack = vec![(self.inv, 0, 0, None)];
        let mut found = 0;
        while let Some((node, depth, decided, decision)) = stack.pop() {
            if found + stack.len() > max_paths || depth > n {
                return None;
            }
            nodes.truncate(depth);
            nodes.push(node);
            decisions.truncate(decided);
            decisions.extend(decision);
            if node == self.ret {
                at_ret(&nodes, &decisions);
                found += 1;
                continue;
            }
            let succ = if node < n { &out[first[node]..first[node + 1]] } else { &[] };
            // A BRANCH forks true, then false. Other nodes have at most one
            // Flow successor by construction; fork defensively if a
            // malformed graph has more.
            let arms: &[_] = match self.nodes.get(node) {
                Some(n) if n.kind == UdfNodeKind::Branch => &[
                    (EdgeKind::BranchTrue, Some((node, true))),
                    (EdgeKind::BranchFalse, Some((node, false))),
                ],
                _ => &[(EdgeKind::Flow, None)],
            };
            let (depth, decided) = (nodes.len(), decisions.len());
            for &(kind, decision) in arms {
                let arm = succ.iter().filter(|e| e.1 == kind);
                stack.extend(arm.map(|e| (e.0, depth, decided, decision)));
            }
        }
        Some(())
    }

    /// Annotate `in_rows` on every node given the UDF's input row count.
    ///
    /// `path_prob` receives the branch decisions of one control path and
    /// returns its probability — this is where the hit-ratio estimator of
    /// Section III-B plugs in. Probabilities are normalised over all paths
    /// to absorb estimator inconsistency.
    pub fn annotate_rows<F>(&mut self, input_rows: f64, mut path_prob: F)
    where
        F: FnMut(&[(Option<BranchCondInfo>, bool)]) -> f64,
    {
        let conds: Vec<_> = self.nodes.iter().map(|n| n.cond.clone()).collect();
        let mut conditions = Vec::new();
        self.annotate_rows_by_branch(input_rows, |decisions| {
            conditions.clear();
            conditions.extend(decisions.iter().map(|&(b, taken)| (conds[b].clone(), taken)));
            path_prob(&conditions)
        });
    }

    /// [`UdfDag::annotate_rows`] for a `path_prob` that reads a path's
    /// decisions as `(BRANCH node, taken)` pairs, so that it can prepare what
    /// it needs of each node's `cond` once per DAG, not once per path. Every
    /// path is enumerated before the first is priced: past the cap,
    /// `path_prob` is never called.
    pub fn annotate_rows_by_branch<F>(&mut self, input_rows: f64, mut path_prob: F)
    where
        F: FnMut(&[(usize, bool)]) -> f64,
    {
        let mut reach = vec![0.0f64; self.nodes.len()];
        let mut paths = Vec::new();
        let walked = self.walk_paths(256, |n, d| paths.push((n.to_vec(), d.to_vec())));
        if walked.is_some() && !paths.is_empty() {
            let mut probs: Vec<f64> = paths.iter().map(|(_, d)| path_prob(d).max(0.0)).collect();
            let total: f64 = probs.iter().sum();
            if total > 1e-12 {
                for p in probs.iter_mut() {
                    *p /= total;
                }
            } else {
                let uniform = 1.0 / probs.len() as f64;
                probs.iter_mut().for_each(|p| *p = uniform);
            }
            for ((nodes, _), prob) in paths.into_iter().zip(probs) {
                for i in nodes {
                    if let Some(r) = reach.get_mut(i) {
                        *r += prob;
                    }
                }
            }
        } else {
            // Too many paths: assume every node is always reached.
            reach.fill(1.0);
        }
        for (node, prob) in self.nodes.iter_mut().zip(reach) {
            node.in_rows = input_rows * prob.clamp(0.0, 1.0);
        }
        // LOOP_END nodes on skipped paths keep the loop's probability via the
        // residual edge; paths already include them, nothing more to do.
    }

    /// Longest path length (graph depth) — grows with nested/long UDFs and is
    /// what transformation (5) shortens for the GNN.
    pub fn depth(&self) -> usize {
        let order = self.topo_order();
        let mut dist = vec![0usize; self.nodes.len()];
        for &i in &order {
            for (d, k) in self.successors(i) {
                if k != EdgeKind::Residual {
                    dist[d] = dist[d].max(dist[i] + 1);
                }
            }
        }
        dist.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graceful_udf::parse_udf;

    /// The running example of Figure 2.
    fn figure2() -> UdfDag {
        let udf = parse_udf(
            "def func(x, y):\n    if x < 20:\n        z = x ** 2\n    else:\n        z = 0\n        for i in range(100):\n            z = math.pow(math.sqrt(y), i) + z\n    return z\n",
        )
        .unwrap();
        build_dag(&udf, &[DataType::Int, DataType::Int], DataType::Float, DagConfig::default())
    }

    #[test]
    fn figure2_structure() {
        let dag = figure2();
        let kinds: Vec<UdfNodeKind> = dag.nodes.iter().map(|n| n.kind).collect();
        assert_eq!(kinds.iter().filter(|k| **k == UdfNodeKind::Inv).count(), 1);
        assert_eq!(kinds.iter().filter(|k| **k == UdfNodeKind::Ret).count(), 1);
        assert_eq!(kinds.iter().filter(|k| **k == UdfNodeKind::Branch).count(), 1);
        assert_eq!(kinds.iter().filter(|k| **k == UdfNodeKind::Loop).count(), 1);
        assert_eq!(kinds.iter().filter(|k| **k == UdfNodeKind::LoopEnd).count(), 1);
        // Residual edge LOOP -> LOOP_END exists.
        assert!(dag.edges.iter().any(|&(s, d, k)| k == EdgeKind::Residual
            && dag.nodes[s].kind == UdfNodeKind::Loop
            && dag.nodes[d].kind == UdfNodeKind::LoopEnd));
        // Loop body COMP nodes carry loop_part.
        assert!(dag.nodes.iter().any(|n| n.kind == UdfNodeKind::Comp && n.loop_part));
        // Loop trip count is the literal 100.
        let loop_node = dag.nodes.iter().find(|n| n.kind == UdfNodeKind::Loop).unwrap();
        assert_eq!(loop_node.nr_iter, 100.0);
    }

    #[test]
    fn node_index_order_is_topological() {
        let dag = figure2();
        for &(s, d, _) in &dag.edges {
            assert!(s < d, "edge {s}->{d} violates construction order");
        }
        assert_eq!(dag.topo_order().len(), dag.len());
    }

    #[test]
    fn inv_features() {
        let dag = figure2();
        let inv = &dag.nodes[dag.inv];
        assert_eq!(inv.nr_params, 2);
        assert_eq!(inv.in_dts[DataType::Int.index()], 2);
        let ret = &dag.nodes[dag.ret];
        assert_eq!(ret.out_dt, Some(DataType::Float));
    }

    #[test]
    fn branch_condition_traced() {
        let dag = figure2();
        let branch = dag.nodes.iter().find(|n| n.kind == UdfNodeKind::Branch).unwrap();
        let cond = branch.cond.as_ref().expect("condition should trace");
        assert_eq!(cond.param, "x");
        assert_eq!(cond.op, CmpOp::Lt);
        assert_eq!(cond.literal, 20.0);
    }

    #[test]
    fn flipped_condition_normalizes() {
        let udf = parse_udf("def f(x):\n    if 5 > x:\n        return 1\n    return 0\n").unwrap();
        let dag = build_dag(&udf, &[DataType::Int], DataType::Int, DagConfig::default());
        let b = dag.nodes.iter().find(|n| n.kind == UdfNodeKind::Branch).unwrap();
        let cond = b.cond.as_ref().unwrap();
        assert_eq!(cond.param, "x");
        assert_eq!(cond.op, CmpOp::Lt);
        assert_eq!(cond.literal, 5.0);
    }

    #[test]
    fn path_enumeration_on_figure2() {
        let dag = figure2();
        let paths = dag.enumerate_paths(64).unwrap();
        assert_eq!(paths.len(), 2);
        // Every path ends at RET and starts at INV.
        for p in &paths {
            assert_eq!(*p.nodes.first().unwrap(), dag.inv);
            assert_eq!(*p.nodes.last().unwrap(), dag.ret);
            assert_eq!(p.conditions.len(), 1);
        }
        // Exactly one path goes through the LOOP node (the else side).
        let loop_idx = dag.nodes.iter().position(|n| n.kind == UdfNodeKind::Loop).unwrap();
        let through: Vec<_> = paths.iter().filter(|p| p.nodes.contains(&loop_idx)).collect();
        assert_eq!(through.len(), 1);
        assert!(!through[0].conditions[0].1, "loop is on the false side of x < 20");
    }

    #[test]
    fn row_annotation_splits_by_selectivity() {
        let mut dag = figure2();
        // Estimator: x < 20 holds for 30% of rows.
        dag.annotate_rows(1000.0, |conds| {
            let mut p = 1.0;
            for (c, taken) in conds {
                let s = c.as_ref().map_or(0.5, |_| 0.3);
                p *= if *taken { s } else { 1.0 - s };
            }
            p
        });
        assert!((dag.nodes[dag.inv].in_rows - 1000.0).abs() < 1e-6);
        assert!((dag.nodes[dag.ret].in_rows - 1000.0).abs() < 1e-6);
        let loop_idx = dag.nodes.iter().position(|n| n.kind == UdfNodeKind::Loop).unwrap();
        assert!((dag.nodes[loop_idx].in_rows - 700.0).abs() < 1e-6);
        // The then-side COMP gets the 300.
        let then_comp = dag
            .nodes
            .iter()
            .find(|n| n.kind == UdfNodeKind::Comp && !n.loop_part && n.in_rows < 500.0)
            .unwrap();
        assert!((then_comp.in_rows - 300.0).abs() < 1e-6);
    }

    #[test]
    fn ablation_configs_change_structure() {
        let udf = parse_udf(
            "def f(x):\n    z = 0\n    for i in range(10):\n        z = z + x\n    return z\n",
        )
        .unwrap();
        let full = build_dag(&udf, &[DataType::Int], DataType::Int, DagConfig::default());
        let no_resid = build_dag(
            &udf,
            &[DataType::Int],
            DataType::Int,
            DagConfig { loop_end_nodes: true, residual_loop_edges: false },
        );
        let no_end = build_dag(
            &udf,
            &[DataType::Int],
            DataType::Int,
            DagConfig { loop_end_nodes: false, residual_loop_edges: false },
        );
        assert!(full.edges.iter().any(|e| e.2 == EdgeKind::Residual));
        assert!(!no_resid.edges.iter().any(|e| e.2 == EdgeKind::Residual));
        assert!(no_resid.nodes.iter().any(|n| n.kind == UdfNodeKind::LoopEnd));
        assert!(!no_end.nodes.iter().any(|n| n.kind == UdfNodeKind::LoopEnd));
        assert_eq!(no_end.len(), full.len() - 1);
    }

    #[test]
    fn while_trip_count_from_countdown_pattern() {
        let udf = parse_udf(
            "def f(x):\n    w = 12\n    while w > 0:\n        x = x + 1\n        w = w - 1\n    return x\n",
        )
        .unwrap();
        let dag = build_dag(&udf, &[DataType::Int], DataType::Int, DagConfig::default());
        let l = dag.nodes.iter().find(|n| n.kind == UdfNodeKind::Loop).unwrap();
        assert_eq!(l.loop_kind, Some(LoopKindFeat::While));
        assert_eq!(l.nr_iter, 12.0);
    }

    #[test]
    fn data_dependent_trip_count_estimated() {
        let udf = parse_udf(
            "def f(x):\n    z = 0\n    for i in range(int(x) % 10 + 1):\n        z = z + i\n    return z\n",
        )
        .unwrap();
        let dag = build_dag(&udf, &[DataType::Int], DataType::Int, DagConfig::default());
        let l = dag.nodes.iter().find(|n| n.kind == UdfNodeKind::Loop).unwrap();
        assert!((l.nr_iter - 6.0).abs() < 1e-9, "expected m/2+1 = 6, got {}", l.nr_iter);
    }

    #[test]
    fn early_returns_all_reach_ret() {
        let udf = parse_udf(
            "def f(x):\n    if x < 0:\n        return 0\n    if x < 10:\n        return 1\n    return 2\n",
        )
        .unwrap();
        let dag = build_dag(&udf, &[DataType::Int], DataType::Int, DagConfig::default());
        let paths = dag.enumerate_paths(64).unwrap();
        assert_eq!(paths.len(), 3);
        for p in &paths {
            assert_eq!(*p.nodes.last().unwrap(), dag.ret);
        }
    }

    #[test]
    fn depth_shrinks_with_residual_edges() {
        let udf = parse_udf(
            "def f(x):\n    z = 0\n    for i in range(10):\n        z = z + x\n        z = z * 2\n        z = z - 1\n        z = z + 3\n    return z\n",
        )
        .unwrap();
        let dag = build_dag(&udf, &[DataType::Int], DataType::Int, DagConfig::default());
        // Depth ignores residual edges by definition here; the GNN benefit is
        // tested at the model level. Just sanity-check depth is positive and
        // bounded by node count.
        let d = dag.depth();
        assert!(d > 0 && d < dag.len());
    }

    /// `enumerate_paths` as first written: a stack of whole paths, each
    /// cloned at every node, successors found by scanning the edge list.
    fn enumerate_paths_as_written(dag: &UdfDag, max_paths: usize) -> Option<Vec<BranchPath>> {
        let mut paths = Vec::new();
        let mut stack = vec![BranchPath { conditions: Vec::new(), nodes: vec![dag.inv] }];
        while let Some(path) = stack.pop() {
            if paths.len() + stack.len() > max_paths {
                return None;
            }
            let last = *path.nodes.last().expect("paths are non-empty");
            if last == dag.ret {
                paths.push(path);
                continue;
            }
            let node = &dag.nodes[last];
            if node.kind == UdfNodeKind::Branch {
                for taken in [true, false] {
                    let kind = if taken { EdgeKind::BranchTrue } else { EdgeKind::BranchFalse };
                    for (dst, k) in dag.successors(last) {
                        if k == kind {
                            let mut p = path.clone();
                            p.conditions.push((node.cond.clone(), taken));
                            p.nodes.push(dst);
                            stack.push(p);
                        }
                    }
                }
            } else {
                for (dst, k) in dag.successors(last) {
                    if k == EdgeKind::Flow {
                        let mut p = path.clone();
                        p.nodes.push(dst);
                        stack.push(p);
                    }
                }
            }
        }
        Some(paths)
    }

    /// `annotate_rows` as first written, over the paths of the oracle above.
    fn annotate_rows_as_written(
        dag: &mut UdfDag,
        input_rows: f64,
        path_prob: impl Fn(&[(Option<BranchCondInfo>, bool)]) -> f64,
    ) {
        let mut node_prob = vec![0.0f64; dag.nodes.len()];
        match enumerate_paths_as_written(dag, 256) {
            Some(paths) if !paths.is_empty() => {
                let mut probs: Vec<f64> =
                    paths.iter().map(|p| path_prob(&p.conditions).max(0.0)).collect();
                let total: f64 = probs.iter().sum();
                if total > 1e-12 {
                    for p in probs.iter_mut() {
                        *p /= total;
                    }
                } else {
                    let uniform = 1.0 / probs.len() as f64;
                    probs.iter_mut().for_each(|p| *p = uniform);
                }
                for (path, prob) in paths.iter().zip(probs) {
                    for &n in &path.nodes {
                        node_prob[n] += prob;
                    }
                }
            }
            _ => node_prob.iter_mut().for_each(|p| *p = 1.0),
        }
        for (node, prob) in dag.nodes.iter_mut().zip(node_prob) {
            node.in_rows = input_rows * prob.clamp(0.0, 1.0);
        }
    }

    /// What a path's probability reads of its conditions, made to tell
    /// conditions and their order apart.
    fn uneven_prob(conds: &[(Option<BranchCondInfo>, bool)]) -> f64 {
        conds.iter().enumerate().fold(1.0, |p, (i, (c, taken))| {
            let s = c.as_ref().map_or(0.5, |c| (c.literal.abs() % 7.0 + 1.0) / (9.0 + i as f64));
            p * if *taken { s } else { 1.0 - s }
        })
    }

    fn assert_same_paths(dag: &UdfDag, max_paths: usize, what: &str) {
        let key = |paths: Option<Vec<BranchPath>>| {
            paths.map(|ps| ps.into_iter().map(|p| (p.conditions, p.nodes)).collect::<Vec<_>>())
        };
        let (got, want) =
            (dag.enumerate_paths(max_paths), enumerate_paths_as_written(dag, max_paths));
        assert_eq!(key(got), key(want), "{what}, cap {max_paths}");
    }

    /// The buffer-and-backtrack walk enumerates exactly what the
    /// clone-per-node walk did — path order, conditions, nodes, and `None`
    /// at the cap — and the rows annotated from it keep their bits: over the
    /// `lint udf` corpus (6 schemas × 250 generated UDFs) under all three
    /// DAG configurations, at the 256 cap and at caps the corpus crosses,
    /// and on hand-built DAGs of exactly 256 and 257 paths.
    #[test]
    fn path_walk_matches_the_walk_as_first_written() {
        use graceful_common::rng::Rng;
        use graceful_storage::datagen::{generate, schema};
        use graceful_udf::UdfGenerator;
        let configs = [
            DagConfig::default(),
            DagConfig { loop_end_nodes: true, residual_loop_edges: false },
            DagConfig { loop_end_nodes: false, residual_loop_edges: false },
        ];
        let (mut dags, mut capped) = (0, 0);
        for name in ["tpc_h", "imdb", "ssb", "airline", "baseball", "movielens"] {
            let db = generate(&schema(name), 0.02, 7);
            for seed in 0..250 {
                let Ok(u) = UdfGenerator::default().generate(&db, &mut Rng::seed(seed)) else {
                    continue;
                };
                for cfg in configs {
                    let dag = build_dag(&u.def, &[DataType::Int], DataType::Float, cfg);
                    for cap in [256, 3, 2, 1] {
                        assert_same_paths(&dag, cap, &u.source);
                    }
                    capped += usize::from(dag.enumerate_paths(2).is_none());
                    let (mut got, mut want) = (dag.clone(), dag);
                    got.annotate_rows(1000.0, uneven_prob);
                    annotate_rows_as_written(&mut want, 1000.0, uneven_prob);
                    let rows = |d: &UdfDag| {
                        d.nodes.iter().map(|n| n.in_rows.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(rows(&got), rows(&want), "{}", u.source);
                    dags += 1;
                }
            }
        }
        assert!(dags >= 4000 && capped > 0, "{dags} DAGs, {capped} over a cap of 2");
        // Eight ifs in a row make 2^8 = 256 paths; an early return in front
        // of them makes 257. The cap counts found + pending paths at each
        // pop, so the last path completes unchecked: a DAG one path over
        // the cap still comes back whole, two over it does not.
        let ifs: String = (0..8).map(|i| format!("    if x < {i}:\n        x = x + 1\n")).collect();
        let early = format!("def f(x):\n    if x > 9:\n        return 0\n{ifs}    return x\n");
        for (src, outcomes) in [
            (format!("def f(x):\n{ifs}    return x\n"), [Some(256), Some(256), Some(256)]),
            (early, [None, Some(257), Some(257)]),
        ] {
            let udf = parse_udf(&src).unwrap();
            let dag = build_dag(&udf, &[DataType::Int], DataType::Int, DagConfig::default());
            for (cap, outcome) in [255, 256, 257].into_iter().zip(outcomes) {
                assert_same_paths(&dag, cap, &src);
                assert_eq!(dag.enumerate_paths(cap).map(|p| p.len()), outcome, "cap {cap}");
            }
        }
    }

    /// A hand-built graph with a cycle ends the walk with `None` (the
    /// clone-per-node walk never returned).
    #[test]
    fn a_cycle_is_not_walked_forever() {
        let mut dag = figure2();
        let first_comp = dag.nodes.iter().position(|n| n.kind == UdfNodeKind::Comp).unwrap();
        dag.edges.push((dag.ret - 1, first_comp, EdgeKind::Flow));
        dag.edges.retain(|&(s, d, _)| !(s == dag.ret - 1 && d == dag.ret));
        assert!(dag.enumerate_paths(256).is_none());
    }

    #[test]
    fn generated_udfs_build_valid_dags() {
        use graceful_common::rng::Rng;
        use graceful_storage::datagen::{generate, schema};
        use graceful_udf::{UdfGenConfig, UdfGenerator};
        let db = generate(&schema("tpc_h"), 0.02, 3);
        let mut rng = Rng::seed(9);
        let gen = UdfGenerator::new(UdfGenConfig::default());
        for _ in 0..40 {
            let u = gen.generate(&db, &mut rng).unwrap();
            let types: Vec<DataType> = u
                .input_columns
                .iter()
                .map(|c| db.table(&u.table).unwrap().column_type(c).unwrap())
                .collect();
            let mut dag = build_dag(&u.def, &types, DataType::Float, DagConfig::default());
            // Structural invariants.
            for &(s, d, _) in &dag.edges {
                assert!(s < d, "topological construction violated:\n{}", u.source);
            }
            assert_eq!(dag.topo_order().len(), dag.len());
            let loops = dag.nodes.iter().filter(|n| n.kind == UdfNodeKind::Loop).count();
            let ends = dag.nodes.iter().filter(|n| n.kind == UdfNodeKind::LoopEnd).count();
            assert_eq!(loops, ends, "unbalanced LOOP/LOOP_END:\n{}", u.source);
            // Row annotation conserves input rows at INV and RET.
            dag.annotate_rows(500.0, |conds| {
                conds.iter().fold(1.0, |p, (c, taken)| {
                    let s = c.as_ref().map_or(0.5, |_| 0.4);
                    p * if *taken { s } else { 1.0 - s }
                })
            });
            assert!((dag.nodes[dag.ret].in_rows - 500.0).abs() < 1e-6, "{}", u.source);
        }
    }
}
