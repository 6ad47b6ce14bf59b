//! Reverse-mode automatic differentiation over a per-sample tape.
//!
//! The tape holds a closed set of operations ([`Op`]) — exactly those the
//! GRACEFUL model needs. Forward values are computed eagerly as nodes are
//! pushed; [`Tape::backward`] walks the tape in reverse, accumulating
//! gradients into tape-local buffers and, for [`Op::Param`] leaves, into the
//! shared [`ParamStore`] gradient buffers.
//!
//! Gradient correctness is verified against central finite differences in
//! the tests below (and again end-to-end in `mlp`/`gnn` tests).

use crate::mlp::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Variable handle on a tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarId(pub usize);

/// Tape operations.
#[derive(Debug, Clone)]
pub enum Op {
    /// Constant input (no gradient).
    Input,
    /// Trainable parameter (gradient accumulates into the store).
    Param(ParamId),
    /// Matrix product `a · b`.
    MatMul(VarId, VarId),
    /// `a + b` with `b` a `1×c` row broadcast over `a`'s rows (bias add).
    AddRow(VarId, VarId),
    /// Element-wise sum of two same-shape variables.
    Add(VarId, VarId),
    /// Leaky ReLU with slope `alpha` for negative inputs.
    LeakyRelu(VarId, f32),
    /// Column-wise concatenation of two row-compatible variables.
    ConcatCols(VarId, VarId),
    /// Mean over the rows of each input variable (all `1×c`), i.e. the
    /// child-state aggregation of the GNN. Empty input list is invalid.
    MeanRows(Vec<VarId>),
    /// Sum over the rows of each input variable (all `1×c`). Cost is
    /// additive, so sum aggregation is the natural child-state reduction for
    /// a cost model (mean dilutes counts).
    SumRows(Vec<VarId>),
}

struct Node {
    op: Op,
    value: Tensor,
}

/// A gradient tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Self {
        Tape { nodes: Vec::with_capacity(256) }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a variable.
    pub fn value(&self, v: VarId) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Push a constant input.
    pub fn input(&mut self, t: Tensor) -> VarId {
        self.push(Op::Input, t)
    }

    /// Push a parameter leaf (value copied from the store).
    pub fn param(&mut self, store: &ParamStore, p: ParamId) -> VarId {
        self.push(Op::Param(p), store.value(p).clone())
    }

    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    pub fn add_row(&mut self, a: VarId, bias: VarId) -> VarId {
        let (x, b) = (self.value(a), self.value(bias));
        assert_eq!(b.rows, 1, "bias must be a row vector");
        assert_eq!(x.cols, b.cols, "bias width mismatch");
        let mut out = x.clone();
        for r in 0..out.rows {
            for c in 0..out.cols {
                out.data[r * out.cols + c] += b.data[c];
            }
        }
        self.push(Op::AddRow(a, bias), out)
    }

    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let mut out = self.value(a).clone();
        out.add_assign(self.value(b));
        self.push(Op::Add(a, b), out)
    }

    pub fn leaky_relu(&mut self, a: VarId, alpha: f32) -> VarId {
        let mut out = self.value(a).clone();
        for x in out.data.iter_mut() {
            if *x < 0.0 {
                *x *= alpha;
            }
        }
        self.push(Op::LeakyRelu(a, alpha), out)
    }

    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        let (x, y) = (self.value(a), self.value(b));
        assert_eq!(x.rows, y.rows, "concat row mismatch");
        let rows = x.rows;
        let cols = x.cols + y.cols;
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            data.extend_from_slice(&x.data[r * x.cols..(r + 1) * x.cols]);
            data.extend_from_slice(&y.data[r * y.cols..(r + 1) * y.cols]);
        }
        self.push(Op::ConcatCols(a, b), Tensor::from_vec(rows, cols, data))
    }

    pub fn mean_rows(&mut self, inputs: Vec<VarId>) -> VarId {
        assert!(!inputs.is_empty(), "mean of zero variables");
        let cols = self.value(inputs[0]).cols;
        let mut out = Tensor::zeros(1, cols);
        for &v in &inputs {
            let t = self.value(v);
            assert_eq!(t.rows, 1, "mean_rows expects row vectors");
            assert_eq!(t.cols, cols, "mean_rows width mismatch");
            out.add_assign(t);
        }
        out.scale_assign(1.0 / inputs.len() as f32);
        self.push(Op::MeanRows(inputs), out)
    }

    pub fn sum_rows(&mut self, inputs: Vec<VarId>) -> VarId {
        assert!(!inputs.is_empty(), "sum of zero variables");
        let cols = self.value(inputs[0]).cols;
        let mut out = Tensor::zeros(1, cols);
        for &v in &inputs {
            let t = self.value(v);
            assert_eq!(t.rows, 1, "sum_rows expects row vectors");
            assert_eq!(t.cols, cols, "sum_rows width mismatch");
            out.add_assign(t);
        }
        self.push(Op::SumRows(inputs), out)
    }

    fn push(&mut self, op: Op, value: Tensor) -> VarId {
        self.nodes.push(Node { op, value });
        VarId(self.nodes.len() - 1)
    }

    /// Back-propagate from `output` with gradient `seed` (same shape as the
    /// output), accumulating parameter gradients into `store`.
    pub fn backward(&self, output: VarId, seed: Tensor, store: &mut ParamStore) {
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        assert_eq!(seed.rows, self.nodes[output.0].value.rows);
        assert_eq!(seed.cols, self.nodes[output.0].value.cols);
        grads[output.0] = Some(seed);
        for i in (0..n).rev() {
            let Some(g) = grads[i].take() else { continue };
            match &self.nodes[i].op {
                Op::Input => {}
                Op::Param(p) => store.grad_mut(*p).add_assign(&g),
                Op::MatMul(a, b) => {
                    let ga = g.matmul_transpose_b(&self.nodes[b.0].value);
                    let gb = self.nodes[a.0].value.transpose_a_matmul(&g);
                    accumulate(&mut grads, a.0, ga);
                    accumulate(&mut grads, b.0, gb);
                }
                Op::AddRow(a, bias) => {
                    // Bias gradient: column sums of g.
                    let mut gb = Tensor::zeros(1, g.cols);
                    for r in 0..g.rows {
                        for c in 0..g.cols {
                            gb.data[c] += g.data[r * g.cols + c];
                        }
                    }
                    accumulate(&mut grads, bias.0, gb);
                    accumulate(&mut grads, a.0, g);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, a.0, g.clone());
                    accumulate(&mut grads, b.0, g);
                }
                Op::LeakyRelu(a, alpha) => {
                    let x = &self.nodes[a.0].value;
                    let mut ga = g;
                    for (gi, &xi) in ga.data.iter_mut().zip(&x.data) {
                        if xi < 0.0 {
                            *gi *= alpha;
                        }
                    }
                    accumulate(&mut grads, a.0, ga);
                }
                Op::ConcatCols(a, b) => {
                    let (ca, cb) = (self.nodes[a.0].value.cols, self.nodes[b.0].value.cols);
                    let rows = g.rows;
                    let mut ga = Tensor::zeros(rows, ca);
                    let mut gb = Tensor::zeros(rows, cb);
                    for r in 0..rows {
                        ga.data[r * ca..(r + 1) * ca]
                            .copy_from_slice(&g.data[r * (ca + cb)..r * (ca + cb) + ca]);
                        gb.data[r * cb..(r + 1) * cb]
                            .copy_from_slice(&g.data[r * (ca + cb) + ca..(r + 1) * (ca + cb)]);
                    }
                    accumulate(&mut grads, a.0, ga);
                    accumulate(&mut grads, b.0, gb);
                }
                Op::MeanRows(inputs) => {
                    let mut share = g.clone();
                    share.scale_assign(1.0 / inputs.len() as f32);
                    for &v in inputs {
                        accumulate(&mut grads, v.0, share.clone());
                    }
                }
                Op::SumRows(inputs) => {
                    for &v in inputs {
                        accumulate(&mut grads, v.0, g.clone());
                    }
                }
            }
        }
    }
}

fn accumulate(grads: &mut [Option<Tensor>], idx: usize, g: Tensor) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::ParamStore;
    use graceful_common::rng::Rng;

    /// Finite-difference gradient check for a scalar-output function built
    /// on the tape.
    fn check_param_gradient<F>(build: F, param_shape: (usize, usize))
    where
        F: Fn(&mut Tape, &ParamStore, ParamId) -> VarId,
    {
        let mut rng = Rng::seed(42);
        let mut store = ParamStore::new(7);
        let p = store.alloc(param_shape.0, param_shape.1, &mut Rng::seed(1));
        // Randomize parameter values.
        for v in store.value_mut_for_test(p).data.iter_mut() {
            *v = rng.normal(0.0, 1.0) as f32;
        }
        // Analytic gradient.
        let mut tape = Tape::new();
        let out = build(&mut tape, &store, p);
        assert_eq!(tape.value(out).len(), 1, "gradient check needs scalar output");
        store.zero_grad();
        tape.backward(out, Tensor::from_vec(1, 1, vec![1.0]), &mut store);
        let analytic = store.grad(p).clone();
        // Numeric gradient.
        let eps = 1e-3f32;
        for i in 0..analytic.len() {
            let orig = store.value(p).data[i];
            store.value_mut_for_test(p).data[i] = orig + eps;
            let mut t1 = Tape::new();
            let o1 = build(&mut t1, &store, p);
            let f1 = t1.value(o1).data[0];
            store.value_mut_for_test(p).data[i] = orig - eps;
            let mut t2 = Tape::new();
            let o2 = build(&mut t2, &store, p);
            let f2 = t2.value(o2).data[0];
            store.value_mut_for_test(p).data[i] = orig;
            let numeric = (f1 - f2) / (2.0 * eps);
            let a = analytic.data[i];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                "grad mismatch at {i}: analytic={a}, numeric={numeric}"
            );
        }
    }

    #[test]
    fn matmul_gradient() {
        check_param_gradient(
            |tape, store, p| {
                let x = tape.input(Tensor::row(&[0.5, -1.5, 2.0]));
                let w = tape.param(store, p);
                let y = tape.matmul(x, w); // 1x1
                y
            },
            (3, 1),
        );
    }

    #[test]
    fn full_layer_gradient() {
        check_param_gradient(
            |tape, store, p| {
                let x = tape.input(Tensor::row(&[0.3, 0.7]));
                let w = tape.param(store, p);
                let h = tape.matmul(x, w); // 1x2
                let a = tape.leaky_relu(h, 0.01);
                let ones = tape.input(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
                tape.matmul(a, ones) // 1x1 scalar
            },
            (2, 2),
        );
    }

    #[test]
    fn concat_and_mean_gradient() {
        check_param_gradient(
            |tape, store, p| {
                let w = tape.param(store, p); // 1x2 used as two row vectors via concat
                let x = tape.input(Tensor::row(&[1.0, -2.0]));
                let c = tape.concat_cols(w, x); // 1x4
                let m = tape.mean_rows(vec![c]); // identity mean
                let ones = tape.input(Tensor::from_vec(4, 1, vec![1.0; 4]));
                tape.matmul(m, ones)
            },
            (1, 2),
        );
    }

    #[test]
    fn add_row_bias_gradient() {
        check_param_gradient(
            |tape, store, p| {
                let x = tape.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
                let b = tape.param(store, p); // 1x2 bias broadcast over 2 rows
                let y = tape.add_row(x, b);
                let act = tape.leaky_relu(y, 0.1);
                let ones_r = tape.input(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
                let col = tape.matmul(act, ones_r); // 2x1
                let ones_l = tape.input(Tensor::from_vec(1, 2, vec![1.0, 1.0]));
                tape.matmul(ones_l, col) // 1x1
            },
            (1, 2),
        );
    }

    #[test]
    fn mean_rows_averages() {
        let mut tape = Tape::new();
        let a = tape.input(Tensor::row(&[2.0, 4.0]));
        let b = tape.input(Tensor::row(&[4.0, 8.0]));
        let m = tape.mean_rows(vec![a, b]);
        assert_eq!(tape.value(m).data, vec![3.0, 6.0]);
    }

    #[test]
    fn shared_variable_grads_accumulate() {
        // f(w) = w·w_fixed + w·w_fixed (same w used twice) — gradient doubles.
        let mut store = ParamStore::new(3);
        let p = store.alloc(1, 1, &mut Rng::seed(2));
        store.value_mut_for_test(p).data[0] = 1.5;
        let mut tape = Tape::new();
        let w = tape.param(&store, p);
        let double = tape.add(w, w);
        store.zero_grad();
        tape.backward(double, Tensor::from_vec(1, 1, vec![1.0]), &mut store);
        assert_eq!(store.grad(p).data[0], 2.0);
    }
}
