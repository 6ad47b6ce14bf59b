//! Dense row-major `f32` matrices and [`matmul_rows`], the kernel every
//! matrix product runs on.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A dense matrix (vectors are `1×n` or `n×1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Tensor {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(rows * cols, data.len(), "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Row vector from a slice.
    pub fn row(v: &[f32]) -> Self {
        Tensor { rows: 1, cols: v.len(), data: v.to_vec() }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// `self · other`, one output row at a time on [`matmul_rows`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Tensor::zeros(self.rows, other.cols);
        matmul_rows(|i| self.row_slice(i), &other.data, other.cols, &mut out.data);
        out
    }

    /// Materialized transpose.
    ///
    /// For a finite `b`, `a.matmul(&b.transpose())` accumulates exactly the
    /// same products in exactly the same order as `a.matmul_transpose_b(&b)`
    /// (ascending inner index; the zero-skip only elides `±0.0` additions
    /// onto a never-`-0.0` accumulator), so the two are bit-identical — but
    /// the `matmul` inner loop vectorizes while the fused dot products
    /// cannot. The batched GNN backward transposes each weight matrix once
    /// per step and takes the fast path.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self · otherᵀ` (used in backward passes without materializing the
    /// transpose).
    pub fn matmul_transpose_b(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_tb shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                let a_row = &self.data[i * k..(i + 1) * k];
                let b_row = &other.data[j * k..(j + 1) * k];
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// `selfᵀ · other`: element `(i, j)` reduces `self[p][i] · other[p][j]`
    /// over `p` ascending — the [`Tensor::matmul`] chain of the transpose.
    pub fn transpose_a_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_ta shape mismatch");
        self.transpose().matmul(other)
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow the consecutive rows `rows` as one row-major slice.
    #[inline]
    pub fn row_range(&self, rows: Range<usize>) -> &[f32] {
        &self.data[rows.start * self.cols..rows.end * self.cols]
    }

    /// Borrow the consecutive rows `rows` mutably.
    #[inline]
    pub fn row_range_mut(&mut self, rows: Range<usize>) -> &mut [f32] {
        &mut self.data[rows.start * self.cols..rows.end * self.cols]
    }

    /// Gather `rows` of `self` into a new `rows.len() × cols` matrix (the
    /// batched replacement for building many `1×c` row tensors).
    pub fn gather_rows(&self, rows: &[usize]) -> Tensor {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            data.extend_from_slice(self.row_slice(r));
        }
        Tensor::from_vec(rows.len(), self.cols, data)
    }

    /// Scatter-add `src`'s rows into `self` at `rows` (row `i` of `src` is
    /// added to row `rows[i]` of `self`), strictly in `src` row order — the
    /// deterministic adjoint of [`Tensor::gather_rows`].
    pub fn scatter_add_rows(&mut self, rows: &[usize], src: &Tensor) {
        assert_eq!(rows.len(), src.rows, "scatter row-count mismatch");
        assert_eq!(self.cols, src.cols, "scatter width mismatch");
        for (i, &r) in rows.iter().enumerate() {
            let dst = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (d, &s) in dst.iter_mut().zip(src.row_slice(i)) {
                *d += s;
            }
        }
    }

    /// Segment sum with a **pinned in-order reduction**: row `r` of `self`
    /// is added into output row `segments[r]`, scanning rows strictly in
    /// ascending `r`. Each output row therefore accumulates its members in
    /// input order starting from zero — the same float-addition chain as
    /// summing the member rows one by one, so results are bit-identical to a
    /// per-segment `sum_rows` over the same member order.
    pub fn segment_sum(&self, segments: &[usize], n_segments: usize) -> Tensor {
        assert_eq!(segments.len(), self.rows, "segment id per row required");
        let mut out = Tensor::zeros(n_segments, self.cols);
        for (r, &s) in segments.iter().enumerate() {
            let dst = &mut out.data[s * self.cols..(s + 1) * self.cols];
            for (d, &x) in dst.iter_mut().zip(self.row_slice(r)) {
                *d += x;
            }
        }
        out
    }

    /// Broadcast-add a `1×cols` bias row over every row (batched bias).
    pub fn add_row_broadcast(&mut self, bias: &Tensor) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(self.cols, bias.cols, "bias width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, &b) in row.iter_mut().zip(&bias.data) {
                *x += b;
            }
        }
    }

    /// Leaky-ReLU every element in place (batched activation).
    pub fn leaky_relu_assign(&mut self, alpha: f32) {
        for x in self.data.iter_mut() {
            if *x < 0.0 {
                *x *= alpha;
            }
        }
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.data.len(), other.data.len(), "add shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scale in place.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// Output columns per register tile: eight 4-lane vectors, as many
/// independent add chains as it takes to keep baseline x86-64's two vector
/// adders busy, with registers to spare for the operands.
const TILE: usize = 32;

/// Row `i` of `out` (`n` wide, overwritten) becomes `x(i) · w`, where `w`
/// is `x(i).len() × n`, row-major.
///
/// Every output element is one chain: `+0.0`, then `+= a · b` for `p`
/// ascending, skipping the `p` whose `a = x(i)[p]` is `0.0`. A width that is
/// a multiple of `TILE` = 32 (every width of a hidden-32 model) computes each
/// tile of an output row in a local array the compiler keeps in registers,
/// so `w` is the only memory its inner loop reads.
pub fn matmul_rows<'a>(x: impl Fn(usize) -> &'a [f32], w: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    if n.is_multiple_of(TILE) {
        let (w, _) = w.as_chunks::<TILE>();
        let tiles = n / TILE;
        for (i, o) in out.chunks_exact_mut(n).enumerate() {
            let xi = x(i);
            for (c, o) in o.as_chunks_mut::<TILE>().0.iter_mut().enumerate() {
                let mut acc = [0.0f32; TILE];
                for (p, &a) in xi.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    for (s, &b) in acc.iter_mut().zip(&w[p * tiles + c]) {
                        *s += a * b;
                    }
                }
                *o = acc;
            }
        }
        return;
    }
    for (i, o) in out.chunks_exact_mut(n).enumerate() {
        o.fill(0.0);
        for (p, &a) in x(i).iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in o.iter_mut().zip(&w[p * n..(p + 1) * n]) {
                *o += a * b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transpose_variants_agree() {
        let a = Tensor::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = Tensor::from_vec(
            4,
            3,
            vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 1.0, 1.0, 2.0, 2.0, 2.0],
        );
        // a · bᵀ the slow way: transpose b manually.
        let mut bt = Tensor::zeros(3, 4);
        for r in 0..4 {
            for c in 0..3 {
                bt.set(c, r, b.get(r, c));
            }
        }
        assert_eq!(a.matmul(&bt).data, a.matmul_transpose_b(&b).data);
        // aᵀ · x
        let x = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut at = Tensor::zeros(3, 2);
        for r in 0..2 {
            for c in 0..3 {
                at.set(c, r, a.get(r, c));
            }
        }
        assert_eq!(at.matmul(&x).data, a.transpose_a_matmul(&x).data);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Tensor::row(&[1.0, 2.0]);
        a.add_assign(&Tensor::row(&[0.5, -1.0]));
        a.scale_assign(2.0);
        assert_eq!(a.data, vec![3.0, 2.0]);
        assert!((a.norm() - (13.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let m = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.rows, 3);
        assert_eq!(g.data, vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let mut acc = Tensor::zeros(3, 2);
        acc.scatter_add_rows(&[2, 0, 2], &g);
        // Row 2 received two contributions, row 0 one, row 1 none.
        assert_eq!(acc.data, vec![1.0, 2.0, 0.0, 0.0, 10.0, 12.0]);
    }

    #[test]
    fn segment_sum_matches_manual_in_order_chain() {
        // Awkward summands: the in-order chain differs bitwise from other
        // orders, so this pins the reduction order as well as the values.
        let vals: Vec<f32> = (0..8).map(|i| ((i * 2654435761u64 as usize) as f32).sqrt()).collect();
        let m = Tensor::from_vec(4, 2, vals.clone());
        let segs = [1usize, 0, 1, 1];
        let out = m.segment_sum(&segs, 2);
        let mut want0 = Tensor::zeros(1, 2);
        want0.add_assign(&Tensor::row(m.row_slice(1)));
        let mut want1 = Tensor::zeros(1, 2);
        for r in [0usize, 2, 3] {
            want1.add_assign(&Tensor::row(m.row_slice(r)));
        }
        assert_eq!(out.row_slice(0), want0.data.as_slice());
        assert_eq!(
            out.row_slice(1).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want1.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn broadcast_bias_and_activation() {
        let mut m = Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        m.add_row_broadcast(&Tensor::row(&[1.0, 1.0]));
        m.leaky_relu_assign(0.5);
        assert_eq!(m.data, vec![2.0, -0.5, 4.0, -1.5]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// The kernels as first written (ikj with the zero skip; p-i-j with the
    /// zero skip; plain dot products): the definition every production path
    /// must match bit for bit. They live here, not in production, so that a
    /// kernel that reorders a chain has something to disagree with — the tape
    /// oracle calls the production kernels itself.
    mod written {
        use super::Tensor;

        pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
            let (m, k, n) = (a.rows, a.cols, b.cols);
            let mut out = Tensor::zeros(m, n);
            for i in 0..m {
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for p in 0..k {
                    let x = a.data[i * k + p];
                    if x == 0.0 {
                        continue;
                    }
                    for (o, &y) in out_row.iter_mut().zip(&b.data[p * n..(p + 1) * n]) {
                        *o += x * y;
                    }
                }
            }
            out
        }

        pub fn transpose_a_matmul(a: &Tensor, b: &Tensor) -> Tensor {
            let (k, m, n) = (a.rows, a.cols, b.cols);
            let mut out = Tensor::zeros(m, n);
            for p in 0..k {
                for i in 0..m {
                    let x = a.data[p * m + i];
                    if x == 0.0 {
                        continue;
                    }
                    let b_row = &b.data[p * n..(p + 1) * n];
                    for (o, &y) in out.data[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                        *o += x * y;
                    }
                }
            }
            out
        }

        pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Tensor {
            let (m, k, n) = (a.rows, a.cols, b.rows);
            let mut out = Tensor::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for p in 0..k {
                        acc += a.data[i * k + p] * b.data[j * k + p];
                    }
                    out.data[i * n + j] = acc;
                }
            }
            out
        }
    }

    /// Bits, except that every NaN is one NaN: Rust leaves NaN payloads
    /// unspecified (and the compiler may commute an add), so which of two
    /// NaNs survives is not part of any chain.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.data.iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect()
    }

    /// Every production kernel — `matmul` (and with it `matmul_rows`, the
    /// engine's only product) on its generic and its 32-wide register-tile
    /// path, `transpose_a_matmul`, `matmul_transpose_b` — against the written
    /// definition, over shapes on both sides of every tile boundary and
    /// values that tell chains apart: signed zeros, subnormals, ±1e30 (whose
    /// products overflow), NaN and ordinary values of mixed magnitude.
    #[test]
    fn kernels_match_the_written_definition() {
        let mut rng = graceful_common::rng::Rng::seed(0x5eed);
        let special = [0.0, -0.0, 1e-40, -3e-42, 1e30, -1e30, f32::NAN, f32::MIN_POSITIVE];
        let mut fill = |rows: usize, cols: usize| {
            let data = (0..rows * cols)
                .map(|_| match rng.next_u64() % 16 {
                    0 => *rng.choose(&special),
                    1..=3 => 0.0,
                    _ => (rng.range(-1.0..1.0) * 2f64.powi(rng.range(-12..12))) as f32,
                })
                .collect();
            Tensor::from_vec(rows, cols, data)
        };
        for m in [0, 1, 5, 17, 64] {
            for k in [1, 2, 31, 32, 33, 64, 65] {
                for n in [1, 7, 31, 32, 33, 64] {
                    let (a, b, bt, at) = (fill(m, k), fill(k, n), fill(n, k), fill(k, m));
                    let shape = format!("m={m} k={k} n={n}");
                    assert_eq!(
                        bits(&a.matmul(&b)),
                        bits(&written::matmul(&a, &b)),
                        "matmul {shape}"
                    );
                    let (got, want) =
                        (at.transpose_a_matmul(&b), written::transpose_a_matmul(&at, &b));
                    assert_eq!(bits(&got), bits(&want), "transpose_a_matmul {shape}");
                    let (got, want) =
                        (a.matmul_transpose_b(&bt), written::matmul_transpose_b(&a, &bt));
                    assert_eq!(bits(&got), bits(&want), "matmul_transpose_b {shape}");
                }
            }
        }
        // `a == 0.0` against `b = ±inf` is the skip's 0, never `0 · inf`.
        for n in [7, 32, 64] {
            let a = Tensor::from_vec(2, 3, vec![0.0, 2.0, -0.0, 1.0, 0.0, 0.0]);
            let mut b = Tensor::zeros(3, n);
            for j in 0..n {
                b.set(0, j, f32::INFINITY);
                b.set(1, j, 0.5 + j as f32);
                b.set(2, j, f32::NEG_INFINITY);
            }
            let prod = a.matmul(&b);
            assert!(prod.data[..n].iter().all(|x| x.is_finite()), "n={n}: {:?}", prod.data);
            assert_eq!(bits(&prod), bits(&written::matmul(&a, &b)), "n={n}");
            let at = a.transpose();
            let (got, want) = (at.transpose_a_matmul(&b), written::transpose_a_matmul(&at, &b));
            assert!(got.data[..n].iter().all(|x| x.is_finite()), "n={n}: {:?}", got.data);
            assert_eq!(bits(&got), bits(&want), "n={n}");
        }
    }
}
