//! Parameter store, linear layers, MLPs, and the Adam optimizer.

use crate::tape::{Tape, VarId};
use crate::tensor::Tensor;
use graceful_common::rng::Rng;
use graceful_common::{fnv1a, GracefulError, FNV1A_OFFSET};
use serde::{Deserialize, Serialize};

/// Handle to a parameter tensor in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamId(pub usize);

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Global gradient-norm clip (0 disables).
    pub clip_norm: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, clip_norm: 5.0 }
    }
}

/// Owns all trainable tensors plus their gradient and Adam moment buffers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamStore {
    seed: u64,
    values: Vec<Tensor>,
    #[serde(skip)]
    grads: Vec<Tensor>,
    #[serde(skip)]
    m: Vec<Tensor>,
    #[serde(skip)]
    v: Vec<Tensor>,
    #[serde(skip)]
    step: u64,
}

impl ParamStore {
    pub fn new(seed: u64) -> Self {
        ParamStore {
            seed,
            values: Vec::new(),
            grads: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
            step: 0,
        }
    }

    /// Allocate a parameter with Xavier/Glorot uniform init.
    pub fn alloc(&mut self, rows: usize, cols: usize, rng: &mut Rng) -> ParamId {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data: Vec<f32> = (0..rows * cols).map(|_| (rng.range(-bound..bound)) as f32).collect();
        self.values.push(Tensor::from_vec(rows, cols, data));
        self.grads.push(Tensor::zeros(rows, cols));
        self.m.push(Tensor::zeros(rows, cols));
        self.v.push(Tensor::zeros(rows, cols));
        ParamId(self.values.len() - 1)
    }

    /// Allocate a zero-initialized parameter (biases).
    pub fn alloc_zeros(&mut self, rows: usize, cols: usize) -> ParamId {
        self.values.push(Tensor::zeros(rows, cols));
        self.grads.push(Tensor::zeros(rows, cols));
        self.m.push(Tensor::zeros(rows, cols));
        self.v.push(Tensor::zeros(rows, cols));
        ParamId(self.values.len() - 1)
    }

    pub fn value(&self, p: ParamId) -> &Tensor {
        &self.values[p.0]
    }

    /// Test-only mutable access (gradient checking perturbs parameters).
    pub fn value_mut_for_test(&mut self, p: ParamId) -> &mut Tensor {
        &mut self.values[p.0]
    }

    pub fn grad(&self, p: ParamId) -> &Tensor {
        &self.grads[p.0]
    }

    pub fn grad_mut(&mut self, p: ParamId) -> &mut Tensor {
        &mut self.grads[p.0]
    }

    /// Zero every gradient — the first thing every training step does. A
    /// store whose buffers were released gets fresh ones first, so training
    /// restarts Adam from zero moments, as on a loaded model.
    pub fn zero_grad(&mut self) {
        if self.grads.len() != self.values.len() {
            self.rebuild_buffers();
        }
        for g in self.grads.iter_mut() {
            g.data.fill(0.0);
        }
    }

    /// Free the gradient and Adam buffers — three more copies of every
    /// parameter, which a model serving estimates never reads. The next
    /// [`ParamStore::zero_grad`] rebuilds them.
    pub fn release_buffers(&mut self) {
        (self.grads, self.m, self.v, self.step) = (Vec::new(), Vec::new(), Vec::new(), 0);
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// FNV-1a digest over every parameter scalar's bit pattern (shape
    /// included), for bit-identity assertions in differential tests.
    pub fn param_checksum(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        let mut mix = |v: u64| h = fnv1a(h, &v.to_le_bytes());
        for t in &self.values {
            mix(t.rows as u64);
            mix(t.cols as u64);
            for &x in &t.data {
                mix(x.to_bits() as u64);
            }
        }
        h
    }

    /// Every stored tensor holds exactly `rows × cols` values (a
    /// deserialized one is not checked by `serde`).
    pub(crate) fn check_shapes(&self) -> Result<(), String> {
        for (i, t) in self.values.iter().enumerate() {
            if t.rows.checked_mul(t.cols) != Some(t.data.len()) {
                return Err(format!(
                    "parameter {i} declares {}x{} but holds {} values",
                    t.rows,
                    t.cols,
                    t.data.len()
                ));
            }
        }
        Ok(())
    }

    /// Restore the transient buffers after deserialization.
    pub fn rebuild_buffers(&mut self) {
        self.grads = self.values.iter().map(|t| Tensor::zeros(t.rows, t.cols)).collect();
        self.m = self.grads.clone();
        self.v = self.grads.clone();
        self.step = 0;
    }

    /// One Adam step over all parameters (with global norm clipping).
    ///
    /// A non-finite global gradient norm is a typed [`GracefulError::Model`]
    /// that leaves parameters, moments and the step count as they were.
    /// Otherwise each tensor is one fused pass: clip, moments, bias
    /// correction and update per element.
    pub fn adam_step(&mut self, cfg: &AdamConfig) -> graceful_common::Result<()> {
        let norm: f32 = self.grads.iter().map(|g| g.norm().powi(2)).sum::<f32>().sqrt();
        if !norm.is_finite() {
            return Err(GracefulError::Model(format!(
                "gradient norm is {norm}; the step is rejected and no parameter changes"
            )));
        }
        // Scaling by 1.0 changes no bit, so an unclipped step is the same pass.
        let clip =
            if cfg.clip_norm > 0.0 && norm > cfg.clip_norm { cfg.clip_norm / norm } else { 1.0 };
        self.step += 1;
        let t = self.step as f32;
        let (b1, b2) = (cfg.beta1, cfg.beta2);
        let (bc1, bc2) = (1.0 - b1.powf(t), 1.0 - b2.powf(t));
        let tensors = self.values.iter_mut().zip(&self.grads).zip(&mut self.m).zip(&mut self.v);
        for (((w, g), m), v) in tensors {
            let elems = w.data.iter_mut().zip(&g.data).zip(&mut m.data).zip(&mut v.data);
            for (((w, &g), m), v) in elems {
                let g = g * clip;
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let (mh, vh) = (*m / bc1, *v / bc2);
                *w -= cfg.lr * mh / (vh.sqrt() + cfg.eps);
            }
        }
        Ok(())
    }
}

/// A linear layer `y = x·W + b`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        Linear {
            w: store.alloc(in_dim, out_dim, rng),
            b: store.alloc_zeros(1, out_dim),
            in_dim,
            out_dim,
        }
    }

    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: VarId) -> VarId {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let h = tape.matmul(x, w);
        tape.add_row(h, b)
    }
}

/// A multi-layer perceptron with LeakyReLU(0.05) between layers (none after
/// the last).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    pub layers: Vec<Linear>,
}

/// Negative-side slope of the LeakyReLU activations.
pub const LEAKY_SLOPE: f32 = 0.05;

impl Mlp {
    /// `dims` lists layer widths, e.g. `[in, hidden, out]`.
    pub fn new(store: &mut ParamStore, dims: &[usize], rng: &mut Rng) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least one layer");
        let layers = dims.windows(2).map(|w| Linear::new(store, w[0], w[1], rng)).collect();
        Mlp { layers }
    }

    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, mut x: VarId) -> VarId {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(tape, store, x);
            if i != last {
                x = tape.leaky_relu(x, LEAKY_SLOPE);
            }
        }
        x
    }

    /// Check a deserialized MLP against the layer widths `dims` it must have
    /// and the store it indexes: the layer count, and per layer the declared
    /// widths, both `ParamId`s in range, a `in×out` weight and a `1×out` bias.
    pub(crate) fn check(&self, store: &ParamStore, dims: &[usize]) -> Result<(), String> {
        if self.layers.len() + 1 != dims.len() {
            return Err(format!("{} layers, expected {}", self.layers.len(), dims.len() - 1));
        }
        for (i, (layer, d)) in self.layers.iter().zip(dims.windows(2)).enumerate() {
            if (layer.in_dim, layer.out_dim) != (d[0], d[1]) {
                return Err(format!(
                    "layer {i} declares {}x{}, expected {}x{}",
                    layer.in_dim, layer.out_dim, d[0], d[1]
                ));
            }
            for (what, id, rows) in [("weight", layer.w.0, d[0]), ("bias", layer.b.0, 1)] {
                let t = store.values.get(id).ok_or_else(|| {
                    format!(
                        "layer {i} {what} is parameter {id}, but only {} are stored",
                        store.values.len()
                    )
                })?;
                if (t.rows, t.cols) != (rows, d[1]) {
                    return Err(format!(
                        "layer {i} {what} (parameter {id}) is {}x{}, expected {rows}x{}",
                        t.rows, t.cols, d[1]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Train a 2-layer MLP to fit y = 2a - 3b + 1; verifies the full stack
    /// (forward, backward, Adam) converges.
    #[test]
    fn mlp_fits_linear_function() {
        let mut rng = Rng::seed(7);
        let mut store = ParamStore::new(7);
        let mlp = Mlp::new(&mut store, &[2, 16, 1], &mut rng);
        let cfg = AdamConfig { lr: 5e-3, ..AdamConfig::default() };
        let samples: Vec<([f32; 2], f32)> = (0..256)
            .map(|_| {
                let a = rng.range(-1.0..1.0) as f32;
                let b = rng.range(-1.0..1.0) as f32;
                ([a, b], 2.0 * a - 3.0 * b + 1.0)
            })
            .collect();
        let mut last_loss = f32::INFINITY;
        // Generous epoch cap: convergence speed depends on the init stream,
        // and the early break below exits as soon as the loss is small.
        for epoch in 0..900 {
            let mut loss = 0.0;
            store.zero_grad();
            for (x, y) in &samples {
                let mut tape = Tape::new();
                let input = tape.input(Tensor::row(x));
                let out = mlp.forward(&mut tape, &store, input);
                let pred = tape.value(out).data[0];
                let err = pred - y;
                loss += err * err;
                tape.backward(
                    out,
                    Tensor::from_vec(1, 1, vec![2.0 * err / samples.len() as f32]),
                    &mut store,
                );
            }
            store.adam_step(&cfg).unwrap();
            last_loss = loss / samples.len() as f32;
            if epoch > 50 && last_loss < 1e-3 {
                break;
            }
        }
        assert!(last_loss < 1e-2, "MLP failed to fit: loss={last_loss}");
    }

    #[test]
    fn adam_clips_gradients() {
        let mut rng = Rng::seed(1);
        let mut store = ParamStore::new(1);
        let p = store.alloc(1, 4, &mut rng);
        store.grad_mut(p).data.copy_from_slice(&[100.0, 100.0, 100.0, 100.0]);
        let before = store.value(p).clone();
        store.adam_step(&AdamConfig { lr: 0.1, clip_norm: 1.0, ..AdamConfig::default() }).unwrap();
        let after = store.value(p);
        // With clipping the per-step move is bounded by ~lr.
        for (b, a) in before.data.iter().zip(&after.data) {
            assert!((b - a).abs() < 0.11);
        }
    }

    /// A non-finite gradient norm rejects the step before anything moves:
    /// the next good step equals the first step of a twin that never saw it.
    #[test]
    fn adam_rejects_a_non_finite_gradient() {
        let mut store = ParamStore::new(1);
        let p = store.alloc(1, 4, &mut Rng::seed(1));
        let mut twin = store.clone();
        store.grad_mut(p).data[2] = f32::NAN;
        let params = store.param_checksum();
        assert!(matches!(store.adam_step(&AdamConfig::default()), Err(GracefulError::Model(_))));
        assert_eq!(store.param_checksum(), params);
        for s in [&mut store, &mut twin] {
            s.grad_mut(p).data.copy_from_slice(&[0.5, -1.0, 2.0, 0.0]);
            s.adam_step(&AdamConfig::default()).unwrap();
        }
        assert_eq!(store.param_checksum(), twin.param_checksum());
    }

    /// Released buffers come back on the next step, fresh: the step equals
    /// the first step of a store that never trained.
    #[test]
    fn released_buffers_rebuild_on_the_next_step() {
        let mut store = ParamStore::new(2);
        let p = store.alloc(2, 3, &mut Rng::seed(2));
        let mut twin = store.clone();
        store.grad_mut(p).data.fill(0.25);
        store.adam_step(&AdamConfig::default()).unwrap();
        twin.values = store.values.clone();
        store.release_buffers();
        for s in [&mut store, &mut twin] {
            s.zero_grad();
            s.grad_mut(p).data.copy_from_slice(&[1.0, -2.0, 0.5, 0.0, 3.0, -1.0]);
            s.adam_step(&AdamConfig::default()).unwrap();
        }
        assert_eq!(store.param_checksum(), twin.param_checksum());
    }

    #[test]
    fn serde_round_trip_rebuilds_buffers() {
        let mut rng = Rng::seed(3);
        let mut store = ParamStore::new(3);
        let mlp = Mlp::new(&mut store, &[3, 8, 1], &mut rng);
        let json = serde_json::to_string(&(&store, &mlp)).unwrap();
        let (mut store2, mlp2): (ParamStore, Mlp) = serde_json::from_str(&json).unwrap();
        store2.rebuild_buffers();
        // Same prediction before/after.
        let x = Tensor::row(&[0.1, -0.2, 0.3]);
        let mut t1 = Tape::new();
        let i1 = t1.input(x.clone());
        let o1 = mlp.forward(&mut t1, &store, i1);
        let mut t2 = Tape::new();
        let i2 = t2.input(x);
        let o2 = mlp2.forward(&mut t2, &store2, i2);
        assert_eq!(t1.value(o1).data, t2.value(o2).data);
    }

    #[test]
    fn param_count() {
        let mut rng = Rng::seed(4);
        let mut store = ParamStore::new(4);
        let _ = Mlp::new(&mut store, &[5, 7, 2], &mut rng);
        // (5*7 + 7) + (7*2 + 2) = 42 + 16
        assert_eq!(store.param_count(), 58);
    }
}
