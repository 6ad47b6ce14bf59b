//! Regression trees and gradient boosting.

use graceful_common::rng::Rng;
use graceful_common::{GracefulError, Result};
use serde::{Deserialize, Serialize};

/// Boosting configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GbdtConfig {
    pub n_trees: usize,
    pub max_depth: usize,
    pub min_leaf: usize,
    /// Shrinkage / learning rate.
    pub eta: f64,
    /// Fraction of features considered per split (1.0 = all).
    pub feature_subsample: f64,
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            n_trees: 160,
            max_depth: 5,
            min_leaf: 4,
            eta: 0.08,
            feature_subsample: 0.9,
            seed: 13,
        }
    }
}

/// A tree node: either a split or a leaf value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum TreeNode {
    Split { feature: usize, threshold: f64, left: usize, right: usize },
    Leaf { value: f64 },
}

/// A single regression tree stored as a node arena.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<TreeNode>,
}

impl RegressionTree {
    /// Fit a tree to `(x, residual)` via exact greedy variance-reduction
    /// splits.
    fn fit(x: &[Vec<f64>], y: &[f64], idx: &[usize], cfg: &GbdtConfig, rng: &mut Rng) -> Self {
        let mut nodes = Vec::new();
        Self::build(x, y, idx, 0, cfg, rng, &mut nodes);
        RegressionTree { nodes }
    }

    fn build(
        x: &[Vec<f64>],
        y: &[f64],
        idx: &[usize],
        depth: usize,
        cfg: &GbdtConfig,
        rng: &mut Rng,
        nodes: &mut Vec<TreeNode>,
    ) -> usize {
        let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len().max(1) as f64;
        if depth >= cfg.max_depth || idx.len() < 2 * cfg.min_leaf {
            nodes.push(TreeNode::Leaf { value: mean });
            return nodes.len() - 1;
        }
        let n_features = x.first().map(|r| r.len()).unwrap_or(0);
        let base_score: f64 = idx.iter().map(|&i| (y[i] - mean).powi(2)).sum();
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        #[allow(clippy::needless_range_loop)] // `f` is a feature index used across rows
        for f in 0..n_features {
            if cfg.feature_subsample < 1.0 && !rng.chance(cfg.feature_subsample) {
                continue;
            }
            // Sort samples by feature value.
            let mut order: Vec<usize> = idx.to_vec();
            order.sort_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).expect("finite features"));
            // Prefix sums for O(1) variance computation per split point.
            let mut prefix_sum = 0.0;
            let mut prefix_sq = 0.0;
            let total_sum: f64 = order.iter().map(|&i| y[i]).sum();
            let total_sq: f64 = order.iter().map(|&i| y[i] * y[i]).sum();
            let n = order.len() as f64;
            for k in 0..order.len() - 1 {
                let i = order[k];
                prefix_sum += y[i];
                prefix_sq += y[i] * y[i];
                let k1 = (k + 1) as f64;
                // Skip ties: can only split between distinct values.
                if x[order[k]][f] == x[order[k + 1]][f] {
                    continue;
                }
                if k + 1 < cfg.min_leaf || order.len() - k - 1 < cfg.min_leaf {
                    continue;
                }
                let left_var = prefix_sq - prefix_sum * prefix_sum / k1;
                let right_sum = total_sum - prefix_sum;
                let right_sq = total_sq - prefix_sq;
                let right_var = right_sq - right_sum * right_sum / (n - k1);
                let gain = base_score - left_var - right_var;
                if gain > best.map_or(1e-12, |(_, _, g)| g) {
                    let threshold = (x[order[k]][f] + x[order[k + 1]][f]) / 2.0;
                    best = Some((f, threshold, gain));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            nodes.push(TreeNode::Leaf { value: mean });
            return nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| x[i][feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            nodes.push(TreeNode::Leaf { value: mean });
            return nodes.len() - 1;
        }
        // Reserve our slot, then build children.
        let slot = nodes.len();
        nodes.push(TreeNode::Leaf { value: mean }); // placeholder
        let left = Self::build(x, y, &left_idx, depth + 1, cfg, rng, nodes);
        let right = Self::build(x, y, &right_idx, depth + 1, cfg, rng, nodes);
        nodes[slot] = TreeNode::Split { feature, threshold, left, right };
        slot
    }

    /// Predict one sample.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Split { feature, threshold, left, right } => {
                    node = if x.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Gradient-boosted ensemble (squared loss).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gbdt {
    pub config: GbdtConfig,
    base: f64,
    trees: Vec<RegressionTree>,
}

impl Gbdt {
    /// Fit on `(x, y)`.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: GbdtConfig) -> Result<Self> {
        if x.is_empty() || x.len() != y.len() {
            return Err(GracefulError::Model("empty or mismatched training data".into()));
        }
        let mut rng = Rng::seed(config.seed);
        let base = y.iter().sum::<f64>() / y.len() as f64;
        let mut pred: Vec<f64> = vec![base; y.len()];
        let idx: Vec<usize> = (0..y.len()).collect();
        let mut trees = Vec::with_capacity(config.n_trees);
        for _ in 0..config.n_trees {
            // Residuals are the negative gradient of squared loss.
            let residuals: Vec<f64> = y.iter().zip(&pred).map(|(t, p)| t - p).collect();
            let tree = RegressionTree::fit(x, &residuals, &idx, &config, &mut rng);
            for (i, p) in pred.iter_mut().enumerate() {
                *p += config.eta * tree.predict(&x[i]);
            }
            trees.push(tree);
        }
        Ok(Gbdt { config, base, trees })
    }

    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.trees.iter().map(|t| self.config.eta * t.predict(x)).sum::<f64>()
    }

    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = Rng::seed(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.range(0.0..10.0);
            let b = rng.range(0.0..10.0);
            let c = rng.range(0.0..1.0);
            // Non-linear target with an interaction.
            y.push(3.0 * a + if b > 5.0 { 20.0 } else { 0.0 } + a * b * 0.5 + c);
            x.push(vec![a, b, c]);
        }
        (x, y)
    }

    #[test]
    fn fits_nonlinear_function() {
        let (x, y) = make_data(600, 1);
        let model = Gbdt::fit(&x, &y, GbdtConfig::default()).unwrap();
        let (xt, yt) = make_data(200, 2);
        let mse: f64 =
            xt.iter().zip(&yt).map(|(xi, yi)| (model.predict(xi) - yi).powi(2)).sum::<f64>()
                / yt.len() as f64;
        let var = {
            let m = yt.iter().sum::<f64>() / yt.len() as f64;
            yt.iter().map(|v| (v - m).powi(2)).sum::<f64>() / yt.len() as f64
        };
        assert!(mse < 0.1 * var, "GBDT underfits: mse={mse}, var={var}");
    }

    #[test]
    fn deterministic() {
        let (x, y) = make_data(200, 3);
        let m1 = Gbdt::fit(&x, &y, GbdtConfig::default()).unwrap();
        let m2 = Gbdt::fit(&x, &y, GbdtConfig::default()).unwrap();
        assert_eq!(m1.predict(&x[0]), m2.predict(&x[0]));
    }

    #[test]
    fn respects_min_leaf_on_tiny_data() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1.0, 2.0, 3.0];
        let model = Gbdt::fit(&x, &y, GbdtConfig { min_leaf: 2, ..Default::default() }).unwrap();
        // With min_leaf=2 and 3 samples, trees are single leaves → predict mean.
        assert!((model.predict(&[1.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_data_rejected() {
        assert!(Gbdt::fit(&[], &[], GbdtConfig::default()).is_err());
        assert!(Gbdt::fit(&[vec![1.0]], &[1.0, 2.0], GbdtConfig::default()).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let (x, y) = make_data(100, 5);
        let model = Gbdt::fit(&x, &y, GbdtConfig { n_trees: 20, ..Default::default() }).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let loaded: Gbdt = serde_json::from_str(&json).unwrap();
        // JSON prints shortest-round-trip floats; summation is identical but
        // leaf values may differ in the last ulp.
        let (a, b) = (model.predict(&x[0]), loaded.predict(&x[0]));
        assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn monotone_in_strong_feature() {
        let (x, y) = make_data(400, 7);
        let model = Gbdt::fit(&x, &y, GbdtConfig::default()).unwrap();
        // Feature 0 has slope 3+0.5b; prediction should rise with it.
        let low = model.predict(&[1.0, 5.0, 0.5]);
        let high = model.predict(&[9.0, 5.0, 0.5]);
        assert!(high > low + 5.0, "low={low} high={high}");
    }
}
