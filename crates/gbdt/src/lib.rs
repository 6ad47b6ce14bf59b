//! Gradient-boosted regression trees — the XGBoost stand-in.
//!
//! The paper's FlatVector baseline predicts per-tuple UDF costs from a flat
//! feature vector with XGBoost. This crate implements the required subset:
//! squared-error gradient boosting over exact-greedy regression trees with
//! shrinkage, depth / leaf-size limits, and optional feature subsampling.
//! It is deterministic given the seed and serializes with `serde`.

#![forbid(unsafe_code)]

pub mod tree;

pub use tree::{Gbdt, GbdtConfig, RegressionTree};
