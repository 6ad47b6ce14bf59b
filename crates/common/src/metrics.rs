//! Evaluation metrics used throughout the paper's experiments.
//!
//! The paper reports the **Q-error** `Q = max(ŷ/y, y/ŷ)` — the relative
//! factor between estimate and truth, always ≥ 1 — summarised by its median,
//! 95th and 99th percentiles, plus workload **speedups** for the advisor
//! experiments.

/// Q-error between a prediction and the true value (both must be positive).
///
/// Values are clamped to a small epsilon so that zero-cost corner cases do
/// not produce infinities; the paper's workloads never contain zero runtimes.
pub fn q_error(predicted: f64, actual: f64) -> f64 {
    let eps = 1e-9;
    let p = predicted.max(eps);
    let a = actual.max(eps);
    (p / a).max(a / p)
}

/// Percentile (inclusive, nearest-rank with linear interpolation) of a sample.
///
/// `q` is in `[0, 1]`; e.g. `percentile(&v, 0.5)` is the median.
///
/// # Panics
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values must not be NaN"));
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median shortcut.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Summary of a Q-error distribution as reported in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QErrorSummary {
    pub median: f64,
    pub p95: f64,
    pub p99: f64,
    pub count: usize,
}

impl QErrorSummary {
    /// Summarise a set of (predicted, actual) pairs.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Self {
        let qs: Vec<f64> = pairs.iter().map(|&(p, a)| q_error(p, a)).collect();
        Self::from_q_errors(&qs)
    }

    /// Summarise pre-computed Q-errors.
    pub fn from_q_errors(qs: &[f64]) -> Self {
        QErrorSummary {
            median: percentile(qs, 0.5),
            p95: percentile(qs, 0.95),
            p99: percentile(qs, 0.99),
            count: qs.len(),
        }
    }

    /// Element-wise average of several summaries (used to average the 20
    /// leave-one-out folds like Table III's caption describes).
    pub fn average(summaries: &[QErrorSummary]) -> Self {
        assert!(!summaries.is_empty());
        let n = summaries.len() as f64;
        QErrorSummary {
            median: summaries.iter().map(|s| s.median).sum::<f64>() / n,
            p95: summaries.iter().map(|s| s.p95).sum::<f64>() / n,
            p99: summaries.iter().map(|s| s.p99).sum::<f64>() / n,
            count: summaries.iter().map(|s| s.count).sum(),
        }
    }
}

impl std::fmt::Display for QErrorSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.2} / p95 {:.2} / p99 {:.2} (n={})",
            self.median, self.p95, self.p99, self.count
        )
    }
}

/// Workload speedup: `baseline_runtime / achieved_runtime`.
pub fn speedup(baseline_runtime: f64, achieved_runtime: f64) -> f64 {
    baseline_runtime.max(1e-12) / achieved_runtime.max(1e-12)
}

/// Geometric mean, used for aggregating per-query speedups.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_symmetric_and_at_least_one() {
        assert_eq!(q_error(2.0, 1.0), 2.0);
        assert_eq!(q_error(1.0, 2.0), 2.0);
        assert_eq!(q_error(3.0, 3.0), 1.0);
        assert!(q_error(0.0, 5.0) > 1.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn summary_orders() {
        let pairs: Vec<(f64, f64)> = (1..=100).map(|i| (i as f64 * 1.1, i as f64)).collect();
        let s = QErrorSummary::from_pairs(&pairs);
        assert!((s.median - 1.1).abs() < 1e-9);
        assert!(s.p95 >= s.median && s.p99 >= s.p95);
        assert_eq!(s.count, 100);
    }

    #[test]
    fn averaging_summaries() {
        let a = QErrorSummary { median: 1.0, p95: 2.0, p99: 3.0, count: 10 };
        let b = QErrorSummary { median: 3.0, p95: 4.0, p99: 5.0, count: 30 };
        let avg = QErrorSummary::average(&[a, b]);
        assert_eq!(avg.median, 2.0);
        assert_eq!(avg.p95, 3.0);
        assert_eq!(avg.count, 40);
    }

    #[test]
    fn speedup_and_geomean() {
        assert_eq!(speedup(10.0, 5.0), 2.0);
        let g = geometric_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn registry_histogram_percentiles_match_paper_metrics() {
        // The obs registry's p50/p95/p99 must agree bit-for-bit with this
        // module's `percentile` on identical samples — the registry is the
        // operational view, this module is the paper-metrics view, and the
        // two must never tell different stories about the same data.
        let samples: Vec<f64> =
            (0..1000).map(|i| ((i * 7919) % 1000) as f64 * 0.25 + 1.0).collect();
        let h = graceful_obs::registry::histogram("test.common.percentile_crosscheck");
        for &s in &samples {
            h.record(s);
        }
        let summary = h.summary().expect("samples recorded");
        assert_eq!(summary.p50.to_bits(), percentile(&samples, 0.5).to_bits());
        assert_eq!(summary.p95.to_bits(), percentile(&samples, 0.95).to_bits());
        assert_eq!(summary.p99.to_bits(), percentile(&samples, 0.99).to_bits());
        assert_eq!(
            graceful_obs::registry::percentile(&samples, 0.95).to_bits(),
            percentile(&samples, 0.95).to_bits()
        );
    }
}
