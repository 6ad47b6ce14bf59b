//! The process-wide metrics registry: named counters, gauges and
//! histograms with a snapshot/diff API.
//!
//! Handles are cheap clones over shared atomics; hot paths should resolve
//! them once (e.g. in a `OnceLock`) and reuse them. All metrics are
//! process-global and monotone-ish (counters only grow), so concurrent tests
//! assert *deltas* between [`snapshot`]s rather than absolute values.
//!
//! Histogram percentiles are [`percentile`] (sort, rank `q·(n−1)`, linear
//! interpolation) over the retained samples — the one percentile of the
//! workspace, which `graceful_common::metrics` re-exports for the paper
//! metrics, so registry `p95`/`p99` and the paper's tables cannot disagree.

use crate::sink::lock;
use std::cmp::Ordering as Cmp;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Retained raw samples per histogram. Recording keeps exact `count`, `sum`,
/// `min` and `max` forever but stops storing individual samples past this
/// cap, bounding memory on arbitrarily long runs; percentiles are computed
/// over the retained prefix.
pub const HISTOGRAM_RETAINED: usize = 65_536;

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (an `f64` stored as bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default)]
struct HistState {
    samples: Vec<f64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// A sample distribution summarised by count/sum/min/max and interpolated
/// percentiles over its retained samples.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Mutex<HistState>>);

impl Histogram {
    /// Record one sample. Non-finite values are counted but excluded from
    /// the retained set (they would poison the percentile sort).
    pub fn record(&self, v: f64) {
        let mut st = lock(&self.0);
        if st.count == 0 || v < st.min {
            st.min = v;
        }
        if st.count == 0 || v > st.max {
            st.max = v;
        }
        st.count += 1;
        st.sum += v;
        if v.is_finite() && st.samples.len() < HISTOGRAM_RETAINED {
            st.samples.push(v);
        }
    }

    /// Summarise the distribution; `None` when nothing was recorded yet.
    pub fn summary(&self) -> Option<HistogramSummary> {
        let st = lock(&self.0);
        if st.count == 0 {
            return None;
        }
        let (p50, p95, p99) = if st.samples.is_empty() {
            (f64::NAN, f64::NAN, f64::NAN)
        } else {
            (
                percentile(&st.samples, 0.5),
                percentile(&st.samples, 0.95),
                percentile(&st.samples, 0.99),
            )
        };
        Some(HistogramSummary {
            count: st.count,
            retained: st.samples.len() as u64,
            sum: st.sum,
            mean: st.sum / st.count as f64,
            min: st.min,
            max: st.max,
            p50,
            p95,
            p99,
        })
    }
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded in total.
    pub count: u64,
    /// Samples retained for percentile computation (≤ [`HISTOGRAM_RETAINED`]).
    pub retained: u64,
    pub sum: f64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

/// Percentile (inclusive, nearest-rank with linear interpolation) of a
/// sample: `q` is in `[0, 1]`, e.g. `percentile(&v, 0.5)` is the median.
///
/// # Panics
/// Panics if `values` is empty or holds a NaN, or `q` is outside `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    assert!(!values.iter().any(|v| v.is_nan()), "metric values must not be NaN");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Cmp::Equal));
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

struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

static REGISTRY: Registry = Registry {
    counters: Mutex::new(BTreeMap::new()),
    gauges: Mutex::new(BTreeMap::new()),
    histograms: Mutex::new(BTreeMap::new()),
};

/// The counter registered under `name` (created on first use). Resolve once
/// and reuse the handle on hot paths.
pub fn counter(name: &str) -> Counter {
    let new = || Counter(Arc::default());
    lock(&REGISTRY.counters).entry(name.to_string()).or_insert_with(new).clone()
}

/// The gauge registered under `name` (created on first use, at 0.0).
pub fn gauge(name: &str) -> Gauge {
    let new = || Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits())));
    lock(&REGISTRY.gauges).entry(name.to_string()).or_insert_with(new).clone()
}

/// The histogram registered under `name` (created on first use).
pub fn histogram(name: &str) -> Histogram {
    let new = || Histogram(Arc::default());
    lock(&REGISTRY.histograms).entry(name.to_string()).or_insert_with(new).clone()
}

/// Point-in-time view of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Counter deltas since `earlier` (saturating, so a metric born between
    /// the snapshots reports its full value). Gauges and histograms carry
    /// the *later* state — they summarise, they don't subtract.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                (k.clone(), v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)))
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// Counter value under `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Human-readable multi-line rendering, sorted by metric name.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter   {k} = {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge     {k} = {v}\n"));
        }
        for (k, s) in &self.histograms {
            out.push_str(&format!(
                "histogram {k}: n={} mean={:.1} p50={:.1} p95={:.1} p99={:.1} max={:.1}\n",
                s.count, s.mean, s.p50, s.p95, s.p99, s.max
            ));
        }
        out
    }
}

/// Snapshot every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let counters = lock(&REGISTRY.counters).iter().map(|(k, c)| (k.clone(), c.get())).collect();
    let gauges = lock(&REGISTRY.gauges).iter().map(|(k, g)| (k.clone(), g.get())).collect();
    let histograms = lock(&REGISTRY.histograms)
        .iter()
        .filter_map(|(k, h)| h.summary().map(|s| (k.clone(), s)))
        .collect();
    MetricsSnapshot { counters, gauges, histograms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let c = counter("test.registry.counter");
        let before = snapshot();
        c.add(5);
        c.incr();
        let after = snapshot();
        assert_eq!(after.diff(&before).counter("test.registry.counter"), 6);
        // Same name resolves to the same underlying atomic.
        assert_eq!(counter("test.registry.counter").get(), c.get());
    }

    #[test]
    fn gauges_hold_last_value() {
        let g = gauge("test.registry.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set(-1.0);
        assert_eq!(snapshot().gauges["test.registry.gauge"], -1.0);
    }

    #[test]
    fn histogram_summary_matches_percentile_algorithm() {
        let h = histogram("test.registry.hist");
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        for &s in &samples {
            h.record(s);
        }
        let s = h.summary().expect("recorded");
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50.to_bits(), percentile(&samples, 0.5).to_bits());
        assert_eq!(s.p95.to_bits(), percentile(&samples, 0.95).to_bits());
        assert_eq!(s.p99.to_bits(), percentile(&samples, 0.99).to_bits());
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_caps_retained_samples() {
        let h = histogram("test.registry.capped");
        for i in 0..(HISTOGRAM_RETAINED + 10) {
            h.record(i as f64);
        }
        let s = h.summary().expect("recorded");
        assert_eq!(s.count, (HISTOGRAM_RETAINED + 10) as u64);
        assert_eq!(s.retained, HISTOGRAM_RETAINED as u64);
        // min/max/sum stay exact past the cap.
        assert_eq!(s.max, (HISTOGRAM_RETAINED + 9) as f64);
    }

    #[test]
    fn empty_histogram_has_no_summary() {
        assert!(histogram("test.registry.empty").summary().is_none());
        assert!(!snapshot().histograms.contains_key("test.registry.empty"));
    }

    #[test]
    fn render_mentions_every_kind() {
        counter("test.render.c").incr();
        gauge("test.render.g").set(1.0);
        histogram("test.render.h").record(3.0);
        let text = snapshot().render();
        assert!(text.contains("test.render.c"));
        assert!(text.contains("test.render.g"));
        assert!(text.contains("test.render.h"));
    }
}
