//! Deterministic random number generation.
//!
//! All stochastic choices in the reproduction flow through [`Rng`], a thin
//! wrapper over `rand::rngs::StdRng` seeded explicitly. Child generators are
//! derived with [`Rng::fork`] so that independent subsystems (data
//! generation, query generation, model init) never perturb each other's
//! streams — adding a query to the workload does not change the data.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng as _, SeedableRng};

/// A deterministic, fork-able random number generator.
#[derive(Debug, Clone)]
pub struct Rng {
    inner: StdRng,
}

impl Rng {
    /// Create a generator from an explicit 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        Rng { inner: StdRng::seed_from_u64(seed) }
    }

    /// Derive an independent child generator.
    ///
    /// The child stream is a pure function of `(parent seed so far, salt)`,
    /// so two forks with different salts are independent and reproducible.
    pub fn fork(&mut self, salt: u64) -> Self {
        let base: u64 = self.inner.gen();
        Rng::seed(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform sample from a range (`low..high` or `low..=high`).
    pub fn range<T, R>(&mut self, r: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(r)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Choose an element of a slice uniformly at random.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        let idx = self.inner.gen_range(0..items.len());
        &items[idx]
    }

    /// Choose an index according to (unnormalised, non-negative) weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut target = self.inner.gen::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        items.shuffle(&mut self.inner);
    }

    /// Sample `k` distinct indices from `0..n` (k is clamped to n).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut self.inner);
        idx.truncate(k);
        idx
    }

    /// Standard normal draw (Box–Muller; two uniforms per call).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1: f64 = self.inner.gen::<f64>().max(1e-12);
        let u2: f64 = self.inner.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Zipf-like draw over `0..n` with skew `s` (s=0 is uniform).
    ///
    /// Implemented via inverse-CDF over the harmonic weights; intended for
    /// modest `n` (data generation uses it per column domain, not per row —
    /// callers cache the CDF when sampling many rows).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0);
        if s <= 0.0 {
            return self.inner.gen_range(0..n);
        }
        // Rejection-free two-pass is O(n); fine for domain construction.
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
        }
        let mut target = self.inner.gen::<f64>() * total;
        for i in 0..n {
            target -= 1.0 / ((i + 1) as f64).powf(s);
            if target <= 0.0 {
                return i;
            }
        }
        n - 1
    }

    /// Raw `u64`, for deriving salts.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }
}

/// Build a cached Zipf cumulative distribution over `n` ranks with skew `s`.
///
/// Returns a vector of cumulative probabilities, ending in exactly 1.0;
/// [`ZipfSampler`] samples it. Used by the data generators, which draw
/// millions of values from the same skewed domain.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0);
    let mut weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s.max(0.0))).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in weights.iter_mut() {
        acc += *w / total;
        *w = acc;
    }
    // Guard against FP drift at the tail.
    if let Some(last) = weights.last_mut() {
        *last = 1.0;
    }
    weights
}

/// Inverse-CDF sampling of [`zipf_cdf`] through a guide table (Chen & Asau,
/// 1974): a draw searches only the entries between two guide entries, on
/// average one, and returns exactly the rank a binary search over the whole
/// CDF returns.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    /// `guide[k]`: the number of CDF entries `c` with `c · n < k` (products
    /// rounded as [`ZipfSampler::rank`] rounds `u · n`).
    guide: Vec<usize>,
}

impl ZipfSampler {
    /// A sampler over `n > 0` ranks with skew `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let cdf = zipf_cdf(n, s);
        let scale = cdf.len() as f64;
        let mut at = 0;
        let guide = (0..cdf.len())
            .map(|k| {
                while at < cdf.len() && cdf[at] * scale < k as f64 {
                    at += 1;
                }
                at
            })
            .collect();
        ZipfSampler { cdf, guide }
    }

    /// Draw a rank: one [`Rng::unit`] draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank(rng.unit())
    }

    /// The rank `u ∈ [0, 1)` falls on: the first whose cumulative probability
    /// exceeds `u`, or, when `u` equals an entry, the one a binary search
    /// over the CDF finds.
    ///
    /// Rounding is monotone, so with `k = ⌊u · n⌋` every entry below
    /// `guide[k]` rounds below `k` and is smaller than `u`, and the entry at
    /// `guide[k + 1]` rounds to at least `k + 1` and is larger: the answer
    /// lies between the two, which are on average one entry apart.
    pub fn rank(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let k = ((u * self.cdf.len() as f64) as usize).min(last);
        let lo = self.guide[k];
        let hi = self.guide.get(k + 1).map_or(last, |&g| g.min(last));
        let i = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        if self.cdf[i] == u {
            // Equal entries repeat in a high-skew tail; which of them is
            // the rank is the binary search's choice.
            return self.cdf.binary_search_by(|p| p.total_cmp(&u)).unwrap_or(i);
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The written definition [`ZipfSampler`] must equal: binary search for
    /// `u` over the CDF.
    fn sample_cdf(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed(7);
        let mut b = Rng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_with_same_salt_from_same_state_agree() {
        let mut parent1 = Rng::seed(42);
        let mut parent2 = Rng::seed(42);
        let mut f1 = parent1.fork(1);
        let mut f2 = parent2.fork(1);
        for _ in 0..16 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn forks_with_different_salts_diverge() {
        let mut parent = Rng::seed(42);
        // Same parent state consumed once per fork; different salts must
        // yield different streams.
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut rng = Rng::seed(3);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.choose_weighted(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac2 = counts[2] as f64 / 30_000.0;
        assert!((frac2 - 0.7).abs() < 0.03, "frac2={frac2}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.25, "var={var}");
    }

    #[test]
    fn zipf_cdf_is_monotone_and_complete() {
        let cdf = zipf_cdf(100, 1.1);
        assert_eq!(cdf.len(), 100);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cdf.last().unwrap(), 1.0);
    }

    #[test]
    fn zipf_skews_to_low_ranks() {
        let mut rng = Rng::seed(5);
        let cdf = zipf_cdf(50, 1.5);
        let mut low = 0;
        for _ in 0..5_000 {
            if sample_cdf(&cdf, rng.unit()) < 5 {
                low += 1;
            }
        }
        // With s=1.5 the first 5 ranks carry well over half the mass.
        assert!(low > 2_500, "low={low}");
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng::seed(9);
        let idx = rng.sample_indices(20, 10);
        assert_eq!(idx.len(), 10);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn zipf_sampler_equals_binary_search() {
        let mut rng = Rng::seed(13);
        let mut ties = 0;
        // Past rank ~246 000 a skew-3 term is below half an ulp of the sum,
        // so the last case's tail is one long run of equal entries.
        let cases = [1, 2, 7, 1_000, 100_000]
            .into_iter()
            .flat_map(|n| [0.0, 0.4, 1.0, 1.8, 3.0].map(|s| (n, s)));
        for (n, s) in cases.chain([(400_000, 3.0)]) {
            let cdf = zipf_cdf(n, s);
            let sampler = ZipfSampler::new(n, s);
            assert_eq!(sampler.cdf, cdf);
            ties += cdf.windows(2).filter(|w| w[0] == w[1]).count();
            // Every entry, the floats next to it, both ends of [0, 1),
            // and uniform draws.
            let at_entries = cdf.iter().flat_map(|&c| [c.next_down(), c, c.next_up()]);
            let ends = [0.0, f64::EPSILON, 0.5, 1.0f64.next_down()];
            let draws: Vec<f64> = (0..4 * n.min(1_000)).map(|_| rng.unit()).collect();
            for u in at_entries.chain(ends).chain(draws).filter(|u| (0.0..1.0).contains(u)) {
                assert_eq!(sampler.rank(u), sample_cdf(&cdf, u), "n={n} s={s} u={u:e}");
            }
        }
        assert!(ties > 0, "a high-skew tail repeats entries, so ties were exercised");
    }
}
