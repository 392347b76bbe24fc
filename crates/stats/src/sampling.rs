//! Heavy-tailed samplers and reservoir sampling.
//!
//! Scanning workloads are extremely skewed: a handful of institutional
//! scanners send a third of all packets while millions of Mirai bots send a
//! few hundred each. The synthetic generator draws campaign sizes, speeds,
//! and port popularity from the distributions here.

use crate::rng::Rng;

/// Zipf (discrete power-law) sampler over ranks `1..=n` with exponent `s`.
///
/// Port popularity in scanning traffic is classically Zipf-like: the paper's
/// Table 1 shows the top port carrying 1.5–38% of traffic with a long tail.
/// Uses inverse-CDF lookup over precomputed cumulative weights, `O(log n)`
/// per sample.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s > 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0 && s > 0.0, "invalid Zipf parameters");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cumulative.push(total);
        }
        // Normalize so binary search can use a uniform draw in [0, 1).
        for c in cumulative.iter_mut() {
            *c /= total;
        }
        Self { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when the rank space is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Sample a rank in `1..=n` (rank 1 is the most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cumulative.partition_point(|&c| c < u) + 1
    }

    /// The probability mass of a given rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        assert!(rank >= 1 && rank <= self.cumulative.len());
        let hi = self.cumulative[rank - 1];
        let lo = if rank == 1 {
            0.0
        } else {
            self.cumulative[rank - 2]
        };
        hi - lo
    }
}

/// Log-normal sampler via Box–Muller, parameterized by the underlying
/// normal's `mu` and `sigma`.
///
/// Scan speeds are roughly log-normal: most scanners are throttled around the
/// median while a select few at the very high end exceed 10⁵ pps (§6.3).
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Construct from the log-space mean and standard deviation.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { mu, sigma }
    }

    /// Construct from the desired *median* of the log-normal itself and the
    /// log-space sigma (median = e^mu).
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0);
        Self::new(median.ln(), sigma)
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        // Box–Muller transform; u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - rng.f64();
        let u2 = rng.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// Bounded Pareto sampler on `[lo, hi]` with shape `alpha`.
///
/// Campaign sizes (number of probes per scan) follow a heavy tail bounded by
/// the full IPv4×port space; the bounded Pareto keeps the tail but prevents
/// non-physical draws.
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Construct a sampler on `[lo, hi]` (`0 < lo < hi`) with `alpha > 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(lo > 0.0 && hi > lo && alpha > 0.0, "invalid Pareto bounds");
        Self { lo, hi, alpha }
    }

    /// Draw one sample using the inverse CDF.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let u = rng.f64();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        // Inverse of the bounded-Pareto CDF.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

/// Reservoir sampler (Algorithm R) keeping a uniform sample of a stream.
///
/// Used to bound memory when collecting per-campaign metrics for CDFs over
/// hundreds of millions of campaigns.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// A reservoir keeping at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Self {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
        }
    }

    /// Offer one item from the stream.
    pub fn offer(&mut self, rng: &mut Rng, item: T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            let j = rng.range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// Number of items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consume the reservoir and return the sample.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(100, 1.1);
        let total: f64 = (1..=100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(1000, 1.0);
        assert!(z.pmf(1) > z.pmf(2));
        assert!(z.pmf(2) > z.pmf(10));
        assert!(z.pmf(10) > z.pmf(1000));
        // For s=1, p(1)/p(2) = 2.
        assert!((z.pmf(1) / z.pmf(2) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = Zipf::new(50, 1.2);
        let mut rng = Rng::seed_from_u64(42);
        let mut counts = vec![0u64; 51];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for rank in [1usize, 2, 5, 10] {
            let observed = counts[rank] as f64 / n as f64;
            let expected = z.pmf(rank);
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {rank}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn lognormal_median_is_calibrated() {
        let d = LogNormal::from_median(5000.0, 1.0);
        let mut rng = Rng::seed_from_u64(7);
        let mut samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!(
            (median / 5000.0 - 1.0).abs() < 0.05,
            "sample median {median}"
        );
    }

    #[test]
    fn lognormal_is_positive_and_heavy_tailed() {
        let d = LogNormal::new(0.0, 2.0);
        let mut rng = Rng::seed_from_u64(11);
        let samples: Vec<f64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&v| v > 0.0));
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max > 100.0, "heavy tail expected, max = {max}");
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let d = BoundedPareto::new(100.0, 1e9, 1.2);
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            assert!((100.0..=1e9).contains(&v), "out of bounds: {v}");
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        let d = BoundedPareto::new(1.0, 1e6, 1.0);
        let mut rng = Rng::seed_from_u64(5);
        let samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let below_10 = samples.iter().filter(|&&v| v < 10.0).count() as f64;
        let above_1000 = samples.iter().filter(|&&v| v > 1000.0).count() as f64;
        // With alpha=1 over 6 decades, ~90% below 10 and a real tail above
        // 1e3 (expected count ~= 100 of 100,000).
        assert!(below_10 / 100_000.0 > 0.8);
        assert!(above_1000 > 50.0);
    }

    #[test]
    fn reservoir_keeps_capacity_items() {
        let mut rng = Rng::seed_from_u64(9);
        let mut res = Reservoir::new(10);
        for i in 0..1000 {
            res.offer(&mut rng, i);
        }
        assert_eq!(res.items().len(), 10);
        assert_eq!(res.seen(), 1000);
    }

    #[test]
    fn reservoir_is_unbiased() {
        // Offer 0..100 into a 50-slot reservoir many times; each item should
        // be retained about half the time.
        let mut hits = vec![0u32; 100];
        for seed in 0..2000u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut res = Reservoir::new(50);
            for i in 0..100usize {
                res.offer(&mut rng, i);
            }
            for &kept in res.items() {
                hits[kept] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            let frac = h as f64 / 2000.0;
            assert!(
                (frac - 0.5).abs() < 0.06,
                "item {i} retained with frequency {frac}"
            );
        }
    }

    #[test]
    fn reservoir_short_stream_keeps_everything() {
        let mut rng = Rng::seed_from_u64(1);
        let mut res = Reservoir::new(10);
        for i in 0..5 {
            res.offer(&mut rng, i);
        }
        assert_eq!(res.into_items(), vec![0, 1, 2, 3, 4]);
    }
}

/// Sample from Binomial(n, p) with regime-appropriate approximations:
/// exact Bernoulli summation for small `n`, Poisson for rare events,
/// a normal approximation for the bulk regime. Intended for simulation
/// (telescope hit counts), not for exact-tail statistics.
pub fn sample_binomial(rng: &mut Rng, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if n <= 64 {
        // Exact.
        let mut k = 0;
        for _ in 0..n {
            if rng.chance(p) {
                k += 1;
            }
        }
        return k;
    }
    if mean < 30.0 {
        // Poisson approximation (rare events) via Knuth's algorithm.
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut prod = 1.0;
        loop {
            prod *= rng.f64();
            if prod <= l || k > n {
                return k.min(n);
            }
            k += 1;
        }
    }
    // Normal approximation with continuity correction.
    let sd = (mean * (1.0 - p)).sqrt();
    let u1 = 1.0 - rng.f64();
    let u2 = rng.f64();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let v = (mean + sd * z + 0.5).floor();
    v.clamp(0.0, n as f64) as u64
}

#[cfg(test)]
mod binomial_tests {
    use super::*;

    #[test]
    fn edge_cases() {
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 1.0), 100);
    }

    #[test]
    fn small_n_mean_is_correct() {
        let mut rng = Rng::seed_from_u64(2);
        let trials = 20_000;
        let total: u64 = (0..trials)
            .map(|_| sample_binomial(&mut rng, 20, 0.3))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 6.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_regime_mean_is_correct() {
        // n large, p tiny: telescope-hit regime.
        let mut rng = Rng::seed_from_u64(3);
        let trials = 5_000;
        let total: u64 = (0..trials)
            .map(|_| sample_binomial(&mut rng, 1_000_000, 5e-6))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn normal_regime_mean_and_bounds() {
        let mut rng = Rng::seed_from_u64(4);
        let trials = 5_000;
        let mut total = 0u64;
        for _ in 0..trials {
            let k = sample_binomial(&mut rng, 10_000, 0.4);
            assert!(k <= 10_000);
            total += k;
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 4000.0).abs() < 20.0, "mean {mean}");
    }
}
