//! The synthetic generator's samplers.
//!
//! Scanning workloads are extremely skewed: a handful of institutional
//! scanners send a third of all packets while millions of Mirai bots send a
//! few hundred each. The generator draws scan budgets and speeds from a
//! log-normal, and telescope hit counts from a binomial.

use crate::rng::Rng;

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

#[cfg(test)]
mod tests {
    use super::*;

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
