//! Two-sample Kolmogorov–Smirnov test.
//!
//! §4.3 of the paper verifies with a KS test that, weeks after a vulnerability
//! disclosure, the distribution of scanning over ports has returned to the
//! pre-disclosure "normal". We implement the classic two-sample statistic
//!
//! ```text
//! D = sup_x |F1(x) - F2(x)|
//! ```
//!
//! and the asymptotic p-value via the Kolmogorov distribution series
//! `Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} e^{-2 k² λ²}` with the effective sample size
//! `n_e = n·m/(n+m)` and the Stephens small-sample correction
//! `λ = (√n_e + 0.12 + 0.11/√n_e) · D`.

/// Result of a two-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic `D` in `[0, 1]`.
    pub statistic: f64,
    /// Asymptotic p-value for the null hypothesis "same distribution".
    pub p_value: f64,
}

impl KsResult {
    /// Convenience: reject the null at the given significance level.
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Compute the two-sample KS statistic `D` for two unsorted samples.
///
/// Runs in `O(n log n + m log m)`. Panics if either sample is empty.
pub fn ks_statistic(sample1: &[f64], sample2: &[f64]) -> f64 {
    assert!(
        !sample1.is_empty() && !sample2.is_empty(),
        "KS test requires non-empty samples"
    );
    let mut a: Vec<f64> = sample1.to_vec();
    let mut b: Vec<f64> = sample2.to_vec();
    a.sort_by(|x, y| x.partial_cmp(y).expect("NaN in KS sample"));
    b.sort_by(|x, y| x.partial_cmp(y).expect("NaN in KS sample"));

    let (n, m) = (a.len(), b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < n && j < m {
        let x = a[i].min(b[j]);
        while i < n && a[i] <= x {
            i += 1;
        }
        while j < m && b[j] <= x {
            j += 1;
        }
        let f1 = i as f64 / n as f64;
        let f2 = j as f64 / m as f64;
        d = d.max((f1 - f2).abs());
    }
    d
}

/// The Kolmogorov distribution survival function `Q(λ)`.
///
/// Converges extremely fast; 101 terms are far more than needed.
pub(crate) fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Run the full two-sample KS test and return statistic and p-value.
///
/// ```
/// use synscan_stats::ks::ks_test;
///
/// let before: Vec<f64> = (0..100).map(f64::from).collect();
/// let after: Vec<f64> = (0..100).map(|i| f64::from(i) + 80.0).collect();
/// let result = ks_test(&before, &after);
/// assert!(result.rejects_at(0.01), "shifted distributions differ");
/// ```
pub fn ks_test(sample1: &[f64], sample2: &[f64]) -> KsResult {
    let d = ks_statistic(sample1, sample2);
    let n = sample1.len() as f64;
    let m = sample2.len() as f64;
    let ne = (n * m / (n + m)).sqrt();
    let lambda = (ne + 0.12 + 0.11 / ne) * d;
    KsResult {
        statistic: d,
        p_value: kolmogorov_q(lambda),
    }
}

/// KS test on two discrete frequency tables (e.g. packets per port).
///
/// The tables are interpreted as weighted empirical distributions over the
/// shared key space; `D` is the max absolute difference of their CDFs. This is
/// the form the event-decay analysis uses on per-port traffic histograms. An
/// effective sample size must be supplied because the tables are aggregates.
pub fn ks_test_freq(freq1: &[(u32, f64)], freq2: &[(u32, f64)], effective_n: f64) -> KsResult {
    let total1: f64 = freq1.iter().map(|(_, w)| w).sum();
    let total2: f64 = freq2.iter().map(|(_, w)| w).sum();
    assert!(total1 > 0.0 && total2 > 0.0, "empty frequency table");

    let mut keys: Vec<u32> = freq1.iter().chain(freq2.iter()).map(|(k, _)| *k).collect();
    keys.sort_unstable();
    keys.dedup();

    use std::collections::HashMap;
    let map1: HashMap<u32, f64> = freq1.iter().copied().collect();
    let map2: HashMap<u32, f64> = freq2.iter().copied().collect();

    let (mut c1, mut c2, mut d) = (0.0f64, 0.0f64, 0.0f64);
    for key in keys {
        c1 += map1.get(&key).copied().unwrap_or(0.0) / total1;
        c2 += map2.get(&key).copied().unwrap_or(0.0) / total2;
        d = d.max((c1 - c2).abs());
    }
    let ne = (effective_n / 2.0).sqrt();
    let lambda = (ne + 0.12 + 0.11 / ne) * d;
    KsResult {
        statistic: d,
        p_value: kolmogorov_q(lambda),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_have_zero_statistic() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        let result = ks_test(&s, &s);
        assert_eq!(result.statistic, 0.0);
        assert!(result.p_value > 0.99);
    }

    #[test]
    fn disjoint_samples_have_statistic_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        assert_eq!(ks_statistic(&a, &b), 1.0);
    }

    #[test]
    fn known_small_example() {
        // F1 jumps at {1,2}, F2 jumps at {1.5, 2.5}; D occurs between 1 and 1.5
        // where F1 = 0.5, F2 = 0 -> D = 0.5.
        let a = [1.0, 2.0];
        let b = [1.5, 2.5];
        assert!((ks_statistic(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shifted_distributions_are_rejected() {
        // Two clearly shifted uniform samples.
        let a: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
        let b: Vec<f64> = (0..200).map(|i| 0.5 + i as f64 / 200.0).collect();
        let result = ks_test(&a, &b);
        assert!(result.statistic > 0.45);
        assert!(result.rejects_at(0.01));
    }

    #[test]
    fn same_distribution_is_not_rejected() {
        // Deterministic interleaved halves of the same uniform grid.
        let a: Vec<f64> = (0..500).map(|i| (2 * i) as f64).collect();
        let b: Vec<f64> = (0..500).map(|i| (2 * i + 1) as f64).collect();
        let result = ks_test(&a, &b);
        assert!(result.statistic < 0.05);
        assert!(!result.rejects_at(0.05));
    }

    #[test]
    fn statistic_is_symmetric() {
        let a = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let b = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0];
        assert!((ks_statistic(&a, &b) - ks_statistic(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn kolmogorov_q_boundaries() {
        assert_eq!(kolmogorov_q(0.0), 1.0);
        assert!(kolmogorov_q(0.3) > 0.99);
        assert!(kolmogorov_q(2.0) < 0.001);
        // Known value: Q(1.36) ≈ 0.049 (the classic 5% critical point).
        let q = kolmogorov_q(1.36);
        assert!((q - 0.049).abs() < 0.003, "Q(1.36) = {q}");
    }

    #[test]
    fn freq_table_identical_distributions() {
        let f1 = [(80u32, 100.0), (443, 50.0), (22, 25.0)];
        let f2 = [(80u32, 200.0), (443, 100.0), (22, 50.0)];
        let result = ks_test_freq(&f1, &f2, 1000.0);
        assert!(result.statistic < 1e-12);
        assert!(!result.rejects_at(0.05));
    }

    #[test]
    fn freq_table_spike_is_detected() {
        // A port-scan spike: port 8545 suddenly carries half the traffic.
        let normal = [(80u32, 500.0), (443, 300.0), (22, 200.0)];
        let spiked = [(80u32, 250.0), (443, 150.0), (22, 100.0), (8545, 500.0)];
        let result = ks_test_freq(&normal, &spiked, 1000.0);
        assert!(result.statistic > 0.3);
        assert!(result.rejects_at(0.01));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sample_panics() {
        ks_statistic(&[], &[1.0]);
    }
}
