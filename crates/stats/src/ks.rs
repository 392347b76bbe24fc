//! Two-sample Kolmogorov–Smirnov test on frequency tables.
//!
//! §4.3 of the paper verifies with a KS test that, weeks after a vulnerability
//! disclosure, the distribution of scanning over ports has returned to the
//! pre-disclosure "normal". The distributions are per-port packet counts, so
//! the test runs on two weighted frequency tables: the statistic
//!
//! ```text
//! D = sup_x |F1(x) - F2(x)|
//! ```
//!
//! over their shared keys, and the asymptotic p-value via the Kolmogorov
//! distribution series `Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} e^{-2 k² λ²}` with the
//! Stephens small-sample correction `λ = (√n_e + 0.12 + 0.11/√n_e) · D`.

/// Result of a two-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic `D` in `[0, 1]`.
    pub statistic: f64,
    /// Asymptotic p-value for the null hypothesis "same distribution".
    pub p_value: f64,
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

    /// Unit weight on each key: a raw sample as a frequency table.
    fn table(keys: &[u32]) -> Vec<(u32, f64)> {
        keys.iter().map(|&k| (k, 1.0)).collect()
    }

    #[test]
    fn identical_samples_have_zero_statistic() {
        let s = table(&[1, 2, 3, 4, 5]);
        let result = ks_test_freq(&s, &s, 10.0);
        assert_eq!(result.statistic, 0.0);
        assert!(result.p_value > 0.99);
    }

    #[test]
    fn disjoint_samples_have_statistic_one() {
        let result = ks_test_freq(&table(&[1, 2, 3]), &table(&[10, 11, 12]), 6.0);
        assert_eq!(result.statistic, 1.0);
    }

    #[test]
    fn known_small_example() {
        // F1 jumps at {1, 2}, F2 at {2, 3}; at key 1, F1 = 0.5 and F2 = 0,
        // and at key 2, F1 = 1 and F2 = 0.5 -> D = 0.5.
        let result = ks_test_freq(&table(&[1, 2]), &table(&[2, 3]), 4.0);
        assert!((result.statistic - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shifted_distributions_are_rejected() {
        // Two clearly shifted uniform port ranges.
        let a: Vec<u32> = (0..200).collect();
        let b: Vec<u32> = (100..300).collect();
        let result = ks_test_freq(&table(&a), &table(&b), 400.0);
        assert!(result.statistic > 0.45);
        assert!(result.p_value < 0.01);
    }

    #[test]
    fn same_distribution_is_not_rejected() {
        // Interleaved halves of the same uniform grid.
        let a: Vec<u32> = (0..500).map(|i| 2 * i).collect();
        let b: Vec<u32> = (0..500).map(|i| 2 * i + 1).collect();
        let result = ks_test_freq(&table(&a), &table(&b), 1000.0);
        assert!(result.statistic < 0.05);
        assert!(result.p_value >= 0.05);
    }

    #[test]
    fn statistic_is_symmetric() {
        let a = [(3u32, 2.0), (1, 1.0), (4, 1.0), (5, 1.0), (9, 1.0)];
        let b = [(2u32, 2.0), (7, 1.0), (1, 1.0), (8, 2.0)];
        let (ab, ba) = (ks_test_freq(&a, &b, 14.0), ks_test_freq(&b, &a, 14.0));
        assert!((ab.statistic - ba.statistic).abs() < 1e-15);
        assert_eq!(ab.p_value, ba.p_value);
    }

    #[test]
    #[should_panic(expected = "empty frequency table")]
    fn empty_sample_panics() {
        ks_test_freq(&[], &table(&[1]), 1.0);
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
        assert!(result.p_value >= 0.05);
    }

    #[test]
    fn freq_table_spike_is_detected() {
        // A port-scan spike: port 8545 suddenly carries half the traffic.
        let normal = [(80u32, 500.0), (443, 300.0), (22, 200.0)];
        let spiked = [(80u32, 250.0), (443, 150.0), (22, 100.0), (8545, 500.0)];
        let result = ks_test_freq(&normal, &spiked, 1000.0);
        assert!(result.statistic > 0.3);
        assert!(result.p_value < 0.01);
    }
}
