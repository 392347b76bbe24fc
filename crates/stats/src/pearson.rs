//! Pearson product-moment correlation with a t-transform p-value.
//!
//! The paper reports correlations such as "the speed of a scan positively
//! correlates with the number of ports being targeted (R = 0.88, p < 0.05)"
//! and the absence of correlation between open services and scan intensity
//! (R = 0.047). This module provides the same quantities.

/// Result of a Pearson correlation computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PearsonResult {
    /// Correlation coefficient in `[-1, 1]`.
    pub r: f64,
    /// Two-sided p-value from the `t = r·√((n-2)/(1-r²))` transform.
    pub p_value: f64,
    /// Sample size.
    pub n: usize,
}

impl PearsonResult {
    /// True when the correlation is significant at the given level.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Compute Pearson's r and a two-sided p-value for paired samples.
///
/// Returns `None` when fewer than 3 pairs are given or either variance is 0.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<PearsonResult> {
    assert_eq!(xs.len(), ys.len(), "paired samples must have equal length");
    let n = xs.len();
    if n < 3 {
        return None;
    }
    let nf = n as f64;
    let mean_x = xs.iter().sum::<f64>() / nf;
    let mean_y = ys.iter().sum::<f64>() / nf;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    let r = (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0);
    let p_value = if (r.abs() - 1.0).abs() < 1e-15 {
        0.0
    } else {
        let df = nf - 2.0;
        let t = r * (df / (1.0 - r * r)).sqrt();
        2.0 * student_t_sf(t.abs(), df)
    };
    Some(PearsonResult { r, p_value, n })
}

/// Survival function of Student's t distribution, `P(T > t)` for `t ≥ 0`.
///
/// Computed through the regularized incomplete beta function
/// `I_{df/(df+t²)}(df/2, 1/2) / 2` using a Lentz continued fraction.
pub(crate) fn student_t_sf(t: f64, df: f64) -> f64 {
    debug_assert!(t >= 0.0 && df > 0.0);
    let x = df / (df + t * t);
    0.5 * incomplete_beta(0.5 * df, 0.5, x)
}

/// Regularized incomplete beta function `I_x(a, b)`.
fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (Numerical Recipes `betacf`).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI.ln() - (std::f64::consts::PI * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut acc = COEF[0];
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + 7.5;
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 4.0, 6.0, 8.0, 10.0];
        let result = pearson(&xs, &ys).unwrap();
        assert!((result.r - 1.0).abs() < 1e-12);
        assert!(result.p_value < 1e-9);
    }

    #[test]
    fn perfect_negative_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [8.0, 6.0, 4.0, 2.0];
        let result = pearson(&xs, &ys).unwrap();
        assert!((result.r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_textbook_value() {
        // Anscombe's first quartet dataset: r ≈ 0.81642.
        let xs = [10.0, 8.0, 13.0, 9.0, 11.0, 14.0, 6.0, 4.0, 12.0, 7.0, 5.0];
        let ys = [
            8.04, 6.95, 7.58, 8.81, 8.33, 9.96, 7.24, 4.26, 10.84, 4.82, 5.68,
        ];
        let result = pearson(&xs, &ys).unwrap();
        assert!((result.r - 0.81642).abs() < 1e-4, "r = {}", result.r);
        // scipy gives p ≈ 0.00217.
        assert!(
            (result.p_value - 0.00217).abs() < 2e-4,
            "p = {}",
            result.p_value
        );
    }

    #[test]
    fn uncorrelated_orthogonal_data() {
        // A saw pattern orthogonal to the trend.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let ys = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let result = pearson(&xs, &ys).unwrap();
        assert!(result.r.abs() < 0.25);
        assert!(!result.significant_at(0.05));
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(pearson(&[1.0, 2.0], &[3.0, 4.0]).is_none()); // n < 3
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none()); // zero var
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        pearson(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn student_t_sf_known_values() {
        // P(T > 2.0) for df=10 is ≈ 0.036694.
        assert!((student_t_sf(2.0, 10.0) - 0.036694).abs() < 1e-4);
        // P(T > 0) = 0.5 for any df.
        assert!((student_t_sf(0.0, 5.0) - 0.5).abs() < 1e-10);
        // Large t -> tiny tail.
        assert!(student_t_sf(50.0, 20.0) < 1e-10);
    }
}
