//! Special functions: log-gamma, incomplete gamma, error function, and the
//! distribution functions (normal, chi-squared) built from them.
//!
//! Implemented from scratch (Lanczos approximation for `ln Γ`, series/continued
//! fraction for the regularized incomplete gamma, Abramowitz–Stegun style
//! rational approximation refined with series for `erf`), with accuracy around
//! `1e-12` over the ranges the hypothesis tests use.

/// Lanczos coefficients (g = 7, n = 9).
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
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

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// # Panics
///
/// Panics in debug builds if `x <= 0`.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction for the
/// complementary function otherwise (Numerical-Recipes style `gammp`).
pub fn gamma_p(a: f64, x: f64) -> f64 {
    if x < 0.0 || a <= 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    if x < 0.0 || a <= 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series expansion of `P(a, x)`, converging quickly for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let ln_ga = ln_gamma(a);
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_ga).exp()
}

/// Continued fraction (modified Lentz) evaluation of `Q(a, x)` for `x >= a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let ln_ga = ln_gamma(a);
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - ln_ga).exp() * h
}

/// Complementary error function `erfc(x) = 1 - erf(x)`, computed from the
/// incomplete gamma function (`erf(x) = sign(x) * P(1/2, x^2)`), accurate in
/// the far tail.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x).max(0.0)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal survival function `1 - Φ(x)`, accurate for large `x`.
pub fn normal_sf(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Two-sided normal tail probability `P(|Z| > |z|)`.
pub fn normal_two_sided(z: f64) -> f64 {
    (2.0 * normal_sf(z.abs())).min(1.0)
}

/// Chi-squared survival function `P(X > x)` with `df` degrees of freedom.
pub fn chi2_sf(x: f64, df: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(df / 2.0, x / 2.0)
}

/// Chi-squared cumulative distribution function with `df` degrees of freedom.
pub fn chi2_cdf(x: f64, df: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    gamma_p(df / 2.0, x / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() < tol,
            "expected {b}, got {a} (diff {})",
            (a - b).abs()
        );
    }

    #[test]
    fn ln_gamma_integers() {
        // Γ(n) = (n-1)!
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), 24f64.ln(), 1e-12);
        close(ln_gamma(11.0), 3_628_800f64.ln(), 1e-10);
    }

    #[test]
    fn ln_gamma_half_integers() {
        // Γ(1/2) = sqrt(π), Γ(3/2) = sqrt(π)/2.
        let sqrt_pi = std::f64::consts::PI.sqrt();
        close(ln_gamma(0.5), sqrt_pi.ln(), 1e-12);
        close(ln_gamma(1.5), (sqrt_pi / 2.0).ln(), 1e-12);
    }

    #[test]
    fn erf_known_values() {
        close(erfc(0.0), 1.0, 1e-15);
        close(erfc(1.0), 0.157_299_207_050_285, 1e-10);
        close(erfc(-1.0), 1.842_700_792_949_715, 1e-10);
        close(erfc(2.0), 0.004_677_734_981_047, 1e-10);
        close(erfc(3.0), 2.209_049_699_858_544e-5, 1e-12);
    }

    #[test]
    fn normal_cdf_known_values() {
        close(normal_cdf(0.0), 0.5, 1e-12);
        close(normal_cdf(1.959_963_984_540_054), 0.975, 1e-9);
        close(normal_cdf(-1.959_963_984_540_054), 0.025, 1e-9);
        close(normal_sf(3.0), 1.349_898_031_630_094e-3, 1e-9);
        // Far tail must not underflow to zero prematurely.
        assert!(normal_sf(8.0) > 0.0);
        assert!(normal_sf(8.0) < 1e-14);
    }

    #[test]
    fn two_sided_tail() {
        close(normal_two_sided(1.959_963_984_540_054), 0.05, 1e-9);
        assert_eq!(normal_two_sided(0.0), 1.0);
    }

    #[test]
    fn chi2_known_quantiles() {
        // 95th percentile of chi2(1) is 3.841458820694124.
        close(chi2_sf(3.841_458_820_694_124, 1.0), 0.05, 1e-9);
        // 95th percentile of chi2(255) is about 293.2478.
        close(chi2_sf(293.247_835, 255.0), 0.05, 1e-6);
        // CDF + SF = 1.
        for x in [0.5, 1.0, 10.0, 100.0, 300.0] {
            close(chi2_cdf(x, 255.0) + chi2_sf(x, 255.0), 1.0, 1e-12);
        }
    }

    #[test]
    fn gamma_p_q_complementary() {
        for &(a, x) in &[(0.5, 0.3), (2.0, 1.0), (10.0, 12.0), (127.5, 140.0)] {
            let p = gamma_p(a, x);
            let q = gamma_q(a, x);
            close(p + q, 1.0, 1e-12);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn gamma_domain_errors() {
        assert!(gamma_p(-1.0, 1.0).is_nan());
        assert!(gamma_q(1.0, -1.0).is_nan());
        assert_eq!(gamma_p(1.0, 0.0), 0.0);
        assert_eq!(gamma_q(1.0, 0.0), 1.0);
    }

    #[test]
    fn chi2_monotone_in_x() {
        let mut prev = 1.0;
        for i in 1..50 {
            let x = i as f64 * 10.0;
            let sf = chi2_sf(x, 255.0);
            assert!(sf <= prev + 1e-15, "sf not monotone at x={x}");
            prev = sf;
        }
    }
}
