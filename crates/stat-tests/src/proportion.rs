//! Two-sided proportion tests for individual keystream value (pairs).
//!
//! Once the M-test flags a byte pair as dependent, the paper drills down with
//! per-value proportion tests to determine *which* value pairs are biased and
//! in which direction, and reports the relative bias `q` from
//! `s = p (1 + q)` where `p` is the single-byte-based expectation and `s` the
//! observed pair probability.

use crate::{special::normal_two_sided, StatError, TestResult};

/// Direction of a detected bias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BiasSign {
    /// The value occurs more often than expected.
    Positive,
    /// The value occurs less often than expected.
    Negative,
}

/// Result of a proportion test on one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionResult {
    /// Statistic, p-value and (degenerate) df.
    pub test: TestResult,
    /// Observed probability `count / trials`.
    pub observed_p: f64,
    /// Expected probability under the null hypothesis.
    pub expected_p: f64,
    /// Relative bias `q` such that `observed = expected * (1 + q)`.
    pub relative_bias: f64,
    /// Sign of the bias.
    pub sign: BiasSign,
}

/// Two-sided one-sample proportion test (normal approximation).
///
/// Tests whether observing `count` successes in `trials` Bernoulli trials is
/// consistent with success probability `expected_p`.
///
/// # Errors
///
/// * [`StatError::EmptyObservations`] when `trials == 0`.
/// * [`StatError::Domain`] when `expected_p` is not strictly inside `(0, 1)`
///   or `count > trials`.
///
/// # Examples
///
/// ```
/// use stat_tests::proportion::proportion_test;
///
/// // Mantin-Shamir: Z_2 = 0 with probability ~2/256 instead of 1/256.
/// let trials = 1u64 << 24;
/// let count = (trials as f64 * 2.0 / 256.0) as u64;
/// let r = proportion_test(count, trials, 1.0 / 256.0).unwrap();
/// assert!(r.test.p_value < 1e-100);
/// assert!((r.relative_bias - 1.0).abs() < 0.01); // observed ≈ expected * (1 + 1.0)
/// ```
pub fn proportion_test(
    count: u64,
    trials: u64,
    expected_p: f64,
) -> Result<ProportionResult, StatError> {
    if trials == 0 {
        return Err(StatError::EmptyObservations);
    }
    if count > trials {
        return Err(StatError::Domain("count exceeds trials"));
    }
    if !(expected_p > 0.0 && expected_p < 1.0) {
        return Err(StatError::Domain("expected_p must be in (0, 1)"));
    }

    let n = trials as f64;
    let observed_p = count as f64 / n;
    let sd = (expected_p * (1.0 - expected_p) / n).sqrt();
    let z = (observed_p - expected_p) / sd;
    let relative_bias = observed_p / expected_p - 1.0;
    Ok(ProportionResult {
        test: TestResult {
            statistic: z,
            p_value: normal_two_sided(z),
            df: 0.0,
        },
        observed_p,
        expected_p,
        relative_bias,
        sign: if relative_bias >= 0.0 {
            BiasSign::Positive
        } else {
            BiasSign::Negative
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbiased_sample_not_rejected() {
        let trials = 1u64 << 20;
        let count = trials / 256;
        let r = proportion_test(count, trials, 1.0 / 256.0).unwrap();
        assert!(!r.test.rejects_at(0.05));
        assert!(r.relative_bias.abs() < 1e-6);
    }

    #[test]
    fn strong_bias_rejected_with_sign() {
        let trials = 1u64 << 26;
        let p = 1.0 / 65536.0;
        // Positive FM-style bias of 2^-8.
        let count_pos = (trials as f64 * p * (1.0 + 1.0 / 256.0)).round() as u64;
        let pos = proportion_test(count_pos, trials, p).unwrap();
        assert_eq!(pos.sign, BiasSign::Positive);
        assert!(pos.relative_bias > 0.0);

        let count_neg = (trials as f64 * p * (1.0 - 1.0 / 256.0)).round() as u64;
        let neg = proportion_test(count_neg, trials, p).unwrap();
        assert_eq!(neg.sign, BiasSign::Negative);
        assert!(neg.relative_bias < 0.0);
    }

    #[test]
    fn relative_bias_matches_definition() {
        let trials = 1_000_000u64;
        let expected_p = 0.01;
        let count = 12_000u64; // observed_p = 0.012 = expected * 1.2
        let r = proportion_test(count, trials, expected_p).unwrap();
        assert!((r.relative_bias - 0.2).abs() < 1e-12);
        assert!((r.observed_p - 0.012).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(proportion_test(1, 0, 0.5).is_err());
        assert!(proportion_test(10, 5, 0.5).is_err());
        assert!(proportion_test(1, 10, 0.0).is_err());
        assert!(proportion_test(1, 10, 1.0).is_err());
    }

    #[test]
    fn detectability_scales_with_samples() {
        // The same relative bias must become *more* significant with more samples;
        // this is the scaling the paper's dataset sizes are chosen around.
        let p = 1.0 / 256.0;
        let rel = 1.0 / 256.0; // a 2^-8 relative bias
        let mut last_p_value = 1.0;
        for log_n in [16u32, 20, 24, 28] {
            let trials = 1u64 << log_n;
            let count = (trials as f64 * p * (1.0 + rel)).round() as u64;
            let r = proportion_test(count, trials, p).unwrap();
            assert!(
                r.test.p_value <= last_p_value + 1e-12,
                "p-value did not shrink at n = 2^{log_n}"
            );
            last_p_value = r.test.p_value;
        }
        assert!(last_p_value < 1e-4);
    }
}
