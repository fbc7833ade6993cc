//! Statistical hypothesis tests for soundly detecting RC4 keystream biases.
//!
//! Section 3.1 of the paper replaces "stare at probability plots" with a
//! sound, large-scale methodology:
//!
//! * **Single-byte biases** — null hypothesis: the keystream byte is uniformly
//!   distributed. Tested with a chi-squared goodness-of-fit test
//!   ([`chisq::chi_squared_gof`]).
//! * **Double-byte biases** — null hypothesis: the two bytes are *independent*
//!   (not: uniform — single-byte biases would otherwise masquerade as pair
//!   biases). Tested with the Fuchs–Kenett M-test ([`mtest::m_test`]), which is
//!   asymptotically more powerful than chi-squared when only a few cells
//!   (outliers) are biased, exactly the regime of the Fluhrer–McGrew biases.
//! * **Which values are biased** — per-cell two-sided proportion tests
//!   ([`proportion::proportion_test`]).
//! * **Multiple testing** — [`holm::holm`] implements Section 3.1's
//!   correction of the family-wise error rate over thousands of simultaneous
//!   tests with Holm's method; the paper rejects only when the adjusted
//!   p-value is below `1e-4`. The bias experiments do not apply it yet: they
//!   threshold raw p-values with [`TestResult::rejects`] /
//!   [`TestResult::rejects_at`]. Applying Holm there would change report
//!   rows, so it is left to a change of its own.
//!
//! The underlying special functions (log-gamma, regularized incomplete gamma,
//! error function, normal and chi-squared distributions) are implemented from
//! scratch in [`special`] — this crate has no numerical dependencies, mirroring
//! the role R played in the original work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chisq;
pub mod holm;
pub mod mtest;
pub mod proportion;
pub mod special;

use serde::{Deserialize, Serialize};

/// Significance threshold used throughout the paper: reject H0 when `p < 1e-4`.
pub const PAPER_ALPHA: f64 = 1e-4;

/// Outcome of a single hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestResult {
    /// The value of the test statistic.
    pub statistic: f64,
    /// The (two-sided where applicable) p-value.
    pub p_value: f64,
    /// Degrees of freedom, when meaningful for the test (0 otherwise).
    pub df: f64,
}

impl TestResult {
    /// Returns `true` if the null hypothesis is rejected at level `alpha`.
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }

    /// Returns `true` if the null hypothesis is rejected at the paper's `1e-4` level.
    pub fn rejects(&self) -> bool {
        self.rejects_at(PAPER_ALPHA)
    }
}

/// Errors returned by the hypothesis tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatError {
    /// The observation vector was empty or all-zero.
    EmptyObservations,
    /// Expected probabilities do not form a distribution (don't sum to ~1, or contain
    /// non-positive entries where observations exist).
    InvalidExpected,
    /// Mismatched input lengths.
    LengthMismatch {
        /// Length of the observations input.
        observed: usize,
        /// Length of the expected-probabilities input.
        expected: usize,
    },
    /// A numeric argument was out of its valid domain.
    Domain(&'static str),
}

impl core::fmt::Display for StatError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StatError::EmptyObservations => write!(f, "observations are empty or all zero"),
            StatError::InvalidExpected => {
                write!(f, "expected probabilities do not form a valid distribution")
            }
            StatError::LengthMismatch { observed, expected } => write!(
                f,
                "length mismatch: {observed} observed cells vs {expected} expected cells"
            ),
            StatError::Domain(what) => write!(f, "argument out of domain: {what}"),
        }
    }
}

impl std::error::Error for StatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_result_thresholds() {
        let r = TestResult {
            statistic: 10.0,
            p_value: 1e-5,
            df: 255.0,
        };
        assert!(r.rejects());
        assert!(r.rejects_at(0.05));
        let weak = TestResult {
            statistic: 1.0,
            p_value: 0.3,
            df: 1.0,
        };
        assert!(!weak.rejects());
        assert!(!weak.rejects_at(0.05));
    }

    #[test]
    fn error_display() {
        let e = StatError::LengthMismatch {
            observed: 10,
            expected: 256,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("256"));
        assert!(StatError::EmptyObservations.to_string().contains("empty"));
    }
}
