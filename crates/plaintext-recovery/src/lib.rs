//! Bayesian plaintext recovery from RC4 keystream biases — Section 4 of the paper.
//!
//! Given many encryptions of the *same* plaintext under independent RC4 keys,
//! the keystream biases leak the plaintext. This crate implements the full
//! recovery pipeline:
//!
//! * [`counts`] — the collector that reduces a stream of ciphertexts to the
//!   per-position byte counts the single-byte likelihoods need.
//! * [`likelihood`] — the Bayesian likelihood estimators: single-byte
//!   (Eq. 11–12), double-byte (Eq. 13) and the optimized evaluation over a
//!   small set of dependent keystream values (Eq. 15–16), plus combination of
//!   multiple bias families by multiplying likelihoods (Eq. 25).
//! * [`candidates`] — Algorithm 1: a ranked list of plaintext candidates from
//!   single-byte likelihoods.
//! * [`viterbi`] — Algorithm 2: a ranked candidate list from double-byte
//!   likelihoods, i.e. an N-best (list) Viterbi decode of the implied hidden
//!   Markov model, with optional restriction to a plaintext alphabet.
//! * [`charset`] — plaintext alphabets (e.g. the ≤ 90 characters RFC 6265
//!   allows in a cookie value) used to prune the search.
//!
//! The likelihoods are linear in the counts, so re-scoring a growing count
//! table after every batch scores every ciphertext seen so far;
//! [`likelihood::PairLikelihoods::margin`] is the top candidate's lead over the
//! runner-up, the statistic the streaming attacks in `rc4-attacks` stop on.
//!
//! All likelihood math is done in log space for numerical stability, exactly
//! as the paper recommends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod charset;
pub mod counts;
pub mod likelihood;
pub mod viterbi;

/// Errors returned by the recovery algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// An input had an unexpected shape (wrong number of cells, empty, ...).
    InvalidInput(String),
    /// The requested configuration is inconsistent (e.g. empty alphabet).
    InvalidConfig(String),
    /// A parallel recovery call was cancelled through its executor's
    /// cooperative cancellation flag before it completed.
    Cancelled,
}

impl core::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoveryError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            RecoveryError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RecoveryError::Cancelled => write!(f, "recovery cancelled"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Executor outcomes fold back into the recovery error model so the
/// `_with_exec` function variants keep returning [`RecoveryError`].
impl From<rc4_exec::ExecError<RecoveryError>> for RecoveryError {
    fn from(e: rc4_exec::ExecError<RecoveryError>) -> Self {
        match e {
            rc4_exec::ExecError::Cancelled => RecoveryError::Cancelled,
            rc4_exec::ExecError::Task { error, .. } => error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(RecoveryError::InvalidInput("x".into())
            .to_string()
            .contains("x"));
        assert!(RecoveryError::InvalidConfig("y".into())
            .to_string()
            .contains("configuration"));
    }
}
