//! Plaintext likelihoods from Mantin's ABSAB bias (Section 4.2).
//!
//! The unknown plaintext pair at positions `(r, r+1)` is related to a *known*
//! plaintext pair `(µ'1, µ'2)` a gap `g` away. The keystream differential over
//! that span is zero with probability `α(g) > 2^-16`, so the ciphertext
//! differential is biased towards the plaintext differential. Counting how
//! often each ciphertext differential value occurs therefore yields a
//! likelihood for the plaintext differential, and — XORing with the known
//! plaintext — for the unknown pair itself. Because only the all-zero
//! differential is biased, the likelihood has the simple two-parameter form of
//! the paper's Eq. 22.

use crate::{counts::DifferentialCounts, likelihood::PairLikelihoods, RecoveryError};

/// Computes the pair log-likelihoods contributed by one ABSAB relation.
///
/// * `diff_counts` — ciphertext differential counts for the relation.
/// * `known_pair` — the known plaintext bytes `(µ'1, µ'2)` at the related positions.
/// * `alpha` — the keystream-differential-zero probability `α(g)` for the
///   relation's gap (see `rc4_biases::absab::alpha`).
///
/// The keystream-differential model is: value `(0, 0)` with probability `α`,
/// every other value with the uniform share `u = (1 - α) / 65535`. Following
/// Eq. 15/22, each candidate unknown pair `(µ1, µ2)` with
/// `µ̂ = (µ1 ⊕ µ'1, µ2 ⊕ µ'2)` therefore scores
/// `(|C| - N[µ̂]) ln u + N[µ̂] ln α`: observing the candidate's differential
/// more often than the uniform share predicts raises its likelihood.
///
/// # Errors
///
/// Returns [`RecoveryError::InvalidInput`] if `alpha` is not in `(0, 1)`.
pub fn absab_pair_likelihoods(
    diff_counts: &DifferentialCounts,
    known_pair: (u8, u8),
    alpha: f64,
) -> Result<PairLikelihoods, RecoveryError> {
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(RecoveryError::InvalidInput(
            "alpha must be strictly between 0 and 1".into(),
        ));
    }
    let total = diff_counts.ciphertexts() as f64;
    let ln_alpha = alpha.ln();
    // Probability of each *specific* non-zero keystream differential.
    let ln_rest = ((1.0 - alpha) / 65535.0).ln();

    let mut log = vec![0.0f64; 65536];
    for mu1 in 0..256usize {
        let d0 = mu1 ^ known_pair.0 as usize;
        for mu2 in 0..256usize {
            let d1 = mu2 ^ known_pair.1 as usize;
            let hits = diff_counts.count(d0 as u8, d1 as u8) as f64;
            log[(mu1 << 8) | mu2] = (total - hits) * ln_rest + hits * ln_alpha;
        }
    }
    PairLikelihoods::from_log_values(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds differential counts as if the keystream differential were zero with
    /// probability `alpha` and uniform otherwise, for a true plaintext differential.
    fn synthetic_diff_counts(
        unknown_pos: u64,
        known_pos: u64,
        gap: usize,
        true_diff: (u8, u8),
        alpha: f64,
        n: u64,
    ) -> DifferentialCounts {
        let mut counts = DifferentialCounts::new(unknown_pos, known_pos, gap).unwrap();
        // Expected counts: the true differential gets the alpha boost, every
        // differential also receives a uniform share of the non-aligned mass.
        let uniform_share = (1.0 - alpha) / 65535.0;
        let max_pos = unknown_pos.max(known_pos) as usize + 1;
        let mut ct = vec![0u8; max_pos];
        for d0 in 0..256usize {
            for d1 in 0..256usize {
                let p = if (d0 as u8, d1 as u8) == true_diff {
                    alpha
                } else {
                    uniform_share
                };
                let reps = (p * n as f64).round() as u64;
                if reps == 0 {
                    continue;
                }
                // Construct a ciphertext with the desired differential.
                ct[unknown_pos as usize - 1] = d0 as u8;
                ct[unknown_pos as usize] = d1 as u8;
                ct[known_pos as usize - 1] = 0;
                ct[known_pos as usize] = 0;
                for _ in 0..reps {
                    counts.record(&ct);
                }
            }
        }
        counts
    }

    #[test]
    fn recovers_pair_from_absab_differentials() {
        let known = (b'X', b'Y');
        let secret = (b'a', b'7');
        let true_diff = (secret.0 ^ known.0, secret.1 ^ known.1);
        // Use an exaggerated alpha so a small synthetic sample suffices.
        let alpha = 0.01;
        let counts = synthetic_diff_counts(3, 8, 3, true_diff, alpha, 2_000_000);
        let lik = absab_pair_likelihoods(&counts, known, alpha).unwrap();
        assert_eq!(lik.best(), secret);
    }

    #[test]
    fn alpha_validation() {
        let counts = DifferentialCounts::new(3, 8, 3).unwrap();
        assert!(absab_pair_likelihoods(&counts, (0, 0), 0.0).is_err());
        assert!(absab_pair_likelihoods(&counts, (0, 0), 1.0).is_err());
        assert!(absab_pair_likelihoods(&counts, (0, 0), 0.5).is_ok());
    }

    #[test]
    fn combining_relations_sharpens_the_estimate() {
        let known = (0x20u8, 0x21u8);
        let secret = (0x41u8, 0x42u8);
        let true_diff = (secret.0 ^ known.0, secret.1 ^ known.1);
        let alpha = 0.002;
        // A single noisy relation with few samples may or may not succeed; combining
        // several must score the true pair at least as well as any single one does.
        // Summing the relations' log-likelihoods is the paper's Eq. 25.
        let mut parts = (0..6).map(|g| {
            let counts = synthetic_diff_counts(3, 3 + 2 + g, g as usize, true_diff, alpha, 400_000);
            absab_pair_likelihoods(&counts, known, alpha).unwrap()
        });
        let mut combined = parts.next().unwrap();
        for part in parts {
            combined.combine(&part);
        }
        assert_eq!(combined.best(), secret);
    }
}
