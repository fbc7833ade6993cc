//! Bayesian plaintext likelihood estimation (Section 4.1 and 4.3).
//!
//! For a fixed position, the attacker has counts of how often each ciphertext
//! byte (or byte pair) value was observed. For a candidate plaintext value µ,
//! the *induced keystream distribution* is obtained by XORing the counts with
//! µ; the likelihood of µ is the multinomial probability of that induced
//! distribution under the real keystream distribution. Working with logarithms,
//!
//! ```text
//! log λ_µ      = Σ_c N[c]        · ln p_{c ⊕ µ}              (single byte)
//! log λ_µ1,µ2  = Σ_{c1,c2} N[c1,c2] · ln p_{c1⊕µ1, c2⊕µ2}     (byte pair)
//! ```
//!
//! The pair form costs 2^32 operations when evaluated naively over all (µ1, µ2);
//! when most keystream value pairs are independent and uniform (true for the
//! Fluhrer–McGrew biases, where at most 8 of 65536 cells are biased) the paper's
//! Eq. 15 reduces the work to `|I^c|` table lookups per candidate pair.
//! Likelihoods from different bias families are combined by adding their logs
//! (Eq. 25).

use crate::RecoveryError;

/// Log-likelihoods of each of the 256 plaintext values for one byte position.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleLikelihoods {
    log: Vec<f64>,
}

impl SingleLikelihoods {
    /// Computes single-byte log-likelihoods from ciphertext counts and a
    /// keystream distribution (Eq. 11/12).
    ///
    /// `ciphertext_counts` has 256 entries (`N[c]`), `keystream_probs` has 256
    /// entries (`p_k`); zero probabilities are floored to avoid `-inf` blowing
    /// up the whole candidate (a keystream value the model deems impossible).
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::InvalidInput`] if either slice is not 256 long.
    pub fn from_counts(
        ciphertext_counts: &[u64],
        keystream_probs: &[f64],
    ) -> Result<Self, RecoveryError> {
        if ciphertext_counts.len() != 256 || keystream_probs.len() != 256 {
            return Err(RecoveryError::InvalidInput(
                "single-byte likelihood needs 256 counts and 256 probabilities".into(),
            ));
        }
        let log_p: Vec<f64> = keystream_probs
            .iter()
            .map(|&p| p.max(1e-300).ln())
            .collect();
        let mut log = vec![0.0f64; 256];
        // The work is blocked per observed ciphertext value
        // (`log[mu] += N[c] * ln p[c ^ mu]` for all mu at once), which is the
        // SIMD-friendly `xor_mul_add_256` shape. Iterating `c` in ascending
        // order as the outer loop gives every slot the exact accumulation
        // sequence of a per-candidate inner loop.
        for (c, &n) in ciphertext_counts.iter().enumerate() {
            if n > 0 {
                rc4_accel::score::xor_mul_add_256(&mut log, &log_p, c as u8, n as f64);
            }
        }
        Ok(Self { log })
    }

    /// Builds likelihoods directly from precomputed log values.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::InvalidInput`] if `log` is not 256 long.
    pub fn from_log_values(log: Vec<f64>) -> Result<Self, RecoveryError> {
        if log.len() != 256 {
            return Err(RecoveryError::InvalidInput(
                "expected 256 log-likelihood values".into(),
            ));
        }
        Ok(Self { log })
    }

    /// Uniform (uninformative) likelihoods.
    pub fn flat() -> Self {
        Self {
            log: vec![0.0; 256],
        }
    }

    /// The log-likelihood of plaintext value `mu`.
    pub fn log_likelihood(&self, mu: u8) -> f64 {
        self.log[mu as usize]
    }

    /// All 256 log-likelihoods.
    pub fn as_slice(&self) -> &[f64] {
        &self.log
    }

    /// The most likely plaintext value.
    pub fn best(&self) -> u8 {
        let mut best = 0usize;
        for (i, &v) in self.log.iter().enumerate() {
            if v > self.log[best] {
                best = i;
            }
        }
        best as u8
    }

    /// Combines this likelihood with another (independent) estimate for the
    /// same byte by adding the log-likelihoods (Eq. 25).
    pub fn combine(&mut self, other: &Self) {
        for (a, b) in self.log.iter_mut().zip(&other.log) {
            *a += b;
        }
    }
}

/// Log-likelihoods of each of the 65536 plaintext pairs for one pair position.
#[derive(Debug, Clone, PartialEq)]
pub struct PairLikelihoods {
    log: Vec<f64>,
}

impl PairLikelihoods {
    /// Computes pair log-likelihoods with the naive Eq. 13 (2^32 operations).
    ///
    /// Prefer [`PairLikelihoods::from_counts_sparse`] when the keystream model
    /// only has a few biased cells; the naive version exists as the baseline
    /// for the `likelihood_opt` ablation bench and for validating the sparse path.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::InvalidInput`] if either slice is not 65536 long.
    pub fn from_counts_dense(
        pair_counts: &[u64],
        keystream_probs: &[f64],
    ) -> Result<Self, RecoveryError> {
        if pair_counts.len() != 65536 || keystream_probs.len() != 65536 {
            return Err(RecoveryError::InvalidInput(
                "pair likelihood needs 65536 counts and probabilities".into(),
            ));
        }
        let log_p: Vec<f64> = keystream_probs
            .iter()
            .map(|&p| p.max(1e-300).ln())
            .collect();
        // Collect the non-zero counts once; ciphertext count tables are usually sparse
        // relative to 65536 cells unless the ciphertext volume is enormous.
        let nonzero: Vec<(usize, usize, f64)> = pair_counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (idx >> 8, idx & 0xff, n as f64))
            .collect();
        let mut log = vec![0.0f64; 65536];
        // Per mu1 row, each non-zero count cell contributes
        // `n * ln p[(c1^mu1), (c2^mu2)]` to all 256 mu2 slots at once — a
        // blocked `xor_mul_add_256` over the `c1^mu1` row of the
        // log-probability table. The cell list order is every slot's
        // accumulation order.
        for (mu1, row) in log.chunks_mut(256).enumerate() {
            for &(c1, c2, n) in &nonzero {
                let log_p_row = &log_p[(c1 ^ mu1) << 8..][..256];
                rc4_accel::score::xor_mul_add_256(row, log_p_row, c2 as u8, n);
            }
        }
        Ok(Self { log })
    }

    /// Computes pair log-likelihoods with the paper's optimized Eq. 15.
    ///
    /// `biased_cells` lists the dependent keystream value pairs `I^c` as
    /// `(k1, k2, probability)`; every other keystream pair is treated as having
    /// probability `uniform`. Complexity is `O(|I^c| · 65536)` instead of `2^32`
    /// — with the 8 Fluhrer–McGrew cells this is the "roughly 2^19 operations"
    /// the paper quotes.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::InvalidInput`] if `pair_counts` is not 65536
    /// long, `uniform` is not positive, or a biased cell has non-positive
    /// probability.
    pub fn from_counts_sparse(
        pair_counts: &[u64],
        biased_cells: &[(u8, u8, f64)],
        uniform: f64,
        total_ciphertexts: u64,
    ) -> Result<Self, RecoveryError> {
        if pair_counts.len() != 65536 {
            return Err(RecoveryError::InvalidInput(
                "pair likelihood needs 65536 counts".into(),
            ));
        }
        if uniform <= 0.0 {
            return Err(RecoveryError::InvalidInput(
                "uniform probability must be positive".into(),
            ));
        }
        if biased_cells.iter().any(|&(_, _, p)| p <= 0.0) {
            return Err(RecoveryError::InvalidInput(
                "biased cell probabilities must be positive".into(),
            ));
        }
        let ln_u = uniform.ln();
        let cells: Vec<(usize, usize, f64)> = biased_cells
            .iter()
            .map(|&(k1, k2, p)| (k1 as usize, k2 as usize, p.ln() - ln_u))
            .collect();
        // Constant term |C| * ln(u) — identical for every candidate, kept so the
        // sparse and dense paths produce comparable absolute values.
        let base = total_ciphertexts as f64 * ln_u;
        // Widened once so the hot loop is pure f64 multiply-adds; exact for
        // counts below 2^53.
        let counts_f64 = crate::counts::widen_counts(pair_counts);
        let mut log = vec![base; 65536];
        // Per mu1 row, each biased cell adds `N[c1^mu1, k2^mu2] * (ln p - ln u)`
        // to all 256 mu2 slots at once — a blocked `xor_mul_add_256` over the
        // widened `c1^mu1` counts row. The cell-list order is every slot's
        // accumulation order.
        for (mu1, row) in log.chunks_mut(256).enumerate() {
            for &(k1, k2, delta) in &cells {
                let counts_row = &counts_f64[(k1 ^ mu1) << 8..][..256];
                rc4_accel::score::xor_mul_add_256(row, counts_row, k2 as u8, delta);
            }
        }
        Ok(Self { log })
    }

    /// Builds pair likelihoods from precomputed log values.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::InvalidInput`] if `log` is not 65536 long.
    pub fn from_log_values(log: Vec<f64>) -> Result<Self, RecoveryError> {
        if log.len() != 65536 {
            return Err(RecoveryError::InvalidInput(
                "expected 65536 log-likelihood values".into(),
            ));
        }
        Ok(Self { log })
    }

    /// Uniform (uninformative) pair likelihoods.
    pub fn flat() -> Self {
        Self {
            log: vec![0.0; 65536],
        }
    }

    /// The log-likelihood of the plaintext pair `(mu1, mu2)`.
    pub fn log_likelihood(&self, mu1: u8, mu2: u8) -> f64 {
        self.log[(mu1 as usize) << 8 | mu2 as usize]
    }

    /// All 65536 log-likelihoods (row-major in `mu1`).
    pub fn as_slice(&self) -> &[f64] {
        &self.log
    }

    /// The most likely plaintext pair.
    pub fn best(&self) -> (u8, u8) {
        let mut best = 0usize;
        for (i, &v) in self.log.iter().enumerate() {
            if v > self.log[best] {
                best = i;
            }
        }
        ((best >> 8) as u8, (best & 0xff) as u8)
    }

    /// The gap between the best candidate's log-likelihood and the
    /// runner-up's — the sequential statistic streaming mode tests against
    /// its confidence threshold. Always ≥ 0; 0 when the top is tied.
    pub fn margin(&self) -> f64 {
        let mut best = f64::NEG_INFINITY;
        let mut second = f64::NEG_INFINITY;
        for &v in &self.log {
            if v > best {
                second = best;
                best = v;
            } else if v > second {
                second = v;
            }
        }
        best - second
    }

    /// Combines with another independent estimate for the same pair (Eq. 25).
    pub fn combine(&mut self, other: &Self) {
        for (a, b) in self.log.iter_mut().zip(&other.log) {
            *a += b;
        }
    }

    /// Adds a raw slice of 65536 log values in place (Eq. 25 without the
    /// intermediate [`PairLikelihoods`]).
    ///
    /// Equivalent to `self.combine(&PairLikelihoods::from_log_values(..))` but
    /// without cloning the 512 KiB vote table first — the slot order and the
    /// per-slot addition are the same, so results are bit-identical to the
    /// clone-then-combine path.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::InvalidInput`] if `log` is not 65536 long.
    pub fn add_log_values(&mut self, log: &[f64]) -> Result<(), RecoveryError> {
        if log.len() != 65536 {
            return Err(RecoveryError::InvalidInput(
                "expected 65536 log-likelihood values".into(),
            ));
        }
        for (a, b) in self.log.iter_mut().zip(log) {
            *a += b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a keystream distribution with one strongly biased value.
    fn biased_single(value: u8, relative: f64) -> Vec<f64> {
        let mut p = vec![1.0 / 256.0; 256];
        p[value as usize] *= 1.0 + relative;
        let s: f64 = p.iter().sum();
        p.iter().map(|x| x / s).collect()
    }

    #[test]
    fn single_likelihood_recovers_plaintext_under_strong_bias() {
        // Keystream value 0 appears twice as often (Mantin-Shamir style).
        let ks = biased_single(0, 1.0);
        let plaintext = 0x42u8;
        // Simulate ciphertext counts: C = P ^ Z, so counts[c] = N * p[c ^ P].
        let n = 1_000_000u64;
        let counts: Vec<u64> = (0..256)
            .map(|c| (n as f64 * ks[c ^ plaintext as usize]).round() as u64)
            .collect();
        let lik = SingleLikelihoods::from_counts(&counts, &ks).unwrap();
        assert_eq!(lik.best(), plaintext);
    }

    #[test]
    fn single_likelihood_validation_and_flat() {
        assert!(SingleLikelihoods::from_counts(&[0; 10], &[0.0; 256]).is_err());
        assert!(SingleLikelihoods::from_log_values(vec![0.0; 10]).is_err());
        let flat = SingleLikelihoods::flat();
        assert_eq!(flat.log_likelihood(3), 0.0);
    }

    #[test]
    fn single_combine_adds_information() {
        let ks = biased_single(7, 0.5);
        let plaintext = 0x99u8;
        let n = 50_000u64;
        let counts: Vec<u64> = (0..256)
            .map(|c| (n as f64 * ks[c ^ plaintext as usize]).round() as u64)
            .collect();
        let a = SingleLikelihoods::from_counts(&counts, &ks).unwrap();
        let mut combined = a.clone();
        combined.combine(&a);
        // Combining two copies doubles every log-likelihood.
        for mu in 0..=255u8 {
            assert!((combined.log_likelihood(mu) - 2.0 * a.log_likelihood(mu)).abs() < 1e-6);
        }
    }

    #[test]
    fn pair_margin_is_best_minus_runner_up() {
        let mut log = vec![0.0; 65536];
        log[(0x12usize) << 8 | 0x34] = 9.0;
        log[(0xABusize) << 8 | 0xCD] = 2.5;
        let lik = PairLikelihoods::from_log_values(log).unwrap();
        assert_eq!(lik.best(), (0x12, 0x34));
        assert!((lik.margin() - 6.5).abs() < 1e-12);
        // A flat table is fully tied: zero margin.
        assert_eq!(PairLikelihoods::flat().margin(), 0.0);
    }

    /// Keystream pair distribution with a few (artificially strong) biased cells,
    /// plus its sparse description.
    ///
    /// The real Fluhrer–McGrew biases are `~2^-8` relative; reproducing the
    /// recovery at that strength needs ciphertext volumes that belong in the
    /// release-mode benches (Fig. 7), so the unit tests exaggerate the bias to
    /// exercise the same code path cheaply. With the strong biases a small
    /// ciphertext count also keeps the count table sparse, which keeps the
    /// dense (2^32-flavoured) evaluation fast enough for a debug-mode test.
    fn biased_pair() -> (Vec<f64>, Vec<(u8, u8, f64)>) {
        let uniform = 1.0 / 65536.0;
        let mut probs = vec![uniform; 65536];
        let cells = vec![
            (0u8, 0u8, uniform * 12.0),
            (0u8, 1u8, uniform * 6.0),
            (255u8, 255u8, uniform * 0.1),
        ];
        for &(a, b, p) in &cells {
            probs[(a as usize) << 8 | b as usize] = p;
        }
        let s: f64 = probs.iter().sum();
        let probs: Vec<f64> = probs.iter().map(|x| x / s).collect();
        (probs, cells)
    }

    /// Simulates expected ciphertext pair counts for a plaintext pair (rounding
    /// tiny expected counts down to zero, which keeps the table sparse).
    fn simulate_pair_counts(probs: &[f64], mu: (u8, u8), n: u64) -> Vec<u64> {
        let mut counts = vec![0u64; 65536];
        for k1 in 0..256usize {
            for k2 in 0..256usize {
                let c1 = k1 ^ mu.0 as usize;
                let c2 = k2 ^ mu.1 as usize;
                counts[(c1 << 8) | c2] = (probs[(k1 << 8) | k2] * n as f64).round() as u64;
            }
        }
        counts
    }

    #[test]
    fn dense_pair_likelihood_recovers_pair() {
        let (probs, _) = biased_pair();
        let mu = (0x13u8, 0x37u8);
        let counts = simulate_pair_counts(&probs, mu, 20_000);
        let lik = PairLikelihoods::from_counts_dense(&counts, &probs).unwrap();
        assert_eq!(lik.best(), mu);
    }

    #[test]
    fn sparse_matches_dense_ranking() {
        let (probs, cells) = biased_pair();
        let mu = (0xAB, 0xCD);
        let n = 20_000u64;
        let counts = simulate_pair_counts(&probs, mu, n);
        let total: u64 = counts.iter().sum();
        let dense = PairLikelihoods::from_counts_dense(&counts, &probs).unwrap();
        let sparse =
            PairLikelihoods::from_counts_sparse(&counts, &cells, 1.0 / 65536.0, total).unwrap();
        assert_eq!(dense.best(), mu);
        assert_eq!(sparse.best(), mu);
        // The two estimates must rank a handful of competitive candidates identically.
        let mut idx: Vec<usize> = (0..65536).collect();
        idx.sort_by(|&a, &b| {
            dense.as_slice()[b]
                .partial_cmp(&dense.as_slice()[a])
                .unwrap()
        });
        let top_dense: Vec<usize> = idx[..5].to_vec();
        let mut idx2: Vec<usize> = (0..65536).collect();
        idx2.sort_by(|&a, &b| {
            sparse.as_slice()[b]
                .partial_cmp(&sparse.as_slice()[a])
                .unwrap()
        });
        assert_eq!(top_dense[0], idx2[0]);
    }

    #[test]
    fn pair_validation() {
        assert!(PairLikelihoods::from_counts_dense(&[0; 3], &[0.0; 65536]).is_err());
        assert!(PairLikelihoods::from_counts_sparse(&[0; 65536], &[], 0.0, 0).is_err());
        assert!(PairLikelihoods::from_counts_sparse(
            &[0; 65536],
            &[(0, 0, -1.0)],
            1.0 / 65536.0,
            0
        )
        .is_err());
        assert!(PairLikelihoods::from_log_values(vec![0.0; 3]).is_err());
    }

    #[test]
    fn pair_combine_adds() {
        let (probs, cells) = biased_pair();
        let counts = simulate_pair_counts(&probs, (1, 2), 20_000);
        let total: u64 = counts.iter().sum();
        let a = PairLikelihoods::from_counts_sparse(&counts, &cells, 1.0 / 65536.0, total).unwrap();
        let mut c = a.clone();
        c.combine(&a);
        assert!((c.log_likelihood(1, 2) - 2.0 * a.log_likelihood(1, 2)).abs() < 1e-6);
    }
}
