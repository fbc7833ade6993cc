//! Builders turning bias descriptions into concrete probability vectors.
//!
//! The likelihood estimators in `plaintext-recovery` and the sampled-mode
//! experiment drivers in `rc4-attacks` both consume plain probability vectors:
//! 256 entries for a single keystream byte, 65536 entries for a byte pair.
//! This module centralizes the conversions from the analytic bias catalogue
//! (and from empirical counts) into such vectors, always keeping them
//! normalized.

use crate::{fm, UNIFORM_PAIR, UNIFORM_SINGLE};

/// A normalized single-byte keystream distribution (256 entries).
#[derive(Debug, Clone, PartialEq)]
pub struct SingleDistribution {
    probs: Vec<f64>,
}

impl SingleDistribution {
    /// The uniform single-byte distribution.
    pub fn uniform() -> Self {
        Self {
            probs: vec![UNIFORM_SINGLE; 256],
        }
    }

    /// Builds a distribution from raw counts, normalizing them.
    ///
    /// Cells with zero total fall back to uniform.
    pub fn from_counts(counts: &[u64]) -> Self {
        assert_eq!(
            counts.len(),
            256,
            "single-byte distribution needs 256 cells"
        );
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Self::uniform();
        }
        Self {
            probs: counts.iter().map(|&c| c as f64 / total as f64).collect(),
        }
    }

    /// Builds a distribution from explicit probabilities, renormalizing.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not have 256 entries or sums to zero.
    pub fn from_probabilities(probs: &[f64]) -> Self {
        assert_eq!(probs.len(), 256, "single-byte distribution needs 256 cells");
        let sum: f64 = probs.iter().sum();
        assert!(sum > 0.0, "probabilities must not all be zero");
        Self {
            probs: probs.iter().map(|&p| p / sum).collect(),
        }
    }

    /// Probability of `value`.
    pub fn prob(&self, value: u8) -> f64 {
        self.probs[value as usize]
    }

    /// The full probability vector.
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }
}

/// A normalized double-byte keystream distribution (65536 entries).
#[derive(Debug, Clone, PartialEq)]
pub struct PairDistribution {
    probs: Vec<f64>,
}

impl PairDistribution {
    /// The uniform pair distribution.
    pub fn uniform() -> Self {
        Self {
            probs: vec![UNIFORM_PAIR; 65536],
        }
    }

    /// The long-term Fluhrer–McGrew distribution for the digraph starting at position `r`.
    pub fn fluhrer_mcgrew(r: u64) -> Self {
        Self {
            probs: fm::fm_joint_distribution(r),
        }
    }

    /// Builds a distribution from raw counts, normalizing them.
    ///
    /// Falls back to uniform when the counts are all zero.
    pub fn from_counts(counts: &[u64]) -> Self {
        assert_eq!(counts.len(), 65536, "pair distribution needs 65536 cells");
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Self::uniform();
        }
        Self {
            probs: counts.iter().map(|&c| c as f64 / total as f64).collect(),
        }
    }

    /// Builds a distribution from explicit probabilities, renormalizing.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not have 65536 entries or sums to zero.
    pub fn from_probabilities(probs: &[f64]) -> Self {
        assert_eq!(probs.len(), 65536, "pair distribution needs 65536 cells");
        let sum: f64 = probs.iter().sum();
        assert!(sum > 0.0, "probabilities must not all be zero");
        Self {
            probs: probs.iter().map(|&p| p / sum).collect(),
        }
    }

    /// Probability of the pair `(x, y)`.
    pub fn prob(&self, x: u8, y: u8) -> f64 {
        self.probs[x as usize * 256 + y as usize]
    }

    /// The full probability vector (row-major in the first byte).
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }

    /// Marginal distribution of the first byte.
    pub fn marginal_first(&self) -> SingleDistribution {
        let mut m = vec![0.0f64; 256];
        for (x, slot) in m.iter_mut().enumerate() {
            let mut s = 0.0;
            for y in 0..256 {
                s += self.probs[x * 256 + y];
            }
            *slot = s;
        }
        SingleDistribution::from_probabilities(&m)
    }

    /// Marginal distribution of the second byte.
    pub fn marginal_second(&self) -> SingleDistribution {
        let mut m = vec![0.0f64; 256];
        for (y, slot) in m.iter_mut().enumerate() {
            let mut s = 0.0;
            for x in 0..256 {
                s += self.probs[x * 256 + y];
            }
            *slot = s;
        }
        SingleDistribution::from_probabilities(&m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_single_is_normalized() {
        let d = SingleDistribution::uniform();
        let sum: f64 = d.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((d.prob(7) - UNIFORM_SINGLE).abs() < 1e-18);
    }

    #[test]
    fn single_from_counts() {
        let mut counts = vec![1u64; 256];
        counts[0] = 3;
        let d = SingleDistribution::from_counts(&counts);
        assert!(d.prob(0) > d.prob(1));
        let sum: f64 = d.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // All-zero counts fall back to uniform.
        let z = SingleDistribution::from_counts(&vec![0u64; 256]);
        assert_eq!(z, SingleDistribution::uniform());
    }

    #[test]
    fn pair_uniform_and_fm() {
        let u = PairDistribution::uniform();
        assert!((u.prob(1, 2) - UNIFORM_PAIR).abs() < 1e-20);

        let fm_dist = PairDistribution::fluhrer_mcgrew(257); // i = 1, strong (0,0) row
        assert!(fm_dist.prob(0, 0) > UNIFORM_PAIR);
        let sum: f64 = fm_dist.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pair_from_counts_and_marginals() {
        let mut counts = vec![1u64; 65536];
        counts[5 * 256 + 7] = 100;
        let d = PairDistribution::from_counts(&counts);
        assert!(d.prob(5, 7) > d.prob(5, 8));
        let m1 = d.marginal_first();
        let m2 = d.marginal_second();
        assert!(m1.prob(5) > m1.prob(6));
        assert!(m2.prob(7) > m2.prob(8));
    }

    #[test]
    #[should_panic(expected = "65536")]
    fn pair_from_counts_wrong_shape_panics() {
        let _ = PairDistribution::from_counts(&[1, 2, 3]);
    }
}
