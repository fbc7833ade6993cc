//! Ciphertext statistics collectors.
//!
//! The likelihood formulas never look at individual ciphertexts — only at
//! counts, such as how often each byte value appeared at a position.
//! [`SingleCounts`] performs that reduction once so the (expensive)
//! likelihood evaluation can run over compact tables, and [`widen_counts`]
//! prepares a count table for the scorers.

use serde::{Deserialize, Serialize};

use crate::RecoveryError;

/// Per-position single-byte ciphertext counts.
///
/// `counts[p][v]` is the number of captured ciphertexts whose byte at tracked
/// position index `p` had value `v`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SingleCounts {
    positions: Vec<u64>,
    counts: Vec<u64>,
    ciphertexts: u64,
}

impl SingleCounts {
    /// Creates a collector for the given (1-based) ciphertext positions.
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::InvalidConfig`] if `positions` is empty or
    /// contains zero.
    pub fn new(positions: Vec<u64>) -> Result<Self, RecoveryError> {
        if positions.is_empty() || positions.contains(&0) {
            return Err(RecoveryError::InvalidConfig(
                "positions must be non-empty and 1-based".into(),
            ));
        }
        let len = positions.len();
        Ok(Self {
            positions,
            counts: vec![0u64; len * 256],
            ciphertexts: 0,
        })
    }

    /// The tracked positions, in index order.
    pub fn positions(&self) -> &[u64] {
        &self.positions
    }

    /// Records one ciphertext (`ciphertext[pos - 1]` must exist for every tracked position).
    pub fn record(&mut self, ciphertext: &[u8]) {
        for (idx, &pos) in self.positions.iter().enumerate() {
            let v = ciphertext[pos as usize - 1] as usize;
            self.counts[idx * 256 + v] += 1;
        }
        self.ciphertexts += 1;
    }

    /// Records a ciphertext byte directly for tracked-position index `idx`.
    ///
    /// Used when the caller demultiplexes positions itself (e.g. the TKIP tool
    /// that only ever sees the 12 encrypted trailer bytes). Callers using this
    /// entry point must call [`SingleCounts::add_ciphertexts`] to keep the
    /// total in sync.
    pub fn record_byte(&mut self, idx: usize, value: u8) {
        self.counts[idx * 256 + value as usize] += 1;
    }

    /// Adds to the total ciphertext count (companion to [`SingleCounts::record_byte`]).
    pub fn add_ciphertexts(&mut self, n: u64) {
        self.ciphertexts += n;
    }

    /// The 256-entry count vector for tracked-position index `idx`.
    pub fn counts_at(&self, idx: usize) -> &[u64] {
        &self.counts[idx * 256..(idx + 1) * 256]
    }

    /// Number of ciphertexts recorded.
    pub fn ciphertexts(&self) -> u64 {
        self.ciphertexts
    }
}

/// Widens a count table to `f64` in one contiguous blocked pass.
///
/// The likelihood builders score candidates with fused multiply-free
/// `count * delta` accumulation over 256-slot rows (see
/// `rc4_accel::score::xor_mul_add_256`); converting the `u64` counts up front
/// keeps that hot loop free of per-element `u64 → f64` conversions and lets
/// the compiler turn this single pass into packed conversion instructions.
/// `u64 → f64` is exact for every realistic ciphertext volume (counts below
/// 2^53).
pub fn widen_counts(counts: &[u64]) -> Vec<f64> {
    counts.iter().map(|&n| n as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_counts_record() {
        let mut c = SingleCounts::new(vec![1, 3]).unwrap();
        c.record(&[0xAA, 0xBB, 0xCC]);
        c.record(&[0xAA, 0x00, 0xCD]);
        assert_eq!(c.counts_at(0)[0xAA], 2);
        assert_eq!(c.counts_at(1)[0xCC], 1);
        assert_eq!(c.counts_at(1)[0xCD], 1);
        assert_eq!(c.ciphertexts(), 2);
        assert_eq!(c.positions(), &[1, 3]);
    }

    #[test]
    fn single_counts_manual_path() {
        let mut c = SingleCounts::new(vec![5]).unwrap();
        c.record_byte(0, 0x11);
        c.record_byte(0, 0x11);
        c.add_ciphertexts(2);
        assert_eq!(c.counts_at(0)[0x11], 2);
        assert_eq!(c.ciphertexts(), 2);
    }

    #[test]
    fn single_counts_validation() {
        assert!(SingleCounts::new(vec![]).is_err());
        assert!(SingleCounts::new(vec![0]).is_err());
    }

    #[test]
    fn widen_counts_is_exact() {
        let counts = vec![0u64, 1, 977, 1 << 52];
        assert_eq!(
            widen_counts(&counts),
            vec![0.0, 1.0, 977.0, (1u64 << 52) as f64]
        );
    }
}
