//! Key-length–dependent biases (16-byte keys).
//!
//! Several of the strongest structural biases depend on the RC4 key length
//! `ℓ`. For the 16-byte keys used by TLS and TKIP the paper highlights:
//!
//! * Sen Gupta et al.: `Z_ℓ` is biased towards `256 - ℓ` — for `ℓ = 16`,
//!   `Z_16` towards 240 (the cluster of Table 2's non-consecutive rows).
//! * The paper's Table 2 upper half: `Z_{16w - 1} = Z_{16w} = 256 - 16w` for
//!   `1 <= w <= 7` (a *negative* pair bias relative to the single-byte model),
//!   catalogued as [`crate::shortterm::table2_consecutive`].
//! * The paper's Fig. 6 observation: `Z_{256 + 16k}` is biased towards `32k`
//!   for `1 <= k <= 7` (single-byte biases beyond position 256), catalogued
//!   here as [`beyond_256_biases`].

/// A single-byte key-length bias: position and favoured value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyLengthBias {
    /// Keystream position (1-based).
    pub position: u64,
    /// The value the byte is biased towards.
    pub value: u8,
}

/// The beyond-256 single-byte biases of Fig. 6: `Z_{256 + 16k} → 32k` for `1 <= k <= 7`.
pub fn beyond_256_biases() -> Vec<KeyLengthBias> {
    (1u64..=7)
        .map(|k| KeyLengthBias {
            position: 256 + 16 * k,
            value: (32 * k) as u8,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beyond_256_structure() {
        let biases = beyond_256_biases();
        assert_eq!(biases.len(), 7);
        assert_eq!(biases[0].position, 272);
        assert_eq!(biases[0].value, 32);
        assert_eq!(biases[6].position, 368);
        assert_eq!(biases[6].value, 224);
    }
}
