//! Short-term biases in the initial RC4 keystream bytes.
//!
//! This module catalogues the known single-byte and double-byte biases that
//! only occur in the initial keystream bytes, plus the new ones reported in
//! Section 3.3 of the paper (Table 2 and Equations 3–5). The constants give
//! the paper's measured probabilities so the reproduction can compare its own
//! measurements against them (see `EXPERIMENTS.md`).

use crate::{Sign, UNIFORM_SINGLE};

/// The Mantin–Shamir bias: `Pr[Z_2 = 0] ≈ 2 · 2^-8`.
pub const MANTIN_SHAMIR_Z2_ZERO: f64 = 2.0 * UNIFORM_SINGLE;

/// Paul–Preneel: `Pr[Z_1 = Z_2] = 2^-8 (1 - 2^-8)`.
pub const PAUL_PRENEEL_Z1_EQ_Z2: f64 = UNIFORM_SINGLE * (1.0 - UNIFORM_SINGLE);

/// Isobe et al.: `Pr[Z_1 = Z_2 = 0] ≈ 3 · 2^-16`.
pub const ISOBE_Z1_Z2_ZERO: f64 = 3.0 / 65536.0;

/// A double-byte bias between two (possibly non-consecutive) initial positions,
/// as reported in Table 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionPairBias {
    /// Position of the first byte (1-based).
    pub pos_a: u64,
    /// Required value of the first byte.
    pub val_a: u8,
    /// Position of the second byte (1-based).
    pub pos_b: u64,
    /// Required value of the second byte.
    pub val_b: u8,
    /// The paper's measured probability of the joint event.
    pub paper_probability: f64,
    /// Sign of the bias relative to the single-byte expectation.
    pub sign: Sign,
}

/// Builds `2^x (1 ± 2^y)`-style probabilities as printed in Table 2.
fn p(base_exp: f64, sign: Sign, rel_exp: f64) -> f64 {
    2f64.powf(base_exp) * (1.0 + sign.apply(2f64.powf(-rel_exp)))
}

/// Table 2, upper half: the key-length–dependent consecutive biases
/// `Z_{16w-1} = Z_{16w} = 256 - 16w` for `1 <= w <= 7`.
pub fn table2_consecutive() -> Vec<PositionPairBias> {
    let rows: [(u64, f64, f64); 7] = [
        (16, -15.947_86, 4.894),
        (32, -15.964_86, 5.427),
        (48, -15.975_95, 5.963),
        (64, -15.983_63, 6.469),
        (80, -15.990_20, 7.150),
        (96, -15.994_05, 7.740),
        (112, -15.996_68, 8.331),
    ];
    rows.iter()
        .map(|&(pos, base, rel)| {
            let value = (256 - pos as i64) as u8;
            PositionPairBias {
                pos_a: pos - 1,
                val_a: value,
                pos_b: pos,
                val_b: value,
                paper_probability: p(base, Sign::Negative, rel),
                sign: Sign::Negative,
            }
        })
        .collect()
}

/// Table 2, lower half: new biases between non-consecutive initial bytes.
pub fn table2_nonconsecutive() -> Vec<PositionPairBias> {
    use Sign::{Negative, Positive};
    let rows: [(u64, u8, u64, u8, f64, Sign, f64); 16] = [
        (3, 4, 5, 4, -16.002_43, Positive, 7.912),
        (3, 131, 131, 3, -15.995_43, Positive, 8.700),
        (3, 131, 131, 131, -15.993_47, Negative, 9.511),
        (4, 5, 6, 255, -15.999_18, Positive, 8.208),
        (14, 0, 16, 14, -15.993_49, Positive, 9.941),
        (15, 47, 17, 16, -16.001_91, Positive, 11.279),
        (15, 112, 32, 224, -15.966_37, Negative, 10.904),
        (15, 159, 32, 224, -15.965_74, Positive, 9.493),
        (16, 240, 31, 63, -15.950_21, Positive, 8.996),
        (16, 240, 32, 16, -15.949_76, Positive, 9.261),
        (16, 240, 33, 16, -15.949_60, Positive, 10.516),
        (16, 240, 40, 32, -15.949_76, Positive, 10.933),
        (16, 240, 48, 16, -15.949_89, Positive, 10.832),
        (16, 240, 48, 208, -15.926_19, Negative, 10.965),
        (16, 240, 64, 192, -15.933_57, Negative, 11.229),
        (1, 0, 2, 0, -16.0, Positive, 0.415), // Isobe Z1 = Z2 = 0 (≈ 3 * 2^-16) for completeness
    ];
    rows.iter()
        .map(
            |&(pos_a, val_a, pos_b, val_b, base, sign, rel)| PositionPairBias {
                pos_a,
                val_a,
                pos_b,
                val_b,
                paper_probability: p(base, sign, rel),
                sign,
            },
        )
        .collect()
}

/// Equations 3–5: equality biases among the first four keystream bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EqualityBias {
    /// First position of the equality (1-based).
    pub pos_a: u64,
    /// Second position of the equality (1-based).
    pub pos_b: u64,
    /// The paper's probability `Pr[Z_a = Z_b]`.
    pub paper_probability: f64,
    /// Sign relative to `2^-8`.
    pub sign: Sign,
}

/// The three new equality biases of Equations 3–5:
/// `Z_1 = Z_3` (negative), `Z_1 = Z_4` (positive), `Z_2 = Z_4` (negative).
pub fn equality_biases() -> [EqualityBias; 3] {
    [
        EqualityBias {
            pos_a: 1,
            pos_b: 3,
            paper_probability: UNIFORM_SINGLE * (1.0 - 2f64.powf(-9.617)),
            sign: Sign::Negative,
        },
        EqualityBias {
            pos_a: 1,
            pos_b: 4,
            paper_probability: UNIFORM_SINGLE * (1.0 + 2f64.powf(-8.590)),
            sign: Sign::Positive,
        },
        EqualityBias {
            pos_a: 2,
            pos_b: 4,
            paper_probability: UNIFORM_SINGLE * (1.0 - 2f64.powf(-9.622)),
            sign: Sign::Negative,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn constants_are_plausible() {
        assert!((MANTIN_SHAMIR_Z2_ZERO - 2.0 / 256.0).abs() < 1e-15);
        assert!(PAUL_PRENEEL_Z1_EQ_Z2 < UNIFORM_SINGLE);
        assert!(ISOBE_Z1_Z2_ZERO > 2.0 / 65536.0);
    }

    #[test]
    fn table2_consecutive_structure() {
        let rows = table2_consecutive();
        assert_eq!(rows.len(), 7);
        for (w, row) in rows.iter().enumerate() {
            let w = (w + 1) as u64;
            assert_eq!(row.pos_a, 16 * w - 1);
            assert_eq!(row.pos_b, 16 * w);
            assert_eq!(row.val_a, (256 - 16 * w as i64) as u8);
            assert_eq!(row.val_a, row.val_b);
            assert_eq!(row.sign, Sign::Negative);
            // All listed probabilities are below the 2^-16 independence baseline times 1.
            assert!(row.paper_probability < 2f64.powi(-15));
            assert!(row.paper_probability > 2f64.powi(-17));
        }
    }

    #[test]
    fn table2_nonconsecutive_structure() {
        let rows = table2_nonconsecutive();
        assert_eq!(rows.len(), 16);
        for row in &rows {
            assert!(row.pos_a < row.pos_b, "rows are ordered by position");
            assert!(row.paper_probability > 0.0 && row.paper_probability < 1.0);
        }
        // The Z16 = 240 cluster is the largest group, as the paper observes.
        let z16 = rows
            .iter()
            .filter(|r| r.pos_a == 16 && r.val_a == 240)
            .count();
        assert!(z16 >= 6);
    }

    #[test]
    fn equality_bias_signs() {
        let [e13, e14, e24] = equality_biases();
        assert!(e13.paper_probability < UNIFORM_SINGLE);
        assert!(e14.paper_probability > UNIFORM_SINGLE);
        assert!(e24.paper_probability < UNIFORM_SINGLE);
    }

    #[test]
    fn mantin_shamir_measurable_at_small_scale() {
        // Z2 = 0 with probability about 2/256: measure it by direct keystream
        // generation.
        let keys = 40_000u64;
        let mut hits = 0u64;
        for k in 0..keys {
            let key = (k.wrapping_mul(0x9E37_79B9).wrapping_add(12345) as u128).to_le_bytes();
            let ks = rc4::keystream(&key, 2).unwrap();
            if ks[1] == 0 {
                hits += 1;
            }
        }
        let p = hits as f64 / keys as f64;
        assert!(p > 1.5 / 256.0 && p < 2.5 / 256.0, "Pr[Z2=0] = {p}");
    }
}
