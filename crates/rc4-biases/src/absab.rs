//! Mantin's ABSAB bias (digraph repetition) and its differential form.
//!
//! Mantin observed a long-term bias towards the pattern `A B S A B`: a byte
//! pair repeating after a short gap `S` of `g` bytes. In the paper's notation
//! (Eq. 1):
//!
//! ```text
//! Pr[(Z_r, Z_{r+1}) = (Z_{r+g+2}, Z_{r+g+3})] = 2^-16 (1 + 2^-8 e^{(-4 - 8g)/256})
//! ```
//!
//! Section 4.2 turns this into a plaintext-recovery tool: define the
//! *differential* `Ẑ_r^g = (Z_r ⊕ Z_{r+2+g}, Z_{r+1} ⊕ Z_{r+3+g})`; then the
//! ciphertext differential equals the plaintext differential whenever the
//! keystream differential is `(0, 0)`, which happens with probability `α(g)`
//! above. The attacker surrounds an unknown plaintext with known bytes and
//! aggregates many such differentials into a likelihood for the unknown pair.

use crate::UNIFORM_PAIR;

/// The maximum gap the paper uses in its attacks (larger gaps are measurably
/// biased up to at least 135, but contribute little).
pub const MAX_ATTACK_GAP: usize = 128;

/// Probability that the keystream differential over a gap of `g` bytes is `(0, 0)`.
///
/// This is the paper's `α(g) = 2^-16 (1 + 2^-8 e^{(-4 - 8g)/256})` (Eq. 1/18).
///
/// # Examples
///
/// ```
/// use rc4_biases::absab::alpha;
///
/// // The bias shrinks as the gap grows but never drops below uniform.
/// assert!(alpha(0) > alpha(64));
/// assert!(alpha(128) > 1.0 / 65536.0);
/// ```
pub fn alpha(gap: usize) -> f64 {
    UNIFORM_PAIR * (1.0 + relative_strength(gap))
}

/// The relative strength `2^-8 e^{(-4 - 8g)/256}` of the ABSAB bias at gap `g`.
fn relative_strength(gap: usize) -> f64 {
    let g = gap as f64;
    2f64.powi(-8) * ((-4.0 - 8.0 * g) / 256.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_decreases_with_gap_but_stays_above_uniform() {
        let mut prev = f64::INFINITY;
        for gap in [0usize, 1, 8, 32, 64, 128, 256] {
            let a = alpha(gap);
            assert!(a < prev);
            assert!(a > UNIFORM_PAIR);
            prev = a;
        }
    }

    #[test]
    fn alpha_matches_formula_at_zero_gap() {
        let expected = UNIFORM_PAIR * (1.0 + 2f64.powi(-8) * (-4.0f64 / 256.0).exp());
        assert!((alpha(0) - expected).abs() < 1e-24);
    }
}
