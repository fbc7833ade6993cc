//! Long-term biases at 256-aligned positions (Section 3.4).
//!
//! Besides the Fluhrer–McGrew digraphs and Mantin's ABSAB pattern, two
//! families of long-term biases live at positions that are multiples of 256:
//!
//! * Sen Gupta et al.: `Pr[(Z_{256w}, Z_{256w+2}) = (0, 0)] = 2^-16 (1 + 2^-8)`.
//! * The paper's new bias (Eq. 8): `Pr[(Z_{256w}, Z_{256w+2}) = (128, 0)] = 2^-16 (1 + 2^-8)`.
//! * Eq. 9: weak dependencies `Pr[Z_{256w+a} = Z_{256w+b}] ≈ 2^-8 (1 ± 2^-16)`
//!   whose sign pattern the paper leaves as an open problem.

use crate::UNIFORM_PAIR;

/// A long-term aligned-pair bias `(Z_{256w}, Z_{256w+2}) = (first, second)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignedPairBias {
    /// Value of `Z_{256w}`.
    pub first: u8,
    /// Value of `Z_{256w+2}`.
    pub second: u8,
    /// Long-term probability of the pair.
    pub probability: f64,
}

/// Sen Gupta's `(0, 0)` bias at 256-aligned positions.
pub fn sen_gupta_aligned() -> AlignedPairBias {
    AlignedPairBias {
        first: 0,
        second: 0,
        probability: UNIFORM_PAIR * (1.0 + 2f64.powi(-8)),
    }
}

/// The paper's new `(128, 0)` bias at 256-aligned positions (Eq. 8).
pub fn new_128_0_aligned() -> AlignedPairBias {
    AlignedPairBias {
        first: 128,
        second: 0,
        probability: UNIFORM_PAIR * (1.0 + 2f64.powi(-8)),
    }
}

/// Both aligned-pair biases, for iteration by the experiment harness.
pub fn aligned_biases() -> [AlignedPairBias; 2] {
    [sen_gupta_aligned(), new_128_0_aligned()]
}

/// The magnitude of the Eq. 9 equality dependencies, `2^-16` relative.
pub const EQ9_RELATIVE_MAGNITUDE: f64 = 1.0 / 65536.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_bias_constants() {
        let sg = sen_gupta_aligned();
        assert_eq!((sg.first, sg.second), (0, 0));
        let new = new_128_0_aligned();
        assert_eq!((new.first, new.second), (128, 0));
        for b in aligned_biases() {
            assert!((b.probability - UNIFORM_PAIR * (1.0 + 1.0 / 256.0)).abs() < 1e-20);
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn eq9_magnitude_is_tiny() {
        assert!(EQ9_RELATIVE_MAGNITUDE < 1e-4);
    }
}
