//! Influence of the first two keystream bytes on later bytes (Fig. 5).
//!
//! One of the paper's most striking findings is how much information `Z_1`
//! and `Z_2` leak about *every* one of the first 256 keystream bytes. Six
//! families of conditional biases are reported, together with four dependency
//! pairs between `Z_1` and `Z_2` themselves. This module encodes those
//! families so the experiment harness can measure their relative bias per
//! position and compare the sign/shape against Fig. 5.

use crate::Sign;

/// The six bias families of Section 3.3.2 (Fig. 5).
///
/// For a given later position `i` (the paper uses `i` for the position of the
/// other keystream byte, `3 <= i <= 256`), each family names a joint event on
/// `(Z_1 or Z_2, Z_i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Z1Z2Family {
    /// Family 1: `Z_1 = 257 - i ∧ Z_i = 0` (generally positive).
    Z1Is257MinusIAndZiZero,
    /// Family 2: `Z_1 = 257 - i ∧ Z_i = i` (generally positive).
    Z1Is257MinusIAndZiI,
    /// Family 3: `Z_1 = 257 - i ∧ Z_i = 257 - i` (negative).
    Z1Is257MinusIAndZi257MinusI,
    /// Family 4: `Z_1 = i - 1 ∧ Z_i = 1` (generally positive).
    Z1IsIMinus1AndZiOne,
    /// Family 5: `Z_2 = 0 ∧ Z_i = 0` (generally negative).
    Z2ZeroAndZiZero,
    /// Family 6: `Z_2 = 0 ∧ Z_i = i` (generally negative).
    Z2ZeroAndZiI,
}

impl Z1Z2Family {
    /// All six families, in the paper's numbering order.
    pub const ALL: [Z1Z2Family; 6] = [
        Z1Z2Family::Z1Is257MinusIAndZiZero,
        Z1Z2Family::Z1Is257MinusIAndZiI,
        Z1Z2Family::Z1Is257MinusIAndZi257MinusI,
        Z1Z2Family::Z1IsIMinus1AndZiOne,
        Z1Z2Family::Z2ZeroAndZiZero,
        Z1Z2Family::Z2ZeroAndZiI,
    ];

    /// The paper's family number (1–6).
    pub fn number(self) -> u8 {
        match self {
            Z1Z2Family::Z1Is257MinusIAndZiZero => 1,
            Z1Z2Family::Z1Is257MinusIAndZiI => 2,
            Z1Z2Family::Z1Is257MinusIAndZi257MinusI => 3,
            Z1Z2Family::Z1IsIMinus1AndZiOne => 4,
            Z1Z2Family::Z2ZeroAndZiZero => 5,
            Z1Z2Family::Z2ZeroAndZiI => 6,
        }
    }

    /// The typical sign of the relative bias reported in the paper.
    ///
    /// Families involving `Z_1` are generally positive except family 3;
    /// families involving `Z_2` are generally negative.
    pub fn typical_sign(self) -> Sign {
        match self {
            Z1Z2Family::Z1Is257MinusIAndZi257MinusI
            | Z1Z2Family::Z2ZeroAndZiZero
            | Z1Z2Family::Z2ZeroAndZiI => Sign::Negative,
            _ => Sign::Positive,
        }
    }

    /// The event `(value of the early byte, value of Z_i)` for a given later position `i`.
    ///
    /// Returns `None` for positions where the event is degenerate (e.g. `i < 3`,
    /// where the "early" and "late" byte would coincide or the value wraps onto
    /// a trivial case).
    pub fn event(self, i: u16) -> Option<Z1Z2Event> {
        if !(3..=256).contains(&i) {
            return None;
        }
        let late = ((i as u64) & 0xff) as u8; // value "i" reduced mod 256 (position 256 -> 0)
        let v257_minus_i = ((257 - i as i32) & 0xff) as u8;
        let v_i_minus_1 = ((i as i32 - 1) & 0xff) as u8;
        let (early_pos, early_val, late_val) = match self {
            Z1Z2Family::Z1Is257MinusIAndZiZero => (1, v257_minus_i, 0),
            Z1Z2Family::Z1Is257MinusIAndZiI => (1, v257_minus_i, late),
            Z1Z2Family::Z1Is257MinusIAndZi257MinusI => (1, v257_minus_i, v257_minus_i),
            Z1Z2Family::Z1IsIMinus1AndZiOne => (1, v_i_minus_1, 1),
            Z1Z2Family::Z2ZeroAndZiZero => (2, 0, 0),
            Z1Z2Family::Z2ZeroAndZiI => (2, 0, late),
        };
        Some(Z1Z2Event {
            family: self,
            early_pos,
            early_val,
            late_pos: i as u64,
            late_val,
        })
    }
}

/// A concrete joint event `(Z_{early_pos} = early_val ∧ Z_{late_pos} = late_val)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Z1Z2Event {
    /// The family this event belongs to.
    pub family: Z1Z2Family,
    /// 1 or 2: which early byte is conditioned on.
    pub early_pos: u64,
    /// Required value of the early byte.
    pub early_val: u8,
    /// Position of the later byte (3..=256).
    pub late_pos: u64,
    /// Required value of the later byte.
    pub late_val: u8,
}

/// The four dependency pairs between `Z_1` and `Z_2` themselves (Sect. 3.3.2):
///
/// * A: `Z_1 = 0 ∧ Z_2 = x` (negative for `x != 0`)
/// * B: `Z_1 = x ∧ Z_2 = 258 - x` (positive)
/// * C: `Z_1 = x ∧ Z_2 = 0` (negative for `x != 0`)
/// * D: `Z_1 = x ∧ Z_2 = 1` (positive)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Z1Z2PairFamily {
    /// `Z_1 = 0 ∧ Z_2 = x`, negative for `x != 0`.
    A,
    /// `Z_1 = x ∧ Z_2 = 258 - x`, positive.
    B,
    /// `Z_1 = x ∧ Z_2 = 0`, negative for `x != 0`.
    C,
    /// `Z_1 = x ∧ Z_2 = 1`, positive.
    D,
}

impl Z1Z2PairFamily {
    /// All four families.
    pub const ALL: [Z1Z2PairFamily; 4] = [
        Z1Z2PairFamily::A,
        Z1Z2PairFamily::B,
        Z1Z2PairFamily::C,
        Z1Z2PairFamily::D,
    ];

    /// The `(Z_1, Z_2)` value pair for parameter `x`.
    pub fn pair(self, x: u8) -> (u8, u8) {
        match self {
            Z1Z2PairFamily::A => (0, x),
            Z1Z2PairFamily::B => (x, (258u16.wrapping_sub(x as u16) & 0xff) as u8),
            Z1Z2PairFamily::C => (x, 0),
            Z1Z2PairFamily::D => (x, 1),
        }
    }

    /// Typical sign of the bias for `x != 0`.
    pub fn typical_sign(self) -> Sign {
        match self {
            Z1Z2PairFamily::A | Z1Z2PairFamily::C => Sign::Negative,
            Z1Z2PairFamily::B | Z1Z2PairFamily::D => Sign::Positive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_numbering_and_conditioning() {
        assert_eq!(Z1Z2Family::ALL.len(), 6);
        for (idx, f) in Z1Z2Family::ALL.iter().enumerate() {
            assert_eq!(f.number() as usize, idx + 1);
        }
    }

    #[test]
    fn typical_signs_match_paper() {
        use Z1Z2Family::*;
        assert_eq!(Z1Is257MinusIAndZiZero.typical_sign(), Sign::Positive);
        assert_eq!(Z1Is257MinusIAndZi257MinusI.typical_sign(), Sign::Negative);
        assert_eq!(Z2ZeroAndZiZero.typical_sign(), Sign::Negative);
        assert_eq!(Z2ZeroAndZiI.typical_sign(), Sign::Negative);
    }

    #[test]
    fn events_for_specific_positions() {
        // i = 5: 257 - i = 252.
        let e = Z1Z2Family::Z1Is257MinusIAndZiZero.event(5).unwrap();
        assert_eq!(e.early_pos, 1);
        assert_eq!(e.early_val, 252);
        assert_eq!(e.late_pos, 5);
        assert_eq!(e.late_val, 0);

        let e = Z1Z2Family::Z1IsIMinus1AndZiOne.event(5).unwrap();
        assert_eq!(e.early_val, 4);
        assert_eq!(e.late_val, 1);

        let e = Z1Z2Family::Z2ZeroAndZiI.event(200).unwrap();
        assert_eq!(e.early_pos, 2);
        assert_eq!(e.early_val, 0);
        assert_eq!(e.late_val, 200);

        // Position 256: value "i" wraps to 0, 257 - i = 1.
        let e = Z1Z2Family::Z1Is257MinusIAndZiI.event(256).unwrap();
        assert_eq!(e.early_val, 1);
        assert_eq!(e.late_val, 0);
    }

    #[test]
    fn out_of_range_positions_rejected() {
        assert!(Z1Z2Family::Z2ZeroAndZiZero.event(2).is_none());
        assert!(Z1Z2Family::Z2ZeroAndZiZero.event(257).is_none());
        assert!(Z1Z2Family::Z2ZeroAndZiZero.event(3).is_some());
    }

    #[test]
    fn pair_families() {
        assert_eq!(Z1Z2PairFamily::A.pair(7), (0, 7));
        assert_eq!(Z1Z2PairFamily::B.pair(10), (10, 248));
        assert_eq!(Z1Z2PairFamily::B.pair(2), (2, 0));
        assert_eq!(Z1Z2PairFamily::C.pair(99), (99, 0));
        assert_eq!(Z1Z2PairFamily::D.pair(5), (5, 1));
        assert_eq!(Z1Z2PairFamily::A.typical_sign(), Sign::Negative);
        assert_eq!(Z1Z2PairFamily::D.typical_sign(), Sign::Positive);
    }
}
