//! The internal RC4 state `(S, i, j)`.

use crate::PERM_SIZE;

/// Internal RC4 state: a permutation `S` of `{0, ..., 255}` plus the public
/// counter `i` and private index `j`.
///
/// The state is exposed publicly (read-only) because the bias-hunting code
/// inspects the evolution of the permutation, e.g. to validate the assumption
/// in Fluhrer–McGrew that the state is close to a random permutation after a
/// few PRGA rounds.
#[derive(Clone, PartialEq, Eq)]
pub struct State {
    pub(crate) s: [u8; PERM_SIZE],
    pub(crate) i: u8,
    pub(crate) j: u8,
}

impl State {
    /// Returns the identity permutation with `i = j = 0` (the state before the KSA runs).
    pub fn identity() -> Self {
        let mut s = [0u8; PERM_SIZE];
        for (idx, slot) in s.iter_mut().enumerate() {
            *slot = idx as u8;
        }
        Self { s, i: 0, j: 0 }
    }

    /// Returns the permutation table.
    pub fn permutation(&self) -> &[u8; PERM_SIZE] {
        &self.s
    }

    /// Returns the public counter `i`.
    pub fn i(&self) -> u8 {
        self.i
    }

    /// Returns the private index `j`.
    pub fn j(&self) -> u8 {
        self.j
    }

    /// Returns `true` if `S` is a permutation of `{0, ..., 255}`.
    ///
    /// This invariant holds for every state reachable through the KSA/PRGA; it
    /// is checked by the property tests and available for debugging assertions
    /// elsewhere.
    pub fn is_permutation(&self) -> bool {
        let mut seen = [false; PERM_SIZE];
        for &v in &self.s {
            if seen[v as usize] {
                return false;
            }
            seen[v as usize] = true;
        }
        true
    }

    /// Swaps `S[a]` and `S[b]`.
    ///
    /// Exposed so research code (e.g. state-evolution experiments in the
    /// examples) can construct doctored permutations without reimplementing
    /// the state type.
    #[inline]
    pub fn swap(&mut self, a: u8, b: u8) {
        self.s.swap(a as usize, b as usize);
    }
}

impl core::fmt::Debug for State {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("State")
            .field("i", &self.i)
            .field("j", &self.j)
            .field("s[0..8]", &&self.s[..8])
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_a_permutation() {
        let st = State::identity();
        assert!(st.is_permutation());
        assert_eq!(st.permutation()[0], 0);
        assert_eq!(st.permutation()[255], 255);
        assert_eq!(st.i(), 0);
        assert_eq!(st.j(), 0);
    }

    #[test]
    fn swap_preserves_permutation() {
        let mut st = State::identity();
        st.swap(3, 200);
        assert!(st.is_permutation());
        assert_eq!(st.permutation()[3], 200);
        assert_eq!(st.permutation()[200], 3);
    }

    #[test]
    fn non_permutation_detected() {
        let mut st = State::identity();
        st.s[0] = 1;
        assert!(!st.is_permutation());
    }

    #[test]
    fn debug_is_compact() {
        let st = State::identity();
        let s = format!("{st:?}");
        assert!(s.contains("State"));
        assert!(s.len() < 200);
    }
}
