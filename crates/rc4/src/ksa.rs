//! The RC4 Key Scheduling Algorithm (KSA).

use crate::{error::KeyError, state::State, MAX_KEY_LEN, MIN_KEY_LEN, PERM_SIZE};

/// The Key Scheduling Algorithm.
///
/// The KSA initializes the permutation `S` from a variable-length key:
/// starting from the identity permutation it performs 256 swap rounds, where
/// the swap target accumulates the key bytes (repeated cyclically).
///
/// [`Ksa`] is a zero-sized namespace type; most callers use the free function
/// [`ksa`] or go straight to [`crate::Prga::new`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Ksa;

impl Ksa {
    /// Runs the KSA for `key` and returns the resulting state.
    ///
    /// The returned state has `i = j = 0`, ready for the PRGA.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] if `key` is empty or longer than 256 bytes.
    pub fn schedule(key: &[u8]) -> Result<State, KeyError> {
        if key.len() < MIN_KEY_LEN || key.len() > MAX_KEY_LEN {
            return Err(KeyError::new(key.len()));
        }
        let mut state = State::identity();
        let mut j: u8 = 0;
        for i in 0..PERM_SIZE {
            j = j.wrapping_add(state.s[i]).wrapping_add(key[i % key.len()]);
            state.s.swap(i, j as usize);
        }
        state.i = 0;
        state.j = 0;
        Ok(state)
    }
}

/// Convenience wrapper around [`Ksa::schedule`].
///
/// # Errors
///
/// Returns [`KeyError`] if `key` is empty or longer than 256 bytes.
pub fn ksa(key: &[u8]) -> Result<State, KeyError> {
    Ksa::schedule(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_produces_permutation() {
        let st = ksa(b"Key").unwrap();
        assert!(st.is_permutation());
        assert_eq!(st.i(), 0);
        assert_eq!(st.j(), 0);
    }

    #[test]
    fn different_keys_differ() {
        let a = ksa(b"Key").unwrap();
        let b = ksa(b"Kez").unwrap();
        assert_ne!(a.permutation(), b.permutation());
    }

    #[test]
    fn key_length_limits() {
        assert_eq!(Ksa::schedule(&[]).unwrap_err(), KeyError::new(0));
        assert_eq!(Ksa::schedule(&[0; 300]).unwrap_err(), KeyError::new(300));
        assert!(Ksa::schedule(&[7u8; 256]).is_ok());
        assert!(Ksa::schedule(&[7u8]).is_ok());
    }

    #[test]
    fn repeated_key_bytes_cycle() {
        // A key of [k] repeated 4 times behaves identically to a 1-byte key [k]
        // because the KSA indexes the key modulo its length.
        let a = ksa(&[0x42]).unwrap();
        let b = ksa(&[0x42, 0x42, 0x42, 0x42]).unwrap();
        assert_eq!(a.permutation(), b.permutation());
    }
}
