//! The RC4 cipher interface built on top of the PRGA.

use crate::{error::KeyError, prga::Prga};

/// The RC4 stream cipher.
///
/// A thin wrapper around [`Prga`] exposing an encrypt/decrypt interface.
/// Because RC4 XORs a keystream, encryption and decryption are the same
/// operation; [`Rc4::apply_keystream`] does both.
///
/// # Examples
///
/// ```
/// use rc4::Rc4;
///
/// let mut enc = Rc4::new(b"Secret").unwrap();
/// let mut dec = Rc4::new(b"Secret").unwrap();
/// let mut msg = b"Attack at dawn".to_vec();
/// enc.apply_keystream(&mut msg);
/// dec.apply_keystream(&mut msg);
/// assert_eq!(msg, b"Attack at dawn");
/// ```
#[derive(Debug, Clone)]
pub struct Rc4 {
    prga: Prga,
}

impl Rc4 {
    /// Creates a cipher instance for `key`.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] if `key` is empty or longer than 256 bytes.
    pub fn new(key: &[u8]) -> Result<Self, KeyError> {
        Ok(Self {
            prga: Prga::new(key)?,
        })
    }

    /// XORs the keystream into `data` in place.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        self.prga.xor_into(data);
    }

    /// Encrypts `plaintext` into a new vector.
    pub fn encrypt(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.apply_keystream(&mut out);
        out
    }

    /// Decrypts `ciphertext` into a new vector.
    ///
    /// Identical to [`Rc4::encrypt`]; provided for readability at call sites.
    pub fn decrypt(&mut self, ciphertext: &[u8]) -> Vec<u8> {
        self.encrypt(ciphertext)
    }

    /// Returns the current keystream position (bytes consumed so far).
    pub fn position(&self) -> u64 {
        self.prga.position()
    }
}

/// RC4-drop\[n\]: RC4 that discards the first `n` keystream bytes.
///
/// Dropping the initial keystream was the standard mitigation recommendation
/// (Mironov suggests discarding the first `12 * 256` bytes) against the
/// short-term biases; the paper's long-term attacks still work against it,
/// which is why it is part of the substrate.
#[derive(Debug, Clone)]
pub struct Rc4Drop {
    inner: Rc4,
    dropped: usize,
}

impl Rc4Drop {
    /// Creates an RC4-drop\[n\] cipher.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] if `key` is empty or longer than 256 bytes.
    pub fn new(key: &[u8], drop_n: usize) -> Result<Self, KeyError> {
        let mut inner = Rc4::new(key)?;
        inner.prga.skip(drop_n);
        Ok(Self {
            inner,
            dropped: drop_n,
        })
    }

    /// Number of keystream bytes that were discarded at construction.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// XORs the (post-drop) keystream into `data` in place.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        self.inner.apply_keystream(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keystream;

    #[test]
    fn encrypt_then_decrypt_roundtrip() {
        let mut enc = Rc4::new(b"roundtrip").unwrap();
        let mut dec = Rc4::new(b"roundtrip").unwrap();
        let ct = enc.encrypt(b"hello world");
        assert_eq!(dec.decrypt(&ct), b"hello world");
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut whole = Rc4::new(b"stream").unwrap();
        let ct_whole = whole.encrypt(b"abcdefghij");

        let mut parts = Rc4::new(b"stream").unwrap();
        let mut ct_parts = parts.encrypt(b"abcde");
        ct_parts.extend(parts.encrypt(b"fghij"));
        assert_eq!(ct_whole, ct_parts);
    }

    #[test]
    fn drop_n_skips_keystream() {
        let full = keystream(b"dropkey", 300).unwrap();
        let mut dropped = Rc4Drop::new(b"dropkey", 100).unwrap();
        let mut data = vec![0u8; 200];
        dropped.apply_keystream(&mut data);
        assert_eq!(data, full[100..300]);
        assert_eq!(dropped.dropped(), 100);
    }

    #[test]
    fn position_advances_with_usage() {
        let mut c = Rc4::new(b"posn").unwrap();
        assert_eq!(c.position(), 0);
        let _ = c.encrypt(&[0u8; 37]);
        assert_eq!(c.position(), 37);
    }
}
