//! Plaintext alphabets used to prune candidate generation.
//!
//! RFC 6265 limits a cookie value to at most 90 distinct characters (printable
//! US-ASCII except control characters, whitespace, double quote, comma,
//! semicolon and backslash). Section 6.2 of the paper exploits this to tighten
//! the brute-force bound; in the algorithms the restriction simply replaces the
//! loops over 256 byte values with loops over the allowed alphabet.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::RecoveryError;

/// A plaintext alphabet: the set of byte values a plaintext byte may take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Charset {
    values: Vec<u8>,
    member: [bool; 256],
}

impl Charset {
    /// Builds a charset from an explicit list of allowed byte values.
    ///
    /// Duplicates are removed; order is preserved (first occurrence wins).
    ///
    /// # Errors
    ///
    /// Returns [`RecoveryError::InvalidConfig`] if the list is empty.
    pub fn new(values: &[u8]) -> Result<Self, RecoveryError> {
        if values.is_empty() {
            return Err(RecoveryError::InvalidConfig(
                "charset must not be empty".into(),
            ));
        }
        let mut member = [false; 256];
        let mut unique = Vec::new();
        for &v in values {
            if !member[v as usize] {
                member[v as usize] = true;
                unique.push(v);
            }
        }
        Ok(Self {
            values: unique,
            member,
        })
    }

    /// The full byte alphabet (0–255).
    pub fn full() -> Self {
        let values: Vec<u8> = (0..=255).collect();
        Self::new(&values).expect("full charset is non-empty")
    }

    /// The RFC 6265 cookie-value alphabet (90 characters).
    ///
    /// Allowed: `0x21`, `0x23`–`0x2B`, `0x2D`–`0x3A`, `0x3C`–`0x5B`,
    /// `0x5D`–`0x7E` — i.e. printable ASCII minus space, `"`, `,`, `;` and `\`.
    pub fn cookie() -> Self {
        let mut values = Vec::new();
        for v in 0x21u8..=0x7E {
            if matches!(v, b'"' | b',' | b';' | b'\\') {
                continue;
            }
            values.push(v);
        }
        Self::new(&values).expect("cookie charset is non-empty")
    }

    /// The standard base64 alphabet plus `=` padding (65 characters), a common
    /// shape for session cookies.
    pub fn base64() -> Self {
        let mut values: Vec<u8> = Vec::new();
        values.extend(b'A'..=b'Z');
        values.extend(b'a'..=b'z');
        values.extend(b'0'..=b'9');
        values.push(b'+');
        values.push(b'/');
        values.push(b'=');
        Self::new(&values).expect("base64 charset is non-empty")
    }

    /// The allowed byte values, in construction order.
    pub fn values(&self) -> &[u8] {
        &self.values
    }

    /// Number of allowed values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` only for the (invalid, unconstructible) empty set; present to
    /// satisfy the `len`/`is_empty` API convention.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, value: u8) -> bool {
        self.member[value as usize]
    }

    /// Returns `true` if every byte of `text` is in the alphabet.
    pub fn accepts(&self, text: &[u8]) -> bool {
        text.iter().all(|&b| self.contains(b))
    }
}

/// Serialized as the plain list of allowed byte values (the membership table
/// is derived data), so experiment configs embedding a charset stay readable.
impl Serialize for Charset {
    fn to_value(&self) -> Value {
        self.values.to_value()
    }
}

impl Deserialize for Charset {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let values = Vec::<u8>::from_value(v)?;
        Charset::new(&values).map_err(|e| DeError(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_roundtrip_preserves_order_and_membership() {
        let c = Charset::base64();
        let json = serde_json::to_string(&c).unwrap();
        let back: Charset = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        // An empty list must fail through the constructor's validation.
        assert!(serde_json::from_str::<Charset>("[]").is_err());
    }

    #[test]
    fn cookie_charset_has_90_values() {
        let c = Charset::cookie();
        assert_eq!(c.len(), 90);
        assert!(c.contains(b'a'));
        assert!(c.contains(b'!'));
        assert!(c.contains(b'='));
        assert!(!c.contains(b' '));
        assert!(!c.contains(b'"'));
        assert!(!c.contains(b','));
        assert!(!c.contains(b';'));
        assert!(!c.contains(b'\\'));
        assert!(!c.contains(0x00));
        assert!(!c.contains(0x7F));
    }

    #[test]
    fn base64_and_hex() {
        let b = Charset::base64();
        assert_eq!(b.len(), 65);
        assert!(b.accepts(b"SGVsbG8h+/="));
        assert!(!b.accepts(b"space here"));
        let h = Charset::new(b"0123456789abcdef").unwrap();
        assert_eq!(h.len(), 16);
        assert!(h.accepts(b"deadbeef0123"));
        assert!(!h.accepts(b"DEADBEEF"));
    }

    #[test]
    fn full_charset() {
        let f = Charset::full();
        assert_eq!(f.len(), 256);
        assert!(f.accepts(&[0, 128, 255]));
    }

    #[test]
    fn dedup_and_validation() {
        let c = Charset::new(&[1, 2, 2, 3, 1]).unwrap();
        assert_eq!(c.values(), &[1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(Charset::new(&[]).is_err());
    }
}
