//! The TKIP Michael message integrity code and its key inversion.
//!
//! Michael is the 64-bit MIC protecting TKIP MSDUs. It was designed to be
//! extremely cheap on legacy hardware, and as a consequence it is *invertible*:
//! given a plaintext MSDU and its MIC value, the 64-bit MIC key can be computed
//! directly by running the compression backwards (Tews & Beck). This inversion
//! is the payoff of the paper's Section-5 attack — after decrypting a single
//! packet the attacker owns the MIC key and can forge traffic.

/// The 64-bit Michael key as two little-endian 32-bit words `(l, r)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MichaelKey {
    /// Left half of the key.
    pub l: u32,
    /// Right half of the key.
    pub r: u32,
}

impl MichaelKey {
    /// Builds a key from its 8-byte wire representation (two little-endian words).
    pub fn from_bytes(bytes: &[u8; 8]) -> Self {
        Self {
            l: u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            r: u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        }
    }
}

/// Swaps the two byte pairs within each 16-bit half of `v` (the `XSWAP` operation).
#[inline]
fn xswap(v: u32) -> u32 {
    ((v & 0xFF00_FF00) >> 8) | ((v & 0x00FF_00FF) << 8)
}

/// One Michael block (compression) round.
#[inline]
fn block(mut l: u32, mut r: u32) -> (u32, u32) {
    r ^= l.rotate_left(17);
    l = l.wrapping_add(r);
    r ^= xswap(l);
    l = l.wrapping_add(r);
    r ^= l.rotate_left(3);
    l = l.wrapping_add(r);
    r ^= l.rotate_right(2);
    l = l.wrapping_add(r);
    (l, r)
}

/// Inverse of one Michael block round.
#[inline]
fn block_inverse(mut l: u32, mut r: u32) -> (u32, u32) {
    l = l.wrapping_sub(r);
    r ^= l.rotate_right(2);
    l = l.wrapping_sub(r);
    r ^= l.rotate_left(3);
    l = l.wrapping_sub(r);
    r ^= xswap(l);
    l = l.wrapping_sub(r);
    r ^= l.rotate_left(17);
    (l, r)
}

/// Splits `data` into the little-endian 32-bit words Michael processes,
/// appending the `0x5a` terminator, zero padding, and the final zero word.
fn message_words(data: &[u8]) -> Vec<u32> {
    let full_blocks = data.len() / 4;
    let left = data.len() % 4;
    let mut words = Vec::with_capacity(full_blocks + 2);
    for chunk in data[..full_blocks * 4].chunks_exact(4) {
        words.push(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
    }
    // Final partial block: remaining bytes, then 0x5a, then zero fill.
    let mut last = [0u8; 4];
    last[..left].copy_from_slice(&data[full_blocks * 4..]);
    last[left] = 0x5a;
    words.push(u32::from_le_bytes(last));
    // Michael always processes one extra all-zero word after the terminator.
    words.push(0);
    words
}

/// Computes the Michael MIC of `data` under `key`.
///
/// `data` is the MSDU authenticated by TKIP: the Michael header
/// (destination address, source address, priority, three zero bytes) followed
/// by the payload. Helpers to build that header live in the `wpa-tkip` crate;
/// this function is the raw primitive.
///
/// # Examples
///
/// ```
/// use crypto_prims::michael::{michael, MichaelKey};
///
/// let key = MichaelKey::from_bytes(&[0u8; 8]);
/// assert_eq!(michael(key, b""), [0x82, 0x92, 0x5c, 0x1c, 0xa1, 0xd1, 0x30, 0xb8]);
/// ```
pub fn michael(key: MichaelKey, data: &[u8]) -> [u8; 8] {
    let (mut l, mut r) = (key.l, key.r);
    for word in message_words(data) {
        l ^= word;
        let (nl, nr) = block(l, r);
        l = nl;
        r = nr;
    }
    let mut out = [0u8; 8];
    out[..4].copy_from_slice(&l.to_le_bytes());
    out[4..].copy_from_slice(&r.to_le_bytes());
    out
}

/// Verifies a Michael MIC.
pub fn verify(key: MichaelKey, data: &[u8], mic: &[u8; 8]) -> bool {
    michael(key, data) == *mic
}

/// Recovers the Michael key from a known plaintext `data` and its MIC value.
///
/// This is the Tews–Beck inversion: because every step of the Michael
/// compression is reversible, running the algorithm backwards from the MIC
/// through the (known) message words lands exactly on the key.
///
/// # Examples
///
/// ```
/// use crypto_prims::michael::{invert_key, michael, MichaelKey};
///
/// let key = MichaelKey { l: 0xdeadbeef, r: 0x01234567 };
/// let mic = michael(key, b"known plaintext MSDU");
/// assert_eq!(invert_key(b"known plaintext MSDU", &mic), key);
/// ```
pub fn invert_key(data: &[u8], mic: &[u8; 8]) -> MichaelKey {
    let mut l = u32::from_le_bytes([mic[0], mic[1], mic[2], mic[3]]);
    let mut r = u32::from_le_bytes([mic[4], mic[5], mic[6], mic[7]]);
    for word in message_words(data).into_iter().rev() {
        let (pl, pr) = block_inverse(l, r);
        l = pl ^ word;
        r = pr;
    }
    MichaelKey { l, r }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    /// IEEE 802.11i Michael test vectors: (key bytes, message, expected MIC).
    fn vectors() -> Vec<([u8; 8], &'static [u8], &'static str)> {
        vec![
            ([0, 0, 0, 0, 0, 0, 0, 0], b"", "82925c1ca1d130b8"),
            (
                [0x82, 0x92, 0x5c, 0x1c, 0xa1, 0xd1, 0x30, 0xb8],
                b"M",
                "434721ca40639b3f",
            ),
            (
                [0x43, 0x47, 0x21, 0xca, 0x40, 0x63, 0x9b, 0x3f],
                b"Mi",
                "e8f9becae97e5d29",
            ),
            (
                [0xe8, 0xf9, 0xbe, 0xca, 0xe9, 0x7e, 0x5d, 0x29],
                b"Mic",
                "90038fc6cf13c1db",
            ),
            (
                [0x90, 0x03, 0x8f, 0xc6, 0xcf, 0x13, 0xc1, 0xdb],
                b"Mich",
                "d55e100510128986",
            ),
            (
                [0xd5, 0x5e, 0x10, 0x05, 0x10, 0x12, 0x89, 0x86],
                b"Michael",
                "0a942b124ecaa546",
            ),
        ]
    }

    #[test]
    fn ieee_test_vectors() {
        for (key_bytes, msg, expected) in vectors() {
            let key = MichaelKey::from_bytes(&key_bytes);
            assert_eq!(to_hex(&michael(key, msg)), expected, "msg {msg:?}");
        }
    }

    #[test]
    fn verify_detects_corruption() {
        let key = MichaelKey::from_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mic = michael(key, b"payload under test");
        assert!(verify(key, b"payload under test", &mic));
        assert!(!verify(key, b"payload under tesT", &mic));
    }

    #[test]
    fn block_inverse_is_inverse() {
        let cases = [
            (0u32, 0u32),
            (1, 2),
            (0xdeadbeef, 0xcafebabe),
            (u32::MAX, 7),
        ];
        for (l, r) in cases {
            let (fl, fr) = block(l, r);
            assert_eq!(block_inverse(fl, fr), (l, r));
        }
    }

    #[test]
    fn key_inversion_recovers_key_for_all_vector_messages() {
        for (key_bytes, msg, _) in vectors() {
            let key = MichaelKey::from_bytes(&key_bytes);
            let mic = michael(key, msg);
            assert_eq!(invert_key(msg, &mic), key, "msg {msg:?}");
        }
    }

    #[test]
    fn key_inversion_on_realistic_msdu() {
        // Michael header (DA, SA, priority, padding) + a small LLC/IP-looking payload.
        let mut msdu = Vec::new();
        msdu.extend_from_slice(&[0x00, 0x11, 0x22, 0x33, 0x44, 0x55]);
        msdu.extend_from_slice(&[0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb]);
        msdu.extend_from_slice(&[0x00, 0x00, 0x00, 0x00]);
        msdu.extend_from_slice(&[0xaa, 0xaa, 0x03, 0x00, 0x00, 0x00, 0x08, 0x00]);
        msdu.extend_from_slice(&[0x45u8; 40]);

        let key = MichaelKey {
            l: 0x0102_0304,
            r: 0xa0b0_c0d0,
        };
        let mic = michael(key, &msdu);
        assert_eq!(invert_key(&msdu, &mic), key);
    }

    #[test]
    fn key_bytes_are_two_little_endian_words() {
        let key = MichaelKey {
            l: 0x01234567,
            r: 0x89abcdef,
        };
        let bytes = [0x67, 0x45, 0x23, 0x01, 0xef, 0xcd, 0xab, 0x89];
        assert_eq!(MichaelKey::from_bytes(&bytes), key);
    }
}
