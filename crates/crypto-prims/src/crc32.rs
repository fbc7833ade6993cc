//! IEEE CRC-32 as used by the WEP/TKIP Integrity Check Value (ICV).
//!
//! The TKIP attack in Section 5 of the paper prunes plaintext candidates by
//! recomputing this CRC over the candidate payload + MIC and comparing it with
//! the candidate ICV, so a bit-exact implementation matters. The same CRC
//! guards every dataset shard in `rc4-store`, where it runs over tens of
//! megabytes per read.
//!
//! [`Crc32::update`] uses slicing-by-16: sixteen 256-entry tables (16 KiB,
//! built once) let one step fold a whole 16-byte block into the state with
//! sixteen independent lookups instead of sixteen dependent byte steps; the
//! tail shorter than a block goes bytewise through the first table. The
//! values are exactly those of the classic byte-at-a-time algorithm; the
//! unit tests check it against that loop.

/// Reflected polynomial for IEEE CRC-32 (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB88320;

/// Slicing-by-16 lookup tables, generated at first use. `tables()[0]` is the
/// classic bytewise table; `tables()[k][i]` is the CRC contribution of byte
/// `i` followed by `k` zero bytes.
fn tables() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Streaming CRC-32 computation.
///
/// # Examples
///
/// ```
/// use crypto_prims::crc32::Crc32;
///
/// let mut crc = Crc32::new();
/// crc.update(b"1234");
/// crc.update(b"56789");
/// assert_eq!(crc.finalize(), 0xCBF43926);
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a new CRC-32 computation (initial state all-ones).
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Absorbs `data`, 16 bytes per step (slicing-by-16) and the remainder
    /// bytewise.
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(16);
        for b in &mut blocks {
            let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finalizes and returns the CRC value.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// Computes the 4-byte little-endian ICV appended to TKIP/WEP plaintext.
///
/// 802.11 transmits the ICV least-significant byte first.
pub fn icv(data: &[u8]) -> [u8; 4] {
    crc32(data).to_le_bytes()
}

/// Verifies that `data` followed by `icv_bytes` forms a valid ICV-protected frame body.
pub fn verify_icv(data: &[u8], icv_bytes: &[u8; 4]) -> bool {
    icv(data) == *icv_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The classic byte-at-a-time loop: the reference slicing-by-16 must
    /// reproduce exactly.
    fn reference_update(state: u32, data: &[u8]) -> u32 {
        let t = &tables()[0];
        data.iter().fold(state, |crc, &b| {
            (crc >> 8) ^ t[((crc ^ b as u32) & 0xFF) as usize]
        })
    }

    proptest! {
        /// Any byte string fed in arbitrary pieces matches the bytewise
        /// reference; pieces that are not multiples of 16 bytes check that
        /// the state carries across calls between block and tail paths.
        #[test]
        fn sliced_update_matches_bytewise_reference(
            data in prop::collection::vec(any::<u8>(), 0..=300),
            splits in prop::collection::vec(0usize..=300, 0..8),
        ) {
            let mut cuts: Vec<usize> = splits.iter().map(|&s| s.min(data.len())).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                crc.update(&data[start..cut]);
                start = cut;
            }
            prop_assert_eq!(crc.state, reference_update(0xFFFF_FFFF, &data));
            prop_assert_eq!(crc.finalize(), crc32(&data));
        }
    }

    #[test]
    fn one_mebibyte_matches_bytewise_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        assert_eq!(crc32(&data), !reference_update(0xFFFF_FFFF, &data));
    }

    #[test]
    fn check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0x0000_0000);
    }

    #[test]
    fn known_values() {
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414FA339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6CAB0B);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), crc32(&data));
    }

    #[test]
    fn icv_roundtrip() {
        let body = b"some frame body with MIC appended";
        let tag = icv(body);
        assert!(verify_icv(body, &tag));
        let mut corrupted = *body;
        corrupted[0] ^= 0x01;
        assert!(!verify_icv(&corrupted, &tag));
    }

    #[test]
    fn single_bit_changes_crc() {
        let a = crc32(b"aaaaaaaa");
        let b = crc32(b"aaaaaaab");
        assert_ne!(a, b);
    }
}
