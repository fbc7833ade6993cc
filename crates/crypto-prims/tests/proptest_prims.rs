//! Property-based tests for the cryptographic primitives.

use crypto_prims::{
    crc32::{crc32, icv, verify_icv, Crc32},
    hmac::{hmac_md5, hmac_sha1, hmac_sha256, Hmac},
    md5::Md5,
    michael::{invert_key, michael, verify, MichaelKey},
    sha1::Sha1,
    sha256::Sha256,
    Digest,
};
use proptest::prelude::*;

proptest! {
    /// Incremental hashing equals one-shot hashing for any split point.
    #[test]
    fn digests_are_split_invariant(data in prop::collection::vec(any::<u8>(), 0..1024),
                                   split in 0usize..1024) {
        let split = split.min(data.len());
        macro_rules! check {
            ($ty:ty) => {{
                let mut h = <$ty>::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                prop_assert_eq!(h.finalize(), <$ty>::digest(&data));
            }};
        }
        check!(Sha1);
        check!(Sha256);
        check!(Md5);
    }

    /// HMAC verification accepts the genuine tag and rejects a tag for different data.
    #[test]
    fn hmac_verify_roundtrip(key in prop::collection::vec(any::<u8>(), 0..128),
                             data in prop::collection::vec(any::<u8>(), 0..256),
                             flip in 0usize..256) {
        let tag = hmac_sha1(&key, &data);
        prop_assert_eq!(tag.len(), 20);
        prop_assert!(Hmac::<Sha1>::verify(&key, &data, &tag));
        if !data.is_empty() {
            let mut tampered = data.clone();
            let idx = flip % tampered.len();
            tampered[idx] ^= 0x01;
            prop_assert!(!Hmac::<Sha1>::verify(&key, &tampered, &tag));
        }
        // The three HMAC flavours have their documented output sizes.
        prop_assert_eq!(hmac_md5(&key, &data).len(), 16);
        prop_assert_eq!(hmac_sha256(&key, &data).len(), 32);
    }

    /// CRC-32 streaming equals one-shot, and the ICV check detects single-bit flips.
    #[test]
    fn crc_properties(data in prop::collection::vec(any::<u8>(), 1..512),
                      chunk in 1usize..64,
                      bit in 0usize..4096) {
        let reference = crc32(&data);
        let mut streaming = Crc32::new();
        for part in data.chunks(chunk) {
            streaming.update(part);
        }
        prop_assert_eq!(streaming.finalize(), reference);

        let tag = icv(&data);
        prop_assert!(verify_icv(&data, &tag));
        let mut flipped = data.clone();
        let byte = (bit / 8) % flipped.len();
        flipped[byte] ^= 1 << (bit % 8);
        prop_assert!(!verify_icv(&flipped, &tag));
    }

    /// Michael's key inversion recovers the key from any message and its MIC,
    /// and verification rejects modified messages.
    #[test]
    fn michael_inversion_and_verification(l in any::<u32>(), r in any::<u32>(),
                                          data in prop::collection::vec(any::<u8>(), 0..256),
                                          flip in 0usize..256) {
        let key = MichaelKey { l, r };
        let mic = michael(key, &data);
        prop_assert!(verify(key, &data, &mic));
        prop_assert_eq!(invert_key(&data, &mic), key);
        if !data.is_empty() {
            let mut tampered = data.clone();
            let idx = flip % tampered.len();
            tampered[idx] ^= 0x80;
            prop_assert!(!verify(key, &tampered, &mic));
        }
    }
}
