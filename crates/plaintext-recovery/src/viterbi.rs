//! Algorithm 2: ranked plaintext candidates from double-byte likelihoods.
//!
//! When the available biases are inherently *pairwise* (Fluhrer–McGrew
//! digraphs, ABSAB differentials), the per-position estimates are likelihoods
//! over consecutive plaintext byte pairs. The paper models the plaintext as a
//! first-order, time-inhomogeneous hidden Markov model whose transition weights
//! at step `r` are the pair likelihoods `λ_{r, µ1, µ2}`, and generates the `N`
//! most likely byte sequences with an N-best (list) Viterbi decode, assuming
//! the first and last byte of the covered span are known.
//!
//! The implementation keeps, for every possible ending value, the `N` best
//! partial sequences ending in that value, merging the per-value sorted lists
//! of the previous step with a cursor heap (the same trick as Algorithm 1).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rc4_exec::Executor;

use crate::{charset::Charset, likelihood::PairLikelihoods, RecoveryError};

/// A ranked candidate for the unknown plaintext span.
#[derive(Debug, Clone, PartialEq)]
pub struct PairCandidate {
    /// The recovered unknown bytes (excluding the known boundary bytes).
    pub plaintext: Vec<u8>,
    /// Total log-likelihood of the full path including the boundary transitions.
    pub log_likelihood: f64,
}

#[derive(Debug)]
struct MergeEntry {
    score: f64,
    source_idx: usize,
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.source_idx == other.source_idx
    }
}
impl Eq for MergeEntry {}
impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.source_idx.cmp(&other.source_idx))
    }
}

/// One ending value's merged column: its top-`n` scores (descending) and
/// their `(previous value index, previous rank)` backpointers.
type MergedColumn = (Vec<f64>, Vec<(u16, u32)>);

/// Configuration for the list-Viterbi decode.
#[derive(Debug, Clone)]
pub struct ViterbiConfig {
    /// Known plaintext byte immediately before the unknown span.
    pub first_known: u8,
    /// Known plaintext byte immediately after the unknown span.
    pub last_known: u8,
    /// Number of candidates to return.
    pub candidates: usize,
    /// Alphabet of the unknown bytes.
    pub charset: Charset,
}

/// Generates ranked candidates for an unknown plaintext span of `likelihoods.len() - 1`
/// bytes, flanked by known bytes, from per-transition pair likelihoods (Algorithm 2).
///
/// `likelihoods[t]` is the pair likelihood for the transition from sequence
/// position `t` to `t + 1`, where position 0 is the known byte before the span
/// and position `likelihoods.len()` is the known byte after the span. With `L`
/// unknown bytes there must therefore be exactly `L + 1` transition likelihoods.
///
/// # Errors
///
/// Returns [`RecoveryError::InvalidInput`] if fewer than two transitions are
/// provided (no unknown byte in between) or `candidates == 0`.
///
/// # Examples
///
/// ```
/// use plaintext_recovery::{charset::Charset, likelihood::PairLikelihoods,
///                           viterbi::{list_viterbi, ViterbiConfig}};
///
/// // One unknown byte between known bytes 0x10 and 0x20; transitions prefer 0x41.
/// let mut t0 = vec![0.0f64; 65536];
/// t0[(0x10usize << 8) | 0x41] = 4.0;
/// let mut t1 = vec![0.0f64; 65536];
/// t1[(0x41usize << 8) | 0x20] = 3.0;
/// let liks = vec![
///     PairLikelihoods::from_log_values(t0).unwrap(),
///     PairLikelihoods::from_log_values(t1).unwrap(),
/// ];
/// let config = ViterbiConfig {
///     first_known: 0x10,
///     last_known: 0x20,
///     candidates: 2,
///     charset: Charset::full(),
/// };
/// let out = list_viterbi(&liks, &config).unwrap();
/// assert_eq!(out[0].plaintext, vec![0x41]);
/// ```
pub fn list_viterbi(
    likelihoods: &[PairLikelihoods],
    config: &ViterbiConfig,
) -> Result<Vec<PairCandidate>, RecoveryError> {
    list_viterbi_with_exec(likelihoods, config, &Executor::serial())
}

/// [`list_viterbi`] on an explicit executor: the beam expansion of each
/// decode step — one cursor-heap merge per possible ending value, each
/// reading only the previous step's frontier — is fanned out across the
/// executor's workers. Ending values are independent and results are
/// collected in alphabet order, so the candidate list is identical for any
/// worker count.
///
/// # Errors
///
/// Everything [`list_viterbi`] returns, plus [`RecoveryError::Cancelled`]
/// when the executor's flag is raised.
pub fn list_viterbi_with_exec(
    likelihoods: &[PairLikelihoods],
    config: &ViterbiConfig,
    exec: &Executor<'_>,
) -> Result<Vec<PairCandidate>, RecoveryError> {
    if likelihoods.len() < 2 {
        return Err(RecoveryError::InvalidInput(
            "need at least two transitions (one unknown byte)".into(),
        ));
    }
    if config.candidates == 0 {
        return Err(RecoveryError::InvalidInput("candidates must be > 0".into()));
    }
    let alphabet = config.charset.values();
    let a = alphabet.len();
    let n = config.candidates;
    let unknown_len = likelihoods.len() - 1;

    // frontier[vi] = sorted (desc) scores of partial sequences ending in alphabet[vi].
    // back[step][vi][rank] = (prev value idx, prev rank) for reconstruction.
    let mut frontier: Vec<Vec<f64>> = Vec::with_capacity(a);
    let mut backs: Vec<Vec<Vec<(u16, u32)>>> = Vec::with_capacity(unknown_len);

    // First unknown byte: transition from the known first byte.
    let first = &likelihoods[0];
    let mut first_back = Vec::with_capacity(a);
    for &v in alphabet {
        frontier.push(vec![first.log_likelihood(config.first_known, v)]);
        first_back.push(vec![(u16::MAX, 0u32)]); // sentinel: predecessor is the known byte
    }
    backs.push(first_back);

    // Remaining unknown bytes: the per-ending-value merges of one step only
    // read the previous frontier, so each step's beam expansion fans out
    // across the executor (collected back in alphabet order).
    for lik in &likelihoods[1..unknown_len] {
        let merged: Vec<MergedColumn> = exec
            .map(alphabet.to_vec(), |_, v2| {
                Ok::<_, RecoveryError>(merge_best(
                    &frontier,
                    alphabet,
                    |v1| lik.log_likelihood(v1, v2),
                    n,
                ))
            })
            .map_err(RecoveryError::from)?;
        let mut new_frontier: Vec<Vec<f64>> = Vec::with_capacity(a);
        let mut new_back: Vec<Vec<(u16, u32)>> = Vec::with_capacity(a);
        for (scores, back) in merged {
            new_frontier.push(scores);
            new_back.push(back);
        }
        frontier = new_frontier;
        backs.push(new_back);
    }

    // Final transition into the known last byte.
    let last = &likelihoods[unknown_len];
    let (final_scores, final_back) = merge_best(
        &frontier,
        alphabet,
        |v1| last.log_likelihood(v1, config.last_known),
        n,
    );

    // Reconstruct candidates.
    let mut out = Vec::with_capacity(final_scores.len());
    for (rank, &score) in final_scores.iter().enumerate() {
        let mut bytes = vec![0u8; unknown_len];
        let (mut vi, mut r) = final_back[rank];
        for step in (0..unknown_len).rev() {
            bytes[step] = alphabet[vi as usize];
            let (pvi, pr) = backs[step][vi as usize][r as usize];
            if pvi == u16::MAX {
                break;
            }
            vi = pvi;
            r = pr;
        }
        out.push(PairCandidate {
            plaintext: bytes,
            log_likelihood: score,
        });
    }
    Ok(out)
}

/// Merges the per-value sorted score lists of the previous step with an added
/// transition weight `w(value)`, returning the top-`n` scores and their sources.
fn merge_best(
    frontier: &[Vec<f64>],
    alphabet: &[u8],
    weight: impl Fn(u8) -> f64,
    n: usize,
) -> (Vec<f64>, Vec<(u16, u32)>) {
    let mut cursor = vec![0usize; frontier.len()];
    let mut heap: BinaryHeap<MergeEntry> = BinaryHeap::with_capacity(frontier.len());
    let weights: Vec<f64> = alphabet.iter().map(|&v| weight(v)).collect();
    for (vi, scores) in frontier.iter().enumerate() {
        if !scores.is_empty() {
            heap.push(MergeEntry {
                score: scores[0] + weights[vi],
                source_idx: vi,
            });
        }
    }
    let total_available: usize = frontier.iter().map(|s| s.len()).sum();
    let capacity = n.min(total_available);
    let mut scores = Vec::with_capacity(capacity);
    let mut back = Vec::with_capacity(capacity);
    while scores.len() < capacity {
        let Some(entry) = heap.pop() else { break };
        let vi = entry.source_idx;
        let rank = cursor[vi];
        scores.push(entry.score);
        back.push((vi as u16, rank as u32));
        cursor[vi] += 1;
        if cursor[vi] < frontier[vi].len() {
            heap.push(MergeEntry {
                score: frontier[vi][cursor[vi]] + weights[vi],
                source_idx: vi,
            });
        }
    }
    (scores, back)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_lik(entries: &[(u8, u8, f64)], default: f64) -> PairLikelihoods {
        let mut log = vec![default; 65536];
        for &(a, b, s) in entries {
            log[(a as usize) << 8 | b as usize] = s;
        }
        PairLikelihoods::from_log_values(log).unwrap()
    }

    #[test]
    fn single_unknown_byte() {
        let liks = vec![
            pair_lik(&[(9, 100, 5.0), (9, 101, 4.0)], 0.0),
            pair_lik(&[(100, 7, 3.0), (101, 7, 3.5)], 0.0),
        ];
        let config = ViterbiConfig {
            first_known: 9,
            last_known: 7,
            candidates: 3,
            charset: Charset::full(),
        };
        let out = list_viterbi(&liks, &config).unwrap();
        // 100: 5.0 + 3.0 = 8.0; 101: 4.0 + 3.5 = 7.5.
        assert_eq!(out[0].plaintext, vec![100]);
        assert!((out[0].log_likelihood - 8.0).abs() < 1e-12);
        assert_eq!(out[1].plaintext, vec![101]);
        for w in out.windows(2) {
            assert!(w[0].log_likelihood >= w[1].log_likelihood);
        }
    }

    #[test]
    fn matches_brute_force_over_small_alphabet() {
        // Three unknown bytes over a 4-letter alphabet with arbitrary weights.
        let alphabet = Charset::new(&[1, 2, 3, 4]).unwrap();
        let m1 = 50u8;
        let ml = 60u8;
        // Deterministic pseudo-random weights with good mixing over (r, a, b).
        let weight = |r: usize, a: u8, b: u8| -> f64 {
            let mut x = ((r as u64) << 32) | ((a as u64) << 16) | b as u64;
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 29;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 32;
            ((x >> 16) % 100_000) as f64 / 1000.0
        };
        let mut liks = Vec::new();
        for r in 0..4 {
            let mut log = vec![f64::NEG_INFINITY; 65536];
            for a in 0..=255u8 {
                for &b in alphabet.values() {
                    log[(a as usize) << 8 | b as usize] = weight(r, a, b);
                }
                log[(a as usize) << 8 | ml as usize] = weight(r, a, ml);
            }
            liks.push(PairLikelihoods::from_log_values(log).unwrap());
        }
        let config = ViterbiConfig {
            first_known: m1,
            last_known: ml,
            candidates: 10,
            charset: alphabet.clone(),
        };
        let fast = list_viterbi(&liks, &config).unwrap();

        // Brute force all 64 sequences.
        let mut all: Vec<(f64, Vec<u8>)> = Vec::new();
        for &a in alphabet.values() {
            for &b in alphabet.values() {
                for &c in alphabet.values() {
                    let score =
                        weight(0, m1, a) + weight(1, a, b) + weight(2, b, c) + weight(3, c, ml);
                    all.push((score, vec![a, b, c]));
                }
            }
        }
        all.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap());
        assert_eq!(fast.len(), 10);
        for i in 0..10 {
            assert!(
                (fast[i].log_likelihood - all[i].0).abs() < 1e-9,
                "rank {i}: {} vs {}",
                fast[i].log_likelihood,
                all[i].0
            );
        }
        // The reported likelihood of each returned candidate must equal its true
        // path score (guards against backpointer reconstruction bugs even when
        // equal-scoring candidates are ordered differently than the brute force).
        for cand in &fast {
            let s = weight(0, m1, cand.plaintext[0])
                + weight(1, cand.plaintext[0], cand.plaintext[1])
                + weight(2, cand.plaintext[1], cand.plaintext[2])
                + weight(3, cand.plaintext[2], ml);
            assert!((s - cand.log_likelihood).abs() < 1e-9);
        }
        assert_eq!(fast[0].plaintext, all[0].1);
    }

    #[test]
    fn candidate_count_truncates_to_available() {
        let liks = vec![pair_lik(&[], 0.0), pair_lik(&[], 0.0)];
        let config = ViterbiConfig {
            first_known: 0,
            last_known: 0,
            candidates: 10_000,
            charset: Charset::new(&[5, 6]).unwrap(),
        };
        let out = list_viterbi(&liks, &config).unwrap();
        // Only two possible sequences of length 1.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn charset_prunes_unknown_bytes() {
        // The best transition goes through a byte outside the charset.
        let liks = vec![
            pair_lik(&[(0, 200, 100.0), (0, b'a', 1.0)], 0.0),
            pair_lik(&[(200, 0, 100.0), (b'a', 0, 1.0)], 0.0),
        ];
        let config = ViterbiConfig {
            first_known: 0,
            last_known: 0,
            candidates: 1,
            charset: Charset::new(b"abc").unwrap(),
        };
        let out = list_viterbi(&liks, &config).unwrap();
        assert_eq!(out[0].plaintext, vec![b'a']);
    }

    #[test]
    fn validation() {
        let one = vec![pair_lik(&[], 0.0)];
        let config = ViterbiConfig {
            first_known: 0,
            last_known: 0,
            candidates: 1,
            charset: Charset::full(),
        };
        assert!(list_viterbi(&one, &config).is_err());
        let two = vec![pair_lik(&[], 0.0), pair_lik(&[], 0.0)];
        let bad = ViterbiConfig {
            candidates: 0,
            ..config
        };
        assert!(list_viterbi(&two, &bad).is_err());
    }

    #[test]
    fn exec_decode_is_identical_for_any_worker_count() {
        use rc4_exec::Executor;
        // A 4-unknown-byte decode over a 16-letter alphabet with mixed
        // weights; the parallel beam expansion must reproduce the serial
        // candidate list exactly, scores and all.
        let alphabet = Charset::new(b"0123456789abcdef").unwrap();
        let mut liks = Vec::new();
        for r in 0..5u64 {
            let mut log = vec![0.0f64; 65536];
            for (i, slot) in log.iter_mut().enumerate() {
                let mut x = (r << 32) | i as u64;
                x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                *slot = ((x >> 40) % 1000) as f64 / 250.0;
            }
            liks.push(PairLikelihoods::from_log_values(log).unwrap());
        }
        let config = ViterbiConfig {
            first_known: b'=',
            last_known: b';',
            candidates: 64,
            charset: alphabet,
        };
        let reference = list_viterbi(&liks, &config).unwrap();
        for workers in [2usize, 4] {
            let got = list_viterbi_with_exec(&liks, &config, &Executor::new(workers)).unwrap();
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn cancelled_executor_aborts_decode() {
        use std::sync::atomic::AtomicBool;
        let cancel = AtomicBool::new(true);
        let exec = Executor::new(2).with_cancel(Some(&cancel));
        let liks = vec![pair_lik(&[], 0.0), pair_lik(&[], 0.0), pair_lik(&[], 0.0)];
        let config = ViterbiConfig {
            first_known: 0,
            last_known: 0,
            candidates: 4,
            charset: Charset::full(),
        };
        assert_eq!(
            list_viterbi_with_exec(&liks, &config, &exec).unwrap_err(),
            RecoveryError::Cancelled
        );
    }

    #[test]
    fn longer_spans_and_ranked_output() {
        // 6 unknown bytes spelling "cookie" must be the top candidate when each
        // transition strongly prefers the right pair.
        let secret = b"cookie";
        let m1 = b'=';
        let ml = b';';
        let full: Vec<u8> = std::iter::once(m1)
            .chain(secret.iter().copied())
            .chain(std::iter::once(ml))
            .collect();
        let mut liks = Vec::new();
        for w in full.windows(2) {
            liks.push(pair_lik(&[(w[0], w[1], 8.0)], 0.0));
        }
        let config = ViterbiConfig {
            first_known: m1,
            last_known: ml,
            candidates: 16,
            charset: Charset::cookie(),
        };
        let out = list_viterbi(&liks, &config).unwrap();
        assert_eq!(out[0].plaintext, secret.to_vec());
        for w in out.windows(2) {
            assert!(w[0].log_likelihood >= w[1].log_likelihood);
        }
    }
}
