//! Algorithm 1: ranked plaintext candidates from single-byte likelihoods.
//!
//! Given per-position log-likelihoods over the 256 byte values, the algorithm
//! incrementally builds the `N` most likely plaintexts of length 1, 2, ...,
//! `L`. At each step, for every byte value µ it keeps a cursor into the sorted
//! candidate list of the previous length; a max-heap over the 256 cursors
//! yields the next-best extension in `O(log 256)` per emitted candidate, so the
//! whole run costs `O(L · N · log 256)` — efficient enough to walk millions of
//! candidates, which is what makes the CRC-pruning step of the TKIP attack
//! practical.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{charset::Charset, likelihood::SingleLikelihoods, RecoveryError};

/// A ranked plaintext candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The candidate plaintext bytes.
    pub plaintext: Vec<u8>,
    /// Its total log-likelihood.
    pub log_likelihood: f64,
}

/// Heap entry: the best unexplored extension for a particular byte value.
#[derive(Debug)]
struct HeapEntry {
    score: f64,
    value_idx: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.value_idx == other.value_idx
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.value_idx.cmp(&other.value_idx))
    }
}

/// Generates the `n` most likely plaintexts of length `likelihoods.len()`
/// from independent per-position single-byte likelihoods (Algorithm 1).
///
/// Candidates are returned in decreasing likelihood. The optional `charset`
/// restricts every byte to the given alphabet (used when the plaintext is
/// known to be e.g. a cookie value).
///
/// # Errors
///
/// Returns [`RecoveryError::InvalidInput`] if `likelihoods` is empty or
/// `n == 0`.
///
/// # Examples
///
/// ```
/// use plaintext_recovery::{candidates::generate_candidates, charset::Charset,
///                           likelihood::SingleLikelihoods};
///
/// // Two positions; byte 0x41 then 0x42 are most likely.
/// let mut a = vec![0.0f64; 256];
/// a[0x41] = 5.0;
/// a[0x40] = 4.0;
/// let mut b = vec![0.0f64; 256];
/// b[0x42] = 3.0;
/// let liks = vec![
///     SingleLikelihoods::from_log_values(a).unwrap(),
///     SingleLikelihoods::from_log_values(b).unwrap(),
/// ];
/// let cands = generate_candidates(&liks, 3, &Charset::full()).unwrap();
/// assert_eq!(cands[0].plaintext, vec![0x41, 0x42]);
/// assert_eq!(cands[1].plaintext, vec![0x40, 0x42]);
/// ```
pub fn generate_candidates(
    likelihoods: &[SingleLikelihoods],
    n: usize,
    charset: &Charset,
) -> Result<Vec<Candidate>, RecoveryError> {
    if likelihoods.is_empty() {
        return Err(RecoveryError::InvalidInput(
            "at least one position is required".into(),
        ));
    }
    if n == 0 {
        return Err(RecoveryError::InvalidInput("n must be > 0".into()));
    }
    let alphabet = charset.values();

    // Backpointers per position: (previous candidate rank, value index in alphabet).
    let mut steps: Vec<Vec<(u32, u16)>> = Vec::with_capacity(likelihoods.len());
    // Scores of the current frontier, sorted descending.
    let mut prev_scores: Vec<f64> = vec![0.0];

    for lik in likelihoods {
        // Per-alphabet-value cursor into the previous frontier.
        let mut cursor = vec![0usize; alphabet.len()];
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(alphabet.len());
        for (vi, &v) in alphabet.iter().enumerate() {
            heap.push(HeapEntry {
                score: prev_scores[0] + lik.log_likelihood(v),
                value_idx: vi,
            });
        }

        let capacity = n.min(prev_scores.len().saturating_mul(alphabet.len()).max(1));
        let mut new_scores = Vec::with_capacity(capacity);
        let mut new_back = Vec::with_capacity(capacity);
        while new_scores.len() < capacity {
            let Some(entry) = heap.pop() else { break };
            let vi = entry.value_idx;
            let rank = cursor[vi];
            new_scores.push(entry.score);
            new_back.push((rank as u32, vi as u16));
            cursor[vi] += 1;
            if cursor[vi] < prev_scores.len() {
                heap.push(HeapEntry {
                    score: prev_scores[cursor[vi]] + lik.log_likelihood(alphabet[vi]),
                    value_idx: vi,
                });
            }
        }
        steps.push(new_back);
        prev_scores = new_scores;
    }

    // Reconstruct the candidate strings by walking the backpointers. One
    // rank's walk is a serial pointer chase (`r -> steps[pos][r].0`), so the
    // walk is level-synchronous over blocks of ranks: a block of 64 ranks
    // advanced one position level at a time gives the core 64 independent
    // chase chains to overlap and touches each level's step table with
    // spatial locality instead of re-streaming it per rank.
    const BLOCK: usize = 64;
    let mut out: Vec<Candidate> = prev_scores
        .iter()
        .map(|&score| Candidate {
            plaintext: vec![0u8; likelihoods.len()],
            log_likelihood: score,
        })
        .collect();
    let mut cur = [0usize; BLOCK];
    for (block_start, block) in (0..out.len()).step_by(BLOCK).zip(out.chunks_mut(BLOCK)) {
        for (slot, c) in cur[..block.len()].iter_mut().enumerate() {
            *c = block_start + slot;
        }
        for (pos, step) in steps.iter().enumerate().rev() {
            for (cand, c) in block.iter_mut().zip(cur.iter_mut()) {
                let (prev_rank, vi) = step[*c];
                cand.plaintext[pos] = alphabet[vi as usize];
                *c = prev_rank as usize;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lik_from(pairs: &[(u8, f64)]) -> SingleLikelihoods {
        let mut log = vec![-10.0f64; 256];
        for &(v, s) in pairs {
            log[v as usize] = s;
        }
        SingleLikelihoods::from_log_values(log).unwrap()
    }

    #[test]
    fn candidates_are_sorted_and_exhaustive_for_small_cases() {
        let liks = vec![
            lik_from(&[(1, 3.0), (2, 2.0), (3, 1.0)]),
            lik_from(&[(10, 5.0), (20, 4.5)]),
        ];
        let cands =
            generate_candidates(&liks, 6, &Charset::new(&[1, 2, 3, 10, 20]).unwrap()).unwrap();
        assert_eq!(cands.len(), 6);
        // Scores must be non-increasing.
        for w in cands.windows(2) {
            assert!(w[0].log_likelihood >= w[1].log_likelihood);
        }
        assert_eq!(cands[0].plaintext, vec![1, 10]);
        assert_eq!(cands[1].plaintext, vec![1, 20]);
        assert_eq!(cands[2].plaintext, vec![2, 10]);
    }

    #[test]
    fn matches_brute_force_enumeration() {
        // Three positions over a 5-letter alphabet: compare against exhaustive search.
        let alphabet = Charset::new(&[7, 8, 9, 10, 11]).unwrap();
        let liks: Vec<SingleLikelihoods> = (0..3)
            .map(|p| {
                lik_from(&[
                    (7, 0.3 * p as f64 + 0.1),
                    (8, 1.3 - p as f64 * 0.5),
                    (9, 0.71),
                    (10, -0.2 + 0.05 * p as f64),
                    (11, 0.03),
                ])
            })
            .collect();
        let n = 20;
        let fast = generate_candidates(&liks, n, &alphabet).unwrap();

        // Brute force.
        let mut all: Vec<(f64, Vec<u8>)> = Vec::new();
        for &a in alphabet.values() {
            for &b in alphabet.values() {
                for &c in alphabet.values() {
                    let score = liks[0].log_likelihood(a)
                        + liks[1].log_likelihood(b)
                        + liks[2].log_likelihood(c);
                    all.push((score, vec![a, b, c]));
                }
            }
        }
        all.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap());
        for i in 0..n {
            assert!((fast[i].log_likelihood - all[i].0).abs() < 1e-9, "rank {i}");
        }
        // The top candidate must match exactly (later ones may tie-swap).
        assert_eq!(fast[0].plaintext, all[0].1);
    }

    #[test]
    fn truncates_when_fewer_candidates_exist() {
        let liks = vec![lik_from(&[(0, 1.0)])];
        let cands = generate_candidates(&liks, 1000, &Charset::new(&[0, 1, 2]).unwrap()).unwrap();
        assert_eq!(cands.len(), 3);
    }

    #[test]
    fn charset_restricts_candidates() {
        // The unrestricted best value (0xFF) is outside the charset.
        let liks = vec![lik_from(&[(0xFF, 100.0), (b'a', 1.0), (b'b', 0.5)])];
        let cands = generate_candidates(&liks, 2, &Charset::new(b"ab").unwrap()).unwrap();
        assert_eq!(cands[0].plaintext, vec![b'a']);
        assert_eq!(cands[1].plaintext, vec![b'b']);
    }

    #[test]
    fn validation() {
        assert!(generate_candidates(&[], 10, &Charset::full()).is_err());
        let liks = vec![lik_from(&[(0, 1.0)])];
        assert!(generate_candidates(&liks, 0, &Charset::full()).is_err());
    }

    #[test]
    fn large_candidate_count_is_feasible() {
        // 12 positions (like MIC + ICV), 2^14 candidates.
        let liks: Vec<SingleLikelihoods> = (0..12)
            .map(|p| lik_from(&[((p * 7 % 256) as u8, 2.0), ((p * 11 % 256) as u8, 1.5)]))
            .collect();
        let cands = generate_candidates(&liks, 1 << 14, &Charset::full()).unwrap();
        assert_eq!(cands.len(), 1 << 14);
        for w in cands.windows(2) {
            assert!(w[0].log_likelihood >= w[1].log_likelihood);
        }
    }
}
