//! The sampled-mode trial models shared by the fixed-grid and streaming
//! recovery drivers.
//!
//! [`PairTrial`] is one simulated two-byte recovery (`fig7`, `fig7-stream`)
//! and [`CookieTrial`] one simulated cookie recovery (`fig10`,
//! `fig10-stream`). A trial draws its secret from the RNG when it is built,
//! then accumulates count tables over any number of [`PairTrial::ingest`]
//! calls and scores whatever it has accumulated. A fixed-grid trial at `n`
//! ciphertexts is one `ingest(n)` followed by one score; a streaming trial
//! re-scores after every batch. Both drivers therefore draw from the RNG in
//! the same order — the secret, then per ingest the FM table and the ABSAB
//! relations in order (transition by transition for cookies) — and sum the
//! log-likelihoods in the same order.

use rand::{rngs::StdRng, Rng};

use plaintext_recovery::{
    charset::Charset,
    likelihood::PairLikelihoods,
    viterbi::{list_viterbi, PairCandidate, ViterbiConfig},
};
use rc4_biases::{absab::alpha, fm, UNIFORM_PAIR};

use crate::{
    sampling::{sample_counts_normal, sample_standard_normal},
    ExperimentError,
};

/// Cells of a keystream or plaintext byte-pair table.
const PAIR_CELLS: usize = 65536;

/// The biased Fluhrer–McGrew cells at `position` in the sparse scorer's
/// `(k1, k2, probability)` form.
pub(crate) fn fm_cells(position: u64) -> Vec<(u8, u8, f64)> {
    fm::fm_biases_at(position)
        .into_iter()
        .map(|b| (b.first, b.second, b.probability))
        .collect()
}

/// The ciphertext-pair distribution: the keystream-pair distribution XORed
/// with the plaintext pair `truth`.
fn ciphertext_pair_table(key_pair_probs: &[f64], truth: (u8, u8)) -> Vec<f64> {
    let mut ct_probs = vec![0.0f64; PAIR_CELLS];
    for k1 in 0..256usize {
        for k2 in 0..256usize {
            let c1 = k1 ^ truth.0 as usize;
            let c2 = k2 ^ truth.1 as usize;
            ct_probs[(c1 << 8) | c2] = key_pair_probs[(k1 << 8) | k2];
        }
    }
    ct_probs
}

/// Adds a batch of counts into a running table, cell by cell, and returns
/// the batch's total.
fn absorb(table: &mut [u64], batch: &[u64]) -> u64 {
    let mut total = 0;
    for (cell, &add) in table.iter_mut().zip(batch) {
        *cell += add;
        total += add;
    }
    total
}

/// The FM part of a trial: the ciphertext-pair distribution to draw from,
/// the biased cells to score with, and the accumulated counts with their
/// total.
struct FmStream<'a> {
    ct_probs: Vec<f64>,
    cells: &'a [(u8, u8, f64)],
    counts: Vec<u64>,
    total: u64,
}

/// One ABSAB relation of a [`PairTrial`]: the keystream differential is zero
/// with probability `alpha`, so the ciphertext differential equals the
/// plaintext differential `hot` that often and is uniform otherwise.
struct Relation {
    known: (usize, usize),
    alpha: f64,
    hot: usize,
    ln_alpha: f64,
    ln_rest: f64,
    counts: Vec<u64>,
    total: u64,
}

/// One simulated recovery of a plaintext pair from FM pair counts and/or
/// ABSAB differential counts (Sect. 4.3).
pub(crate) struct PairTrial<'a> {
    truth: (u8, u8),
    fm: Option<FmStream<'a>>,
    relations: Vec<Relation>,
    probs: Vec<f64>,
}

impl<'a> PairTrial<'a> {
    /// Draws the unknown pair and sets up the tables: the FM part (scored on
    /// `fm_cells`) when `key_pair_probs` gives the keystream-pair
    /// distribution, and one ABSAB relation per entry of `gaps`.
    pub(crate) fn new(
        key_pair_probs: Option<&[f64]>,
        fm_cells: &'a [(u8, u8, f64)],
        gaps: impl IntoIterator<Item = usize>,
        rng: &mut StdRng,
    ) -> Self {
        let truth: (u8, u8) = (rng.gen(), rng.gen());
        let fm = key_pair_probs.map(|key_pair_probs| FmStream {
            ct_probs: ciphertext_pair_table(key_pair_probs, truth),
            cells: fm_cells,
            counts: vec![0; PAIR_CELLS],
            total: 0,
        });
        let mut relations = Vec::new();
        for gap in gaps {
            // Known plaintext pair for this relation (arbitrary but known).
            let known = ((gap as u8).wrapping_mul(17), (gap as u8).wrapping_add(91));
            let a = alpha(gap);
            relations.push(Relation {
                known: (known.0 as usize, known.1 as usize),
                alpha: a,
                hot: ((truth.0 ^ known.0) as usize) << 8 | (truth.1 ^ known.1) as usize,
                ln_alpha: a.ln(),
                ln_rest: ((1.0 - a) / 65535.0).ln(),
                counts: vec![0; PAIR_CELLS],
                total: 0,
            });
        }
        Self {
            truth,
            fm,
            relations,
            probs: vec![0.0; PAIR_CELLS],
        }
    }

    /// The plaintext pair the trial tries to recover.
    pub(crate) fn truth(&self) -> (u8, u8) {
        self.truth
    }

    /// Draws the counts of `n` more ciphertexts into every table: the FM
    /// pair counts first, then each relation's differential counts.
    pub(crate) fn ingest(&mut self, n: u64, rng: &mut StdRng) {
        if let Some(fm) = &mut self.fm {
            fm.total += absorb(&mut fm.counts, &sample_counts_normal(&fm.ct_probs, n, rng));
        }
        for rel in &mut self.relations {
            // Differential distribution: the true differential with
            // probability alpha, everything else uniform.
            self.probs.fill((1.0 - rel.alpha) / 65535.0);
            self.probs[rel.hot] = rel.alpha;
            rel.total += absorb(&mut rel.counts, &sample_counts_normal(&self.probs, n, rng));
        }
    }

    /// Scores the accumulated tables: the sparse FM likelihood plus, per
    /// relation, `(|C| - N[µ̂]) ln u + N[µ̂] ln α` for every candidate
    /// (Eq. 22, over the relation's accumulated differential counts). The
    /// log likelihoods are linear in the counts, so this is exactly the score
    /// of every ciphertext ingested so far.
    pub(crate) fn score(&self) -> Result<PairLikelihoods, ExperimentError> {
        let mut log = match &self.fm {
            Some(fm) => {
                PairLikelihoods::from_counts_sparse(&fm.counts, fm.cells, UNIFORM_PAIR, fm.total)?
                    .as_slice()
                    .to_vec()
            }
            None => vec![0.0; PAIR_CELLS],
        };
        for rel in &self.relations {
            let total = rel.total as f64;
            for (mu1, row) in log.chunks_mut(256).enumerate() {
                let d0 = mu1 ^ rel.known.0;
                let counts_row = &rel.counts[(d0 << 8)..(d0 << 8) + 256];
                for (mu2, slot) in row.iter_mut().enumerate() {
                    let hits = counts_row[mu2 ^ rel.known.1] as f64;
                    *slot += (total - hits) * rel.ln_rest + hits * rel.ln_alpha;
                }
            }
        }
        Ok(PairLikelihoods::from_log_values(log)?)
    }
}

/// One ABSAB relation of a cookie transition, kept as the weighted
/// differential votes it casts (Sect. 6).
struct VoteRelation {
    known: (u8, u8),
    weight: f64,
    hot: usize,
    alpha: f64,
}

/// One cookie transition: the ciphertext-pair distribution, its FM cells,
/// counts and their total, the accumulated ABSAB votes and the relations
/// casting them.
struct Transition {
    ct_probs: Vec<f64>,
    cells: Vec<(u8, u8, f64)>,
    counts: Vec<u64>,
    total: u64,
    votes: Vec<f64>,
    relations: Vec<VoteRelation>,
}

/// The shape of a simulated cookie recovery.
pub(crate) struct CookieShape<'a> {
    /// Cookie length in bytes.
    pub(crate) cookie_len: usize,
    /// Cookie alphabet.
    pub(crate) charset: &'a Charset,
    /// Candidate-list budget of the decoder.
    pub(crate) candidates: usize,
    /// ABSAB relations contributing per transition.
    pub(crate) absab_relations: usize,
    /// Keystream position (1-based) of the first cookie byte.
    pub(crate) cookie_position: u64,
}

/// One simulated recovery of a cookie flanked by known bytes: FM pair counts
/// and ABSAB votes per transition, decoded by list-Viterbi.
pub(crate) struct CookieTrial {
    cookie: Vec<u8>,
    transitions: Vec<Transition>,
    viterbi: ViterbiConfig,
    batch_votes: Vec<f64>,
}

impl CookieTrial {
    /// Draws a random cookie over the alphabet and sets up one transition
    /// per adjacent byte pair of `=` cookie `;`, with the keystream-pair
    /// distribution `transition_probs[t]`.
    pub(crate) fn new(
        shape: &CookieShape<'_>,
        transition_probs: &[Vec<f64>],
        rng: &mut StdRng,
    ) -> Self {
        let alphabet = shape.charset.values();
        let cookie: Vec<u8> = (0..shape.cookie_len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect();
        let before = b'=';
        let after = b';';
        let full: Vec<u8> = std::iter::once(before)
            .chain(cookie.iter().copied())
            .chain(std::iter::once(after))
            .collect();
        let mut transitions = Vec::with_capacity(shape.cookie_len + 1);
        for t in 0..=shape.cookie_len {
            let truth = (full[t], full[t + 1]);
            let relations = (0..shape.absab_relations)
                .map(|rel| {
                    let a = alpha(rel % 128);
                    let known = ((rel as u8).wrapping_mul(31), (rel as u8).wrapping_add(7));
                    VoteRelation {
                        known,
                        weight: a.ln() - ((1.0 - a) / 65535.0).ln(),
                        hot: ((truth.0 ^ known.0) as usize) << 8 | (truth.1 ^ known.1) as usize,
                        alpha: a,
                    }
                })
                .collect();
            transitions.push(Transition {
                ct_probs: ciphertext_pair_table(&transition_probs[t], truth),
                cells: fm_cells(shape.cookie_position + t as u64),
                counts: vec![0; PAIR_CELLS],
                total: 0,
                votes: vec![0.0; PAIR_CELLS],
                relations,
            });
        }
        Self {
            cookie,
            transitions,
            viterbi: ViterbiConfig {
                first_known: before,
                last_known: after,
                candidates: shape.candidates,
                charset: shape.charset.clone(),
            },
            batch_votes: vec![0.0; PAIR_CELLS],
        }
    }

    /// The cookie the trial tries to recover.
    pub(crate) fn cookie(&self) -> &[u8] {
        &self.cookie
    }

    /// Draws `n` more requests into every transition: its FM pair counts,
    /// then its relations' weighted differential votes.
    pub(crate) fn ingest(&mut self, n: u64, rng: &mut StdRng) {
        let n_f = n as f64;
        for tr in &mut self.transitions {
            tr.total += absorb(&mut tr.counts, &sample_counts_normal(&tr.ct_probs, n, rng));
            // Every differential count is approximately normal and only the
            // true differential has an elevated mean; each relation's
            // weighted counts land on the candidate pair the differential
            // corresponds to. Votes are linear in the counts, so the running
            // table equals the votes of every request seen so far.
            self.batch_votes.fill(0.0);
            for rel in &tr.relations {
                let u = (1.0 - rel.alpha) / 65535.0;
                let mean_other = n_f * u;
                let sd_other = (n_f * u * (1.0 - u)).sqrt();
                let mean_true = n_f * rel.alpha;
                let sd_true = (n_f * rel.alpha * (1.0 - rel.alpha)).sqrt();
                for d0 in 0..256usize {
                    for d1 in 0..256usize {
                        let idx = (d0 << 8) | d1;
                        let (mean, sd) = if idx == rel.hot {
                            (mean_true, sd_true)
                        } else {
                            (mean_other, sd_other)
                        };
                        let draw = mean + sd * sample_standard_normal(rng);
                        let mu = ((d0 ^ rel.known.0 as usize) << 8) | (d1 ^ rel.known.1 as usize);
                        self.batch_votes[mu] += rel.weight * draw.max(0.0);
                    }
                }
            }
            for (vote, &add) in tr.votes.iter_mut().zip(&self.batch_votes) {
                *vote += add;
            }
        }
    }

    /// Ranks cookie candidates from the accumulated tables: the combined FM
    /// and ABSAB likelihood per transition, decoded by list-Viterbi.
    pub(crate) fn candidates(&self) -> Result<Vec<PairCandidate>, ExperimentError> {
        let mut likelihoods = Vec::with_capacity(self.transitions.len());
        for tr in &self.transitions {
            let mut combined =
                PairLikelihoods::from_counts_sparse(&tr.counts, &tr.cells, UNIFORM_PAIR, tr.total)?;
            combined.add_log_values(&tr.votes)?;
            likelihoods.push(combined);
        }
        Ok(list_viterbi(&likelihoods, &self.viterbi)?)
    }
}
