//! Differential verification harness: every accelerated path in the
//! workspace is checked against an independent scalar reference.
//!
//! Two families of contracts are pinned here, at the workspace root so the
//! checks span crate boundaries:
//!
//! * **Keystream engines** — every [`rc4_accel::AutoBatch`] backend the host
//!   can run (avx512 / avx2 / portable) plus the lane-free
//!   [`rc4::batch::ScalarBatch`] must emit byte-identical keystreams to the
//!   single-key `rc4::keystream` cipher, across exhaustive small sweeps of
//!   key lengths, stream lengths, partial batches, and chunked fills, on
//!   structured keys that drive the KSA into degenerate swaps (all-equal,
//!   period-2/3, and a key that keeps the permutation the identity), and
//!   across proptest-randomized keys.
//! * **Recovery kernels** — the single / dense / sparse likelihood scorers
//!   must be *bit-identical* (`f64::to_bits`) to a naive textbook
//!   reimplementation written here from the paper's equations, and every
//!   candidate's score must be exactly the sum of its per-byte
//!   log-likelihoods. This is what licenses the blocked/SIMD scoring in
//!   `rc4_accel::score`: same per-slot accumulation order, same results,
//!   down to the last ulp. The two parallel recovery stages (the TLS cookie
//!   likelihoods and list-Viterbi decoding) must also be invariant across
//!   executor worker counts.

use plaintext_recovery::{
    candidates::generate_candidates,
    charset::Charset,
    likelihood::{PairLikelihoods, SingleLikelihoods},
};
use proptest::proptest;
use rc4::batch::{check_schedule, KeystreamBatch, ScalarBatch};
use rc4_accel::{AutoBatch, Engine};
use rc4_exec::Executor;

/// Deterministic pseudo-random byte soup for exhaustive sweeps (no RNG
/// dependency needed; any fixed permutation-ish stream works).
fn splat(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

/// Every batch engine the host supports, plus the scalar lane-loop batch.
fn all_backends() -> Vec<Box<dyn KeystreamBatch>> {
    let mut backends: Vec<Box<dyn KeystreamBatch>> = vec![Box::new(ScalarBatch::new(8))];
    for name in rc4_accel::available_engines() {
        let engine = Engine::parse(name).expect("available_engines yields known names");
        backends.push(Box::new(
            AutoBatch::with_engine(engine).expect("available engine constructs"),
        ));
    }
    backends
}

/// Reference keystreams via the scalar cipher, packed lane-major to match
/// the `KeystreamBatch::fill` layout.
fn reference_lane_major(keys: &[u8], key_len: usize, lanes: usize, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(lanes * len);
    for lane in 0..lanes {
        let key = &keys[lane * key_len..][..key_len];
        out.extend_from_slice(&rc4::keystream(key, len).expect("valid key"));
    }
    out
}

/// Exhaustive small sweep: every backend, several key lengths (including the
/// 1-byte minimum, the 16-byte bench shape, and the 256-byte maximum),
/// several stream lengths (including 0, 1, and lengths that straddle the
/// engines' internal staging chunks), full and partial batches.
#[test]
fn every_keystream_backend_matches_the_scalar_cipher_exhaustively() {
    for backend in &mut all_backends() {
        let lanes = backend.lanes();
        for key_len in [1usize, 3, 5, 16, 31, 256] {
            for batch in [lanes, 1, lanes / 2 + 1] {
                let batch = batch.clamp(1, lanes);
                let keys = splat((key_len * 1000 + batch) as u64, batch * key_len);
                backend.schedule(&keys, key_len).expect("valid schedule");
                assert_eq!(backend.scheduled(), batch, "{}", backend.name());
                for len in [0usize, 1, 2, 67, 68, 255, 256, 257, 1024] {
                    let mut got = vec![0u8; batch * len];
                    backend.schedule(&keys, key_len).expect("valid schedule");
                    backend.fill(&mut got, len);
                    let want = reference_lane_major(&keys, key_len, batch, len);
                    assert_eq!(
                        got,
                        want,
                        "engine {} diverged at key_len={key_len} batch={batch} len={len}",
                        backend.name()
                    );
                }
            }
        }
    }
}

/// Chunked fills continue the keystream exactly where the previous fill
/// stopped, for every backend — the streaming-ingest contract.
#[test]
fn every_keystream_backend_streams_across_chunked_fills() {
    for backend in &mut all_backends() {
        let lanes = backend.lanes();
        let key_len = 16;
        let keys = splat(7, lanes * key_len);
        backend.schedule(&keys, key_len).expect("valid schedule");
        let total = 613; // deliberately not a multiple of any staging chunk
        let mut streamed = vec![0u8; lanes * total];
        let mut filled = 0usize;
        for chunk in [1usize, 63, 64, 129, 256, 100] {
            let chunk = chunk.min(total - filled);
            let mut part = vec![0u8; lanes * chunk];
            backend.fill(&mut part, chunk);
            for lane in 0..lanes {
                streamed[lane * total + filled..][..chunk]
                    .copy_from_slice(&part[lane * chunk..][..chunk]);
            }
            filled += chunk;
        }
        assert_eq!(filled, total);
        let want = reference_lane_major(&keys, key_len, lanes, total);
        assert_eq!(streamed, want, "engine {} broke streaming", backend.name());
    }
}

/// The 256-byte key `K[0] = 0, K[i] = (1 - i) mod 256`: with the identity
/// permutation it makes `j == i` at every KSA step, so every swap is a no-op
/// and the scheduled state is still the identity.
fn identity_forcing_key() -> Vec<u8> {
    (0..256usize)
        .map(|i| {
            if i == 0 {
                0
            } else {
                1usize.wrapping_sub(i) as u8
            }
        })
        .collect()
}

/// Structured keys of `key_len` bytes: all-equal bytes, period-2 and
/// period-3 patterns, and (at 256 bytes) the identity-forcing key.
fn structured_keys(key_len: usize) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = [0x00u8, 0x01, 0x80, 0xff]
        .iter()
        .map(|&b| vec![b; key_len])
        .collect();
    let periods: [&[u8]; 4] = [
        &[0x00, 0x01],
        &[0xff, 0x00],
        &[0x00, 0x01, 0x02],
        &[0xfe, 0xff, 0x7f],
    ];
    for period in periods {
        keys.push(period.iter().copied().cycle().take(key_len).collect());
    }
    if key_len == 256 {
        keys.push(identity_forcing_key());
    }
    keys
}

/// Adversarial differential: on keys whose structure drives the KSA into
/// degenerate swaps, every backend stays bit-identical to the scalar `Prga`,
/// in partial batches and in one full batch of every lane.
#[test]
fn every_keystream_backend_matches_scalar_prga_on_structured_keys() {
    let identity: Vec<u8> = (0..=255u8).collect();
    let scheduled = rc4::Ksa::schedule(&identity_forcing_key()).unwrap();
    assert_eq!(&scheduled.permutation()[..], &identity[..]);

    let len = 1031; // past four PRGA counter wraps, not a staging-chunk multiple
    for backend in &mut all_backends() {
        let lanes = backend.lanes();
        for key_len in [1usize, 5, 16, 256] {
            let keys = structured_keys(key_len);
            let full: Vec<Vec<u8>> = keys.iter().cycle().take(lanes).cloned().collect();
            for batch in keys.chunks(lanes).chain([&full[..]]) {
                backend
                    .schedule(&batch.concat(), key_len)
                    .expect("valid schedule");
                let mut got = vec![0u8; batch.len() * len];
                backend.fill(&mut got, len);
                for (lane, key) in batch.iter().enumerate() {
                    let want = rc4::Prga::new(key).expect("valid key").take_vec(len);
                    assert!(
                        got[lane * len..][..len] == want[..],
                        "engine {} diverged on structured key {key:02x?}",
                        backend.name()
                    );
                }
            }
        }
    }
}

proptest! {
    /// Randomized differential: arbitrary keys and stream lengths agree with
    /// the scalar cipher on every available backend.
    #[test]
    fn keystream_backends_match_scalar_on_random_keys(
        seed in proptest::any::<u64>(),
        key_len in 1usize..64,
        len in 0usize..700,
    ) {
        for backend in &mut all_backends() {
            let lanes = backend.lanes();
            let keys = splat(seed, lanes * key_len);
            backend.schedule(&keys, key_len).expect("valid schedule");
            let mut got = vec![0u8; lanes * len];
            backend.fill(&mut got, len);
            let want = reference_lane_major(&keys, key_len, lanes, len);
            assert_eq!(got, want, "engine {} diverged", backend.name());
        }
    }
}

/// Invalid key lengths are rejected identically by the shared validator and
/// every backend.
#[test]
fn every_keystream_backend_rejects_invalid_key_lengths() {
    for backend in &mut all_backends() {
        let lanes = backend.lanes();
        for key_len in [0usize, 257] {
            assert!(check_schedule(&vec![0u8; lanes * key_len.max(1)], key_len, lanes).is_err());
            assert!(
                backend
                    .schedule(&vec![0u8; lanes * key_len.max(1)], key_len)
                    .is_err(),
                "engine {} accepted key_len={key_len}",
                backend.name()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery kernels vs naive textbook references.
// ---------------------------------------------------------------------------

/// Textbook Eq. 11/12: `log[mu] = Σ_c N[c] · ln p[c ^ mu]`, `c` ascending,
/// zero counts skipped — the historical scalar loop, written independently.
fn naive_single(counts: &[u64], probs: &[f64]) -> Vec<f64> {
    let ln_p: Vec<f64> = probs.iter().map(|&p| p.max(1e-300).ln()).collect();
    let mut log = vec![0.0f64; 256];
    for (mu, slot) in log.iter_mut().enumerate() {
        for (c, &n) in counts.iter().enumerate() {
            if n > 0 {
                *slot += ln_p[c ^ mu] * n as f64;
            }
        }
    }
    log
}

/// Textbook Eq. 13: `log[mu1,mu2] = Σ N[c1,c2] · ln p[c1^mu1, c2^mu2]`,
/// non-zero cells in ascending index order.
fn naive_dense(counts: &[u64], probs: &[f64]) -> Vec<f64> {
    let ln_p: Vec<f64> = probs.iter().map(|&p| p.max(1e-300).ln()).collect();
    let mut log = vec![0.0f64; 65536];
    for (idx, slot) in log.iter_mut().enumerate() {
        let (mu1, mu2) = (idx >> 8, idx & 0xff);
        for (cidx, &n) in counts.iter().enumerate() {
            if n > 0 {
                let (c1, c2) = (cidx >> 8, cidx & 0xff);
                *slot += ln_p[(c1 ^ mu1) << 8 | (c2 ^ mu2)] * n as f64;
            }
        }
    }
    log
}

/// Textbook Eq. 15: `log[mu1,mu2] = N·ln u + Σ_cells N[k1^mu1, k2^mu2] ·
/// (ln p - ln u)`, cells in list order, zero counts *not* skipped.
fn naive_sparse(counts: &[u64], cells: &[(u8, u8, f64)], uniform: f64, total: u64) -> Vec<f64> {
    let ln_u = uniform.ln();
    let mut log = vec![total as f64 * ln_u; 65536];
    for (idx, slot) in log.iter_mut().enumerate() {
        let (mu1, mu2) = (idx >> 8, idx & 0xff);
        for &(k1, k2, p) in cells {
            let n = counts[(k1 as usize ^ mu1) << 8 | (k2 as usize ^ mu2)];
            *slot += (n as f64) * (p.ln() - ln_u);
        }
    }
    log
}

fn assert_bits_equal(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: slot {i} diverged ({g:e} vs {w:e})"
        );
    }
}

/// Single-byte likelihoods: the blocked/SIMD builder is bit-identical to the
/// naive reference.
#[test]
fn single_likelihoods_are_bit_identical_to_the_naive_reference() {
    let mut counts = [0u64; 256];
    for (i, c) in counts.iter_mut().enumerate() {
        // Mix of zeros (exercising the zero-skip) and growing magnitudes.
        *c = if i % 3 == 0 {
            0
        } else {
            (i as u64 * 977) % 40961
        };
    }
    let probs: Vec<f64> = (0..256)
        .map(|i| {
            if i % 5 == 0 {
                0.0
            } else {
                1.0 / 256.0 + (i as f64 - 128.0) * 1e-6
            }
        })
        .collect();
    let want = naive_single(&counts, &probs);
    let got = SingleLikelihoods::from_counts(&counts, &probs).unwrap();
    assert_bits_equal(got.as_slice(), &want, "single");
}

/// Dense pair likelihoods: bit-identical to the naive Eq. 13 reference.
#[test]
fn dense_pair_likelihoods_are_bit_identical_to_the_naive_reference() {
    let mut counts = vec![0u64; 65536];
    for k in 0..700usize {
        counts[(k * 8191) % 65536] = 1 + (k as u64 % 11);
    }
    let probs: Vec<f64> = (0..65536)
        .map(|i| 1.0 / 65536.0 + ((i % 257) as f64 - 128.0) * 1e-9)
        .collect();
    let want = naive_dense(&counts, &probs);
    let got = PairLikelihoods::from_counts_dense(&counts, &probs).unwrap();
    assert_bits_equal(got.as_slice(), &want, "dense");
}

/// Sparse pair likelihoods: bit-identical to the naive Eq. 15 reference on
/// a Fluhrer–McGrew-shaped cell list.
#[test]
fn sparse_pair_likelihoods_are_bit_identical_to_the_naive_reference() {
    let mut counts = vec![0u64; 65536];
    for (k, slot) in counts.iter_mut().enumerate() {
        *slot = ((k * 2654435761) >> 13) as u64 % 97;
    }
    let cells: &[(u8, u8, f64)] = &[
        (0, 0, 1.1 / 65536.0),
        (0, 1, 0.9 / 65536.0),
        (1, 255, 1.05 / 65536.0),
        (255, 255, 1.2 / 65536.0),
        (0x80, 0x7f, 0.95 / 65536.0),
    ];
    let total: u64 = counts.iter().sum();
    let want = naive_sparse(&counts, cells, 1.0 / 65536.0, total);
    let got = PairLikelihoods::from_counts_sparse(&counts, cells, 1.0 / 65536.0, total).unwrap();
    assert_bits_equal(got.as_slice(), &want, "sparse");
}

proptest! {
    /// Randomized differential for the scoring kernel feeding all three
    /// builders: random counts and probabilities stay bit-identical to the
    /// naive single-byte reference.
    #[test]
    fn random_single_likelihoods_stay_bit_identical(seed in proptest::any::<u64>()) {
        let bytes = splat(seed, 512);
        let counts: Vec<u64> = bytes[..256].iter().map(|&b| (b as u64).saturating_sub(64)).collect();
        let probs: Vec<f64> = bytes[256..].iter().map(|&b| b as f64 / 32640.0).collect();
        let want = naive_single(&counts, &probs);
        let got = SingleLikelihoods::from_counts(&counts, &probs).unwrap();
        assert_bits_equal(got.as_slice(), &want, "proptest single");
    }
}

/// Candidate generation (batched Algorithm 1 reconstruction): every
/// candidate's plaintext is scored exactly the sum of its per-byte
/// log-likelihoods, in non-increasing order, with no duplicates — on a
/// list long enough (150 ranks, 5 positions, 64-char alphabet) to exercise
/// multiple reconstruction blocks.
#[test]
fn candidate_scores_are_bit_identical_to_per_byte_sums() {
    let positions = 5usize;
    let liks: Vec<SingleLikelihoods> = (0..positions)
        .map(|pos| {
            let log: Vec<f64> = (0..256)
                .map(|v| (((v * 31 + pos * 17) % 101) as f64).mul_add(0.125, -6.0))
                .collect();
            SingleLikelihoods::from_log_values(log).unwrap()
        })
        .collect();
    let charset = Charset::base64();
    let want = generate_candidates(&liks, 150, &charset).unwrap();
    assert_eq!(want.len(), 150);
    for cand in &want {
        let score: f64 = cand
            .plaintext
            .iter()
            .enumerate()
            .map(|(pos, &b)| liks[pos].log_likelihood(b))
            .sum();
        assert_eq!(score.to_bits(), cand.log_likelihood.to_bits());
    }
    for pair in want.windows(2) {
        assert!(pair[0].log_likelihood >= pair[1].log_likelihood);
    }
    let distinct: std::collections::HashSet<&[u8]> =
        want.iter().map(|c| c.plaintext.as_slice()).collect();
    assert_eq!(distinct.len(), want.len());
}

/// TLS cookie likelihoods: the executor variant is bit-identical to the
/// serial one for every worker count and every bias-family combination.
#[test]
fn tls_cookie_likelihoods_are_bit_identical_across_worker_counts() {
    use tls_rc4::{
        attack::{CookieAttackConfig, CookieStatistics},
        http::RequestTemplate,
        traffic::{TrafficConfig, TrafficGenerator},
    };
    let cookie = b"deadbeef";
    let mut template = RequestTemplate::new("site.test", "auth", cookie.len());
    template.align_cookie(0, 17, tls_rc4::record::MAC_LEN);
    let mut traffic = TrafficGenerator::new(
        template.clone(),
        cookie.to_vec(),
        TrafficConfig {
            requests_per_connection: 1 << 12,
            ..TrafficConfig::default()
        },
    )
    .unwrap();
    let mut stats = CookieStatistics::new(&template, 16).unwrap();
    for cap in traffic.capture(200).unwrap() {
        stats.add(&cap).unwrap();
    }
    for (use_fm, use_absab) in [(true, true), (true, false), (false, true)] {
        let config = CookieAttackConfig {
            use_fm,
            use_absab,
            ..CookieAttackConfig::default()
        };
        let want = stats
            .likelihoods_with_exec(&config, &Executor::serial())
            .unwrap();
        for workers in [2usize, 4] {
            let exec = Executor::new(workers);
            let got = stats.likelihoods_with_exec(&config, &exec).unwrap();
            assert_eq!(got.len(), want.len());
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_bits_equal(
                    g.as_slice(),
                    w.as_slice(),
                    &format!("tls fm={use_fm} absab={use_absab} transition {t}"),
                );
            }
        }
    }
}
