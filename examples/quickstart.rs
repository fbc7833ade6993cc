//! Quickstart: generate RC4 keystream statistics, detect the classic biases
//! with sound hypothesis tests, and recover a repeated plaintext byte.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use plaintext_recovery::{
    candidates::generate_candidates, charset::Charset, counts::SingleCounts,
    likelihood::SingleLikelihoods,
};
use rc4_attacks::{
    experiments::biases::{headline_detection, BiasScale},
    ExperimentContext,
};
use rc4_exec::Executor;
use rc4_stats::{generate_storable_with_exec, single::SingleByteDataset, GenerationConfig};
use stat_tests::chisq::chi_squared_uniform;

fn main() {
    println!("== 1. RC4 keystream basics ==");
    let ks = rc4::keystream(b"Key", 8).expect("valid key");
    println!("keystream(\"Key\")[..8] = {:02x?}", ks);

    println!("\n== 2. Empirical single-byte statistics (2^17 keys) ==");
    let mut dataset = SingleByteDataset::new(32);
    generate_storable_with_exec(
        &mut dataset,
        &GenerationConfig::with_keys(1 << 17).seed(1),
        &Executor::serial(),
    )
    .expect("generation succeeds");
    let z2 = dataset.probability(2, 0);
    println!(
        "Pr[Z2 = 0]  = {:.6}  (uniform would be {:.6}; Mantin-Shamir predicts ~{:.6})",
        z2,
        1.0 / 256.0,
        2.0 / 256.0
    );
    let test = chi_squared_uniform(dataset.counts_at(2)).expect("test runs");
    println!(
        "chi-squared uniformity test at position 2: statistic = {:.1}, p-value = {:.3e}",
        test.statistic, test.p_value
    );

    println!("\n== 3. Headline bias detection report ==");
    let scale = BiasScale {
        keys: 1 << 17,
        ..BiasScale::quick()
    };
    let report = headline_detection(&scale, &ExperimentContext::new()).expect("experiment runs");
    print!("{}", report.render());

    println!("== 4. Recovering a repeated plaintext byte from the Z2 bias ==");
    // Encrypt the same byte under many keys and use the empirical distribution
    // of Z2 to recover it from the ciphertext distribution alone.
    let secret = b'S';
    let mut counts = SingleCounts::new(vec![2]).expect("valid positions");
    let mut key = [0u8; 16];
    for i in 0u32..200_000 {
        key[..4].copy_from_slice(&i.to_le_bytes());
        key[4..8].copy_from_slice(&(i ^ 0xDEAD_BEEF).to_le_bytes());
        let ks = rc4::keystream(&key, 2).expect("valid key");
        counts.record(&[0, secret ^ ks[1]]);
    }
    let likelihood =
        SingleLikelihoods::from_counts(counts.counts_at(0), dataset.distribution(2).as_slice())
            .expect("well-formed inputs");
    let best =
        &generate_candidates(&[likelihood], 1, &Charset::full()).expect("candidates exist")[0];
    println!(
        "true byte = {:?}, recovered = {:?} ({} ciphertexts)",
        secret as char,
        best.plaintext[0] as char,
        counts.ciphertexts()
    );
    assert_eq!(best.plaintext[0], secret);
    println!("\nDone — see the other examples for the full WPA-TKIP and HTTPS attacks.");
}
