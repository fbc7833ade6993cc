//! Integration test: the full bias-hunting pipeline across crates —
//! keystream generation (`rc4` + `rc4-stats`), hypothesis testing
//! (`stat-tests`) and the analytic catalogue (`rc4-biases`).

use rc4_biases::{fm::fm_biases_at, UNIFORM_PAIR, UNIFORM_SINGLE};
use rc4_exec::Executor;
use rc4_stats::{
    generate_storable_with_exec,
    longterm::LongTermDataset,
    pairs::{PairDataset, PositionPair},
    single::SingleByteDataset,
    GenerationConfig, StorableDataset,
};
use stat_tests::{
    chisq::chi_squared_uniform, holm::holm, mtest::m_test_independence, proportion::proportion_test,
};

/// The Mantin–Shamir bias must be detected end-to-end: generate keys with the
/// key-space walker, test position 2 for uniformity, and confirm the flagged value is 0.
#[test]
fn mantin_shamir_detected_end_to_end() {
    let mut ds = SingleByteDataset::new(4);
    generate_storable_with_exec(
        &mut ds,
        &GenerationConfig::with_keys(1 << 16).workers(2).seed(11),
        &Executor::serial(),
    )
    .unwrap();

    let uniform_test = chi_squared_uniform(ds.counts_at(2)).unwrap();
    assert!(uniform_test.rejects(), "p = {}", uniform_test.p_value);

    let z2_zero =
        proportion_test(ds.count(2, 0), ds.recorded_keystreams(), UNIFORM_SINGLE).unwrap();
    assert!(z2_zero.test.rejects());
    assert!(
        z2_zero.relative_bias > 0.5,
        "bias {}",
        z2_zero.relative_bias
    );

    // Position 1 is much closer to uniform: its strongest single-value deviation
    // is far weaker than the Z2 = 0 one.
    let z1_zero =
        proportion_test(ds.count(1, 0), ds.recorded_keystreams(), UNIFORM_SINGLE).unwrap();
    assert!(z1_zero.relative_bias.abs() < z2_zero.relative_bias);
}

/// Holm correction over all 256 values of position 2 must still single out value 0.
#[test]
fn holm_correction_flags_only_strong_values() {
    let mut ds = SingleByteDataset::new(2);
    generate_storable_with_exec(
        &mut ds,
        &GenerationConfig::with_keys(1 << 15).seed(7),
        &Executor::serial(),
    )
    .unwrap();
    let n = ds.recorded_keystreams();
    let p_values: Vec<f64> = (0..=255u8)
        .map(|v| {
            proportion_test(ds.count(2, v), n, UNIFORM_SINGLE)
                .unwrap()
                .test
                .p_value
        })
        .collect();
    let rejected: Vec<usize> = holm(&p_values, 1e-4)
        .iter()
        .filter(|o| o.rejected)
        .map(|o| o.index)
        .collect();
    assert!(
        rejected.contains(&0),
        "value 0 must be flagged: {rejected:?}"
    );
    assert!(rejected.len() <= 8, "too many values flagged: {rejected:?}");
}

/// The consecutive-pair dataset + M-test must flag position pairs that carry a
/// Fluhrer–McGrew bias, while the analytic catalogue predicts the right cells.
#[test]
fn fm_digraphs_consistent_between_catalogue_and_measurement() {
    let mut ds =
        PairDataset::new((1..=4).map(|r| PositionPair { a: r, b: r + 1 }).collect()).unwrap();
    generate_storable_with_exec(
        &mut ds,
        &GenerationConfig::with_keys(1 << 16).seed(3),
        &Executor::serial(),
    )
    .unwrap();

    // The catalogue says position 1 carries the strong (0,0) digraph.
    let biases = fm_biases_at(1);
    assert!(biases.iter().any(|b| b.first == 0 && b.second == 0));

    // Independence testing of the measured pair must at least produce a valid
    // result; at 2^16 keys the dependence itself may not reach significance,
    // so only the plumbing and the direction of the (0,0) cell are checked.
    let idx = ds.pair_index(1, 2).unwrap();
    let m = m_test_independence(ds.joint_counts(idx), 256, 256).unwrap();
    assert!(m.test.p_value >= 0.0 && m.test.p_value <= 1.0);
    let q = ds.relative_bias(idx, 0, 0);
    assert!(q.is_some());
}

/// Long-term dataset bookkeeping: digraph samples appear at every PRGA counter
/// value and aligned pairs are collected, with probabilities near 2^-16.
#[test]
fn longterm_dataset_counts_are_consistent() {
    let mut ds = LongTermDataset::new(255, 2048).unwrap();
    generate_storable_with_exec(
        &mut ds,
        &GenerationConfig::with_keys(64).seed(5),
        &Executor::serial(),
    )
    .unwrap();
    assert_eq!(ds.recorded_keystreams(), 64);
    let digraphs: u64 = (0..=255u8).map(|i| ds.digraph_samples(i)).sum();
    assert_eq!(digraphs, 64 * 2047);
    assert!(ds.aligned_samples() > 0);
    // Every PRGA counter value received samples.
    for i in [0u8, 1, 77, 255] {
        assert!(ds.digraph_samples(i) > 0, "counter {i} has no samples");
    }
    // A typical digraph probability is within an order of magnitude of 2^-16
    // (it cannot be exactly uniform at this scale, but must not be wildly off).
    let p = ds.digraph_probability(10, 1, 2);
    assert!(p < UNIFORM_PAIR * 20.0);
}
