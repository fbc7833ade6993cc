//! Property-based tests for the statistics datasets.

use proptest::prelude::*;
use rc4_stats::{
    pairs::{PairDataset, PositionPair},
    single::SingleByteDataset,
    StorableDataset,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recording keystreams preserves totals: every position's counts sum to the
    /// number of keystreams, and merging two datasets adds their counts.
    #[test]
    fn single_byte_totals_and_merge(keystreams in prop::collection::vec(prop::collection::vec(any::<u8>(), 8), 1..64),
                                    split in 0usize..64) {
        let split = split.min(keystreams.len());
        let mut whole = SingleByteDataset::new(8);
        for ks in &keystreams {
            whole.record_stream(0, ks);
        }
        let mut a = SingleByteDataset::new(8);
        let mut b = SingleByteDataset::new(8);
        for ks in &keystreams[..split] {
            a.record_stream(0, ks);
        }
        for ks in &keystreams[split..] {
            b.record_stream(0, ks);
        }
        a.merge_same_shape(b).unwrap();
        prop_assert_eq!(a.recorded_keystreams(), whole.recorded_keystreams());
        for r in 1..=8 {
            prop_assert_eq!(a.counts_at(r), whole.counts_at(r));
            prop_assert_eq!(whole.counts_at(r).iter().sum::<u64>(), keystreams.len() as u64);
        }
    }

    /// Pair marginals are consistent with the joint counts.
    #[test]
    fn pair_marginals_consistent(keystreams in prop::collection::vec(prop::collection::vec(any::<u8>(), 2), 1..64)) {
        let mut ds = PairDataset::new(vec![PositionPair { a: 1, b: 2 }]).unwrap();
        for ks in &keystreams {
            ds.record_stream(0, ks);
        }
        let joint = ds.joint_counts(0);
        let first = ds.marginal_first(0);
        let second = ds.marginal_second(0);
        prop_assert_eq!(first.iter().sum::<u64>(), keystreams.len() as u64);
        prop_assert_eq!(second.iter().sum::<u64>(), keystreams.len() as u64);
        for x in 0..256usize {
            let row: u64 = (0..256).map(|y| joint[x * 256 + y]).sum();
            prop_assert_eq!(row, first[x]);
        }
    }
}
