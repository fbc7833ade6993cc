//! A dataset that counts only some cells must hold exactly the values the
//! full dataset holds in those cells. The bias experiments count only the
//! pairs and counter slices their reports read, and their byte-identical
//! output rests on this property.

use rc4_exec::Executor;
use rc4_stats::{
    generate_storable_with_exec,
    longterm::LongTermDataset,
    pairs::{PairDataset, PositionPair},
    GenerationConfig, StorableDataset,
};

/// Two logical streams, so a 2-thread executor splits the key space.
fn config() -> GenerationConfig {
    GenerationConfig::with_keys(301).workers(2).seed(0x5EED)
}

fn generated<D: StorableDataset>(mut ds: D, threads: usize) -> D {
    generate_storable_with_exec(&mut ds, &config(), &Executor::new(threads)).unwrap();
    ds
}

#[test]
fn pair_subset_equals_the_consecutive_tables_at_its_pairs() {
    let subset = [(3, 4), (9, 10), (16, 17), (32, 33)];
    for threads in [1, 2] {
        let full = generated(
            PairDataset::new((1..=40).map(|r| PositionPair { a: r, b: r + 1 }).collect()).unwrap(),
            threads,
        );
        let pairs = subset.map(|(a, b)| PositionPair { a, b }).to_vec();
        let part = generated(PairDataset::new(pairs).unwrap(), threads);
        assert_eq!(part.recorded_keystreams(), full.recorded_keystreams());
        for (idx, &(a, b)) in subset.iter().enumerate() {
            let in_full = full.pair_index(a, b).unwrap();
            assert_eq!(
                part.joint_counts(idx),
                full.joint_counts(in_full),
                "pair ({a}, {b}) on {threads} thread(s)"
            );
        }
    }
}

#[test]
fn longterm_selection_equals_the_full_tables_slices_aligned_table_and_totals() {
    // drop 300 puts the first body byte at counter 45; 1400 bytes per key
    // pass every counter five or six times and hold five aligned pairs.
    let (drop, block) = (300, 1400);
    for threads in [1, 2] {
        let full = generated(LongTermDataset::new(drop, block).unwrap(), threads);
        for selection in [&[][..], &[0, 1, 2, 7, 254, 255], &[45, 44, 200, 45]] {
            let part = generated(
                LongTermDataset::with_counters(drop, block, selection).unwrap(),
                threads,
            );
            let mut expected = selection.to_vec();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(part.counters(), expected);
            assert_eq!(part.recorded_keystreams(), full.recorded_keystreams());
            // The last two cells are the digraph and aligned-sample totals.
            assert_eq!(part.cell_slices()[2..], full.cell_slices()[2..]);
            assert_eq!(part.aligned_samples(), full.aligned_samples());
            assert!(part.aligned_samples() > 0);
            for x in 0..=255u8 {
                for y in 0..=255u8 {
                    assert_eq!(part.aligned_count(x, y), full.aligned_count(x, y));
                    for &i in &expected {
                        assert_eq!(
                            part.digraph_count(i, x, y),
                            full.digraph_count(i, x, y),
                            "counter {i} ({x},{y}) on {threads} thread(s)"
                        );
                    }
                }
            }
            for &i in &expected {
                assert!(part.digraph_samples(i) > 0);
                assert_eq!(part.digraph_samples(i), full.digraph_samples(i));
            }
        }
    }
}

#[test]
#[should_panic(expected = "PRGA counter 3 has no digraph slice")]
fn an_uncounted_counter_panics_and_names_it() {
    let ds = LongTermDataset::with_counters(0, 16, &[1, 2]).unwrap();
    ds.digraph_count(3, 0, 0);
}
