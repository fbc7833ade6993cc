//! Long-term keystream statistics: digraph counts keyed by the PRGA counter `i`.
//!
//! Section 3.4 of the paper searches for biases that persist through the whole
//! keystream. Its dataset drops the initial 1023 bytes of every keystream and
//! then records, for each position modulo 256, the joint distribution of
//! consecutive bytes — enough to re-detect all Fluhrer–McGrew biases — plus the
//! `256`-aligned pairs `(Z_{256w}, Z_{256w+2})` where the Sen Gupta `(0,0)` and
//! the paper's new `(128,0)` biases live. The per-counter digraph tables are
//! 128 MiB in all; a dataset can select the counter values it keeps a table
//! for, and counts only those.

use crate::{
    dataset::DatasetError,
    storable::{bounded_keystream_len, StorableDataset},
    NUM_PAIRS, NUM_VALUES,
};

/// A counter-selection mask with every PRGA counter value selected.
const ALL_COUNTERS: [u64; 4] = [u64::MAX; 4];

/// Long-term digraph statistics.
///
/// For each *selected* PRGA counter value `i`, a 65,536-cell digraph slice
/// counts occurrences of the consecutive pair `(Z_r, Z_{r+1}) = (x, y)` at
/// positions where the PRGA counter before outputting `Z_r` satisfies
/// `i = r mod 256`. `aligned_counts[x * 256 + y]` counts the pairs
/// `(Z_{256w}, Z_{256w+2})`. The selection defaults to all 256 counters (the
/// paper's full 128 MiB table); a report that reads a few slices asks for
/// just those with [`LongTermDataset::with_counters`], and every slice it
/// holds, the aligned table and both totals equal the full table's.
///
/// The shape descriptor is `[drop, block_len]` for the full selection and
/// `[drop, block_len, m0, m1, m2, m3]` otherwise, where bit `i % 64` of
/// `m(i / 64)` selects counter `i`. A full mask is only ever written in the
/// two-parameter form, so shards of the full table keep their historical
/// bytes.
#[derive(Debug, Clone)]
pub struct LongTermDataset {
    /// Number of initial keystream bytes dropped per key (paper: 1023).
    drop: usize,
    /// Number of keystream bytes consumed per key after the drop.
    block_len: usize,
    /// The PRGA counter values with a digraph slice, ascending.
    counters: Vec<u8>,
    keystreams: u64,
    /// Total number of digraphs recorded (all `i` values together, selected
    /// or not).
    digraphs: u64,
    /// One `NUM_PAIRS` slice per entry of `counters`, in the same order.
    digraph_counts: Vec<u64>,
    aligned_counts: Vec<u64>,
    aligned_samples: u64,
}

impl LongTermDataset {
    /// Default number of dropped initial bytes, matching the paper (`w >= 4` ⇒ 1023 bytes).
    pub const DEFAULT_DROP: usize = 1023;

    /// Creates an empty long-term dataset with a digraph slice for every
    /// PRGA counter value.
    ///
    /// Every recorded keystream must provide `drop + block_len` bytes; the
    /// first `drop` are discarded, the remaining `block_len` contribute
    /// digraph statistics.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if `block_len < 2` or
    /// `drop + block_len` exceeds
    /// [`MAX_KEYSTREAM_LEN`](crate::storable::MAX_KEYSTREAM_LEN).
    pub fn new(drop: usize, block_len: usize) -> Result<Self, DatasetError> {
        Self::empty_with_shape(&[drop as u64, block_len as u64])
    }

    /// Creates an empty long-term dataset that keeps digraph slices only for
    /// the PRGA counter values in `counters` (order and repeats do not
    /// matter; an empty list keeps only the aligned table and the totals).
    ///
    /// # Errors
    ///
    /// As [`LongTermDataset::new`].
    pub fn with_counters(
        drop: usize,
        block_len: usize,
        counters: &[u8],
    ) -> Result<Self, DatasetError> {
        Self::empty_with_shape(&Self::descriptor(drop, block_len, counters))
    }

    /// The shape descriptor of a selection: the two-parameter form when
    /// `counters` covers all 256 values, the mask form otherwise.
    fn descriptor(drop: usize, block_len: usize, counters: &[u8]) -> Vec<u64> {
        let mut mask = [0u64; 4];
        for &i in counters {
            mask[i as usize / 64] |= 1 << (i % 64);
        }
        let mut shape = vec![drop as u64, block_len as u64];
        if mask != ALL_COUNTERS {
            shape.extend(mask);
        }
        shape
    }

    /// The shape check: parses `[drop, block_len]` or
    /// `[drop, block_len, m0, m1, m2, m3]` into the drop, the block length
    /// and the counter mask.
    fn check_shape(params: &[u64]) -> Result<(usize, usize, [u64; 4]), DatasetError> {
        let (drop, block_len, mask) = match *params {
            [drop, block_len] => (drop, block_len, ALL_COUNTERS),
            [_, _, m0, m1, m2, m3] if [m0, m1, m2, m3] == ALL_COUNTERS => {
                return Err(DatasetError::ShapeMismatch(
                    "a long-term selection of all 256 counters must use the \
                     2-parameter shape"
                        .into(),
                ))
            }
            [drop, block_len, m0, m1, m2, m3] => (drop, block_len, [m0, m1, m2, m3]),
            _ => {
                return Err(DatasetError::ShapeMismatch(format!(
                    "long-term shape needs 2 or 6 parameters, got {}",
                    params.len()
                )))
            }
        };
        if block_len < 2 {
            return Err(DatasetError::InvalidConfig(
                "block_len must be at least 2 to form a digraph".into(),
            ));
        }
        bounded_keystream_len(Self::kind(), drop.checked_add(block_len))?;
        Ok((drop as usize, block_len as usize, mask))
    }

    /// The PRGA counter values a mask selects, ascending.
    fn mask_counters(mask: [u64; 4]) -> Vec<u8> {
        (0..=255u8)
            .filter(|&i| mask[i as usize / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    /// The PRGA counter values with a digraph slice in a dataset of shape
    /// `params`, ascending, without allocating the dataset.
    ///
    /// # Errors
    ///
    /// The errors of [`StorableDataset::empty_with_shape`] for `params`.
    pub fn counters_for_shape(params: &[u64]) -> Result<Vec<u8>, DatasetError> {
        Self::check_shape(params).map(|(_, _, mask)| Self::mask_counters(mask))
    }

    /// Number of keystream bytes consumed per key after the drop.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// The PRGA counter values with a digraph slice, ascending.
    pub fn counters(&self) -> &[u8] {
        &self.counters
    }

    /// The digraph slice of PRGA counter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not one of [`LongTermDataset::counters`].
    fn digraph_slice(&self, i: u8) -> &[u64] {
        let Ok(slot) = self.counters.binary_search(&i) else {
            panic!("PRGA counter {i} has no digraph slice in this long-term dataset");
        };
        &self.digraph_counts[slot * NUM_PAIRS..(slot + 1) * NUM_PAIRS]
    }

    /// Raw count of digraph `(x, y)` at PRGA counter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not one of [`LongTermDataset::counters`].
    pub fn digraph_count(&self, i: u8, x: u8, y: u8) -> u64 {
        self.digraph_slice(i)[x as usize * NUM_VALUES + y as usize]
    }

    /// Number of digraph samples recorded at PRGA counter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not one of [`LongTermDataset::counters`].
    pub fn digraph_samples(&self, i: u8) -> u64 {
        self.digraph_slice(i).iter().sum()
    }

    /// Empirical probability of digraph `(x, y)` at PRGA counter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not one of [`LongTermDataset::counters`].
    pub fn digraph_probability(&self, i: u8, x: u8, y: u8) -> f64 {
        let n = self.digraph_samples(i);
        if n == 0 {
            return 0.0;
        }
        self.digraph_count(i, x, y) as f64 / n as f64
    }

    /// Raw count of the 256-aligned pair `(Z_{256w}, Z_{256w+2}) = (x, y)`.
    pub fn aligned_count(&self, x: u8, y: u8) -> u64 {
        self.aligned_counts[x as usize * NUM_VALUES + y as usize]
    }

    /// Number of 256-aligned pair samples recorded.
    pub fn aligned_samples(&self) -> u64 {
        self.aligned_samples
    }

    /// Empirical probability of the 256-aligned pair `(x, y)`.
    pub fn aligned_probability(&self, x: u8, y: u8) -> f64 {
        if self.aligned_samples == 0 {
            return 0.0;
        }
        self.aligned_count(x, y) as f64 / self.aligned_samples as f64
    }
}

impl StorableDataset for LongTermDataset {
    fn kind() -> &'static str {
        "longterm"
    }

    fn shape_params(&self) -> Vec<u64> {
        Self::descriptor(self.drop, self.block_len, &self.counters)
    }

    fn empty_with_shape(params: &[u64]) -> Result<Self, DatasetError> {
        let (drop, block_len, mask) = Self::check_shape(params)?;
        let counters = Self::mask_counters(mask);
        Ok(Self {
            drop,
            block_len,
            keystreams: 0,
            digraphs: 0,
            digraph_counts: vec![0u64; counters.len() * NUM_PAIRS],
            counters,
            aligned_counts: vec![0u64; NUM_PAIRS],
            aligned_samples: 0,
        })
    }

    /// The selected slices, the aligned table and the two totals; at most
    /// 2^24 + 2^16 + 2, far below [`MAX_CELLS`](crate::storable::MAX_CELLS).
    fn cell_count_for_shape(params: &[u64]) -> Result<u64, DatasetError> {
        let (_, _, mask) = Self::check_shape(params)?;
        let selected: u64 = mask.iter().map(|m| u64::from(m.count_ones())).sum();
        Ok((selected + 1) * NUM_PAIRS as u64 + 2)
    }

    /// Cells are the selected digraph slices, the aligned table, and the two
    /// derived totals (digraph and aligned sample counts) as single-cell
    /// slices, so the whole state survives a store round-trip.
    fn cell_slices(&self) -> Vec<&[u64]> {
        vec![
            &self.digraph_counts,
            &self.aligned_counts,
            core::slice::from_ref(&self.digraphs),
            core::slice::from_ref(&self.aligned_samples),
        ]
    }

    fn cell_slices_mut(&mut self) -> Vec<&mut [u64]> {
        let Self {
            digraph_counts,
            aligned_counts,
            digraphs,
            aligned_samples,
            ..
        } = self;
        vec![
            digraph_counts.as_mut_slice(),
            aligned_counts.as_mut_slice(),
            core::slice::from_mut(digraphs),
            core::slice::from_mut(aligned_samples),
        ]
    }

    fn recorded_keystreams(&self) -> u64 {
        self.keystreams
    }

    fn set_recorded_keystreams(&mut self, keystreams: u64) {
        self.keystreams = keystreams;
    }

    fn required_keystream_len(&self) -> usize {
        self.drop + self.block_len
    }

    fn record_stream(&mut self, _meta: u64, ks: &[u8]) {
        debug_assert!(ks.len() >= self.required_keystream_len());
        let body = &ks[self.drop..self.drop + self.block_len];
        // body[idx] is keystream position drop + idx + 1, and the PRGA
        // counter equals that position modulo 256: the first body index of
        // counter i, after which the counter repeats every 256 indices.
        let offset = (self.drop + 1) % NUM_VALUES;
        let first_index = |i: u8| (i as usize + NUM_VALUES - offset) % NUM_VALUES;
        // The digraph at body index idx pairs body[idx] with body[idx + 1];
        // each selected counter walks its own stride into its own slice.
        let digraphs = body.len() - 1;
        for (slot, &i) in self.counters.iter().enumerate() {
            let first = first_index(i);
            let table = &mut self.digraph_counts[slot * NUM_PAIRS..(slot + 1) * NUM_PAIRS];
            for idx in (first..digraphs).step_by(NUM_VALUES) {
                table[body[idx] as usize * NUM_VALUES + body[idx + 1] as usize] += 1;
            }
        }
        self.digraphs += digraphs as u64;

        // 256-aligned pair (Z_{256w}, Z_{256w+2}): the position is a multiple
        // of 256 (counter 0) and the byte two positions later is in the body.
        for idx in (first_index(0)..body.len() - 2).step_by(NUM_VALUES) {
            let (x, y) = (body[idx] as usize, body[idx + 2] as usize);
            self.aligned_counts[x * NUM_VALUES + y] += 1;
            self.aligned_samples += 1;
        }
        self.keystreams += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_validation() {
        assert!(LongTermDataset::new(0, 1).is_err());
        assert!(LongTermDataset::new(0, 2).is_ok());
        let ds = LongTermDataset::new(LongTermDataset::DEFAULT_DROP, 512).unwrap();
        assert_eq!(ds.block_len(), 512);
        assert_eq!(ds.required_keystream_len(), 1023 + 512);
    }

    #[test]
    fn counter_selection_shapes() {
        // The full selection, however it is asked for, is the 2-parameter
        // shape; any other selection appends its 4-word mask.
        let all: Vec<u8> = (0..=255).collect();
        let full = LongTermDataset::with_counters(3, 16, &all).unwrap();
        assert_eq!(full.shape_params(), vec![3, 16]);
        assert_eq!(full.counters(), &all[..]);
        assert_eq!(
            LongTermDataset::new(3, 16).unwrap().shape_params(),
            vec![3, 16]
        );
        let some = LongTermDataset::with_counters(3, 16, &[255, 0, 64, 0, 129]).unwrap();
        let mask = vec![3, 16, 1, 1, 1 << 1, 1 << 63];
        assert_eq!(some.shape_params(), mask);
        assert_eq!(some.counters(), &[0, 64, 129, 255]);
        assert_eq!(
            LongTermDataset::counters_for_shape(&mask).unwrap(),
            [0, 64, 129, 255]
        );
        let none = LongTermDataset::with_counters(3, 16, &[]).unwrap();
        assert_eq!(none.shape_params(), vec![3, 16, 0, 0, 0, 0]);
        assert!(none.counters().is_empty());

        // Cells: one slice per selected counter, the aligned table, 2 totals.
        for ds in [&full, &some, &none] {
            let shape = ds.shape_params();
            let expected = (ds.counters().len() + 1) * NUM_PAIRS + 2;
            assert_eq!(ds.cell_count(), expected);
            assert_eq!(
                LongTermDataset::cell_count_for_shape(&shape).unwrap(),
                expected as u64
            );
            let rebuilt = LongTermDataset::empty_with_shape(&shape).unwrap();
            assert_eq!(rebuilt.shape_params(), shape);
        }
    }

    #[test]
    fn malformed_selections_are_typed_errors() {
        let shape_mismatch = |params: &[u64]| {
            matches!(
                LongTermDataset::cell_count_for_shape(params),
                Err(DatasetError::ShapeMismatch(_))
            )
        };
        // Wrong parameter counts.
        for params in [
            &[3u64, 16, 1][..],
            &[3, 16, 1, 1, 1],
            &[3, 16, 1, 1, 1, 1, 1],
        ] {
            assert!(shape_mismatch(params), "{params:?}");
        }
        // A full mask must be written in the 2-parameter form.
        let full_mask = [3, 16, u64::MAX, u64::MAX, u64::MAX, u64::MAX];
        assert!(shape_mismatch(&full_mask));
        assert!(LongTermDataset::empty_with_shape(&full_mask).is_err());
        // The block and keystream checks apply to the mask form too.
        assert!(matches!(
            LongTermDataset::cell_count_for_shape(&[3, 1, 1, 0, 0, 0]),
            Err(DatasetError::InvalidConfig(_))
        ));
        assert!(matches!(
            LongTermDataset::cell_count_for_shape(&[u64::MAX, 2, 1, 0, 0, 0]),
            Err(DatasetError::InvalidConfig(_))
        ));
    }

    #[test]
    fn selected_counters_record_their_digraphs_only() {
        // drop = 0, block = 6: positions 1..=5 start digraphs with i = 1..=5.
        let mut ds = LongTermDataset::with_counters(0, 6, &[2, 5]).unwrap();
        ds.record_stream(0, &[10, 20, 30, 40, 50, 60]);
        assert_eq!(ds.digraph_count(2, 20, 30), 1);
        assert_eq!(ds.digraph_count(5, 50, 60), 1);
        assert_eq!(ds.digraph_samples(2), 1);
        assert_eq!(ds.digraphs, 5, "the total counts every counter");
    }

    #[test]
    #[should_panic(expected = "PRGA counter 1 has no digraph slice")]
    fn unselected_counter_panics() {
        LongTermDataset::with_counters(0, 6, &[2, 5])
            .unwrap()
            .digraph_samples(1);
    }

    #[test]
    fn keystream_length_is_bounded() {
        use crate::storable::MAX_KEYSTREAM_LEN;
        let check = |drop: u64, block: u64| LongTermDataset::cell_count_for_shape(&[drop, block]);
        // The extended preset reads 1023 + 2^22 bytes per key.
        assert!(check(1023, 1 << 22).is_ok());
        assert!(check(0, MAX_KEYSTREAM_LEN).is_ok());
        for (drop, block) in [(1, MAX_KEYSTREAM_LEN), (1023, 1 << 40), (u64::MAX, 2)] {
            let err = check(drop, block).unwrap_err();
            assert!(matches!(err, DatasetError::InvalidConfig(_)));
            assert!(err.to_string().contains("keystream bound"), "{err}");
        }
    }

    #[test]
    fn digraph_counting_positions() {
        // drop = 0, block = 4: positions 1,2,3 form digraphs with i = 1,2,3.
        let mut ds = LongTermDataset::new(0, 4).unwrap();
        ds.record_stream(0, &[10, 20, 30, 40]);
        assert_eq!(ds.digraph_count(1, 10, 20), 1);
        assert_eq!(ds.digraph_count(2, 20, 30), 1);
        assert_eq!(ds.digraph_count(3, 30, 40), 1);
        assert_eq!(ds.digraphs, 3);
        assert_eq!(ds.recorded_keystreams(), 1);
    }

    #[test]
    fn aligned_pairs_recorded_at_multiples_of_256() {
        // Use drop = 254 so that body[1] is position 256 (a multiple of 256).
        let mut ds = LongTermDataset::new(254, 8).unwrap();
        let mut ks = vec![0u8; 254 + 8];
        // positions 255..262 hold 1..8
        for (i, b) in ks[254..].iter_mut().enumerate() {
            *b = (i + 1) as u8;
        }
        ds.record_stream(0, &ks);
        // Position 256 is body[1] (=2), position 258 is body[3] (=4).
        assert_eq!(ds.aligned_count(2, 4), 1);
        assert_eq!(ds.aligned_samples(), 1);
    }

    #[test]
    fn probabilities_are_normalized() {
        let mut ds = LongTermDataset::new(0, 16).unwrap();
        for i in 0u32..50 {
            let ks = rc4::keystream(&i.to_le_bytes(), 16).unwrap();
            ds.record_stream(0, &ks);
        }
        let n = ds.digraph_samples(3);
        assert_eq!(n, 50);
        let mut sum = 0.0;
        for x in 0..=255u8 {
            for y in 0..=255u8 {
                sum += ds.digraph_probability(3, x, y);
            }
        }
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LongTermDataset::new(0, 4).unwrap();
        let mut b = LongTermDataset::new(0, 4).unwrap();
        a.record_stream(0, &[1, 2, 3, 4]);
        b.record_stream(0, &[1, 2, 9, 9]);
        a.merge_same_shape(b).unwrap();
        assert_eq!(a.digraph_count(1, 1, 2), 2);
        assert_eq!(a.digraphs, 6);
        assert_eq!(a.recorded_keystreams(), 2);

        let mismatched = LongTermDataset::new(0, 8).unwrap();
        assert!(a.merge_same_shape(mismatched).is_err());
    }
}
