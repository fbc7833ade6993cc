//! Long-term keystream statistics: digraph counts keyed by the PRGA counter `i`.
//!
//! Section 3.4 of the paper searches for biases that persist through the whole
//! keystream. Its dataset drops the initial 1023 bytes of every keystream and
//! then records, for each position modulo 256, the joint distribution of
//! consecutive bytes — enough to re-detect all Fluhrer–McGrew biases — plus the
//! `256`-aligned pairs `(Z_{256w}, Z_{256w+2})` where the Sen Gupta `(0,0)` and
//! the paper's new `(128,0)` biases live.

use crate::{
    dataset::DatasetError,
    storable::{bounded_keystream_len, StorableDataset},
    NUM_PAIRS, NUM_VALUES,
};

/// Long-term digraph statistics.
///
/// `digraph_counts[i][x * 256 + y]` counts occurrences of the consecutive pair
/// `(Z_r, Z_{r+1}) = (x, y)` at positions where the PRGA counter before
/// outputting `Z_r` satisfies `i = r mod 256`. `aligned_counts[x * 256 + y]`
/// counts the pairs `(Z_{256w}, Z_{256w+2})`.
#[derive(Debug, Clone)]
pub struct LongTermDataset {
    /// Number of initial keystream bytes dropped per key (paper: 1023).
    drop: usize,
    /// Number of keystream bytes consumed per key after the drop.
    block_len: usize,
    keystreams: u64,
    /// Total number of digraphs recorded (all `i` values together).
    digraphs: u64,
    digraph_counts: Vec<u64>,
    aligned_counts: Vec<u64>,
    aligned_samples: u64,
}

impl LongTermDataset {
    /// Default number of dropped initial bytes, matching the paper (`w >= 4` ⇒ 1023 bytes).
    pub const DEFAULT_DROP: usize = 1023;

    /// Creates an empty long-term dataset.
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

    /// Cells of every long-term dataset: the digraph table, the aligned
    /// table and the two derived totals, far below
    /// [`MAX_CELLS`](crate::storable::MAX_CELLS).
    const CELLS: u64 = (NUM_VALUES * NUM_PAIRS + NUM_PAIRS + 2) as u64;

    /// The shape check: parses `[drop, block_len]`.
    fn check_shape(params: &[u64]) -> Result<(usize, usize), DatasetError> {
        let [drop, block_len] = params else {
            return Err(DatasetError::ShapeMismatch(format!(
                "long-term shape needs 2 parameters, got {}",
                params.len()
            )));
        };
        if *block_len < 2 {
            return Err(DatasetError::InvalidConfig(
                "block_len must be at least 2 to form a digraph".into(),
            ));
        }
        bounded_keystream_len(Self::kind(), drop.checked_add(*block_len))?;
        Ok((*drop as usize, *block_len as usize))
    }

    /// Creates the paper-shaped dataset: drop 1023 bytes, then consume `block_len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if `block_len < 2`.
    pub fn paper_shape(block_len: usize) -> Result<Self, DatasetError> {
        Self::new(Self::DEFAULT_DROP, block_len)
    }

    /// Number of keystream bytes consumed per key after the drop.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Raw count of digraph `(x, y)` at PRGA counter `i`.
    pub fn digraph_count(&self, i: u8, x: u8, y: u8) -> u64 {
        self.digraph_counts[i as usize * NUM_PAIRS + x as usize * NUM_VALUES + y as usize]
    }

    /// Number of digraph samples recorded at PRGA counter `i`.
    pub fn digraph_samples(&self, i: u8) -> u64 {
        self.digraph_counts[i as usize * NUM_PAIRS..(i as usize + 1) * NUM_PAIRS]
            .iter()
            .sum()
    }

    /// Empirical probability of digraph `(x, y)` at PRGA counter `i`.
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

    /// Total number of digraphs recorded across all counter values.
    pub fn total_digraphs(&self) -> u64 {
        self.digraphs
    }
}

impl StorableDataset for LongTermDataset {
    fn kind() -> &'static str {
        "longterm"
    }

    fn shape_params(&self) -> Vec<u64> {
        vec![self.drop as u64, self.block_len as u64]
    }

    fn empty_with_shape(params: &[u64]) -> Result<Self, DatasetError> {
        let (drop, block_len) = Self::check_shape(params)?;
        Ok(Self {
            drop,
            block_len,
            keystreams: 0,
            digraphs: 0,
            digraph_counts: vec![0u64; NUM_VALUES * NUM_PAIRS],
            aligned_counts: vec![0u64; NUM_PAIRS],
            aligned_samples: 0,
        })
    }

    fn cell_count_for_shape(params: &[u64]) -> Result<u64, DatasetError> {
        Self::check_shape(params).map(|_| Self::CELLS)
    }

    /// Cells are the digraph table, the aligned table, and the two derived
    /// totals (digraph and aligned sample counts) as single-cell slices, so
    /// the whole state survives a store round-trip.
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
        // The PRGA counter i equals the 1-based keystream position modulo 256.
        // After dropping `drop` bytes, body[idx] is keystream position drop + idx + 1.
        for idx in 0..body.len() - 1 {
            let position = self.drop + idx + 1;
            let i = (position % 256) as u8;
            let x = body[idx] as usize;
            let y = body[idx + 1] as usize;
            self.digraph_counts[i as usize * NUM_PAIRS + x * NUM_VALUES + y] += 1;
            self.digraphs += 1;

            // 256-aligned pair (Z_{256w}, Z_{256w+2}): position is a multiple of 256
            // and we need the byte two positions later.
            if position % 256 == 0 && idx + 2 < body.len() {
                let y2 = body[idx + 2] as usize;
                self.aligned_counts[x * NUM_VALUES + y2] += 1;
                self.aligned_samples += 1;
            }
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
        let ds = LongTermDataset::paper_shape(512).unwrap();
        assert_eq!(ds.block_len(), 512);
        assert_eq!(ds.required_keystream_len(), 1023 + 512);
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
        assert_eq!(ds.total_digraphs(), 3);
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
        assert_eq!(a.total_digraphs(), 6);
        assert_eq!(a.recorded_keystreams(), 2);

        let mismatched = LongTermDataset::new(0, 8).unwrap();
        assert!(a.merge_same_shape(mismatched).is_err());
    }
}
