//! Single-byte keystream statistics: `Pr[Z_r = x]` for the initial positions.
//!
//! This is the aggregated dataset behind Fig. 6 of the paper (single-byte
//! biases up to position 513) and the per-position distributions consumed by
//! the single-byte likelihood estimator of Section 4.1.

use crate::{
    dataset::DatasetError,
    storable::{bounded_cells, StorableDataset},
    NUM_VALUES,
};

/// Counts of keystream byte values per position.
///
/// `counts[(r - 1) * 256 + x]` is the number of keystreams in which `Z_r = x`,
/// with `r` the 1-based keystream position used throughout the paper.
///
/// # Examples
///
/// ```
/// use rc4_stats::{single::SingleByteDataset, StorableDataset};
///
/// let mut ds = SingleByteDataset::new(4);
/// ds.record_stream(0, &[0x10, 0x00, 0x37, 0x42]);
/// ds.record_stream(0, &[0x10, 0x99, 0x37, 0x43]);
/// assert_eq!(ds.count(1, 0x10), 2);
/// assert_eq!(ds.count(2, 0x00), 1);
/// assert_eq!(ds.recorded_keystreams(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SingleByteDataset {
    positions: usize,
    keystreams: u64,
    counts: Vec<u64>,
}

impl SingleByteDataset {
    /// Creates an empty dataset covering positions `1..=positions`.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is zero or the table would exceed
    /// [`MAX_CELLS`](crate::storable::MAX_CELLS).
    pub fn new(positions: usize) -> Self {
        Self::empty_with_shape(&[positions as u64]).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The shape check: parses `[positions]` into the position count and
    /// the number of cells.
    fn check_shape(params: &[u64]) -> Result<(usize, usize), DatasetError> {
        let [positions] = params else {
            return Err(DatasetError::ShapeMismatch(format!(
                "single-byte shape needs 1 parameter, got {}",
                params.len()
            )));
        };
        if *positions == 0 {
            return Err(DatasetError::InvalidConfig(
                "single-byte dataset needs at least one position".into(),
            ));
        }
        let cells = bounded_cells(Self::kind(), positions.checked_mul(NUM_VALUES as u64))?;
        Ok((*positions as usize, cells))
    }

    /// Number of positions covered (positions `1..=positions()`).
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// Raw count of `Z_r = value` over all recorded keystreams.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero or beyond the covered range.
    pub fn count(&self, r: usize, value: u8) -> u64 {
        assert!(r >= 1 && r <= self.positions, "position {r} out of range");
        self.counts[(r - 1) * NUM_VALUES + value as usize]
    }

    /// The 256 counts for position `r`, as a slice.
    pub fn counts_at(&self, r: usize) -> &[u64] {
        assert!(r >= 1 && r <= self.positions, "position {r} out of range");
        &self.counts[(r - 1) * NUM_VALUES..r * NUM_VALUES]
    }

    /// Empirical probability estimate `Pr[Z_r = value]`.
    pub fn probability(&self, r: usize, value: u8) -> f64 {
        if self.keystreams == 0 {
            return 0.0;
        }
        self.count(r, value) as f64 / self.keystreams as f64
    }

    /// Empirical distribution of `Z_r` as a 256-entry probability vector.
    pub fn distribution(&self, r: usize) -> Vec<f64> {
        let n = self.keystreams.max(1) as f64;
        self.counts_at(r).iter().map(|&c| c as f64 / n).collect()
    }
}

impl StorableDataset for SingleByteDataset {
    fn kind() -> &'static str {
        "single"
    }

    fn shape_params(&self) -> Vec<u64> {
        vec![self.positions as u64]
    }

    fn empty_with_shape(params: &[u64]) -> Result<Self, DatasetError> {
        let (positions, cells) = Self::check_shape(params)?;
        Ok(Self {
            positions,
            keystreams: 0,
            counts: vec![0u64; cells],
        })
    }

    fn cell_count_for_shape(params: &[u64]) -> Result<u64, DatasetError> {
        Self::check_shape(params).map(|(_, cells)| cells as u64)
    }

    fn cell_slices(&self) -> Vec<&[u64]> {
        vec![&self.counts]
    }

    fn cell_slices_mut(&mut self) -> Vec<&mut [u64]> {
        vec![&mut self.counts]
    }

    fn recorded_keystreams(&self) -> u64 {
        self.keystreams
    }

    fn set_recorded_keystreams(&mut self, keystreams: u64) {
        self.keystreams = keystreams;
    }

    fn required_keystream_len(&self) -> usize {
        self.positions
    }

    fn record_stream(&mut self, _meta: u64, ks: &[u8]) {
        debug_assert!(ks.len() >= self.positions);
        for (idx, &z) in ks.iter().take(self.positions).enumerate() {
            self.counts[idx * NUM_VALUES + z as usize] += 1;
        }
        self.keystreams += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut ds = SingleByteDataset::new(8);
        let ks = rc4::keystream(b"0123456789abcdef", 8).unwrap();
        ds.record_stream(0, &ks);
        for (i, &z) in ks.iter().enumerate() {
            assert_eq!(ds.count(i + 1, z), 1);
        }
        assert_eq!(ds.recorded_keystreams(), 1);
        // All other values have count zero.
        assert_eq!(ds.counts_at(1).iter().sum::<u64>(), 1);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut ds = SingleByteDataset::new(4);
        for i in 0u32..200 {
            let key = i.to_le_bytes();
            let ks = rc4::keystream(&key, 4).unwrap();
            ds.record_stream(0, &ks);
        }
        for r in 1..=4 {
            let sum: f64 = ds.distribution(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SingleByteDataset::new(4);
        let mut b = SingleByteDataset::new(4);
        a.record_stream(0, &[1, 2, 3, 4]);
        b.record_stream(0, &[1, 9, 9, 9]);
        a.merge_same_shape(b).unwrap();
        assert_eq!(a.recorded_keystreams(), 2);
        assert_eq!(a.count(1, 1), 2);
        assert_eq!(a.count(2, 2), 1);
        assert_eq!(a.count(2, 9), 1);
    }

    #[test]
    fn merge_rejects_shape_mismatch() {
        let mut a = SingleByteDataset::new(4);
        let b = SingleByteDataset::new(8);
        assert!(matches!(
            a.merge_same_shape(b),
            Err(DatasetError::ShapeMismatch(_))
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_position_panics() {
        let ds = SingleByteDataset::new(4);
        let _ = ds.count(5, 0);
    }

    #[test]
    fn mantin_shamir_bias_visible_at_small_scale() {
        // With ~50k random keys, Pr[Z_2 = 0] ≈ 2/256 is clearly above 1/256.
        let mut ds = SingleByteDataset::new(2);
        let mut gen = crate::KeyGenerator::new(42, 0, 16);
        let mut key = [0u8; 16];
        for _ in 0..50_000 {
            gen.fill_key(&mut key);
            let ks = rc4::keystream(&key, 2).unwrap();
            ds.record_stream(0, &ks);
        }
        let p = ds.probability(2, 0);
        assert!(p > 1.6 / 256.0, "Pr[Z2=0] = {p}, expected ~2/256");
        assert!(p < 2.4 / 256.0, "Pr[Z2=0] = {p}, expected ~2/256");
    }
}
