//! Double-byte keystream statistics: `Pr[Z_a = x ∧ Z_b = y]` over position pairs.
//!
//! One dataset over an explicit list of position pairs covers both of the
//! paper's main datasets:
//!
//! * `consec512` — consecutive pairs `(r, r+1)` for `1 <= r <= 512`
//!   (paper: `2^45` keys, 16 CPU-years).
//! * `first16` — pairs `(a, b)` with `1 <= a <= 16` and `a < b <= 256`
//!   (paper: `2^44` keys, 9 CPU-years).
//!
//! The reproduction's reports list only the pairs they read, so a run
//! counts a handful of these tables, not the whole of either dataset.

use crate::{
    dataset::DatasetError,
    storable::{bounded_cells, bounded_keystream_len, StorableDataset},
    NUM_PAIRS, NUM_VALUES,
};

/// A pair of (1-based) keystream positions whose joint distribution is tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PositionPair {
    /// First position `a` (1-based).
    pub a: usize,
    /// Second position `b` (1-based), with `a != b`.
    pub b: usize,
}

/// Joint counts of keystream byte values over a list of position pairs.
///
/// For pair index `p` and values `(x, y)`, the count lives at
/// `counts[p * 65536 + x * 256 + y]`.
#[derive(Debug, Clone)]
pub struct PairDataset {
    pairs: Vec<PositionPair>,
    max_position: usize,
    keystreams: u64,
    counts: Vec<u64>,
}

impl PairDataset {
    /// Creates an empty dataset over an explicit list of position pairs.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if the list is empty, any
    /// pair has `a == b` or a zero position, the tables would exceed
    /// [`MAX_CELLS`](crate::storable::MAX_CELLS), or a position exceeds
    /// [`MAX_KEYSTREAM_LEN`](crate::storable::MAX_KEYSTREAM_LEN).
    pub fn new(pairs: Vec<PositionPair>) -> Result<Self, DatasetError> {
        Self::empty_with_shape(&Self::descriptor(&pairs))
    }

    /// The flat shape descriptor `[a1, b1, a2, b2, ...]` of a pair list.
    fn descriptor(pairs: &[PositionPair]) -> Vec<u64> {
        pairs
            .iter()
            .flat_map(|p| [p.a as u64, p.b as u64])
            .collect()
    }

    /// The cells of `pair_count` pairs, bounded by
    /// [`MAX_CELLS`](crate::storable::MAX_CELLS); `None` is an overflowed count.
    fn pair_cells(pair_count: Option<u64>) -> Result<usize, DatasetError> {
        bounded_cells(
            Self::kind(),
            pair_count.and_then(|n| n.checked_mul(NUM_PAIRS as u64)),
        )
    }

    /// The shape check: parses `[a1, b1, a2, b2, ...]` into the pair list,
    /// its largest position and the number of cells.
    fn check_shape(params: &[u64]) -> Result<(Vec<PositionPair>, usize, usize), DatasetError> {
        if params.is_empty() {
            return Err(DatasetError::InvalidConfig(
                "at least one position pair is required".into(),
            ));
        }
        if params.len() % 2 != 0 {
            return Err(DatasetError::ShapeMismatch(format!(
                "pair shape needs an even parameter count, got {}",
                params.len()
            )));
        }
        let cells = Self::pair_cells(Some(params.len() as u64 / 2))?;
        // The largest position is the keystream length read per key.
        let max_position = bounded_keystream_len(Self::kind(), params.iter().max().copied())?;
        let mut pairs = Vec::with_capacity(params.len() / 2);
        for c in params.chunks_exact(2) {
            let (a, b) = (c[0] as usize, c[1] as usize);
            if a == 0 || b == 0 || a == b {
                return Err(DatasetError::InvalidConfig(format!(
                    "invalid position pair ({a}, {b})"
                )));
            }
            pairs.push(PositionPair { a, b });
        }
        Ok((pairs, max_position, cells))
    }

    /// The position pairs covered, in index order.
    pub fn pairs(&self) -> &[PositionPair] {
        &self.pairs
    }

    /// Finds the index of a position pair, if covered.
    pub fn pair_index(&self, a: usize, b: usize) -> Option<usize> {
        self.pairs.iter().position(|p| p.a == a && p.b == b)
    }

    /// Raw joint count for pair index `pair_idx` and values `(x, y)`.
    pub fn count(&self, pair_idx: usize, x: u8, y: u8) -> u64 {
        self.counts[pair_idx * NUM_PAIRS + x as usize * NUM_VALUES + y as usize]
    }

    /// The full 65536-entry joint count table for a pair.
    pub fn joint_counts(&self, pair_idx: usize) -> &[u64] {
        &self.counts[pair_idx * NUM_PAIRS..(pair_idx + 1) * NUM_PAIRS]
    }

    /// Empirical joint probability `Pr[Z_a = x ∧ Z_b = y]`.
    pub fn joint_probability(&self, pair_idx: usize, x: u8, y: u8) -> f64 {
        if self.keystreams == 0 {
            return 0.0;
        }
        self.count(pair_idx, x, y) as f64 / self.keystreams as f64
    }

    /// Empirical joint distribution as a 65536-entry probability vector.
    pub fn joint_distribution(&self, pair_idx: usize) -> Vec<f64> {
        let n = self.keystreams.max(1) as f64;
        self.joint_counts(pair_idx)
            .iter()
            .map(|&c| c as f64 / n)
            .collect()
    }

    /// Marginal counts of the first byte of a pair (256 entries).
    pub fn marginal_first(&self, pair_idx: usize) -> Vec<u64> {
        let mut out = vec![0u64; NUM_VALUES];
        let table = self.joint_counts(pair_idx);
        for x in 0..NUM_VALUES {
            let mut sum = 0u64;
            for y in 0..NUM_VALUES {
                sum += table[x * NUM_VALUES + y];
            }
            out[x] = sum;
        }
        out
    }

    /// Marginal counts of the second byte of a pair (256 entries).
    pub fn marginal_second(&self, pair_idx: usize) -> Vec<u64> {
        let mut out = vec![0u64; NUM_VALUES];
        let table = self.joint_counts(pair_idx);
        for y in 0..NUM_VALUES {
            let mut sum = 0u64;
            for x in 0..NUM_VALUES {
                sum += table[x * NUM_VALUES + y];
            }
            out[y] = sum;
        }
        out
    }

    /// The paper's relative bias `q` of a value pair: `s = p (1 + q)` where `s`
    /// is the observed pair probability and `p` the product of the empirical
    /// single-byte probabilities.
    ///
    /// Returns `None` if either marginal probability is zero (no information).
    pub fn relative_bias(&self, pair_idx: usize, x: u8, y: u8) -> Option<f64> {
        if self.keystreams == 0 {
            return None;
        }
        let n = self.keystreams as f64;
        let p_first = self.marginal_first(pair_idx)[x as usize] as f64 / n;
        let p_second = self.marginal_second(pair_idx)[y as usize] as f64 / n;
        if p_first == 0.0 || p_second == 0.0 {
            return None;
        }
        let expected = p_first * p_second;
        let observed = self.joint_probability(pair_idx, x, y);
        Some(observed / expected - 1.0)
    }

    /// Largest keystream position referenced by any pair.
    pub fn max_position(&self) -> usize {
        self.max_position
    }
}

impl StorableDataset for PairDataset {
    fn kind() -> &'static str {
        "pairs"
    }

    /// Shape is the flattened pair list `[a1, b1, a2, b2, ...]`.
    fn shape_params(&self) -> Vec<u64> {
        Self::descriptor(&self.pairs)
    }

    fn empty_with_shape(params: &[u64]) -> Result<Self, DatasetError> {
        let (pairs, max_position, cells) = Self::check_shape(params)?;
        Ok(Self {
            pairs,
            max_position,
            keystreams: 0,
            counts: vec![0u64; cells],
        })
    }

    fn cell_count_for_shape(params: &[u64]) -> Result<u64, DatasetError> {
        Self::check_shape(params).map(|(_, _, cells)| cells as u64)
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
        self.max_position
    }

    fn record_stream(&mut self, _meta: u64, ks: &[u8]) {
        debug_assert!(ks.len() >= self.max_position);
        for (idx, pair) in self.pairs.iter().enumerate() {
            let x = ks[pair.a - 1] as usize;
            let y = ks[pair.b - 1] as usize;
            self.counts[idx * NUM_PAIRS + x * NUM_VALUES + y] += 1;
        }
        self.keystreams += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_pair_list_shape() {
        let ds = PairDataset::new(vec![
            PositionPair { a: 1, b: 2 },
            PositionPair { a: 8, b: 3 },
        ])
        .unwrap();
        assert_eq!(ds.pairs().len(), 2);
        assert_eq!(ds.pair_index(8, 3), Some(1));
        assert_eq!(ds.pair_index(3, 8), None);
        assert_eq!(ds.max_position(), 8);
        assert_eq!(ds.required_keystream_len(), 8);
        assert_eq!(ds.shape_params(), vec![1, 2, 8, 3]);
    }

    #[test]
    fn consecutive_constructor_shape() {
        // The consec512-style list (r, r+1) for r = 1..=8.
        let ds = PairDataset::new((1..=8).map(|a| PositionPair { a, b: a + 1 }).collect()).unwrap();
        assert_eq!(ds.pairs().len(), 8);
        assert_eq!(ds.pairs()[0], PositionPair { a: 1, b: 2 });
        assert_eq!(ds.pairs()[7], PositionPair { a: 8, b: 9 });
        assert_eq!(ds.max_position(), 9);
        assert_eq!(ds.required_keystream_len(), 9);
    }

    #[test]
    fn first16_constructor_shape() {
        // The first16-style list (a, b) for a <= 2, a < b <= 5.
        let pairs = (1..=2)
            .flat_map(|a| (a + 1..=5).map(move |b| PositionPair { a, b }))
            .collect();
        let ds = PairDataset::new(pairs).unwrap();
        // (1,2) (1,3) (1,4) (1,5) (2,3) (2,4) (2,5)
        assert_eq!(ds.pairs().len(), 7);
        assert_eq!(ds.pair_index(1, 2), Some(0));
        assert_eq!(ds.pair_index(2, 5), Some(6));
        assert_eq!(ds.pair_index(3, 4), None);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(PairDataset::new(vec![]).is_err());
        assert!(PairDataset::new(vec![PositionPair { a: 3, b: 3 }]).is_err());
        assert!(PairDataset::new(vec![PositionPair { a: 0, b: 1 }]).is_err());
    }

    #[test]
    fn positions_are_bounded_by_the_keystream_length() {
        use crate::storable::MAX_KEYSTREAM_LEN;
        let far = |b: u64| PairDataset::cell_count_for_shape(&[1, b]);
        assert_eq!(far(MAX_KEYSTREAM_LEN).unwrap(), NUM_PAIRS as u64);
        for b in [MAX_KEYSTREAM_LEN + 1, 1 << 40, u64::MAX] {
            let err = far(b).unwrap_err();
            assert!(matches!(err, DatasetError::InvalidConfig(_)));
            assert!(err.to_string().contains("keystream bound"), "{err}");
        }
    }

    #[test]
    fn recording_updates_joint_and_marginals() {
        let mut ds = PairDataset::new(vec![
            PositionPair { a: 1, b: 2 },
            PositionPair { a: 2, b: 3 },
        ])
        .unwrap();
        ds.record_stream(0, &[10, 20, 30]);
        ds.record_stream(0, &[10, 21, 30]);
        let idx = ds.pair_index(1, 2).unwrap();
        assert_eq!(ds.count(idx, 10, 20), 1);
        assert_eq!(ds.count(idx, 10, 21), 1);
        assert_eq!(ds.marginal_first(idx)[10], 2);
        assert_eq!(ds.marginal_second(idx)[20], 1);
        assert_eq!(ds.recorded_keystreams(), 2);
    }

    #[test]
    fn joint_distribution_sums_to_one() {
        let mut ds = PairDataset::new(vec![PositionPair { a: 1, b: 2 }]).unwrap();
        for i in 0u32..100 {
            let ks = rc4::keystream(&i.to_le_bytes(), 2).unwrap();
            ds.record_stream(0, &ks);
        }
        let sum: f64 = ds.joint_distribution(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn relative_bias_zero_for_independent_values() {
        // Construct counts where the pair occurs exactly as the margins predict.
        let mut ds = PairDataset::new(vec![PositionPair { a: 1, b: 2 }]).unwrap();
        // Record keystreams so that Z1 in {0,1}, Z2 in {0,1}, independently.
        for x in 0..2u8 {
            for y in 0..2u8 {
                for _ in 0..25 {
                    ds.record_stream(0, &[x, y]);
                }
            }
        }
        let q = ds.relative_bias(0, 0, 0).unwrap();
        assert!(q.abs() < 1e-12);
    }

    #[test]
    fn relative_bias_detects_dependence() {
        let mut ds = PairDataset::new(vec![PositionPair { a: 1, b: 2 }]).unwrap();
        // Z1 == Z2 always: strong positive dependence on the diagonal.
        for v in 0..=255u8 {
            ds.record_stream(0, &[v, v]);
        }
        let q = ds.relative_bias(0, 7, 7).unwrap();
        assert!(q > 100.0, "diagonal relative bias should be large, got {q}");
        assert!(ds.relative_bias(0, 7, 8).is_none() || ds.joint_probability(0, 7, 8) == 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PairDataset::new(vec![
            PositionPair { a: 1, b: 2 },
            PositionPair { a: 2, b: 3 },
        ])
        .unwrap();
        let mut b = PairDataset::new(vec![
            PositionPair { a: 1, b: 2 },
            PositionPair { a: 2, b: 3 },
        ])
        .unwrap();
        a.record_stream(0, &[1, 2, 3]);
        b.record_stream(0, &[1, 2, 4]);
        a.merge_same_shape(b).unwrap();
        assert_eq!(a.recorded_keystreams(), 2);
        assert_eq!(a.count(0, 1, 2), 2);

        let other =
            PairDataset::new((1..=3).map(|r| PositionPair { a: r, b: r + 1 }).collect()).unwrap();
        assert!(a.merge_same_shape(other).is_err());
    }
}
