//! Per-TSC keystream statistics for WPA-TKIP keys.
//!
//! TKIP derives a fresh 16-byte RC4 key per packet, but its first three bytes
//! are a public function of the TKIP sequence counter (TSC):
//!
//! ```text
//! K0 = TSC1          K1 = (TSC1 | 0x20) & 0x7f          K2 = TSC0
//! ```
//!
//! Because the attacker knows the TSC of every captured packet, plaintext
//! likelihoods can be computed against keystream distributions *conditioned on
//! the TSC*, which are much more sharply biased than the unconditioned ones
//! (Paterson et al.; Section 5.1 of the paper). This module generates those
//! conditioned distributions.
//!
//! Paper scale conditions on the full `(TSC0, TSC1)` pair (65536 classes,
//! `2^32` keys per class, 10 CPU-years); the reproduction defaults to
//! conditioning on `TSC1` only (256 classes), which preserves the structure of
//! the attack at laptop scale. Both modes use the same code path.

use crate::{
    dataset::{DatasetError, GenerationConfig},
    keygen::KeyGenerator,
    storable::{bounded_cells, StorableDataset},
    NUM_VALUES,
};

/// How captured packets / generated keys are grouped into TSC classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TscConditioning {
    /// Condition on `TSC1` only: 256 classes. Laptop-scale default.
    Tsc1,
    /// Condition on the `(TSC0, TSC1)` pair: 65536 classes. Paper scale.
    Tsc0Tsc1,
}

impl TscConditioning {
    /// Number of classes induced by this conditioning.
    pub fn classes(self) -> usize {
        match self {
            TscConditioning::Tsc1 => 256,
            TscConditioning::Tsc0Tsc1 => 65536,
        }
    }

    /// The conditioning's code in a shape descriptor.
    fn code(self) -> u64 {
        match self {
            TscConditioning::Tsc1 => 0,
            TscConditioning::Tsc0Tsc1 => 1,
        }
    }

    /// Maps a `(TSC0, TSC1)` pair to its class index.
    pub fn class_of(self, tsc0: u8, tsc1: u8) -> usize {
        match self {
            TscConditioning::Tsc1 => tsc1 as usize,
            TscConditioning::Tsc0Tsc1 => ((tsc1 as usize) << 8) | tsc0 as usize,
        }
    }
}

/// Builds the first three bytes of a TKIP per-packet RC4 key from the two
/// least-significant TSC bytes (IEEE 802.11 §11.4.2.1.1).
pub fn tkip_key_prefix(tsc0: u8, tsc1: u8) -> [u8; 3] {
    [tsc1, (tsc1 | 0x20) & 0x7f, tsc0]
}

/// Per-TSC-class single-byte keystream statistics.
///
/// `counts[class][pos][value]` (flattened) counts how often keystream byte
/// `Z_{pos+1}` equalled `value` for keys whose TSC fell in `class`.
#[derive(Debug, Clone)]
pub struct PerTscDataset {
    conditioning: TscConditioning,
    positions: usize,
    keystreams: u64,
    /// Keystreams recorded per class.
    class_keystreams: Vec<u64>,
    counts: Vec<u64>,
}

impl PerTscDataset {
    /// Creates an empty per-TSC dataset covering positions `1..=positions`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if `positions == 0`, or if the
    /// requested shape would exceed
    /// [`MAX_CELLS`](crate::storable::MAX_CELLS) counters (guarding against
    /// accidental paper-scale allocations in tests).
    pub fn new(conditioning: TscConditioning, positions: usize) -> Result<Self, DatasetError> {
        Self::empty_with_shape(&[conditioning.code(), positions as u64])
    }

    /// The shape check: parses `[conditioning, positions]` and returns it
    /// with the number of cells.
    fn check_shape(params: &[u64]) -> Result<(TscConditioning, usize, usize), DatasetError> {
        let [cond, positions] = params else {
            return Err(DatasetError::ShapeMismatch(format!(
                "per-TSC shape needs 2 parameters, got {}",
                params.len()
            )));
        };
        let conditioning = match cond {
            0 => TscConditioning::Tsc1,
            1 => TscConditioning::Tsc0Tsc1,
            other => {
                return Err(DatasetError::ShapeMismatch(format!(
                    "unknown TSC conditioning code {other} (expected 0 or 1)"
                )))
            }
        };
        if *positions == 0 {
            return Err(DatasetError::InvalidConfig("positions must be > 0".into()));
        }
        // Per-class count tables + per-class keystream totals.
        let classes = conditioning.classes() as u64;
        let cells = positions
            .checked_mul(classes * NUM_VALUES as u64)
            .and_then(|counts| counts.checked_add(classes));
        let cells = bounded_cells(Self::kind(), cells)?;
        Ok((conditioning, *positions as usize, cells))
    }

    /// The conditioning mode of this dataset.
    pub fn conditioning(&self) -> TscConditioning {
        self.conditioning
    }

    /// Number of covered positions.
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// Records one keystream generated under the given TSC bytes.
    pub fn record(&mut self, tsc0: u8, tsc1: u8, keystream: &[u8]) {
        debug_assert!(keystream.len() >= self.positions);
        let class = self.conditioning.class_of(tsc0, tsc1);
        let base = class * self.positions * NUM_VALUES;
        for (idx, &z) in keystream.iter().take(self.positions).enumerate() {
            self.counts[base + idx * NUM_VALUES + z as usize] += 1;
        }
        self.class_keystreams[class] += 1;
        self.keystreams += 1;
    }

    /// Raw count of `Z_r = value` within a TSC class.
    pub fn count(&self, class: usize, r: usize, value: u8) -> u64 {
        assert!(r >= 1 && r <= self.positions, "position {r} out of range");
        let base = class * self.positions * NUM_VALUES;
        self.counts[base + (r - 1) * NUM_VALUES + value as usize]
    }

    /// Number of keystreams recorded in a TSC class.
    pub fn class_keystreams(&self, class: usize) -> u64 {
        self.class_keystreams[class]
    }

    /// Empirical keystream distribution of `Z_r` conditioned on the TSC class.
    ///
    /// Falls back to the uniform distribution when the class has no samples,
    /// so likelihood code never divides by zero on an unobserved class.
    pub fn distribution(&self, class: usize, r: usize) -> Vec<f64> {
        let n = self.class_keystreams[class];
        if n == 0 {
            return vec![1.0 / NUM_VALUES as f64; NUM_VALUES];
        }
        let base = class * self.positions * NUM_VALUES + (r - 1) * NUM_VALUES;
        self.counts[base..base + NUM_VALUES]
            .iter()
            .map(|&c| c as f64 / n as f64)
            .collect()
    }
}

impl StorableDataset for PerTscDataset {
    fn kind() -> &'static str {
        "per-tsc"
    }

    /// Shape is `[conditioning, positions]` with `conditioning` encoded as
    /// `0 = Tsc1`, `1 = Tsc0Tsc1`.
    fn shape_params(&self) -> Vec<u64> {
        vec![self.conditioning.code(), self.positions as u64]
    }

    fn empty_with_shape(params: &[u64]) -> Result<Self, DatasetError> {
        let (conditioning, positions, cells) = Self::check_shape(params)?;
        let classes = conditioning.classes();
        Ok(Self {
            conditioning,
            positions,
            keystreams: 0,
            class_keystreams: vec![0u64; classes],
            counts: vec![0u64; cells - classes],
        })
    }

    fn cell_count_for_shape(params: &[u64]) -> Result<u64, DatasetError> {
        Self::check_shape(params).map(|(_, _, cells)| cells as u64)
    }

    /// Cells are the per-class count tables followed by the per-class
    /// keystream totals.
    fn cell_slices(&self) -> Vec<&[u64]> {
        vec![&self.counts, &self.class_keystreams]
    }

    fn cell_slices_mut(&mut self) -> Vec<&mut [u64]> {
        let Self {
            counts,
            class_keystreams,
            ..
        } = self;
        vec![counts.as_mut_slice(), class_keystreams.as_mut_slice()]
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

    /// One TKIP-structured key: uniform key material, a uniformly drawn TSC
    /// pair, the public 3-byte prefix. The TSC pair travels to
    /// [`StorableDataset::record_stream`] as the metadata word
    /// (`tsc0 | tsc1 << 8`). In-memory generation and the store's
    /// shard-generation engine both draw keys through this, so they observe
    /// identical key sequences.
    fn prepare_next(&self, gen: &mut KeyGenerator, key: &mut [u8]) -> u64 {
        gen.fill_key(key);
        let tsc0 = gen.next_below(256) as u8;
        let tsc1 = gen.next_below(256) as u8;
        key[..3].copy_from_slice(&tkip_key_prefix(tsc0, tsc1));
        u64::from(tsc0) | (u64::from(tsc1) << 8)
    }

    fn record_stream(&mut self, meta: u64, ks: &[u8]) {
        self.record(meta as u8, (meta >> 8) as u8, ks);
    }

    fn skip_next(&self, gen: &mut KeyGenerator, key: &mut [u8]) {
        gen.fill_key(key);
        let _ = gen.next_below(256);
        let _ = gen.next_below(256);
    }

    /// TKIP keys carry a 3-byte public prefix, so `record_next` needs
    /// `key_len >= 3`.
    fn validate_config(&self, config: &GenerationConfig) -> Result<(), DatasetError> {
        config.validate()?;
        if config.key_len < 3 {
            return Err(DatasetError::InvalidConfig(
                "TKIP keys must be at least 3 bytes".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pre_set_cancel_flag_aborts_generation() {
        let cancel = std::sync::atomic::AtomicBool::new(true);
        let mut ds = PerTscDataset::new(TscConditioning::Tsc1, 8).unwrap();
        let result = crate::generate_storable_with_exec(
            &mut ds,
            &GenerationConfig::with_keys(1_000_000),
            &rc4_exec::Executor::serial().with_cancel(Some(&cancel)),
        );
        assert!(matches!(result, Err(DatasetError::Cancelled)));
    }

    #[test]
    fn key_prefix_matches_spec() {
        assert_eq!(tkip_key_prefix(0x34, 0x12), [0x12, 0x32, 0x34]);
        // K1 = (TSC1 | 0x20) & 0x7f clears the top bit and sets bit 5.
        assert_eq!(tkip_key_prefix(0x00, 0xFF), [0xFF, 0x7F, 0x00]);
        assert_eq!(tkip_key_prefix(0xAB, 0x80), [0x80, 0x20, 0xAB]);
    }

    #[test]
    fn conditioning_classes() {
        assert_eq!(TscConditioning::Tsc1.classes(), 256);
        assert_eq!(TscConditioning::Tsc0Tsc1.classes(), 65536);
        assert_eq!(TscConditioning::Tsc1.class_of(0x12, 0x34), 0x34);
        assert_eq!(TscConditioning::Tsc0Tsc1.class_of(0x12, 0x34), 0x3412);
    }

    #[test]
    fn record_and_distribution() {
        let mut ds = PerTscDataset::new(TscConditioning::Tsc1, 4).unwrap();
        ds.record(0x00, 0x05, &[1, 2, 3, 4]);
        ds.record(0x01, 0x05, &[1, 2, 3, 5]);
        ds.record(0x00, 0x06, &[9, 9, 9, 9]);
        assert_eq!(ds.count(0x05, 1, 1), 2);
        assert_eq!(ds.count(0x06, 1, 9), 1);
        assert_eq!(ds.class_keystreams(0x05), 2);
        let dist = ds.distribution(0x05, 4);
        assert!((dist[4] - 0.5).abs() < 1e-12);
        assert!((dist[5] - 0.5).abs() < 1e-12);
        // Unobserved class falls back to uniform.
        let uniform = ds.distribution(0x44, 1);
        assert!((uniform[17] - 1.0 / 256.0).abs() < 1e-15);
    }

    #[test]
    fn shape_guard() {
        assert!(PerTscDataset::new(TscConditioning::Tsc1, 0).is_err());
        // 65536 classes * 200000 positions would exceed the guard.
        assert!(PerTscDataset::new(TscConditioning::Tsc0Tsc1, 200_000).is_err());
    }

    #[test]
    fn generate_small_dataset_shows_tkip_structure() {
        // With the TKIP key prefix, keystream byte 1 is strongly biased per class;
        // just verify generation runs and records into multiple classes.
        let config = GenerationConfig::with_keys(2_000).seed(7);
        let mut ds = PerTscDataset::new(TscConditioning::Tsc1, 8).unwrap();
        crate::generate_storable_with_exec(&mut ds, &config, &rc4_exec::Executor::serial())
            .unwrap();
        assert_eq!(ds.recorded_keystreams(), 2_000);
        let populated = (0..256).filter(|&c| ds.class_keystreams(c) > 0).count();
        assert!(populated > 200, "only {populated} TSC classes populated");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PerTscDataset::new(TscConditioning::Tsc1, 2).unwrap();
        let mut b = PerTscDataset::new(TscConditioning::Tsc1, 2).unwrap();
        a.record(0, 0, &[1, 1]);
        b.record(0, 0, &[1, 2]);
        a.merge_same_shape(b).unwrap();
        assert_eq!(a.count(0, 1, 1), 2);
        assert_eq!(a.class_keystreams(0), 2);
        assert_eq!(a.recorded_keystreams(), 2);

        let mismatch = PerTscDataset::new(TscConditioning::Tsc1, 4).unwrap();
        assert!(a.merge_same_shape(mismatch).is_err());
    }
}
