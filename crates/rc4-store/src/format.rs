//! The on-disk shard format: constants, the JSON header, and the key-space
//! partition it describes.
//!
//! A shard file is laid out as:
//!
//! ```text
//! offset 0   magic              8 bytes   b"RC4DSET\0"
//! offset 8   format version     u32 LE    1 (raw) or 2 (compressed)
//! offset 12  header length      u32 LE    byte length of the JSON header
//! offset 16  header             JSON      [`ShardHeader`]
//! ...        cells              header.cells cells, encoding per version
//! ...        CRC-32             u32 LE    IEEE CRC over all preceding bytes
//! ```
//!
//! The format version selects the cell encoding
//! ([`crate::codec::CellEncoding`]): version 1 stores each cell as 8
//! little-endian bytes, version 2 stores consecutive-cell deltas as
//! zigzag+LEB128 varints (typically 3-6x smaller for real count tables).
//! The normative byte-level specification lives in `docs/shard-format.md`
//! at the repository root — that file states the exact rules; this module
//! is their implementation.
//!
//! **Versioning policy:** readers accept every version they know how to
//! decode — currently 1 and 2 — so files written by older builds stay
//! readable forever. Writers emit the *lowest* version that can represent
//! the file (raw cells → 1, compressed cells → 2), so downgrading a reader
//! only loses access to files that actually use the newer encoding. Any
//! future layout or header-semantics change adds a new version constant;
//! unknown versions surface as [`DatasetError::Corrupt`] naming both the
//! found and the supported versions so files are never silently misread.

use serde::{Deserialize, Serialize};

use rc4_stats::{DatasetError, GenerationConfig};

/// File magic identifying an rc4-store dataset shard.
pub const MAGIC: [u8; 8] = *b"RC4DSET\0";

/// On-disk format version 1: cells stored as raw `u64` little-endian.
///
/// Still the default for fresh writes — raw cells are what the
/// byte-identity contracts (cache hits, worker-invariance, campaign merges)
/// are pinned against.
pub const FORMAT_VERSION: u32 = 1;

/// On-disk format version 2: cells stored delta+varint compressed
/// ([`crate::codec::CellEncoding::DeltaVarint`]). Readers accept both
/// versions; writers emit 2 only when compression is requested.
pub const FORMAT_VERSION_COMPRESSED: u32 = 2;

/// Byte length of the fixed preamble (magic + version + header length).
pub const PREAMBLE_LEN: usize = 16;

/// Upper bound on the JSON header's byte length. Real headers are a few
/// hundred bytes to a few hundred KiB (the progress vector dominates for
/// many-worker configurations); the bound keeps a corrupt or hostile
/// header-length field from driving a multi-GiB allocation before
/// validation can reject the file.
pub const MAX_HEADER_LEN: usize = 16 << 20;

/// The JSON header of a shard file.
///
/// A shard holds the contribution of the contiguous logical-worker range
/// `worker_lo..worker_hi` of the master configuration `config`. Worker `w`
/// deterministically derives its own key stream from `(config.seed, w)`, so
/// disjoint worker ranges are seed-disjoint by construction and merging every
/// range of a configuration reproduces the full dataset exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardHeader {
    /// Dataset kind tag ([`rc4_stats::StorableDataset::kind`]).
    pub kind: String,
    /// The *master* generation configuration this shard contributes to.
    pub config: GenerationConfig,
    /// Dataset shape descriptor ([`rc4_stats::StorableDataset::shape_params`]).
    pub shape: Vec<u64>,
    /// First logical worker index covered by this shard.
    pub worker_lo: u64,
    /// One past the last logical worker index covered.
    pub worker_hi: u64,
    /// Keys generated so far per covered worker (`worker_hi - worker_lo`
    /// entries). Updated on every checkpoint; resume continues each worker
    /// stream from exactly this position.
    pub progress: Vec<u64>,
    /// Number of `u64` counter cells following the header.
    pub cells: u64,
}

impl ShardHeader {
    /// Creates a fresh (zero-progress) header for a worker range.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] when the configuration is
    /// invalid or the worker range does not fit it.
    pub fn new(
        kind: &str,
        config: GenerationConfig,
        shape: Vec<u64>,
        worker_lo: u64,
        worker_hi: u64,
        cells: u64,
    ) -> Result<Self, DatasetError> {
        config.validate()?;
        if worker_lo >= worker_hi || worker_hi > config.workers as u64 {
            return Err(DatasetError::InvalidConfig(format!(
                "worker range {worker_lo}..{worker_hi} does not fit a {}-worker configuration",
                config.workers
            )));
        }
        Ok(Self {
            kind: kind.to_string(),
            config,
            shape,
            worker_lo,
            worker_hi,
            progress: vec![0; (worker_hi - worker_lo) as usize],
            cells,
        })
    }

    /// Total keys this shard will contain when complete.
    pub fn keys_total(&self) -> u64 {
        (self.worker_lo..self.worker_hi)
            .map(|w| self.config.keys_for_worker(w))
            .sum()
    }

    /// Keys generated so far.
    pub fn keys_done(&self) -> u64 {
        self.progress.iter().sum()
    }

    /// Whether every covered worker has generated its full allotment.
    pub fn is_complete(&self) -> bool {
        self.progress
            .iter()
            .enumerate()
            .all(|(i, &done)| done == self.config.keys_for_worker(self.worker_lo + i as u64))
    }

    /// Keys remaining for the covered worker at offset `i` into the range.
    pub fn remaining_for(&self, i: usize) -> u64 {
        self.config.keys_for_worker(self.worker_lo + i as u64) - self.progress[i]
    }

    /// Internal-consistency check applied to every header read from disk.
    ///
    /// # Errors
    ///
    /// Returns a [`DatasetError::Corrupt`] naming `path` when the header
    /// contradicts itself.
    pub fn validate(&self, path: &std::path::Path) -> Result<(), DatasetError> {
        self.config
            .validate()
            .map_err(|e| DatasetError::corrupt(path, format!("invalid stored config: {e}")))?;
        if self.worker_lo >= self.worker_hi || self.worker_hi > self.config.workers as u64 {
            return Err(DatasetError::corrupt(
                path,
                format!(
                    "worker range {}..{} does not fit a {}-worker configuration",
                    self.worker_lo, self.worker_hi, self.config.workers
                ),
            ));
        }
        if self.progress.len() as u64 != self.worker_hi - self.worker_lo {
            return Err(DatasetError::corrupt(
                path,
                format!(
                    "progress has {} entries for a {}-worker range",
                    self.progress.len(),
                    self.worker_hi - self.worker_lo
                ),
            ));
        }
        for (i, &done) in self.progress.iter().enumerate() {
            let total = self.config.keys_for_worker(self.worker_lo + i as u64);
            if done > total {
                return Err(DatasetError::corrupt(
                    path,
                    format!(
                        "worker {} progress {done} exceeds its {total}-key allotment",
                        self.worker_lo + i as u64
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> GenerationConfig {
        GenerationConfig::with_keys(10).workers(3)
    }

    #[test]
    fn worker_split_matches_pool_rule() {
        // 10 keys over 3 workers: 4 + 3 + 3.
        assert_eq!(config().keys_for_worker(0), 4);
        assert_eq!(config().keys_for_worker(1), 3);
        assert_eq!(config().keys_for_worker(2), 3);
    }

    #[test]
    fn header_totals_and_completion() {
        let mut h = ShardHeader::new("single", config(), vec![4], 1, 3, 1024).unwrap();
        assert_eq!(h.keys_total(), 6);
        assert_eq!(h.keys_done(), 0);
        assert!(!h.is_complete());
        h.progress = vec![3, 3];
        assert!(h.is_complete());
        assert_eq!(h.remaining_for(0), 0);
    }

    #[test]
    fn bad_worker_ranges_rejected() {
        assert!(ShardHeader::new("single", config(), vec![4], 2, 2, 1).is_err());
        assert!(ShardHeader::new("single", config(), vec![4], 0, 4, 1).is_err());
    }

    #[test]
    fn validate_flags_inconsistent_progress() {
        let path = std::path::Path::new("x.ds");
        let mut h = ShardHeader::new("single", config(), vec![4], 0, 1, 1).unwrap();
        h.progress = vec![99];
        assert!(matches!(
            h.validate(path),
            Err(DatasetError::Corrupt(msg)) if msg.contains("x.ds") && msg.contains("allotment")
        ));
        h.progress = vec![1, 1];
        assert!(matches!(h.validate(path), Err(DatasetError::Corrupt(_))));
    }

    #[test]
    fn header_serde_roundtrip() {
        let h = ShardHeader::new("pairs", config(), vec![1, 2, 5, 6], 0, 3, 131072).unwrap();
        let json = serde_json::to_string(&h).unwrap();
        let back: ShardHeader = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
