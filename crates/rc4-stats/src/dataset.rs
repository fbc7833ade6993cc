//! Common dataset abstractions: the generation configuration and error type
//! shared by every dataset.

use serde::{Deserialize, Serialize};

/// Errors produced while generating or loading keystream datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// A configuration value is invalid (zero keys, zero positions, ...).
    InvalidConfig(String),
    /// Two datasets with incompatible shapes were combined.
    ShapeMismatch(String),
    /// Serialization or deserialization failed.
    Serialization(String),
    /// A file operation failed. The message names the path involved.
    Io(String),
    /// An on-disk dataset failed validation (bad magic, unsupported format
    /// version, truncation, CRC mismatch, inconsistent header). The message
    /// names the path involved.
    Corrupt(String),
    /// Generation was cancelled through a cooperative cancellation flag before
    /// it completed; any partially-filled dataset must be discarded.
    Cancelled,
}

impl DatasetError {
    /// An [`DatasetError::Io`] that names the offending path.
    pub fn io(path: &std::path::Path, err: impl core::fmt::Display) -> Self {
        DatasetError::Io(format!("{}: {err}", path.display()))
    }

    /// A [`DatasetError::Corrupt`] that names the offending path.
    pub fn corrupt(path: &std::path::Path, what: impl core::fmt::Display) -> Self {
        DatasetError::Corrupt(format!("{}: {what}", path.display()))
    }
}

impl core::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DatasetError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DatasetError::ShapeMismatch(msg) => write!(f, "dataset shape mismatch: {msg}"),
            DatasetError::Serialization(msg) => write!(f, "serialization error: {msg}"),
            DatasetError::Io(msg) => write!(f, "I/O error: {msg}"),
            DatasetError::Corrupt(msg) => write!(f, "corrupt dataset: {msg}"),
            DatasetError::Cancelled => write!(f, "generation cancelled"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// Executor outcomes fold back into the dataset error model: a cancelled
/// parallel call IS a cancelled generation, and a task failure surfaces as
/// the task's own `DatasetError`.
impl From<rc4_exec::ExecError<DatasetError>> for DatasetError {
    fn from(e: rc4_exec::ExecError<DatasetError>) -> Self {
        match e {
            rc4_exec::ExecError::Cancelled => DatasetError::Cancelled,
            rc4_exec::ExecError::Task { error, .. } => error,
        }
    }
}

/// Configuration for a keystream generation run.
///
/// The defaults are laptop-scale (a few seconds); the paper-scale values are
/// documented on each field so benchmarks can opt into larger sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenerationConfig {
    /// Number of random RC4 keys (keystreams) to generate.
    ///
    /// Paper scale: `2^44` for `first16`, `2^45` for `consec512`, `2^47` for
    /// the aggregated single-byte statistics.
    pub keys: u64,
    /// Number of logical key streams the key space is split into (the
    /// paper's roughly 80 machines each drew their own keys). A shape
    /// parameter, part of the dataset's identity: changing it changes the
    /// keys drawn. Threads come from the [`rc4_exec::Executor`] the walker
    /// runs on and never change a cell.
    pub workers: usize,
    /// Master seed. Each worker derives an independent deterministic stream
    /// from `(seed, worker_index)`, so results are reproducible for a fixed
    /// configuration.
    pub seed: u64,
    /// RC4 key length in bytes. All paper datasets use 16-byte (128-bit) keys,
    /// which is also what TLS and TKIP use.
    pub key_len: usize,
}

impl Default for GenerationConfig {
    fn default() -> Self {
        Self {
            keys: 1 << 18,
            workers: 1,
            seed: 0x05EE_D0FA_C4B1_A5E5,
            key_len: 16,
        }
    }
}

impl GenerationConfig {
    /// Creates a config generating `keys` keystreams with the default seed and key length.
    pub fn with_keys(keys: u64) -> Self {
        Self {
            keys,
            ..Self::default()
        }
    }

    /// Sets the number of logical key streams (a shape parameter, not a
    /// thread count; see the `workers` field).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of keys logical worker `w` contributes: an even split with the
    /// first `keys % workers` workers taking one extra key.
    ///
    /// This is THE key-space partition rule — in-memory generation
    /// ([`crate::generate_storable_with_exec`]) and the on-disk store
    /// (`rc4-store`) both use it, so
    /// a shard merged from per-worker files is cell-for-cell identical to an
    /// uninterrupted in-memory run.
    pub fn keys_for_worker(&self, w: u64) -> u64 {
        let per_worker = self.keys / self.workers as u64;
        let remainder = self.keys % self.workers as u64;
        per_worker + u64::from(w < remainder)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if any field is zero or the key
    /// length is outside RC4's legal range.
    pub fn validate(&self) -> Result<(), DatasetError> {
        if self.keys == 0 {
            return Err(DatasetError::InvalidConfig("keys must be > 0".into()));
        }
        if self.workers == 0 {
            return Err(DatasetError::InvalidConfig("workers must be > 0".into()));
        }
        if self.key_len == 0 || self.key_len > 256 {
            return Err(DatasetError::InvalidConfig(format!(
                "key_len {} outside 1..=256",
                self.key_len
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(GenerationConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_detected() {
        assert!(GenerationConfig::with_keys(0).validate().is_err());
        assert!(GenerationConfig::default().workers(0).validate().is_err());
        let c = GenerationConfig {
            key_len: 0,
            ..GenerationConfig::default()
        };
        assert!(c.validate().is_err());
        let c = GenerationConfig {
            key_len: 300,
            ..GenerationConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_methods_chain() {
        let c = GenerationConfig::with_keys(1000).workers(4).seed(42);
        assert_eq!(c.keys, 1000);
        assert_eq!(c.workers, 4);
        assert_eq!(c.seed, 42);
        assert_eq!(c.key_len, 16);
    }

    #[test]
    fn error_display() {
        let e = DatasetError::ShapeMismatch("256 vs 512 positions".into());
        assert!(e.to_string().contains("256 vs 512"));
    }
}
