//! The load-or-generate dataset cache.
//!
//! A cache directory holds complete shard files. Lookups are keyed by the
//! triple `(kind, shape, GenerationConfig)` — everything that determines a
//! dataset's contents — hashed with SHA-256 into a canonical file name, so a
//! *hit is guaranteed to hold exactly the counts a fresh generation with that
//! configuration would produce* (the file's header is additionally compared
//! field-for-field against the request; the hash only names the file).
//!
//! Files that were produced by `dataset merge` under an arbitrary name are
//! found by a fallback scan over `*.ds` files in the directory, comparing
//! headers. Foreign files (bad magic, other versions) are skipped during the
//! scan; a *matching* file that fails full validation (e.g. CRC mismatch)
//! surfaces as a typed error instead of being silently regenerated, so cache
//! corruption is noticed rather than papered over.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crypto_prims::{sha256::Sha256, to_hex, Digest};
use rc4_stats::{DatasetError, GenerationConfig, StorableDataset};

use crate::codec::CellEncoding;
use crate::format::ShardHeader;
use crate::shard::{peek_shard, read_shard, write_shard_with};

/// A directory of complete, reusable dataset shards.
#[derive(Debug, Clone)]
pub struct DatasetCache {
    dir: PathBuf,
}

impl DatasetCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, DatasetError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| DatasetError::io(&dir, e))?;
        Ok(Self { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cache key for a `(kind, shape, config)` triple: the first 16 hex
    /// characters of a SHA-256 over a canonical byte encoding.
    pub fn cache_key(kind: &str, shape: &[u64], config: &GenerationConfig) -> String {
        let mut hasher = Sha256::new();
        hasher.update(kind.as_bytes());
        hasher.update(&[0]);
        hasher.update(&(shape.len() as u64).to_le_bytes());
        for &s in shape {
            hasher.update(&s.to_le_bytes());
        }
        hasher.update(&config.keys.to_le_bytes());
        hasher.update(&(config.workers as u64).to_le_bytes());
        hasher.update(&config.seed.to_le_bytes());
        hasher.update(&(config.key_len as u64).to_le_bytes());
        to_hex(&hasher.finalize()[..8])
    }

    /// The canonical path a dataset of this key is stored under.
    pub fn canonical_path(&self, kind: &str, shape: &[u64], config: &GenerationConfig) -> PathBuf {
        self.dir.join(format!(
            "{kind}-{}.ds",
            Self::cache_key(kind, shape, config)
        ))
    }

    /// Whether `header` is exactly the complete dataset `(kind, shape,
    /// config)` describes.
    fn matches<D: StorableDataset>(
        header: &ShardHeader,
        shape: &[u64],
        config: &GenerationConfig,
    ) -> bool {
        header.kind == D::kind()
            && header.shape == shape
            && header.config == *config
            && header.worker_lo == 0
            && header.worker_hi == config.workers as u64
            && header.is_complete()
    }

    /// Looks up the complete dataset for `(D, shape, config)`.
    ///
    /// Returns `Ok(None)` on a miss. The canonical file name is tried first;
    /// otherwise every `*.ds` file in the directory is header-scanned, so
    /// merged masters dropped into the cache under any name are found.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Corrupt`] when a file that matches the request
    /// fails validation (truncation, CRC mismatch, header inconsistency) —
    /// never silently ignores a damaged matching entry — and
    /// [`DatasetError::Io`] on directory-read failures.
    pub fn load<D: StorableDataset>(
        &self,
        shape: &[u64],
        config: &GenerationConfig,
    ) -> Result<Option<D>, DatasetError> {
        let _span = rc4_obs::Span::enter_with(
            "store.load",
            rc4_obs::kv! {
                "kind" => D::kind(),
                "keys" => config.keys,
            },
        );
        let read_start = rc4_obs::metrics::is_enabled().then(Instant::now);
        let hit = |path: &Path, dataset: D| {
            if let Some(start) = read_start {
                rc4_obs::metrics::counter_add("store.cache.hit", 1);
                rc4_obs::metrics::counter_add(
                    "store.read_bytes",
                    std::fs::metadata(path).map_or(0, |m| m.len()),
                );
                rc4_obs::metrics::observe_us("store.read_us", start.elapsed().as_micros() as u64);
            }
            Ok(Some(dataset))
        };
        let canonical = self.canonical_path(D::kind(), shape, config);
        if canonical.exists() {
            let shard = read_shard::<D>(&canonical)?;
            if !Self::matches::<D>(&shard.header, shape, config) {
                return Err(DatasetError::corrupt(
                    &canonical,
                    "cache entry does not match the requested dataset \
                     (foreign file under a canonical cache name?)",
                ));
            }
            return hit(&canonical, shard.dataset);
        }
        let entries = std::fs::read_dir(&self.dir).map_err(|e| DatasetError::io(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| DatasetError::io(&self.dir, e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("ds") {
                continue;
            }
            // Foreign or unreadable headers just mean "not a hit".
            let Ok((header, _)) = peek_shard(&path) else {
                continue;
            };
            if Self::matches::<D>(&header, shape, config) {
                let shard = read_shard::<D>(&path)?;
                return hit(&path, shard.dataset);
            }
        }
        rc4_obs::metrics::counter_add("store.cache.miss", 1);
        Ok(None)
    }

    /// Stores a freshly generated complete dataset under its canonical name,
    /// returning the path written.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] when the dataset does not hold
    /// exactly `config.keys` keystreams (a partial dataset must never enter
    /// the cache) and [`DatasetError::Io`] on write failures.
    pub fn store<D: StorableDataset>(
        &self,
        dataset: &D,
        config: &GenerationConfig,
    ) -> Result<PathBuf, DatasetError> {
        if dataset.recorded_keystreams() != config.keys {
            return Err(DatasetError::InvalidConfig(format!(
                "refusing to cache a partial dataset ({} of {} keystreams)",
                dataset.recorded_keystreams(),
                config.keys
            )));
        }
        let shape = dataset.shape_params();
        let mut header = ShardHeader::new(
            D::kind(),
            *config,
            shape.clone(),
            0,
            config.workers as u64,
            dataset.cell_count() as u64,
        )?;
        header.progress = (0..config.workers as u64)
            .map(|w| config.keys_for_worker(w))
            .collect();
        let path = self.canonical_path(D::kind(), &shape, config);
        let _span = rc4_obs::Span::enter_with(
            "store.store",
            rc4_obs::kv! {
                "kind" => D::kind(),
                "keys" => config.keys,
            },
        );
        let write_start = rc4_obs::metrics::is_enabled().then(Instant::now);
        // Write through a unique temp name and rename (write_shard_with
        // already does); overwriting an existing entry with identical
        // contents is harmless.
        write_shard_with(&path, &header, dataset, CellEncoding::Raw)?;
        if let Some(start) = write_start {
            rc4_obs::metrics::counter_add("store.cache.stored", 1);
            rc4_obs::metrics::counter_add(
                "store.write_bytes",
                std::fs::metadata(&path).map_or(0, |m| m.len()),
            );
            rc4_obs::metrics::observe_us("store.write_us", start.elapsed().as_micros() as u64);
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc4_stats::{generate_storable_with_exec, single::SingleByteDataset};

    fn temp_cache(name: &str) -> DatasetCache {
        let dir =
            std::env::temp_dir().join(format!("rc4-store-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DatasetCache::open(dir).unwrap()
    }

    fn generated(config: &GenerationConfig) -> SingleByteDataset {
        let mut ds = SingleByteDataset::new(4);
        generate_storable_with_exec(&mut ds, config, &rc4_exec::Executor::serial()).unwrap();
        ds
    }

    #[test]
    fn store_then_load_hits_and_matches() {
        let cache = temp_cache("hit");
        let config = GenerationConfig::with_keys(500).seed(9);
        let ds = generated(&config);
        let path = cache.store(&ds, &config).unwrap();
        assert!(path.exists());

        let hit: Option<SingleByteDataset> = cache.load(&ds.shape_params(), &config).unwrap();
        let hit = hit.expect("canonical hit");
        assert_eq!(hit.counts_at(2), ds.counts_at(2));
        assert_eq!(hit.recorded_keystreams(), 500);

        // Different seed, shape or kind => miss.
        let other = GenerationConfig::with_keys(500).seed(10);
        assert!(cache
            .load::<SingleByteDataset>(&ds.shape_params(), &other)
            .unwrap()
            .is_none());
        assert!(cache
            .load::<SingleByteDataset>(&[8], &config)
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn scan_finds_merged_masters_under_any_name() {
        let cache = temp_cache("scan");
        let config = GenerationConfig::with_keys(300).seed(3);
        let ds = generated(&config);
        let canonical = cache.store(&ds, &config).unwrap();
        let renamed = cache.dir().join("master-from-merge.ds");
        std::fs::rename(&canonical, &renamed).unwrap();

        let hit: Option<SingleByteDataset> = cache.load(&ds.shape_params(), &config).unwrap();
        assert!(hit.is_some(), "scan should find the renamed entry");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn partial_datasets_are_refused() {
        let cache = temp_cache("partial");
        let config = GenerationConfig::with_keys(1000).seed(3);
        let short = generated(&GenerationConfig::with_keys(10).seed(3));
        assert!(matches!(
            cache.store(&short, &config),
            Err(DatasetError::InvalidConfig(msg)) if msg.contains("partial")
        ));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_matching_entry_is_an_error_not_a_miss() {
        let cache = temp_cache("corrupt");
        let config = GenerationConfig::with_keys(200).seed(4);
        let ds = generated(&config);
        let path = cache.store(&ds, &config).unwrap();
        // Flip one byte in the cell area.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            cache.load::<SingleByteDataset>(&ds.shape_params(), &config),
            Err(DatasetError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn foreign_files_are_skipped_by_the_scan() {
        let cache = temp_cache("foreign");
        std::fs::write(cache.dir().join("notes.ds"), b"not a shard").unwrap();
        std::fs::write(cache.dir().join("readme.txt"), b"hello").unwrap();
        let config = GenerationConfig::with_keys(100).seed(5);
        let miss: Option<SingleByteDataset> = cache.load(&[4], &config).unwrap();
        assert!(miss.is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
