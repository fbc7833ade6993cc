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
//!
//! In front of the directory sits a memory tier: datasets decoded by a
//! successful file load stay resident behind [`Arc`], keyed by
//! [`DatasetCache::cache_key`] and shared by every clone of the cache, up to
//! [`MEMORY_TIER_BUDGET_BYTES`] (least recently used entries are evicted
//! first; a larger dataset is always read from its file). A resident entry
//! is handed out only while one `stat` of its source file still shows the
//! length and modification time it had when it was read; otherwise the
//! entry is dropped and the file is read and validated again. A memory hit
//! is therefore the validated decode of an unchanged file. [`DatasetCache::store`]
//! does not populate the tier.

use std::any::Any;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

use crypto_prims::{sha256::Sha256, to_hex, Digest};
use rc4_stats::{DatasetError, GenerationConfig, StorableDataset};

use crate::codec::CellEncoding;
use crate::format::ShardHeader;
use crate::shard::{peek_shard, read_shard, write_shard_with};

/// Decoded bytes the memory tier of a [`DatasetCache`] keeps resident.
pub const MEMORY_TIER_BUDGET_BYTES: u64 = 256 << 20;

/// A directory of complete, reusable dataset shards, with a memory tier of
/// recently loaded ones. Clones share the memory tier.
#[derive(Debug, Clone)]
pub struct DatasetCache {
    dir: PathBuf,
    memory: Arc<Mutex<MemoryTier>>,
}

/// The length and modification time of a file, as one `stat` shows them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileStamp {
    len: u64,
    modified: SystemTime,
}

impl FileStamp {
    fn of(path: &Path) -> Option<Self> {
        let meta = std::fs::metadata(path).ok()?;
        Some(Self {
            len: meta.len(),
            modified: meta.modified().ok()?,
        })
    }
}

/// One resident dataset and the file it was decoded from.
struct Resident {
    dataset: Arc<dyn Any + Send + Sync>,
    source: PathBuf,
    stamp: FileStamp,
    bytes: u64,
    last_used: u64,
}

/// Byte-budgeted LRU map from cache key to decoded dataset.
struct MemoryTier {
    budget: u64,
    resident: u64,
    clock: u64,
    entries: HashMap<String, Resident>,
}

impl std::fmt::Debug for MemoryTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryTier")
            .field("budget", &self.budget)
            .field("resident", &self.resident)
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl MemoryTier {
    fn new(budget: u64) -> Self {
        Self {
            budget,
            resident: 0,
            clock: 0,
            entries: HashMap::new(),
        }
    }

    /// The resident dataset under `key`, if its source file is unchanged;
    /// a stale or foreign-typed entry is dropped.
    fn get<D: Any + Send + Sync>(&mut self, key: &str) -> Option<Arc<D>> {
        let entry = self.entries.get_mut(key)?;
        let fresh = FileStamp::of(&entry.source) == Some(entry.stamp);
        if let (true, Ok(dataset)) = (fresh, Arc::clone(&entry.dataset).downcast::<D>()) {
            self.clock += 1;
            entry.last_used = self.clock;
            return Some(dataset);
        }
        self.remove(key);
        None
    }

    /// Makes `dataset` resident under `key`, evicting least recently used
    /// entries to stay within the budget; a dataset larger than the whole
    /// budget is not kept.
    fn insert(
        &mut self,
        key: String,
        dataset: Arc<dyn Any + Send + Sync>,
        source: PathBuf,
        stamp: FileStamp,
        bytes: u64,
    ) {
        self.remove(&key);
        if bytes > self.budget {
            return;
        }
        while self.resident + bytes > self.budget {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.remove(&oldest);
        }
        self.clock += 1;
        self.resident += bytes;
        self.entries.insert(
            key,
            Resident {
                dataset,
                source,
                stamp,
                bytes,
                last_used: self.clock,
            },
        );
    }

    fn remove(&mut self, key: &str) {
        if let Some(entry) = self.entries.remove(key) {
            self.resident -= entry.bytes;
        }
    }
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
        Ok(Self {
            dir,
            memory: Arc::new(Mutex::new(MemoryTier::new(MEMORY_TIER_BUDGET_BYTES))),
        })
    }

    fn memory(&self) -> std::sync::MutexGuard<'_, MemoryTier> {
        self.memory.lock().expect("memory tier lock poisoned")
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
    /// Returns `Ok(None)` on a miss. A resident entry of the memory tier
    /// whose source file is unchanged is returned without reading the file.
    /// Otherwise the canonical file name is tried first, then every `*.ds`
    /// file in the directory is header-scanned, so merged masters dropped
    /// into the cache under any name are found; a dataset read from a file
    /// becomes resident.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Corrupt`] when a file that matches the request
    /// fails validation (truncation, CRC mismatch, header inconsistency) —
    /// never silently ignores a damaged matching entry — and
    /// [`DatasetError::Io`] on directory-read failures.
    pub fn load<D: StorableDataset + Sync + 'static>(
        &self,
        shape: &[u64],
        config: &GenerationConfig,
    ) -> Result<Option<Arc<D>>, DatasetError> {
        let mut span = rc4_obs::Span::enter_with(
            "store.load",
            rc4_obs::kv! {
                "kind" => D::kind(),
                "keys" => config.keys,
            },
        );
        let key = Self::cache_key(D::kind(), shape, config);
        if let Some(dataset) = self.memory().get::<D>(&key) {
            span.record("tier", "memory");
            rc4_obs::metrics::counter_add("store.cache.hit", 1);
            rc4_obs::metrics::counter_add("store.cache.memory_hit", 1);
            return Ok(Some(dataset));
        }
        let read_start = rc4_obs::metrics::is_enabled().then(Instant::now);
        let hit = |path: &Path, stamp: Option<FileStamp>, dataset: D| {
            let bytes = dataset.cell_count() as u64 * 8;
            let dataset = Arc::new(dataset);
            if let Some(stamp) = stamp {
                self.memory()
                    .insert(key, dataset.clone(), path.to_path_buf(), stamp, bytes);
            }
            span.record("tier", "file");
            if let Some(start) = read_start {
                rc4_obs::metrics::counter_add("store.cache.hit", 1);
                rc4_obs::metrics::counter_add("store.read_bytes", stamp.map_or(0, |s| s.len));
                rc4_obs::metrics::observe_us("store.read_us", start.elapsed().as_micros() as u64);
            }
            Ok(Some(dataset))
        };
        let canonical = self.canonical_path(D::kind(), shape, config);
        if canonical.exists() {
            // Stamped before the read: a rewrite racing the read leaves a
            // stamp that no longer matches, so the entry is re-read later.
            let stamp = FileStamp::of(&canonical);
            let shard = read_shard::<D>(&canonical)?;
            if !Self::matches::<D>(&shard.header, shape, config) {
                return Err(DatasetError::corrupt(
                    &canonical,
                    "cache entry does not match the requested dataset \
                     (foreign file under a canonical cache name?)",
                ));
            }
            return hit(&canonical, stamp, shard.dataset);
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
                let stamp = FileStamp::of(&path);
                let shard = read_shard::<D>(&path)?;
                return hit(&path, stamp, shard.dataset);
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

        let hit: Option<Arc<SingleByteDataset>> = cache.load(&ds.shape_params(), &config).unwrap();
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

        let hit: Option<Arc<SingleByteDataset>> = cache.load(&ds.shape_params(), &config).unwrap();
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

    impl DatasetCache {
        /// The same cache with a fresh memory tier of `budget` bytes.
        fn with_memory_budget(mut self, budget: u64) -> Self {
            self.memory = Arc::new(Mutex::new(MemoryTier::new(budget)));
            self
        }
    }

    /// Flips one byte in the middle of `path` (inside the cells) and sets the
    /// file's modification time to `modified`, keeping its length.
    fn flip_cell_byte(path: &Path, modified: SystemTime) {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(path, &bytes).unwrap();
        let file = std::fs::File::options().write(true).open(path).unwrap();
        file.set_modified(modified).unwrap();
    }

    #[test]
    fn second_load_is_a_memory_hit_that_reads_no_file() {
        let cache = temp_cache("memory-hit");
        let config = GenerationConfig::with_keys(300).seed(6);
        let ds = generated(&config);
        let path = cache.store(&ds, &config).unwrap();
        assert!(
            cache.memory().entries.is_empty(),
            "store must not populate the tier"
        );

        let first: Arc<SingleByteDataset> =
            cache.load(&ds.shape_params(), &config).unwrap().unwrap();
        // Damage the file but keep its length and modification time: a load
        // that read the file would fail its CRC check.
        let stamp = FileStamp::of(&path).unwrap();
        flip_cell_byte(&path, stamp.modified);
        assert_eq!(FileStamp::of(&path), Some(stamp));
        let second: Arc<SingleByteDataset> = cache
            .clone()
            .load(&ds.shape_params(), &config)
            .unwrap()
            .expect("memory hit");
        assert!(
            Arc::ptr_eq(&first, &second),
            "clones share one resident copy"
        );
        assert_eq!(second.counts_at(2), ds.counts_at(2));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn rewritten_file_after_a_memory_hit_is_read_and_rejected() {
        let cache = temp_cache("memory-stale");
        let config = GenerationConfig::with_keys(200).seed(8);
        let ds = generated(&config);
        let path = cache.store(&ds, &config).unwrap();
        let first = cache
            .load::<SingleByteDataset>(&ds.shape_params(), &config)
            .unwrap()
            .unwrap();
        let second = cache
            .load::<SingleByteDataset>(&ds.shape_params(), &config)
            .unwrap()
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        // Same length, one flipped cell byte, a new modification time.
        let stamp = FileStamp::of(&path).unwrap();
        flip_cell_byte(&path, stamp.modified + std::time::Duration::from_secs(1));
        assert!(matches!(
            cache.load::<SingleByteDataset>(&ds.shape_params(), &config),
            Err(DatasetError::Corrupt(_))
        ));
        assert!(
            cache.memory().entries.is_empty(),
            "the stale entry is dropped"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn memory_tier_evicts_least_recently_used_within_its_budget() {
        let configs: Vec<GenerationConfig> = (20..24)
            .map(|seed| GenerationConfig::with_keys(100).seed(seed))
            .collect();
        let datasets: Vec<SingleByteDataset> = configs.iter().map(generated).collect();
        let bytes = datasets[0].cell_count() as u64 * 8;
        // Room for two datasets and a half.
        let cache = temp_cache("memory-lru").with_memory_budget(5 * bytes / 2);
        for (ds, config) in datasets.iter().zip(&configs) {
            cache.store(ds, config).unwrap();
        }
        let shape = datasets[0].shape_params();
        let resident = |cache: &DatasetCache| {
            let memory = cache.memory();
            assert!(memory.resident <= memory.budget);
            let mut seeds: Vec<u64> = configs
                .iter()
                .filter(|c| {
                    memory
                        .entries
                        .contains_key(&DatasetCache::cache_key("single", &shape, c))
                })
                .map(|c| c.seed)
                .collect();
            seeds.sort_unstable();
            seeds
        };
        let load = |i: usize| {
            cache
                .load::<SingleByteDataset>(&shape, &configs[i])
                .unwrap()
                .unwrap()
        };
        load(0);
        load(1);
        assert_eq!(resident(&cache), vec![20, 21]);
        load(0); // 0 is now more recently used than 1
        load(2);
        assert_eq!(resident(&cache), vec![20, 22], "1 was least recently used");
        load(3);
        assert_eq!(resident(&cache), vec![22, 23]);

        // A dataset larger than the whole budget is served from its file
        // and never kept.
        let tiny = temp_cache("memory-oversize").with_memory_budget(bytes - 1);
        tiny.store(&datasets[0], &configs[0]).unwrap();
        let a = tiny
            .load::<SingleByteDataset>(&shape, &configs[0])
            .unwrap()
            .unwrap();
        let b = tiny
            .load::<SingleByteDataset>(&shape, &configs[0])
            .unwrap()
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(tiny.memory().entries.is_empty());
        assert_eq!(tiny.memory().resident, 0);
        let _ = std::fs::remove_dir_all(cache.dir());
        let _ = std::fs::remove_dir_all(tiny.dir());
    }

    #[test]
    fn foreign_files_are_skipped_by_the_scan() {
        let cache = temp_cache("foreign");
        std::fs::write(cache.dir().join("notes.ds"), b"not a shard").unwrap();
        std::fs::write(cache.dir().join("readme.txt"), b"hello").unwrap();
        let config = GenerationConfig::with_keys(100).seed(5);
        let miss: Option<Arc<SingleByteDataset>> = cache.load(&[4], &config).unwrap();
        assert!(miss.is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
