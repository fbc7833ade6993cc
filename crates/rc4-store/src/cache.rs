//! The load-or-generate dataset cache.
//!
//! [`DatasetCache::load_or_generate`] is the one way in. It single-flights
//! per key (all clones share the table), so concurrent misses on one key
//! cause one generation: the rest wait, then hit.
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
//! successful file load stay resident behind [`Arc`], keyed by the cache
//! key and shared by every clone of the cache, up to
//! [`MEMORY_TIER_BUDGET_BYTES`] (least recently used entries are evicted
//! first; a larger dataset is always read from its file). A resident entry
//! is handed out only while one `stat` of its source file still shows the
//! length and modification time it had when it was read; otherwise the
//! entry is dropped and the file is read and validated again. A memory hit
//! is therefore the validated decode of an unchanged file, or the very
//! dataset a generation just wrote to it: a freshly generated dataset enters
//! the tier under the stamp of the file it was stored in, so the callers
//! that waited on its flight, and the next job, share it without a read.

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
use crate::singleflight::{FlightStats, SingleFlight};

/// Decoded bytes the memory tier of a [`DatasetCache`] keeps resident.
pub const MEMORY_TIER_BUDGET_BYTES: u64 = 256 << 20;

/// A directory of complete, reusable dataset shards, with a memory tier of
/// recently loaded ones and a single-flight table. Clones share both.
#[derive(Debug, Clone)]
pub struct DatasetCache {
    dir: PathBuf,
    memory: Arc<Mutex<MemoryTier>>,
    flights: Arc<SingleFlight>,
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
            flights: Arc::default(),
        })
    }

    fn memory(&self) -> std::sync::MutexGuard<'_, MemoryTier> {
        self.memory.lock().expect("memory tier lock poisoned")
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The counters of the single-flight table this cache and its clones
    /// share.
    pub fn flight_stats(&self) -> FlightStats {
        self.flights.stats()
    }

    /// The complete dataset for `(kind, shape of empty, config)`: the cached
    /// one on a hit, otherwise `empty` filled by `generate` (which runs only
    /// on a miss) and stored. The whole sequence holds the key's flight, so
    /// concurrent callers on one key, through this cache or any clone,
    /// generate once; the key is released however it ends, panics included.
    ///
    /// # Errors
    ///
    /// Propagates `generate`'s error. Returns [`DatasetError::Corrupt`] when
    /// a file matching the request fails validation (a damaged entry is
    /// reported, never regenerated), [`DatasetError::InvalidConfig`] when
    /// `generate` leaves a partial dataset, and [`DatasetError::Io`] on
    /// directory-read and write failures.
    pub fn load_or_generate<D: StorableDataset + Sync + 'static>(
        &self,
        mut empty: D,
        config: &GenerationConfig,
        generate: impl FnOnce(&mut D) -> Result<(), DatasetError>,
    ) -> Result<Arc<D>, DatasetError> {
        let shape = empty.shape_params();
        let key = Self::cache_key(D::kind(), &shape, config);
        let canonical = self.dir.join(format!("{}-{key}.ds", D::kind()));
        let _flight = self.flights.begin(&key);
        if let Some(hit) = self.load::<D>(&key, &canonical, &shape, config)? {
            return Ok(hit);
        }
        generate(&mut empty)?;
        self.store(&canonical, &empty, shape, config)?;
        let dataset = Arc::new(empty);
        if let Some(stamp) = FileStamp::of(&canonical) {
            self.keep(key, &dataset, &canonical, stamp);
        }
        Ok(dataset)
    }

    /// Makes `dataset`, the contents of `source` as `stamp` shows it,
    /// resident under `key` (subject to the memory tier's budget).
    fn keep<D: StorableDataset + Sync + 'static>(
        &self,
        key: String,
        dataset: &Arc<D>,
        source: &Path,
        stamp: FileStamp,
    ) {
        let bytes = dataset.cell_count() as u64 * 8;
        self.memory()
            .insert(key, dataset.clone(), source.to_path_buf(), stamp, bytes);
    }

    /// The cache key for a `(kind, shape, config)` triple: the first 16 hex
    /// characters of a SHA-256 over a canonical byte encoding.
    fn cache_key(kind: &str, shape: &[u64], config: &GenerationConfig) -> String {
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

    /// Looks up the complete dataset for `(D, shape, config)` under `key`,
    /// returning `Ok(None)` on a miss and an error for a damaged match.
    ///
    /// A resident entry of the memory tier whose source file is unchanged is
    /// returned without reading the file. Otherwise the `canonical` file is
    /// tried first, then every `*.ds` file in the directory is
    /// header-scanned, so merged masters dropped into the cache under any
    /// name are found; a dataset read from a file becomes resident.
    fn load<D: StorableDataset + Sync + 'static>(
        &self,
        key: &str,
        canonical: &Path,
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
        if let Some(dataset) = self.memory().get::<D>(key) {
            span.record("tier", "memory");
            rc4_obs::metrics::counter_add("store.cache.hit", 1);
            rc4_obs::metrics::counter_add("store.cache.memory_hit", 1);
            return Ok(Some(dataset));
        }
        let read_start = rc4_obs::metrics::is_enabled().then(Instant::now);
        let mut hit = |path: &Path, stamp: Option<FileStamp>, dataset: D| {
            let dataset = Arc::new(dataset);
            if let Some(stamp) = stamp {
                self.keep(key.to_string(), &dataset, path, stamp);
            }
            span.record("tier", "file");
            if let Some(start) = read_start {
                rc4_obs::metrics::counter_add("store.cache.hit", 1);
                rc4_obs::metrics::counter_add("store.read_bytes", stamp.map_or(0, |s| s.len));
                rc4_obs::metrics::observe_us("store.read_us", start.elapsed().as_micros() as u64);
            }
            Ok(Some(dataset))
        };
        if canonical.exists() {
            // Stamped before the read: a rewrite racing the read leaves a
            // stamp that no longer matches, so the entry is re-read later.
            let stamp = FileStamp::of(canonical);
            let shard = read_shard::<D>(canonical)?;
            if !Self::matches::<D>(&shard.header, shape, config) {
                return Err(DatasetError::corrupt(
                    canonical,
                    "cache entry does not match the requested dataset \
                     (foreign file under a canonical cache name?)",
                ));
            }
            return hit(canonical, stamp, shard.dataset);
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

    /// Stores a freshly generated complete dataset of `shape` at `path`,
    /// refusing a partial one.
    fn store<D: StorableDataset>(
        &self,
        path: &Path,
        dataset: &D,
        shape: Vec<u64>,
        config: &GenerationConfig,
    ) -> Result<(), DatasetError> {
        if dataset.recorded_keystreams() != config.keys {
            return Err(DatasetError::InvalidConfig(format!(
                "refusing to cache a partial dataset ({} of {} keystreams)",
                dataset.recorded_keystreams(),
                config.keys
            )));
        }
        let mut header = ShardHeader::new(
            D::kind(),
            *config,
            shape,
            0,
            config.workers as u64,
            dataset.cell_count() as u64,
        )?;
        header.progress = (0..config.workers as u64)
            .map(|w| config.keys_for_worker(w))
            .collect();
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
        write_shard_with(path, &header, dataset, CellEncoding::Raw)?;
        if let Some(start) = write_start {
            rc4_obs::metrics::counter_add("store.cache.stored", 1);
            rc4_obs::metrics::counter_add(
                "store.write_bytes",
                std::fs::metadata(path).map_or(0, |m| m.len()),
            );
            rc4_obs::metrics::observe_us("store.write_us", start.elapsed().as_micros() as u64);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc4_stats::{generate_storable_with_exec, single::SingleByteDataset};
    use std::sync::mpsc;
    use std::time::Duration;

    fn temp_cache(name: &str) -> DatasetCache {
        let dir =
            std::env::temp_dir().join(format!("rc4-store-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DatasetCache::open(dir).unwrap()
    }

    fn generate(ds: &mut SingleByteDataset, config: &GenerationConfig) -> Result<(), DatasetError> {
        generate_storable_with_exec(ds, config, &rc4_exec::Executor::serial())
    }

    fn generated(config: &GenerationConfig) -> SingleByteDataset {
        let mut ds = SingleByteDataset::new(4);
        generate(&mut ds, config).unwrap();
        ds
    }

    /// `load_or_generate` of a 4-position single-byte dataset, and whether
    /// its generation step ran.
    fn fetch(
        cache: &DatasetCache,
        config: &GenerationConfig,
    ) -> Result<(Arc<SingleByteDataset>, bool), DatasetError> {
        let mut ran = false;
        let ds = cache.load_or_generate(SingleByteDataset::new(4), config, |ds| {
            ran = true;
            generate(ds, config)
        })?;
        Ok((ds, ran))
    }

    /// A cached dataset: fetching it must not generate.
    fn hit(cache: &DatasetCache, config: &GenerationConfig) -> Arc<SingleByteDataset> {
        let (ds, ran) = fetch(cache, config).unwrap();
        assert!(!ran, "a hit must not generate");
        ds
    }

    fn canonical(cache: &DatasetCache, config: &GenerationConfig) -> PathBuf {
        let key = DatasetCache::cache_key("single", &[4], config);
        cache.dir().join(format!("single-{key}.ds"))
    }

    #[test]
    fn store_then_load_hits_and_matches() {
        let cache = temp_cache("hit");
        let config = GenerationConfig::with_keys(500).seed(9);
        let (fresh, ran) = fetch(&cache, &config).unwrap();
        assert!(ran);
        assert!(canonical(&cache, &config).exists());

        let cached = hit(&cache, &config);
        assert_eq!(cached.counts_at(2), fresh.counts_at(2));
        assert_eq!(cached.counts_at(2), generated(&config).counts_at(2));
        assert_eq!(cached.recorded_keystreams(), 500);

        // Different seed or shape => miss.
        let other = GenerationConfig::with_keys(500).seed(10);
        assert!(fetch(&cache, &other).unwrap().1);
        let mut ran = false;
        cache
            .load_or_generate(SingleByteDataset::new(8), &config, |ds| {
                ran = true;
                generate(ds, &config)
            })
            .unwrap();
        assert!(ran);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn scan_finds_merged_masters_under_any_name() {
        let cache = temp_cache("scan");
        let config = GenerationConfig::with_keys(300).seed(3);
        fetch(&cache, &config).unwrap();
        let renamed = cache.dir().join("master-from-merge.ds");
        std::fs::rename(canonical(&cache, &config), &renamed).unwrap();
        // The scan finds the renamed entry.
        hit(&cache, &config);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn partial_datasets_are_refused() {
        let cache = temp_cache("partial");
        let config = GenerationConfig::with_keys(1000).seed(3);
        let result = cache.load_or_generate(SingleByteDataset::new(4), &config, |ds| {
            generate(ds, &GenerationConfig::with_keys(10).seed(3))
        });
        assert!(matches!(
            result,
            Err(DatasetError::InvalidConfig(msg)) if msg.contains("partial")
        ));
        assert!(!canonical(&cache, &config).exists());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_matching_entry_is_an_error_not_a_miss() {
        let cache = temp_cache("corrupt");
        let config = GenerationConfig::with_keys(200).seed(4);
        fetch(&cache, &config).unwrap();
        // Flip one byte in the cell area.
        let path = canonical(&cache, &config);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut ran = false;
        let result = cache.load_or_generate(SingleByteDataset::new(4), &config, |_| {
            ran = true;
            Ok(())
        });
        assert!(matches!(result, Err(DatasetError::Corrupt(_))));
        assert!(!ran, "a damaged entry must not be regenerated");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Starts a `load_or_generate` on another thread whose generation step
    /// reports on the returned receiver that it holds the key, then waits
    /// for the returned sender before generating.
    fn held_generation(
        cache: &DatasetCache,
        config: GenerationConfig,
    ) -> (
        std::thread::JoinHandle<Arc<SingleByteDataset>>,
        mpsc::Receiver<()>,
        mpsc::Sender<()>,
    ) {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let cache = cache.clone();
        let holder = std::thread::spawn(move || {
            cache
                .load_or_generate(SingleByteDataset::new(4), &config, |ds| {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    generate(ds, &config)
                })
                .unwrap()
        });
        (holder, started_rx, release_tx)
    }

    #[test]
    fn distinct_keys_do_not_wait() {
        let cache = temp_cache("distinct");
        let held = GenerationConfig::with_keys(100).seed(1);
        let (holder, started, release) = held_generation(&cache, held);
        started.recv().unwrap();
        // Another key generates and hits while the first is still held.
        let other = GenerationConfig::with_keys(100).seed(2);
        assert!(fetch(&cache, &other).unwrap().1);
        hit(&cache, &other);
        assert_eq!(cache.flight_stats().in_flight, 1);
        assert_eq!(cache.flight_stats().waited, 0);
        release.send(()).unwrap();
        holder.join().unwrap();
        assert_eq!(cache.flight_stats().in_flight, 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn same_key_waits_for_the_generation_then_hits() {
        let cache = temp_cache("same-key");
        let config = GenerationConfig::with_keys(100).seed(3);
        let (holder, started, release) = held_generation(&cache, config);
        started.recv().unwrap();
        let waiter = {
            let clone = cache.clone();
            std::thread::spawn(move || hit(&clone, &config))
        };
        for _ in 0..2000 {
            if cache.flight_stats().waited == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(cache.flight_stats().waited, 1, "clones share one table");
        release.send(()).unwrap();
        let generated = holder.join().unwrap();
        let waited = waiter.join().expect("the waiter hits");
        assert_eq!(waited.counts_at(1), generated.counts_at(1));
        let stats = cache.flight_stats();
        assert_eq!((stats.begun, stats.in_flight), (2, 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn failed_generation_releases_its_key() {
        let cache = temp_cache("failed");
        let config = GenerationConfig::with_keys(100).seed(5);
        let result = cache.load_or_generate(SingleByteDataset::new(4), &config, |_| {
            Err(DatasetError::Cancelled)
        });
        assert_eq!(result.unwrap_err(), DatasetError::Cancelled);
        assert_eq!(cache.flight_stats().in_flight, 0);
        // Nothing was stored: the next caller generates, without waiting.
        assert!(fetch(&cache, &config).unwrap().1);
        assert_eq!(cache.flight_stats().waited, 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn panicking_generation_releases_its_key() {
        let cache = temp_cache("panicked");
        let config = GenerationConfig::with_keys(100).seed(6);
        let crasher = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                cache
                    .load_or_generate(SingleByteDataset::new(4), &config, |_| {
                        panic!("generation failed")
                    })
                    .ok()
            })
        };
        assert!(crasher.join().is_err());
        assert_eq!(cache.flight_stats().in_flight, 0);
        assert!(fetch(&cache, &config).unwrap().1);
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
        let (generated_ds, _) = fetch(&cache, &config).unwrap();
        assert_eq!(
            cache.memory().entries.len(),
            1,
            "a fresh generation enters the tier"
        );

        let first = hit(&cache, &config);
        assert!(
            Arc::ptr_eq(&generated_ds, &first),
            "the next load shares the generated copy"
        );
        // Damage the file but keep its length and modification time: a load
        // that read the file would fail its CRC check.
        let path = canonical(&cache, &config);
        let stamp = FileStamp::of(&path).unwrap();
        flip_cell_byte(&path, stamp.modified);
        assert_eq!(FileStamp::of(&path), Some(stamp));
        let second = hit(&cache.clone(), &config);
        assert!(
            Arc::ptr_eq(&first, &second),
            "clones share one resident copy"
        );
        assert_eq!(second.counts_at(2), generated(&config).counts_at(2));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn rewritten_file_after_a_memory_hit_is_read_and_rejected() {
        let cache = temp_cache("memory-stale");
        let config = GenerationConfig::with_keys(200).seed(8);
        fetch(&cache, &config).unwrap();
        let first = hit(&cache, &config);
        let second = hit(&cache, &config);
        assert!(Arc::ptr_eq(&first, &second));
        // Same length, one flipped cell byte, a new modification time.
        let path = canonical(&cache, &config);
        let stamp = FileStamp::of(&path).unwrap();
        flip_cell_byte(&path, stamp.modified + Duration::from_secs(1));
        assert!(matches!(
            fetch(&cache, &config),
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
        let bytes = SingleByteDataset::new(4).cell_count() as u64 * 8;
        // Room for two datasets and a half.
        let cache = temp_cache("memory-lru").with_memory_budget(5 * bytes / 2);
        for config in &configs {
            fetch(&cache, config).unwrap();
        }
        let resident = |cache: &DatasetCache| {
            let memory = cache.memory();
            assert!(memory.resident <= memory.budget);
            let mut seeds: Vec<u64> = configs
                .iter()
                .filter(|c| {
                    memory
                        .entries
                        .contains_key(&DatasetCache::cache_key("single", &[4], c))
                })
                .map(|c| c.seed)
                .collect();
            seeds.sort_unstable();
            seeds
        };
        let load = |i: usize| hit(&cache, &configs[i]);
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
        fetch(&tiny, &configs[0]).unwrap();
        let a = hit(&tiny, &configs[0]);
        let b = hit(&tiny, &configs[0]);
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
        assert!(
            fetch(&cache, &config).unwrap().1,
            "foreign files are a miss"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
