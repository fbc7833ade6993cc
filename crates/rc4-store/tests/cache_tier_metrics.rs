//! The dataset cache's metrics split its hits by tier: a memory hit counts
//! as `store.cache.hit` and `store.cache.memory_hit` and reads no bytes.
//!
//! Kept in its own test binary: the metrics registry is process-wide, so no
//! other test may load datasets while the counters are compared.

use rc4_stats::{generate_storable_with_exec, single::SingleByteDataset, GenerationConfig};
use rc4_store::DatasetCache;

#[test]
fn memory_hits_are_counted_apart_and_read_no_bytes() {
    rc4_obs::metrics::enable();
    let dir = std::env::temp_dir().join(format!("rc4-store-tier-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DatasetCache::open(&dir).unwrap();
    let config = GenerationConfig::with_keys(300).seed(12);
    let mut ds = SingleByteDataset::new(4);
    generate_storable_with_exec(&mut ds, &config, &rc4_exec::Executor::serial()).unwrap();
    let path = cache.store(&ds, &config).unwrap();
    let file_len = std::fs::metadata(&path).unwrap().len();

    let counter = |name: &str| rc4_obs::metrics::snapshot().counter(name).unwrap_or(0);
    for _ in 0..3 {
        let hit = cache.load::<SingleByteDataset>(&[4], &config).unwrap();
        assert!(hit.is_some());
    }
    assert_eq!(counter("store.cache.hit"), 3);
    assert_eq!(counter("store.cache.memory_hit"), 2);
    assert_eq!(
        counter("store.read_bytes"),
        file_len,
        "only the first load reads"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
