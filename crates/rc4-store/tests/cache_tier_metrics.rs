//! The dataset cache's metrics split its hits by tier: a memory hit counts
//! as `store.cache.hit` and `store.cache.memory_hit` and reads no bytes, and
//! a freshly generated dataset is resident from its first load on.
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
    let generate = |ds: &mut SingleByteDataset| {
        generate_storable_with_exec(ds, &config, &rc4_exec::Executor::serial())
    };
    cache
        .load_or_generate(SingleByteDataset::new(4), &config, generate)
        .unwrap();
    let stored: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(stored.len(), 1, "one stored shard");
    let file_len = stored[0].as_ref().unwrap().metadata().unwrap().len();

    let counter = |name: &str| rc4_obs::metrics::snapshot().counter(name).unwrap_or(0);
    for _ in 0..3 {
        cache
            .load_or_generate(SingleByteDataset::new(4), &config, |_| {
                panic!("a hit must not generate")
            })
            .unwrap();
    }
    assert_eq!(counter("store.cache.hit"), 3);
    assert_eq!(
        counter("store.cache.memory_hit"),
        3,
        "the generated dataset is resident"
    );
    assert_eq!(counter("store.read_bytes"), 0, "no load reads the file");
    assert_eq!(counter("store.write_bytes"), file_len);
    let _ = std::fs::remove_dir_all(&dir);
}
