//! Throughput of the persistent dataset store (`rc4-store`): shard write,
//! validated read, and n-way merge over a consec-style pair dataset.
//!
//! The store is on every checkpoint of a long collection run, so its write
//! path bounds how often generation can afford to flush, and its read path
//! bounds experiment start-up on a cache hit. Both move the full cell array
//! (here 16 pairs x 65536 u64 cells = 8 MiB) plus a CRC-32 pass.

use std::path::PathBuf;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rc4_exec::Executor;
use rc4_stats::{
    generate_storable_with_exec, pairs::PairDataset, GenerationConfig, StorableDataset,
};
use rc4_store::{merge_shards, read_shard, write_shard, ShardHeader};

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rc4-store-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A filled consec-16 pair dataset plus its (complete) shard header.
fn sample() -> (ShardHeader, PairDataset, u64) {
    let config = GenerationConfig::with_keys(2_000).seed(0xBE7C);
    let mut ds = PairDataset::consecutive(16).unwrap();
    generate_storable_with_exec(&mut ds, &config, &Executor::serial()).unwrap();
    let mut header = ShardHeader::new(
        "pairs",
        config,
        ds.shape_params(),
        0,
        1,
        ds.cell_count() as u64,
    )
    .unwrap();
    header.progress = vec![config.keys];
    let bytes = ds.cell_count() as u64 * 8;
    (header, ds, bytes)
}

fn bench_store_io(c: &mut Criterion) {
    let dir = scratch();
    let (header, ds, bytes) = sample();

    let mut group = c.benchmark_group("store_io");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(bytes));

    let write_path = dir.join("write.ds");
    group.bench_function("write_shard_8mib", |b| {
        b.iter(|| {
            let _ = std::fs::remove_file(&write_path);
            write_shard(&write_path, &header, &ds).unwrap();
        });
    });

    let read_path = dir.join("read.ds");
    write_shard(&read_path, &header, &ds).unwrap();
    group.bench_function("read_shard_8mib", |b| {
        b.iter(|| read_shard::<PairDataset>(&read_path).unwrap().dataset);
    });
    group.finish();

    // Merge: two disjoint half-shards into a master (reads 2 x 8 MiB,
    // validates, sums, writes 8 MiB).
    let config = GenerationConfig::with_keys(2_000).workers(2).seed(0xBE7C);
    let mut shards = Vec::new();
    for (i, (lo, hi)) in [(0u64, 1u64), (1, 2)].into_iter().enumerate() {
        let path = dir.join(format!("half{i}.ds"));
        let _ = std::fs::remove_file(&path);
        rc4_store::generate_shard(
            &path,
            PairDataset::consecutive(16).unwrap(),
            &rc4_store::ShardSpec::workers(config, lo, hi),
            &rc4_store::GenerateOptions::default(),
            None,
            &mut |_, _| {},
        )
        .unwrap();
        shards.push(path);
    }
    let mut group = c.benchmark_group("store_merge");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(bytes * 2));
    let out = dir.join("merged.ds");
    group.bench_function("merge_2x8mib", |b| {
        b.iter(|| {
            let _ = std::fs::remove_file(&out);
            merge_shards::<PairDataset>(&[&shards[0], &shards[1]], &out).unwrap()
        });
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_store_io);
criterion_main!(benches);
