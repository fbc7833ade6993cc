//! Table 1 regeneration cost: long-term digraph statistics and the
//! Fluhrer–McGrew verification pass.
//!
//! The full table is regenerated by `repro table1 <scale>`; this bench measures
//! the per-key cost of the long-term dataset collection that dominates it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rc4_attacks::{
    experiments::biases::{table1_fm_longterm, BiasScale},
    ExperimentContext,
};
use rc4_stats::{longterm::LongTermDataset, StorableDataset};

fn bench_longterm_collection(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_longterm_collection");
    group.sample_size(10);
    for block in [4096usize, 16384] {
        let mut ds = LongTermDataset::new(1023, block).unwrap();
        let ks = rc4::keystream(b"table1 bench key", 1023 + block).unwrap();
        group.throughput(Throughput::Bytes(block as u64));
        group.bench_with_input(BenchmarkId::from_parameter(block), &block, |b, _| {
            b.iter(|| ds.record_stream(0, std::hint::black_box(&ks)));
        });
    }
    group.finish();
}

fn bench_table1_quick(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_report");
    group.sample_size(10);
    let scale = BiasScale {
        keys: 1 << 12,
        longterm_keys: 4,
        longterm_block: 8192,
        workers: 1,
        seed: 1,
    };
    group.bench_function("tiny_scale", |b| {
        let ctx = ExperimentContext::new();
        b.iter(|| table1_fm_longterm(std::hint::black_box(&scale), &ctx).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_longterm_collection, bench_table1_quick);
criterion_main!(benches);
