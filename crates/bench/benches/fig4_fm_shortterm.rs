//! Fig. 4 regeneration cost: consecutive-pair dataset generation and the
//! independence tests over the initial keystream bytes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rc4_attacks::{
    experiments::biases::{fig4_fm_shortterm, BiasScale},
    ExperimentContext,
};
use rc4_exec::Executor;
use rc4_stats::{generate_storable_with_exec, pairs::PairDataset, GenerationConfig};
use stat_tests::mtest::m_test_independence;

fn bench_pair_dataset_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_pair_dataset");
    group.sample_size(10);
    for keys in [1u64 << 10, 1 << 12] {
        group.throughput(Throughput::Elements(keys));
        group.bench_with_input(BenchmarkId::from_parameter(keys), &keys, |b, &keys| {
            b.iter(|| {
                let mut ds = PairDataset::consecutive(16).unwrap();
                let config = GenerationConfig::with_keys(keys).seed(4);
                generate_storable_with_exec(&mut ds, &config, &Executor::serial()).unwrap();
                ds
            });
        });
    }
    group.finish();
}

fn bench_independence_test(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_m_test");
    group.sample_size(10);
    let mut ds = PairDataset::consecutive(2).unwrap();
    let config = GenerationConfig::with_keys(1 << 14).seed(4);
    generate_storable_with_exec(&mut ds, &config, &Executor::serial()).unwrap();
    group.bench_function("m_test_256x256", |b| {
        b.iter(|| m_test_independence(std::hint::black_box(ds.joint_counts(0)), 256, 256).unwrap());
    });
    group.finish();
}

fn bench_fig4_report(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_report");
    group.sample_size(10);
    let scale = BiasScale {
        keys: 1 << 12,
        ..BiasScale::quick()
    };
    group.bench_function("tiny_scale", |b| {
        let ctx = ExperimentContext::new();
        b.iter(|| fig4_fm_shortterm(std::hint::black_box(&scale), &[1, 17], &ctx).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pair_dataset_generation,
    bench_independence_test,
    bench_fig4_report
);
criterion_main!(benches);
