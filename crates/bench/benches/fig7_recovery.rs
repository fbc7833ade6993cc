//! Fig. 7 regeneration: the two-byte recovery simulation (ABSAB vs FM vs
//! combined) in sampled mode, plus the ABSAB-relation sweep ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rc4_attacks::{
    experiments::fig7::{run, Fig7Config},
    ExperimentContext,
};

fn bench_fig7_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_recovery");
    group.sample_size(10);
    group.bench_function("quick_sweep", |b| {
        let config = Fig7Config {
            ciphertext_counts: vec![1 << 30],
            trials: 2,
            absab_relations: 16,
            ..Fig7Config::quick()
        };
        b.iter(|| run(std::hint::black_box(&config), &ExperimentContext::new()).unwrap());
    });
    group.finish();
}

fn bench_absab_relation_sweep(c: &mut Criterion) {
    // Ablation: how the cost of the combined strategy grows with the number of
    // ABSAB relations (the paper combines 258).
    let mut group = c.benchmark_group("fig7_absab_relations");
    group.sample_size(10);
    for relations in [1usize, 8, 32] {
        let config = Fig7Config {
            ciphertext_counts: vec![1 << 30],
            trials: 1,
            absab_relations: relations,
            ..Fig7Config::quick()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(relations),
            &config,
            |b, config| {
                b.iter(|| run(std::hint::black_box(config), &ExperimentContext::new()).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig7_point, bench_absab_relation_sweep);
criterion_main!(benches);
