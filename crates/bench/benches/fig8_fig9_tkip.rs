//! Fig. 8 / Fig. 9 regeneration: the TKIP MIC-key recovery simulation, plus the
//! payload-size ablation from Sect. 5.2 (0-byte vs 7-byte TCP payload moves the
//! trailer onto more strongly biased keystream positions).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rc4_attacks::{
    experiments::fig8::{run, Fig8Config, TkipTrafficModel},
    ExperimentContext,
};

fn bench_fig8_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_tkip_recovery");
    group.sample_size(10);
    group.bench_function("quick_sweep", |b| {
        let config = Fig8Config {
            capture_counts: vec![1 << 11],
            trials: 2,
            max_candidates: 1 << 10,
            model: TkipTrafficModel::Synthetic { relative_bias: 0.8 },
            ..Fig8Config::quick()
        };
        b.iter(|| run(std::hint::black_box(&config), &ExperimentContext::new()).unwrap());
    });
    group.finish();
}

fn bench_payload_choice_ablation(c: &mut Criterion) {
    // Sect. 5.2: the injected packet carries a 7-byte payload so the MIC/ICV land
    // at positions 56..67. The ablation compares the attack cost for the 48-byte
    // (no payload) and 55-byte (7-byte payload) MSDUs.
    let mut group = c.benchmark_group("fig8_payload_choice");
    group.sample_size(10);
    for payload_len in [48usize, 55] {
        let config = Fig8Config {
            capture_counts: vec![1 << 11],
            trials: 2,
            max_candidates: 1 << 10,
            payload_len,
            model: TkipTrafficModel::Synthetic { relative_bias: 0.8 },
            seed: 0xF168,
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(payload_len),
            &config,
            |b, config| {
                b.iter(|| run(std::hint::black_box(config), &ExperimentContext::new()).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig8_point, bench_payload_choice_ablation);
criterion_main!(benches);
