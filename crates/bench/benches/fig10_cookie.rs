//! Fig. 10 regeneration: the HTTPS cookie recovery simulation, plus the
//! cookie-alphabet ablation from Sect. 6.2 (restricting candidates to the 90
//! RFC 6265 characters vs the full byte range).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use plaintext_recovery::charset::Charset;
use rc4_attacks::{
    experiments::fig10::{run, Fig10Config},
    ExperimentContext,
};

fn bench_fig10_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_cookie_recovery");
    group.sample_size(10);
    group.bench_function("quick_sweep", |b| {
        let config = Fig10Config::quick();
        b.iter(|| run(std::hint::black_box(&config), &ExperimentContext::new()).unwrap());
    });
    group.finish();
}

fn bench_charset_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_charset");
    group.sample_size(10);
    for (name, charset) in [
        ("hex16", Charset::hex_lower()),
        ("base64", Charset::base64()),
        ("cookie90", Charset::cookie()),
        ("full256", Charset::full()),
    ] {
        let config = Fig10Config {
            request_counts: vec![1 << 30],
            trials: 1,
            cookie_len: 4,
            candidates: 128,
            absab_relations: 8,
            charset,
            ..Fig10Config::quick()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| run(std::hint::black_box(config), &ExperimentContext::new()).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig10_point, bench_charset_ablation);
criterion_main!(benches);
