//! Quick timing for the accelerated engines: `cargo run --release -p
//! rc4-accel --example accel_tune`. Sweeps every engine available on this
//! host (avx512 / avx2 / portable) plus the scalar baseline, in the
//! two regimes that matter: long streams (PRGA-bound) and rekey-per-68-bytes
//! (KSA-bound, per-TSC-shaped). Also times the f64 scoring kernel used by
//! the recovery hot path.

use std::time::Instant;

use rc4_accel::{score, AutoBatch, Engine, KeystreamBatch};

fn keys(n: usize) -> Vec<u8> {
    (0..n * 16).map(|i| (i * 2654435761) as u8).collect()
}

fn time<F: FnMut()>(mut f: F, iters: u32) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_engine<B: KeystreamBatch>(engine: &mut B, per_lane: usize, iters: u32) {
    let name = engine.name();
    let n = engine.lanes();
    let keys = keys(n);
    let mut out = vec![0u8; n * per_lane];
    let ns = time(
        || {
            engine.schedule(std::hint::black_box(&keys), 16).unwrap();
            engine.fill(std::hint::black_box(&mut out), per_lane);
        },
        iters,
    );
    let bytes = (n * per_lane) as f64;
    println!(
        "  {name:<10} ({n:>2} lanes): {:7.3} ns/B  {:8.1} ns/key  {:6.3} GiB/s",
        ns / bytes,
        ns / n as f64,
        bytes / ns * 1e9 / (1u64 << 30) as f64
    );
}

fn sweep(per_lane: usize, iters: u32) {
    let mut scalar = rc4::batch::ScalarBatch::new(8);
    bench_engine(&mut scalar, per_lane, iters.min(600));
    for name in rc4_accel::available_engines() {
        let engine = Engine::parse(name).expect("listed engine parses");
        let mut batch = AutoBatch::with_engine(engine).expect("listed engine constructs");
        bench_engine(&mut batch, per_lane, iters);
    }
}

fn main() {
    let mut prga = rc4::Prga::new(b"benchmark key 16").unwrap();
    let mut buf = vec![0u8; 65536];
    let scalar = time(|| prga.fill(std::hint::black_box(&mut buf)), 200);
    println!(
        "scalar fill: {:.3} ns/B ({:.3} GiB/s); scalar KSA+68B ≈ {:.0} ns/key",
        scalar / 65536.0,
        65536.0 / scalar * 1e9 / (1u64 << 30) as f64,
        {
            let key = [0xA5u8; 16];
            let mut ks = [0u8; 68];
            time(
                || {
                    let mut p = rc4::Prga::new(std::hint::black_box(&key)).unwrap();
                    p.fill(std::hint::black_box(&mut ks));
                },
                20000,
            )
        }
    );

    println!(
        "available engines: {:?}; auto resolves to {}",
        rc4_accel::available_engines(),
        AutoBatch::new().engine_name()
    );

    println!("long streams (4096 B/lane):");
    sweep(4096, 300);

    println!("short streams (68 B/lane, TKIP rekey shape):");
    sweep(68, 3000);

    println!("scoring kernel ({}):", score::kernel_name());
    let table: Vec<f64> = (0..256).map(|i| (i as f64).sin()).collect();
    let mut acc = vec![0.0f64; 256];
    let ns = time(
        || {
            for xor in 0..=255u8 {
                score::xor_mul_add_256(
                    std::hint::black_box(&mut acc),
                    std::hint::black_box(&table),
                    xor,
                    1.0e-3,
                );
            }
        },
        2000,
    );
    println!(
        "  xor_mul_add_256 x256: {:8.1} ns ({:6.3} f64 ops/ns)",
        ns,
        256.0 * 256.0 * 2.0 / ns
    );
}
