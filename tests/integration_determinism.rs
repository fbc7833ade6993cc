//! Integration test: reproducibility guarantees the rest of the test suite
//! (and CI) relies on.
//!
//! Every randomized component in the workspace draws from an explicitly
//! seeded generator — dataset generation derives per-worker streams from
//! `(seed, worker)`, the traffic simulators take a seed in their configs, and
//! the vendored proptest seeds each property from the test's name. These
//! tests pin the guarantee end to end: identical configurations must yield
//! bit-identical results, regardless of worker count.

use rc4_attacks::{experiments::Scale, ExperimentContext, Registry};
use rc4_exec::Executor;
use rc4_stats::{
    generate_storable_with_exec,
    pairs::{PairDataset, PositionPair},
    single::SingleByteDataset,
    GenerationConfig, StorableDataset,
};
use wpa_tkip::injection::{InjectionConfig, InjectionSimulator};
use wpa_tkip::mpdu::FrameAddressing;

/// The same generation config must produce bit-identical statistics on every
/// run — this is what makes the statistical assertions elsewhere in the suite
/// safe from flakiness.
#[test]
fn dataset_generation_is_bit_identical_across_runs() {
    let config = GenerationConfig::with_keys(10_000).seed(0xD5EED).workers(2);
    let mut a = SingleByteDataset::new(8);
    let mut b = SingleByteDataset::new(8);
    generate_storable_with_exec(&mut a, &config, &Executor::new(config.workers)).unwrap();
    generate_storable_with_exec(&mut b, &config, &Executor::new(config.workers)).unwrap();
    assert_eq!(a.recorded_keystreams(), b.recorded_keystreams());
    assert_eq!(a.cell_slices(), b.cell_slices());
}

/// Multi-worker runs must not depend on thread scheduling: worker `w` derives
/// its keys from `(seed, w)`, so repeated runs of the same configuration are
/// bit-identical even though the OS interleaves the workers differently.
/// (Different worker *counts* partition the key space differently and are
/// documented to produce different — equally valid — key sets.)
#[test]
fn multi_worker_generation_is_scheduling_independent() {
    for workers in [2, 3, 8] {
        let config = GenerationConfig::with_keys(5_000).seed(42).workers(workers);
        let mut a =
            PairDataset::new((1..=3).map(|r| PositionPair { a: r, b: r + 1 }).collect()).unwrap();
        let mut b =
            PairDataset::new((1..=3).map(|r| PositionPair { a: r, b: r + 1 }).collect()).unwrap();
        generate_storable_with_exec(&mut a, &config, &Executor::new(config.workers)).unwrap();
        generate_storable_with_exec(&mut b, &config, &Executor::new(config.workers)).unwrap();
        assert_eq!(a.recorded_keystreams(), b.recorded_keystreams());
        assert_eq!(
            a.cell_slices(),
            b.cell_slices(),
            "{workers}-worker run is not reproducible"
        );
    }
}

/// The traffic simulator backing the TKIP attack tests replays identically
/// for a fixed seed, including its lossy retransmission schedule.
#[test]
fn injection_simulator_replays_identically() {
    let addressing = FrameAddressing {
        dst: [2, 0, 0, 0, 0, 1],
        src: [2, 0, 0, 0, 0, 2],
        transmitter: [2, 0, 0, 0, 0, 2],
        priority: 0,
    };
    let config = InjectionConfig {
        retransmission_rate: 0.2,
        loss_rate: 0.1,
        ..InjectionConfig::default()
    };
    let key = crypto_prims::michael::MichaelKey { l: 1, r: 2 };
    let make = || {
        InjectionSimulator::new(
            [0x3C; 16],
            key,
            addressing,
            b"identical payload bytes".to_vec(),
            config.clone(),
        )
        .unwrap()
    };
    let caps_a = make().capture(64);
    let caps_b = make().capture(64);
    assert_eq!(caps_a.len(), caps_b.len());
    for (a, b) in caps_a.iter().zip(&caps_b) {
        assert_eq!(a.tsc, b.tsc);
        assert_eq!(a.ciphertext, b.ciphertext);
    }
}

/// Experiments run through the registry are deterministic end to end: the
/// same context seed yields byte-identical report JSON, and a different seed
/// changes the measured numbers. (The `repro` CLI equivalent — byte-identical
/// `repro run all --json` output — is pinned in `crates/bench/tests/repro_cli.rs`.)
#[test]
fn registry_experiments_are_byte_identical_for_a_fixed_seed() {
    let registry = Registry::with_defaults();
    // One statistics-pipeline experiment, one simulation, one end-to-end
    // attack — enough to cover all three seeding paths without re-running the
    // full quick suite (which integration_registry.rs already does once).
    for name in ["headline", "fig7", "tkip-attack"] {
        let run_with_seed = |seed: u64| {
            let mut experiment = registry.create(name).unwrap();
            experiment.apply_scale(Scale::Quick);
            let ctx = ExperimentContext::new().with_seed(seed).with_workers(2);
            serde_json::to_string(&experiment.run(&ctx).unwrap()).unwrap()
        };
        assert_eq!(
            run_with_seed(0xD5EED),
            run_with_seed(0xD5EED),
            "{name}: same seed produced different JSON"
        );
    }
    // Seed sensitivity is asserted on the statistics pipeline, whose measured
    // probabilities always shift with the key set. (The attack experiments'
    // quick-scale reports are aggregate rates that can legitimately coincide
    // across seeds.)
    let run_headline = |seed: u64| {
        let mut experiment = registry.create("headline").unwrap();
        experiment.apply_scale(Scale::Quick);
        let ctx = ExperimentContext::new().with_seed(seed);
        serde_json::to_string(&experiment.run(&ctx).unwrap()).unwrap()
    };
    assert_ne!(
        run_headline(0xD5EED),
        run_headline(0xD5EED + 1),
        "the context seed does not reach the dataset generation"
    );
}
