//! Integration test: the experiment registry is the single entry point to the
//! whole reproduction — every registered experiment must instantiate,
//! serde-roundtrip its configuration, and run to completion at `Quick` scale
//! under a default context.

use std::sync::Arc;

use rc4_attacks::{
    context::{CancelHandle, MemorySink},
    experiments::Scale,
    ExperimentContext, ExperimentError, Registry,
};

/// The full paper pipeline is registered: 11 figure/table experiments plus
/// the two end-to-end attacks.
#[test]
fn registry_lists_the_full_paper_pipeline() {
    let registry = Registry::with_defaults();
    assert!(
        registry.len() >= 13,
        "expected >= 13 experiments, got: {:?}",
        registry.names()
    );
    for name in [
        "headline",
        "table1",
        "fig4",
        "table2",
        "eq345",
        "fig5",
        "fig6",
        "longterm",
        "fig7",
        "fig8",
        "fig10",
        "tkip-attack",
        "tls-cookie",
    ] {
        assert!(
            registry.find(name).is_some(),
            "experiment '{name}' missing from the default registry"
        );
    }
}

/// Unknown names error (they never panic) and the error carries the complete
/// registered-name list, so CLI messages can never go stale.
#[test]
fn unknown_experiment_error_lists_registered_names() {
    let registry = Registry::with_defaults();
    let Err(err) = registry.create("fig99") else {
        panic!("lookup of 'fig99' should fail");
    };
    match err {
        ExperimentError::UnknownExperiment { name, registered } => {
            assert_eq!(name, "fig99");
            assert_eq!(registered.len(), registry.len());
            assert!(registered.contains(&"tkip-attack".to_string()));
        }
        other => panic!("unexpected error: {other}"),
    }
}

/// Every experiment's configuration roundtrips unchanged through JSON at
/// every scale (`config -> JSON -> config`).
#[test]
fn every_config_serde_roundtrips_unchanged() {
    let registry = Registry::with_defaults();
    for entry in registry.entries() {
        for scale in Scale::ALL {
            let mut experiment = entry.create();
            experiment.apply_scale(scale);
            let before = experiment.config_value();
            let json = experiment.config_json();
            let mut other = entry.create();
            other.set_config_json(&json).unwrap_or_else(|e| {
                panic!(
                    "{}@{:?}: config failed to re-parse: {e}",
                    entry.name(),
                    scale
                )
            });
            assert_eq!(
                other.config_value(),
                before,
                "{}@{:?}: config changed across a JSON roundtrip",
                entry.name(),
                scale
            );
        }
    }
}

/// Every registered experiment runs to completion at `Quick` scale, produces
/// a non-empty report, and reports progress through the context sink.
#[test]
fn every_experiment_runs_at_quick_scale() {
    let registry = Registry::with_defaults();
    let sink = Arc::new(MemorySink::new());
    let ctx = ExperimentContext::new().with_sink(sink.clone());
    for entry in registry.entries() {
        let mut experiment = entry.create();
        experiment.apply_scale(Scale::Quick);
        let report = experiment
            .run(&ctx)
            .unwrap_or_else(|e| panic!("{} failed at quick scale: {e}", entry.name()));
        assert!(
            !report.rows.is_empty(),
            "{} produced an empty report",
            entry.name()
        );
        assert!(
            !report.render().is_empty(),
            "{} renders to nothing",
            entry.name()
        );
    }
    // Each experiment emitted at least its start/finish pair.
    let events = sink.events();
    for entry in registry.entries() {
        assert!(
            events.contains(&format!("{}: started", entry.name())),
            "no started event for {} in {events:?}",
            entry.name()
        );
        assert!(
            events.contains(&format!("{}: finished", entry.name())),
            "no finished event for {}",
            entry.name()
        );
    }
}

/// Cancelling MID-RUN during a parallel empirical fig7 recovery at
/// `--workers 4` aborts promptly with `ExperimentError::Cancelled` and
/// leaves no partial shard in the dataset cache: the cache only ever stores
/// completed datasets via atomic tmp+rename, so a cancelled generation must
/// leave the cache directory empty (no `.ds` files, no temp droppings).
#[test]
fn mid_run_cancellation_of_parallel_recovery_leaves_no_partial_shards() {
    use rc4_attacks::experiments::fig7::{run, Fig7Config};
    use rc4_attacks::experiments::CountSource;
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!(
        "repro-cancel-parallel-recovery-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // Enough keys that the 25 ms timer below always lands inside the
    // parallel dataset generation (2^21 keys of 259-byte keystreams is
    // hundreds of milliseconds on any hardware); even in the unlikely case
    // generation finishes first, the trial grid's executor still observes
    // the flag and the run must report Cancelled either way.
    let config = Fig7Config {
        ciphertext_counts: vec![1 << 30],
        trials: 4,
        absab_relations: 8,
        source: CountSource::Empirical { keys: 1 << 21 },
        ..Fig7Config::quick()
    };
    let handle = CancelHandle::new();
    let ctx = ExperimentContext::new()
        .with_workers(4)
        .with_cancel(handle.clone())
        .with_cache_dir(&dir)
        .unwrap();

    let started = Instant::now();
    let result = std::thread::scope(|scope| {
        let canceller = handle.clone();
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            canceller.cancel();
        });
        run(&config, &ctx)
    });
    let elapsed = started.elapsed();
    assert_eq!(result, Err(ExperimentError::Cancelled));
    assert!(
        elapsed < Duration::from_secs(20),
        "cancellation was not prompt: took {elapsed:?}"
    );

    // No partial shard corruption: the cancelled generation must not have
    // persisted anything at all.
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(
        leftovers.is_empty(),
        "cancelled run left files in the cache: {leftovers:?}"
    );

    // A rerun without cancellation must succeed from the same (empty) cache
    // directory and store exactly one complete, loadable dataset.
    let ctx = ExperimentContext::new()
        .with_workers(4)
        .with_cache_dir(&dir)
        .unwrap();
    run(&config, &ctx).expect("uncancelled rerun succeeds");
    let stored: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(stored.len(), 1, "expected one cached dataset: {stored:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pre-raised cancellation flag aborts every experiment with
/// `ExperimentError::Cancelled` before any heavy work happens.
#[test]
fn cancellation_reaches_every_experiment() {
    let registry = Registry::with_defaults();
    let handle = CancelHandle::new();
    handle.cancel();
    let ctx = ExperimentContext::new().with_cancel(handle);
    for entry in registry.entries() {
        let mut experiment = entry.create();
        // Laptop scale on purpose: cancellation must bite before the heavy
        // loops, so this still returns instantly.
        experiment.apply_scale(Scale::Laptop);
        match experiment.run(&ctx) {
            Err(ExperimentError::Cancelled) => {}
            Ok(_) => panic!("{} ignored the cancellation flag", entry.name()),
            Err(other) => panic!("{} failed with {other} instead of Cancelled", entry.name()),
        }
    }
}
