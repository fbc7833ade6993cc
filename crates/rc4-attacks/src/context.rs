//! The run context every experiment executes under.
//!
//! [`ExperimentContext`] is the one argument of [`crate::Experiment::run`]: it
//! carries the global seed and worker count, a progress/event sink, and a
//! cooperative cancellation flag. Experiments must
//!
//! * derive every RNG seed through [`ExperimentContext::mix_seed`] so a
//!   `--seed` override reaches all of them deterministically,
//! * use [`ExperimentContext::workers`] for dataset-generation parallelism,
//! * call [`ExperimentContext::checkpoint`] inside their hot loops (per trial
//!   or per sweep point) and run parallel work on
//!   [`ExperimentContext::executor`], which carries the cancellation flag, so
//!   a raised flag aborts within milliseconds, and
//! * report coarse progress through [`ExperimentContext::emit`].
//!
//! The default context (seed mix `0`, one worker, no sink, never cancelled)
//! reproduces the historical behaviour of the standalone experiment functions
//! bit for bit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rc4_stats::{generate_storable_with_exec, GenerationConfig, StorableDataset};
use rc4_store::DatasetCache;

use crate::ExperimentError;

/// A coarse progress event emitted by a running experiment.
///
/// Events are advisory: sinks must not influence the experiment's results
/// (reports are byte-identical whatever sink is installed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressEvent<'a> {
    /// The experiment began executing.
    Started {
        /// Registry name of the experiment.
        experiment: &'a str,
    },
    /// `completed` of `total` units (sweep points, trials, datasets) are done.
    Progress {
        /// Registry name of the experiment.
        experiment: &'a str,
        /// Units finished so far.
        completed: u64,
        /// Total units when known in advance; 0 means the total is unknown
        /// (e.g. a streaming loop whose whole point is to stop early).
        total: u64,
        /// What one unit is ("point", "trial", "dataset", ...).
        unit: &'a str,
    },
    /// The experiment finished (successfully or not — errors surface through
    /// the `run` return value, not through the sink).
    Finished {
        /// Registry name of the experiment.
        experiment: &'a str,
    },
    /// A dataset-cache interaction: `hit` (generation skipped entirely),
    /// `miss` (about to generate) or `stored` (fresh result persisted).
    DatasetCache {
        /// Dataset kind tag (`single`, `pairs`, `longterm`, `per-tsc`).
        kind: &'a str,
        /// `"hit"`, `"miss"` or `"stored"`.
        outcome: &'a str,
    },
}

impl ProgressEvent<'_> {
    /// One-line human-readable rendering, shared by the stderr and memory sinks.
    pub fn render(&self) -> String {
        match self {
            ProgressEvent::Started { experiment } => format!("{experiment}: started"),
            ProgressEvent::Progress {
                experiment,
                completed,
                total,
                unit,
            } => {
                if *total == 0 {
                    // Total 0 means "unknown in advance" (e.g. a streaming
                    // capture loop that stops early); render without the
                    // meaningless "/0" denominator.
                    format!("{experiment}: {completed} {unit}s")
                } else {
                    format!("{experiment}: {completed}/{total} {unit}s")
                }
            }
            ProgressEvent::Finished { experiment } => format!("{experiment}: finished"),
            ProgressEvent::DatasetCache { kind, outcome } => {
                format!("dataset cache {outcome} ({kind})")
            }
        }
    }
}

/// Receiver of [`ProgressEvent`]s; installed on a context via
/// [`ExperimentContext::with_sink`].
pub trait EventSink: Send + Sync {
    /// Called synchronously from the experiment's thread for each event.
    fn on_event(&self, event: &ProgressEvent<'_>);
}

/// Discards all events (the default sink).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn on_event(&self, _event: &ProgressEvent<'_>) {}
}

/// Prints each event as one `stderr` line, prefixed so driver output and
/// report text on `stdout` stay machine-parseable.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrSink;

impl EventSink for StderrSink {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        eprintln!("repro: {}", event.render());
    }
}

/// Records rendered events in memory; used by tests to assert that
/// experiments actually report progress.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<String>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rendered events received so far.
    pub fn events(&self) -> Vec<String> {
        self.events.lock().expect("sink mutex poisoned").clone()
    }
}

impl EventSink for MemorySink {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        self.events
            .lock()
            .expect("sink mutex poisoned")
            .push(event.render());
    }
}

/// Shared, clonable handle to an experiment run's cancellation flag.
///
/// Raise it from any thread (a signal handler, a UI, a timeout) and every
/// cooperative loop in the run — dataset generation and the fig7/fig8/fig10
/// trial loops — stops at its next checkpoint.
#[derive(Debug, Clone, Default)]
pub struct CancelHandle {
    flag: Arc<AtomicBool>,
}

impl CancelHandle {
    /// Creates a fresh, unraised handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag; idempotent and irrevocable for the run it is wired to.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The underlying atomic, for APIs (like [`rc4_exec::Executor::with_cancel`])
    /// that poll a raw flag.
    pub fn as_atomic(&self) -> &AtomicBool {
        &self.flag
    }
}

/// Upper bound on [`ProgressEvent::Progress`] emissions per second per
/// reporter. Events are advisory, so dropping intermediate ones loses
/// nothing; without the cap, parallel trial loops at high `--workers` emit
/// one event per trial and drown stderr (and any recording sink).
pub const PROGRESS_EVENTS_PER_SEC: u32 = 10;

/// Aggregated, rate-limited progress reporting for one experiment hot loop;
/// created by [`ExperimentContext::progress`] and safe to tick from parallel
/// workers.
#[derive(Debug)]
pub struct ProgressReporter<'c> {
    ctx: &'c ExperimentContext,
    experiment: &'static str,
    unit: &'static str,
    throttle: rc4_exec::ProgressThrottle,
}

impl ProgressReporter<'_> {
    /// Records `n` finished units, emitting a throttled
    /// [`ProgressEvent::Progress`] when due.
    pub fn tick(&self, n: u64) {
        self.throttle.tick(n, |completed, total| {
            self.ctx.emit(ProgressEvent::Progress {
                experiment: self.experiment,
                completed,
                total,
                unit: self.unit,
            });
        });
    }
}

/// Everything an [`crate::Experiment`] needs from its environment.
#[derive(Clone)]
pub struct ExperimentContext {
    seed: u64,
    workers: usize,
    sink: Arc<dyn EventSink>,
    cancel: CancelHandle,
    cache: Option<Arc<DatasetCache>>,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        Self {
            seed: 0,
            workers: 1,
            sink: Arc::new(NullSink),
            cancel: CancelHandle::new(),
            cache: None,
        }
    }
}

impl core::fmt::Debug for ExperimentContext {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ExperimentContext")
            .field("seed", &self.seed)
            .field("workers", &self.workers)
            .field("cancelled", &self.cancel.is_cancelled())
            .finish_non_exhaustive()
    }
}

impl ExperimentContext {
    /// The default context: seed mix `0`, one worker, no sink, never
    /// cancelled — exactly the historical standalone-function behaviour.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the global seed, XOR-mixed into every experiment's base seed by
    /// [`ExperimentContext::mix_seed`]. Seed `0` (the default) leaves each
    /// experiment's documented base seed untouched.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count used for dataset generation (clamped to
    /// at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Installs a progress sink.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Wires the context to an externally-owned cancellation handle.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelHandle) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches a dataset cache directory (created if absent). Experiments
    /// that generate keystream datasets will load matching complete datasets
    /// from it instead of regenerating, and persist fresh generations into it.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Component`] when the directory cannot be
    /// created.
    pub fn with_cache_dir(
        mut self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<Self, ExperimentError> {
        self.cache = Some(Arc::new(DatasetCache::open(dir)?));
        Ok(self)
    }

    /// Attaches an already-open dataset cache. Contexts sharing one cache
    /// share its single-flight table: concurrent misses on one dataset
    /// generate it once.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<DatasetCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The global seed mix.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Worker threads available for dataset generation (always ≥ 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Derives the effective seed for a component whose documented default
    /// seed is `base`. XOR keeps the default run (`seed == 0`) bit-identical
    /// to the historical outputs while any other global seed shifts every
    /// component deterministically.
    pub fn mix_seed(&self, base: u64) -> u64 {
        base ^ self.seed
    }

    /// The raw cancellation flag, for [`rc4_exec::Executor::with_cancel`].
    pub fn cancel_flag(&self) -> &AtomicBool {
        self.cancel.as_atomic()
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Hot-loop cancellation checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Cancelled`] once the flag has been raised.
    pub fn checkpoint(&self) -> Result<(), ExperimentError> {
        if self.is_cancelled() {
            Err(ExperimentError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Emits a progress event to the installed sink.
    pub fn emit(&self, event: ProgressEvent<'_>) {
        self.sink.on_event(&event);
    }

    /// An executor carrying the context's worker budget and cancellation
    /// flag — the one way experiments are expected to go parallel, so every
    /// parallel stage honours `--workers` and aborts on the shared token.
    pub fn executor(&self) -> rc4_exec::Executor<'_> {
        rc4_exec::Executor::new(self.workers).with_cancel(Some(self.cancel_flag()))
    }

    /// A throttled progress reporter for a hot loop of `total` units: ticks
    /// from any thread are aggregated and forwarded to the sink as
    /// [`ProgressEvent::Progress`] events, rate-limited to
    /// [`PROGRESS_EVENTS_PER_SEC`] so parallel workers cannot flood the sink
    /// (the first and the completing tick always get through).
    pub fn progress(
        &self,
        experiment: &'static str,
        total: u64,
        unit: &'static str,
    ) -> ProgressReporter<'_> {
        ProgressReporter {
            ctx: self,
            experiment,
            unit,
            throttle: rc4_exec::ProgressThrottle::new(total, PROGRESS_EVENTS_PER_SEC),
        }
    }

    /// Load-or-generate for keystream datasets: the shared cache protocol of
    /// every dataset-backed experiment.
    ///
    /// With no cache attached this generates `config`'s key space into
    /// `empty` with [`rc4_stats::generate_storable_with_exec`] on
    /// [`ExperimentContext::executor`]. With a cache attached, it is
    /// [`DatasetCache::load_or_generate`] with that generation as the miss
    /// step: a hit does *no generation work* (and may be the copy the
    /// cache's memory tier keeps resident for every job of the process), a
    /// miss is generated and persisted, and concurrent misses on one key
    /// through contexts sharing the cache generate once. Cache entries are
    /// validated against the full configuration and the store reproduces
    /// generation exactly (see `rc4-store`), so cached and fresh runs
    /// produce identical experiment output. A generation, cached or not,
    /// runs in a `stats.generate` trace span (kv `kind`, `keys` and `cells`)
    /// inside the call's `store.load_or_generate` span.
    ///
    /// # Errors
    ///
    /// Propagates generation errors ([`ExperimentError::Cancelled`] when the
    /// context is cancelled), and cache I/O / corruption errors as
    /// [`ExperimentError::Component`] (a damaged matching cache entry is
    /// reported, never silently regenerated).
    pub fn load_or_generate<D: StorableDataset + Sync + 'static>(
        &self,
        mut empty: D,
        config: &GenerationConfig,
    ) -> Result<Arc<D>, ExperimentError> {
        let _span = rc4_obs::Span::enter_with(
            "store.load_or_generate",
            rc4_obs::kv! {
                "kind" => D::kind(),
                "keys" => config.keys,
            },
        );
        let generate = |ds: &mut D| {
            let _span = rc4_obs::Span::enter_with(
                "stats.generate",
                rc4_obs::kv! {
                    "kind" => D::kind(),
                    "keys" => config.keys,
                    "cells" => ds.cell_count(),
                },
            );
            generate_storable_with_exec(ds, config, &self.executor())
        };
        let Some(cache) = self.cache.as_deref() else {
            generate(&mut empty)?;
            return Ok(Arc::new(empty));
        };
        let cache_event = |outcome| {
            self.emit(ProgressEvent::DatasetCache {
                kind: D::kind(),
                outcome,
            });
        };
        let mut generated = false;
        let dataset = cache.load_or_generate(empty, config, |ds| {
            generated = true;
            cache_event("miss");
            generate(ds)
        })?;
        cache_event(if generated { "stored" } else { "hit" });
        Ok(dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_matches_historical_behaviour() {
        let ctx = ExperimentContext::new();
        assert_eq!(ctx.seed(), 0);
        assert_eq!(ctx.workers(), 1);
        assert_eq!(ctx.mix_seed(0xB1A5), 0xB1A5);
        assert!(!ctx.is_cancelled());
        assert!(ctx.checkpoint().is_ok());
    }

    #[test]
    fn seed_mixing_and_worker_clamp() {
        let ctx = ExperimentContext::new().with_seed(0xFF).with_workers(0);
        assert_eq!(ctx.mix_seed(0x0F), 0xF0);
        assert_eq!(ctx.workers(), 1);
    }

    #[test]
    fn cancellation_propagates_through_checkpoint() {
        let handle = CancelHandle::new();
        let ctx = ExperimentContext::new().with_cancel(handle.clone());
        assert!(ctx.checkpoint().is_ok());
        handle.cancel();
        assert!(ctx.is_cancelled());
        assert_eq!(ctx.checkpoint(), Err(ExperimentError::Cancelled));
        // The raw flag view agrees.
        assert!(ctx.cancel_flag().load(std::sync::atomic::Ordering::Relaxed));
    }

    #[test]
    fn load_or_generate_without_cache_matches_direct_generation() {
        use rc4_stats::{single::SingleByteDataset, GenerationConfig};
        let ctx = ExperimentContext::new().with_workers(2);
        let config = GenerationConfig::with_keys(300).seed(3);
        let via_ctx = ctx
            .load_or_generate(SingleByteDataset::new(4), &config)
            .unwrap();
        let mut direct = SingleByteDataset::new(4);
        generate_storable_with_exec(&mut direct, &config, &rc4_exec::Executor::serial()).unwrap();
        for r in 1..=4 {
            assert_eq!(via_ctx.counts_at(r), direct.counts_at(r));
        }
    }

    #[test]
    fn load_or_generate_misses_then_hits_and_reports_events() {
        use rc4_stats::{single::SingleByteDataset, GenerationConfig};
        let dir =
            std::env::temp_dir().join(format!("rc4-attacks-ctx-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = Arc::new(MemorySink::new());
        let ctx = ExperimentContext::new()
            .with_sink(sink.clone())
            .with_cache_dir(&dir)
            .unwrap();
        let config = GenerationConfig::with_keys(200).seed(7);
        let fresh = ctx
            .load_or_generate(SingleByteDataset::new(3), &config)
            .unwrap();
        // Second call must not generate at all: a cancelled context would
        // fail any generation, but a hit never starts one.
        let handle = CancelHandle::new();
        handle.cancel();
        let cached = ctx
            .clone()
            .with_cancel(handle)
            .load_or_generate(SingleByteDataset::new(3), &config)
            .unwrap();
        for r in 1..=3 {
            assert_eq!(cached.counts_at(r), fresh.counts_at(r));
        }
        assert_eq!(
            sink.events(),
            vec![
                "dataset cache miss (single)",
                "dataset cache stored (single)",
                "dataset cache hit (single)"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records events and holds each `miss` until a second `miss` arrives
    /// or 300 ms pass, so callers that could both miss are made to overlap.
    #[derive(Default)]
    struct MissGate {
        misses: Mutex<usize>,
        arrived: std::sync::Condvar,
        events: MemorySink,
    }

    impl EventSink for MissGate {
        fn on_event(&self, event: &ProgressEvent<'_>) {
            self.events.on_event(event);
            if let ProgressEvent::DatasetCache {
                outcome: "miss", ..
            } = event
            {
                let mut misses = self.misses.lock().unwrap();
                *misses += 1;
                self.arrived.notify_all();
                let patience = std::time::Duration::from_millis(300);
                let _ = self
                    .arrived
                    .wait_timeout_while(misses, patience, |n| *n < 2)
                    .unwrap();
            }
        }
    }

    #[test]
    fn concurrent_load_or_generate_same_key_generates_exactly_once() {
        use rc4_stats::{single::SingleByteDataset, GenerationConfig};

        let dir = std::env::temp_dir().join(format!(
            "rc4-attacks-singleflight-cache-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(DatasetCache::open(&dir).unwrap());
        let gate = Arc::new(MissGate::default());
        let config = GenerationConfig::with_keys(400).seed(11);

        // All threads race load_or_generate on the SAME (kind, shape, config)
        // key, each from its own context sharing nothing but the cache (the
        // server shape: one context per job). Without single-flight several
        // would miss, and the gate holds each miss until another arrives.
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let ctx = ExperimentContext::new()
                    .with_cache(Arc::clone(&cache))
                    .with_sink(gate.clone());
                std::thread::spawn(move || {
                    ctx.load_or_generate(SingleByteDataset::new(4), &config)
                        .unwrap()
                })
            })
            .collect();
        let datasets: Vec<Arc<SingleByteDataset>> = handles
            .into_iter()
            .map(|h| h.join().expect("racing thread panicked"))
            .collect();

        let count = |outcome: &str| {
            let event = format!("dataset cache {outcome} (single)");
            gate.events.events().iter().filter(|e| **e == event).count()
        };
        assert_eq!(
            (count("miss"), count("stored"), count("hit")),
            (1, 1, 5),
            "single-flight must collapse concurrent misses into one generation"
        );
        // Every caller sees byte-identical counts.
        let reference = &datasets[0];
        for ds in &datasets[1..] {
            for r in 1..=4 {
                assert_eq!(ds.counts_at(r), reference.counts_at(r));
            }
        }
        // Exactly one flight led; the rest waited (or arrived after the
        // store, which also counts as a begun flight that then hit).
        let stats = cache.flight_stats();
        assert_eq!(stats.begun, 6);
        assert_eq!(stats.in_flight, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn executor_carries_workers_and_cancellation() {
        let handle = CancelHandle::new();
        let ctx = ExperimentContext::new()
            .with_workers(3)
            .with_cancel(handle.clone());
        let exec = ctx.executor();
        assert_eq!(exec.workers(), 3);
        assert!(!exec.is_cancelled());
        handle.cancel();
        assert!(exec.is_cancelled());
        assert_eq!(
            exec.map(vec![1, 2, 3], |_, x| Ok::<_, ()>(x)),
            Err(rc4_exec::ExecError::Cancelled)
        );
    }

    #[test]
    fn progress_reporter_throttles_and_reports_completion() {
        let sink = Arc::new(MemorySink::new());
        let ctx = ExperimentContext::new().with_sink(sink.clone());
        let reporter = ctx.progress("x", 5_000, "trial");
        for _ in 0..5_000 {
            reporter.tick(1);
        }
        let events = sink.events();
        assert_eq!(events.first().map(String::as_str), Some("x: 1/5000 trials"));
        assert_eq!(
            events.last().map(String::as_str),
            Some("x: 5000/5000 trials")
        );
        // 5000 ticks in well under a second: the rate limit must have
        // swallowed almost everything in between.
        assert!(events.len() < 100, "{} events got through", events.len());
    }

    #[test]
    fn memory_sink_records_rendered_events() {
        let sink = Arc::new(MemorySink::new());
        let ctx = ExperimentContext::new().with_sink(sink.clone());
        ctx.emit(ProgressEvent::Started { experiment: "x" });
        ctx.emit(ProgressEvent::Progress {
            experiment: "x",
            completed: 1,
            total: 4,
            unit: "point",
        });
        ctx.emit(ProgressEvent::Finished { experiment: "x" });
        assert_eq!(
            sink.events(),
            vec!["x: started", "x: 1/4 points", "x: finished"]
        );
    }

    #[test]
    fn unknown_total_renders_without_denominator() {
        // Total 0 means "unknown in advance" — "512/0 captures" would be
        // nonsense, so the rendering drops the denominator entirely.
        let event = ProgressEvent::Progress {
            experiment: "tls-cookie-stream",
            completed: 512,
            total: 0,
            unit: "capture",
        };
        assert_eq!(event.render(), "tls-cookie-stream: 512 captures");
    }
}
