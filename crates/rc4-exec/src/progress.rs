//! Aggregated, rate-limited progress reporting.
//!
//! Parallel workers used to push one event per finished chunk straight into
//! the sink; at high worker counts that floods stderr (and any recording
//! sink) with thousands of near-identical lines. [`ProgressThrottle`]
//! aggregates ticks from any number of threads into one monotonic counter and
//! forwards at most ~`max_events_per_sec` renderings of it, while always
//! letting the first and the final tick through so short runs still report
//! and completion is never silent.
//!
//! Throttling is wall-clock based and therefore non-deterministic — which is
//! fine *only* because progress events are advisory by contract
//! (`rc4-attacks`' `ProgressEvent` docs: sinks must not influence results).
//! Nothing that feeds an experiment report may pass through this type.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A thread-safe progress counter that rate-limits how often it reports.
///
/// A `total` of `0` means the total is *unknown* (streaming ingestion, open
/// -ended capture loops): every tick is purely rate-limited and no tick is
/// ever treated as "finishing". With a non-zero total, the tick that reaches
/// it emits a terminal `(done, total)` event exactly once — concurrent
/// over-shooting ticks do not produce duplicate completion records.
///
/// # Examples
///
/// ```
/// use rc4_exec::ProgressThrottle;
///
/// let progress = ProgressThrottle::new(100, 10);
/// let mut seen = Vec::new();
/// for _ in 0..100 {
///     progress.tick(1, |done, total| seen.push((done, total)));
/// }
/// // The first and the final tick always report; the middle is rate-limited.
/// assert_eq!(seen.first(), Some(&(1, 100)));
/// assert_eq!(seen.last(), Some(&(100, 100)));
/// ```
#[derive(Debug)]
pub struct ProgressThrottle {
    total: u64,
    min_interval: Duration,
    done: AtomicU64,
    /// Set by the single tick that claims the terminal emission (only
    /// meaningful when `total > 0`). Ticks arriving after the claim are
    /// post-completion noise and are swallowed entirely.
    final_claimed: AtomicBool,
    /// `None` until the first emission; guards the emission timestamp. Taken
    /// with `try_lock` so a contended tick skips its emission instead of
    /// blocking a worker (some other thread is emitting right now anyway).
    last_emit: Mutex<Option<Instant>>,
}

impl ProgressThrottle {
    /// Creates a counter for `total` units reporting at most
    /// ~`max_events_per_sec` times per second (clamped to ≥ 1).
    ///
    /// Pass `total = 0` for an unknown total: all ticks are rate-limited and
    /// none is promoted to a terminal event.
    pub fn new(total: u64, max_events_per_sec: u32) -> Self {
        Self {
            total,
            min_interval: Duration::from_secs(1) / max_events_per_sec.max(1),
            done: AtomicU64::new(0),
            final_claimed: AtomicBool::new(false),
            last_emit: Mutex::new(None),
        }
    }

    /// The configured unit total (`0` = unknown).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Units completed so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Records `n` completed units and calls `emit(done, total)` if this tick
    /// is due: the counter just started, just completed (known totals only),
    /// or the rate limit has lapsed. `emit` runs on the ticking thread.
    ///
    /// With a non-zero total, exactly one tick — the first to observe
    /// `done >= total` — emits the terminal event; later ticks are dropped.
    /// With `total == 0` (unknown), ticks are never forced through and never
    /// dropped: the plain rate limit decides.
    pub fn tick<F: FnOnce(u64, u64)>(&self, n: u64, emit: F) {
        let done = self.done.fetch_add(n, Ordering::Relaxed) + n;
        if self.total > 0 && done >= self.total {
            // Terminal region. The first tick here claims the one completion
            // event (blocking for the lock is fine: it happens once); every
            // later tick is post-completion noise and is swallowed so JSON
            // consumers see a single completion record.
            if !self.final_claimed.swap(true, Ordering::Relaxed) {
                let mut last = self.last_emit.lock().expect("progress mutex poisoned");
                *last = Some(Instant::now());
                emit(done, self.total);
            }
            return;
        }
        let Ok(mut last) = self.last_emit.try_lock() else {
            // Another thread holds the emission slot; its event covers us.
            return;
        };
        let due = match *last {
            None => true,
            Some(at) => at.elapsed() >= self.min_interval,
        };
        if due {
            *last = Some(Instant::now());
            emit(done, self.total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_and_final_ticks_always_emit() {
        let p = ProgressThrottle::new(1000, 10);
        let mut events = Vec::new();
        for _ in 0..1000 {
            p.tick(1, |d, t| events.push((d, t)));
        }
        assert_eq!(events.first(), Some(&(1, 1000)));
        assert_eq!(events.last(), Some(&(1000, 1000)));
        // A tight loop over 1000 ticks takes far less than a second, so the
        // rate limiter must have swallowed almost everything in between.
        assert!(
            events.len() < 100,
            "rate limit ineffective: {} events",
            events.len()
        );
        assert_eq!(p.done(), 1000);
        assert_eq!(p.total(), 1000);
    }

    #[test]
    fn multi_unit_ticks_accumulate() {
        let p = ProgressThrottle::new(100, 1000);
        let mut last_done = 0;
        for _ in 0..4 {
            p.tick(25, |d, _| last_done = d);
        }
        assert_eq!(p.done(), 100);
        assert_eq!(last_done, 100);
    }

    #[test]
    fn concurrent_ticks_report_completion_exactly() {
        use std::sync::atomic::AtomicU64;
        let p = ProgressThrottle::new(4000, 10);
        let finals = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        p.tick(1, |d, t| {
                            if d >= t {
                                finals.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    }
                });
            }
        });
        assert_eq!(p.done(), 4000);
        // Exactly one tick reports completion — no duplicate terminal events.
        assert_eq!(finals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn overshooting_ticks_emit_one_terminal_event() {
        use std::sync::atomic::AtomicU64;
        // 5000 ticks against a total of 4000: 1001 ticks land at or past the
        // total from 4 threads, yet only the first may report.
        let p = ProgressThrottle::new(4000, 1_000_000);
        let finals = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1250 {
                        p.tick(1, |d, t| {
                            if d >= t {
                                finals.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    }
                });
            }
        });
        assert_eq!(p.done(), 5000);
        assert_eq!(finals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unknown_total_is_rate_limited_not_forced() {
        // Regression: total == 0 used to make every tick "finished", so every
        // tick took the blocking-lock path and emitted — defeating both the
        // rate limit and the try-lock contention escape.
        let p = ProgressThrottle::new(0, 10);
        let mut events = Vec::new();
        for _ in 0..10_000 {
            p.tick(1, |d, t| events.push((d, t)));
        }
        // The first tick reports (counter just started) ...
        assert_eq!(events.first(), Some(&(1, 0)));
        // ... and the rest are rate-limited like any mid-run tick.
        assert!(
            events.len() < 100,
            "unknown-total ticks must be rate-limited: {} events",
            events.len()
        );
        assert_eq!(p.done(), 10_000);
        assert_eq!(p.total(), 0);
    }

    #[test]
    fn zero_rate_is_clamped() {
        let p = ProgressThrottle::new(2, 0);
        let mut events = 0;
        p.tick(1, |_, _| events += 1);
        p.tick(1, |_, _| events += 1);
        // First and final still get through.
        assert_eq!(events, 2);
    }
}
