//! The scoped work-stealing pool.
//!
//! Work distribution: the items of a [`Executor::map`] call are dealt to
//! per-worker deques in contiguous blocks; each worker pops from the front of
//! its own deque and, when empty, steals from the *back* of a sibling's.
//! Contiguous blocks keep a worker's items cache-adjacent, stealing from the
//! back keeps the victim's front (its own next pop) untouched, and because
//! every claimed index runs the item exactly once, scheduling can never
//! change *what* is computed — only *where*.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

/// Why a parallel call did not return a full result set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError<E> {
    /// The executor's cancellation flag was observed set before the call
    /// completed. Partial results are discarded.
    Cancelled,
    /// A task failed. When several tasks fail in one call, the failure with
    /// the lowest item index among those that ran is reported.
    Task {
        /// Index of the failing item.
        index: usize,
        /// The task's error.
        error: E,
    },
}

impl<E: core::fmt::Display> core::fmt::Display for ExecError<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::Cancelled => write!(f, "execution cancelled"),
            ExecError::Task { index, error } => write!(f, "task {index} failed: {error}"),
        }
    }
}

impl<E: core::fmt::Display + core::fmt::Debug> std::error::Error for ExecError<E> {}

/// What one pool worker brings home: its completed `(index, result)` pairs
/// plus the failure that stopped it, if any.
type WorkerHarvest<R, E> = (Vec<(usize, R)>, Option<(usize, E)>);

/// A scoped thread pool bound to a worker budget and an optional cooperative
/// cancellation flag (typically an experiment run's token).
///
/// The executor is cheap to construct — threads are spawned per call and
/// joined before the call returns, so borrowed data can flow into tasks
/// freely. One worker means strictly inline execution on the calling thread.
///
/// # Examples
///
/// ```
/// use rc4_exec::Executor;
///
/// let exec = Executor::new(4);
/// let squares = exec
///     .map((0u64..8).collect(), |_, x| Ok::<_, ()>(x * x))
///     .unwrap();
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Executor<'e> {
    workers: usize,
    cancel: Option<&'e AtomicBool>,
}

impl<'e> Executor<'e> {
    /// Creates an executor with the given worker budget (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            cancel: None,
        }
    }

    /// A single-threaded executor: every call runs inline in item order.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Binds the executor to a cooperative cancellation flag. Workers poll it
    /// between items; a raised flag makes the in-flight call return
    /// [`ExecError::Cancelled`] once running items finish.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Option<&'e AtomicBool>) -> Self {
        self.cancel = cancel;
        self
    }

    /// The worker budget.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the bound cancellation flag is currently raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// The bound cancellation flag, for tasks that poll internally.
    pub fn cancel_flag(&self) -> Option<&'e AtomicBool> {
        self.cancel
    }

    /// Runs `f(index, item)` for every item and returns the results **in item
    /// order**. See the crate docs for the determinism contract.
    ///
    /// # Errors
    ///
    /// [`ExecError::Cancelled`] when the cancellation flag was observed set
    /// (this takes precedence over task failures), otherwise the
    /// lowest-indexed task failure that occurred. After a failure, workers
    /// stop claiming new items.
    pub fn map<T, R, E, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, ExecError<E>>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(usize, T) -> Result<R, E> + Sync,
    {
        let n = items.len();
        if self.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        let threads = self.workers.min(n);
        // Observability is strictly additive: with metrics/tracing disabled
        // (the default) these guards cost one relaxed atomic load each and
        // no clock reads, so results and BENCH numbers are untouched.
        let _span = rc4_obs::Span::enter_with(
            "exec.map",
            rc4_obs::kv! {
                "items" => n,
                "threads" => threads.max(1),
            },
        );
        let obs = rc4_obs::metrics::is_enabled();
        let map_start = obs.then(Instant::now);
        rc4_obs::metrics::counter_add("exec.map.calls", 1);
        if threads <= 1 {
            let mut out = Vec::with_capacity(n);
            for (index, item) in items.into_iter().enumerate() {
                if self.is_cancelled() {
                    return Err(ExecError::Cancelled);
                }
                out.push(f(index, item).map_err(|error| ExecError::Task { index, error })?);
            }
            if let Some(start) = map_start {
                rc4_obs::metrics::counter_add("exec.tasks", out.len() as u64);
                rc4_obs::metrics::observe_us("exec.map_us", start.elapsed().as_micros() as u64);
            }
            return Ok(out);
        }

        // Each item sits in a take-once slot; per-worker deques hold indices
        // in contiguous blocks (worker w owns block w).
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let queues: Vec<Mutex<VecDeque<usize>>> = split_blocks(n, threads)
            .into_iter()
            .map(|range| Mutex::new(range.collect()))
            .collect();
        let abort = AtomicBool::new(false);

        let per_worker: Vec<WorkerHarvest<R, E>> = thread::scope(|scope| {
            let slots = &slots;
            let queues = &queues;
            let abort = &abort;
            let f = &f;
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    scope.spawn(move || {
                        let mut done: Vec<(usize, R)> = Vec::new();
                        let mut failure: Option<(usize, E)> = None;
                        // Per-worker tallies land in the registry as one add
                        // per name at worker exit, never per item.
                        let worker_start = obs.then(Instant::now);
                        let mut tasks = 0u64;
                        let mut steals = 0u64;
                        let mut busy_us = 0u64;
                        while !abort.load(Ordering::Relaxed) && !self.is_cancelled() {
                            let Some((index, stolen)) = claim(w, queues) else {
                                break;
                            };
                            tasks += 1;
                            steals += u64::from(stolen);
                            let item = slots[index]
                                .lock()
                                .expect("item slot poisoned")
                                .take()
                                .expect("item claimed twice");
                            let task_start = obs.then(Instant::now);
                            let outcome = f(index, item);
                            if let Some(start) = task_start {
                                busy_us += start.elapsed().as_micros() as u64;
                            }
                            match outcome {
                                Ok(r) => done.push((index, r)),
                                Err(e) => {
                                    failure = Some((index, e));
                                    abort.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                        if let Some(start) = worker_start {
                            let wall_us = start.elapsed().as_micros() as u64;
                            rc4_obs::metrics::counter_add("exec.tasks", tasks);
                            rc4_obs::metrics::counter_add("exec.steals", steals);
                            rc4_obs::metrics::counter_add("exec.worker_busy_us", busy_us);
                            rc4_obs::metrics::counter_add(
                                "exec.worker_idle_us",
                                wall_us.saturating_sub(busy_us),
                            );
                        }
                        (done, failure)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rc4-exec worker panicked"))
                .collect()
        });

        if self.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        let mut first_failure: Option<(usize, E)> = None;
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (done, failure) in per_worker {
            for (index, r) in done {
                out[index] = Some(r);
            }
            if let Some((index, error)) = failure {
                match &first_failure {
                    Some((best, _)) if *best <= index => {}
                    _ => first_failure = Some((index, error)),
                }
            }
        }
        if let Some((index, error)) = first_failure {
            return Err(ExecError::Task { index, error });
        }
        if let Some(start) = map_start {
            rc4_obs::metrics::observe_us("exec.map_us", start.elapsed().as_micros() as u64);
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every item ran exactly once"))
            .collect())
    }
}

/// Splits `0..n` into `parts` contiguous ranges, the first `n % parts` one
/// element longer — the same deal rule as `GenerationConfig::keys_for_worker`.
fn split_blocks(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Claims the next item index for worker `w`: own queue front first, then
/// steal from the back of the other queues (scanning from `w + 1` so load
/// spreads instead of every idle worker mobbing queue 0). The flag reports
/// whether the index was stolen from a sibling (feeds `exec.steals`).
fn claim(w: usize, queues: &[Mutex<VecDeque<usize>>]) -> Option<(usize, bool)> {
    if let Some(idx) = queues[w].lock().expect("work queue poisoned").pop_front() {
        return Some((idx, false));
    }
    let n = queues.len();
    for offset in 1..n {
        let victim = (w + offset) % n;
        if let Some(idx) = queues[victim]
            .lock()
            .expect("work queue poisoned")
            .pop_back()
        {
            return Some((idx, true));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_returns_results_in_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 8, 200] {
            let exec = Executor::new(workers);
            let got = exec
                .map(items.clone(), |i, x| {
                    assert_eq!(i as u64, x);
                    Ok::<_, ()>(x * 3 + 1)
                })
                .unwrap();
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..63).map(|_| AtomicUsize::new(0)).collect();
        let exec = Executor::new(4);
        exec.map((0..counters.len()).collect(), |_, i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
            Ok::<_, ()>(())
        })
        .unwrap();
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn empty_input_and_zero_workers() {
        let exec = Executor::new(0);
        assert_eq!(exec.workers(), 1);
        let out: Vec<u8> = exec.map(Vec::<u8>::new(), |_, x| Ok::<_, ()>(x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn task_error_reports_lowest_index_and_stops_claiming() {
        // Serial executor: deterministic — item 3 fails, items 4+ never run.
        let ran = AtomicUsize::new(0);
        let exec = Executor::serial();
        let err = exec
            .map((0..10).collect::<Vec<usize>>(), |i, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i >= 3 {
                    Err(format!("boom {i}"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::Task {
                index: 3,
                error: "boom 3".to_string()
            }
        );
        assert_eq!(ran.load(Ordering::Relaxed), 4);

        // Parallel: whichever workers hit errors, the lowest index among the
        // failures is reported.
        let exec = Executor::new(4);
        let err = exec
            .map((0..40).collect::<Vec<usize>>(), |i, _| {
                if i % 2 == 1 {
                    Err(i)
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        match err {
            ExecError::Task { index, error } => {
                assert_eq!(index, error);
                assert_eq!(index % 2, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "rc4-exec worker panicked")]
    fn panicking_task_panics_out_of_map() {
        let _ = Executor::new(2).map((0..4).collect::<Vec<u32>>(), |_, x| {
            if x == 3 {
                panic!("task panic");
            }
            Ok::<_, ()>(x)
        });
    }

    #[test]
    fn pre_raised_cancel_flag_short_circuits() {
        let cancel = AtomicBool::new(true);
        for workers in [1, 4] {
            let exec = Executor::new(workers).with_cancel(Some(&cancel));
            let r = exec.map((0..100).collect::<Vec<u32>>(), |_, x| Ok::<_, ()>(x));
            assert_eq!(r, Err(ExecError::Cancelled), "workers = {workers}");
        }
    }

    #[test]
    fn cancellation_mid_run_wins_over_completion() {
        let cancel = AtomicBool::new(false);
        let exec = Executor::new(4).with_cancel(Some(&cancel));
        // The first few items raise the flag; remaining items are skipped and
        // the call reports Cancelled rather than a partial success.
        let r = exec.map((0..1000).collect::<Vec<u32>>(), |i, x| {
            if i == 0 {
                cancel.store(true, Ordering::Relaxed);
            }
            Ok::<_, ()>(x)
        });
        assert_eq!(r, Err(ExecError::Cancelled));
    }

    #[test]
    fn split_blocks_covers_everything_contiguously() {
        for (n, parts) in [(10, 3), (3, 8), (0, 2), (16, 4)] {
            let blocks = split_blocks(n, parts);
            assert_eq!(blocks.len(), parts);
            let flat: Vec<usize> = blocks.into_iter().flatten().collect();
            assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
        }
    }

    #[test]
    fn error_display() {
        let e: ExecError<String> = ExecError::Task {
            index: 7,
            error: "x".into(),
        };
        assert!(e.to_string().contains("task 7"));
        assert!(ExecError::<String>::Cancelled
            .to_string()
            .contains("cancel"));
    }
}
