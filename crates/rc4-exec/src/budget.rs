//! Shared worker-budget accounting for multi-job schedulers.
//!
//! A long-lived server schedules many jobs onto one machine; each job runs
//! its own [`crate::Executor`] with a per-job thread budget. [`Budget`] is
//! the bookkeeping between them: a fixed pool of worker slots that jobs
//! reserve before running and release when done, with blocking acquisition
//! (so a scheduler thread can park until capacity frees up) and a cheap
//! [`BudgetStats`] snapshot for status endpoints.
//!
//! The budget is *advisory* accounting, not an enforcement mechanism: it
//! never spawns or limits threads itself. A job that reserves `n` slots is
//! expected to run its executor with `workers = n`. Keeping the accounting
//! separate from the pool keeps `Executor` scoped and stateless, which is
//! what the determinism contract (worker count as a pure thread budget)
//! relies on.

use std::sync::{Arc, Condvar, Mutex};

/// Point-in-time view of a [`Budget`], for status/introspection endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetStats {
    /// Total worker slots the budget was created with.
    pub total: usize,
    /// Slots currently reserved by running jobs.
    pub in_use: usize,
    /// Threads currently blocked in [`Budget::acquire`] waiting for slots.
    pub waiting: usize,
    /// Reservations granted since the budget was created.
    pub granted: usize,
}

#[derive(Debug)]
struct BudgetState {
    in_use: usize,
    waiting: usize,
    granted: usize,
}

/// A fixed pool of worker slots shared by concurrent jobs.
///
/// Reservations are granted by [`Budget::acquire`], which blocks until the
/// requested count fits, and returned by dropping the [`BudgetLease`].
/// Requests larger than the whole budget are clamped to it, so a job asking
/// for "as many workers as possible" simply waits for an idle machine.
///
/// ```
/// use rc4_exec::Budget;
/// use std::sync::Arc;
///
/// let budget = Arc::new(Budget::new(4));
/// let lease = budget.acquire(3);
/// assert_eq!(lease.workers(), 3);
/// assert_eq!(budget.stats().in_use, 3);
/// drop(lease);
/// assert_eq!(budget.stats().in_use, 0);
/// ```
#[derive(Debug)]
pub struct Budget {
    total: usize,
    state: Mutex<BudgetState>,
    freed: Condvar,
}

impl Budget {
    /// Creates a budget of `total` worker slots (clamped to at least 1).
    pub fn new(total: usize) -> Self {
        Budget {
            total: total.max(1),
            state: Mutex::new(BudgetState {
                in_use: 0,
                waiting: 0,
                granted: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// Total worker slots in the budget.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Blocks until `workers` slots (clamped to `[1, total]`) are free, then
    /// reserves them. The lease keeps the budget alive via `Arc`, so the
    /// reservation can move into a spawned (`'static`) job thread and be
    /// released from there. Fairness is the platform condvar's: all waiters
    /// wake on each release and the first to fit wins, so small jobs may
    /// overtake one large waiting job; the server's queue orders *admission*,
    /// this only orders *capacity*.
    pub fn acquire(self: &Arc<Self>, workers: usize) -> BudgetLease {
        let want = workers.clamp(1, self.total);
        let mut state = self.state.lock().expect("budget lock poisoned");
        while self.total - state.in_use < want {
            state.waiting += 1;
            state = self.freed.wait(state).expect("budget lock poisoned");
            state.waiting -= 1;
        }
        state.in_use += want;
        state.granted += 1;
        BudgetLease {
            budget: Arc::clone(self),
            workers: want,
        }
    }

    /// Snapshots the current accounting.
    pub fn stats(&self) -> BudgetStats {
        let state = self.state.lock().expect("budget lock poisoned");
        BudgetStats {
            total: self.total,
            in_use: state.in_use,
            waiting: state.waiting,
            granted: state.granted,
        }
    }

    fn release(&self, workers: usize) {
        let mut state = self.state.lock().expect("budget lock poisoned");
        debug_assert!(state.in_use >= workers);
        state.in_use -= workers;
        drop(state);
        self.freed.notify_all();
    }
}

/// A granted reservation of worker slots; returns them on drop. Created by
/// [`Budget::acquire`].
#[derive(Debug)]
pub struct BudgetLease {
    budget: Arc<Budget>,
    workers: usize,
}

impl BudgetLease {
    /// The number of slots this lease holds — the thread budget the job
    /// should hand its executor.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        self.budget.release(self.workers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn acquire_and_release_round_trip() {
        let budget = Arc::new(Budget::new(4));
        let a = budget.acquire(2);
        let b = budget.acquire(2);
        assert_eq!(budget.stats().in_use, 4);
        drop(a);
        assert_eq!(budget.stats().in_use, 2);
        drop(b);
        let stats = budget.stats();
        assert_eq!(stats.in_use, 0);
        assert_eq!(stats.granted, 2);
    }

    #[test]
    fn oversized_request_is_clamped_to_total() {
        let budget = Arc::new(Budget::new(3));
        let lease = budget.acquire(64);
        assert_eq!(lease.workers(), 3);
        assert_eq!(budget.stats().in_use, 3);
    }

    #[test]
    fn zero_request_still_reserves_one_slot() {
        let budget = Arc::new(Budget::new(3));
        let lease = budget.acquire(0);
        assert_eq!(lease.workers(), 1);
    }

    #[test]
    fn acquire_blocks_until_capacity_frees() {
        let budget = Arc::new(Budget::new(2));
        let held = budget.acquire(2);
        let acquired = Arc::new(AtomicUsize::new(0));

        let waiter = {
            let budget = Arc::clone(&budget);
            let acquired = Arc::clone(&acquired);
            std::thread::spawn(move || {
                let lease = budget.acquire(1);
                acquired.store(lease.workers(), Ordering::SeqCst);
            })
        };

        // Give the waiter time to park, then confirm it is actually waiting.
        for _ in 0..200 {
            if budget.stats().waiting == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(budget.stats().waiting, 1);
        assert_eq!(acquired.load(Ordering::SeqCst), 0);

        drop(held);
        waiter.join().expect("waiter thread panicked");
        assert_eq!(acquired.load(Ordering::SeqCst), 1);
        assert_eq!(budget.stats().in_use, 0);
    }

    #[test]
    fn owned_lease_moves_into_a_thread_and_releases() {
        let budget = Arc::new(Budget::new(2));
        let lease = budget.acquire(2);
        assert_eq!(lease.workers(), 2);
        let worker = std::thread::spawn(move || drop(lease));
        worker.join().expect("lease thread panicked");
        assert_eq!(budget.stats().in_use, 0);
        assert_eq!(budget.stats().granted, 1);
    }

    #[test]
    fn stats_counts_parallel_grants() {
        let budget = Arc::new(Budget::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let budget = Arc::clone(&budget);
                std::thread::spawn(move || {
                    let _lease = budget.acquire(1);
                    std::thread::sleep(Duration::from_millis(2));
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("grant thread panicked");
        }
        let stats = budget.stats();
        assert_eq!(stats.granted, 8);
        assert_eq!(stats.in_use, 0);
        assert_eq!(stats.waiting, 0);
    }
}
