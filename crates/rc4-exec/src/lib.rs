//! The workspace's shared parallel execution layer.
//!
//! Before this crate existed, every parallel site hand-rolled its own
//! threading: the `rc4-stats` key-space walker, `rc4-store`'s round-based shard
//! generation and the experiment hot loops each spawned scoped threads,
//! polled their own cancellation flag and invented their own progress
//! plumbing. This crate centralizes that into one substrate:
//!
//! * [`Executor`] — a scoped work-stealing thread pool (built on
//!   `std::thread::scope`) exposing one operation, [`Executor::map`]
//!   (parallel map with results in item order). Callers fold or fill from
//!   the returned `Vec` themselves, in item order.
//! * [`ExecError`] — cancellation and task failure, generic over the caller's
//!   error type so every crate keeps its own error enum.
//! * [`ProgressThrottle`] — an aggregated, rate-limited progress counter so a
//!   hundred workers ticking per chunk collapse into a few events per second.
//! * [`Budget`] — shared worker-slot accounting for multi-job schedulers: a
//!   server reserves a per-job thread budget before running a job's executor
//!   and releases it after, with [`BudgetStats`] for status endpoints. Its
//!   one acquisition path, [`Budget::acquire`], returns an `Arc`-backed
//!   [`BudgetLease`] that can move into the job's thread.
//!
//! # Determinism contract
//!
//! Callers rely on *worker-count invariance*: the same inputs must produce
//! bit-identical outputs whether the executor runs with 1 thread or N. The
//! pool guarantees its half of the contract:
//!
//! * `map` returns results **in item order**, whatever order items finished
//!   in, and runs every item exactly once.
//! * With one worker (or one item) the pool degrades to an inline loop in
//!   item order on the calling thread — the serial and parallel paths execute
//!   the same per-item code.
//!
//! The caller owns the other half: per-item work must not depend on shared
//! mutable state, and any randomness must come from *per-item* RNG streams
//! (derive a seed from the item index, never thread one RNG through items).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod pool;
mod progress;

pub use budget::{Budget, BudgetLease, BudgetStats};
pub use pool::{ExecError, Executor};
pub use progress::ProgressThrottle;
