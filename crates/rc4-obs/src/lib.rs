//! Observability for the RC4-bias reproduction stack: metrics + tracing.
//!
//! Two independent facilities, both **process-global and disabled by
//! default**, both built only on `std` atomics plus the vendored serde
//! subset (no tokio, no tracing crate):
//!
//! * [`metrics`] — a registry of named counters and fixed-bucket
//!   histograms. Mutations are atomic adds; the name table is interned
//!   lazily behind a mutex the first time a metric is touched. Until
//!   [`metrics::enable`] is called every mutation returns after a single
//!   relaxed atomic load and the registry stays empty, so a snapshot of a
//!   never-enabled process is empty by construction.
//! * [`trace`] — span-based structured tracing. [`trace::Span::enter`]
//!   returns a guard that records wall-time and parent/child nesting into a
//!   bounded per-thread buffer, flushed as JSONL to the writer installed by
//!   [`trace::init_file`] / [`trace::init_writer`]. Until a writer is
//!   installed the guard is a no-op `Option::None` that allocates nothing,
//!   so instrumented hot paths cost a few nanoseconds when tracing is off —
//!   the determinism contract and the committed BENCH numbers are untouched.
//! * [`summary`] — offline aggregation of a trace JSONL file into a
//!   per-span-name table (count / total / mean / p95 / max), backing
//!   `repro trace summarize`.
//!
//! # Why no-op by default matters
//!
//! The workspace pins two contracts that an observability layer could
//! silently break: `repro run all --json` must stay byte-identical at any
//! worker count, and the BENCH perf gate compares against committed
//! numbers. Neither facility ever writes to stdout, and with both disabled
//! the instrumented code paths perform no allocation, no locking and no
//! clock reads (pinned by the `disabled_noop` integration test with a
//! counting allocator).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod summary;
pub mod trace;

pub use trace::Span;

/// Builds the lazy key/value closure accepted by [`trace::Span::enter_with`].
///
/// The closure — and therefore every value's `to_string()` — is only
/// evaluated when tracing is enabled, so `kv!` arguments cost nothing on the
/// disabled path.
///
/// ```
/// use rc4_obs::{kv, Span};
/// let keys = 4096u64;
/// let _span = Span::enter_with("store.load_or_generate", kv! {
///     "kind" => "per-tsc",
///     "keys" => keys,
/// });
/// ```
#[macro_export]
macro_rules! kv {
    { $($key:literal => $val:expr),* $(,)? } => {
        || ::std::vec![ $( ($key, ($val).to_string()) ),* ]
    };
}
