//! Attack-as-a-service: the resident `reprod` job server (ROADMAP item 2).
//!
//! Every reproduction used to be a one-shot CLI process. This crate promotes
//! the `rc4-attacks` Experiment registry + `ExperimentContext` into a
//! long-lived server so many clients can share one machine and one dataset
//! cache:
//!
//! * [`protocol`] — newline-delimited JSON frames over TCP (`std::net` plus
//!   the vendored serde subset; no async runtime in this offline workspace).
//! * [`queue`] — a blocking priority queue ordering admission: higher
//!   priority first, submission order within a priority.
//! * [`server`] — the resident process: per-connection handler threads, a
//!   scheduler thread placing jobs onto the shared `rc4-exec` pool under
//!   per-job worker budgets ([`rc4_exec::Budget`]), per-job cooperative
//!   cancellation, throttled progress events streamable through `watch`,
//!   one shared [`rc4_store::DatasetCache`] (which single-flights
//!   concurrent generations of one dataset itself), and graceful drain on
//!   `shutdown`.
//! * [`ledger`] — the persistent JSON run ledger (job ID, spec, status,
//!   result path), rewritten atomically on every transition so a restarted
//!   server reports completed-job results from previous incarnations.
//! * [`client`] — the blocking client used by the `repro` subcommands
//!   (`serve`, `submit`, `jobs`, `watch`, `result`, `shutdown`).
//!
//! # Determinism contract
//!
//! A job's result document is the byte-identical output of the one-shot
//! `repro run <name> --scale <s> --seed <n> --json` invocation, whatever the
//! server's worker budget or client concurrency: experiments treat workers
//! as a pure thread budget (the PR-5 contract), and the server stores
//! exactly the bytes the CLI would print.
//!
//! # Signals
//!
//! Graceful drain is triggered by the `shutdown` protocol request. A real
//! SIGTERM handler would need `libc`/`signal_hook`, which this offline
//! workspace does not vendor (and `unsafe_code` is denied workspace-wide);
//! front a production deployment with a supervisor that translates SIGTERM
//! into a `shutdown` frame.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod ledger;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::Client;
pub use ledger::{JobRecord, JobStatus, RunLedger};
pub use protocol::{JobSpec, Request};
pub use queue::JobQueue;
pub use server::{Server, ServerConfig};

/// Errors of the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A file-system or socket failure, with context.
    Io(String),
    /// A malformed frame, ledger, or field.
    Protocol(String),
    /// An `ok: false` response reported by the server.
    Server(String),
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "io error: {msg}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}
