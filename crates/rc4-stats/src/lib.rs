//! Keystream statistics generation — the reproduction of Section 3.2.
//!
//! The paper's bias hunt rests on enormous empirical datasets: counts of how
//! often each keystream value (or value pair) occurs at each position, over
//! `2^44`–`2^47` random 128-bit keys, generated on a cluster of ~80 machines.
//! This crate rebuilds that machinery as a library:
//!
//! * [`single::SingleByteDataset`] — `Pr[Z_r = x]` for the initial positions
//!   (the paper's aggregated single-byte statistics, Fig. 6).
//! * [`pairs::PairDataset`] — `Pr[Z_a = x ∧ Z_b = y]` over an explicit list
//!   of position pairs. The paper's two main datasets, `consec512`
//!   (consecutive pairs up to position 512) and `first16` (byte 1–16 against
//!   later bytes), are such lists; each report lists only the pairs it reads.
//! * [`longterm::LongTermDataset`] — digraph statistics keyed by the PRGA
//!   counter `i` after discarding the initial keystream, used for the
//!   Fluhrer–McGrew and `w·256`-aligned long-term biases. A dataset may
//!   select the counters that get a digraph table, so a report that reads a
//!   few of the 256 tables counts only those.
//! * [`tsc::PerTscDataset`] — keystream statistics conditioned on the public
//!   TKIP sequence-counter bytes, the input to the Paterson-style per-TSC
//!   plaintext likelihoods of Section 5.
//! * [`storable`] — the [`StorableDataset`] trait every dataset implements,
//!   the [`MAX_CELLS`] and [`MAX_KEYSTREAM_LEN`] bounds every shape is
//!   checked against, and the batched record loop, [`record_keys_batched`].
//! * [`worker`] — [`record_streams`], the one key-space walker standing in
//!   for the paper's distributed setup, and [`generate_storable_with_exec`],
//!   which walks a whole configuration with it in memory (the on-disk store
//!   calls [`record_streams`] once per checkpoint round). It runs
//!   on the shared execution layer (`rc4-exec`); each logical stream derives
//!   its RC4 keys deterministically from a per-stream seed ([`keygen`]), so runs are
//!   reproducible and cell-identical for ANY thread budget. The RC4 hot loop
//!   runs through the batched multi-key engine (`rc4_accel::AutoBatch`,
//!   AVX-512 gather/scatter where the CPU has it), stepping 8–16 keystreams
//!   per loop iteration while keeping every dataset byte-identical to the
//!   scalar path.
//!
//! Every table here counts keystream bytes. The ciphertext counts an attack
//! collects live with the attack (`rc4-attacks`' trial models), not here.
//!
//! Datasets expose their raw counts (for the hypothesis tests in
//! `stat-tests`) and empirical probability estimates (for the likelihood
//! engines in `plaintext-recovery`). Their one persisted form is the
//! `rc4-store` shard, so expensive runs can be stored, merged and
//! re-analysed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod keygen;
pub mod longterm;
pub mod pairs;
pub mod single;
pub mod storable;
pub mod tsc;
pub mod worker;

pub use dataset::{DatasetError, GenerationConfig};
pub use keygen::{splitmix64, KeyGenerator};
pub use storable::{record_keys_batched, StorableDataset, MAX_CELLS, MAX_KEYSTREAM_LEN};
pub use worker::{generate_storable_with_exec, record_streams};

/// Number of possible byte values; the alphabet size of every distribution here.
pub const NUM_VALUES: usize = 256;

/// Number of possible byte-pair values.
pub const NUM_PAIRS: usize = 256 * 256;

#[cfg(test)]
mod tests {
    #[test]
    fn constants_are_consistent() {
        assert_eq!(super::NUM_PAIRS, super::NUM_VALUES * super::NUM_VALUES);
    }
}
