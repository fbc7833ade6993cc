//! Persistent sharded storage for keystream counter datasets.
//!
//! The paper's headline statistics were counted over `2^44`–`2^47` RC4 keys
//! on roughly 80 machines and merged afterwards (Section 3.2). That workflow
//! — long-running distributed *collection*, cheap repeated *re-analysis* —
//! needs counter datasets that survive the process that generated them. This
//! crate provides it:
//!
//! * [`mod@format`] — a versioned binary on-disk format: magic, format version, a
//!   JSON header (dataset kind, shape, [`rc4_stats::GenerationConfig`],
//!   per-worker progress), little-endian `u64` counter cells, and a CRC-32
//!   trailer (via `crypto-prims`) over the whole file.
//! * [`codec`] — the two cell encodings behind the format versions: raw
//!   `u64` little-endian (v1, the byte-identity default) and delta+varint
//!   compressed (v2, typically 3-6x smaller for real count tables), plus the
//!   buffered CRC-tracking [`codec::CellReader`], the one cell decoder.
//! * [`shard`] — one writer ([`shard::create_cells`]) and one reader
//!   ([`shard::open_cells`]), both streaming: atomic (write-to-temp + rename)
//!   persistence and fully validated loading of any
//!   [`rc4_stats::StorableDataset`]. [`shard::write_shard_with`],
//!   [`shard::read_shard`] and [`shard::peek_shard`] are those two applied
//!   to a whole in-memory dataset or to the header alone.
//! * [`generate`] — a checkpointing generation engine. The key space of a
//!   configuration is partitioned into per-worker streams exactly as the
//!   `rc4-stats` key-space walker partitions it; a *shard* covers a contiguous
//!   range of those workers. Completed chunks are streamed to disk at a
//!   configurable interval, so a cancelled or crashed run resumes from the
//!   last flushed chunk ([`generate::resume_shard`]) instead of starting
//!   over.
//! * [`merge`] — the one n-way merge, windowed and tiered, that validates
//!   shape equality and seed-disjointness (disjoint worker ranges of the
//!   *same* master configuration; each worker index derives an independent
//!   seed stream) and sums the shards into a master dataset. Merging every
//!   shard of a configuration yields cell-for-cell the dataset an
//!   uninterrupted in-memory generation would have produced.
//! * [`cache`] — the load-or-generate dataset cache keyed by a SHA-256 hash
//!   of `(kind, shape, config)`. [`DatasetCache::load_or_generate`] is its
//!   one entry point: a hit skips generation entirely and is guaranteed to
//!   be the dataset the generation would have produced; a miss runs the
//!   caller's generation step and stores the result. The cache single-flights
//!   that sequence per key itself (its clones share the flight table), so N
//!   concurrent callers missing on one key cause exactly one generation and
//!   the rest wait, then hit; no caller wires a flight table.
//! * [`campaign`] — lease-based fleet campaigns: a versioned,
//!   atomically-rewritten manifest splits a configuration's worker range
//!   into seed-disjoint leases, and [`campaign::run_leases`] runs one child
//!   per lease grant, reads each child's shard checkpoints as its heartbeat,
//!   re-issues leases whose child crashed or stalled, and hands the
//!   completed shards to the merge layer for a byte-identical final table.
//!
//! All errors surface as typed [`rc4_stats::DatasetError`] variants —
//! [`rc4_stats::DatasetError::Io`] for file-system failures and
//! [`rc4_stats::DatasetError::Corrupt`] for validation failures — with the
//! offending path in the message.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod codec;
pub mod format;
pub mod generate;
pub mod merge;
pub mod shard;
mod singleflight;

pub use cache::DatasetCache;
pub use campaign::{
    run_leases, CampaignError, CampaignManifest, CampaignSpec, Clock, Launcher, Lease, LeaseState,
    RunOptions, MANIFEST_VERSION,
};
pub use codec::CellEncoding;
pub use format::{ShardHeader, FORMAT_VERSION, FORMAT_VERSION_COMPRESSED, MAGIC};
pub use generate::{generate_shard, resume_shard, GenerateOptions, GenerateStatus, ShardSpec};
pub use merge::{merge_shards, MergeOptions};
pub use shard::{create_cells, open_cells, peek_shard, read_shard, write_shard_with};
pub use singleflight::FlightStats;
