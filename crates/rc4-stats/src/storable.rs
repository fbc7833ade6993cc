//! The [`StorableDataset`] trait: everything the on-disk dataset store
//! (`rc4-store`) needs from a counter dataset.
//!
//! The store persists a dataset as a *kind* tag, a flat `Vec<u64>` shape
//! descriptor, the recorded-keystream total, and an ordered sequence of `u64`
//! counter cells. Each dataset type maps its internal state onto that model,
//! keeping every piece of state except the keystream total in its cells:
//!
//! * [`crate::single::SingleByteDataset`] — kind `"single"`, shape
//!   `[positions]`, cells = the per-position count table.
//! * [`crate::pairs::PairDataset`] — kind `"pairs"`, shape
//!   `[a1, b1, a2, b2, ...]`, cells = the per-pair joint count tables.
//! * [`crate::longterm::LongTermDataset`] — kind `"longterm"`, shape
//!   `[drop, block_len]` or, for a selection of PRGA counters,
//!   `[drop, block_len, m0, m1, m2, m3]`, cells = the selected digraph
//!   counts, aligned counts and the two derived totals.
//! * [`crate::tsc::PerTscDataset`] — kind `"per-tsc"`, shape
//!   `[conditioning, positions]`, cells = per-class counts plus the per-class
//!   keystream totals.
//!
//! Each kind checks a shape descriptor in one place, which its constructor,
//! [`StorableDataset::empty_with_shape`] and
//! [`StorableDataset::cell_count_for_shape`] all call; no shape may hold more
//! than [`MAX_CELLS`] cells or read more than [`MAX_KEYSTREAM_LEN`] keystream
//! bytes per key. Because the cells are all the state there is,
//! merging is generic: [`StorableDataset::merge_same_shape`] compares the
//! shape descriptors and sums the cells.
//!
//! The trait also owns the *key-space walk*, split into two halves so drivers
//! can batch the RC4 work between them: [`StorableDataset::prepare_next`]
//! consumes exactly one key's worth of RNG state from a [`KeyGenerator`]
//! (returning any per-key metadata, e.g. the drawn TSC bytes), and
//! [`StorableDataset::record_stream`] counts the finished keystream.
//! [`StorableDataset::skip_next`] consumes the same RNG state as
//! `prepare_next` without doing the RC4 work. Per-kind skip matters because
//! the kinds draw differently (per-TSC keys also draw two TSC bytes per key);
//! it is what lets a resumed generation fast-forward a worker stream to the
//! checkpointed position at a fraction of the generation cost.
//!
//! [`record_keys_batched`] is the shared hot loop: it walks a worker's key
//! stream in engine-sized batches through [`rc4_accel::AutoBatch`], which
//! steps 8–16 independent RC4 states per loop iteration (AVX-512
//! gather/scatter where available). Because per-key streams are independent
//! and all counter cells are additive, the resulting dataset is cell-for-cell
//! identical to the scalar one-key-at-a-time walk — a property pinned by this
//! module's tests and by `tests/proptest_datasets.rs`.
//!
//! The one key-space walker built on it lives in [`crate::worker`]:
//! [`record_streams`](crate::worker::record_streams) records more keys from
//! already-positioned generators on an executor, and both in-memory
//! generation
//! ([`generate_storable_with_exec`](crate::worker::generate_storable_with_exec))
//! and the on-disk store's checkpoint rounds (`rc4-store`) call it.

use std::sync::atomic::{AtomicBool, Ordering};

use rc4_accel::{AutoBatch, KeystreamBatch};

use crate::{
    dataset::{DatasetError, GenerationConfig},
    keygen::KeyGenerator,
};

/// How many keystreams a walk generates between cancellation-flag polls.
/// Small enough to abort within milliseconds, large enough that the relaxed
/// atomic load is invisible next to the RC4 work per key.
pub const CANCEL_POLL_INTERVAL: u64 = 512;

/// The most counter cells a dataset of any kind may hold: 2^31, 16 GiB of
/// `u64`. The largest paper shape, `first16`, has about 2^28 cells; the
/// bound turns a mistyped or hostile shape into a typed error instead of an
/// allocation the machine cannot satisfy.
pub const MAX_CELLS: u64 = 1 << 31;

/// The most keystream bytes a dataset of any kind may read per key: 2^24,
/// above the longest preset (extended long-term, 1023 + 2^22). The record
/// loop buffers one keystream per engine lane; the bound keeps that buffer
/// within reach of the machine.
pub const MAX_KEYSTREAM_LEN: u64 = 1 << 24;

/// Applies [`MAX_CELLS`] to a `kind`'s cell count, computed with checked
/// arithmetic (`None` when it overflowed).
pub(crate) fn bounded_cells(kind: &str, cells: Option<u64>) -> Result<usize, DatasetError> {
    match cells {
        Some(n) if n <= MAX_CELLS => Ok(n as usize),
        _ => Err(DatasetError::InvalidConfig(format!(
            "{kind} shape exceeds the dataset cell bound of {MAX_CELLS} cells"
        ))),
    }
}

/// Applies [`MAX_KEYSTREAM_LEN`] to the keystream bytes a `kind` reads per
/// key, computed with checked arithmetic (`None` when it overflowed).
pub(crate) fn bounded_keystream_len(kind: &str, len: Option<u64>) -> Result<usize, DatasetError> {
    match len {
        Some(n) if n <= MAX_KEYSTREAM_LEN => Ok(n as usize),
        _ => Err(DatasetError::InvalidConfig(format!(
            "{kind} shape exceeds the keystream bound of {MAX_KEYSTREAM_LEN} bytes per key"
        ))),
    }
}

/// A dataset that can be persisted by the `rc4-store` shard format and
/// (re)generated deterministically from per-worker key streams.
///
/// # Contract
///
/// * `empty_with_shape(shape_params())` must reconstruct an empty dataset of
///   identical shape, and `cell_slices()` must return the same slice lengths
///   in the same order for any two datasets of equal shape.
/// * The cells hold all state except the keystream total: two datasets with
///   equal `shape_params()`, equal cells and equal totals are equal. This is
///   what lets the store persist only the cells, and lets the provided
///   [`StorableDataset::merge_same_shape`] merge by summing them.
/// * `prepare_next` and `skip_next` must consume *exactly* the same amount
///   of RNG state from the generator, so that a skip-reconstructed stream
///   position is indistinguishable from a recorded one.
/// * `record_stream(meta, ks)` must depend only on `meta` and `ks` — never on
///   generator state — so the RC4 work between the two halves can be batched.
/// * All cell values must be additive: summing the cells of two datasets over
///   disjoint key sets must equal the cells of one dataset over the union.
///   This is what makes shard merging exact and batch-order irrelevant.
pub trait StorableDataset: Send + Sized {
    /// Stable kind tag written into shard headers (also the CLI name).
    fn kind() -> &'static str;

    /// Flat shape descriptor, sufficient for [`StorableDataset::empty_with_shape`].
    fn shape_params(&self) -> Vec<u64>;

    /// Reconstructs an empty dataset from a shape descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Corrupt`]-free validation errors
    /// ([`DatasetError::InvalidConfig`] or [`DatasetError::ShapeMismatch`])
    /// when the descriptor does not describe a valid shape, including one of
    /// more than [`MAX_CELLS`] cells.
    fn empty_with_shape(params: &[u64]) -> Result<Self, DatasetError>;

    /// The dataset's counter state as an ordered list of `u64` slices. The
    /// store writes them back-to-back; the total length is the shard's cell
    /// count.
    fn cell_slices(&self) -> Vec<&[u64]>;

    /// Mutable view of the same slices, in the same order, for loading.
    fn cell_slices_mut(&mut self) -> Vec<&mut [u64]>;

    /// Total number of keystreams recorded (one per generated key).
    fn recorded_keystreams(&self) -> u64;

    /// Sets the recorded-keystream total after the cells were loaded from a
    /// shard (cells carry every other piece of state).
    fn set_recorded_keystreams(&mut self, keystreams: u64);

    /// Keystream bytes needed per key; the store sizes its scratch buffer
    /// (`ks` in [`StorableDataset::record_next`]) to this.
    fn required_keystream_len(&self) -> usize;

    /// Draws the next key from `gen` into `key` and returns the per-key
    /// metadata [`StorableDataset::record_stream`] needs (0 where none).
    ///
    /// The default draws one uniformly random key. Kinds with structured
    /// keys (per-TSC draws TSC bytes and stamps the public TKIP prefix)
    /// override it; overrides must keep [`StorableDataset::skip_next`]
    /// consuming identical RNG state.
    fn prepare_next(&self, gen: &mut KeyGenerator, key: &mut [u8]) -> u64 {
        gen.fill_key(key);
        0
    }

    /// Counts one keystream generated for a key drawn by
    /// [`StorableDataset::prepare_next`]; `meta` is that call's return value.
    fn record_stream(&mut self, meta: u64, ks: &[u8]);

    /// Generates one key from `gen`, runs scalar RC4 and records the
    /// keystream. `key` has the configured key length, `ks` has
    /// [`StorableDataset::required_keystream_len`] bytes.
    ///
    /// This one-key-at-a-time walk is the reference path; bulk drivers use
    /// [`record_keys_batched`] instead, which produces identical cells.
    fn record_next(&mut self, gen: &mut KeyGenerator, key: &mut [u8], ks: &mut [u8]) {
        let meta = self.prepare_next(gen, key);
        let mut prga = rc4::Prga::new(key).expect("worker key length is valid");
        prga.fill(ks);
        self.record_stream(meta, ks);
    }

    /// Consumes one key's worth of RNG state from `gen` without recording.
    /// Must mirror [`StorableDataset::prepare_next`] draw for draw.
    fn skip_next(&self, gen: &mut KeyGenerator, key: &mut [u8]) {
        gen.fill_key(key);
    }

    /// Merges a dataset of identical shape into `self`, summing all cells and
    /// keystream totals (provided; exact because the cells hold all other
    /// state).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::ShapeMismatch`] when shapes differ.
    fn merge_same_shape(&mut self, other: Self) -> Result<(), DatasetError> {
        let (mine, theirs) = (self.shape_params(), other.shape_params());
        if mine != theirs {
            return Err(DatasetError::ShapeMismatch(format!(
                "{} shapes differ: {mine:?} vs {theirs:?}",
                Self::kind()
            )));
        }
        for (into, from) in self.cell_slices_mut().into_iter().zip(other.cell_slices()) {
            for (a, b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
        let total = self.recorded_keystreams() + other.recorded_keystreams();
        self.set_recorded_keystreams(total);
        Ok(())
    }

    /// Total number of cells (provided; the sum of the slice lengths).
    fn cell_count(&self) -> usize {
        self.cell_slices().iter().map(|s| s.len()).sum()
    }

    /// Number of cells a dataset of shape `params` holds, *without*
    /// materialising one.
    ///
    /// Shard reads, the out-of-core shard merge and `repro`'s shape checks
    /// validate a descriptor against this before allocating anything; the
    /// default constructs an empty dataset and counts its cells, which is
    /// correct but allocates the full table. Every kind in this crate
    /// overrides it with the closed-form count of its shape check.
    ///
    /// # Errors
    ///
    /// Returns the same validation errors as
    /// [`StorableDataset::empty_with_shape`] for descriptors that do not
    /// describe a valid shape.
    fn cell_count_for_shape(params: &[u64]) -> Result<u64, DatasetError> {
        Ok(Self::empty_with_shape(params)?.cell_count() as u64)
    }

    /// Kind-specific generation-config validation, called by drivers before
    /// any key is generated. The default accepts everything
    /// [`GenerationConfig::validate`] accepts; kinds with
    /// extra requirements (per-TSC needs room for the 3-byte TKIP prefix)
    /// override this so misconfigurations fail typed instead of panicking in
    /// the record loop.
    fn validate_config(&self, config: &GenerationConfig) -> Result<(), DatasetError> {
        config.validate()
    }
}

/// Walks `count` keys of `gen`'s stream into `dataset` through the batched
/// multi-key RC4 engine ([`AutoBatch`]), polling `cancel` every
/// [`CANCEL_POLL_INTERVAL`] keys.
///
/// Keys are drawn (and counted) in exactly the order the scalar
/// [`StorableDataset::record_next`] walk draws them; the engine only batches
/// the independent KSA/PRGA work between draw and count, so the resulting
/// cells are identical. Returns the number of keys recorded — equal to
/// `count` unless the cancellation flag was observed, in which case the
/// dataset holds exactly the first `done` keys' contributions and the
/// generator sits after the `done`-th draw.
pub fn record_keys_batched<D: StorableDataset>(
    dataset: &mut D,
    gen: &mut KeyGenerator,
    key_len: usize,
    count: u64,
    cancel: Option<&AtomicBool>,
) -> u64 {
    let mut engine = AutoBatch::new();
    let lanes = engine.lanes();
    let needed = dataset.required_keystream_len();
    let mut keys = vec![0u8; lanes * key_len];
    let mut metas = vec![0u64; lanes];
    let mut out = vec![0u8; lanes * needed];
    let mut done = 0u64;
    let mut until_poll = 0u64;
    while done < count {
        if until_poll == 0 {
            if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                return done;
            }
            until_poll = CANCEL_POLL_INTERVAL;
        }
        let n = (count - done).min(until_poll).min(lanes as u64) as usize;
        for (lane, key) in keys[..n * key_len].chunks_exact_mut(key_len).enumerate() {
            metas[lane] = dataset.prepare_next(gen, key);
        }
        engine
            .schedule(&keys[..n * key_len], key_len)
            .expect("config-validated key length");
        engine.fill(&mut out[..n * needed], needed);
        for lane in 0..n {
            dataset.record_stream(metas[lane], &out[lane * needed..(lane + 1) * needed]);
        }
        done += n as u64;
        until_poll -= n as u64;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc4_exec::Executor;

    use crate::{
        longterm::LongTermDataset,
        pairs::{PairDataset, PositionPair},
        single::SingleByteDataset,
        tsc::{PerTscDataset, TscConditioning},
        worker::generate_storable_with_exec,
    };

    /// Exercise the shape/cells/skip contract uniformly over every kind.
    fn roundtrip_shape<D: StorableDataset>(ds: &D) {
        let shape = ds.shape_params();
        let empty = D::empty_with_shape(&shape).expect("shape descriptor reconstructs");
        assert_eq!(empty.shape_params(), shape);
        assert_eq!(empty.cell_count(), ds.cell_count());
        assert_eq!(
            D::cell_count_for_shape(&shape).unwrap(),
            ds.cell_count() as u64
        );
        let lens_a: Vec<usize> = ds.cell_slices().iter().map(|s| s.len()).collect();
        let lens_b: Vec<usize> = empty.cell_slices().iter().map(|s| s.len()).collect();
        assert_eq!(lens_a, lens_b);
        assert_eq!(empty.recorded_keystreams(), 0);
    }

    #[test]
    fn shape_roundtrip_for_every_kind() {
        roundtrip_shape(&SingleByteDataset::new(7));
        roundtrip_shape(
            &PairDataset::new(vec![
                PositionPair { a: 1, b: 3 },
                PositionPair { a: 2, b: 9 },
            ])
            .unwrap(),
        );
        roundtrip_shape(&LongTermDataset::new(3, 16).unwrap());
        roundtrip_shape(&LongTermDataset::with_counters(3, 16, &[0, 7, 254]).unwrap());
        roundtrip_shape(&LongTermDataset::with_counters(3, 16, &[]).unwrap());
        roundtrip_shape(&PerTscDataset::new(TscConditioning::Tsc1, 5).unwrap());
    }

    /// Both shape entry points reject every descriptor in `bad`.
    fn rejects_all<D: StorableDataset>(bad: &[&[u64]]) {
        for params in bad {
            assert!(
                D::empty_with_shape(params).is_err(),
                "{} {params:?}",
                D::kind()
            );
            assert!(
                D::cell_count_for_shape(params).is_err(),
                "{} {params:?}",
                D::kind()
            );
        }
    }

    #[test]
    fn invalid_shape_descriptors_are_rejected() {
        rejects_all::<SingleByteDataset>(&[
            &[],
            &[0],
            &[4, 4],
            // 2^40 positions: 2^48 cells, past the bound.
            &[1 << 40],
            // 2^56 positions: 2^64 cells, overflowing u64.
            &[1 << 56],
        ]);
        rejects_all::<PairDataset>(&[&[], &[1], &[3, 3], &[0, 1], &[1, 2, 3]]);
        rejects_all::<LongTermDataset>(&[
            &[],
            &[0, 1],
            &[1023],
            &[u64::MAX, 2],
            // A counter mask has exactly 4 words.
            &[1023, 16, 1],
            &[1023, 16, 1, 0, 0],
            &[1023, 16, 1, 0, 0, 0, 0],
            // A full mask is only written as the 2-parameter shape.
            &[1023, 16, u64::MAX, u64::MAX, u64::MAX, u64::MAX],
            &[1023, 1, 1, 0, 0, 0],
        ]);
        rejects_all::<PerTscDataset>(&[
            &[],
            &[2, 8],
            &[0, 0],
            &[0],
            // 256 classes of 2^56 positions: the product overflows u64.
            &[0, 1 << 56],
            &[1, 200_000],
        ]);
    }

    #[test]
    fn cell_bound_is_inclusive() {
        // Tsc1: 256 classes; 2^15 positions make 2^31 count cells, which the
        // 256 class totals push past the bound.
        let positions = (MAX_CELLS >> 16) - 1;
        assert!(PerTscDataset::cell_count_for_shape(&[0, positions]).is_ok());
        assert!(PerTscDataset::cell_count_for_shape(&[0, positions + 1]).is_err());
        assert_eq!(
            SingleByteDataset::cell_count_for_shape(&[MAX_CELLS / 256]).unwrap(),
            MAX_CELLS
        );
        let err = SingleByteDataset::cell_count_for_shape(&[MAX_CELLS / 256 + 1]).unwrap_err();
        assert!(err.to_string().contains("cell bound"), "{err}");
    }

    /// `skip_next` must consume exactly the RNG state `record_next` does:
    /// skipping `k` keys and recording the rest equals recording everything
    /// and subtracting the first `k` (verified via a fresh recorder).
    fn skip_matches_record<D: StorableDataset>(mut full: D, mut tail: D, key_len: usize) {
        let mut gen_a = KeyGenerator::new(42, 0, key_len);
        let mut gen_b = KeyGenerator::new(42, 0, key_len);
        let mut key = vec![0u8; key_len];
        let mut ks = vec![0u8; full.required_keystream_len()];
        for _ in 0..10 {
            full.record_next(&mut gen_a, &mut key, &mut ks);
        }
        for _ in 0..4 {
            tail.skip_next(&mut gen_b, &mut key);
        }
        for _ in 0..6 {
            tail.record_next(&mut gen_b, &mut key, &mut ks);
        }
        // The tail dataset saw keys 4..10 of the same stream; its cells must
        // be the suffix contribution, i.e. merging the first four keys into a
        // fresh dataset reproduces `full`.
        let mut head = D::empty_with_shape(&full.shape_params()).unwrap();
        let mut gen_c = KeyGenerator::new(42, 0, key_len);
        for _ in 0..4 {
            head.record_next(&mut gen_c, &mut key, &mut ks);
        }
        head.merge_same_shape(tail).unwrap();
        assert_eq!(head.recorded_keystreams(), full.recorded_keystreams());
        let a: Vec<u64> = head.cell_slices().concat();
        let b: Vec<u64> = full.cell_slices().concat();
        assert_eq!(a, b);
    }

    /// The batched walk must be cell-for-cell identical to the scalar
    /// `record_next` walk over the same generator stream — the property the
    /// dataset byte-identity guarantee rests on.
    fn batched_matches_scalar<D: StorableDataset>(mut batched: D, mut scalar: D, count: u64) {
        let key_len = 16usize;
        let mut gen_a = KeyGenerator::new(7, 3, key_len);
        let done = record_keys_batched(&mut batched, &mut gen_a, key_len, count, None);
        assert_eq!(done, count);

        let mut gen_b = KeyGenerator::new(7, 3, key_len);
        let mut key = vec![0u8; key_len];
        let mut ks = vec![0u8; scalar.required_keystream_len()];
        for _ in 0..count {
            scalar.record_next(&mut gen_b, &mut key, &mut ks);
        }

        assert_eq!(batched.recorded_keystreams(), scalar.recorded_keystreams());
        let a: Vec<u64> = batched.cell_slices().concat();
        let b: Vec<u64> = scalar.cell_slices().concat();
        assert_eq!(a, b);
    }

    #[test]
    fn batched_walk_matches_scalar_walk_for_every_kind() {
        // 530 keys: a non-multiple of every engine lane count, crossing one
        // cancellation-poll boundary (512).
        batched_matches_scalar(SingleByteDataset::new(6), SingleByteDataset::new(6), 530);
        batched_matches_scalar(
            PairDataset::new((1..=4).map(|r| PositionPair { a: r, b: r + 1 }).collect()).unwrap(),
            PairDataset::new((1..=4).map(|r| PositionPair { a: r, b: r + 1 }).collect()).unwrap(),
            530,
        );
        batched_matches_scalar(
            LongTermDataset::new(5, 8).unwrap(),
            LongTermDataset::new(5, 8).unwrap(),
            130,
        );
        batched_matches_scalar(
            LongTermDataset::with_counters(250, 600, &[0, 1, 255]).unwrap(),
            LongTermDataset::with_counters(250, 600, &[0, 1, 255]).unwrap(),
            130,
        );
        batched_matches_scalar(
            PerTscDataset::new(TscConditioning::Tsc1, 4).unwrap(),
            PerTscDataset::new(TscConditioning::Tsc1, 4).unwrap(),
            530,
        );
    }

    #[test]
    fn batched_walk_leaves_generator_at_scalar_position() {
        // After recording k keys, the generator must sit exactly where the
        // scalar walk leaves it, so interleaving batched rounds with skips
        // (the store's resume path) stays deterministic.
        let mut ds = PerTscDataset::new(TscConditioning::Tsc1, 4).unwrap();
        let mut gen_a = KeyGenerator::new(11, 0, 16);
        record_keys_batched(&mut ds, &mut gen_a, 16, 37, None);

        let scalar = PerTscDataset::new(TscConditioning::Tsc1, 4).unwrap();
        let mut gen_b = KeyGenerator::new(11, 0, 16);
        let mut key = [0u8; 16];
        for _ in 0..37 {
            scalar.skip_next(&mut gen_b, &mut key);
        }
        assert_eq!(gen_a.next_key(), gen_b.next_key());
    }

    #[test]
    fn batched_walk_observes_preset_cancel_flag() {
        let cancel = AtomicBool::new(true);
        let mut ds = SingleByteDataset::new(4);
        let mut gen = KeyGenerator::new(1, 0, 16);
        let done = record_keys_batched(&mut ds, &mut gen, 16, 1000, Some(&cancel));
        assert_eq!(done, 0);
        assert_eq!(ds.recorded_keystreams(), 0);
    }

    #[test]
    fn storable_exec_generation_is_thread_invariant() {
        // Structured-key kind (per-TSC draws TSC bytes per key): the thread
        // budget must not change a single cell, only who computes it.
        let config = GenerationConfig::with_keys(700).workers(2).seed(31);
        let mut reference = PerTscDataset::new(TscConditioning::Tsc1, 4).unwrap();
        generate_storable_with_exec(&mut reference, &config, &Executor::serial()).unwrap();
        for threads in [2usize, 4, 5] {
            let mut ds = PerTscDataset::new(TscConditioning::Tsc1, 4).unwrap();
            generate_storable_with_exec(&mut ds, &config, &Executor::new(threads)).unwrap();
            assert_eq!(ds.recorded_keystreams(), reference.recorded_keystreams());
            assert_eq!(
                ds.cell_slices().concat(),
                reference.cell_slices().concat(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn skip_consumes_identical_rng_state_for_every_kind() {
        skip_matches_record(SingleByteDataset::new(4), SingleByteDataset::new(4), 16);
        skip_matches_record(
            PairDataset::new(vec![
                PositionPair { a: 1, b: 2 },
                PositionPair { a: 2, b: 3 },
            ])
            .unwrap(),
            PairDataset::new(vec![
                PositionPair { a: 1, b: 2 },
                PositionPair { a: 2, b: 3 },
            ])
            .unwrap(),
            16,
        );
        skip_matches_record(
            LongTermDataset::new(1, 8).unwrap(),
            LongTermDataset::new(1, 8).unwrap(),
            16,
        );
        skip_matches_record(
            PerTscDataset::new(TscConditioning::Tsc1, 4).unwrap(),
            PerTscDataset::new(TscConditioning::Tsc1, 4).unwrap(),
            16,
        );
    }
}
