//! The key-space walker: [`record_streams`], and [`generate_storable_with_exec`]
//! built on it for whole in-memory datasets.
//!
//! Stands in for the paper's distributed setup (roughly 80 desktop machines
//! plus three servers driven by Python): the configured key space is split
//! into `config.workers` deterministic *logical streams*, and the executor's
//! thread budget decides only who records which contiguous *segment* of which
//! stream. [`record_streams`] lays the streams' pending keys end to end and
//! cuts them into at most one contiguous *bin* per thread; each bin records
//! its segments through [`record_keys_batched`] into one private same-shape
//! partial, fast-forwarding a clone of a stream's generator via
//! [`StorableDataset::skip_next`] (replaying only the key draws, a small
//! fraction of the RC4 cost) where its segment starts mid-stream. Cells are
//! additive, so any binning produces cell-for-cell identical results (pinned
//! by this module's tests). The on-disk store (`rc4-store`) calls
//! [`record_streams`] once per checkpoint round with generators it keeps
//! alive across rounds.

use rc4_exec::Executor;

use crate::{
    dataset::{DatasetError, GenerationConfig},
    keygen::KeyGenerator,
    storable::{record_keys_batched, StorableDataset},
};

/// Per-thread partials above this cell count are considered ruinous (a
/// per-TSC `Tsc0Tsc1` table is gigabytes); such datasets are recorded
/// sequentially into the accumulator even when the executor has threads to
/// spare. A full long-term table (2^24 + 2^16 + 2 cells) is just over the
/// line; a long-term selection of fewer than 255 PRGA counters, like the
/// ones table1 and longterm count, is under it and uses every thread.
const PARALLEL_CLONE_MAX_CELLS: usize = 1 << 24;

/// One contiguous slice of a logical stream's pending keys: skip the first
/// `skip` keys of stream `stream`, then record the next `keys`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    stream: usize,
    skip: u64,
    keys: u64,
}

/// Lays the pending `keys[i]` of every stream end to end and cuts them into
/// `min(threads, total)` contiguous bins whose sizes differ by at most one
/// key. A bin holds the segments of the streams it overlaps, in stream order.
///
/// The plan only affects scheduling — any plan covering the same
/// (stream, range) set produces identical cells.
fn bin_plan(keys: &[u64], threads: usize) -> Vec<Vec<Segment>> {
    let total: u64 = keys.iter().sum();
    let bins = (threads as u64).min(total);
    let mut plan = Vec::with_capacity(bins as usize);
    let (mut stream, mut offset) = (0usize, 0u64);
    for b in 0..bins {
        let mut want = total / bins + u64::from(b < total % bins);
        let mut bin = Vec::new();
        while want > 0 {
            let left = keys[stream] - offset;
            if left == 0 {
                stream += 1;
                offset = 0;
                continue;
            }
            let take = left.min(want);
            bin.push(Segment {
                stream,
                skip: offset,
                keys: take,
            });
            offset += take;
            want -= take;
        }
        plan.push(bin);
    }
    plan
}

/// Records `keys[i]` more keys from each already-positioned generator
/// `gens[i]` into `dataset` on `exec`, leaving every generator positioned
/// after its last recorded key.
///
/// Streams are recorded in order straight into `dataset` when `exec` has one
/// thread, when there is at most one key to record, or when the dataset has
/// more than `PARALLEL_CLONE_MAX_CELLS` (2^24) cells. Otherwise the pending
/// keys are cut into at most `exec.workers()` contiguous bins (see the module
/// docs), each recorded into one private partial; the partials are merged in
/// bin order. Either way the cells equal the sequential walk's.
///
/// # Panics
///
/// When `gens` and `keys` differ in length.
///
/// # Errors
///
/// * [`DatasetError::Cancelled`] — the executor's flag was observed set; the
///   dataset and the generators must be discarded (the sequential path
///   leaves the dataset partially filled, the parallel path leaves it
///   untouched).
/// * [`DatasetError::ShapeMismatch`] and the other errors of
///   [`StorableDataset::empty_with_shape`] and
///   [`StorableDataset::merge_same_shape`].
pub fn record_streams<D: StorableDataset>(
    dataset: &mut D,
    gens: &mut [KeyGenerator],
    keys: &[u64],
    exec: &Executor<'_>,
) -> Result<(), DatasetError> {
    assert_eq!(gens.len(), keys.len(), "one key count per generator");
    let cancel = exec.cancel_flag();
    if exec.is_cancelled() {
        return Err(DatasetError::Cancelled);
    }

    let plan = bin_plan(keys, exec.workers());
    if plan.len() <= 1 || dataset.cell_count() > PARALLEL_CLONE_MAX_CELLS {
        for (gen, &n) in gens.iter_mut().zip(keys) {
            let key_len = gen.key_len();
            let done = record_keys_batched(dataset, gen, key_len, n, cancel);
            if done < n || exec.is_cancelled() {
                return Err(DatasetError::Cancelled);
            }
        }
        return Ok(());
    }

    let shape = dataset.shape_params();
    let starts: &[KeyGenerator] = gens;
    // Each bin returns its partial plus the generators of the streams whose
    // last pending key it recorded, already positioned for the next call.
    let bins: Vec<(D, Vec<(usize, KeyGenerator)>)> = exec
        .map(plan, |_, bin| {
            let mut partial = D::empty_with_shape(&shape)?;
            let mut finished = Vec::new();
            for segment in bin {
                let mut gen = starts[segment.stream].clone();
                let key_len = gen.key_len();
                let mut scratch = vec![0u8; key_len];
                for _ in 0..segment.skip {
                    partial.skip_next(&mut gen, &mut scratch);
                }
                let done =
                    record_keys_batched(&mut partial, &mut gen, key_len, segment.keys, cancel);
                if done < segment.keys {
                    return Err(DatasetError::Cancelled);
                }
                if segment.skip + segment.keys == keys[segment.stream] {
                    finished.push((segment.stream, gen));
                }
            }
            Ok((partial, finished))
        })
        .map_err(DatasetError::from)?;
    if exec.is_cancelled() {
        return Err(DatasetError::Cancelled);
    }
    for (partial, finished) in bins {
        dataset.merge_same_shape(partial)?;
        for (stream, gen) in finished {
            gens[stream] = gen;
        }
    }
    Ok(())
}

/// Generates `config`'s full key space into `dataset` on an explicit
/// [`Executor`], decoupling the thread budget (`exec.workers()`) from the
/// logical stream count (`config.workers`).
///
/// Stream `w` derives its keys from `(config.seed, w)`, so the resulting
/// cells depend only on `config` (never on the thread budget): this builds
/// every stream's generator at position 0 and hands the whole key space to
/// [`record_streams`].
///
/// # Errors
///
/// * [`DatasetError::InvalidConfig`] — invalid configuration for this kind.
/// * [`DatasetError::Cancelled`] — the executor's flag was observed set; the
///   dataset must be discarded (the one-thread path leaves it partially
///   filled, the parallel path leaves it untouched).
///
/// # Examples
///
/// ```
/// use rc4_exec::Executor;
/// use rc4_stats::{generate_storable_with_exec, single::SingleByteDataset, GenerationConfig,
///                 StorableDataset};
///
/// let mut ds = SingleByteDataset::new(4);
/// let config = GenerationConfig::with_keys(1_000).workers(2);
/// generate_storable_with_exec(&mut ds, &config, &Executor::new(2)).unwrap();
/// assert_eq!(ds.recorded_keystreams(), 1_000);
/// ```
pub fn generate_storable_with_exec<D: StorableDataset>(
    dataset: &mut D,
    config: &GenerationConfig,
    exec: &Executor<'_>,
) -> Result<(), DatasetError> {
    dataset.validate_config(config)?;
    let streams = 0..config.workers as u64;
    let mut gens: Vec<KeyGenerator> = streams
        .clone()
        .map(|w| KeyGenerator::new(config.seed, w, config.key_len))
        .collect();
    let keys: Vec<u64> = streams.map(|w| config.keys_for_worker(w)).collect();
    record_streams(dataset, &mut gens, &keys, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        pairs::{PairDataset, PositionPair},
        single::SingleByteDataset,
    };
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// The walker on one thread per logical stream, optionally watching a
    /// cancellation flag.
    fn generate_with_cancel(
        ds: &mut impl StorableDataset,
        config: &GenerationConfig,
        cancel: Option<&AtomicBool>,
    ) -> Result<(), DatasetError> {
        let exec = Executor::new(config.workers).with_cancel(cancel);
        generate_storable_with_exec(ds, config, &exec)
    }

    fn generate(
        ds: &mut impl StorableDataset,
        config: &GenerationConfig,
    ) -> Result<(), DatasetError> {
        generate_with_cancel(ds, config, None)
    }

    #[test]
    fn single_worker_generates_requested_keys() {
        let mut ds = SingleByteDataset::new(4);
        generate(&mut ds, &GenerationConfig::with_keys(500)).unwrap();
        assert_eq!(ds.recorded_keystreams(), 500);
        // Each position saw exactly 500 samples.
        assert_eq!(ds.counts_at(1).iter().sum::<u64>(), 500);
    }

    #[test]
    fn multi_worker_key_count_is_exact() {
        let mut ds = SingleByteDataset::new(2);
        generate(&mut ds, &GenerationConfig::with_keys(1_003).workers(4)).unwrap();
        assert_eq!(ds.recorded_keystreams(), 1_003);
    }

    #[test]
    fn deterministic_for_fixed_config() {
        let config = GenerationConfig::with_keys(400).workers(3).seed(99);
        let mut a = SingleByteDataset::new(8);
        let mut b = SingleByteDataset::new(8);
        generate(&mut a, &config).unwrap();
        generate(&mut b, &config).unwrap();
        for r in 1..=8 {
            assert_eq!(a.counts_at(r), b.counts_at(r));
        }
    }

    #[test]
    fn worker_count_does_not_change_totals() {
        // Different logical stream counts generate different key sets, but the
        // number of samples and overall normalization must match.
        let mut one =
            PairDataset::new((1..=3).map(|r| PositionPair { a: r, b: r + 1 }).collect()).unwrap();
        let mut four = PairDataset::empty_with_shape(&one.shape_params()).unwrap();
        generate(&mut one, &GenerationConfig::with_keys(600).workers(1)).unwrap();
        generate(&mut four, &GenerationConfig::with_keys(600).workers(4)).unwrap();
        assert_eq!(one.recorded_keystreams(), four.recorded_keystreams());
        assert_eq!(
            one.joint_counts(0).iter().sum::<u64>(),
            four.joint_counts(0).iter().sum::<u64>()
        );
    }

    /// Scalar reference for a worker pool run: the exact historical
    /// one-key-at-a-time loop over the same per-worker key streams.
    fn scalar_pool_reference(config: &GenerationConfig, positions: usize) -> SingleByteDataset {
        let mut ds = SingleByteDataset::new(positions);
        let mut key = vec![0u8; config.key_len];
        let mut ks = vec![0u8; positions];
        for w in 0..config.workers {
            let mut gen = KeyGenerator::new(config.seed, w as u64, config.key_len);
            for _ in 0..config.keys_for_worker(w as u64) {
                gen.fill_key(&mut key);
                let mut prga = rc4::Prga::new(&key).expect("valid key length");
                prga.fill(&mut ks);
                ds.record_stream(0, &ks);
            }
        }
        ds
    }

    #[test]
    fn batched_pool_is_cell_identical_to_scalar_loop() {
        // 555 keys over 2 workers: per-worker allotments (278/277) are not
        // multiples of any engine lane count, so both workers drain a
        // partial tail batch.
        let config = GenerationConfig::with_keys(555).workers(2).seed(77);
        let mut pooled = SingleByteDataset::new(5);
        generate(&mut pooled, &config).unwrap();
        let reference = scalar_pool_reference(&config, 5);
        assert_eq!(
            pooled.recorded_keystreams(),
            reference.recorded_keystreams()
        );
        for r in 1..=5 {
            assert_eq!(pooled.counts_at(r), reference.counts_at(r));
        }
    }

    #[test]
    fn thread_budget_does_not_change_cells() {
        // For a FIXED logical stream count, any executor thread budget
        // produces cell-identical datasets — including budgets above and
        // below the stream count (which cut streams across bins and batch
        // several streams into one bin respectively).
        for streams in [1usize, 3, 16] {
            let config = GenerationConfig::with_keys(1_201).workers(streams).seed(9);
            let reference = scalar_pool_reference(&config, 6);
            for threads in [1usize, 2, 4, 7] {
                let mut ds = SingleByteDataset::new(6);
                generate_storable_with_exec(&mut ds, &config, &Executor::new(threads)).unwrap();
                assert_eq!(
                    ds.recorded_keystreams(),
                    reference.recorded_keystreams(),
                    "streams {streams}, threads {threads}"
                );
                for r in 1..=6 {
                    assert_eq!(
                        ds.counts_at(r),
                        reference.counts_at(r),
                        "streams {streams}, threads {threads}, position {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn bin_plan_covers_every_key_exactly() {
        for (keys, threads) in [
            (vec![1_000u64], 4usize),
            (vec![6, 6, 5], 8),
            (vec![1, 1, 1, 1, 1, 0, 0, 0], 2),
            (vec![1], 4),
            (vec![0, 7, 0, 3], 3),
            (vec![0, 0], 2),
        ] {
            let plan = bin_plan(&keys, threads);
            let total: u64 = keys.iter().sum();
            assert_eq!(plan.len() as u64, (threads as u64).min(total));
            let sizes: Vec<u64> = plan
                .iter()
                .map(|bin| bin.iter().map(|s| s.keys).sum())
                .collect();
            let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
            assert!(hi.unwrap_or(&0) - lo.unwrap_or(&0) <= 1, "{sizes:?}");
            // Laid end to end, the segments walk every stream's keys in order.
            let mut expect = (0usize, 0u64);
            for seg in plan.iter().flatten() {
                assert!(seg.keys > 0, "empty segments must be dropped");
                if seg.stream != expect.0 {
                    assert_eq!(expect.1, keys[expect.0], "stream {} cut short", expect.0);
                    assert!(keys[expect.0 + 1..seg.stream].iter().all(|&k| k == 0));
                    expect = (seg.stream, 0);
                }
                assert_eq!(seg.skip, expect.1, "segments must be contiguous");
                expect.1 += seg.keys;
            }
            assert_eq!(
                plan.iter().flatten().map(|s| s.keys).sum::<u64>(),
                total,
                "{keys:?} on {threads} threads"
            );
        }
    }

    #[test]
    fn rounds_of_record_streams_match_one_walk_and_leave_generators_positioned() {
        // Uneven per-stream rounds on 2 threads cut bins mid-stream; after
        // every round each generator must sit after its last recorded key.
        let config = GenerationConfig::with_keys(901).workers(3).seed(17);
        let reference = scalar_pool_reference(&config, 5);
        let mut ds = SingleByteDataset::new(5);
        let mut gens: Vec<KeyGenerator> = (0..3)
            .map(|w| KeyGenerator::new(config.seed, w, config.key_len))
            .collect();
        let rounds = [[100u64, 0, 250], [1, 300, 50], [199, 0, 0], [1, 0, 0]];
        for round in &rounds {
            record_streams(&mut ds, &mut gens, round, &Executor::new(2)).unwrap();
        }
        for (w, gen) in gens.iter_mut().enumerate() {
            let mut fresh = KeyGenerator::new(config.seed, w as u64, config.key_len);
            let mut key = vec![0u8; config.key_len];
            for _ in 0..config.keys_for_worker(w as u64) {
                ds.skip_next(&mut fresh, &mut key);
            }
            assert_eq!(gen.next_key(), fresh.next_key(), "stream {w}");
        }
        assert_eq!(ds.recorded_keystreams(), 901);
        assert_eq!(ds.cell_slices(), reference.cell_slices());
    }

    /// A single-byte dataset that counts how many instances are alive at
    /// once, so tests can bound the walker's partials.
    struct Probe {
        inner: SingleByteDataset,
        _live: Live,
    }

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    struct Live;

    impl Live {
        fn new() -> Self {
            let now = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(now, Ordering::SeqCst);
            Live
        }
    }

    impl Drop for Live {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl StorableDataset for Probe {
        fn kind() -> &'static str {
            SingleByteDataset::kind()
        }
        fn shape_params(&self) -> Vec<u64> {
            self.inner.shape_params()
        }
        fn empty_with_shape(params: &[u64]) -> Result<Self, DatasetError> {
            Ok(Probe {
                inner: SingleByteDataset::empty_with_shape(params)?,
                _live: Live::new(),
            })
        }
        fn cell_slices(&self) -> Vec<&[u64]> {
            self.inner.cell_slices()
        }
        fn cell_slices_mut(&mut self) -> Vec<&mut [u64]> {
            self.inner.cell_slices_mut()
        }
        fn recorded_keystreams(&self) -> u64 {
            self.inner.recorded_keystreams()
        }
        fn set_recorded_keystreams(&mut self, keystreams: u64) {
            self.inner.set_recorded_keystreams(keystreams);
        }
        fn required_keystream_len(&self) -> usize {
            self.inner.required_keystream_len()
        }
        fn record_stream(&mut self, meta: u64, ks: &[u8]) {
            self.inner.record_stream(meta, ks);
        }
    }

    #[test]
    fn partials_follow_threads_not_streams() {
        let config = GenerationConfig::with_keys(4_000).workers(16).seed(3);
        let mut ds = Probe::empty_with_shape(&[4]).unwrap();
        PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
        generate_storable_with_exec(&mut ds, &config, &Executor::new(2)).unwrap();
        assert_eq!(ds.recorded_keystreams(), 4_000);
        assert!(
            PEAK.load(Ordering::SeqCst) <= 1 + 2,
            "{} datasets alive at once for 16 streams on 2 threads",
            PEAK.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn more_workers_than_keys() {
        // 3 keys across 8 workers: workers 0..3 generate one key each, the
        // rest none — the pool must neither hang nor over-count.
        let config = GenerationConfig::with_keys(3).workers(8).seed(5);
        let mut ds = SingleByteDataset::new(4);
        generate(&mut ds, &config).unwrap();
        assert_eq!(ds.recorded_keystreams(), 3);
        let reference = scalar_pool_reference(&config, 4);
        for r in 1..=4 {
            assert_eq!(ds.counts_at(r), reference.counts_at(r));
        }
    }

    #[test]
    fn single_key_single_worker() {
        let config = GenerationConfig::with_keys(1).seed(9);
        let mut ds = SingleByteDataset::new(3);
        generate(&mut ds, &config).unwrap();
        assert_eq!(ds.recorded_keystreams(), 1);
        let reference = scalar_pool_reference(&config, 3);
        assert_eq!(ds.counts_at(1), reference.counts_at(1));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut ds = SingleByteDataset::new(2);
        assert!(generate(&mut ds, &GenerationConfig::with_keys(0)).is_err());
    }

    #[test]
    fn pre_set_cancel_flag_aborts_before_any_work() {
        let cancel = AtomicBool::new(true);
        for workers in [1, 4] {
            let mut ds = SingleByteDataset::new(4);
            let config = GenerationConfig::with_keys(1_000_000).workers(workers);
            assert_eq!(
                generate_with_cancel(&mut ds, &config, Some(&cancel)),
                Err(DatasetError::Cancelled),
                "{workers}-worker run ignored the cancellation flag"
            );
        }
    }

    #[test]
    fn mid_run_cancellation_leaves_multi_thread_collector_untouched() {
        let cancel = AtomicBool::new(false);
        let mut ds = SingleByteDataset::new(4);
        // The key space is far too large to finish, so only the flag can end
        // the run.
        let config = GenerationConfig::with_keys(1 << 40).workers(2);
        // Raise the flag from a progress-free side channel: a short timer
        // thread. The pool must notice it between batches and bail without
        // merging partials.
        let result = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                cancel.store(true, Ordering::Relaxed);
            });
            generate_with_cancel(&mut ds, &config, Some(&cancel))
        });
        assert_eq!(result, Err(DatasetError::Cancelled));
        assert_eq!(ds.recorded_keystreams(), 0, "partials must not be merged");
    }

    #[test]
    fn absent_flag_matches_plain_generate() {
        let config = GenerationConfig::with_keys(300).workers(2).seed(5);
        let mut plain = SingleByteDataset::new(4);
        let mut with_flag = SingleByteDataset::new(4);
        generate(&mut plain, &config).unwrap();
        let never = AtomicBool::new(false);
        generate_with_cancel(&mut with_flag, &config, Some(&never)).unwrap();
        for r in 1..=4 {
            assert_eq!(plain.counts_at(r), with_flag.counts_at(r));
        }
    }
}
