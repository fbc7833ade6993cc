//! The keystream-generation worker pool: [`generate_storable_with_exec`], the
//! one in-memory key-space walker.
//!
//! Stands in for the paper's distributed setup (roughly 80 desktop machines
//! plus three servers driven by Python): the configured key space is split
//! into `config.workers` deterministic *logical streams*, and the executor's
//! thread budget decides only who records which contiguous *segment* of which
//! stream. A segment worker fast-forwards the stream's RNG to its offset via
//! [`StorableDataset::skip_next`] (replaying only the key draws, a small
//! fraction of the RC4 cost) and records its share through
//! [`record_keys_batched`] into a private same-shape dataset. Cells are
//! additive, so any segmentation produces cell-for-cell identical results
//! (pinned by this module's tests). The on-disk store (`rc4-store`) drives
//! [`record_keys_batched`] through its own checkpointed round loop.

use rc4_exec::Executor;

use crate::{
    dataset::{DatasetError, GenerationConfig},
    keygen::KeyGenerator,
    storable::{record_keys_batched, StorableDataset, PARALLEL_CLONE_MAX_CELLS},
};

/// One contiguous slice of a logical stream's key range, assigned to one
/// execution task: skip the first `skip` keys of stream `worker`, then record
/// the next `keys`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    worker: u64,
    skip: u64,
    keys: u64,
}

/// Splits the configured key space into execution segments for `threads`
/// workers: one segment per stream when streams saturate the thread budget,
/// otherwise each stream is cut into up to `threads` contiguous segments so
/// even a single-stream configuration keeps every thread busy.
///
/// The plan only affects scheduling — any plan covering the same
/// (stream, range) set produces identical cells.
fn segment_plan(config: &GenerationConfig, threads: usize) -> Vec<Segment> {
    let streams = config.workers as u64;
    let per_stream = if (threads as u64) <= streams {
        1
    } else {
        threads as u64
    };
    let mut plan = Vec::new();
    for w in 0..streams {
        let keys = config.keys_for_worker(w);
        let segments = per_stream.min(keys.max(1));
        let base = keys / segments;
        let extra = keys % segments;
        let mut skip = 0u64;
        for s in 0..segments {
            let len = base + u64::from(s < extra);
            if len > 0 {
                plan.push(Segment {
                    worker: w,
                    skip,
                    keys: len,
                });
            }
            skip += len;
        }
    }
    plan
}

/// Generates `config`'s full key space into `dataset` on an explicit
/// [`Executor`], decoupling the thread budget (`exec.workers()`) from the
/// logical stream count (`config.workers`).
///
/// Stream `w` derives its keys from `(config.seed, w)`, so the resulting
/// cells depend only on `config` (never on the thread budget): a one-thread
/// executor records every stream in order straight into `dataset`; a larger
/// budget splits streams into contiguous segments, each fast-forwarded via
/// [`StorableDataset::skip_next`] and recorded into a private same-shape
/// dataset, merged in deterministic segment order. Datasets with more than
/// [`PARALLEL_CLONE_MAX_CELLS`] cells fall back to the sequential path.
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
    let cancel = exec.cancel_flag();
    if exec.is_cancelled() {
        return Err(DatasetError::Cancelled);
    }

    if exec.workers() == 1 || dataset.cell_count() > PARALLEL_CLONE_MAX_CELLS {
        for w in 0..config.workers as u64 {
            let keys = config.keys_for_worker(w);
            let mut gen = KeyGenerator::new(config.seed, w, config.key_len);
            let done = record_keys_batched(dataset, &mut gen, config.key_len, keys, cancel);
            if done < keys || exec.is_cancelled() {
                return Err(DatasetError::Cancelled);
            }
        }
        return Ok(());
    }

    let shape = dataset.shape_params();
    let plan = segment_plan(config, exec.workers());
    let partials: Vec<D> = exec
        .map(plan, |_, segment| {
            let mut partial = D::empty_with_shape(&shape)?;
            let mut gen = KeyGenerator::new(config.seed, segment.worker, config.key_len);
            let mut scratch = vec![0u8; config.key_len];
            for _ in 0..segment.skip {
                partial.skip_next(&mut gen, &mut scratch);
            }
            let done =
                record_keys_batched(&mut partial, &mut gen, config.key_len, segment.keys, cancel);
            if done < segment.keys {
                return Err(DatasetError::Cancelled);
            }
            Ok(partial)
        })
        .map_err(DatasetError::from)?;
    if exec.is_cancelled() {
        return Err(DatasetError::Cancelled);
    }
    for partial in partials {
        dataset.merge_same_shape(partial)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pairs::PairDataset, single::SingleByteDataset};
    use std::sync::atomic::{AtomicBool, Ordering};

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
        let mut one = PairDataset::consecutive(3).unwrap();
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
        // below the stream count (which trigger in-stream segmentation and
        // stream batching respectively).
        for streams in [1usize, 3] {
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
    fn segment_plan_covers_every_stream_exactly() {
        for (keys, streams, threads) in
            [(1_000u64, 1usize, 4usize), (17, 3, 8), (5, 8, 2), (1, 1, 4)]
        {
            let config = GenerationConfig::with_keys(keys).workers(streams);
            let plan = segment_plan(&config, threads);
            for w in 0..streams as u64 {
                let mut expect_skip = 0u64;
                let mut total = 0u64;
                for seg in plan.iter().filter(|s| s.worker == w) {
                    assert_eq!(seg.skip, expect_skip, "segments must be contiguous");
                    expect_skip += seg.keys;
                    total += seg.keys;
                    assert!(seg.keys > 0, "empty segments must be dropped");
                }
                assert_eq!(total, config.keys_for_worker(w), "stream {w} coverage");
            }
        }
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
