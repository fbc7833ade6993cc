//! Checkpointed shard generation with resume.
//!
//! Generation proceeds in *rounds*: every covered worker advances its
//! deterministic key stream by up to a chunk of keys through the one
//! key-space walker, [`rc4_stats::record_streams`] (on at most one thread per
//! covered stream and per core), and the whole shard — header (with updated
//! per-worker progress) plus cells — is flushed to disk atomically. A
//! cancelled or killed run therefore loses at most one round of work;
//! [`resume_shard`] reloads the last flushed chunk, fast-forwards each
//! worker stream to its checkpointed position (via
//! [`rc4_stats::StorableDataset::skip_next`], which replays only the RNG
//! draws, not the RC4 work) and continues.
//!
//! Because counter cells are additive and every worker records exactly the
//! same key prefix it would record in an uninterrupted run, a
//! generate → cancel → resume sequence produces cell-for-cell the dataset a
//! single uninterrupted run produces — the property the dataset cache's
//! byte-identity guarantee rests on.

use std::path::Path;
use std::sync::atomic::AtomicBool;

use rc4_exec::Executor;

use rc4_stats::{record_streams, DatasetError, GenerationConfig, KeyGenerator, StorableDataset};

use crate::codec::CellEncoding;
use crate::format::ShardHeader;
use crate::shard::{read_shard, write_shard_with};

/// Tuning knobs for [`generate_shard`] / [`resume_shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerateOptions {
    /// Target number of keys generated (across the whole shard) between
    /// on-disk checkpoints. Smaller values bound the re-work after a crash;
    /// larger values amortize the flush cost. Values larger than the shard's
    /// key total are clamped to it (one checkpoint at completion); drivers
    /// should warn the operator when that happens — see
    /// [`GenerateOptions::effective_checkpoint_keys`].
    pub checkpoint_keys: u64,
    /// Stop — after a checkpoint — once at least this many keys of the shard
    /// have been generated. The file stays resumable; the run reports
    /// [`GenerateStatus::Stopped`]. This is the deterministic stand-in for an
    /// operator cancelling a long collection run.
    pub stop_after_keys: Option<u64>,
    /// Cell encoding of the shard written by a *fresh* generation. Resumed
    /// shards keep the encoding their file already uses, so a compressed
    /// shard stays compressed across checkpoints (and vice versa) no matter
    /// which options the resuming process passes.
    pub encoding: CellEncoding,
}

impl Default for GenerateOptions {
    fn default() -> Self {
        Self {
            checkpoint_keys: 1 << 18,
            stop_after_keys: None,
            encoding: CellEncoding::Raw,
        }
    }
}

impl GenerateOptions {
    /// The checkpoint interval actually used for a shard of `keys_total`
    /// keys: `checkpoint_keys` clamped into `1..=keys_total`.
    ///
    /// An unclamped oversized interval would silently degenerate to zero
    /// intermediate checkpoints — a crash then loses the whole run even
    /// though the operator asked for checkpointing. CLI drivers compare this
    /// against the raw value to emit the "clamped" warning.
    pub fn effective_checkpoint_keys(&self, keys_total: u64) -> u64 {
        self.checkpoint_keys.clamp(1, keys_total.max(1))
    }
}

/// How a generation call ended (errors are reported through `Result`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenerateStatus {
    /// Every covered worker generated its full allotment; the shard is
    /// complete and mergeable.
    Complete,
    /// `stop_after_keys` was reached; the shard is checkpointed and resumable.
    Stopped,
}

/// Which slice of a master configuration's key space a shard covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// The master generation configuration.
    pub config: GenerationConfig,
    /// First logical worker index covered.
    pub worker_lo: u64,
    /// One past the last logical worker index covered.
    pub worker_hi: u64,
}

impl ShardSpec {
    /// A spec covering the whole configuration (workers `0..config.workers`).
    pub fn full(config: GenerationConfig) -> Self {
        Self {
            config,
            worker_lo: 0,
            worker_hi: config.workers as u64,
        }
    }

    /// A spec covering the contiguous worker range `lo..hi`.
    pub fn workers(config: GenerationConfig, lo: u64, hi: u64) -> Self {
        Self {
            config,
            worker_lo: lo,
            worker_hi: hi,
        }
    }
}

/// Starts generating a fresh shard of `spec.config`'s key space into `path`.
///
/// `empty` fixes the dataset kind and shape; `spec` selects the contiguous
/// range of logical workers this shard covers. The file is created
/// immediately and checkpointed after every round.
///
/// # Errors
///
/// * [`DatasetError::InvalidConfig`] — bad configuration or worker range, or
///   a non-empty `empty` dataset.
/// * [`DatasetError::Io`] — `path` already exists (refuse to clobber; resume
///   instead) or a file operation failed.
/// * [`DatasetError::Cancelled`] — the flag was raised; the last checkpoint
///   remains on disk.
pub fn generate_shard<D: StorableDataset>(
    path: &Path,
    empty: D,
    spec: &ShardSpec,
    opts: &GenerateOptions,
    cancel: Option<&AtomicBool>,
    progress: &mut dyn FnMut(u64, u64),
) -> Result<GenerateStatus, DatasetError> {
    if empty.recorded_keystreams() != 0 {
        return Err(DatasetError::InvalidConfig(
            "generate_shard needs an empty dataset".into(),
        ));
    }
    if path.exists() {
        return Err(DatasetError::io(
            path,
            "already exists; use resume to continue it",
        ));
    }
    let header = ShardHeader::new(
        D::kind(),
        spec.config,
        empty.shape_params(),
        spec.worker_lo,
        spec.worker_hi,
        empty.cell_count() as u64,
    )?;
    run_rounds(path, header, empty, opts, opts.encoding, cancel, progress)
}

/// Resumes a checkpointed shard at `path` until complete (or stopped again).
///
/// # Errors
///
/// Everything [`crate::shard::read_shard`] and [`generate_shard`] return.
/// Resuming an already-complete shard is a no-op reporting
/// [`GenerateStatus::Complete`].
pub fn resume_shard<D: StorableDataset>(
    path: &Path,
    opts: &GenerateOptions,
    cancel: Option<&AtomicBool>,
    progress: &mut dyn FnMut(u64, u64),
) -> Result<GenerateStatus, DatasetError> {
    let loaded = read_shard::<D>(path)?;
    run_rounds(
        path,
        loaded.header,
        loaded.dataset,
        opts,
        loaded.encoding,
        cancel,
        progress,
    )
}

/// The round loop shared by fresh and resumed runs. `encoding` is the
/// caller's choice for fresh runs and the file's existing encoding for
/// resumed ones.
fn run_rounds<D: StorableDataset>(
    path: &Path,
    mut header: ShardHeader,
    mut dataset: D,
    opts: &GenerateOptions,
    encoding: CellEncoding,
    cancel: Option<&AtomicBool>,
    progress: &mut dyn FnMut(u64, u64),
) -> Result<GenerateStatus, DatasetError> {
    if opts.checkpoint_keys == 0 {
        return Err(DatasetError::InvalidConfig(
            "checkpoint_keys must be > 0".into(),
        ));
    }
    dataset.validate_config(&header.config)?;
    let workers = (header.worker_hi - header.worker_lo) as usize;
    let key_len = header.config.key_len;
    let keys_total = header.keys_total();

    // An already-complete shard (or a stop target already met) is a cheap
    // no-op: no generator replay, no file rewrite.
    if header.is_complete() {
        if !path.exists() {
            write_shard_with(path, &header, &dataset, encoding)?;
        }
        return Ok(GenerateStatus::Complete);
    }
    if opts
        .stop_after_keys
        .is_some_and(|stop| header.keys_done() >= stop)
    {
        if !path.exists() {
            write_shard_with(path, &header, &dataset, encoding)?;
        }
        return Ok(GenerateStatus::Stopped);
    }

    // Reconstruct each covered worker's generator at its checkpointed stream
    // position. Skipping replays only the RNG draws (a small fraction of the
    // RC4 cost per key), so resume start-up stays cheap.
    let mut gens: Vec<KeyGenerator> = Vec::with_capacity(workers);
    {
        let mut key = vec![0u8; key_len];
        for (i, &done) in header.progress.iter().enumerate() {
            let mut gen =
                KeyGenerator::new(header.config.seed, header.worker_lo + i as u64, key_len);
            for _ in 0..done {
                dataset.skip_next(&mut gen, &mut key);
            }
            gens.push(gen);
        }
    }

    // Claim the path (fresh runs) / refresh the checkpoint (resumed runs)
    // before doing any work, so the file exists from the first moment on.
    write_shard_with(path, &header, &dataset, encoding)?;
    progress(header.keys_done(), keys_total);

    // One executor for every round: at most one thread per covered stream
    // and per core, so partials follow the machine, not the stream count.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let exec = Executor::new(workers.min(threads)).with_cancel(cancel);
    let chunk = (opts.effective_checkpoint_keys(keys_total) / workers as u64).max(1);
    loop {
        if header.is_complete() {
            return Ok(GenerateStatus::Complete);
        }
        if opts
            .stop_after_keys
            .is_some_and(|stop| header.keys_done() >= stop)
        {
            return Ok(GenerateStatus::Stopped);
        }

        // One round: every covered stream advances by up to `chunk` keys
        // through the walker, then the shard is flushed. A cancelled round
        // returns before the flush, so the on-disk checkpoint stays
        // consistent with its header.
        let round: Vec<u64> = (0..workers)
            .map(|i| header.remaining_for(i).min(chunk))
            .collect();
        record_streams(&mut dataset, &mut gens, &round, &exec)?;
        for (done, n) in header.progress.iter_mut().zip(round) {
            *done += n;
        }
        write_shard_with(path, &header, &dataset, encoding)?;
        progress(header.keys_done(), keys_total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc4_stats::{generate_storable_with_exec, single::SingleByteDataset};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rc4-store-gen-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn no_progress() -> impl FnMut(u64, u64) {
        |_, _| {}
    }

    #[test]
    fn full_shard_matches_in_memory_pool_generation() {
        let dir = temp_dir("full");
        let path = dir.join("full.ds");
        let config = GenerationConfig::with_keys(1_003).workers(3).seed(99);
        let status = generate_shard(
            &path,
            SingleByteDataset::new(8),
            &ShardSpec::full(config),
            &GenerateOptions {
                checkpoint_keys: 200,
                stop_after_keys: None,
                encoding: CellEncoding::Raw,
            },
            None,
            &mut no_progress(),
        )
        .unwrap();
        assert_eq!(status, GenerateStatus::Complete);

        let loaded = read_shard::<SingleByteDataset>(&path).unwrap();
        assert!(loaded.header.is_complete());
        let mut expect = SingleByteDataset::new(8);
        generate_storable_with_exec(&mut expect, &config, &Executor::serial()).unwrap();
        assert_eq!(
            loaded.dataset.recorded_keystreams(),
            expect.recorded_keystreams()
        );
        for r in 1..=8 {
            assert_eq!(loaded.dataset.counts_at(r), expect.counts_at(r));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_resume_produces_identical_cells() {
        // 3 streams cover more streams than this machine may have cores, so
        // rounds also cut streams across bins.
        for streams in [2usize, 3] {
            let dir = temp_dir(&format!("resume-{streams}"));
            let config = GenerationConfig::with_keys(900).workers(streams).seed(5);
            let opts = GenerateOptions {
                checkpoint_keys: 128,
                stop_after_keys: Some(300),
                encoding: CellEncoding::Raw,
            };
            let path = dir.join("stopped.ds");
            let status = generate_shard(
                &path,
                SingleByteDataset::new(6),
                &ShardSpec::full(config),
                &opts,
                None,
                &mut no_progress(),
            )
            .unwrap();
            assert_eq!(status, GenerateStatus::Stopped);
            let partial = read_shard::<SingleByteDataset>(&path).unwrap();
            assert!(!partial.header.is_complete());
            assert!(partial.header.keys_done() >= 300);
            assert!(partial.header.keys_done() < 900);

            let status = resume_shard::<SingleByteDataset>(
                &path,
                &GenerateOptions {
                    checkpoint_keys: 64,
                    stop_after_keys: None,
                    encoding: CellEncoding::Raw,
                },
                None,
                &mut no_progress(),
            )
            .unwrap();
            assert_eq!(status, GenerateStatus::Complete);

            let resumed = read_shard::<SingleByteDataset>(&path).unwrap();
            let mut direct = SingleByteDataset::new(6);
            generate_storable_with_exec(&mut direct, &config, &Executor::serial()).unwrap();
            for r in 1..=6 {
                assert_eq!(
                    resumed.dataset.counts_at(r),
                    direct.counts_at(r),
                    "streams {streams}"
                );
            }
            assert_eq!(resumed.dataset.recorded_keystreams(), 900);

            // Resuming a complete shard is a cheap no-op.
            let again = resume_shard::<SingleByteDataset>(
                &path,
                &GenerateOptions::default(),
                None,
                &mut no_progress(),
            )
            .unwrap();
            assert_eq!(again, GenerateStatus::Complete);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn cancellation_leaves_a_resumable_checkpoint() {
        for streams in [2usize, 3] {
            let dir = temp_dir(&format!("cancel-{streams}"));
            let path = dir.join("cancelled.ds");
            let config = GenerationConfig::with_keys(50_000).workers(streams).seed(1);
            let cancel = AtomicBool::new(false);
            let mut rounds = 0u32;
            let result = generate_shard(
                &path,
                SingleByteDataset::new(4),
                &ShardSpec::full(config),
                &GenerateOptions {
                    checkpoint_keys: 1_000,
                    stop_after_keys: None,
                    encoding: CellEncoding::Raw,
                },
                Some(&cancel),
                &mut |_done, _total| {
                    rounds += 1;
                    if rounds == 3 {
                        cancel.store(true, Ordering::Relaxed);
                    }
                },
            );
            assert_eq!(result, Err(DatasetError::Cancelled));

            // The file holds a consistent checkpoint and resumes to the same
            // final state as an uncancelled run.
            let partial = read_shard::<SingleByteDataset>(&path).unwrap();
            assert!(partial.header.keys_done() > 0);
            resume_shard::<SingleByteDataset>(
                &path,
                &GenerateOptions {
                    checkpoint_keys: 10_000,
                    stop_after_keys: None,
                    encoding: CellEncoding::Raw,
                },
                None,
                &mut no_progress(),
            )
            .unwrap();
            let full = read_shard::<SingleByteDataset>(&path).unwrap();
            let mut direct = SingleByteDataset::new(4);
            let never = AtomicBool::new(false);
            let exec = Executor::serial().with_cancel(Some(&never));
            generate_storable_with_exec(&mut direct, &config, &exec).unwrap();
            for r in 1..=4 {
                assert_eq!(
                    full.dataset.counts_at(r),
                    direct.counts_at(r),
                    "streams {streams}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn oversized_checkpoint_interval_is_clamped() {
        let opts = GenerateOptions {
            checkpoint_keys: u64::MAX,
            stop_after_keys: None,
            encoding: CellEncoding::Raw,
        };
        assert_eq!(opts.effective_checkpoint_keys(100), 100);
        assert_eq!(opts.effective_checkpoint_keys(0), 1);
        assert_eq!(
            GenerateOptions::default().effective_checkpoint_keys(1 << 30),
            1 << 18
        );

        // A run with an interval far beyond the key range still completes
        // and produces the same cells as a tightly checkpointed run.
        let dir = temp_dir("clamp");
        let config = GenerationConfig::with_keys(600).workers(2).seed(13);
        let oversized = dir.join("oversized.ds");
        generate_shard(
            &oversized,
            SingleByteDataset::new(4),
            &ShardSpec::full(config),
            &opts,
            None,
            &mut no_progress(),
        )
        .unwrap();
        let tight = dir.join("tight.ds");
        generate_shard(
            &tight,
            SingleByteDataset::new(4),
            &ShardSpec::full(config),
            &GenerateOptions {
                checkpoint_keys: 64,
                stop_after_keys: None,
                encoding: CellEncoding::Raw,
            },
            None,
            &mut no_progress(),
        )
        .unwrap();
        let a = read_shard::<SingleByteDataset>(&oversized).unwrap();
        let b = read_shard::<SingleByteDataset>(&tight).unwrap();
        for r in 1..=4 {
            assert_eq!(a.dataset.counts_at(r), b.dataset.counts_at(r));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compressed_generation_resumes_compressed_and_matches_raw() {
        let dir = temp_dir("compressed");
        let config = GenerationConfig::with_keys(600).workers(2).seed(7);
        let raw = dir.join("raw.ds");
        generate_shard(
            &raw,
            SingleByteDataset::new(5),
            &ShardSpec::full(config),
            &GenerateOptions::default(),
            None,
            &mut no_progress(),
        )
        .unwrap();

        // Stop a compressed generation partway, then resume it with *raw*
        // options: the file must stay compressed and end cell-identical.
        let packed = dir.join("packed.ds");
        let status = generate_shard(
            &packed,
            SingleByteDataset::new(5),
            &ShardSpec::full(config),
            &GenerateOptions {
                checkpoint_keys: 100,
                stop_after_keys: Some(250),
                encoding: CellEncoding::DeltaVarint,
            },
            None,
            &mut no_progress(),
        )
        .unwrap();
        assert_eq!(status, GenerateStatus::Stopped);
        let (_, enc) = crate::shard::peek_shard(&packed).unwrap();
        assert_eq!(enc, CellEncoding::DeltaVarint);

        resume_shard::<SingleByteDataset>(
            &packed,
            &GenerateOptions::default(),
            None,
            &mut no_progress(),
        )
        .unwrap();
        let (_, enc) = crate::shard::peek_shard(&packed).unwrap();
        assert_eq!(enc, CellEncoding::DeltaVarint);

        let a = read_shard::<SingleByteDataset>(&raw).unwrap();
        let b = read_shard::<SingleByteDataset>(&packed).unwrap();
        assert_eq!(a.header, b.header);
        assert_eq!(a.dataset.cell_slices(), b.dataset.cell_slices());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refuses_to_clobber_an_existing_file() {
        let dir = temp_dir("clobber");
        let path = dir.join("x.ds");
        let config = GenerationConfig::with_keys(10);
        generate_shard(
            &path,
            SingleByteDataset::new(2),
            &ShardSpec::full(config),
            &GenerateOptions::default(),
            None,
            &mut no_progress(),
        )
        .unwrap();
        let again = generate_shard(
            &path,
            SingleByteDataset::new(2),
            &ShardSpec::full(config),
            &GenerateOptions::default(),
            None,
            &mut no_progress(),
        );
        assert!(matches!(again, Err(DatasetError::Io(msg)) if msg.contains("resume")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_worker_range_covers_only_its_streams() {
        let dir = temp_dir("range");
        let config = GenerationConfig::with_keys(100).workers(4).seed(3);
        let path = dir.join("w13.ds");
        generate_shard(
            &path,
            SingleByteDataset::new(3),
            &ShardSpec::workers(config, 1, 3),
            &GenerateOptions::default(),
            None,
            &mut no_progress(),
        )
        .unwrap();
        let shard = read_shard::<SingleByteDataset>(&path).unwrap();
        assert_eq!(shard.header.keys_total(), 50);
        assert_eq!(shard.dataset.recorded_keystreams(), 50);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A single-byte dataset that counts how many instances are alive at
    /// once, so the round engine's partials can be bounded.
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
    fn round_partials_follow_cores_not_streams() {
        let dir = temp_dir("partials");
        let path = dir.join("w16.ds");
        let config = GenerationConfig::with_keys(8_000).workers(16).seed(2);
        let empty = Probe::empty_with_shape(&[4]).unwrap();
        PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
        generate_shard(
            &path,
            empty,
            &ShardSpec::full(config),
            &GenerateOptions {
                checkpoint_keys: 2_000,
                stop_after_keys: None,
                encoding: CellEncoding::Raw,
            },
            None,
            &mut no_progress(),
        )
        .unwrap();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let peak = PEAK.load(Ordering::SeqCst);
        assert!(
            peak <= 1 + cores.min(16),
            "{peak} datasets alive at once for 16 streams on {cores} cores"
        );
        let shard = read_shard::<SingleByteDataset>(&path).unwrap();
        assert_eq!(shard.dataset.recorded_keystreams(), 8_000);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
