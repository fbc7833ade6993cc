//! N-way shard merge: the on-disk analogue of the paper's "merge the counts
//! from ~80 machines" step.
//!
//! [`merge_shards`] is the one merge. It validates that every input shard
//! belongs to the *same* master dataset — identical kind, shape and
//! generation configuration — that each shard is complete, and that the
//! covered worker ranges are seed-disjoint (non-overlapping) and tile a
//! contiguous range with no gaps. Counter cells are then summed, which is
//! exact: the result is cell-for-cell the dataset a single run over the union
//! of the worker streams would have produced.
//!
//! The sum is out-of-core: each pass streams fixed-size cell windows from
//! every input at once ([`crate::shard::open_cells`]) into the output
//! ([`crate::shard::create_cells`]), so peak memory is `O(window × inputs)`
//! instead of `O(cells × inputs)`. More inputs than
//! [`MergeOptions::fan_in`] are merged in contiguous groups into intermediate
//! shards first — the shape of a fleet campaign's final aggregation step,
//! where hundreds of worker shards arrive at once. Because `u64` addition is
//! commutative and associative, every window size and fan-in produces
//! cell-for-cell identical output; with the default raw encoding the files
//! are byte-identical.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rc4_stats::{DatasetError, StorableDataset};

use crate::codec::CellEncoding;
use crate::format::ShardHeader;
use crate::shard::{create_cells, expect_kind, open_cells, peek_shard};

/// Tuning knobs for [`merge_shards`].
#[derive(Debug, Clone, Copy)]
pub struct MergeOptions {
    /// Cells summed per streaming window. Peak merge memory is roughly
    /// `window_cells × (inputs + 1) × 8` bytes.
    pub window_cells: usize,
    /// Maximum input shards merged in one pass (equivalently: simultaneously
    /// open input streams).
    pub fan_in: usize,
    /// Cell encoding of the merged output (and of tier intermediates). Raw
    /// keeps the campaign byte-identity contract; delta+varint trades CPU
    /// for disk.
    pub encoding: CellEncoding,
}

impl Default for MergeOptions {
    fn default() -> Self {
        Self {
            // 256 Ki cells = 2 MiB per open buffer.
            window_cells: 1 << 18,
            fan_in: 16,
            encoding: CellEncoding::Raw,
        }
    }
}

/// Merges `inputs` (two or more complete, disjoint shards of one master
/// configuration) into a single shard at `out`, returning the merged header.
///
/// Cells are streamed in [`MergeOptions::window_cells`]-sized windows, so the
/// merged table never has to fit in memory, and at most
/// [`MergeOptions::fan_in`] inputs are open at once: larger input sets are
/// sorted by worker range and merged in contiguous groups into intermediate
/// shards (siblings of `out`, cleaned up afterwards), tier by tier, until one
/// final pass writes `out`. Every input's CRC-32 trailer is verified *before*
/// the output is renamed into place — corrupt inputs can never produce a
/// visible output file.
///
/// # Errors
///
/// * [`DatasetError::InvalidConfig`] — fewer than two inputs, or an input is
///   incomplete (resume it first).
/// * [`DatasetError::ShapeMismatch`] — inputs disagree on kind, shape or
///   configuration, overlap in worker ranges (duplicate derived seeds), or
///   leave a gap in the covered range.
/// * [`DatasetError::Corrupt`] — an input is damaged, or its kind tag or
///   declared cell count contradicts `D`.
/// * [`DatasetError::Io`] — an input cannot be read or the output written.
pub fn merge_shards<D: StorableDataset>(
    inputs: &[&Path],
    out: &Path,
    options: &MergeOptions,
) -> Result<ShardHeader, DatasetError> {
    let fan_in = options.fan_in.max(2);
    if inputs.len() <= fan_in {
        return merge_pass::<D>(inputs, out, options);
    }

    // Sort once by worker range so every group covers a contiguous span.
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut lows = Vec::with_capacity(inputs.len());
    for path in inputs {
        lows.push(peek_shard(path)?.0.worker_lo);
    }
    order.sort_by_key(|&i| lows[i]);

    let out_name = out
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "merged".into());
    let mut level: Vec<PathBuf> = order.iter().map(|&i| inputs[i].to_path_buf()).collect();
    let mut temps: Vec<PathBuf> = Vec::new();
    let result = (|| {
        let mut tier = 0usize;
        while level.len() > fan_in {
            let mut next = Vec::with_capacity(level.len().div_ceil(fan_in));
            for (i, group) in level.chunks(fan_in).enumerate() {
                if group.len() == 1 {
                    // A lone trailing shard passes through to the next tier.
                    next.push(group[0].clone());
                    continue;
                }
                let tmp = out.with_file_name(format!("{out_name}.tier{tier}-{i}.part"));
                let refs: Vec<&Path> = group.iter().map(PathBuf::as_path).collect();
                merge_pass::<D>(&refs, &tmp, options)?;
                temps.push(tmp.clone());
                next.push(tmp);
            }
            level = next;
            tier += 1;
        }
        let refs: Vec<&Path> = level.iter().map(PathBuf::as_path).collect();
        merge_pass::<D>(&refs, out, options)
    })();
    for tmp in temps {
        let _ = std::fs::remove_file(tmp);
    }
    result
}

/// The validation every merge pass runs: completeness, identical
/// kind/shape/config, seed-disjoint contiguous worker coverage. Returns the
/// input indices in worker order plus the merged (already-validated) header.
fn plan_merge(
    shards: &[(&Path, &ShardHeader)],
    out: &Path,
) -> Result<(Vec<usize>, ShardHeader), DatasetError> {
    if shards.len() < 2 {
        return Err(DatasetError::InvalidConfig(
            "merge needs at least two input shards".into(),
        ));
    }
    for (path, header) in shards {
        if !header.is_complete() {
            return Err(DatasetError::InvalidConfig(format!(
                "{}: shard is incomplete ({} of {} keys); resume it before merging",
                path.display(),
                header.keys_done(),
                header.keys_total()
            )));
        }
    }

    let (first_path, first) = &shards[0];
    for (path, header) in &shards[1..] {
        if header.kind != first.kind || header.shape != first.shape {
            return Err(DatasetError::ShapeMismatch(format!(
                "{} and {} hold differently shaped datasets",
                first_path.display(),
                path.display()
            )));
        }
        if header.config != first.config {
            return Err(DatasetError::ShapeMismatch(format!(
                "{} and {} belong to different generation configurations \
                 (keys/workers/seed/key_len must all match)",
                first_path.display(),
                path.display()
            )));
        }
    }

    // Worker ranges must be pairwise disjoint (each worker index is a
    // distinct derived seed stream; overlap would double-count keys) and
    // tile a contiguous range (a gap would silently drop part of the key
    // space).
    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by_key(|&i| shards[i].1.worker_lo);
    for w in order.windows(2) {
        let (prev_path, prev) = &shards[w[0]];
        let (next_path, next) = &shards[w[1]];
        if next.worker_lo < prev.worker_hi {
            return Err(DatasetError::ShapeMismatch(format!(
                "{} (workers {}..{}) and {} (workers {}..{}) overlap: \
                 the same derived seed streams would be counted twice",
                prev_path.display(),
                prev.worker_lo,
                prev.worker_hi,
                next_path.display(),
                next.worker_lo,
                next.worker_hi
            )));
        }
        if next.worker_lo > prev.worker_hi {
            return Err(DatasetError::ShapeMismatch(format!(
                "workers {}..{} are covered by no input shard (gap between {} and {})",
                prev.worker_hi,
                next.worker_lo,
                prev_path.display(),
                next_path.display()
            )));
        }
    }

    let worker_lo = shards[order[0]].1.worker_lo;
    let worker_hi = shards[*order.last().expect("non-empty")].1.worker_hi;
    let mut progress = Vec::with_capacity((worker_hi - worker_lo) as usize);
    for &i in &order {
        progress.extend_from_slice(&shards[i].1.progress);
    }
    let header = ShardHeader {
        kind: first.kind.clone(),
        config: first.config,
        shape: first.shape.clone(),
        worker_lo,
        worker_hi,
        progress,
        cells: first.cells,
    };
    header.validate(out)?;
    Ok((order, header))
}

/// One merge pass over at most [`MergeOptions::fan_in`] inputs: window by
/// window, sums every input's cells into the output, then verifies every
/// input's trailer before the output is renamed into place.
fn merge_pass<D: StorableDataset>(
    inputs: &[&Path],
    out: &Path,
    options: &MergeOptions,
) -> Result<ShardHeader, DatasetError> {
    let _span = rc4_obs::Span::enter_with(
        "store.merge.stream",
        rc4_obs::kv! { "inputs" => inputs.len(), "out" => out.display() },
    );
    let start = rc4_obs::metrics::is_enabled().then(Instant::now);

    let mut peeked = Vec::with_capacity(inputs.len());
    for path in inputs {
        let (header, _encoding) = peek_shard(path)?;
        expect_kind::<D>(path, &header)?;
        peeked.push(header);
    }
    let headers: Vec<(&Path, &ShardHeader)> = inputs.iter().copied().zip(peeked.iter()).collect();
    let (order, merged) = plan_merge(&headers, out)?;

    let mut streams = Vec::with_capacity(order.len());
    for &i in &order {
        streams.push(open_cells(inputs[i])?);
    }
    let mut writer = create_cells(out, &merged, options.encoding)?;

    let window = options
        .window_cells
        .max(1)
        .min(merged.cells.max(1) as usize);
    let mut acc = vec![0u64; window];
    let mut scratch = vec![0u64; window];
    let mut left = merged.cells;
    while left > 0 {
        let n = window.min(left as usize);
        acc[..n].fill(0);
        for stream in &mut streams {
            stream.read_cells(&mut scratch[..n])?;
            for (a, &b) in acc[..n].iter_mut().zip(&scratch[..n]) {
                *a += b;
            }
        }
        writer.write_cells(&acc[..n])?;
        left -= n as u64;
    }

    // Inputs are integrity-checked before the output becomes visible.
    let mut read_bytes = 0u64;
    for stream in streams {
        read_bytes += stream.bytes_read();
        stream.finish()?;
    }
    let write_bytes = writer.bytes_written();
    writer.finish()?;

    rc4_obs::metrics::counter_add("store.merge.inputs", inputs.len() as u64);
    rc4_obs::metrics::counter_add("store.merge.read_bytes", read_bytes);
    rc4_obs::metrics::counter_add("store.merge.write_bytes", write_bytes);
    if let Some(start) = start {
        rc4_obs::metrics::observe_us("store.merge_us", start.elapsed().as_micros() as u64);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_shard, GenerateOptions, ShardSpec};
    use rc4_stats::{single::SingleByteDataset, GenerationConfig};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rc4-store-merge-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn shard(dir: &Path, name: &str, config: &GenerationConfig, lo: u64, hi: u64) -> PathBuf {
        let path = dir.join(name);
        generate_shard(
            &path,
            SingleByteDataset::new(5),
            &ShardSpec::workers(*config, lo, hi),
            &GenerateOptions::default(),
            None,
            &mut |_, _| {},
        )
        .unwrap();
        path
    }

    #[test]
    fn merging_all_shards_reproduces_the_full_dataset() {
        let dir = temp_dir("full");
        let config = GenerationConfig::with_keys(700).workers(3).seed(17);
        let a = shard(&dir, "a.ds", &config, 0, 1);
        let b = shard(&dir, "b.ds", &config, 1, 3);
        let out = dir.join("master.ds");
        let header =
            merge_shards::<SingleByteDataset>(&[&a, &b], &out, &MergeOptions::default()).unwrap();
        assert_eq!((header.worker_lo, header.worker_hi), (0, 3));
        assert!(header.is_complete());

        let master = crate::shard::read_shard::<SingleByteDataset>(&out).unwrap();
        let mut direct = SingleByteDataset::new(5);
        rc4_stats::generate_storable_with_exec(&mut direct, &config, &rc4_exec::Executor::serial())
            .unwrap();
        assert_eq!(
            master.dataset.recorded_keystreams(),
            direct.recorded_keystreams()
        );
        for r in 1..=5 {
            assert_eq!(master.dataset.counts_at(r), direct.counts_at(r));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_and_overlapping_inputs_are_rejected() {
        let dir = temp_dir("bad");
        let config = GenerationConfig::with_keys(100).workers(2).seed(1);
        let a = shard(&dir, "a.ds", &config, 0, 1);
        let b = shard(&dir, "b.ds", &config, 1, 2);

        // Different seed => different configuration.
        let other = GenerationConfig::with_keys(100).workers(2).seed(2);
        let c = shard(&dir, "c.ds", &other, 1, 2);
        let out = dir.join("out.ds");
        assert!(matches!(
            merge_shards::<SingleByteDataset>(&[&a, &c], &out, &MergeOptions::default()),
            Err(DatasetError::ShapeMismatch(msg)) if msg.contains("configurations")
        ));

        // Overlap: the same worker twice.
        assert!(matches!(
            merge_shards::<SingleByteDataset>(&[&b, &b], &out, &MergeOptions::default()),
            Err(DatasetError::ShapeMismatch(msg)) if msg.contains("overlap")
        ));

        // Different shape.
        let wide = dir.join("wide.ds");
        generate_shard(
            &wide,
            SingleByteDataset::new(9),
            &ShardSpec::workers(config, 1, 2),
            &GenerateOptions::default(),
            None,
            &mut |_, _| {},
        )
        .unwrap();
        assert!(matches!(
            merge_shards::<SingleByteDataset>(&[&a, &wide], &out, &MergeOptions::default()),
            Err(DatasetError::ShapeMismatch(msg)) if msg.contains("shaped")
        ));

        // A single input is not a merge.
        assert!(merge_shards::<SingleByteDataset>(&[&a], &out, &MergeOptions::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn windowed_and_tiered_merges_are_byte_identical_to_the_default() {
        let dir = temp_dir("stream");
        let config = GenerationConfig::with_keys(900).workers(6).seed(23);
        let shards: Vec<PathBuf> = (0..6)
            .map(|w| shard(&dir, &format!("{w}.ds"), &config, w, w + 1))
            .collect();
        let refs: Vec<&Path> = shards.iter().map(|p| p.as_path()).collect();

        let flat = dir.join("flat.ds");
        merge_shards::<SingleByteDataset>(&refs, &flat, &MergeOptions::default()).unwrap();
        let flat_bytes = std::fs::read(&flat).unwrap();

        // Tiny windows force many refill/sum iterations.
        let streamed = dir.join("streamed.ds");
        let opts = MergeOptions {
            window_cells: 7,
            ..MergeOptions::default()
        };
        let header = merge_shards::<SingleByteDataset>(&refs, &streamed, &opts).unwrap();
        assert_eq!((header.worker_lo, header.worker_hi), (0, 6));
        assert_eq!(std::fs::read(&streamed).unwrap(), flat_bytes);

        // fan_in 2 over 6 inputs exercises two tiers of intermediates.
        let tiered = dir.join("tiered.ds");
        let opts = MergeOptions {
            window_cells: 7,
            fan_in: 2,
            ..MergeOptions::default()
        };
        merge_shards::<SingleByteDataset>(&refs, &tiered, &opts).unwrap();
        assert_eq!(std::fs::read(&tiered).unwrap(), flat_bytes);
        // Tier intermediates were cleaned up.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".part"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "leftover intermediates: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compressed_merge_output_holds_identical_cells() {
        let dir = temp_dir("compressed");
        let config = GenerationConfig::with_keys(300).workers(2).seed(5);
        let a = shard(&dir, "a.ds", &config, 0, 1);
        let b = shard(&dir, "b.ds", &config, 1, 2);
        let raw = dir.join("raw.ds");
        merge_shards::<SingleByteDataset>(&[&a, &b], &raw, &MergeOptions::default()).unwrap();
        let packed = dir.join("packed.ds");
        let opts = MergeOptions {
            encoding: crate::codec::CellEncoding::DeltaVarint,
            ..MergeOptions::default()
        };
        merge_shards::<SingleByteDataset>(&[&a, &b], &packed, &opts).unwrap();
        let raw = crate::shard::read_shard::<SingleByteDataset>(&raw).unwrap();
        let packed = crate::shard::read_shard::<SingleByteDataset>(&packed).unwrap();
        assert_eq!(raw.header, packed.header);
        assert_eq!(raw.dataset.cell_slices(), packed.dataset.cell_slices());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_input_never_produces_an_output_file() {
        let dir = temp_dir("corrupt");
        let config = GenerationConfig::with_keys(200).workers(2).seed(9);
        let a = shard(&dir, "a.ds", &config, 0, 1);
        let b = shard(&dir, "b.ds", &config, 1, 2);
        // Flip one cell byte in `b`: the damage only surfaces at the CRC
        // check, which must run before the output becomes visible.
        let mut bytes = std::fs::read(&b).unwrap();
        let mid = bytes.len() - 100;
        bytes[mid] ^= 0x10;
        std::fs::write(&b, &bytes).unwrap();
        let out = dir.join("out.ds");
        let r = merge_shards::<SingleByteDataset>(&[&a, &b], &out, &Default::default());
        assert!(matches!(r, Err(DatasetError::Corrupt(msg)) if msg.contains("CRC")));
        assert!(!out.exists(), "corrupt input produced an output file");
        // The aborted writer's temp file was removed as well.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leftover temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gap_in_worker_coverage_is_rejected() {
        let dir = temp_dir("gap");
        let config = GenerationConfig::with_keys(100).workers(3).seed(1);
        let a = shard(&dir, "a.ds", &config, 0, 1);
        let b = shard(&dir, "b.ds", &config, 2, 3);
        let out = dir.join("out.ds");
        assert!(matches!(
            merge_shards::<SingleByteDataset>(&[&a, &b], &out, &MergeOptions::default()),
            Err(DatasetError::ShapeMismatch(msg)) if msg.contains("no input shard")
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incomplete_shard_is_rejected_with_a_resume_hint() {
        let dir = temp_dir("incomplete");
        let config = GenerationConfig::with_keys(10_000).workers(2).seed(1);
        let a = shard(&dir, "a.ds", &config, 0, 1);
        let partial = dir.join("partial.ds");
        generate_shard(
            &partial,
            SingleByteDataset::new(5),
            &ShardSpec::workers(config, 1, 2),
            &GenerateOptions {
                checkpoint_keys: 500,
                stop_after_keys: Some(1_000),
                encoding: CellEncoding::Raw,
            },
            None,
            &mut |_, _| {},
        )
        .unwrap();
        let out = dir.join("out.ds");
        assert!(matches!(
            merge_shards::<SingleByteDataset>(&[&a, &partial], &out, &MergeOptions::default()),
            Err(DatasetError::InvalidConfig(msg)) if msg.contains("resume")
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
