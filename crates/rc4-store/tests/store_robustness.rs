//! Robustness of the on-disk shard format: every way a file can be damaged —
//! truncation, bit flips, foreign/old formats, mismatched shapes — must
//! surface as a *typed* [`DatasetError`] naming the path, never as a panic,
//! a silent wrong answer, or a stringly `Serialization` error.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use rc4_stats::{
    longterm::LongTermDataset,
    pairs::{PairDataset, PositionPair},
    single::SingleByteDataset,
    tsc::{PerTscDataset, TscConditioning},
    DatasetError, GenerationConfig, StorableDataset,
};
use rc4_store::{
    generate_shard, merge_shards, peek_shard, read_shard, write_shard_with, CampaignManifest,
    CampaignSpec, CellEncoding, GenerateOptions, MergeOptions, ShardHeader, ShardSpec,
    FORMAT_VERSION, FORMAT_VERSION_COMPRESSED,
};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A unique, writable scratch directory per call (proptest runs many cases).
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rc4-store-robust-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a small complete single-byte shard and returns its path.
fn sample_shard(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("sample.ds");
    let config = GenerationConfig::with_keys(64).seed(7);
    generate_shard(
        &path,
        SingleByteDataset::new(4),
        &ShardSpec::full(config),
        &GenerateOptions::default(),
        None,
        &mut |_, _| {},
    )
    .unwrap();
    path
}

#[test]
fn truncated_file_fails_with_typed_corrupt_error() {
    let dir = scratch();
    let path = sample_shard(&dir);
    let bytes = std::fs::read(&path).unwrap();

    // Truncate at several interesting offsets: mid-preamble, mid-header,
    // mid-cells, and just before the CRC trailer.
    for cut in [4, 12, 20, bytes.len() / 2, bytes.len() - 2] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let read = read_shard::<SingleByteDataset>(&path);
        match read {
            Err(DatasetError::Corrupt(msg)) => {
                assert!(msg.contains("sample.ds"), "path missing in: {msg}")
            }
            other => panic!("truncation at {cut} gave {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_anywhere_fails_with_typed_corrupt_error() {
    let dir = scratch();
    let path = sample_shard(&dir);
    let bytes = std::fs::read(&path).unwrap();

    // A bit flip in the cells or the CRC itself must be caught by the CRC
    // check; flips in the preamble/header are caught by their own checks.
    for offset in [0, 9, 30, bytes.len() / 2, bytes.len() - 1] {
        let mut damaged = bytes.clone();
        damaged[offset] ^= 0x40;
        std::fs::write(&path, &damaged).unwrap();
        match read_shard::<SingleByteDataset>(&path) {
            Err(DatasetError::Corrupt(_)) => {}
            other => panic!("flip at {offset} gave {other:?}"),
        }
    }

    // Flip specifically in the cell area and check the CRC message.
    let cells_offset = bytes.len() - 10;
    let mut damaged = bytes.clone();
    damaged[cells_offset] ^= 0x01;
    std::fs::write(&path, &damaged).unwrap();
    match read_shard::<SingleByteDataset>(&path) {
        Err(DatasetError::Corrupt(msg)) => assert!(msg.contains("CRC"), "not a CRC error: {msg}"),
        other => panic!("cell flip gave {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_format_version_is_rejected_by_name() {
    let dir = scratch();
    let path = sample_shard(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION_COMPRESSED + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    for result in [
        read_shard::<SingleByteDataset>(&path).map(|_| ()),
        peek_shard(&path).map(|_| ()),
    ] {
        match result {
            Err(DatasetError::Corrupt(msg)) => assert!(
                msg.contains(&format!("version {}", FORMAT_VERSION_COMPRESSED + 1))
                    && msg.contains("1 and 2"),
                "version/supported-range missing in: {msg}"
            ),
            other => panic!("wrong version gave {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_file_is_rejected_by_magic() {
    let dir = scratch();
    let path = dir.join("foreign.ds");
    std::fs::write(&path, b"definitely not a dataset shard, but long enough").unwrap();
    match read_shard::<SingleByteDataset>(&path) {
        Err(DatasetError::Corrupt(msg)) => assert!(msg.contains("magic"), "{msg}"),
        other => panic!("foreign file gave {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shape_mismatched_merge_fails_with_typed_error() {
    let dir = scratch();
    let config = GenerationConfig::with_keys(40).workers(2).seed(3);
    let narrow = dir.join("narrow.ds");
    let wide = dir.join("wide.ds");
    generate_shard(
        &narrow,
        SingleByteDataset::new(4),
        &ShardSpec::workers(config, 0, 1),
        &GenerateOptions::default(),
        None,
        &mut |_, _| {},
    )
    .unwrap();
    generate_shard(
        &wide,
        SingleByteDataset::new(8),
        &ShardSpec::workers(config, 1, 2),
        &GenerateOptions::default(),
        None,
        &mut |_, _| {},
    )
    .unwrap();
    match merge_shards::<SingleByteDataset>(
        &[&narrow, &wide],
        &dir.join("out.ds"),
        &MergeOptions::default(),
    ) {
        Err(DatasetError::ShapeMismatch(msg)) => {
            assert!(
                msg.contains("narrow.ds") && msg.contains("wide.ds"),
                "{msg}"
            )
        }
        other => panic!("shape-mismatched merge gave {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_tsc_short_keys_fail_typed_instead_of_panicking() {
    // TKIP keys need 3 bytes of prefix room; the store path must reject
    // key_len < 3 up front exactly like the in-memory generator does.
    let dir = scratch();
    let config = GenerationConfig {
        key_len: 2,
        ..GenerationConfig::with_keys(100)
    };
    let result = generate_shard(
        &dir.join("short.ds"),
        PerTscDataset::new(TscConditioning::Tsc1, 4).unwrap(),
        &ShardSpec::full(config),
        &GenerateOptions::default(),
        None,
        &mut |_, _| {},
    );
    assert!(
        matches!(result, Err(DatasetError::InvalidConfig(ref msg)) if msg.contains("3 bytes")),
        "got {result:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resuming_a_complete_shard_does_not_touch_the_file() {
    let dir = scratch();
    let path = sample_shard(&dir);
    let before = std::fs::metadata(&path).unwrap().modified().unwrap();
    let status = rc4_store::resume_shard::<SingleByteDataset>(
        &path,
        &GenerateOptions::default(),
        None,
        &mut |_, _| {},
    )
    .unwrap();
    assert_eq!(status, rc4_store::GenerateStatus::Complete);
    let after = std::fs::metadata(&path).unwrap().modified().unwrap();
    assert_eq!(before, after, "complete shard was rewritten on resume");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn implausible_header_length_is_rejected_before_allocation() {
    // A hostile 16-byte preamble claiming a ~4 GiB header must be rejected
    // by the length cap, not by an attempted allocation.
    let dir = scratch();
    let path = dir.join("huge-header.ds");
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&rc4_store::MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    for result in [
        peek_shard(&path).map(|_| ()),
        read_shard::<SingleByteDataset>(&path).map(|_| ()),
    ] {
        match result {
            Err(DatasetError::Corrupt(msg)) => {
                assert!(msg.contains("header length"), "{msg}")
            }
            other => panic!("huge header length gave {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn implausible_cell_count_is_rejected_before_allocation() {
    // A valid header whose shape implies a 2 TiB table, over a file holding
    // no cells, must be rejected by the file-length bound, not by an
    // attempted allocation.
    let dir = scratch();
    let path = dir.join("huge-cells.ds");
    let positions = 1u64 << 30;
    let header = ShardHeader::new(
        "single",
        GenerationConfig::with_keys(1),
        vec![positions],
        0,
        1,
        positions * 256,
    )
    .unwrap();
    let json = serde_json::to_string(&header).unwrap();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&rc4_store::MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(json.len() as u32).to_le_bytes());
    bytes.extend_from_slice(json.as_bytes());
    bytes.extend_from_slice(&[0; 12]);
    std::fs::write(&path, &bytes).unwrap();
    match read_shard::<SingleByteDataset>(&path) {
        Err(DatasetError::Corrupt(msg)) => {
            assert!(msg.contains("cannot hold"), "{msg}")
        }
        other => panic!("huge cell count gave {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write → read for every kind, through the real generation engine, checking
/// cells and keystream totals survive unchanged.
#[test]
fn every_kind_roundtrips_through_the_store() {
    let dir = scratch();
    let config = GenerationConfig::with_keys(120).workers(2).seed(11);
    let spec = ShardSpec::full(config);
    let opts = GenerateOptions::default();

    fn roundtrip<D: StorableDataset>(
        dir: &std::path::Path,
        name: &str,
        empty_a: D,
        empty_b: D,
        spec: &ShardSpec,
        opts: &GenerateOptions,
    ) {
        let path = dir.join(name);
        generate_shard(&path, empty_a, spec, opts, None, &mut |_, _| {}).unwrap();
        let loaded = read_shard::<D>(&path).unwrap();
        // Regenerate in memory through the same engine into a second file and
        // compare raw cells: the store is the source of truth here.
        let path_b = dir.join(format!("b-{name}"));
        generate_shard(&path_b, empty_b, spec, opts, None, &mut |_, _| {}).unwrap();
        let loaded_b = read_shard::<D>(&path_b).unwrap();
        assert_eq!(
            loaded.dataset.cell_slices().concat(),
            loaded_b.dataset.cell_slices().concat(),
            "{name}: cells differ between identical generations"
        );
        assert_eq!(
            loaded.dataset.recorded_keystreams(),
            spec.config.keys,
            "{name}: keystream total wrong"
        );
    }

    roundtrip(
        &dir,
        "single.ds",
        SingleByteDataset::new(5),
        SingleByteDataset::new(5),
        &spec,
        &opts,
    );
    roundtrip(
        &dir,
        "pairs.ds",
        PairDataset::new(vec![PositionPair { a: 1, b: 3 }]).unwrap(),
        PairDataset::new(vec![PositionPair { a: 1, b: 3 }]).unwrap(),
        &spec,
        &opts,
    );
    roundtrip(
        &dir,
        "longterm.ds",
        LongTermDataset::new(7, 32).unwrap(),
        LongTermDataset::new(7, 32).unwrap(),
        &spec,
        &opts,
    );
    roundtrip(
        &dir,
        "longterm-selection.ds",
        LongTermDataset::with_counters(7, 600, &[0, 9, 255]).unwrap(),
        LongTermDataset::with_counters(7, 600, &[0, 9, 255]).unwrap(),
        &spec,
        &opts,
    );
    roundtrip(
        &dir,
        "pertsc.ds",
        PerTscDataset::new(TscConditioning::Tsc1, 3).unwrap(),
        PerTscDataset::new(TscConditioning::Tsc1, 3).unwrap(),
        &spec,
        &opts,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A full long-term table keeps the 2-parameter shape, so its shard is the
/// same file however the selection is asked for and reads as all 256
/// counters; a partial selection carries its mask and reads back as itself.
#[test]
fn long_term_shards_keep_the_lowest_shape_form() {
    let dir = scratch();
    let spec = ShardSpec::full(GenerationConfig::with_keys(5).seed(21));
    let opts = GenerateOptions {
        encoding: CellEncoding::DeltaVarint,
        ..GenerateOptions::default()
    };
    let write = |name: &str, empty: LongTermDataset| {
        let path = dir.join(name);
        generate_shard(&path, empty, &spec, &opts, None, &mut |_, _| {}).unwrap();
        path
    };
    let all: Vec<u8> = (0..=255).collect();
    let plain = write("plain.ds", LongTermDataset::new(7, 300).unwrap());
    let selected_all = write(
        "all.ds",
        LongTermDataset::with_counters(7, 300, &all).unwrap(),
    );
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&selected_all).unwrap()
    );
    assert_eq!(peek_shard(&plain).unwrap().0.shape, vec![7, 300]);
    let full = read_shard::<LongTermDataset>(&plain).unwrap().dataset;
    assert_eq!(full.counters(), &all[..]);

    let some = write(
        "some.ds",
        LongTermDataset::with_counters(7, 300, &[200, 3]).unwrap(),
    );
    assert_eq!(
        peek_shard(&some).unwrap().0.shape,
        vec![7, 300, 1 << 3, 0, 0, 1 << 8]
    );
    let part = read_shard::<LongTermDataset>(&some).unwrap().dataset;
    assert_eq!(part.counters(), &[3, 200]);
    // The last two cells are the digraph and aligned-sample totals.
    assert_eq!(part.cell_slices()[2..], full.cell_slices()[2..]);
    for i in [3, 200] {
        assert_eq!(part.digraph_samples(i), full.digraph_samples(i));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest nested far deeper than any real one is a typed error, not a
/// stack overflow in the JSON parser.
#[test]
fn deeply_nested_manifest_is_corrupt() {
    let dir = scratch();
    let path = dir.join("campaign.json");
    std::fs::write(&path, "[".repeat(1 << 20)).unwrap();
    assert!(matches!(
        CampaignManifest::load(&path),
        Err(DatasetError::Corrupt(msg)) if msg.contains("recursion limit")
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary recorded contents and shapes survive a write → read
    /// roundtrip bit for bit (single-byte datasets).
    #[test]
    fn proptest_single_byte_write_read_roundtrip(
        positions in 1usize..12,
        keystreams in prop::collection::vec(prop::collection::vec(any::<u8>(), 12), 1..40),
    ) {
        let dir = scratch();
        let mut ds = SingleByteDataset::new(positions);
        for ks in &keystreams {
            ds.record_stream(0, &ks[..positions.min(ks.len())]);
        }
        let mut header = ShardHeader::new(
            "single",
            GenerationConfig::with_keys(keystreams.len() as u64),
            ds.shape_params(),
            0,
            1,
            ds.cell_count() as u64,
        ).unwrap();
        header.progress = vec![keystreams.len() as u64];
        let path = dir.join("prop.ds");
        write_shard_with(&path, &header, &ds, CellEncoding::Raw).unwrap();
        let back = read_shard::<SingleByteDataset>(&path).unwrap();
        prop_assert_eq!(back.header, header);
        prop_assert_eq!(back.dataset.cell_slices().concat(), ds.cell_slices().concat());
        prop_assert_eq!(back.dataset.recorded_keystreams(), ds.recorded_keystreams());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Same roundtrip property for pair datasets with arbitrary pair lists.
    #[test]
    fn proptest_pair_write_read_roundtrip(
        raw_pairs in prop::collection::vec((1usize..6, 6usize..10), 1..4),
        keystreams in prop::collection::vec(prop::collection::vec(any::<u8>(), 10), 1..20),
    ) {
        let dir = scratch();
        let pairs: Vec<PositionPair> = raw_pairs
            .iter()
            .map(|&(a, b)| PositionPair { a, b })
            .collect();
        let mut ds = PairDataset::new(pairs).unwrap();
        for ks in &keystreams {
            ds.record_stream(0, ks);
        }
        let mut header = ShardHeader::new(
            "pairs",
            GenerationConfig::with_keys(keystreams.len() as u64),
            ds.shape_params(),
            0,
            1,
            ds.cell_count() as u64,
        ).unwrap();
        header.progress = vec![keystreams.len() as u64];
        let path = dir.join("prop.ds");
        write_shard_with(&path, &header, &ds, CellEncoding::Raw).unwrap();
        let back = read_shard::<PairDataset>(&path).unwrap();
        prop_assert_eq!(back.dataset.cell_slices().concat(), ds.cell_slices().concat());
        prop_assert_eq!(back.dataset.recorded_keystreams(), ds.recorded_keystreams());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arbitrary bytes as a campaign manifest are a typed `Corrupt` error,
    /// never a panic.
    #[test]
    fn proptest_arbitrary_manifest_bytes_are_corrupt(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let dir = scratch();
        let path = dir.join("campaign.json");
        std::fs::write(&path, &bytes).unwrap();
        let loaded = CampaignManifest::load(&path);
        prop_assert!(matches!(loaded, Err(DatasetError::Corrupt(_))), "{:?}", loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A planned manifest reloads equal, even after a grant and a
    /// heartbeat; the same file with one byte replaced or cut short loads
    /// or fails as `Corrupt`, never panics.
    #[test]
    fn proptest_planned_manifests_reload_equal(
        workers in 1usize..16,
        leases in 1u64..16,
        keys in 1u64..100_000,
        seed in any::<u64>(),
        shape in prop::collection::vec(any::<u64>(), 1..4),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let dir = scratch();
        let path = dir.join("campaign.json");
        let spec = CampaignSpec {
            kind: "single".to_string(),
            shape,
            config: GenerationConfig::with_keys(keys).workers(workers).seed(seed),
        };
        let leases = leases.min(workers as u64);
        let mut planned = CampaignManifest::plan(&path, spec, leases).unwrap();
        planned.grant_next("child-0", 7).unwrap();
        planned.heartbeat(0, "child-0", 1, 9).unwrap();
        let back = CampaignManifest::load(&path).unwrap();
        prop_assert_eq!(&back.spec, &planned.spec);
        prop_assert_eq!(&back.leases, &planned.leases);

        let mut bytes = std::fs::read(&path).unwrap();
        let at = at % bytes.len();
        let mut cut = bytes.clone();
        cut.truncate(at);
        bytes[at] = byte;
        for damaged in [bytes, cut] {
            std::fs::write(&path, &damaged).unwrap();
            if let Err(e) = CampaignManifest::load(&path) {
                prop_assert!(matches!(e, DatasetError::Corrupt(_)), "{:?}", e);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
