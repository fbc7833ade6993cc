//! Integration test for the `repro dataset` subcommands and `--cache-dir`:
//! the acceptance roundtrip of the persistent dataset store.
//!
//! The headline scenario (also exercised by CI): a quick-scale per-TSC
//! dataset is generated to disk as a worker-0 shard, *stopped midway*,
//! resumed to completion, merged with a disjoint worker-1 shard, dropped into
//! a cache directory — and `repro run fig8 --cache-dir` then produces
//! byte-identical JSON to a fresh in-memory run of the equivalent combined
//! configuration, without regenerating anything.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(output: &Output) -> String {
    String::from_utf8(output.stderr.clone()).expect("stderr is UTF-8")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-dataset-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &Path) -> String {
    p.to_str().expect("temp paths are UTF-8").to_string()
}

/// The full acceptance roundtrip: generate → stop → resume → merge →
/// cache-served `repro run fig8` byte-identical to the fresh run.
#[test]
fn generate_stop_resume_merge_cache_roundtrip_is_byte_identical() {
    let dir = scratch("roundtrip");
    // fig8 with an empirical per-TSC1 model over 4096 keys. The dataset fig8
    // requests is then: kind per-tsc, positions payload_len + 1 + TRAILER_LEN
    // = 68, seed 0xF168 ^ 0xE = 0xF166, and the FIXED logical stream count
    // `rc4_attacks::experiments::DATASET_STREAMS` = 4 (the `--workers` flag
    // only sets the thread budget and must not change the dataset identity).
    let config_path = dir.join("fig8.json");
    std::fs::write(
        &config_path,
        r#"{"fig8": {"capture_counts":[256],"trials":1,"max_candidates":64,"payload_len":55,"model":{"kind":"empirical","keys":4096},"seed":61800}}"#,
    )
    .unwrap();
    let run_args = |extra: &[&str]| {
        let mut args = vec![
            "run",
            "fig8",
            "--config",
            config_path.to_str().unwrap(),
            "--workers",
            "2",
            "--json",
        ];
        args.extend_from_slice(extra);
        args.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };

    // Fresh, fully in-memory run: the ground truth.
    let fresh = repro(&run_args(&[]).iter().map(String::as_str).collect::<Vec<_>>());
    assert!(fresh.status.success(), "fresh run: {}", stderr(&fresh));
    let fresh_json = stdout(&fresh);

    // Shard for worker 0, stopped midway (deterministic stand-in for a
    // cancelled collection run) — the header must say "resumable".
    let shard0 = path_str(&dir.join("shard0.ds"));
    let gen0 = repro(&[
        "dataset",
        "generate",
        "--out",
        &shard0,
        "--kind",
        "per-tsc",
        "--positions",
        "68",
        "--keys",
        "4096",
        "--workers",
        "4",
        "--seed",
        "0xF166",
        "--worker-range",
        "0..1",
        "--checkpoint-keys",
        "256",
        "--stop-after-keys",
        "500",
    ]);
    assert!(gen0.status.success(), "gen0: {}", stderr(&gen0));
    assert!(stderr(&gen0).contains("stopped"), "gen0: {}", stderr(&gen0));
    let info0 = repro(&["dataset", "info", &shard0]);
    assert!(info0.status.success());
    assert!(stdout(&info0).contains("resumable"), "{}", stdout(&info0));

    // Resume it to completion.
    let res0 = repro(&["dataset", "resume", &shard0]);
    assert!(res0.status.success(), "resume: {}", stderr(&res0));
    let info0 = repro(&["dataset", "info", &shard0]);
    assert!(stdout(&info0).contains("complete"), "{}", stdout(&info0));

    // Disjoint second shard: the remaining worker streams 1..4.
    let shard1 = path_str(&dir.join("shard1.ds"));
    let gen1 = repro(&[
        "dataset",
        "generate",
        "--out",
        &shard1,
        "--kind",
        "per-tsc",
        "--positions",
        "68",
        "--keys",
        "4096",
        "--workers",
        "4",
        "--seed",
        "0xF166",
        "--worker-range",
        "1..4",
    ]);
    assert!(gen1.status.success(), "gen1: {}", stderr(&gen1));

    // Merge into the cache directory (any *.ds name is found by the scan).
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let master = path_str(&cache.join("master.ds"));
    let merge = repro(&["dataset", "merge", "--out", &master, &shard0, &shard1]);
    assert!(merge.status.success(), "merge: {}", stderr(&merge));

    // Cached run: must hit (no generation) and match the fresh run byte for
    // byte.
    let cache_str = path_str(&cache);
    let cached_args = run_args(&["--cache-dir", &cache_str]);
    let cached = repro(&cached_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(cached.status.success(), "cached run: {}", stderr(&cached));
    assert!(
        stderr(&cached).contains("dataset cache hit (per-tsc)"),
        "expected a cache hit, got: {}",
        stderr(&cached)
    );
    assert_eq!(
        fresh_json,
        stdout(&cached),
        "cache-served run must be byte-identical to the fresh run"
    );

    // Worker-count invariance through the cache: a different thread budget
    // must serve the SAME dataset (cache identity excludes `--workers`) and
    // produce the same bytes.
    let mut one_worker_args = cached_args.clone();
    let w = one_worker_args
        .iter()
        .position(|a| a == "--workers")
        .expect("run args carry --workers");
    one_worker_args[w + 1] = "1".to_string();
    let one_worker = repro(
        &one_worker_args
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(one_worker.status.success(), "{}", stderr(&one_worker));
    assert!(
        stderr(&one_worker).contains("dataset cache hit (per-tsc)"),
        "--workers 1 run missed the cache: {}",
        stderr(&one_worker)
    );
    assert_eq!(
        fresh_json,
        stdout(&one_worker),
        "--workers must not change experiment output"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--workers 0` is rejected up front with a helpful message (exit 2), both
/// on `run` and on `dataset generate`.
#[test]
fn zero_workers_is_rejected_with_exit_2() {
    let run = repro(&["run", "headline", "--workers", "0"]);
    assert_eq!(run.status.code(), Some(2));
    assert!(
        stderr(&run).contains("--workers must be at least 1"),
        "{}",
        stderr(&run)
    );

    let dir = scratch("workers0");
    let out = path_str(&dir.join("x.ds"));
    let gen = repro(&[
        "dataset",
        "generate",
        "--out",
        &out,
        "--kind",
        "single",
        "--positions",
        "4",
        "--workers",
        "0",
    ]);
    assert_eq!(gen.status.code(), Some(2));
    assert!(
        stderr(&gen).contains("--workers must be at least 1"),
        "{}",
        stderr(&gen)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The dataset subcommands validate their inputs: unknown kinds, missing
/// shape flags, bad ranges and missing files all exit 2/1 with a message.
#[test]
fn dataset_subcommand_error_contract() {
    // Unknown subcommand / missing subcommand.
    let unknown = repro(&["dataset", "explode"]);
    assert_eq!(unknown.status.code(), Some(2));
    let bare = repro(&["dataset"]);
    assert_eq!(bare.status.code(), Some(2));
    // --help exits 0 with usage on stdout.
    let help = repro(&["dataset", "--help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("generate"));

    // Missing shape flag.
    let dir = scratch("errors");
    let out = path_str(&dir.join("x.ds"));
    let missing = repro(&["dataset", "generate", "--out", &out, "--kind", "single"]);
    assert_eq!(missing.status.code(), Some(2));
    assert!(
        stderr(&missing).contains("--positions"),
        "{}",
        stderr(&missing)
    );

    // Merging fewer than two shards.
    let short = repro(&["dataset", "merge", "--out", &out, "nonexistent.ds"]);
    assert_eq!(short.status.code(), Some(2));

    // Info on a missing file is a runtime error (exit 1) naming the path.
    let missing_file = path_str(&dir.join("absent.ds"));
    let info = repro(&["dataset", "info", &missing_file]);
    assert_eq!(info.status.code(), Some(1));
    assert!(stderr(&info).contains("absent.ds"), "{}", stderr(&info));

    // Info on a corrupt file reports a typed corruption message.
    let garbage = dir.join("garbage.ds");
    std::fs::write(&garbage, b"RC4DSET\0garbage beyond the magic").unwrap();
    let info = repro(&["dataset", "info", &path_str(&garbage)]);
    assert_eq!(info.status.code(), Some(1));
    assert!(
        stderr(&info).contains("corrupt") || stderr(&info).contains("truncated"),
        "{}",
        stderr(&info)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shape past the dataset cell bound is a usage error that names the bound
/// and writes no shard: 2^40 single-byte positions (a 2 PiB table), and 2^40
/// consecutive pairs (refused before their 16 TiB descriptor is built).
#[test]
fn generate_rejects_shapes_past_the_cell_bound() {
    let dir = scratch("bound");
    let out = path_str(&dir.join("huge.ds"));
    for shape in [
        ["single", "--positions", "1099511627776"],
        ["pairs", "--consecutive", "1099511627776"],
    ] {
        let gen = repro(
            &[
                &["dataset", "generate", "--out", &out, "--kind"][..],
                &shape,
            ]
            .concat(),
        );
        let err = stderr(&gen);
        assert_eq!(gen.status.code(), Some(2), "{shape:?}: {err}");
        assert!(err.contains("cell bound of 2147483648"), "{shape:?}: {err}");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "{shape:?} wrote a file"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A position past the keystream bound is a usage error that names the
/// bound and writes no shard: a pair at position 2^40 would need a 16 TiB
/// keystream buffer per engine batch.
#[test]
fn generate_rejects_positions_past_the_keystream_bound() {
    let dir = scratch("keystream-bound");
    let out = path_str(&dir.join("far.ds"));
    for shape in [
        ["pairs", "--pairs", "1:1099511627776"],
        ["longterm", "--block", "1099511627776"],
    ] {
        let gen = repro(
            &[
                &[
                    "dataset", "generate", "--out", &out, "--keys", "10", "--kind",
                ][..],
                &shape,
            ]
            .concat(),
        );
        let err = stderr(&gen);
        assert_eq!(gen.status.code(), Some(2), "{shape:?}: {err}");
        assert!(
            err.contains("keystream bound of 16777216 bytes"),
            "{shape:?}: {err}"
        );
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "{shape:?} wrote a file"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--checkpoint-keys` larger than the shard's key range used to silently
/// produce zero intermediate checkpoints; now it is clamped with a warning,
/// and the run still completes (with correct data — pinned by the store's
/// unit tests).
#[test]
fn oversized_checkpoint_keys_warns_and_clamps() {
    let dir = scratch("clampwarn");
    let out = path_str(&dir.join("clamped.ds"));
    let gen = repro(&[
        "dataset",
        "generate",
        "--out",
        &out,
        "--kind",
        "single",
        "--positions",
        "4",
        "--keys",
        "200",
        "--checkpoint-keys",
        "1000000",
    ]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    let err = stderr(&gen);
    assert!(
        err.contains("--checkpoint-keys 1000000 exceeds the shard's 200 keys"),
        "missing clamp warning in: {err}"
    );
    assert!(err.contains("clamping"), "missing clamp wording in: {err}");
    let info = repro(&["dataset", "info", &out]);
    assert!(stdout(&info).contains("complete"), "{}", stdout(&info));

    // A sane interval stays warning-free.
    let quiet = path_str(&dir.join("quiet.ds"));
    let gen = repro(&[
        "dataset",
        "generate",
        "--out",
        &quiet,
        "--kind",
        "single",
        "--positions",
        "4",
        "--keys",
        "200",
        "--checkpoint-keys",
        "100",
    ]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    assert!(
        !stderr(&gen).contains("warning"),
        "unexpected warning: {}",
        stderr(&gen)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `dataset info --json` emits the parsed header as JSON.
#[test]
fn dataset_info_json_is_parseable() {
    let dir = scratch("infojson");
    let out = path_str(&dir.join("tiny.ds"));
    let gen = repro(&[
        "dataset",
        "generate",
        "--out",
        &out,
        "--kind",
        "pairs",
        "--consecutive",
        "2",
        "--keys",
        "50",
    ]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    let info = repro(&["dataset", "info", &out, "--json"]);
    assert!(info.status.success(), "{}", stderr(&info));
    let header: serde::Value = serde_json::from_str(&stdout(&info)).expect("info --json parses");
    let kind = header.field("kind").unwrap();
    assert_eq!(*kind, serde::Value::Str("pairs".into()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `dataset info` names the PRGA counters a long-term shard holds digraph
/// slices for: table1 caches its six representatives, longterm none.
#[test]
fn dataset_info_prints_the_long_term_counter_selection() {
    let dir = scratch("infocounters");
    let config_path = dir.join("small.json");
    let small = r#"{"keys":8192,"longterm_keys":4,"longterm_block":4096,"seed":7,"positions":[]}"#;
    std::fs::write(
        &config_path,
        format!(r#"{{"table1": {small}, "longterm": {small}}}"#),
    )
    .unwrap();
    let cache = dir.join("cache");
    let run = repro(&[
        "run",
        "table1",
        "longterm",
        "--config",
        &path_str(&config_path),
        "--cache-dir",
        &path_str(&cache),
    ]);
    assert!(run.status.success(), "{}", stderr(&run));
    let mut selections: Vec<String> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|entry| {
            let info = repro(&["dataset", "info", &path_str(&entry.unwrap().path())]);
            assert!(info.status.success(), "{}", stderr(&info));
            let text = stdout(&info);
            let line = text.lines().find(|l| l.starts_with("counters:"));
            line.expect("a long-term shard names its counters")
                .to_string()
        })
        .collect();
    selections.sort();
    assert_eq!(
        selections,
        [
            "counters:    0,1,2,7,254,255 (6 of 256 digraph slices)",
            "counters:    none (aligned table only)",
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--compress` writes a v2 delta+varint shard that is smaller on disk yet
/// holds the identical dataset, and the window/fan-in merge flags produce
/// output byte-identical to the default merge.
#[test]
fn compressed_shards_and_streaming_merge_match_raw() {
    let dir = scratch("compress");
    let common = |out: &str, range: &str, extra: &[&str]| {
        let mut args = vec![
            "dataset",
            "generate",
            "--out",
            out,
            "--kind",
            "single",
            "--positions",
            "8",
            "--keys",
            "600",
            "--workers",
            "2",
            "--seed",
            "9",
            "--worker-range",
            range,
        ];
        args.extend_from_slice(extra);
        repro(&args)
    };
    let shard0 = path_str(&dir.join("shard0.ds"));
    let shard1 = path_str(&dir.join("shard1.ds"));
    let shard0_v2 = path_str(&dir.join("shard0-v2.ds"));
    assert!(common(&shard0, "0..1", &[]).status.success());
    assert!(common(&shard1, "1..2", &[]).status.success());
    assert!(common(&shard0_v2, "0..1", &["--compress"]).status.success());

    // The compressed twin is smaller and info reports both as the same
    // complete dataset (the full read verifies CRC and cell count).
    let raw_len = std::fs::metadata(&shard0).unwrap().len();
    let v2_len = std::fs::metadata(&shard0_v2).unwrap().len();
    assert!(
        v2_len < raw_len,
        "compressed shard ({v2_len} B) should be smaller than raw ({raw_len} B)"
    );
    let info = repro(&["dataset", "info", &shard0_v2]);
    assert!(info.status.success(), "{}", stderr(&info));
    assert!(stdout(&info).contains("delta-varint"), "{}", stdout(&info));
    let info = repro(&["dataset", "info", &shard0]);
    assert!(stdout(&info).contains("raw"), "{}", stdout(&info));

    // Default, small-window and tiered merges agree byte for byte.
    let merged = path_str(&dir.join("merged.ds"));
    let merged_streaming = path_str(&dir.join("merged-streaming.ds"));
    let merged_tiered = path_str(&dir.join("merged-tiered.ds"));
    let m = repro(&["dataset", "merge", "--out", &merged, &shard0, &shard1]);
    assert!(m.status.success(), "{}", stderr(&m));
    let m = repro(&[
        "dataset",
        "merge",
        "--out",
        &merged_streaming,
        "--window-cells",
        "100",
        &shard0,
        &shard1,
    ]);
    assert!(m.status.success(), "{}", stderr(&m));
    let m = repro(&[
        "dataset",
        "merge",
        "--out",
        &merged_tiered,
        "--fan-in",
        "2",
        &shard0,
        &shard1,
    ]);
    assert!(m.status.success(), "{}", stderr(&m));
    let reference = std::fs::read(&merged).unwrap();
    assert_eq!(reference, std::fs::read(&merged_streaming).unwrap());
    assert_eq!(reference, std::fs::read(&merged_tiered).unwrap());

    // A compressed input merges like a raw one: same cells, same output.
    let merged_mixed = path_str(&dir.join("merged-mixed.ds"));
    let m = repro(&[
        "dataset",
        "merge",
        "--out",
        &merged_mixed,
        &shard0_v2,
        &shard1,
    ]);
    assert!(m.status.success(), "{}", stderr(&m));
    assert_eq!(reference, std::fs::read(&merged_mixed).unwrap());

    let _ = std::fs::remove_dir_all(&dir);
}
