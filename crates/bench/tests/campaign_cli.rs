//! Integration test for the `repro campaign` subcommands: the lease-based
//! fleet coordinator's acceptance scenario.
//!
//! The headline contract: a campaign split over several worker processes —
//! including one that *crashes mid-lease* (deterministic `--fail-first-after-keys`
//! injection) and has its lease expired, re-granted and resumed by a
//! replacement — merges into a table byte-identical to one uninterrupted
//! single-process `repro dataset generate` of the same configuration.

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
    let dir =
        std::env::temp_dir().join(format!("repro-campaign-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &Path) -> String {
    p.to_str().expect("temp paths are UTF-8").to_string()
}

/// The acceptance scenario from the issue: 4 leases, 2 worker processes, the
/// first worker killed mid-lease by fault injection; the campaign recovers
/// (expire → re-grant → resume from the crashed worker's checkpoint) and the
/// merged table is byte-identical to the single-process run.
#[test]
fn crashed_worker_is_re_leased_and_the_merge_is_byte_identical() {
    let dir = scratch("crash");
    let single = dir.join("single.ds");
    let camp = dir.join("camp");
    let merged = dir.join("merged.ds");

    // The uninterrupted single-process reference table.
    let gen = repro(&[
        "dataset",
        "generate",
        "--out",
        &path_str(&single),
        "--kind",
        "single",
        "--positions",
        "8",
        "--keys",
        "4000",
        "--workers",
        "8",
        "--seed",
        "42",
    ]);
    assert!(gen.status.success(), "{}", stderr(&gen));

    let plan = repro(&[
        "campaign",
        "plan",
        "--dir",
        &path_str(&camp),
        "--kind",
        "single",
        "--shape",
        "8",
        "--leases",
        "4",
        "--keys",
        "4000",
        "--workers",
        "8",
        "--seed",
        "42",
    ]);
    assert!(plan.status.success(), "{}", stderr(&plan));
    assert!(camp.join("campaign.json").is_file());

    // Run with 2 worker processes; the first checkpoints 150 keys of its
    // lease and then exits abnormally without reporting completion.
    let run = repro(&[
        "campaign",
        "run",
        "--dir",
        &path_str(&camp),
        "--out",
        &path_str(&merged),
        "--procs",
        "2",
        "--checkpoint-keys",
        "100",
        "--fail-first-after-keys",
        "150",
    ]);
    assert!(run.status.success(), "{}", stderr(&run));
    let log = stderr(&run);
    assert!(
        log.contains("died; re-leasing"),
        "the injected crash must surface as an expiry:\n{log}"
    );
    assert!(
        log.contains("attempt 2"),
        "the expired lease must be re-granted:\n{log}"
    );

    let reference = std::fs::read(&single).unwrap();
    let campaign = std::fs::read(&merged).unwrap();
    assert_eq!(
        reference, campaign,
        "campaign merge must be byte-identical to the single-process table"
    );

    // status reflects the finished campaign, including the crash's attempt
    // count, and survives the coordinator being long gone.
    let status = repro(&["campaign", "status", "--dir", &path_str(&camp)]);
    assert!(status.status.success(), "{}", stderr(&status));
    let text = stdout(&status);
    assert!(text.contains("complete 4"), "{text}");
    assert!(text.contains("ready to merge"), "{text}");
    assert!(text.contains("attempts 2"), "{text}");

    // Re-running the finished campaign only re-merges — still byte-identical.
    let rerun = repro(&[
        "campaign",
        "run",
        "--dir",
        &path_str(&camp),
        "--out",
        &path_str(&merged),
        "--procs",
        "2",
    ]);
    assert!(rerun.status.success(), "{}", stderr(&rerun));
    assert_eq!(reference, std::fs::read(&merged).unwrap());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean multi-process campaign (no crash) over a pairs dataset, merged
/// through the tiered out-of-core path, against the single-process
/// reference; plus the `--compress` variant holding identical cells.
#[test]
fn clean_campaign_matches_single_process_across_kinds() {
    let dir = scratch("clean");
    let single = dir.join("single.ds");
    let camp = dir.join("camp");
    let merged = dir.join("merged.ds");

    let gen = repro(&[
        "dataset",
        "generate",
        "--out",
        &path_str(&single),
        "--kind",
        "pairs",
        "--consecutive",
        "2",
        "--keys",
        "900",
        "--workers",
        "6",
        "--seed",
        "7",
    ]);
    assert!(gen.status.success(), "{}", stderr(&gen));

    // Pairs shape params are the flattened (a, b) pairs: --consecutive 2
    // expands to pairs 1:2 and 2:3, i.e. shape 1,2,2,3.
    let plan = repro(&[
        "campaign",
        "plan",
        "--dir",
        &path_str(&camp),
        "--kind",
        "pairs",
        "--shape",
        "1,2,2,3",
        "--leases",
        "3",
        "--keys",
        "900",
        "--workers",
        "6",
        "--seed",
        "7",
    ]);
    assert!(plan.status.success(), "{}", stderr(&plan));

    let run = repro(&[
        "campaign",
        "run",
        "--dir",
        &path_str(&camp),
        "--out",
        &path_str(&merged),
        "--procs",
        "3",
        "--fan-in",
        "2",
    ]);
    assert!(run.status.success(), "{}", stderr(&run));
    assert_eq!(
        std::fs::read(&single).unwrap(),
        std::fs::read(&merged).unwrap(),
        "tiered campaign merge must be byte-identical to the single-process table"
    );

    // The compressed merged table is smaller on disk but `dataset info`
    // verifies it holds the same complete dataset (CRC + cell count).
    let compressed = dir.join("merged-v2.ds");
    let run = repro(&[
        "campaign",
        "run",
        "--dir",
        &path_str(&camp),
        "--out",
        &path_str(&compressed),
        "--compress",
    ]);
    assert!(run.status.success(), "{}", stderr(&run));
    let info = repro(&["dataset", "info", &path_str(&compressed)]);
    assert!(info.status.success(), "{}", stderr(&info));
    let text = stdout(&info);
    assert!(text.contains("complete"), "{text}");
    assert!(text.contains("delta-varint"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Planning is validated up front: bad shapes, over-splitting, and planning
/// over an existing manifest are usage errors, not worker-time failures.
#[test]
fn plan_rejects_bad_inputs_up_front() {
    let dir = scratch("plan-errors");
    let camp = dir.join("camp");

    // More leases than workers cannot tile the range.
    let over = repro(&[
        "campaign",
        "plan",
        "--dir",
        &path_str(&camp),
        "--kind",
        "single",
        "--shape",
        "8",
        "--leases",
        "9",
        "--keys",
        "100",
        "--workers",
        "4",
    ]);
    assert_eq!(over.status.code(), Some(2), "{}", stderr(&over));

    // A shape the dataset kind rejects fails before any file is written.
    let bad_shape = repro(&[
        "campaign",
        "plan",
        "--dir",
        &path_str(&camp),
        "--kind",
        "pairs",
        "--shape",
        "1,1",
        "--leases",
        "1",
        "--keys",
        "100",
        "--workers",
        "4",
    ]);
    assert_eq!(bad_shape.status.code(), Some(2), "{}", stderr(&bad_shape));
    assert!(!camp.join("campaign.json").exists());

    // Planning twice refuses to clobber the manifest.
    let ok = repro(&[
        "campaign",
        "plan",
        "--dir",
        &path_str(&camp),
        "--kind",
        "single",
        "--shape",
        "8",
        "--leases",
        "2",
        "--keys",
        "100",
        "--workers",
        "4",
    ]);
    assert!(ok.status.success(), "{}", stderr(&ok));
    let again = repro(&[
        "campaign",
        "plan",
        "--dir",
        &path_str(&camp),
        "--kind",
        "single",
        "--shape",
        "8",
        "--leases",
        "2",
        "--keys",
        "100",
        "--workers",
        "4",
    ]);
    assert_eq!(again.status.code(), Some(1), "{}", stderr(&again));
    assert!(stderr(&again).contains("resume"), "{}", stderr(&again));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Shapes past the dataset cell bound are usage errors that name the bound
/// and write no manifest: one whose cell count overflows `u64` (2^56
/// per-TSC positions), and one that would need a 2 PiB table (2^40
/// single-byte positions).
#[test]
fn plan_rejects_shapes_past_the_cell_bound() {
    let dir = scratch("plan-bound");
    for (kind, shape) in [
        ("per-tsc", "0,72057594037927936"),
        ("single", "1099511627776"),
    ] {
        let camp = dir.join(kind);
        let plan = repro(&[
            "campaign",
            "plan",
            "--dir",
            &path_str(&camp),
            "--kind",
            kind,
            "--shape",
            shape,
            "--workers",
            "2",
            "--leases",
            "2",
        ]);
        let err = stderr(&plan);
        assert_eq!(plan.status.code(), Some(2), "{kind}: {err}");
        assert!(err.contains("cell bound of 2147483648"), "{kind}: {err}");
        assert!(!camp.exists(), "{kind}: planning wrote {}", camp.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pair position past the keystream bound is a usage error that names the
/// bound and writes no manifest.
#[test]
fn plan_rejects_positions_past_the_keystream_bound() {
    let dir = scratch("plan-keystream-bound");
    let camp = dir.join("pairs");
    let plan = repro(&[
        "campaign",
        "plan",
        "--dir",
        &path_str(&camp),
        "--kind",
        "pairs",
        "--shape",
        "1,1099511627776",
        "--leases",
        "2",
    ]);
    let err = stderr(&plan);
    assert_eq!(plan.status.code(), Some(2), "{err}");
    assert!(err.contains("keystream bound of 16777216 bytes"), "{err}");
    assert!(!camp.exists(), "planning wrote {}", camp.display());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-lease campaign's merge goes through the shard reader and writer like
/// any other: `--compress` writes a delta-varint table holding the
/// single-process cells, and the raw merge is the single-process file.
#[test]
fn one_lease_campaign_merges_through_the_shard_codec() {
    use rc4_stats::{single::SingleByteDataset, StorableDataset};

    let dir = scratch("one-lease");
    let single = dir.join("single.ds");
    let camp = dir.join("camp");
    let compressed = dir.join("merged-v2.ds");
    let raw = dir.join("merged.ds");

    let gen = repro(&[
        "dataset",
        "generate",
        "--out",
        &path_str(&single),
        "--kind",
        "single",
        "--positions",
        "8",
        "--keys",
        "1200",
        "--workers",
        "3",
        "--seed",
        "9",
    ]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    let plan = repro(&[
        "campaign",
        "plan",
        "--dir",
        &path_str(&camp),
        "--kind",
        "single",
        "--shape",
        "8",
        "--leases",
        "1",
        "--keys",
        "1200",
        "--workers",
        "3",
        "--seed",
        "9",
    ]);
    assert!(plan.status.success(), "{}", stderr(&plan));

    let run = repro(&[
        "campaign",
        "run",
        "--dir",
        &path_str(&camp),
        "--out",
        &path_str(&compressed),
        "--compress",
    ]);
    assert!(run.status.success(), "{}", stderr(&run));
    let info = repro(&["dataset", "info", &path_str(&compressed)]);
    assert!(info.status.success(), "{}", stderr(&info));
    let text = stdout(&info);
    assert!(text.contains("delta-varint"), "{text}");
    assert!(text.contains("complete"), "{text}");

    let reference = rc4_store::read_shard::<SingleByteDataset>(&single).unwrap();
    let merged = rc4_store::read_shard::<SingleByteDataset>(&compressed).unwrap();
    assert_eq!(merged.header, reference.header);
    assert_eq!(
        merged.dataset.cell_slices(),
        reference.dataset.cell_slices()
    );

    let rerun = repro(&[
        "campaign",
        "run",
        "--dir",
        &path_str(&camp),
        "--out",
        &path_str(&raw),
    ]);
    assert!(rerun.status.success(), "{}", stderr(&rerun));
    assert_eq!(
        std::fs::read(&single).unwrap(),
        std::fs::read(&raw).unwrap()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A coordinator killed outright (SIGKILL, so it runs no cleanup) leaves its
/// lease children re-parented. Each child notices at its next checkpoint and
/// exits, so the lease shards stop advancing within two checkpoint intervals
/// instead of running on until their leases are done; a `campaign resume`
/// then finishes the campaign byte-identically to `dataset generate`.
#[test]
fn lease_children_stop_when_their_coordinator_is_killed() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    const CHECKPOINT: u64 = 20_000;
    let dir = scratch("orphans");
    let single = dir.join("single.ds");
    let camp = dir.join("camp");
    let merged = dir.join("merged.ds");
    let shape = ["--keys", "4000000", "--workers", "2", "--seed", "17"];

    let gen = repro(
        &[
            &[
                "dataset",
                "generate",
                "--out",
                &path_str(&single),
                "--kind",
                "single",
                "--positions",
                "16",
            ][..],
            &shape,
        ]
        .concat(),
    );
    assert!(gen.status.success(), "{}", stderr(&gen));
    let plan = repro(
        &[
            &[
                "campaign",
                "plan",
                "--dir",
                &path_str(&camp),
                "--kind",
                "single",
                "--shape",
                "16",
                "--leases",
                "2",
            ][..],
            &shape,
        ]
        .concat(),
    );
    assert!(plan.status.success(), "{}", stderr(&plan));

    let log = dir.join("coordinator.log");
    let mut coordinator = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["campaign", "run", "--dir", &path_str(&camp)])
        .args(["--out", &path_str(&merged), "--procs", "2"])
        .args(["--checkpoint-keys", &CHECKPOINT.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(std::fs::File::create(&log).unwrap())
        .spawn()
        .expect("repro binary runs");

    let shards = [camp.join("lease-0000.ds"), camp.join("lease-0001.ds")];
    // Keys done per lease shard; `None` while a shard is missing or mid-rename.
    let progress = || -> Option<Vec<(u64, u64)>> {
        shards
            .iter()
            .map(|p| {
                let (h, _) = rc4_store::peek_shard(p).ok()?;
                Some((h.keys_done(), h.keys_total()))
            })
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let at_kill = loop {
        if let Some(p) = progress().filter(|p| p.iter().all(|&(done, _)| done >= CHECKPOINT)) {
            break p;
        }
        assert!(Instant::now() < deadline, "both leases never checkpointed");
        std::thread::sleep(Duration::from_millis(2));
    };
    coordinator.kill().unwrap();
    coordinator.wait().unwrap();

    // Wait until no shard has changed for a second: far longer than one
    // checkpoint interval, far shorter than what is left of either lease.
    let mut last = at_kill.clone();
    let mut quiet_since = Instant::now();
    while quiet_since.elapsed() < Duration::from_secs(1) {
        assert!(Instant::now() < deadline, "lease shards never settled");
        std::thread::sleep(Duration::from_millis(20));
        if let Some(now) = progress().filter(|now| *now != last) {
            last = now;
            quiet_since = Instant::now();
        }
    }
    for ((before, total), (after, _)) in at_kill.iter().zip(&last) {
        assert!(
            after - before <= 2 * CHECKPOINT && after < total,
            "a lease child ran on after its coordinator died: {before} -> {after} of {total} keys\n{}",
            std::fs::read_to_string(&log).unwrap_or_default()
        );
    }

    let resume = repro(&[
        "campaign",
        "resume",
        "--dir",
        &path_str(&camp),
        "--out",
        &path_str(&merged),
    ]);
    assert!(resume.status.success(), "{}", stderr(&resume));
    assert_eq!(
        std::fs::read(&single).unwrap(),
        std::fs::read(&merged).unwrap(),
        "the resumed campaign must equal the single-process table"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
