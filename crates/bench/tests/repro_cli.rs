//! Integration test for the `repro` binary: the CLI contract the CI workflow
//! and the determinism guarantees rely on.

use std::process::{Command, Output};

use rc4_attacks::{ExperimentReport, Registry};

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

/// The committed `repro run all --scale quick --json` document.
fn quick_golden() -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/quick_all.json"
    );
    std::fs::read(path).expect("golden file is committed")
}

/// `repro list` prints every registered experiment with its summary.
#[test]
fn list_prints_the_registry() {
    let output = repro(&["list"]);
    assert!(output.status.success());
    let text = stdout(&output);
    let registry = Registry::with_defaults();
    assert!(registry.len() >= 13);
    for entry in registry.entries() {
        assert!(
            text.contains(entry.name()) && text.contains(entry.summary()),
            "list output is missing '{}'",
            entry.name()
        );
    }
}

/// A reader that stops early (`repro list | head -1`) ends `repro` with
/// exit 0 and no panic: once after reading the first line, and once with
/// the pipe closed before `repro` has written anything.
#[test]
fn closed_stdout_is_a_clean_exit() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    for read_first_line in [true, false] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("list")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("repro binary runs");
        let out = child.stdout.take().expect("piped stdout");
        if read_first_line {
            let mut line = String::new();
            BufReader::new(out).read_line(&mut line).unwrap();
            assert!(line.starts_with("headline"), "first line: {line:?}");
        } else {
            drop(out);
        }
        let mut err = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut err)
            .unwrap();
        let status = child.wait().unwrap();
        assert!(!err.contains("panicked"), "stderr: {err}");
        assert!(status.success(), "exit {status:?}, stderr: {err}");
    }
}

/// `repro list --json` describes every experiment completely: name, summary,
/// aliases, and the scales it accepts — the machine-readable registry
/// contract serving clients rely on to validate submissions.
#[test]
fn list_json_carries_name_summary_aliases_and_scales() {
    let output = repro(&["list", "--json"]);
    assert!(output.status.success());
    let value: serde::Value = serde_json::from_str(&stdout(&output)).expect("list JSON parses");
    let serde::Value::Array(entries) = &value else {
        panic!("list --json must be a JSON array");
    };
    let registry = Registry::with_defaults();
    assert_eq!(entries.len(), registry.len(), "one entry per experiment");
    for (entry, registered) in entries.iter().zip(registry.entries()) {
        let field = |name: &str| match entry.field(name) {
            Ok(serde::Value::Str(s)) => s.clone(),
            other => panic!("entry field `{name}` should be a string, got {other:?}"),
        };
        assert_eq!(field("name"), registered.name());
        assert_eq!(field("summary"), registered.summary());
        let Ok(serde::Value::Array(aliases)) = entry.field("aliases") else {
            panic!("entry lacks an `aliases` array");
        };
        let alias_names: Vec<String> = aliases
            .iter()
            .map(|a| match a {
                serde::Value::Str(s) => s.clone(),
                other => panic!("alias should be a string, got {other:?}"),
            })
            .collect();
        assert_eq!(alias_names, registered.aliases().to_vec());
        let Ok(serde::Value::Array(scales)) = entry.field("scales") else {
            panic!("entry lacks a `scales` array");
        };
        let scale_names: Vec<String> = scales
            .iter()
            .map(|s| match s {
                serde::Value::Str(s) => s.clone(),
                other => panic!("scale should be a string, got {other:?}"),
            })
            .collect();
        assert_eq!(scale_names, vec!["quick", "laptop", "extended"]);
    }
    // At least one experiment actually advertises an alias, so the field is
    // exercised rather than vacuously empty everywhere.
    assert!(
        entries.iter().any(|e| matches!(
            e.field("aliases"),
            Ok(serde::Value::Array(a)) if !a.is_empty()
        )),
        "expected at least one aliased experiment"
    );
}

/// The serve-family subcommands are wired into the dispatcher: a client
/// command with no reachable server fails cleanly (exit 2, pointing at
/// `repro serve`), and `repro serve --help` documents the whole family.
#[test]
fn serve_family_dispatches_and_fails_cleanly_without_a_server() {
    let help = repro(&["serve", "--help"]);
    assert!(help.status.success());
    let text = stdout(&help);
    for cmd in [
        "serve", "submit", "jobs", "watch", "result", "cancel", "status", "shutdown",
    ] {
        assert!(text.contains(cmd), "serve help is missing '{cmd}'");
    }

    let output = repro(&["jobs", "--state-dir", "/nonexistent/reprod-state"]);
    assert!(!output.status.success());
    assert_eq!(output.status.code(), Some(2));
    assert!(
        stderr(&output).contains("repro serve"),
        "the error should point at starting a server, got: {}",
        stderr(&output)
    );
}

/// `repro run all --scale quick --json` emits a single parseable JSON array
/// with exactly one report per registered experiment, byte-identical to the
/// committed golden of the same (default) seed.
#[test]
fn run_all_json_is_parseable_complete_and_deterministic() {
    let output = repro(&["run", "all", "--scale", "quick", "--json"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);

    let reports: Vec<ExperimentReport> =
        serde_json::from_str(&text).expect("stdout is one JSON array of reports");
    let registry = Registry::with_defaults();
    assert_eq!(
        reports.len(),
        registry.len(),
        "expected one report per registered experiment"
    );
    for report in &reports {
        assert!(!report.rows.is_empty(), "{} report is empty", report.id);
    }

    assert!(
        output.stdout == quick_golden(),
        "same-seed runs must produce byte-identical --json output"
    );
}

/// A `--seed` override reaches the experiments: output differs from the
/// default-seed run but remains self-consistent.
#[test]
fn seed_flag_changes_and_pins_the_output() {
    let base = ["run", "headline", "--scale", "quick", "--json"];
    let seeded = [
        "run", "headline", "--scale", "quick", "--json", "--seed", "7",
    ];
    let default_out = stdout(&repro(&base));
    let seeded_a = stdout(&repro(&seeded));
    let seeded_b = stdout(&repro(&seeded));
    assert_eq!(seeded_a, seeded_b);
    assert_ne!(default_out, seeded_a);
}

/// Unknown experiment names exit non-zero and list every registered name —
/// sourced from the registry, never hardcoded.
#[test]
fn unknown_experiment_lists_registered_names_and_fails() {
    let output = repro(&["run", "fig99"]);
    assert_eq!(output.status.code(), Some(2));
    let err = stderr(&output);
    for name in Registry::with_defaults().names() {
        assert!(err.contains(name), "error message is missing '{name}'");
    }
}

/// Unknown scales exit non-zero and name the valid scales.
#[test]
fn unknown_scale_fails_with_the_valid_choices() {
    let output = repro(&["run", "headline", "--scale", "galactic"]);
    assert_eq!(output.status.code(), Some(2));
    let err = stderr(&output);
    assert!(err.contains("quick") && err.contains("laptop") && err.contains("extended"));
}

/// Experiments run only through `repro run`: the positional form
/// `repro NAME [SCALE]` and a bare `repro` are usage errors that point at it,
/// and run nothing.
#[test]
fn positional_form_is_rejected_with_a_pointer_to_run() {
    for args in [&["headline", "quick"][..], &["fig7", "fig8", "quick"], &[]] {
        let output = repro(args);
        assert_eq!(output.status.code(), Some(2), "args: {args:?}");
        assert!(stdout(&output).is_empty(), "args: {args:?}");
        assert!(
            stderr(&output).contains("repro run <NAME"),
            "args: {args:?}"
        );
    }
}

/// `--help` is not an error: usage goes to stdout with exit 0.
#[test]
fn help_exits_zero_with_usage_on_stdout() {
    let output = repro(&["--help"]);
    assert_eq!(output.status.code(), Some(0));
    assert!(stdout(&output).contains("usage: repro"));
}

/// `--config` entries keyed by an alias reach the canonical experiment, and
/// duplicate entries (via aliasing) are rejected.
#[test]
fn config_overrides_resolve_aliases() {
    use rc4_attacks::experiments::fig8::{Fig8Config, TkipTrafficModel};
    use serde::Serialize;

    let config = Fig8Config {
        capture_counts: vec![512],
        trials: 1,
        max_candidates: 128,
        payload_len: 55,
        model: TkipTrafficModel::Synthetic { relative_bias: 0.9 },
        seed: 99,
    };
    let dir = std::env::temp_dir();
    let path = dir.join("repro_cli_alias_config.json");
    std::fs::write(
        &path,
        format!(
            "{{\"fig9\": {}}}",
            serde_json::to_string(&config.to_value()).unwrap()
        ),
    )
    .unwrap();
    let output = repro(&["run", "fig8", "--json", "--config", path.to_str().unwrap()]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let reports: Vec<ExperimentReport> = serde_json::from_str(&stdout(&output)).unwrap();
    assert_eq!(reports.len(), 1);
    // The alias-keyed override must actually land: one sweep point (512
    // captures), not the quick preset's two.
    assert_eq!(reports[0].rows.len(), 1, "override was not applied");
    assert_eq!(reports[0].rows[0].cells[0], "512");

    let dup_path = dir.join("repro_cli_dup_config.json");
    std::fs::write(
        &dup_path,
        format!(
            "{{\"fig8\": {cfg}, \"fig9\": {cfg}}}",
            cfg = serde_json::to_string(&config.to_value()).unwrap()
        ),
    )
    .unwrap();
    let dup = repro(&["run", "fig8", "--config", dup_path.to_str().unwrap()]);
    assert_eq!(dup.status.code(), Some(2));
    assert!(stderr(&dup).contains("twice"));

    // An override for an experiment that is not part of the run is an error,
    // not a silent no-op.
    let unused = repro(&["run", "fig7", "--config", path.to_str().unwrap()]);
    assert_eq!(unused.status.code(), Some(2));
    assert!(stderr(&unused).contains("not being run"));
}

/// `repro bench --json` emits the BENCH_*.json schema (a `benches` array of
/// `{bench, ns_per_iter[, bytes_per_sec]}`) with every smoke workload
/// present, and the compare gate passes against its own numbers.
#[test]
fn bench_smoke_mode_contract() {
    // The fast-mode knob travels per child process (never via set_var: tests
    // run multi-threaded, and mutating this process's environment races the
    // spawns of sibling tests).
    let bench_fast = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .env("REPRO_BENCH_FAST", "1")
            .output()
            .expect("repro binary runs")
    };
    let output = bench_fast(&["bench", "--json"]);
    assert!(output.status.success(), "{}", stderr(&output));
    let report: serde::Value = serde_json::from_str(&stdout(&output)).expect("bench JSON parses");
    let serde::Value::Array(benches) = report.field("benches").expect("benches array").clone()
    else {
        panic!("`benches` is not an array");
    };
    let names: Vec<String> = benches
        .iter()
        .map(|b| match b.field("bench") {
            Ok(serde::Value::Str(name)) => name.clone(),
            other => panic!("bench entry without name: {other:?}"),
        })
        .collect();
    for expected in [
        "rc4_keystream/65536",
        "rc4_batch_keystream/16x4096",
        "rc4_batch_rekey/256x68",
        "dataset_generate/single_32768x64",
        "fig8_tkip_recovery/quick_sweep",
        "sampling/normal_65536",
        "recovery_likelihood/fm_sparse_65536",
        "recovery_viterbi/base64_6x256",
        "streaming_ingest/absorb_rescore_65536",
        "tls/cookie_stats_add_1500",
        "crc32/1048576",
        "e2e/serve_fig6_quick",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing {expected}");
    }
    for bench in &benches {
        match bench.field("ns_per_iter") {
            Ok(serde::Value::Float(ns)) => assert!(*ns > 0.0),
            Ok(serde::Value::UInt(ns)) => assert!(*ns > 0),
            other => panic!("ns_per_iter missing or non-numeric: {other:?}"),
        }
    }

    // Self-compare: the measured file gates itself (exit 0, markdown table).
    // The wide tolerance keeps this a test of the gate *mechanism* — in fast
    // mode under a fully loaded test machine, run-to-run noise alone can
    // exceed the default 25%.
    let dir = std::env::temp_dir();
    let bench_file = dir.join(format!("repro-bench-self-{}.json", std::process::id()));
    std::fs::write(&bench_file, stdout(&output)).unwrap();
    let gate = bench_fast(&[
        "bench",
        "--compare",
        bench_file.to_str().unwrap(),
        "--tolerance",
        "400",
    ]);
    assert!(gate.status.success(), "{}", stderr(&gate));
    let table = stdout(&gate);
    assert!(table.contains("vs committed trajectory"), "{table}");
    assert!(table.contains("| ok |"), "{table}");
    assert!(!table.contains("REGRESSED"), "{table}");

    // A tiny committed value must trip the gate with exit 1.
    std::fs::write(
        &bench_file,
        r#"{"benches": [{"bench": "rc4_keystream/65536", "ns_per_iter": 1.0}]}"#,
    )
    .unwrap();
    let fail = bench_fast(&["bench", "--compare", bench_file.to_str().unwrap()]);
    assert_eq!(fail.status.code(), Some(1), "{}", stderr(&fail));
    assert!(stderr(&fail).contains("perf regression gate failed"));
    assert!(stdout(&fail).contains("REGRESSED"));
    let _ = std::fs::remove_file(&bench_file);
}

/// Unknown bench flags exit 2 with usage.
#[test]
fn bench_rejects_unknown_flags() {
    let output = repro(&["bench", "--frobnicate"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("usage: repro bench"));
}

/// A tolerance that would switch the gate off (`delta_pct > NaN` is never
/// true) is a usage error before anything is measured.
#[test]
fn bench_rejects_tolerances_that_disable_the_gate() {
    for tolerance in ["nan", "-1", "inf"] {
        let output = repro(&["bench", "--tolerance", tolerance]);
        assert_eq!(output.status.code(), Some(2), "--tolerance {tolerance}");
        let err = stderr(&output);
        assert!(err.contains("--tolerance must be"), "{err}");
        assert!(!err.contains("bench smoke run"), "measured anyway: {err}");
    }
}

/// `repro run all --scale quick --json` at `--workers 4` is byte-identical
/// to the committed golden (`golden_reports.rs` runs it at 1 and 2): the
/// worker count is a pure thread budget — logical RNG streams are pinned
/// per trial / per dataset — so parallelism can never change a reported
/// number.
#[test]
fn run_all_json_is_byte_identical_across_worker_counts() {
    let output = repro(&["run", "all", "--scale", "quick", "--json", "--workers", "4"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(
        output.stdout == quick_golden(),
        "--workers 4 changed experiment output; parallelism must be result-neutral"
    );
}

/// `repro bench --compare latest` resolves the highest-numbered
/// `BENCH_pr<N>.json` in the current directory — numerically, so pr10
/// outranks pr9 — and errors cleanly when none exists.
#[test]
fn bench_compare_latest_resolves_numerically() {
    let dir = std::env::temp_dir().join(format!("repro-bench-latest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bench_in = |cwd: &std::path::Path, args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(cwd)
            .env("REPRO_BENCH_FAST", "1")
            .output()
            .expect("repro binary runs")
    };

    // No trajectory files at all: a clean exit-2 error, not a panic.
    let none = bench_in(&dir, &["bench", "--compare", "latest"]);
    assert_eq!(none.status.code(), Some(2), "{}", stderr(&none));
    assert!(stderr(&none).contains("no BENCH_pr"), "{}", stderr(&none));

    // pr9 would pass (huge committed numbers), pr10 must trip the gate
    // (tiny committed number) — so an exit-1 proves pr10 was picked over
    // pr9 despite "BENCH_pr9.json" sorting later lexicographically.
    std::fs::write(
        dir.join("BENCH_pr9.json"),
        r#"{"benches": [{"bench": "rc4_keystream/65536", "ns_per_iter": 1e15}]}"#,
    )
    .unwrap();
    std::fs::write(
        dir.join("BENCH_pr10.json"),
        r#"{"benches": [{"bench": "rc4_keystream/65536", "ns_per_iter": 1.0}]}"#,
    )
    .unwrap();
    let gate = bench_in(&dir, &["bench", "--compare", "latest"]);
    assert_eq!(gate.status.code(), Some(1), "{}", stderr(&gate));
    assert!(
        stderr(&gate).contains("resolved to BENCH_pr10.json"),
        "{}",
        stderr(&gate)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro bench --compare latest` in a directory holding only
/// `BENCH_baseline.json` falls back to the baseline with a note instead of
/// erroring — the state of a freshly seeded repo before its first PR lands
/// a numbered trajectory file.
#[test]
fn bench_compare_latest_falls_back_to_baseline() {
    let dir = std::env::temp_dir().join(format!("repro-bench-baseline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A baseline the gate must trip on proves the fallback file was used.
    std::fs::write(
        dir.join("BENCH_baseline.json"),
        r#"{"benches": [{"bench": "rc4_keystream/65536", "ns_per_iter": 1.0}]}"#,
    )
    .unwrap();
    let gate = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["bench", "--compare", "latest"])
        .current_dir(&dir)
        .env("REPRO_BENCH_FAST", "1")
        .output()
        .expect("repro binary runs");
    assert_eq!(gate.status.code(), Some(1), "{}", stderr(&gate));
    let err = stderr(&gate);
    assert!(err.contains("falling back to BENCH_baseline.json"), "{err}");
    assert!(err.contains("resolved to BENCH_baseline.json"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--until-confident` maps experiment names to their streaming variants:
/// `fig7` runs `fig7-stream`, experiments without a variant are rejected
/// with exit 2 naming the ones that have one, and the resulting report
/// carries the ciphertexts-consumed-at-stop headline.
#[test]
fn until_confident_maps_to_streaming_variants() {
    let output = repro(&[
        "run",
        "fig7",
        "--until-confident",
        "--scale",
        "quick",
        "--json",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let reports: Vec<ExperimentReport> = serde_json::from_str(&stdout(&output)).unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].id, "fig7-stream");
    assert!(
        reports[0]
            .notes
            .iter()
            .any(|n| n.contains("consumed at stop")),
        "missing the ciphertexts-consumed-at-stop headline: {:?}",
        reports[0].notes
    );
    // The acceptance bar for streaming mode: at quick scale, at least one
    // seeded trial stops before the fixed-grid ciphertext budget (the cap).
    assert!(
        reports[0]
            .rows
            .iter()
            .any(|r| r.cells[2] == "early (confident)"),
        "no quick-scale trial stopped early: {:?}",
        reports[0].rows
    );

    let no_variant = repro(&["run", "fig8", "--until-confident"]);
    assert_eq!(no_variant.status.code(), Some(2));
    let err = stderr(&no_variant);
    assert!(err.contains("no --until-confident variant"), "{err}");
    assert!(
        err.contains("fig7") && err.contains("fig10") && err.contains("tls-cookie"),
        "{err}"
    );

    let listed = repro(&["list", "--until-confident"]);
    assert_eq!(listed.status.code(), Some(2));
}

/// `--trace` is observation, not perturbation: a traced `repro run all
/// --scale quick --json` is byte-identical to the committed golden of the
/// untraced run, the trace file is
/// schema-versioned JSONL with nested spans, and `repro trace summarize`
/// aggregates it in both human and `--json` form.
#[test]
fn trace_flag_is_result_neutral_and_summarizable() {
    let dir = std::env::temp_dir();
    let trace_path = dir.join(format!("repro-cli-trace-{}.jsonl", std::process::id()));
    let traced = repro(&[
        "run",
        "all",
        "--scale",
        "quick",
        "--json",
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    assert!(traced.status.success(), "stderr: {}", stderr(&traced));
    assert!(
        traced.stdout == quick_golden(),
        "--trace changed the result document; tracing must be observation-only"
    );

    let text = std::fs::read_to_string(&trace_path).expect("trace file was written");
    let first = text.lines().next().expect("trace file is non-empty");
    let meta: serde::Value = serde_json::from_str(first).expect("meta line parses");
    assert!(
        matches!(meta.field("schema"), Ok(serde::Value::Str(s)) if s == "rc4-obs-trace"),
        "first line must be the schema meta header, got: {first}"
    );
    // Spans from all three instrumented layers, with real nesting.
    assert!(text.contains("\"name\":\"exec.map\""), "no executor spans");
    assert!(
        text.contains("\"name\":\"store.load_or_generate\""),
        "no store spans"
    );
    assert!(
        text.contains("\"name\":\"experiment.run\""),
        "no experiment spans"
    );
    let has_nested = text.lines().skip(1).any(|line| {
        serde_json::from_str::<serde::Value>(line)
            .ok()
            .is_some_and(|v| matches!(v.field("depth"), Ok(serde::Value::UInt(d)) if *d > 0))
    });
    assert!(has_nested, "no nested (depth > 0) spans in the trace");

    let table = repro(&["trace", "summarize", trace_path.to_str().unwrap()]);
    assert!(table.status.success(), "stderr: {}", stderr(&table));
    assert!(stdout(&table).contains("exec.map"), "{}", stdout(&table));
    let json = repro(&["trace", "summarize", trace_path.to_str().unwrap(), "--json"]);
    assert!(json.status.success(), "stderr: {}", stderr(&json));
    let summary: serde::Value =
        serde_json::from_str(&stdout(&json)).expect("summarize --json parses");
    assert!(
        matches!(summary.field("spans"), Ok(serde::Value::Array(s)) if !s.is_empty()),
        "summary lacks a non-empty `spans` array"
    );
    let _ = std::fs::remove_file(&trace_path);

    // Unreadable file: clean exit 1; unknown subcommand: usage with exit 2.
    let missing = repro(&["trace", "summarize", "/nonexistent/trace.jsonl"]);
    assert_eq!(missing.status.code(), Some(1));
    let unknown = repro(&["trace", "frobnicate", "x"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(stderr(&unknown).contains("usage: repro trace"));
}

/// Streaming mode honours the worker-invariance contract: the
/// `--until-confident` JSON output is byte-identical between `--workers 1`
/// and `--workers 4`.
#[test]
fn until_confident_is_byte_identical_across_worker_counts() {
    let run = |workers: &str| {
        let output = repro(&[
            "run",
            "fig7",
            "fig10",
            "--until-confident",
            "--scale",
            "quick",
            "--json",
            "--workers",
            workers,
        ]);
        assert!(output.status.success(), "stderr: {}", stderr(&output));
        stdout(&output)
    };
    let one = run("1");
    let four = run("4");
    assert_eq!(
        one, four,
        "--workers changed streaming output; parallelism must be result-neutral"
    );
}

/// Forcing an engine must never change *what* the bench suite measures —
/// only how fast it runs. `RC4_ACCEL_FORCE=portable` and the unforced auto
/// run emit the identical set of bench names (timings differ, the suite
/// does not), and the JSON `engine` field faithfully reports the force.
/// The per-engine rekey benches and the blocked dense-likelihood bench the
/// CI perf smoke relies on are pinned by name here.
#[test]
fn bench_engine_force_is_suite_neutral_and_reported() {
    let bench_json = |force: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.args(["bench", "--json"]).env("REPRO_BENCH_FAST", "1");
        if let Some(engine) = force {
            cmd.env("RC4_ACCEL_FORCE", engine);
        } else {
            cmd.env_remove("RC4_ACCEL_FORCE");
        }
        let output = cmd.output().expect("repro binary runs");
        assert!(output.status.success(), "{}", stderr(&output));
        serde_json::from_str::<serde::Value>(&stdout(&output)).expect("bench JSON parses")
    };
    let names_of = |report: &serde::Value| -> Vec<String> {
        let serde::Value::Array(benches) = report.field("benches").expect("benches array").clone()
        else {
            panic!("`benches` is not an array");
        };
        let mut names: Vec<String> = benches
            .iter()
            .map(|b| match b.field("bench") {
                Ok(serde::Value::Str(name)) => name.clone(),
                other => panic!("bench entry without name: {other:?}"),
            })
            .collect();
        names.sort();
        names
    };

    let auto = bench_json(None);
    let forced = bench_json(Some("portable"));
    assert_eq!(
        names_of(&auto),
        names_of(&forced),
        "forcing an engine changed the bench suite itself"
    );
    match forced.field("engine") {
        Ok(serde::Value::Str(engine)) => assert_eq!(engine, "portable"),
        other => panic!("forced run lacks a top-level engine field: {other:?}"),
    }
    // Auto resolves to *some* real engine name (never empty, never "auto").
    match auto.field("engine") {
        Ok(serde::Value::Str(engine)) => {
            assert!(
                !engine.is_empty() && engine != "auto",
                "engine = {engine:?}"
            )
        }
        other => panic!("auto run lacks a top-level engine field: {other:?}"),
    }

    // The CI perf smoke asserts these exact names; keep them pinned.
    let names = names_of(&auto);
    assert!(
        names.iter().any(|n| n == "rc4_batch_rekey/256x68/portable"),
        "missing per-engine rekey bench: {names:?}"
    );
    assert!(
        names
            .iter()
            .any(|n| n == "recovery_likelihood/dense_512c_65536"),
        "missing blocked dense-likelihood bench: {names:?}"
    );
}

/// `repro bench` rejects an unknown `RC4_ACCEL_FORCE` engine up front with
/// exit 2, naming the variable and listing the valid choices (no panic
/// mid-run); `--engine` is not a flag, the variable is the one override.
#[test]
fn bench_engine_flag_rejects_unknown_engines_listing_choices() {
    let env_bogus = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["bench"])
        .env("REPRO_BENCH_FAST", "1")
        .env("RC4_ACCEL_FORCE", "quantum")
        .output()
        .expect("repro binary runs");
    let err = stderr(&env_bogus);
    assert_eq!(env_bogus.status.code(), Some(2), "{err}");
    assert!(err.contains("RC4_ACCEL_FORCE"), "{err}");
    assert!(
        err.contains("choices: auto, avx512, avx2, portable"),
        "{err}"
    );

    let flag = repro(&["bench", "--engine", "portable"]);
    assert_eq!(flag.status.code(), Some(2), "{}", stderr(&flag));
    assert!(stderr(&flag).contains("unknown flag '--engine'"));
}

/// Multi-core speedup proof: `--workers 4` must keep the pool busy enough
/// that the utilization-implied speedup W*busy/(busy+idle) clears 1.7x.
/// The busy/idle split comes from the `exec.worker_busy_us` /
/// `exec.worker_idle_us` counters in the `--metrics-out` snapshot. On
/// machines with fewer than 4 cores the threads time-slice one CPU and the
/// ratio says nothing about the pool, so the assertion is skipped with an
/// explicit notice.
#[test]
fn workers_four_implies_multicore_speedup_from_pool_utilization() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let metrics_path =
        std::env::temp_dir().join(format!("repro-metrics-speedup-{}.json", std::process::id()));
    let output = repro(&[
        "run",
        "fig7",
        "--scale",
        "quick",
        "--workers",
        "4",
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = std::fs::read_to_string(&metrics_path).expect("metrics snapshot written");
    let _ = std::fs::remove_file(&metrics_path);
    let snapshot: serde::Value = serde_json::from_str(&text).expect("metrics JSON parses");
    let counter = |name: &str| -> f64 {
        match snapshot.field("counters").and_then(|c| c.field(name)) {
            Ok(serde::Value::UInt(v)) => *v as f64,
            other => panic!("counter {name} missing from snapshot: {other:?}"),
        }
    };
    let busy = counter("exec.worker_busy_us");
    let idle = counter("exec.worker_idle_us");
    assert!(busy > 0.0, "workers recorded no busy time");
    let implied_speedup = 4.0 * busy / (busy + idle);
    if nproc < 4 {
        eprintln!(
            "SKIP: multi-core speedup assertion needs >= 4 cores (have {nproc}); \
             measured utilization-implied speedup {implied_speedup:.2}x for the record"
        );
        return;
    }
    assert!(
        implied_speedup >= 1.7,
        "utilization-implied speedup {implied_speedup:.2}x < 1.7x \
         (busy {busy}us, idle {idle}us at --workers 4)"
    );
}
