//! Committed goldens for `repro run --scale quick --json`.
//!
//! `tests/golden/quick_all.json` is the whole quick suite (`repro run all
//! --scale quick --json`). Every number in it is seeded, so any difference
//! is a change of behaviour. After a change that moves numbers on purpose,
//! re-bless it from the repository root with
//!
//! ```text
//! cargo run --release --offline -q -p bench --bin repro -- \
//!     run all --scale quick --json --workers 1 > tests/golden/quick_all.json
//! ```
//!
//! and say in the change which rows moved and why. The sampled rows pass
//! through the platform's `ln`/`exp`; the file was blessed on x86-64 with
//! glibc 2.36.
//!
//! `tests/golden/bias_reports_quick.json` holds fig4, table1, table2 and
//! longterm alone. They count exact datasets, sample nothing and call no
//! libm function, so that pin holds on any platform.

use std::process::Command;

fn golden(name: &str) -> (String, Vec<u8>) {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let bytes = std::fs::read(&path).expect("golden file is committed");
    (path, bytes)
}

fn assert_run_matches(golden_name: &str, experiments: &[&str]) {
    let (path, expected) = golden(golden_name);
    for workers in ["1", "2"] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("run")
            .args(experiments)
            .args(["--scale", "quick", "--json", "--workers", workers])
            .output()
            .expect("repro binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            output.stdout == expected,
            "--workers {workers}: the reports differ from {path}"
        );
    }
}

#[test]
fn quick_bias_reports_match_the_golden_file_at_every_worker_count() {
    assert_run_matches(
        "bias_reports_quick.json",
        &["fig4", "table1", "table2", "longterm"],
    );
}

#[test]
fn quick_suite_matches_the_golden_file_at_every_worker_count() {
    assert_run_matches("quick_all.json", &["all"]);
}
