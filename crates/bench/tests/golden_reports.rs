//! fig4, table1, table2 and longterm count exact datasets and sample
//! nothing, so their quick-scale reports are fixed: `tests/golden/` holds
//! them as `repro run fig4 table1 table2 longterm --scale quick --json`
//! printed them before these experiments learned to count only the cells
//! they read. Any difference is a bug in the counting, not noise.

use std::process::Command;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/bias_reports_quick.json"
);

#[test]
fn quick_bias_reports_match_the_golden_file_at_every_worker_count() {
    let golden = std::fs::read(GOLDEN).expect("golden file is committed");
    for workers in ["1", "2"] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["run", "fig4", "table1", "table2", "longterm"])
            .args(["--scale", "quick", "--json", "--workers", workers])
            .output()
            .expect("repro binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            output.stdout == golden,
            "--workers {workers}: the reports differ from {GOLDEN}"
        );
    }
}
