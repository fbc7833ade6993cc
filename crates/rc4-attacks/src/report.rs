//! Experiment report structures and plain-text rendering.
//!
//! Every experiment produces an [`ExperimentReport`]: an identifier matching
//! the paper's table/figure number, a set of named columns and one row per
//! measured configuration (curve point, table row, ...). The `repro` binary
//! renders reports as aligned text tables and can serialize them to JSON so
//! `EXPERIMENTS.md` numbers are regenerable.

use serde::{Deserialize, Serialize};

/// One row of an experiment report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportRow {
    /// Cell values, one per column.
    pub cells: Vec<String>,
}

impl ReportRow {
    /// Builds a row from anything displayable.
    pub fn new<S: ToString>(cells: &[S]) -> Self {
        Self {
            cells: cells.iter().map(|c| c.to_string()).collect(),
        }
    }
}

/// A rendered experiment result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Identifier matching the paper, e.g. `"fig7"` or `"table1"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Free-form notes (scale used, substitutions, paper-reported values).
    pub notes: Vec<String>,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<ReportRow>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            notes: Vec::new(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells does not match the number of columns.
    pub fn push_row<S: ToString>(&mut self, cells: &[S]) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "report row width must match the column count"
        );
        self.rows.push(ReportRow::new(cells));
    }

    /// Renders the report as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.cells.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for note in &self.notes {
            out.push_str(&format!("   note: {note}\n"));
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        out.push_str(&format!("   {}\n", header.join("  ")));
        let underline: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("   {}\n", underline.join("  ")));
        for row in &self.rows {
            let cells: Vec<String> = row
                .cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            out.push_str(&format!("   {}\n", cells.join("  ")));
        }
        out
    }
}

/// The JSON result document of a run: the reports as one pretty-printed
/// array plus a trailing newline. `repro run --json` prints it and the job
/// server stores it, so a served result is byte for byte the one-shot output.
pub fn json_document(reports: &[ExperimentReport]) -> String {
    let array = ExperimentReport::slice_to_value(reports);
    let json = serde_json::to_string_pretty(&array).expect("report serialization cannot fail");
    format!("{json}\n")
}

/// Formats a probability as `2^x` with four decimals, the notation the paper uses.
pub fn format_pow2(p: f64) -> String {
    if p <= 0.0 {
        return "0".to_string();
    }
    format!("2^{:.4}", p.log2())
}

/// Formats a success rate as a percentage.
pub fn format_percent(rate: f64) -> String {
    format!("{:.1}%", rate * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rendering_aligns_columns() {
        let mut r = ExperimentReport::new("fig7", "Recovery rate", &["ciphertexts", "rate"]);
        r.note("sampled mode");
        r.push_row(&["2^27", "12.5%"]);
        r.push_row(&["2^31", "100.0%"]);
        let text = r.render();
        assert!(text.contains("fig7"));
        assert!(text.contains("note: sampled mode"));
        assert!(text.contains("2^27"));
        assert!(text.contains("100.0%"));
        // JSON roundtrip through the result document.
        let json = json_document(std::slice::from_ref(&r));
        assert!(json.starts_with('[') && json.ends_with("]\n"));
        let back: Vec<ExperimentReport> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, vec![r]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut r = ExperimentReport::new("x", "y", &["a", "b"]);
        r.push_row(&["only one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(format_pow2(1.0 / 65536.0), "2^-16.0000");
        assert_eq!(format_pow2(0.0), "0");
        assert_eq!(format_percent(0.944), "94.4%");
    }
}
