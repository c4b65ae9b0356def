//! Plain-text tables for the experiment binaries, the rendered
//! [`Report`] (text plus side files) and the saver that writes it.
//!
//! CSV rendering delegates to the schema-checked
//! [`crate::telemetry::CsvWriter`], so every CSV the workspace emits shares one
//! escaping implementation.

use std::path::{Path, PathBuf};

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    ///
    /// # Panics
    /// Panics on width mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i].saturating_sub(c.len());
                // Right-align numeric-looking cells, left-align labels.
                let numeric = c
                    .chars()
                    .next()
                    .is_some_and(|ch| ch.is_ascii_digit() || ch == '-' || ch == 'X');
                if numeric && i > 0 {
                    for _ in 0..pad {
                        out.push(' ');
                    }
                    out.push_str(c);
                } else {
                    out.push_str(c);
                    if i + 1 < cols {
                        for _ in 0..pad {
                            out.push(' ');
                        }
                    }
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        for _ in 0..total {
            out.push('-');
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Format an optional speedup: "1.56" or "X" (crashed / not completed).
#[must_use]
pub fn fmt_speedup(s: Option<f64>) -> String {
    match s {
        Some(v) => format!("{v:.2}"),
        None => "X".to_string(),
    }
}

/// Shared ring-drop warning section: the telemetry loss banner followed
/// by a newline, or the empty string for a lossless trace. Every report
/// renderer (timeline, chaos, audit) goes through this one helper so a
/// truncated artifact is flagged identically everywhere.
#[must_use]
pub fn loss_section(t: &crate::telemetry::RunTelemetry) -> String {
    crate::telemetry::export::loss_banner(t).map_or_else(String::new, |b| format!("{b}\n"))
}

/// Directory the binaries save their reports under.
pub const RESULTS_DIR: &str = "results";

/// A rendered report: its text and the side files it exports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The report text, printed and saved as `<name>.txt`.
    pub text: String,
    /// Side files as `(file name, contents)`, saved beside the text.
    pub files: Vec<(String, String)>,
}

impl From<String> for Report {
    fn from(text: String) -> Self {
        Report {
            text,
            files: Vec::new(),
        }
    }
}

/// Write `content` as `dir/<name>`, creating `dir` if needed. Written
/// via tmp-file + atomic rename so a killed binary leaves either the
/// previous artifact or the new one — never a torn half-file a CI diff
/// would misread.
///
/// # Errors
/// Propagates the I/O error.
pub fn save(dir: &Path, name: &str, content: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    crate::telemetry::export::write_atomic(&path, content)?;
    Ok(path)
}

/// Save `report` under `dir`: its text as `<name>.txt`, then every side
/// file. Each file logs one `[name]` line to stderr. Returns how many
/// files failed to save.
#[must_use]
pub fn save_report(dir: &Path, name: &str, report: &Report) -> usize {
    let text = (format!("{name}.txt"), report.text.clone());
    let mut failed = 0;
    for (file, content) in std::iter::once(&text).chain(&report.files) {
        match save(dir, file, content) {
            Ok(path) => eprintln!("[{name}] saved to {}", path.display()),
            Err(e) => {
                eprintln!("[{name}] ERROR: saving {file} failed: {e}");
                failed += 1;
            }
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["app", "speedup"]);
        t.row(vec!["SRD".into(), "1.50".into()]);
        t.row(vec!["HSD".into(), "10.97".into()]);
        let s = t.render();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].ends_with("10.97"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(Some(1.564)), "1.56");
        assert_eq!(fmt_speedup(None), "X");
    }

    #[test]
    fn save_failures_are_counted() {
        let dir = std::env::temp_dir().join(format!("cppe-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plain-file");
        std::fs::write(&file, "").unwrap();
        let text = Report::from("report\n".to_string());
        // A directory below a regular file cannot be created.
        assert_eq!(save_report(&file.join("results"), "fig", &text), 1);
        let with_side = Report {
            files: vec![("fig.json".into(), "{}".into())],
            ..text.clone()
        };
        assert_eq!(save_report(&file.join("results"), "fig", &with_side), 2);
        let ok = dir.join("results");
        assert_eq!(save_report(&ok, "fig", &with_side), 0);
        assert_eq!(
            std::fs::read_to_string(ok.join("fig.txt")).unwrap(),
            "report\n"
        );
        assert_eq!(std::fs::read_to_string(ok.join("fig.json")).unwrap(), "{}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loss_section_empty_for_lossless_and_flags_drops() {
        let clean = crate::telemetry::RunTelemetry::default();
        assert_eq!(loss_section(&clean), "");
        let lossy = crate::telemetry::RunTelemetry {
            dropped_events: 3,
            ..crate::telemetry::RunTelemetry::default()
        };
        let s = loss_section(&lossy);
        assert!(s.starts_with("WARNING"));
        assert!(s.ends_with('\n'));
    }
}
