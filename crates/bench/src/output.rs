//! Table formatting and CSV output for the experiments.

use std::io::Write;
use std::path::PathBuf;

/// A rendered experiment result: a titled table with a header row.
#[derive(Debug, Clone)]
pub struct Table {
    /// Human-readable title (printed above the table).
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows (already formatted strings).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table.
    #[must_use]
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; panics if the width disagrees with the header
    /// (a malformed experiment is a bug, not a data condition).
    pub(crate) fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV under `results/<name>.csv` (relative to
    /// the workspace root or cwd) and returns the path.
    pub(crate) fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(file, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// `results/` next to the workspace root when discoverable, else cwd.
fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(root) = p.parent().and_then(|p| p.parent()) {
            return root.join("results");
        }
    }
    PathBuf::from("results")
}

/// Formats a float with three decimals (the figures' precision).
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Prints a table and writes its CSV, reporting the path.
pub fn emit(table: &Table, csv_name: &str) {
    println!("{}", table.render());
    match table.write_csv(csv_name) {
        Ok(path) => println!("[csv] {}\n", path.display()),
        Err(e) => eprintln!("[csv] write failed: {e}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.push_row(vec!["1".into(), "short".into()]);
        t.push_row(vec!["1000".into(), "x".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f3(2.0), "2.000");
    }
}
