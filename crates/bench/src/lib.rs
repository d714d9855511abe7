//! Benchmark-harness utilities: aligned table printing and CSV output.
//!
//! Every reconstructed table/figure (see DESIGN.md) has a regeneration
//! binary under `src/bin/`; they print the rows the evaluation reports and
//! mirror them to `results/<id>.csv` for plotting.

use std::io::Write;
use std::path::{Path, PathBuf};

pub mod accuracy;
pub mod compare;
pub mod drill;
pub mod json;
pub mod report;

pub use compare::{compare_dirs, CompareRun};
pub use json::Json;
pub use report::{print_phase_table, validate_report, validate_trace, BenchOpts, RunReport};

/// The `results/` directory at the workspace root (created on demand).
///
/// `RHRSC_RESULTS_DIR` overrides the location outright (CI redirects
/// reports this way). Otherwise walk up from the current dir to the
/// Cargo workspace root; if none is found, fall back to the current
/// directory *with a warning* — a silent fallback used to scatter
/// CSV/JSON output into arbitrary cwds.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("RHRSC_RESULTS_DIR") {
        let out = PathBuf::from(dir);
        ensure_dir(&out);
        return out;
    }
    let mut dir = std::env::current_dir().expect("no cwd");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            break;
        }
        if !dir.pop() {
            dir = std::env::current_dir().unwrap();
            eprintln!(
                "warning: no Cargo workspace root above {}; writing results to {}",
                dir.display(),
                dir.join("results").display()
            );
            break;
        }
    }
    let out = dir.join("results");
    ensure_dir(&out);
    out
}

/// Best-effort directory creation: warn and continue on failure instead
/// of panicking, so a bench on a read-only filesystem still runs to
/// completion — the writers then skip their output with their own
/// warning.
fn ensure_dir(dir: &Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
    }
}

/// A simple experiment table: prints aligned to stdout and saves as CSV.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column-count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Print the table aligned to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.headers);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }

    /// Save as `results/<name>.csv`.
    pub fn save_csv(&self, name: &str) {
        self.save_csv_to(&results_dir(), name);
    }

    /// Save as `<dir>/<name>.csv`. Creates missing parent directories;
    /// on an unwritable destination it warns and skips rather than
    /// panicking (the table was already printed to stdout).
    pub fn save_csv_to(&self, dir: &Path, name: &str) {
        let path = dir.join(format!("{name}.csv"));
        ensure_dir(dir);
        let file = match std::fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}; skipping", path.display());
                return;
            }
        };
        let mut f = std::io::BufWriter::new(file);
        let mut ok = writeln!(f, "{}", self.headers.join(",")).is_ok();
        for row in &self.rows {
            ok &= writeln!(f, "{}", row.join(",")).is_ok();
        }
        if ok {
            println!("  -> wrote {}", path.display());
        } else {
            eprintln!(
                "warning: short write to {}; csv may be incomplete",
                path.display()
            );
        }
    }
}

/// Format a float in short scientific notation.
pub fn sci(x: f64) -> String {
    format!("{x:.3e}")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(&["only-one".into()]);
        }))
        .is_err());
    }

    #[test]
    fn results_dir_exists() {
        assert!(results_dir().is_dir());
    }

    #[test]
    fn formatting() {
        assert_eq!(sci(0.00123), "1.230e-3");
        assert_eq!(f3(1.23456), "1.235");
    }
}
