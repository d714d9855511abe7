//! The one gate on a run's reports: schema-check every `BENCH_*.json`,
//! `TRACE_*.json` and `TELEMETRY_*.jsonl` of a run, and judge each report
//! against its committed baseline (see [`rhrsc_bench::compare`]).
//!
//! ```text
//! bench_compare <baseline_dir> [current_dir]
//! ```
//!
//! `current_dir` defaults to the `results/` directory (honouring
//! `RHRSC_RESULTS_DIR`, so CI points it at the fresh toy-run output).
//! Exits 0 when every check passes, 1 on any regression (a malformed
//! file, a report or baseline without its pair, a differing config, or a
//! key off its baseline), 2 on usage or I/O errors.

use rhrsc_bench::{compare_dirs, results_dir};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(baseline_dir) = args.next().map(PathBuf::from) else {
        eprintln!("usage: bench_compare <baseline_dir> [current_dir]");
        return ExitCode::from(2);
    };
    let current_dir = args.next().map(PathBuf::from).unwrap_or_else(results_dir);

    println!(
        "# Bench gate: {} vs baseline {}",
        current_dir.display(),
        baseline_dir.display()
    );
    let run = match compare_dirs(&baseline_dir, &current_dir) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    run.print();
    let regressions = run.regressions();
    if regressions > 0 {
        eprintln!("FAIL: {regressions} check(s) failed");
        ExitCode::from(1)
    } else {
        println!("OK: {} check(s) passed", run.findings.len());
        ExitCode::SUCCESS
    }
}
