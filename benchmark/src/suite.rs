//! The one-command front door: every workload untraced, then traced,
//! each in a child process of its own (clean `VmHWM`, clean allocation
//! counts, one workload's threads at a time), and the A/A check on top.

use crate::result::RunResult;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::OUT_DIR;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// The results of one pass over the suite, one pair per workload.
struct SuiteRun {
    /// `(workload, untraced result, traced result)`.
    rows: Vec<(&'static str, RunResult, RunResult)>,
}

impl SuiteRun {
    fn ok(&self) -> bool {
        self.rows.iter().all(|(_, a, b)| a.correct && b.correct)
    }
}

/// Run one workload in a child process; its notes pass through on stderr,
/// its result is the last line of its stdout.
fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed no result")?;
    RunResult::parse(last)
}

fn run_once(seed: u64, seconds: u64) -> Result<SuiteRun, String> {
    let mut rows = Vec::new();
    for (name, _) in WORKLOADS {
        eprintln!("## {name}: untraced");
        let plain = run_child(name, seed, seconds, false)?;
        eprintln!("## {name}: traced");
        let traced = run_child(name, seed, seconds, true)?;
        rows.push((name, plain, traced));
    }
    Ok(SuiteRun { rows })
}

/// Every metric of every workload by name, with its unit.
fn print_report(run: &SuiteRun, seed: u64) {
    for (name, plain, traced) in &run.rows {
        println!(
            "\n== {name} (seed {seed}): ops attempted {} failed {}; traced pass attempted {} failed {}",
            plain.attempted, plain.failed, traced.attempted, traced.failed
        );
        for r in [plain, traced] {
            for (metric, value) in &r.metrics.0 {
                let unit = crate::spec::unit_of(metric).unwrap_or("?");
                println!("{metric:<46} {value:>18.9e} {unit}");
            }
        }
    }
}

/// `{"seed": n, "workloads": {"<name>": {"untraced": <result>, "traced": <result>}}}`.
fn results_json(run: &SuiteRun, seed: u64) -> String {
    let mut s = format!("{{\"seed\": {seed}, \"workloads\": {{\n");
    for (i, (name, plain, traced)) in run.rows.iter().enumerate() {
        let sep = if i + 1 == run.rows.len() { "" } else { "," };
        writeln!(
            s,
            "\"{name}\": {{\"untraced\": {}, \"traced\": {}}}{sep}",
            plain.to_json(),
            traced.to_json()
        )
        .expect("writing to a string");
    }
    s.push_str("}}\n");
    s
}

fn write_results(run: &SuiteRun, seed: u64, file: &str) {
    let path = std::path::Path::new(OUT_DIR).join(file);
    std::fs::create_dir_all(OUT_DIR).expect("cannot create the output directory");
    std::fs::write(&path, results_json(run, seed)).expect("cannot write the results");
    println!("\nwrote {}", path.display());
}

/// The whole suite once; non-zero exit on any failed check.
pub fn run_suite(seed: u64, seconds: u64) -> ExitCode {
    match run_once(seed, seconds) {
        Ok(run) => {
            print_report(&run, seed);
            write_results(&run, seed, "results.json");
            if run.ok() {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: a workload failed its checks");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Relative differences between two runs of the same code: one row per
/// workload and end-to-end metric, `(workload, metric, worsening, bound)`.
fn aa_rows(a: &SuiteRun, b: &SuiteRun) -> Vec<(&'static str, &'static str, f64, f64)> {
    let mut rows = Vec::new();
    for ((name, first, _), (_, second, _)) in a.rows.iter().zip(&b.rows) {
        for m in &END_TO_END {
            let (x, y) = (first.metrics.get(m.name), second.metrics.get(m.name));
            let diff = match (x, y) {
                (Some(x), Some(y)) => m.better.worsening(x, y),
                _ => f64::INFINITY,
            };
            rows.push((*name, m.name, diff, m.bound));
        }
    }
    rows
}

/// The suite twice on the same build; fails unless every end-to-end
/// metric of every workload agrees within its bound, either way round.
pub fn run_aa(seed: u64, seconds: u64) -> ExitCode {
    let (a, b) = match (run_once(seed, seconds), run_once(seed, seconds)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    write_results(&a, seed, "results_aa1.json");
    write_results(&b, seed, "results_aa2.json");
    println!(
        "\n{:<16} {:<24} {:>10} {:>8}",
        "workload", "metric", "rel.diff", "bound"
    );
    let mut ok = a.ok() && b.ok();
    for (workload, metric, diff, bound) in aa_rows(&a, &b) {
        let within = diff.abs() <= bound;
        ok &= within;
        let flag = if within {
            ""
        } else {
            "  <-- outside the bound"
        };
        println!("{workload:<16} {metric:<24} {diff:>+10.4} {bound:>8.2}{flag}");
    }
    if ok {
        println!("\nA/A: every end-to-end metric agrees within its bound");
        ExitCode::SUCCESS
    } else {
        eprintln!("error: A/A check failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Metrics;

    fn run_with(time: f64, rate: f64) -> SuiteRun {
        let mut m = Metrics::default();
        for e in &END_TO_END {
            m.set(e.name, 1.0);
        }
        m.set("time_to_solution_s", time);
        m.set("zone_updates_per_s", rate);
        let r = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: m,
        };
        SuiteRun {
            rows: vec![("patch2d_blast", r.clone(), r)],
        }
    }

    #[test]
    fn aa_rows_sign_follows_the_better_direction() {
        let rows = aa_rows(&run_with(1.0, 100.0), &run_with(1.05, 90.0));
        let diff = |metric: &str| rows.iter().find(|r| r.1 == metric).unwrap().2;
        assert!((diff("time_to_solution_s") - 0.05).abs() < 1e-12);
        assert!((diff("zone_updates_per_s") - 0.10).abs() < 1e-12);
        assert_eq!(diff("setup_s"), 0.0);
        assert_eq!(rows.len(), END_TO_END.len());
    }

    #[test]
    fn results_file_holds_both_passes_of_each_workload() {
        let text = results_json(&run_with(1.0, 2.0), 7);
        assert!(text.starts_with("{\"seed\": 7, \"workloads\": {"));
        assert!(text.contains("\"patch2d_blast\": {\"untraced\": {\"correct\": true"));
        assert!(text.contains("\"traced\": {\"correct\": true"));
    }
}
