//! The bench-regression sentinel: diff current `BENCH_<id>.json` run
//! reports against committed baselines with per-metric tolerances.
//!
//! The sentinel compares only reports whose `config` objects match
//! bit-for-bit — a baseline recorded at the full preset says nothing
//! about a `--toy` run, so mismatched configs are *skipped with a note*
//! rather than judged. For matching configs, each [`RULES`] entry
//! extracts one metric from both reports and applies a direction-aware
//! relative tolerance:
//!
//! * [`Direction::Exact`] — deterministic quantities (`zone_updates`)
//!   must agree to rounding noise; any drift means the run did
//!   different work than the baseline.
//! * [`Direction::LowerIsWorse`] — throughput may regress at most
//!   `tolerance` relative (generous, CI machines vary); improvements
//!   always pass.
//! * [`Direction::HigherIsWorse`] — correctness counters (undetected
//!   SDC) may not rise at all at `tolerance = 0`.
//!
//! A baseline report with no matching current report is itself a
//! regression: a bench silently dropping out of the suite must fail CI
//! loudly, not rot.

use crate::json::Json;
use crate::Table;
use std::path::Path;

/// How a metric's deviation from baseline is judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Must match to relative rounding noise (deterministic metric).
    Exact,
    /// Dropping below `baseline × (1 − tol)` is a regression.
    LowerIsWorse,
    /// Rising above `baseline × (1 + tol)` is a regression.
    HigherIsWorse,
}

/// One sentinel rule: a metric path plus its judgement.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Metric path: a top-level numeric key, or `counters.<name>`.
    pub metric: &'static str,
    /// Judgement direction.
    pub direction: Direction,
    /// Relative tolerance (ignored for `Exact`, which uses 1e-9).
    pub tolerance: f64,
}

/// The per-metric tolerance table. Rules whose metric is absent from
/// the *baseline* are skipped (not every bench reports every metric);
/// a metric present in the baseline but missing from the current
/// report fails.
const RULES: &[Rule] = &[
    // Zone-update counts are fully deterministic for a fixed config —
    // any change means the run did different work.
    Rule {
        metric: "zone_updates",
        direction: Direction::Exact,
        tolerance: 1e-9,
    },
    // Throughput gate: generous, CI machines vary widely, but a 2×
    // slowdown is a real regression on any machine.
    Rule {
        metric: "zone_updates_per_sec",
        direction: Direction::LowerIsWorse,
        tolerance: 0.5,
    },
    // Undetected silent data corruption must never rise above the
    // baseline (which commits it at zero).
    Rule {
        metric: "counters.sdc.undetected",
        direction: Direction::HigherIsWorse,
        tolerance: 0.0,
    },
];

/// The verdict for one (report, metric) pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance.
    Pass,
    /// Outside tolerance — regression.
    Fail,
    /// Metric present in baseline but absent in current — regression.
    MissingMetric,
}

/// One row of the sentinel's output.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Report id (e.g. `f4_strong_scaling`).
    pub id: String,
    /// Metric path.
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (0 when missing).
    pub current: f64,
    /// The verdict.
    pub verdict: Verdict,
}

impl Outcome {
    /// Whether this row is a regression.
    fn is_regression(&self) -> bool {
        self.verdict != Verdict::Pass
    }
}

/// Look up a metric path in a report: a top-level numeric key, or
/// `counters.<name>` (counter names themselves contain dots, so only
/// the first segment selects the table).
fn metric_value(doc: &Json, path: &str) -> Option<f64> {
    match path.split_once('.') {
        Some(("counters", name)) => doc.get("counters")?.get(name)?.as_f64(),
        _ => doc.get(path)?.as_f64(),
    }
}

fn judge(rule: &Rule, baseline: f64, current: f64) -> Verdict {
    let pass = match rule.direction {
        Direction::Exact => (current - baseline).abs() <= 1e-9 * baseline.abs().max(1.0),
        Direction::LowerIsWorse => current >= baseline * (1.0 - rule.tolerance),
        Direction::HigherIsWorse => current <= baseline * (1.0 + rule.tolerance),
    };
    if pass {
        Verdict::Pass
    } else {
        Verdict::Fail
    }
}

/// Compare one baseline report against its current counterpart.
/// Returns `None` (skip) when the `config` objects differ — the runs
/// are not comparable. `current = None` means the bench is missing
/// from the current results entirely; every baseline rule then fails.
pub fn compare_docs(baseline: &Json, current: Option<&Json>) -> Option<Vec<Outcome>> {
    let id = baseline
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    if let Some(cur) = current {
        if baseline.get("config") != cur.get("config") {
            return None;
        }
    }
    let mut out = Vec::new();
    for rule in RULES {
        let Some(base) = metric_value(baseline, rule.metric) else {
            continue; // baseline doesn't track this metric
        };
        let (current_v, verdict) = match current.and_then(|c| metric_value(c, rule.metric)) {
            Some(cur) => (cur, judge(rule, base, cur)),
            None => (0.0, Verdict::MissingMetric),
        };
        out.push(Outcome {
            id: id.clone(),
            metric: rule.metric,
            baseline: base,
            current: current_v,
            verdict,
        });
    }
    Some(out)
}

/// The result of a directory-level comparison run.
#[derive(Debug, Default)]
pub struct CompareRun {
    /// Per-metric outcomes across all compared reports.
    pub outcomes: Vec<Outcome>,
    /// Reports skipped because their configs differ (id, note).
    pub skipped: Vec<String>,
    /// Parse/read errors encountered (best-effort: one bad file does
    /// not hide regressions in the others).
    pub errors: Vec<String>,
}

impl CompareRun {
    /// Total regressions (failed or missing metrics).
    pub fn regressions(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_regression()).count()
    }

    /// Print the regression table and skip notes.
    pub fn print(&self) {
        let mut t = Table::new(&["report", "metric", "baseline", "current", "verdict"]);
        for o in &self.outcomes {
            t.row(&[
                o.id.clone(),
                o.metric.to_string(),
                format!("{:.6}", o.baseline),
                format!("{:.6}", o.current),
                match o.verdict {
                    Verdict::Pass => "ok".to_string(),
                    Verdict::Fail => "REGRESSION".to_string(),
                    Verdict::MissingMetric => "MISSING".to_string(),
                },
            ]);
        }
        t.print();
        for s in &self.skipped {
            println!("  skipped (config mismatch): {s}");
        }
        for e in &self.errors {
            eprintln!("  error: {e}");
        }
    }
}

fn read_report(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Compare every `BENCH_*.json` under `baseline_dir` against the
/// same-named report under `current_dir`.
pub fn compare_dirs(baseline_dir: &Path, current_dir: &Path) -> CompareRun {
    let mut run = CompareRun::default();
    let entries = match std::fs::read_dir(baseline_dir) {
        Ok(e) => e,
        Err(e) => {
            run.errors
                .push(format!("cannot read {}: {e}", baseline_dir.display()));
            return run;
        }
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    for name in names {
        let baseline = match read_report(&baseline_dir.join(&name)) {
            Ok(doc) => doc,
            Err(e) => {
                run.errors.push(e);
                continue;
            }
        };
        let current_path = current_dir.join(&name);
        let current = if current_path.exists() {
            match read_report(&current_path) {
                Ok(doc) => Some(doc),
                Err(e) => {
                    run.errors.push(e);
                    continue;
                }
            }
        } else {
            None
        };
        match compare_docs(&baseline, current.as_ref()) {
            Some(outcomes) => run.outcomes.extend(outcomes),
            None => run.skipped.push(name),
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn report(id: &str, zu: f64, rate: f64, sdc: f64, preset: &str) -> Json {
        obj(vec![
            ("id", Json::Str(id.to_string())),
            (
                "config",
                obj(vec![("preset", Json::Str(preset.to_string()))]),
            ),
            ("zone_updates", Json::Num(zu)),
            ("zone_updates_per_sec", Json::Num(rate)),
            (
                "counters",
                Json::Obj(vec![("sdc.undetected".to_string(), Json::Num(sdc))]),
            ),
        ])
    }

    #[test]
    fn unchanged_report_passes() {
        let base = report("f4", 6553600.0, 4.0e6, 0.0, "toy");
        let outcomes = compare_docs(&base, Some(&base.clone())).unwrap();
        assert_eq!(outcomes.len(), RULES.len());
        assert!(outcomes.iter().all(|o| o.verdict == Verdict::Pass));
    }

    #[test]
    fn degraded_metrics_fail_per_direction() {
        let base = report("f4", 6553600.0, 4.0e6, 0.0, "toy");
        // Throughput halved-and-then-some → fails the 0.5 gate.
        let slow = report("f4", 6553600.0, 1.9e6, 0.0, "toy");
        let o = compare_docs(&base, Some(&slow)).unwrap();
        assert!(o
            .iter()
            .any(|o| o.metric == "zone_updates_per_sec" && o.verdict == Verdict::Fail));
        // A faster run passes.
        let fast = report("f4", 6553600.0, 9.0e6, 0.0, "toy");
        let o = compare_docs(&base, Some(&fast)).unwrap();
        assert!(o.iter().all(|o| o.verdict == Verdict::Pass));
        // Different work done → exact metric fails.
        let drift = report("f4", 6553601.0, 4.0e6, 0.0, "toy");
        let o = compare_docs(&base, Some(&drift)).unwrap();
        assert!(o
            .iter()
            .any(|o| o.metric == "zone_updates" && o.verdict == Verdict::Fail));
        // Any undetected SDC → fails at zero tolerance.
        let sdc = report("f4", 6553600.0, 4.0e6, 1.0, "toy");
        let o = compare_docs(&base, Some(&sdc)).unwrap();
        assert!(o
            .iter()
            .any(|o| o.metric == "counters.sdc.undetected" && o.verdict == Verdict::Fail));
    }

    #[test]
    fn config_mismatch_skips_not_judges() {
        let base = report("f4", 6553600.0, 4.0e6, 0.0, "full");
        let toy = report("f4", 102400.0, 1.0e6, 0.0, "toy");
        assert!(compare_docs(&base, Some(&toy)).is_none());
    }

    #[test]
    fn missing_current_report_is_a_regression() {
        let base = report("f4", 6553600.0, 4.0e6, 0.0, "toy");
        let o = compare_docs(&base, None).unwrap();
        assert!(!o.is_empty());
        assert!(o.iter().all(|o| o.verdict == Verdict::MissingMetric));
        assert!(o.iter().all(Outcome::is_regression));
    }

    #[test]
    fn compare_dirs_end_to_end() {
        let tmp = crate::drill::Scratch::new("compare_test");
        let basedir = tmp.path().join("baseline");
        let curdir = tmp.path().join("current");
        std::fs::create_dir_all(&basedir).unwrap();
        std::fs::create_dir_all(&curdir).unwrap();
        let base = report("f4", 100.0, 4.0e6, 0.0, "toy");
        std::fs::write(basedir.join("BENCH_f4.json"), base.pretty()).unwrap();
        std::fs::write(
            curdir.join("BENCH_f4.json"),
            report("f4", 100.0, 3.9e6, 0.0, "toy").pretty(),
        )
        .unwrap();
        let run = compare_dirs(&basedir, &curdir);
        assert_eq!(run.regressions(), 0);
        run.print();

        // Remove the current report: every rule becomes a regression.
        std::fs::remove_file(curdir.join("BENCH_f4.json")).unwrap();
        let run = compare_dirs(&basedir, &curdir);
        assert!(run.regressions() > 0);
    }
}
