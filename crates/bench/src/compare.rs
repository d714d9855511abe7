//! The one gate on a run's reports: every file the run wrote goes
//! through its schema check, and every `BENCH_<id>.json` is judged
//! against the committed baseline of the same name.
//!
//! * **Schema.** Every `BENCH_*.json` passes [`validate_report`], every
//!   `TRACE_*.json` [`validate_trace`], every `TELEMETRY_*.jsonl`
//!   [`validate_telemetry_stream`] and every `*.prom` OpenMetrics
//!   textfile [`validate_openmetrics`]; a file that fails is a
//!   regression.
//! * **Pairing.** A report without a baseline and a baseline without a
//!   report are regressions, and so is a `config` that differs from the
//!   baseline's: a run of other work says nothing about this one.
//! * **Exact keys.** `zone_updates`, `parallelism` and every counter of
//!   either report must agree to rounding noise (a counter the baseline
//!   lacks is judged against zero), and every `values[].name` of the
//!   baseline must be present. Counters tally deterministic events for a
//!   fixed config (the fault drills' too, since every universe runs on
//!   virtual time), so one that moved means the run took another path.
//! * **The floor.** `zone_updates_per_sec` may not fall below
//!   [`RATE_FLOOR`] × the baseline's.
//! * **Artifacts.** A report whose `config` names a `trace` or
//!   `telemetry` file (a run given `--trace-out` / `--telemetry-out`)
//!   needs that file beside it, under a name the schema check picks up.
//!
//! A key is judged only where the baseline holds it, so what a baseline
//! holds is the rule: the committed baselines hold `sdc.undetected` and
//! `serve.isolation.breach` at zero, the fault drills' recovery counters
//! positive, and a rate only for the scaling benches (f4 / f5), whose
//! runs are long enough to time.

use crate::json::Json;
use crate::report::{
    validate_openmetrics, validate_report, validate_telemetry_stream, validate_trace,
};
use crate::Table;
use std::collections::BTreeSet;
use std::path::Path;

/// The fraction of its baseline rate a run's `zone_updates_per_sec` must
/// reach: generous, machines vary widely, but a 2× slowdown is a real
/// regression on any of them.
const RATE_FLOOR: f64 = 0.5;

/// Keys judged exactly where the baseline holds them.
const EXACT_KEYS: &[&str] = &["zone_updates", "parallelism"];

/// A kind of artifact file a run writes beside its report: the `config`
/// key that names it (if a report does), the prefix and extension of its
/// file name, and the schema check it must pass.
struct Artifact {
    key: Option<&'static str>,
    prefix: &'static str,
    ext: &'static str,
    check: fn(&str) -> Result<(), String>,
}

const ARTIFACTS: &[Artifact] = &[
    Artifact {
        key: Some("trace"),
        prefix: "TRACE_",
        ext: ".json",
        check: |text| validate_trace(&Json::parse(text)?),
    },
    Artifact {
        key: Some("telemetry"),
        prefix: "TELEMETRY_",
        ext: ".jsonl",
        check: validate_telemetry_stream,
    },
    Artifact {
        key: None,
        prefix: "",
        ext: ".prom",
        check: validate_openmetrics,
    },
];

/// One check of the gate.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The file judged, e.g. `BENCH_f4_strong_scaling.json`.
    pub file: String,
    /// The key judged, e.g. `counters.sdc.undetected`, or `schema`.
    pub key: String,
    /// What the baseline holds.
    pub baseline: String,
    /// What the run holds, or why it fails.
    pub current: String,
    /// Whether the run passes this check.
    pub pass: bool,
}

/// Every check of one gate run.
#[derive(Debug, Default)]
pub struct CompareRun {
    /// The checks, file by file.
    pub findings: Vec<Finding>,
}

impl CompareRun {
    fn check(
        &mut self,
        file: &str,
        key: &str,
        baseline: impl ToString,
        current: impl ToString,
        pass: bool,
    ) {
        let (file, key) = (file.to_string(), key.to_string());
        let (baseline, current) = (baseline.to_string(), current.to_string());
        self.findings.push(Finding {
            file,
            key,
            baseline,
            current,
            pass,
        });
    }

    /// A check with no baseline value: `verdict` is the schema or
    /// presence check's result.
    fn verdict(&mut self, file: &str, key: &str, verdict: Result<(), String>) {
        let pass = verdict.is_ok();
        self.check(file, key, "-", verdict.err().unwrap_or("ok".into()), pass);
    }

    /// An exact check of a number the baseline holds.
    fn exact(&mut self, file: &str, key: &str, baseline: f64, current: Option<f64>) {
        let pass = current.is_some_and(|c| (c - baseline).abs() <= 1e-9 * baseline.abs().max(1.0));
        self.check(file, key, baseline, num(current), pass);
    }

    /// The failed checks.
    pub fn regressions(&self) -> usize {
        self.findings.iter().filter(|f| !f.pass).count()
    }

    /// Print one line per file that passes every check, then the table
    /// of failed checks.
    pub fn print(&self) {
        let files: BTreeSet<&str> = self.findings.iter().map(|f| f.file.as_str()).collect();
        let mut t = Table::new(&["file", "key", "baseline", "current"]);
        for file in files {
            let mine = || self.findings.iter().filter(|f| f.file == file);
            if mine().all(|f| f.pass) {
                println!("  ok  {file} ({} checks)", mine().count());
            }
            for f in mine().filter(|f| !f.pass) {
                t.row(&[
                    f.file.clone(),
                    f.key.clone(),
                    f.baseline.clone(),
                    f.current.clone(),
                ]);
            }
        }
        if self.regressions() > 0 {
            t.print();
        }
    }
}

fn num(v: Option<f64>) -> String {
    v.map_or("missing".into(), |v| v.to_string())
}

fn members(doc: &Json, key: &str) -> Vec<(String, Json)> {
    doc.get(key)
        .and_then(Json::as_obj)
        .map_or(Vec::new(), <[_]>::to_vec)
}

/// Judge report `current` (file name `file`) against its baseline: the
/// `config` first, and the keys the baseline holds only when the configs
/// agree.
fn compare_docs(run: &mut CompareRun, file: &str, baseline: &Json, current: &Json) {
    let (base_cfg, cur_cfg) = (members(baseline, "config"), members(current, "config"));
    let keys: BTreeSet<&String> = base_cfg.iter().chain(&cur_cfg).map(|(k, _)| k).collect();
    let find = |cfg: &[(String, Json)], key: &str| {
        cfg.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let show = |v: Option<Json>| v.map_or("missing".into(), |v| v.pretty().trim().to_string());
    let mut agree = true;
    for key in keys {
        let (b, c) = (find(&base_cfg, key), find(&cur_cfg, key));
        if b != c {
            agree = false;
            run.check(file, &format!("config.{key}"), show(b), show(c), false);
        }
    }
    if !agree {
        return;
    }
    run.check(file, "config", "-", "equal", true);
    for key in EXACT_KEYS {
        if let Some(b) = baseline.get(key).and_then(Json::as_f64) {
            run.exact(file, key, b, current.get(key).and_then(Json::as_f64));
        }
    }
    let key = "zone_updates_per_sec";
    if let Some(b) = baseline.get(key).and_then(Json::as_f64) {
        let c = current.get(key).and_then(Json::as_f64);
        let floor = RATE_FLOOR * b;
        let pass = c.is_some_and(|c| c >= floor);
        run.check(
            file,
            key,
            format!("{b:.0} (floor {floor:.0})"),
            num(c),
            pass,
        );
    }
    if baseline.get("counters").is_some() {
        let (base_c, cur_c) = (members(baseline, "counters"), members(current, "counters"));
        let names: BTreeSet<&String> = base_c.iter().chain(&cur_c).map(|(k, _)| k).collect();
        let value = |c: &[(String, Json)], name: &str| find(c, name).and_then(|v| v.as_f64());
        for name in names {
            // A counter the baseline lacks is judged against zero; one the
            // run lost is missing.
            let b = value(&base_c, name).unwrap_or(0.0);
            run.exact(file, &format!("counters.{name}"), b, value(&cur_c, name));
        }
    }
    let names = |doc: &Json| -> Vec<String> {
        let values = doc.get("values").and_then(Json::as_arr).unwrap_or(&[]);
        values
            .iter()
            .filter_map(|v| Some(v.get("name")?.as_str()?.to_string()))
            .collect()
    };
    let present = names(current);
    for name in names(baseline) {
        let pass = present.contains(&name);
        let current = if pass { "present" } else { "missing" };
        run.check(file, &format!("values.{name}"), "present", current, pass);
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    Json::parse(&read(path)?)
}

/// The file names in `dir` (sorted).
fn file_names(dir: &Path) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    Ok(names)
}

fn is_report(name: &str) -> bool {
    name.starts_with("BENCH_") && name.ends_with(".json")
}

fn is_artifact(kind: &Artifact, name: &str) -> bool {
    name.starts_with(kind.prefix) && name.ends_with(kind.ext)
}

/// Judge every report, flight record and telemetry stream in
/// `current_dir` against the baselines in `baseline_dir`. `Err` only
/// when a directory cannot be listed or holds no baseline.
pub fn compare_dirs(baseline_dir: &Path, current_dir: &Path) -> Result<CompareRun, String> {
    let baselines: BTreeSet<String> = file_names(baseline_dir)?
        .into_iter()
        .filter(|n| is_report(n))
        .collect();
    if baselines.is_empty() {
        return Err(format!(
            "no baseline BENCH_*.json in {}",
            baseline_dir.display()
        ));
    }
    let files = file_names(current_dir)?;
    let mut run = CompareRun::default();
    // Every flight record, telemetry stream and OpenMetrics textfile is
    // schema-checked by its file name, whether a report names it or not.
    for name in &files {
        if let Some(kind) = ARTIFACTS.iter().find(|kind| is_artifact(kind, name)) {
            let verdict = read(&current_dir.join(name)).and_then(|text| (kind.check)(&text));
            run.verdict(name, "schema", verdict);
        }
    }
    let reports: BTreeSet<String> = files.iter().filter(|n| is_report(n)).cloned().collect();
    for file in baselines.union(&reports) {
        if !reports.contains(file) {
            run.verdict(
                file,
                "report",
                Err("missing: the run wrote no such report".into()),
            );
            continue;
        }
        let current = read_json(&current_dir.join(file));
        let schema = current
            .as_ref()
            .map_err(Clone::clone)
            .and_then(validate_report);
        let malformed = schema.is_err();
        run.verdict(file, "schema", schema);
        let Ok(current) = current else { continue };
        for kind in ARTIFACTS {
            let config = current.get("config");
            let Some(key) = kind.key else { continue };
            let Some(name) = config.and_then(|c| c.get(key)).and_then(Json::as_str) else {
                continue;
            };
            let verdict = if !files.iter().any(|n| n == name) {
                Err("missing: no such file beside the report".into())
            } else if !is_artifact(kind, name) {
                Err(format!("not a {}*{} name", kind.prefix, kind.ext))
            } else {
                Ok(())
            };
            run.verdict(file, &format!("config.{key} ({name})"), verdict);
        }
        if malformed {
            continue;
        }
        if !baselines.contains(file) {
            run.verdict(
                file,
                "baseline",
                Err("missing: no committed baseline".into()),
            );
            continue;
        }
        match read_json(&baseline_dir.join(file)) {
            Ok(baseline) => compare_docs(&mut run, file, &baseline, &current),
            Err(e) => run.verdict(file, "baseline", Err(e)),
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drill::Scratch;
    use crate::report::{BenchOpts, RunReport};
    use rhrsc_runtime::metrics::Registry;

    /// A schema-valid report: 4 ranks, 6553600 zone updates at 1e6 per
    /// second, two counters, one value, and a named flight record.
    fn report() -> Json {
        let r = Registry::new();
        r.histogram("phase.rhs").record(1_000);
        r.histogram("c2p.newton_iters").record(3);
        r.counter("driver.shrinks").add(2);
        r.counter("sdc.undetected").add(0);
        let opts = BenchOpts {
            trace_out: Some("TRACE_f4.json".into()),
            ..BenchOpts::default()
        };
        let mut rep = RunReport::new("f4", &opts);
        rep.config_str("preset", "toy")
            .wall_time(6.5536)
            .parallelism(4.0)
            .zone_updates(6553600.0);
        rep.to_json(&r.snapshot())
    }

    const TRACE: &str = r#"{"traceEvents": [
        {"ph": "M", "name": "process_name", "pid": 0, "args": {"name": "rank 0"}},
        {"ph": "X", "name": "step", "pid": 0, "tid": 0, "ts": 0, "dur": 5}]}"#;

    fn telemetry_line() -> String {
        let fields: Vec<String> = rhrsc_runtime::telemetry::SERIES_FIELDS
            .iter()
            .map(|f| format!("\"{}\":1", f.name))
            .collect();
        format!(
            "{{\"type\":\"sample\",\"pid\":0,\"step\":1,\"time\":0.1,\"t_ns\":5,\"fields\":{{{}}}}}",
            fields.join(",")
        )
    }

    /// Replace (`Some`) or remove (`None`) the member at `path`.
    fn set(doc: &mut Json, path: &[&str], value: Option<Json>) {
        let Json::Obj(members) = doc else {
            panic!("not an object")
        };
        match path {
            [key] => {
                members.retain(|(k, _)| k != key);
                members.extend(value.map(|v| (key.to_string(), v)));
            }
            [key, rest @ ..] => {
                let (_, inner) = members.iter_mut().find(|(k, _)| k == key).unwrap();
                set(inner, rest, value);
            }
            [] => unreachable!(),
        }
    }

    fn edit_report(dir: &Path, edit: impl FnOnce(&mut Json)) {
        let path = dir.join("BENCH_f4.json");
        let mut doc = read_json(&path).unwrap();
        edit(&mut doc);
        std::fs::write(path, doc.pretty()).unwrap();
    }

    /// Gate a run of [`report`], its flight record and a telemetry stream
    /// against a baseline of the same report, after `edit` has changed the
    /// run's files; returns the failed checks as `file key`.
    fn failures(edit: impl FnOnce(&Path)) -> Vec<String> {
        let tmp = Scratch::new("compare_test");
        let (base, cur) = (tmp.path().join("base"), tmp.path().join("cur"));
        for dir in [&base, &cur] {
            std::fs::create_dir_all(dir).unwrap();
            std::fs::write(dir.join("BENCH_f4.json"), report().pretty()).unwrap();
        }
        std::fs::write(cur.join("TRACE_f4.json"), TRACE).unwrap();
        std::fs::write(cur.join("TELEMETRY_f4.jsonl"), telemetry_line() + "\n").unwrap();
        edit(&cur);
        let run = compare_dirs(&base, &cur).unwrap();
        run.print();
        run.findings
            .iter()
            .filter(|f| !f.pass)
            .map(|f| format!("{} {}", f.file, f.key))
            .collect()
    }

    #[test]
    fn an_unchanged_run_passes() {
        assert!(failures(|_| {}).is_empty());
    }

    #[test]
    fn malformed_files_fail_their_schema() {
        let broken = failures(|cur| std::fs::write(cur.join("BENCH_f4.json"), "{").unwrap());
        assert_eq!(broken, ["BENCH_f4.json schema"]);
        let no_phases = failures(|cur| edit_report(cur, |d| set(d, &["phases"], None)));
        assert_eq!(no_phases, ["BENCH_f4.json schema"]);
        let trace = failures(|cur| {
            std::fs::write(cur.join("TRACE_f4.json"), r#"{"traceEvents": []}"#).unwrap()
        });
        assert_eq!(trace, ["TRACE_f4.json schema"]);
        let line = telemetry_line();
        let jsonl = failures(|cur| {
            let text = format!("{line}\n{}\n", &line[..line.len() / 2]);
            std::fs::write(cur.join("TELEMETRY_f4.jsonl"), text).unwrap()
        });
        assert_eq!(jsonl, ["TELEMETRY_f4.jsonl schema"]);
    }

    #[test]
    fn every_report_needs_its_baseline_and_every_baseline_its_report() {
        let gone = failures(|cur| std::fs::remove_file(cur.join("BENCH_f4.json")).unwrap());
        assert_eq!(gone, ["BENCH_f4.json report"]);
        let extra = failures(|cur| {
            std::fs::copy(cur.join("BENCH_f4.json"), cur.join("BENCH_f5.json")).unwrap();
        });
        assert_eq!(extra, ["BENCH_f5.json baseline"]);
    }

    #[test]
    fn a_differing_config_fails_and_is_not_judged_further() {
        let full = failures(|cur| {
            edit_report(cur, |d| {
                set(d, &["config", "preset"], Some(Json::Str("full".into())));
                set(d, &["parallelism"], Some(Json::Num(1.0)));
            })
        });
        assert_eq!(full, ["BENCH_f4.json config.preset"]);
    }

    #[test]
    fn counters_are_exact() {
        let key = |name: &str, v: Option<f64>| {
            failures(|cur| edit_report(cur, |d| set(d, &["counters", name], v.map(Json::Num))))
        };
        assert_eq!(
            key("driver.shrinks", None),
            ["BENCH_f4.json counters.driver.shrinks"]
        );
        assert_eq!(
            key("driver.shrinks", Some(3.0)),
            ["BENCH_f4.json counters.driver.shrinks"]
        );
        assert_eq!(
            key("sdc.undetected", Some(1.0)),
            ["BENCH_f4.json counters.sdc.undetected"]
        );
        // A counter the baseline lacks is judged against zero.
        assert_eq!(
            key("driver.retries", Some(1.0)),
            ["BENCH_f4.json counters.driver.retries"]
        );
        assert!(key("driver.retries", Some(0.0)).is_empty());
    }

    #[test]
    fn parallelism_zone_updates_and_values_are_exact() {
        let top = |key: &str, v: f64| {
            failures(|cur| edit_report(cur, |d| set(d, &[key], Some(Json::Num(v)))))
        };
        assert_eq!(top("parallelism", 1.0), ["BENCH_f4.json parallelism"]);
        assert_eq!(top("zone_updates", 0.0), ["BENCH_f4.json zone_updates"]);
        // One update more is a run on another path, however large the count.
        assert_eq!(
            top("zone_updates", 6553601.0),
            ["BENCH_f4.json zone_updates"]
        );
        let values =
            failures(|cur| edit_report(cur, |d| set(d, &["values"], Some(Json::Arr(vec![])))));
        assert_eq!(values, ["BENCH_f4.json values.c2p.newton_iters"]);
    }

    #[test]
    fn a_named_artifact_must_exist_under_a_checked_name() {
        let gone = failures(|cur| std::fs::remove_file(cur.join("TRACE_f4.json")).unwrap());
        assert_eq!(gone, ["BENCH_f4.json config.trace (TRACE_f4.json)"]);
        let renamed = failures(|cur| {
            std::fs::write(cur.join("f4.json"), TRACE).unwrap();
            edit_report(cur, |d| {
                set(d, &["config", "trace"], Some(Json::Str("f4.json".into())))
            });
            // The baseline names it too, so only the name check can fail.
            std::fs::copy(cur.join("BENCH_f4.json"), cur.join("../base/BENCH_f4.json")).unwrap();
        });
        assert_eq!(renamed, ["BENCH_f4.json config.trace (f4.json)"]);
    }

    #[test]
    fn the_rate_floor_is_half_the_baseline() {
        let rate = |r: f64| {
            failures(|cur| {
                edit_report(cur, |d| {
                    set(d, &["zone_updates_per_sec"], Some(Json::Num(r)))
                })
            })
        };
        assert_eq!(rate(0.45e6), ["BENCH_f4.json zone_updates_per_sec"]);
        assert!(rate(0.55e6).is_empty());
        assert!(rate(9e6).is_empty());
    }

    #[test]
    fn a_directory_without_baselines_is_an_error() {
        let tmp = Scratch::new("compare_test");
        assert!(compare_dirs(tmp.path(), tmp.path()).is_err());
    }
}
