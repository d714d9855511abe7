//! The bench gate's OpenMetrics check against the textfile the telemetry
//! sink really writes: the file as written passes, and a file that lost
//! its `# EOF`, holds a NaN or samples an undeclared family fails, alone
//! and inside a gated run.

use rhrsc_bench::drill::Scratch;
use rhrsc_bench::report::validate_openmetrics;
use rhrsc_bench::{compare_dirs, BenchOpts, RunReport};
use rhrsc_io::FileSinks;
use rhrsc_runtime::telemetry::{SeriesSample, TelemetrySink, SERIES_FIELDS};
use rhrsc_runtime::Registry;
use std::path::Path;

/// The textfile `FileSinks` writes for one sample.
fn textfile(dir: &Path) -> String {
    let path = dir.join("sink.prom");
    let mut sinks = FileSinks::new(Some(path.clone()), None);
    let sample = SeriesSample {
        step: 3,
        time: 0.125,
        t_ns: 4096,
        values: (0..SERIES_FIELDS.len()).map(|i| i as f64 * 0.5).collect(),
    };
    let totals = vec![7.0; SERIES_FIELDS.len()];
    sinks.on_sample(&sample, &[], &totals, 0);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    text
}

/// Gate a run holding one report and `prom` as `f4_strong_scaling.prom`
/// against a baseline of that report; returns the failed checks as
/// `file key`.
fn gate(dir: &Path, prom: &str) -> Vec<String> {
    let (base, cur) = (dir.join("base"), dir.join("cur"));
    let reg = Registry::new();
    reg.histogram("phase.rhs").record(1_000);
    let mut report = RunReport::new("f4", &BenchOpts::default());
    report.wall_time(1.0);
    for d in [&base, &cur] {
        report.write_to(d, &reg.snapshot());
    }
    std::fs::write(cur.join("f4_strong_scaling.prom"), prom).unwrap();
    let run = compare_dirs(&base, &cur).unwrap();
    run.findings
        .iter()
        .filter(|f| !f.pass)
        .map(|f| format!("{} {}", f.file, f.key))
        .collect()
}

/// Check `text` alone and inside a gated run: both verdicts must agree,
/// and a failure names the textfile's schema.
fn verdict(dir: &Path, text: &str) -> Result<(), String> {
    let alone = validate_openmetrics(text);
    let gated = gate(dir, text);
    let want: &[&str] = if alone.is_ok() {
        &[]
    } else {
        &["f4_strong_scaling.prom schema"]
    };
    assert_eq!(gated, want, "{alone:?}");
    alone
}

#[test]
fn the_sinks_textfile_passes() {
    let tmp = Scratch::new("openmetrics_test");
    let text = textfile(tmp.path());
    assert_eq!(verdict(tmp.path(), &text), Ok(()));
}

#[test]
fn a_textfile_without_its_eof_fails() {
    let tmp = Scratch::new("openmetrics_test");
    let text = textfile(tmp.path()).replace("# EOF\n", "");
    let err = verdict(tmp.path(), &text).unwrap_err();
    assert!(err.contains("# EOF"), "{err}");
}

#[test]
fn a_nan_value_fails() {
    let tmp = Scratch::new("openmetrics_test");
    let text = textfile(tmp.path()).replace(
        "rhrsc_zone_updates_total 7\n",
        "rhrsc_zone_updates_total NaN\n",
    );
    let err = verdict(tmp.path(), &text).unwrap_err();
    assert!(err.contains("rhrsc_zone_updates_total"), "{err}");
}

#[test]
fn a_sample_of_an_undeclared_family_fails() {
    let tmp = Scratch::new("openmetrics_test");
    let text = textfile(tmp.path()).replace("# EOF\n", "rhrsc_undeclared 1\n# EOF\n");
    let err = verdict(tmp.path(), &text).unwrap_err();
    assert!(err.contains("rhrsc_undeclared"), "{err}");
}
