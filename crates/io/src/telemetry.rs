//! File sinks for the runtime telemetry hub: an OpenMetrics textfile
//! (node_exporter textfile-collector compatible) atomically rewritten
//! on every sample, and a streaming JSONL sink whose records share the
//! flight recorder's trace ids (`pid` = reducing rank, `t_ns` = trace
//! clock), so a JSONL sample can be lined up against the Perfetto spans
//! of the same run.
//!
//! Both are dependency-free: the OpenMetrics exposition format is plain
//! text, and the JSONL records are hand-rendered (numbers only — no
//! escaping concerns beyond the fixed field names).

use rhrsc_runtime::telemetry::{SeriesSample, TelemetryEvent, TelemetrySink, SERIES_FIELDS};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Render a finite JSON number (JSON has no NaN/Inf; clamp to 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Render one JSONL `sample` record.
fn jsonl_sample(sample: &SeriesSample, pid: u32) -> String {
    let mut line = format!(
        "{{\"type\":\"sample\",\"pid\":{pid},\"step\":{},\"time\":{},\"t_ns\":{},\"fields\":{{",
        sample.step,
        num(sample.time),
        sample.t_ns
    );
    for (i, f) in SERIES_FIELDS.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let v = sample.values.get(i).copied().unwrap_or(0.0);
        line.push_str(&format!("\"{}\":{}", f.name, num(v)));
    }
    line.push_str("}}");
    line
}

/// Render one JSONL `event` record.
fn jsonl_event(ev: &TelemetryEvent) -> String {
    format!(
        "{{\"type\":\"event\",\"pid\":{},\"kind\":\"{}\",\"step\":{},\"t_ns\":{},\"value\":{}}}",
        ev.rank,
        ev.kind,
        ev.step,
        ev.t_ns,
        num(ev.value)
    )
}

/// Render the OpenMetrics exposition for the cumulative field totals
/// and the latest sample's gauges. Counter fields become
/// `rhrsc_<name>_total`; gauge fields become `rhrsc_<name>`. Ends with
/// the mandatory `# EOF` marker.
fn openmetrics_text(sample: &SeriesSample, totals: &[f64]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# TYPE rhrsc_step gauge\n# HELP rhrsc_step Committed step count\n");
    out.push_str(&format!("rhrsc_step {}\n", sample.step));
    out.push_str("# TYPE rhrsc_sim_time gauge\n# HELP rhrsc_sim_time Simulation time\n");
    out.push_str(&format!("rhrsc_sim_time {}\n", num(sample.time)));
    for (i, f) in SERIES_FIELDS.iter().enumerate() {
        let total = totals.get(i).copied().unwrap_or(0.0);
        if f.counter {
            out.push_str(&format!(
                "# TYPE rhrsc_{name} counter\n# HELP rhrsc_{name} {help}\nrhrsc_{name}_total {v}\n",
                name = f.name,
                help = f.help,
                v = num(total)
            ));
        } else {
            let v = sample.values.get(i).copied().unwrap_or(0.0);
            out.push_str(&format!(
                "# TYPE rhrsc_{name} gauge\n# HELP rhrsc_{name} {help}\nrhrsc_{name} {v}\n",
                name = f.name,
                help = f.help,
                v = num(v)
            ));
        }
    }
    out.push_str("# EOF\n");
    out
}

/// Atomically replace `path` with `content` (write temp + rename, the
/// same pattern the checkpoint slots use): a scraper never observes a
/// torn file.
fn write_atomic(path: &Path, content: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path)
}

/// The standard file sinks: optional OpenMetrics textfile (atomic
/// rewrite per sample) and optional JSONL stream (append + flush per
/// sample). Install on the hub with
/// [`Telemetry::set_sink`](rhrsc_runtime::telemetry::Telemetry::set_sink).
pub struct FileSinks {
    openmetrics: Option<PathBuf>,
    jsonl: Option<BufWriter<File>>,
}

impl FileSinks {
    /// Open the sinks. The JSONL stream is truncated (a new run is a
    /// new stream); failures to open warn and disable that sink rather
    /// than aborting the run.
    pub fn new(openmetrics: Option<PathBuf>, jsonl: Option<PathBuf>) -> Self {
        let jsonl_file = jsonl.as_ref().and_then(|p| {
            if let Some(parent) = p.parent() {
                if !parent.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(parent);
                }
            }
            match OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(p)
            {
                Ok(f) => Some(BufWriter::new(f)),
                Err(e) => {
                    eprintln!("warning: cannot open telemetry JSONL {}: {e}", p.display());
                    None
                }
            }
        });
        FileSinks {
            openmetrics,
            jsonl: jsonl_file,
        }
    }
}

impl TelemetrySink for FileSinks {
    fn on_sample(
        &mut self,
        sample: &SeriesSample,
        events: &[TelemetryEvent],
        totals: &[f64],
        rank: u32,
    ) {
        if let Some(w) = &mut self.jsonl {
            let mut ok = writeln!(w, "{}", jsonl_sample(sample, rank)).is_ok();
            for ev in events {
                ok &= writeln!(w, "{}", jsonl_event(ev)).is_ok();
            }
            // Flush per sample: the stream must be live (tail -f) and
            // survive an abort mid-run — that is the whole point.
            ok &= w.flush().is_ok();
            if !ok {
                eprintln!("warning: telemetry JSONL write failed; disabling sink");
                self.jsonl = None;
            }
        }
        if let Some(path) = &self.openmetrics {
            if let Err(e) = write_atomic(path, &openmetrics_text(sample, totals)) {
                eprintln!(
                    "warning: cannot rewrite OpenMetrics textfile {}: {e}; disabling sink",
                    path.display()
                );
                self.openmetrics = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhrsc_runtime::telemetry::field_index;

    fn sample() -> SeriesSample {
        let mut values = vec![0.0; SERIES_FIELDS.len()];
        values[field_index("dt").unwrap()] = 1e-3;
        values[field_index("zone_updates").unwrap()] = 4096.0;
        SeriesSample {
            step: 7,
            time: 0.25,
            t_ns: 123456,
            values,
        }
    }

    #[test]
    fn openmetrics_has_types_helps_and_eof() {
        let totals = vec![1.0; SERIES_FIELDS.len()];
        let text = openmetrics_text(&sample(), &totals);
        assert!(text.ends_with("# EOF\n"));
        assert!(text.contains("# TYPE rhrsc_zone_updates counter"));
        assert!(text.contains("rhrsc_zone_updates_total 1\n"));
        assert!(text.contains("# TYPE rhrsc_dt gauge"));
        assert!(text.contains("rhrsc_dt 0.001\n"));
        assert!(text.contains("rhrsc_step 7\n"));
        // Every line is either a comment or `name value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "bad exposition line: {line}"
            );
        }
    }

    #[test]
    fn jsonl_records_are_single_lines_with_trace_ids() {
        let s = jsonl_sample(&sample(), 3);
        assert!(!s.contains('\n'));
        assert!(s.contains("\"type\":\"sample\""));
        assert!(s.contains("\"pid\":3"));
        assert!(s.contains("\"t_ns\":123456"));
        assert!(s.contains("\"dt\":0.001"));
        let e = jsonl_event(&TelemetryEvent {
            t_ns: 9,
            step: 2,
            kind: "suspect",
            rank: 1,
            value: 1.0,
        });
        assert!(e.contains("\"kind\":\"suspect\""));
        assert!(e.contains("\"pid\":1"));
    }

    #[test]
    fn file_sinks_write_stream_and_atomic_textfile() {
        let dir = std::env::temp_dir().join("rhrsc_telemetry_sink_test");
        let _ = std::fs::remove_dir_all(&dir);
        let om = dir.join("metrics.prom");
        let jl = dir.join("telemetry.jsonl");
        let mut sinks = FileSinks::new(Some(om.clone()), Some(jl.clone()));
        let totals = vec![2.0; SERIES_FIELDS.len()];
        let ev = TelemetryEvent {
            t_ns: 1,
            step: 7,
            kind: "sdc.detect",
            rank: 0,
            value: 1.0,
        };
        sinks.on_sample(&sample(), &[ev], &totals, 0);
        sinks.on_sample(&sample(), &[], &totals, 0);
        let om_text = std::fs::read_to_string(&om).unwrap();
        assert!(om_text.ends_with("# EOF\n"));
        assert!(!om.with_extension("tmp").exists(), "tmp must be renamed");
        let jl_text = std::fs::read_to_string(&jl).unwrap();
        assert_eq!(jl_text.lines().count(), 3, "2 samples + 1 event");
        assert!(jl_text.lines().all(|l| l.starts_with('{')));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
