//! Structured BENCH run reports and the `--profile` phase table.
//!
//! Every headline experiment binary (F4/F5/F7/F9/T3) emits a
//! machine-readable `results/BENCH_<id>.json` run report alongside its
//! CSV — the benchmark trajectory later performance PRs are judged
//! against. Schema (version 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "id": "f7_overlap",
//!   "build": {"package_version": "...", "debug": false,
//!             "os": "linux", "arch": "x86_64", "cores": 2},
//!   "timestamp_unix": 1754438400,
//!   "config": {"...": "bench-specific key/values"},
//!   "wall_time_s": 1.25,
//!   "parallelism": 4,
//!   "zone_updates": 2621440,          // optional
//!   "zone_updates_per_sec": 2.1e6,    // derived, optional
//!   "phases":   [{"name": "phase.halo.wait", "total_s": 0.5,
//!                 "count": 240, "mean_s": 0.002,
//!                 "p50_s": 0.0019, "p99_s": 0.004}],
//!   "counters": {"comm.msgs.halo": 960},
//!   "values":   [{"name": "c2p.newton_iters", "count": 655360,
//!                 "sum": 2621440, "mean": 4.0}],
//!   "series":   {"fields": ["step", "time", "t_ns", "..."],
//!                "samples": [[1, 0.001, 12345, 0.0]]}  // optional
//! }
//! ```
//!
//! `phases` holds every duration histogram (names prefixed `phase.` for
//! disjoint top-level step phases, `sub.` for nested sections — see
//! DESIGN.md "Observability"); `values` holds the remaining, unit-less
//! histograms. Totals are summed across ranks, so a consistency check
//! must compare against `wall_time_s × parallelism`, not wall time
//! alone. `build.cores` is the host's core count: a virtual-time run
//! computes its ranks in parallel only when they fit it, so its wall
//! figures are read against it.

use crate::json::{obj, Json};
use crate::{f3, results_dir, Table};
use rhrsc_runtime::metrics::Snapshot;
use std::path::{Path, PathBuf};

/// Command-line options shared by the bench binaries.
#[derive(Clone, Debug, Default)]
pub struct BenchOpts {
    /// Print the phase-breakdown table (`--profile`).
    pub profile: bool,
    /// Shrink the problem for CI smoke runs (`--toy`).
    pub toy: bool,
    /// Write a Chrome/Perfetto `trace.json` of the instrumented run
    /// (`--trace-out <path>`).
    pub trace_out: Option<PathBuf>,
    /// Stream telemetry samples/events as JSONL to this path
    /// (`--telemetry-out <path>`).
    pub telemetry_out: Option<PathBuf>,
    /// Atomically rewrite an OpenMetrics textfile on the telemetry
    /// cadence (`--metrics-textfile <path>`, node_exporter
    /// textfile-collector compatible).
    pub metrics_textfile: Option<PathBuf>,
}

impl BenchOpts {
    /// Parse `--profile` / `--toy` / `--trace-out <path>` /
    /// `--telemetry-out <path>` / `--metrics-textfile <path>` from
    /// `std::env::args`, warning on anything else.
    pub fn from_args() -> Self {
        // Path-valued flags accept both `--flag path` and `--flag=path`.
        fn next_path(args: &mut impl Iterator<Item = String>, flag: &str) -> Option<PathBuf> {
            let p = args.next().map(PathBuf::from);
            if p.is_none() {
                eprintln!("warning: {flag} requires a path argument");
            }
            p
        }
        let mut o = BenchOpts::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--profile" => o.profile = true,
                "--toy" => o.toy = true,
                "--trace-out" => o.trace_out = next_path(&mut args, "--trace-out"),
                "--telemetry-out" => o.telemetry_out = next_path(&mut args, "--telemetry-out"),
                "--metrics-textfile" => {
                    o.metrics_textfile = next_path(&mut args, "--metrics-textfile")
                }
                other => {
                    if let Some(p) = other.strip_prefix("--trace-out=") {
                        o.trace_out = Some(PathBuf::from(p));
                    } else if let Some(p) = other.strip_prefix("--telemetry-out=") {
                        o.telemetry_out = Some(PathBuf::from(p));
                    } else if let Some(p) = other.strip_prefix("--metrics-textfile=") {
                        o.metrics_textfile = Some(PathBuf::from(p));
                    } else {
                        eprintln!("warning: ignoring unknown argument `{other}`");
                    }
                }
            }
        }
        o
    }

    /// The trace destination (`--trace-out`); `None` = no flight record.
    pub fn trace_path(&self) -> Option<PathBuf> {
        self.trace_out.clone()
    }

    /// Telemetry configuration, when armed: either sink flag arms it at
    /// the default cadence. `None` = telemetry detached.
    pub fn telemetry_config(&self) -> Option<rhrsc_runtime::TelemetryConfig> {
        (self.telemetry_out.is_some() || self.metrics_textfile.is_some())
            .then(rhrsc_runtime::TelemetryConfig::default)
    }
}

/// Builder for a `BENCH_<id>.json` run report.
pub struct RunReport {
    id: String,
    config: Vec<(String, Json)>,
    wall_time_s: f64,
    parallelism: f64,
    zone_updates: Option<f64>,
    series: Vec<rhrsc_runtime::SeriesSample>,
}

impl RunReport {
    /// Start a report for experiment `id` (e.g. `f4_strong_scaling`).
    pub fn new(id: &str) -> Self {
        RunReport {
            id: id.to_string(),
            config: Vec::new(),
            wall_time_s: 0.0,
            parallelism: 1.0,
            zone_updates: None,
            series: Vec::new(),
        }
    }

    /// Record a bench-specific config entry (string value).
    pub fn config_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.config.push((key.to_string(), Json::Str(value.into())));
        self
    }

    /// Record a bench-specific config entry (numeric value).
    pub fn config_num(&mut self, key: &str, value: f64) -> &mut Self {
        self.config.push((key.to_string(), Json::Num(value)));
        self
    }

    /// Total wall-clock time of the measured section, seconds.
    pub fn wall_time(&mut self, secs: f64) -> &mut Self {
        self.wall_time_s = secs;
        self
    }

    /// Number of concurrent workers contributing to the phase totals
    /// (simulated ranks): phase sums may legitimately reach
    /// `wall_time × parallelism`.
    pub fn parallelism(&mut self, p: f64) -> &mut Self {
        self.parallelism = p;
        self
    }

    /// Total zone updates performed (cells × RK stages × steps); derives
    /// `zone_updates_per_sec`.
    pub fn zone_updates(&mut self, z: f64) -> &mut Self {
        self.zone_updates = Some(z);
        self
    }

    /// Attach the telemetry time series (the hub's retained samples):
    /// the report gains a `series` section with the field schema and one
    /// numeric row per sample (`[step, time, t_ns, fields...]`).
    pub fn series(&mut self, samples: &[rhrsc_runtime::SeriesSample]) -> &mut Self {
        self.series = samples.to_vec();
        self
    }

    /// Render the report document from a metrics snapshot.
    pub fn to_json(&self, snap: &Snapshot) -> Json {
        let mut phases = Vec::new();
        let mut values = Vec::new();
        for (name, h) in &snap.histograms {
            if name.starts_with("phase.") || name.starts_with("sub.") {
                let total_s = h.sum as f64 * 1e-9;
                phases.push(obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("total_s", Json::Num(total_s)),
                    ("count", Json::Num(h.count as f64)),
                    (
                        "mean_s",
                        Json::Num(if h.count > 0 {
                            total_s / h.count as f64
                        } else {
                            0.0
                        }),
                    ),
                    ("p50_s", Json::Num(h.quantile(0.5) * 1e-9)),
                    ("p99_s", Json::Num(h.quantile(0.99) * 1e-9)),
                ]));
            } else {
                values.push(obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("count", Json::Num(h.count as f64)),
                    ("sum", Json::Num(h.sum as f64)),
                    ("mean", Json::Num(h.mean())),
                ]));
            }
        }
        let counters = Json::Obj(
            snap.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        );
        let timestamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut members = vec![
            ("schema_version", Json::Num(1.0)),
            ("id", Json::Str(self.id.clone())),
            (
                "build",
                obj(vec![
                    (
                        "package_version",
                        Json::Str(env!("CARGO_PKG_VERSION").to_string()),
                    ),
                    ("debug", Json::Bool(cfg!(debug_assertions))),
                    ("os", Json::Str(std::env::consts::OS.to_string())),
                    ("arch", Json::Str(std::env::consts::ARCH.to_string())),
                    ("cores", Json::Num(rhrsc_comm::host_cores() as f64)),
                ]),
            ),
            ("timestamp_unix", Json::Num(timestamp as f64)),
            ("config", Json::Obj(self.config.clone())),
            ("wall_time_s", Json::Num(self.wall_time_s)),
            ("parallelism", Json::Num(self.parallelism)),
        ];
        if let Some(z) = self.zone_updates {
            members.push(("zone_updates", Json::Num(z)));
            if self.wall_time_s > 0.0 {
                members.push(("zone_updates_per_sec", Json::Num(z / self.wall_time_s)));
            }
        }
        members.push(("phases", Json::Arr(phases)));
        members.push(("counters", counters));
        members.push(("values", Json::Arr(values)));
        if !self.series.is_empty() {
            let mut fields = vec![
                Json::Str("step".into()),
                Json::Str("time".into()),
                Json::Str("t_ns".into()),
            ];
            fields.extend(
                rhrsc_runtime::telemetry::SERIES_FIELDS
                    .iter()
                    .map(|f| Json::Str(f.name.to_string())),
            );
            let samples = self
                .series
                .iter()
                .map(|s| Json::Arr(s.pack().into_iter().map(Json::Num).collect()))
                .collect();
            members.push((
                "series",
                obj(vec![
                    ("fields", Json::Arr(fields)),
                    ("samples", Json::Arr(samples)),
                ]),
            ));
        }
        obj(members)
    }

    /// Write `BENCH_<id>.json` into `dir`, returning the path. Missing
    /// parent directories are created; an unwritable destination warns
    /// and skips instead of panicking (the report content was already
    /// rendered, and a bench on a read-only filesystem should still run
    /// to completion).
    pub fn write_to(&self, dir: &Path, snap: &Snapshot) -> PathBuf {
        let path = dir.join(format!("BENCH_{}.json", self.id));
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
        }
        if let Err(e) = std::fs::write(&path, self.to_json(snap).pretty()) {
            eprintln!(
                "warning: cannot write BENCH report {}: {e}; skipping",
                path.display()
            );
        }
        path
    }

    /// Write `results/BENCH_<id>.json`, returning the path.
    pub fn write(&self, snap: &Snapshot) -> PathBuf {
        let path = self.write_to(&results_dir(), snap);
        println!("  -> wrote {}", path.display());
        path
    }
}

/// Validate a parsed `BENCH_*.json` document against schema version 1.
/// Returns a description of the first violation.
// Negated comparison forms deliberately reject NaN values.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let need = |key: &str| doc.get(key).ok_or(format!("missing key `{key}`"));
    if need("schema_version")?.as_f64() != Some(1.0) {
        return Err("schema_version != 1".to_string());
    }
    if need("id")?.as_str().is_none_or(str::is_empty) {
        return Err("id must be a non-empty string".to_string());
    }
    let build = need("build")?;
    for key in ["package_version", "os", "arch"] {
        if build.get(key).and_then(Json::as_str).is_none() {
            return Err(format!("build.{key} must be a string"));
        }
    }
    if let Some(cores) = build.get("cores") {
        if !cores.as_f64().is_some_and(|c| c >= 1.0 && c.fract() == 0.0) {
            return Err("build.cores must be a positive integer".to_string());
        }
    }
    need("config")?
        .as_obj()
        .ok_or("config must be an object".to_string())?;
    let wall = need("wall_time_s")?
        .as_f64()
        .ok_or("wall_time_s must be a number".to_string())?;
    if !(wall > 0.0) {
        return Err(format!("wall_time_s must be positive, got {wall}"));
    }
    let parallelism = need("parallelism")?.as_f64().unwrap_or(1.0).max(1.0);
    let phases = need("phases")?
        .as_arr()
        .ok_or("phases must be an array".to_string())?;
    if phases.is_empty() {
        return Err("phases must be non-empty".to_string());
    }
    let mut phase_sum = 0.0;
    for p in phases {
        let name = p
            .get("name")
            .and_then(Json::as_str)
            .ok_or("phase missing name".to_string())?;
        let total = p
            .get("total_s")
            .and_then(Json::as_f64)
            .ok_or(format!("phase `{name}` missing total_s"))?;
        if total < 0.0 {
            return Err(format!("phase `{name}` has negative total_s"));
        }
        if p.get("count").and_then(Json::as_f64).is_none() {
            return Err(format!("phase `{name}` missing count"));
        }
        // `sub.*` sections nest inside `phase.*` sections; only count the
        // disjoint top-level phases toward the wall-time consistency sum.
        if name.starts_with("phase.") {
            phase_sum += total;
        }
    }
    if !(phase_sum > 0.0) {
        return Err("sum of phase totals must be positive".to_string());
    }
    let budget = wall * parallelism * 1.1;
    if phase_sum > budget {
        return Err(format!(
            "phase totals ({phase_sum:.3} s) exceed wall_time × parallelism ({budget:.3} s)"
        ));
    }
    if let Some(rate) = doc.get("zone_updates_per_sec").and_then(Json::as_f64) {
        if !(rate > 0.0) {
            return Err(format!("zone_updates_per_sec must be positive, got {rate}"));
        }
    }
    if let Some(series) = doc.get("series") {
        validate_series(series)?;
    }
    Ok(())
}

/// Validate a report's `series` section (the telemetry time series):
/// a non-empty string field schema matching the runtime's
/// [`SERIES_FIELDS`](rhrsc_runtime::telemetry::SERIES_FIELDS) plus the
/// `[step, time, t_ns]` header, and numeric rows of matching width with
/// strictly increasing step numbers.
pub fn validate_series(series: &Json) -> Result<(), String> {
    let fields = series
        .get("fields")
        .and_then(Json::as_arr)
        .ok_or("series.fields must be an array".to_string())?;
    let names: Vec<&str> = fields.iter().filter_map(Json::as_str).collect();
    if names.len() != fields.len() {
        return Err("series.fields must be strings".to_string());
    }
    let expected: Vec<&str> = ["step", "time", "t_ns"]
        .into_iter()
        .chain(
            rhrsc_runtime::telemetry::SERIES_FIELDS
                .iter()
                .map(|f| f.name),
        )
        .collect();
    if names != expected {
        return Err(format!(
            "series.fields does not match the telemetry schema (got {} fields, want {})",
            names.len(),
            expected.len()
        ));
    }
    let samples = series
        .get("samples")
        .and_then(Json::as_arr)
        .ok_or("series.samples must be an array".to_string())?;
    if samples.is_empty() {
        return Err("series.samples must be non-empty".to_string());
    }
    let mut prev_step = -1.0;
    for (i, row) in samples.iter().enumerate() {
        let row = row
            .as_arr()
            .ok_or(format!("series sample {i} must be an array"))?;
        if row.len() != expected.len() {
            return Err(format!(
                "series sample {i} has {} values, want {}",
                row.len(),
                expected.len()
            ));
        }
        let mut nums = row.iter().map(Json::as_f64);
        if nums.any(|v| v.is_none_or(|v| !v.is_finite())) {
            return Err(format!("series sample {i} has a non-finite value"));
        }
        let step = row[0].as_f64().expect("checked numeric above");
        if step <= prev_step {
            return Err(format!(
                "series sample {i} step {step} is not increasing (previous {prev_step})"
            ));
        }
        prev_step = step;
    }
    Ok(())
}

/// Validate one line of a telemetry JSONL stream (as written by
/// `rhrsc_io::telemetry::FileSinks`): a `sample` record with trace ids
/// and the full field schema, or an `event` record with a kind.
pub fn validate_telemetry_line(doc: &Json) -> Result<(), String> {
    let ty = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or("record missing `type`".to_string())?;
    for key in ["pid", "step", "t_ns"] {
        if doc.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("{ty} record missing numeric `{key}`"));
        }
    }
    match ty {
        "sample" => {
            if doc.get("time").and_then(Json::as_f64).is_none() {
                return Err("sample record missing numeric `time`".to_string());
            }
            let fields = doc
                .get("fields")
                .and_then(Json::as_obj)
                .ok_or("sample record missing `fields` object".to_string())?;
            for f in rhrsc_runtime::telemetry::SERIES_FIELDS {
                let v = fields
                    .iter()
                    .find(|(k, _)| k == f.name)
                    .and_then(|(_, v)| v.as_f64());
                match v {
                    Some(v) if v.is_finite() => {}
                    _ => return Err(format!("sample field `{}` missing or non-finite", f.name)),
                }
            }
            Ok(())
        }
        "event" => {
            if doc
                .get("kind")
                .and_then(Json::as_str)
                .is_none_or(str::is_empty)
            {
                return Err("event record missing `kind`".to_string());
            }
            Ok(())
        }
        other => Err(format!("unknown telemetry record type `{other}`")),
    }
}

/// Validate a parsed Chrome/Perfetto `trace.json` flight record (as
/// written by [`rhrsc_runtime::trace::Tracer`]). Returns a description
/// of the first violation.
///
/// Checks the invariants a trace viewer relies on: a non-empty
/// `traceEvents` array, process/thread metadata, known phase codes, and
/// the per-phase required fields (`ts`/`dur` on complete spans, the
/// instant scope marker, counter args).
// Negated comparison forms deliberately reject NaN values.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn validate_trace(doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .ok_or("missing key `traceEvents`".to_string())?
        .as_arr()
        .ok_or("traceEvents must be an array".to_string())?;
    if events.is_empty() {
        return Err("traceEvents must be non-empty".to_string());
    }
    let mut processes = 0usize;
    let mut payload = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i} missing `ph`"))?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i} missing `name`"))?;
        if name.is_empty() {
            return Err(format!("event {i} has an empty name"));
        }
        if ev.get("pid").and_then(Json::as_f64).is_none() {
            return Err(format!("event {i} (`{name}`) missing numeric `pid`"));
        }
        match ph {
            "M" => {
                if name == "process_name" {
                    processes += 1;
                }
                if ev.get("args").and_then(|a| a.get("name")).is_none() {
                    return Err(format!("metadata event {i} missing args.name"));
                }
            }
            "X" => {
                payload += 1;
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or(format!("span {i} (`{name}`) missing `ts`"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or(format!("span {i} (`{name}`) missing `dur`"))?;
                if !(ts >= 0.0) || !(dur >= 0.0) {
                    return Err(format!(
                        "span {i} (`{name}`) has negative ts/dur ({ts}/{dur})"
                    ));
                }
                if ev.get("tid").and_then(Json::as_f64).is_none() {
                    return Err(format!("span {i} (`{name}`) missing numeric `tid`"));
                }
            }
            "i" => {
                payload += 1;
                if ev.get("ts").and_then(Json::as_f64).is_none() {
                    return Err(format!("instant {i} (`{name}`) missing `ts`"));
                }
                if ev.get("s").and_then(Json::as_str).is_none() {
                    return Err(format!("instant {i} (`{name}`) missing scope `s`"));
                }
            }
            "C" => {
                payload += 1;
                if ev.get("args").and_then(Json::as_obj).is_none() {
                    return Err(format!("counter {i} (`{name}`) missing args object"));
                }
            }
            other => return Err(format!("event {i} (`{name}`) has unknown ph `{other}`")),
        }
    }
    if processes == 0 {
        return Err("no process_name metadata".to_string());
    }
    if payload == 0 {
        return Err("metadata only: no span/instant/counter events".to_string());
    }
    Ok(())
}

/// Print the human-readable phase-breakdown table for `--profile`.
///
/// Top-level `phase.*` rows share a common denominator (their summed
/// time); nested `sub.*` rows and counters are listed below without
/// shares (they overlap the phases above).
pub fn print_phase_table(title: &str, snap: &Snapshot) {
    println!("\n## Phase breakdown: {title}");
    let phase_total: f64 = snap
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("phase."))
        .map(|(_, h)| h.sum as f64 * 1e-9)
        .sum();
    let mut t = Table::new(&[
        "phase", "total_s", "count", "mean_us", "p50_us", "p99_us", "share",
    ]);
    for (name, h) in &snap.histograms {
        if !name.starts_with("phase.") {
            continue;
        }
        let total_s = h.sum as f64 * 1e-9;
        t.row(&[
            name.clone(),
            format!("{total_s:.4}"),
            h.count.to_string(),
            f3(if h.count > 0 {
                h.sum as f64 * 1e-3 / h.count as f64
            } else {
                0.0
            }),
            f3(h.quantile(0.5) * 1e-3),
            f3(h.quantile(0.99) * 1e-3),
            format!("{:.1}%", 100.0 * total_s / phase_total.max(1e-30)),
        ]);
    }
    t.print();

    let subs: Vec<_> = snap
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("sub."))
        .collect();
    if !subs.is_empty() {
        println!("  nested sections (overlap the phases above):");
        let mut t = Table::new(&["section", "total_s", "count", "mean_us", "p50_us", "p99_us"]);
        for (name, h) in subs {
            t.row(&[
                name.clone(),
                format!("{:.4}", h.sum as f64 * 1e-9),
                h.count.to_string(),
                f3(if h.count > 0 {
                    h.sum as f64 * 1e-3 / h.count as f64
                } else {
                    0.0
                }),
                f3(h.quantile(0.5) * 1e-3),
                f3(h.quantile(0.99) * 1e-3),
            ]);
        }
        t.print();
    }

    let values: Vec<_> = snap
        .histograms
        .iter()
        .filter(|(k, _)| !k.starts_with("phase.") && !k.starts_with("sub."))
        .collect();
    if !values.is_empty() {
        let mut t = Table::new(&["value", "count", "mean"]);
        for (name, h) in values {
            t.row(&[name.clone(), h.count.to_string(), f3(h.mean())]);
        }
        t.print();
    }

    if !snap.counters.is_empty() {
        let mut t = Table::new(&["counter", "value"]);
        for (name, v) in &snap.counters {
            t.row(&[name.clone(), v.to_string()]);
        }
        t.print();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhrsc_runtime::metrics::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.histogram("phase.rhs.deep").record(40_000_000);
        r.histogram("phase.halo.wait").record(10_000_000);
        r.histogram("sub.c2p").record(5_000_000);
        r.histogram("c2p.newton_iters").record_batch(100, 400, 4);
        r.counter("comm.msgs.halo").add(8);
        r.snapshot()
    }

    #[test]
    fn report_round_trips_and_validates() {
        let snap = sample_snapshot();
        let mut rep = RunReport::new("unit_test");
        rep.config_str("grid", "8x8")
            .config_num("ranks", 4.0)
            .wall_time(0.06)
            .parallelism(1.0)
            .zone_updates(1280.0);
        let doc = Json::parse(&rep.to_json(&snap).pretty()).unwrap();
        validate_report(&doc).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("unit_test"));
        assert!(doc.get("zone_updates_per_sec").unwrap().as_f64().unwrap() > 0.0);
        // sub.* appears in phases but not in the consistency sum.
        let names: Vec<_> = doc
            .get("phases")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| p.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert!(names.contains(&"sub.c2p".to_string()));
        // c2p.newton_iters lands in values, not phases.
        assert!(!names.contains(&"c2p.newton_iters".to_string()));
    }

    #[test]
    fn validation_rejects_bad_reports() {
        let snap = sample_snapshot();
        let mut rep = RunReport::new("unit_test");
        rep.wall_time(0.06);
        let good = rep.to_json(&snap);

        // Phase totals exceeding wall × parallelism are rejected.
        rep.wall_time(1e-6);
        assert!(validate_report(&rep.to_json(&snap)).is_err());

        // Empty phases are rejected.
        let empty = RunReport::new("x");
        let mut no_phases = empty.to_json(&Snapshot::default());
        if let Json::Obj(members) = &mut no_phases {
            for (k, v) in members.iter_mut() {
                if k == "wall_time_s" {
                    *v = Json::Num(1.0);
                }
            }
        }
        assert!(validate_report(&no_phases).is_err());

        // Missing id is rejected.
        if let Json::Obj(members) = &good {
            let stripped = Json::Obj(members.iter().filter(|(k, _)| k != "id").cloned().collect());
            assert!(validate_report(&stripped).is_err());
        }

        // The core count is a positive integer; a report without one
        // (written before it was recorded) still validates.
        let with_cores = |cores: Option<Json>| {
            let mut doc = good.clone();
            if let Json::Obj(members) = &mut doc {
                for (k, v) in members.iter_mut() {
                    if let (true, Json::Obj(build)) = (k == "build", v) {
                        build.retain(|(k, _)| k != "cores");
                        build.extend(cores.clone().map(|c| ("cores".to_string(), c)));
                    }
                }
            }
            validate_report(&doc)
        };
        assert!(with_cores(None).is_ok());
        assert!(with_cores(Some(Json::Num(2.0))).is_ok());
        for bad in [Json::Num(0.0), Json::Num(1.5), Json::Str("2".into())] {
            assert!(with_cores(Some(bad)).is_err());
        }
    }

    #[test]
    fn phase_table_prints_without_panicking() {
        print_phase_table("unit test", &sample_snapshot());
        print_phase_table("empty", &Snapshot::default());
    }

    #[test]
    fn report_writers_degrade_gracefully_on_unwritable_dirs() {
        // Tests run as root, where read-only permission bits are
        // ignored — so force the failure with a regular file standing
        // where a parent directory should be.
        let scratch = crate::drill::Scratch::new("report_degrade_test");
        let tmp = scratch.path();
        let blocker = tmp.join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let bad_dir = blocker.join("sub");

        let snap = sample_snapshot();
        let mut rep = RunReport::new("degrade_test");
        rep.wall_time(0.01);
        // Must warn and skip, not panic.
        let path = rep.write_to(&bad_dir, &snap);
        assert!(!path.exists());

        let mut t = Table::new(&["a"]);
        t.row(&["1".into()]);
        t.save_csv_to(&bad_dir, "degrade_test");
        assert!(!bad_dir.join("degrade_test.csv").exists());

        // A merely *missing* (but creatable) directory is created.
        let fresh = tmp.join("fresh").join("nested");
        let path = rep.write_to(&fresh, &snap);
        assert!(path.exists());
    }

    #[test]
    fn bench_opts_trace_path_is_the_flag_alone() {
        let o = BenchOpts {
            trace_out: Some(PathBuf::from("/tmp/x.json")),
            ..Default::default()
        };
        assert_eq!(o.trace_path(), Some(PathBuf::from("/tmp/x.json")));
        assert_eq!(BenchOpts::default().trace_path(), None);
    }

    #[test]
    fn bench_opts_arm_telemetry_via_sink_flags() {
        let detached = BenchOpts::default();
        assert!(detached.telemetry_config().is_none());
        let default_cadence = rhrsc_runtime::TelemetryConfig::default().interval;
        for armed in [
            BenchOpts {
                telemetry_out: Some(PathBuf::from("/tmp/t.jsonl")),
                ..Default::default()
            },
            BenchOpts {
                metrics_textfile: Some(PathBuf::from("/tmp/t.prom")),
                ..Default::default()
            },
        ] {
            let cfg = armed.telemetry_config().expect("sink flag arms telemetry");
            assert_eq!(cfg.interval, default_cadence);
        }
    }

    fn sample_series() -> Vec<rhrsc_runtime::SeriesSample> {
        use rhrsc_runtime::telemetry::SERIES_FIELDS;
        (1..=3)
            .map(|i| rhrsc_runtime::SeriesSample {
                step: i,
                time: i as f64 * 0.1,
                t_ns: i * 1000,
                values: vec![i as f64; SERIES_FIELDS.len()],
            })
            .collect()
    }

    #[test]
    fn series_section_round_trips_and_validates() {
        let snap = sample_snapshot();
        let mut rep = RunReport::new("series_test");
        rep.wall_time(0.06).series(&sample_series());
        let doc = rep.to_json(&snap);
        validate_report(&doc).expect("report with series validates");
        let series = doc.get("series").expect("series section present");
        validate_series(series).expect("series section validates");
        let samples = series.get("samples").and_then(Json::as_arr).unwrap();
        assert_eq!(samples.len(), 3);

        // A report without samples simply omits the section.
        let bare = RunReport::new("no_series");
        let mut bare = bare;
        bare.wall_time(0.06);
        assert!(bare.to_json(&snap).get("series").is_none());
    }

    #[test]
    fn series_validation_rejects_malformed_blocks() {
        // Non-monotone steps.
        let mut samples = sample_series();
        samples[2].step = 1;
        let mut rep = RunReport::new("bad_series");
        rep.wall_time(0.06).series(&samples);
        let doc = rep.to_json(&sample_snapshot());
        assert!(validate_report(&doc).is_err());

        // Wrong field schema.
        let doc = Json::Obj(vec![
            (
                "fields".into(),
                Json::Arr(vec![Json::Str("step".into()), Json::Str("bogus".into())]),
            ),
            (
                "samples".into(),
                Json::Arr(vec![Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])]),
            ),
        ]);
        assert!(validate_series(&doc).is_err());
    }

    #[test]
    fn telemetry_line_validation() {
        let parse = Json::parse;
        let fields: String = rhrsc_runtime::telemetry::SERIES_FIELDS
            .iter()
            .map(|f| format!("\"{}\":1", f.name))
            .collect::<Vec<_>>()
            .join(",");
        let sample = parse(&format!(
            "{{\"type\":\"sample\",\"pid\":0,\"step\":1,\"time\":0.1,\"t_ns\":5,\"fields\":{{{fields}}}}}"
        ))
        .unwrap();
        validate_telemetry_line(&sample).expect("full sample validates");

        let event = parse(
            "{\"type\":\"event\",\"pid\":1,\"kind\":\"suspect\",\"step\":2,\"t_ns\":9,\"value\":1}",
        )
        .unwrap();
        validate_telemetry_line(&event).expect("event validates");

        // Missing a schema field fails.
        let partial = parse(
            "{\"type\":\"sample\",\"pid\":0,\"step\":1,\"time\":0.1,\"t_ns\":5,\"fields\":{\"dt\":1}}",
        )
        .unwrap();
        assert!(validate_telemetry_line(&partial).is_err());
        // Unknown record types fail.
        let unknown = parse("{\"type\":\"bogus\",\"pid\":0,\"step\":1,\"t_ns\":5}").unwrap();
        assert!(validate_telemetry_line(&unknown).is_err());
    }
}
