//! Validate every `BENCH_*.json` report and `TRACE_*.json` flight record
//! in the results directory against their schemas (see
//! [`rhrsc_bench::validate_report`] and [`rhrsc_bench::validate_trace`]).
//! Exits non-zero if any report is missing required fields, has
//! non-positive phase totals, claims more phase time than
//! `wall_time × parallelism` allows, or — for the fault-tolerance and
//! AMR benches — is missing the counters that prove the corresponding
//! machinery actually engaged. The multi-level checkpoint bench (f14)
//! must additionally report `sdc.undetected` exactly zero: one missed
//! flip is a correctness failure of the scrubbing subsystem. The
//! ensemble-service bench (f15) must show its `serve.*` admission,
//! cache, cancellation, and completion counters all engaged — and
//! `serve.isolation.breach` exactly zero (a clean job failing means a
//! tenant's faults leaked across the isolation boundary). Standardized physics benches must also
//! report a positive `zone_updates` cost figure; the scaling benches
//! (f4/f5) must report `zone_updates_per_sec`, and their `--toy` runs
//! are held to a throughput floor of 80% of the committed baseline so
//! hot-loop regressions fail CI. The a3 ablation must publish its
//! guarded-cadence observability values (refreshes and guard
//! violations per arm).
//!
//! Usage: `validate_reports [dir]` — defaults to the workspace
//! `results/` directory (or `RHRSC_RESULTS_DIR`).

use rhrsc_bench::{results_dir, validate_report, validate_telemetry_line, validate_trace, Json};

/// Bench ids that run with the flight recorder armed: when their
/// `BENCH_<id>.json` is present in the directory, the matching
/// `TRACE_<id>.json` must be too — a bench silently dropping its trace
/// output would otherwise go unnoticed until someone needs the spans.
const REQUIRED_TRACE_IDS: &[&str] = &["f7_overlap", "f10_fault_tolerance", "f11_rank_failure"];

/// Counters that must be present *and positive* for a given bench id —
/// their absence means the fault/liveness machinery silently never ran.
const REQUIRED_COUNTERS: &[(&str, &[&str])] = &[
    (
        "f10_fault_tolerance",
        &["dev.breaker.trips", "dev.breaker.host_steps"],
    ),
    (
        "f11_rank_failure",
        &[
            "comm.liveness.suspicions",
            "comm.liveness.confirmed_dead",
            "driver.shrinks",
        ],
    ),
    (
        "f12_amr",
        &["amr.regrids", "amr.updates.l1", "amr.reflux.corrections"],
    ),
    (
        "f13_distributed_amr",
        &[
            "amr.dist.halo_msgs",
            "amr.dist.reflux_msgs",
            "driver.shrinks",
        ],
    ),
    (
        "f14_multilevel_ckp",
        &[
            "sdc.detected",
            "sdc.scrubs",
            "ckp.tier.local.restore",
            "ckp.tier.buddy.restore",
        ],
    ),
    (
        "f15_ensemble_service",
        &[
            "serve.admitted",
            "serve.admission.rejected",
            "serve.cache.hits",
            "serve.jobs.cancelled",
            "serve.jobs.completed",
        ],
    ),
];

/// Counters that must be present *and exactly zero* for a given bench id
/// — f14's SDC arm counts every injected flip the ABFT verify missed; a
/// single undetected flip is a correctness failure of the scrubbing
/// subsystem, and an absent counter means the accounting never ran.
const REQUIRED_ZERO_COUNTERS: &[(&str, &[&str])] = &[
    ("f14_multilevel_ckp", &["sdc.undetected"]),
    // A clean job failing inside the ensemble service means another
    // tenant's faults (or an engine bug) leaked across the isolation
    // boundary — one breach is a correctness failure of multi-tenancy.
    ("f15_ensemble_service", &["serve.isolation.breach"]),
];

/// Bench ids whose reports must state the rank count they ran on via an
/// explicit `parallelism` field matching the bench's published
/// configuration — the schema defaults a missing value to 1, which would
/// hide a distributed bench silently degrading to a single rank.
const REQUIRED_PARALLELISM: &[(&str, f64)] = &[
    ("f10_fault_tolerance", 4.0),
    ("f11_rank_failure", 4.0),
    ("f12_amr", 1.0),
    ("f13_distributed_amr", 4.0),
    ("f14_multilevel_ckp", 4.0),
    ("f15_ensemble_service", 4.0),
];

/// Bench ids whose reports must carry a positive `zone_updates` figure —
/// the standardized physics benches, where a missing update count means
/// the harness migration silently dropped the cost accounting.
const REQUIRED_ZONE_UPDATES: &[&str] = &[
    "f1_sod_profile",
    "f2_blast_waves",
    "f3_khi_growth",
    "t1_convergence",
    "t2_shock_accuracy",
    "f12_amr",
    "a5_smr_efficiency",
];

/// Bench ids whose reports must carry a positive `zone_updates_per_sec`
/// rate — the scaling benches, whose entire point is the hot-loop
/// throughput.
const REQUIRED_ZONE_RATE: &[&str] = &["f4_strong_scaling", "f5_weak_scaling"];

/// Committed toy-preset throughput baselines (zone updates/s). A report
/// whose `config.preset` is `"toy"` must reach at least
/// `TOY_FLOOR_FRACTION ×` its baseline — a PR that regresses the hot
/// loop by more than 20% fails the bench-profile job instead of merging
/// silently. Re-baseline (to the newly measured rate) whenever the hot
/// loop legitimately changes speed; full-preset runs are exempt because
/// their wall times are virtual-cluster makespans dominated by the
/// modeled network. Baselines are set conservatively (below the median
/// measured rate) because the virtual-cluster ranks time-share the host
/// and run-to-run noise on a loaded machine approaches ±30%.
const TOY_THROUGHPUT_BASELINES: &[(&str, f64)] = &[
    ("f4_strong_scaling", 1_700_000.0),
    ("f5_weak_scaling", 1_100_000.0),
];

/// Fraction of the committed toy baseline a report must reach.
const TOY_FLOOR_FRACTION: f64 = 0.8;

/// Report values (histogram summaries) that must be present for a given
/// bench id — a3's guarded-cadence arm must publish how many collective
/// refreshes each interval actually took and how often the coast guard
/// fired, or the ablation proves nothing about the guard.
const REQUIRED_VALUES: &[(&str, &[&str])] = &[(
    "a3_dt_refresh",
    &[
        "dt_refresh.makespan_us",
        "dt_refresh.allreduces",
        "dt.cadence.violations",
    ],
)];

/// Bench-specific check on top of the generic schema: required counters.
// Negated comparison form deliberately rejects NaN values.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn check_required_counters(doc: &Json) -> Result<(), String> {
    let Some(id) = doc.get("id").and_then(Json::as_str) else {
        return Ok(()); // schema validation already rejects this
    };
    if REQUIRED_ZONE_UPDATES.contains(&id) {
        let z = doc
            .get("zone_updates")
            .and_then(Json::as_f64)
            .ok_or(format!("`{id}` must report zone_updates"))?;
        if !(z > 0.0) {
            return Err(format!("zone_updates must be positive, got {z}"));
        }
    }
    if REQUIRED_ZONE_RATE.contains(&id) {
        let rate = doc
            .get("zone_updates_per_sec")
            .and_then(Json::as_f64)
            .ok_or(format!("`{id}` must report zone_updates_per_sec"))?;
        if !(rate > 0.0) {
            return Err(format!("zone_updates_per_sec must be positive, got {rate}"));
        }
        let preset = doc
            .get("config")
            .and_then(|c| c.get("preset"))
            .and_then(Json::as_str);
        if preset == Some("toy") {
            if let Some((_, baseline)) = TOY_THROUGHPUT_BASELINES.iter().find(|(k, _)| *k == id) {
                let floor = TOY_FLOOR_FRACTION * baseline;
                if !(rate >= floor) {
                    return Err(format!(
                        "`{id}` toy throughput {rate:.0} zu/s is below the \
                         regression floor {floor:.0} (80% of the committed \
                         baseline {baseline:.0})"
                    ));
                }
            }
        }
    }
    if let Some((_, required)) = REQUIRED_VALUES.iter().find(|(k, _)| *k == id) {
        let values = doc
            .get("values")
            .and_then(Json::as_arr)
            .ok_or(format!("`{id}` must report a values section"))?;
        for name in *required {
            if !values
                .iter()
                .any(|v| v.get("name").and_then(Json::as_str) == Some(name))
            {
                return Err(format!("required value `{name}` missing"));
            }
        }
    }
    if let Some((_, want)) = REQUIRED_PARALLELISM.iter().find(|(k, _)| *k == id) {
        let p = doc
            .get("parallelism")
            .and_then(Json::as_f64)
            .ok_or(format!("`{id}` must report its rank count as parallelism"))?;
        if p != *want {
            return Err(format!("`{id}` must report parallelism = {want}, got {p}"));
        }
    }
    if let Some((_, required)) = REQUIRED_ZERO_COUNTERS.iter().find(|(k, _)| *k == id) {
        let counters = doc
            .get("counters")
            .ok_or("missing key `counters`".to_string())?;
        for name in *required {
            let v = counters
                .get(name)
                .and_then(Json::as_f64)
                .ok_or(format!("required zero-counter `{name}` missing"))?;
            if v != 0.0 {
                return Err(format!("counter `{name}` must be exactly 0, got {v}"));
            }
        }
    }
    let Some((_, required)) = REQUIRED_COUNTERS.iter().find(|(k, _)| *k == id) else {
        return Ok(());
    };
    let counters = doc
        .get("counters")
        .ok_or("missing key `counters`".to_string())?;
    for name in *required {
        let v = counters
            .get(name)
            .and_then(Json::as_f64)
            .ok_or(format!("required counter `{name}` missing"))?;
        if !(v > 0.0) {
            return Err(format!(
                "required counter `{name}` must be positive, got {v}"
            ));
        }
    }
    Ok(())
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(results_dir);
    let mut checked = 0usize;
    let mut failed = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                (n.starts_with("BENCH_") || n.starts_with("TRACE_")) && n.ends_with(".json")
            })
        })
        .collect();
    entries.sort();
    for path in &entries {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let is_trace = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("TRACE_"));
        let verdict = Json::parse(&text).and_then(|doc| {
            if is_trace {
                validate_trace(&doc)
            } else {
                validate_report(&doc)?;
                check_required_counters(&doc)
            }
        });
        checked += 1;
        match verdict {
            Ok(()) => println!("ok    {}", path.display()),
            Err(msg) => {
                failed += 1;
                eprintln!("FAIL  {}: {msg}", path.display());
            }
        }
    }
    // Traced benches must publish their flight record alongside the
    // bench report.
    for id in REQUIRED_TRACE_IDS {
        if dir.join(format!("BENCH_{id}.json")).exists() {
            let trace = dir.join(format!("TRACE_{id}.json"));
            checked += 1;
            if trace.exists() {
                println!("ok    {} (trace present)", trace.display());
            } else {
                failed += 1;
                eprintln!(
                    "FAIL  {}: traced bench `{id}` has a BENCH report but no flight record",
                    trace.display()
                );
            }
        }
    }
    // Telemetry JSONL streams: every line must parse and match the
    // sample/event schema.
    let mut jsonl: Vec<_> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("TELEMETRY_") && n.ends_with(".jsonl"))
                })
                .collect()
        })
        .unwrap_or_default();
    jsonl.sort();
    for path in &jsonl {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let verdict = validate_telemetry_stream(&text);
        checked += 1;
        match verdict {
            Ok(lines) => println!("ok    {} ({lines} records)", path.display()),
            Err(msg) => {
                failed += 1;
                eprintln!("FAIL  {}: {msg}", path.display());
            }
        }
    }
    if checked == 0 {
        eprintln!(
            "no BENCH_*.json / TRACE_*.json files found in {}",
            dir.display()
        );
        std::process::exit(2);
    }
    println!("{checked} file(s) checked, {failed} failed");
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Validate a whole telemetry JSONL stream: non-empty, every line a
/// valid sample/event record, at least one sample.
fn validate_telemetry_stream(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        validate_telemetry_line(&doc).map_err(|e| format!("line {}: {e}", i + 1))?;
        if doc.get("type").and_then(Json::as_str) == Some("sample") {
            samples += 1;
        }
        lines += 1;
    }
    if samples == 0 {
        return Err("stream contains no sample records".to_string());
    }
    Ok(lines)
}
