//! The benchmark's contract: workloads, metrics, units, directions and
//! bounds. `BENCHMARK.json` at the repo root is the rendering of these
//! tables (`rhrsc-benchmark spec` prints it; a unit test compares).

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By how much `second` is worse than `first`, as a share of `first`
    /// (negative when it is better).
    pub fn worsening(self, first: f64, second: f64) -> f64 {
        match self {
            Better::Lower => (second - first) / first,
            Better::Higher => (first - second) / first,
        }
    }
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// A metric of a single layer, from the traced pass.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Workload names and why each is here.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "patch2d_blast",
        "Single-thread baseline: 96x96 cylindrical blast on PatchSolver, PPM+HLLC+RK3; srhd kernels and solver::step/integrate do all the work on long contiguous pencils, comm/runtime/serve none.",
    ),
    (
        "block3d_flow",
        "Strong-scaling limit: 2 ranks x 16^3 W=2 density wave via advance_to_with_restart; halo, dt collective, snapshot hashing, strided z-pencils and con2prim iterations weigh most; L1 is analytic.",
    ),
    (
        "amr1d_blast",
        "Same kernels, used differently: 3-level AMR Marti-Muller blast; dozens of short patches, so ghost prolongation, flagging, regrid, reflux and per-patch allocation dominate; exact Riemann L1.",
    ),
    (
        "device2d_blast",
        "The patch2d problem through the simulated accelerator: queue, copies, launch latency, staging; shares kernels with patch2d_blast, so a kernel gain shows on both and a launch gain only here.",
    ),
    (
        "serve_sweep",
        "Closed-loop ensemble service on 2 workers: 16 batch jobs, 6 awaited interactive jobs, then 16 more of which 8 hit the cache; admission, priority, dispatch and cache beside tiny solves.",
    ),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported by every workload with `--trace 0`.
/// Each bound is at least three times the widest spread (interquartile
/// range ÷ median over ten runs, each with another seed) any workload
/// showed for the metric on the 2-vCPU host; see the README.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("time_to_solution_s", "s", Better::Lower, 0.20),
    e2e("zone_updates_per_s", "1/s", Better::Higher, 0.20),
    e2e("modeled_time_s", "s", Better::Lower, 0.15),
    e2e("job_latency_p50_s", "s", Better::Lower, 0.20),
    e2e("job_latency_p90_s", "s", Better::Lower, 0.25),
    e2e("l1_density_error", "1", Better::Lower, 0.05),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
    e2e("heap_allocs_per_solve", "count", Better::Lower, 0.05),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, reported by every workload with `--trace 1`.
/// A layer the workload does not call reports 0.
pub const PER_LAYER: [PerLayer; 54] = [
    // srhd
    layer("srhd.con2prim.ns_per_zone", "ns", Lower),
    layer("srhd.con2prim.evals_per_zone", "count", Lower),
    layer("srhd.con2prim.fallback_frac", "1", Lower),
    layer("srhd.recon.ns_per_zone", "ns", Lower),
    layer("srhd.riemann.ns_per_face", "ns", Lower),
    // grid
    layer("grid.fill_ghosts.ns_per_zone", "ns", Lower),
    // solver::scheme, solver::step, solver::integrate
    layer("solver.scheme.recover_prims.ns_per_zone", "ns", Lower),
    layer("solver.step.compute_rhs.ns_per_zone", "ns", Lower),
    layer("solver.scheme.max_dt.ns_per_zone", "ns", Lower),
    layer("solver.step.computed_bytes_per_zone", "B", Lower),
    layer("solver.integrate.step.ns_per_zone", "ns", Lower),
    layer("solver.integrate.self_frac", "1", Lower),
    // solver::driver
    layer("solver.driver.step.ns_per_zone", "ns", Lower),
    layer("solver.driver.stable_dt.ns_per_call", "ns", Lower),
    layer("solver.driver.overhead_vs_patch", "1", Lower),
    layer("solver.driver.resilience_overhead_frac", "1", Lower),
    layer("solver.driver.parallel_efficiency_2r", "1", Higher),
    layer("solver.driver.snapshots_per_solve", "count", Lower),
    // comm::rank
    layer("comm.rank.msgs_per_step", "count", Lower),
    layer("comm.rank.bytes_per_step", "B", Lower),
    layer("comm.rank.sendrecv.ns_per_msg", "ns", Lower),
    layer("comm.rank.allreduce.ns_per_call", "ns", Lower),
    layer("comm.rank.modeled_net_frac", "1", Lower),
    // io::snapshot
    layer("io.snapshot.stamp.ns_per_byte", "ns", Lower),
    layer("io.snapshot.capture.ns_per_byte", "ns", Lower),
    // solver::amr
    layer("solver.amr.step.ns_per_zone", "ns", Lower),
    layer("solver.amr.regrid.ns_per_call", "ns", Lower),
    layer("solver.amr.overhead_vs_patch", "1", Lower),
    layer("solver.amr.regrids", "count", Lower),
    layer("solver.amr.patches_mean", "count", Lower),
    layer("solver.amr.updates_l0", "count", Lower),
    layer("solver.amr.updates_l1", "count", Lower),
    layer("solver.amr.updates_l2", "count", Lower),
    layer("solver.amr.update_saving", "1", Higher),
    // solver::device_backend, runtime::device
    layer("solver.device_backend.upload_s", "s", Lower),
    layer("solver.device_backend.download_s", "s", Lower),
    layer("solver.device_backend.step.ns_per_zone", "ns", Lower),
    layer("runtime.device.launch_roundtrip_ns", "ns", Lower),
    layer("runtime.device.launches", "count", Lower),
    layer("runtime.device.h2d_bytes", "B", Lower),
    layer("runtime.device.d2h_bytes", "B", Lower),
    layer("runtime.device.modeled_speedup", "1", Higher),
    // runtime::pool, serve
    layer("runtime.pool.spawn_join.ns_per_task", "ns", Lower),
    layer("serve.engine.submit.ns_per_job", "ns", Lower),
    layer("serve.engine.dispatch_overhead_frac", "1", Lower),
    layer("serve.engine.setups_reused_frac", "1", Higher),
    layer("serve.spec.canonical_hash.ns", "ns", Lower),
    layer("serve.cache.hit_ratio", "1", Higher),
    layer("serve.cache.hit_latency_s", "s", Lower),
    // the harness itself: how noisy the host was, what tracing cost
    layer("harness.ref_kernel_s", "s", Lower),
    layer("harness.ref_kernel_cv", "1", Lower),
    layer("harness.raw_time_to_solution_s", "s", Lower),
    layer("harness.split_half_rel_diff", "1", Lower),
    layer("harness.trace_overhead_frac", "1", Lower),
];

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let array = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        array(workloads),
        array(end_to_end),
        array(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
        for m in &END_TO_END {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &PER_LAYER {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json is missing");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark/run.sh spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(2.0, 1.8) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(2.0, 2.2) < 0.0);
    }
}
