//! `device2d_blast`: the `patch2d_blast` problem through the simulated
//! accelerator — upload once, fused step+scan kernels, download once.

use super::blast::{self, BlastCase, CFL, N, RK, T_END};
use crate::harness::{RepeatOutcome, TraceCtx, Workload};
use crate::layers::probe_kernels;
use crate::result::Metrics;
use crate::stats::median;
use crate::sys::allocs;
use rhrsc_grid::Field;
use rhrsc_io::snapshot::fnv1a_f64;
use rhrsc_runtime::{Accelerator, AcceleratorConfig, Registry};
use rhrsc_solver::{DevicePatchSolver, PatchSolver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The f9 device: one compute thread, 200 µs launch, 8 GB/s link, kernels
/// modelled 8× faster than the host thread that runs them.
fn device() -> AcceleratorConfig {
    AcceleratorConfig {
        compute_threads: 1,
        launch_overhead: Duration::from_micros(200),
        copy_bandwidth: 8e9,
        throughput_multiplier: 8.0,
        name: "sim-gpu".to_string(),
    }
}

pub struct Device2d(BlastCase);

impl Device2d {
    pub fn new(seed: u64) -> Self {
        Device2d(BlastCase::new(seed))
    }

    /// Device bring-up and upload: what `setup_s` times.
    fn bring_up(&self) -> DevicePatchSolver {
        let scheme = blast::scheme();
        let u = blast::initial_state(&self.0.inputs, &scheme);
        let dev = DevicePatchSolver::new(device(), scheme, blast::bcs(), RK, *u.geom());
        dev.upload(&u).get();
        dev
    }
}

/// `DevicePatchSolver::advance_to` (fused path) and the download, spelled
/// out with a span around each call; same launches, same bits.
fn solve_traced(dev: &DevicePatchSolver, id: u32, trace: &TraceCtx) -> (usize, Field) {
    let (mut t, mut steps) = (0.0, 0);
    let mut dt_next = trace
        .span("device2d_blast.stable_dt", id, || dev.stable_dt(CFL))
        .0;
    while t < T_END - 1e-14 {
        let mut dt = dt_next;
        assert!(dt > 1e-14, "time step collapsed on device: {dt}");
        if t + dt > T_END {
            dt = T_END - t;
        }
        trace.span("device2d_blast.enqueue_step_scan", id, || {
            dev.enqueue_step_scan(dt, CFL);
        });
        t += dt;
        steps += 1;
        if t < T_END - 1e-14 {
            dt_next = trace.span("device2d_blast.next_dt", id, || dev.next_dt()).0;
        }
    }
    let u = trace
        .span("device2d_blast.download", id, || dev.download())
        .0;
    (steps, u)
}

impl Workload for Device2d {
    fn repeat(&mut self, id: u32, trace: Option<&TraceCtx>) -> RepeatOutcome {
        let a0 = allocs();
        let t0 = Instant::now();
        let dev = self.bring_up();
        let setup_s = t0.elapsed().as_secs_f64();
        let a1 = allocs();
        if let Some(tr) = trace {
            // The device queue's own spans go on a track of their own.
            dev.set_trace(tr.tracer.clone(), 0);
        }

        let clock0 = dev.device_time();
        let a2 = allocs();
        let t1 = Instant::now();
        let (steps, u) = match trace {
            None => (dev.advance_to(0.0, T_END, CFL), dev.download()),
            Some(tr) => {
                tr.span("device2d_blast.solve", id, || solve_traced(&dev, id, tr))
                    .0
            }
        };
        let solve_s = t1.elapsed().as_secs_f64();
        let heap = (a1 - a0) + (allocs() - a2);
        let modeled = (dev.device_time() - clock0).as_secs_f64();

        let mut failures = Vec::new();
        let u0 = blast::initial_state(&self.0.inputs, &blast::scheme());
        let drift = blast::mass_energy_drift(&u0, &u);
        if drift > 1e-12 {
            failures.push(format!("D/tau conservation drift {drift:e}"));
        }
        let out = RepeatOutcome {
            setup_s,
            solve_s,
            modeled_s: Some(modeled),
            zone_updates: (steps * N * N * RK.stages()) as u64,
            allocs: heap,
            digest: fnv1a_f64(u.raw()),
            ops: 1,
            failures,
            ..RepeatOutcome::default()
        };
        self.0.keep_first(u);
        out
    }

    fn l1_density_error(&mut self) -> Result<f64, String> {
        self.0.l1_density_error()
    }

    fn l1_gate(&self) -> f64 {
        blast::L1_GATE
    }

    fn probe_layers(&mut self, trace: &TraceCtx, out: &mut Metrics) {
        let scheme = blast::scheme();
        let mid = blast::mid_run_state(&self.0.inputs);
        probe_kernels(trace, &scheme, &blast::bcs(), RK, &mid, out);

        // Staging and fused steps on the mid-run state.
        let dev = DevicePatchSolver::new(device(), scheme, blast::bcs(), RK, *mid.geom());
        let upload = trace.probe("solver.device_backend.upload", 15, || {
            dev.upload(&mid).get()
        });
        let download = trace.probe("solver.device_backend.download", 15, || {
            std::hint::black_box(dev.download());
        });
        let mut dt = dev.stable_dt(CFL);
        let step = trace.probe("solver.device_backend.step", 15, || {
            dev.enqueue_step_scan(dt, CFL);
            dt = dev.next_dt();
        });
        out.set("solver.device_backend.upload_s", upload);
        out.set("solver.device_backend.download_s", download);
        out.set(
            "solver.device_backend.step.ns_per_zone",
            step * 1e9 / (N * N * RK.stages()) as f64,
        );

        // Queue round trip of a kernel that does nothing.
        let bare = Accelerator::new(device());
        let launch = trace.probe("runtime.device.launch_roundtrip", 50, || {
            bare.launch(|_| {}).get();
        });
        out.set("runtime.device.launch_roundtrip_ns", launch * 1e9);

        // Exact queue counts of whole solves, from the device's own
        // counters, and the modelled speed-up: host wall seconds over
        // device-clock seconds of solves taken side by side.
        const SOLVES: usize = 3;
        let reg = Arc::new(Registry::new());
        let mut speedups = Vec::new();
        for i in 0..SOLVES as u32 {
            let (_, host_s) = trace.span("device2d_blast.host_solve", i, || {
                let mut u = blast::initial_state(&self.0.inputs, &scheme);
                PatchSolver::new(scheme, blast::bcs(), RK, *u.geom())
                    .advance_to(&mut u, 0.0, T_END, CFL, None)
                    .expect("host solve");
            });
            let (clock_s, _) = trace.span("device2d_blast.counted_solve", i, || {
                let u = blast::initial_state(&self.0.inputs, &scheme);
                let dev = DevicePatchSolver::new(device(), scheme, blast::bcs(), RK, *u.geom());
                dev.set_metrics(reg.clone());
                dev.upload(&u).get();
                let clock0 = dev.device_time();
                dev.advance_to(0.0, T_END, CFL);
                dev.download();
                (dev.device_time() - clock0).as_secs_f64()
            });
            speedups.push(host_s / clock_s);
        }
        out.set("runtime.device.modeled_speedup", median(&speedups));
        let snap = reg.snapshot();
        let per_solve = |x: u64| x as f64 / SOLVES as f64;
        let launches = snap
            .histograms
            .get("phase.dev.launch")
            .map_or(0, |h| h.count);
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        out.set("runtime.device.launches", per_solve(launches));
        out.set(
            "runtime.device.h2d_bytes",
            per_solve(counter("dev.h2d.bytes")),
        );
        out.set(
            "runtime.device.d2h_bytes",
            per_solve(counter("dev.d2h.bytes")),
        );
    }
}
