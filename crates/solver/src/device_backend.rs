//! Patch integration staged through the simulated accelerator.
//!
//! This is the offload path a GPU port would take: the conserved field is
//! uploaded once, each RK step runs as one kernel on the device's command
//! queue (paying launch overhead per step, using the device's compute
//! gang), and data is downloaded only when the host needs it. Because the
//! kernel is the host's own [`PatchSolver::step_cfl`], results are
//! **bit-identical** to [`crate::PatchSolver`] — asserted by the exchange
//! matrix — while the cost model reproduces the offload performance
//! envelope (T3).

use crate::integrate::{PatchSolver, RkOrder};
use crate::scheme::{Scheme, SolverError};
use parking_lot::Mutex;
use rhrsc_grid::{BcSet, Field, PatchGeom};
use rhrsc_runtime::trace::{Tracer, Track};
use rhrsc_runtime::{Accelerator, AcceleratorConfig, BufId, Future, Registry, WorkStealingPool};
use rhrsc_srhd::NCOMP;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

/// Thresholds of the device circuit breaker (see
/// [`DevicePatchSolver::set_breaker`]).
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Sliding window of recent device steps inspected for faults.
    pub window: usize,
    /// Faulted steps within the window that trip the breaker open.
    pub threshold: usize,
    /// Host-routed steps served while open before a half-open probe
    /// re-tests the device.
    pub cooldown: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 8,
            threshold: 3,
            cooldown: 4,
        }
    }
}

/// Circuit-breaker state machine position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: steps run on the device, fault outcomes are windowed.
    Closed,
    /// Quarantined: steps run on the host pool for `cooldown` steps.
    Open,
    /// Probing: the next step runs on the device; success re-admits it,
    /// a fault re-opens the quarantine.
    HalfOpen,
}

/// Counters of the device circuit breaker.
#[derive(Debug, Clone, Copy, Default)]
pub struct BreakerStats {
    /// Times the breaker tripped open.
    pub trips: u64,
    /// Probes that succeeded and closed the breaker again.
    pub readmissions: u64,
    /// Steps served by the host fallback while the device was open.
    pub host_steps: u64,
    /// Faulted device steps observed (window + probes).
    pub device_failures: u64,
}

struct Breaker {
    cfg: BreakerConfig,
    state: BreakerState,
    window: VecDeque<bool>,
    cooldown_left: usize,
    stats: BreakerStats,
}

impl Breaker {
    fn new(cfg: BreakerConfig) -> Self {
        Breaker {
            cfg,
            state: BreakerState::Closed,
            window: VecDeque::new(),
            cooldown_left: 0,
            stats: BreakerStats::default(),
        }
    }

    /// Book one step — `failed` when its device launch faulted; a host
    /// step never does — and move the state machine: closed, the outcome
    /// is windowed and `threshold` faults trip the breaker open; open,
    /// host steps count down to a half-open probe; the probe re-admits
    /// the device or re-opens the quarantine. Returns the `dev.breaker.*`
    /// counter and trace instant the step raised.
    fn book(&mut self, failed: bool) -> (Option<&'static str>, Option<&'static str>) {
        self.stats.device_failures += failed as u64;
        match self.state {
            BreakerState::Open => {
                self.stats.host_steps += 1;
                self.cooldown_left -= 1;
                let half_open = self.cooldown_left == 0;
                if half_open {
                    self.state = BreakerState::HalfOpen;
                }
                let instant = half_open.then_some("dev.breaker.half_open");
                (Some("dev.breaker.host_steps"), instant)
            }
            BreakerState::HalfOpen if failed => {
                self.quarantine();
                (
                    Some("dev.breaker.probe_failures"),
                    Some("dev.breaker.probe_failure"),
                )
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                self.stats.readmissions += 1;
                (
                    Some("dev.breaker.readmissions"),
                    Some("dev.breaker.readmit"),
                )
            }
            BreakerState::Closed => {
                self.window.push_back(failed);
                if self.window.len() > self.cfg.window.max(1) {
                    self.window.pop_front();
                }
                if self.window.iter().filter(|&&f| f).count() < self.cfg.threshold.max(1) {
                    return (None, None);
                }
                self.quarantine();
                self.stats.trips += 1;
                (Some("dev.breaker.trips"), Some("dev.breaker.trip"))
            }
        }
    }

    /// Open for `cooldown` host steps with an empty window.
    fn quarantine(&mut self) {
        self.state = BreakerState::Open;
        self.cooldown_left = self.cfg.cooldown.max(1);
        self.window.clear();
    }
}

/// A patch solver that executes on a simulated accelerator.
pub struct DevicePatchSolver {
    dev: Accelerator,
    geom: PatchGeom,
    buf_u: BufId,
    /// Device-resident Δt scalar: what the last kernel returned.
    buf_dt: BufId,
    /// Device-resident integrator scratch (primitives, residual, stage
    /// buffer), shared by every kernel. Kernels run one at a time on the
    /// queue thread, and the host only touches it while the breaker has
    /// the device quarantined, so the lock is never contended.
    solver: Arc<Mutex<PatchSolver>>,
    /// The error of a kernel that failed, carried from the queue thread
    /// to the next readback, which raises it on the calling thread.
    failure: Arc<Mutex<Option<SolverError>>>,
    breaker: Option<RefCell<Breaker>>,
    metrics: RefCell<Option<Arc<Registry>>>,
    trace: RefCell<Option<(Arc<Tracer>, Arc<Track>)>>,
}

impl DevicePatchSolver {
    /// Bring up a device with `cfg` and allocate the state buffer for
    /// patches of geometry `geom`.
    pub fn new(
        cfg: AcceleratorConfig,
        scheme: Scheme,
        bcs: BcSet,
        rk: RkOrder,
        geom: PatchGeom,
    ) -> Self {
        assert!(geom.ng >= scheme.required_ghosts());
        let dev = Accelerator::new(cfg);
        let buf_u = dev.alloc(NCOMP * geom.len());
        let buf_dt = dev.alloc(1);
        DevicePatchSolver {
            dev,
            geom,
            buf_u,
            buf_dt,
            solver: Arc::new(Mutex::new(PatchSolver::new(scheme, bcs, rk, geom))),
            failure: Arc::new(Mutex::new(None)),
            breaker: None,
            metrics: RefCell::new(None),
            trace: RefCell::new(None),
        }
    }

    /// Patch geometry this solver was built for.
    pub fn geom(&self) -> &PatchGeom {
        &self.geom
    }

    /// Attach a fault injector to the underlying device: subsequent
    /// launches and copies may fail per the plan and fall back
    /// transparently (results stay bit-identical; only the cost model and
    /// the fault counters change).
    pub fn set_fault_injector(&mut self, injector: std::sync::Arc<rhrsc_runtime::FaultInjector>) {
        self.dev.set_fault_injector(injector);
    }

    /// Device-side fault counters, if an injector is attached.
    pub fn fault_stats(&self) -> Option<rhrsc_runtime::FaultStats> {
        self.dev.fault_stats()
    }

    /// Attach a metrics registry to the underlying device queue:
    /// staging and launch commands record their modeled durations into
    /// `phase.dev.*` histograms and `dev.*.bytes` counters (see
    /// [`rhrsc_runtime::Accelerator::set_metrics`]).
    pub fn set_metrics(&self, metrics: std::sync::Arc<rhrsc_runtime::Registry>) {
        self.dev.set_metrics(metrics.clone());
        *self.metrics.borrow_mut() = Some(metrics);
    }

    /// Attach a flight recorder: the device queue records `phase.dev.*`
    /// spans on a dedicated per-rank "device" track (tid 1), and the
    /// breaker state machine drops `dev.breaker.*` instants (trip,
    /// half-open probe, re-admission, host fallback) on the same track.
    pub fn set_trace(&self, tracer: Arc<Tracer>, pid: u32) {
        let track = tracer.track(pid, 1, "device");
        self.dev.set_trace(tracer.clone(), track.clone());
        *self.trace.borrow_mut() = Some((tracer, track));
    }

    /// Arm the device circuit breaker: once `cfg.threshold` of the last
    /// `cfg.window` device steps fault, [`advance_to`] quarantines the
    /// device and routes steps through the host pool; after `cfg.cooldown`
    /// host steps a half-open probe re-tests the device and re-admits it on
    /// success. Results stay bit-identical either way (the kernel is the
    /// host's step) — only routing, cost and counters change.
    ///
    /// [`advance_to`]: DevicePatchSolver::advance_to
    pub fn set_breaker(&mut self, cfg: BreakerConfig) {
        self.breaker = Some(RefCell::new(Breaker::new(cfg)));
    }

    /// Breaker counters, if [`set_breaker`] was called.
    ///
    /// [`set_breaker`]: DevicePatchSolver::set_breaker
    pub fn breaker_stats(&self) -> Option<BreakerStats> {
        self.breaker.as_ref().map(|b| b.borrow().stats)
    }

    /// Modeled device time consumed so far (see
    /// [`rhrsc_runtime::Accelerator::virtual_time`]).
    pub fn device_time(&self) -> std::time::Duration {
        self.dev.virtual_time()
    }

    /// Upload the conserved field to device memory (async; returns the
    /// completion future).
    pub fn upload(&self, u: &Field) -> Future<()> {
        assert_eq!(*u.geom(), self.geom);
        self.dev.copy_to_device(self.buf_u, u.raw())
    }

    /// Download the conserved field from device memory (blocking).
    ///
    /// # Panics
    /// If a kernel enqueued before it failed, with the solver's error.
    pub fn download(&self) -> Field {
        Field::from_vec(self.geom, NCOMP, self.read(self.buf_u))
    }

    /// Enqueue one RK step of size `dt` as a device kernel — the host's
    /// fixed-Δt [`PatchSolver::step`], for callers that time fixed-size
    /// steps (F9, T3). Returns the completion future; steps enqueued
    /// back-to-back pipeline on the device queue without host round-trips.
    pub fn enqueue_step(&self, dt: f64) -> Future<()> {
        self.run_kernel(move |solver, u, gang| solver.step(u, dt, Some(gang)).map(|()| dt))
    }

    /// Step by `dt`, then leave the stable Δt of the updated state in the
    /// Δt scalar (read it back with [`next_dt`]); the scan fills ghosts on
    /// a copy, so the staged bytes are the host's post-step state.
    ///
    /// Kept only because the benchmark's traced pass
    /// (`benchmark/src/workloads/device2d.rs`) times it; [`advance_to`]
    /// takes one [`PatchSolver::step_cfl`] kernel per step instead.
    ///
    /// [`next_dt`]: DevicePatchSolver::next_dt
    /// [`advance_to`]: DevicePatchSolver::advance_to
    pub fn enqueue_step_scan(&self, dt: f64, cfl: f64) -> Future<()> {
        self.run_kernel(move |solver, u, gang| {
            solver.step(u, dt, Some(gang))?;
            solver.stable_dt_of(u, cfl)
        })
    }

    /// Read back the device-resident Δt scalar — what the last kernel
    /// left there (one scalar copy; drains the queue up to that kernel).
    ///
    /// Kept only because the benchmark's traced pass calls it.
    ///
    /// # Panics
    /// If a kernel enqueued before it failed, with the solver's error.
    pub fn next_dt(&self) -> f64 {
        self.read(self.buf_dt)[0]
    }

    /// Compute the stable Δt on the device (one kernel + a scalar copy).
    ///
    /// Kept only because the benchmark's traced pass times it as the
    /// priming pre-pass of its hand-rolled loop; [`advance_to`] needs no
    /// Δt before its first step.
    ///
    /// [`advance_to`]: DevicePatchSolver::advance_to
    pub fn stable_dt(&self, cfl: f64) -> f64 {
        self.run_kernel(move |solver, u, _| solver.stable_dt(u, cfl));
        self.next_dt()
    }

    /// Advance the device-resident state to `t_end` under CFL control;
    /// returns the number of steps. Each step is one kernel —
    /// [`PatchSolver::step_cfl`] on the resident state, which leaves the
    /// Δt it took in the device-resident scalar — and the host's only
    /// per-step synchronization is reading that scalar back, as a GPU code
    /// reduces Δt on the device and copies one scalar back.
    ///
    /// With a breaker armed (see [`set_breaker`]) that launch is the
    /// sampled operation; a tripped breaker downloads the state once and
    /// runs the same `step_cfl` on the host until a half-open probe
    /// re-admits the device. The state is back on the device when this
    /// returns.
    ///
    /// # Panics
    /// If a step fails (a collapsed Δt, a failed recovery), with the
    /// solver's error, on the calling thread.
    ///
    /// [`set_breaker`]: DevicePatchSolver::set_breaker
    pub fn advance_to(&self, t: f64, t_end: f64, cfl: f64) -> usize {
        let (mut t, mut steps) = (t, 0);
        let launch_faults = || self.fault_stats().map_or(0, |s| s.launches_failed);
        // The state's host copy while the breaker has the device quarantined.
        let mut host_u: Option<Field> = None;
        while t < t_end - 1e-14 {
            let quarantined = self
                .breaker
                .as_ref()
                .is_some_and(|b| b.borrow().state == BreakerState::Open);
            let mut failed = false;
            if quarantined {
                let u = host_u.get_or_insert_with(|| self.download());
                t += self
                    .solver
                    .lock()
                    .step_cfl(u, t, t_end, cfl, None)
                    .unwrap_or_else(|e| panic!("host fallback step failed: {e}"));
            } else {
                if let Some(u) = host_u.take() {
                    self.upload(&u).get();
                }
                // Fault draws happen at enqueue time.
                let before = launch_faults();
                self.run_kernel(move |solver, u, gang| {
                    solver.step_cfl(u, t, t_end, cfl, Some(gang))
                });
                failed = launch_faults() > before;
                t += self.next_dt();
            }
            steps += 1;
            if let Some(breaker) = &self.breaker {
                let (counter, instant) = breaker.borrow_mut().book(failed);
                if let (Some(name), Some(m)) = (counter, &*self.metrics.borrow()) {
                    m.counter(name).add(1);
                }
                if let (Some(name), Some((tr, tk))) = (instant, &*self.trace.borrow()) {
                    tk.instant(name, tr.now_ns(), steps as f64);
                }
            }
        }
        if let Some(u) = host_u.take() {
            self.upload(&u).get();
        }
        steps
    }

    /// Launch `kernel` on the device-resident state and solver scratch —
    /// the one place a kernel is spelled. The Δt it returns lands in the
    /// Δt scalar; its error is kept for the next readback to raise, so a
    /// failed step neither kills the queue thread nor loses its
    /// diagnostic.
    fn run_kernel<K>(&self, kernel: K) -> Future<()>
    where
        K: FnOnce(&mut PatchSolver, &mut Field, &WorkStealingPool) -> Result<f64, SolverError>,
        K: Send + 'static,
    {
        let (solver, failure) = (self.solver.clone(), self.failure.clone());
        let (geom, buf, out) = (self.geom, self.buf_u, self.buf_dt);
        self.dev.launch(move |ctx| {
            let mut u = Field::from_vec(geom, NCOMP, ctx.take(buf));
            let result = kernel(&mut solver.lock(), &mut u, ctx.gang());
            match result {
                Ok(dt) => ctx.buf_mut(out)[0] = dt,
                Err(e) => *failure.lock() = Some(e),
            }
            ctx.put(buf, u.into_vec());
        })
    }

    /// Copy a device buffer back (drains the queue up to the copy); a
    /// kernel that failed before it panics here with its error.
    fn read(&self, buf: BufId) -> Vec<f64> {
        let data = self.dev.copy_to_host(buf).get();
        if let Some(e) = self.failure.lock().take() {
            panic!("device step failed: {e}");
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::Problem;
    use crate::scheme::init_cons;
    use rhrsc_grid::bc;
    use std::time::Duration;

    fn fast_cfg(threads: usize) -> AcceleratorConfig {
        AcceleratorConfig {
            compute_threads: threads,
            launch_overhead: Duration::ZERO,
            copy_bandwidth: f64::INFINITY,
            throughput_multiplier: 1.0,
            name: "test-dev".to_string(),
        }
    }

    #[test]
    fn upload_download_roundtrip() {
        let prob = Problem::sod();
        let scheme = Scheme::default_with_gamma(5.0 / 3.0);
        let geom = PatchGeom::line(32, 0.0, 1.0, 3);
        let u = init_cons(geom, &prob.eos, &|x| (prob.ic)(x));
        let dev = DevicePatchSolver::new(fast_cfg(2), scheme, prob.bcs, RkOrder::Rk2, geom);
        dev.upload(&u).get();
        assert_eq!(dev.download().raw(), u.raw());
    }

    #[test]
    fn device_step_bitwise_matches_host() {
        let prob = Problem::sod();
        let scheme = Scheme::default_with_gamma(5.0 / 3.0);
        let geom = PatchGeom::line(64, 0.0, 1.0, 3);
        let mut u_host = init_cons(geom, &prob.eos, &|x| (prob.ic)(x));
        let u_dev0 = u_host.clone();

        let mut host = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
        for _ in 0..5 {
            host.step(&mut u_host, 1e-3, None).unwrap();
        }

        let dev = DevicePatchSolver::new(fast_cfg(3), scheme, prob.bcs, RkOrder::Rk3, geom);
        dev.upload(&u_dev0).get();
        for _ in 0..5 {
            dev.enqueue_step(1e-3);
        }
        let u_dev = dev.download();
        assert_eq!(u_host.raw(), u_dev.raw(), "device must be bit-identical");
    }

    #[test]
    fn two_devices_advance_independent_patches_concurrently() {
        // A heterogeneous node with two accelerators: each owns a patch;
        // steps enqueue without host round-trips and both match the host.
        let scheme = Scheme::default_with_gamma(5.0 / 3.0);
        let bcs = bc::uniform(rhrsc_grid::Bc::Periodic);
        let mk_ic = |phase: f64| {
            move |x: [f64; 3]| {
                rhrsc_srhd::Prim::new_1d(
                    1.0 + 0.3 * (2.0 * std::f64::consts::PI * x[0] + phase).sin(),
                    0.4,
                    1.0,
                )
            }
        };
        let geom = PatchGeom::line(64, 0.0, 1.0, scheme.required_ghosts());
        let devs: Vec<DevicePatchSolver> = (0..2)
            .map(|_| DevicePatchSolver::new(fast_cfg(2), scheme, bcs, RkOrder::Rk2, geom))
            .collect();
        let mut hosts = Vec::new();
        for (d, dev) in devs.iter().enumerate() {
            let ic = mk_ic(d as f64);
            let u0 = init_cons(geom, &scheme.eos, &ic);
            dev.upload(&u0).get();
            // Enqueue on both devices before waiting on either: the two
            // command queues run concurrently.
            for _ in 0..4 {
                dev.enqueue_step(1e-3);
            }
            hosts.push(u0);
        }
        for (dev, u0) in devs.iter().zip(&mut hosts) {
            let mut host = PatchSolver::new(scheme, bcs, RkOrder::Rk2, geom);
            for _ in 0..4 {
                host.step(u0, 1e-3, None).unwrap();
            }
            assert_eq!(dev.download().raw(), u0.raw());
        }
    }

    #[test]
    fn breaker_quarantines_faulty_device_and_readmits_after_recovery() {
        use rhrsc_runtime::{FaultInjector, FaultPlan};

        let prob = Problem::sod();
        let scheme = Scheme::default_with_gamma(5.0 / 3.0);
        let geom = PatchGeom::line(48, 0.0, 1.0, 3);
        let u0 = init_cons(geom, &prob.eos, &|x| (prob.ic)(x));

        // Host reference over the full window.
        let mut u_ref = u0.clone();
        let mut host = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk2, geom);
        host.advance_to(&mut u_ref, 0.0, 0.04, 0.4, None).unwrap();
        host.advance_to(&mut u_ref, 0.04, 0.08, 0.4, None).unwrap();

        let mut dev = DevicePatchSolver::new(fast_cfg(2), scheme, prob.bcs, RkOrder::Rk2, geom);
        dev.set_breaker(BreakerConfig {
            window: 4,
            threshold: 2,
            cooldown: 2,
        });
        // Every launch faults: the breaker must trip and quarantine the
        // device behind host-pool routing (probes keep failing, so it
        // stays quarantined).
        let plan = FaultPlan {
            launch_fail_prob: 1.0,
            ..FaultPlan::disabled()
        };
        dev.set_fault_injector(std::sync::Arc::new(FaultInjector::new(plan, 0)));
        dev.upload(&u0).get();
        dev.advance_to(0.0, 0.04, 0.4);

        let stats = dev.breaker_stats().unwrap();
        assert!(stats.trips >= 1, "breaker never tripped: {stats:?}");
        assert!(stats.host_steps > 0, "no host fallback steps: {stats:?}");
        assert_eq!(stats.readmissions, 0, "faulty device was re-admitted");

        // Device "repaired": probes now succeed, the breaker half-opens
        // and re-admits it, and the run stays bit-identical throughout.
        dev.set_fault_injector(std::sync::Arc::new(FaultInjector::new(
            FaultPlan::disabled(),
            0,
        )));
        dev.advance_to(0.04, 0.08, 0.4);

        let stats = dev.breaker_stats().unwrap();
        assert!(
            stats.readmissions >= 1,
            "probe never re-admitted: {stats:?}"
        );
        assert_eq!(
            dev.breaker.as_ref().unwrap().borrow().state,
            BreakerState::Closed
        );
        assert_eq!(
            dev.download().raw(),
            u_ref.raw(),
            "breaker routing must stay bit-identical to the host path"
        );
    }

    #[test]
    fn one_launch_per_step_and_host_bytes() {
        // Each step is one kernel — no priming Δt launch — and the staged
        // bytes, ghosts included, are the host advance's.
        let prob = Problem::sod();
        let scheme = Scheme::default_with_gamma(5.0 / 3.0);
        let geom = PatchGeom::line(48, 0.0, 1.0, 3);
        let u0 = init_cons(geom, &prob.eos, &|x| (prob.ic)(x));
        let mut u_host = u0.clone();
        let mut host = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk3, geom);
        let host_steps = host.advance_to(&mut u_host, 0.0, 0.05, 0.4, None).unwrap();

        let dev = DevicePatchSolver::new(fast_cfg(2), scheme, prob.bcs, RkOrder::Rk3, geom);
        let reg = std::sync::Arc::new(Registry::new());
        dev.set_metrics(reg.clone());
        dev.upload(&u0).get();
        let steps = dev.advance_to(0.0, 0.05, 0.4);
        assert_eq!(steps, host_steps);
        assert_eq!(dev.download().raw(), u_host.raw());
        let launches = reg.snapshot().histograms["phase.dev.launch"].count;
        assert_eq!(launches as usize, steps, "one launch per step");
    }

    #[test]
    fn a_collapsed_step_panics_on_the_calling_thread() {
        // At cfl = 0 the first step collapses inside the kernel. The
        // solver's diagnostic must reach the caller — not a promise
        // dropped by a dead queue thread — with or without the breaker,
        // and nothing may hang.
        for armed in [false, true] {
            let (done, finished) = std::sync::mpsc::channel::<()>();
            let solve = std::thread::spawn(move || {
                let _done = done; // dropped when the solve ends, panicking or not
                let prob = Problem::sod();
                let scheme = Scheme::default_with_gamma(5.0 / 3.0);
                let geom = PatchGeom::line(32, 0.0, 1.0, 3);
                let u0 = init_cons(geom, &prob.eos, &|x| (prob.ic)(x));
                let mut dev =
                    DevicePatchSolver::new(fast_cfg(1), scheme, prob.bcs, RkOrder::Rk3, geom);
                if armed {
                    dev.set_breaker(BreakerConfig::default());
                }
                dev.upload(&u0).get();
                dev.advance_to(0.0, 0.1, 0.0)
            });
            let ended = finished.recv_timeout(Duration::from_secs(60));
            assert!(
                ended == Err(std::sync::mpsc::RecvTimeoutError::Disconnected),
                "breaker {armed}: advance_to hung on a collapsed step"
            );
            let msg = rhrsc_runtime::panic_msg(solve.join().expect_err("a collapse must panic"));
            assert!(msg.contains("collapsed"), "breaker {armed}: {msg}");
        }
    }
}
