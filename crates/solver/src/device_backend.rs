//! Patch integration staged through the simulated accelerator.
//!
//! This is the offload path a GPU port would take: the conserved field is
//! uploaded once, RK steps run as kernels on the device's command queue
//! (paying launch overhead per stage, using the device's compute gang),
//! and data is downloaded only when the host needs it. Because the kernels
//! are the same host functions, results are **bit-identical** to
//! [`crate::PatchSolver`] — asserted by the integration tests — while the
//! cost model reproduces the offload performance envelope (T3).

use crate::integrate::{PatchSolver, RkOrder};
use crate::scheme::Scheme;
use parking_lot::Mutex;
use rhrsc_grid::{BcSet, Field, PatchGeom};
use rhrsc_runtime::trace::{Tracer, Track};
use rhrsc_runtime::{Accelerator, AcceleratorConfig, BufId, Future, Registry};
use rhrsc_srhd::NCOMP;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

/// Thresholds of the device circuit breaker (see
/// [`DevicePatchSolver::set_breaker`]).
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Sliding window of recent device operations inspected for faults.
    pub window: usize,
    /// Faulted operations within the window that trip the breaker open.
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
    /// Healthy: work routes to the device, fault outcomes are windowed.
    Closed,
    /// Quarantined: work routes to the host pool for `cooldown` steps.
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
    /// Half-open probe steps executed on the device.
    pub probes: u64,
    /// Probes that succeeded and closed the breaker again.
    pub readmissions: u64,
    /// Steps served by the host fallback while the device was open.
    pub host_steps: u64,
    /// Faulted device operations observed (window + probes).
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

    /// Window a closed-state operation outcome; returns `true` when this
    /// outcome trips the breaker open.
    fn record(&mut self, failed: bool) -> bool {
        if failed {
            self.stats.device_failures += 1;
        }
        self.window.push_back(failed);
        if self.window.len() > self.cfg.window.max(1) {
            self.window.pop_front();
        }
        let failures = self.window.iter().filter(|&&f| f).count();
        if failures >= self.cfg.threshold.max(1) {
            self.state = BreakerState::Open;
            self.cooldown_left = self.cfg.cooldown.max(1);
            self.window.clear();
            self.stats.trips += 1;
            return true;
        }
        false
    }
}

/// A patch solver that executes on a simulated accelerator.
pub struct DevicePatchSolver {
    dev: Accelerator,
    geom: PatchGeom,
    buf_u: BufId,
    /// Device-resident Δt scalar fed by the Δt and fused step+scan
    /// kernels.
    buf_dt: BufId,
    /// Device-resident integrator scratch (primitives, residual, stage
    /// buffer), shared by every kernel. Kernels run one at a time on the
    /// queue thread, and the host only touches it while the breaker has
    /// the device quarantined, so the lock is never contended.
    solver: Arc<Mutex<PatchSolver>>,
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
    /// `cfg.window` device operations fault, [`advance_to`] quarantines the
    /// device and routes steps through the host pool; after `cfg.cooldown`
    /// host steps a half-open probe re-tests the device and re-admits it on
    /// success. Results stay bit-identical either way (the kernels are the
    /// same host functions) — only routing, cost and counters change.
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
    pub fn download(&self) -> Field {
        let data = self.dev.copy_to_host(self.buf_u).get();
        Field::from_vec(self.geom, NCOMP, data)
    }

    /// Enqueue one RK step of size `dt` as a device kernel. Returns the
    /// completion future; steps enqueued back-to-back pipeline on the
    /// device queue without host round-trips.
    pub fn enqueue_step(&self, dt: f64) -> Future<()> {
        let (solver, geom, buf) = (self.solver.clone(), self.geom, self.buf_u);
        self.dev.launch(move |ctx| {
            let mut u = Field::from_vec(geom, NCOMP, ctx.take(buf));
            solver
                .lock()
                .step(&mut u, dt, Some(ctx.gang()))
                .expect("device step failed");
            ctx.put(buf, u.into_vec());
        })
    }

    /// Fused step + next-Δt kernel: one launch advances the state by `dt`
    /// and leaves the stable Δt of the *updated* state — exactly what the
    /// next [`stable_dt`] call would return — in the device-resident Δt
    /// scalar (read it back with [`next_dt`]). Halves the per-step launch
    /// count of the two-kernel `stable_dt` + [`enqueue_step`] flow; the
    /// scan fills ghosts on a copy in the solver's stage buffer, so the
    /// staged bytes stay exactly the host path's post-step state, ghosts
    /// included.
    ///
    /// [`stable_dt`]: DevicePatchSolver::stable_dt
    /// [`next_dt`]: DevicePatchSolver::next_dt
    /// [`enqueue_step`]: DevicePatchSolver::enqueue_step
    pub fn enqueue_step_scan(&self, dt: f64, cfl: f64) -> Future<()> {
        let (solver, geom, buf, out) = (self.solver.clone(), self.geom, self.buf_u, self.buf_dt);
        self.dev.launch(move |ctx| {
            let mut u = Field::from_vec(geom, NCOMP, ctx.take(buf));
            let mut solver = solver.lock();
            solver
                .step(&mut u, dt, Some(ctx.gang()))
                .expect("device step failed");
            ctx.buf_mut(out)[0] = solver
                .stable_dt_of(&u, cfl)
                .expect("device recovery failed");
            ctx.put(buf, u.into_vec());
        })
    }

    /// Read back the device-resident Δt scalar: the stable Δt of the
    /// staged state as of the last [`enqueue_step_scan`] or [`stable_dt`]
    /// launch (one scalar copy; drains the queue up to that kernel).
    ///
    /// [`enqueue_step_scan`]: DevicePatchSolver::enqueue_step_scan
    /// [`stable_dt`]: DevicePatchSolver::stable_dt
    pub fn next_dt(&self) -> f64 {
        self.dev.copy_to_host(self.buf_dt).get()[0]
    }

    /// Compute the stable Δt on the device (one kernel + a scalar copy).
    pub fn stable_dt(&self, cfl: f64) -> f64 {
        let (solver, geom, buf, out) = (self.solver.clone(), self.geom, self.buf_u, self.buf_dt);
        self.dev.launch(move |ctx| {
            let mut u = Field::from_vec(geom, NCOMP, ctx.take(buf));
            ctx.buf_mut(out)[0] = solver
                .lock()
                .stable_dt(&mut u, cfl)
                .expect("device recovery failed");
            ctx.put(buf, u.into_vec());
        });
        self.next_dt()
    }

    /// Advance the device-resident state to `t_end` under CFL control;
    /// returns the number of steps. Kernel launches pipeline; only the Δt
    /// reduction synchronizes with the host (as in a real GPU code that
    /// reduces dt on-device and copies one scalar back).
    ///
    /// With a breaker armed (see [`set_breaker`]) each step's fault outcome
    /// is sampled; a tripped breaker downloads the state once and serves
    /// steps from the host pool until a half-open probe re-admits the
    /// device. The state is back on the device when this returns.
    ///
    /// [`set_breaker`]: DevicePatchSolver::set_breaker
    pub fn advance_to(&self, t: f64, t_end: f64, cfl: f64) -> usize {
        let mut t = t;
        let mut steps = 0;
        let Some(breaker) = &self.breaker else {
            // Fused fast path: after the priming Δt kernel, every step is
            // a single launch that also scans the next Δt into the
            // device-resident scalar, so the host's only per-step
            // synchronization is the one-scalar readback. The Δt
            // sequence and the staged bytes match the two-kernel flow
            // bitwise (asserted by the backend tests).
            let mut dt_next = self.stable_dt(cfl);
            while t < t_end - 1e-14 {
                let mut dt = dt_next;
                assert!(dt > 1e-14, "time step collapsed on device: {dt}");
                if t + dt > t_end {
                    dt = t_end - t;
                }
                self.enqueue_step_scan(dt, cfl);
                t += dt;
                steps += 1;
                if t < t_end - 1e-14 {
                    dt_next = self.next_dt();
                }
            }
            self.dev.sync();
            return steps;
        };

        // With a breaker armed, steps stay on the two-kernel flow: fault
        // outcomes are sampled per operation, and fusing the scan into
        // the step would blur which operation faulted.
        // Host-side quarantine state: populated on trip, drained on probe.
        let mut host_u: Option<Field> = None;
        while t < t_end - 1e-14 {
            let state = breaker.borrow().state;
            match state {
                BreakerState::Open => {
                    let u = host_u.get_or_insert_with(|| self.download_after_sync());
                    let dt = self
                        .solver
                        .lock()
                        .step_cfl(u, t, t_end, cfl, None)
                        .expect("host fallback step failed");
                    t += dt;
                    steps += 1;
                    let mut b = breaker.borrow_mut();
                    b.stats.host_steps += 1;
                    if b.cooldown_left > 0 {
                        b.cooldown_left -= 1;
                    }
                    let half_open = b.cooldown_left == 0;
                    if half_open {
                        b.state = BreakerState::HalfOpen;
                    }
                    drop(b);
                    self.bump("dev.breaker.host_steps", 1);
                    if half_open {
                        self.tinstant("dev.breaker.half_open", steps as f64);
                    }
                }
                BreakerState::HalfOpen => {
                    if let Some(u) = host_u.take() {
                        self.upload(&u).get();
                    }
                    let (dt, failed) = self.probed_step(t, t_end, cfl);
                    t += dt;
                    steps += 1;
                    let mut b = breaker.borrow_mut();
                    b.stats.probes += 1;
                    if failed {
                        b.stats.device_failures += 1;
                        b.state = BreakerState::Open;
                        b.cooldown_left = b.cfg.cooldown.max(1);
                        drop(b);
                        self.bump("dev.breaker.probe_failures", 1);
                        self.tinstant("dev.breaker.probe_failure", steps as f64);
                    } else {
                        b.state = BreakerState::Closed;
                        b.window.clear();
                        b.stats.readmissions += 1;
                        drop(b);
                        self.bump("dev.breaker.readmissions", 1);
                        self.tinstant("dev.breaker.readmit", steps as f64);
                    }
                }
                BreakerState::Closed => {
                    if let Some(u) = host_u.take() {
                        self.upload(&u).get();
                    }
                    let (dt, failed) = self.probed_step(t, t_end, cfl);
                    t += dt;
                    steps += 1;
                    if breaker.borrow_mut().record(failed) {
                        self.bump("dev.breaker.trips", 1);
                        self.tinstant("dev.breaker.trip", steps as f64);
                    }
                }
            }
        }
        // Leave the state device-resident regardless of where the last
        // step ran, so callers' download() contract is unchanged.
        if let Some(u) = host_u.take() {
            self.upload(&u).get();
        }
        self.dev.sync();
        steps
    }

    /// One step of the two-kernel flow from `t` (Δt scan, clamp to `t_end`,
    /// step launch): the Δt taken and whether either operation faulted.
    fn probed_step(&self, t: f64, t_end: f64, cfl: f64) -> (f64, bool) {
        let before = self.op_failures();
        let mut dt = self.stable_dt(cfl);
        assert!(dt > 1e-14, "time step collapsed on device: {dt}");
        if t + dt > t_end {
            dt = t_end - t;
        }
        self.enqueue_step(dt);
        (dt, self.op_failures() > before)
    }

    /// Drain the queue, then download — used when the breaker trips with
    /// enqueued work still in flight.
    fn download_after_sync(&self) -> Field {
        self.dev.sync();
        self.download()
    }

    /// Launch + copy fault count drawn so far (injector deltas around an
    /// operation reveal whether it faulted — draws happen at enqueue time).
    fn op_failures(&self) -> u64 {
        self.fault_stats()
            .map_or(0, |s| s.launches_failed + s.copies_failed)
    }

    fn bump(&self, name: &str, n: u64) {
        if let Some(m) = self.metrics.borrow().as_ref() {
            m.counter(name).add(n);
        }
    }

    /// Drop an instant on the device track, if a recorder is attached.
    fn tinstant(&self, name: &'static str, arg: f64) {
        if let Some((tr, tk)) = self.trace.borrow().as_ref() {
            tk.instant(name, tr.now_ns(), arg);
        }
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
    fn device_cfl_advance_matches_host() {
        let prob = Problem::sod();
        let scheme = Scheme::default_with_gamma(5.0 / 3.0);
        let geom = PatchGeom::line(48, 0.0, 1.0, 3);
        let mut u_host = init_cons(geom, &prob.eos, &|x| (prob.ic)(x));
        let u0 = u_host.clone();

        let mut host = PatchSolver::new(scheme, prob.bcs, RkOrder::Rk2, geom);
        let host_steps = host.advance_to(&mut u_host, 0.0, 0.1, 0.4, None).unwrap();

        let dev = DevicePatchSolver::new(fast_cfg(2), scheme, prob.bcs, RkOrder::Rk2, geom);
        dev.upload(&u0).get();
        let dev_steps = dev.advance_to(0.0, 0.1, 0.4);
        assert_eq!(host_steps, dev_steps);
        assert_eq!(u_host.raw(), dev.download().raw());
    }

    #[test]
    fn fused_step_scan_halves_launches_and_keeps_bits() {
        // The fused fast path must reproduce the two-kernel flow exactly
        // (same Δt sequence, same staged bytes, ghosts included) while
        // launching once per step plus the priming Δt kernel.
        let prob = Problem::sod();
        let scheme = Scheme::default_with_gamma(5.0 / 3.0);
        let geom = PatchGeom::line(48, 0.0, 1.0, 3);
        let u0 = init_cons(geom, &prob.eos, &|x| (prob.ic)(x));

        // Two-kernel reference flow, hand-rolled.
        let reference = DevicePatchSolver::new(fast_cfg(2), scheme, prob.bcs, RkOrder::Rk3, geom);
        reference.upload(&u0).get();
        let (mut t, t_end) = (0.0, 0.05);
        let mut ref_dts = Vec::new();
        while t < t_end - 1e-14 {
            let mut dt = reference.stable_dt(0.4);
            if t + dt > t_end {
                dt = t_end - t;
            }
            reference.enqueue_step(dt);
            ref_dts.push(dt);
            t += dt;
        }
        reference.dev.sync();

        let dev = DevicePatchSolver::new(fast_cfg(2), scheme, prob.bcs, RkOrder::Rk3, geom);
        let reg = std::sync::Arc::new(Registry::new());
        dev.set_metrics(reg.clone());
        dev.upload(&u0).get();
        let steps = dev.advance_to(0.0, t_end, 0.4);
        assert_eq!(steps, ref_dts.len());
        assert_eq!(
            dev.download().raw(),
            reference.download().raw(),
            "fused step+scan changed the staged bytes"
        );
        let launches = reg.snapshot().histograms["phase.dev.launch"].count;
        assert_eq!(
            launches as usize,
            steps + 1,
            "fused path must launch once per step plus the priming Δt kernel"
        );
    }
}
