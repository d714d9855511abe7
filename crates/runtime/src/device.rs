//! Simulated accelerator device.
//!
//! The paper's heterogeneous nodes offload HRSC kernels to GPUs. No GPU is
//! available here, so this module provides the closest synthetic
//! equivalent that exercises the same *code structure* a GPU port needs:
//!
//! * **explicit device memory** — kernels only see [`BufId`]-addressed
//!   buffers that live on the device; host data must be staged in/out,
//! * **an in-order command queue** — allocations, copies, launches and
//!   fences execute asynchronously on a dedicated device thread, with
//!   completion reported through futures (stream/event semantics),
//! * **a performance envelope** — each kernel launch pays a configurable
//!   latency (kernel-launch overhead) and host↔device copies pay a
//!   modeled bandwidth cost, while kernels execute on an internal compute
//!   gang of `compute_threads` workers.
//!
//! Because the kernels are the *real* SRHD kernels running on real data,
//! device results are bit-identical to the host path — which the
//! integration tests assert — while the throughput/overhead trade-off
//! (crossover tile size, T3) matches the shape of a genuine offload
//! device.

use crate::fault::FaultInjector;
use crate::future::{promise, Future, Promise};
use crate::metrics::Registry;
use crate::pool::WorkStealingPool;
use crate::spin_for;
use crate::trace::{Tracer, Track};
use crossbeam_channel::{unbounded, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Opaque handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(u64);

/// Tuning knobs of the simulated device.
#[derive(Debug, Clone)]
pub struct AcceleratorConfig {
    /// Width of the device's internal compute gang.
    pub compute_threads: usize,
    /// Fixed cost charged per kernel launch (models driver/queue latency).
    pub launch_overhead: Duration,
    /// Host↔device copy bandwidth in bytes/second (`f64::INFINITY` for
    /// free copies).
    pub copy_bandwidth: f64,
    /// Modeled device speed relative to the executing host threads. The
    /// device's *virtual clock* charges `kernel_wall_time / multiplier`
    /// per launch (plus the launch overhead), so a value of 8 models an
    /// accelerator whose kernels run 8× faster than the host gang that
    /// physically executes them. Physical execution time is unchanged —
    /// results stay bit-identical; only [`Accelerator::virtual_time`]
    /// reflects the model.
    pub throughput_multiplier: f64,
    /// Device name for benchmark tables.
    pub name: String,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig {
            compute_threads: 4,
            launch_overhead: Duration::from_micros(20),
            copy_bandwidth: 8e9, // ~PCIe3 x8
            throughput_multiplier: 1.0,
            name: "sim-accel".to_string(),
        }
    }
}

/// Kernel execution context: device buffers plus the compute gang.
pub struct DeviceCtx<'a> {
    buffers: &'a mut HashMap<u64, Vec<f64>>,
    gang: &'a WorkStealingPool,
}

impl DeviceCtx<'_> {
    /// Borrow a buffer mutably.
    ///
    /// # Panics
    /// Panics on an unknown (or currently taken) buffer id.
    pub fn buf_mut(&mut self, id: BufId) -> &mut [f64] {
        self.buffers
            .get_mut(&id.0)
            .unwrap_or_else(|| panic!("unknown device buffer {id:?}"))
    }

    /// Temporarily remove a buffer from the arena (take/put lets a kernel
    /// hold one buffer mutably while reading others).
    pub fn take(&mut self, id: BufId) -> Vec<f64> {
        self.buffers
            .remove(&id.0)
            .unwrap_or_else(|| panic!("unknown device buffer {id:?}"))
    }

    /// Return a buffer taken with [`DeviceCtx::take`].
    pub fn put(&mut self, id: BufId, data: Vec<f64>) {
        self.buffers.insert(id.0, data);
    }

    /// The device's internal compute gang (its `par_for` is the device's
    /// "grid launch").
    pub fn gang(&self) -> &WorkStealingPool {
        self.gang
    }
}

type Kernel = Box<dyn FnOnce(&mut DeviceCtx) + Send + 'static>;

enum Command {
    Alloc(u64, usize),
    /// Bool flags a fault-injected copy: the transfer cost is paid twice
    /// (one failed attempt + the retry).
    H2D(u64, Vec<f64>, Promise<()>, bool),
    D2H(u64, Promise<Vec<f64>>),
    /// Bool flags a fault-injected launch: the kernel still executes (the
    /// transparent host fallback), but its time is charged at host speed
    /// instead of through the throughput multiplier.
    Launch(Kernel, Promise<()>, bool),
    Fence(Promise<()>),
    SetMetrics(Arc<Registry>),
    SetTrace(Arc<Tracer>, Arc<Track>),
    Shutdown,
}

/// Host-side handle to a simulated accelerator.
pub struct Accelerator {
    tx: Sender<Command>,
    next_id: AtomicU64,
    cfg: AcceleratorConfig,
    /// Modeled device-time consumed, in nanoseconds.
    vclock_ns: std::sync::Arc<AtomicU64>,
    worker: Option<JoinHandle<()>>,
    /// Optional fault injector (failed launches fall back to host-speed
    /// execution, failed copies are retried — both transparently).
    injector: Option<Arc<FaultInjector>>,
}

impl Accelerator {
    /// Bring up a device with the given configuration.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        let (tx, rx) = unbounded::<Command>();
        let dev_cfg = cfg.clone();
        let vclock_ns = std::sync::Arc::new(AtomicU64::new(0));
        let vclock = vclock_ns.clone();
        let worker = std::thread::Builder::new()
            .name(format!("{}-queue", cfg.name))
            .spawn(move || {
                let gang = WorkStealingPool::new(dev_cfg.compute_threads.max(1));
                let mut buffers: HashMap<u64, Vec<f64>> = HashMap::new();
                let mut metrics: Option<Arc<Registry>> = None;
                let mut trace: Option<(Arc<Tracer>, Arc<Track>)> = None;
                // Record a *modeled* duration (what the virtual clock was
                // charged) into a phase histogram.
                let record = |metrics: &Option<Arc<Registry>>, name: &str, secs: f64| {
                    if let Some(m) = metrics {
                        m.histogram(name).record((secs * 1e9) as u64);
                    }
                };
                // Flight-recorder spans cover the *physical* queue-thread
                // occupancy (wall clock); the modeled charge rides along
                // as the span argument.
                let tstart = |trace: &Option<(Arc<Tracer>, Arc<Track>)>| {
                    trace.as_ref().map(|(tr, _)| tr.now_ns())
                };
                let tspan = |trace: &Option<(Arc<Tracer>, Arc<Track>)>,
                             name: &'static str,
                             t0: Option<u64>,
                             secs: f64| {
                    if let (Some((tr, tk)), Some(t0)) = (trace, t0) {
                        tk.span_arg(name, t0, tr.now_ns(), secs);
                    }
                };
                for cmd in rx {
                    match cmd {
                        Command::Alloc(id, len) => {
                            buffers.insert(id, vec![0.0; len]);
                        }
                        Command::H2D(id, data, done, faulted) => {
                            let t0 = tstart(&trace);
                            charge_copy(&dev_cfg, data.len());
                            let mut secs = copy_secs(&dev_cfg, data.len());
                            if faulted {
                                // The failed first attempt paid the link
                                // cost too before the retry succeeded.
                                secs *= 2.0;
                            }
                            charge_vclock(&vclock, secs);
                            record(&metrics, "phase.dev.h2d", secs);
                            tspan(&trace, "phase.dev.h2d", t0, secs);
                            if let Some(m) = &metrics {
                                m.counter("dev.h2d.bytes")
                                    .add(std::mem::size_of_val(&data[..]) as u64);
                            }
                            let buf = buffers.get_mut(&id).expect("H2D into unallocated buffer");
                            assert_eq!(buf.len(), data.len(), "H2D size mismatch");
                            buf.copy_from_slice(&data);
                            done.set(());
                        }
                        Command::D2H(id, done) => {
                            let t0 = tstart(&trace);
                            let buf = buffers.get(&id).expect("D2H from unallocated buffer");
                            charge_copy(&dev_cfg, buf.len());
                            let secs = copy_secs(&dev_cfg, buf.len());
                            charge_vclock(&vclock, secs);
                            record(&metrics, "phase.dev.d2h", secs);
                            tspan(&trace, "phase.dev.d2h", t0, secs);
                            if let Some(m) = &metrics {
                                m.counter("dev.d2h.bytes")
                                    .add(std::mem::size_of_val(&buf[..]) as u64);
                            }
                            done.set(buf.clone());
                        }
                        Command::Launch(kernel, done, host_fallback) => {
                            let lt0 = tstart(&trace);
                            spin_for(dev_cfg.launch_overhead);
                            let mut ctx = DeviceCtx {
                                buffers: &mut buffers,
                                gang: &gang,
                            };
                            let t0 = std::time::Instant::now();
                            kernel(&mut ctx);
                            // A failed launch re-runs on the host: same
                            // kernel, same data (results stay
                            // bit-identical), but no accelerator speedup.
                            let multiplier = if host_fallback {
                                1.0
                            } else {
                                dev_cfg.throughput_multiplier.max(1e-9)
                            };
                            let secs = dev_cfg.launch_overhead.as_secs_f64()
                                + t0.elapsed().as_secs_f64() / multiplier;
                            charge_vclock(&vclock, secs);
                            record(&metrics, "phase.dev.launch", secs);
                            tspan(&trace, "phase.dev.launch", lt0, secs);
                            if host_fallback {
                                if let Some((tr, tk)) = &trace {
                                    tk.instant("dev.launch.host_fallback", tr.now_ns(), 1.0);
                                }
                            }
                            done.set(());
                        }
                        Command::Fence(done) => done.set(()),
                        Command::SetMetrics(m) => metrics = Some(m),
                        Command::SetTrace(tr, tk) => trace = Some((tr, tk)),
                        Command::Shutdown => break,
                    }
                }
            })
            .expect("failed to spawn device thread");
        Accelerator {
            tx,
            next_id: AtomicU64::new(1),
            cfg,
            vclock_ns,
            worker: Some(worker),
            injector: None,
        }
    }

    /// Attach a fault injector: subsequent launches/copies may be failed
    /// according to its plan, with transparent recovery (host-fallback
    /// execution and copy retries). Results are unaffected; only the
    /// virtual clock and the injector's counters change.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// The attached fault injector's counters, if any.
    pub fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        self.injector.as_ref().map(|i| i.stats())
    }

    /// Attach a metrics registry. Subsequent queue commands record their
    /// *modeled* durations — the same values charged to the virtual
    /// clock — into `phase.dev.h2d` / `phase.dev.d2h` / `phase.dev.launch`
    /// histograms, and staging volume into `dev.{h2d,d2h}.bytes`
    /// counters. Takes effect in queue order, like every other command.
    pub fn set_metrics(&self, metrics: Arc<Registry>) {
        self.tx
            .send(Command::SetMetrics(metrics))
            .expect("device queue closed");
    }

    /// Attach a flight-recorder track: subsequent queue commands record
    /// wall-clock spans of the queue thread's occupancy (`phase.dev.*`),
    /// with the modeled virtual-clock charge carried as the span
    /// argument, plus a `dev.launch.host_fallback` instant per
    /// fault-injected launch. Takes effect in queue order.
    pub fn set_trace(&self, tracer: Arc<Tracer>, track: Arc<Track>) {
        self.tx
            .send(Command::SetTrace(tracer, track))
            .expect("device queue closed");
    }

    /// Modeled device time consumed so far (launch overheads + kernel
    /// times scaled by the throughput multiplier + copy times). This is
    /// what a timer on a real accelerator of the configured speed would
    /// read; compare against host wall time for offload studies (T3).
    pub fn virtual_time(&self) -> Duration {
        Duration::from_nanos(self.vclock_ns.load(Ordering::Relaxed))
    }

    /// Device configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Allocate a zero-initialized device buffer of `len` doubles.
    pub fn alloc(&self, len: usize) -> BufId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send(Command::Alloc(id, len))
            .expect("device queue closed");
        BufId(id)
    }

    /// Asynchronously copy host data into a device buffer. An injected
    /// copy fault costs one failed attempt (charged to the virtual clock)
    /// before the transparent retry.
    pub fn copy_to_device(&self, id: BufId, data: &[f64]) -> Future<()> {
        let faulted = self.injector.as_ref().is_some_and(|i| i.should_fail_copy());
        let (p, f) = promise();
        self.tx
            .send(Command::H2D(id.0, data.to_vec(), p, faulted))
            .expect("device queue closed");
        f
    }

    /// Asynchronously copy a device buffer back to the host.
    pub fn copy_to_host(&self, id: BufId) -> Future<Vec<f64>> {
        let (p, f) = promise();
        self.tx
            .send(Command::D2H(id.0, p))
            .expect("device queue closed");
        f
    }

    /// Asynchronously launch a kernel on the device's command queue. An
    /// injected launch fault executes the kernel anyway — the transparent
    /// host fallback — but at host speed on the virtual clock.
    pub fn launch(&self, kernel: impl FnOnce(&mut DeviceCtx) + Send + 'static) -> Future<()> {
        let host_fallback = self
            .injector
            .as_ref()
            .is_some_and(|i| i.should_fail_launch());
        let (p, f) = promise();
        self.tx
            .send(Command::Launch(Box::new(kernel), p, host_fallback))
            .expect("device queue closed");
        f
    }

    /// Block until every previously enqueued command has completed.
    pub fn sync(&self) {
        let (p, f) = promise();
        self.tx
            .send(Command::Fence(p))
            .expect("device queue closed");
        f.get();
    }
}

impl Drop for Accelerator {
    fn drop(&mut self) {
        let _ = self.tx.send(Command::Shutdown);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

/// Model the time cost of moving `len` doubles across the host↔device link.
fn charge_copy(cfg: &AcceleratorConfig, len: usize) {
    let secs = copy_secs(cfg, len);
    if secs > 0.0 {
        spin_for(Duration::from_secs_f64(secs));
    }
}

/// Modeled transfer time of `len` doubles, in seconds.
fn copy_secs(cfg: &AcceleratorConfig, len: usize) -> f64 {
    if cfg.copy_bandwidth.is_finite() && cfg.copy_bandwidth > 0.0 {
        (len * std::mem::size_of::<f64>()) as f64 / cfg.copy_bandwidth
    } else {
        0.0
    }
}

/// Accumulate seconds onto the device's virtual clock.
fn charge_vclock(clock: &AtomicU64, secs: f64) {
    clock.fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> AcceleratorConfig {
        AcceleratorConfig {
            compute_threads: 2,
            launch_overhead: Duration::ZERO,
            copy_bandwidth: f64::INFINITY,
            throughput_multiplier: 1.0,
            name: "test-accel".to_string(),
        }
    }

    #[test]
    fn h2d_d2h_roundtrip() {
        let dev = Accelerator::new(fast_cfg());
        let buf = dev.alloc(5);
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        dev.copy_to_device(buf, &data).get();
        assert_eq!(dev.copy_to_host(buf).get(), data);
    }

    #[test]
    fn kernel_transforms_buffer() {
        let dev = Accelerator::new(fast_cfg());
        let buf = dev.alloc(100);
        dev.copy_to_device(buf, &vec![2.0; 100]).get();
        dev.launch(move |ctx| {
            let b = ctx.buf_mut(buf);
            for v in b.iter_mut() {
                *v *= 3.0;
            }
        })
        .get();
        assert!(dev.copy_to_host(buf).get().iter().all(|&v| v == 6.0));
    }

    #[test]
    fn gang_parallel_kernel() {
        let dev = Accelerator::new(fast_cfg());
        let n = 1024;
        let src = dev.alloc(n);
        let dst = dev.alloc(n);
        let input: Vec<f64> = (0..n).map(|i| i as f64).collect();
        dev.copy_to_device(src, &input).get();
        dev.launch(move |ctx| {
            let a = ctx.take(src);
            let mut b = ctx.take(dst);
            // Gang-parallel elementwise op over disjoint chunks.
            {
                let cells: Vec<_> = b.chunks_mut(64).collect();
                let cells: Vec<parking_lot::Mutex<&mut [f64]>> =
                    cells.into_iter().map(parking_lot::Mutex::new).collect();
                ctx.gang().par_for(cells.len(), 1, &|c| {
                    let mut chunk = cells[c].lock();
                    let off = c * 64;
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = a[off + i] * a[off + i];
                    }
                });
            }
            ctx.put(src, a);
            ctx.put(dst, b);
        })
        .get();
        let out = dev.copy_to_host(dst).get();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as f64);
        }
    }

    #[test]
    fn commands_execute_in_order_without_waiting() {
        // Enqueue H2D, two kernels, D2H without waiting in between; the
        // in-order queue must produce the composed result.
        let dev = Accelerator::new(fast_cfg());
        let buf = dev.alloc(4);
        let _ = dev.copy_to_device(buf, &[1.0, 1.0, 1.0, 1.0]);
        let _ = dev.launch(move |ctx| {
            for v in ctx.buf_mut(buf) {
                *v += 1.0;
            }
        });
        let _ = dev.launch(move |ctx| {
            for v in ctx.buf_mut(buf) {
                *v *= 10.0;
            }
        });
        assert_eq!(dev.copy_to_host(buf).get(), vec![20.0; 4]);
    }

    #[test]
    fn sync_is_a_full_fence() {
        let dev = Accelerator::new(fast_cfg());
        let buf = dev.alloc(1);
        let done = dev.launch(move |ctx| {
            ctx.buf_mut(buf)[0] = 42.0;
        });
        dev.sync();
        // After sync the earlier launch must have completed.
        assert!(done.is_ready());
    }

    #[test]
    fn launch_overhead_is_charged() {
        let mut cfg = fast_cfg();
        cfg.launch_overhead = Duration::from_millis(5);
        let dev = Accelerator::new(cfg);
        let buf = dev.alloc(1);
        let t0 = std::time::Instant::now();
        for _ in 0..4 {
            dev.launch(move |ctx| {
                ctx.buf_mut(buf)[0] += 1.0;
            });
        }
        dev.sync();
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "4 launches at 5ms overhead should take >= 20ms, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn buffers_start_zeroed() {
        let dev = Accelerator::new(fast_cfg());
        let b = dev.alloc(8);
        assert_eq!(dev.copy_to_host(b).get(), vec![0.0; 8]);
    }

    #[test]
    fn metrics_record_staging_and_launch() {
        let mut cfg = fast_cfg();
        cfg.copy_bandwidth = 8e9;
        cfg.launch_overhead = Duration::from_micros(100);
        let dev = Accelerator::new(cfg);
        let reg = Arc::new(Registry::new());
        dev.set_metrics(reg.clone());
        let buf = dev.alloc(1000);
        dev.copy_to_device(buf, &vec![1.0; 1000]).get();
        dev.launch(move |ctx| {
            for v in ctx.buf_mut(buf) {
                *v += 1.0;
            }
        })
        .get();
        let back = dev.copy_to_host(buf).get();
        assert!(back.iter().all(|&v| v == 2.0));
        let snap = reg.snapshot();
        assert_eq!(snap.counters["dev.h2d.bytes"], 8000);
        assert_eq!(snap.counters["dev.d2h.bytes"], 8000);
        assert_eq!(snap.histograms["phase.dev.h2d"].count, 1);
        assert_eq!(snap.histograms["phase.dev.d2h"].count, 1);
        // 8000 B at 8 GB/s = 1 µs modeled copy time.
        assert!(snap.histograms["phase.dev.h2d"].sum >= 900);
        // The launch charge includes the 100 µs overhead.
        assert!(snap.histograms["phase.dev.launch"].sum >= 100_000);
        // Modeled staging time matches the virtual clock's copy charges.
        let copies = snap.phase_secs("phase.dev.h2d") + snap.phase_secs("phase.dev.d2h");
        assert!(copies <= dev.virtual_time().as_secs_f64());
    }

    #[test]
    fn injected_faults_are_transparent() {
        use crate::fault::{FaultInjector, FaultPlan};
        // Every launch fails, every copy fails: results must still be
        // exactly what a healthy device produces, with the faults counted.
        let mut dev = Accelerator::new(fast_cfg());
        let plan = FaultPlan {
            seed: 11,
            launch_fail_prob: 1.0,
            copy_fail_prob: 1.0,
            ..FaultPlan::disabled()
        };
        dev.set_fault_injector(Arc::new(FaultInjector::new(plan, 0)));
        let buf = dev.alloc(16);
        dev.copy_to_device(buf, &[3.0; 16]).get();
        dev.launch(move |ctx| {
            for v in ctx.buf_mut(buf) {
                *v += 1.0;
            }
        })
        .get();
        assert_eq!(dev.copy_to_host(buf).get(), vec![4.0; 16]);
        let st = dev.fault_stats().unwrap();
        assert_eq!(st.launches_failed, 1);
        assert_eq!(st.copies_failed, 1);
    }

    #[test]
    fn launch_fallback_charges_host_speed() {
        use crate::fault::{FaultInjector, FaultPlan};
        // A failed launch loses the accelerator speedup: its virtual-time
        // charge must exceed a healthy launch's by about the multiplier.
        let mut cfg = fast_cfg();
        cfg.throughput_multiplier = 16.0;
        let busy = || {
            move |ctx: &mut DeviceCtx| {
                let b = ctx.buf_mut(BufId(1));
                for _ in 0..2000 {
                    for v in b.iter_mut() {
                        *v = (*v + 1.0).sin();
                    }
                }
            }
        };
        let healthy = Accelerator::new(cfg.clone());
        let hb = healthy.alloc(512);
        assert_eq!(hb, BufId(1));
        healthy.launch(busy()).get();
        let t_healthy = healthy.virtual_time();

        let mut faulty = Accelerator::new(cfg);
        let plan = FaultPlan {
            seed: 1,
            launch_fail_prob: 1.0,
            ..FaultPlan::disabled()
        };
        faulty.set_fault_injector(Arc::new(FaultInjector::new(plan, 0)));
        let fb = faulty.alloc(512);
        assert_eq!(fb, BufId(1));
        faulty.launch(busy()).get();
        let t_faulty = faulty.virtual_time();
        assert!(
            t_faulty > t_healthy * 4,
            "host fallback {t_faulty:?} should dwarf accelerated {t_healthy:?}"
        );
    }
}
