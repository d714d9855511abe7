//! The multi-tenant ensemble engine.
//!
//! [`EnsembleEngine`] multiplexes many small scenario jobs over one
//! [`WorkStealingPool`]: tenants submit [`JobRequest`]s, admission
//! control bounds per-tenant and global backlog (backpressure instead
//! of unbounded memory), a strict-priority scheduler orders the queue,
//! and a fixed set of *runner* tasks — at most one per pool worker —
//! claims jobs and integrates them to completion. Cooperative
//! [`CancelToken`]s and per-job deadlines are checked at every step
//! boundary, so a cancelled job releases its worker within one step and
//! its promise resolves to [`JobOutcome::Cancelled`] (never poisoned).
//!
//! Isolation is the core multi-tenancy property: each job runs under
//! `catch_unwind` with its own solver state and (optionally) its own
//! seeded [`FaultInjector`], so a poisoned or panicking scenario is
//! retried from its initial condition and, if it keeps failing, marked
//! [`JobOutcome::Failed`] — the engine, the runners, and other tenants'
//! jobs keep going. A clean job that fails anyway increments
//! `serve.isolation.breach`, the counter CI pins to zero.
//!
//! Completed clean runs enter the content-addressed [`ResultCache`], so
//! a duplicated sweep point resolves at submit time with the *same*
//! `Arc`'d result bits. All accounting flows through the shared metrics
//! [`Registry`] under `serve.*` names, which the telemetry schema picks
//! up as series fields (see `rhrsc_runtime::telemetry::SERIES_FIELDS`).

use crate::cache::{JobResult, ResultCache};
use crate::spec::ScenarioSpec;
use parking_lot::Mutex;
use rhrsc_grid::{Field, PatchGeom};
use rhrsc_runtime::fault::{FaultInjector, FaultPlan};
use rhrsc_runtime::future::{promise, Future, Promise};
use rhrsc_runtime::metrics::Registry;
use rhrsc_runtime::{panic_msg, WorkStealingPool};
use rhrsc_solver::scheme::{init_cons, SolverError};
use rhrsc_solver::PatchSolver;
use rhrsc_srhd::NCOMP;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Priority class of a job. Lower classes preempt higher ones at claim
/// time (strict priority: a runner always takes the lowest non-empty
/// class), which is what orders per-class p99 latency under load.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive: claimed before everything else.
    Interactive,
    /// Normal sweep traffic.
    Batch,
    /// Only runs when nothing else is queued.
    Scavenger,
}

impl Priority {
    /// All classes, scheduling order.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::Scavenger];

    /// Stable lowercase label (metrics suffix).
    fn label(&self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Scavenger => "scavenger",
        }
    }

    fn idx(&self) -> usize {
        *self as usize
    }
}

/// Cooperative cancellation flag, checked at step boundaries.
#[derive(Debug, Default)]
pub struct CancelToken {
    flag: AtomicBool,
}

impl CancelToken {
    /// Request cancellation; the job observes it at its next step
    /// boundary (or at claim time if still queued).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once [`cancel`](Self::cancel) has been called.
    fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a job ended as [`JobOutcome::Cancelled`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// The handle's [`CancelToken`] was triggered.
    Token,
    /// The per-job deadline expired.
    Deadline,
    /// The engine shut down with the job still queued.
    Shutdown,
}

/// Terminal state of a job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// The scenario ran to its end time (or step budget).
    Done(Arc<JobResult>),
    /// The job was cancelled cooperatively; no result.
    Cancelled(CancelReason),
    /// Retries exhausted (solver error or panic); message names the
    /// last failure.
    Failed(String),
}

impl JobOutcome {
    /// The result, if the job completed.
    pub fn result(&self) -> Option<&Arc<JobResult>> {
        match self {
            JobOutcome::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// Why a submission was refused at the door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// This tenant's queue is at capacity — backpressure; resubmit
    /// after some of its jobs finish.
    TenantQueueFull {
        /// The tenant whose queue is full.
        tenant: String,
        /// Its configured queue bound.
        cap: usize,
    },
    /// The engine-wide pending bound is reached.
    EngineFull {
        /// The configured global bound.
        cap: usize,
    },
    /// The engine is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::TenantQueueFull { tenant, cap } => {
                write!(f, "tenant '{tenant}' queue full (cap {cap})")
            }
            AdmissionError::EngineFull { cap } => write!(f, "engine pending cap {cap} reached"),
            AdmissionError::ShuttingDown => write!(f, "engine is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Engine tuning.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Max queued-or-running jobs per tenant.
    pub tenant_queue_cap: usize,
    /// Max queued-or-running jobs engine-wide.
    pub max_pending: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Attempts after the first failure before a job is Failed.
    pub max_retries: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            tenant_queue_cap: 64,
            max_pending: 1024,
            cache_capacity: 256,
            max_retries: 2,
        }
    }
}

/// A submission: who, how urgent, what to run, and under what budget.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Tenant identity (accounting + per-tenant admission bound).
    pub tenant: String,
    /// Priority class.
    pub class: Priority,
    /// The scenario to run.
    pub spec: ScenarioSpec,
    /// Wall-clock budget from submission; past it the job resolves
    /// `Cancelled(Deadline)` at its next step boundary.
    pub deadline: Option<Duration>,
    /// Per-job fault plan (seeded per job id); jobs with a plan bypass
    /// the result cache.
    pub faults: Option<FaultPlan>,
}

impl JobRequest {
    /// A clean request with no deadline.
    pub fn new(tenant: impl Into<String>, class: Priority, spec: ScenarioSpec) -> Self {
        JobRequest {
            tenant: tenant.into(),
            class,
            spec,
            deadline: None,
            faults: None,
        }
    }

    /// Attach a wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Attach a fault plan (exercises the isolation machinery).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// The caller's side of an admitted job.
#[derive(Debug)]
pub struct JobHandle {
    /// Canonical hash of the submitted spec (the cache key).
    pub spec_hash: u64,
    /// The class it was admitted under.
    pub class: Priority,
    fut: Future<JobOutcome>,
    cancel: Arc<CancelToken>,
}

impl JobHandle {
    /// Request cooperative cancellation.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(self) -> JobOutcome {
        self.fut.get()
    }

    /// [`wait`](Self::wait) with a deadline; `Err(self)` on timeout.
    pub fn wait_for(self, d: Duration) -> Result<JobOutcome, JobHandle> {
        let JobHandle {
            spec_hash,
            class,
            fut,
            cancel,
        } = self;
        match fut.get_timeout(d) {
            Ok(v) => Ok(v),
            Err(fut) => Err(JobHandle {
                spec_hash,
                class,
                fut,
                cancel,
            }),
        }
    }

    /// True once the outcome is available.
    pub fn is_ready(&self) -> bool {
        self.fut.is_ready()
    }
}

struct QueuedJob {
    id: u64,
    tenant: String,
    class: Priority,
    spec: ScenarioSpec,
    hash: u64,
    submitted: Instant,
    deadline: Option<Instant>,
    faults: Option<FaultPlan>,
    cancel: Arc<CancelToken>,
    prom: Promise<JobOutcome>,
    /// Batch-amortized initial state (bit-identical to a cold init).
    warm_start: Option<Arc<Vec<f64>>>,
}

struct SchedState {
    queues: [VecDeque<QueuedJob>; 3],
    pending_per_tenant: HashMap<String, usize>,
    pending_total: usize,
    runners: usize,
    shutdown: bool,
    /// Jobs claimed so far, of every class.
    claims: u64,
    /// Per class, the ordinals (in `claims`) of its first and last claim.
    claim_spans: [Option<(u64, u64)>; 3],
}

struct EngineShared {
    pool: Arc<WorkStealingPool>,
    reg: Arc<Registry>,
    cache: ResultCache,
    cfg: EngineConfig,
    sched: Mutex<SchedState>,
    next_job_id: AtomicU64,
    /// Admitted-but-not-terminal jobs (queued + running): the
    /// `serve_queue_depth` telemetry gauge.
    inflight: AtomicUsize,
}

/// The multi-tenant job engine. See the module docs for the model.
pub struct EnsembleEngine {
    shared: Arc<EngineShared>,
}

impl EnsembleEngine {
    /// An engine running jobs on `pool`, accounting into `reg`.
    pub fn new(pool: Arc<WorkStealingPool>, reg: Arc<Registry>, cfg: EngineConfig) -> Self {
        EnsembleEngine {
            shared: Arc::new(EngineShared {
                pool,
                reg,
                cache: ResultCache::new(cfg.cache_capacity),
                cfg,
                sched: Mutex::new(SchedState {
                    queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                    pending_per_tenant: HashMap::new(),
                    pending_total: 0,
                    runners: 0,
                    shutdown: false,
                    claims: 0,
                    claim_spans: [None; 3],
                }),
                next_job_id: AtomicU64::new(0),
                inflight: AtomicUsize::new(0),
            }),
        }
    }

    /// The engine's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.reg
    }

    /// The engine configuration.
    pub fn cfg(&self) -> &EngineConfig {
        &self.shared.cfg
    }

    /// Admitted-but-not-terminal jobs (queued + running) — the
    /// `serve_queue_depth` telemetry gauge.
    pub fn queue_depth(&self) -> usize {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// The ordinals of the first and last claim of `class` among every
    /// claim this engine made, or `None` before its first. Strict priority
    /// shows here exactly: a class queued wholly ahead of a lower one is
    /// claimed wholly before it.
    pub fn claim_span(&self, class: Priority) -> Option<(u64, u64)> {
        self.shared.sched.lock().claim_spans[class.idx()]
    }

    /// Submit one job. A clean spec already in the result cache
    /// resolves immediately (`serve.cache.hits`); otherwise the job is
    /// admitted against its tenant's and the engine's pending bounds.
    pub fn submit(&self, req: JobRequest) -> Result<JobHandle, AdmissionError> {
        self.submit_inner(req, None)
    }

    /// Submit a batch, computing each distinct (problem, resolution)
    /// initial state once and warm-starting every job that shares it.
    /// Per-job admission still applies — the returned vector is aligned
    /// with the input, rejections in place.
    pub fn submit_batch(&self, reqs: Vec<JobRequest>) -> Vec<Result<JobHandle, AdmissionError>> {
        let reg = &self.shared.reg;
        let mut setups: HashMap<u64, Arc<Vec<f64>>> = HashMap::new();
        reqs.into_iter()
            .map(|req| {
                let key = req.spec.setup_hash();
                let warm = match setups.get(&key) {
                    Some(w) => {
                        reg.counter("serve.batch.reused_setups").inc();
                        w.clone()
                    }
                    None => {
                        reg.counter("serve.batch.setups").inc();
                        let w = Arc::new(build_initial_state(&req.spec).into_vec());
                        setups.insert(key, w.clone());
                        w
                    }
                };
                self.submit_inner(req, Some(warm))
            })
            .collect()
    }

    fn submit_inner(
        &self,
        req: JobRequest,
        warm_start: Option<Arc<Vec<f64>>>,
    ) -> Result<JobHandle, AdmissionError> {
        let s = &self.shared;
        let hash = req.spec.canonical_hash();
        let cancel = Arc::new(CancelToken::default());
        // Cache fast path: clean specs only — a fault-injected run is
        // deliberately not a pure function of its spec.
        if req.faults.is_none() {
            if let Some(hit) = s.cache.get(hash) {
                s.reg.counter("serve.cache.hits").inc();
                s.reg.counter("serve.admitted").inc();
                s.reg.counter("serve.jobs.completed").inc();
                tenant_counter(&s.reg, &req.tenant, "completed").inc();
                class_hist(&s.reg, "latency", req.class).record(1);
                let (prom, fut) = promise();
                prom.set(JobOutcome::Done(hit));
                return Ok(JobHandle {
                    spec_hash: hash,
                    class: req.class,
                    fut,
                    cancel,
                });
            }
            s.reg.counter("serve.cache.misses").inc();
        }
        let (prom, fut) = promise();
        let submitted = Instant::now();
        let need_runner;
        {
            let mut st = s.sched.lock();
            if st.shutdown {
                return Err(AdmissionError::ShuttingDown);
            }
            let tenant_pending = st.pending_per_tenant.get(&req.tenant).copied().unwrap_or(0);
            if tenant_pending >= s.cfg.tenant_queue_cap {
                s.reg.counter("serve.admission.rejected").inc();
                tenant_counter(&s.reg, &req.tenant, "rejected").inc();
                return Err(AdmissionError::TenantQueueFull {
                    tenant: req.tenant,
                    cap: s.cfg.tenant_queue_cap,
                });
            }
            if st.pending_total >= s.cfg.max_pending {
                s.reg.counter("serve.admission.rejected").inc();
                tenant_counter(&s.reg, &req.tenant, "rejected").inc();
                return Err(AdmissionError::EngineFull {
                    cap: s.cfg.max_pending,
                });
            }
            *st.pending_per_tenant.entry(req.tenant.clone()).or_insert(0) += 1;
            st.pending_total += 1;
            let id = s.next_job_id.fetch_add(1, Ordering::Relaxed);
            st.queues[req.class.idx()].push_back(QueuedJob {
                id,
                tenant: req.tenant,
                class: req.class,
                spec: req.spec,
                hash,
                submitted,
                deadline: req.deadline.map(|d| submitted + d),
                faults: req.faults,
                cancel: cancel.clone(),
                prom,
                warm_start,
            });
            // One runner per pool worker at most: runners claim jobs
            // until the queues drain, so an idle engine holds no
            // workers hostage.
            need_runner = st.runners < s.pool.nthreads();
            if need_runner {
                st.runners += 1;
            }
        }
        s.reg.counter("serve.admitted").inc();
        s.inflight.fetch_add(1, Ordering::Relaxed);
        if need_runner {
            let shared = s.clone();
            drop(s.pool.spawn(move || runner_loop(shared)));
        }
        Ok(JobHandle {
            spec_hash: hash,
            class: req.class,
            fut,
            cancel,
        })
    }

    /// Stop admitting, drain the queues (each queued job resolves
    /// `Cancelled(Shutdown)`), and let running jobs finish on the pool.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        let drained: Vec<QueuedJob> = {
            let mut st = self.shared.sched.lock();
            st.shutdown = true;
            let SchedState {
                queues,
                pending_per_tenant,
                pending_total,
                ..
            } = &mut *st;
            let mut out = Vec::new();
            for q in queues {
                while let Some(j) = q.pop_front() {
                    if let Some(tp) = pending_per_tenant.get_mut(&j.tenant) {
                        *tp = tp.saturating_sub(1);
                    }
                    *pending_total = pending_total.saturating_sub(1);
                    out.push(j);
                }
            }
            out
        };
        for j in drained {
            self.shared.reg.counter("serve.jobs.cancelled").inc();
            tenant_counter(&self.shared.reg, &j.tenant, "cancelled").inc();
            self.shared.inflight.fetch_sub(1, Ordering::Relaxed);
            j.prom.set(JobOutcome::Cancelled(CancelReason::Shutdown));
        }
    }
}

impl Drop for EnsembleEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn tenant_counter(
    reg: &Registry,
    tenant: &str,
    what: &str,
) -> Arc<rhrsc_runtime::metrics::Counter> {
    reg.counter(&format!("serve.tenant.{tenant}.{what}"))
}

fn class_hist(
    reg: &Registry,
    what: &str,
    class: Priority,
) -> Arc<rhrsc_runtime::metrics::Histogram> {
    reg.histogram(&format!("serve.{what}.{}", class.label()))
}

/// Claim jobs in strict priority order until the queues drain.
fn runner_loop(shared: Arc<EngineShared>) {
    loop {
        let job = {
            let mut st = shared.sched.lock();
            match pop_highest(&mut st) {
                Some(j) => j,
                None => {
                    st.runners -= 1;
                    return;
                }
            }
        };
        run_job(&shared, job);
    }
}

fn pop_highest(st: &mut SchedState) -> Option<QueuedJob> {
    let SchedState {
        queues,
        pending_per_tenant,
        pending_total,
        claims,
        claim_spans,
        ..
    } = st;
    for (q, span) in queues.iter_mut().zip(claim_spans) {
        if let Some(j) = q.pop_front() {
            if let Some(tp) = pending_per_tenant.get_mut(&j.tenant) {
                *tp = tp.saturating_sub(1);
            }
            *pending_total = pending_total.saturating_sub(1);
            *span = Some((span.map_or(*claims, |(first, _)| first), *claims));
            *claims += 1;
            return Some(j);
        }
    }
    None
}

/// Run one claimed job to a terminal state and resolve its promise.
/// Never panics out (the promise is always set), so a poisoned scenario
/// cannot take the runner — or another tenant's job — down with it.
fn run_job(shared: &EngineShared, job: QueuedJob) {
    let reg = &shared.reg;
    class_hist(reg, "wait", job.class).record(job.submitted.elapsed().as_nanos().max(1) as u64);
    let outcome = execute_with_retries(shared, &job);
    class_hist(reg, "latency", job.class).record(job.submitted.elapsed().as_nanos().max(1) as u64);
    match &outcome {
        JobOutcome::Done(result) => {
            reg.counter("serve.jobs.completed").inc();
            tenant_counter(reg, &job.tenant, "completed").inc();
            if job.faults.is_none() {
                shared.cache.insert(result.clone());
            }
        }
        JobOutcome::Cancelled(_) => {
            reg.counter("serve.jobs.cancelled").inc();
            tenant_counter(reg, &job.tenant, "cancelled").inc();
        }
        JobOutcome::Failed(_) => {
            reg.counter("serve.jobs.failed").inc();
            tenant_counter(reg, &job.tenant, "failed").inc();
            if job.faults.is_none() {
                // A clean job must not fail: any failure here leaked
                // out of some other tenant's blast radius (or is an
                // engine bug). CI pins this counter to zero.
                reg.counter("serve.isolation.breach").inc();
            }
        }
    }
    shared.inflight.fetch_sub(1, Ordering::Relaxed);
    job.prom.set(outcome);
}

enum ExecStop {
    Cancelled(CancelReason),
    Solver(SolverError),
}

fn execute_with_retries(shared: &EngineShared, job: &QueuedJob) -> JobOutcome {
    // One injector across attempts: the draw stream continues through
    // retries, so a retried job faces fresh (still deterministic) luck
    // rather than replaying the exact fault that killed it.
    let injector = job
        .faults
        .clone()
        .map(|plan| FaultInjector::new(plan, job.id));
    let mut attempt = 0u32;
    loop {
        if job.cancel.is_cancelled() {
            return JobOutcome::Cancelled(CancelReason::Token);
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            execute_spec(shared, job, injector.as_ref())
        }));
        let failure = match run {
            Ok(Ok(result)) => return JobOutcome::Done(Arc::new(result)),
            Ok(Err(ExecStop::Cancelled(reason))) => return JobOutcome::Cancelled(reason),
            Ok(Err(ExecStop::Solver(e))) => format!("solver error: {e}"),
            Err(payload) => format!("job panicked: {}", panic_msg(payload)),
        };
        attempt += 1;
        if attempt > shared.cfg.max_retries {
            return JobOutcome::Failed(format!("{failure} (after {attempt} attempts)"));
        }
        shared.reg.counter("serve.retries").inc();
    }
}

fn build_initial_state(spec: &ScenarioSpec) -> Field {
    let prob = spec.problem.build();
    let scheme = spec.scheme();
    let geom = PatchGeom::line(
        spec.nx,
        prob.domain.0[0],
        prob.domain.1[0],
        scheme.required_ghosts(),
    );
    init_cons(geom, &scheme.eos, &|x| (prob.ic)(x))
}

/// Base per-step busy-wait a stalled job multiplies by its plan's
/// `stall_factor − 1` — models a slow worker without slowing real physics.
const STALL_SLICE: Duration = Duration::from_micros(200);

/// Integrate one scenario, checking cancellation/deadline and injecting
/// per-job faults at every step boundary. Runs without the pool — the
/// job *is* the unit of parallelism; nesting `par_for` under thousands
/// of concurrent jobs would only thrash the deques.
fn execute_spec(
    shared: &EngineShared,
    job: &QueuedJob,
    injector: Option<&FaultInjector>,
) -> Result<JobResult, ExecStop> {
    let spec = &job.spec;
    let prob = spec.problem.build();
    let scheme = spec.scheme();
    let geom = PatchGeom::line(
        spec.nx,
        prob.domain.0[0],
        prob.domain.1[0],
        scheme.required_ghosts(),
    );
    let mut u = match &job.warm_start {
        Some(data) => Field::from_vec(geom, NCOMP, data.as_ref().clone()),
        None => init_cons(geom, &scheme.eos, &|x| (prob.ic)(x)),
    };
    let mut solver = PatchSolver::new(scheme, prob.bcs, spec.rk, geom);
    let t_end = spec.t_end.unwrap_or(prob.t_end);
    let mut t = 0.0_f64;
    let mut steps = 0u64;
    while t < t_end - 1e-14 && steps < spec.max_steps {
        if job.cancel.is_cancelled() {
            return Err(ExecStop::Cancelled(CancelReason::Token));
        }
        if let Some(dl) = job.deadline {
            if Instant::now() >= dl {
                return Err(ExecStop::Cancelled(CancelReason::Deadline));
            }
        }
        if let Some(inj) = injector {
            // Deterministic cell poisoning: one interior conserved
            // value becomes NaN; primitive recovery trips on it and
            // the retry ladder takes over.
            if let Some(victim) = inj.should_poison_cell() {
                let (i, j, k) = geom.nth_interior(victim as usize % geom.interior_len());
                u.set(0, i, j, k, f64::NAN);
                shared.reg.counter("serve.faults.poisoned").inc();
            }
            // Straggler injection: burn real wall time so healthy
            // tenants genuinely contend with a slow job.
            if let Some(factor) = inj.should_stall_rank(0) {
                let extra = STALL_SLICE.mul_f64((factor - 1.0).max(0.0));
                rhrsc_runtime::spin_for(extra);
                shared.reg.counter("serve.faults.stalls").inc();
            }
        }
        let dt = solver
            .step_cfl(&mut u, t, t_end, spec.cfl, None)
            .map_err(ExecStop::Solver)?;
        t += dt;
        steps += 1;
    }
    Ok(JobResult {
        spec_hash: job.hash,
        steps,
        t_final: t,
        data: u.into_vec(),
    })
}
