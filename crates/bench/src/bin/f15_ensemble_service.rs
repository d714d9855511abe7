//! F15 — Ensemble service: a multi-tenant job engine over the solver.
//!
//! Drives [`rhrsc_serve::EnsembleEngine`] through the full multi-tenancy
//! contract on one work-stealing pool:
//!
//! * **A (mixed priorities)** — a batch sweep flood, a scavenger
//!   backfill, and late-arriving interactive jobs share the engine.
//!   Strict-priority claiming must order the per-class p99 latency:
//!   interactive < batch ≤ scavenger. Headline: sustained jobs/sec,
//! * **B (backpressure)** — with every pool worker parked on a gate, a
//!   greedy tenant over-submits against a tiny queue cap; admission
//!   control must reject the overflow deterministically and recover
//!   (accept again) once the backlog drains,
//! * **C (duplicated sweep)** — the same batch-submitted CFL sweep runs
//!   twice; the second pass must be served entirely from the
//!   content-addressed result cache, and the cached bits must be
//!   identical to a cache-disabled rerun of the same spec,
//! * **D (fault isolation)** — a hostile tenant's jobs carry per-job
//!   fault plans (cell poisoning + worker stalls) and are expected to
//!   fail after retries; a healthy tenant's interactive jobs run
//!   concurrently and must all complete with p99 within a pinned
//!   multiple of their solo baseline. `serve.isolation.breach` (a clean
//!   job failing) is pinned to **zero**,
//! * **E (cancellation)** — queued jobs cancelled by token release
//!   their slot without running; zero deadlines expire at the first
//!   step boundary; engine shutdown resolves still-queued jobs as
//!   cancelled instead of hanging their waiters.
//!
//! Flags: `--toy` shrinks the workload for smoke tests/CI, `--profile`
//! prints the pooled phase breakdown. A machine-readable report with
//! the `serve.*` counters and a telemetry series (one sample per arm)
//! is always written to `results/BENCH_f15_ensemble_service.json`.
//!
//! Env knobs: `RHRSC_FAULT_SEED` (CI seed matrix, perturbs the hostile
//! tenant's draw streams only). The engine's bounds are the
//! `EngineConfig` fields each arm sets.

use rhrsc_bench::drill::fault_seed;
use rhrsc_bench::{f3, BenchOpts, Table};
use rhrsc_runtime::fault::FaultPlan;
use rhrsc_runtime::metrics::Snapshot;
use rhrsc_runtime::telemetry::{SampleInputs, TelemetrySampler};
use rhrsc_runtime::{Registry, WorkStealingPool};
use rhrsc_serve::{
    EngineConfig, EnsembleEngine, JobHandle, JobOutcome, JobRequest, Priority, ProblemKind,
    ScenarioSpec,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool width — fixed (not host-derived) so the run config is stable
/// across CI machines.
const THREADS: usize = 4;

/// A density-wave spec with a per-index advection velocity: every job
/// in a flood hashes distinct, so nothing short-circuits through the
/// result cache unless an arm wants it to.
fn wave(i: usize, n: usize, nx: usize, t_end: f64) -> ScenarioSpec {
    let v = 0.1 + 0.7 * (i as f64 + 1.0) / (n as f64 + 1.0);
    ScenarioSpec {
        t_end: Some(t_end),
        ..ScenarioSpec::new(ProblemKind::DensityWave { v, amplitude: 0.3 }, nx)
    }
}

fn p99_ns(snap: &Snapshot, name: &str) -> f64 {
    snap.histograms
        .get(name)
        .map(|h| h.quantile(0.99))
        .unwrap_or(0.0)
}

fn wait_all(handles: Vec<JobHandle>) -> Vec<JobOutcome> {
    handles.into_iter().map(JobHandle::wait).collect()
}

fn done(outcomes: &[JobOutcome]) -> usize {
    outcomes
        .iter()
        .filter(|o| matches!(o, JobOutcome::Done(_)))
        .count()
}

/// Park every pool worker on the gate. Blockers are injected ahead of
/// any engine runner task, so until the gate opens nothing submitted to
/// an engine on this pool can be claimed — queue depths are exact.
fn park_workers(
    pool: &Arc<WorkStealingPool>,
    gate: &Arc<AtomicBool>,
) -> Vec<rhrsc_runtime::Future<()>> {
    (0..pool.nthreads())
        .map(|_| {
            let g = gate.clone();
            pool.spawn(move || {
                while !g.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
        })
        .collect()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let opts = BenchOpts::from_args();
    // (flood nx, flood t_end, batch, scavenger, interactive, sweep,
    //  hostile, healthy, cancel, deadline, shutdown-queued)
    let (nx, t_end, n_batch, n_scav, n_inter, n_sweep, n_mal, n_alice, n_cancel, n_dead, n_shut) =
        if opts.toy {
            (96, 0.2, 48, 6, 8, 24, 12, 10, 24, 4, 8)
        } else {
            (192, 0.4, 400, 24, 40, 96, 32, 24, 64, 8, 16)
        };
    let seed = fault_seed(11);
    println!(
        "# F15: ensemble service, {THREADS}-worker pool, density-wave floods at nx = {nx}, \
         fault seed {seed}"
    );
    let pool = Arc::new(WorkStealingPool::new(THREADS));
    // Flood arms submit whole sweeps per tenant up front; size admission
    // so only arm B (which tests the bounds) ever rejects.
    let roomy = EngineConfig {
        tenant_queue_cap: 4096,
        max_pending: 8192,
        ..EngineConfig::default()
    };
    let t_bench = Instant::now();
    let mut wall_total = 0.0;
    let mut pooled = Snapshot::default();
    let mut sampler = TelemetrySampler::new(1);
    let mut samples = Vec::new();
    let mut table = Table::new(&["arm", "wall_s", "jobs", "outcome"]);
    // One telemetry sample per finished arm: the serve.* series fields
    // carry that arm's counter deltas.
    let mut sample_arm = |arm: u64, pooled: &Snapshot, wall: f64| {
        let inputs = SampleInputs {
            elapsed_s: wall,
            pool_queue_depth: rhrsc_runtime::global_queue_depth() as f64,
            serve_queue_depth: 0.0, // every arm drains before sampling
            ..SampleInputs::default()
        };
        samples.push(sampler.sample(
            arm,
            t_bench.elapsed().as_secs_f64(),
            t_bench.elapsed().as_nanos() as u64,
            pooled.clone(),
            &inputs,
        ));
    };

    // ---- Arm A: mixed-priority sustained throughput ----
    let reg_a = Arc::new(Registry::new());
    let engine_a = EnsembleEngine::new(pool.clone(), reg_a.clone(), roomy);
    let t0 = Instant::now();
    let wall_a;
    {
        let _ph = reg_a.phase("phase.serve.mixed");
        let mut handles = Vec::new();
        for i in 0..n_batch {
            let req = JobRequest::new("sweep", Priority::Batch, wave(i, n_batch, nx, t_end));
            handles.push(engine_a.submit(req).expect("batch admission"));
        }
        for i in 0..n_scav {
            let spec = wave(i, n_scav, nx / 2, t_end);
            let req = JobRequest::new("idle", Priority::Scavenger, spec);
            handles.push(engine_a.submit(req).expect("scavenger admission"));
        }
        // Interactive arrivals land behind a deep backlog; strict
        // priority must still pull them forward.
        for i in 0..n_inter {
            let spec = ScenarioSpec {
                cfl: 0.3 + 0.002 * i as f64,
                t_end: Some(t_end / 2.0),
                ..ScenarioSpec::new(ProblemKind::Sod, nx / 2)
            };
            let req = JobRequest::new("dash", Priority::Interactive, spec);
            handles.push(engine_a.submit(req).expect("interactive admission"));
        }
        let n_jobs = handles.len();
        let outcomes = wait_all(handles);
        wall_a = t0.elapsed().as_secs_f64();
        assert_eq!(done(&outcomes), n_jobs, "every mixed-arm job completes");
    }
    let snap_a = reg_a.snapshot();
    let (p_inter, p_batch, p_scav) = (
        p99_ns(&snap_a, "serve.latency.interactive"),
        p99_ns(&snap_a, "serve.latency.batch"),
        p99_ns(&snap_a, "serve.latency.scavenger"),
    );
    let n_jobs_a = n_batch + n_scav + n_inter;
    let jps = n_jobs_a as f64 / wall_a;
    reg_a
        .histogram("serve.mixed.jobs_per_sec")
        .record(jps.round().max(1.0) as u64);
    println!(
        "A  mixed priorities: {n_jobs_a} jobs in {wall_a:.3}s ({} jobs/s); p99 latency \
         interactive = {:.2} ms < batch = {:.2} ms <= scavenger = {:.2} ms",
        f3(jps),
        p_inter * 1e-6,
        p_batch * 1e-6,
        p_scav * 1e-6
    );
    assert!(
        p_inter < p_batch,
        "interactive p99 ({p_inter} ns) must beat batch p99 ({p_batch} ns)"
    );
    assert!(
        p_batch <= p_scav * 1.05,
        "batch p99 ({p_batch} ns) must not exceed scavenger p99 ({p_scav} ns)"
    );
    wall_total += wall_a;
    pooled.merge(&snap_a);
    sample_arm(1, &pooled, wall_a);
    table.row(&[
        "A:mixed".into(),
        format!("{wall_a:.3}"),
        n_jobs_a.to_string(),
        format!("{} jobs/s, class-ordered p99", f3(jps)),
    ]);

    // ---- Arm B: admission control and backpressure ----
    let reg_b = Arc::new(Registry::new());
    let cfg_b = EngineConfig {
        tenant_queue_cap: 4,
        max_pending: 8,
        cache_capacity: 0,
        ..EngineConfig::default()
    };
    let engine_b = EnsembleEngine::new(pool.clone(), reg_b.clone(), cfg_b);
    let t0 = Instant::now();
    let wall_b;
    let (n_over, n_rejected);
    {
        let _ph = reg_b.phase("phase.serve.backpressure");
        let gate = Arc::new(AtomicBool::new(false));
        let blockers = park_workers(&pool, &gate);
        n_over = cfg_b.tenant_queue_cap + 6;
        let mut admitted = Vec::new();
        let mut rejected = 0usize;
        for i in 0..n_over {
            let req = JobRequest::new("greedy", Priority::Batch, wave(i, n_over, nx, t_end));
            match engine_b.submit(req) {
                Ok(h) => admitted.push(h),
                Err(_) => rejected += 1,
            }
        }
        n_rejected = rejected;
        assert_eq!(
            admitted.len(),
            cfg_b.tenant_queue_cap,
            "exactly the queue cap is admitted while the pool is parked"
        );
        assert_eq!(n_rejected, 6, "the overflow is rejected, not queued");
        gate.store(true, Ordering::Release);
        for b in blockers {
            b.get();
        }
        let outcomes = wait_all(admitted);
        assert_eq!(done(&outcomes), cfg_b.tenant_queue_cap);
        // Recovery: once the backlog drained, the same tenant is
        // admitted again.
        let req = JobRequest::new(
            "greedy",
            Priority::Batch,
            wave(n_over, n_over + 1, nx, t_end),
        );
        let h = engine_b.submit(req).expect("admission recovers post-drain");
        assert!(matches!(h.wait(), JobOutcome::Done(_)));
        wall_b = t0.elapsed().as_secs_f64();
    }
    println!(
        "B  backpressure: cap {} held, {n_rejected}/{n_over} over-submissions rejected, \
         tenant recovered after drain, wall = {wall_b:.3}s",
        cfg_b.tenant_queue_cap
    );
    wall_total += wall_b;
    pooled.merge(&reg_b.snapshot());
    sample_arm(2, &pooled, wall_b);
    table.row(&[
        "B:backpressure".into(),
        format!("{wall_b:.3}"),
        (n_over + 1).to_string(),
        format!("{n_rejected} rejected, then recovered"),
    ]);

    // ---- Arm C: duplicated sweep through the result cache ----
    let reg_c = Arc::new(Registry::new());
    let engine_c = EnsembleEngine::new(pool.clone(), reg_c.clone(), roomy);
    let t0 = Instant::now();
    let (wall_cold, wall_warm, hits);
    {
        let _ph = reg_c.phase("phase.serve.sweep");
        // One setup (same problem + resolution), distinct CFL per point:
        // the batch API builds the initial state once and warm-starts
        // every job from it.
        let sweep = |tenant: &str| -> Vec<JobRequest> {
            (0..n_sweep)
                .map(|i| {
                    let spec = ScenarioSpec {
                        cfl: 0.25 + 0.004 * i as f64,
                        t_end: Some(t_end / 2.0),
                        ..ScenarioSpec::new(ProblemKind::Sod, nx)
                    };
                    JobRequest::new(tenant, Priority::Batch, spec)
                })
                .collect()
        };
        let first: Vec<JobHandle> = engine_c
            .submit_batch(sweep("sweep"))
            .into_iter()
            .map(|r| r.expect("cold sweep admission"))
            .collect();
        let cold = wait_all(first);
        wall_cold = t0.elapsed().as_secs_f64();
        assert_eq!(done(&cold), n_sweep);
        let t1 = Instant::now();
        let second: Vec<JobHandle> = engine_c
            .submit_batch(sweep("sweep"))
            .into_iter()
            .map(|r| r.expect("warm sweep admission"))
            .collect();
        let warm = wait_all(second);
        wall_warm = t1.elapsed().as_secs_f64();
        assert_eq!(done(&warm), n_sweep);
        hits = reg_c.snapshot().counters["serve.cache.hits"];
        assert!(
            hits >= n_sweep as u64,
            "the duplicated sweep must be served from cache (hits = {hits})"
        );
        // Cached results are the same Arc the cold pass produced …
        for (c, w) in cold.iter().zip(&warm) {
            let (c, w) = (c.result().unwrap(), w.result().unwrap());
            assert!(Arc::ptr_eq(c, w), "cache hit must return the stored Arc");
        }
        // … and bit-identical to an uncached rerun of the same spec.
        let reg_u = Arc::new(Registry::new());
        let cfg_u = EngineConfig {
            cache_capacity: 0,
            ..roomy
        };
        let engine_u = EnsembleEngine::new(pool.clone(), reg_u, cfg_u);
        let probe = sweep("verify").swap_remove(0);
        let fresh = engine_u.submit(probe).expect("uncached probe").wait();
        let (fresh, cached) = (fresh.result().unwrap(), cold[0].result().unwrap());
        assert_eq!(fresh.steps, cached.steps);
        assert_eq!(fresh.t_final.to_bits(), cached.t_final.to_bits());
        assert!(
            fresh
                .data
                .iter()
                .zip(&cached.data)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "cached result must be bit-identical to an uncached run"
        );
    }
    println!(
        "C  duplicated sweep: cold pass {wall_cold:.3}s, warm pass {wall_warm:.3}s, \
         {hits} cache hits, cached bits == uncached rerun"
    );
    wall_total += wall_cold + wall_warm;
    pooled.merge(&reg_c.snapshot());
    sample_arm(3, &pooled, wall_cold + wall_warm);
    table.row(&[
        "C:cache".into(),
        format!("{:.3}", wall_cold + wall_warm),
        (2 * n_sweep + 1).to_string(),
        format!("{hits} hits, bit-identical"),
    ]);

    // ---- Arm D: fault isolation across tenants ----
    let reg_d0 = Arc::new(Registry::new());
    let engine_d0 = EnsembleEngine::new(pool.clone(), reg_d0.clone(), roomy);
    let reg_d = Arc::new(Registry::new());
    // Pin the breach counter into the report even when (as required)
    // it never fires.
    let _ = reg_d.counter("serve.isolation.breach");
    let engine_d = EnsembleEngine::new(pool.clone(), reg_d.clone(), roomy);
    let alice_jobs = |tenant: &str| -> Vec<JobRequest> {
        (0..n_alice)
            .map(|i| JobRequest::new(tenant, Priority::Interactive, wave(i, n_alice, nx, t_end)))
            .collect()
    };
    let t0 = Instant::now();
    let (wall_d, p_solo, p_mixed, mal_failed);
    {
        let _ph = reg_d.phase("phase.serve.isolation");
        // Solo baseline: the healthy tenant with the engine to itself.
        let solo = wait_all(
            alice_jobs("alice")
                .into_iter()
                .map(|r| engine_d0.submit(r).expect("solo admission"))
                .collect(),
        );
        assert_eq!(done(&solo), n_alice);
        p_solo = p99_ns(&reg_d0.snapshot(), "serve.latency.interactive");
        // Mixed: a hostile tenant poisons cells and stalls its workers
        // under per-job fault plans; the healthy tenant runs the exact
        // same workload concurrently.
        let mut mal_handles = Vec::new();
        for i in 0..n_mal {
            let plan = FaultPlan {
                seed: seed.wrapping_add(i as u64),
                cell_poison_prob: 0.6,
                stall_rank: Some(0),
                stall_factor: 6.0,
                ..FaultPlan::disabled()
            };
            let req = JobRequest::new("mallory", Priority::Batch, wave(i, n_mal, nx, t_end))
                .with_faults(plan);
            mal_handles.push(engine_d.submit(req).expect("hostile admission"));
        }
        let alice_handles: Vec<JobHandle> = alice_jobs("alice")
            .into_iter()
            .map(|r| engine_d.submit(r).expect("healthy admission"))
            .collect();
        let alice_out = wait_all(alice_handles);
        let mal_out = wait_all(mal_handles);
        assert_eq!(
            done(&alice_out),
            n_alice,
            "every healthy-tenant job must complete despite the hostile tenant"
        );
        mal_failed = mal_out
            .iter()
            .filter(|o| matches!(o, JobOutcome::Failed(_)))
            .count();
        assert!(
            mal_failed > 0,
            "the poisoned tenant's jobs must fail (in isolation)"
        );
        wall_d = t0.elapsed().as_secs_f64();
    }
    let snap_d = reg_d.snapshot();
    p_mixed = p99_ns(&snap_d, "serve.latency.interactive");
    let bound = (25.0 * p_solo).max(0.25e9);
    println!(
        "D  isolation: hostile tenant {mal_failed}/{n_mal} failed+contained \
         ({} poisons, {} stalls, {} retries), healthy p99 {:.2} ms (solo {:.2} ms, \
         bound {:.0} ms), breaches = {}",
        snap_d.counters.get("serve.faults.poisoned").unwrap_or(&0),
        snap_d.counters.get("serve.faults.stalls").unwrap_or(&0),
        snap_d.counters.get("serve.retries").unwrap_or(&0),
        p_mixed * 1e-6,
        p_solo * 1e-6,
        bound * 1e-6,
        snap_d.counters["serve.isolation.breach"]
    );
    assert!(
        p_mixed <= bound,
        "healthy-tenant p99 {p_mixed} ns exceeds the pinned bound {bound} ns"
    );
    assert_eq!(
        snap_d.counters["serve.isolation.breach"], 0,
        "a clean job failed — another tenant's faults leaked"
    );
    assert!(snap_d.counters["serve.faults.poisoned"] > 0);
    assert!(snap_d.counters["serve.faults.stalls"] > 0);
    wall_total += wall_d;
    pooled.merge(&reg_d0.snapshot());
    pooled.merge(&snap_d);
    sample_arm(4, &pooled, wall_d);
    table.row(&[
        "D:isolation".into(),
        format!("{wall_d:.3}"),
        (2 * n_alice + n_mal).to_string(),
        format!("{mal_failed} contained, 0 breaches"),
    ]);

    // ---- Arm E: cancellation, deadlines, shutdown ----
    let reg_e = Arc::new(Registry::new());
    let cfg_e = EngineConfig {
        cache_capacity: 0,
        ..roomy
    };
    let engine_e = EnsembleEngine::new(pool.clone(), reg_e.clone(), cfg_e);
    let t0 = Instant::now();
    let (wall_e, n_cancelled);
    {
        let _ph = reg_e.phase("phase.serve.cancel");
        let handles: Vec<JobHandle> = (0..n_cancel)
            .map(|i| {
                let req = JobRequest::new("churn", Priority::Batch, wave(i, n_cancel, nx, t_end));
                engine_e.submit(req).expect("churn admission")
            })
            .collect();
        // Cancel the queued back half immediately: claimed jobs observe
        // the token at their next step boundary, queued ones at claim.
        for h in &handles[n_cancel / 2..] {
            h.cancel();
        }
        let outcomes = wait_all(handles);
        let token_cancelled = outcomes
            .iter()
            .filter(|o| matches!(o, JobOutcome::Cancelled(_)))
            .count();
        assert!(
            token_cancelled >= n_cancel / 4,
            "most of the cancelled half must resolve Cancelled, got {token_cancelled}"
        );
        // Zero deadlines expire at the first step boundary.
        let dead = wait_all(
            (0..n_dead)
                .map(|i| {
                    let req =
                        JobRequest::new("late", Priority::Batch, wave(i, n_dead, nx / 2, t_end))
                            .with_deadline(Duration::ZERO);
                    engine_e.submit(req).expect("deadline admission")
                })
                .collect(),
        );
        assert!(
            dead.iter().all(|o| matches!(o, JobOutcome::Cancelled(_))),
            "zero-deadline jobs must expire"
        );
        // Shutdown with a provably queued backlog: every waiter resolves.
        let reg_s = Arc::new(Registry::new());
        let engine_s = EnsembleEngine::new(pool.clone(), reg_s.clone(), roomy);
        let gate = Arc::new(AtomicBool::new(false));
        let blockers = park_workers(&pool, &gate);
        let queued: Vec<JobHandle> = (0..n_shut)
            .map(|i| {
                let req = JobRequest::new("doomed", Priority::Batch, wave(i, n_shut, nx, t_end));
                engine_s.submit(req).expect("pre-shutdown admission")
            })
            .collect();
        engine_s.shutdown();
        gate.store(true, Ordering::Release);
        for b in blockers {
            b.get();
        }
        let shut = wait_all(queued);
        assert!(
            shut.iter().all(|o| matches!(o, JobOutcome::Cancelled(_))),
            "shutdown must resolve queued jobs as cancelled, not hang them"
        );
        pooled.merge(&reg_s.snapshot());
        n_cancelled = token_cancelled + n_dead + n_shut;
        wall_e = t0.elapsed().as_secs_f64();
    }
    println!(
        "E  cancellation: {n_cancelled} jobs cancelled across token/deadline/shutdown paths, \
         no waiter hung, wall = {wall_e:.3}s"
    );
    wall_total += wall_e;
    pooled.merge(&reg_e.snapshot());
    sample_arm(5, &pooled, wall_e);
    table.row(&[
        "E:cancel".into(),
        format!("{wall_e:.3}"),
        (n_cancel + n_dead + n_shut).to_string(),
        format!("{n_cancelled} cancelled, 0 hangs"),
    ]);

    let mut rep = opts.finish(&table, "f15_ensemble_service", "all arms pooled", &pooled);
    rep.config_str("preset", if opts.toy { "toy" } else { "full" })
        .config_str("problem", "1D density-wave/Sod floods, PPM+HLLC+RK3")
        .config_num("pool_threads", THREADS as f64)
        .config_num("nx_flood", nx as f64)
        .config_num("batch_jobs", n_batch as f64)
        .config_num("interactive_jobs", n_inter as f64)
        .config_num("scavenger_jobs", n_scav as f64)
        .config_num("sweep_size", n_sweep as f64)
        .config_num("hostile_jobs", n_mal as f64)
        .config_num("healthy_jobs", n_alice as f64)
        .config_num("fault_seed", seed as f64)
        .wall_time(wall_total)
        .parallelism(THREADS as f64)
        .series(&samples);
    rep.write(&pooled);
}
