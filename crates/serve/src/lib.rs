//! Ensemble service: the solver as a multi-tenant engine.
//!
//! "Millions of users" for a hydro code means *ensembles* — thousands
//! of concurrent small scenarios (parameter sweeps, UQ, regression
//! farms) multiplexed over one resilient runtime, not one big run per
//! process. This crate is that serving layer (ROADMAP item 4), built on
//! `rhrsc_runtime::pool` and the metrics/telemetry hub:
//!
//! * [`spec`] — typed [`ScenarioSpec`]s with a canonical content hash,
//! * [`cache`] — the content-addressed [`ResultCache`] keyed on that
//!   hash (repeated sweep points are free, bit-identically),
//! * [`engine`] — the [`EnsembleEngine`]: bounded per-tenant admission
//!   with backpressure, strict priority classes, per-job deadlines and
//!   cooperative [`CancelToken`]s checked at step boundaries, seeded
//!   per-job fault injection routed through the retry ladder, and
//!   `serve.*` accounting the telemetry schema exports.
//!
//! See DESIGN.md "Ensemble service" and the `f15_ensemble_service`
//! benchmark.

pub mod cache;
pub mod engine;
pub mod spec;

pub use cache::{JobResult, ResultCache};
pub use engine::{
    AdmissionError, CancelReason, CancelToken, EngineConfig, EnsembleEngine, JobHandle, JobOutcome,
    JobRequest, Priority,
};
pub use spec::{ProblemKind, ScenarioSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use rhrsc_runtime::fault::FaultPlan;
    use rhrsc_runtime::metrics::Registry;
    use rhrsc_runtime::WorkStealingPool;
    use std::sync::Arc;
    use std::time::Duration;

    fn engine(nthreads: usize, cfg: EngineConfig) -> EnsembleEngine {
        let pool = Arc::new(WorkStealingPool::new(nthreads));
        let reg = Arc::new(Registry::new());
        EnsembleEngine::new(pool, reg, cfg)
    }

    fn quick_spec() -> ScenarioSpec {
        ScenarioSpec {
            max_steps: 40,
            ..ScenarioSpec::new(ProblemKind::Sod, 32)
        }
    }

    /// A spec big enough to span many step boundaries (cancellation
    /// window) without being slow.
    fn long_spec() -> ScenarioSpec {
        ScenarioSpec::new(ProblemKind::Sod, 128)
    }

    /// A spec that never finishes on its own: no end time and no step
    /// budget stop it, and admission bounds neither. Only a cancellation,
    /// a deadline or a shutdown resolves it, whatever the build's speed.
    fn endless_spec() -> ScenarioSpec {
        ScenarioSpec {
            t_end: Some(f64::MAX),
            max_steps: u64::MAX,
            ..quick_spec()
        }
    }

    /// Block until the engine has claimed its first job of `class`.
    fn await_claim(eng: &EnsembleEngine, class: Priority) {
        while eng.claim_span(class).is_none() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn job_runs_to_completion() {
        let eng = engine(2, EngineConfig::default());
        let h = eng
            .submit(JobRequest::new("t0", Priority::Batch, quick_spec()))
            .unwrap();
        match h.wait() {
            JobOutcome::Done(r) => {
                assert!(r.steps > 0 && r.steps <= 40);
                assert!(r.t_final > 0.0);
                assert!(r.data.iter().all(|v| v.is_finite()));
            }
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(eng.registry().counter("serve.jobs.completed").get(), 1);
        assert_eq!(eng.queue_depth(), 0);
    }

    #[test]
    fn cached_job_is_bit_identical_to_uncached_run() {
        // Run the same spec on a caching engine (twice) and on a
        // cache-disabled engine; all three results must carry the very
        // same bits.
        let spec = quick_spec();
        let eng = engine(2, EngineConfig::default());
        let r1 = eng
            .submit(JobRequest::new("t0", Priority::Batch, spec))
            .unwrap()
            .wait();
        let r2 = eng
            .submit(JobRequest::new("t1", Priority::Interactive, spec))
            .unwrap()
            .wait();
        let (a, b) = (r1.result().unwrap(), r2.result().unwrap());
        assert!(Arc::ptr_eq(a, b), "second run must be served from cache");
        assert_eq!(eng.registry().counter("serve.cache.hits").get(), 1);

        let uncached = engine(
            2,
            EngineConfig {
                cache_capacity: 0,
                ..EngineConfig::default()
            },
        );
        let r3 = uncached
            .submit(JobRequest::new("t0", Priority::Batch, spec))
            .unwrap()
            .wait();
        let c = r3.result().unwrap();
        assert_eq!(a.data, c.data, "cached bits differ from a fresh solve");
        assert_eq!(a.steps, c.steps);
        assert_eq!(a.t_final.to_bits(), c.t_final.to_bits());
        assert_eq!(uncached.registry().counter("serve.cache.hits").get(), 0);
    }

    #[test]
    fn batch_submit_warm_start_is_bit_identical() {
        let spec = quick_spec();
        let eng = engine(2, EngineConfig::default());
        let cold = eng
            .submit(JobRequest::new("cold", Priority::Batch, spec))
            .unwrap()
            .wait();
        // Different spec (step budget) so the cache can't serve it, but
        // same setup — exercises the warm-start path.
        let warm_spec = ScenarioSpec {
            max_steps: 41,
            ..spec
        };
        let eng2 = engine(2, EngineConfig::default());
        let mut handles = eng2.submit_batch(vec![
            JobRequest::new("warm", Priority::Batch, spec),
            JobRequest::new("warm", Priority::Batch, warm_spec),
        ]);
        let r_b = handles.pop().unwrap().unwrap().wait();
        let r_a = handles.pop().unwrap().unwrap().wait();
        assert_eq!(
            cold.result().unwrap().data,
            r_a.result().unwrap().data,
            "warm-started job diverged from the cold run"
        );
        assert!(r_b.result().is_some());
        assert_eq!(eng2.registry().counter("serve.batch.setups").get(), 1);
        assert_eq!(
            eng2.registry().counter("serve.batch.reused_setups").get(),
            1
        );
    }

    #[test]
    fn admission_rejects_over_tenant_cap_and_recovers() {
        let eng = engine(
            1,
            EngineConfig {
                tenant_queue_cap: 2,
                max_pending: 100,
                ..EngineConfig::default()
            },
        );
        let mut handles = Vec::new();
        let mut rejected = 0;
        for _ in 0..6 {
            match eng.submit(JobRequest::new("greedy", Priority::Batch, long_spec())) {
                Ok(h) => handles.push(h),
                Err(AdmissionError::TenantQueueFull { tenant, cap }) => {
                    assert_eq!(tenant, "greedy");
                    assert_eq!(cap, 2);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected rejection {e}"),
            }
        }
        assert!(rejected > 0, "tenant cap never engaged");
        assert_eq!(
            eng.registry().counter("serve.admission.rejected").get(),
            rejected
        );
        // Another tenant is unaffected by the greedy tenant's cap.
        let other = eng
            .submit(JobRequest::new(
                "polite",
                Priority::Interactive,
                quick_spec(),
            ))
            .unwrap();
        assert!(matches!(other.wait(), JobOutcome::Done(_)));
        for h in handles {
            h.cancel();
            let _ = h.wait();
        }
    }

    #[test]
    fn cancellation_mid_step_releases_worker_without_poisoned_promise() {
        // Single worker: cancel a running job, then prove the worker is
        // free by completing another job on the same pool. wait() must
        // return Cancelled — a poisoned promise would panic instead.
        let eng = engine(1, EngineConfig::default());
        let victim = eng
            .submit(JobRequest::new("t0", Priority::Batch, endless_spec()))
            .unwrap();
        // Cancel once the worker has claimed it: it cannot have finished.
        await_claim(&eng, Priority::Batch);
        victim.cancel();
        match victim.wait() {
            JobOutcome::Cancelled(CancelReason::Token) => {}
            other => panic!("expected Cancelled(Token), got {other:?}"),
        }
        assert!(eng.registry().counter("serve.jobs.cancelled").get() >= 1);
        let follow_up = eng
            .submit(JobRequest::new("t0", Priority::Batch, quick_spec()))
            .unwrap();
        assert!(
            matches!(follow_up.wait(), JobOutcome::Done(_)),
            "worker not released after cancellation"
        );
    }

    #[test]
    fn deadline_expiry_cancels() {
        let eng = engine(1, EngineConfig::default());
        let h = eng
            .submit(
                JobRequest::new("t0", Priority::Batch, endless_spec())
                    .with_deadline(Duration::from_millis(1)),
            )
            .unwrap();
        match h.wait() {
            JobOutcome::Cancelled(CancelReason::Deadline) => {}
            other => panic!("expected Cancelled(Deadline), got {other:?}"),
        }
    }

    #[test]
    fn shutdown_with_queued_jobs_resolves_them_cancelled() {
        // One worker, one running and three queued jobs: shutdown must
        // resolve every queued promise promptly (no hang, no poison) and
        // the engine must refuse new work. The running job keeps running
        // until its own token cancels it.
        let eng = engine(1, EngineConfig::default());
        let mut handles: Vec<_> = (0..4)
            .map(|_| {
                eng.submit(JobRequest::new("t0", Priority::Batch, endless_spec()))
                    .unwrap()
            })
            .collect();
        let running = handles.remove(0);
        await_claim(&eng, Priority::Batch);
        eng.shutdown();
        assert!(matches!(
            eng.submit(JobRequest::new("t0", Priority::Batch, quick_spec())),
            Err(AdmissionError::ShuttingDown)
        ));
        for h in handles {
            match h.wait_for(Duration::from_secs(30)) {
                Ok(JobOutcome::Cancelled(CancelReason::Shutdown)) => {}
                Ok(other) => panic!("expected Cancelled(Shutdown), got {other:?}"),
                Err(_) => panic!("queued job hung across shutdown"),
            }
        }
        running.cancel();
        match running.wait_for(Duration::from_secs(30)) {
            Ok(JobOutcome::Cancelled(CancelReason::Token)) => {}
            Ok(other) => panic!("expected Cancelled(Token), got {other:?}"),
            Err(_) => panic!("running job hung across shutdown"),
        }
    }

    #[test]
    fn faulty_tenant_is_isolated_and_clean_tenant_unharmed() {
        let eng = engine(
            2,
            EngineConfig {
                max_retries: 1,
                ..EngineConfig::default()
            },
        );
        // Poison every step: the job fails deterministically through
        // the retry ladder.
        let plan = FaultPlan {
            cell_poison_prob: 1.0,
            ..FaultPlan::disabled()
        };
        let faulty = eng
            .submit(JobRequest::new("chaos", Priority::Batch, quick_spec()).with_faults(plan))
            .unwrap();
        let clean = eng
            .submit(JobRequest::new("steady", Priority::Batch, quick_spec()))
            .unwrap();
        match faulty.wait() {
            JobOutcome::Failed(msg) => assert!(msg.contains("attempts"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(matches!(clean.wait(), JobOutcome::Done(_)));
        let reg = eng.registry();
        assert_eq!(reg.counter("serve.jobs.failed").get(), 1);
        assert!(reg.counter("serve.retries").get() >= 1);
        assert!(reg.counter("serve.faults.poisoned").get() >= 1);
        assert_eq!(
            reg.counter("serve.isolation.breach").get(),
            0,
            "clean tenant bled into the failure counters"
        );
        assert_eq!(reg.counter("serve.tenant.steady.completed").get(), 1);
        assert_eq!(reg.counter("serve.tenant.chaos.failed").get(), 1);
    }

    #[test]
    fn strict_priority_claims_interactive_first() {
        // Single worker, pre-loaded queues: after the running job, the
        // runner must claim the interactive job before the batch
        // backlog submitted ahead of it. The running job cannot finish on
        // its own: the worker stays on it until both jobs are queued.
        let eng = engine(1, EngineConfig::default());
        let first = eng
            .submit(JobRequest::new("t", Priority::Scavenger, endless_spec()))
            .unwrap();
        await_claim(&eng, Priority::Scavenger);
        // These queue behind the running job.
        let batch_spec = ScenarioSpec {
            max_steps: 41,
            ..quick_spec()
        };
        let inter_spec = ScenarioSpec {
            max_steps: 42,
            ..quick_spec()
        };
        let batch = eng
            .submit(JobRequest::new("t", Priority::Batch, batch_spec))
            .unwrap();
        let inter = eng
            .submit(JobRequest::new("t", Priority::Interactive, inter_spec))
            .unwrap();
        first.cancel();
        let _ = first.wait();
        let r_inter = inter.wait();
        let r_batch = batch.wait();
        let (ri, rb) = (r_inter.result().unwrap(), r_batch.result().unwrap());
        // Both completed; the wait histograms carry the ordering (the
        // interactive job waited less than the batch job despite being
        // submitted later). Spot-check via the per-class wait p99.
        let snap = eng.registry().snapshot();
        let wi = snap.histograms.get("serve.wait.interactive").unwrap();
        let wb = snap.histograms.get("serve.wait.batch").unwrap();
        assert!(ri.steps > 0 && rb.steps > 0);
        assert!(
            wi.quantile(0.99) <= wb.quantile(0.99),
            "interactive waited longer than batch: {} vs {}",
            wi.quantile(0.99),
            wb.quantile(0.99)
        );
        // The claim ordinals carry it exactly.
        let claimed = |class| eng.claim_span(class).expect("claimed");
        let (ci, cb) = (claimed(Priority::Interactive), claimed(Priority::Batch));
        assert!(
            ci.1 < cb.0,
            "interactive claims {ci:?}, batch claims {cb:?}"
        );
        assert_eq!(
            claimed(Priority::Scavenger).1 + ci.1 + cb.1,
            3,
            "three claims numbered 0, 1, 2"
        );
    }

    #[test]
    fn queue_depth_gauge_tracks_inflight() {
        let eng = engine(1, EngineConfig::default());
        assert_eq!(eng.queue_depth(), 0);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                eng.submit(JobRequest::new("t", Priority::Batch, quick_spec()))
                    .unwrap()
            })
            .collect();
        assert!(eng.queue_depth() >= 1);
        for h in handles {
            let _ = h.wait();
        }
        assert_eq!(eng.queue_depth(), 0);
    }
}
