//! `serve_sweep`: the ensemble service under a closed loop of one client —
//! a batch wave, awaited interactive jobs beside it, then a second wave of
//! which half is already cached.

use crate::harness::{RepeatOutcome, TraceCtx, Workload};
use crate::layers::probe_kernels;
use crate::result::Metrics;
use crate::rng::Rng;
use crate::stats::median;
use crate::sys::allocs;
use rhrsc_grid::{Field, PatchGeom};
use rhrsc_io::snapshot::fnv1a_f64;
use rhrsc_runtime::{Registry, WorkStealingPool};
use rhrsc_serve::{
    EngineConfig, EnsembleEngine, JobHandle, JobOutcome, JobRequest, JobResult, Priority,
    ProblemKind, ScenarioSpec,
};
use rhrsc_solver::diag::{conserved_totals, l1_density_error};
use rhrsc_solver::scheme::init_cons;
use rhrsc_solver::PatchSolver;
use rhrsc_srhd::NCOMP;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const WORKERS: usize = 2;
const WAVE: usize = 16;
const REPEATED: usize = 8;
const INTERACTIVE: usize = 6;
const JOBS: usize = 2 * WAVE + INTERACTIVE;
const WAVE_NX: usize = 128;
const WAVE_T_END: f64 = 0.2;
const SOD_NX: usize = 64;
const SETUP_BATCH: usize = 16;
/// L1(ρ) of the fixed wave job is 5.9e-5 at this commit (PPM, 128 cells).
const L1_GATE: f64 = 1.2e-4;

pub struct Serve {
    /// Built once per process and held by the harness until exit:
    /// dropping the last `Arc` of a pool from one of its own runner
    /// threads panics (`failed to join thread: Resource deadlock avoided`),
    /// so the harness must outlive every engine (see `shutdown`).
    pool: Arc<WorkStealingPool>,
    wave1: Vec<ScenarioSpec>,
    interactive: Vec<ScenarioSpec>,
    /// `REPEATED` specs of wave 1 again, then as many new ones, shuffled.
    wave2: Vec<ScenarioSpec>,
    /// Results of repeat 0, in submission order.
    first: Option<Vec<Arc<JobResult>>>,
}

/// Two batch specs on one density wave: same initial data (so the second
/// reuses the first's set-up inside a batch), different CFL numbers (so
/// both are solved).
fn wave_pair(v: f64, amplitude: f64) -> [ScenarioSpec; 2] {
    let base = ScenarioSpec {
        t_end: Some(WAVE_T_END),
        ..ScenarioSpec::new(ProblemKind::DensityWave { v, amplitude }, WAVE_NX)
    };
    [base, ScenarioSpec { cfl: 0.35, ..base }]
}

fn drawn_pair(rng: &mut Rng) -> [ScenarioSpec; 2] {
    wave_pair(rng.uniform(0.3, 0.6), rng.uniform(0.1, 0.5))
}

/// What one sweep measured and returned.
struct Sweep {
    setup_s: f64,
    solve_s: f64,
    allocs: u64,
    submit1_s: f64,
    latencies_s: Vec<f64>,
    /// Outcomes in submission order: wave 1, interactive, wave 2.
    outcomes: Vec<JobOutcome>,
    reg: Arc<Registry>,
}

impl Serve {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, "serve_sweep");
        // The first pair is the same for every seed: its first job is the
        // one whose L1 error is reported.
        let mut wave1 = wave_pair(0.45, 0.3).to_vec();
        wave1.extend((2..WAVE).step_by(2).flat_map(|_| drawn_pair(&mut rng)));
        // Six distinct boosts, so no interactive job hits the cache.
        let interactive = (0..INTERACTIVE)
            .map(|i| {
                let vb = 0.1 * (i + 1) as f64 + rng.uniform(-0.03, 0.03);
                ScenarioSpec::new(ProblemKind::BoostedSod { vb }, SOD_NX)
            })
            .collect();
        // Which eight repeat: a seeded partial shuffle of wave 1.
        let mut order: Vec<usize> = (0..WAVE).collect();
        for i in 0..REPEATED {
            order.swap(i, i + rng.below(WAVE - i));
        }
        let mut wave2: Vec<ScenarioSpec> = order[..REPEATED].iter().map(|&i| wave1[i]).collect();
        wave2.extend(
            (REPEATED..WAVE)
                .step_by(2)
                .flat_map(|_| drawn_pair(&mut rng)),
        );
        for i in 0..WAVE {
            wave2.swap(i, i + rng.below(WAVE - i));
        }
        Serve {
            pool: Arc::new(WorkStealingPool::new(WORKERS)),
            wave1,
            interactive,
            wave2,
            first: None,
        }
    }

    /// One closed-loop sweep on a fresh engine (cold cache).
    fn sweep(&self, trace: Option<(&TraceCtx, u32)>) -> Sweep {
        // Run `f` under a span when tracing.
        fn spanned<T>(
            trace: Option<(&TraceCtx, u32)>,
            name: &'static str,
            f: impl FnOnce() -> T,
        ) -> T {
            match trace {
                Some((tr, id)) => tr.span(name, id, f).0,
                None => f(),
            }
        }
        let wait_all = |handles: Vec<JobHandle>| -> Vec<JobOutcome> {
            handles.into_iter().map(JobHandle::wait).collect()
        };
        let requests = |specs: &[ScenarioSpec]| -> Vec<JobRequest> {
            specs
                .iter()
                .map(|&spec| JobRequest::new("sweep", Priority::Batch, spec))
                .collect()
        };
        let admit = |engine: &EnsembleEngine, reqs: Vec<JobRequest>| -> Vec<JobHandle> {
            engine
                .submit_batch(reqs)
                .into_iter()
                .map(|h| h.expect("admission refused a batch job"))
                .collect()
        };

        // Set-up is what the client builds before its first submit: the
        // engine and the wave-1 requests. (Admission itself runs beside
        // the workers it has just woken: on two vCPUs the client is
        // descheduled for milliseconds in half of the repeats, which made
        // a set-up time that included it bimodal. It counts towards the
        // time to solution.) One construction takes ≈ 15 µs: batch them.
        let build = || {
            let reg = Arc::new(Registry::new());
            let engine =
                EnsembleEngine::new(self.pool.clone(), reg.clone(), EngineConfig::default());
            (reg, engine, requests(&self.wave1))
        };
        let a0 = allocs();
        let t0 = Instant::now();
        let mut built = build();
        for _ in 1..SETUP_BATCH {
            built = build();
        }
        let setup_s = t0.elapsed().as_secs_f64() / SETUP_BATCH as f64;
        let setup_allocs = (allocs() - a0) / SETUP_BATCH as u64;
        let (reg, engine, reqs1) = built;

        let a1 = allocs();
        let first_submit = Instant::now();
        let handles1 = spanned(trace, "serve_sweep.submit_wave1", || admit(&engine, reqs1));
        let submit1_s = first_submit.elapsed().as_secs_f64();

        // While wave 1 drains: interactive jobs, one at a time.
        let mut latencies_s = Vec::new();
        let mut interactive = Vec::new();
        for &spec in &self.interactive {
            let t = Instant::now();
            let outcome = spanned(trace, "serve_sweep.interactive_job", || {
                engine
                    .submit(JobRequest::new("client", Priority::Interactive, spec))
                    .expect("admission refused an interactive job")
                    .wait()
            });
            latencies_s.push(t.elapsed().as_secs_f64());
            interactive.push(outcome);
        }
        // Wave 2 is submitted once wave 1 is done, so its repeats hit the
        // cache: duplicates inside an in-flight wave never do.
        let mut outcomes = spanned(trace, "serve_sweep.wait_wave1", || wait_all(handles1));
        outcomes.extend(interactive);
        let handles2 = spanned(trace, "serve_sweep.submit_wave2", || {
            admit(&engine, requests(&self.wave2))
        });
        outcomes.extend(spanned(trace, "serve_sweep.wait_wave2", || {
            wait_all(handles2)
        }));
        let solve_s = first_submit.elapsed().as_secs_f64();
        let heap = setup_allocs + (allocs() - a1);
        engine.shutdown();
        Sweep {
            setup_s,
            solve_s,
            allocs: heap,
            submit1_s,
            latencies_s,
            outcomes,
            reg,
        }
    }

    fn specs_in_order(&self) -> impl Iterator<Item = &ScenarioSpec> {
        self.wave1
            .iter()
            .chain(&self.interactive)
            .chain(&self.wave2)
    }
}

/// The initial field of a spec, as the engine builds it.
fn initial_field(spec: &ScenarioSpec) -> Field {
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

/// Solve a spec on the calling thread with no engine around it.
fn bare_solve(spec: &ScenarioSpec) {
    let prob = spec.problem.build();
    let mut u = initial_field(spec);
    PatchSolver::new(spec.scheme(), prob.bcs, spec.rk, *u.geom())
        .advance_to(
            &mut u,
            0.0,
            spec.t_end.unwrap_or(prob.t_end),
            spec.cfl,
            None,
        )
        .expect("bare solve");
    black_box(u);
}

impl Workload for Serve {
    fn repeat(&mut self, id: u32, trace: Option<&TraceCtx>) -> RepeatOutcome {
        let sweep = match trace {
            None => self.sweep(None),
            Some(tr) => {
                tr.span("serve_sweep.sweep", id, || self.sweep(Some((tr, id))))
                    .0
            }
        };
        let mut failures = Vec::new();
        let mut results: Vec<Arc<JobResult>> = Vec::new();
        for (i, outcome) in sweep.outcomes.iter().enumerate() {
            match outcome {
                JobOutcome::Done(r) => results.push(r.clone()),
                other => failures.push(format!("job {i} ended {other:?}")),
            }
        }
        let counter = |name: &str| sweep.reg.counter(name).get();
        let hits = counter("serve.cache.hits");
        if hits != REPEATED as u64 {
            failures.push(format!("{hits} cache hits, expected {REPEATED}"));
        }
        if counter("serve.isolation.breach") != 0 {
            failures.push("serve.isolation.breach is not 0".to_string());
        }

        let (mut zone_updates, mut words) = (0u64, Vec::new());
        if results.len() == JOBS {
            // A cached result must be the original, bit for bit.
            for (spec, r2) in self.wave2.iter().zip(&results[WAVE + INTERACTIVE..]) {
                if let Some(i) = self.wave1.iter().position(|s| s == spec) {
                    if results[i].data != r2.data || results[i].steps != r2.steps {
                        failures.push(format!("cached result of wave-1 job {i} differs"));
                    }
                }
            }
            // Executed jobs only: cache hits update no zone.
            for (i, (spec, r)) in self.specs_in_order().zip(&results).enumerate() {
                let hit = i >= WAVE + INTERACTIVE && self.wave1.contains(spec);
                if !hit {
                    zone_updates += r.steps * (spec.nx * spec.rk.stages()) as u64;
                }
                words.extend([r.steps as f64, r.t_final]);
                words.extend_from_slice(&r.data);
            }
            // D and τ of the fixed periodic wave job.
            let u0 = initial_field(&self.wave1[0]);
            let before = conserved_totals(&u0);
            let u1 = Field::from_vec(*u0.geom(), NCOMP, results[0].data.clone());
            let after = conserved_totals(&u1);
            for c in [0, NCOMP - 1] {
                let drift = ((after[c] - before[c]) / before[c]).abs();
                if drift > 1e-12 {
                    failures.push(format!("component {c} conservation drift {drift:e}"));
                }
            }
            self.first.get_or_insert(results);
        }
        RepeatOutcome {
            setup_s: sweep.setup_s,
            solve_s: sweep.solve_s,
            latencies_s: sweep.latencies_s,
            zone_updates,
            allocs: sweep.allocs,
            digest: fnv1a_f64(&words),
            ops: JOBS as u64,
            failures,
            ..RepeatOutcome::default()
        }
    }

    /// The fixed wave job (the first of wave 1) against the exact wave.
    fn l1_density_error(&mut self) -> Result<f64, String> {
        let first = self.first.as_ref().ok_or("repeat 0 lost a job")?;
        let spec = &self.wave1[0];
        let exact = spec.problem.build().exact.ok_or("no exact solution")?;
        let geom = *initial_field(spec).geom();
        let u = Field::from_vec(geom, NCOMP, first[0].data.clone());
        l1_density_error(&spec.scheme(), &u, &exact, first[0].t_final)
            .map(|(l1, _)| l1)
            .map_err(|e| e.to_string())
    }

    fn l1_gate(&self) -> f64 {
        L1_GATE
    }

    fn probe_layers(&mut self, trace: &TraceCtx, out: &mut Metrics) {
        // The shared kernels on the fixed wave job's state at mid-run.
        let spec = ScenarioSpec {
            t_end: Some(0.5 * WAVE_T_END),
            ..self.wave1[0]
        };
        let prob = spec.problem.build();
        let mut u = initial_field(&spec);
        PatchSolver::new(spec.scheme(), prob.bcs, spec.rk, *u.geom())
            .advance_to(&mut u, 0.0, 0.5 * WAVE_T_END, spec.cfl, None)
            .expect("wave to mid-run");
        probe_kernels(trace, &spec.scheme(), &prob.bcs, spec.rk, &u, out);

        // Pool and hash round trips.
        const TASKS: usize = 1000;
        let pool = self.pool.clone();
        let spawn_join = trace.probe("runtime.pool.spawn_join", 15, || {
            let futs: Vec<_> = (0..TASKS).map(|_| pool.spawn(|| ())).collect();
            futs.into_iter().for_each(|f| f.get());
        });
        out.set(
            "runtime.pool.spawn_join.ns_per_task",
            spawn_join * 1e9 / TASKS as f64,
        );
        let hash = trace.probe("serve.spec.canonical_hash", 15, || {
            for s in self.specs_in_order() {
                black_box(s.canonical_hash());
            }
        });
        out.set("serve.spec.canonical_hash.ns", hash * 1e9 / JOBS as f64);

        // Whole sweeps beside the bare solves of the jobs they execute:
        // what the two workers spent outside `PatchSolver`.
        let executed: Vec<ScenarioSpec> = {
            let mut seen: Vec<ScenarioSpec> = Vec::new();
            for s in self.specs_in_order() {
                if !seen.contains(s) {
                    seen.push(*s);
                }
            }
            seen
        };
        let ((overhead, submit, last), factor) = trace.bracket(|| {
            let (mut overhead, mut submit, mut last) = (Vec::new(), Vec::new(), None);
            for i in 0..3 {
                let sweep = trace
                    .span("serve_sweep.counted_sweep", i, || self.sweep(None))
                    .0;
                // Bare solves on as many threads as the pool has workers,
                // so both run with the same cores busy; the sum of the
                // threads' busy times is the work the sweep had to do.
                let bare_s = trace
                    .span("serve_sweep.bare_solves", i, || {
                        std::thread::scope(|scope| {
                            let threads: Vec<_> = (0..WORKERS)
                                .map(|w| {
                                    let mine = executed.iter().skip(w).step_by(WORKERS);
                                    scope.spawn(move || {
                                        let t = Instant::now();
                                        mine.for_each(bare_solve);
                                        t.elapsed().as_secs_f64()
                                    })
                                })
                                .collect();
                            threads
                                .into_iter()
                                .map(|t| t.join().expect("bare solve panicked"))
                                .sum::<f64>()
                        })
                    })
                    .0;
                overhead.push(1.0 - bare_s / (WORKERS as f64 * sweep.solve_s));
                submit.push(sweep.submit1_s / WAVE as f64);
                last = Some(sweep);
            }
            (overhead, submit, last)
        });
        out.set("serve.engine.dispatch_overhead_frac", median(&overhead));
        out.set(
            "serve.engine.submit.ns_per_job",
            median(&submit) * factor * 1e9,
        );
        let reg = last.expect("three sweeps ran").reg;
        let counter = |name: &str| reg.counter(name).get() as f64;
        let (built, reused) = (
            counter("serve.batch.setups"),
            counter("serve.batch.reused_setups"),
        );
        out.set("serve.engine.setups_reused_frac", reused / (built + reused));
        let (hits, misses) = (counter("serve.cache.hits"), counter("serve.cache.misses"));
        out.set("serve.cache.hit_ratio", hits / (hits + misses));

        // Submit→result of a job the cache already holds.
        let engine = EnsembleEngine::new(
            self.pool.clone(),
            Arc::new(Registry::new()),
            EngineConfig::default(),
        );
        let cached = self.wave1[0];
        let submit_wait = || {
            engine
                .submit(JobRequest::new("client", Priority::Interactive, cached))
                .expect("admission")
                .wait()
        };
        black_box(submit_wait());
        let hit = trace.probe("serve.cache.hit", 200, || {
            black_box(submit_wait());
        });
        engine.shutdown();
        out.set("serve.cache.hit_latency_s", hit);
    }

    /// Wait until no pool worker is still inside an engine's runner: a
    /// task on every worker at once means every earlier job has returned,
    /// so the harness thread, not a runner, drops the pool last.
    fn shutdown(&mut self) {
        let barrier = Arc::new(Barrier::new(WORKERS));
        let fence: Vec<_> = (0..WORKERS)
            .map(|_| {
                let b = barrier.clone();
                self.pool.spawn(move || {
                    b.wait();
                })
            })
            .collect();
        fence.into_iter().for_each(|f| f.get());
    }
}
