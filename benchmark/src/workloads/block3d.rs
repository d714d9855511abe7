//! `block3d_flow`: two 16³ ranks on the modelled cluster, driven through
//! the resilient advance — the strong-scaling limit, where halos, the Δt
//! collective and snapshot hashing take their largest share.

use crate::harness::{RepeatOutcome, TraceCtx, Workload};
use crate::layers::probe_kernels;
use crate::result::Metrics;
use crate::rng::Rng;
use crate::stats::median;
use crate::sys::allocs;
use rhrsc_comm::{run, NetworkModel, Rank};
use rhrsc_grid::{bc, Bc, CartDecomp, Field};
use rhrsc_io::snapshot::fnv1a_f64;
use rhrsc_io::{MemorySnapshot, StateChecksum};
use rhrsc_runtime::{Registry, Tracer};
use rhrsc_solver::diag::{conserved_totals, l1_density_error};
use rhrsc_solver::driver::{
    BlockSolver, DistConfig, DistStats, ExchangeMode, ResilienceConfig, ResilienceStats,
};
use rhrsc_solver::problems::ExactFn;
use rhrsc_solver::{RkOrder, Scheme};
use rhrsc_srhd::{Prim, NCOMP};
use std::f64::consts::TAU;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const GLOBAL_N: [usize; 3] = [32, 16, 16];
const DOMAIN: ([f64; 3], [f64; 3]) = ([0.0; 3], [2.0, 1.0, 1.0]);
const T_END: f64 = 0.06;
const RK: RkOrder = RkOrder::Rk2;
/// L1(ρ) at this commit is 0.0021 (PPM on 16 cells per wavelength); a
/// wave advected the wrong way is off by the amplitude.
const L1_GATE: f64 = 0.004;

/// What the seed draws: the wave's phase in whole cells, which axes are
/// mirrored, and its amplitude to within 1 %. Mirroring flips a component
/// of the velocity (|v| fixed, W ≈ 2) and of the wave vector together, so
/// every draw is the same flow translated and seen in another octant:
/// same work, same relative error, other bits.
#[derive(Clone, Copy)]
struct Wave {
    amplitude: f64,
    phase: f64,
    v: [f64; 3],
    /// Wave vector in units of 2π: (±1, ±1, ±1).
    k: [f64; 3],
}

impl Wave {
    fn rho(&self, x: [f64; 3], t: f64) -> f64 {
        let s: f64 = (0..3).map(|d| self.k[d] * (x[d] - self.v[d] * t)).sum();
        1.0 + self.amplitude * (TAU * s + self.phase).sin()
    }

    fn ic(&self, x: [f64; 3]) -> Prim {
        Prim {
            rho: self.rho(x, 0.0),
            vel: self.v,
            p: 1.0,
        }
    }
}

/// How one run of the rank universe is driven.
#[derive(Clone, Copy)]
enum Drive {
    /// `advance_to_with_restart` with the default memory tiers: the workload.
    Resilient,
    /// Plain `advance_to`, for the resilience overhead.
    Plain,
}

/// What one rank reports back.
struct RankOut {
    built_s: f64,
    solve_s: f64,
    /// Allocations on any thread from the `run` call to the end of the
    /// solve.
    allocs: u64,
    stats: DistStats,
    rstats: ResilienceStats,
    totals: [[f64; NCOMP]; 2],
    /// The gathered global state (block rank 0 only).
    global: Option<Field>,
    error: Option<String>,
}

pub struct Block3d {
    wave: Wave,
    first: Option<Field>,
}

/// The modelled interconnect: 10 µs latency, 10 GB/s.
fn cluster() -> NetworkModel {
    NetworkModel::virtual_cluster(Duration::from_micros(10), 10e9)
}

fn config(nranks: usize) -> DistConfig {
    DistConfig {
        scheme: Scheme::default_with_gamma(5.0 / 3.0),
        rk: RK,
        global_n: GLOBAL_N,
        domain: DOMAIN,
        decomp: CartDecomp {
            dims: [nranks, 1, 1],
            periodic: [true; 3],
        },
        bcs: bc::uniform(Bc::Periodic),
        cfl: 0.4,
        mode: ExchangeMode::Overlap,
        gang_threads: 0,
        dt_refresh_interval: 5,
    }
}

impl Block3d {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, "block3d_flow");
        let cells_per_wave = GLOBAL_N[1];
        let phase = TAU * rng.below(cells_per_wave) as f64 / cells_per_wave as f64;
        let amplitude = 0.3 * rng.uniform(0.99, 1.01);
        let (mut v, mut k) = ([0.7, -0.4, 0.3], [1.0; 3]);
        for d in 0..3 {
            if rng.below(2) == 1 {
                v[d] = -v[d];
                k[d] = -k[d];
            }
        }
        Block3d {
            wave: Wave {
                amplitude,
                phase,
                v,
                k,
            },
            first: None,
        }
    }

    /// One complete run on `nranks` ranks over `model`, to `T_END`.
    fn run_universe(
        &self,
        nranks: usize,
        model: NetworkModel,
        drive: Drive,
        reg: Option<&Arc<Registry>>,
        tracer: Option<&Arc<Tracer>>,
    ) -> Vec<RankOut> {
        let cfg = config(nranks);
        let wave = self.wave;
        let a_call = allocs();
        run(nranks, model, |rank: &mut Rank| {
            // Set-up is timed from the rank's own start: how long
            // `comm::run` takes to get a thread onto a vCPU is host
            // scheduling (0.1–0.8 ms, drifting between runs), not the
            // program's work.
            let t_entry = Instant::now();
            if let Some(reg) = reg {
                rank.set_metrics(reg.clone());
            }
            if let Some(tracer) = tracer {
                // The driver's own phase spans, one track per rank.
                rank.set_trace(tracer.clone());
            }
            let (mut solver, mut u) = BlockSolver::new(cfg.clone(), rank.rank(), &|x| wave.ic(x));
            if let Some(reg) = reg {
                solver.set_metrics(reg.clone());
            }
            let built_s = t_entry.elapsed().as_secs_f64();
            let totals0 = conserved_totals(&u);
            rank.barrier();

            let t0 = Instant::now();
            let advanced = match drive {
                Drive::Resilient => solver.advance_to_with_restart(
                    rank,
                    &mut u,
                    0.0,
                    T_END,
                    &ResilienceConfig::default(),
                ),
                Drive::Plain => solver
                    .advance_to(rank, &mut u, 0.0, T_END)
                    .map(|s| (s, ResilienceStats::default())),
            };
            rank.barrier();
            let solve_s = t0.elapsed().as_secs_f64();
            let heap = allocs() - a_call;

            let (stats, rstats, mut error) = match advanced {
                Ok((s, r)) => (s, r, None),
                Err(e) => (
                    DistStats::default(),
                    ResilienceStats::default(),
                    Some(e.to_string()),
                ),
            };
            let global = match solver.gather_interior(rank, &u) {
                Ok(g) => g,
                Err(e) => {
                    error.get_or_insert(e.to_string());
                    None
                }
            };
            RankOut {
                built_s,
                solve_s,
                allocs: heap,
                stats,
                rstats,
                totals: [totals0, conserved_totals(&u)],
                global,
                error,
            }
        })
    }

    /// The workload's own run: two ranks, modelled cluster, resilient.
    fn solve(&self, reg: Option<&Arc<Registry>>, tracer: Option<&Arc<Tracer>>) -> Vec<RankOut> {
        self.run_universe(2, cluster(), Drive::Resilient, reg, tracer)
    }
}

/// Simulated makespan of a run: the slowest rank's virtual clock.
fn makespan(outs: &[RankOut]) -> f64 {
    outs.iter().map(|o| o.stats.vtime).fold(0.0, f64::max)
}

impl Workload for Block3d {
    fn repeat(&mut self, id: u32, trace: Option<&TraceCtx>) -> RepeatOutcome {
        let mut outs = match trace {
            None => self.solve(None, None),
            Some(tr) => {
                tr.span("block3d_flow.universe", id, || {
                    self.solve(None, Some(&tr.tracer))
                })
                .0
            }
        };
        let mut failures: Vec<String> = outs
            .iter()
            .filter_map(|o| o.error.as_ref().map(|e| format!("rank failed: {e}")))
            .collect();
        for c in [0, NCOMP - 1] {
            let sum = |when: usize| outs.iter().map(|o| o.totals[when][c]).sum::<f64>();
            let drift = ((sum(1) - sum(0)) / sum(0)).abs();
            if drift > 1e-12 {
                failures.push(format!("component {c} conservation drift {drift:e}"));
            }
        }
        let global = outs[0].global.take();
        let out = RepeatOutcome {
            setup_s: outs.iter().map(|o| o.built_s).fold(0.0, f64::max),
            solve_s: outs.iter().map(|o| o.solve_s).fold(0.0, f64::max),
            modeled_s: Some(makespan(&outs)),
            zone_updates: outs.iter().map(|o| o.stats.zone_updates).sum(),
            allocs: outs[0].allocs,
            digest: global.as_ref().map_or(0, |g| fnv1a_f64(g.raw())),
            ops: 1,
            failures,
            ..RepeatOutcome::default()
        };
        if let Some(g) = global {
            self.first.get_or_insert(g);
        }
        out
    }

    fn l1_density_error(&mut self) -> Result<f64, String> {
        let u = self.first.as_ref().ok_or("no gathered state")?;
        let wave = self.wave;
        let exact: ExactFn = Arc::new(move |x, t| Prim {
            rho: wave.rho(x, t),
            ..wave.ic(x)
        });
        l1_density_error(&config(1).scheme, u, &exact, T_END)
            .map(|(l1, _)| l1)
            .map_err(|e| e.to_string())
    }

    fn l1_gate(&self) -> f64 {
        L1_GATE
    }

    /// Two ranks must reproduce one rank bit for bit.
    fn check_once(&mut self) -> Vec<String> {
        let mut one = self.run_universe(1, cluster(), Drive::Resilient, None, None);
        let mut two = self.solve(None, None);
        match (one[0].global.take(), two[0].global.take()) {
            (Some(a), Some(b)) if a.raw() == b.raw() => Vec::new(),
            (Some(_), Some(_)) => vec!["2-rank final state differs from 1-rank".to_string()],
            _ => vec!["1-rank/2-rank comparison run failed".to_string()],
        }
    }

    fn probe_layers(&mut self, trace: &TraceCtx, out: &mut Metrics) {
        let cfg = config(2);
        let wave = self.wave;
        let block_zones = (GLOBAL_N[0] * GLOBAL_N[1] * GLOBAL_N[2]) as f64;
        let stages = RK.stages() as f64;

        // One rank's block at mid-run, and the driver's finer calls on it:
        // `stable_dt` (local scan + Δt allreduce) and `step`.
        const STEPS: usize = 6;
        let (per_rank, factor) = trace.bracket(|| {
            run(2, cluster(), |rank: &mut Rank| {
                let (mut solver, mut u) =
                    BlockSolver::new(cfg.clone(), rank.rank(), &|x| wave.ic(x));
                solver
                    .advance_to(rank, &mut u, 0.0, 0.5 * T_END)
                    .expect("flow to mid-run");
                let mid = u.clone();
                let (mut dt_s, mut step_s) = (Vec::new(), Vec::new());
                for _ in 0..STEPS {
                    rank.barrier();
                    let t0 = Instant::now();
                    let dt = solver.stable_dt(rank, &mut u).expect("stable_dt");
                    dt_s.push(t0.elapsed().as_secs_f64());
                    rank.barrier();
                    let t0 = Instant::now();
                    solver.step(rank, &mut u, dt).expect("step");
                    rank.barrier();
                    step_s.push(t0.elapsed().as_secs_f64());
                }
                (mid, median(&dt_s), median(&step_s))
            })
        });
        let (mid, dt_s, step_s) = &per_rank[0];
        probe_kernels(trace, &cfg.scheme, &cfg.bcs, RK, mid, out);
        // Compute sections of the two ranks are serialised, so the wall
        // time of a step is the time of all zones of both blocks.
        let driver_ns = step_s * factor * 1e9 / (block_zones * stages);
        out.set("solver.driver.step.ns_per_zone", driver_ns);
        out.set("solver.driver.stable_dt.ns_per_call", dt_s * factor * 1e9);
        let patch_ns = out
            .get("solver.integrate.step.ns_per_zone")
            .expect("just set");
        out.set("solver.driver.overhead_vs_patch", driver_ns / patch_ns);

        // Whole solves side by side: the workload's run against the plain
        // advance, one rank, and a free network. Ratios of runs taken in
        // the same host phase need no normalisation.
        let free_net = NetworkModel::virtual_cluster(Duration::ZERO, f64::INFINITY);
        let (mut resilience, mut efficiency, mut net) = (Vec::new(), Vec::new(), Vec::new());
        let wall = |outs: &[RankOut]| outs.iter().map(|o| o.solve_s).fold(0.0, f64::max);
        for _ in 0..3 {
            let base = self.solve(None, None);
            let plain = self.run_universe(2, cluster(), Drive::Plain, None, None);
            let single = self.run_universe(1, cluster(), Drive::Resilient, None, None);
            let ideal = self.run_universe(2, free_net, Drive::Resilient, None, None);
            resilience.push(wall(&base) / wall(&plain) - 1.0);
            efficiency.push(makespan(&single) / (2.0 * makespan(&base)));
            net.push(1.0 - makespan(&ideal) / makespan(&base));
        }
        out.set(
            "solver.driver.resilience_overhead_frac",
            median(&resilience),
        );
        out.set("solver.driver.parallel_efficiency_2r", median(&efficiency));
        out.set("comm.rank.modeled_net_frac", median(&net));

        // Exact counts of one solve, from the program's own counters.
        let reg = Arc::new(Registry::new());
        let counted = trace
            .span("block3d_flow.counted_solve", 0, || {
                self.solve(Some(&reg), None)
            })
            .0;
        let steps = counted[0].stats.steps as f64;
        let snap = reg.snapshot();
        let sum = |prefix: &str| -> f64 {
            snap.counters
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| *v as f64)
                .sum()
        };
        out.set("comm.rank.msgs_per_step", sum("comm.msgs.") / steps);
        out.set("comm.rank.bytes_per_step", sum("comm.bytes.") / steps);
        out.set(
            "solver.driver.snapshots_per_solve",
            counted[0].rstats.local_snapshots as f64,
        );
        let repaired = counted[0].rstats.recovery.total() as f64;
        out.set(
            "srhd.con2prim.fallback_frac",
            repaired / counted[0].stats.zone_updates.max(1) as f64,
        );

        // Point-to-point and collective round trips on a free, wall-clock
        // network, at the size of one x-face halo.
        const ROUNDS: usize = 200;
        let ng = cfg.scheme.required_ghosts();
        let face = vec![1.0; NCOMP * ng * GLOBAL_N[1] * GLOBAL_N[2]];
        let (times, factor) = trace.bracket(|| {
            run(2, NetworkModel::ideal(), |rank: &mut Rank| {
                let peer = 1 - rank.rank();
                rank.barrier();
                let t0 = Instant::now();
                for _ in 0..ROUNDS {
                    if rank.rank() == 0 {
                        rank.send(peer, 7, &face);
                        black_box(rank.recv(peer, 7));
                    } else {
                        black_box(rank.recv(peer, 7));
                        rank.send(peer, 7, &face);
                    }
                }
                let pingpong = t0.elapsed().as_secs_f64() / (2 * ROUNDS) as f64;
                let t0 = Instant::now();
                for i in 0..ROUNDS {
                    black_box(rank.allreduce_min(i as f64));
                }
                (pingpong, t0.elapsed().as_secs_f64() / ROUNDS as f64)
            })
        });
        out.set("comm.rank.sendrecv.ns_per_msg", times[0].0 * factor * 1e9);
        out.set("comm.rank.allreduce.ns_per_call", times[0].1 * factor * 1e9);

        // ABFT stamp and snapshot capture of one rank's block.
        let bytes = (mid.raw().len() * 8) as f64;
        let stamp = trace.probe("io.snapshot.stamp", 15, || {
            black_box(StateChecksum::stamp(mid.raw(), NCOMP));
        });
        let raw: Vec<u8> = mid.raw().iter().flat_map(|v| v.to_le_bytes()).collect();
        let capture = trace.probe("io.snapshot.capture", 15, || {
            black_box(MemorySnapshot::new(0, 0.0, raw.clone()));
        });
        out.set("io.snapshot.stamp.ns_per_byte", stamp * 1e9 / bytes);
        out.set("io.snapshot.capture.ns_per_byte", capture * 1e9 / bytes);
    }
}
