//! The recovery ladder: one resilient advance loop, one configuration and
//! one ledger for every distributed driver.
//!
//! [`resilient_advance`] owns the *policy* of fault escalation — what the
//! ranks agree on after every step attempt, when a failed attempt is
//! retried, how far the CFL number backs off and how it ramps back, when
//! a restore is due and what it costs, and when a silent peer turns into
//! a shrink — and it *books* every rung it climbs: the
//! [`ResilienceStats`] field, the registry counter and the trace instant
//! are spelled here once, under the same names for every driver. The
//! *mechanics* of each rung (how a state is rolled back, which snapshot
//! tiers exist, how a decomposition is re-cut) are the driver's, reached
//! through the [`Recoverable`] hooks. The block driver
//! ([`crate::driver::BlockSolver::advance_to_with_restart`]) and the
//! distributed AMR driver ([`crate::amr_dist::DistAmrSolver::advance_to`])
//! are the two implementations; both take a [`ResilienceConfig`] and
//! return a [`ResilienceStats`].
//!
//! Per attempt the ranks agree (armored max, [`Rank::agree_max`]) on one
//! of four values:
//!
//! | agreed | meaning | response |
//! |---|---|---|
//! | `0` | clean everywhere | commit, double the CFL scale back toward 1 |
//! | `1` | a step failed somewhere | roll back; retry at half the CFL, and once the retries are spent restore (one unit of budget) and resume at [`RESTART_CFL_SCALE`] |
//! | [`SDC_FLAG`] | a live state silently rotted | restore at once, free of budget — the rollback copy is corrupt too and the numerics were never at fault |
//! | ≥ [`SUSPECT_FLAG`] | a peer looks dead | roll back, run the suspicion consensus: a confirmed death shrinks onto the survivors, a false alarm is an ordinary retry |
//!
//! Every branch is taken on an agreed value or on counters that march in
//! lockstep, so all ranks climb the same rungs.
//!
//! What the ladder books, per rung (counters only when the driver has a
//! registry attached):
//!
//! | rung | [`ResilienceStats`] | counter | trace |
//! |---|---|---|---|
//! | agreement round | — | `sub.liveness.agree` histogram (ns) | `sub.liveness.agree` span |
//! | retry | `retries`, `retried_steps` | `driver.retries` | `driver.retry` (attempt) |
//! | false suspicion | `false_suspicions` | `driver.false_suspicions` | `driver.false_suspicion` (step) |
//! | shrink | `shrinks`, `ranks_lost` | `driver.shrinks`, `driver.ranks_lost` | `driver.shrink` (ranks lost) |
//! | SDC restore | — | `sdc.restores` | — |
//! | budgeted restore | `restarts` | `driver.restarts` | — |

use crate::scheme::{RecoveryStats, SolverError};
use rhrsc_comm::{Rank, SUSPECT_FLAG};
use rhrsc_runtime::metrics::Registry;
use std::path::PathBuf;
use std::time::Instant;

/// Agreement value for "this rank detected silent data corruption in its
/// live state". Sits between the ordinary step-failure flag (1.0, retry
/// rung) and [`SUSPECT_FLAG`] (2.0, consensus rung): an SDC hit cannot be
/// retried — the rollback backup is corrupt too — so the agreed response
/// is a collective restore from the cheapest valid snapshot tier, but
/// nobody is suspected dead.
const SDC_FLAG: f64 = 1.5;

/// CFL scale a run resumes at after a restore or a shrink; successful
/// steps double it back toward 1.
pub const RESTART_CFL_SCALE: f64 = 0.25;

/// Knobs of the recovery ladder and of the tiers it restores from, the
/// same for both distributed drivers.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Retries of a failed step before escalating to a checkpoint
    /// restore. Each retry rolls the state back and halves the effective
    /// CFL (exponential backoff).
    pub max_step_retries: usize,
    /// Checkpoint restores before giving up entirely.
    pub max_restarts: usize,
    /// Save a rotating disk checkpoint every this many committed steps
    /// (0 disables periodic checkpoints; an initial one is still written
    /// when `checkpoint_dir` is set, so a restore target always exists).
    pub checkpoint_interval: usize,
    /// Directory of the disk tier: one rotating `latest` / `prev` pair of
    /// a rank-count-independent checkpoint — the block driver's v3 global
    /// image in `<dir>/global/`, distributed AMR's v4 hierarchy in
    /// `<dir>/`. `None` disables the disk tier.
    pub checkpoint_dir: Option<PathBuf>,
    /// Capture an in-memory (diskless) snapshot every this many committed
    /// steps: the L1 tier each rank keeps of its own state, plus the L2
    /// buddy replica it ships to its guardian. `0` disables the memory
    /// tiers. Unlike the disk tier the memory tiers need no
    /// `checkpoint_dir`.
    pub local_interval: usize,
    /// Buddy pairing stride of the block driver: block `b`'s replica is
    /// guarded by block `(b + offset) mod nblocks`. An offset of `0` (or a
    /// single-block run) disables the replica exchange, leaving only the
    /// L1 local tier. Distributed AMR does not read it: its hierarchy is
    /// replicated on every rank, so its L1 snapshot is already n-way
    /// redundant.
    pub buddy_offset: usize,
    /// Scrub the *frozen* snapshot buffers (re-hash local + replica
    /// against their capture-time stamps) every this many committed
    /// steps; `0` leaves rot to be caught at restore time. The block
    /// driver also ABFT-verifies its *live* state every step whenever
    /// this or `local_interval` is set — that check is what keeps a silent
    /// flip out of every checkpoint write.
    pub scrub_interval: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_step_retries: 3,
            max_restarts: 2,
            checkpoint_interval: 10,
            checkpoint_dir: None,
            local_interval: 5,
            buddy_offset: 1,
            scrub_interval: 5,
        }
    }
}

/// One run's resilience ledger: the rungs the ladder climbed and the
/// tiers the driver's hooks saved to and restored from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Committed steps that needed at least one retry.
    pub retried_steps: u64,
    /// Total step retries (a step may be retried more than once).
    pub retries: u64,
    /// Budgeted (retries-exhausted) restores.
    pub restarts: u64,
    /// Disk checkpoints written (initial + periodic) that this rank took
    /// part in.
    pub checkpoints_saved: u64,
    /// Shrinking recoveries survived (confirmed rank deaths followed by a
    /// re-partition over the survivors and a restore).
    pub shrinks: u64,
    /// Ranks confirmed dead across all shrinks.
    pub ranks_lost: u64,
    /// Suspicion rounds that turned out to be false alarms (every
    /// suspect defended itself in consensus); the step is retried.
    pub false_suspicions: u64,
    /// In-memory (L1) snapshots captured by this rank.
    pub local_snapshots: u64,
    /// Buddy replica exchanges completed (one send + one receive each).
    pub buddy_exchanges: u64,
    /// Restores served from this rank's own L1 snapshot (distributed
    /// AMR's shrinks too: its replicated snapshot serves them alike).
    pub local_restores: u64,
    /// Restores served from a buddy replica (shipped back by the
    /// guardian because this rank's own tiers were dead or rotted).
    pub buddy_restores: u64,
    /// Restores (and shrinks) that fell all the way through to the disk
    /// tier.
    pub disk_restores: u64,
    /// Disk restores served by the `prev` slot because `latest` was
    /// missing, torn or corrupt.
    pub ckpt_fallbacks: u64,
    /// Shrinking recoveries whose survivor state was assembled from
    /// buddy replicas instead of a disk checkpoint.
    pub buddy_shrinks: u64,
    /// Silent-data-corruption detections (live-state ABFT stamp
    /// mismatches) on this rank.
    pub sdc_detected: u64,
    /// Scrub passes over the frozen snapshot buffers.
    pub scrubs: u64,
    /// Frozen snapshot buffers found rotted by a scrub (and dropped).
    pub snapshots_rotted: u64,
    /// Cells repaired by the primitive-recovery cascade, by tier.
    pub recovery: RecoveryStats,
}

/// Why the ladder asks for a restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreCause {
    /// A live state failed its ABFT stamp; does not consume budget.
    Sdc,
    /// A step kept failing through every retry; consumes one unit.
    RetriesExhausted,
}

/// A distributed solver state the ladder can advance: the state-specific
/// half of every rung. Hooks that communicate are collective — the ladder
/// calls them on every live rank at the same point.
pub trait Recoverable {
    /// Committed-step counter (names the step in a terminal error).
    fn step_no(&self) -> u64;

    /// Arm the restore targets (initial checkpoint, snapshot tiers,
    /// live-state stamp) before the first step at time `t`.
    fn arm(&mut self, rank: &mut Rank, t: f64) -> Result<(), SolverError>;

    /// Once per step, before its first attempt: fault injection and
    /// scrubbing. Returns whether this rank's live state failed its
    /// integrity stamp (the [`SDC_FLAG`] contribution). An error here is
    /// terminal — it is how an injected crash goes silent.
    fn pre_step(&mut self, rank: &mut Rank, t: f64) -> Result<bool, SolverError>;

    /// One attempt of a step from `t` at `cfl_scale` × the configured
    /// CFL number, saving whatever [`rollback`](Self::rollback) needs
    /// first. Must run its full communication pattern even when it fails
    /// locally. Returns the Δt taken.
    fn try_step(
        &mut self,
        rank: &mut Rank,
        t: f64,
        t_end: f64,
        cfl_scale: f64,
    ) -> Result<f64, SolverError>;

    /// Undo the last attempt. May be called twice for one attempt.
    fn rollback(&mut self);

    /// The attempt stands everywhere and the state is now at `t`:
    /// count it, run the cadenced saves, re-stamp, feed the observers.
    fn commit(&mut self, rank: &mut Rank, t: f64, dt: f64) -> Result<(), SolverError>;

    /// Collective restore from the cheapest tier that can serve a
    /// globally consistent state. Returns the restored time.
    fn restore(&mut self, rank: &mut Rank, cause: RestoreCause) -> Result<f64, SolverError>;

    /// A peer was confirmed dead and evicted: re-partition over
    /// [`Rank::live_ranks`] and restore. Returns the restored time.
    fn shrink(&mut self, rank: &mut Rank) -> Result<f64, SolverError>;

    /// The run's ledger, which the ladder books its rungs into beside the
    /// tier counts the hooks keep.
    fn stats(&mut self) -> &mut ResilienceStats;

    /// The registry the ladder's counters and agreement span go to.
    fn metrics(&self) -> Option<&Registry>;
}

/// Start of a timed section: wall clock plus the rank's virtual clock,
/// so durations are virtual-clock deltas in virtual-time universes (where
/// a rank's wall clock also runs while it waits for a message, or for the
/// CPU token of a universe with more ranks than cores).
pub(crate) struct Stopwatch {
    wall: Instant,
    virt: f64,
}

impl Stopwatch {
    pub(crate) fn start(rank: &Rank) -> Self {
        Stopwatch {
            wall: Instant::now(),
            virt: rank.vtime(),
        }
    }

    pub(crate) fn ns(&self, rank: &Rank) -> u64 {
        if rank.is_virtual() {
            ((rank.vtime() - self.virt).max(0.0) * 1e9) as u64
        } else {
            self.wall.elapsed().as_nanos() as u64
        }
    }
}

/// Straggler injection for both drivers: when the fault plan names this
/// rank the straggler, stretch the section that began at `since` by its
/// stall factor. The lag is real wall time (and virtual time in a
/// virtual universe), so the peers' liveness deadlines genuinely see it;
/// the injector's `stall_events` counts each stretch.
pub(crate) fn straggle(rank: &mut Rank, since: Instant) {
    let Some(f) = rank
        .fault_injector()
        .and_then(|inj| inj.should_stall_rank(rank.rank()))
    else {
        return;
    };
    let extra = since.elapsed().mul_f64((f - 1.0).max(0.0));
    std::thread::sleep(extra);
    if rank.is_virtual() {
        rank.advance_vtime(extra.as_secs_f64());
    }
}

/// This rank's contribution to an agreement round about `outcome`:
/// [`SUSPECT_FLAG`] when a peer looks dead (or this rank was evicted), 1
/// for any other failure, 0 when clean. The armored max treats collective
/// timeouts as the suspicion flag too, so a dead rank surfaces in the
/// round even for ranks that never exchanged a message with it.
pub(crate) fn outcome_flag<T>(rank: &Rank, outcome: &Result<T, SolverError>) -> f64 {
    if rank.evicted().is_some()
        || rank.suspected_mask() != 0
        || matches!(outcome, Err(SolverError::PeerSuspect { .. }))
    {
        SUSPECT_FLAG
    } else if outcome.is_err() {
        1.0
    } else {
        0.0
    }
}

/// Add `n` to the registry counter `name`, if `state` has a registry.
fn count<S: Recoverable>(state: &S, name: &str, n: u64) {
    if let Some(m) = state.metrics() {
        m.counter(name).add(n);
    }
}

/// Advance `state` from `t0` to `t_end` up the recovery ladder (see the
/// module docs), with the retry and restore budgets of `cfg`. With no
/// fault the CFL scale stays exactly 1 and the only addition to a plain
/// advance loop is the agreement round, which does not touch the state.
///
/// A terminal error — escalation past every rung, or this rank's own
/// injected death — flushes the flight recorder before it is returned,
/// so the last seconds before the fault survive the unwind.
pub fn resilient_advance<S: Recoverable>(
    state: &mut S,
    rank: &mut Rank,
    t0: f64,
    t_end: f64,
    cfg: &ResilienceConfig,
) -> Result<(), SolverError> {
    let out = climb(state, rank, t0, t_end, cfg);
    if let (Err(e), Some(tracer)) = (&out, rank.tracer()) {
        let t_ns = tracer.stamp(rank.is_virtual().then(|| rank.vtime()));
        tracer.dump_on_fault(rank.rank() as u32, e.kind(), t_ns);
    }
    out
}

fn climb<S: Recoverable>(
    state: &mut S,
    rank: &mut Rank,
    t0: f64,
    t_end: f64,
    cfg: &ResilienceConfig,
) -> Result<(), SolverError> {
    state.arm(rank, t0)?;
    // A restore target exists once either tier is armed — the same on
    // every rank, since the configuration is.
    let restorable = cfg.checkpoint_dir.is_some() || cfg.local_interval > 0;
    let mut restores_left = cfg.max_restarts;
    let mut t = t0;
    let mut cfl_scale = 1.0f64;
    while t < t_end - 1e-14 {
        let sdc_hit = state.pre_step(rank, t)?;
        let mut attempt = 0usize;
        loop {
            let scale = cfl_scale * 0.5f64.powi(attempt as i32);
            let outcome = state.try_step(rank, t, t_end, scale);
            if matches!(outcome, Err(SolverError::RankFailed { .. })) && rank.evicted().is_none() {
                // Own injected crash inside the step: go silent — no
                // farewell message, the survivors must detect it.
                return outcome.map(|_| ());
            }
            let flag = outcome_flag(rank, &outcome).max(if sdc_hit { SDC_FLAG } else { 0.0 });
            let sw = Stopwatch::start(rank);
            let agreed = rank.agree_max(flag);
            let ns = sw.ns(rank);
            if let Some(m) = state.metrics() {
                m.histogram("sub.liveness.agree").record(ns);
            }
            rank.trace_span("sub.liveness.agree", ns);
            if agreed >= SUSPECT_FLAG {
                // Roll back first — the attempt may have half-updated
                // the state — then let the consensus round decide
                // between a false alarm and a shrink.
                state.rollback();
                let newly_dead =
                    rank.suspicion_consensus()
                        .map_err(|_| SolverError::RankFailed {
                            step: state.step_no(),
                        })?;
                if newly_dead != 0 {
                    t = state.shrink(rank)?;
                    let lost = u64::from(newly_dead.count_ones());
                    let st = state.stats();
                    st.shrinks += 1;
                    st.ranks_lost += lost;
                    rank.trace_instant("driver.shrink", lost as f64);
                    count(state, "driver.shrinks", 1);
                    count(state, "driver.ranks_lost", lost);
                    // Resume cautiously on the smaller machine.
                    cfl_scale = RESTART_CFL_SCALE;
                    break;
                }
                // False alarm: fall through to the ordinary retry path.
                state.stats().false_suspicions += 1;
                rank.trace_instant("driver.false_suspicion", state.step_no() as f64);
                count(state, "driver.false_suspicions", 1);
            } else if agreed >= SDC_FLAG {
                // Free of budget, and the deterministic fault streams
                // cannot replay the same flip after the restore.
                t = state.restore(rank, RestoreCause::Sdc)?;
                count(state, "sdc.restores", 1);
                break;
            }
            match outcome {
                Ok(dt) if agreed < 1.0 => {
                    t += dt;
                    // A reduced CFL (from retries or a restore) ramps
                    // back up as steps succeed.
                    if attempt > 0 {
                        cfl_scale = scale;
                    }
                    cfl_scale = (cfl_scale * 2.0).min(1.0);
                    state.commit(rank, t, dt)?;
                    break;
                }
                outcome => {
                    state.rollback();
                    if attempt < cfg.max_step_retries {
                        attempt += 1;
                        let st = state.stats();
                        st.retries += 1;
                        st.retried_steps += u64::from(attempt == 1);
                        rank.trace_instant("driver.retry", attempt as f64);
                        count(state, "driver.retries", 1);
                        continue;
                    }
                    // Retries exhausted. The attempt and restore counters
                    // march in lockstep on every rank, so this decision
                    // is collective.
                    if restores_left == 0 || !restorable {
                        return Err(outcome.err().unwrap_or(SolverError::Checkpoint {
                            msg: "step failed on a peer rank; retries and restores exhausted"
                                .into(),
                        }));
                    }
                    t = state.restore(rank, RestoreCause::RetriesExhausted)?;
                    restores_left -= 1;
                    state.stats().restarts += 1;
                    count(state, "driver.restarts", 1);
                    cfl_scale = RESTART_CFL_SCALE;
                    break;
                }
            }
        }
    }
    Ok(())
}
