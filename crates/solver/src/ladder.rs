//! The recovery ladder: one resilient advance loop for every distributed
//! driver.
//!
//! [`resilient_advance`] owns the *policy* of fault escalation — what the
//! ranks agree on after every step attempt, when a failed attempt is
//! retried, how far the CFL number backs off and how it ramps back, when
//! a restore is due and what it costs, and when a silent peer turns into
//! a shrink. The *mechanics* of each rung (how a state is rolled back,
//! which snapshot tiers exist, how a decomposition is re-cut) are the
//! driver's, reached through the [`Recoverable`] hooks. The block driver
//! ([`crate::driver::BlockSolver::advance_to_with_restart`]) and the
//! distributed AMR driver ([`crate::amr_dist::DistAmrSolver::advance_to`])
//! are the two implementations.
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

use crate::scheme::SolverError;
use rhrsc_comm::{Rank, SUSPECT_FLAG};
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

/// How often a driver lets the ladder retry and restore.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Retries of a failed step (each at half the previous CFL) before
    /// escalating to a restore.
    pub max_step_retries: usize,
    /// Budgeted restores before giving up; SDC restores and shrinks are
    /// free.
    pub max_restores: usize,
}

/// Why the ladder asks for a restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreCause {
    /// A live state failed its ABFT stamp; does not consume budget.
    Sdc,
    /// A step kept failing through every retry; consumes one unit.
    RetriesExhausted,
}

/// What the ladder just did, for the driver to book under its own
/// counter, trace instant and stats field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderEvent {
    /// The per-attempt agreement round took `ns` (virtual-clock aware).
    Agreed {
        /// Duration of the round, in nanoseconds.
        ns: u64,
    },
    /// A failed attempt was rolled back; retry number `attempt` (from 1)
    /// of this step follows.
    Retry {
        /// 1-based retry count within the current step.
        attempt: usize,
    },
    /// A suspicion round ended with every suspect defending itself.
    FalseSuspicion,
    /// The state was shrunk onto the survivors of `ranks_lost` deaths.
    Shrink {
        /// Ranks confirmed dead by this consensus round.
        ranks_lost: u32,
    },
    /// A restore for the given cause succeeded.
    Restored(RestoreCause),
}

/// A distributed solver state the ladder can advance: the state-specific
/// half of every rung. Hooks that communicate are collective — the ladder
/// calls them on every live rank at the same point.
pub trait Recoverable {
    /// The retry and restore budgets of this run.
    fn budget(&self) -> Budget;

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

    /// Whether any restore tier was ever armed (identical on all ranks).
    fn can_restore(&self) -> bool;

    /// Collective restore from the cheapest tier that can serve a
    /// globally consistent state. Returns the restored time.
    fn restore(&mut self, rank: &mut Rank, cause: RestoreCause) -> Result<f64, SolverError>;

    /// A peer was confirmed dead and evicted: re-partition over
    /// [`Rank::live_ranks`] and restore. Returns the restored time.
    fn shrink(&mut self, rank: &mut Rank) -> Result<f64, SolverError>;

    /// Book `ev` under the driver's own names.
    fn note(&mut self, rank: &Rank, ev: LadderEvent);
}

/// Start of a timed section: wall clock plus the rank's virtual clock,
/// so durations are virtual-clock deltas in virtual-time universes (where
/// wall clocks are distorted by CPU-token serialization).
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

/// Advance `state` from `t0` to `t_end` up the recovery ladder (see the
/// module docs). With no fault the CFL scale stays exactly 1 and the only
/// addition to a plain advance loop is the agreement round, which does
/// not touch the state.
///
/// A terminal error — escalation past every rung, or this rank's own
/// injected death — flushes the flight recorder before it is returned,
/// so the last seconds before the fault survive the unwind.
pub fn resilient_advance<S: Recoverable>(
    state: &mut S,
    rank: &mut Rank,
    t0: f64,
    t_end: f64,
) -> Result<(), SolverError> {
    let out = climb(state, rank, t0, t_end);
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
) -> Result<(), SolverError> {
    state.arm(rank, t0)?;
    let budget = state.budget();
    let mut restores_left = budget.max_restores;
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
            state.note(rank, LadderEvent::Agreed { ns: sw.ns(rank) });
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
                    state.note(
                        rank,
                        LadderEvent::Shrink {
                            ranks_lost: newly_dead.count_ones(),
                        },
                    );
                    // Resume cautiously on the smaller machine.
                    cfl_scale = RESTART_CFL_SCALE;
                    break;
                }
                // False alarm: fall through to the ordinary retry path.
                state.note(rank, LadderEvent::FalseSuspicion);
            } else if agreed >= SDC_FLAG {
                // Free of budget, and the deterministic fault streams
                // cannot replay the same flip after the restore.
                t = state.restore(rank, RestoreCause::Sdc)?;
                state.note(rank, LadderEvent::Restored(RestoreCause::Sdc));
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
                    if attempt < budget.max_step_retries {
                        attempt += 1;
                        state.note(rank, LadderEvent::Retry { attempt });
                        continue;
                    }
                    // Retries exhausted. The attempt and restore counters
                    // march in lockstep on every rank, so this decision
                    // is collective.
                    if restores_left == 0 || !state.can_restore() {
                        return Err(outcome.err().unwrap_or(SolverError::Checkpoint {
                            msg: "step failed on a peer rank; retries and restores exhausted"
                                .into(),
                        }));
                    }
                    t = state.restore(rank, RestoreCause::RetriesExhausted)?;
                    restores_left -= 1;
                    state.note(rank, LadderEvent::Restored(RestoreCause::RetriesExhausted));
                    cfl_scale = RESTART_CFL_SCALE;
                    break;
                }
            }
        }
    }
    Ok(())
}
