//! Deterministic fault injection.
//!
//! Long campaigns on heterogeneous clusters see three practical failure
//! classes: corrupted cells (recovery breakdown at strong shocks), lost or
//! truncated halo traffic, and device-offload failures. This module
//! provides a seed-driven [`FaultPlan`] that injects all three on demand,
//! so every recovery path in the stack is exercisable in tests and in the
//! F10 experiment — reproducibly, because every draw comes from a counted
//! splitmix64 stream rather than ambient randomness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Where in the step a *scheduled* rank crash fires.
///
/// The distributed AMR driver has several communication windows per step;
/// killing a rank inside a specific one (mid-regrid, mid-reflux) exercises
/// recovery paths that a between-steps crash never reaches. `Step` keeps
/// the historical behaviour: the fault fires at the top of the step loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankSite {
    /// Top of the step loop (the classic f11 crash site).
    #[default]
    Step,
    /// Inside a cross-rank halo/prolongation exchange window.
    Exchange,
    /// Inside the flux-register (reflux) exchange window.
    Reflux,
    /// Inside the regrid allgather/migration window.
    Regrid,
}

/// Which in-memory snapshot tier a scheduled bit flip targets.
///
/// The multi-level checkpoint stack keeps two frozen buffers per rank —
/// its own local snapshot (L1) and a buddy replica of a partner rank's
/// snapshot (L2). Rotting them selectively lets tests walk the recovery
/// ladder tier by tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotTarget {
    /// The rank's own local snapshot buffer.
    #[default]
    Local,
    /// The buddy replica held for a partner rank.
    Buddy,
    /// Both tiers (each probe of either tier may fire).
    Both,
}

/// What to inject, and how often. All probabilities are per opportunity
/// (per message, per launch, per copy, per step) in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed of the deterministic draw stream.
    pub seed: u64,
    /// Probability that a halo message is truncated in flight.
    pub msg_truncate_prob: f64,
    /// Probability that a message is delayed by [`FaultPlan::msg_delay`].
    pub msg_delay_prob: f64,
    /// Extra latency applied to delayed messages.
    pub msg_delay: Duration,
    /// Probability that a kernel launch fails on the device (the runtime
    /// falls back to host-speed execution).
    pub launch_fail_prob: f64,
    /// Probability that a host→device copy fails once and is retried.
    pub copy_fail_prob: f64,
    /// Probability per step that one cell of the evolved state is
    /// corrupted (models recovery breakdown; exercised by the cascade).
    pub cell_poison_prob: f64,
    /// Rank that crashes (stops sending and never answers again), if any.
    pub crash_rank: Option<usize>,
    /// Step at which [`FaultPlan::crash_rank`] dies.
    pub crash_step: u64,
    /// Window within the crash step where the victim dies.
    pub crash_site: RankSite,
    /// Straggler rank whose modeled work/comm time is multiplied, if any.
    pub stall_rank: Option<usize>,
    /// Slowdown multiplier applied to the straggler (`> 1.0` slows it).
    pub stall_factor: f64,
    /// Probability per step that one bit of the evolved conserved state
    /// flips silently (SDC — the flip passes through con2prim unnoticed;
    /// only the ABFT scrub can catch it).
    pub bitflip_prob: f64,
    /// Probability per scrub opportunity that one bit of a frozen
    /// in-memory snapshot buffer flips (models memory rot in the diskless
    /// checkpoint tiers).
    pub snapshot_bitflip_prob: f64,
    /// Which snapshot tier [`FaultPlan::snapshot_bitflip_prob`] targets.
    pub snapshot_flip_target: SnapshotTarget,
}

impl FaultPlan {
    /// A plan that injects nothing (all probabilities zero).
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            msg_truncate_prob: 0.0,
            msg_delay_prob: 0.0,
            msg_delay: Duration::ZERO,
            launch_fail_prob: 0.0,
            copy_fail_prob: 0.0,
            cell_poison_prob: 0.0,
            crash_rank: None,
            crash_step: 0,
            crash_site: RankSite::Step,
            stall_rank: None,
            stall_factor: 1.0,
            bitflip_prob: 0.0,
            snapshot_bitflip_prob: 0.0,
            snapshot_flip_target: SnapshotTarget::Local,
        }
    }

    /// `true` if any fault class has nonzero probability.
    pub fn is_active(&self) -> bool {
        self.msg_truncate_prob > 0.0
            || self.msg_delay_prob > 0.0
            || self.launch_fail_prob > 0.0
            || self.copy_fail_prob > 0.0
            || self.cell_poison_prob > 0.0
            || self.crash_rank.is_some()
            || (self.stall_rank.is_some() && self.stall_factor != 1.0)
            || self.bitflip_prob > 0.0
            || self.snapshot_bitflip_prob > 0.0
    }
}

/// Counters of faults actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Halo messages truncated.
    pub msgs_truncated: u64,
    /// Messages delayed.
    pub msgs_delayed: u64,
    /// Kernel launches failed (and recovered via host fallback).
    pub launches_failed: u64,
    /// Host→device copies failed (and retried).
    pub copies_failed: u64,
    /// Cells poisoned.
    pub cells_poisoned: u64,
    /// Rank crashes fired (at most one per injector).
    pub ranks_crashed: u64,
    /// Stall multipliers applied to straggler work/comm sections.
    pub stall_events: u64,
    /// Silent bit flips injected into live conserved state.
    pub bits_flipped: u64,
    /// Bit flips injected into frozen in-memory snapshot buffers.
    pub snapshot_bits_flipped: u64,
}

/// Independent draw sites, so adding one fault class never perturbs the
/// draw sequence of another.
#[derive(Debug, Clone, Copy)]
enum Site {
    Truncate = 0,
    Delay = 1,
    Launch = 2,
    Copy = 3,
    Poison = 4,
    Retry = 5,
    BitFlip = 6,
    SnapshotFlip = 7,
}

const NSITES: usize = 8;

/// Thread-safe deterministic fault source. Each holder (rank, device)
/// gets its own injector salted by its identity; draws advance a per-site
/// counter, so the decision sequence is a pure function of
/// `(seed, salt, site, call index)`.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    salt: u64,
    counters: [AtomicU64; NSITES],
    truncated: AtomicU64,
    delayed: AtomicU64,
    launches: AtomicU64,
    copies: AtomicU64,
    poisoned: AtomicU64,
    crashed: AtomicU64,
    stalled: AtomicU64,
    flipped: AtomicU64,
    snapshot_flipped: AtomicU64,
}

/// splitmix64: cheap, high-quality 64-bit mixing.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl FaultInjector {
    /// Build an injector for one holder (`salt` distinguishes holders —
    /// typically the rank id or a device index).
    pub fn new(plan: FaultPlan, salt: u64) -> Self {
        FaultInjector {
            plan,
            salt,
            counters: Default::default(),
            truncated: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            launches: AtomicU64::new(0),
            copies: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            crashed: AtomicU64::new(0),
            stalled: AtomicU64::new(0),
            flipped: AtomicU64::new(0),
            snapshot_flipped: AtomicU64::new(0),
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// A uniform draw in `[0, 1)` for `site`, advancing its counter.
    fn draw(&self, site: Site) -> f64 {
        let n = self.counters[site as usize].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(
            self.plan
                .seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(self.salt)
                .wrapping_add((site as u64) << 32)
                .wrapping_add(n.wrapping_mul(0x2545f4914f6cdd1d)),
        );
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Should the next halo message be truncated?
    pub fn should_truncate_msg(&self) -> bool {
        let hit = self.draw(Site::Truncate) < self.plan.msg_truncate_prob;
        if hit {
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Should the next message be delayed? Returns the extra latency.
    pub fn should_delay_msg(&self) -> Option<Duration> {
        let hit = self.draw(Site::Delay) < self.plan.msg_delay_prob;
        if hit {
            self.delayed.fetch_add(1, Ordering::Relaxed);
            Some(self.plan.msg_delay)
        } else {
            None
        }
    }

    /// Should the next kernel launch fail?
    pub fn should_fail_launch(&self) -> bool {
        let hit = self.draw(Site::Launch) < self.plan.launch_fail_prob;
        if hit {
            self.launches.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Should the next host→device copy fail?
    pub fn should_fail_copy(&self) -> bool {
        let hit = self.draw(Site::Copy) < self.plan.copy_fail_prob;
        if hit {
            self.copies.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Is a modeled link-level *retransmit* of a damaged halo payload
    /// damaged again? Draws from its own site (so enabling the retry tier
    /// never shifts the original truncation stream) against the same
    /// per-message damage probability, and does **not** bump the
    /// truncation counter — retransmits are accounted by the comm layer.
    pub fn should_corrupt_retry(&self) -> bool {
        self.draw(Site::Retry) < self.plan.msg_truncate_prob
    }

    /// Should a cell be poisoned this step? Returns a deterministic index
    /// selector in `[0, 2^32)` for the caller to pick the victim cell.
    pub fn should_poison_cell(&self) -> Option<u64> {
        let v = self.draw(Site::Poison);
        if v < self.plan.cell_poison_prob {
            self.poisoned.fetch_add(1, Ordering::Relaxed);
            // Re-mix the draw for a victim selector independent of the
            // accept threshold.
            Some(splitmix64((v.to_bits()).wrapping_add(self.salt)) & 0xffff_ffff)
        } else {
            None
        }
    }

    /// Should one bit of the evolved conserved state flip this step?
    /// Returns a deterministic 64-bit selector the caller reduces to a
    /// victim (element, bit) pair. Unlike [`should_poison_cell`], the
    /// flipped value is *not* non-finite or out of range in general — it
    /// models SDC that con2prim cannot see, so only an ABFT checksum
    /// comparison against the last committed stamp detects it.
    ///
    /// [`should_poison_cell`]: FaultInjector::should_poison_cell
    pub fn should_flip_bit(&self) -> Option<u64> {
        let v = self.draw(Site::BitFlip);
        if v < self.plan.bitflip_prob {
            self.flipped.fetch_add(1, Ordering::Relaxed);
            Some(splitmix64((v.to_bits()).wrapping_add(self.salt)))
        } else {
            None
        }
    }

    /// Should a frozen in-memory snapshot buffer of `tier` rot? Only
    /// fires when the plan's [`FaultPlan::snapshot_flip_target`] covers
    /// `tier` ([`SnapshotTarget::Both`] covers either); probes for
    /// non-targeted tiers still consume a draw so the stream position is
    /// a pure function of the probe count, not of the configured target.
    pub fn should_flip_snapshot_bit(&self, tier: SnapshotTarget) -> Option<u64> {
        let v = self.draw(Site::SnapshotFlip);
        let targeted = self.plan.snapshot_flip_target == SnapshotTarget::Both
            || self.plan.snapshot_flip_target == tier;
        if targeted && v < self.plan.snapshot_bitflip_prob {
            self.snapshot_flipped.fetch_add(1, Ordering::Relaxed);
            Some(splitmix64(
                (v.to_bits()).wrapping_add(self.salt.rotate_left(17)),
            ))
        } else {
            None
        }
    }

    /// Should `rank` crash at `step` inside the `site` window? Rank-level
    /// faults are *scheduled* rather than probabilistic — "rank r dies at
    /// step s" — so the predicate is a pure function of the plan and
    /// consumes no draws (the per-site streams are untouched). Within the
    /// crash step the victim dies only inside the configured
    /// [`FaultPlan::crash_site`] window (so a `Regrid` crash survives the
    /// earlier exchange windows of that step); past the crash step it
    /// reads dead from every site. The first hit is counted.
    pub fn should_crash_at(&self, rank: usize, step: u64, site: RankSite) -> bool {
        if self.plan.crash_rank != Some(rank) {
            return false;
        }
        let hit = step > self.plan.crash_step
            || (step == self.plan.crash_step && site == self.plan.crash_site);
        if hit && step == self.plan.crash_step {
            self.crashed.store(1, Ordering::Relaxed);
        }
        hit
    }

    /// Work/comm-time multiplier for `rank` if it is the configured
    /// straggler (`None` for healthy ranks). Like
    /// [`FaultInjector::should_crash_at`] this is scheduled, not drawn,
    /// so it cannot perturb the probabilistic streams. The straggler is
    /// slow in every window of the step.
    pub fn should_stall_rank(&self, rank: usize) -> Option<f64> {
        if self.plan.stall_rank == Some(rank) && self.plan.stall_factor != 1.0 {
            self.stalled.fetch_add(1, Ordering::Relaxed);
            Some(self.plan.stall_factor)
        } else {
            None
        }
    }

    /// Snapshot of the injected-fault counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            msgs_truncated: self.truncated.load(Ordering::Relaxed),
            msgs_delayed: self.delayed.load(Ordering::Relaxed),
            launches_failed: self.launches.load(Ordering::Relaxed),
            copies_failed: self.copies.load(Ordering::Relaxed),
            cells_poisoned: self.poisoned.load(Ordering::Relaxed),
            ranks_crashed: self.crashed.load(Ordering::Relaxed),
            stall_events: self.stalled.load(Ordering::Relaxed),
            bits_flipped: self.flipped.load(Ordering::Relaxed),
            snapshot_bits_flipped: self.snapshot_flipped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            msg_truncate_prob: 0.25,
            msg_delay_prob: 0.25,
            msg_delay: Duration::from_micros(10),
            launch_fail_prob: 0.25,
            copy_fail_prob: 0.25,
            cell_poison_prob: 0.25,
            ..FaultPlan::disabled()
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let a = FaultInjector::new(plan(42), 3);
        let b = FaultInjector::new(plan(42), 3);
        for _ in 0..256 {
            assert_eq!(a.should_truncate_msg(), b.should_truncate_msg());
            assert_eq!(a.should_fail_launch(), b.should_fail_launch());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn sites_are_independent_streams() {
        // Drawing from one site must not shift another's sequence.
        let a = FaultInjector::new(plan(7), 0);
        let b = FaultInjector::new(plan(7), 0);
        for _ in 0..64 {
            let _ = a.should_fail_copy();
        }
        for _ in 0..64 {
            assert_eq!(a.should_truncate_msg(), b.should_truncate_msg());
        }
    }

    #[test]
    fn seeds_and_salts_differ() {
        let hits = |seed: u64, salt: u64| -> u64 {
            let inj = FaultInjector::new(plan(seed), salt);
            (0..512).filter(|_| inj.should_truncate_msg()).count() as u64
        };
        // Same plan, different salts should not produce the same pattern
        // (astronomically unlikely with 512 ~25% draws unless the salt is
        // ignored). Compare sequences, not just totals.
        let seq = |seed: u64, salt: u64| -> Vec<bool> {
            let inj = FaultInjector::new(plan(seed), salt);
            (0..128).map(|_| inj.should_truncate_msg()).collect()
        };
        assert_ne!(seq(1, 0), seq(1, 1));
        assert_ne!(seq(1, 0), seq(2, 0));
        // Hit rate is in the right ballpark for p = 0.25.
        let h = hits(9, 0);
        assert!((64..192).contains(&h), "hit count {h} of 512 at p=0.25");
    }

    #[test]
    fn disabled_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::disabled(), 0);
        for _ in 0..128 {
            assert!(!inj.should_truncate_msg());
            assert!(inj.should_delay_msg().is_none());
            assert!(!inj.should_fail_launch());
            assert!(!inj.should_fail_copy());
            assert!(inj.should_poison_cell().is_none());
        }
        assert_eq!(inj.stats(), FaultStats::default());
        assert!(!FaultPlan::disabled().is_active());
    }

    #[test]
    fn rank_crash_fires_at_chosen_step_only_for_victim() {
        let p = FaultPlan {
            crash_rank: Some(2),
            crash_step: 5,
            ..FaultPlan::disabled()
        };
        assert!(p.is_active());
        let inj = FaultInjector::new(p, 2);
        assert!(!inj.should_crash_at(2, 4, RankSite::Step));
        assert!(!inj.should_crash_at(0, 5, RankSite::Step));
        assert!(inj.should_crash_at(2, 5, RankSite::Step));
        assert!(
            inj.should_crash_at(2, 9, RankSite::Step),
            "stays dead after the crash step"
        );
        assert_eq!(inj.stats().ranks_crashed, 1);
    }

    #[test]
    fn crash_site_gates_within_the_crash_step() {
        let p = FaultPlan {
            crash_rank: Some(1),
            crash_step: 4,
            crash_site: RankSite::Regrid,
            ..FaultPlan::disabled()
        };
        let inj = FaultInjector::new(p, 1);
        // Before the crash step: alive at every site.
        for site in [
            RankSite::Step,
            RankSite::Exchange,
            RankSite::Reflux,
            RankSite::Regrid,
        ] {
            assert!(!inj.should_crash_at(1, 3, site));
        }
        // At the crash step: survives the earlier windows, dies in regrid.
        assert!(!inj.should_crash_at(1, 4, RankSite::Step));
        assert!(!inj.should_crash_at(1, 4, RankSite::Exchange));
        assert!(!inj.should_crash_at(1, 4, RankSite::Reflux));
        assert!(inj.should_crash_at(1, 4, RankSite::Regrid));
        // Past the crash step: dead from every site.
        assert!(inj.should_crash_at(1, 5, RankSite::Step));
        assert!(inj.should_crash_at(1, 7, RankSite::Exchange));
        // Non-victims never crash.
        assert!(!inj.should_crash_at(0, 9, RankSite::Regrid));
        assert_eq!(inj.stats().ranks_crashed, 1);
    }

    #[test]
    fn stall_applies_only_to_straggler() {
        let p = FaultPlan {
            stall_rank: Some(1),
            stall_factor: 3.0,
            ..FaultPlan::disabled()
        };
        assert!(p.is_active());
        let inj = FaultInjector::new(p, 1);
        assert_eq!(inj.should_stall_rank(0), None);
        assert_eq!(inj.should_stall_rank(1), Some(3.0));
        assert_eq!(inj.should_stall_rank(1), Some(3.0));
        assert_eq!(inj.stats().stall_events, 2);
        // A unit factor is a no-op and keeps the plan inactive.
        let noop = FaultPlan {
            stall_rank: Some(1),
            ..FaultPlan::disabled()
        };
        assert!(!noop.is_active());
    }

    #[test]
    fn rank_level_sites_do_not_perturb_draw_streams() {
        let mut with_rank_faults = plan(7);
        with_rank_faults.crash_rank = Some(3);
        with_rank_faults.crash_step = 2;
        with_rank_faults.stall_rank = Some(1);
        with_rank_faults.stall_factor = 4.0;
        let a = FaultInjector::new(plan(7), 0);
        let b = FaultInjector::new(with_rank_faults, 0);
        for step in 0..64 {
            let _ = b.should_crash_at(3, step, RankSite::Step);
            let _ = b.should_stall_rank(1);
            assert_eq!(a.should_truncate_msg(), b.should_truncate_msg());
            assert_eq!(a.should_fail_launch(), b.should_fail_launch());
        }
    }

    #[test]
    fn bitflip_sites_do_not_perturb_existing_streams() {
        // Enabling (and drawing from) the SDC sites must leave every
        // pre-existing site's sequence untouched — same guarantee the
        // rank-level sites give.
        let mut with_flips = plan(7);
        with_flips.bitflip_prob = 0.5;
        with_flips.snapshot_bitflip_prob = 0.5;
        with_flips.snapshot_flip_target = SnapshotTarget::Both;
        let a = FaultInjector::new(plan(7), 0);
        let b = FaultInjector::new(with_flips, 0);
        for _ in 0..64 {
            let _ = b.should_flip_bit();
            let _ = b.should_flip_snapshot_bit(SnapshotTarget::Local);
            let _ = b.should_flip_snapshot_bit(SnapshotTarget::Buddy);
            assert_eq!(a.should_truncate_msg(), b.should_truncate_msg());
            assert_eq!(a.should_fail_launch(), b.should_fail_launch());
            assert_eq!(
                a.should_poison_cell().is_some(),
                b.should_poison_cell().is_some()
            );
        }
    }

    #[test]
    fn bitflips_are_deterministic_and_counted() {
        let mut p = plan(11);
        p.bitflip_prob = 0.5;
        let a = FaultInjector::new(p.clone(), 4);
        let b = FaultInjector::new(p, 4);
        let sa: Vec<Option<u64>> = (0..128).map(|_| a.should_flip_bit()).collect();
        let sb: Vec<Option<u64>> = (0..128).map(|_| b.should_flip_bit()).collect();
        assert_eq!(sa, sb);
        let hits = sa.iter().filter(|s| s.is_some()).count() as u64;
        assert!(hits > 0, "p=0.5 over 128 draws must hit");
        assert_eq!(a.stats().bits_flipped, hits);
        assert_eq!(a.stats().snapshot_bits_flipped, 0);
    }

    #[test]
    fn snapshot_flip_target_gates_tiers() {
        let mut p = plan(13);
        p.snapshot_bitflip_prob = 1.0;
        p.snapshot_flip_target = SnapshotTarget::Buddy;
        let inj = FaultInjector::new(p.clone(), 0);
        for _ in 0..16 {
            assert!(inj
                .should_flip_snapshot_bit(SnapshotTarget::Local)
                .is_none());
            assert!(inj
                .should_flip_snapshot_bit(SnapshotTarget::Buddy)
                .is_some());
        }
        assert_eq!(inj.stats().snapshot_bits_flipped, 16);
        // `Both` hits either tier's probes.
        p.snapshot_flip_target = SnapshotTarget::Both;
        let inj = FaultInjector::new(p, 0);
        assert!(inj
            .should_flip_snapshot_bit(SnapshotTarget::Local)
            .is_some());
        assert!(inj
            .should_flip_snapshot_bit(SnapshotTarget::Buddy)
            .is_some());
        // Flip plans register as active.
        let only_flips = FaultPlan {
            bitflip_prob: 0.01,
            ..FaultPlan::disabled()
        };
        assert!(only_flips.is_active());
    }

    #[test]
    fn stats_count_hits() {
        let mut p = plan(5);
        p.msg_truncate_prob = 1.0;
        p.copy_fail_prob = 1.0;
        let inj = FaultInjector::new(p, 0);
        for _ in 0..10 {
            assert!(inj.should_truncate_msg());
            assert!(inj.should_fail_copy());
        }
        let st = inj.stats();
        assert_eq!(st.msgs_truncated, 10);
        assert_eq!(st.copies_failed, 10);
        assert_eq!(st.launches_failed, 0);
    }
}
