//! Distributed fault-tolerant AMR: the [`crate::amr`] patch hierarchy
//! sharded across simulated [`Rank`]s, surviving rank death mid-regrid.
//!
//! **Decomposition.** Every rank holds the full hierarchy *metadata* (patch
//! extents, parent links, `frac` phases) plus typed storage for every
//! patch, but each patch has exactly one *owner* rank that computes its
//! updates; the replicas on other ranks are shadow patches used as receive
//! buffers for ancestor/halo data. Ownership follows a space-filling-curve
//! order (patches sorted by their left edge in finest-level coordinates,
//! ties coarse-first) cut into contiguous cost-balanced segments by
//! [`partition_contiguous`], with per-patch cost `n·2^ℓ` ([`patch_cost`]) —
//! the subcycling-aware work estimate.
//!
//! **Communication.** Four message classes, all on halo-class tags (< 64),
//! so they inherit the CRC-32 payload trailer and the modeled link-level
//! retransmit of the communication layer for free:
//!
//! * *descend* ([`AMR_DESCEND_TAG_BASE`]` + ℓ`): a level-ℓ owner ships
//!   `base`+`u` interiors to the owners of its strict descendants before
//!   their substeps, so the time-interpolated ghost prolongation chain
//!   ([`AmrSolver::fill_ghosts_lerp`]) can be evaluated locally,
//! * *reflux* ([`AMR_REFLUX_TAG_BASE`]` + ℓ`): a child owner ships its
//!   post-substep `u` interiors and accumulated boundary fluxes to an
//!   off-rank parent owner, which restricts and applies the Berger–Colella
//!   corrections exactly as the serial solver does,
//! * *sync* ([`AMR_SYNC_TAG_BASE`]` + ℓ`): `u`-only descend used at sync
//!   points (Δt estimation, diagnostics),
//! * *allgather* ([`AMR_REGRID_TAG`]): every owner ships all its interiors
//!   to every live rank, fully replicating the state; used before regrids
//!   (so clustering is a pure-local, deterministic computation), before
//!   global checkpoints (the root writes a rank-count-independent v4 AMR
//!   checkpoint from its replica), and for gathered diagnostics.
//!
//! Every blob carries an *attempt sequence number* in its first element;
//! receivers drop blobs from older (rolled-back) attempts and refuse blobs
//! from the future, so retried steps never consume stale in-flight data.
//!
//! **Determinism.** Owned patches are advanced by the serial solver's own
//! level step ([`AmrSolver::step_level`]) through the [`LevelCoupling`]
//! this module implements; ghost fills are recomputed locally from
//! replicated ancestor interiors; the Δt reduction is an exact min; and
//! regrids run on the fully-replicated state. A no-fault distributed run
//! is therefore bit-identical to the serial solver (pinned by tests).
//!
//! **Fault tolerance.** [`DistAmrSolver::advance_to`] climbs the shared
//! recovery ladder ([`crate::ladder`]: retry → restore → shrinking
//! recovery) with the block driver's [`ResilienceConfig`], and the ladder
//! books its rungs into the same [`ResilienceStats`] and under the same
//! `driver.*` counter names; [`DistAmrStats`] keeps only the exchange and
//! partition counters of this module. Per attempt every rank reaches the
//! Δt reduction and the agreement round even if its local work failed
//! (keeping collective tags aligned), and a confirmed death restores every
//! survivor from the memory tier or the shared rank-count-independent
//! checkpoint and re-partitions the SFC segment map over the shrunken live
//! set. The hierarchy is replicated, so the memory tier needs no buddy:
//! [`ResilienceConfig::buddy_offset`] is not read here. Regrids are
//! *comm-atomic*: a pre-mutation agreement barrier after the allgather
//! ensures either every rank rebuilds the hierarchy or none does, so a
//! rank killed mid-regrid (the [`RankSite::Regrid`] fault site) can never
//! leave survivors with divergent hierarchies.

use crate::amr::{AmrSolver, LevelCoupling};
use crate::driver::comm_err;
use crate::integrate::RkOrder;
use crate::ladder::{
    outcome_flag, resilient_advance, straggle, Recoverable, ResilienceConfig, ResilienceStats,
    RestoreCause,
};
use crate::scheme::{Scheme, SolverError};
use crate::tiers::{ck_err, load_newest_agreed, MemoryTiers};
use crate::AmrConfig;
use rhrsc_comm::{
    Rank, AMR_DESCEND_TAG_BASE, AMR_REFLUX_TAG_BASE, AMR_REGRID_TAG, AMR_SYNC_TAG_BASE,
};
use rhrsc_grid::BcSet;
use rhrsc_io::checkpoint::{decode_trusted, encode, AmrCheckpoint, CheckpointSlots};
use rhrsc_runtime::fault::{FaultInjector, RankSite};
use rhrsc_runtime::Registry;
use rhrsc_srhd::{Cons, Prim, NCOMP};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

// ----- cost model and partitioning ---------------------------------------

/// Work estimate of one patch: interior cells × the `2^ℓ` subcycling
/// factor (a level-ℓ cell is updated `2^ℓ` times per base step).
pub fn patch_cost(level: usize, n: usize) -> f64 {
    ((n as u64) << level) as f64
}

/// Space-filling-curve sort key of a patch: its left edge expressed in
/// finest-level cell coordinates, ties broken coarse-first (so a parent
/// sorts before the children it contains).
pub fn sfc_key(level: usize, lo: usize, max_levels: usize) -> (u64, u32) {
    ((lo as u64) << (max_levels - 1 - level), level as u32)
}

/// Cut an SFC-ordered cost sequence into `nparts` contiguous segments by
/// the greedy midpoint rule: item `i` goes to the first part whose ideal
/// boundary lies past the item's cost midpoint.
///
/// Guarantees (pinned by the property suite): every item is assigned to
/// exactly one part, part indices are non-decreasing (segments are
/// contiguous), and the heaviest part carries at most
/// `total/nparts + max_item_cost`.
pub fn partition_contiguous(costs: &[f64], nparts: usize) -> Vec<usize> {
    assert!(nparts > 0, "need at least one part");
    let total: f64 = costs.iter().sum();
    let mut out = vec![0usize; costs.len()];
    let mut part = 0usize;
    let mut acc = 0.0;
    for (i, &c) in costs.iter().enumerate() {
        while part + 1 < nparts && acc + 0.5 * c > total * (part + 1) as f64 / nparts as f64 {
            part += 1;
        }
        out[i] = part;
        acc += c;
    }
    out
}

/// SFC-order the hierarchy's patches and assign contiguous cost-balanced
/// segments to the live ranks. Deterministic: every rank computes the
/// identical map from its replicated metadata.
fn assign_owners(inner: &AmrSolver, live: &[usize]) -> Vec<Vec<usize>> {
    let max_levels = inner.cfg.max_levels;
    let mut items: Vec<(u64, u32, usize, usize)> = Vec::new();
    for (l, ps) in inner.levels.iter().enumerate() {
        for (i, p) in ps.iter().enumerate() {
            let (key, tie) = sfc_key(l, p.lo, max_levels);
            items.push((key, tie, l, i));
        }
    }
    items.sort_unstable();
    let costs: Vec<f64> = items
        .iter()
        .map(|&(_, _, l, i)| patch_cost(l, inner.levels[l][i].n))
        .collect();
    let parts = partition_contiguous(&costs, live.len());
    let mut owners: Vec<Vec<usize>> = inner.levels.iter().map(|ps| vec![0; ps.len()]).collect();
    for (&(_, _, l, i), &part) in items.iter().zip(&parts) {
        owners[l][i] = live[part];
    }
    owners
}

// ----- statistics --------------------------------------------------------

/// Per-rank exchange and partition counters of the distributed AMR
/// driver (the recovery counters are the ladder's [`ResilienceStats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct DistAmrStats {
    /// Base steps committed.
    pub steps: u64,
    /// Descend/sync halo messages sent.
    pub halo_msgs: u64,
    /// Payload bytes sent across all message classes.
    pub halo_bytes: u64,
    /// Reflux messages sent.
    pub reflux_msgs: u64,
    /// Allgather messages sent (regrid + checkpoint + diagnostics).
    pub regrid_msgs: u64,
    /// Patches whose owner changed at a regrid.
    pub migrations: u64,
    /// Regrids that triggered a from-scratch re-partition.
    pub rebalances: u64,
}

// ----- the distributed solver --------------------------------------------

/// Exchange class: selects the tag family, the fault-site window, the
/// trace span, and which counter the traffic lands in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ExKind {
    Descend,
    Sync,
    Reflux,
    Regrid,
    Gather,
}

impl ExKind {
    fn site(self) -> RankSite {
        match self {
            ExKind::Descend | ExKind::Sync | ExKind::Gather => RankSite::Exchange,
            ExKind::Reflux => RankSite::Reflux,
            ExKind::Regrid => RankSite::Regrid,
        }
    }

    fn span(self) -> &'static str {
        match self {
            ExKind::Descend | ExKind::Sync | ExKind::Gather => "amr.dist.exchange",
            ExKind::Reflux => "amr.dist.reflux",
            ExKind::Regrid => "amr.dist.regrid",
        }
    }
}

/// [`AmrSolver`] sharded across ranks with owner-computes semantics and
/// the recovery ladder's tiers. See the module docs for the
/// decomposition, communication, and recovery design.
pub struct DistAmrSolver {
    inner: AmrSolver,
    link: DistLink,
    /// Base step at which the last successful regrid ran (so retried
    /// attempts of the same step do not regrid twice).
    last_regrid_step: Option<u64>,
    /// Pre-step interior snapshot for attempt rollback.
    snapshot: Vec<Vec<Vec<f64>>>,
    snapshot_ok: bool,
}

/// What makes the hierarchy distributed: who owns which patch, and the
/// bookkeeping of the exchanges between owners.
struct DistLink {
    /// Owner rank of `levels[l][i]`.
    owners: Vec<Vec<usize>>,
    /// Attempt sequence number stamped into every blob (lockstep across
    /// ranks: bumped once per step attempt).
    seq: u64,
    /// Base step of the attempt in flight (keys the crash fault sites).
    cur_step: u64,
    injector: Option<Arc<FaultInjector>>,
    metrics: Option<Arc<Registry>>,
    stats: DistAmrStats,
}

/// A [`DistLink`] bound to this process's rank: the coupling through
/// which the serial level step reaches patches owned elsewhere.
struct RankLink<'a> {
    link: &'a mut DistLink,
    rank: &'a mut Rank,
}

impl LevelCoupling for RankLink<'_> {
    fn owns(&self, l: usize, i: usize) -> bool {
        self.link.owners[l][i] == self.rank.rank()
    }
    fn descend(&mut self, amr: &mut AmrSolver, l: usize) -> Result<(), SolverError> {
        self.link.exchange_down(self.rank, amr, l, ExKind::Descend)
    }
    fn reflux(&mut self, amr: &mut AmrSolver, l: usize) -> Result<(), SolverError> {
        self.link.exchange_reflux(self.rank, amr, l)
    }
    fn sync(&mut self, amr: &mut AmrSolver, l: usize) -> Result<(), SolverError> {
        self.link.exchange_down(self.rank, amr, l, ExKind::Sync)
    }
}

impl DistLink {
    /// Add `n` to counter `name` when a registry is attached.
    fn count(&self, name: &str, n: u64) {
        if let Some(m) = &self.metrics {
            m.counter(name).add(n);
        }
    }

    fn check_crash(&self, rank: &Rank, site: RankSite) -> Result<(), SolverError> {
        if let Some(inj) = &self.injector {
            if inj.should_crash_at(rank.rank(), self.cur_step, site) {
                rank.trace_instant("amr.dist.rank_failed", self.cur_step as f64);
                return Err(SolverError::RankFailed {
                    step: self.cur_step,
                });
            }
        }
        Ok(())
    }

    /// Send every planned blob, then receive one blob per planned source,
    /// dropping stale (lower-sequence) leftovers from rolled-back
    /// attempts. `recvs` maps source rank → expected payload length (not
    /// counting the sequence header).
    fn run_exchange(
        &mut self,
        rank: &mut Rank,
        tag: u64,
        kind: ExKind,
        sends: BTreeMap<usize, Vec<f64>>,
        recvs: &BTreeMap<usize, usize>,
    ) -> Result<BTreeMap<usize, Vec<f64>>, SolverError> {
        self.check_crash(rank, kind.site())?;
        let t0 = Instant::now();
        let nmsgs = sends.len() as u64;
        let mut bytes = 0u64;
        for (dst, blob) in sends {
            bytes += (blob.len() * 8) as u64;
            rank.send_vec(dst, tag, blob);
        }
        let mut out = BTreeMap::new();
        for (&src, &want) in recvs {
            loop {
                let msg = rank.recv_deadline(src, tag).map_err(comm_err)?;
                let sq = msg.first().copied().unwrap_or(-1.0);
                if sq < self.seq as f64 {
                    // Leftover from a rolled-back attempt: drop and wait
                    // for this attempt's blob (FIFO per sender and tag).
                    continue;
                }
                if sq > self.seq as f64 || msg.len() != want + 1 {
                    return Err(SolverError::HaloMismatch {
                        expected: want + 1,
                        got: msg.len(),
                    });
                }
                out.insert(src, msg);
                break;
            }
        }
        let (slot, counter) = match kind {
            ExKind::Descend | ExKind::Sync => (&mut self.stats.halo_msgs, "amr.dist.halo_msgs"),
            ExKind::Reflux => (&mut self.stats.reflux_msgs, "amr.dist.reflux_msgs"),
            ExKind::Regrid | ExKind::Gather => {
                (&mut self.stats.regrid_msgs, "amr.dist.regrid_msgs")
            }
        };
        *slot += nmsgs;
        self.stats.halo_bytes += bytes;
        self.count(counter, nmsgs);
        self.count("amr.dist.halo_bytes", bytes);
        straggle(rank, t0);
        rank.trace_span(kind.span(), t0.elapsed().as_nanos() as u64);
        Ok(out)
    }

    /// Owner set of every strict descendant of each level-`l` patch.
    fn descendant_owner_sets(&self, amr: &AmrSolver, l: usize) -> Vec<Vec<usize>> {
        let mut sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); amr.levels[l].len()];
        for m in (l + 1)..amr.levels.len() {
            for (j, _) in amr.levels[m].iter().enumerate() {
                let mut lev = m;
                let mut idx = j;
                while lev > l {
                    idx = amr.levels[lev][idx].parent_idx;
                    lev -= 1;
                }
                sets[idx].insert(self.owners[m][j]);
            }
        }
        sets.into_iter().map(|s| s.into_iter().collect()).collect()
    }

    /// Ship level-`l` `base`+`u` interiors (or `u` only, for sync) from
    /// owners to the owners of strict descendants.
    fn exchange_down(
        &mut self,
        rank: &mut Rank,
        amr: &mut AmrSolver,
        l: usize,
        kind: ExKind,
    ) -> Result<(), SolverError> {
        let me = rank.rank();
        let with_base = kind == ExKind::Descend;
        let fields = if with_base { 2 } else { 1 };
        let sets = self.descendant_owner_sets(amr, l);
        let ng = amr.ng;
        let mut sends: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        let mut recv_patches: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, set) in sets.iter().enumerate() {
            let o = self.owners[l][i];
            for &d in set {
                if d == o {
                    continue;
                }
                if o == me {
                    let blob = sends.entry(d).or_insert_with(|| vec![self.seq as f64]);
                    let p = &amr.levels[l][i];
                    if with_base {
                        p.base.gather_box([ng, 0, 0], [ng + p.n, 1, 1], blob);
                    }
                    p.u.gather_box([ng, 0, 0], [ng + p.n, 1, 1], blob);
                } else if d == me {
                    recv_patches.entry(o).or_default().push(i);
                }
            }
        }
        if sends.is_empty() && recv_patches.is_empty() {
            return Ok(());
        }
        let recvs: BTreeMap<usize, usize> = recv_patches
            .iter()
            .map(|(&src, list)| {
                let len: usize = list
                    .iter()
                    .map(|&i| fields * NCOMP * amr.levels[l][i].n)
                    .sum();
                (src, len)
            })
            .collect();
        let base_tag = if with_base {
            AMR_DESCEND_TAG_BASE
        } else {
            AMR_SYNC_TAG_BASE
        };
        let got = self.run_exchange(rank, base_tag + l as u64, kind, sends, &recvs)?;
        for (src, msg) in got {
            let mut off = 1;
            for &i in &recv_patches[&src] {
                let p = &mut amr.levels[l][i];
                let n = p.n;
                if with_base {
                    p.base
                        .scatter_box([ng, 0, 0], [ng + n, 1, 1], &msg[off..off + NCOMP * n]);
                    off += NCOMP * n;
                }
                p.u.scatter_box([ng, 0, 0], [ng + n, 1, 1], &msg[off..off + NCOMP * n]);
                off += NCOMP * n;
            }
        }
        Ok(())
    }

    /// Ship level-`l` children's `u` interiors and boundary-flux
    /// accumulators from child owners to off-rank parent owners (the
    /// restriction + reflux inputs).
    fn exchange_reflux(
        &mut self,
        rank: &mut Rank,
        amr: &mut AmrSolver,
        l: usize,
    ) -> Result<(), SolverError> {
        let me = rank.rank();
        let ng = amr.ng;
        let mut sends: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        let mut recv_patches: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, ch) in amr.levels[l].iter().enumerate() {
            let o = self.owners[l][i];
            let po = self.owners[l - 1][ch.parent_idx];
            if o == po {
                continue;
            }
            if o == me {
                let blob = sends.entry(po).or_insert_with(|| vec![self.seq as f64]);
                ch.u.gather_box([ng, 0, 0], [ng + ch.n, 1, 1], blob);
                blob.extend_from_slice(&ch.acc[0].to_array());
                blob.extend_from_slice(&ch.acc[1].to_array());
            } else if po == me {
                recv_patches.entry(o).or_default().push(i);
            }
        }
        if sends.is_empty() && recv_patches.is_empty() {
            return Ok(());
        }
        let recvs: BTreeMap<usize, usize> = recv_patches
            .iter()
            .map(|(&src, list)| {
                let len: usize = list
                    .iter()
                    .map(|&i| NCOMP * amr.levels[l][i].n + 2 * NCOMP)
                    .sum();
                (src, len)
            })
            .collect();
        let got = self.run_exchange(
            rank,
            AMR_REFLUX_TAG_BASE + l as u64,
            ExKind::Reflux,
            sends,
            &recvs,
        )?;
        for (src, msg) in got {
            let mut off = 1;
            for &i in &recv_patches[&src] {
                let p = &mut amr.levels[l][i];
                let n = p.n;
                p.u.scatter_box([ng, 0, 0], [ng + n, 1, 1], &msg[off..off + NCOMP * n]);
                off += NCOMP * n;
                let mut a = [0.0; NCOMP];
                a.copy_from_slice(&msg[off..off + NCOMP]);
                p.acc[0] = Cons::from_array(a);
                off += NCOMP;
                a.copy_from_slice(&msg[off..off + NCOMP]);
                p.acc[1] = Cons::from_array(a);
                off += NCOMP;
            }
        }
        Ok(())
    }

    /// Fully replicate the composite state: every owner ships all its `u`
    /// interiors to every other live rank.
    fn allgather_state(
        &mut self,
        rank: &mut Rank,
        amr: &mut AmrSolver,
        kind: ExKind,
    ) -> Result<(), SolverError> {
        let live: Vec<usize> = rank.live_ranks().to_vec();
        let me = rank.rank();
        let ng = amr.ng;
        let mut plan: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for (l, ps) in amr.levels.iter().enumerate() {
            for i in 0..ps.len() {
                plan.entry(self.owners[l][i]).or_default().push((l, i));
            }
        }
        let mut sends: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        let mut recvs: BTreeMap<usize, usize> = BTreeMap::new();
        for (&src, list) in &plan {
            let payload: usize = list.iter().map(|&(l, i)| NCOMP * amr.levels[l][i].n).sum();
            if src == me {
                let mut blob = Vec::with_capacity(payload + 1);
                blob.push(self.seq as f64);
                for &(l, i) in list {
                    let p = &amr.levels[l][i];
                    p.u.gather_box([ng, 0, 0], [ng + p.n, 1, 1], &mut blob);
                }
                for &d in &live {
                    if d != me {
                        sends.insert(d, blob.clone());
                    }
                }
            } else {
                recvs.insert(src, payload);
            }
        }
        let got = self.run_exchange(rank, AMR_REGRID_TAG, kind, sends, &recvs)?;
        for (src, msg) in got {
            let mut off = 1;
            for &(l, i) in &plan[&src] {
                let p = &mut amr.levels[l][i];
                let n = p.n;
                p.u.scatter_box([ng, 0, 0], [ng + n, 1, 1], &msg[off..off + NCOMP * n]);
                off += NCOMP * n;
            }
        }
        Ok(())
    }
}

impl DistAmrSolver {
    /// Create a solver over `[x0, x1]` with `n0` base cells. Call
    /// [`DistAmrSolver::init`] (or [`DistAmrSolver::restore`]) before
    /// stepping. Fine-level device offload is not routed through the
    /// distributed path; residuals evaluate on the host.
    pub fn new(
        scheme: Scheme,
        bcs: BcSet,
        rk: RkOrder,
        n0: usize,
        x0: f64,
        x1: f64,
        cfg: AmrConfig,
    ) -> Self {
        assert!(cfg.max_levels <= 8, "the AMR halo tag blocks hold 8 levels");
        let max_levels = cfg.max_levels;
        let inner = AmrSolver::new(scheme, bcs, rk, n0, x0, x1, cfg);
        DistAmrSolver {
            inner,
            link: DistLink {
                owners: vec![Vec::new(); max_levels],
                seq: 0,
                cur_step: 0,
                injector: None,
                metrics: None,
                stats: DistAmrStats::default(),
            },
            last_regrid_step: None,
            snapshot: Vec::new(),
            snapshot_ok: false,
        }
    }

    /// Attach a metrics registry (`amr.dist.*` counters, the serial
    /// solver's `amr.*` family, and the ladder's and tiers' `driver.*`,
    /// `ckp.*` and `sdc.*` counters of [`DistAmrSolver::advance_to`]).
    pub fn set_metrics(&mut self, metrics: Arc<Registry>) {
        self.inner.set_metrics(Arc::clone(&metrics));
        self.link.metrics = Some(metrics);
    }

    /// Initialize the hierarchy from a pointwise primitive IC (identical
    /// on every rank) and partition ownership over the live ranks.
    pub fn init(&mut self, rank: &Rank, ic: &dyn Fn([f64; 3]) -> Prim) {
        self.inner.init(ic);
        self.link.owners = assign_owners(&self.inner, rank.live_ranks());
        self.last_regrid_step = None;
        self.snapshot_ok = false;
    }

    /// Restore from a rank-count-independent v4 AMR checkpoint and
    /// re-partition ownership over the current live set. The checkpoint
    /// may come from a run with any rank count.
    pub fn restore(&mut self, rank: &Rank, ck: &AmrCheckpoint) -> Result<(), SolverError> {
        self.inner
            .restore(ck)
            .map_err(|msg| SolverError::Checkpoint { msg })?;
        self.link.owners = assign_owners(&self.inner, rank.live_ranks());
        self.last_regrid_step = None;
        self.snapshot_ok = false;
        Ok(())
    }

    /// The replicated serial solver (valid everywhere only right after an
    /// allgather — see [`DistAmrSolver::to_checkpoint_gathered`]).
    pub fn inner(&self) -> &AmrSolver {
        &self.inner
    }

    /// Per-rank driver counters.
    pub fn stats(&self) -> DistAmrStats {
        self.link.stats
    }

    fn allgather_state(&mut self, rank: &mut Rank, kind: ExKind) -> Result<(), SolverError> {
        self.link.allgather_state(rank, &mut self.inner, kind)
    }

    // ----- regridding and migration --------------------------------------

    /// Comm-atomic distributed regrid: allgather the composite state, pass
    /// a pre-mutation agreement barrier (nobody rebuilds unless everybody
    /// has the full state), then rebuild the hierarchy locally —
    /// deterministic and identical on every rank — and reassign ownership.
    /// A rank killed inside the allgather window dies *before* any
    /// mutation, so survivors either all regrid or all abort the attempt.
    fn dist_regrid(&mut self, rank: &mut Rank) -> Result<bool, SolverError> {
        let t0 = Instant::now();
        let res = self.allgather_state(rank, ExKind::Regrid);
        if matches!(res, Err(SolverError::RankFailed { .. })) {
            // Own injected crash: go silent, skip the barrier.
            return res.map(|()| false);
        }
        if rank.agree_max(outcome_flag(rank, &res)) >= 1.0 {
            // Someone is missing data: nobody mutates. Surface the local
            // error (or a stand-in for a peer's) to the attempt loop.
            return Err(res.err().unwrap_or(SolverError::HaloMismatch {
                expected: 1,
                got: 0,
            }));
        }
        let old: BTreeMap<(usize, usize, usize), usize> = self
            .inner
            .levels
            .iter()
            .enumerate()
            .flat_map(|(l, ps)| {
                let owners = &self.link.owners[l];
                ps.iter()
                    .enumerate()
                    .map(move |(i, p)| ((l, p.lo, p.n), owners[i]))
            })
            .collect();
        self.inner.regrid()?;
        self.reassign_owners(rank.live_ranks(), &old);
        rank.trace_span("amr.dist.regrid", t0.elapsed().as_nanos() as u64);
        Ok(true)
    }

    /// Post-regrid ownership: surviving patches keep their owner, new
    /// patches inherit their parent's; if the inherited layout is
    /// imbalanced past `REBALANCE_THRESHOLD`, re-cut the SFC partition from
    /// scratch. Patch *data* needs no migration either way — the
    /// pre-regrid allgather already replicated it everywhere.
    fn reassign_owners(&mut self, live: &[usize], old: &BTreeMap<(usize, usize, usize), usize>) {
        /// Max-rank cost, as a multiple of the ideal (total / live), past
        /// which the inherited ownership is dropped.
        const REBALANCE_THRESHOLD: f64 = 1.25;
        let mut inherited: Vec<Vec<usize>> = self
            .inner
            .levels
            .iter()
            .map(|ps| vec![0; ps.len()])
            .collect();
        for l in 0..self.inner.levels.len() {
            for (i, p) in self.inner.levels[l].iter().enumerate() {
                let kept = old
                    .get(&(l, p.lo, p.n))
                    .copied()
                    .filter(|o| live.contains(o));
                inherited[l][i] = match kept {
                    Some(o) => o,
                    None if l == 0 => live[0],
                    None => inherited[l - 1][p.parent_idx],
                };
            }
        }
        let mut cost_of = BTreeMap::new();
        let mut total = 0.0;
        for (l, ps) in self.inner.levels.iter().enumerate() {
            for (i, p) in ps.iter().enumerate() {
                let c = patch_cost(l, p.n);
                *cost_of.entry(inherited[l][i]).or_insert(0.0) += c;
                total += c;
            }
        }
        let ideal = total / live.len() as f64;
        let maxc = cost_of.values().cloned().fold(0.0, f64::max);
        let imbalance = if ideal > 0.0 { maxc / ideal } else { 1.0 };
        let chosen = if imbalance > REBALANCE_THRESHOLD {
            self.link.stats.rebalances += 1;
            self.link.count("amr.dist.rebalances", 1);
            assign_owners(&self.inner, live)
        } else {
            inherited.clone()
        };
        let moved: u64 = chosen
            .iter()
            .zip(&inherited)
            .map(|(a, b)| a.iter().zip(b).filter(|(x, y)| x != y).count() as u64)
            .sum();
        self.link.stats.migrations += moved;
        self.link.count("amr.dist.migrations", moved);
        self.link.owners = chosen;
    }

    // ----- checkpointing and gathered views -------------------------------

    /// Allgather, then serialize the (now fully replicated) hierarchy.
    /// Every rank returns an identical checkpoint.
    pub fn to_checkpoint_gathered(
        &mut self,
        rank: &mut Rank,
        time: f64,
    ) -> Result<AmrCheckpoint, SolverError> {
        self.allgather_state(rank, ExKind::Gather)?;
        Ok(self.inner.to_checkpoint(time))
    }

    /// Allgather, then compute the composite conserved totals (identical
    /// on every rank).
    pub fn composite_totals_gathered(
        &mut self,
        rank: &mut Rank,
    ) -> Result<[f64; NCOMP], SolverError> {
        self.allgather_state(rank, ExKind::Gather)?;
        Ok(self.inner.composite_totals())
    }

    // ----- the ladder's rungs ---------------------------------------------

    /// One attempt of a resilient step: sync + Δt reduction on the
    /// pre-regrid hierarchy (matching the serial solver's order), the
    /// regrid window when due, a rollback snapshot, then the recursive
    /// owner-computes step. Returns the committed Δt.
    fn try_step(
        &mut self,
        rank: &mut Rank,
        t: f64,
        t_end: f64,
        cfl_eff: f64,
    ) -> Result<f64, SolverError> {
        // The Δt reduction is an exact min, so the result is
        // bit-identical to the serial `AmrSolver::stable_dt`. Errors are
        // deferred past it — every rank contributes (∞ on failure) so
        // collective tags stay aligned across ranks.
        let mut coupling = RankLink {
            link: &mut self.link,
            rank,
        };
        let local = self.inner.stable_dt_with(&mut coupling, cfl_eff);
        let global = rank.allreduce_min(*local.as_ref().unwrap_or(&f64::INFINITY));
        let dt_res = local.map(|_| global);
        if matches!(dt_res, Err(SolverError::RankFailed { .. })) && rank.evicted().is_none() {
            return dt_res;
        }
        // The regrid window is reached whenever it is due — even if the Δt
        // phase failed locally — so its barrier stays collectively aligned.
        let due = self.inner.cfg.regrid_interval > 0
            && self.inner.steps > 0
            && self
                .inner
                .steps
                .is_multiple_of(self.inner.cfg.regrid_interval as u64)
            && self.last_regrid_step != Some(self.inner.steps);
        if due {
            let regridded = self.dist_regrid(rank)?;
            if regridded {
                self.last_regrid_step = Some(self.inner.steps);
            }
        }
        let mut dt = dt_res?;
        // Negated form deliberately catches NaN as a collapse.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(dt > 1e-14) {
            return Err(SolverError::TimestepCollapse { dt });
        }
        if t + dt > t_end {
            dt = t_end - t;
        }
        self.snapshot_u();
        let mut coupling = RankLink {
            link: &mut self.link,
            rank,
        };
        self.inner.step_level(&mut coupling, 0, dt, 0.0)?;
        Ok(dt)
    }

    fn snapshot_u(&mut self) {
        self.snapshot = self
            .inner
            .levels
            .iter()
            .map(|ps| ps.iter().map(|p| p.u.raw().to_vec()).collect())
            .collect();
        self.snapshot_ok = true;
    }

    fn rollback(&mut self) {
        if !self.snapshot_ok {
            return;
        }
        let shapes_match = self.snapshot.len() == self.inner.levels.len()
            && self
                .snapshot
                .iter()
                .zip(&self.inner.levels)
                .all(|(ss, ps)| {
                    ss.len() == ps.len()
                        && ss
                            .iter()
                            .zip(ps.iter())
                            .all(|(s, p)| s.len() == p.u.raw().len())
                });
        if !shapes_match {
            self.snapshot_ok = false;
            return;
        }
        for (ps, ss) in self.inner.levels.iter_mut().zip(&self.snapshot) {
            for (p, s) in ps.iter_mut().zip(ss) {
                p.u.raw_mut().copy_from_slice(s);
            }
        }
    }

    /// Advance to `t_end` under CFL control up the recovery ladder
    /// ([`resilient_advance`]) with the budgets, tiers and cadences of
    /// `res`: in-place retries with halved CFL, checkpoint restores, and —
    /// on a confirmed rank death — a shrinking recovery that re-partitions
    /// the hierarchy over the survivors. Returns this rank's exchange
    /// counters (cumulative over the solver's life) and the run's
    /// resilience ledger.
    pub fn advance_to(
        &mut self,
        rank: &mut Rank,
        t0: f64,
        t_end: f64,
        cfl: f64,
        res: &ResilienceConfig,
    ) -> Result<(DistAmrStats, ResilienceStats), SolverError> {
        let mut ladder = AmrLadder {
            tiers: MemoryTiers::new(
                0,
                rank.live_ranks().len(),
                rank.fault_injector().cloned(),
                self.link.metrics.clone(),
            ),
            d: self,
            res,
            slots: None,
            stats: ResilienceStats::default(),
            cfl,
        };
        resilient_advance(&mut ladder, rank, t0, t_end, res)?;
        let stats = ladder.stats;
        Ok((self.link.stats, stats))
    }
}

/// One `advance_to` call seen from the recovery ladder.
struct AmrLadder<'a> {
    d: &'a mut DistAmrSolver,
    res: &'a ResilienceConfig,
    /// Shared rank-count-independent disk slots, when configured.
    slots: Option<CheckpointSlots>,
    /// The diskless tier, with buddy offset 0: every rank freezes the
    /// identical serialized hierarchy — the allgathered state is fully
    /// replicated — so the tier is n-way redundant without a buddy
    /// transfer, and a restore needs only the store's agreement rounds.
    tiers: MemoryTiers,
    stats: ResilienceStats,
    cfl: f64,
}

/// The memory tier's block space: one block per live rank, in live order.
fn live_blocks(rank: &Rank) -> Result<(Vec<usize>, usize), SolverError> {
    let live = rank.live_ranks().to_vec();
    let me = live.iter().position(|&r| r == rank.rank());
    me.map(|me| (live, me))
        .ok_or(SolverError::RankFailed { step: 0 })
}

impl AmrLadder<'_> {
    /// Allgather, have the first live rank write the shared v4 slot when
    /// `to_disk` (rotating `latest` → `prev`), and freeze the memory tier
    /// from the same replicated state — which, the gather done, costs
    /// only the serialization, no extra messages.
    fn save(&mut self, rank: &mut Rank, t: f64, to_disk: bool) -> Result<(), SolverError> {
        let d = &mut *self.d;
        d.allgather_state(rank, ExKind::Gather)?;
        let ck = d.inner.to_checkpoint(t);
        if let Some(slots) = self.slots.as_ref().filter(|_| to_disk) {
            if rank.rank() == rank.live_ranks()[0] {
                slots.save(&ck).map_err(ck_err)?;
            }
            self.stats.checkpoints_saved += 1;
            d.link.count("ckp.save.disk", 1);
        }
        let (live, me) = live_blocks(rank)?;
        self.tiers
            .refresh(rank, &live, me, d.inner.steps, t, encode(&ck))?;
        self.stats.local_snapshots += 1;
        Ok(())
    }

    /// Memory tier first — every rank holds a full replicated checkpoint,
    /// so neither a restore nor a shrink needs disk while it is valid
    /// (whether it can serve is agreed inside [`MemoryTiers::fetch`]) —
    /// then the shared disk slot; restore and re-partition over the
    /// current live set either way.
    fn tier_restore(&mut self, rank: &mut Rank) -> Result<f64, SolverError> {
        let (live, me) = live_blocks(rank)?;
        let served = self.tiers.fetch(rank, &live, me, |bytes| {
            decode_trusted::<AmrCheckpoint>(bytes).ok()
        })?;
        let ck = match served {
            Some((ck, _)) => {
                self.stats.local_restores += 1;
                rank.trace_instant("amr.dist.memory_restore", ck.step as f64);
                ck
            }
            None => {
                let slots = self.slots.as_ref().ok_or_else(|| SolverError::Checkpoint {
                    msg: "the memory tier cannot serve a restore and no checkpoint \
                          directory is configured"
                        .into(),
                })?;
                let (ck, fell_back) = load_newest_agreed::<AmrCheckpoint>(rank, slots)?;
                self.stats.disk_restores += 1;
                self.stats.ckpt_fallbacks += u64::from(fell_back);
                self.d.link.count("ckp.tier.disk.restore", 1);
                ck
            }
        };
        self.d.restore(rank, &ck)?;
        self.d.link.cur_step = self.d.inner.steps;
        Ok(ck.time)
    }
}

impl Recoverable for AmrLadder<'_> {
    fn step_no(&self) -> u64 {
        self.d.link.cur_step
    }

    fn arm(&mut self, rank: &mut Rank, t: f64) -> Result<(), SolverError> {
        let d = &mut *self.d;
        d.link.injector = rank.fault_injector().cloned();
        d.link.cur_step = d.inner.steps;
        if let Some(dir) = &self.res.checkpoint_dir {
            // Always write an initial checkpoint so a shrink/restore
            // target exists from the very first step (this also freezes
            // the initial memory-tier snapshot).
            self.slots = Some(CheckpointSlots::new(dir.clone()).map_err(ck_err)?);
            self.save(rank, t, true)?;
        } else if self.res.local_interval > 0 {
            // Diskless runs still arm the memory tier from step 0.
            self.save(rank, t, false)?;
        }
        Ok(())
    }

    fn pre_step(&mut self, rank: &mut Rank, _t: f64) -> Result<bool, SolverError> {
        self.d.link.cur_step = self.d.inner.steps;
        // Rank-level crash injection at the classic step site: the
        // victim stops participating with no farewell message.
        self.d.link.check_crash(rank, RankSite::Step)?;
        Ok(false)
    }

    fn try_step(
        &mut self,
        rank: &mut Rank,
        t: f64,
        t_end: f64,
        cfl_scale: f64,
    ) -> Result<f64, SolverError> {
        self.d.link.seq += 1;
        self.d.try_step(rank, t, t_end, self.cfl * cfl_scale)
    }

    fn rollback(&mut self) {
        self.d.rollback();
    }

    fn commit(&mut self, rank: &mut Rank, t: f64, _dt: f64) -> Result<(), SolverError> {
        let d = &mut *self.d;
        d.inner.steps += 1;
        d.link.stats.steps += 1;
        d.snapshot_ok = false;
        d.inner.flush_metrics();
        let steps = d.inner.steps;
        let due = |interval: usize| interval > 0 && steps.is_multiple_of(interval as u64);
        let (to_disk, to_memory, scrub) = (
            self.slots.is_some() && due(self.res.checkpoint_interval),
            due(self.res.local_interval),
            due(self.res.scrub_interval),
        );
        // A disk save refreshes the memory tier for free (the allgather
        // already replicated the state), so the standalone memory save
        // runs only when the slower disk cadence is not also due.
        if to_disk || to_memory {
            match self.save(rank, t, to_disk) {
                // A peer died mid-gather: the latched suspicion routes
                // into the next step's consensus rung.
                Ok(()) | Err(SolverError::PeerSuspect { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        if scrub {
            self.stats.scrubs += 1;
            self.stats.snapshots_rotted += self.tiers.scrub(rank);
        }
        Ok(())
    }

    fn restore(&mut self, rank: &mut Rank, _cause: RestoreCause) -> Result<f64, SolverError> {
        self.tier_restore(rank)
    }

    fn shrink(&mut self, rank: &mut Rank) -> Result<f64, SolverError> {
        self.tier_restore(rank)
    }

    fn stats(&mut self) -> &mut ResilienceStats {
        &mut self.stats
    }

    fn metrics(&self) -> Option<&Registry> {
        self.d.link.metrics.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::Problem;
    use rhrsc_comm::{run, run_with_faults, NetworkModel};
    use rhrsc_grid::{bc, Bc};
    use rhrsc_runtime::fault::FaultPlan;
    use std::time::Duration;

    fn scheme() -> Scheme {
        Scheme::default_with_gamma(5.0 / 3.0)
    }

    fn pulse_ic(x: [f64; 3]) -> Prim {
        let g = (-((x[0] - 0.5) / 0.08).powi(2)).exp();
        Prim::new_1d(1.0 + 2.0 * g, 0.0, 1.0 + 20.0 * g)
    }

    /// The distributed-AMR budgets and cadences these tests were written
    /// against: 2 retries, 4 restores, disk every 4 steps, memory every 2,
    /// scrub every 5.
    fn amr_res(checkpoint_dir: Option<std::path::PathBuf>) -> ResilienceConfig {
        ResilienceConfig {
            max_step_retries: 2,
            max_restarts: 4,
            checkpoint_interval: 4,
            checkpoint_dir,
            local_interval: 2,
            scrub_interval: 5,
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn partitioner_is_contiguous_and_balanced() {
        let costs = [64.0, 8.0, 12.0, 4.0, 40.0, 2.0];
        for nparts in 1..=6 {
            let parts = partition_contiguous(&costs, nparts);
            assert_eq!(parts.len(), costs.len());
            for w in parts.windows(2) {
                assert!(w[0] <= w[1], "parts must be non-decreasing: {parts:?}");
            }
            assert!(parts.iter().all(|&p| p < nparts));
            let total: f64 = costs.iter().sum();
            let maxc = costs.iter().cloned().fold(0.0, f64::max);
            let mut per = vec![0.0; nparts];
            for (i, &p) in parts.iter().enumerate() {
                per[p] += costs[i];
            }
            let bound = total / nparts as f64 + maxc + 1e-9;
            for (p, &c) in per.iter().enumerate() {
                assert!(c <= bound, "part {p} carries {c} > bound {bound}");
            }
        }
    }

    /// The acceptance pin: a no-fault distributed run is bit-identical to
    /// the serial AMR solver on the f12 accuracy problem, across rank
    /// counts, with real cross-rank coupling exercised.
    #[test]
    fn no_fault_distributed_matches_serial_bitwise() {
        let prob = Problem::sod();
        let amr_cfg = AmrConfig {
            max_levels: 2,
            ..AmrConfig::default()
        };
        let t_end = 0.15;
        let mut gold = AmrSolver::new(
            scheme(),
            prob.bcs,
            RkOrder::Rk3,
            64,
            0.0,
            1.0,
            amr_cfg.clone(),
        );
        gold.init(&|x| (prob.ic)(x));
        gold.advance_to(0.0, t_end, 0.4).unwrap();
        let want = gold.to_checkpoint(t_end);

        for nranks in [2usize, 4] {
            let prob = prob.clone();
            let cfg = amr_cfg.clone();
            let outs = run(nranks, NetworkModel::ideal(), |rank| {
                let mut d =
                    DistAmrSolver::new(scheme(), prob.bcs, RkOrder::Rk3, 64, 0.0, 1.0, cfg.clone());
                d.init(rank, &|x| (prob.ic)(x));
                d.advance_to(rank, 0.0, t_end, 0.4, &amr_res(None)).unwrap();
                let ck = d.to_checkpoint_gathered(rank, t_end).unwrap();
                (ck, d.stats())
            });
            for (r, (ck, stats)) in outs.into_iter().enumerate() {
                assert_eq!(
                    ck.patches.len(),
                    want.patches.len(),
                    "rank {r}/{nranks}: patch count"
                );
                for (a, b) in ck.patches.iter().zip(&want.patches) {
                    assert_eq!((a.level, a.lo, a.n), (b.level, b.lo, b.n));
                    for (x, y) in a.data.iter().zip(&b.data) {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "rank {r}/{nranks}: level {} patch at {} diverged",
                            a.level,
                            a.lo
                        );
                    }
                }
                // A rank owning only coarse patches sends descend/sync
                // traffic; one owning only fine patches sends reflux.
                assert!(
                    stats.halo_msgs + stats.reflux_msgs > 0,
                    "rank {r}/{nranks}: cross-rank coupling never exercised"
                );
            }
        }
    }

    /// All AMR message classes ride the fault-injected halo tag space, so
    /// in-flight corruption is caught by the CRC-32 trailer and healed by
    /// the modeled link-level retransmit: a lossy run stays bit-identical
    /// to the clean serial solution instead of silently accepting damage.
    #[test]
    fn corrupted_amr_traffic_is_detected_and_retried() {
        let prob = Problem::sod();
        let amr_cfg = AmrConfig {
            max_levels: 2,
            ..AmrConfig::default()
        };
        let t_end = 0.1;
        let mut gold = AmrSolver::new(
            scheme(),
            prob.bcs,
            RkOrder::Rk3,
            64,
            0.0,
            1.0,
            amr_cfg.clone(),
        );
        gold.init(&|x| (prob.ic)(x));
        gold.advance_to(0.0, t_end, 0.4).unwrap();
        let want = gold.to_checkpoint(t_end);

        let plan = FaultPlan {
            seed: 21,
            msg_truncate_prob: 0.05,
            ..FaultPlan::disabled()
        };
        let model = NetworkModel::ideal().with_crc_retries(16);
        let outs = run_with_faults(4, model, Some(plan), |rank| {
            let reg = Arc::new(Registry::new());
            rank.set_metrics(reg.clone());
            let mut d = DistAmrSolver::new(
                scheme(),
                prob.bcs,
                RkOrder::Rk3,
                64,
                0.0,
                1.0,
                amr_cfg.clone(),
            );
            d.init(rank, &|x| (prob.ic)(x));
            d.advance_to(rank, 0.0, t_end, 0.4, &amr_res(None)).unwrap();
            let ck = d.to_checkpoint_gathered(rank, t_end).unwrap();
            (ck, reg.counter("comm.liveness.crc_retries").get())
        });
        let total_retries: u64 = outs.iter().map(|(_, r)| r).sum();
        assert!(
            total_retries > 0,
            "the lossy link never corrupted an AMR message"
        );
        for (ck, _) in &outs {
            assert_eq!(ck.patches.len(), want.patches.len());
            for (a, b) in ck.patches.iter().zip(&want.patches) {
                assert_eq!((a.level, a.lo, a.n), (b.level, b.lo, b.n));
                for (x, y) in a.data.iter().zip(&b.data) {
                    assert_eq!(x.to_bits(), y.to_bits(), "corruption slipped through");
                }
            }
        }
    }

    /// Kill a rank inside the regrid window: survivors must evict it,
    /// restore from the shared v4 checkpoint, re-partition, and finish
    /// with composite conservation intact — booked by the ladder under
    /// the counter names the block driver's drills read.
    #[test]
    fn crash_during_regrid_shrinks_and_conserves() {
        let dir = std::env::temp_dir().join("rhrsc-amr-dist-regrid-crash");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = AmrConfig {
            threshold: 0.08,
            ..AmrConfig::default()
        };
        let res = ResilienceConfig {
            checkpoint_interval: 2,
            ..amr_res(Some(dir.clone()))
        };
        let reg = Arc::new(Registry::new());
        let t_end = 0.15;
        let plan = FaultPlan {
            seed: 9,
            crash_rank: Some(1),
            crash_step: 8,
            crash_site: RankSite::Regrid,
            ..FaultPlan::disabled()
        };
        let model = NetworkModel::ideal().with_suspect_after(Duration::from_millis(150));
        let outs = run_with_faults(4, model, Some(plan), |rank| {
            let mut d = DistAmrSolver::new(
                scheme(),
                bc::uniform(Bc::Periodic),
                RkOrder::Rk3,
                64,
                0.0,
                1.0,
                cfg.clone(),
            );
            d.set_metrics(Arc::clone(&reg));
            d.init(rank, &pulse_ic);
            let before = d.composite_totals_gathered(rank).unwrap();
            match d.advance_to(rank, 0.0, t_end, 0.4, &res) {
                Ok((_, rstats)) => {
                    let after = d.composite_totals_gathered(rank).unwrap();
                    Some((rstats, before, after))
                }
                Err(SolverError::RankFailed { .. }) => None,
                Err(e) => panic!("rank {}: unexpected error {e}", rank.rank()),
            }
        });
        assert!(outs[1].is_none(), "the victim must die");
        let survivors: Vec<_> = outs.into_iter().flatten().collect();
        assert_eq!(survivors.len(), 3, "all survivors must finish");
        assert_eq!(reg.counter("driver.shrinks").get(), 3, "one per survivor");
        assert_eq!(reg.counter("driver.ranks_lost").get(), 3);
        for (rstats, before, after) in &survivors {
            assert_eq!(rstats.shrinks, 1, "exactly one shrinking recovery");
            assert_eq!(rstats.ranks_lost, 1);
            for c in 0..NCOMP {
                assert!(
                    (after[c] - before[c]).abs() <= 1e-11 * before[c].abs().max(1.0),
                    "component {c}: {} -> {}",
                    before[c],
                    after[c]
                );
            }
        }
    }

    /// Satellite: a v4 checkpoint written by a 4-rank run restores onto a
    /// 2-rank run; a torn `latest` slot falls back to `prev` and the
    /// redistribution still completes cleanly.
    #[test]
    fn changed_rank_count_restore_survives_torn_latest() {
        let dir = std::env::temp_dir().join("rhrsc-amr-dist-rerank");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = AmrConfig {
            threshold: 0.08,
            ..AmrConfig::default()
        };
        let res = ResilienceConfig {
            checkpoint_interval: 2,
            ..amr_res(Some(dir.clone()))
        };
        // Phase 1: a 4-rank run writes the shared slots.
        {
            run(4, NetworkModel::ideal(), |rank| {
                let mut d = DistAmrSolver::new(
                    scheme(),
                    bc::uniform(Bc::Periodic),
                    RkOrder::Rk3,
                    64,
                    0.0,
                    1.0,
                    cfg.clone(),
                );
                d.init(rank, &pulse_ic);
                d.advance_to(rank, 0.0, 0.08, 0.4, &res).unwrap();
            });
        }
        // Tear the newest slot: truncate its last byte.
        let slots = CheckpointSlots::new(dir.clone()).unwrap();
        let latest = slots.latest_path::<AmrCheckpoint>();
        let bytes = std::fs::read(&latest).unwrap();
        std::fs::write(&latest, &bytes[..bytes.len() - 1]).unwrap();
        assert!(
            slots.prev_path::<AmrCheckpoint>().exists(),
            "prev slot must exist"
        );
        // Phase 2: a 2-rank run restores (falling back to prev) and
        // continues; the redistributed hierarchy must keep conserving.
        let outs = run(2, NetworkModel::ideal(), |rank| {
            let slots = CheckpointSlots::new(dir.clone()).unwrap();
            let (ck, fell_back) = slots.load_newest::<AmrCheckpoint>().unwrap();
            assert!(fell_back, "torn latest must fall back to prev");
            let mut d = DistAmrSolver::new(
                scheme(),
                bc::uniform(Bc::Periodic),
                RkOrder::Rk3,
                64,
                0.0,
                1.0,
                cfg.clone(),
            );
            d.init(rank, &pulse_ic);
            d.restore(rank, &ck).unwrap();
            let before = d.composite_totals_gathered(rank).unwrap();
            d.advance_to(rank, ck.time, 0.12, 0.4, &res).unwrap();
            let after = d.composite_totals_gathered(rank).unwrap();
            let me = rank.rank();
            assert!(
                d.link.owners.iter().flatten().any(|&o| o == me),
                "rank {me} owns nothing after restore"
            );
            (before, after)
        });
        for (before, after) in outs {
            for c in 0..NCOMP {
                assert!(
                    (after[c] - before[c]).abs() <= 1e-11 * before[c].abs().max(1.0),
                    "component {c}: {} -> {}",
                    before[c],
                    after[c]
                );
            }
        }
    }
}
