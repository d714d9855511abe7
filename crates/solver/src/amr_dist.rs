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
//! retransmit of the communication layer for free. Each class is a plan
//! of *parcels* — `(owner, destination, level, index)`, one patch on its
//! way from its owner to one rank — and one routine, `DistLink::ship`,
//! carries every plan:
//!
//! * *descend* ([`AMR_DESCEND_TAG_BASE`]` + ℓ`): each level-ℓ patch goes
//!   to the owners of its strict descendants before their substeps, so
//!   the time-interpolated ghost prolongation chain
//!   ([`AmrSolver::fill_ghosts_lerp`]) can be evaluated locally,
//! * *sync* ([`AMR_SYNC_TAG_BASE`]` + ℓ`): the descend plan at sync points
//!   (Δt estimation, diagnostics),
//! * *reflux* ([`AMR_REFLUX_TAG_BASE`]` + ℓ`): each child goes to its
//!   off-rank parent owner, which restricts and applies the
//!   Berger–Colella corrections exactly as the serial solver does,
//! * *allgather* ([`AMR_REGRID_TAG`]): every patch goes to every other
//!   live rank, fully replicating the state; used before regrids (so
//!   clustering is a pure-local, deterministic computation), before
//!   global checkpoints (the root writes the rank-count-independent image
//!   of its replica, one level-tagged block per patch), and for gathered
//!   diagnostics.
//!
//! A blob goes to one destination: the *attempt sequence number*, then
//! per parcel in plan order `base` (descend only), the `u` interior, and
//! the two boundary-flux accumulators (reflux only). Receivers drop blobs
//! from older (rolled-back or aborted) exchanges and refuse blobs from the
//! future, so retried steps never consume stale in-flight data. A rank
//! that receives a damaged blob in a checkpoint gather skips that save
//! (`amr.dist.saves_skipped`) rather than ending.
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
//! (keeping collective tags aligned). The ladder's storage is the shared
//! tier stack ([`crate::tiers`]); this module hands it the hierarchy's
//! image (captured by one allgather) and installs an image back, re-
//! partitioning the SFC segment map over the live set. The image is the
//! whole replicated hierarchy, so the memory tier needs no buddy
//! ([`ResilienceConfig::buddy_offset`] is not read here), a confirmed
//! death is served from the memory tier or the shared
//! rank-count-independent checkpoint like a restore, and one allgather
//! serves a disk save and a memory save alike. Regrids are
//! *comm-atomic*: a pre-mutation agreement barrier after the allgather
//! ensures either every rank rebuilds the hierarchy or none does, so a
//! rank killed mid-regrid (the [`RankSite::Regrid`] fault site) can never
//! leave survivors with divergent hierarchies.

use crate::amr::{AmrSolver, LevelCoupling};
use crate::driver::comm_err;
use crate::integrate::{land_dt, RkOrder};
use crate::ladder::{
    count, outcome_flag, resilient_advance, straggle, Recoverable, ResilienceConfig,
    ResilienceStats, RestoreCause, Stopwatch,
};
use crate::scheme::{Scheme, SolverError};
use crate::tiers::{ck_err, Capture, TierStack, Tiered};
use crate::AmrConfig;
use rhrsc_comm::{
    Rank, AMR_DESCEND_TAG_BASE, AMR_REFLUX_TAG_BASE, AMR_REGRID_TAG, AMR_SYNC_TAG_BASE,
};
use rhrsc_grid::BcSet;
use rhrsc_io::checkpoint::{encode_trusted, AmrCheckpoint, GlobalCheckpoint};
use rhrsc_runtime::fault::{FaultInjector, RankSite};
use rhrsc_runtime::Registry;
use rhrsc_srhd::{Cons, Prim, NCOMP};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
/// trace span, what a parcel carries, and which counter the traffic
/// lands in.
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

    /// The tag of this class's exchange for level `l`.
    fn tag(self, l: usize) -> u64 {
        match self {
            ExKind::Descend => AMR_DESCEND_TAG_BASE + l as u64,
            ExKind::Sync => AMR_SYNC_TAG_BASE + l as u64,
            ExKind::Reflux => AMR_REFLUX_TAG_BASE + l as u64,
            ExKind::Regrid | ExKind::Gather => AMR_REGRID_TAG,
        }
    }
}

/// One patch on the wire: `(owner, destination, level, index)` ships
/// `levels[level][index]` from its owner to `destination`.
type Parcel = (usize, usize, usize, usize);

/// [`AmrSolver`] sharded across ranks with owner-computes semantics and
/// the recovery ladder's tiers. See the module docs for the
/// decomposition, communication, and recovery design.
pub struct DistAmrSolver {
    inner: AmrSolver,
    link: DistLink,
    /// Base step at which the last successful regrid ran (so retried
    /// attempts of the same step do not regrid twice).
    last_regrid_step: Option<u64>,
    /// The rollback copy: every patch's `u`, level by level, as the
    /// attempt in flight found it. Empty when there is nothing to
    /// restore; cleared, not freed, so that its capacity is reused.
    snapshot: Vec<f64>,
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
    /// The first local failure of the attempt in flight, kept while the
    /// attempt runs its full communication pattern (see
    /// [`LevelCoupling::fail`]).
    failed: Option<SolverError>,
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
        let plan = self.link.down_plan(amr, l);
        let res = self.link.ship(self.rank, amr, ExKind::Descend, l, &plan);
        res.or_else(|e| self.fail(e))
    }
    fn reflux(&mut self, amr: &mut AmrSolver, l: usize) -> Result<(), SolverError> {
        let plan = self.link.up_plan(amr, l);
        let res = self.link.ship(self.rank, amr, ExKind::Reflux, l, &plan);
        res.or_else(|e| self.fail(e))
    }
    fn sync(&mut self, amr: &mut AmrSolver, l: usize) -> Result<(), SolverError> {
        let plan = self.link.down_plan(amr, l);
        let res = self.link.ship(self.rank, amr, ExKind::Sync, l, &plan);
        res.or_else(|e| self.fail(e))
    }
    fn fail(&mut self, e: SolverError) -> Result<(), SolverError> {
        // An injected crash goes silent at once; anything else waits for
        // the end of the attempt.
        if matches!(e, SolverError::RankFailed { .. }) {
            return Err(e);
        }
        self.link.failed.get_or_insert(e);
        Ok(())
    }
}

impl DistLink {
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

    /// Descend and sync: each level-`l` patch goes to the owners of its
    /// strict descendants, in (index, destination) order.
    fn down_plan(&self, amr: &AmrSolver, l: usize) -> Vec<Parcel> {
        let mut to = BTreeSet::new();
        // The level-`l` ancestor of every patch of level `m`.
        let mut anc: Vec<usize> = (0..amr.levels[l].len()).collect();
        for m in l + 1..amr.levels.len() {
            anc = amr.levels[m].iter().map(|p| anc[p.parent_idx]).collect();
            to.extend(anc.iter().zip(&self.owners[m]).map(|(&i, &d)| (i, d)));
        }
        let parcels = to.into_iter().map(|(i, d)| (self.owners[l][i], d, l, i));
        parcels.filter(|&(o, d, ..)| o != d).collect()
    }

    /// Reflux: each level-`l` patch goes to its parent's owner when that
    /// is another rank, in index order.
    fn up_plan(&self, amr: &AmrSolver, l: usize) -> Vec<Parcel> {
        let parcels = amr.levels[l].iter().enumerate().map(|(i, p)| {
            let parent_owner = self.owners[l - 1][p.parent_idx];
            (self.owners[l][i], parent_owner, l, i)
        });
        parcels.filter(|&(o, d, ..)| o != d).collect()
    }

    /// Allgather: every patch goes to every other live rank, level-major.
    fn gather_plan(&self, live: &[usize]) -> Vec<Parcel> {
        let mut parcels = Vec::new();
        for (l, owners) in self.owners.iter().enumerate() {
            for (i, &o) in owners.iter().enumerate() {
                parcels.extend(live.iter().filter(|&&d| d != o).map(|&d| (o, d, l, i)));
            }
        }
        parcels
    }

    /// Carry every distributed-AMR message: one blob per destination on
    /// `kind`'s tag for level `l`, holding the attempt's sequence number
    /// and then, for each of this rank's parcels to that destination in
    /// order, `base` (descend only), the `u` interior, and the two flux
    /// accumulators (reflux only). Sends every blob, receives one per
    /// source — dropping stale (lower-sequence) leftovers of rolled-back
    /// attempts, refusing a blob from the future or of the wrong length —
    /// and scatters it. Descend, sync and reflux skip an exchange this
    /// rank has no parcel in; the allgathers never do, because their
    /// crash sites and the regrid barrier count on every rank reaching
    /// them.
    fn ship(
        &mut self,
        rank: &mut Rank,
        amr: &mut AmrSolver,
        kind: ExKind,
        l: usize,
        parcels: &[Parcel],
    ) -> Result<(), SolverError> {
        let me = rank.rank();
        let gathers = matches!(kind, ExKind::Regrid | ExKind::Gather);
        if !gathers && !parcels.iter().any(|&(o, d, ..)| o == me || d == me) {
            return Ok(());
        }
        self.check_crash(rank, kind.site())?;
        let sw = Stopwatch::start(rank);
        let (base, flux) = (kind == ExKind::Descend, kind == ExKind::Reflux);
        let (fields, ng) = (1 + usize::from(base), amr.ng);
        let mut blobs: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        let mut want: BTreeMap<usize, usize> = BTreeMap::new();
        for &(o, d, pl, i) in parcels {
            let p = &amr.levels[pl][i];
            if o == me {
                let blob = blobs.entry(d).or_insert_with(|| vec![self.seq as f64]);
                for f in [&p.base, &p.u].into_iter().skip(2 - fields) {
                    f.gather_box([ng, 0, 0], [ng + p.n, 1, 1], blob);
                }
                if flux {
                    blob.extend(p.acc.iter().flat_map(|a| a.to_array()));
                }
            } else if d == me {
                // A blob's length: the sequence number, then its parcels.
                let len = NCOMP * (fields * p.n + 2 * usize::from(flux));
                *want.entry(o).or_insert(1) += len;
            }
        }
        let (tag, nmsgs) = (kind.tag(l), blobs.len() as u64);
        let mut bytes = 0u64;
        for (dst, blob) in blobs {
            bytes += (blob.len() * 8) as u64;
            rank.send_vec(dst, tag, blob);
        }
        let mut got = BTreeMap::new();
        for (&src, &len) in &want {
            loop {
                let msg = rank.recv_deadline(src, tag).map_err(comm_err)?;
                let sq = msg.first().copied().unwrap_or(-1.0);
                if sq < self.seq as f64 {
                    // Leftover from a rolled-back attempt or an aborted
                    // exchange: drop it and wait for this attempt's blob
                    // (FIFO per sender and tag).
                    continue;
                }
                if sq > self.seq as f64 || msg.len() != len {
                    return Err(SolverError::HaloMismatch {
                        expected: len,
                        got: msg.len(),
                    });
                }
                got.insert(src, (msg, 1));
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
        count(self.metrics.as_deref(), counter, nmsgs);
        count(self.metrics.as_deref(), "amr.dist.halo_bytes", bytes);
        straggle(rank, &sw);
        rank.trace_span(kind.span(), sw.ns(rank));
        for &(o, d, pl, i) in parcels {
            let Some((msg, off)) = got.get_mut(&o).filter(|_| d == me) else {
                continue;
            };
            let p = &mut amr.levels[pl][i];
            let (hi, n) = ([ng + p.n, 1, 1], NCOMP * p.n);
            for f in [&mut p.base, &mut p.u].into_iter().skip(2 - fields) {
                f.scatter_box([ng, 0, 0], hi, &msg[*off..*off + n]);
                *off += n;
            }
            if flux {
                for a in &mut p.acc {
                    *a = Cons::from_array(std::array::from_fn(|c| msg[*off + c]));
                    *off += NCOMP;
                }
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
                failed: None,
            },
            last_regrid_step: None,
            snapshot: Vec::new(),
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
        self.snapshot.clear();
    }

    /// Restore from a rank-count-independent AMR checkpoint and
    /// re-partition ownership over the current live set. The checkpoint
    /// may come from a run with any rank count.
    pub fn restore(&mut self, rank: &Rank, ck: &AmrCheckpoint) -> Result<(), SolverError> {
        self.inner
            .restore(ck)
            .map_err(|msg| SolverError::Checkpoint { msg })?;
        self.link.owners = assign_owners(&self.inner, rank.live_ranks());
        self.last_regrid_step = None;
        self.snapshot.clear();
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

    /// Fully replicate the composite state over the live ranks.
    fn allgather_state(&mut self, rank: &mut Rank, kind: ExKind) -> Result<(), SolverError> {
        let plan = self.link.gather_plan(rank.live_ranks());
        self.link.ship(rank, &mut self.inner, kind, 0, &plan)
    }

    // ----- regridding and migration --------------------------------------

    /// Comm-atomic distributed regrid: allgather the composite state, pass
    /// a pre-mutation agreement barrier (nobody rebuilds unless everybody
    /// has the full state), then rebuild the hierarchy locally —
    /// deterministic and identical on every rank — and reassign ownership.
    /// A rank killed inside the allgather window dies *before* any
    /// mutation, so survivors either all regrid or all abort the attempt.
    fn dist_regrid(&mut self, rank: &mut Rank) -> Result<bool, SolverError> {
        let sw = Stopwatch::start(rank);
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
        rank.trace_span("amr.dist.regrid", sw.ns(rank));
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
            count(self.link.metrics.as_deref(), "amr.dist.rebalances", 1);
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
        count(self.link.metrics.as_deref(), "amr.dist.migrations", moved);
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
        self.link.failed = None;
        let mut coupling = RankLink {
            link: &mut self.link,
            rank,
        };
        let local = self.inner.stable_dt_with(&mut coupling, cfl_eff);
        // A rank whose Δt phase latched a failure contributes ∞ too: its Δt
        // comes from state it knows is bad. It still steps, because its
        // peers wait on its exchanges, and reports the failure after.
        let sound = local.as_ref().ok().filter(|_| self.link.failed.is_none());
        let global = rank.allreduce_min(*sound.unwrap_or(&f64::INFINITY));
        // An infinite minimum means no rank has a sound Δt, so none steps.
        let dt_res = local.map(|_| global).and_then(|dt| match dt {
            f64::INFINITY => self.link.failed.take().map_or(Ok(dt), Err),
            _ => Ok(dt),
        });
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
        let dt = land_dt(dt_res?, Some((t, t_end)))?;
        self.snapshot_u();
        let mut coupling = RankLink {
            link: &mut self.link,
            rank,
        };
        self.inner.step_level(&mut coupling, 0, dt, 0.0)?;
        self.link.failed.take().map_or(Ok(dt), Err)
    }

    fn snapshot_u(&mut self) {
        self.snapshot.clear();
        for p in self.inner.levels.iter().flatten() {
            self.snapshot.extend_from_slice(p.u.raw());
        }
    }

    fn rollback(&mut self) {
        let len: usize = self
            .inner
            .levels
            .iter()
            .flatten()
            .map(|p| p.u.raw().len())
            .sum();
        if self.snapshot.len() != len {
            return;
        }
        let mut rest = &self.snapshot[..];
        for p in self.inner.levels.iter_mut().flatten() {
            let (s, tail) = rest.split_at(p.u.raw().len());
            p.u.raw_mut().copy_from_slice(s);
            rest = tail;
        }
        self.inner.forget_sync();
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
            stack: TierStack::new(res, res.checkpoint_dir.clone(), self.link.metrics.clone()),
            d: self,
            cfl,
        };
        resilient_advance(&mut ladder, rank, t0, t_end, res)?;
        let stats = ladder.stack.stats;
        Ok((self.link.stats, stats))
    }
}

/// The hierarchy as the tier stack sees it: after one allgather every rank
/// holds the whole of it, so its image serves a disk save and a memory
/// save alike, on every rank.
impl Tiered for DistAmrSolver {
    const WHOLE: bool = true;

    /// One block per live rank, in live order.
    fn blocks(&self, rank: &Rank) -> Result<(Cow<'_, [usize]>, usize), SolverError> {
        let live = rank.live_ranks();
        let me = live.iter().position(|&r| r == rank.rank());
        me.map(|me| (Cow::Owned(live.to_vec()), me))
            .ok_or(SolverError::RankFailed { step: 0 })
    }

    /// Allgather, then the hierarchy's image: serialized for the memory
    /// tier, and whole on the first live rank, which writes the disk
    /// slot.
    fn capture(&mut self, rank: &mut Rank, at: (f64, u64), disk: bool, memory: bool) -> Capture {
        if let Err(e) = self.allgather_state(rank, ExKind::Gather) {
            return (Err(e), None);
        }
        let img = self.inner.to_checkpoint(at.0).into_image();
        let bytes = memory.then(|| encode_trusted(&img));
        let writes = disk && rank.rank() == rank.live_ranks()[0];
        (Ok(writes.then_some(img)), bytes)
    }

    /// Rebuild the hierarchy and re-partition it over the live set.
    fn install(&mut self, rank: &Rank, img: GlobalCheckpoint) -> Result<(f64, u64), SolverError> {
        let ck = AmrCheckpoint::from_image(img).map_err(ck_err)?;
        self.restore(rank, &ck)?;
        self.link.cur_step = self.inner.steps;
        Ok((ck.time, ck.step))
    }
}

/// One `advance_to` call seen from the recovery ladder.
struct AmrLadder<'a> {
    d: &'a mut DistAmrSolver,
    /// The shared rank-count-independent disk slots in `<checkpoint_dir>/`
    /// and the memory tier.
    stack: TierStack<'a>,
    cfl: f64,
}

impl Recoverable for AmrLadder<'_> {
    fn step_no(&self) -> u64 {
        self.d.link.cur_step
    }

    fn arm(&mut self, rank: &mut Rank, t: f64) -> Result<(), SolverError> {
        let d = &mut *self.d;
        d.link.injector = rank.fault_injector().cloned();
        d.link.cur_step = d.inner.steps;
        let step = d.inner.steps;
        self.stack.arm(d, rank, (t, step))
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
        d.snapshot.clear();
        d.inner.flush_metrics();
        let steps = d.inner.steps;
        self.stack.commit(d, rank, (t, steps))?;
        // After the commit's saves, so step 0 does not count.
        self.stack.scrub(rank, steps);
        Ok(())
    }

    fn restore(&mut self, rank: &mut Rank, _cause: RestoreCause) -> Result<f64, SolverError> {
        self.stack.restore(self.d, rank).map(|(t, _)| t)
    }

    fn shrink(&mut self, rank: &mut Rank) -> Result<f64, SolverError> {
        self.stack.shrink(self.d, rank).map(|(t, _)| t)
    }

    fn stats(&mut self) -> &mut ResilienceStats {
        &mut self.stack.stats
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
    use rhrsc_io::checkpoint::CheckpointSlots;
    use rhrsc_runtime::fault::FaultPlan;

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
    /// restore from the shared checkpoint, re-partition, and finish
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
        let model = NetworkModel::ideal();
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

    /// A checkpoint written by a 4-rank run restores onto a
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
        let latest = slots.latest_path();
        let bytes = std::fs::read(&latest).unwrap();
        std::fs::write(&latest, &bytes[..bytes.len() - 1]).unwrap();
        assert!(slots.prev_path().exists(), "prev slot must exist");
        // Phase 2: a 2-rank run restores (falling back to prev) and
        // continues; the redistributed hierarchy must keep conserving.
        let outs = run(2, NetworkModel::ideal(), |rank| {
            let slots = CheckpointSlots::new(dir.clone()).unwrap();
            let (img, fell_back) = slots.load_newest().unwrap();
            assert!(fell_back, "torn latest must fall back to prev");
            let ck = AmrCheckpoint::from_image(img).unwrap();
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
