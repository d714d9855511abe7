//! The storage the recovery ladder climbs on: one tier stack for both
//! distributed drivers.
//!
//! [`TierStack`] owns the storage half of every rung: the disk slot pair
//! and the memory tiers, the initial save and the save cadence, the
//! failure rule of a save, the restore order (memory, then disk), the
//! shrink order (buddy replicas, then the restore tiers) and every tier
//! counter of the ledger. A driver supplies only its state's side through
//! [`Tiered`]: its image at `(t, step)` and how an image becomes its state
//! again. Both images are a [`GlobalCheckpoint`] — the block driver's own
//! block of the global grid, distributed AMR's whole replicated hierarchy
//! (one level-tagged block per patch) — and what differs between the two
//! drivers follows from that one fact, [`Tiered::WHOLE`].
//!
//! [`MemoryTiers`] is one rank's share of the FTI/SCR-style memory
//! hierarchy — its own frozen snapshot (L1) and, when a buddy offset is
//! set, the replica it guards for a partner (L2) — together with every
//! protocol that moves or trusts those buffers: the buddy exchange at
//! capture time, injected rot and the scrub that finds it, the collective
//! fetch that decides whether memory can serve a restore, and the gather
//! that rebuilds dead ranks' blocks from their guardians' replicas. A
//! snapshot is a trusted-encoded image ([`encode_trusted`]); the store
//! decodes it only to serve a restore, and folds single-block images into
//! one at a buddy shrink.
//!
//! Every method that communicates is collective over the ranks in
//! `comm_ranks` — block `b` of the current decomposition lives on
//! communicator rank `comm_ranks[b]`, and `me` is the caller's block —
//! and every branch is taken on an agreed value, so all ranks walk the
//! same path.

use crate::driver::comm_err;
use crate::ladder::{count, phase_end, phase_start, PhaseStart, ResilienceConfig, ResilienceStats};
use crate::scheme::SolverError;
use rhrsc_comm::{Rank, BUDDY_CKP_TAG, BUDDY_RESTORE_TAG, BUDDY_SHRINK_TAG};
use rhrsc_io::checkpoint::{
    decode_trusted, encode_trusted, BlockRecord, CheckpointError, CheckpointSlots, GlobalCheckpoint,
};
use rhrsc_io::snapshot::MemorySnapshot;
use rhrsc_runtime::fault::SnapshotTarget;
use rhrsc_runtime::metrics::Registry;
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;

type Res<T = ()> = Result<T, SolverError>;

pub(crate) fn ck_err(e: CheckpointError) -> SolverError {
    SolverError::Checkpoint { msg: e.to_string() }
}

/// The disk tier's prelude: every rank loads the newest readable slot
/// (falling back past a torn `latest`) and all agree that everyone
/// succeeded, so a one-rank I/O failure cannot desynchronize the tiers.
/// Returns the checkpoint and whether the `prev` slot served it.
fn load_newest_agreed(
    rank: &mut Rank,
    slots: &CheckpointSlots,
) -> Result<(GlobalCheckpoint, bool), SolverError> {
    let loaded = slots.load_newest();
    let all_loaded = rank.allreduce_min(if loaded.is_ok() { 1.0 } else { 0.0 }) > 0.5;
    match (loaded, all_loaded) {
        (Ok(v), true) => Ok(v),
        (loaded, _) => Err(loaded.err().map(ck_err).unwrap_or(SolverError::Checkpoint {
            msg: "checkpoint restore failed on a peer rank".into(),
        })),
    }
}

/// Agree (one min-reduce of `[s, -s]`, which yields both the min and the
/// max) on the capture round of the snapshots about to serve a restore.
/// Ranks without a valid snapshot pass `None` and contribute neutrally.
/// `Some(step)` only when every contributed step is the same one.
fn agree_capture_round(rank: &mut Rank, my_step: Option<u64>) -> Option<u64> {
    let contrib = match my_step {
        Some(s) => [s as f64, -(s as f64)],
        None => [f64::INFINITY, f64::INFINITY],
    };
    let steps = rank.allreduce(&contrib, f64::min);
    (steps[0].is_finite() && steps[0] == -steps[1]).then_some(steps[0] as u64)
}

/// Wire format of a snapshot shipped between buddies (data-class tags,
/// so the payload rides the reliable path; integrity is the snapshot's
/// own end-to-end FNV stamp): `[len_bytes, fnv_hi32, fnv_lo32, step,
/// time, word0, word1, ...]` with the byte buffer packed little-endian
/// into f64 bit patterns, 8 bytes per word.
fn pack_snapshot_msg(snap: &MemorySnapshot) -> Vec<f64> {
    let bytes = snap.bytes();
    let nwords = bytes.len().div_ceil(8);
    let mut msg = Vec::with_capacity(5 + nwords);
    msg.push(bytes.len() as f64);
    msg.push((snap.fnv() >> 32) as f64);
    msg.push((snap.fnv() & 0xffff_ffff) as f64);
    msg.push(snap.step as f64);
    msg.push(snap.time);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        msg.push(f64::from_bits(u64::from_le_bytes(w)));
    }
    msg
}

/// Inverse of [`pack_snapshot_msg`]. The rebuilt snapshot carries the
/// *sender's* stamp, so any damage in flight or in the replica buffer is
/// caught by [`MemorySnapshot::verify`] at scrub or restore time.
fn unpack_snapshot_msg(msg: &[f64]) -> Result<MemorySnapshot, SolverError> {
    let bad = |why: &str| SolverError::Checkpoint {
        msg: format!("malformed buddy snapshot message: {why}"),
    };
    if msg.len() < 5 {
        return Err(bad("truncated header"));
    }
    let len = msg[0] as usize;
    let fnv = ((msg[1] as u64) << 32) | (msg[2] as u64);
    let step = msg[3] as u64;
    let time = msg[4];
    if msg.len() != 5 + len.div_ceil(8) {
        return Err(bad("payload length mismatch"));
    }
    let mut bytes = Vec::with_capacity(len);
    for w in &msg[5..] {
        bytes.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    bytes.truncate(len);
    Ok(MemorySnapshot::from_parts(step, time, bytes, fnv))
}

/// The in-memory checkpoint tiers one rank holds: its own L1 snapshot
/// and (optionally) the L2 replica it guards for its *ward*. Pairing is
/// a fixed ring: block `b` ships its snapshot to guardian
/// `(b + offset) % n` and guards the ward `(b + n - offset) % n`, so one
/// dead or rotted rank never takes both copies of any block with it
/// (for `0 < offset < n`). Offset 0 keeps the L1 tier alone.
pub(crate) struct MemoryTiers {
    /// Buddy pairing stride, reduced mod the block count where used.
    offset: usize,
    /// This rank's own snapshot.
    local: Option<MemorySnapshot>,
    /// `(ward_block, replica)` — the partner snapshot this rank guards.
    replica: Option<(usize, MemorySnapshot)>,
    metrics: Option<Arc<Registry>>,
}

impl MemoryTiers {
    /// Empty tiers. The store books its own counters in `metrics` — saves
    /// as `ckp.save.{local,buddy}`, the restores and replica-served
    /// shrinks it serves as `ckp.tier.{local,buddy}.restore` /
    /// `ckp.tier.buddy.shrink`, and `sdc.*`; the stats are the tier
    /// stack's, fed from the return values.
    pub(crate) fn new(offset: usize, metrics: Option<Arc<Registry>>) -> Self {
        MemoryTiers {
            offset,
            local: None,
            replica: None,
            metrics,
        }
    }

    /// Apply injected rot to a frozen buffer of `tier`. A probe is a
    /// stateful draw: call it exactly where a buffer of that tier was
    /// just installed, or every seeded fault schedule shifts.
    fn rot(&self, rank: &Rank, tier: SnapshotTarget, snap: &mut MemorySnapshot) {
        let flip = rank
            .fault_injector()
            .and_then(|inj| inj.should_flip_snapshot_bit(tier));
        if let Some(sel) = flip {
            snap.flip_bit(sel);
            let which = if tier == SnapshotTarget::Buddy {
                1.0
            } else {
                0.0
            };
            rank.trace_instant("tiers.snapshot_rot_injected", which);
        }
    }

    /// Freeze `bytes` (a serialized checkpoint of block `me` taken at
    /// `(step, time)`) as the L1 snapshot: ship the *clean* copy to the
    /// guardian and receive the ward's in return (both on the reliable
    /// data-class [`BUDDY_CKP_TAG`]; sends are asynchronous, so the
    /// symmetric send-then-recv cannot deadlock), *then* apply any
    /// injected rot — so rot in the local tier never contaminates the
    /// replica — and install both tiers. Returns whether a buddy exchange
    /// took place.
    pub(crate) fn refresh(
        &mut self,
        rank: &mut Rank,
        comm_ranks: &[usize],
        me: usize,
        step: u64,
        time: f64,
        bytes: Vec<u8>,
    ) -> Result<bool, SolverError> {
        let mut snap = MemorySnapshot::new(step, time, bytes);
        count(self.metrics.as_deref(), "ckp.save.local", 1);
        let n = comm_ranks.len();
        let offset = self.offset % n;
        let arrived = if offset != 0 {
            let guardian = (me + offset) % n;
            let ward = (me + n - offset) % n;
            rank.send_vec(
                comm_ranks[guardian],
                BUDDY_CKP_TAG,
                pack_snapshot_msg(&snap),
            );
            let raw = rank
                .recv_deadline(comm_ranks[ward], BUDDY_CKP_TAG)
                .map_err(comm_err)?;
            Some((ward, unpack_snapshot_msg(&raw)?))
        } else {
            None
        };
        self.rot(rank, SnapshotTarget::Local, &mut snap);
        self.local = Some(snap);
        let Some((ward, mut rep)) = arrived else {
            return Ok(false);
        };
        self.rot(rank, SnapshotTarget::Buddy, &mut rep);
        count(self.metrics.as_deref(), "ckp.save.buddy", 1);
        self.replica = Some((ward, rep));
        Ok(true)
    }

    /// Verify the frozen tiers against their stamped FNV hashes,
    /// dropping any snapshot whose bits have rotted so a later restore
    /// never trusts it (it would fail its own verify anyway — scrubbing
    /// just finds out *early*, while the disk tier is still fresh).
    /// Returns how many were dropped.
    pub(crate) fn scrub(&mut self, rank: &Rank) -> u64 {
        count(self.metrics.as_deref(), "sdc.scrubs", 1);
        let mut rotted = 0;
        if self.local.as_ref().is_some_and(|s| !s.verify()) {
            self.local = None;
            rotted += 1;
            rank.trace_instant("tiers.snapshot_rot_detected", 0.0);
        }
        if self.replica.as_ref().is_some_and(|(_, r)| !r.verify()) {
            self.replica = None;
            rotted += 1;
            rank.trace_instant("tiers.snapshot_rot_detected", 1.0);
        }
        if rotted > 0 {
            count(self.metrics.as_deref(), "sdc.snapshot_rot", rotted);
        }
        rotted
    }

    /// Verify both tiers and agree (max-reduce) on who still holds a
    /// valid copy of which of the `n` blocks: `[own_ok(n), rep_ok(n)]`,
    /// where the guardian speaks for its ward's replica slot. Returns
    /// this rank's `(own_ok, rep_ok)` and the agreed flags.
    fn coverage(&self, rank: &mut Rank, n: usize, me: usize) -> (bool, bool, Vec<f64>) {
        let own_ok = self.local.as_ref().is_some_and(|s| s.verify());
        let rep_ok = self.replica.as_ref().is_some_and(|(_, r)| r.verify());
        let mut flags = vec![0.0; 2 * n];
        if own_ok {
            flags[me] = 1.0;
        }
        if let Some((ward, _)) = &self.replica {
            if rep_ok {
                flags[n + ward] = 1.0;
            }
        }
        (own_ok, rep_ok, rank.allreduce(&flags, f64::max))
    }

    /// Collective fetch for a restore (L1 local, then L2 buddy). Every
    /// block must be covered by a valid copy of one common capture round,
    /// no older than step `floor`; a guardian ships its replica (on
    /// [`BUDDY_RESTORE_TAG`]) to a ward whose own copy died; each rank
    /// decodes its verified snapshot, and nobody gets an image unless
    /// every rank decoded — the caller commits only then, because a
    /// half-restored universe is worse than falling through to disk with
    /// clean state. `Ok(None)` when memory cannot serve a consistent
    /// global state of that age. On success also returns whether the
    /// image came from the buddy replica.
    pub(crate) fn fetch(
        &self,
        rank: &mut Rank,
        comm_ranks: &[usize],
        me: usize,
        floor: u64,
    ) -> Result<Option<(GlobalCheckpoint, bool)>, SolverError> {
        let n = comm_ranks.len();
        let (own_ok, rep_ok, flags) = self.coverage(rank, n, me);
        let covered = (0..n).all(|b| flags[b] > 0.5 || flags[n + b] > 0.5);
        let my_step = match (&self.local, &self.replica) {
            (Some(s), _) if own_ok => Some(s.step),
            (_, Some((_, r))) if rep_ok => Some(r.step),
            _ => None,
        };
        let (true, Some(round)) = (covered, agree_capture_round(rank, my_step)) else {
            return Ok(None);
        };
        if let Some((ward, rep)) = &self.replica {
            if rep_ok && flags[*ward] < 0.5 {
                rank.send_vec(comm_ranks[*ward], BUDDY_RESTORE_TAG, pack_snapshot_msg(rep));
            }
        }
        let shipped;
        let snap = match &self.local {
            Some(own) if own_ok => own,
            _ => {
                let guardian = (me + self.offset) % n;
                let raw = rank
                    .recv_deadline(comm_ranks[guardian], BUDDY_RESTORE_TAG)
                    .map_err(comm_err)?;
                shipped = unpack_snapshot_msg(&raw)?;
                &shipped
            }
        };
        // A rank's own floor enters the agreement below: one rank that
        // holds a newer disk image sends every rank there.
        let decoded = ((own_ok || snap.verify()) && snap.step == round && round >= floor)
            .then(|| decode_trusted(snap.bytes()).ok())
            .flatten();
        let all_ok = rank.allreduce_min(if decoded.is_some() { 1.0 } else { 0.0 }) > 0.5;
        let Some(value) = decoded.filter(|_| all_ok) else {
            return Ok(None);
        };
        let served = if own_ok {
            "ckp.tier.local.restore"
        } else {
            "ckp.tier.buddy.restore"
        };
        count(self.metrics.as_deref(), served, 1);
        Ok(Some((value, !own_ok)))
    }

    /// Collective gather for a shrinking recovery, with the lost blocks
    /// served from buddy replicas — no disk involved. Runs among the
    /// survivors in the *old* block space (`comm_ranks` still names the
    /// dead): they agree that every live block has its own snapshot and
    /// every dead one a live guardian with a valid replica, all of one
    /// capture round; ship those snapshots (on [`BUDDY_SHRINK_TAG`]) to
    /// the first survivor, which folds them into one image of the old
    /// grid ([`merge_blocks`]); and get that back, each decoding it.
    /// `Ok(None)` — nothing changed anywhere — when the replicas cannot
    /// cover every dead block or some rank could not decode, so the
    /// caller falls back to the disk shrink path.
    pub(crate) fn gather_for_shrink(
        &self,
        rank: &mut Rank,
        comm_ranks: &[usize],
        me: usize,
    ) -> Result<Option<GlobalCheckpoint>, SolverError> {
        let n = comm_ranks.len();
        let offset = self.offset % n;
        if offset == 0 {
            return Ok(None);
        }
        let live = rank.live_ranks().to_vec();
        let alive = |b: usize| live.contains(&comm_ranks[b]);
        let (own_ok, rep_ok, flags) = self.coverage(rank, n, me);
        let covered = (0..n).all(|b| flags[if alive(b) { b } else { n + b }] > 0.5);
        let own = self.local.as_ref().filter(|_| own_ok);
        let (true, Some(round)) = (covered, agree_capture_round(rank, own.map(|s| s.step))) else {
            return Ok(None);
        };
        // Every survivor ships its own block, then (if its ward died) the
        // ward's replica — a deterministic per-sender order, so the root
        // can receive by walking the old block list.
        let root = live[0];
        let dead_ward = self
            .replica
            .as_ref()
            .filter(|(w, _)| !alive(*w) && rep_ok)
            .map(|(_, r)| r);
        let merged_msg = if rank.rank() != root {
            for snap in own.into_iter().chain(dead_ward) {
                rank.send_vec(root, BUDDY_SHRINK_TAG, pack_snapshot_msg(snap));
            }
            rank.recv_deadline(root, BUDDY_SHRINK_TAG)
                .map_err(comm_err)?
        } else {
            // The root knows exactly which snapshots each survivor holds
            // (the coverage flags are global state), so the receive
            // pattern is deterministic: per sender, own block first, dead
            // ward second.
            let mut received = Vec::new();
            for b in (0..n).filter(|&b| alive(b) && comm_ranks[b] != root) {
                let ward = (b + n - offset) % n;
                let guards_dead_ward = !alive(ward) && flags[n + ward] > 0.5;
                for _ in 0..1 + guards_dead_ward as usize {
                    let raw = rank
                        .recv_deadline(comm_ranks[b], BUDDY_SHRINK_TAG)
                        .map_err(comm_err)?;
                    received.push(unpack_snapshot_msg(&raw)?);
                }
            }
            let parts: Vec<&[u8]> = (own.into_iter().chain(dead_ward))
                .chain(received.iter().filter(|s| s.verify()))
                .map(|s| s.bytes())
                .collect();
            let time = self.local.as_ref().map_or(f64::INFINITY, |s| s.time);
            let merged = MemorySnapshot::new(round, time, merge_blocks(round, time, &parts));
            let msg = pack_snapshot_msg(&merged);
            for &r in live.iter().filter(|&&r| r != root) {
                rank.send(r, BUDDY_SHRINK_TAG, &msg);
            }
            msg
        };
        let merged = unpack_snapshot_msg(&merged_msg)?;
        let decoded = merged
            .verify()
            .then(|| decode_trusted(merged.bytes()).ok())
            .flatten();
        let all_ok = rank.allreduce_min(if decoded.is_some() { 1.0 } else { 0.0 }) > 0.5;
        let Some(value) = decoded.filter(|_| all_ok) else {
            return Ok(None);
        };
        count(self.metrics.as_deref(), "ckp.tier.buddy.shrink", 1);
        Ok(Some(value))
    }
}

/// Fold single-block images of one capture round into one image at
/// `(round, time)`: every block once, in id order, on the grid the parts
/// name. Empty (no image) when no part decodes.
fn merge_blocks(round: u64, time: f64, parts: &[&[u8]]) -> Vec<u8> {
    let images: Vec<GlobalCheckpoint> = parts
        .iter()
        .filter_map(|bytes| decode_trusted(bytes).ok())
        .collect();
    let Some((global_n, ncomp)) = images.first().map(|g| (g.global_n, g.ncomp)) else {
        return Vec::new();
    };
    let mut blocks: Vec<BlockRecord> = images.into_iter().flat_map(|g| g.blocks).collect();
    blocks.sort_by_key(|r| r.id);
    blocks.dedup_by_key(|r| r.id);
    encode_trusted(&GlobalCheckpoint {
        time,
        step: round,
        global_n,
        ncomp,
        blocks,
    })
}

/// A driver's state as the [`TierStack`] sees it: how it becomes an image
/// and how an image becomes it again.
pub(crate) trait Tiered {
    /// Whether each rank's image is the whole state (distributed AMR's
    /// replicated hierarchy) rather than its own block. A whole image
    /// needs no buddy — every rank already holds every block — and it
    /// outlives a shrink: the survivors' copies still describe the whole
    /// state, so a shrink is served like a restore and the memory tier is
    /// not re-seeded.
    const WHOLE: bool;

    /// The memory tier's block space: block `b` lives on communicator rank
    /// `blocks[b]`, and this rank is block `me`.
    fn blocks(&self, rank: &Rank) -> Result<(Cow<'_, [usize]>, usize), SolverError>;

    /// The state at `(t, step)`, collectively: see [`Capture`].
    fn capture(&mut self, rank: &mut Rank, at: (f64, u64), disk: bool, memory: bool) -> Capture;

    /// Make `img` the state over the current live ranks (re-cut onto them
    /// after a shrink). Returns the image's `(t, step)`.
    fn install(&mut self, rank: &Rank, img: GlobalCheckpoint) -> Result<(f64, u64), SolverError>;
}

/// A capture: when the disk tier asked, its image on the rank that writes
/// it (`None` on the others) or why the gather that builds it failed —
/// which takes the memory bytes with it when one gather serves both
/// tiers; and when the memory tier asked, its bytes (an image encoded by
/// [`encode_trusted`]).
pub(crate) type Capture = (
    Result<Option<GlobalCheckpoint>, SolverError>,
    Option<Vec<u8>>,
);

/// One rank's tier stack for one ladder run: the disk slots and the memory
/// tiers that the [`ResilienceConfig`] asks for, and the tier half of the
/// run's ledger.
pub(crate) struct TierStack<'a> {
    res: &'a ResilienceConfig,
    /// Where the disk slots go, until [`TierStack::arm`] creates them.
    dir: Option<PathBuf>,
    /// The disk tier: one rotating slot pair of the rank-count-independent
    /// image — the first live rank writes, every rank reads.
    slots: Option<CheckpointSlots>,
    /// The step of the newest image the disk slots hold, as this rank
    /// knows it: its last disk save that succeeded, or the image a disk
    /// restore installed.
    disk_step: u64,
    memory: Option<MemoryTiers>,
    metrics: Option<Arc<Registry>>,
    /// The run's ledger: the stack books the tiers into it, the ladder its
    /// rungs and the driver its own detections.
    pub(crate) stats: ResilienceStats,
}

impl<'a> TierStack<'a> {
    /// An unarmed stack whose disk slots, if any, go in `dir`.
    pub(crate) fn new(
        res: &'a ResilienceConfig,
        dir: Option<PathBuf>,
        metrics: Option<Arc<Registry>>,
    ) -> Self {
        TierStack {
            res,
            dir,
            slots: None,
            disk_step: 0,
            memory: None,
            metrics,
            stats: ResilienceStats::default(),
        }
    }

    /// End the phase begun at `sw` as histogram and trace span `name`.
    fn pend(&self, rank: &Rank, name: &'static str, sw: PhaseStart) {
        phase_end(self.metrics.as_deref(), name, rank, sw);
    }

    /// Create the disk slots and the memory tiers, and save the state at
    /// `at` to both, so that a restore target exists from the first step.
    pub(crate) fn arm<S: Tiered>(&mut self, s: &mut S, rank: &mut Rank, at: (f64, u64)) -> Res {
        if let Some(dir) = self.dir.take() {
            self.slots = Some(CheckpointSlots::new(dir).map_err(ck_err)?);
        }
        self.reset_memory::<S>();
        self.save(s, rank, at, true, true)
    }

    /// Fresh (empty) memory tiers, if snapshots are frozen at all.
    fn reset_memory<S: Tiered>(&mut self) {
        let offset = if S::WHOLE { 0 } else { self.res.buddy_offset };
        self.memory =
            (self.res.local_interval > 0).then(|| MemoryTiers::new(offset, self.metrics.clone()));
    }

    /// The cadenced saves after a commit at `at`: the disk tier every
    /// `checkpoint_interval` steps, the memory tier every `local_interval`.
    pub(crate) fn commit<S: Tiered>(&mut self, s: &mut S, rank: &mut Rank, at: (f64, u64)) -> Res {
        let due = |every: usize| every > 0 && at.1.is_multiple_of(every as u64);
        let disk = due(self.res.checkpoint_interval);
        self.save(s, rank, at, disk, due(self.res.local_interval))
    }

    /// Save the state at `at` to the armed tiers among those asked for,
    /// from one capture.
    fn save<S: Tiered>(
        &mut self,
        s: &mut S,
        rank: &mut Rank,
        at: (f64, u64),
        disk: bool,
        memory: bool,
    ) -> Res {
        let disk = disk && self.slots.is_some();
        let memory = memory && self.memory.is_some();
        if !disk && !memory {
            return Ok(());
        }
        let mut sw = phase_start(self.metrics.as_deref(), rank);
        let (image, bytes) = s.capture(rank, at, disk, memory);
        let written = image.and_then(|img| match (img, &self.slots) {
            (Some(img), Some(slots)) => slots.save(&img).map_err(ck_err),
            _ => Ok(()),
        });
        if disk && written.is_ok() {
            self.pend(rank, "phase.ckp.save", sw);
            sw = phase_start(self.metrics.as_deref(), rank);
            self.stats.checkpoints_saved += 1;
            self.disk_step = at.1;
            count(self.metrics.as_deref(), "ckp.save.disk", 1);
        }
        self.settle(written)?;
        let (Some(bytes), Some(tiers)) = (bytes, &mut self.memory) else {
            return Ok(());
        };
        self.stats.local_snapshots += 1;
        let (blocks, me) = s.blocks(rank)?;
        let swapped = tiers.refresh(rank, &blocks, me, at.1, at.0, bytes);
        self.stats.buddy_exchanges += u64::from(matches!(swapped, Ok(true)));
        self.pend(rank, "phase.ckp.memory", sw);
        self.settle(swapped.map(drop))
    }

    /// The failure rule of a save. A peer that died mid-save leaves its
    /// suspicion latched in the communicator, and the next agreement round
    /// routes it into the consensus rung, so the save passes. A damaged
    /// gather (only distributed AMR's rides a halo-class tag) skips the
    /// save: the tiers keep their older round, which a restore's
    /// capture-round agreement allows for. Anything else ends the run.
    fn settle(&self, saved: Res) -> Res {
        match saved {
            Err(SolverError::HaloCorrupt { .. } | SolverError::HaloMismatch { .. }) => {
                count(self.metrics.as_deref(), "amr.dist.saves_skipped", 1)
            }
            Err(e) if !matches!(e, SolverError::PeerSuspect { .. }) => return Err(e),
            _ => {}
        }
        Ok(())
    }

    /// Scrub the frozen memory tier when `step` is on the scrub cadence.
    /// Each driver calls it at its own point of the step.
    pub(crate) fn scrub(&mut self, rank: &Rank, step: u64) {
        let every = self.res.scrub_interval as u64;
        let due = every > 0 && step.is_multiple_of(every);
        if let (true, Some(tiers)) = (due, &mut self.memory) {
            self.stats.scrubs += 1;
            self.stats.snapshots_rotted += tiers.scrub(rank);
        }
    }

    /// Collective restore from the cheapest tier that can serve the newest
    /// globally consistent state: memory (the own snapshot, else a buddy's
    /// replica — [`MemoryTiers::fetch`]) when its round is no older than
    /// the disk's newest image, else the disk. With cadences that do not
    /// nest, memory can lag the disk, and serving it would roll back
    /// further than the disk does. Returns the restored `(t, step)`.
    pub(crate) fn restore<S: Tiered>(&mut self, s: &mut S, rank: &mut Rank) -> Res<(f64, u64)> {
        if let Some(tiers) = &self.memory {
            let sw = phase_start(self.metrics.as_deref(), rank);
            let (blocks, me) = s.blocks(rank)?;
            let fetched = tiers.fetch(rank, &blocks, me, self.disk_step)?;
            self.pend(rank, "driver.tier_restore.memory", sw);
            if let Some((img, from_buddy)) = fetched {
                let restored = s.install(rank, img)?;
                self.stats.buddy_restores += u64::from(from_buddy);
                self.stats.local_restores += u64::from(!from_buddy);
                return Ok(restored);
            }
        }
        self.restore_disk(s, rank)
    }

    /// The disk tier, for a restore and a shrink alike: every rank loads
    /// the newest slot all of them could read and installs it. The
    /// filesystem is shared (ranks are threads), so nothing is shipped.
    fn restore_disk<S: Tiered>(&mut self, s: &mut S, rank: &mut Rank) -> Res<(f64, u64)> {
        let sw = phase_start(self.metrics.as_deref(), rank);
        let slots = self.slots.as_ref().ok_or_else(|| SolverError::Checkpoint {
            msg: "no memory tier could serve and no checkpoint directory is \
                  configured for the disk tier"
                .into(),
        })?;
        let (img, fell_back) = load_newest_agreed(rank, slots)?;
        let restored = s.install(rank, img)?;
        self.disk_step = restored.1;
        self.stats.disk_restores += 1;
        self.stats.ckpt_fallbacks += u64::from(fell_back);
        count(self.metrics.as_deref(), "ckp.tier.disk.restore", 1);
        self.pend(rank, "driver.tier_restore.disk", sw);
        Ok(restored)
    }

    /// A confirmed death: restore onto the live ranks. Cheapest first, the
    /// dead blocks come from their guardians' replicas
    /// ([`MemoryTiers::gather_for_shrink`]). Failing that, a whole image is
    /// served like a restore; a part image from disk alone, since the
    /// survivors' snapshots belong to the old cut. A part image then
    /// re-seeds the memory tier on the new cut, so its rungs stay armed.
    /// Returns the restored `(t, step)`.
    pub(crate) fn shrink<S: Tiered>(&mut self, s: &mut S, rank: &mut Rank) -> Res<(f64, u64)> {
        let (blocks, me) = s.blocks(rank)?;
        let merged = match &self.memory {
            Some(tiers) => tiers.gather_for_shrink(rank, &blocks, me)?,
            None => None,
        };
        let at = match merged {
            Some(img) => {
                let at = s.install(rank, img)?;
                self.stats.buddy_shrinks += 1;
                at
            }
            None if S::WHOLE => return self.restore(s, rank),
            None => self.restore_disk(s, rank)?,
        };
        if self.memory.is_some() {
            self.reset_memory::<S>();
            self.save(s, rank, at, false, true)?;
        }
        Ok(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> MemorySnapshot {
        let bytes = (0..len).map(|i| (i * 37 + 11) as u8).collect();
        MemorySnapshot::new(41, 0.625, bytes)
    }

    #[test]
    fn snapshot_wire_roundtrips() {
        for len in [0, 1, 7, 8, 9, 880] {
            let snap = sample(len);
            assert_eq!(
                unpack_snapshot_msg(&pack_snapshot_msg(&snap)).unwrap(),
                snap
            );
        }
    }

    #[test]
    fn every_truncation_of_the_wire_image_is_an_error() {
        let msg = pack_snapshot_msg(&sample(203));
        for len in 0..msg.len() {
            assert!(
                unpack_snapshot_msg(&msg[..len]).is_err(),
                "prefix of {len}/{} words accepted",
                msg.len()
            );
        }
    }

    /// No change to one word can make the receiver restore a checkpoint
    /// that was not sent. The message is refused; or the snapshot fails
    /// its `verify`; or the bytes no longer parse — the stamp zero-pads
    /// its last word, so a length that moves by less than a word over
    /// zero bytes slips past it, and it is the envelope's size and
    /// trailing-bytes checks, in force even in a trusted decode, that
    /// refuse the image; or the change is invisible to the content (the
    /// fraction of a header count, or the `step`/`time` words, which ride
    /// outside the stamp: a restore checks the step against the agreed
    /// capture round and takes the time from the decoded checkpoint) and
    /// bytes and stamp are exactly the sender's.
    #[test]
    fn no_single_word_change_yields_a_different_checkpoint() {
        use rhrsc_io::checkpoint::{decode_trusted, encode_trusted, AmrCheckpoint, AmrPatchRecord};
        let img = AmrCheckpoint {
            time: 0.625,
            step: 41,
            n0: 16,
            ncomp: 2,
            patches: vec![AmrPatchRecord {
                level: 0,
                lo: 0,
                n: 16,
                data: (0..32).map(|i| 1.5 + i as f64).collect(),
            }],
        }
        .into_image();
        let sent = MemorySnapshot::new(img.step, img.time, encode_trusted(&img));
        // An image is a whole number of 8-byte words (its 4-byte fields
        // come in pairs: version and CRC, each record's id and level), so
        // the message's last word carries no padding.
        assert_eq!(sent.len() % 8, 0, "an image fills whole words");
        let msg = pack_snapshot_msg(&sent);
        let mutations: [fn(f64) -> f64; 6] = [
            |w| f64::from_bits(w.to_bits() ^ 1),
            |w| f64::from_bits(w.to_bits() ^ (1 << 40)),
            |w| w + 1.0,
            |w| w - 1.0,
            |_| f64::NAN,
            |_| -1.0,
        ];
        for at in 0..msg.len() {
            for (m, mutate) in mutations.iter().enumerate() {
                let mut bad = msg.clone();
                bad[at] = mutate(bad[at]);
                if bad[at].to_bits() == msg[at].to_bits() {
                    continue;
                }
                let Ok(got) = unpack_snapshot_msg(&bad) else {
                    continue;
                };
                let same = got.bytes() == sent.bytes() && got.fnv() == sent.fnv();
                let refused = !got.verify() || decode_trusted(got.bytes()).is_err();
                assert!(
                    same || refused,
                    "word {at}, mutation {m}: a foreign checkpoint was accepted"
                );
                // Past the header every bit is stamped.
                if (5..msg.len()).contains(&at) {
                    assert!(!got.verify(), "word {at}, mutation {m}");
                }
            }
        }
    }
}
