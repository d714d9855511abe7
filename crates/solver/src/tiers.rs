//! The storage the recovery ladder climbs on: the diskless checkpoint
//! tiers and the collective preludes of a disk restore.
//!
//! [`MemoryTiers`] is one rank's share of the FTI/SCR-style memory
//! hierarchy — its own frozen snapshot (L1) and, when a buddy offset is
//! set, the replica it guards for a partner (L2) — together with every
//! protocol that moves or trusts those buffers: the buddy exchange at
//! capture time, injected rot and the scrub that finds it, the collective
//! fetch that decides whether memory can serve a restore, and the gather
//! that rebuilds dead ranks' blocks from their guardians' replicas. The
//! store never looks inside a snapshot: what the bytes mean (a
//! single-block v3 checkpoint for the block driver, a full v4 hierarchy
//! for distributed AMR) is the caller's, passed in as a decode closure.
//! Both ladders ([`crate::driver`], [`crate::amr_dist`]) run on it; the
//! AMR one with buddy offset 0, because its snapshot is the allgathered
//! hierarchy and already sits on every rank.
//!
//! Every method that communicates is collective over the ranks in
//! `comm_ranks` — block `b` of the current decomposition lives on
//! communicator rank `comm_ranks[b]`, and `me` is the caller's block —
//! and every branch is taken on an agreed value, so all ranks walk the
//! same path.

use crate::driver::comm_err;
use crate::scheme::SolverError;
use rhrsc_comm::{FaultInjector, Rank, BUDDY_CKP_TAG, BUDDY_RESTORE_TAG, BUDDY_SHRINK_TAG};
use rhrsc_io::checkpoint::{CheckpointError, CheckpointFormat, CheckpointSlots};
use rhrsc_io::snapshot::MemorySnapshot;
use rhrsc_runtime::fault::SnapshotTarget;
use rhrsc_runtime::metrics::Registry;
use std::sync::Arc;

pub(crate) fn ck_err(e: CheckpointError) -> SolverError {
    SolverError::Checkpoint { msg: e.to_string() }
}

/// The disk tier's prelude: every rank loads the newest readable slot
/// (falling back past a torn `latest`) and all agree that everyone
/// succeeded, so a one-rank I/O failure cannot desynchronize the tiers.
/// Returns the checkpoint and whether the `prev` slot served it.
pub(crate) fn load_newest_agreed<R: CheckpointFormat>(
    rank: &mut Rank,
    slots: &CheckpointSlots,
) -> Result<(R, bool), SolverError> {
    let loaded = slots.load_newest::<R>();
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
    /// Buddy pairing stride (already reduced mod the block count).
    offset: usize,
    /// This rank's own snapshot.
    local: Option<MemorySnapshot>,
    /// `(ward_block, replica)` — the partner snapshot this rank guards.
    replica: Option<(usize, MemorySnapshot)>,
    injector: Option<Arc<FaultInjector>>,
    metrics: Option<Arc<Registry>>,
}

impl MemoryTiers {
    /// Empty tiers over `nblocks` blocks. The store books its own
    /// counters in `metrics` — saves as `ckp.save.{local,buddy}`, the
    /// restores and replica-served shrinks it serves as
    /// `ckp.tier.{local,buddy}.restore` / `ckp.tier.buddy.shrink`, and
    /// `sdc.*`; the stats are the callers', fed from the return values.
    pub(crate) fn new(
        offset: usize,
        nblocks: usize,
        injector: Option<Arc<FaultInjector>>,
        metrics: Option<Arc<Registry>>,
    ) -> Self {
        MemoryTiers {
            offset: if nblocks > 1 { offset % nblocks } else { 0 },
            local: None,
            replica: None,
            injector,
            metrics,
        }
    }

    fn count(&self, name: &str, n: u64) {
        if let Some(m) = &self.metrics {
            m.counter(name).add(n);
        }
    }

    /// Apply injected rot to a frozen buffer of `tier`. A probe is a
    /// stateful draw: call it exactly where a buffer of that tier was
    /// just installed, or every seeded fault schedule shifts.
    fn rot(&self, rank: &Rank, tier: SnapshotTarget, snap: &mut MemorySnapshot) {
        let flip = self
            .injector
            .as_ref()
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
        self.count("ckp.save.local", 1);
        let n = comm_ranks.len();
        let arrived = if self.offset != 0 {
            let guardian = (me + self.offset) % n;
            let ward = (me + n - self.offset) % n;
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
        self.count("ckp.save.buddy", 1);
        self.replica = Some((ward, rep));
        Ok(true)
    }

    /// Verify the frozen tiers against their stamped FNV hashes,
    /// dropping any snapshot whose bits have rotted so a later restore
    /// never trusts it (it would fail its own verify anyway — scrubbing
    /// just finds out *early*, while the disk tier is still fresh).
    /// Returns how many were dropped.
    pub(crate) fn scrub(&mut self, rank: &Rank) -> u64 {
        self.count("sdc.scrubs", 1);
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
            self.count("sdc.snapshot_rot", rotted);
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
    /// block must be covered by a valid copy of one common capture round;
    /// a guardian ships its replica (on [`BUDDY_RESTORE_TAG`]) to a ward
    /// whose own copy died; each rank runs `decode` on its verified
    /// snapshot, and nobody gets a value unless every rank decoded — the
    /// caller commits only then, because a half-restored universe is
    /// worse than falling through to disk with clean state. `Ok(None)`
    /// when memory cannot serve a consistent global state. On success
    /// also returns whether the value came from the buddy replica.
    pub(crate) fn fetch<T>(
        &self,
        rank: &mut Rank,
        comm_ranks: &[usize],
        me: usize,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Result<Option<(T, bool)>, SolverError> {
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
        let decoded = ((own_ok || snap.verify()) && snap.step == round)
            .then(|| decode(snap.bytes()))
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
        self.count(served, 1);
        Ok(Some((value, !own_ok)))
    }

    /// Collective gather for a shrinking recovery, with the lost blocks
    /// served from buddy replicas — no disk involved. Runs among the
    /// survivors in the *old* block space (`comm_ranks` still names the
    /// dead): they agree that every live block has its own snapshot and
    /// every dead one a live guardian with a valid replica, all of one
    /// capture round; ship those snapshots (on [`BUDDY_SHRINK_TAG`]) to
    /// the first survivor, whose `merge(round, time, snapshots)` folds
    /// them into one serialized checkpoint; and get that back, each
    /// running `decode` on it. `Ok(None)` — nothing changed anywhere —
    /// when the replicas cannot cover every dead block or some rank could
    /// not decode, so the caller falls back to the disk shrink path.
    pub(crate) fn gather_for_shrink<T>(
        &self,
        rank: &mut Rank,
        comm_ranks: &[usize],
        me: usize,
        merge: impl FnOnce(u64, f64, &[&[u8]]) -> Vec<u8>,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Result<Option<T>, SolverError> {
        let n = comm_ranks.len();
        if self.offset == 0 {
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
                let ward = (b + n - self.offset) % n;
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
            let merged = MemorySnapshot::new(round, time, merge(round, time, &parts));
            let msg = pack_snapshot_msg(&merged);
            for &r in live.iter().filter(|&&r| r != root) {
                rank.send(r, BUDDY_SHRINK_TAG, &msg);
            }
            msg
        };
        let merged = unpack_snapshot_msg(&merged_msg)?;
        let decoded = (merged.verify()).then(|| decode(merged.bytes())).flatten();
        let all_ok = rank.allreduce_min(if decoded.is_some() { 1.0 } else { 0.0 }) > 0.5;
        let Some(value) = decoded.filter(|_| all_ok) else {
            return Ok(None);
        };
        self.count("ckp.tier.buddy.shrink", 1);
        Ok(Some(value))
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
    /// fraction of a header count, padding behind the last byte, or the
    /// `step`/`time` words, which ride outside the stamp: a restore
    /// checks the step against the agreed capture round and takes the
    /// time from the decoded checkpoint) and bytes and stamp are exactly
    /// the sender's.
    #[test]
    fn no_single_word_change_yields_a_different_checkpoint() {
        use rhrsc_io::checkpoint::{decode_trusted, encode, AmrCheckpoint, AmrPatchRecord};
        let ckp = AmrCheckpoint {
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
        };
        let sent = MemorySnapshot::new(ckp.step, ckp.time, encode(&ckp));
        assert_ne!(sent.len() % 8, 0, "the last word must carry padding");
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
                let refused =
                    !got.verify() || decode_trusted::<AmrCheckpoint>(got.bytes()).is_err();
                assert!(
                    same || refused,
                    "word {at}, mutation {m}: a foreign checkpoint was accepted"
                );
                // Past the header every bit but the padding is stamped.
                if (5..msg.len() - 1).contains(&at) {
                    assert!(!got.verify(), "word {at}, mutation {m}");
                }
            }
        }
    }
}
