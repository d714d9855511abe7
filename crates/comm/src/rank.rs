//! Ranks, tagged messaging, collectives, and the liveness layer.
//!
//! Every universe runs on one clock: each rank's *virtual clock*, charged
//! with the measured wall time of its compute sections ([`Rank::work`])
//! and moved to the delivery time stamped on every message it receives.
//! A message takes one path: [`Rank::send_vec`] stamps it, one matching
//! loop (stash first, then the mailbox, under an optional virtual
//! deadline) finds it, one `settle` verifies its CRC and charges its
//! flight time to the clock; every collective is one binomial reduce +
//! broadcast `tree` over the live ranks built from those two.
//!
//! Beyond the basic MPI-like substrate, every rank carries a *liveness
//! layer* for rank-level failure tolerance:
//!
//! * a rank whose closure returns or unwinds posts a *tombstone* to every
//!   peer — an empty message carrying its virtual time of death, queued
//!   behind its last message — so a receive from it ends at once;
//! * [`Rank::recv_deadline`] decides suspicion on virtual timestamps: a
//!   message sent after the receiver's deadline is late (on a liveness
//!   clock that leaves out the modeled network cost),
//!   and the receive returns [`CommError::PeerSuspect`] instead of
//!   accepting it — the collective tree uses the same deadline internally;
//! * halo payloads carry a CRC-32 trailer; damage is detected at receive
//!   time (before any unpack) and repaired by a modeled link-level
//!   retransmit with bounded exponential backoff, escalating to the
//!   caller after [`NetworkModel::crc_retry_attempts`] attempts;
//! * [`Rank::suspicion_consensus`] turns per-rank suspicion bitmasks into
//!   a *confirmed dead set* shared by the responsive ranks, bumping the
//!   communication epoch so stale traffic from evicted ranks is dropped.
//!
//! The one wall-clock wait left is the hang guard: a receive that only a
//! timeout could end — every unfinished rank blocked on its mailbox —
//! fails the run with a diagnostic instead of hanging it.

use crossbeam_channel::{unbounded, Receiver, Sender};
use rhrsc_runtime::fault::{FaultInjector, FaultPlan, FaultStats};
use rhrsc_runtime::hash::crc32_f64s;
use rhrsc_runtime::metrics::{Counter, Histogram, Registry};
use rhrsc_runtime::trace::{Tracer, Track};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tags at or above this value are reserved for collectives.
const RESERVED_TAG_BASE: u64 = 1 << 62;

/// Tag of a tombstone: the empty last message of a finished rank, whose
/// delivery time is the rank's virtual time of death.
const TOMBSTONE: u64 = u64::MAX;

/// Virtual seconds a deadline-aware receive waits before it suspects the
/// peer; the collective tree and the consensus round scale it by depth.
/// Only a message sent later than this counts as late — a dead rank's
/// tombstone ends the wait at once — so it is long enough that compute
/// skew between healthy ranks never reaches it.
const SUSPECT_AFTER: f64 = 2.0;

/// The hang guard: a rank that has seen no mail for this long while every
/// unfinished rank of its universe is blocked on its mailbox, twice in a
/// row with nobody woken in between, is in a deadlock that no message can
/// end, and fails the run.
const HANG_GUARD: Duration = Duration::from_secs(1);

/// Fault injection applies only to tags below this limit (the halo-traffic
/// tag space). Collectives and gathers stay reliable: they carry control
/// decisions — Δt agreement, error coordination — whose loss the recovery
/// protocol itself depends on, mirroring how real resilience layers run
/// their control plane over a reliable transport.
const FAULT_TAG_LIMIT: u64 = 64;

/// Metric names of the tag classes, indexed by [`tag_class`].
const TAG_CLASSES: [&str; 3] = ["halo", "data", "collective"];

/// Classify a tag for metrics: halo traffic, point-to-point data (gathers,
/// restarts), or collectives (the reserved tag space).
fn tag_class(tag: u64) -> usize {
    if tag >= RESERVED_TAG_BASE {
        2
    } else if tag < FAULT_TAG_LIMIT {
        0
    } else {
        1
    }
}

/// Scalar agreement value signaling "a peer is suspected dead" (see
/// [`Rank::agree_max`]); ordinary success/failure flags use 0.0/1.0.
pub const SUSPECT_FLAG: f64 = 2.0;

/// Distributed-AMR tag blocks. The uniform block solver uses halo tags
/// `0..6`; the distributed AMR driver claims the rest of the
/// fault-injected halo tag space (`< 64`), one tag per refinement level
/// per exchange class, so that cross-rank prolongation, reflux-register,
/// and regrid traffic rides the same CRC-32 trailer + modeled-retransmit
/// path as block halos (a corrupted AMR message is detected and resent,
/// never silently accepted).
pub const AMR_DESCEND_TAG_BASE: u64 = 8;
/// First tag of the distributed-AMR reflux-register exchange block.
pub const AMR_REFLUX_TAG_BASE: u64 = 16;
/// First tag of the distributed-AMR sync-point exchange block.
pub const AMR_SYNC_TAG_BASE: u64 = 24;
/// Tag of the distributed-AMR regrid allgather (still halo class).
pub const AMR_REGRID_TAG: u64 = 32;

/// Diskless-checkpoint tag block. These carry frozen snapshot buffers
/// between buddy ranks and ride the *data* class (`>= 64`): the payloads
/// are FNV-stamped end to end by the snapshot layer itself, so the
/// halo-class CRC trailer + retransmit machinery would only duplicate
/// that armor (and fault-injected truncation of a checkpoint replica is a
/// scrub-layer concern, not a link-layer one).
///
/// Tag of the steady-state buddy replica exchange (each rank ships its
/// freshly captured local snapshot to its guardian).
pub const BUDDY_CKP_TAG: u64 = 1100;
/// Tag on which a guardian ships a replica back to a rank (or a shrink
/// root) that lost its own tiers.
pub const BUDDY_RESTORE_TAG: u64 = 1101;
/// Tag of the shrink-path replica collection and redistribution (buddy
/// restore of *dead* ranks' state onto the survivor decomposition).
pub const BUDDY_SHRINK_TAG: u64 = 1102;

/// Tag of the cadenced telemetry reduction: every rank's delta sample
/// rides to block rank 0 on this tag so a run carries one global time
/// series. Data class (reliable, never fault-injected): telemetry must
/// observe faults, not suffer them — and the point-to-point sends touch
/// neither the collective op counter nor the solver state, so arming
/// telemetry leaves the computed fields bit-identical.
pub const TELEMETRY_TAG: u64 = 1200;

/// Errors from the deadline-aware receive paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// The peer did not produce the expected message within the deadline
    /// and is now suspected dead (recorded in this rank's suspicion mask).
    PeerSuspect {
        /// The silent peer.
        rank: usize,
    },
    /// A halo payload failed its CRC-32 trailer even after the modeled
    /// link-level retransmits — the damage escalates to the caller.
    CorruptPayload {
        /// Sending rank.
        from: usize,
        /// Message tag.
        tag: u64,
    },
    /// A newer communication epoch was observed: the surviving ranks have
    /// shrunk the universe without this rank, which must now exit.
    Evicted {
        /// The epoch the survivors are on.
        epoch: u64,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerSuspect { rank } => {
                write!(f, "rank {rank} is suspected dead")
            }
            CommError::CorruptPayload { from, tag } => {
                write!(f, "corrupt payload from rank {from} tag {tag}")
            }
            CommError::Evicted { epoch } => {
                write!(f, "evicted: survivors advanced to epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Events of the liveness layer. Each is booked once, by
/// [`Rank::liveness`]: a `comm.liveness.*` counter when a registry is
/// attached and an instant on the flight recorder when a tracer is.
#[derive(Clone, Copy)]
enum Liveness {
    /// A receive deadline expired (peer suspected dead).
    Suspect,
    /// A suspicion retracted because the peer was heard from again.
    Retract,
    /// A modeled link-level retransmit of a CRC-damaged halo payload.
    CrcRetransmit,
    /// A payload still damaged after the bounded retransmits (escalated).
    CrcEscalation,
    /// A message dropped for carrying a stale (pre-shrink) epoch.
    StaleDrop,
    /// A peer promoted from suspected to confirmed dead by consensus.
    Evict,
}

/// `(counter, trace instant)` of each [`Liveness`] event, in enum order.
const LIVENESS_NAMES: [(&str, &str); 6] = [
    ("comm.liveness.suspicions", "liveness.suspect"),
    ("comm.liveness.false_positives", "liveness.retract"),
    ("comm.liveness.crc_retries", "liveness.crc_retransmit"),
    ("comm.liveness.crc_escalations", "liveness.crc_escalation"),
    ("comm.liveness.stale_dropped", "liveness.stale_drop"),
    ("comm.liveness.confirmed_dead", "liveness.evict"),
];

/// Metric handles of one rank. A handle is resolved on its first bump and
/// kept, so the per-message paths format no name and take no registry
/// lock, and a name still enters a snapshot only once it has been bumped.
struct CommMetrics {
    reg: Arc<Registry>,
    /// `comm.msgs.<class>`, by [`tag_class`].
    msgs: [Option<Arc<Counter>>; 3],
    /// `comm.bytes.<class>`.
    bytes: [Option<Arc<Counter>>; 3],
    /// `sub.comm.wait.<class>`.
    wait: [Option<Arc<Histogram>>; 3],
    /// `comm.liveness.*`, by [`Liveness`].
    liveness: [Option<Arc<Counter>>; 6],
}

/// Cost model of the simulated interconnect.
///
/// Every universe is a discrete-event simulation of a cluster on virtual
/// time: a message's cost is charged to its receiver's *virtual clock* as
/// a delivery timestamp, never waited out physically, and the wall time
/// of each compute section measured with [`Rank::work`] is charged as its
/// CPU time. That holds while every rank thread has a core of its own: a
/// universe that fits the host computes in parallel, and one with more
/// ranks than cores serializes its sections on a CPU token. A gang pool
/// inside a section (`gang_threads > 0`) falls outside this
/// one-thread-per-rank rule, so that section's charge is approximate;
/// the bytes do not depend on it. This is the mechanism behind the
/// scaling experiments on a machine with fewer cores than ranks (see
/// DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct NetworkModel {
    /// Per-message latency.
    pub latency: Duration,
    /// Link bandwidth in bytes/second (`f64::INFINITY` = free).
    pub bandwidth: f64,
    /// Modeled link-level retransmit attempts for a halo payload whose
    /// CRC-32 trailer fails at receive time (0 disables the retry tier:
    /// damage escalates to the caller immediately, the pre-liveness
    /// behavior).
    pub crc_retry_attempts: u32,
}

impl NetworkModel {
    /// An ideal (zero-cost) network: `virtual_cluster(0, ∞)`.
    pub fn ideal() -> Self {
        NetworkModel::virtual_cluster(Duration::ZERO, f64::INFINITY)
    }

    /// A network with the given latency and bandwidth.
    pub fn virtual_cluster(latency: Duration, bandwidth: f64) -> Self {
        NetworkModel {
            latency,
            bandwidth,
            crc_retry_attempts: 0,
        }
    }

    /// Enable the modeled link-level retransmit tier: CRC-damaged halo
    /// payloads are retried up to `attempts` times with exponential
    /// backoff before the damage escalates to the caller.
    pub fn with_crc_retries(mut self, attempts: u32) -> Self {
        self.crc_retry_attempts = attempts;
        self
    }

    /// Network cost of a message of `len` doubles, in seconds.
    fn cost_secs(&self, len: usize) -> f64 {
        let mut t = self.latency.as_secs_f64();
        if self.bandwidth.is_finite() && self.bandwidth > 0.0 {
            let bytes = (len * std::mem::size_of::<f64>()) as f64;
            t += bytes / self.bandwidth;
        }
        t
    }
}

struct Envelope {
    from: usize,
    tag: u64,
    data: Vec<f64>,
    /// When the message is due on the liveness clock (`Rank::vlive`): the
    /// sender's at send plus any injected delay. Lateness is judged on it.
    v_due: f64,
    /// Virtual delivery time: sender's virtual clock at send plus the
    /// modeled network cost and any injected delay. A tombstone's two
    /// stamps are the sender's clocks at death.
    v_deliver: f64,
    /// Sender's communication epoch (bumped by each shrink).
    epoch: u64,
    /// CRC-32 trailer over `data`; present on halo-tag payloads.
    crc: Option<u32>,
}

/// What the hang guard of one universe reads.
struct Census {
    /// Ranks neither blocked on their mailbox nor finished.
    running: AtomicUsize,
    /// Times a rank blocked on its mailbox has woken with mail.
    wakes: AtomicU64,
    /// Ranks finished so far; orders the panics `run` propagates.
    buried: AtomicUsize,
}

/// Binary CPU token of a virtual-time universe with more ranks than the
/// host has cores: each compute section runs holding the lock, one at a
/// time, so wall-clock measurements equal CPU time. The guard hands the
/// token on also while a panicking section unwinds (the lock does not
/// poison), so a dying rank cannot hang its peers. A universe with a
/// core per rank has no token — one thread per rank already gets that —
/// and computes in parallel.
type CpuToken = parking_lot::Mutex<()>;

/// The host's core count (`available_parallelism`, 1 if unknown), read
/// once per process: the query reads cgroup files and allocates. A
/// virtual-time universe of more ranks than this builds a CPU token.
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Per-rank communicator handle.
///
/// Methods take `&mut self`: each rank is single-threaded with respect to
/// communication, like an MPI rank.
pub struct Rank {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    model: NetworkModel,
    /// Arrived-but-unmatched messages (out-of-order tag matching).
    stash: Vec<Envelope>,
    /// Collective op counter (advances identically on every rank).
    op_counter: u64,
    /// Bytes sent, for communication-volume accounting.
    bytes_sent: u64,
    /// Virtual clock (seconds).
    vtime: f64,
    /// The virtual clock less every modeled network cost: compute, stalls
    /// and injected delays only. Liveness deadlines run on it, so no
    /// network model, however slow, makes a healthy message late. Equal
    /// to `vtime` on a zero-cost network.
    vlive: f64,
    /// The universe's hang-guard census.
    census: Arc<Census>,
    /// Shared CPU token for virtual-time compute sections; `None` when
    /// the universe has a core per rank.
    cpu: Option<Arc<CpuToken>>,
    /// Optional fault injector for halo-tag traffic (see
    /// [`run_with_faults`]).
    injector: Option<Arc<FaultInjector>>,
    /// Optional metrics: per-tag-class message/byte counters, receive-wait
    /// histograms and the liveness tallies (see [`Rank::set_metrics`]).
    metrics: Option<CommMetrics>,
    /// Optional flight recorder: the shared tracer plus this rank's main
    /// timeline track (see [`Rank::set_trace`]).
    trace: Option<(Arc<Tracer>, Arc<Track>)>,
    /// Heartbeat sequence of this rank's own sends (the `hb.send`
    /// instants' argument).
    send_seq: u64,
    /// Communication epoch: bumped on every shrink. Stale-epoch messages
    /// are dropped; observing a newer epoch means this rank was evicted.
    epoch: u64,
    /// Liveness and virtual clocks at death of each peer whose tombstone
    /// has arrived (inline, like the 64-rank liveness bitmasks: no
    /// allocation).
    gone: [Option<(f64, f64)>; 64],
    /// Bitmask of peers that missed a receive deadline (unconfirmed).
    suspected: u64,
    /// Bitmask of peers confirmed dead by [`Rank::suspicion_consensus`].
    dead: u64,
    /// Cached live (not confirmed-dead) rank ids, ascending.
    live: Vec<usize>,
    /// Set when a newer epoch is observed: the survivors shrank the
    /// universe without this rank, which must stop participating.
    evicted: Option<u64>,
}

impl Rank {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Total payload bytes sent by this rank.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// This rank's virtual clock, in seconds.
    pub fn vtime(&self) -> f64 {
        self.vtime
    }

    /// Attach a metrics registry. Sends then bump `comm.msgs.<class>` /
    /// `comm.bytes.<class>` counters and receives record their blocking
    /// time — the virtual-clock jump — into `sub.comm.wait.<class>`
    /// histograms, where `<class>` is `halo`, `data` or `collective` by
    /// tag range. The liveness layer tallies its events in
    /// `comm.liveness.suspicions`,
    /// `.false_positives`, `.crc_retries`, `.crc_escalations`,
    /// `.stale_dropped` and `.confirmed_dead`.
    pub fn set_metrics(&mut self, metrics: Arc<Registry>) {
        self.metrics = Some(CommMetrics {
            reg: metrics,
            msgs: Default::default(),
            bytes: Default::default(),
            wait: Default::default(),
            liveness: Default::default(),
        });
    }

    /// Attach a flight recorder. This rank records onto track
    /// `(pid = rank, tid = 0)`: halo sends as `hb.send` heartbeat
    /// instants, liveness transitions (`liveness.suspect` / `.retract` /
    /// `.crc_retransmit` / `.crc_escalation` / `.stale_drop` /
    /// `.evict`), and each suspicion-consensus round as a
    /// `liveness.consensus` span. Timestamps are the rank's virtual
    /// nanoseconds, the clock the metrics use. Instrumentation never
    /// changes the numbers or the message pattern.
    pub fn set_trace(&mut self, tracer: Arc<Tracer>) {
        let track = tracer.track(self.rank as u32, 0, "main");
        self.trace = Some((tracer, track));
    }

    /// `true` when a flight recorder is attached.
    pub fn has_trace(&self) -> bool {
        self.trace.is_some()
    }

    /// The attached flight recorder, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.trace.as_ref().map(|(t, _)| t)
    }

    /// Record an instant event on this rank's trace track, if attached.
    pub fn trace_instant(&self, name: &'static str, arg: f64) {
        if let Some((tracer, track)) = &self.trace {
            track.instant(name, tracer.stamp(Some(self.vtime)), arg);
        }
    }

    /// Record a counter sample on this rank's trace track, if attached.
    pub fn trace_counter(&self, name: &'static str, value: f64) {
        if let Some((tracer, track)) = &self.trace {
            track.counter(name, tracer.stamp(Some(self.vtime)), value);
        }
    }

    /// Record a span that ends "now" and lasted `dur_ns` on this rank's
    /// trace track, if attached (the caller measured the duration on the
    /// virtual clock).
    pub fn trace_span(&self, name: &'static str, dur_ns: u64) {
        if let Some((tracer, track)) = &self.trace {
            let t1 = tracer.stamp(Some(self.vtime));
            track.span(name, t1.saturating_sub(dur_ns), t1);
        }
    }

    /// Execute a compute section and charge its cost to this rank's
    /// virtual clock. The charge is the section's wall time, which equals
    /// its CPU time while one thread per rank computes on a core of its
    /// own: a universe that fits the host runs its sections in parallel,
    /// and one with more ranks than cores runs each while holding the
    /// universe's CPU token. A section that fans out to a gang pool
    /// breaks that rule, and its charge is then approximate.
    pub fn work<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let turn = self.cpu.as_deref().map(CpuToken::lock);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        drop(turn);
        self.advance_vtime(secs);
        out
    }

    /// Charge `secs` of modeled work to the virtual clock without running
    /// anything (used to model known-cost phases, e.g. accelerator
    /// kernels whose throughput differs from the host's).
    pub fn advance_vtime(&mut self, secs: f64) {
        self.vtime += secs;
        self.vlive += secs;
    }

    /// This rank's fault injector, if the universe was started with
    /// [`run_with_faults`] and an active plan.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Counters of faults injected on this rank so far.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.injector.as_ref().map(|i| i.stats())
    }

    /// Book one liveness event: bump its `comm.liveness.*` counter and
    /// drop its instant on the trace track.
    fn liveness(&mut self, event: Liveness, arg: f64) {
        let (counter, instant) = LIVENESS_NAMES[event as usize];
        if let Some(m) = &mut self.metrics {
            m.liveness[event as usize]
                .get_or_insert_with(|| m.reg.counter(counter))
                .inc();
        }
        self.trace_instant(instant, arg);
    }

    /// Ranks not confirmed dead, ascending. Always contains this rank.
    pub fn live_ranks(&self) -> &[usize] {
        &self.live
    }

    /// Bitmask of ranks currently suspected (deadline missed, not yet
    /// confirmed by consensus).
    pub fn suspected_mask(&self) -> u64 {
        self.suspected & !self.dead
    }

    /// Current communication epoch (number of shrinks survived).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `Some(epoch)` if a newer epoch was observed: the surviving ranks
    /// shrank the universe without this rank.
    pub fn evicted(&self) -> Option<u64> {
        self.evicted
    }

    /// Eagerly send `data` to rank `to` with `tag`. Never blocks; the
    /// network cost is charged to the *receiver* as a delivery timestamp.
    /// Halo-tag payloads always carry a CRC-32 trailer. Under an active
    /// fault plan they may additionally be delayed or damaged in flight;
    /// damage is repaired by a modeled link-level retransmit (bounded
    /// exponential backoff, [`NetworkModel::crc_retry_attempts`] tries)
    /// before the truncated payload — still carrying the original CRC, so
    /// the receiver detects the mismatch — escalates to the caller.
    pub fn send(&mut self, to: usize, tag: u64, data: &[f64]) {
        self.send_vec(to, tag, data.to_vec());
    }

    /// [`Rank::send`] of a buffer the caller gives up: it becomes the
    /// message instead of being copied into one, and the receiver's
    /// [`Rank::recv`] hands back that same allocation. A caller that
    /// packs into the buffers it receives (a halo exchange sends as many
    /// faces as it gets) allocates nothing in steady state.
    pub fn send_vec(&mut self, to: usize, tag: u64, mut data: Vec<f64>) {
        assert!(tag < RESERVED_TAG_BASE, "tag {tag} is reserved");
        if tag >= FAULT_TAG_LIMIT {
            self.send_impl(to, tag, data, Duration::ZERO, None);
            return;
        }
        let crc = Some(crc32_f64s(&data));
        let Some(inj) = self.injector.clone() else {
            self.send_impl(to, tag, data, Duration::ZERO, crc);
            return;
        };
        let mut extra = inj.should_delay_msg().unwrap_or(Duration::ZERO);
        if inj.should_truncate_msg() && !data.is_empty() {
            /// Backoff charged for the first retransmit (doubles each try).
            const CRC_RETRY_BACKOFF: Duration = Duration::from_micros(50);
            // Modeled link-level retransmit: each attempt pays an
            // exponentially growing backoff (charged as extra flight
            // time) and redraws the damage from its own fault site.
            let mut corrupted = true;
            let mut attempt = 0u32;
            while corrupted && attempt < self.model.crc_retry_attempts {
                extra += CRC_RETRY_BACKOFF * (1u32 << attempt.min(20));
                attempt += 1;
                self.liveness(Liveness::CrcRetransmit, attempt as f64);
                corrupted = inj.should_corrupt_retry();
            }
            if corrupted {
                // Deterministic truncation: drop the trailing half. The
                // CRC trailer is of the *original* payload, so the
                // receiver detects the damage before unpacking.
                data.truncate(data.len() / 2);
            }
        }
        self.send_impl(to, tag, data, extra, crc);
    }

    fn send_raw(&mut self, to: usize, tag: u64, data: &[f64]) {
        self.send_impl(to, tag, data.to_vec(), Duration::ZERO, None);
    }

    fn send_impl(
        &mut self,
        to: usize,
        tag: u64,
        data: Vec<f64>,
        extra: Duration,
        crc: Option<u32>,
    ) {
        assert!(to < self.size, "send to invalid rank {to}");
        assert_ne!(to, self.rank, "self-send is not supported");
        let bytes = std::mem::size_of_val(data.as_slice()) as u64;
        self.bytes_sent += bytes;
        if let Some(m) = &mut self.metrics {
            let class = tag_class(tag);
            let name = TAG_CLASSES[class];
            m.msgs[class]
                .get_or_insert_with(|| m.reg.counter(&format!("comm.msgs.{name}")))
                .inc();
            m.bytes[class]
                .get_or_insert_with(|| m.reg.counter(&format!("comm.bytes.{name}")))
                .add(bytes);
        }
        self.send_seq += 1;
        // Halo sends double as heartbeats: record them so a victim's
        // *last* heartbeat is visible on the flight-recorder timeline.
        if tag < FAULT_TAG_LIMIT {
            self.trace_instant("hb.send", self.send_seq as f64);
        }
        let extra = extra.as_secs_f64();
        let cost = self.model.cost_secs(data.len());
        self.post(
            to,
            tag,
            data,
            (self.vlive + extra, self.vtime + cost + extra),
            crc,
        );
    }

    /// Put an envelope stamped `at = (v_due, v_deliver)` into `to`'s
    /// mailbox. A crashed rank's mailbox may outlive its closure; sending
    /// to it must never bring a survivor down.
    fn post(&self, to: usize, tag: u64, data: Vec<f64>, at: (f64, f64), crc: Option<u32>) {
        let _ = self.senders[to].send(Envelope {
            from: self.rank,
            tag,
            data,
            v_due: at.0,
            v_deliver: at.1,
            epoch: self.epoch,
            crc,
        });
    }

    /// The rank's last act, when its closure has returned or unwound:
    /// count it out of the census and post a tombstone — an empty
    /// message carrying its virtual time of death, queued behind its last
    /// message — to every peer. Returns how many ranks finished before
    /// (counted before the tombstones go out, so a peer that dies of one
    /// counts after this rank).
    fn bury(&mut self) -> usize {
        let order = self.census.buried.fetch_add(1, SeqCst);
        for to in (0..self.size).filter(|&to| to != self.rank) {
            self.post(to, TOMBSTONE, Vec::new(), (self.vlive, self.vtime), None);
        }
        self.census.running.fetch_sub(1, SeqCst);
        order
    }

    /// Blocking receive of the message from `from` with `tag`. Messages
    /// from other sources/tags that arrive first are stashed and matched
    /// by later receives (MPI-style tag matching; messages from one sender
    /// with one tag are delivered in order). A CRC-damaged payload is
    /// counted and still handed over — the caller detects truncation by
    /// length. Panics, naming both ranks and the tag, if `from` has
    /// finished without sending the message: nothing can end the wait.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        assert!(tag < RESERVED_TAG_BASE, "tag {tag} is reserved");
        self.timed_wait(tag, |r| r.recv_match(from, tag, None))
            .expect("a receive without a deadline has no failure path")
    }

    /// Run `recv` and record how long it waited on the virtual clock in
    /// the `sub.comm.wait.<class of tag>` histogram.
    fn timed_wait<T>(&mut self, tag: u64, recv: impl FnOnce(&mut Self) -> T) -> T {
        let v0 = self.vtime;
        let out = recv(self);
        if let Some(m) = &mut self.metrics {
            let ns = ((self.vtime - v0).max(0.0) * 1e9) as u64;
            let class = tag_class(tag);
            let name = TAG_CLASSES[class];
            m.wait[class]
                .get_or_insert_with(|| m.reg.histogram(&format!("sub.comm.wait.{name}")))
                .record(ns);
        }
        out
    }

    /// The one matching receive: the stash first, then the mailbox, with
    /// everything that arrives for somebody else stashed on the way.
    ///
    /// `deadline: None` blocks until the message is there and hands a
    /// damaged payload over (plain [`Rank::recv`]); a peer that finished
    /// without sending it is a bug, and the receive panics. `Some(at)`,
    /// a virtual time, is the liveness-aware form behind
    /// [`Rank::recv_deadline`], the collective tree and the consensus
    /// round: arrivals are drained first, an evicted rank and a
    /// confirmed-dead peer fail at once, a finished peer's tombstone
    /// becomes [`CommError::PeerSuspect`] at its time of death (nothing is
    /// left to wait out), a message due after `at` becomes
    /// `PeerSuspect` at `at` and stays stashed for the next receive, and
    /// damage is [`CommError::CorruptPayload`].
    fn recv_match(
        &mut self,
        from: usize,
        tag: u64,
        deadline: Option<f64>,
    ) -> Result<Vec<f64>, CommError> {
        if deadline.is_some() {
            while let Ok(env) = self.receiver.try_recv() {
                if let Some(env) = self.admit(env) {
                    self.stash.push(env);
                }
            }
            if let Some(epoch) = self.evicted {
                return Err(CommError::Evicted { epoch });
            }
        }
        let (env, pos) = match self
            .stash
            .iter()
            .position(|e| e.from == from && e.tag == tag)
        {
            Some(pos) => (self.stash.remove(pos), pos),
            None => loop {
                if deadline.is_some() && self.dead & (1u64 << from) != 0 {
                    return Err(self.mark_suspect(from));
                }
                if let Some((live_death, v_death)) = self.gone[from] {
                    assert!(
                        deadline.is_some(),
                        "rank {} waits for tag {tag} from rank {from}, which finished without sending it",
                        self.rank
                    );
                    self.catch_up(live_death, v_death);
                    return Err(self.mark_suspect(from));
                }
                let env = self.next_envelope(from, tag);
                let Some(env) = self.admit(env) else { continue };
                if env.from == from && env.tag == tag {
                    break (env, self.stash.len());
                }
                self.stash.push(env);
            },
        };
        match deadline {
            Some(at) if env.v_due > at => {
                // Late: the deadline passed first. The message stays in
                // line for the next receive, which retracts the suspicion.
                self.stash.insert(pos, env);
                self.advance_vtime((at - self.vlive).max(0.0));
                Err(self.mark_suspect(from))
            }
            _ => self.settle(env, deadline.is_some()),
        }
    }

    /// The next envelope of the mailbox, blocking for it. This is the one
    /// wall-clock wait, and it never decides liveness: it only ends in a
    /// message or in the hang guard, which fails the run when every
    /// unfinished rank of the universe has been blocked here, with nobody
    /// woken, for a whole [`HANG_GUARD`] — a wait only a timeout could
    /// end.
    fn next_envelope(&mut self, from: usize, tag: u64) -> Envelope {
        if let Ok(env) = self.receiver.try_recv() {
            return env;
        }
        let census = &self.census;
        census.running.fetch_sub(1, SeqCst);
        // The wake count at the last guard expiry that found nobody running.
        let mut stalled_at = None;
        loop {
            if let Ok(env) = self.receiver.recv_timeout(HANG_GUARD) {
                census.wakes.fetch_add(1, SeqCst);
                census.running.fetch_add(1, SeqCst);
                return env;
            }
            let wakes = census.wakes.load(SeqCst);
            let stalled = census.running.load(SeqCst) == 0;
            if stalled && stalled_at == Some(wakes) {
                census.running.fetch_add(1, SeqCst);
                panic!(
                    "hang guard: rank {} waits for tag {tag} from rank {from}, and every \
                     unfinished rank is blocked on its mailbox (deadlock)",
                    self.rank
                );
            }
            stalled_at = stalled.then_some(wakes);
        }
    }

    /// Epoch filter for an arrived envelope, and the tombstone ledger.
    /// Returns `None` for a tombstone (the sender's time of death is
    /// recorded) and for a message that must be dropped (stale epoch: the
    /// sender was evicted before it sent this). A *newer* epoch is
    /// admitted — it means the sender finished a consensus round first
    /// and still counts this rank among the living; op tags keep the
    /// cross-epoch messages matched to the right collective. Eviction is
    /// only ever decided by [`Rank::suspicion_consensus`] itself.
    fn admit(&mut self, env: Envelope) -> Option<Envelope> {
        if env.tag == TOMBSTONE {
            self.gone[env.from] = Some((env.v_due, env.v_deliver));
            return None;
        }
        if env.epoch < self.epoch {
            self.liveness(Liveness::StaleDrop, env.from as f64);
            return None;
        }
        Some(env)
    }

    /// Record a missed deadline for `peer` and build the matching error.
    fn mark_suspect(&mut self, peer: usize) -> CommError {
        let bit = 1u64 << peer;
        if self.dead & bit == 0 && self.suspected & bit == 0 {
            self.suspected |= bit;
            self.liveness(Liveness::Suspect, peer as f64);
        }
        CommError::PeerSuspect { rank: peer }
    }

    /// Move both clocks up to a message's stamps: the liveness clock to
    /// when it was due, the virtual clock to its delivery.
    fn catch_up(&mut self, v_due: f64, v_deliver: f64) {
        self.vlive = self.vlive.max(v_due);
        self.vtime = self.vtime.max(v_deliver);
    }

    /// The one tail of every receive: a received message is proof of
    /// life, so a standing suspicion of its sender is retracted (counted
    /// as a false positive); verify the CRC-32 trailer (a mismatch is
    /// counted as an escalation), move the clock to the message's
    /// delivery time — waiting is free, the rank was blocked — and hand
    /// the payload over. Damage is a typed error when `checked`;
    /// otherwise it is delivered as it is.
    fn settle(&mut self, env: Envelope, checked: bool) -> Result<Vec<f64>, CommError> {
        let bit = 1u64 << env.from;
        if self.suspected & bit != 0 {
            self.suspected &= !bit;
            self.liveness(Liveness::Retract, env.from as f64);
        }
        let intact = env.crc.is_none_or(|c| crc32_f64s(&env.data) == c);
        if !intact {
            self.liveness(Liveness::CrcEscalation, env.from as f64);
        }
        self.catch_up(env.v_due, env.v_deliver);
        if intact || !checked {
            Ok(env.data)
        } else {
            Err(CommError::CorruptPayload {
                from: env.from,
                tag: env.tag,
            })
        }
    }

    /// Deadline-aware receive: like [`Rank::recv`], but returns
    /// [`CommError::PeerSuspect`] instead of blocking forever on a dead
    /// peer — at once, at the peer's time of death, once its tombstone
    /// arrives — or accepting a late one: a message sent more than two
    /// virtual seconds after the receive began stays queued, and the
    /// receive returns at that deadline. A CRC-damaged payload returns
    /// [`CommError::CorruptPayload`]; observing a newer epoch returns
    /// [`CommError::Evicted`]. Receives from a *confirmed-dead* peer fail
    /// fast; merely-suspected peers still get the full deadline.
    pub fn recv_deadline(&mut self, from: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        assert!(tag < RESERVED_TAG_BASE, "tag {tag} is reserved");
        let deadline = self.vlive + SUSPECT_AFTER;
        self.timed_wait(tag, |r| r.recv_match(from, tag, Some(deadline)))
    }

    fn next_op_tag(&mut self) -> u64 {
        let t = RESERVED_TAG_BASE + self.op_counter;
        self.op_counter += 1;
        t
    }

    /// Position of this rank in the live set (its "virtual rank" for
    /// collective trees). Panics if called after eviction/confirmed-dead
    /// bookkeeping removed this rank from its own live set (cannot happen
    /// through the public API).
    fn live_pos(&self) -> usize {
        self.live
            .iter()
            .position(|&r| r == self.rank)
            .expect("rank absent from its own live set")
    }

    /// Depth-scaled patience for collective-internal receives. A peer that
    /// took a late message lags by a full deadline, so a recv `mult`
    /// levels downstream must wait `mult` deadlines before calling the
    /// sender late — otherwise one straggler cascades into false
    /// suspicions of every healthy rank on the lagged path. Virtual
    /// seconds, counted from the start of each wait.
    fn patience(&self, mult: u32) -> f64 {
        SUSPECT_AFTER * f64::from(mult.max(1))
    }

    /// The one reduce + broadcast: a binomial-tree reduce of `acc` through
    /// `op` toward live rank 0, then a binomial-tree broadcast of the
    /// result back into every rank's `acc`, so the critical path is
    /// `2 ⌈log₂ P⌉` message latencies — the collective cost structure the
    /// scaling experiments assume. Every internal receive carries its
    /// depth-scaled deadline: a dead or late peer never stalls the tree, it
    /// ends up in the suspicion mask for [`Rank::suspicion_consensus`] to
    /// rule on, and `silent` says what its silence contributes — `None`:
    /// nothing, the local partial stands (the subtree's contribution is
    /// lost; a starved broadcast child keeps its partial and still
    /// forwards it below); `Some(v)`: `v` is folded into the partial
    /// through `op`, on the reduce side and on the broadcast side alike.
    fn tree(&mut self, acc: &mut [f64], op: impl Fn(f64, f64) -> f64, silent: Option<f64>) {
        let tag = self.next_op_tag();
        let p = self.live.len();
        let me = self.live_pos();
        let fold_silence = |acc: &mut [f64]| {
            if let Some(v) = silent {
                acc.iter_mut().for_each(|a| *a = op(*a, v));
            }
        };
        // --- binomial reduce toward live rank 0 --------------------------
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < p {
            if me & mask != 0 {
                // My bit for this round is set: hand my partial upward.
                self.send_raw(self.live[me & !mask], tag, acc);
                break;
            }
            if me | mask < p {
                let deadline = self.vlive + self.patience(round + 2);
                match self.recv_match(self.live[me | mask], tag, Some(deadline)) {
                    Ok(part) => {
                        assert_eq!(part.len(), acc.len(), "allreduce length mismatch");
                        for (a, &b) in acc.iter_mut().zip(&part) {
                            *a = op(*a, b);
                        }
                    }
                    Err(_) => fold_silence(acc),
                }
            }
            mask <<= 1;
            round += 1;
        }
        // --- binomial broadcast from live rank 0 -------------------------
        let patience = self.patience(2 * ceil_log2(p) + 2);
        let mut mask = p.next_power_of_two() >> 1;
        while mask > 0 {
            if me & (mask - 1) == 0 {
                if me & mask != 0 {
                    let deadline = self.vlive + patience;
                    match self.recv_match(self.live[me & !mask], tag, Some(deadline)) {
                        Ok(result) => acc.copy_from_slice(&result),
                        Err(_) => fold_silence(acc),
                    }
                } else if me | mask < p {
                    self.send_raw(self.live[me | mask], tag, acc);
                }
            }
            mask >>= 1;
        }
    }

    /// Allreduce with a binary reduction; all ranks receive the reduced
    /// value of their `contributions`: a binomial-tree reduce followed by
    /// a binomial-tree broadcast over the *live* ranks. A silent peer is
    /// skipped (its subtree's contribution is lost) instead of
    /// deadlocking the collective, and ends up in the suspicion mask for
    /// [`Rank::suspicion_consensus`] to rule on. With no dead or silent
    /// peers the result is bit-identical to the pre-liveness collective.
    pub fn allreduce(&mut self, contribution: &[f64], op: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        let mut acc = contribution.to_vec();
        self.tree(&mut acc, op, None);
        acc
    }

    /// Failure-armored scalar agreement: an allreduce-max where any missed
    /// deadline *poisons the result upward* to [`SUSPECT_FLAG`]. If some
    /// rank is dead, every live rank is guaranteed to return a value
    /// `>= SUSPECT_FLAG` (the dead rank's reduce parent injects the flag
    /// on a live path to the root; its broadcast children self-substitute
    /// it — the root's decision being unreachable, they assume the worst),
    /// so survivors agree that a consensus round is needed even though
    /// they cannot yet agree on a value. This is the primitive the
    /// resilient driver uses for its per-step error/liveness agreement.
    pub fn agree_max(&mut self, x: f64) -> f64 {
        if self.evicted.is_some() {
            return SUSPECT_FLAG;
        }
        let mut acc = [x];
        self.tree(&mut acc, f64::max, Some(SUSPECT_FLAG));
        acc[0]
    }

    /// Two-round suspicion consensus among the live ranks, promoting
    /// suspects to the confirmed dead set.
    ///
    /// Round 1 exchanges suspicion bitmasks all-to-all; any rank heard
    /// from in time is alive (stale suspicions of it are retracted), so
    /// the candidate set is the union of everyone's suspicions plus this
    /// round's dead and late peers, minus everyone heard. Round 2 repeats
    /// the exchange with the candidate masks: a candidate that speaks up
    /// in time defends itself, one that does not is confirmed dead. On
    /// confirmation the epoch is bumped (stale traffic from the dead rank
    /// is dropped from now on) and the live set shrinks.
    ///
    /// Returns the newly confirmed dead set as a bitmask (0 = false
    /// alarm). Errors with [`CommError::Evicted`] if this rank is on the
    /// wrong side of a shrink: it was evicted before, or the surviving
    /// side would be a minority of the previous live set (the split-brain
    /// guard — a lone straggler that outlived the survivors sees
    /// "everyone else dead" and must evict *itself* rather than carry on
    /// solo).
    pub fn suspicion_consensus(&mut self) -> Result<u64, CommError> {
        let t0 = self
            .trace
            .as_ref()
            .map(|(tracer, _)| tracer.stamp(Some(self.vtime)));
        let out = self.suspicion_consensus_inner();
        if let (Some((tracer, track)), Some(t0)) = (&self.trace, t0) {
            // Annotate the round with its verdict: newly-dead count, or
            // -1 when this rank ended up on the evicted side.
            let arg = match &out {
                Ok(mask) => mask.count_ones() as f64,
                Err(_) => -1.0,
            };
            track.span_arg(
                "liveness.consensus",
                t0,
                tracer.stamp(Some(self.vtime)),
                arg,
            );
        }
        out
    }

    fn suspicion_consensus_inner(&mut self) -> Result<u64, CommError> {
        if let Some(e) = self.evicted {
            return Err(CommError::Evicted { epoch: e });
        }
        let live = self.live.clone();
        let before = live.len();
        let patience = self.patience(2 * ceil_log2(before) + 4);
        // One mask exchange. One absolute deadline covers the whole
        // round, so late peers cost one wait, not one per peer. Returns
        // the union of the masks heard and who was heard (this rank
        // included); a peer not heard is suspected.
        let round = |rk: &mut Self, mask: u64| -> (u64, u64) {
            let tag = rk.next_op_tag();
            for &r in &live {
                if r != rk.rank {
                    rk.send_raw(r, tag, &[f64::from_bits(mask)]);
                }
            }
            let deadline = rk.vlive + patience;
            let (mut union, mut heard) = (mask, 1u64 << rk.rank);
            for &r in &live {
                if r != rk.rank {
                    if let Ok(d) = rk.recv_match(r, tag, Some(deadline)) {
                        union |= d[0].to_bits();
                        heard |= 1u64 << r;
                    }
                }
            }
            (union, heard)
        };
        let live_mask = live.iter().fold(0u64, |m, &r| m | (1u64 << r));
        let (union, heard) = round(self, self.suspected & !self.dead);
        let candidates = (union | live_mask) & !heard;
        let (union2, heard2) = round(self, candidates);
        let newly_dead = (union2 | live_mask) & !heard2 & !self.dead;

        if newly_dead == 0 {
            return Ok(0);
        }
        let ndead = newly_dead.count_ones() as usize;
        if (before - ndead) * 2 < before {
            // Split-brain guard: the side keeping less than half of the
            // previous live set yields instead of forking the run.
            self.evicted = Some(self.epoch + 1);
            self.trace_instant("liveness.evicted_self", self.rank as f64);
            return Err(CommError::Evicted {
                epoch: self.epoch + 1,
            });
        }
        for r in 0..self.size {
            if newly_dead & (1u64 << r) != 0 {
                self.liveness(Liveness::Evict, r as f64);
            }
        }
        self.dead |= newly_dead;
        self.suspected &= !newly_dead;
        self.epoch += 1;
        self.live = (0..self.size)
            .filter(|&i| self.dead & (1u64 << i) == 0)
            .collect();
        Ok(newly_dead)
    }

    /// Scalar allreduce-min (the Δt reduction).
    pub fn allreduce_min(&mut self, x: f64) -> f64 {
        let mut acc = [x];
        self.tree(&mut acc, f64::min, None);
        acc[0]
    }

    /// Scalar allreduce-max.
    pub fn allreduce_max(&mut self, x: f64) -> f64 {
        let mut acc = [x];
        self.tree(&mut acc, f64::max, None);
        acc[0]
    }

    /// Barrier, implemented as an empty allreduce so it pays realistic
    /// network costs.
    pub fn barrier(&mut self) {
        self.tree(&mut [0.0], |a, _| a, None);
    }
}

/// ⌈log₂ p⌉ for `p >= 1` (0 for `p == 1`).
fn ceil_log2(p: usize) -> u32 {
    usize::BITS - p.saturating_sub(1).leading_zeros()
}

/// SPMD entry point: run `f` on `n` simulated ranks (threads) over a
/// network with the given cost model. Returns each rank's result, in rank
/// order. A rank's panic propagates: its tombstone ends every wait on it,
/// so the peers finish too, and `run` resumes the panic of the first rank
/// that finished with one.
pub fn run<T, F>(n: usize, model: NetworkModel, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Rank) -> T + Send + Sync,
{
    run_with_faults(n, model, None, f)
}

/// [`run`] with a fault plan: each rank gets a deterministic
/// [`FaultInjector`] salted by its id, applied to halo-tag traffic (and
/// available through [`Rank::fault_injector`] for higher layers to draw
/// cell-poisoning decisions from). `None` or an inactive plan behaves
/// exactly like [`run`].
pub fn run_with_faults<T, F>(n: usize, model: NetworkModel, plan: Option<FaultPlan>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Rank) -> T + Send + Sync,
{
    assert!(n > 0);
    assert!(n <= 64, "liveness bitmasks support at most 64 ranks");
    let plan = plan.filter(|p| p.is_active());
    let mut txs = Vec::with_capacity(n);
    let mut rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(rx);
    }
    let cpu = (n > host_cores()).then(|| Arc::new(CpuToken::new(())));
    let census = Arc::new(Census {
        running: AtomicUsize::new(n),
        wakes: AtomicU64::new(0),
        buried: AtomicUsize::new(0),
    });
    let mut ranks: Vec<Rank> = rxs
        .into_iter()
        .enumerate()
        .map(|(i, receiver)| Rank {
            rank: i,
            size: n,
            senders: txs.clone(),
            receiver,
            model,
            stash: Vec::new(),
            op_counter: 0,
            bytes_sent: 0,
            vtime: 0.0,
            vlive: 0.0,
            census: census.clone(),
            cpu: cpu.clone(),
            injector: plan
                .as_ref()
                .map(|p| Arc::new(FaultInjector::new(p.clone(), i as u64))),
            metrics: None,
            trace: None,
            send_seq: 0,
            epoch: 0,
            gone: [None; 64],
            suspected: 0,
            dead: 0,
            live: (0..n).collect(),
            evicted: None,
        })
        .collect();
    drop(txs);

    let f = &f;
    let mut finished: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = ranks
            .iter_mut()
            .map(|rank| {
                s.spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| f(rank)));
                    (rank.bury(), out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a rank thread catches its own panic"))
            .collect()
    });
    // The first rank to die with a panic is the cause; a peer's panic
    // over its tombstone is the consequence.
    let first = (0..n)
        .filter(|&i| finished[i].1.is_err())
        .min_by_key(|&i| finished[i].0);
    if let Some((_, Err(panic))) = first.map(|i| finished.swap_remove(i)) {
        resume_unwind(panic);
    }
    finished
        .into_iter()
        .map(|(_, out)| out.unwrap_or_else(|p| resume_unwind(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhrsc_runtime::fault::RankSite;

    #[test]
    fn ping_pong() {
        let out = run(2, NetworkModel::ideal(), |r| {
            if r.rank() == 0 {
                r.send(1, 7, &[1.0, 2.0, 3.0]);
                r.recv(1, 8)
            } else {
                let got = r.recv(0, 7);
                let doubled: Vec<f64> = got.iter().map(|x| x * 2.0).collect();
                r.send(0, 8, &doubled);
                got
            }
        });
        assert_eq!(out[0], vec![2.0, 4.0, 6.0]);
        assert_eq!(out[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let out = run(2, NetworkModel::ideal(), |r| {
            if r.rank() == 0 {
                r.send(1, 1, &[1.0]);
                r.send(1, 2, &[2.0]);
                vec![]
            } else {
                // Receive in reverse tag order.
                let b = r.recv(0, 2);
                let a = r.recv(0, 1);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0]);
    }

    #[test]
    fn allreduce_min_max_sum() {
        let out = run(4, NetworkModel::ideal(), |r| {
            let x = r.rank() as f64 + 1.0; // 1..4
            (
                r.allreduce_min(x),
                r.allreduce_max(x),
                r.allreduce(&[x], |a, b| a + b)[0],
            )
        });
        for &(mn, mx, sm) in &out {
            assert_eq!(mn, 1.0);
            assert_eq!(mx, 4.0);
            assert_eq!(sm, 10.0);
        }
    }

    #[test]
    fn vector_allreduce() {
        let out = run(3, NetworkModel::ideal(), |r| {
            let v = [r.rank() as f64, 10.0 * r.rank() as f64];
            r.allreduce(&v, |a, b| a + b)
        });
        for v in &out {
            assert_eq!(v, &vec![3.0, 30.0]);
        }
    }

    #[test]
    fn barrier_is_collective() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arrived = AtomicUsize::new(0);
        run(4, NetworkModel::ideal(), |r| {
            arrived.fetch_add(1, Ordering::SeqCst);
            r.barrier();
            // After the barrier every rank has arrived.
            assert_eq!(arrived.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn latency_is_charged_on_recv() {
        // A 10-second latency is charged to the receiver's clock exactly,
        // and costs no physical wait; the sender's clock is unaffected.
        let lat = Duration::from_secs(10);
        let t0 = Instant::now();
        let out = run(2, NetworkModel::virtual_cluster(lat, f64::INFINITY), |r| {
            if r.rank() == 0 {
                r.send(1, 1, &[1.0]);
            } else {
                r.recv(0, 1);
            }
            r.vtime()
        });
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "must not wait physically"
        );
        assert_eq!(out, [0.0, lat.as_secs_f64()]);
    }

    #[test]
    fn slow_network_never_makes_a_collective_late() {
        // Hops far longer than the suspicion deadline, and a vector that
        // adds seconds of bandwidth cost per hop, are network cost, not
        // silence: every collective equals the serial fold and nobody is
        // suspected.
        for n in [2usize, 5] {
            for lat in [5u64, 60] {
                let model = NetworkModel::virtual_cluster(Duration::from_secs(lat), 8e4);
                let out = run(n, model, |r| {
                    let reg = tallies(r);
                    let x = r.rank() as f64 + 1.0;
                    let sum = r.allreduce(&vec![x; 100_000], |a, b| a + b);
                    r.barrier();
                    let got = (r.allreduce_min(x), r.allreduce_max(x), sum[0], sum[99_999]);
                    (got, tally(&reg, "suspicions"), r.suspected_mask())
                });
                let total = (1..=n).sum::<usize>() as f64;
                for (got, suspicions, mask) in out {
                    assert_eq!(got, (1.0, n as f64, total, total), "{n} ranks, {lat} s");
                    assert_eq!((suspicions, mask), (0, 0), "{n} ranks, {lat} s");
                }
            }
        }
    }

    #[test]
    fn latency_is_hidden_by_overlap() {
        // The receiver computes past the message's arrival: the receive
        // is then free.
        let model = NetworkModel::virtual_cluster(Duration::from_millis(15), f64::INFINITY);
        let out = run(2, model, |r| {
            if r.rank() == 0 {
                r.send(1, 1, &[1.0]);
            } else {
                r.advance_vtime(0.050);
                r.recv(0, 1);
            }
            r.vtime()
        });
        assert_eq!(out[1], 0.050, "overlapped recv cost {}", out[1] - 0.050);
    }

    #[test]
    fn bandwidth_charged_proportionally() {
        // 1e6 doubles at 8e8 B/s = 10 ms on top of the latency.
        let model = NetworkModel::virtual_cluster(Duration::from_millis(1), 8e8);
        let out = run(2, model, |r| {
            if r.rank() == 0 {
                r.send(1, 1, &vec![0.0; 1_000_000]);
            } else {
                r.recv(0, 1);
            }
            r.vtime()
        });
        assert_eq!(out[1], 0.001 + 8e6 / 8e8);
    }

    #[test]
    fn bytes_sent_accounting() {
        let out = run(2, NetworkModel::ideal(), |r| {
            if r.rank() == 0 {
                r.send(1, 1, &[0.0; 100]);
                r.bytes_sent()
            } else {
                r.recv(0, 1);
                r.bytes_sent()
            }
        });
        assert_eq!(out[0], 800);
        assert_eq!(out[1], 0);
    }

    #[test]
    fn ring_halo_pattern() {
        // Each rank sends its id to the right neighbor, receives from the
        // left — the skeleton of a halo exchange.
        let n = 5;
        let out = run(n, NetworkModel::ideal(), |r| {
            let right = (r.rank() + 1) % n;
            let left = (r.rank() + n - 1) % n;
            r.send(right, 3, &[r.rank() as f64]);
            r.recv(left, 3)[0]
        });
        for (i, &got) in out.iter().enumerate() {
            assert_eq!(got as usize, (i + n - 1) % n);
        }
    }

    #[test]
    fn many_ranks_stress() {
        let n = 16;
        let out = run(n, NetworkModel::ideal(), |r| {
            let mut acc = 0.0;
            for round in 0..10 {
                acc = r.allreduce(&[r.rank() as f64 + round as f64], |a, b| a + b)[0];
            }
            acc
        });
        let expected = (0..n).map(|i| (i + 9) as f64).sum::<f64>();
        assert!(out.iter().all(|&v| v == expected));
    }

    #[test]
    fn tree_collectives_non_power_of_two() {
        for n in [3usize, 5, 6, 7, 9] {
            let out = run(n, NetworkModel::ideal(), |r| {
                let x = (r.rank() * r.rank()) as f64;
                r.allreduce(&[x], |a, b| a + b)[0]
            });
            let expected: f64 = (0..n).map(|i| (i * i) as f64).sum();
            for (i, &s) in out.iter().enumerate() {
                assert_eq!(s, expected, "sum on rank {i} of {n}");
            }
        }
    }

    /// Attach a registry of `r`'s own; [`tally`] reads its liveness counters.
    fn tallies(r: &mut Rank) -> Arc<Registry> {
        let reg = Arc::new(Registry::new());
        r.set_metrics(reg.clone());
        reg
    }

    /// The `comm.liveness.<name>` counter (0 while never bumped).
    fn tally(reg: &Registry, name: &str) -> u64 {
        let counters = reg.snapshot().counters;
        *counters.get(&format!("comm.liveness.{name}")).unwrap_or(&0)
    }

    fn spin(ms: u64) {
        let end = Instant::now() + Duration::from_millis(ms);
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn virtual_work_accumulates_clock() {
        let model = NetworkModel::virtual_cluster(Duration::ZERO, f64::INFINITY);
        let out = run(2, model, |r| {
            let ms = (r.rank() + 1) as u64 * 10;
            r.work(|| spin(ms));
            r.vtime()
        });
        assert!(out[0] >= 0.009 && out[0] < 0.05, "rank0 vtime {}", out[0]);
        assert!(out[1] >= 0.019 && out[1] < 0.08, "rank1 vtime {}", out[1]);
    }

    #[test]
    fn virtual_allreduce_synchronizes_clocks() {
        let model = NetworkModel::virtual_cluster(Duration::from_millis(1), f64::INFINITY);
        let out = run(4, model, |r| {
            r.advance_vtime(0.010 * (r.rank() + 1) as f64); // 10..40 ms
            let v = r.allreduce_min(r.rank() as f64);
            assert_eq!(v, 0.0);
            r.vtime()
        });
        // Every rank ends at >= the slowest rank's entry time (40 ms).
        for (i, &v) in out.iter().enumerate() {
            assert!(v >= 0.040, "rank {i} vtime {v}");
        }
    }

    #[test]
    fn advance_vtime_is_manual_cost_injection() {
        let model = NetworkModel::virtual_cluster(Duration::ZERO, f64::INFINITY);
        let out = run(1, model, |r| {
            r.advance_vtime(1.5);
            r.vtime()
        });
        assert_eq!(out[0], 1.5);
    }

    #[test]
    #[should_panic]
    fn reserved_tags_rejected() {
        run(2, NetworkModel::ideal(), |r| {
            if r.rank() == 0 {
                r.send(1, RESERVED_TAG_BASE + 1, &[1.0]);
            } else {
                // Avoid hanging the other rank before the panic propagates.
            }
        });
    }

    #[test]
    fn fault_plan_truncates_halo_messages() {
        let plan = FaultPlan {
            seed: 3,
            msg_truncate_prob: 1.0,
            ..FaultPlan::disabled()
        };
        let out = run_with_faults(2, NetworkModel::ideal(), Some(plan), |r| {
            if r.rank() == 0 {
                r.send(1, 1, &[1.0, 2.0, 3.0, 4.0]);
                r.fault_stats().unwrap().msgs_truncated
            } else {
                r.recv(0, 1).len() as u64
            }
        });
        assert_eq!(out[0], 1, "sender counted the truncation");
        assert_eq!(out[1], 2, "receiver got half the payload");
    }

    #[test]
    fn faults_spare_collectives_and_high_tags() {
        let plan = FaultPlan {
            seed: 4,
            msg_truncate_prob: 1.0,
            ..FaultPlan::disabled()
        };
        let out = run_with_faults(4, NetworkModel::ideal(), Some(plan), |r| {
            let s = r.allreduce(&[r.rank() as f64], |a, b| a + b)[0];
            let gathered = if r.rank() == 0 {
                let mut len = 3usize; // own contribution, not sent
                for src in 1..4 {
                    len += r.recv(src, 1000).len();
                }
                len
            } else {
                r.send(0, 1000, &[0.0, 0.0, 0.0]);
                12
            };
            (s, gathered)
        });
        for &(s, g) in &out {
            assert_eq!(s, 6.0, "collectives must be reliable under faults");
            assert_eq!(g, 12, "tags >= FAULT_TAG_LIMIT are never truncated");
        }
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let plan = || FaultPlan {
            seed: 99,
            msg_truncate_prob: 0.5,
            ..FaultPlan::disabled()
        };
        let lens = || {
            run_with_faults(2, NetworkModel::ideal(), Some(plan()), |r| {
                if r.rank() == 0 {
                    for m in 0..32 {
                        r.send(1, (m % 4) as u64, &[1.0; 8]);
                    }
                    vec![]
                } else {
                    let mut got = Vec::new();
                    for m in 0..32 {
                        got.push(r.recv(0, (m % 4) as u64).len());
                    }
                    got
                }
            })
        };
        let a = lens();
        let b = lens();
        assert_eq!(a[1], b[1], "same plan, same fault pattern");
        assert!(a[1].contains(&4), "some messages truncated");
        assert!(a[1].contains(&8), "some messages intact");
    }

    #[test]
    fn fault_schedule_is_invariant_to_interleaving() {
        // Property: every fault decision is a function of (seed, rank
        // salt, site, draw index) alone — never of wall-clock timing or
        // cross-rank interleaving. Re-running the same ring workload
        // with aggressive per-rank scheduling jitter must reproduce the
        // exact per-rank fault event sequence, for every rank count in
        // 2..=8, including the scheduled crash/stall sites.
        let plan = || FaultPlan {
            seed: 77,
            msg_truncate_prob: 0.3,
            msg_delay_prob: 0.25,
            msg_delay: Duration::from_micros(50),
            crash_rank: Some(1),
            crash_step: 9,
            stall_rank: Some(0),
            stall_factor: 2.0,
            ..FaultPlan::disabled()
        };
        let rounds = 24usize;
        let trace = |jitter: bool, n: usize| {
            run_with_faults(n, NetworkModel::ideal(), Some(plan()), move |r| {
                let next = (r.rank() + 1) % n;
                let prev = (r.rank() + n - 1) % n;
                let mut corrupt = Vec::with_capacity(rounds);
                for round in 0..rounds {
                    if jitter {
                        let us = ((r.rank() * 13 + round * 7) % 5) as u64 * 250;
                        std::thread::sleep(Duration::from_micros(us));
                    }
                    r.send(next, 1, &[round as f64; 6]);
                    let got = r.recv_deadline(prev, 1);
                    corrupt.push(matches!(got, Err(CommError::CorruptPayload { .. })));
                }
                // The scheduled rank-level sites are pure functions of
                // the plan, so a fresh injector replays them without
                // perturbing the rank's own draw streams.
                let probe = FaultInjector::new(plan(), r.rank() as u64);
                let sites: Vec<(bool, bool)> = (0..rounds as u64)
                    .map(|s| {
                        (
                            probe.should_crash_at(r.rank(), s, RankSite::Step),
                            probe.should_stall_rank(r.rank()).is_some(),
                        )
                    })
                    .collect();
                let st = r.fault_stats().unwrap();
                (corrupt, sites, st.msgs_truncated, st.msgs_delayed)
            })
        };
        for n in [2usize, 3, 5, 8] {
            let a = trace(false, n);
            let b = trace(true, n);
            assert_eq!(a, b, "fault schedule changed under jitter at n = {n}");
            assert!(
                a.iter().any(|(c, ..)| c.contains(&true)),
                "no message fault ever fired at n = {n}"
            );
            assert!(
                a.iter().any(|(c, ..)| c.contains(&false)),
                "every message faulted at n = {n}"
            );
            let crash_hits = a
                .iter()
                .map(|(_, s, ..)| s.iter().filter(|(c, _)| *c).count())
                .sum::<usize>();
            assert_eq!(
                crash_hits,
                rounds - plan().crash_step as usize,
                "crash site must fire exactly from its scheduled step on"
            );
        }
    }

    #[test]
    fn metrics_count_messages_and_waits() {
        let model = NetworkModel::virtual_cluster(Duration::from_millis(5), f64::INFINITY);
        let reg = Arc::new(Registry::new());
        let reg2 = reg.clone();
        run(2, model, move |r| {
            r.set_metrics(reg2.clone());
            if r.rank() == 0 {
                r.send(1, 1, &[1.0; 10]); // halo class
                r.send(1, 100, &[2.0; 4]); // data class
            } else {
                r.recv(0, 1);
                r.recv(0, 100);
            }
            r.allreduce(&[1.0], |a, b| a + b);
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters["comm.msgs.halo"], 1);
        assert_eq!(snap.counters["comm.bytes.halo"], 80);
        assert_eq!(snap.counters["comm.msgs.data"], 1);
        assert_eq!(snap.counters["comm.bytes.data"], 32);
        assert!(
            snap.counters["comm.msgs.collective"] >= 2,
            "allreduce sends"
        );
        // The halo recv blocked for the 5 ms virtual latency.
        let wait = &snap.histograms["sub.comm.wait.halo"];
        assert_eq!(wait.count, 1);
        assert!(wait.sum >= 4_000_000, "halo wait {} ns", wait.sum);
    }

    #[test]
    fn crc_detects_truncation_before_unpack() {
        // With the retry tier disabled, a truncated halo payload reaches
        // the receiver, whose CRC check turns it into a typed error.
        let plan = FaultPlan {
            seed: 11,
            msg_truncate_prob: 1.0,
            ..FaultPlan::disabled()
        };
        let out = run_with_faults(2, NetworkModel::ideal(), Some(plan), |r| {
            if r.rank() == 0 {
                r.send(1, 1, &[1.0, 2.0, 3.0, 4.0]);
                (true, 0)
            } else {
                let reg = tallies(r);
                let got = r.recv_deadline(0, 1);
                let ok = got == Err(CommError::CorruptPayload { from: 0, tag: 1 });
                (ok, tally(&reg, "crc_escalations"))
            }
        });
        assert!(out[1].0, "damage must surface as CorruptPayload");
        assert_eq!(out[1].1, 1, "escalation counted");
    }

    #[test]
    fn crc_retransmit_repairs_damage() {
        // With retries enabled, the modeled link-level retransmit repairs
        // the payload: the receiver sees the full message. Seeded so the
        // retry draws eventually come up clean (deterministic).
        let plan = FaultPlan {
            seed: 12,
            msg_truncate_prob: 0.6,
            ..FaultPlan::disabled()
        };
        let model = NetworkModel::ideal().with_crc_retries(16);
        let out = run_with_faults(2, model, Some(plan), |r| {
            let reg = tallies(r);
            if r.rank() == 0 {
                for _ in 0..8 {
                    r.send(1, 1, &[1.0, 2.0, 3.0, 4.0]);
                }
                (tally(&reg, "crc_retries"), 0usize)
            } else {
                let mut full = 0usize;
                for _ in 0..8 {
                    if let Ok(d) = r.recv_deadline(0, 1) {
                        assert_eq!(d, vec![1.0, 2.0, 3.0, 4.0]);
                        full += 1;
                    }
                }
                (tally(&reg, "crc_escalations"), full)
            }
        });
        assert!(out[0].0 > 0, "retransmits were modeled");
        assert_eq!(out[1].0, 0, "no damage escaped the retry tier");
        assert_eq!(out[1].1, 8, "all payloads arrived intact");
    }

    #[test]
    fn recv_deadline_suspects_silent_peer() {
        // Rank 1 returns without sending: its tombstone ends rank 0's
        // receives at once, at its time of death, with no patience charged.
        let out = run(2, NetworkModel::ideal(), |r| {
            if r.rank() == 1 {
                r.advance_vtime(0.5);
                return None;
            }
            let reg = tallies(r);
            let first = r.recv_deadline(1, 3);
            // The suspicion is not double counted.
            let second = r.recv_deadline(1, 4);
            Some((
                first,
                second,
                tally(&reg, "suspicions"),
                r.suspected_mask(),
                r.vtime(),
            ))
        });
        let suspect = || Err(CommError::PeerSuspect { rank: 1 });
        assert_eq!(out[0], Some((suspect(), suspect(), 1, 1 << 1, 0.5)));
    }

    #[test]
    fn heartbeat_retracts_suspicion() {
        // Rank 1 sends three virtual seconds late: the first receive gives
        // up at its two-second deadline and leaves the message queued, and
        // the next one takes it and retracts the suspicion.
        let out = run(2, NetworkModel::ideal(), |r| {
            if r.rank() == 1 {
                r.advance_vtime(3.0);
                r.send(0, 3, &[7.0]);
                return None;
            }
            let reg = tallies(r);
            let late = r.recv_deadline(1, 3);
            let at_deadline = r.vtime();
            let got = r.recv_deadline(1, 3);
            let counts = (tally(&reg, "suspicions"), tally(&reg, "false_positives"));
            Some((
                late,
                at_deadline,
                got,
                counts,
                r.suspected_mask(),
                r.vtime(),
            ))
        });
        let (late, at_deadline, got, counts, mask, vtime) = out[0].clone().unwrap();
        assert_eq!(late, Err(CommError::PeerSuspect { rank: 1 }));
        assert_eq!(at_deadline, SUSPECT_AFTER);
        assert_eq!(got, Ok(vec![7.0]));
        assert_eq!(counts, (1, 1), "one suspicion, retracted once");
        assert_eq!((mask, vtime), (0, 3.0));
    }

    #[test]
    fn agree_max_flags_dead_rank_on_all_survivors() {
        let out = run(4, NetworkModel::ideal(), |r| {
            if r.rank() == 3 {
                return f64::NAN; // dies immediately: participates in nothing
            }
            r.agree_max(0.0)
        });
        for (i, &v) in out.iter().enumerate().take(3) {
            assert!(v >= SUSPECT_FLAG, "rank {i} must see the flag, got {v}");
        }
    }

    #[test]
    fn consensus_confirms_dead_rank_and_shrinks() {
        let out = run(4, NetworkModel::ideal(), |r| {
            if r.rank() == 3 {
                return (0, 0, 0.0); // dead from the start
            }
            let reg = tallies(r);
            let flag = r.agree_max(0.0);
            assert!(flag >= SUSPECT_FLAG);
            let newly_dead = r.suspicion_consensus().expect("survivor side");
            assert_eq!(r.live_ranks(), &[0, 1, 2]);
            assert_eq!(r.epoch(), 1);
            assert_eq!(tally(&reg, "confirmed_dead"), 1);
            // Collectives keep working over the shrunken universe.
            let s = r.allreduce(&[r.rank() as f64], |a, b| a + b)[0];
            (newly_dead, r.epoch(), s)
        });
        for (i, &(mask, epoch, s)) in out.iter().enumerate().take(3) {
            assert_eq!(mask, 1 << 3, "rank {i} confirmed rank 3 dead");
            assert_eq!(epoch, 1);
            assert_eq!(s, 3.0, "post-shrink allreduce over ranks 0..3");
        }
    }

    #[test]
    fn consensus_without_suspicions_is_a_no_op() {
        let out = run(3, NetworkModel::ideal(), |r| {
            let newly_dead = r.suspicion_consensus().expect("all alive");
            (newly_dead, r.epoch(), r.live_ranks().len())
        });
        for &(mask, epoch, nlive) in &out {
            assert_eq!(mask, 0);
            assert_eq!(epoch, 0);
            assert_eq!(nlive, 3);
        }
    }

    #[test]
    fn lone_straggler_evicts_itself() {
        // Rank 1 stalls for a thousand virtual seconds, so everything it
        // sends is late for ranks 0, 2, 3, which shrink without it, while
        // their messages are all on time for it. It finds itself alone
        // only when the survivors' tombstones end its next agreement, and
        // must then self-evict rather than fork the run (split-brain
        // guard).
        let out = run(4, NetworkModel::ideal(), |r| {
            if r.rank() == 1 {
                r.advance_vtime(1000.0);
                // Like the driver, keep cycling the agreement protocol
                // until the silence is conclusive.
                for _ in 0..4 {
                    let flag = r.agree_max(0.0);
                    if r.evicted().is_some() {
                        return true;
                    }
                    if flag >= SUSPECT_FLAG
                        && matches!(r.suspicion_consensus(), Err(CommError::Evicted { .. }))
                    {
                        return true;
                    }
                }
                return false;
            }
            let flag = r.agree_max(0.0);
            assert!(flag >= SUSPECT_FLAG);
            let newly_dead = r.suspicion_consensus().expect("majority side");
            assert_eq!(newly_dead, 1 << 1);
            // Survivors continue on the new epoch.
            let s = r.allreduce(&[1.0], |a, b| a + b)[0];
            assert_eq!(s, 3.0);
            true
        });
        assert!(out.iter().all(|&b| b), "straggler self-evicted: {out:?}");
    }

    #[test]
    fn inactive_plan_is_transparent() {
        let out = run_with_faults(2, NetworkModel::ideal(), Some(FaultPlan::disabled()), |r| {
            if r.rank() == 0 {
                r.send(1, 1, &[1.0, 2.0]);
                r.fault_injector().is_none()
            } else {
                r.recv(0, 1).len() == 2
            }
        });
        assert!(out.iter().all(|&b| b), "inactive plans attach no injector");
    }
}
