//! Simulated distributed-memory communication layer.
//!
//! The paper runs on an MPI/HPX cluster; this crate provides the closest
//! single-machine equivalent: *ranks are OS threads* exchanging typed
//! messages over channels, with an injectable [`NetworkModel`] that charges
//! per-message latency and per-byte bandwidth cost. Because the cost is
//! charged as a *delivery timestamp* (not by blocking the sender), posting
//! sends early and computing before receiving genuinely hides network
//! latency — which is exactly what the communication/computation-overlap
//! experiment (F7) measures.
//!
//! * [`run`] — SPMD entry point: spawns `n` ranks and runs the same
//!   closure on each,
//! * [`Rank`] — per-rank handle: tagged `send`/`recv` with out-of-order
//!   matching, barrier, and allreduce (min/max/sum) collectives.

pub mod rank;

pub use rank::{
    host_cores, run, run_with_faults, CommError, NetworkModel, Rank, AMR_DESCEND_TAG_BASE,
    AMR_REFLUX_TAG_BASE, AMR_REGRID_TAG, AMR_SYNC_TAG_BASE, BUDDY_CKP_TAG, BUDDY_RESTORE_TAG,
    BUDDY_SHRINK_TAG, SUSPECT_FLAG, TELEMETRY_TAG,
};
pub use rhrsc_runtime::fault::{FaultInjector, FaultPlan, FaultStats};
