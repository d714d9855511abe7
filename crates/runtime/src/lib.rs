//! HPX-inspired heterogeneous task runtime.
//!
//! The CLUSTER-2015-era execution model this reproduces pairs a futurized
//! task runtime with heterogeneous executors (host cores + accelerators).
//! This crate provides that substrate in pure Rust:
//!
//! * [`future`] — single-assignment promise/future pairs for dependency
//!   expression (the "futurization" primitive),
//! * [`pool`] — a work-stealing thread pool built on `crossbeam-deque`,
//! * [`device`] — a *simulated accelerator*: a command-queue device with
//!   explicit device buffers, host↔device copies, modeled kernel-launch
//!   latency, and an internal compute gang. It executes real kernels, so
//!   results are bit-identical to the host path while the performance
//!   envelope (launch overhead vs. throughput) matches an offload device,
//! * [`sched`] — static and throughput-weighted planners across
//!   heterogeneous executors,
//! * [`metrics`] — dependency-free counters, log-bucketed histograms and
//!   RAII phase timers shared across the stack for phase-resolved
//!   profiling (see DESIGN.md "Observability"),
//! * [`hash`] — the integrity hashes every layer shares: CRC-32 for the
//!   halo trailers and the disk checkpoint footer, FNV-1a for the
//!   checkpoint records, the state digests and stamps and the serve cache
//!   keys,
//! * [`trace`] — a span-based flight recorder (fixed-capacity per-track
//!   ring buffers) with Chrome/Perfetto `trace.json` export (see
//!   DESIGN.md "Tracing & flight recorder"),
//! * [`telemetry`] — cadenced delta sampling of the metrics registry
//!   into bounded time-series rings, with a fault/recovery event log,
//!   anomaly watchdogs and pluggable streaming sinks (see DESIGN.md
//!   "Telemetry & regression sentinel").

pub mod device;
pub mod fault;
pub mod future;
pub mod hash;
pub mod metrics;
pub mod pool;
pub mod sched;
pub mod telemetry;
pub mod trace;

pub use device::{Accelerator, AcceleratorConfig, BufId};
pub use fault::{FaultInjector, FaultPlan, FaultStats, RankSite, SnapshotTarget};
pub use future::{promise, Future, Promise};
pub use metrics::{Counter, HistSnapshot, Histogram, PhaseTimer, Registry, Snapshot};
pub use pool::{global_queue_depth, panic_msg, WorkStealingPool};
pub use sched::{plan_static, plan_weighted};
pub use telemetry::{
    SampleInputs, SeriesSample, Telemetry, TelemetryConfig, TelemetryEvent, TelemetrySampler,
    TelemetrySink,
};
pub use trace::{Tracer, Track};

use std::time::{Duration, Instant};

/// Busy-wait for `d` (used to model launch latencies and network delays
/// without yielding the core, mimicking a polling runtime).
pub fn spin_for(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}
