//! Output writers and checkpoint/restart for the HRSC solver.
//!
//! * [`vtk`] — legacy-ASCII VTK `STRUCTURED_POINTS` writer (loads directly
//!   into ParaView/VisIt) for any set of field components,
//! * [`image`] — false-color PPM images of 2D field slices, for quick
//!   looks without a plotting stack,
//! * [`checkpoint`] — one little-endian binary checkpoint format in a
//!   CRC-armored envelope: the solver state as level-tagged block records
//!   in global index space (a block driver's blocks, an AMR hierarchy's
//!   patches, or one patch's interior), with exact round-trip: a
//!   restarted run continues **bit-identically** (asserted by the
//!   integration tests),
//! * [`snapshot`] — the diskless checkpoint tiers: FNV-stamped in-memory
//!   snapshot buffers (local + buddy replica) and ABFT state checksums
//!   for silent-data-corruption scrubbing,
//! * [`telemetry`] — file sinks for the runtime telemetry hub: an
//!   atomically-rewritten OpenMetrics textfile and a streaming JSONL
//!   record of samples and lifecycle events.

pub mod checkpoint;
pub mod image;
pub mod snapshot;
pub mod telemetry;
pub mod vtk;

pub use checkpoint::{
    load_checkpoint, save_checkpoint, AmrCheckpoint, AmrPatchRecord, BlockRecord, CheckpointError,
    CheckpointSlots, GlobalCheckpoint,
};
pub use snapshot::{MemorySnapshot, StateChecksum};
pub use telemetry::FileSinks;
