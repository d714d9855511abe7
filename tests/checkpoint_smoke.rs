//! Tier-1 mirror of the io crate's checkpoint codec properties and
//! memory-stamp pins, so that `cargo test -q` on the umbrella package
//! guards them: bit-exact round trips, every single-byte flip and every
//! truncation rejected with the documented error class, for block images
//! and multi-level AMR images; memory images equal to disk images outside
//! their zeroed footer; and every single-bit flip caught by the in-memory
//! stamps. The file runs as it is (about two seconds).

#[path = "../crates/io/tests/checkpoint_props.rs"]
mod checkpoint_props;

#[path = "../crates/io/tests/memory_stamps.rs"]
mod memory_stamps;
