//! Tier-1 mirror of the runtime crate's integrity-hash known answers, so
//! that `cargo test -q` on the umbrella package guards the CRC-32 and
//! FNV-1a values every disk image, halo trailer and cache key depends on.

#[path = "../crates/runtime/tests/hash_answers.rs"]
mod hash_answers;
