//! Tier-1 mirror of the comm crate's message-path pins, so that
//! `cargo test -q` on the umbrella package guards them (`rank.rs`'s unit
//! tests run under `cargo test --workspace` only): the one collective
//! tree against the serial fold for 1–9 ranks, a dead rank at every
//! position, a damaged payload through both receives, and a stale-epoch
//! message after a shrink. The file runs as it is (about five seconds).

#[path = "../crates/comm/tests/message_path.rs"]
mod message_path;
