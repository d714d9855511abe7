//! Tier-1 mirror of the io crate's checkpoint codec properties, so that
//! `cargo test -q` on the umbrella package guards them: bit-exact round
//! trips, every single-byte flip and every truncation rejected with the
//! documented error class, for all three formats of the shared envelope.
//! The file runs as it is (about two seconds).

#[path = "../crates/io/tests/checkpoint_props.rs"]
mod checkpoint_props;
