//! Tier-1 mirror of the comm crate's CPU-token pins, so that
//! `cargo test -q` on the umbrella package guards them: two ranks that
//! fit the host overlap their compute sections, a universe with more
//! ranks than cores runs one section at a time, and a section that
//! panics while holding the token does not hang its peers. The file runs
//! as it is (well under a second).

#[path = "../crates/comm/tests/cpu_token.rs"]
mod cpu_token;
