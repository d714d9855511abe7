//! Tier-1 mirror of the solver crate's recovery-ladder pins, so that
//! `cargo test -q` on the umbrella package guards them: the escalation
//! policy of `ladder::resilient_advance` on a mock state, and the
//! cheapest-tier-first restore ordering of the block driver's and the
//! distributed AMR driver's rungs over the shared memory-tier store.
//! The files run as they are (about ten seconds together).

#[path = "../crates/solver/tests/amr_tiers.rs"]
mod amr_tiers;
#[path = "../crates/solver/tests/ckp_tiers.rs"]
mod ckp_tiers;
#[path = "../crates/solver/tests/ladder_policy.rs"]
mod ladder_policy;
