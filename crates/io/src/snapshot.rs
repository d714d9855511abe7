//! Diskless checkpoint tier: in-memory snapshots and SDC scrubbing.
//!
//! FTI/SCR-style multi-level checkpointing keeps the cheapest restart
//! tiers entirely in memory: each rank holds a serialized snapshot of its
//! own state (L1) plus a *buddy replica* of a partner rank's snapshot
//! (L2), and only the last tier touches shared disk. Two integrity
//! primitives make the in-memory tiers trustworthy against silent data
//! corruption (SDC — bit flips that pass unnoticed through con2prim):
//!
//! * [`StateChecksum`] — an ABFT-style stamp over a live conserved array:
//!   a word-wise FNV-style hash of the raw f64 bits plus per-component
//!   conservation sums. Each update (xor the word in, then multiply by an
//!   odd prime) is injective in the word for a fixed state and bijective
//!   in the state for fixed words, so *any single flipped bit — in fact
//!   any single changed word — deterministically changes the hash*. The
//!   component sums add a physics-readable witness (which conserved
//!   quantity drifted) on top of the yes/no answer.
//! * [`MemorySnapshot`] — a frozen serialized checkpoint (any of the
//!   `rhrsc-io` formats) stamped with its FNV at capture time, so a scrub
//!   pass can re-verify the idle buffer long after it was written and a
//!   restore can refuse a rotted replica.
//!
//! [`crate::checkpoint::decode_trusted`] skips every integrity pass —
//! the bitwise whole-file CRC-32 (the disk tier's armor against torn
//! writes and media rot, and by far the slowest part of a decode) *and*
//! the record FNV: an in-memory snapshot that just passed
//! [`MemorySnapshot::verify`] has already had every byte re-hashed
//! against its capture stamp, which is what makes memory-tier restores an
//! order of magnitude cheaper than disk restores of the same state.

/// Word-wise FNV-style hash over the raw bit patterns of an f64 slice.
///
/// Classic FNV-1a absorbs one byte per xor-multiply round; here each
/// round absorbs a whole 64-bit word (the f64 bit pattern). Both halves
/// of the round are bijections — xor with a fixed word, multiplication
/// by an odd prime — so any single changed word deterministically
/// changes the hash, exactly the ABFT guarantee of the byte-wise
/// variant at one multiply per 8 bytes instead of eight. These stamps
/// never leave memory (they are not part of any serialized checkpoint
/// format), so the block width is a free choice — and it is what these
/// hashes cost that bounds both the per-step ABFT overhead and the
/// memory-tier restore latency.
pub fn fnv1a_f64(data: &[f64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &v in data {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Word-wise FNV-style hash over a byte slice (see [`fnv1a_f64`]); tail
/// bytes are zero-padded into one final word, which still distinguishes
/// any two same-length buffers differing only in the tail.
pub fn fnv1a_bytes(data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().unwrap());
        h = h.wrapping_mul(0x100000001b3);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(w);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// ABFT-style stamp of a live conserved array (component-major layout,
/// `len = ncomp * cells`): a word-wise FNV-style hash over the raw bits
/// plus one conservation sum per component. Stamped after every committed step and
/// verified before the next one touches the state, it turns a silent bit
/// flip into a detected, containable event.
#[derive(Debug, Clone, PartialEq)]
pub struct StateChecksum {
    /// Word-wise FNV-style hash over the raw f64 bits.
    pub fnv: u64,
    /// Plain left-to-right sum of each component's values (bitwise
    /// deterministic for a fixed layout).
    pub comp_sums: Vec<f64>,
    /// Element count the stamp was taken over.
    pub len: usize,
}

impl StateChecksum {
    /// Stamp `data` (component-major, `ncomp` equal chunks; a remainder
    /// is folded into the last component's sum).
    pub fn stamp(data: &[f64], ncomp: usize) -> Self {
        let ncomp = ncomp.max(1);
        let chunk = data.len() / ncomp;
        let mut comp_sums = vec![0.0f64; ncomp];
        if chunk > 0 {
            for (c, sum) in comp_sums.iter_mut().enumerate() {
                let hi = if c + 1 == ncomp {
                    data.len()
                } else {
                    (c + 1) * chunk
                };
                let mut s = 0.0f64;
                for &v in &data[c * chunk..hi] {
                    s += v;
                }
                *sum = s;
            }
        }
        StateChecksum {
            fnv: fnv1a_f64(data),
            comp_sums,
            len: data.len(),
        }
    }

    /// Does `data` still match this stamp? Any single bit flip anywhere
    /// in the array fails the FNV comparison (see the module docs for
    /// why detection is deterministic, not probabilistic).
    pub fn verify(&self, data: &[f64]) -> bool {
        data.len() == self.len && fnv1a_f64(data) == self.fnv
    }

    /// Index of the first component whose conservation sum no longer
    /// matches `data` bitwise — the physics-readable witness of *what*
    /// was corrupted. `None` when every sum still matches (possible even
    /// under corruption if the flip cancels in the sum; the FNV is the
    /// authoritative detector).
    pub fn corrupted_component(&self, data: &[f64]) -> Option<usize> {
        if data.len() != self.len {
            return Some(0);
        }
        let fresh = StateChecksum::stamp(data, self.comp_sums.len());
        self.comp_sums
            .iter()
            .zip(&fresh.comp_sums)
            .position(|(a, b)| a.to_bits() != b.to_bits())
    }
}

/// A frozen serialized checkpoint held in memory (the L1/L2 tiers),
/// stamped with its FNV at capture time so scrubs and restores can detect
/// bit rot in the idle buffer itself.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySnapshot {
    /// Step counter the snapshot was taken at.
    pub step: u64,
    /// Simulation time the snapshot was taken at.
    pub time: f64,
    bytes: Vec<u8>,
    fnv: u64,
}

impl MemorySnapshot {
    /// Freeze `bytes` (a serialized checkpoint) taken at `(step, time)`.
    pub fn new(step: u64, time: f64, bytes: Vec<u8>) -> Self {
        let fnv = fnv1a_bytes(&bytes);
        MemorySnapshot {
            step,
            time,
            bytes,
            fnv,
        }
    }

    /// Rebuild a snapshot from parts received over the network: the
    /// sender's stamp travels with the payload, so corruption in flight
    /// or in the replica buffer is caught by [`MemorySnapshot::verify`].
    pub fn from_parts(step: u64, time: f64, bytes: Vec<u8>, fnv: u64) -> Self {
        MemorySnapshot {
            step,
            time,
            bytes,
            fnv,
        }
    }

    /// The frozen serialized checkpoint.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The FNV stamped at capture time.
    pub fn fnv(&self) -> u64 {
        self.fnv
    }

    /// Size of the frozen buffer in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` when the frozen buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Scrub: does the buffer still hash to the stamp taken at capture?
    pub fn verify(&self) -> bool {
        fnv1a_bytes(&self.bytes) == self.fnv
    }

    /// Fault-injection hook: flip one bit of the frozen buffer, chosen by
    /// `selector` (bit index `selector % (len * 8)`). The stamp is *not*
    /// updated — that is the point: the scrubber must catch this.
    pub fn flip_bit(&mut self, selector: u64) {
        if self.bytes.is_empty() {
            return;
        }
        let bit = (selector % (self.bytes.len() as u64 * 8)) as usize;
        self.bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    #[test]
    fn stamp_matches_clean_data() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 1e3).collect();
        let s = StateChecksum::stamp(&data, 5);
        assert!(s.verify(&data));
        assert_eq!(s.corrupted_component(&data), None);
        assert_eq!(s.comp_sums.len(), 5);
    }

    #[test]
    fn any_single_bit_flip_in_small_array_is_detected() {
        // Exhaustive over every bit of a small array: the FNV must catch
        // all of them (injectivity under a single changed byte).
        let data: Vec<f64> = (0..12).map(|i| (i as f64 + 0.25) * 1.5e2).collect();
        let s = StateChecksum::stamp(&data, 3);
        for idx in 0..data.len() {
            for bit in 0..64 {
                let mut d = data.clone();
                d[idx] = f64::from_bits(d[idx].to_bits() ^ (1u64 << bit));
                assert!(
                    !s.verify(&d),
                    "flip of bit {bit} in element {idx} went undetected"
                );
            }
        }
    }

    #[test]
    fn corrupted_component_names_the_victim() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = StateChecksum::stamp(&data, 5);
        let mut d = data.clone();
        d[57] += 1.0; // component 2 (chunk 40..60)
        assert_eq!(s.corrupted_component(&d), Some(2));
    }

    #[test]
    fn snapshot_scrub_detects_buffer_rot() {
        let bytes: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut snap = MemorySnapshot::new(12, 0.5, bytes);
        assert!(snap.verify());
        snap.flip_bit(98765);
        assert!(!snap.verify(), "single flipped bit must fail the scrub");
    }

    #[test]
    fn seeded_flips_always_detected_and_clean_never_flagged() {
        // The scrub-correctness property at the primitive level: across
        // 1000 seeded trials, a single injected bit flip anywhere in the
        // array is detected, and the untouched array never false-positives.
        let data: Vec<f64> = (0..640).map(|i| ((i * i) as f64).cos() * 9.7e2).collect();
        let s = StateChecksum::stamp(&data, 5);
        for trial in 0..1000u64 {
            assert!(s.verify(&data), "clean data false-positived at {trial}");
            let sel = splitmix64(trial.wrapping_mul(0x9e3779b97f4a7c15));
            let idx = (sel % data.len() as u64) as usize;
            let bit = ((sel >> 32) % 64) as u32;
            let mut d = data.clone();
            d[idx] = f64::from_bits(d[idx].to_bits() ^ (1u64 << bit));
            assert!(!s.verify(&d), "trial {trial}: flip went undetected");
        }
    }

    #[test]
    fn from_parts_round_trips_the_stamp() {
        let bytes: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let a = MemorySnapshot::new(3, 1.25, bytes.clone());
        let b = MemorySnapshot::from_parts(3, 1.25, bytes, a.fnv());
        assert_eq!(a, b);
        assert!(b.verify());
    }
}
