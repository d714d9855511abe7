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
//!   an eight-lane word hash of the raw f64 bits plus per-component
//!   conservation sums, taken in one pass. Each lane update (xor the word
//!   in, then multiply by an odd prime) is injective in the word for a
//!   fixed lane and bijective in the lane for fixed words, and the final
//!   fold of the lanes is a bijection in each lane, so *any single
//!   flipped bit — in fact any single changed word — deterministically
//!   changes the hash*. The component sums add a physics-readable
//!   witness (which conserved quantity drifted) on top of the yes/no
//!   answer.
//! * [`MemorySnapshot`] — a frozen serialized checkpoint (as
//!   [`crate::checkpoint::encode_trusted`] writes it) stamped with the
//!   same lane hash at capture time, so a scrub pass can re-verify the
//!   idle buffer long after it was written and a restore can refuse a
//!   rotted replica.
//!
//! That stamp is the only armor a memory image carries, because it is the
//! only one read: [`crate::checkpoint::encode_trusted`] leaves the disk
//! format's record FNV and whole-file CRC-32 zeroed, and
//! [`crate::checkpoint::decode_trusted`] checks neither. A snapshot that
//! has just passed [`MemorySnapshot::verify`] has had every byte,
//! header included, re-hashed against its capture stamp, so either disk
//! pass would verify the same bits again. That is what makes memory-tier
//! saves and restores an order of magnitude cheaper than disk ones of the
//! same state.

use rhrsc_runtime::hash::{fnv_round, FNV_OFFSET};

/// Independent chains of [`LaneHash`].
const LANES: usize = 8;

/// Add a round of eight words into the eight partial sums.
#[inline(always)]
fn add(sums: &mut [f64; LANES], round: &[f64]) {
    for (s, v) in sums.iter_mut().zip(round) {
        *s += v;
    }
}

/// Word-wise FNV-style hash over the raw bit patterns of an f64 slice.
///
/// Classic FNV-1a absorbs one byte per xor-multiply round; here each
/// round absorbs a whole 64-bit word (the f64 bit pattern), so any single
/// changed word deterministically changes the hash. It is one serial
/// chain, and the golden state digests are taken with it; the in-memory
/// stamps use the eight-lane form of the same round.
pub fn fnv1a_f64(data: &[f64]) -> u64 {
    data.iter().map(|v| v.to_bits()).fold(FNV_OFFSET, fnv_round)
}

/// The in-memory stamps' hash. Word `i` goes into lane `i mod 8` with
/// [`fnv_round`]; [`LaneHash::finish`] folds the lanes in order, then the
/// length, with the same round. A changed word changes its own lane, and
/// the fold is a bijection in each lane for the others fixed, so any
/// single changed word still changes the hash deterministically — the
/// guarantee of [`fnv1a_f64`], with eight multiplies in flight instead of
/// one. The stamps never leave memory, so the lane count is a free
/// choice. Every lane is indexed by a constant, so the eight chains stay
/// in registers.
struct LaneHash([u64; LANES]);

impl LaneHash {
    fn new() -> Self {
        LaneHash([FNV_OFFSET; LANES])
    }

    /// Absorb `words` as words `at..at + words.len()` of the hash, all in
    /// one round of eight (`at mod 8 + words.len() <= 8`), and add word
    /// `i` into `sums[i mod 8]` when `SUM`.
    #[inline(always)]
    fn part<const SUM: bool>(&mut self, at: usize, words: &[f64], sums: &mut [f64; LANES]) {
        let first = at % LANES;
        for (j, (h, s)) in self.0.iter_mut().zip(sums.iter_mut()).enumerate() {
            if let Some(&v) = j.checked_sub(first).and_then(|k| words.get(k)) {
                *h = fnv_round(*h, v.to_bits());
                if SUM {
                    *s += v;
                }
            }
        }
    }

    /// Absorb `data[lo..hi]` as words `lo..hi` of the hash and, when
    /// `SUM`, add word `i` into `sums[i mod 8]`. Whole round `r` is
    /// hashed while round `r - 1` is summed: summing the round just
    /// loaded tips the vectorizer into emulating the 64-bit multiply,
    /// which made the stamp 1.3x slower than the hash alone.
    #[inline(always)]
    fn span<const SUM: bool>(
        &mut self,
        data: &[f64],
        lo: usize,
        hi: usize,
        sums: &mut [f64; LANES],
    ) {
        let head = lo.next_multiple_of(LANES).min(hi);
        let tail = hi - (hi - head) % LANES;
        self.part::<SUM>(lo, &data[lo..head], sums);
        let body = &data[head..tail];
        let n = body.len() / LANES;
        for r in 0..n {
            let b = &body[r * LANES..r * LANES + LANES];
            for (h, v) in self.0.iter_mut().zip(b) {
                *h = fnv_round(*h, v.to_bits());
            }
            if SUM && r > 0 {
                add(sums, &body[(r - 1) * LANES..r * LANES]);
            }
        }
        if SUM && n > 0 {
            add(sums, &body[(n - 1) * LANES..]);
        }
        self.part::<SUM>(tail, &data[tail..hi], sums);
    }

    /// Fold the lanes, then the length `len`, into one word.
    fn finish(&self, len: usize) -> u64 {
        let lanes = self.0.iter().fold(FNV_OFFSET, |h, &l| fnv_round(h, l));
        fnv_round(lanes, len as u64)
    }

    /// The hash of a byte slice read as little-endian words, the tail
    /// zero-padded into one last word; the byte length is folded in, so
    /// two buffers that pad to the same words still differ.
    fn of_bytes(data: &[u8]) -> u64 {
        let mut h = LaneHash::new();
        let mut rounds = data.chunks_exact(8 * LANES);
        for b in &mut rounds {
            for j in 0..LANES {
                let w = u64::from_le_bytes(b[8 * j..8 * j + 8].try_into().unwrap());
                h.0[j] = fnv_round(h.0[j], w);
            }
        }
        for (l, c) in h.0.iter_mut().zip(rounds.remainder().chunks(8)) {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            *l = fnv_round(*l, u64::from_le_bytes(w));
        }
        h.finish(data.len())
    }
}

/// ABFT-style stamp of a live conserved array (component-major layout,
/// `len = ncomp * cells`): the eight-lane word hash of the raw bits plus
/// one conservation sum per component, taken in one pass. Stamped after
/// every committed step and verified before the next one touches the
/// state, it turns a silent bit flip into a detected, containable event.
#[derive(Debug, Clone, PartialEq)]
pub struct StateChecksum {
    /// Eight-lane word hash over the raw f64 bits.
    pub fnv: u64,
    /// Each component's values summed into eight partial sums (value `i`
    /// into sum `i mod 8`, left to right), which are then added in order:
    /// bitwise deterministic for a fixed layout.
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
        let mut h = LaneHash::new();
        let mut comp_sums = Vec::with_capacity(ncomp);
        for c in 0..ncomp {
            let hi = if c + 1 == ncomp {
                data.len()
            } else {
                (c + 1) * chunk
            };
            let mut sums = [0.0f64; LANES];
            h.span::<true>(data, c * chunk, hi, &mut sums);
            comp_sums.push(sums.iter().fold(0.0, |a, s| a + s));
        }
        StateChecksum {
            fnv: h.finish(data.len()),
            comp_sums,
            len: data.len(),
        }
    }

    /// Does `data` still match this stamp? Any single bit flip anywhere
    /// in the array fails the hash comparison (see the module docs for
    /// why detection is deterministic, not probabilistic).
    pub fn verify(&self, data: &[f64]) -> bool {
        let mut h = LaneHash::new();
        h.span::<false>(data, 0, data.len(), &mut [0.0; LANES]);
        data.len() == self.len && h.finish(data.len()) == self.fnv
    }

    /// Index of the first component whose conservation sum no longer
    /// matches `data` bitwise — the physics-readable witness of *what*
    /// was corrupted. `None` when every sum still matches (possible even
    /// under corruption if rounding absorbs the flip; the hash is the
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
/// stamped with its lane hash at capture time so scrubs and restores can detect
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
        let fnv = LaneHash::of_bytes(&bytes);
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

    /// The lane hash stamped at capture time.
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
        LaneHash::of_bytes(&self.bytes) == self.fnv
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
