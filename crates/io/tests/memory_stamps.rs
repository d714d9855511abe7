//! Exhaustive single-bit-flip pins for the in-memory stamps' eight-lane
//! hash: every flip of every bit fails `StateChecksum::verify` and
//! `MemorySnapshot::verify`, for lengths that leave every lane partly
//! filled, and `corrupted_component` names the component the flip landed
//! in.

use rhrsc_io::{MemorySnapshot, StateChecksum};

/// Lengths 0..=17 cover the empty array, every partial lane and two
/// whole rounds of eight, and `ncomp` 1..=5 puts component boundaries at
/// every lane offset (with `len < ncomp` every value is the last
/// component's remainder). The values are subnormal integers
/// (`from_bits(3k + 1)`), so every partial sum and its fold is exact and
/// a flip of any bit moves the sum of the component it lands in.
#[test]
fn every_bit_flip_fails_the_lane_stamp_and_names_its_component() {
    for len in 0..=17usize {
        let data: Vec<f64> = (0..len as u64).map(|k| f64::from_bits(3 * k + 1)).collect();
        for ncomp in 1..=5usize {
            let stamp = StateChecksum::stamp(&data, ncomp);
            assert!(stamp.verify(&data), "len {len}, ncomp {ncomp}: clean data");
            assert_eq!(stamp.corrupted_component(&data), None);
            let chunk = len / ncomp;
            for idx in 0..len {
                let comp = (idx.checked_div(chunk).unwrap_or(ncomp)).min(ncomp - 1);
                for bit in 0..64 {
                    let mut d = data.clone();
                    d[idx] = f64::from_bits(d[idx].to_bits() ^ (1u64 << bit));
                    let at = format!("len {len}, ncomp {ncomp}, value {idx}, bit {bit}");
                    assert!(!stamp.verify(&d), "{at}: flip went undetected");
                    assert_eq!(stamp.corrupted_component(&d), Some(comp), "{at}");
                }
            }
        }
    }
}

/// A snapshot's bytes are hashed as little-endian words, eight lanes of
/// them per round, with the tail zero-padded into one last word: lengths
/// up to two rounds and a ragged tail, every bit of each.
#[test]
fn every_bit_flip_fails_the_snapshot_scrub() {
    for len in 0..=136usize {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 29 + 7) as u8).collect();
        let snap = MemorySnapshot::new(5, 0.25, bytes);
        assert!(snap.verify(), "len {len}: clean buffer");
        for bit in 0..len as u64 * 8 {
            let mut rotted = snap.clone();
            rotted.flip_bit(bit);
            assert!(
                !rotted.verify(),
                "len {len}: flip of bit {bit} went undetected"
            );
        }
    }
}
