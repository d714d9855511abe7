//! Deterministic property tests for the checkpoint codec, run over all
//! three formats (v2 per-rank, v3 global, v4 AMR) of the shared envelope.
//!
//! No proptest/quickcheck dependency: a seeded xorshift generator drives
//! many randomized checkpoints through encode → decode, asserting exact
//! IEEE-754 bit round-trips (including negative zero and NaN payloads),
//! and that *every* single-byte flip and *every* truncation of an
//! encoded image is rejected with the documented error class.

use rhrsc_grid::{Field, PatchGeom};
use rhrsc_io::checkpoint::{
    decode, encode, AmrCheckpoint, AmrPatchRecord, BlockRecord, Checkpoint, CheckpointError,
    CheckpointFormat, GlobalCheckpoint,
};

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Adversarial f64 mix: zeros of both signs, subnormals, huge
    /// magnitudes, NaN payloads, and ordinary values.
    fn f64(&mut self) -> f64 {
        let u = self.next();
        match u % 10 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(u >> 12), // subnormal
            3 => 1e300 * ((u % 7) as f64 - 3.0),
            4 => f64::from_bits(0x7ff8_0000_0000_0000 | (u >> 32)), // NaN payload
            5 => f64::INFINITY,
            _ => (u as f64 / u64::MAX as f64) * 2e3 - 1e3,
        }
    }

    fn f64s(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.f64()).collect()
    }

    fn ncomp(&mut self) -> usize {
        if self.below(4) == 0 {
            1 + self.below(8) as usize
        } else {
            5
        }
    }
}

/// A format the generator can draw from.
trait Arbitrary: CheckpointFormat {
    /// A random checkpoint; with `nonempty`, one whose record section is
    /// guaranteed to hold data, so cuts inside a record exist.
    fn arbitrary(rng: &mut XorShift, nonempty: bool) -> Self;
}

impl Arbitrary for Checkpoint {
    fn arbitrary(rng: &mut XorShift, _nonempty: bool) -> Self {
        // A field always has cells; degenerate axes carry no ghosts. Kept
        // small: the flip test decodes the image once per byte.
        let n = [1 + rng.below(4), 1 + rng.below(3), 1 + rng.below(2)].map(|n| n as usize);
        let geom = PatchGeom {
            n,
            ng: rng.below(2) as usize,
            origin: [rng.f64(), rng.f64(), rng.f64()],
            dx: [rng.f64(), rng.f64(), rng.f64()],
        };
        let ncomp = rng.ncomp();
        Checkpoint {
            time: rng.f64(),
            step: rng.next(),
            field: Field::from_vec(geom, ncomp, rng.f64s(ncomp * geom.len())),
        }
    }
}

impl Arbitrary for GlobalCheckpoint {
    fn arbitrary(rng: &mut XorShift, nonempty: bool) -> Self {
        let ncomp = rng.ncomp();
        let nblocks = rng.below(5) as usize + nonempty as usize;
        let blocks = (0..nblocks)
            .map(|i| {
                let lo = (i == 0 && nonempty) as u64;
                let size =
                    [lo + rng.below(6), lo + rng.below(4), lo + rng.below(3)].map(|n| n as usize);
                BlockRecord {
                    id: rng.next(),
                    offset: [rng.below(1 << 20), rng.below(1 << 20), rng.below(1 << 20)]
                        .map(|o| o as usize),
                    size,
                    data: rng.f64s(ncomp * size[0] * size[1] * size[2]),
                }
            })
            .collect();
        GlobalCheckpoint {
            time: rng.f64(),
            step: rng.next(),
            global_n: [rng.below(1 << 16), rng.below(1 << 16), rng.below(1 << 16)]
                .map(|n| n as usize),
            ncomp,
            blocks,
        }
    }
}

impl Arbitrary for AmrCheckpoint {
    fn arbitrary(rng: &mut XorShift, nonempty: bool) -> Self {
        let ncomp = rng.ncomp();
        let npatches = rng.below(6) as usize;
        let mut patches: Vec<_> = (0..npatches)
            .map(|_| {
                let n = rng.below(40);
                AmrPatchRecord {
                    level: rng.below(5) as u32,
                    lo: rng.below(1 << 20),
                    n,
                    data: rng.f64s(ncomp * n as usize),
                }
            })
            .collect();
        if nonempty {
            patches.push(AmrPatchRecord {
                level: 1,
                lo: 4,
                n: 8,
                data: vec![1.25; 8 * ncomp],
            });
        }
        AmrCheckpoint {
            time: rng.f64(),
            step: rng.next(),
            n0: 16 + rng.below(1 << 16),
            ncomp,
            patches,
        }
    }
}

/// Run `$body::<R>()` for the three formats.
macro_rules! for_each_format {
    ($body:ident) => {
        $body::<Checkpoint>();
        $body::<GlobalCheckpoint>();
        $body::<AmrCheckpoint>();
    };
}

fn assert_bit_equal(a: &AmrCheckpoint, b: &AmrCheckpoint) {
    assert_eq!(a.time.to_bits(), b.time.to_bits());
    assert_eq!(a.step, b.step);
    assert_eq!(a.n0, b.n0);
    assert_eq!(a.ncomp, b.ncomp);
    assert_eq!(a.patches.len(), b.patches.len());
    for (pa, pb) in a.patches.iter().zip(&b.patches) {
        assert_eq!((pa.level, pa.lo, pa.n), (pb.level, pb.lo, pb.n));
        assert_eq!(pa.data.len(), pb.data.len());
        for (va, vb) in pa.data.iter().zip(&pb.data) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }
}

/// The encoder writes every field of a checkpoint in full, so a decoded
/// value that re-encodes to the same image carries every bit of the
/// original — NaN payloads and zero signs included, which `==` on the
/// structs could not compare.
#[test]
fn roundtrip_preserves_every_bit() {
    fn body<R: Arbitrary>() {
        let mut rng = XorShift::new(0x5eed_c0de);
        for _ in 0..64 {
            let bytes = encode(&R::arbitrary(&mut rng, false));
            let decoded: R = decode(&bytes).expect("fresh encoding must decode");
            assert_eq!(encode(&decoded), bytes, "v{}", R::VERSION);
        }
    }
    for_each_format!(body);
}

#[test]
fn amr_roundtrip_preserves_every_bit() {
    let mut rng = XorShift::new(0x5eed_c0de);
    for _ in 0..64 {
        let ckp = AmrCheckpoint::arbitrary(&mut rng, false);
        let decoded = decode(&encode(&ckp)).expect("fresh encoding must decode");
        assert_bit_equal(&ckp, &decoded);
    }
}

#[test]
fn amr_roundtrip_handles_degenerate_hierarchies() {
    // Zero patches, and patches with zero interior cells.
    for ckp in [
        AmrCheckpoint {
            time: -0.0,
            step: 0,
            n0: 1,
            ncomp: 5,
            patches: vec![],
        },
        AmrCheckpoint {
            time: 3.5,
            step: u64::MAX,
            n0: 2,
            ncomp: 5,
            patches: vec![AmrPatchRecord {
                level: 7,
                lo: 0,
                n: 0,
                data: vec![],
            }],
        },
    ] {
        let decoded = decode(&encode(&ckp)).unwrap();
        assert_bit_equal(&ckp, &decoded);
    }
}

#[test]
fn every_single_byte_flip_is_rejected() {
    fn body<R: Arbitrary>() {
        let mut rng = XorShift::new(0xbad_f1a6);
        let bytes = encode(&R::arbitrary(&mut rng, true));
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xff;
            let err = decode::<R>(&bad)
                .err()
                .unwrap_or_else(|| panic!("v{}: flip at byte {pos} accepted", R::VERSION));
            // Flips in the magic/version prefix fail structurally;
            // everything after that is caught by the whole-file CRC.
            match pos {
                0..=11 => assert!(
                    matches!(err, CheckpointError::Format(_)),
                    "v{} byte {pos}: expected Format, got {err:?}",
                    R::VERSION
                ),
                _ => assert!(
                    matches!(err, CheckpointError::Corrupt),
                    "v{} byte {pos}: expected Corrupt, got {err:?}",
                    R::VERSION
                ),
            }
        }
    }
    for_each_format!(body);
}

#[test]
fn every_truncation_is_rejected() {
    fn body<R: Arbitrary>() {
        let mut rng = XorShift::new(0x7121_4c47);
        let bytes = encode(&R::arbitrary(&mut rng, true));
        for len in 0..bytes.len() {
            assert!(
                decode::<R>(&bytes[..len]).is_err(),
                "v{}: prefix of {len}/{} bytes accepted",
                R::VERSION,
                bytes.len()
            );
        }
    }
    for_each_format!(body);
}

#[test]
fn foreign_magic_and_future_version_are_format_errors() {
    fn body<R: Arbitrary>() {
        let bytes = encode(&R::arbitrary(&mut XorShift::new(9), false));

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode::<R>(&wrong_magic),
            Err(CheckpointError::Format(_))
        ));

        // Bump the version field and re-stamp nothing else: must be
        // refused as unsupported, not misparsed.
        let mut future = bytes.clone();
        future[8] = future[8].wrapping_add(1);
        assert!(matches!(
            decode::<R>(&future),
            Err(CheckpointError::Format(m)) if m.contains("version")
        ));

        assert!(decode::<R>(&[]).is_err());
        assert!(decode::<R>(b"not a checkpoint at all").is_err());
    }
    for_each_format!(body);
}
