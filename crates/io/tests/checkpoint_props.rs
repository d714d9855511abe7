//! Deterministic property tests for the one checkpoint decoder, run over
//! block images (blocks on any level) and multi-level AMR images.
//!
//! No proptest/quickcheck dependency: a seeded xorshift generator drives
//! many randomized checkpoints through encode → decode, asserting exact
//! IEEE-754 bit round-trips (including negative zero and NaN payloads),
//! and that *every* single-byte flip and *every* truncation of an
//! encoded image is rejected with the documented error class. A memory
//! image (`encode_trusted`) is the disk image with its footer zeroed.

use rhrsc_io::checkpoint::{
    decode, decode_trusted, encode, encode_trusted, AmrCheckpoint, AmrPatchRecord, BlockRecord,
    CheckpointError, GlobalCheckpoint,
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

/// A random block image: up to five blocks, each on a random level;
/// with `nonempty`, the first holds data, so cuts inside a record exist.
fn arbitrary_blocks(rng: &mut XorShift, nonempty: bool) -> GlobalCheckpoint {
    let ncomp = rng.ncomp();
    let nblocks = rng.below(5) as usize + nonempty as usize;
    let blocks = (0..nblocks)
        .map(|i| {
            let lo = (i == 0 && nonempty) as u64;
            let size =
                [lo + rng.below(6), lo + rng.below(4), lo + rng.below(3)].map(|n| n as usize);
            BlockRecord {
                id: rng.next() as u32,
                level: if rng.below(2) == 0 {
                    0
                } else {
                    rng.next() as u32
                },
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
        global_n: [rng.below(1 << 16), rng.below(1 << 16), rng.below(1 << 16)].map(|n| n as usize),
        ncomp,
        blocks,
    }
}

/// A random AMR hierarchy on up to five levels; with `nonempty`, one
/// patch is guaranteed to hold data.
fn arbitrary_amr(rng: &mut XorShift, nonempty: bool) -> AmrCheckpoint {
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

/// One image of each kind the generator draws.
fn arbitrary_images(rng: &mut XorShift, nonempty: bool) -> [GlobalCheckpoint; 2] {
    [
        arbitrary_blocks(rng, nonempty),
        arbitrary_amr(rng, nonempty).into_image(),
    ]
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

/// A hierarchy through its image, the encoder and the decoder, and back.
fn amr_roundtrip(ckp: &AmrCheckpoint) -> AmrCheckpoint {
    let bytes = encode(&ckp.clone().into_image());
    let img = decode(&bytes).expect("fresh encoding must decode");
    AmrCheckpoint::from_image(img).expect("an AMR image is 1D")
}

/// The encoder writes every field of a checkpoint in full, so a decoded
/// value that re-encodes to the same image carries every bit of the
/// original — NaN payloads and zero signs included, which `==` on the
/// structs could not compare.
#[test]
fn roundtrip_preserves_every_bit() {
    let mut rng = XorShift::new(0x5eed_c0de);
    for _ in 0..64 {
        for ckp in arbitrary_images(&mut rng, false) {
            let bytes = encode(&ckp);
            let decoded = decode(&bytes).expect("fresh encoding must decode");
            assert_eq!(encode(&decoded), bytes);
        }
    }
}

#[test]
fn amr_roundtrip_preserves_every_bit() {
    let mut rng = XorShift::new(0x5eed_c0de);
    for _ in 0..64 {
        let ckp = arbitrary_amr(&mut rng, false);
        assert_bit_equal(&ckp, &amr_roundtrip(&ckp));
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
        assert_bit_equal(&ckp, &amr_roundtrip(&ckp));
    }
}

#[test]
fn every_single_byte_flip_is_rejected() {
    let mut rng = XorShift::new(0xbad_f1a6);
    for (k, ckp) in arbitrary_images(&mut rng, true).iter().enumerate() {
        let bytes = encode(ckp);
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xff;
            let err = decode(&bad)
                .err()
                .unwrap_or_else(|| panic!("image {k}: flip at byte {pos} accepted"));
            // Flips in the magic/version prefix fail structurally;
            // everything after that is caught by the whole-file CRC.
            match pos {
                0..=11 => assert!(
                    matches!(err, CheckpointError::Format(_)),
                    "image {k} byte {pos}: expected Format, got {err:?}"
                ),
                _ => assert!(
                    matches!(err, CheckpointError::Corrupt),
                    "image {k} byte {pos}: expected Corrupt, got {err:?}"
                ),
            }
        }
    }
}

#[test]
fn every_truncation_is_rejected() {
    let mut rng = XorShift::new(0x7121_4c47);
    for (k, ckp) in arbitrary_images(&mut rng, true).iter().enumerate() {
        let bytes = encode(ckp);
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "image {k}: prefix of {len}/{} bytes accepted",
                bytes.len()
            );
        }
    }
}

#[test]
fn foreign_magic_and_future_version_are_format_errors() {
    for ckp in arbitrary_images(&mut XorShift::new(9), false) {
        let bytes = encode(&ckp);

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode(&wrong_magic),
            Err(CheckpointError::Format(_))
        ));

        // Bump the version field and re-stamp nothing else: must be
        // refused as unsupported, not misparsed.
        let mut future = bytes.clone();
        future[8] = future[8].wrapping_add(1);
        assert!(matches!(
            decode(&future),
            Err(CheckpointError::Format(m)) if m.contains("version")
        ));

        assert!(decode(&[]).is_err());
        assert!(decode(b"not a checkpoint at all").is_err());
    }
}

/// The memory tier's pair reads back every bit: the trusted decoder's
/// image re-encodes to the same bytes (NaN payloads and zero signs
/// included), and a hierarchy comes back bit for bit.
#[test]
fn memory_images_roundtrip_every_bit() {
    let mut rng = XorShift::new(0x6d65_6d0f);
    for _ in 0..64 {
        for ckp in arbitrary_images(&mut rng, false) {
            let bytes = encode_trusted(&ckp);
            let back = decode_trusted(&bytes).expect("a memory image must parse");
            assert_eq!(encode_trusted(&back), bytes);
        }
        let amr = arbitrary_amr(&mut rng, false);
        let img = decode_trusted(&encode_trusted(&amr.clone().into_image())).unwrap();
        assert_bit_equal(&amr, &AmrCheckpoint::from_image(img).unwrap());
    }
}

/// A memory image is the disk image with the 12-byte footer (record FNV
/// and CRC-32) zeroed: every byte ahead of it and the length are the
/// same, so every shipped byte count is the disk image's.
#[test]
fn memory_images_equal_disk_images_outside_the_footer() {
    let mut rng = XorShift::new(0x00f0_07e2);
    for _ in 0..64 {
        for ckp in arbitrary_images(&mut rng, false) {
            let (memory, disk) = (encode_trusted(&ckp), encode(&ckp));
            assert_eq!(memory.len(), disk.len());
            let body = memory.len() - 12;
            assert_eq!(memory[..body], disk[..body]);
            assert_eq!(memory[body..], [0u8; 12]);
        }
    }
}

/// The full decoder does not take a memory image for a disk one: its
/// zeroed armor fails the CRC.
#[test]
fn full_decoder_refuses_memory_images() {
    let mut rng = XorShift::new(0x00a2_3012);
    for _ in 0..64 {
        for ckp in arbitrary_images(&mut rng, false) {
            assert!(matches!(
                decode(&encode_trusted(&ckp)),
                Err(CheckpointError::Corrupt)
            ));
        }
    }
}
