//! The integrity hashes of every layer, spelled once.
//!
//! * CRC-32 (IEEE polynomial, reflected, pre- and post-inverted) over
//!   bytes — the disk checkpoint's whole-file footer — and over `f64`
//!   words — the trailer of every halo payload. A word's `to_bits` is its
//!   little-endian bytes, so [`crc32_f64s`] of a slice equals [`crc32`] of
//!   its bytes. Both run slicing-by-8: eight table lookups per eight-byte
//!   step, none of them waiting on the previous byte's.
//! * FNV-1a-64: its offset basis, its xor-then-multiply [`fnv_round`],
//!   and [`Fnv1a`], the byte-stream hasher behind the checkpoint record
//!   checksum and the serve cache keys. The word-wise digests and the
//!   in-memory stamps of `rhrsc-io::snapshot` absorb a whole `f64` word
//!   per round of the same step.
//!
//! None of these is cryptographic: they catch accidents (bit flips, torn
//! writes, truncated messages), not adversaries.

/// `CRC_TABLES[k][b]` is the CRC-32 register (no pre- or post-inversion)
/// after byte `b` and then `k` zero bytes, each byte eight bitwise steps.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        let mut crc = if k == 0 { b as u32 } else { t[k - 1][b] };
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb88320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[k][b] = crc;
        i += 1;
    }
    t
}

/// One slicing-by-8 step: the register after the eight little-endian
/// bytes of `word`.
#[inline(always)]
fn crc_word(crc: u32, word: u64) -> u32 {
    let t = &CRC_TABLES;
    // Byte `k` of the word, the register xored into the first four, is
    // followed by `7 - k` more bytes before the word ends.
    let x = word ^ crc as u64;
    (0..8).fold(0, |c, k| c ^ t[7 - k][(x >> (8 * k)) as usize & 0xff])
}

/// CRC-32 over a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        crc = crc_word(crc, u64::from_le_bytes(w.try_into().unwrap()));
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

/// CRC-32 over the little-endian bytes of an `f64` slice, a word a step.
pub fn crc32_f64s(data: &[f64]) -> u32 {
    !data.iter().fold(!0u32, |crc, v| crc_word(crc, v.to_bits()))
}

/// FNV-1a's 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a's 64-bit prime; odd, so multiplying by it is a bijection.
const FNV_PRIME: u64 = 0x100000001b3;

/// One xor-then-multiply round: a bijection in `h` for a fixed `w`, and
/// injective in `w` for a fixed `h`. FNV-1a absorbs a byte per round; the
/// word-wise hashes absorb a whole 64-bit word.
#[inline(always)]
pub fn fnv_round(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// FNV-1a-64 over a byte slice.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(data);
    h.finish()
}

/// 64-bit FNV-1a over a canonical byte stream. Dependency-free and
/// deterministic across runs (unlike `DefaultHasher`, which is randomly
/// keyed per process).
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The empty stream's state, the offset basis.
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Absorb `bytes`, one round each.
    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes.iter().fold(self.0, |h, &b| fnv_round(h, b as u64));
    }

    /// Absorb `s`'s bytes, then its length, so that `("ab", "c")` and
    /// `("a", "bc")` differ.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write_u64(s.len() as u64);
    }

    /// Absorb `v`'s little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb `v`'s bit pattern (so `-0.0` and `0.0` differ).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
