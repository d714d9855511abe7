//! Known answers of the shared integrity hashes. The disk checkpoints,
//! the halo trailers, the state digests and the serve cache keys all
//! depend on these exact values: a hash that drifts breaks every stored
//! image and every cached result at once.

use rhrsc_runtime::hash::{crc32, crc32_f64s, fnv1a};

/// The CRC-32 (IEEE) check value.
#[test]
fn crc32_of_the_check_string() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

/// FNV-1a-64's published test vectors.
#[test]
fn fnv1a_of_the_test_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
}

/// The halo trailer's word CRC is the byte CRC of the words' little-endian
/// bytes, for every length around the eight-byte step.
#[test]
fn word_crc_equals_byte_crc() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for n in 0..=17 {
        let words: Vec<f64> = (0..n).map(|_| f64::from_bits(next())).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(crc32_f64s(&words), crc32(&bytes), "{n} words");
    }
}
