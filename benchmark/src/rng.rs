//! The seed → inputs generator (SplitMix64): the same seed gives the same
//! inputs on every host.

pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, salted per workload so workloads do not share
    /// draws.
    pub fn new(seed: u64, salt: &str) -> Self {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in salt.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_and_salt_fix_the_stream() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            (r.next_u64(), r.uniform(90.0, 110.0), r.below(16))
        };
        assert_eq!(draw(1, "a"), draw(1, "a"));
        assert_ne!(draw(1, "a"), draw(2, "a"));
        assert_ne!(draw(1, "a"), draw(1, "b"));
        let (_, u, k) = draw(7, "x");
        assert!((90.0..110.0).contains(&u) && k < 16);
    }
}
