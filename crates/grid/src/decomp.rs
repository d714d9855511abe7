//! Cartesian block decomposition of a global grid over ranks.

/// A Cartesian process grid: `dims[d]` ranks along dimension `d`, with
/// optional periodic wrap-around per dimension. Rank `r` has coordinates
/// obtained by row-major decoding (x fastest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CartDecomp {
    /// Ranks per dimension.
    pub dims: [usize; 3],
    /// Periodic topology per dimension.
    pub periodic: [bool; 3],
}

impl CartDecomp {
    /// A 1D decomposition along x.
    pub fn line(p: usize, periodic: bool) -> Self {
        CartDecomp {
            dims: [p, 1, 1],
            periodic: [periodic, false, false],
        }
    }

    /// Choose a process grid for `nranks` ranks over a global grid of
    /// extent `global_n`, greedily assigning factors to the dimension with
    /// the largest cells-per-rank extent (minimizes halo surface).
    pub fn auto(nranks: usize, global_n: [usize; 3], periodic: [bool; 3]) -> Self {
        assert!(nranks > 0);
        let mut dims = [1usize; 3];
        let mut rem = nranks;
        // Factor out primes smallest-first so the largest factors land last
        // (on the then-longest dimension).
        let mut factors = Vec::new();
        let mut f = 2;
        while rem > 1 {
            while rem.is_multiple_of(f) {
                factors.push(f);
                rem /= f;
            }
            f += 1;
        }
        factors.reverse(); // largest first
        for f in factors {
            // Give the factor to the dimension with the longest local extent.
            let mut best = 0;
            let mut best_len = 0.0f64;
            for d in 0..3 {
                let len = global_n[d] as f64 / dims[d] as f64;
                if len > best_len && global_n[d] / (dims[d] * f) >= 1 {
                    best_len = len;
                    best = d;
                }
            }
            dims[best] *= f;
        }
        CartDecomp { dims, periodic }
    }

    /// Total number of ranks.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Cartesian coordinates of `rank` (x fastest).
    #[inline]
    fn coords(&self, rank: usize) -> [usize; 3] {
        debug_assert!(rank < self.nranks());
        let x = rank % self.dims[0];
        let y = (rank / self.dims[0]) % self.dims[1];
        let z = rank / (self.dims[0] * self.dims[1]);
        [x, y, z]
    }

    /// Rank with the given Cartesian coordinates.
    #[inline]
    fn rank_of(&self, c: [usize; 3]) -> usize {
        debug_assert!(c[0] < self.dims[0] && c[1] < self.dims[1] && c[2] < self.dims[2]);
        (c[2] * self.dims[1] + c[1]) * self.dims[0] + c[0]
    }

    /// Face neighbor of `rank` in dimension `dim` on `side` (0 = low,
    /// 1 = high). `None` at a non-periodic domain boundary.
    pub fn neighbor(&self, rank: usize, dim: usize, side: usize) -> Option<usize> {
        let mut c = self.coords(rank);
        let p = self.dims[dim];
        if side == 0 {
            if c[dim] == 0 {
                if !self.periodic[dim] {
                    return None;
                }
                c[dim] = p - 1;
            } else {
                c[dim] -= 1;
            }
        } else if c[dim] + 1 == p {
            if !self.periodic[dim] {
                return None;
            }
            c[dim] = 0;
        } else {
            c[dim] += 1;
        }
        Some(self.rank_of(c))
    }

    /// Global cell offset and local extent of `rank`'s block for a global
    /// grid of extent `global_n`. Remainder cells go to the lowest-indexed
    /// blocks, so block sizes differ by at most one cell per dimension.
    pub fn local_span(&self, global_n: [usize; 3], rank: usize) -> ([usize; 3], [usize; 3]) {
        let c = self.coords(rank);
        let mut offset = [0usize; 3];
        let mut size = [0usize; 3];
        for d in 0..3 {
            let (p, n, i) = (self.dims[d], global_n[d], c[d]);
            assert!(n >= p, "dimension {d}: {n} cells over {p} ranks");
            let base = n / p;
            let rem = n % p;
            size[d] = base + usize::from(i < rem);
            offset[d] = i * base + i.min(rem);
        }
        (offset, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_decomp_basics() {
        let d = CartDecomp::line(4, false);
        assert_eq!(d.nranks(), 4);
        assert_eq!(d.coords(2), [2, 0, 0]);
        assert_eq!(d.rank_of([3, 0, 0]), 3);
        assert_eq!(d.neighbor(0, 0, 0), None);
        assert_eq!(d.neighbor(0, 0, 1), Some(1));
        assert_eq!(d.neighbor(3, 0, 1), None);
    }

    #[test]
    fn periodic_wraps_neighbors() {
        let d = CartDecomp::line(4, true);
        assert_eq!(d.neighbor(0, 0, 0), Some(3));
        assert_eq!(d.neighbor(3, 0, 1), Some(0));
    }

    #[test]
    fn coords_rank_roundtrip() {
        let d = CartDecomp {
            dims: [3, 4, 2],
            periodic: [false; 3],
        };
        for r in 0..d.nranks() {
            assert_eq!(d.rank_of(d.coords(r)), r);
        }
    }

    #[test]
    fn spans_tile_the_global_grid() {
        let d = CartDecomp {
            dims: [3, 2, 1],
            periodic: [false; 3],
        };
        let n = [10, 7, 4];
        let mut covered = vec![false; n[0] * n[1] * n[2]];
        for r in 0..d.nranks() {
            let (off, size) = d.local_span(n, r);
            for k in 0..size[2] {
                for j in 0..size[1] {
                    for i in 0..size[0] {
                        let g = ((off[2] + k) * n[1] + off[1] + j) * n[0] + off[0] + i;
                        assert!(!covered[g], "overlap at rank {r}");
                        covered[g] = true;
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "gaps in coverage");
    }

    #[test]
    fn remainder_blocks_differ_by_at_most_one() {
        let d = CartDecomp::line(3, false);
        let sizes: Vec<usize> = (0..3).map(|r| d.local_span([10, 1, 1], r).1[0]).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(mx - mn <= 1, "{sizes:?}");
    }

    #[test]
    fn auto_prefers_long_dimensions() {
        let d = CartDecomp::auto(8, [1024, 4, 1], [false; 3]);
        assert_eq!(d.nranks(), 8);
        // All factors should land on x (by far the longest).
        assert_eq!(d.dims, [8, 1, 1]);
    }

    #[test]
    fn auto_splits_square_evenly() {
        let d = CartDecomp::auto(16, [256, 256, 1], [true; 3]);
        assert_eq!(d.nranks(), 16);
        assert_eq!(d.dims[0] * d.dims[1], 16);
        // Should be a 4x4 split, not 16x1.
        assert_eq!(d.dims[0], 4);
        assert_eq!(d.dims[1], 4);
    }

    #[test]
    fn auto_handles_prime_counts() {
        let d = CartDecomp::auto(7, [128, 64, 1], [false; 3]);
        assert_eq!(d.nranks(), 7);
        assert_eq!(d.dims, [7, 1, 1]);
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let d = CartDecomp {
            dims: [3, 3, 2],
            periodic: [true, false, true],
        };
        for r in 0..d.nranks() {
            for dim in 0..3 {
                for side in 0..2 {
                    if let Some(nb) = d.neighbor(r, dim, side) {
                        assert_eq!(
                            d.neighbor(nb, dim, 1 - side),
                            Some(r),
                            "r={r} dim={dim} side={side}"
                        );
                    }
                }
            }
        }
    }
}
