//! Patch geometry: interior extent, ghost widths, physical coordinates.

/// Geometry of one rectangular, cell-centered patch.
///
/// A patch has `n[d]` interior cells in dimension `d` and `ng` ghost cells
/// on each side of every *active* dimension (one with `n[d] > 1`).
/// Degenerate dimensions (`n[d] == 1`, used to embed 1D/2D problems in the
/// 3D data structures) carry no ghosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatchGeom {
    /// Interior cell counts.
    pub n: [usize; 3],
    /// Ghost width on each side of active dimensions.
    pub ng: usize,
    /// Physical coordinate of the lower corner of interior cell (0,0,0).
    pub origin: [f64; 3],
    /// Cell spacing.
    pub dx: [f64; 3],
}

impl PatchGeom {
    /// A 1D patch spanning `[x0, x1]` with `nx` cells and `ng` ghosts.
    pub fn line(nx: usize, x0: f64, x1: f64, ng: usize) -> Self {
        assert!(nx > 0 && x1 > x0);
        PatchGeom {
            n: [nx, 1, 1],
            ng,
            origin: [x0, 0.0, 0.0],
            dx: [(x1 - x0) / nx as f64, 1.0, 1.0],
        }
    }

    /// A 2D patch spanning `[x0,x1] x [y0,y1]`.
    pub fn rect(n: [usize; 2], lo: [f64; 2], hi: [f64; 2], ng: usize) -> Self {
        assert!(n[0] > 0 && n[1] > 0);
        PatchGeom {
            n: [n[0], n[1], 1],
            ng,
            origin: [lo[0], lo[1], 0.0],
            dx: [
                (hi[0] - lo[0]) / n[0] as f64,
                (hi[1] - lo[1]) / n[1] as f64,
                1.0,
            ],
        }
    }

    /// A 3D patch spanning the box `[lo, hi]`.
    pub fn cube(n: [usize; 3], lo: [f64; 3], hi: [f64; 3], ng: usize) -> Self {
        PatchGeom {
            n,
            ng,
            origin: lo,
            dx: [
                (hi[0] - lo[0]) / n[0] as f64,
                (hi[1] - lo[1]) / n[1] as f64,
                (hi[2] - lo[2]) / n[2] as f64,
            ],
        }
    }

    /// Ghost width in dimension `d` (zero for degenerate dimensions).
    #[inline]
    pub fn ng_of(&self, d: usize) -> usize {
        if self.n[d] > 1 {
            self.ng
        } else {
            0
        }
    }

    /// `true` if dimension `d` is active (more than one cell).
    #[inline]
    pub fn active(&self, d: usize) -> bool {
        self.n[d] > 1
    }

    /// Number of active dimensions.
    pub fn ndim(&self) -> usize {
        (0..3).filter(|&d| self.active(d)).count()
    }

    /// Total (ghost-inclusive) extent in dimension `d`.
    #[inline]
    pub fn ntot(&self, d: usize) -> usize {
        self.n[d] + 2 * self.ng_of(d)
    }

    /// Total number of ghost-inclusive cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.ntot(0) * self.ntot(1) * self.ntot(2)
    }

    /// Number of interior cells.
    #[inline]
    pub fn interior_len(&self) -> usize {
        self.n[0] * self.n[1] * self.n[2]
    }

    /// `true` when the patch has no cells (never true for valid geometry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of ghost-inclusive coordinates `(i, j, k)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.ntot(0) && j < self.ntot(1) && k < self.ntot(2));
        (k * self.ntot(1) + j) * self.ntot(0) + i
    }

    /// Physical coordinate of the center of the cell with ghost-inclusive
    /// indices `(i, j, k)`. Ghost cells extrapolate past the boundary.
    #[inline]
    pub fn center(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        let c = |d: usize, ii: usize| {
            self.origin[d] + ((ii as f64) - self.ng_of(d) as f64 + 0.5) * self.dx[d]
        };
        [c(0, i), c(1, j), c(2, k)]
    }

    /// Iterate ghost-inclusive index triples over the *interior* cells.
    pub fn interior_iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (g0, g1, g2) = (self.ng_of(0), self.ng_of(1), self.ng_of(2));
        let n = self.n;
        (0..n[2]).flat_map(move |k| {
            (0..n[1]).flat_map(move |j| (0..n[0]).map(move |i| (i + g0, j + g1, k + g2)))
        })
    }

    /// The `k`-th triple of [`interior_iter`](Self::interior_iter)
    /// (`k < interior_len()`), without walking to it.
    pub fn nth_interior(&self, k: usize) -> (usize, usize, usize) {
        debug_assert!(k < self.interior_len());
        let [n0, n1, _] = self.n;
        (
            k % n0 + self.ng_of(0),
            k / n0 % n1 + self.ng_of(1),
            k / (n0 * n1) + self.ng_of(2),
        )
    }

    /// Cell volume.
    #[inline]
    pub fn cell_volume(&self) -> f64 {
        self.dx[0] * self.dx[1] * self.dx[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_geometry() {
        let g = PatchGeom::line(10, 0.0, 1.0, 3);
        assert_eq!(g.ntot(0), 16);
        assert_eq!(g.ntot(1), 1); // degenerate dims carry no ghosts
        assert_eq!(g.ntot(2), 1);
        assert_eq!(g.len(), 16);
        assert_eq!(g.interior_len(), 10);
        assert_eq!(g.ndim(), 1);
        assert!((g.dx[0] - 0.1).abs() < 1e-15);
    }

    #[test]
    fn nth_interior_is_the_nth_of_the_iterator() {
        for g in [
            PatchGeom::line(10, 0.0, 1.0, 3),
            PatchGeom::rect([7, 5], [0.0; 2], [1.0; 2], 2),
            PatchGeom::cube([4, 3, 5], [0.0; 3], [1.0; 3], 2),
        ] {
            let cells: Vec<_> = g.interior_iter().collect();
            assert_eq!(cells.len(), g.interior_len());
            for (k, &cell) in cells.iter().enumerate() {
                assert_eq!(g.nth_interior(k), cell, "k = {k} of {:?}", g.n);
            }
        }
    }

    #[test]
    fn centers_line_up() {
        let g = PatchGeom::line(10, 0.0, 1.0, 2);
        // First interior cell center at x = dx/2.
        let c = g.center(2, 0, 0);
        assert!((c[0] - 0.05).abs() < 1e-15);
        // First ghost cell center at x = -3dx/2... index 0 is ng=2 to the left.
        let gc = g.center(0, 0, 0);
        assert!((gc[0] + 0.15).abs() < 1e-15);
        // Last interior center at 1 - dx/2.
        let lc = g.center(11, 0, 0);
        assert!((lc[0] - 0.95).abs() < 1e-15);
    }

    #[test]
    fn idx_is_bijective_on_patch() {
        let g = PatchGeom::cube([4, 3, 2], [0.0; 3], [1.0; 3], 2);
        let mut seen = vec![false; g.len()];
        for k in 0..g.ntot(2) {
            for j in 0..g.ntot(1) {
                for i in 0..g.ntot(0) {
                    let ix = g.idx(i, j, k);
                    assert!(!seen[ix], "collision at ({i},{j},{k})");
                    seen[ix] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn interior_iter_covers_interior_exactly() {
        let g = PatchGeom::rect([3, 4], [0.0, 0.0], [1.0, 1.0], 2);
        let cells: Vec<_> = g.interior_iter().collect();
        assert_eq!(cells.len(), 12);
        for &(i, j, k) in &cells {
            assert!((2..5).contains(&i));
            assert!((2..6).contains(&j));
            assert_eq!(k, 0);
        }
    }

    #[test]
    fn cube_volume() {
        let g = PatchGeom::cube([10, 20, 40], [0.0; 3], [1.0, 1.0, 2.0], 2);
        assert!((g.cell_volume() - 0.1 * 0.05 * 0.05).abs() < 1e-15);
        assert_eq!(g.ndim(), 3);
    }
}
