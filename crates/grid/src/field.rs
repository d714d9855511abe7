//! Multi-component field storage over a patch.
//!
//! Per-cell access ([`Field::at`] / [`Field::set`]) is for kernels'
//! stencils and tests; bulk movement goes by contiguous rows —
//! [`Field::read_pencil`] for sweeps, [`Field::gather_box`] /
//! [`Field::scatter_box`] for whatever packs a box into a message, a
//! checkpoint record or a gather buffer and back.

use crate::geom::PatchGeom;
use rhrsc_srhd::{Cons, NCOMP};

/// A dense, component-major field over a ghost-inclusive patch.
///
/// Layout: component `c` occupies a contiguous block of `geom.len()`
/// values with x fastest (`[c][k][j][i]`), so x-direction pencils are
/// contiguous slices and per-component kernels stream linearly through
/// memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    geom: PatchGeom,
    ncomp: usize,
    data: Vec<f64>,
}

impl Field {
    /// Allocate a zero-filled field with `ncomp` components.
    pub fn new(geom: PatchGeom, ncomp: usize) -> Self {
        Field {
            geom,
            ncomp,
            data: vec![0.0; ncomp * geom.len()],
        }
    }

    /// Allocate a conserved-variable field (five components).
    pub fn cons(geom: PatchGeom) -> Self {
        Field::new(geom, NCOMP)
    }

    /// Wrap an existing flat buffer (component-major) as a field. Used by
    /// the device backend to view staged device memory as a field without
    /// copying.
    ///
    /// # Panics
    /// Panics if `data.len() != ncomp * geom.len()`.
    pub fn from_vec(geom: PatchGeom, ncomp: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), ncomp * geom.len(), "buffer/geometry mismatch");
        Field { geom, ncomp, data }
    }

    /// Unwrap the field into its flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// The patch geometry.
    #[inline]
    pub fn geom(&self) -> &PatchGeom {
        &self.geom
    }

    /// Number of components.
    #[inline]
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Read one component at ghost-inclusive `(i, j, k)`.
    #[inline]
    pub fn at(&self, c: usize, i: usize, j: usize, k: usize) -> f64 {
        self.data[c * self.geom.len() + self.geom.idx(i, j, k)]
    }

    /// Write one component at ghost-inclusive `(i, j, k)`.
    #[inline]
    pub fn set(&mut self, c: usize, i: usize, j: usize, k: usize, v: f64) {
        let n = self.geom.len();
        self.data[c * n + self.geom.idx(i, j, k)] = v;
    }

    /// Read a conserved 5-vector at `(i, j, k)` (requires `ncomp >= 5`).
    #[inline]
    pub fn get_cons(&self, i: usize, j: usize, k: usize) -> Cons {
        debug_assert!(self.ncomp >= NCOMP);
        let n = self.geom.len();
        let ix = self.geom.idx(i, j, k);
        Cons::from_array([
            self.data[ix],
            self.data[n + ix],
            self.data[2 * n + ix],
            self.data[3 * n + ix],
            self.data[4 * n + ix],
        ])
    }

    /// Write a conserved 5-vector at `(i, j, k)`.
    #[inline]
    pub fn set_cons(&mut self, i: usize, j: usize, k: usize, u: Cons) {
        debug_assert!(self.ncomp >= NCOMP);
        let n = self.geom.len();
        let ix = self.geom.idx(i, j, k);
        let a = u.to_array();
        for (c, v) in a.into_iter().enumerate() {
            self.data[c * n + ix] = v;
        }
    }

    /// Full data slice of component `c`.
    #[inline]
    pub fn comp(&self, c: usize) -> &[f64] {
        let n = self.geom.len();
        &self.data[c * n..(c + 1) * n]
    }

    /// Raw flat data (all components).
    #[inline]
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Raw flat mutable data (all components).
    #[inline]
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copy the values along an axis-aligned pencil of component `c` into
    /// `out`. The pencil runs over the full ghost-inclusive extent of
    /// dimension `dim`, at fixed transverse ghost-inclusive indices
    /// `(t1, t2)` (the remaining dims in ascending order).
    pub fn read_pencil(&self, c: usize, dim: usize, t1: usize, t2: usize, out: &mut [f64]) {
        let nt = self.geom.ntot(dim);
        debug_assert_eq!(out.len(), nt);
        match dim {
            0 => {
                let base = self.geom.idx(0, t1, t2) + c * self.geom.len();
                out.copy_from_slice(&self.data[base..base + nt]);
            }
            // The layout is affine in each index, so strided gathers walk
            // a constant step instead of recomputing the full index.
            1 => {
                let base = self.geom.idx(t1, 0, t2) + c * self.geom.len();
                let stride = self.geom.idx(t1, 1, t2) - self.geom.idx(t1, 0, t2);
                for (jj, o) in out.iter_mut().enumerate() {
                    *o = self.data[base + jj * stride];
                }
            }
            2 => {
                let base = self.geom.idx(t1, t2, 0) + c * self.geom.len();
                let stride = self.geom.idx(t1, t2, 1) - self.geom.idx(t1, t2, 0);
                for (kk, o) in out.iter_mut().enumerate() {
                    *o = self.data[base + kk * stride];
                }
            }
            _ => unreachable!(),
        }
    }

    /// Flat offset of every x-row of the ghost-inclusive box `[lo, hi)`
    /// (`lo[d] <= hi[d] <= ntot(d)`), component-major with z slowest — the
    /// field's own storage order.
    fn box_rows(&self, lo: [usize; 3], hi: [usize; 3]) -> impl Iterator<Item = usize> {
        let (geom, ncomp) = (self.geom, self.ncomp);
        (0..ncomp).flat_map(move |c| {
            (lo[2]..hi[2]).flat_map(move |k| {
                (lo[1]..hi[1]).map(move |j| c * geom.len() + geom.idx(0, j, k) + lo[0])
            })
        })
    }

    /// Append the ghost-inclusive box `[lo, hi)` to `out`, component-major
    /// with x fastest (the storage order, which over the interior box is
    /// [`PatchGeom::interior_iter`] order per component). Each x-row is
    /// one slice copy, and `out` grows to its final length up front.
    pub fn gather_box(&self, lo: [usize; 3], hi: [usize; 3], out: &mut Vec<f64>) {
        let nx = hi[0] - lo[0];
        out.reserve(self.ncomp * nx * (hi[1] - lo[1]) * (hi[2] - lo[2]));
        for row in self.box_rows(lo, hi) {
            out.extend_from_slice(&self.data[row..row + nx]);
        }
    }

    /// Overwrite the ghost-inclusive box `[lo, hi)` from `src`, the inverse
    /// of [`Field::gather_box`].
    ///
    /// # Panics
    /// Panics if `src` is not exactly the box's length; callers that take
    /// `src` off the wire check it first.
    pub fn scatter_box(&mut self, lo: [usize; 3], hi: [usize; 3], src: &[f64]) {
        let nx = hi[0] - lo[0];
        let len = self.ncomp * nx * (hi[1] - lo[1]) * (hi[2] - lo[2]);
        assert_eq!(src.len(), len, "buffer/box mismatch");
        for (n, row) in self.box_rows(lo, hi).enumerate() {
            self.data[row..row + nx].copy_from_slice(&src[n * nx..(n + 1) * nx]);
        }
    }

    /// Euclidean (L2) distance to another field over *interior* cells;
    /// used in equivalence tests between execution backends.
    pub fn interior_l2_distance(&self, other: &Field) -> f64 {
        assert_eq!(self.geom, other.geom);
        assert_eq!(self.ncomp, other.ncomp);
        let mut sum = 0.0;
        for (i, j, k) in self.geom.interior_iter() {
            for c in 0..self.ncomp {
                let d = self.at(c, i, j, k) - other.at(c, i, j, k);
                sum += d * d;
            }
        }
        sum.sqrt()
    }

    /// Sum of component `c` over interior cells times the cell volume
    /// (a conserved integral under periodic boundaries).
    pub fn interior_integral(&self, c: usize) -> f64 {
        let mut sum = 0.0;
        for (i, j, k) in self.geom.interior_iter() {
            sum += self.at(c, i, j, k);
        }
        sum * self.geom.cell_volume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::PatchGeom;

    fn geom() -> PatchGeom {
        PatchGeom::cube([4, 3, 2], [0.0; 3], [1.0; 3], 2)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut f = Field::new(geom(), 5);
        f.set(3, 1, 2, 3, 7.5);
        assert_eq!(f.at(3, 1, 2, 3), 7.5);
        assert_eq!(f.at(2, 1, 2, 3), 0.0);
    }

    #[test]
    fn cons_roundtrip() {
        let mut f = Field::cons(geom());
        let u = Cons::from_array([1.0, -2.0, 3.0, -4.0, 5.0]);
        f.set_cons(2, 2, 2, u);
        assert_eq!(f.get_cons(2, 2, 2), u);
    }

    #[test]
    fn component_slices_disjoint() {
        let mut f = Field::new(geom(), 3);
        let n = f.geom().len();
        f.raw_mut()[n..2 * n].fill(2.0);
        assert!(f.comp(0).iter().all(|&v| v == 0.0));
        assert!(f.comp(1).iter().all(|&v| v == 2.0));
        assert!(f.comp(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn x_pencil_matches_pointwise() {
        let g = geom();
        let mut f = Field::new(g, 2);
        for k in 0..g.ntot(2) {
            for j in 0..g.ntot(1) {
                for i in 0..g.ntot(0) {
                    f.set(1, i, j, k, (100 * i + 10 * j + k) as f64);
                }
            }
        }
        let mut buf = vec![0.0; g.ntot(0)];
        f.read_pencil(1, 0, 3, 1, &mut buf);
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, (100 * i + 30 + 1) as f64);
        }
    }

    #[test]
    fn y_and_z_pencils() {
        let g = geom();
        let mut f = Field::new(g, 1);
        for k in 0..g.ntot(2) {
            for j in 0..g.ntot(1) {
                for i in 0..g.ntot(0) {
                    f.set(0, i, j, k, (i + 10 * j + 100 * k) as f64);
                }
            }
        }
        let mut ybuf = vec![0.0; g.ntot(1)];
        f.read_pencil(0, 1, 2, 1, &mut ybuf); // fixed i=2, k=1
        for (j, &v) in ybuf.iter().enumerate() {
            assert_eq!(v, (2 + 10 * j + 100) as f64);
        }
        let mut zbuf = vec![0.0; g.ntot(2)];
        f.read_pencil(0, 2, 3, 4, &mut zbuf); // fixed i=3, j=4
        for (k, &v) in zbuf.iter().enumerate() {
            assert_eq!(v, (3 + 40 + 100 * k) as f64);
        }
    }

    /// `gather_box` / `scatter_box` against one `at` / `set` per value, on
    /// 1D, 2D and 3D ghosted fields: the whole field, the interior, the
    /// six ghost slabs (empty ones in degenerate dimensions), a single
    /// row, a box empty in x alone, and random boxes.
    #[test]
    fn box_copies_agree_with_per_cell_access() {
        let geoms = [
            PatchGeom::line(7, 0.0, 1.0, 3),
            PatchGeom::rect([5, 4], [0.0; 2], [1.0; 2], 2),
            geom(),
        ];
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        for (g, ncomp) in geoms.into_iter().zip([5, 2, 3]) {
            let mut f = Field::new(g, ncomp);
            for (i, v) in f.raw_mut().iter_mut().enumerate() {
                *v = (i + 1) as f64;
            }
            let full = [0, 1, 2].map(|d| g.ntot(d));
            let ilo = [0, 1, 2].map(|d| g.ng_of(d));
            let ihi = [0, 1, 2].map(|d| ilo[d] + g.n[d]);
            let mut boxes = vec![
                ([0; 3], full),
                (ilo, ihi),
                ([0, ilo[1], ilo[2]], [full[0], ilo[1] + 1, ilo[2] + 1]),
                ([full[0], 0, 0], full),
            ];
            for d in 0..3 {
                let (mut lo, mut hi) = (ilo, ihi);
                (lo[d], hi[d]) = (0, ilo[d]);
                boxes.push((lo, hi));
                (lo[d], hi[d]) = (ihi[d], full[d]);
                boxes.push((lo, hi));
            }
            for _ in 0..100 {
                let ends = [0, 1, 2].map(|d| (draw(full[d] + 1), draw(full[d] + 1)));
                boxes.push((ends.map(|(a, b)| a.min(b)), ends.map(|(a, b)| a.max(b))));
            }
            for (lo, hi) in boxes {
                let inside = |i, j, k| {
                    (lo[0]..hi[0]).contains(&i)
                        && (lo[1]..hi[1]).contains(&j)
                        && (lo[2]..hi[2]).contains(&k)
                };
                let mut want = vec![-1.0];
                for c in 0..ncomp {
                    for k in lo[2]..hi[2] {
                        for j in lo[1]..hi[1] {
                            for i in lo[0]..hi[0] {
                                want.push(f.at(c, i, j, k));
                            }
                        }
                    }
                }
                let mut got = vec![-1.0];
                f.gather_box(lo, hi, &mut got);
                assert_eq!(
                    got, want,
                    "gather of [{lo:?}, {hi:?}) appends in storage order"
                );
                let mut blank = Field::new(g, ncomp);
                blank.scatter_box(lo, hi, &got[1..]);
                for c in 0..ncomp {
                    for k in 0..full[2] {
                        for j in 0..full[1] {
                            for i in 0..full[0] {
                                let v = if inside(i, j, k) {
                                    f.at(c, i, j, k)
                                } else {
                                    0.0
                                };
                                assert_eq!(blank.at(c, i, j, k), v, "scatter of [{lo:?}, {hi:?})");
                            }
                        }
                    }
                }
                let mut same = f.clone();
                same.scatter_box(lo, hi, &got[1..]);
                assert_eq!(same, f, "scatter(gather) is the identity");
            }
        }
    }

    #[test]
    fn l2_distance_zero_iff_equal_interior() {
        let g = geom();
        let mut a = Field::new(g, 1);
        let mut b = Field::new(g, 1);
        assert_eq!(a.interior_l2_distance(&b), 0.0);
        // Ghost differences don't count.
        b.set(0, 0, 0, 0, 9.0);
        assert_eq!(a.interior_l2_distance(&b), 0.0);
        // Interior differences do.
        a.set(0, 2, 2, 2, 3.0);
        assert!((a.interior_l2_distance(&b) - 3.0).abs() < 1e-15);
    }

    #[test]
    fn interior_integral_counts_only_interior() {
        let g = PatchGeom::line(10, 0.0, 1.0, 2);
        let mut f = Field::new(g, 1);
        f.raw_mut().fill(1.0);
        // 10 interior cells * dx=0.1 = 1.0 even though ghosts are 1 too.
        assert!((f.interior_integral(0) - 1.0).abs() < 1e-14);
    }
}
