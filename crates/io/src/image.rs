//! Quick-look images of 2D field slices (no plotting stack required):
//! [`write_ppm`] writes a binary-format PPM, auto-normalized, with a
//! perceptual false-color map (a compact viridis-like polynomial ramp).
//!
//! The image is the `k = ng` slice (the only slice for 2D problems),
//! with `y` up (row 0 is the top of the image, i.e. the highest `j`).

use rhrsc_grid::Field;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Min/max of a component over the interior.
fn interior_range(field: &Field, c: usize) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (i, j, k) in field.geom().interior_iter() {
        let v = field.at(c, i, j, k);
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// Normalize `v` into [0, 1] over `(lo, hi)` (constant fields map to 0).
fn norm(v: f64, lo: f64, hi: f64) -> f64 {
    if hi > lo {
        ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// A compact viridis-like color ramp: `t` in [0, 1] to (r, g, b).
fn colormap(t: f64) -> [u8; 3] {
    // Piecewise-polynomial fit; dark purple -> teal -> yellow.
    let r = (0.28 + t * (-0.60 + t * (1.78 - 0.47 * t))).clamp(0.0, 1.0);
    let g = (0.0 + t * (1.38 + t * (-0.68 + 0.20 * t))).clamp(0.0, 1.0);
    let b = (0.33 + t * (1.45 + t * (-3.30 + 1.70 * t))).clamp(0.0, 1.0);
    [
        (r * 255.0).round() as u8,
        (g * 255.0).round() as u8,
        (b * 255.0).round() as u8,
    ]
}

/// Write component `c` as an auto-normalized false-color PPM.
pub fn write_ppm(path: &Path, field: &Field, c: usize) -> std::io::Result<()> {
    let geom = *field.geom();
    let (nx, ny) = (geom.n[0], geom.n[1]);
    let (g0, g1, g2) = (geom.ng_of(0), geom.ng_of(1), geom.ng_of(2));
    let (lo, hi) = interior_range(field, c);
    let mut f = BufWriter::new(std::fs::File::create(path)?);
    write!(f, "P6\n{nx} {ny}\n255\n")?;
    for row in 0..ny {
        let j = g1 + (ny - 1 - row);
        for i in 0..nx {
            let v = norm(field.at(c, g0 + i, j, g2), lo, hi);
            f.write_all(&colormap(v))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhrsc_grid::PatchGeom;

    fn gradient_field() -> Field {
        let geom = PatchGeom::rect([8, 4], [0.0, 0.0], [1.0, 1.0], 2);
        let mut f = Field::new(geom, 1);
        for (i, j, k) in geom.interior_iter() {
            f.set(0, i, j, k, i as f64);
        }
        f
    }

    #[test]
    fn ppm_is_rgb() {
        let f = gradient_field();
        let path = std::env::temp_dir().join("rhrsc-test.ppm");
        write_ppm(&path, &f, 0).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header = b"P6\n8 4\n255\n";
        assert!(bytes.starts_with(header));
        assert_eq!(bytes.len(), header.len() + 8 * 4 * 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn constant_field_does_not_divide_by_zero() {
        let geom = PatchGeom::rect([4, 4], [0.0, 0.0], [1.0, 1.0], 2);
        let mut f = Field::new(geom, 1);
        f.raw_mut().fill(3.0);
        let path = std::env::temp_dir().join("rhrsc-const.ppm");
        write_ppm(&path, &f, 0).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.ends_with(&colormap(0.0).repeat(16)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn colormap_endpoints_distinct() {
        let lo = colormap(0.0);
        let hi = colormap(1.0);
        assert_ne!(lo, hi);
        // Dark at 0, bright at 1 (rough perceptual check).
        let lum = |c: [u8; 3]| 0.2 * c[0] as f64 + 0.7 * c[1] as f64 + 0.1 * c[2] as f64;
        assert!(lum(hi) > lum(lo) + 80.0);
    }
}
