//! Orthonormal frames: the d-dimensional generalisation of the axis
//! rotation in Formula (9).
//!
//! Representative-trajectory generation (Section 4.3) rotates the axes so
//! that X becomes parallel to the cluster's average direction vector,
//! averages coordinates in the rotated system, and rotates back. The paper
//! gives the 2-D rotation matrix and notes the approach extends to 3-D
//! (footnote 3); an orthonormal frame whose first axis is the average
//! direction implements exactly that for any `D`.

use crate::point::{Point, Vector};

/// An orthonormal basis of `ℝ^D` whose first axis is a chosen direction.
///
/// ```
/// use traclus_geom::{OrthonormalFrame, Point2, Vector2};
///
/// let frame = OrthonormalFrame::from_direction(&Vector2::xy(1.0, 1.0)).unwrap();
/// let p = Point2::xy(2.0, 2.0);
/// let local = frame.to_frame(&p);
/// assert!((local[0] - 8.0f64.sqrt()).abs() < 1e-12); // along the diagonal
/// assert!(local[1].abs() < 1e-12);                    // no off-axis part
/// let back = frame.from_frame(&local);
/// assert!(back.distance(&p) < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OrthonormalFrame<const D: usize> {
    /// Row `k` is the `k`-th basis vector; row 0 is the chosen direction.
    axes: [Vector<D>; D],
}

impl<const D: usize> OrthonormalFrame<D> {
    /// Builds a frame whose first axis is `direction` (normalised), the
    /// remaining axes completed by Gram–Schmidt over the standard basis.
    /// Returns `None` for a (numerically) zero direction.
    pub fn from_direction(direction: &Vector<D>) -> Option<Self> {
        let first = direction.normalized()?;
        let mut axes = [Vector::<D>::zero(); D];
        axes[0] = first;
        let mut filled = 1;
        // Greedily orthonormalise standard basis vectors against what we
        // already have; skip the ones that are (numerically) dependent.
        // The dependence threshold must be far above machine epsilon:
        // a nearly-dependent unit candidate leaves a residual of pure
        // rounding noise (~1e-9 for unlucky directions), and normalising
        // that noise would produce a bogus axis nearly parallel to an
        // existing one. A genuinely new dimension always leaves a residual
        // of at least sin(angle to the current span), so skipping
        // candidates below 1e-6 is safe — another standard basis vector
        // will fill the slot.
        const DEPENDENCE_TOLERANCE: f64 = 1e-6;
        for k in 0..D {
            if filled == D {
                break;
            }
            let mut candidate = Vector::<D>::zero();
            candidate.components[k] = 1.0;
            for axis in axes.iter().take(filled) {
                let proj = candidate.dot(axis);
                candidate -= axis.scale(proj);
            }
            if candidate.norm() > DEPENDENCE_TOLERANCE {
                if let Some(unit) = candidate.normalized() {
                    axes[filled] = unit;
                    filled += 1;
                }
            }
        }
        debug_assert_eq!(filled, D, "Gram–Schmidt must complete the basis");
        Some(Self { axes })
    }

    /// The identity frame (standard basis).
    pub fn identity() -> Self {
        let mut axes = [Vector::<D>::zero(); D];
        for (k, axis) in axes.iter_mut().enumerate() {
            axis.components[k] = 1.0;
        }
        Self { axes }
    }

    /// The `k`-th basis vector.
    pub fn axis(&self, k: usize) -> &Vector<D> {
        &self.axes[k]
    }

    /// Coordinates of `p` in this frame (the rotated `X′Y′…` system).
    pub fn to_frame(&self, p: &Point<D>) -> [f64; D] {
        let v = p.to_vector();
        let mut out = [0.0; D];
        for k in 0..D {
            out[k] = v.dot(&self.axes[k]);
        }
        out
    }

    /// Inverse transform: frame coordinates back to world space
    /// ("undo the rotation" in Figure 15 line 11).
    pub fn from_frame(&self, local: &[f64; D]) -> Point<D> {
        let mut v = Vector::<D>::zero();
        for k in 0..D {
            v += self.axes[k].scale(local[k]);
        }
        v.to_point()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{Point2, Vector2};

    const EPS: f64 = 1e-10;

    #[test]
    fn axes_are_orthonormal() {
        let f = OrthonormalFrame::from_direction(&Vector2::xy(3.0, 4.0)).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let dot = f.axis(i).dot(f.axis(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < EPS, "axes[{i}]·axes[{j}] = {dot}");
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let f = OrthonormalFrame::from_direction(&Vector2::xy(-2.0, 5.0)).unwrap();
        for &(x, y) in &[(0.0, 0.0), (1.0, 2.0), (-7.5, 3.25), (1e5, -1e5)] {
            let p = Point2::xy(x, y);
            let back = f.from_frame(&f.to_frame(&p));
            assert!(back.distance(&p) < 1e-6 * (1.0 + x.abs() + y.abs()));
        }
    }

    #[test]
    fn matches_formula_9_rotation_matrix_in_2d() {
        // Formula (9): x′ = cosφ·x + sinφ·y ; y′ = −sinφ·x + cosφ·y,
        // where φ is the angle of the average direction vector.
        let phi: f64 = 0.7;
        let dir = Vector2::xy(phi.cos(), phi.sin());
        let f = OrthonormalFrame::from_direction(&dir).unwrap();
        let p = Point2::xy(3.0, -2.0);
        let local = f.to_frame(&p);
        let expected_x = phi.cos() * 3.0 + phi.sin() * (-2.0);
        let expected_y = -phi.sin() * 3.0 + phi.cos() * (-2.0);
        assert!((local[0] - expected_x).abs() < EPS);
        // The Gram–Schmidt second axis equals (−sinφ, cosφ) up to sign.
        assert!(
            (local[1] - expected_y).abs() < EPS || (local[1] + expected_y).abs() < EPS,
            "second axis may differ in sign; |y′| must match"
        );
    }

    #[test]
    fn zero_direction_yields_none() {
        assert!(OrthonormalFrame::<2>::from_direction(&Vector2::zero()).is_none());
    }

    #[test]
    fn identity_frame_is_standard_basis() {
        let f = OrthonormalFrame::<3>::identity();
        let p: Point<3> = Point::new([1.0, 2.0, 3.0]);
        assert_eq!(f.to_frame(&p), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn works_with_axis_aligned_direction() {
        // Direction collinear with a standard basis vector: Gram–Schmidt
        // must skip the dependent candidate.
        let f = OrthonormalFrame::from_direction(&Vector2::xy(0.0, -3.0)).unwrap();
        let p = Point2::xy(2.0, -5.0);
        let local = f.to_frame(&p);
        assert!((local[0] - 5.0).abs() < EPS, "along −y");
        assert!((local[1].abs() - 2.0).abs() < EPS);
        let back = f.from_frame(&local);
        assert!(back.distance(&p) < EPS);
    }

    #[test]
    fn nearly_axis_aligned_direction_yields_orthonormal_axes() {
        // Regression: a direction within ~5e-4 of +x used to leave a
        // rounding-noise residual for the second standard basis candidate,
        // which was normalised into a bogus axis parallel to axes[0]
        // (axes[0]·axes[2] = −1) — breaking 3-D representative
        // trajectories.
        let dir: Vector<3> = Vector::new([468.0, 0.25, 0.0]);
        let f = OrthonormalFrame::from_direction(&dir).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let dot = f.axis(i).dot(f.axis(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-9, "axes[{i}]·axes[{j}] = {dot}");
            }
        }
        let p: Point<3> = Point::new([234.0, 1.5, 35.6]);
        let back = f.from_frame(&f.to_frame(&p));
        assert!(back.distance(&p) < 1e-6);
    }

    #[test]
    fn three_dimensional_frame() {
        let dir: Vector<3> = Vector::new([1.0, 1.0, 1.0]);
        let f = OrthonormalFrame::from_direction(&dir).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let dot = f.axis(i).dot(f.axis(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < EPS);
            }
        }
        let p: Point<3> = Point::new([1.0, 2.0, 3.0]);
        let back = f.from_frame(&f.to_frame(&p));
        assert!(back.distance(&p) < 1e-9);
    }
}
