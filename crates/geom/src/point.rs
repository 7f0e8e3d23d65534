//! `d`-dimensional points and vectors.
//!
//! The paper (Section 2.1) defines a trajectory as a sequence of
//! *d*-dimensional points. We model dimensionality with a const generic so
//! the same code serves the 2-D evaluation data and the 3-D extension the
//! paper mentions in Section 4.3 (footnote 3).

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A point in `D`-dimensional Euclidean space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<const D: usize> {
    /// Cartesian coordinates.
    pub coords: [f64; D],
}

impl<const D: usize> Default for Point<D> {
    fn default() -> Self {
        Self::origin()
    }
}

/// A displacement in `D`-dimensional Euclidean space.
///
/// Kept distinct from [`Point`] so that signatures such as
/// [`Point::translate`] document intent, mirroring the paper's use of
/// `→ab` vectors in Formulas (4) and (5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vector<const D: usize> {
    /// Cartesian components.
    pub components: [f64; D],
}

impl<const D: usize> Default for Vector<D> {
    fn default() -> Self {
        Self::zero()
    }
}

/// Shorthand for the planar case used throughout the paper's evaluation.
pub type Point2 = Point<2>;
/// Shorthand for planar displacement vectors.
pub type Vector2 = Vector<2>;

impl<const D: usize> Point<D> {
    /// Creates a point from its coordinate array.
    pub const fn new(coords: [f64; D]) -> Self {
        Self { coords }
    }

    /// The origin (all coordinates zero).
    pub const fn origin() -> Self {
        Self { coords: [0.0; D] }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Self) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the square root when
    /// only comparisons are needed).
    pub fn distance_squared(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for k in 0..D {
            let d = self.coords[k] - other.coords[k];
            acc += d * d;
        }
        acc
    }

    /// The displacement vector from `self` to `other` (`→self other`).
    pub fn vector_to(&self, other: &Self) -> Vector<D> {
        let mut components = [0.0; D];
        for k in 0..D {
            components[k] = other.coords[k] - self.coords[k];
        }
        Vector { components }
    }

    /// Returns the point displaced by `v`.
    pub fn translate(&self, v: &Vector<D>) -> Self {
        let mut coords = self.coords;
        for k in 0..D {
            coords[k] += v.components[k];
        }
        Self { coords }
    }

    /// Linear interpolation: `self + t · (other − self)`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`; values outside `[0, 1]`
    /// extrapolate along the supporting line.
    pub fn lerp(&self, other: &Self, t: f64) -> Self {
        let mut coords = [0.0; D];
        for k in 0..D {
            coords[k] = self.coords[k] + t * (other.coords[k] - self.coords[k]);
        }
        Self { coords }
    }

    /// Component-wise midpoint of `self` and `other`.
    pub fn midpoint(&self, other: &Self) -> Self {
        self.lerp(other, 0.5)
    }

    /// Reinterprets the point as a position vector from the origin.
    pub fn to_vector(&self) -> Vector<D> {
        Vector {
            components: self.coords,
        }
    }

    /// True when every coordinate is finite (no NaN/∞).
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }

    /// Total order on coordinates (lexicographic, NaN-free inputs assumed).
    /// −0.0 equals +0.0, and a coordinate pair holding a NaN is skipped.
    ///
    /// Used as the deterministic tie-breaker that Lemma 2 obtains from the
    /// "internal identifier" when two segments have exactly equal length.
    pub fn lex_cmp(&self, other: &Self) -> std::cmp::Ordering {
        for (a, b) in self.coords.iter().zip(&other.coords) {
            if a < b {
                return std::cmp::Ordering::Less;
            }
            if a > b {
                return std::cmp::Ordering::Greater;
            }
        }
        std::cmp::Ordering::Equal
    }
}

impl Point2 {
    /// Convenience constructor for the planar case.
    pub const fn xy(x: f64, y: f64) -> Self {
        Self { coords: [x, y] }
    }

    /// The first coordinate.
    pub fn x(&self) -> f64 {
        self.coords[0]
    }

    /// The second coordinate.
    pub fn y(&self) -> f64 {
        self.coords[1]
    }
}

impl<const D: usize> Vector<D> {
    /// Creates a vector from its component array.
    pub const fn new(components: [f64; D]) -> Self {
        Self { components }
    }

    /// The zero vector.
    pub const fn zero() -> Self {
        Self {
            components: [0.0; D],
        }
    }

    /// Dot product with `other`.
    pub fn dot(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for k in 0..D {
            acc += self.components[k] * other.components[k];
        }
        acc
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm.
    pub fn norm_squared(&self) -> f64 {
        self.dot(self)
    }

    /// Returns the unit vector in the same direction, or `None` when the
    /// vector is (numerically) zero and has no direction.
    pub fn normalized(&self) -> Option<Self> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(*self / n)
        }
    }

    /// The vector scaled by `s`.
    pub fn scale(&self, s: f64) -> Self {
        let mut components = self.components;
        for c in &mut components {
            *c *= s;
        }
        Self { components }
    }

    /// Cosine of the angle between `self` and `other`, clamped to `[-1, 1]`
    /// (Formula 5). Returns `None` when either vector is zero, i.e. when the
    /// angle is undefined.
    pub fn cos_angle(&self, other: &Self) -> Option<f64> {
        let denom = self.norm() * other.norm();
        if denom <= f64::EPSILON {
            None
        } else {
            Some((self.dot(other) / denom).clamp(-1.0, 1.0))
        }
    }

    /// The smaller intersecting angle `θ ∈ [0, π]` between the directions of
    /// `self` and `other` (Definition 3). `None` when either vector is zero.
    pub fn angle(&self, other: &Self) -> Option<f64> {
        self.cos_angle(other).map(f64::acos)
    }

    /// `sin θ` of the angle between `self` and `other`, computed from the
    /// Gram determinant `√(‖v‖²‖w‖² − (v·w)²) / (‖v‖‖w‖)` rather than
    /// `√(1 − cos²θ)`: the determinant form is exactly zero for identical
    /// vectors and does not amplify a 1-ULP cosine error into ~1e-8 (which
    /// would break `dist(L, L) = 0`). `None` when either vector is zero.
    pub fn sin_angle(&self, other: &Self) -> Option<f64> {
        let vv = self.norm_squared();
        let ww = other.norm_squared();
        let denom = vv * ww;
        if denom <= 0.0 {
            return None;
        }
        let vw = self.dot(other);
        let gram = (denom - vw * vw).max(0.0);
        Some((gram / denom).sqrt().clamp(0.0, 1.0))
    }

    /// Reinterprets the vector as a point (position from the origin).
    pub fn to_point(&self) -> Point<D> {
        Point {
            coords: self.components,
        }
    }

    /// True when every component is finite.
    pub fn is_finite(&self) -> bool {
        self.components.iter().all(|c| c.is_finite())
    }
}

impl Vector2 {
    /// Convenience constructor for the planar case.
    pub const fn xy(x: f64, y: f64) -> Self {
        Self { components: [x, y] }
    }

    /// The first component.
    pub fn x(&self) -> f64 {
        self.components[0]
    }

    /// The second component.
    pub fn y(&self) -> f64 {
        self.components[1]
    }

    /// The 2-D cross product (`z` component of the 3-D cross product).
    pub fn cross(&self, other: &Self) -> f64 {
        self.components[0] * other.components[1] - self.components[1] * other.components[0]
    }

    /// Rotates the vector by `angle` radians counter-clockwise.
    pub fn rotated(&self, angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Self {
            components: [
                c * self.components[0] - s * self.components[1],
                s * self.components[0] + c * self.components[1],
            ],
        }
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl<const D: usize> IndexMut<usize> for Point<D> {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.coords[i]
    }
}

impl<const D: usize> Index<usize> for Vector<D> {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.components[i]
    }
}

impl<const D: usize> IndexMut<usize> for Vector<D> {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.components[i]
    }
}

impl<const D: usize> Add<Vector<D>> for Point<D> {
    type Output = Point<D>;
    fn add(self, v: Vector<D>) -> Point<D> {
        self.translate(&v)
    }
}

impl<const D: usize> Sub for Point<D> {
    type Output = Vector<D>;
    fn sub(self, other: Point<D>) -> Vector<D> {
        other.vector_to(&self)
    }
}

impl<const D: usize> Add for Vector<D> {
    type Output = Vector<D>;
    fn add(self, other: Vector<D>) -> Vector<D> {
        let mut components = self.components;
        for k in 0..D {
            components[k] += other.components[k];
        }
        Vector { components }
    }
}

impl<const D: usize> AddAssign for Vector<D> {
    fn add_assign(&mut self, other: Vector<D>) {
        for k in 0..D {
            self.components[k] += other.components[k];
        }
    }
}

impl<const D: usize> Sub for Vector<D> {
    type Output = Vector<D>;
    fn sub(self, other: Vector<D>) -> Vector<D> {
        let mut components = self.components;
        for k in 0..D {
            components[k] -= other.components[k];
        }
        Vector { components }
    }
}

impl<const D: usize> SubAssign for Vector<D> {
    fn sub_assign(&mut self, other: Vector<D>) {
        for k in 0..D {
            self.components[k] -= other.components[k];
        }
    }
}

impl<const D: usize> Mul<f64> for Vector<D> {
    type Output = Vector<D>;
    fn mul(self, s: f64) -> Vector<D> {
        self.scale(s)
    }
}

impl<const D: usize> Div<f64> for Vector<D> {
    type Output = Vector<D>;
    fn div(self, s: f64) -> Vector<D> {
        self.scale(1.0 / s)
    }
}

impl<const D: usize> Neg for Vector<D> {
    type Output = Vector<D>;
    fn neg(self) -> Vector<D> {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn distance_is_euclidean() {
        let a = Point2::xy(0.0, 0.0);
        let b = Point2::xy(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < EPS);
        assert!((a.distance_squared(&b) - 25.0).abs() < EPS);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point2::xy(-1.5, 2.0);
        let b = Point2::xy(4.0, -7.25);
        assert!((a.distance(&b) - b.distance(&a)).abs() < EPS);
    }

    #[test]
    fn vector_to_and_translate_round_trip() {
        let a = Point2::xy(1.0, 2.0);
        let b = Point2::xy(-3.0, 5.0);
        let v = a.vector_to(&b);
        let back = a.translate(&v);
        assert!((back.x() - b.x()).abs() < EPS);
        assert!((back.y() - b.y()).abs() < EPS);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point2::xy(0.0, 0.0);
        let b = Point2::xy(10.0, -4.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let m = a.midpoint(&b);
        assert!((m.x() - 5.0).abs() < EPS);
        assert!((m.y() + 2.0).abs() < EPS);
    }

    #[test]
    fn dot_and_norm() {
        let v = Vector2::xy(3.0, 4.0);
        let w = Vector2::xy(-4.0, 3.0);
        assert!((v.dot(&w)).abs() < EPS, "orthogonal vectors");
        assert!((v.norm() - 5.0).abs() < EPS);
        assert!((v.norm_squared() - 25.0).abs() < EPS);
    }

    #[test]
    fn normalized_unit_and_zero() {
        let v = Vector2::xy(0.0, 2.0);
        let u = v.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < EPS);
        assert!(Vector2::zero().normalized().is_none());
    }

    #[test]
    fn angle_between_vectors() {
        let v = Vector2::xy(1.0, 0.0);
        let w = Vector2::xy(0.0, 1.0);
        assert!((v.angle(&w).unwrap() - std::f64::consts::FRAC_PI_2).abs() < EPS);
        let opposite = Vector2::xy(-1.0, 0.0);
        assert!((v.angle(&opposite).unwrap() - std::f64::consts::PI).abs() < EPS);
        assert!(v.angle(&Vector2::zero()).is_none());
    }

    #[test]
    fn cos_angle_clamps_rounding_noise() {
        // Nearly parallel vectors whose naive cosine can exceed 1.0 by a ULP.
        let v = Vector2::xy(1e8, 1e-8);
        let w = Vector2::xy(2e8, 2e-8);
        let c = v.cos_angle(&w).unwrap();
        assert!((0.999_999_999..=1.0).contains(&c));
        assert!(v.angle(&w).unwrap().is_finite());
    }

    #[test]
    fn cross_sign_encodes_orientation() {
        let v = Vector2::xy(1.0, 0.0);
        let w = Vector2::xy(0.0, 1.0);
        assert!(v.cross(&w) > 0.0);
        assert!(w.cross(&v) < 0.0);
    }

    #[test]
    fn rotation_by_quarter_turn() {
        let v = Vector2::xy(1.0, 0.0);
        let r = v.rotated(std::f64::consts::FRAC_PI_2);
        assert!((r.x()).abs() < EPS);
        assert!((r.y() - 1.0).abs() < EPS);
    }

    #[test]
    fn operators_match_methods() {
        let a = Point2::xy(1.0, 1.0);
        let b = Point2::xy(4.0, 5.0);
        let v = b - a;
        assert_eq!(v, a.vector_to(&b));
        assert_eq!(a + v, b);
        assert_eq!(v * 2.0, Vector2::xy(6.0, 8.0));
        assert_eq!(v / 2.0, Vector2::xy(1.5, 2.0));
        assert_eq!(-v, Vector2::xy(-3.0, -4.0));
        let mut acc = Vector2::zero();
        acc += v;
        acc -= Vector2::xy(1.0, 1.0);
        assert_eq!(acc, Vector2::xy(2.0, 3.0));
    }

    #[test]
    fn lex_cmp_orders_by_first_differing_coordinate() {
        use std::cmp::Ordering;
        let a = Point2::xy(1.0, 9.0);
        let b = Point2::xy(2.0, 0.0);
        assert_eq!(a.lex_cmp(&b), Ordering::Less);
        assert_eq!(b.lex_cmp(&a), Ordering::Greater);
        assert_eq!(a.lex_cmp(&a), Ordering::Equal);
        let c = Point2::xy(1.0, 10.0);
        assert_eq!(a.lex_cmp(&c), Ordering::Less);
        // Signed zeros compare equal, so y decides (total_cmp would say Less).
        let neg_zero = Point2::xy(-0.0, 2.0);
        assert_eq!(neg_zero.lex_cmp(&Point2::xy(0.0, 1.0)), Ordering::Greater);
    }

    #[test]
    fn works_in_three_dimensions() {
        let a: Point<3> = Point::new([1.0, 2.0, 3.0]);
        let b: Point<3> = Point::new([4.0, 6.0, 3.0]);
        assert!((a.distance(&b) - 5.0).abs() < EPS);
        let v = a.vector_to(&b);
        assert!((v.norm() - 5.0).abs() < EPS);
    }
}
