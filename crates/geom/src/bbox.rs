//! Axis-aligned bounding boxes, the building block of the R-tree substrate.

use crate::point::Point;
use crate::segment::Segment;

/// An axis-aligned bounding box in `D` dimensions.
///
/// An *empty* box (see [`Aabb::empty`]) has `min > max` in every dimension
/// and acts as the identity for [`Aabb::union`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb<const D: usize> {
    /// Lower corner.
    pub min: [f64; D],
    /// Upper corner.
    pub max: [f64; D],
}

/// Shorthand for planar boxes.
pub type Aabb2 = Aabb<2>;

impl<const D: usize> Aabb<D> {
    /// The empty box (identity for union; intersects nothing).
    pub const fn empty() -> Self {
        Self {
            min: [f64::INFINITY; D],
            max: [f64::NEG_INFINITY; D],
        }
    }

    /// A degenerate box containing a single point.
    pub fn from_point(p: &Point<D>) -> Self {
        Self {
            min: p.coords,
            max: p.coords,
        }
    }

    /// The tight box around a segment's endpoints.
    pub fn from_segment(s: &Segment<D>) -> Self {
        let mut b = Self::from_point(&s.start);
        b.extend_point(&s.end);
        b
    }

    /// The tight box around a set of points; empty for an empty slice.
    pub fn from_points(points: &[Point<D>]) -> Self {
        let mut b = Self::empty();
        for p in points {
            b.extend_point(p);
        }
        b
    }

    /// Creates a box from explicit corners; panics if `min > max` anywhere.
    pub fn new(min: [f64; D], max: [f64; D]) -> Self {
        for k in 0..D {
            assert!(min[k] <= max[k], "Aabb::new: min > max in dimension {k}");
        }
        Self { min, max }
    }

    /// True for the empty box.
    pub fn is_empty(&self) -> bool {
        (0..D).any(|k| self.min[k] > self.max[k])
    }

    /// Grows the box to include `p`.
    pub fn extend_point(&mut self, p: &Point<D>) {
        for k in 0..D {
            self.min[k] = self.min[k].min(p.coords[k]);
            self.max[k] = self.max[k].max(p.coords[k]);
        }
    }

    /// Grows the box to include all of `other`.
    pub fn extend(&mut self, other: &Self) {
        for k in 0..D {
            self.min[k] = self.min[k].min(other.min[k]);
            self.max[k] = self.max[k].max(other.max[k]);
        }
    }

    /// The union of two boxes.
    pub fn union(&self, other: &Self) -> Self {
        let mut b = *self;
        b.extend(other);
        b
    }

    /// True when the boxes overlap (closed-interval semantics).
    pub fn intersects(&self, other: &Self) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        (0..D).all(|k| self.min[k] <= other.max[k] && self.max[k] >= other.min[k])
    }

    /// True when `p` lies inside the closed box.
    pub fn contains_point(&self, p: &Point<D>) -> bool {
        (0..D).all(|k| self.min[k] <= p.coords[k] && p.coords[k] <= self.max[k])
    }

    /// True when `other` lies entirely inside `self`.
    pub fn contains(&self, other: &Self) -> bool {
        if self.is_empty() || other.is_empty() {
            return other.is_empty();
        }
        (0..D).all(|k| self.min[k] <= other.min[k] && other.max[k] <= self.max[k])
    }

    /// The box expanded by `r ≥ 0` in every direction.
    pub fn expanded(&self, r: f64) -> Self {
        debug_assert!(r >= 0.0);
        if self.is_empty() {
            return *self;
        }
        let mut b = *self;
        for k in 0..D {
            b.min[k] -= r;
            b.max[k] += r;
        }
        b
    }

    /// The centre of the box.
    pub fn center(&self) -> Point<D> {
        let mut coords = [0.0; D];
        for k in 0..D {
            coords[k] = 0.5 * (self.min[k] + self.max[k]);
        }
        Point { coords }
    }

    /// Sum of the side lengths (the "margin"; used by R-tree heuristics).
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..D).map(|k| self.max[k] - self.min[k]).sum()
    }

    /// The `D`-dimensional volume (area in 2-D).
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..D).map(|k| self.max[k] - self.min[k]).product()
    }

    /// Volume increase caused by absorbing `other` (R-tree insertion
    /// heuristic).
    pub fn enlargement(&self, other: &Self) -> f64 {
        self.union(other).volume() - self.volume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point2;
    use crate::segment::Segment2;

    #[test]
    fn empty_box_behaviour() {
        let e = Aabb2::empty();
        assert!(e.is_empty());
        assert!(!e.intersects(&e));
        assert_eq!(e.volume(), 0.0);
        assert_eq!(e.margin(), 0.0);
        let b = Aabb2::new([0.0, 0.0], [1.0, 1.0]);
        assert_eq!(e.union(&b), b, "empty is the identity for union");
    }

    #[test]
    fn from_segment_is_tight() {
        let s = Segment2::xy(3.0, -1.0, 0.0, 4.0);
        let b = Aabb2::from_segment(&s);
        assert_eq!(b.min, [0.0, -1.0]);
        assert_eq!(b.max, [3.0, 4.0]);
    }

    #[test]
    fn intersection_and_containment() {
        let a = Aabb2::new([0.0, 0.0], [2.0, 2.0]);
        let b = Aabb2::new([1.0, 1.0], [3.0, 3.0]);
        let c = Aabb2::new([5.0, 5.0], [6.0, 6.0]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.contains_point(&Point2::xy(1.0, 1.0)));
        assert!(!a.contains_point(&Point2::xy(2.1, 1.0)));
        assert!(a.contains(&Aabb2::new([0.5, 0.5], [1.5, 1.5])));
        assert!(!a.contains(&b));
    }

    #[test]
    fn touching_boxes_intersect() {
        let a = Aabb2::new([0.0, 0.0], [1.0, 1.0]);
        let b = Aabb2::new([1.0, 0.0], [2.0, 1.0]);
        assert!(a.intersects(&b), "closed-interval semantics");
    }

    #[test]
    fn expansion_grows_every_side() {
        let a = Aabb2::new([0.0, 0.0], [1.0, 1.0]);
        let e = a.expanded(2.0);
        assert_eq!(e.min, [-2.0, -2.0]);
        assert_eq!(e.max, [3.0, 3.0]);
    }

    #[test]
    fn volume_margin_enlargement() {
        let a = Aabb2::new([0.0, 0.0], [2.0, 3.0]);
        assert!((a.volume() - 6.0).abs() < 1e-12);
        assert!((a.margin() - 5.0).abs() < 1e-12);
        let b = Aabb2::new([2.0, 3.0], [4.0, 4.0]);
        // union = [0,0]-[4,4] → volume 16; enlargement = 10.
        assert!((a.enlargement(&b) - 10.0).abs() < 1e-12);
    }
}
