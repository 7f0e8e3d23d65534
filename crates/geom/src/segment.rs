//! Directed line segments and projections onto their supporting lines.
//!
//! A *trajectory partition* (Section 3.1) is a directed line segment between
//! two characteristic points; the grouping phase clusters these segments.

use crate::point::{Point, Vector};

/// A directed line segment `start → end` in `D` dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment<const D: usize> {
    /// The starting point (`sᵢ` in the paper's notation).
    pub start: Point<D>,
    /// The ending point (`eᵢ`).
    pub end: Point<D>,
}

/// Shorthand for planar segments.
pub type Segment2 = Segment<2>;

/// Result of projecting a point onto the supporting line of a segment
/// (Formula 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection<const D: usize> {
    /// The projected point `p = sᵢ + u · →sᵢeᵢ` on the supporting line.
    pub point: Point<D>,
    /// The line parameter `u`; `u ∈ [0, 1]` iff the projection falls within
    /// the segment.
    pub u: f64,
}

impl<const D: usize> Segment<D> {
    /// Creates a segment from its endpoints.
    pub const fn new(start: Point<D>, end: Point<D>) -> Self {
        Self { start, end }
    }

    /// Euclidean length `‖L‖` of the segment.
    pub fn length(&self) -> f64 {
        self.start.distance(&self.end)
    }

    /// Squared length (cheaper when only comparisons are needed).
    pub fn length_squared(&self) -> f64 {
        self.start.distance_squared(&self.end)
    }

    /// The direction vector `→se` (not normalised).
    pub fn vector(&self) -> Vector<D> {
        self.start.vector_to(&self.end)
    }

    /// The unit direction, or `None` for a degenerate (zero-length) segment.
    pub fn direction(&self) -> Option<Vector<D>> {
        self.vector().normalized()
    }

    /// The midpoint of the segment.
    pub fn midpoint(&self) -> Point<D> {
        self.start.midpoint(&self.end)
    }

    /// The segment with start and end swapped.
    pub fn reversed(&self) -> Self {
        Self {
            start: self.end,
            end: self.start,
        }
    }

    /// True when start and end coincide (within exact float equality); such
    /// segments carry no direction (see the Section 4.1.3 discussion of
    /// short segments — a degenerate segment is the limiting case).
    pub fn is_degenerate(&self) -> bool {
        self.length_squared() <= 0.0
    }

    /// The point on the segment at parameter `t ∈ [0, 1]`.
    pub fn point_at(&self, t: f64) -> Point<D> {
        self.start.lerp(&self.end, t)
    }

    /// Projects `p` onto the supporting **line** of this segment
    /// (Formula 4). Returns `None` when the segment is degenerate and the
    /// supporting line is undefined.
    pub fn project_onto_line(&self, p: &Point<D>) -> Option<Projection<D>> {
        let v = self.vector();
        let denom = v.norm_squared();
        if denom <= 0.0 {
            return None;
        }
        let u = self.start.vector_to(p).dot(&v) / denom;
        Some(Projection {
            point: self.start.translate(&v.scale(u)),
            u,
        })
    }

    /// Distance from `p` to the supporting line of this segment; for a
    /// degenerate segment this is the distance to the (single) point.
    pub fn line_distance(&self, p: &Point<D>) -> f64 {
        match self.project_onto_line(p) {
            Some(proj) => p.distance(&proj.point),
            None => p.distance(&self.start),
        }
    }

    /// Distance from `p` to the **segment** (projection clamped to
    /// `[start, end]`).
    pub fn segment_distance(&self, p: &Point<D>) -> f64 {
        match self.project_onto_line(p) {
            Some(proj) => {
                let t = proj.u.clamp(0.0, 1.0);
                p.distance(&self.point_at(t))
            }
            None => p.distance(&self.start),
        }
    }

    /// Minimum Euclidean distance between two segments, computed by sampling
    /// the four endpoint-to-segment distances plus, in 2-D-like configs, the
    /// crossing case. For arbitrary `D` the endpoint distances suffice
    /// whenever the segments do not intersect; intersection is detected via
    /// the mutual-projection criterion.
    pub fn min_distance(&self, other: &Self) -> f64 {
        // If the segments intersect, the distance is zero. A robust,
        // dimension-generic test: the closest points of the two supporting
        // lines (clamped to the segments) realise the minimum; we compute
        // them via the standard segment-segment closest-point algorithm.
        let p1 = self.start;
        let d1 = self.vector();
        let p2 = other.start;
        let d2 = other.vector();
        let r = p2.vector_to(&p1);
        let a = d1.norm_squared();
        let e = d2.norm_squared();
        let f = d2.dot(&r);
        let (s, t);
        if a <= 0.0 && e <= 0.0 {
            return p1.distance(&p2);
        }
        if a <= 0.0 {
            s = 0.0;
            t = (f / e).clamp(0.0, 1.0);
        } else {
            let c = d1.dot(&r);
            if e <= 0.0 {
                t = 0.0;
                s = (-c / a).clamp(0.0, 1.0);
            } else {
                let b = d1.dot(&d2);
                let denom = a * e - b * b;
                let mut s_val = if denom > 0.0 {
                    ((b * f - c * e) / denom).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let mut t_val = (b * s_val + f) / e;
                if t_val < 0.0 {
                    t_val = 0.0;
                    s_val = (-c / a).clamp(0.0, 1.0);
                } else if t_val > 1.0 {
                    t_val = 1.0;
                    s_val = ((b - c) / a).clamp(0.0, 1.0);
                }
                s = s_val;
                t = t_val;
            }
        }
        self.point_at(s).distance(&other.point_at(t))
    }

    /// Translates the segment by `v`.
    pub fn translated(&self, v: &Vector<D>) -> Self {
        Self {
            start: self.start.translate(v),
            end: self.end.translate(v),
        }
    }

    /// True when every coordinate of both endpoints is finite.
    pub fn is_finite(&self) -> bool {
        self.start.is_finite() && self.end.is_finite()
    }

    /// Lexicographic comparison on `(start, end)` coordinates; the
    /// deterministic fallback tie-breaker used to keep the segment distance
    /// symmetric for equal-length segments (Lemma 2).
    pub fn lex_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.start
            .lex_cmp(&other.start)
            .then_with(|| self.end.lex_cmp(&other.end))
    }
}

impl Segment2 {
    /// Convenience constructor for planar segments.
    pub const fn xy(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        Self {
            start: Point::xy(x1, y1),
            end: Point::xy(x2, y2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point2;

    const EPS: f64 = 1e-12;

    #[test]
    fn length_and_midpoint() {
        let s = Segment2::xy(0.0, 0.0, 6.0, 8.0);
        assert!((s.length() - 10.0).abs() < EPS);
        assert_eq!(s.midpoint(), Point2::xy(3.0, 4.0));
    }

    #[test]
    fn projection_inside_segment() {
        let s = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let proj = s.project_onto_line(&Point2::xy(3.0, 5.0)).unwrap();
        assert!((proj.u - 0.3).abs() < EPS);
        assert_eq!(proj.point, Point2::xy(3.0, 0.0));
    }

    #[test]
    fn projection_beyond_segment_extrapolates() {
        let s = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let proj = s.project_onto_line(&Point2::xy(15.0, 2.0)).unwrap();
        assert!((proj.u - 1.5).abs() < EPS);
        assert_eq!(proj.point, Point2::xy(15.0, 0.0));
    }

    #[test]
    fn degenerate_segment_has_no_projection() {
        let s = Segment2::xy(1.0, 1.0, 1.0, 1.0);
        assert!(s.is_degenerate());
        assert!(s.project_onto_line(&Point2::xy(0.0, 0.0)).is_none());
        assert!((s.line_distance(&Point2::xy(4.0, 5.0)) - 5.0).abs() < EPS);
    }

    #[test]
    fn line_vs_segment_distance() {
        let s = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let p = Point2::xy(13.0, 4.0);
        assert!((s.line_distance(&p) - 4.0).abs() < EPS);
        assert!((s.segment_distance(&p) - 5.0).abs() < EPS);
    }

    #[test]
    fn min_distance_between_parallel_segments() {
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(0.0, 3.0, 10.0, 3.0);
        assert!((a.min_distance(&b) - 3.0).abs() < EPS);
    }

    #[test]
    fn min_distance_of_crossing_segments_is_zero() {
        let a = Segment2::xy(0.0, 0.0, 10.0, 10.0);
        let b = Segment2::xy(0.0, 10.0, 10.0, 0.0);
        assert!(a.min_distance(&b) < EPS);
    }

    #[test]
    fn min_distance_endpoint_case() {
        let a = Segment2::xy(0.0, 0.0, 1.0, 0.0);
        let b = Segment2::xy(4.0, 4.0, 5.0, 5.0);
        assert!((a.min_distance(&b) - 5.0).abs() < EPS);
    }

    #[test]
    fn min_distance_degenerate_cases() {
        let a = Segment2::xy(0.0, 0.0, 0.0, 0.0);
        let b = Segment2::xy(3.0, 4.0, 3.0, 4.0);
        assert!((a.min_distance(&b) - 5.0).abs() < EPS);
        let c = Segment2::xy(0.0, 1.0, 10.0, 1.0);
        assert!((a.min_distance(&c) - 1.0).abs() < EPS);
        assert!((c.min_distance(&a) - 1.0).abs() < EPS);
    }

    #[test]
    fn min_distance_is_symmetric() {
        let a = Segment2::xy(0.0, 0.0, 5.0, 2.0);
        let b = Segment2::xy(7.0, -3.0, 2.0, 9.0);
        assert!((a.min_distance(&b) - b.min_distance(&a)).abs() < 1e-9);
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let s = Segment2::xy(1.0, 2.0, 3.0, 4.0);
        let r = s.reversed();
        assert_eq!(r.start, s.end);
        assert_eq!(r.end, s.start);
        assert!((s.length() - r.length()).abs() < EPS);
    }

    #[test]
    fn point_at_parameterisation() {
        let s = Segment2::xy(0.0, 0.0, 10.0, 20.0);
        assert_eq!(s.point_at(0.0), s.start);
        assert_eq!(s.point_at(1.0), s.end);
        assert_eq!(s.point_at(0.5), s.midpoint());
    }

    #[test]
    fn translated_preserves_length() {
        let s = Segment2::xy(1.0, 1.0, 4.0, 5.0);
        let t = s.translated(&crate::point::Vector2::xy(100.0, -50.0));
        assert!((s.length() - t.length()).abs() < EPS);
        assert_eq!(t.start, Point2::xy(101.0, -49.0));
    }
}
