//! Trajectories and the identified line segments the grouping phase
//! consumes.
//!
//! Section 2.1: a trajectory `TRᵢ = p₁p₂…p_lenᵢ` is a sequence of
//! *d*-dimensional points; a *trajectory partition* is a directed segment
//! between two of its points. The clustering phase must remember which
//! trajectory each segment came from (Definition 10 filters clusters by
//! *trajectory cardinality*), so segments carry a [`TrajectoryId`].

use crate::bbox::Aabb;
use crate::point::Point;
use crate::segment::Segment;

/// Identifier of a trajectory within a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(
    clippy::disallowed_methods,
    reason = "derive(PartialOrd) calls partial_cmp on the u32 field, a total order"
)]
pub struct TrajectoryId(pub u32);

/// Identifier of a line segment within a segment database `D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(
    clippy::disallowed_methods,
    reason = "derive(PartialOrd) calls partial_cmp on the u32 field, a total order"
)]
pub struct SegmentId(pub u32);

impl std::fmt::Display for TrajectoryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TR{}", self.0)
    }
}

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A trajectory: an identified point sequence with an optional weight.
///
/// The weight feeds the paper's weighted-trajectory extension
/// (Section 4.2 end: "a stronger hurricane should have a higher weight");
/// it defaults to 1 and is ignored unless weighted clustering is enabled.
/// It is set only through [`Self::new`] and [`Self::with_weight`], so every
/// trajectory's weight is positive and finite.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory<const D: usize> {
    /// Dataset-unique identifier.
    pub id: TrajectoryId,
    /// The point sequence `p₁…p_len`.
    pub points: Vec<Point<D>>,
    /// Clustering weight (default 1.0).
    weight: f64,
}

/// Shorthand for planar trajectories.
pub type Trajectory2 = Trajectory<2>;

impl<const D: usize> Trajectory<D> {
    /// Creates a unit-weight trajectory.
    pub fn new(id: TrajectoryId, points: Vec<Point<D>>) -> Self {
        Self {
            id,
            points,
            weight: 1.0,
        }
    }

    /// Creates a weighted trajectory; the weight must be positive and
    /// finite.
    pub fn with_weight(id: TrajectoryId, points: Vec<Point<D>>, weight: f64) -> Self {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "trajectory weight must be positive and finite"
        );
        Self { id, points, weight }
    }

    /// Clustering weight: positive and finite, 1.0 unless set by
    /// [`Self::with_weight`].
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Number of points (`lenᵢ` in the paper).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True for an empty point sequence.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The consecutive-point segments `p₁p₂, p₂p₃, …` (i.e. the finest
    /// possible partitioning).
    pub fn edges(&self) -> impl Iterator<Item = Segment<D>> + '_ {
        self.points.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Total polyline length.
    pub fn path_length(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Bounding box of all points.
    pub fn bounding_box(&self) -> Aabb<D> {
        Aabb::from_points(&self.points)
    }

    /// The sub-trajectory through the given point indices (must be strictly
    /// increasing and in range), per the Section 2.1 definition.
    pub fn sub_trajectory(&self, indices: &[usize]) -> Self {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        Self {
            id: self.id,
            points: indices.iter().map(|&i| self.points[i]).collect(),
            weight: self.weight,
        }
    }
}

/// A line segment tagged with its provenance: which trajectory produced it
/// and its own id in the segment database. This is the unit of clustering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdentifiedSegment<const D: usize> {
    /// Id within the segment database `D` of Figure 12.
    pub id: SegmentId,
    /// The trajectory this partition was extracted from (`TR(Lⱼ)` in
    /// Definition 10).
    pub trajectory: TrajectoryId,
    /// The geometry.
    pub segment: Segment<D>,
    /// Weight inherited from the trajectory (1.0 unless weighted).
    pub weight: f64,
}

/// Shorthand for planar identified segments.
pub type IdentifiedSegment2 = IdentifiedSegment<2>;

impl<const D: usize> IdentifiedSegment<D> {
    /// Creates an identified segment with unit weight.
    pub fn new(id: SegmentId, trajectory: TrajectoryId, segment: Segment<D>) -> Self {
        Self {
            id,
            trajectory,
            segment,
            weight: 1.0,
        }
    }

    /// The segment's bounding box (used by spatial indexes).
    pub fn bounding_box(&self) -> Aabb<D> {
        Aabb::from_segment(&self.segment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point2;

    fn traj(points: &[(f64, f64)]) -> Trajectory2 {
        Trajectory::new(
            TrajectoryId(7),
            points.iter().map(|&(x, y)| Point2::xy(x, y)).collect(),
        )
    }

    #[test]
    fn edges_are_consecutive_pairs() {
        let t = traj(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]);
        let edges: Vec<_> = t.edges().collect();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].start, Point2::xy(0.0, 0.0));
        assert_eq!(edges[0].end, Point2::xy(1.0, 0.0));
        assert_eq!(edges[1].end, Point2::xy(1.0, 1.0));
    }

    #[test]
    fn path_length_sums_edges() {
        let t = traj(&[(0.0, 0.0), (3.0, 4.0), (3.0, 10.0)]);
        assert!((t.path_length() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_trajectories() {
        let e = traj(&[]);
        assert!(e.is_empty());
        assert_eq!(e.edges().count(), 0);
        assert_eq!(e.path_length(), 0.0);
        let s = traj(&[(1.0, 1.0)]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.edges().count(), 0);
    }

    #[test]
    fn sub_trajectory_picks_indices() {
        let t = traj(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let sub = t.sub_trajectory(&[0, 2, 3]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.points[1], Point2::xy(2.0, 0.0));
        assert_eq!(sub.id, t.id, "sub-trajectory keeps provenance");
    }

    #[test]
    fn bounding_box_covers_all_points() {
        let t = traj(&[(0.0, 5.0), (-2.0, 1.0), (4.0, -3.0)]);
        let b = t.bounding_box();
        assert_eq!(b.min, [-2.0, -3.0]);
        assert_eq!(b.max, [4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let _ = Trajectory2::with_weight(TrajectoryId(0), vec![], 0.0);
    }

    #[test]
    fn identified_segment_bbox() {
        let s = IdentifiedSegment2::new(
            SegmentId(3),
            TrajectoryId(1),
            crate::segment::Segment2::xy(1.0, 2.0, -1.0, 4.0),
        );
        let b = s.bounding_box();
        assert_eq!(b.min, [-1.0, 2.0]);
        assert_eq!(b.max, [1.0, 4.0]);
        assert_eq!(s.weight, 1.0);
    }
}
