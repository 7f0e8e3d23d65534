//! # traclus-geom
//!
//! Geometry kernel for the TRACLUS reproduction (Lee, Han, Whang:
//! *Trajectory Clustering: A Partition-and-Group Framework*, SIGMOD 2007).
//!
//! This crate owns everything that is "pure geometry" in the paper:
//!
//! * [`Point`] / [`Vector`] — d-dimensional points and displacements
//!   (Section 2.1's `d`-dimensional points; Formulas 4–5 vector algebra);
//! * [`Segment`] — directed line segments with projections (Formula 4);
//! * [`SegmentDistance`] — the composite perpendicular/parallel/angle
//!   distance of Definitions 1–3, plus the naive
//!   [`endpoint_sum_distance`] of Appendix A for comparison;
//! * [`SegmentTable`] / [`PreparedBase`] — the segment table (one record
//!   per segment: endpoints, derived geometry, weight, trajectory id), its
//!   one Lemma 2 role rule [`SegmentTable::roles`] (longer cached length
//!   first, ties to the smaller id), and the batched kernels that hoist
//!   the per-query projection setup out of candidate loops:
//!   [`SegmentDistance::distance_many_into`] for ε-queries, which hands
//!   its rare lanes and odd last candidate to the scalar reference, and
//!   [`SegmentDistance::mdl_components_prepared`] for the MDL cost. Both
//!   are bit-identical to the scalar path; see [`batch`];
//! * [`lower_bound`] — a provably admissible midpoint/length lower bound
//!   on the composite distance backing the filter-and-refine
//!   ε-neighborhood path in `traclus-core`;
//! * [`Trajectory`] / [`IdentifiedSegment`] — identified point sequences
//!   and trajectory partitions (Definition 10 needs segment→trajectory
//!   provenance);
//! * [`Aabb`] — axis-aligned boxes backing the spatial index substrate;
//! * [`OrthonormalFrame`] — the d-dimensional generalisation of the axis
//!   rotation (Formula 9) used for representative trajectories.
//!
//! Everything is `f64`, deterministic, and allocation-free on the hot
//! paths (distance evaluation allocates nothing).

#![warn(missing_docs)]
// Const-generic code indexes several [f64; D] arrays with one loop counter;
// clippy's iterator rewrite would zip up to four iterators and read worse.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod bbox;
pub mod distance;
pub mod frame;
pub mod lower_bound;
pub mod point;
pub mod segment;
pub mod trajectory;

pub use batch::{remove_sorted, PreparedBase, SegmentRecord, SegmentTable};
pub use bbox::{Aabb, Aabb2};
pub use distance::{
    endpoint_sum_distance, lehmer_mean_2, AngleMode, DistanceComponents, DistanceWeights,
    SegmentDistance,
};
pub use frame::OrthonormalFrame;
pub use lower_bound::PruneFilter;
pub use point::{Point, Point2, Vector, Vector2};
pub use segment::{Projection, Segment, Segment2};
pub use trajectory::{
    IdentifiedSegment, IdentifiedSegment2, SegmentId, Trajectory, Trajectory2, TrajectoryId,
};
