//! # traclus-index
//!
//! Spatial index substrate for TRACLUS ε-neighborhood queries.
//!
//! Lemma 3 of the paper: line-segment clustering costs `O(n²)` without an
//! index and `O(n log n)` with "an appropriate index such as the R-tree".
//! The paper defers the difficulty — the segment distance is **not a
//! metric** — to future work (Section 7.1, item 3). We resolve it here with
//! a *conservative filter-and-refine* scheme:
//!
//! 1. every segment is indexed by its minimum bounding rectangle (MBR);
//! 2. an ε-neighborhood query for segment `L` retrieves all candidates
//!    whose MBR intersects `mbr(L)` expanded by the
//!    [`filter_radius`] `r(ε)`;
//! 3. exact distances refine the candidate set.
//!
//! **Why the filter is conservative.** Let `dmin` be the closest Euclidean
//! approach of segments `Lᵢ, Lⱼ`. Pick the endpoint of the shorter segment
//! that realises the parallel distance `d∥`; its perpendicular offset
//! `l⊥ ≤ 2·d⊥` because the order-2 Lehmer mean satisfies
//! `L₂(a,b) ≥ max(a,b)/2` (tested in `traclus-geom`). The distance from
//! that endpoint to the segment `Lᵢ` is at most `√(l⊥² + d∥²)`, hence
//!
//! ```text
//! dmin ≤ √((2·d⊥)² + d∥²).
//! ```
//!
//! If `dist(Lᵢ,Lⱼ) = w⊥·d⊥ + w∥·d∥ + wθ·dθ ≤ ε`, then `d⊥ ≤ ε/w⊥` and
//! `d∥ ≤ ε/w∥` individually (all terms non-negative), so
//! `dmin ≤ ε·√(4/w⊥² + 1/w∥²)`, and since MBR distance lower-bounds segment
//! distance, expanding the query MBR by that radius cannot miss a
//! neighbour. With the paper's uniform weights the radius is `√5·ε ≈
//! 2.24·ε`. The bound is property-tested in this crate against random
//! segment pairs.
//!
//! The index is an [`RTree`] (STR bulk load + quadratic-split insertion,
//! the paper's suggestion). [`LinearScanIndex`] is the O(n²) reference the
//! R-tree's tests compare it against.

pub mod rtree;

pub use rtree::RTree;

use traclus_geom::{Aabb, DistanceWeights};

/// Radius by which a query MBR must be expanded so that an intersection
/// test over-approximates the ε-neighborhood under the composite segment
/// distance (see the crate docs for the derivation).
///
/// Returns `None` when either the perpendicular or parallel weight is zero:
/// the distance then no longer bounds spatial proximity at all and only a
/// full scan is correct.
pub fn filter_radius(eps: f64, weights: &DistanceWeights) -> Option<f64> {
    debug_assert!(eps >= 0.0);
    if weights.perpendicular <= 0.0 || weights.parallel <= 0.0 {
        return None;
    }
    let wp = weights.perpendicular;
    let wl = weights.parallel;
    Some(eps * (4.0 / (wp * wp) + 1.0 / (wl * wl)).sqrt())
}

/// The O(n)-per-query reference (no acceleration): scans all boxes. The
/// ground truth the [`RTree`] tests compare against.
#[derive(Debug, Clone, Default)]
pub struct LinearScanIndex<const D: usize> {
    entries: Vec<(u32, Aabb<D>)>,
}

impl<const D: usize> LinearScanIndex<D> {
    /// Builds from `(id, box)` pairs.
    pub fn build(entries: impl IntoIterator<Item = (u32, Aabb<D>)>) -> Self {
        Self {
            entries: entries.into_iter().collect(),
        }
    }

    /// Adds one entry.
    pub fn insert(&mut self, id: u32, bbox: Aabb<D>) {
        self.entries.push((id, bbox));
    }

    /// Appends to `out` the ids of all entries whose box intersects
    /// `window`, in insertion order. `out` is *not* cleared.
    pub fn query_into(&self, window: &Aabb<D>, out: &mut Vec<u32>) {
        for (id, bbox) in &self.entries {
            if bbox.intersects(window) {
                out.push(*id);
            }
        }
    }

    /// [`Self::query_into`] into a fresh vector.
    pub fn query(&self, window: &Aabb<D>) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_into(window, &mut out);
        out
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_geom::{Segment2, SegmentDistance};

    #[test]
    fn filter_radius_uniform_weights_is_sqrt5_eps() {
        let r = filter_radius(2.0, &DistanceWeights::uniform()).unwrap();
        assert!((r - 2.0 * 5.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn filter_radius_zero_weight_disables_filtering() {
        assert!(filter_radius(1.0, &DistanceWeights::new(0.0, 1.0, 1.0)).is_none());
        assert!(filter_radius(1.0, &DistanceWeights::new(1.0, 0.0, 1.0)).is_none());
        // Zero angle weight is fine: the bound never used dθ.
        assert!(filter_radius(1.0, &DistanceWeights::new(1.0, 1.0, 0.0)).is_some());
    }

    #[test]
    fn filter_bound_holds_on_adversarial_pairs() {
        // Hand-picked near-worst-case geometries for the bound.
        let dist = SegmentDistance::default();
        let weights = DistanceWeights::uniform();
        let pairs = [
            // Collinear, disjoint: all gap in d∥.
            (
                Segment2::xy(0.0, 0.0, 10.0, 0.0),
                Segment2::xy(14.0, 0.0, 17.0, 0.0),
            ),
            // One perpendicular offset zero (Lehmer mean at its max/2 bound).
            (
                Segment2::xy(0.0, 0.0, 10.0, 0.0),
                Segment2::xy(3.0, 0.0, 6.0, 4.0),
            ),
            // Anti-parallel overlap.
            (
                Segment2::xy(0.0, 0.0, 10.0, 0.0),
                Segment2::xy(9.0, 1.0, 1.0, 1.0),
            ),
            // Tiny far segment.
            (
                Segment2::xy(0.0, 0.0, 100.0, 0.0),
                Segment2::xy(50.0, 7.0, 50.1, 7.0),
            ),
        ];
        for (a, b) in pairs {
            let d = dist.distance(&a, &b);
            let dmin = a.min_distance(&b);
            let r = filter_radius(d, &weights).unwrap();
            assert!(
                dmin <= r + 1e-9,
                "bound violated: dmin={dmin} > r={r} for dist={d}"
            );
        }
    }

    #[test]
    fn linear_scan_finds_exactly_intersecting_boxes() {
        let entries = vec![
            (0, Aabb::new([0.0, 0.0], [1.0, 1.0])),
            (1, Aabb::new([2.0, 2.0], [3.0, 3.0])),
            (2, Aabb::new([0.5, 0.5], [2.5, 2.5])),
        ];
        let idx = LinearScanIndex::build(entries);
        assert_eq!(idx.len(), 3);
        let mut out = idx.query(&Aabb::new([0.9, 0.9], [1.1, 1.1]));
        out.sort_unstable();
        assert_eq!(out, vec![0, 2]);
    }
}
