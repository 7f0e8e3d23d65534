//! An admissible lower bound on the composite segment distance — the
//! *filter* half of the filter-and-refine ε-neighborhood path.
//!
//! The bound is a true lower bound of the weighted composite distance
//! **as computed** by the batched kernel
//! ([`SegmentDistance::distance_many_into`]), not merely of its
//! real-number idealisation. A candidate whose bound already exceeds ε can
//! therefore be discarded without evaluating the full distance, and the
//! surviving candidates produce *bit-identical* neighborhoods — the
//! refine step runs the unchanged exact kernel, and nothing the filter
//! removed could have passed `d ≤ ε`.
//!
//! # The midpoint/length bound
//!
//! Writing `w⊥, w∥, wθ` for the weights, `d⊥` (order-2 Lehmer mean of the
//! perpendicular offsets, Definition 1), `d∥` (minimum endpoint gap along
//! the base line, Definition 2) and `dθ` (Definition 3) for the exact
//! components, the weighted distance is `w⊥·d⊥ + w∥·d∥ + wθ·dθ` with every
//! term non-negative.
//!
//! Let `M` be the distance between the two segment midpoints and
//! `h = (‖Lᵢ‖ + ‖Lⱼ‖)/2`. Project `Lⱼ`'s midpoint onto `Lᵢ`'s supporting
//! line: projection is affine, so the image `pm` is the midpoint of the
//! projected endpoints `ps, pe`, and
//! `dist(mid_j, pm) = ½‖(s_j − ps) + (e_j − pe)‖ ≤ ½(l⊥1 + l⊥2) ≤ d⊥`
//! (the arithmetic mean never exceeds the order-2 Lehmer mean). Projection
//! is 1-Lipschitz, so `dist(pm, p) ≤ ‖Lⱼ‖/2` for whichever `p ∈ {ps, pe}`
//! achieves `d∥` against some endpoint `e` of `Lᵢ`, and `dist(mid_i, e) =
//! ‖Lᵢ‖/2` exactly. Chaining `mid_i → e → p → pm → mid_j`:
//!
//! ```text
//! M ≤ h + d⊥ + d∥   ⟹   w⊥·d⊥ + w∥·d∥ ≥ min(w⊥, w∥) · (M − h)
//! ```
//!
//! For a degenerate base the exact distance collapses to
//! `w⊥·dist(start_i, mid_j) = w⊥·M` with `h = 0`, and the bound still
//! holds with a coefficient `≤ w⊥`. The angle term only adds to the
//! distance, so the bound ignores it: the batched kernel evaluates
//! `(w⊥·d⊥ + w∥·d∥) + wθ·dθ` left-associated, and adding the non-negative
//! `fl(wθ·dθ)` can never round the sum below its first operand.
//!
//! The filter deliberately has no second bound: a bounding-box bound and
//! an exact-angle bound behind this one made no benchmark workload's
//! ε-queries faster (on the dense workload they discarded nothing), so
//! they would only cost time per candidate.
//!
//! # Floating-point admissibility
//!
//! The inequality above is a real-number fact; the computed bound must
//! not exceed the computed distance. The bound therefore subtracts a
//! **slack** of [`BOUND_SLACK`]` · (h + Σ|midpoint coords|)`. That sum is
//! a magnitude scale for every operand involved (endpoints lie within `h`
//! of a midpoint, `M` is at most the L1 midpoint sum), and `M` and `h` are
//! each produced by a handful of correctly rounded operations on those
//! operands, so accumulated rounding is within a few units of `1e-15` of
//! the scale — five orders of magnitude below the slack. The subtraction
//! makes the computed bound a strict under-approximation of the real
//! bound, which the real inequality relates to the real distance, which
//! rounding keeps within the same margin of the computed distance.
//!
//! # The squared-space test
//!
//! The hot path only needs the *decision* `bound > ε`, so
//! [`PruneFilter::check`] evaluates it with no square root or division:
//! with `c = min(w⊥, w∥)` it prunes on `c²·M² > (ε + c·(h + slack))²`,
//! which over the reals is `c·(M − h − slack) > ε`. Squaring both sides of
//! `a > b` with `a, b ≥ 0` is exact over the reals, and the finite-precision
//! comparison differs from the value-level one by a few ulps at most, which
//! the slack dominates by six orders of magnitude — so a prune always
//! implies the real bound exceeds ε with margin to spare, and so the
//! computed distance exceeds ε. Every quantity in the comparison is
//! symmetric in the two segments, so the decision does not depend on which
//! one is the query.
//!
//! Non-finite or negative weights admit no bound: [`PruneFilter::new`]
//! returns `None` and nothing is pruned. `NaN` geometry poisons the
//! comparison, which `NaN` never satisfies, so corrupt input degrades to
//! "no pruning", never to a wrong neighborhood. The `lower_bound_soundness`
//! property suite checks admissibility and symmetry on random (including
//! degenerate, collinear, and shared-endpoint) geometry; `traclus-core`'s
//! `invariant-checks` feature re-scores every pruned candidate exactly and
//! aborts on the first inadmissible discard.

use crate::batch::SegmentTable;
use crate::distance::SegmentDistance;
use crate::point::Point;

/// Relative slack subtracted from the bound (scaled by the pair's
/// magnitude scale `h + Σ|midpoint coords|`) so accumulated f64 rounding
/// can never push a computed bound above the computed distance. See the
/// module docs.
pub const BOUND_SLACK: f64 = 1e-9;

/// One ε-neighborhood query's hoisted filter state: the query segment's
/// midpoint, half length and magnitude, plus the weight coefficient and ε,
/// so [`check`](Self::check) costs a handful of multiply/compare
/// operations per candidate — no square root, no division, no role sort.
/// See the module docs for the comparison and its admissibility argument.
#[derive(Debug, Clone, Copy)]
pub struct PruneFilter<const D: usize> {
    mid: Point<D>,
    half_len: f64,
    mag: f64,
    c: f64,
    c_sq: f64,
    eps: f64,
}

impl<const D: usize> PruneFilter<D> {
    /// Hoists the query-side state for segment `query` of `table`.
    /// Returns `None` when the weights admit no sound bound (negative or
    /// non-finite) — the caller then refines every candidate.
    pub fn new(
        table: &SegmentTable<D>,
        query: u32,
        dist: &SegmentDistance,
        eps: f64,
    ) -> Option<Self> {
        let w = &dist.weights;
        let ok = |x: f64| x.is_finite() && x >= 0.0;
        if !(ok(w.perpendicular) && ok(w.parallel) && ok(w.angle)) {
            return None;
        }
        let c = w.perpendicular.min(w.parallel);
        let q = table.record(query);
        let mut mag = 0.0;
        for k in 0..D {
            mag += q.midpoint.coords[k].abs();
        }
        Some(Self {
            mid: q.midpoint,
            half_len: 0.5 * q.length,
            mag,
            c,
            c_sq: c * c,
            eps,
        })
    }

    /// The filter step for one candidate: `true` when the bound rules the
    /// pair out at ε, `false` to refine it with the exact kernel.
    #[inline(always)]
    pub fn check(&self, table: &SegmentTable<D>, cand: u32) -> bool {
        let c = table.record(cand);
        let mut mag = self.mag;
        for k in 0..D {
            mag += c.midpoint.coords[k].abs();
        }
        let h = self.half_len + 0.5 * c.length;
        let slack = BOUND_SLACK * (h + mag);
        // c·(M − h − slack) > ε, compared in squared space.
        let rhs = self.eps + self.c * (h + slack);
        self.c_sq * self.mid.distance_squared(&c.midpoint) > rhs * rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{AngleMode, DistanceWeights};
    use crate::segment::Segment2;

    fn exact(a: &Segment2, b: &Segment2, dist: &SegmentDistance) -> f64 {
        let table = SegmentTable::from_geometry([a, b]);
        let mut out = [0.0];
        dist.distance_many_into(&table, 0, &[1], &mut out);
        out[0]
    }

    /// Whether the filter of `a` discards `b` at `eps`.
    fn prunes(a: &Segment2, b: &Segment2, dist: &SegmentDistance, eps: f64) -> bool {
        let table = SegmentTable::from_geometry([a, b]);
        PruneFilter::new(&table, 0, dist, eps).is_some_and(|f| f.check(&table, 1))
    }

    #[test]
    fn far_pair_is_pruned() {
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(1000.0, 1000.0, 1010.0, 1000.0);
        let dist = SegmentDistance::default();
        assert!(exact(&a, &b, &dist) > 100.0);
        assert!(
            prunes(&a, &b, &dist, 100.0),
            "the midpoints are ≈1400 apart"
        );
        assert!(!prunes(&a, &b, &dist, 1e9));
    }

    #[test]
    fn self_pair_is_never_pruned() {
        let a = Segment2::xy(3.0, 4.0, 13.0, 4.0);
        let dist = SegmentDistance::default();
        assert!(!prunes(&a, &a, &dist, 0.0), "dist(L, L) = 0 ≤ ε");
    }

    #[test]
    fn degenerate_weights_disable_pruning() {
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(1000.0, 1000.0, 1010.0, 1000.0);
        // `DistanceWeights::new` rejects these, but the fields are public —
        // the bound layer must stay safe for hand-built configurations.
        let raw = |perpendicular, parallel, angle| DistanceWeights {
            perpendicular,
            parallel,
            angle,
        };
        for weights in [
            raw(-1.0, 1.0, 1.0),
            raw(1.0, f64::NAN, 1.0),
            raw(1.0, 1.0, f64::INFINITY),
        ] {
            let dist = SegmentDistance::new(weights, AngleMode::Directed);
            let table = SegmentTable::from_geometry([&a, &b]);
            assert!(PruneFilter::new(&table, 0, &dist, 0.0).is_none());
            assert!(!prunes(&a, &b, &dist, 0.0));
        }
    }

    #[test]
    fn zero_perpendicular_weight_prunes_nothing() {
        // w⊥ = 0 zeroes the coefficient min(w⊥, w∥): a far-away pair
        // really is at distance w∥·d∥ + wθ·dθ, but the midpoint bound
        // cannot see it without w⊥, so the exact kernel decides.
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(500.0, 5.0, 500.0, 15.0);
        for weights in [
            DistanceWeights::new(0.0, 1.0, 1.0),
            DistanceWeights::new(0.0, 0.0, 1.0),
        ] {
            let dist = SegmentDistance::new(weights, AngleMode::Undirected);
            assert!(exact(&a, &b, &dist) > 9.0, "dθ = ‖Lⱼ‖ = 10");
            assert!(!prunes(&a, &b, &dist, 0.0));
        }
    }
}
