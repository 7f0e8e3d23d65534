//! The composite line-segment distance of Section 2.3.
//!
//! `dist(Lᵢ, Lⱼ) = w⊥·d⊥ + w∥·d∥ + wθ·dθ` where
//!
//! * **perpendicular distance** `d⊥` (Definition 1) is the order-2 Lehmer
//!   mean of the two perpendicular offsets of the shorter segment's
//!   endpoints from the longer segment's supporting line;
//! * **parallel distance** `d∥` (Definition 2) is the smaller of the two
//!   along-line gaps between the projected endpoints and the longer
//!   segment's endpoints (MIN, for robustness to broken segments);
//! * **angle distance** `dθ` (Definition 3) is `‖Lⱼ‖·sin θ` for θ < 90° and
//!   `‖Lⱼ‖` otherwise (directed trajectories), or always `‖Lⱼ‖·sin θ` for
//!   undirected ones (the paper's remark after Definition 3).
//!
//! Symmetry (Lemma 2) is obtained by always assigning the longer segment to
//! `Lᵢ`; exact ties are broken by a caller-supplied identifier or, absent
//! one, lexicographically on coordinates.
//!
//! The distance is **not a metric**: the triangle inequality fails (see
//! `triangle_inequality_fails` below, and Section 4.2 of the paper), which
//! is why the index crate must use a conservative filter bound.

use crate::point::Point;
use crate::segment::Segment;

/// The order-2 Lehmer mean `(a² + b²) / (a + b)` used by Definition 1.
///
/// For non-negative inputs it lies between `max(a,b)/2` and `max(a,b)`
/// (both bounds are relied upon by the index filter; see
/// `lehmer_mean_bounds` in the tests). Returns 0 when both inputs are 0.
pub fn lehmer_mean_2(a: f64, b: f64) -> f64 {
    debug_assert!(a >= 0.0 && b >= 0.0, "Lehmer mean needs non-negative input");
    let denom = a + b;
    if denom <= 0.0 {
        0.0
    } else {
        (a * a + b * b) / denom
    }
}

/// How the angle distance treats direction (remark after Definition 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AngleMode {
    /// Trajectories have directions: `dθ = ‖Lⱼ‖·sin θ` for `θ < 90°`, else
    /// the full `‖Lⱼ‖`.
    #[default]
    Directed,
    /// Undirected trajectories: `dθ = ‖Lⱼ‖·sin θ` always (θ folded to
    /// `[0°, 90°]`).
    Undirected,
}

/// The three components of the segment distance, before weighting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceComponents {
    /// `d⊥` of Definition 1.
    pub perpendicular: f64,
    /// `d∥` of Definition 2.
    pub parallel: f64,
    /// `dθ` of Definition 3.
    pub angle: f64,
}

impl DistanceComponents {
    /// Weighted sum `w⊥·d⊥ + w∥·d∥ + wθ·dθ`.
    pub fn weighted(&self, weights: &DistanceWeights) -> f64 {
        weights.perpendicular * self.perpendicular
            + weights.parallel * self.parallel
            + weights.angle * self.angle
    }

    /// Unweighted sum (the paper's default `w⊥ = w∥ = wθ = 1`).
    pub fn sum(&self) -> f64 {
        self.perpendicular + self.parallel + self.angle
    }
}

/// Component weights `(w⊥, w∥, wθ)`; Appendix B discusses when non-uniform
/// weights pay off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceWeights {
    /// Weight of the perpendicular component.
    pub perpendicular: f64,
    /// Weight of the parallel component.
    pub parallel: f64,
    /// Weight of the angle component.
    pub angle: f64,
}

impl Default for DistanceWeights {
    fn default() -> Self {
        Self {
            perpendicular: 1.0,
            parallel: 1.0,
            angle: 1.0,
        }
    }
}

impl DistanceWeights {
    /// Uniform weights (the paper's default, which "generally works well").
    pub const fn uniform() -> Self {
        Self {
            perpendicular: 1.0,
            parallel: 1.0,
            angle: 1.0,
        }
    }

    /// Creates weights, panicking on negative or non-finite values: the
    /// distance must stay non-negative for density-based clustering to be
    /// meaningful.
    pub fn new(perpendicular: f64, parallel: f64, angle: f64) -> Self {
        assert!(
            perpendicular >= 0.0 && parallel >= 0.0 && angle >= 0.0,
            "distance weights must be non-negative"
        );
        assert!(
            perpendicular.is_finite() && parallel.is_finite() && angle.is_finite(),
            "distance weights must be finite"
        );
        Self {
            perpendicular,
            parallel,
            angle,
        }
    }
}

/// The configured segment distance function.
///
/// ```
/// use traclus_geom::{Segment2, SegmentDistance};
///
/// let dist = SegmentDistance::default();
/// let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
/// let b = Segment2::xy(2.0, 1.0, 8.0, 1.0);
/// let d = dist.distance(&a, &b);
/// assert!(d > 0.0 && d < 4.0);
/// assert_eq!(d, dist.distance(&b, &a)); // Lemma 2: symmetric
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SegmentDistance {
    /// Component weights.
    pub weights: DistanceWeights,
    /// Directed or undirected angle treatment.
    pub angle_mode: AngleMode,
}

impl SegmentDistance {
    /// The paper's default: uniform weights, directed trajectories.
    pub fn new(weights: DistanceWeights, angle_mode: AngleMode) -> Self {
        Self {
            weights,
            angle_mode,
        }
    }

    /// Undirected variant with uniform weights.
    pub fn undirected() -> Self {
        Self {
            weights: DistanceWeights::uniform(),
            angle_mode: AngleMode::Undirected,
        }
    }

    /// Computes the three raw components with `a`/`b` in caller order;
    /// internally the longer segment plays `Lᵢ` (ties broken
    /// lexicographically) so the result is symmetric.
    pub fn components<const D: usize>(&self, a: &Segment<D>, b: &Segment<D>) -> DistanceComponents {
        let (li, lj) = order_by_length(a, b);
        components_with_roles(li, lj, self.angle_mode)
    }

    /// The weighted distance `dist(a, b)`.
    pub fn distance<const D: usize>(&self, a: &Segment<D>, b: &Segment<D>) -> f64 {
        self.components(a, b).weighted(&self.weights)
    }

    /// Distance when the caller already knows which segment is longer
    /// (`li` must have `length ≥ lj.length`); used by the clustering code,
    /// which orders by cached length + segment id
    /// ([`crate::SegmentTable::roles`]) and so never relies on the
    /// coordinate tie-break. It is also the guarded path of the batched
    /// ε-kernel, which hands it every pair its paired lanes cannot score.
    pub fn distance_ordered<const D: usize>(&self, li: &Segment<D>, lj: &Segment<D>) -> f64 {
        debug_assert!(
            li.length_squared() >= lj.length_squared()
                || approx_eq(li.length_squared(), lj.length_squared()),
            "distance_ordered requires the longer segment first"
        );
        components_with_roles(li, lj, self.angle_mode).weighted(&self.weights)
    }

    /// The perpendicular + angle part used by the MDL cost `L(D|H)`
    /// (Formula 7 ignores the parallel distance because "a trajectory
    /// encloses its trajectory partitions"). `enclosing` is the candidate
    /// trajectory partition, `enclosed` one of the original edges under it;
    /// the partition always plays `Lᵢ`, even when a zig-zag edge is longer
    /// than the partition that summarises it, so this is not symmetric.
    pub fn mdl_components<const D: usize>(
        &self,
        enclosing: &Segment<D>,
        enclosed: &Segment<D>,
    ) -> (f64, f64) {
        let c = components_with_roles(enclosing, enclosed, self.angle_mode);
        (c.perpendicular, c.angle)
    }
}

/// Orders two segments so the first is the longer (Lemma 2); exact-length
/// ties fall back to coordinate-lexicographic order so that
/// `order(a, b) == order(b, a)` always holds.
fn order_by_length<'s, const D: usize>(
    a: &'s Segment<D>,
    b: &'s Segment<D>,
) -> (&'s Segment<D>, &'s Segment<D>) {
    let la = a.length_squared();
    let lb = b.length_squared();
    if la > lb {
        (a, b)
    } else if lb > la {
        (b, a)
    } else if a.lex_cmp(b) != std::cmp::Ordering::Greater {
        (a, b)
    } else {
        (b, a)
    }
}

/// Raw component computation with `li` the base (projection target).
///
/// Degenerate handling (documented in DESIGN.md §5):
/// * `li` degenerate → the whole positional difference goes into the
///   perpendicular component (point-to-midpoint distance), parallel =
///   angle = 0;
/// * only `lj` degenerate → its single point projects normally, the angle
///   distance is 0 (`‖Lⱼ‖ = 0`: no directional strength).
fn components_with_roles<const D: usize>(
    li: &Segment<D>,
    lj: &Segment<D>,
    angle_mode: AngleMode,
) -> DistanceComponents {
    let vi = li.vector();
    if vi.norm_squared() <= 0.0 {
        // li degenerate: no supporting line to project onto.
        return DistanceComponents {
            perpendicular: li.start.distance(&lj.midpoint()),
            parallel: 0.0,
            angle: 0.0,
        };
    }

    #[expect(clippy::expect_used, reason = "li is non-degenerate here")]
    let ps = li
        .project_onto_line(&lj.start)
        .expect("non-degenerate li projects");
    #[expect(clippy::expect_used, reason = "li is non-degenerate here")]
    let pe = li
        .project_onto_line(&lj.end)
        .expect("non-degenerate li projects");

    let l_perp1 = lj.start.distance(&ps.point);
    let l_perp2 = lj.end.distance(&pe.point);
    let perpendicular = lehmer_mean_2(l_perp1, l_perp2);

    let l_par1 = parallel_gap(li, &ps.point);
    let l_par2 = parallel_gap(li, &pe.point);
    let parallel = l_par1.min(l_par2);

    let lj_len = lj.length();
    let angle = if lj_len <= 0.0 {
        0.0
    } else {
        let vj = lj.vector();
        match vi.sin_angle(&vj) {
            None => 0.0,
            Some(sin_theta) => match angle_mode {
                AngleMode::Directed => {
                    if vi.dot(&vj) > 0.0 {
                        // θ < 90°: ‖Lj‖·sin θ.
                        lj_len * sin_theta
                    } else {
                        // θ ≥ 90°: the entire length contributes.
                        lj_len
                    }
                }
                // Fold θ to [0°, 90°]: sin is symmetric about 90°.
                AngleMode::Undirected => lj_len * sin_theta,
            },
        }
    };

    DistanceComponents {
        perpendicular,
        parallel,
        angle,
    }
}

/// `min(‖p − sᵢ‖, ‖p − eᵢ‖)` for a projected point `p` on the supporting
/// line of `li` — the per-endpoint quantity of Definition 2.
fn parallel_gap<const D: usize>(li: &Segment<D>, projected: &Point<D>) -> f64 {
    projected
        .distance(&li.start)
        .min(projected.distance(&li.end))
}

/// The naive "sum of endpoint distances" measure the paper argues against in
/// Appendix A: `‖s₁ − s₂‖ + ‖e₁ − e₂‖`.
pub fn endpoint_sum_distance<const D: usize>(a: &Segment<D>, b: &Segment<D>) -> f64 {
    a.start.distance(&b.start) + a.end.distance(&b.end)
}

fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs() + b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment2;

    const EPS: f64 = 1e-9;

    fn default_dist() -> SegmentDistance {
        SegmentDistance::default()
    }

    #[test]
    fn lehmer_mean_basics() {
        assert_eq!(lehmer_mean_2(0.0, 0.0), 0.0);
        assert!((lehmer_mean_2(3.0, 3.0) - 3.0).abs() < EPS);
        assert!((lehmer_mean_2(4.0, 0.0) - 4.0).abs() < EPS);
        // (9 + 1) / (3 + 1) = 2.5
        assert!((lehmer_mean_2(3.0, 1.0) - 2.5).abs() < EPS);
    }

    #[test]
    fn lehmer_mean_bounds() {
        // max/2 ≤ L₂(a,b) ≤ max — the bounds DESIGN.md §5 relies on.
        for &(a, b) in &[(0.0, 5.0), (1.0, 2.0), (7.5, 7.5), (100.0, 0.01)] {
            let m: f64 = lehmer_mean_2(a, b);
            let max = a.max(b);
            assert!(m <= max + EPS, "L2({a},{b}) = {m} > max");
            assert!(m >= max / 2.0 - EPS, "L2({a},{b}) = {m} < max/2");
        }
    }

    #[test]
    fn parallel_segments_have_pure_perpendicular_distance() {
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(0.0, 2.0, 10.0, 2.0);
        let c = default_dist().components(&a, &b);
        assert!((c.perpendicular - 2.0).abs() < EPS);
        assert!(c.parallel.abs() < EPS);
        assert!(c.angle.abs() < EPS);
    }

    #[test]
    fn adjacent_partitions_have_zero_parallel_distance() {
        // Section 4.1.1: "the parallel distance between two adjacent line
        // segments in a trajectory is always zero."
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(10.0, 0.0, 14.0, 3.0);
        let c = default_dist().components(&a, &b);
        assert!(c.parallel.abs() < EPS);
    }

    #[test]
    fn contained_shorter_segment_parallel_distance() {
        // Lj strictly inside Li: the parallel gap is the smaller inset.
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(3.0, 0.0, 6.0, 0.0);
        let c = default_dist().components(&a, &b);
        // ps = (3,0): min(3, 7) = 3; pe = (6,0): min(6, 4) = 4; MIN = 3.
        assert!((c.parallel - 3.0).abs() < EPS);
        assert!(c.perpendicular.abs() < EPS);
        assert!(c.angle.abs() < EPS);
    }

    #[test]
    fn disjoint_collinear_segments_have_parallel_gap() {
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(15.0, 0.0, 18.0, 0.0);
        let c = default_dist().components(&a, &b);
        // ps = (15,0): min(15,5) = 5; pe = (18,0): min(18,8) = 8; MIN = 5.
        assert!((c.parallel - 5.0).abs() < EPS);
        assert!(c.perpendicular.abs() < EPS);
    }

    #[test]
    fn perpendicular_uses_lehmer_mean() {
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        // Slanted short segment: offsets 1 and 3.
        let b = Segment2::xy(4.0, 1.0, 6.0, 3.0);
        let c = default_dist().components(&a, &b);
        assert!((c.perpendicular - lehmer_mean_2(1.0, 3.0)).abs() < EPS);
    }

    #[test]
    fn angle_distance_right_angle_is_full_length() {
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(5.0, 0.0, 5.0, 4.0);
        let c = default_dist().components(&a, &b);
        assert!((c.angle - 4.0).abs() < EPS, "θ = 90° ⇒ dθ = ‖Lj‖");
    }

    #[test]
    fn angle_distance_opposite_direction_directed_vs_undirected() {
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(8.0, 1.0, 2.0, 1.0); // anti-parallel, length 6
        let directed = default_dist().components(&a, &b);
        assert!((directed.angle - 6.0).abs() < EPS, "θ = 180° ⇒ dθ = ‖Lj‖");
        let undirected = SegmentDistance::undirected().components(&a, &b);
        assert!(undirected.angle.abs() < EPS, "undirected folds θ to 0");
    }

    #[test]
    fn angle_distance_45_degrees() {
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(0.0, 0.0, 3.0, 3.0); // length 3√2, θ = 45°
        let c = default_dist().components(&a, &b);
        let expected = (18.0f64).sqrt() * (std::f64::consts::FRAC_PI_4).sin();
        assert!((c.angle - expected).abs() < EPS);
    }

    #[test]
    fn distance_is_symmetric_lemma_2() {
        let dist = default_dist();
        let a = Segment2::xy(0.0, 0.0, 10.0, 2.0);
        let b = Segment2::xy(1.0, 5.0, 4.0, 6.0);
        assert!((dist.distance(&a, &b) - dist.distance(&b, &a)).abs() < EPS);
        // Equal-length tie: still symmetric thanks to the lexicographic
        // fallback.
        let c = Segment2::xy(0.0, 0.0, 0.0, 10.0);
        let d = Segment2::xy(5.0, 0.0, 5.0, 10.0);
        assert!((dist.distance(&c, &d) - dist.distance(&d, &c)).abs() < EPS);
    }

    #[test]
    fn identical_segments_have_zero_distance() {
        let dist = default_dist();
        let a = Segment2::xy(1.0, 2.0, 8.0, 9.0);
        assert!(dist.distance(&a, &a).abs() < EPS);
    }

    #[test]
    fn translation_invariance() {
        // The design rationale of Section 3.2 / Appendix C: relative
        // distances must not change under a global shift.
        let dist = default_dist();
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(2.0, 3.0, 9.0, 5.0);
        let shift = crate::point::Vector2::xy(10_000.0, 10_000.0);
        let d0 = dist.distance(&a, &b);
        let d1 = dist.distance(&a.translated(&shift), &b.translated(&shift));
        assert!((d0 - d1).abs() < 1e-6);
    }

    #[test]
    fn degenerate_pair_distances() {
        let dist = default_dist();
        let p = Segment2::xy(0.0, 0.0, 0.0, 0.0);
        let q = Segment2::xy(3.0, 4.0, 3.0, 4.0);
        assert!((dist.distance(&p, &q) - 5.0).abs() < EPS);
        // One degenerate, one proper: angle contribution must be zero.
        let s = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let c = dist.components(&s, &q);
        assert!(c.angle.abs() < EPS);
        assert!((c.perpendicular - 4.0).abs() < EPS);
        assert!(
            (c.parallel - 3.0).abs() < EPS,
            "projection (3,0): min(3,7)=3"
        );
    }

    #[test]
    fn short_segment_shrinks_angle_distance() {
        // The Section 4.1.3 observation: a very short Lj has low directional
        // strength, so dθ is small regardless of the actual angle.
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let short = Segment2::xy(5.0, 1.0, 5.0, 1.2); // ⊥ but tiny
        let long = Segment2::xy(5.0, 1.0, 5.0, 6.0); // ⊥ and long
        let dist = default_dist();
        let c_short = dist.components(&a, &short);
        let c_long = dist.components(&a, &long);
        assert!(c_short.angle < 0.3);
        assert!(c_long.angle > 4.0);
    }

    #[test]
    fn triangle_inequality_fails() {
        // Section 4.2: "our distance function is not a metric". Witness: two
        // long segments meeting at a right angle, bridged by a tiny diagonal
        // segment at the shared corner. The tiny bridge is near both long
        // segments (its short length caps d⊥ and dθ, and the shared corner
        // zeroes d∥), yet the long segments are far from each other.
        let dist = default_dist();
        let l1 = Segment2::xy(0.0, 0.0, 100.0, 0.0);
        let l2 = Segment2::xy(100.0, 0.0, 100.5, 0.5); // tiny corner bridge
        let l3 = Segment2::xy(100.0, 0.0, 100.0, 100.0);
        let d13 = dist.distance(&l1, &l3);
        let d12 = dist.distance(&l1, &l2);
        let d23 = dist.distance(&l2, &l3);
        assert!(d13 > d12 + d23, "expected violation: {d13} ≤ {d12} + {d23}");
    }

    #[test]
    fn appendix_a_endpoint_sum_cannot_discriminate() {
        // Figure 24's point: the endpoint-sum distance assigns the *same*
        // value to a parallel translate of L1 and to a rotated segment, so
        // it "cannot decide which one is more similar"; the composite
        // distance separates the two through its angle component.
        let l1 = Segment2::xy(0.0, 0.0, 200.0, 0.0);
        let l2 = Segment2::xy(100.0, 100.0, 300.0, 100.0); // parallel shift

        // L3: same endpoint-sum as L2 by construction (each endpoint at
        // distance 100√2 from the corresponding L1 endpoint) but rotated.
        let l3 = Segment2::xy(100.0, 100.0, 200.0, 100.0 * 2.0f64.sqrt());
        let naive12 = endpoint_sum_distance(&l1, &l2);
        let naive13 = endpoint_sum_distance(&l1, &l3);
        assert!((naive12 - 200.0 * 2.0f64.sqrt()).abs() < 1e-6);
        assert!((naive13 - naive12).abs() < 1e-6, "naive measure ties");
        let dist = default_dist();
        let d12 = dist.distance(&l1, &l2);
        let d13 = dist.distance(&l1, &l3);
        assert!(
            (d12 - d13).abs() > 10.0,
            "composite distance must separate what the naive measure ties: {d12} vs {d13}"
        );
        let c12 = dist.components(&l1, &l2);
        let c13 = dist.components(&l1, &l3);
        assert!(c12.angle.abs() < 1e-9, "parallel translate: dθ = 0");
        assert!(c13.angle > 10.0, "rotated segment: dθ is the separator");
        // With the paper's printed Figure 24 coordinates (L3 tilted up to
        // (200,200)) the composite distance also ranks the parallel L2
        // strictly closer than L3.
        let l3_paper = Segment2::xy(100.0, 100.0, 200.0, 200.0);
        let d13_paper = dist.distance(&l1, &l3_paper);
        assert!(d13_paper > d12, "{d13_paper} vs {d12}");
    }

    #[test]
    fn components_nonnegative_and_finite() {
        let dist = default_dist();
        let segs = [
            Segment2::xy(0.0, 0.0, 1.0, 1.0),
            Segment2::xy(-5.0, 2.0, 3.0, -4.0),
            Segment2::xy(0.0, 0.0, 0.0, 0.0),
            Segment2::xy(1e6, 1e6, 1e6 + 1.0, 1e6),
        ];
        for a in &segs {
            for b in &segs {
                let c = dist.components(a, b);
                assert!(c.perpendicular >= 0.0 && c.perpendicular.is_finite());
                assert!(c.parallel >= 0.0 && c.parallel.is_finite());
                assert!(c.angle >= 0.0 && c.angle.is_finite());
            }
        }
    }

    #[test]
    fn weights_scale_components() {
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(0.0, 2.0, 10.0, 2.0);
        let heavy_perp =
            SegmentDistance::new(DistanceWeights::new(10.0, 1.0, 1.0), AngleMode::Directed);
        let base = default_dist();
        assert!((heavy_perp.distance(&a, &b) - 10.0 * base.distance(&a, &b)).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let _ = DistanceWeights::new(-1.0, 1.0, 1.0);
    }

    #[test]
    fn three_dimensional_distance() {
        let dist = SegmentDistance::default();
        let a: Segment<3> = Segment::new(Point::new([0.0, 0.0, 0.0]), Point::new([10.0, 0.0, 0.0]));
        let b: Segment<3> = Segment::new(Point::new([0.0, 3.0, 4.0]), Point::new([10.0, 3.0, 4.0]));
        let c = dist.components(&a, &b);
        assert!((c.perpendicular - 5.0).abs() < EPS);
        assert!(c.parallel.abs() < EPS);
        assert!(c.angle.abs() < EPS);
    }
}
