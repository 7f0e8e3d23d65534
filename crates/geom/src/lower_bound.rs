//! Admissible lower bounds on the composite segment distance — the
//! *filter* half of the filter-and-refine ε-neighborhood path.
//!
//! Every bound here is a true lower bound of the weighted composite
//! distance **as computed** by the batched kernel
//! ([`SegmentDistance::distance_many_into`]), not merely of its
//! real-number idealisation. A candidate whose bound already exceeds ε can
//! therefore be discarded without evaluating the full distance, and the
//! surviving candidates produce *bit-identical* neighborhoods — the
//! refine step runs the unchanged exact kernel, and nothing the filter
//! removed could have passed `d ≤ ε`.
//!
//! # The three tiers
//!
//! Writing `w⊥, w∥, wθ` for the weights, `d⊥` (order-2 Lehmer mean of the
//! perpendicular offsets, Definition 1), `d∥` (minimum endpoint gap along
//! the base line, Definition 2) and `dθ` (Definition 3) for the exact
//! components, the weighted distance is `w⊥·d⊥ + w∥·d∥ + wθ·dθ` with every
//! term non-negative. Each tier sharpens the previous one and costs a
//! little more:
//!
//! **Tier 1 — MBR distance.** Let `dmin` be the minimum Euclidean
//! distance between the two segments and `mbrd` the [`Aabb::min_distance`]
//! of their bounding boxes, so `mbrd ≤ dmin` (segments lie inside their
//! boxes). The filter-radius derivation in `traclus-index` shows
//! `dmin ≤ √((2d⊥)² + d∥²)`; substituting `x = 2d⊥, y = d∥ ≥ 0` and
//! minimising `(w⊥/2)·x + w∥·y` over the exterior of the circle
//! `√(x² + y²) ≥ mbrd` (using `a·x + b·y ≥ min(a,b)·(x+y) ≥
//! min(a,b)·√(x²+y²)`) gives
//!
//! ```text
//! w⊥·d⊥ + w∥·d∥ ≥ min(w⊥/2, w∥) · mbrd
//! ```
//!
//! **Tier 2 — midpoint/length.** Let `M` be the distance between the two
//! segment midpoints and `h = (‖Lᵢ‖ + ‖Lⱼ‖)/2`. Project `Lⱼ`'s midpoint
//! onto `Lᵢ`'s supporting line: projection is affine, so the image `pm` is
//! the midpoint of the projected endpoints `ps, pe`, and
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
//! (For a degenerate base the exact distance collapses to
//! `w⊥·dist(start_i, mid_j) = w⊥·M` with `h = 0`, and both tiers still
//! hold with coefficients `≤ w⊥`.)
//!
//! **Tier 3 — exact angle.** `dθ` depends only on cached directions,
//! norms, and one length — no projections — so the tier evaluates it
//! *exactly*, replaying the batched kernel's operation sequence bit for
//! bit, and adds `wθ·dθ` on top of tier 2.
//!
//! # Floating-point admissibility
//!
//! The inequalities above are real-number facts; the computed bound must
//! not exceed the computed distance. Two mechanisms guarantee that:
//!
//! * Tiers 1–2 subtract a **slack** of `1e-9 · (h + Σ|midpoint coords|)`
//!   before scaling. `h + Σ|midpoint coords|` is a magnitude scale for
//!   every operand involved (endpoints lie within `h` of a midpoint, `M`
//!   is at most the L1 midpoint sum), each quantity (`mbrd`, `M`, `h`) is
//!   produced by a handful of correctly rounded operations on those
//!   operands, so accumulated rounding is within a few units of `1e-15`
//!   of the scale — five orders of magnitude below the slack. The
//!   subtraction makes the computed tier a strict under-approximation of
//!   the real bound, which the real inequality then relates to the real
//!   distance, which rounding keeps within the same margin of the
//!   computed distance.
//! * Tier 3 needs no slack of its own: the batched kernel evaluates
//!   `(w⊥·d⊥ + w∥·d∥) + wθ·dθ` left-associated, so with `P̂` the computed
//!   perpendicular+parallel partial sum and `Â = fl(wθ·dθ)` computed from
//!   the bit-identical angle, `tier3 = fl(tier2 + Â) ≤ fl(P̂ + Â) =
//!   distance` because `tier2 ≤ P̂` (tiers 1–2) and rounded addition is
//!   monotone.
//!
//! # The fast decision path
//!
//! [`tiers`] is the value-level reference: it materialises all three
//! bounds (two square roots and the exact angle's divide) and exists for
//! diagnostics and the property suites. The hot path —
//! [`PruneFilter::check`] behind [`prune_tier`] — only needs the
//! *decisions* `bound > ε`, and evaluates each one in squared space with
//! no square root or division:
//!
//! * tier 1 prunes on `c₁²·mbrd² > (ε + c₁·slack)²`, equivalent over the
//!   reals to `c₁·(mbrd − slack) > ε`;
//! * tier 2 prunes on `c₂²·M² > (ε + c₂·(h + slack))²`, equivalent to
//!   `c₂·(M − h − slack) > ε`;
//! * tier 3 drops tier 2's additive part (strictly conservative — it can
//!   only prune *less*) and tests `wθ·dθ > ε` alone:
//!   `wθ²·‖Lⱼ‖²·gram > (ε·(1+1e-9))²·sin_den` in the sine branch (and
//!   `wθ²·‖Lⱼ‖² > (ε·(1+1e-9))²` in the directed reversed branch, where
//!   the kernel's `dθ` is exactly `‖Lⱼ‖`), with `gram`/`sin_den` computed
//!   by the kernel's own operation sequence.
//!
//! The tests run cheapest-first — midpoint, then MBR, then angle (whose
//! dot product is gated on the necessary `wθ²·‖Lⱼ‖² > ε²` condition) —
//! so the counter attribution follows that order, not the tier
//! numbering.
//!
//! Squaring both sides of `a > b` with `a, b ≥ 0` is exact over the
//! reals; the finite-precision comparisons differ from the value-level
//! ones by a few ulps at most. For tiers 1–2 the `1e-9`-relative slack
//! dominates that error by six orders of magnitude, and for tier 3 the
//! explicit `1e-9` inflation of ε plays the same role — so a fast-path
//! prune always implies the *real* bound exceeds ε with margin to spare,
//! which the value-level argument above converts into the computed
//! distance exceeding ε. The decisions may disagree with the value-level
//! `tiers()[k] > ε` within that margin (tier 3 is deliberately weaker),
//! but every
//! `Some` is sound; the soundness suite asserts exactly that, plus
//! decision symmetry.
//!
//! Non-finite or negative weights admit no bound — every tier returns
//! `-∞` and nothing is ever pruned. `NaN` geometry poisons the bounds into
//! `0` or `NaN`, neither of which satisfies `bound > ε`, so corrupt input
//! degrades to "no pruning", never to a wrong neighborhood. The
//! `lower_bound_soundness` property suite checks admissibility, symmetry,
//! and tier monotonicity on random (including degenerate, collinear, and
//! shared-endpoint) geometry; `traclus-core`'s `invariant-checks` feature
//! re-scores every pruned candidate exactly and aborts on the first
//! inadmissible discard.

use crate::batch::{SegmentRecord, SegmentTable};
use crate::bbox::Aabb;
use crate::distance::{AngleMode, SegmentDistance};
use crate::point::{Point, Vector};
use crate::segment::Segment;

/// Number of bound tiers (`tiers()[k]` for `k < TIER_COUNT`).
pub const TIER_COUNT: usize = 3;

/// Relative slack subtracted from tiers 1–2 (scaled by the pair's
/// magnitude scale `h + Σ|midpoint coords|`) so accumulated f64 rounding
/// can never push a computed bound above the computed distance. The same
/// constant inflates ε in the fast tier-3 comparison. See the module docs.
pub const BOUND_SLACK: f64 = 1e-9;

/// The tier coefficients `(min(w⊥/2, w∥), min(w⊥, w∥))` when the weights
/// admit a sound bound; `None` for negative or non-finite weights.
#[inline(always)]
fn admissible_coefficients(dist: &SegmentDistance) -> Option<(f64, f64)> {
    let w = &dist.weights;
    let ok = |x: f64| x.is_finite() && x >= 0.0;
    if !(ok(w.perpendicular) && ok(w.parallel) && ok(w.angle)) {
        return None;
    }
    Some((
        (0.5 * w.perpendicular).min(w.parallel),
        w.perpendicular.min(w.parallel),
    ))
}

/// Midpoint separation `M`, half-length sum `h`, and the magnitude-scaled
/// slack shared by tiers 1 and 2.
#[inline(always)]
fn midpoint_context<const D: usize>(i: &SegmentRecord<D>, j: &SegmentRecord<D>) -> (f64, f64, f64) {
    let (mi, mj) = (i.midpoint, j.midpoint);
    let m = mi.distance(&mj);
    let h = 0.5 * (i.length + j.length);
    let mut mag = 0.0;
    for k in 0..D {
        mag += mi.coords[k].abs() + mj.coords[k].abs();
    }
    (m, h, BOUND_SLACK * (h + mag))
}

/// Tier 1: `min(w⊥/2, w∥) · max(0, mbrd − slack)`.
#[inline(always)]
fn tier1_value(c1: f64, mbrd: f64, slack: f64) -> f64 {
    c1 * (mbrd - slack).max(0.0)
}

/// Tier 2: tier 1 sharpened by `min(w⊥, w∥) · max(0, (M − h) − slack)`.
#[inline(always)]
fn tier2_value(t1: f64, c2: f64, m: f64, h: f64, slack: f64) -> f64 {
    t1.max(c2 * ((m - h) - slack).max(0.0))
}

/// The exact angle component `dθ` with `li` in the base role — the same
/// value sequence as the batched kernel (`batched_components`), so the
/// result is bit-identical to the angle term inside the refined distance.
#[inline(always)]
fn exact_angle<const D: usize>(
    li: &SegmentRecord<D>,
    lj: &SegmentRecord<D>,
    mode: AngleMode,
) -> f64 {
    let norm_sq = li.norm_sq;
    if norm_sq <= 0.0 {
        // Degenerate base: no supporting line, the kernel reports dθ = 0.
        return 0.0;
    }
    let vw = li.dir.dot(&lj.dir);
    let sin_den = norm_sq * lj.norm_sq;
    let lj_len = lj.length;
    if lj_len <= 0.0 || sin_den <= 0.0 {
        // Zero-length lj has no directional strength; sin_angle is
        // undefined for a zero (or underflowed) denominator.
        return 0.0;
    }
    let gram = (sin_den - vw * vw).max(0.0);
    let sin_theta = (gram / sin_den).sqrt().clamp(0.0, 1.0);
    match mode {
        AngleMode::Directed => {
            if vw > 0.0 {
                lj_len * sin_theta
            } else {
                lj_len
            }
        }
        AngleMode::Undirected => lj_len * sin_theta,
    }
}

/// Lemma 2 role ordering on cached lengths with the id tie-break — the
/// rule `SegmentDatabase::distance` and the batched kernel share, so the
/// tier-3 angle is evaluated for exactly the `(Lᵢ, Lⱼ)` assignment the
/// refine step would use.
#[inline(always)]
fn base_role<const D: usize>(
    table: &SegmentTable<D>,
    a: u32,
    b: u32,
) -> (&SegmentRecord<D>, &SegmentRecord<D>) {
    let (ra, rb) = (table.record(a), table.record(b));
    if ra.length > rb.length {
        (ra, rb)
    } else if rb.length > ra.length {
        (rb, ra)
    } else if a <= b {
        (ra, rb)
    } else {
        (rb, ra)
    }
}

/// All three lower bounds on the composite distance between segments `a`
/// and `b` of `table`, weakest first: `tiers[0] ≤ tiers[1] ≤ tiers[2] ≤
/// distance` (as computed floats). The MBR tier boxes each segment's
/// endpoints. Degenerate (negative or non-finite) weights return
/// `[-∞; 3]`, which no ε can be below — nothing is prunable.
///
/// This is the value-level reference surface for property tests and
/// diagnostics; the hot path ([`PruneFilter`] behind [`prune_tier`])
/// evaluates the same inequalities as square-root-free comparisons and
/// may decide differently within the slack margin (see the module docs).
pub fn tiers<const D: usize>(
    table: &SegmentTable<D>,
    a: u32,
    b: u32,
    dist: &SegmentDistance,
) -> [f64; TIER_COUNT] {
    let Some((c1, c2)) = admissible_coefficients(dist) else {
        return [f64::NEG_INFINITY; TIER_COUNT];
    };
    let (li, lj) = base_role(table, a, b);
    let (m, h, slack) = midpoint_context(li, lj);
    let mbrd = li.bounding_box().min_distance(&lj.bounding_box());
    let t1 = tier1_value(c1, mbrd, slack);
    let t2 = tier2_value(t1, c2, m, h, slack);
    let t3 = t2 + dist.weights.angle * exact_angle(li, lj, dist.angle_mode);
    [t1, t2, t3]
}

/// The filter decision: the index of the tier whose bound rules the pair
/// out at `eps` (see [`PruneFilter::check`] for the evaluation order), or
/// `None` when the exact distance must be refined. Thin wrapper over
/// [`PruneFilter`] for one-off pairs; the neighborhood hot path builds
/// the filter once per query instead.
///
/// Sound by construction: `Some(t)` implies the pair's computed exact
/// distance exceeds `eps` (see the fast-decision-path module docs) —
/// discarding it cannot change the neighborhood. `NaN` bounds never
/// satisfy a prune comparison, so corrupt geometry refines instead of
/// pruning.
pub fn prune_tier<const D: usize>(
    table: &SegmentTable<D>,
    a: u32,
    b: u32,
    dist: &SegmentDistance,
    eps: f64,
) -> Option<usize> {
    let filter = PruneFilter::new(table, a, dist, eps)?;
    filter.check(table, b)
}

/// One ε-neighborhood query's hoisted filter state: the query segment's
/// cached geometry plus every weight- and ε-derived constant, so
/// [`check`](Self::check) costs a handful of multiply/compare operations
/// per candidate — no square root, no division, no role sort. See the
/// module docs for the comparisons and their admissibility argument.
///
/// All three comparisons are symmetric in the two segments (`mbrd`, `M`,
/// `h`, `gram`, `sin_den`, and the shorter length don't depend on which
/// one is the query), so `check` agrees with the decision for the
/// swapped pair.
#[derive(Debug, Clone, Copy)]
pub struct PruneFilter<const D: usize> {
    bbox: Aabb<D>,
    mid: Point<D>,
    dir: Vector<D>,
    norm_sq: f64,
    half_len: f64,
    mag: f64,
    c1: f64,
    c1_sq: f64,
    c2: f64,
    c2_sq: f64,
    wa_sq: f64,
    eps: f64,
    eps_infl_sq: f64,
    directed: bool,
}

impl<const D: usize> PruneFilter<D> {
    /// Hoists the query-side state for segment `query` of `table`.
    /// Returns `None` when the weights admit no sound bound (negative or
    /// non-finite) — the caller refines every candidate, exactly as the
    /// `-∞` tiers would dictate.
    pub fn new(
        table: &SegmentTable<D>,
        query: u32,
        dist: &SegmentDistance,
        eps: f64,
    ) -> Option<Self> {
        let (c1, c2) = admissible_coefficients(dist)?;
        let q = table.record(query);
        let mid = q.midpoint;
        let mut mag = 0.0;
        for k in 0..D {
            mag += mid.coords[k].abs();
        }
        let wa = dist.weights.angle;
        let eps_infl = eps * (1.0 + BOUND_SLACK);
        Some(Self {
            bbox: q.bounding_box(),
            mid,
            dir: q.dir,
            norm_sq: q.norm_sq,
            half_len: 0.5 * q.length,
            mag,
            c1,
            c1_sq: c1 * c1,
            c2,
            c2_sq: c2 * c2,
            wa_sq: wa * wa,
            eps,
            eps_infl_sq: eps_infl * eps_infl,
            directed: matches!(dist.angle_mode, AngleMode::Directed),
        })
    }

    /// The filter step for one candidate: `Some(tier)` when a deciding
    /// comparison rules the pair out at ε, `None` to refine. The returned
    /// index names the bound that fired (0 = MBR, 1 = midpoint/length,
    /// 2 = angle); evaluation order is a cost decision — the midpoint test
    /// runs first (one cached point against six flops) and the MBR test,
    /// which boxes the candidate's endpoints, only for its survivors — so
    /// a pair both tests exclude is attributed to the midpoint tier.
    #[inline(always)]
    pub fn check(&self, table: &SegmentTable<D>, cand: u32) -> Option<usize> {
        let c = table.record(cand);
        let mid_c = c.midpoint;
        let mut mag = self.mag;
        for k in 0..D {
            mag += mid_c.coords[k].abs();
        }
        let h = self.half_len + 0.5 * c.length;
        let slack = BOUND_SLACK * (h + mag);
        // Tier 2: c2·(M − h − slack) > ε, compared in squared space.
        let m_sq = self.mid.distance_squared(&mid_c);
        let rhs2 = self.eps + self.c2 * (h + slack);
        if self.c2_sq * m_sq > rhs2 * rhs2 {
            return Some(1);
        }
        // Tier 1: c1·(mbrd − slack) > ε, compared in squared space.
        let mbrd_sq = self.bbox.min_distance_squared(&c.bounding_box());
        let rhs1 = self.eps + self.c1 * slack;
        if self.c1_sq * mbrd_sq > rhs1 * rhs1 {
            return Some(0);
        }
        // Tier 3: wθ·dθ > ε·(1+slack), with gram/sin_den computed by the
        // kernel's own operation sequence (role order doesn't matter: the
        // Gram quantities are symmetric and dθ scales the shorter length).
        // Both branches need wθ²·‖Lⱼ‖² to clear the inflated ε² (the sine
        // ratio never exceeds 1), so the direction dot product is only
        // evaluated when that necessary condition holds.
        let norm_sq_c = c.norm_sq;
        let lj_nsq = self.norm_sq.min(norm_sq_c);
        if self.wa_sq * lj_nsq > self.eps_infl_sq {
            let sin_den = self.norm_sq * norm_sq_c;
            if sin_den > 0.0 {
                let vw = self.dir.dot(&c.dir);
                if self.directed && vw <= 0.0 {
                    // Reversed directions: the kernel's dθ is exactly ‖Lⱼ‖.
                    return Some(2);
                }
                let gram = (sin_den - vw * vw).max(0.0);
                if self.wa_sq * lj_nsq * gram > self.eps_infl_sq * sin_den {
                    return Some(2);
                }
            }
        }
        None
    }
}

/// [`tiers`] for a standalone segment pair: builds the two-record table
/// the database would hold, with `a` in the smaller-id role. Convenience
/// for tests and one-off checks — the hot path goes through the cached
/// [`tiers`] / [`prune_tier`].
pub fn segment_tiers<const D: usize>(
    a: &Segment<D>,
    b: &Segment<D>,
    dist: &SegmentDistance,
) -> [f64; TIER_COUNT] {
    tiers(&SegmentTable::from_geometry([a, b]), 0, 1, dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceWeights;
    use crate::segment::Segment2;

    fn exact(a: &Segment2, b: &Segment2, dist: &SegmentDistance) -> f64 {
        let table = SegmentTable::from_geometry([a, b]);
        let mut out = [0.0];
        dist.distance_many_into(&table, 0, &[1], &mut out);
        out[0]
    }

    #[test]
    fn far_pair_is_pruned_at_the_mbr_tier() {
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(1000.0, 1000.0, 1010.0, 1000.0);
        let dist = SegmentDistance::default();
        let t = segment_tiers(&a, &b, &dist);
        assert!(t[0] > 100.0, "MBR tier sees the gap: {t:?}");
        assert!(t[0] <= t[1] && t[1] <= t[2], "tiers are monotone: {t:?}");
        assert!(t[2] <= exact(&a, &b, &dist), "bound ≤ exact");
        let table = SegmentTable::from_geometry([&a, &b]);
        assert_eq!(
            prune_tier(&table, 0, 1, &dist, 100.0),
            Some(1),
            "the midpoint test runs first and already excludes the pair"
        );
        assert_eq!(prune_tier(&table, 0, 1, &dist, 1e9), None);
    }

    #[test]
    fn self_pair_is_never_pruned() {
        let a = Segment2::xy(3.0, 4.0, 13.0, 4.0);
        let dist = SegmentDistance::default();
        let t = segment_tiers(&a, &a, &dist);
        assert_eq!(t, [0.0; 3], "dist(L, L) = 0 admits no positive bound");
        let table = SegmentTable::from_geometry([&a, &a]);
        assert_eq!(prune_tier(&table, 0, 1, &dist, 0.0), None);
    }

    #[test]
    fn angle_tier_matches_the_kernel_bitwise() {
        // Perpendicular unit-overlap segments: d⊥ = d∥ = 0 contributions
        // aside, the angle term is the whole distance — tier 3 must hit
        // the exact value to the bit.
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(5.0, -2.0, 5.0, 2.0);
        for weights in [
            DistanceWeights::uniform(),
            DistanceWeights::new(0.0, 0.0, 3.0),
        ] {
            for mode in [AngleMode::Directed, AngleMode::Undirected] {
                let dist = SegmentDistance::new(weights, mode);
                let table = SegmentTable::from_geometry([&a, &b]);
                // a is longer → base role regardless of ids.
                let angle = exact_angle(table.record(0), table.record(1), mode);
                let t = segment_tiers(&a, &b, &dist);
                assert!(t[2] <= exact(&a, &b, &dist));
                assert!(
                    t[2] >= weights.angle * angle,
                    "tier 3 includes the full angle term"
                );
            }
        }
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
            assert_eq!(segment_tiers(&a, &b, &dist), [f64::NEG_INFINITY; 3]);
            let table = SegmentTable::from_geometry([&a, &b]);
            assert_eq!(prune_tier(&table, 0, 1, &dist, 0.0), None);
        }
    }

    #[test]
    fn zero_perpendicular_weight_still_bounds_via_angle() {
        // w⊥ = 0 zeroes tiers 1–2 (a collinear far-away pair really is at
        // distance w∥·d∥, which the positional tiers cannot see without
        // w⊥), but the angle tier still fires on crossed directions.
        let a = Segment2::xy(0.0, 0.0, 10.0, 0.0);
        let b = Segment2::xy(0.0, 5.0, 0.0, 15.0);
        let dist = SegmentDistance::new(DistanceWeights::new(0.0, 0.0, 1.0), AngleMode::Undirected);
        let t = segment_tiers(&a, &b, &dist);
        assert_eq!(t[0], 0.0);
        assert_eq!(t[1], 0.0);
        assert!(t[2] > 9.0, "perpendicular directions: dθ = ‖Lⱼ‖ = 10");
        assert!(t[2] <= exact(&a, &b, &dist));
    }
}
