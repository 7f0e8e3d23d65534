//! Property-based tests of the geometry kernel.

use proptest::prelude::*;
use traclus_geom::{
    Aabb, AngleMode, DistanceWeights, OrthonormalFrame, Point2, PreparedBase, Segment2,
    SegmentDistance, SegmentTable, Vector2,
};

fn coord() -> impl Strategy<Value = f64> {
    -1000.0..1000.0f64
}

prop_compose! {
    fn point()(x in coord(), y in coord()) -> Point2 {
        Point2::xy(x, y)
    }
}

prop_compose! {
    fn segment()(a in point(), b in point()) -> Segment2 {
        Segment2::new(a, b)
    }
}

prop_compose! {
    /// A segment that is occasionally degenerate (start == end), so the
    /// batched kernel's rare-lane fallback gets exercised.
    fn segment_maybe_degenerate()(s in segment(), sel in 0u8..8) -> Segment2 {
        if sel == 0 { Segment2::new(s.start, s.start) } else { s }
    }
}

prop_compose! {
    /// A non-negative component weight, zero with probability 1/4 — zero
    /// `w∥`/`w⊥` are the degenerate cases the index filter must respect
    /// and the batched kernel must reproduce exactly.
    fn weight()(sel in 0u8..4, w in 0.01..5.0f64) -> f64 {
        if sel == 0 { 0.0 } else { w }
    }
}

proptest! {
    #[test]
    fn point_distance_satisfies_triangle_inequality(a in point(), b in point(), c in point()) {
        // The *point* metric is a genuine metric (unlike the segment
        // distance, whose violation is itself unit-tested).
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
    }

    #[test]
    fn projection_is_idempotent(s in segment(), p in point()) {
        if let Some(proj) = s.project_onto_line(&p) {
            let again = s.project_onto_line(&proj.point).unwrap();
            prop_assert!(proj.point.distance(&again.point) < 1e-6,
                "projecting a projected point must be a fixed point");
        }
    }

    #[test]
    fn projection_is_closest_point_on_line(s in segment(), p in point()) {
        if let Some(proj) = s.project_onto_line(&p) {
            let d_proj = p.distance(&proj.point);
            for t in [-0.5, 0.0, 0.3, 0.7, 1.0, 1.5] {
                let q = s.point_at(t);
                prop_assert!(d_proj <= p.distance(&q) + 1e-7,
                    "line point at t={t} beat the projection");
            }
        }
    }

    #[test]
    fn segment_min_distance_is_symmetric_and_bounded(a in segment(), b in segment()) {
        let d_ab = a.min_distance(&b);
        let d_ba = b.min_distance(&a);
        prop_assert!((d_ab - d_ba).abs() < 1e-6);
        // Bounded above by any endpoint-pair distance.
        let upper = a.start.distance(&b.start)
            .min(a.start.distance(&b.end))
            .min(a.end.distance(&b.start))
            .min(a.end.distance(&b.end));
        prop_assert!(d_ab <= upper + 1e-9);
    }

    #[test]
    fn aabb_union_contains_both(a in segment(), b in segment()) {
        let box_a = Aabb::from_segment(&a);
        let box_b = Aabb::from_segment(&b);
        let u = box_a.union(&box_b);
        prop_assert!(u.contains(&box_a));
        prop_assert!(u.contains(&box_b));
        prop_assert!(u.volume() + 1e-12 >= box_a.volume().max(box_b.volume()));
    }

    #[test]
    fn frame_round_trip(p in point(), dx in -10.0..10.0f64, dy in -10.0..10.0f64) {
        prop_assume!(dx.abs() + dy.abs() > 1e-6);
        let frame = OrthonormalFrame::from_direction(&Vector2::xy(dx, dy)).unwrap();
        let back = frame.from_frame(&frame.to_frame(&p));
        prop_assert!(back.distance(&p) < 1e-6 * (1.0 + p.x().abs() + p.y().abs()));
    }

    #[test]
    fn frame_preserves_distances(p in point(), q in point(),
                                 dx in -10.0..10.0f64, dy in -10.0..10.0f64) {
        prop_assume!(dx.abs() + dy.abs() > 1e-6);
        let frame = OrthonormalFrame::from_direction(&Vector2::xy(dx, dy)).unwrap();
        let fp = frame.to_frame(&p);
        let fq = frame.to_frame(&q);
        let frame_dist = ((fp[0] - fq[0]).powi(2) + (fp[1] - fq[1]).powi(2)).sqrt();
        prop_assert!((frame_dist - p.distance(&q)).abs() < 1e-6 * (1.0 + p.distance(&q)),
            "rotation must be an isometry");
    }

    #[test]
    fn distance_scale_covariance(a in segment(), b in segment(), scale in 0.1..10.0f64) {
        // All three components are lengths, so the composite distance is
        // positively homogeneous: dist(s·a, s·b) = s · dist(a, b).
        let dist = SegmentDistance::default();
        let scale_seg = |s: &Segment2| Segment2::xy(
            s.start.x() * scale, s.start.y() * scale,
            s.end.x() * scale, s.end.y() * scale,
        );
        let d0 = dist.distance(&a, &b);
        let d1 = dist.distance(&scale_seg(&a), &scale_seg(&b));
        prop_assert!((d1 - scale * d0).abs() < 1e-6 * (1.0 + scale * d0),
            "homogeneity violated: {d1} vs {}", scale * d0);
    }

    #[test]
    fn reversing_both_segments_preserves_distance(a in segment(), b in segment()) {
        // Reversing *both* operands flips both direction vectors; θ is
        // unchanged, and the perpendicular/parallel components only depend
        // on the point sets.
        let dist = SegmentDistance::default();
        let d0 = dist.distance(&a, &b);
        let d1 = dist.distance(&a.reversed(), &b.reversed());
        prop_assert!((d0 - d1).abs() < 1e-6 * (1.0 + d0));
    }

    #[test]
    fn distance_many_bit_identical_to_scalar(
        segs in prop::collection::vec(segment_maybe_degenerate(), 1..24),
        wp in weight(), wl in weight(), wa in weight(),
        mode_sel in 0u8..2,
    ) {
        // The batched kernel's contract: for every (query, candidate)
        // pair, the same bits as the scalar path under the same role
        // ordering (cached length, index tie-break).
        let mode = if mode_sel == 0 { AngleMode::Directed } else { AngleMode::Undirected };
        let dist = SegmentDistance::new(DistanceWeights::new(wp, wl, wa), mode);
        let table = SegmentTable::from_geometry(segs.iter());
        let candidates: Vec<u32> = (0..segs.len() as u32).collect();
        let mut out = vec![0.0; segs.len()];
        for q in 0..segs.len() {
            dist.distance_many_into(&table, q as u32, &candidates, &mut out);
            for (c, &got) in out.iter().enumerate() {
                let (la, lb) = (segs[q].length(), segs[c].length());
                let (i, j) = if la > lb {
                    (q, c)
                } else if lb > la {
                    (c, q)
                } else if q <= c {
                    (q, c)
                } else {
                    (c, q)
                };
                let expected = dist.distance_ordered(&segs[i], &segs[j]);
                prop_assert_eq!(got.to_bits(), expected.to_bits(),
                    "batch != scalar at ({}, {}): {} vs {}", q, c, got, expected);
            }
        }
    }

    #[test]
    fn prepared_mdl_components_bit_identical(
        base in segment_maybe_degenerate(),
        edges in prop::collection::vec(segment_maybe_degenerate(), 1..12),
        mode_sel in 0u8..2,
    ) {
        let mode = if mode_sel == 0 { AngleMode::Directed } else { AngleMode::Undirected };
        let dist = SegmentDistance::new(DistanceWeights::uniform(), mode);
        let prepared = PreparedBase::new(&base);
        for edge in &edges {
            let (p, a) = dist.mdl_components_prepared(&prepared, edge);
            let (sp, sa) = dist.mdl_components(&base, edge);
            prop_assert_eq!(p.to_bits(), sp.to_bits(), "perpendicular differs");
            prop_assert_eq!(a.to_bits(), sa.to_bits(), "angle differs");
        }
    }
}
