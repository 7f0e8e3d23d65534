//! Property-based tests of the core algorithms: MDL cost structure,
//! suppression monotonicity, clustering label consistency, and
//! representative-sweep sanity.

use proptest::prelude::*;
use traclus_core::{
    approximate_partition, representative_trajectory, Cluster, ClusterConfig, ClusterId, IndexKind,
    LineSegmentClustering, MdlCost, PartitionConfig, RepresentativeConfig, SegmentDatabase,
    SegmentLabel,
};
use traclus_geom::{IdentifiedSegment, Point2, Segment2, SegmentDistance, SegmentId, TrajectoryId};

fn coord() -> impl Strategy<Value = f64> {
    -200.0..200.0f64
}

prop_compose! {
    fn polyline(max_len: usize)(
        raw in prop::collection::vec((coord(), coord()), 3..max_len)
    ) -> Vec<Point2> {
        raw.into_iter().map(|(x, y)| Point2::xy(x, y)).collect()
    }
}

prop_compose! {
    fn segment_set(max: usize)(
        raw in prop::collection::vec((coord(), coord(), coord(), coord()), 1..max)
    ) -> Vec<IdentifiedSegment<2>> {
        raw.into_iter().enumerate().map(|(k, (x1, y1, x2, y2))| {
            IdentifiedSegment::new(
                SegmentId(k as u32),
                TrajectoryId((k % 5) as u32),
                Segment2::xy(x1, y1, x2, y2),
            )
        }).collect()
    }
}

prop_compose! {
    /// A non-negative component weight, zero with probability 1/4.
    fn weight()(sel in 0u8..4, w in 0.01..5.0f64) -> f64 {
        if sel == 0 { 0.0 } else { w }
    }
}

proptest! {
    #[test]
    fn mdl_bits_are_monotone_nonnegative(x in 0.0..1e9f64, y in 0.0..1e9f64,
                                         precision in 0.001..100.0f64) {
        let cost = MdlCost::with_precision(precision);
        prop_assert!(cost.bits(x) >= 0.0);
        if x <= y {
            prop_assert!(cost.bits(x) <= cost.bits(y) + 1e-12, "monotone in magnitude");
        }
    }

    #[test]
    fn coarser_precision_never_costs_more_bits(x in 0.0..1e6f64,
                                               fine in 0.001..1.0f64,
                                               factor in 1.0..100.0f64) {
        let fine_cost = MdlCost::with_precision(fine);
        let coarse_cost = MdlCost::with_precision(fine * factor);
        prop_assert!(coarse_cost.bits(x) <= fine_cost.bits(x) + 1e-12,
            "coarser δ encodes with fewer bits");
    }

    #[test]
    fn mdl_nopar_is_additive(points in polyline(20)) {
        // L(H) of "keep the original edges" decomposes over any interior
        // split point — the property the DP optimum relies on.
        let config = PartitionConfig::default();
        let n = points.len();
        for mid in 1..n - 1 {
            let whole = config.mdl_nopar(&points, 0, n - 1);
            let split = config.mdl_nopar(&points, 0, mid) + config.mdl_nopar(&points, mid, n - 1);
            prop_assert!((whole - split).abs() < 1e-9, "additivity broken at {mid}");
        }
    }

    #[test]
    fn suppression_is_monotone_in_partition_count(points in polyline(30),
                                                  s1 in 0.0..3.0f64, extra in 0.0..5.0f64) {
        let base = approximate_partition(
            &PartitionConfig { suppression: s1, ..PartitionConfig::default() },
            &points,
        );
        let more = approximate_partition(
            &PartitionConfig { suppression: s1 + extra, ..PartitionConfig::default() },
            &points,
        );
        prop_assert!(
            more.partition_count() <= base.partition_count(),
            "more suppression can only merge further: {} vs {}",
            more.partition_count(),
            base.partition_count()
        );
    }

    #[test]
    fn clustering_labels_partition_the_database(segments in segment_set(40),
                                                eps in 0.5..50.0f64,
                                                min_lns in 2usize..5) {
        let db = SegmentDatabase::from_segments(segments, SegmentDistance::default());
        let clustering = LineSegmentClustering::new(
            &db,
            ClusterConfig {
                index: IndexKind::RTree,
                min_trajectories: Some(2),
                ..ClusterConfig::new(eps, min_lns)
            },
        )
        .run();
        prop_assert_eq!(clustering.labels.len(), db.len());
        // Member lists and labels are mutually consistent and disjoint.
        let mut assigned = vec![false; db.len()];
        for cluster in &clustering.clusters {
            prop_assert!(!cluster.members.is_empty());
            prop_assert!(cluster.trajectory_cardinality() >= 2);
            for &m in &cluster.members {
                prop_assert_eq!(clustering.labels[m as usize], SegmentLabel::Cluster(cluster.id));
                prop_assert!(!assigned[m as usize]);
                assigned[m as usize] = true;
            }
        }
        for (i, was_assigned) in assigned.iter().enumerate() {
            if !was_assigned {
                prop_assert_eq!(clustering.labels[i], SegmentLabel::Noise);
            }
        }
    }

    #[test]
    fn core_segments_have_dense_neighborhoods(segments in segment_set(30),
                                              eps in 1.0..30.0f64,
                                              min_lns in 2usize..5) {
        // Every cluster must contain at least one core segment (DBSCAN
        // structure: clusters are grown from cores).
        let db = SegmentDatabase::from_segments(segments, SegmentDistance::default());
        let clustering = LineSegmentClustering::new(
            &db,
            ClusterConfig {
                index: IndexKind::Linear,
                min_trajectories: Some(1),
                ..ClusterConfig::new(eps, min_lns)
            },
        )
        .run();
        let index = db.build_index(IndexKind::Linear, eps);
        for cluster in &clustering.clusters {
            let has_core = cluster.members.iter().any(|&m| {
                db.neighborhood(&index, m, eps).len() >= min_lns
            });
            prop_assert!(has_core, "cluster {:?} has no core segment", cluster.id);
        }
    }

    #[test]
    fn index_kinds_and_batched_kernel_agree(segments in segment_set(30),
                                            eps_sel in 0u8..4,
                                            eps_raw in 0.5..40.0f64,
                                            wp in weight(), wl in weight(), wa in weight()) {
        // Both acceleration arms must produce the identical neighborhood —
        // linear scan and R-tree, at eps = 0 too — under arbitrary
        // non-negative weights: zero w∥/w⊥ disable the conservative filter
        // and force full scans. The batched kernel must refine to the same
        // bits as the scalar one.
        let eps = if eps_sel == 0 { 0.0 } else { eps_raw };
        let dist = SegmentDistance::new(
            traclus_geom::DistanceWeights::new(wp, wl, wa),
            traclus_geom::AngleMode::Directed,
        );
        let db = SegmentDatabase::from_segments(segments, dist);
        let linear = db.build_index(IndexKind::Linear, eps);
        let rtree = db.build_index(IndexKind::RTree, eps);
        let candidates: Vec<u32> = (0..db.len() as u32).collect();
        let mut dists = Vec::new();
        for id in 0..db.len() as u32 {
            let a = db.neighborhood(&linear, id, eps);
            let c = db.neighborhood(&rtree, id, eps);
            prop_assert_eq!(&a, &c, "rtree vs linear at id {}", id);
            db.distances_into(id, &candidates, &mut dists);
            for (&cand, &d) in candidates.iter().zip(&dists) {
                prop_assert_eq!(d.to_bits(), db.distance(id, cand).to_bits(),
                    "batched != scalar for ({}, {})", id, cand);
            }
        }
    }

    #[test]
    fn representative_points_are_finite_and_sweep_ordered(segments in segment_set(25)) {
        let db = SegmentDatabase::from_segments(segments, SegmentDistance::default());
        let cluster = Cluster {
            id: ClusterId(0),
            members: (0..db.len() as u32).collect(),
            trajectories: (0..5).map(TrajectoryId).collect(),
        };
        let rep = representative_trajectory(&db, &cluster, &RepresentativeConfig::new(2, 0.0));
        for p in &rep.points {
            prop_assert!(p.is_finite());
        }
        prop_assert!(rep.points.len() <= 2 * db.len(), "at most one point per endpoint event");
    }
}
