//! Property-based equivalence of the ordered parallel grouping pass:
//! random segment soups and parameters, parallel output must equal the
//! sequential Figure 12 output exactly, and repeated runs with the same
//! thread count must be bit-identical (determinism).

use proptest::prelude::*;
use traclus_core::{ClusterConfig, IndexKind, LineSegmentClustering, SegmentDatabase};
use traclus_geom::{IdentifiedSegment, Segment2, SegmentDistance, SegmentId, TrajectoryId};

fn coord() -> impl Strategy<Value = f64> {
    -150.0..150.0f64
}

prop_compose! {
    fn segment_set(max: usize)(
        raw in prop::collection::vec((coord(), coord(), coord(), coord()), 1..max)
    ) -> Vec<IdentifiedSegment<2>> {
        raw.into_iter().enumerate().map(|(k, (x1, y1, x2, y2))| {
            IdentifiedSegment::new(
                SegmentId(k as u32),
                TrajectoryId((k % 7) as u32),
                Segment2::xy(x1, y1, x2, y2),
            )
        }).collect()
    }
}

fn index_kind(sel: u8) -> IndexKind {
    if sel == 0 {
        IndexKind::Linear
    } else {
        IndexKind::RTree
    }
}

proptest! {
    #[test]
    fn parallel_equals_sequential_on_random_inputs(
        segments in segment_set(60),
        eps in 0.5..60.0f64,
        min_lns in 2usize..6,
        weighted in 0u8..2,
        kind in 0u8..2,
        threads in 2usize..9,
    ) {
        let db = SegmentDatabase::from_segments(segments, SegmentDistance::default());
        let config = ClusterConfig {
            weighted: weighted == 1,
            index: index_kind(kind),
            min_trajectories: Some(2),
            ..ClusterConfig::new(eps, min_lns)
        };
        let algo = LineSegmentClustering::new(&db, config);
        let sequential = algo.run();
        let parallel = algo.run_parallel(threads);
        prop_assert_eq!(
            &sequential, &parallel,
            "parallel != sequential at eps={}, min_lns={}, t={}",
            eps, min_lns, threads
        );
        // Determinism: same thread count, same bits.
        let again = algo.run_parallel(threads);
        prop_assert_eq!(&parallel, &again, "nondeterministic at t={}", threads);
    }

    #[test]
    fn thread_counts_agree_with_each_other(
        segments in segment_set(40),
        eps in 1.0..40.0f64,
        min_lns in 2usize..5,
    ) {
        // Transitivity check run directly across counts, including counts
        // far above the segment count (more workers than blocks).
        let db = SegmentDatabase::from_segments(segments, SegmentDistance::default());
        let algo = LineSegmentClustering::new(&db, ClusterConfig::new(eps, min_lns));
        let reference = algo.run_parallel(2);
        for t in [3usize, 5, 16] {
            prop_assert_eq!(&reference, &algo.run_parallel(t), "t=2 vs t={}", t);
        }
    }

    #[test]
    fn degenerate_weights_force_full_scan_equivalence(
        segments in segment_set(30),
        eps in 0.5..30.0f64,
        threads in 2usize..6,
    ) {
        // Zero parallel weight disables the conservative index filter; the
        // parallel pass must still agree with the sequential full scan.
        let dist = SegmentDistance::new(
            traclus_geom::DistanceWeights::new(1.0, 0.0, 1.0),
            traclus_geom::AngleMode::Directed,
        );
        let db = SegmentDatabase::from_segments(segments, dist);
        let algo = LineSegmentClustering::new(&db, ClusterConfig::new(eps, 2));
        prop_assert_eq!(algo.run(), algo.run_parallel(threads));
    }
}
