//! Randomised cross-checks: every index kind must produce identical
//! ε-neighborhoods and identical clusterings — the filter-and-refine
//! scheme is an optimisation, never a semantic change.

use proptest::prelude::*;
use traclus::core::{ClusterConfig, IndexKind, LineSegmentClustering, SegmentDatabase};
use traclus::geom::{IdentifiedSegment, Segment2, SegmentDistance, SegmentId, TrajectoryId};

fn db_from(raw: Vec<(f64, f64, f64, f64)>) -> SegmentDatabase<2> {
    let segments: Vec<IdentifiedSegment<2>> = raw
        .into_iter()
        .enumerate()
        .map(|(k, (x1, y1, x2, y2))| {
            IdentifiedSegment::new(
                SegmentId(k as u32),
                TrajectoryId((k % 7) as u32),
                Segment2::xy(x1, y1, x2, y2),
            )
        })
        .collect();
    SegmentDatabase::from_segments(segments, SegmentDistance::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn neighborhoods_agree_across_indexes(
        raw in prop::collection::vec(
            (-50.0..50.0f64, -50.0..50.0f64, -50.0..50.0f64, -50.0..50.0f64),
            1..60,
        ),
        eps in 0.1..30.0f64,
    ) {
        let db = db_from(raw);
        let linear = db.build_index(IndexKind::Linear, eps);
        let rtree = db.build_index(IndexKind::RTree, eps);
        for id in 0..db.len() as u32 {
            let a = db.neighborhood(&linear, id, eps);
            let c = db.neighborhood(&rtree, id, eps);
            prop_assert_eq!(&a, &c, "rtree mismatch at id {} eps {}", id, eps);
            prop_assert!(a.contains(&id), "Definition 4: L ∈ Nε(L)");
        }
    }

    // Decremental agreement: after every deletion batch, the database is
    // the one built directly from the survivors (dense ids, order kept),
    // and the R-tree `remove_segments` updated in place answers every
    // neighborhood identically to a fresh build over the survivors and to
    // the Linear reference (a full scan, so it needs no maintenance).
    #[test]
    fn deletions_agree_with_fresh_builds_and_linear(
        raw in prop::collection::vec(
            (-50.0..50.0f64, -50.0..50.0f64, -50.0..50.0f64, -50.0..50.0f64),
            4..50,
        ),
        batches in prop::collection::vec(
            prop::collection::vec(0usize..64, 1..6),
            1..6,
        ),
        eps in 0.5..25.0f64,
    ) {
        let mut db = db_from(raw);
        let linear = db.build_index(IndexKind::Linear, eps);
        let mut rtree = db.build_index(IndexKind::RTree, eps);
        for (b, batch) in batches.iter().enumerate() {
            if db.is_empty() {
                break;
            }
            let mut kill: Vec<u32> = batch.iter().map(|&pick| (pick % db.len()) as u32).collect();
            kill.sort_unstable();
            kill.dedup();
            let survivors: Vec<IdentifiedSegment<2>> = db
                .segments()
                .filter(|s| kill.binary_search(&s.id.0).is_err())
                .enumerate()
                .map(|(k, s)| IdentifiedSegment { id: SegmentId(k as u32), ..s })
                .collect();
            db.remove_segments(&kill, &mut rtree);
            let direct = SegmentDatabase::from_segments(survivors, SegmentDistance::default());
            prop_assert_eq!(&db, &direct, "after batch {}", b);
            let fresh_rtree = db.build_index(IndexKind::RTree, eps);
            for id in 0..db.len() as u32 {
                let reference = db.neighborhood(&linear, id, eps);
                for (name, index) in [
                    ("incremental rtree", &rtree),
                    ("fresh rtree", &fresh_rtree),
                ] {
                    prop_assert_eq!(
                        &reference,
                        &db.neighborhood(index, id, eps),
                        "{} diverged from Linear at id {} after batch {} (eps {})",
                        name, id, b, eps
                    );
                }
            }
        }
    }

    #[test]
    fn clusterings_agree_across_indexes(
        raw in prop::collection::vec(
            (-30.0..30.0f64, -30.0..30.0f64, -30.0..30.0f64, -30.0..30.0f64),
            1..50,
        ),
        eps in 0.5..20.0f64,
        min_lns in 2usize..6,
    ) {
        let db = db_from(raw);
        let mut outcomes = Vec::new();
        for kind in [IndexKind::Linear, IndexKind::RTree] {
            outcomes.push(
                LineSegmentClustering::new(
                    &db,
                    ClusterConfig {
                        index: kind,
                        min_trajectories: Some(2),
                        ..ClusterConfig::new(eps, min_lns)
                    },
                )
                .run(),
            );
        }
        prop_assert_eq!(&outcomes[0], &outcomes[1]);
    }
}

/// Deleting every segment of one R-tree leaf region must leave the
/// survivors' neighborhoods exactly right — the structural corner where a
/// leaf empties out entirely — and deleting the rest must leave a valid
/// empty index that fresh builds agree with.
#[test]
fn emptying_a_cell_then_the_whole_index_stays_consistent() {
    // Ids 0..4: a tight knot near the origin (one leaf).
    // Ids 4..8: a second knot far away at (100, 100).
    let knot = |cx: f64, cy: f64, base: usize| -> Vec<(f64, f64, f64, f64)> {
        (0..4)
            .map(|k| {
                let off = (base + k) as f64 * 0.3;
                (cx + off, cy, cx + off + 1.0, cy + 0.5)
            })
            .collect()
    };
    let mut raw = knot(0.0, 0.0, 0);
    raw.extend(knot(100.0, 100.0, 0));
    let mut db = db_from(raw);
    let eps = 3.0;
    let linear = db.build_index(IndexKind::Linear, eps);
    let mut rtree = db.build_index(IndexKind::RTree, eps);

    let check = |db: &SegmentDatabase<2>, rtree: &traclus::core::NeighborIndex<2>| {
        let fresh_rtree = db.build_index(IndexKind::RTree, eps);
        for id in 0..db.len() as u32 {
            let reference = db.neighborhood(&linear, id, eps);
            for index in [rtree, &fresh_rtree] {
                assert_eq!(reference, db.neighborhood(index, id, eps), "id {id}");
            }
        }
    };

    // Empty the origin knot one segment at a time — the last removal
    // leaves its leaf with zero entries. Each removal renumbers the
    // survivors down by one, so the knot's next segment is always id 0.
    for _ in 0..4 {
        db.remove_segments(&[0], &mut rtree);
        check(&db, &rtree);
    }
    // The far knot is untouched: each survivor still sees all four, under
    // ids 0..4 now.
    assert_eq!(db.len(), 4);
    assert_eq!(db.segment(0).trajectory, TrajectoryId(4));
    assert_eq!(db.neighborhood(&linear, 0, eps).len(), 4);

    // Now empty the index entirely, from the back; incremental and fresh
    // builds must agree on the nothing that remains.
    while let Some(last) = db.len().checked_sub(1) {
        db.remove_segments(&[last as u32], &mut rtree);
        check(&db, &rtree);
    }
    assert!(db.is_empty());
}
