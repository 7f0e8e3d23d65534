//! The weighted-trajectory extension (end of Section 4.2): "it is natural
//! that a stronger hurricane should have a higher weight" — neighborhood
//! cardinality becomes the sum of member weights instead of a count.
//!
//! Two major hurricanes plus one minor storm share a corridor. Unweighted,
//! three segments never reach MinLns = 5; weighted by intensity they do.
//!
//! ```sh
//! cargo run --release --example weighted_trajectories
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example shows the API, and aborts with a message where a program would \
              handle the error"
)]

use traclus::prelude::*;

fn corridor_trajectory(_id: u32, offset: f64) -> Vec<Point2> {
    (0..25)
        .map(|k| Point2::xy(k as f64 * 5.0, offset))
        .collect()
}

fn main() {
    // Weights model maximum sustained wind (a category-5 storm counts ~3x
    // a tropical storm).
    let trajectories = vec![
        Trajectory::with_weight(TrajectoryId(0), corridor_trajectory(0, 0.0), 3.0),
        Trajectory::with_weight(TrajectoryId(1), corridor_trajectory(1, 1.0), 3.0),
        Trajectory::with_weight(TrajectoryId(2), corridor_trajectory(2, 2.0), 1.0),
    ];

    let base = TraclusConfig {
        eps: 4.0,
        min_lns: 5,
        min_trajectories: Some(3),
        ..TraclusConfig::default()
    };

    let unweighted = Traclus::new(base).run(&trajectories);
    println!(
        "unweighted: {} clusters (3 segments < MinLns = 5)",
        unweighted.clusters.len()
    );
    assert!(unweighted.clusters.is_empty());

    let weighted = Traclus::new(TraclusConfig {
        weighted: true,
        ..base
    })
    .run(&trajectories);
    println!(
        "weighted:   {} clusters (3+3+1 = 7 >= MinLns = 5)",
        weighted.clusters.len()
    );
    assert_eq!(weighted.clusters.len(), 1);
    let rep = &weighted.clusters[0].representative;
    println!(
        "corridor representative: ({:.1},{:.1}) -> ({:.1},{:.1})",
        rep.points.first().unwrap().x(),
        rep.points.first().unwrap().y(),
        rep.points.last().unwrap().x(),
        rep.points.last().unwrap().y()
    );
    // The heavy storms pull the representative towards y ≈ 1.0 (the
    // weighted centre), not the unweighted mean — inspect visually:
    for p in &rep.points {
        assert!((0.0..=2.0).contains(&p.y()));
    }
}
