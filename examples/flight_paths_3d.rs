//! Three-dimensional trajectories: the paper defines everything for
//! d-dimensional points and notes the representative-trajectory rotation
//! extends to 3-D (Section 4.3, footnote 3). The whole pipeline here is
//! generic over `D`, so clustering 3-D flight paths is the same API with
//! `Point<3>`.
//!
//! Scenario: aircraft on a shared airway at different cruise levels, plus
//! departures climbing out of it — the common sub-trajectory is the airway
//! (x/y corridor *and* altitude band).
//!
//! ```sh
//! cargo run --release --example flight_paths_3d
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example shows the API, and aborts with a message where a program would \
              handle the error"
)]

use traclus::core::{Traclus, TraclusConfig};
use traclus::geom::{Point, Trajectory, TrajectoryId};

fn main() {
    let mut trajectories: Vec<Trajectory<3>> = Vec::new();
    // Twelve aircraft flying the airway west→east near FL350 (z ≈ 35),
    // with slight lateral/vertical offsets.
    for i in 0..12u32 {
        let lateral = (i % 4) as f64 * 0.8;
        let level = 35.0 + (i % 3) as f64 * 0.6;
        let points = (0..40)
            .map(|k| {
                let x = k as f64 * 12.0;
                Point::new([x, lateral + (x * 0.01).sin(), level])
            })
            .collect();
        trajectories.push(Trajectory::new(TrajectoryId(i), points));
    }
    // Six departures: join the airway midway while climbing through it.
    for i in 0..6u32 {
        let points = (0..40)
            .map(|k| {
                let t = k as f64;
                Point::new([
                    150.0 + t * 10.0,
                    40.0 - t * 1.0 + (i as f64) * 0.5,
                    5.0 + t * 0.9,
                ])
            })
            .collect();
        trajectories.push(Trajectory::new(TrajectoryId(100 + i), points));
    }

    let outcome = Traclus::new(TraclusConfig {
        eps: 8.0,
        min_lns: 5,
        ..TraclusConfig::default()
    })
    .run(&trajectories);

    println!(
        "{} aircraft -> {} segments -> {} clusters",
        trajectories.len(),
        outcome.database.len(),
        outcome.clusters.len()
    );
    for cluster in &outcome.clusters {
        let rep = &cluster.representative;
        let (Some(first), Some(last)) = (rep.points.first(), rep.points.last()) else {
            continue;
        };
        println!(
            "cluster {}: {} segments / {} aircraft; corridor ({:.0},{:.0},FL{:.0}) -> ({:.0},{:.0},FL{:.0})",
            cluster.cluster.id,
            cluster.members.len(),
            cluster.trajectory_cardinality(),
            first.coords[0],
            first.coords[1],
            first.coords[2] * 10.0,
            last.coords[0],
            last.coords[1],
            last.coords[2] * 10.0,
        );
    }
    // The airway cluster must sit in the cruise altitude band.
    let airway = outcome
        .clusters
        .iter()
        .find(|c| c.trajectory_cardinality() >= 10)
        .expect("the shared airway must be discovered");
    for p in &airway.representative.points {
        assert!(
            (33.0..=38.0).contains(&p.coords[2]),
            "airway representative stays in the cruise band, got z = {}",
            p.coords[2]
        );
    }
    println!("airway cluster confirmed in the FL330–380 band");
}
