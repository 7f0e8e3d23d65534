//! The paper's hurricane scenario (Section 5.2): generate the Best-Track
//! stand-in, estimate (ε, MinLns) with the Section 4.4 entropy heuristic,
//! cluster, and write a Figure 18-style SVG.
//!
//! ```sh
//! cargo run --release --example hurricanes
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example shows the API, and aborts with a message where a program would \
              handle the error"
)]

use traclus::core::{select_min_lns, EntropyCurve, MdlCost, PartitionConfig, SegmentDatabase};
use traclus::data::HurricaneGenerator;
use traclus::prelude::*;
use traclus::viz::render_clustering;

fn main() {
    // A reduced basin (150 tracks) keeps the example snappy; the full-scale
    // experiment harness uses all 570.
    let tracks = traclus::data::HurricaneGenerator::new(traclus::data::HurricaneConfig {
        tracks: 150,
        seed: 2004,
        ..traclus::data::HurricaneConfig::default()
    })
    .generate();
    let total_points: usize = tracks.iter().map(|t| t.len()).sum();
    println!("generated {} tracks / {} fixes", tracks.len(), total_points);

    // Phase 1: partition, then estimate ε by scanning the entropy curve.
    // The MDL coding precision δ must match the coordinate scale: 0.05° is
    // about the accuracy of a best-track centre fix (see MdlCost docs).
    let config = TraclusConfig {
        partition: PartitionConfig {
            cost: MdlCost::with_precision(0.05),
            ..PartitionConfig::default()
        },
        ..TraclusConfig::default()
    };
    let db = SegmentDatabase::from_trajectories(&tracks, &config.partition, config.distance);
    println!("partitioned into {} trajectory partitions", db.len());
    let grid: Vec<f64> = (1..=40).map(|i| i as f64 * 0.25).collect();
    let curve = EntropyCurve::scan(&db, grid, false);
    let best = curve.minimum().expect("non-empty curve");
    let min_lns_range = select_min_lns(best.avg_neighborhood);
    println!(
        "entropy minimum at eps = {:.2} (avg|Neps| = {:.2}); MinLns candidates {:?}",
        best.eps, best.avg_neighborhood, min_lns_range
    );

    // Phase 2: cluster with the estimated parameters, with ε-queries on
    // every available hardware thread (the default Parallelism knob). The
    // parallel path returns the identical clustering to the sequential
    // loop — Parallelism::Sequential keeps the pass on one thread.
    let min_lns = *min_lns_range.start() + 1;
    let parallelism = Parallelism::Available;
    let outcome = Traclus::new(TraclusConfig {
        eps: best.eps,
        min_lns,
        parallelism,
        ..config
    })
    .run(&tracks);
    println!(
        "{} clusters over {} worker thread(s) (noise {:.1}%)",
        outcome.clusters.len(),
        parallelism.thread_count(),
        outcome.clustering.noise_ratio() * 100.0
    );
    for c in &outcome.clusters {
        let rep = &c.representative;
        if let (Some(first), Some(last)) = (rep.points.first(), rep.points.last()) {
            let east_west = if last.x() > first.x() {
                "west->east"
            } else {
                "east->west"
            };
            println!(
                "  cluster {}: {} segments, {} storms, heading {east_west} ({:.0},{:.0}) -> ({:.0},{:.0})",
                c.cluster.id,
                c.members.len(),
                c.trajectory_cardinality(),
                first.x(),
                first.y(),
                last.x(),
                last.y()
            );
        }
    }

    let svg = render_clustering(&tracks, &outcome, 900.0, 600.0);
    let path = "hurricanes_example.svg";
    std::fs::write(path, svg).expect("write SVG");
    println!("rendered {path}");
    let _ = HurricaneGenerator::paper_scale; // full-scale entry point
}
