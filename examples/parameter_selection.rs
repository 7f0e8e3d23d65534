//! The Section 4.4 heuristics end to end: scan the neighborhood-entropy
//! curve, confirm with simulated annealing, derive the MinLns range, and
//! show how the cluster structure degrades away from the optimum.
//!
//! ```sh
//! cargo run --release --example parameter_selection
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example shows the API, and aborts with a message where a program would \
              handle the error"
)]

use traclus::core::{
    select_eps_annealing, select_min_lns, AnnealConfig, ClusterConfig, EntropyCurve,
    LineSegmentClustering, QMeasure, SegmentDatabase,
};
use traclus::data::{generate_scene, SceneConfig};
use traclus::prelude::*;

fn main() {
    let scene = generate_scene(&SceneConfig::default());
    println!(
        "labelled scene: {} trajectories ({} noise)",
        scene.trajectories.len(),
        scene.noise_ids().len()
    );
    let config = TraclusConfig::default();
    let db =
        SegmentDatabase::from_trajectories(&scene.trajectories, &config.partition, config.distance);
    println!("{} segments", db.len());

    // 1. Entropy curve scan (Figure 16/19 style).
    let grid: Vec<f64> = (1..=40).map(|i| i as f64 * 0.5).collect();
    let curve = EntropyCurve::scan(&db, grid, false);
    println!("\n eps   entropy  avg|Neps|");
    for p in curve.points.iter().step_by(4) {
        println!(
            "{:>5.1}  {:>7.4}  {:>8.2}",
            p.eps, p.entropy, p.avg_neighborhood
        );
    }
    let best = curve.minimum().expect("non-empty");
    println!(
        "\nscan minimum: eps = {:.2}, H = {:.4}, avg|Neps| = {:.2}",
        best.eps, best.entropy, best.avg_neighborhood
    );

    // 2. Simulated annealing (the paper's search method) agrees.
    let annealed = select_eps_annealing(&db, 0.5..=20.0, false, &AnnealConfig::default());
    println!(
        "annealing:    eps = {:.2}, H = {:.4}",
        annealed.eps, annealed.entropy
    );

    // 3. MinLns from the neighborhood average.
    let min_lns_range = select_min_lns(best.avg_neighborhood);
    println!("MinLns candidates: {min_lns_range:?}");

    // 4. Cluster at the estimate and at deliberately bad values.
    println!("\n eps  MinLns  clusters  noise%   QMeasure");
    let min_lns = *min_lns_range.start() + 1;
    for (eps, m) in [
        (best.eps, min_lns),
        (best.eps * 0.3, min_lns),
        (best.eps * 3.0, min_lns),
        (best.eps, min_lns * 3),
    ] {
        let clustering = LineSegmentClustering::new(&db, ClusterConfig::new(eps, m)).run();
        let q = QMeasure::compute_sampled(&db, &clustering, 200_000, 7);
        println!(
            "{:>5.1}  {:>6}  {:>8}  {:>6.1}  {:>9.0}",
            eps,
            m,
            clustering.clusters.len(),
            clustering.noise_ratio() * 100.0,
            q.value()
        );
    }
}
