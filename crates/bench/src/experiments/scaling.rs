//! Lemmas 1 and 3: asymptotic behaviour measurements.
//!
//! * Lemma 1: approximate partitioning is O(n) in the trajectory length —
//!   doubling n should roughly double the time.
//! * Lemma 3: clustering is O(n²) without an index and O(n log n) with one
//!   — the linear-scan arm's time ratio per doubling approaches 4×, the
//!   R-tree arm's stays near 2×.

use traclus_core::{
    approximate_partition, ClusterConfig, IndexKind, LineSegmentClustering, PartitionConfig,
    SegmentDatabase,
};
use traclus_data::{generate_scene, SceneConfig};
use traclus_geom::{Point2, SegmentDistance};

use crate::util::{timed, ExperimentContext};

/// A long wavy trajectory of `n` points (never collinear, so the
/// partitioner does real work).
fn wavy_trajectory(n: usize) -> Vec<Point2> {
    (0..n)
        .map(|i| {
            let x = i as f64 * 3.0;
            let y = 40.0 * (x * 0.02).sin() + 8.0 * (x * 0.11).sin();
            Point2::xy(x, y)
        })
        .collect()
}

/// Lemma 1 runner.
pub fn lemma1(ctx: &ExperimentContext) -> std::io::Result<()> {
    let config = PartitionConfig::default();
    let mut csv = ctx.csv(
        "lemma1_partition_scaling.csv",
        &["points", "seconds", "ratio_vs_previous"],
    )?;
    println!("[lemma1] partitioning time vs trajectory length (expect ~2x per doubling)");
    let mut prev: Option<f64> = None;
    for &n in &[2_000usize, 4_000, 8_000, 16_000, 32_000, 64_000] {
        let points = wavy_trajectory(n);
        // Repeat to stabilise timing on small inputs.
        let reps = (64_000 / n).max(1);
        let (_, secs) = timed(|| {
            for _ in 0..reps {
                std::hint::black_box(approximate_partition(&config, &points));
            }
        });
        let per_run = secs / reps as f64;
        let ratio = prev.map(|p| per_run / p).unwrap_or(f64::NAN);
        csv.num_row(&[n as f64, per_run, ratio])?;
        println!("[lemma1] n = {n:>6}: {per_run:.4}s (x{ratio:.2} vs previous)");
        prev = Some(per_run);
    }
    let path = csv.finish()?;
    println!("[lemma1] -> {}", path.display());
    Ok(())
}

/// Builds a segment database of roughly `target_segments` segments at
/// **constant density**: the base scene is tiled over a growing k×k grid,
/// so doubling the segment count doubles the covered area rather than the
/// local crowding. (If density grew with n, every ε-neighborhood would
/// hold O(n) segments and even a perfect index would pay O(n) refinement
/// per query — masking the O(n log n) vs O(n²) contrast Lemma 3 states.)
fn scaled_database(target_segments: usize, seed: u64) -> SegmentDatabase<2> {
    let base_scene = generate_scene(&SceneConfig {
        per_backbone: 15,
        noise_fraction: 0.2,
        seed,
        ..SceneConfig::default()
    });
    let base_segments =
        traclus_core::partition_trajectories(&PartitionConfig::default(), &base_scene.trajectories);
    let per_tile = base_segments.len().max(1);
    let tiles_needed = target_segments.div_ceil(per_tile);
    let grid_side = (tiles_needed as f64).sqrt().ceil() as usize;
    let extent = 450.0; // base scene extent + margin
    let mut segments = Vec::with_capacity(target_segments);
    'fill: for ty in 0..grid_side {
        for tx in 0..grid_side {
            let shift = traclus_geom::Vector2::xy(tx as f64 * extent, ty as f64 * extent);
            for s in &base_segments {
                if segments.len() >= target_segments {
                    break 'fill;
                }
                segments.push(traclus_geom::IdentifiedSegment {
                    id: traclus_geom::SegmentId(segments.len() as u32),
                    trajectory: traclus_geom::TrajectoryId(
                        s.trajectory.0 + (ty * grid_side + tx) as u32 * 10_000,
                    ),
                    segment: s.segment.translated(&shift),
                    weight: s.weight,
                });
            }
        }
    }
    SegmentDatabase::from_segments(segments, SegmentDistance::default())
}

/// Lemma 3 runner.
pub fn lemma3(ctx: &ExperimentContext) -> std::io::Result<()> {
    let mut csv = ctx.csv(
        "lemma3_cluster_scaling.csv",
        &["segments", "index", "seconds", "ratio_vs_previous"],
    )?;
    println!("[lemma3] clustering time vs segment count per index (linear expect ~4x per doubling, indexed ~2x)");
    for (kind, label) in [(IndexKind::Linear, "linear"), (IndexKind::RTree, "rtree")] {
        let mut prev: Option<f64> = None;
        for &n in &[1_000usize, 2_000, 4_000, 8_000] {
            let db = scaled_database(n, 5);
            let (clustering, secs) = timed(|| {
                LineSegmentClustering::new(
                    &db,
                    ClusterConfig {
                        index: kind,
                        ..ClusterConfig::new(7.0, 6)
                    },
                )
                .run()
            });
            std::hint::black_box(clustering.clusters.len());
            let ratio = prev.map(|p| secs / p).unwrap_or(f64::NAN);
            csv.row(&[
                n.to_string(),
                label.to_string(),
                format!("{secs}"),
                format!("{ratio}"),
            ])?;
            println!("[lemma3] {label:>6} n = {n:>5}: {secs:.3}s (x{ratio:.2})");
            prev = Some(secs);
        }
    }
    let path = csv.finish()?;
    println!("[lemma3] -> {}", path.display());
    Ok(())
}
