//! Section 4.1.3: suppressing partitioning to lengthen trajectory
//! partitions.
//!
//! "To suppress partitioning, we add a small constant to cost_nopar …
//! increasing the length of trajectory partitions by 20∼30 % generally
//! improves the clustering quality." We sweep the suppression constant,
//! reporting mean partition length (relative to the unsuppressed run),
//! segment counts, cluster counts and QMeasure at fixed (ε, MinLns).

use traclus_core::{
    partition_trajectories, ClusterConfig, LineSegmentClustering, PartitionConfig, QMeasure,
    SegmentDatabase,
};
use traclus_data::HurricaneGenerator;
use traclus_geom::SegmentDistance;

use crate::experiments::entropy_curves::hurricane_optimal_cached;
use crate::util::{partition_with_precision, ExperimentContext, HURRICANE_MDL_PRECISION};

/// Runs the suppression sweep.
pub fn sec413(ctx: &ExperimentContext) -> std::io::Result<()> {
    let trajectories = HurricaneGenerator::paper_scale(1950);
    let mut csv = ctx.csv(
        "sec413_suppression.csv",
        &[
            "suppression_bits",
            "segments",
            "mean_segment_length",
            "length_increase_pct",
            "clusters",
            "noise_ratio",
            "qmeasure",
        ],
    )?;
    println!("[sec413] paper: +20-30% partition length generally improves clustering quality");
    let mut base_len: Option<f64> = None;
    // Baseline (suppression 0) fixes (eps, MinLns) for all runs so only the
    // partitioning changes.
    let (eps, avg) = hurricane_optimal_cached();
    let min_lns = *traclus_core::select_min_lns(avg).start() + 1;
    for suppression in [0.0, 1.0, 2.0, 4.0, 6.0, 9.0] {
        let config = PartitionConfig {
            suppression,
            ..partition_with_precision(HURRICANE_MDL_PRECISION)
        };
        let segments = partition_trajectories(&config, &trajectories);
        let count = segments.len();
        let mean_len =
            segments.iter().map(|s| s.segment.length()).sum::<f64>() / count.max(1) as f64;
        let increase = match base_len {
            None => {
                base_len = Some(mean_len);
                0.0
            }
            Some(b) => (mean_len / b - 1.0) * 100.0,
        };
        let db = SegmentDatabase::from_segments(segments, SegmentDistance::default());
        let clustering = LineSegmentClustering::new(&db, ClusterConfig::new(eps, min_lns)).run();
        let q = QMeasure::compute_sampled(&db, &clustering, 400_000, 17);
        csv.num_row(&[
            suppression,
            count as f64,
            mean_len,
            increase,
            clustering.clusters.len() as f64,
            clustering.noise_ratio(),
            q.value(),
        ])?;
        println!(
            "[sec413] suppression {suppression:>3.1} bits: {count} segments, mean length {mean_len:.2} (+{increase:.0}%), {} clusters, QMeasure {:.0}",
            clustering.clusters.len(),
            q.value()
        );
    }
    let path = csv.finish()?;
    println!("[sec413] -> {}", path.display());
    Ok(())
}
