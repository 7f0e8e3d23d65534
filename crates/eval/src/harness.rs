//! [`evaluate_dataset`]: the cross-algorithm comparison harness.
//!
//! One call runs TRACLUS with all three engines (sequential, parallel,
//! streaming) and the four baseline algorithms (trajectory
//! k-means, regression-mixture EM, point DBSCAN over segment midpoints,
//! OPTICS over segments) over a parameter grid, scores every run with the
//! segment-level metrics of [`crate::metrics`], captures wall-clock
//! runtimes, and returns an [`EvalReport`] — the survey's three axes
//! (quality / runtime / parameters) in one machine-readable object.
//!
//! Runtimes are measured end to end **from trajectories**: the TRACLUS
//! entries include partitioning and representative generation, the
//! streaming entry includes incremental index growth, and the baselines
//! include their own preprocessing (resampling, midpoint extraction) — so
//! the runtime column compares what a user would actually pay.

use std::time::Instant;

use traclus_baselines::{
    dbscan_points, fit_regression_mixture, kmeans_trajectories, optics_segments, KMeansConfig,
    RegressionMixtureConfig,
};
use traclus_core::{
    IndexKind, Parallelism, PartitionConfig, SegmentDatabase, Traclus, TraclusConfig,
};
use traclus_geom::{Point, SegmentDistance, Trajectory};

use crate::metrics::compute_metrics_sampled;
use crate::parallel::parallel_map;
use crate::report::{EvalEntry, EvalReport};
use crate::result::ClusteringResult;

/// The parameter grid and shared pipeline settings of one evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// TRACLUS `(ε, MinLns)` points; each is run with the sequential,
    /// parallel and streaming engines.
    pub traclus_params: Vec<(f64, usize)>,
    /// `k` values for trajectory k-means.
    pub kmeans_ks: Vec<usize>,
    /// Component counts for the regression-mixture EM.
    pub mixture_components: Vec<usize>,
    /// `(ε, MinPts)` points for point DBSCAN over segment midpoints.
    pub point_dbscan_params: Vec<(f64, usize)>,
    /// `(ε, MinPts)` points for OPTICS over segments (clusters extracted
    /// at reachability threshold ε).
    pub optics_params: Vec<(f64, usize)>,
    /// Partitioning configuration shared by every segment-level run.
    pub partition: PartitionConfig,
    /// The composite distance shared by clustering and metrics.
    pub distance: SegmentDistance,
    /// Spatial index for ε-neighborhood queries.
    pub index: IndexKind,
    /// Per-(segment, cluster) sampling cap of the silhouette estimator
    /// (`usize::MAX` = exact).
    pub silhouette_cap: usize,
    /// Seed for the sampled estimators and the seeded baselines.
    pub seed: u64,
}

impl EvalConfig {
    /// A one-point grid: TRACLUS at `(eps, min_lns)` and every baseline
    /// at parameters derived from it (point DBSCAN and OPTICS reuse the
    /// same ε and MinLns; k-means and the mixture get `k = 3`). Extend
    /// the vectors for a sweep.
    pub fn single(eps: f64, min_lns: usize) -> Self {
        Self {
            traclus_params: vec![(eps, min_lns)],
            kmeans_ks: vec![3],
            mixture_components: vec![3],
            point_dbscan_params: vec![(eps, min_lns)],
            optics_params: vec![(eps, min_lns)],
            partition: PartitionConfig::default(),
            distance: SegmentDistance::default(),
            index: IndexKind::default(),
            silhouette_cap: 256,
            seed: 17,
        }
    }
}

fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// Runs the full comparison on one dataset and returns the report.
///
/// Trajectory ids must be dense and in slice order
/// (`trajectories[k].id.0 == k` — every loader and generator in this
/// workspace guarantees it). The whole-trajectory baselines return
/// assignments by slice position while the segment database records
/// trajectory *ids*, so a reordered list would silently cross the two;
/// this is asserted up front rather than trusted.
pub fn evaluate_dataset(
    dataset: &str,
    trajectories: &[Trajectory<2>],
    config: &EvalConfig,
) -> EvalReport {
    for (k, t) in trajectories.iter().enumerate() {
        assert_eq!(
            t.id.0 as usize, k,
            "trajectory ids must be dense and in slice order (see evaluate_dataset docs)"
        );
    }
    // The shared database every result is scored against. Each engine
    // re-derives its own copy inside the timed region; partitioning is
    // deterministic, so labels align with this one.
    let db = SegmentDatabase::from_trajectories(trajectories, &config.partition, config.distance);
    let mut entries = Vec::new();

    for &(eps, min_lns) in &config.traclus_params {
        let traclus_config = TraclusConfig {
            eps,
            min_lns,
            distance: config.distance,
            partition: config.partition,
            index: config.index,
            ..TraclusConfig::default()
        };
        let params = vec![
            ("eps".to_string(), fmt_f64(eps)),
            ("min_lns".to_string(), min_lns.to_string()),
        ];

        for (name, parallelism) in [
            ("traclus-seq", Parallelism::Sequential),
            ("traclus-par", Parallelism::Available),
        ] {
            let engine = Traclus::new(TraclusConfig {
                parallelism,
                ..traclus_config
            });
            let start = now();
            let outcome = engine.run(trajectories);
            let runtime = start.elapsed().as_secs_f64();
            entries.push((
                ClusteringResult::from_outcome(name, &outcome)
                    .with_params(params.clone())
                    .with_runtime(runtime),
                db.len(),
            ));
        }

        let engine = Traclus::new(traclus_config);
        let start = now();
        let mut stream = engine.stream();
        for t in trajectories {
            stream.insert(t);
        }
        let outcome = stream.finish();
        let runtime = start.elapsed().as_secs_f64();
        entries.push((
            ClusteringResult::from_outcome("traclus-stream", &outcome)
                .with_params(params.clone())
                .with_runtime(runtime),
            db.len(),
        ));
    }

    for &k in &config.kmeans_ks {
        let start = now();
        let result = kmeans_trajectories(
            trajectories,
            &KMeansConfig {
                k,
                seed: config.seed,
                ..KMeansConfig::default()
            },
        );
        let runtime = start.elapsed().as_secs_f64();
        entries.push((
            ClusteringResult::from_trajectory_assignments("kmeans", &db, &result.assignments)
                .with_params(vec![("k".to_string(), k.to_string())])
                .with_runtime(runtime),
            db.len(),
        ));
    }

    for &components in &config.mixture_components {
        let start = now();
        let model = fit_regression_mixture(
            trajectories,
            &RegressionMixtureConfig {
                components,
                seed: config.seed,
                ..RegressionMixtureConfig::default()
            },
        );
        let runtime = start.elapsed().as_secs_f64();
        entries.push((
            ClusteringResult::from_trajectory_assignments("regmix", &db, &model.assignments)
                .with_params(vec![("components".to_string(), components.to_string())])
                .with_runtime(runtime),
            db.len(),
        ));
    }

    for &(eps, min_pts) in &config.point_dbscan_params {
        // Partition inside the timed span: a user running the segment-
        // substrate baselines "from trajectories" pays for partitioning
        // just like the TRACLUS entries do (the re-derived database is
        // identical to the shared one — partitioning is deterministic).
        let start = now();
        let own_db =
            SegmentDatabase::from_trajectories(trajectories, &config.partition, config.distance);
        let midpoints: Vec<Point<2>> = (0..own_db.len() as u32)
            .map(|id| own_db.midpoint(id))
            .collect();
        let labels = dbscan_points(&midpoints, eps, min_pts);
        let runtime = start.elapsed().as_secs_f64();
        entries.push((
            ClusteringResult::from_point_labels("point-dbscan", &labels)
                .with_params(vec![
                    ("eps".to_string(), fmt_f64(eps)),
                    ("min_pts".to_string(), min_pts.to_string()),
                ])
                .with_runtime(runtime),
            db.len(),
        ));
    }

    for &(eps, min_pts) in &config.optics_params {
        // Same end-to-end accounting as point DBSCAN above.
        let start = now();
        let own_db =
            SegmentDatabase::from_trajectories(trajectories, &config.partition, config.distance);
        let index = own_db.build_index(config.index, eps);
        let optics = optics_segments(&own_db, &index, eps, min_pts);
        let runtime = start.elapsed().as_secs_f64();
        entries.push((
            ClusteringResult::from_optics("optics", &optics, eps)
                .with_params(vec![
                    ("eps".to_string(), fmt_f64(eps)),
                    ("min_pts".to_string(), min_pts.to_string()),
                ])
                .with_runtime(runtime),
            db.len(),
        ));
    }

    // Score entries in parallel: silhouette sampling dominates harness
    // time once the grid grows, and each entry's metrics depend only on
    // the shared (read-only) database. Only scoring runs here — every
    // algorithm above executed inside its own timed span already, so
    // parallelising this pass cannot distort the runtime column. The
    // estimators are seeded per entry, and `parallel_map` preserves input
    // order, so the report is byte-identical to the sequential harness.
    let entries = parallel_map(entries, |(result, expected_len)| {
        assert_eq!(
            result.labels.len(),
            *expected_len,
            "{}: labels must cover the shared database",
            result.algorithm
        );
        EvalEntry {
            algorithm: result.algorithm.clone(),
            params: result.params.clone(),
            metrics: compute_metrics_sampled(&db, result, config.silhouette_cap, config.seed),
            runtime_secs: result.runtime_secs,
        }
    });

    EvalReport {
        dataset: dataset.to_string(),
        trajectories: trajectories.len(),
        segments: db.len(),
        entries,
    }
}

/// The harness's one clock read: every runtime in the report is the
/// difference of two of these.
#[allow(
    clippy::disallowed_methods,
    reason = "runtime capture is this harness's job; the readings feed only the report's \
              runtime_seconds column, never a clustering decision"
)]
fn now() -> Instant {
    Instant::now()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_data::{generate_scene, SceneConfig};

    #[test]
    fn harness_runs_all_seven_entries_and_validates() {
        let scene = generate_scene(&SceneConfig {
            per_backbone: 6,
            noise_fraction: 0.1,
            seed: 41,
            ..SceneConfig::default()
        });
        let report = evaluate_dataset("scene", &scene.trajectories, &EvalConfig::single(7.0, 4));
        assert_eq!(
            report.entries.len(),
            7,
            "3 TRACLUS engines + 4 baselines: {:?}",
            report
                .entries
                .iter()
                .map(|e| e.algorithm.as_str())
                .collect::<Vec<_>>()
        );
        report.validate().expect("no NaN / out-of-range metrics");
        // The three TRACLUS engines are provably equivalent, so their
        // quality metrics must agree exactly.
        let traclus: Vec<&EvalEntry> = report
            .entries
            .iter()
            .filter(|e| e.algorithm.starts_with("traclus"))
            .collect();
        assert_eq!(traclus.len(), 3);
        assert_eq!(
            traclus[0].metrics.cluster_count,
            traclus[1].metrics.cluster_count
        );
        assert_eq!(
            traclus[0].metrics.noise_ratio,
            traclus[2].metrics.noise_ratio
        );
        // TRACLUS emits representatives, so SSQ is available there and
        // absent for the whole-trajectory baselines.
        assert!(traclus[0].metrics.ssq.is_some() || traclus[0].metrics.cluster_count == 0);
        let kmeans = report
            .entries
            .iter()
            .find(|e| e.algorithm == "kmeans")
            .expect("kmeans entry");
        assert_eq!(kmeans.metrics.ssq, None);
        assert_eq!(
            kmeans.metrics.noise_ratio, 0.0,
            "assignments cover everything"
        );
    }

    #[test]
    fn grid_sweeps_multiply_entries() {
        let scene = generate_scene(&SceneConfig {
            per_backbone: 4,
            noise_fraction: 0.1,
            seed: 42,
            ..SceneConfig::default()
        });
        let config = EvalConfig {
            traclus_params: vec![(5.0, 4), (9.0, 4)],
            kmeans_ks: vec![2, 4],
            mixture_components: vec![],
            point_dbscan_params: vec![],
            optics_params: vec![],
            ..EvalConfig::single(5.0, 4)
        };
        let report = evaluate_dataset("scene", &scene.trajectories, &config);
        assert_eq!(report.entries.len(), 2 * 3 + 2);
        report.validate().expect("valid");
    }
}
