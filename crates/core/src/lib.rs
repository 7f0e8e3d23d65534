//! # traclus-core
//!
//! The TRACLUS algorithm (Lee, Han, Whang; SIGMOD 2007): MDL-based
//! trajectory partitioning, density-based line-segment clustering, and
//! representative-trajectory generation — Figure 4's three sub-algorithms
//! plus the Section 4.4 parameter heuristics and the Formula 11 quality
//! measure.
//!
//! ```
//! use traclus_core::{Traclus, TraclusConfig};
//! use traclus_geom::{Point2, Trajectory, TrajectoryId};
//!
//! // Ten trajectories crossing the same horizontal corridor.
//! let trajectories: Vec<_> = (0..10)
//!     .map(|i| {
//!         let jitter = (i as f64) * 0.3;
//!         Trajectory::new(
//!             TrajectoryId(i),
//!             (0..30)
//!                 .map(|k| Point2::xy(k as f64 * 4.0, jitter))
//!                 .collect(),
//!         )
//!     })
//!     .collect();
//! let outcome = Traclus::new(TraclusConfig {
//!     eps: 5.0,
//!     min_lns: 4,
//!     ..TraclusConfig::default()
//! })
//! .run(&trajectories);
//! assert_eq!(outcome.clusters.len(), 1, "one shared corridor");
//! ```

#![warn(missing_docs)]
// Const-generic code indexes several [f64; D] arrays with one loop counter;
// clippy's iterator rewrite would zip up to four iterators and read worse.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]

pub mod anneal;
pub mod cluster;
mod grouping;
#[cfg(feature = "invariant-checks")]
mod invariants;
pub mod params;
pub mod partition;
pub mod quality;
pub mod representative;
pub mod segment_db;
pub mod simplify;
pub mod snapshot;
pub mod stream;

use traclus_geom::{SegmentDistance, Trajectory};

pub use anneal::{minimize_1d, AnnealConfig, AnnealOutcome};
pub use cluster::{
    Cluster, ClusterConfig, ClusterId, ClusterStats, Clustering, LineSegmentClustering,
    SegmentLabel,
};
pub use params::{
    select_eps_annealing, select_min_lns, EntropyCurve, EntropyPoint, EpsSelection,
    NeighborhoodStats, Parallelism,
};
pub use partition::{
    approximate_partition, optimal_partition, partition_precision, partition_trajectories,
    partition_trajectory_from, MdlCost, PartitionConfig, Partitioning,
};
pub use quality::QMeasure;
pub use representative::{
    average_direction_vector, representative_trajectory, RepresentativeConfig,
};
pub use segment_db::{IndexKind, NeighborIndex, PruneStats, SegmentDatabase};
pub use simplify::{douglas_peucker, douglas_peucker_matching_count};
pub use snapshot::{ClusterSnapshot, RegionSummary, SnapshotCell};
pub use stream::{IncrementalClustering, InsertReport, RemoveReport, StreamConfig, StreamStats};

/// End-to-end configuration of the TRACLUS pipeline (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraclusConfig {
    /// Neighborhood radius ε for the grouping phase.
    pub eps: f64,
    /// `MinLns` for both the grouping phase and the representative sweep.
    pub min_lns: usize,
    /// The segment distance (weights + angle mode) shared by clustering and
    /// representative generation.
    pub distance: SegmentDistance,
    /// Partitioning-phase configuration (MDL encoding + suppression).
    pub partition: PartitionConfig,
    /// Spatial index backing ε-neighborhood queries.
    pub index: IndexKind,
    /// Trajectory-cardinality threshold (`None` = `MinLns`; Figure 12
    /// line 15).
    pub min_trajectories: Option<usize>,
    /// Weighted-trajectory extension (Section 4.2).
    pub weighted: bool,
    /// Smoothing γ for the representative sweep; `None` uses ε/4 — a
    /// pragmatic default keeping representatives readable (the paper leaves
    /// γ as a free input to Figure 15).
    pub smoothing: Option<f64>,
    /// Worker threads for [`Traclus::run`]'s partition phase, for the
    /// ε-queries of the grouping phase and for the streaming engine's
    /// queries of each arrival's new segments. The default uses all available hardware threads;
    /// [`Parallelism::Sequential`] runs both phases inline on the calling
    /// thread. The segment database and the clustering are identical either
    /// way (see [`partition_trajectories`], the sequential partition
    /// reference, and [`LineSegmentClustering::run_parallel`]).
    pub parallelism: Parallelism,
    /// The sliding-window policy of the streaming engine
    /// ([`Traclus::stream`] / [`IncrementalClustering`]): a time window
    /// and a capacity, both off by default. Ignored by the batch
    /// [`Traclus::run`] path.
    pub stream: StreamConfig,
    /// Filter-and-refine pruning of ε-neighborhood candidates via the
    /// admissible midpoint/length lower bound of
    /// [`traclus_geom::lower_bound`]. Purely a performance/diagnostics
    /// knob: the bound never exceeds the computed distance, so the
    /// clustering is bit-identical with pruning on or off. Default `true`.
    pub pruning: bool,
}

impl TraclusConfig {
    /// The grouping-phase slice of this configuration — the
    /// [`ClusterConfig`] handed to [`LineSegmentClustering`]. Kept in one
    /// place so the batch ([`Traclus::run`]) and streaming
    /// ([`Traclus::stream`]) paths cannot drift apart on clustering
    /// parameters.
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            eps: self.eps,
            min_lns: self.min_lns as f64,
            min_trajectories: self.min_trajectories,
            weighted: self.weighted,
            index: self.index,
            parallelism: self.parallelism,
            pruning: self.pruning,
        }
    }
}

impl Default for TraclusConfig {
    fn default() -> Self {
        Self {
            eps: 25.0,
            min_lns: 5,
            distance: SegmentDistance::default(),
            partition: PartitionConfig::default(),
            index: IndexKind::default(),
            min_trajectories: None,
            weighted: false,
            smoothing: None,
            parallelism: Parallelism::default(),
            stream: StreamConfig::default(),
            pruning: true,
        }
    }
}

/// A cluster as delivered by the full pipeline: membership plus its
/// representative trajectory (the discovered *common sub-trajectory*).
#[derive(Debug, Clone, PartialEq)]
pub struct TraclusCluster<const D: usize> {
    /// Membership and provenance.
    pub cluster: Cluster,
    /// The representative trajectory (Figure 15 output).
    pub representative: Trajectory<D>,
}

impl<const D: usize> std::ops::Deref for TraclusCluster<D> {
    type Target = Cluster;
    fn deref(&self) -> &Cluster {
        &self.cluster
    }
}

/// Everything the pipeline produces.
pub struct TraclusOutcome<const D: usize> {
    /// The partitioned segment database (phase 1 output).
    pub database: SegmentDatabase<D>,
    /// Raw clustering (labels, clusters, filter diagnostics).
    pub clustering: Clustering,
    /// Clusters with their representative trajectories.
    pub clusters: Vec<TraclusCluster<D>>,
}

impl<const D: usize> TraclusOutcome<D> {
    /// The representative trajectories alone (the paper's second output in
    /// Figure 4).
    pub fn representatives(&self) -> Vec<&Trajectory<D>> {
        self.clusters.iter().map(|c| &c.representative).collect()
    }
}

/// The TRACLUS driver (Figure 4): partition every trajectory, cluster the
/// accumulated segments, generate one representative per cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traclus {
    /// The pipeline configuration.
    pub config: TraclusConfig,
}

impl Traclus {
    /// Binds a configuration.
    pub fn new(config: TraclusConfig) -> Self {
        assert!(config.eps > 0.0 && config.eps.is_finite(), "ε must be > 0");
        assert!(config.min_lns >= 1, "MinLns must be ≥ 1");
        Self { config }
    }

    /// Runs the full pipeline.
    pub fn run<const D: usize>(&self, trajectories: &[Trajectory<D>]) -> TraclusOutcome<D> {
        let cfg = &self.config;
        // Partitioning phase (lines 1–3).
        let threads = cfg.parallelism.thread_count();
        let segments = partition::partition_trajectories_on(&cfg.partition, trajectories, threads);
        let database = SegmentDatabase::from_segments(segments, cfg.distance);
        self.run_on_database(database)
    }

    /// Runs the grouping + representative phases on an already-partitioned
    /// database (useful when re-clustering the same segments under
    /// different parameters, e.g. the Figure 17/20 sweeps).
    pub fn run_on_database<const D: usize>(
        &self,
        database: SegmentDatabase<D>,
    ) -> TraclusOutcome<D> {
        // Grouping phase (line 4).
        let clustering =
            LineSegmentClustering::new(&database, self.config.cluster_config()).run_configured();
        attach_representatives(&self.config, database, clustering)
    }

    /// An empty streaming engine bound to this configuration — the online
    /// counterpart of [`Self::run`], accepting trajectories one at a time
    /// (see [`stream`]).
    pub fn stream<const D: usize>(&self) -> IncrementalClustering<D> {
        IncrementalClustering::new(self.config)
    }
}

/// Representative trajectories (Figure 4 lines 5–6) for a finished
/// clustering — the tail of the pipeline shared by the batch
/// [`Traclus::run_on_database`] and the streaming
/// [`IncrementalClustering::finish`].
pub(crate) fn attach_representatives<const D: usize>(
    config: &TraclusConfig,
    database: SegmentDatabase<D>,
    clustering: Clustering,
) -> TraclusOutcome<D> {
    let clusters = representatives_for(config, &database, &clustering);
    TraclusOutcome {
        database,
        clustering,
        clusters,
    }
}

/// Representative trajectories for a finished clustering, borrowing the
/// database — the reusable core of the batch pipeline's final stage, also
/// used by [`snapshot::ClusterSnapshot`] to materialise read-only views
/// without consuming the streaming engine's state.
pub fn representatives_for<const D: usize>(
    config: &TraclusConfig,
    database: &SegmentDatabase<D>,
    clustering: &Clustering,
) -> Vec<TraclusCluster<D>> {
    let mut rep_config = RepresentativeConfig::new(
        config.min_lns,
        config.smoothing.unwrap_or(config.eps * 0.25),
    );
    rep_config.weighted = config.weighted;
    clustering
        .clusters
        .iter()
        .map(|c| TraclusCluster {
            cluster: c.clone(),
            representative: representative_trajectory(database, c, &rep_config),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_geom::{Point2, TrajectoryId};

    /// Figure 1's scene: five trajectories that share one corridor and then
    /// fan out in different directions. Whole-trajectory clustering misses
    /// the corridor; TRACLUS must find it.
    ///
    /// The corridor is long (30 points) relative to the divergence so that
    /// the MDL partitioner's few absorbed post-corner steps (Figure 9-style
    /// approximation) tilt the corridor partitions only slightly.
    fn figure_1_scene() -> Vec<Trajectory<2>> {
        let headings = [
            (1.0f64, 1.0f64),
            (1.0, 0.5),
            (1.0, 0.0),
            (1.0, -0.5),
            (1.0, -1.0),
        ];
        headings
            .iter()
            .enumerate()
            .map(|(i, &(dx, dy))| {
                let mut points = Vec::new();
                // Shared corridor: west → east along y ≈ 0.
                for k in 0..30 {
                    points.push(Point2::xy(k as f64 * 4.0, (i as f64) * 0.4));
                }
                // Diverge.
                let (ox, oy) = (29.0 * 4.0, (i as f64) * 0.4);
                for k in 1..16 {
                    let t = k as f64 * 4.0;
                    points.push(Point2::xy(ox + dx * t, oy + dy * t));
                }
                Trajectory::new(TrajectoryId(i as u32), points)
            })
            .collect()
    }

    #[test]
    fn discovers_the_common_sub_trajectory_of_figure_1() {
        let outcome = Traclus::new(TraclusConfig {
            eps: 8.0,
            min_lns: 3,
            ..TraclusConfig::default()
        })
        .run(&figure_1_scene());
        assert!(
            !outcome.clusters.is_empty(),
            "the shared corridor must be discovered"
        );
        // The corridor cluster runs west→east near y ∈ [0, 2].
        let rep = &outcome.clusters[0].representative;
        assert!(rep.points.len() >= 2);
        let first = rep.points.first().unwrap();
        let last = rep.points.last().unwrap();
        assert!(last.x() > first.x(), "corridor direction preserved");
        for p in &rep.points {
            assert!(
                (-2.0..=4.0).contains(&p.y()),
                "representative stays inside the corridor, got y={}",
                p.y()
            );
        }
    }

    #[test]
    fn representative_count_matches_cluster_count() {
        let outcome = Traclus::new(TraclusConfig {
            eps: 8.0,
            min_lns: 3,
            ..TraclusConfig::default()
        })
        .run(&figure_1_scene());
        assert_eq!(outcome.clusters.len(), outcome.representatives().len());
        assert_eq!(outcome.clusters.len(), outcome.clustering.clusters.len());
    }

    #[test]
    fn no_trajectories_no_clusters() {
        let outcome = Traclus::new(TraclusConfig::default()).run::<2>(&[]);
        assert!(outcome.clusters.is_empty());
        assert!(outcome.database.is_empty());
    }

    #[test]
    #[should_panic(expected = "ε must be > 0")]
    fn non_positive_eps_rejected() {
        let _ = Traclus::new(TraclusConfig {
            eps: 0.0,
            ..TraclusConfig::default()
        });
    }

    #[test]
    fn run_on_database_allows_parameter_sweeps() {
        let trajs = figure_1_scene();
        let config = TraclusConfig {
            eps: 8.0,
            min_lns: 3,
            ..TraclusConfig::default()
        };
        let db1 = SegmentDatabase::from_trajectories(&trajs, &config.partition, config.distance);
        let tight = Traclus::new(TraclusConfig {
            eps: 0.05,
            ..config
        })
        .run_on_database(db1);
        let db2 = SegmentDatabase::from_trajectories(&trajs, &config.partition, config.distance);
        let loose = Traclus::new(config).run_on_database(db2);
        assert!(tight.clusters.len() <= loose.clusters.len());
    }
}
