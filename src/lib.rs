//! # traclus
//!
//! A complete, from-scratch Rust reproduction of **TRACLUS** — the
//! partition-and-group trajectory clustering framework of Lee, Han and
//! Whang (*Trajectory Clustering: A Partition-and-Group Framework*,
//! SIGMOD 2007).
//!
//! This façade crate re-exports the whole workspace:
//!
//! * [`geom`] — points, segments, and the composite segment distance
//!   (Definitions 1–3);
//! * [`core`] — MDL partitioning (Section 3), density-based line-segment
//!   clustering (Section 4.2; sequential, or parallel partitioning and
//!   ε-queries selected by the `Parallelism` knob), representative
//!   trajectories (Section 4.3),
//!   the parameter-selection heuristics (Section 4.4), and the streaming
//!   engine (`IncrementalClustering`) that ingests trajectories one at a
//!   time while keeping the clustering identical to a batch run;
//! * [`index`] — R-tree substrate for ε-neighborhood queries
//!   (Lemma 3);
//! * [`data`] — synthetic generators standing in for the paper's hurricane
//!   and animal-movement datasets, plus real-dataset loaders (GeoLife PLT
//!   directories, timestamped CSV, best-track) behind the unified
//!   [`DatasetLoader`](data::DatasetLoader) trait;
//! * [`baselines`] — whole-trajectory baselines (regression-mixture EM,
//!   k-means) and OPTICS (Appendix D);
//! * [`eval`] — the survey-scale evaluation harness: segment-level
//!   quality metrics under the composite distance, a uniform
//!   cross-algorithm result adapter, and a machine-readable
//!   TRACLUS-vs-baselines comparison report;
//! * [`json`] — the dependency-free JSON layer (parse, build, write)
//!   shared by the eval reports and the serving protocol;
//! * [`server`] — clustering-as-a-service: a line-delimited JSON
//!   ingest/query daemon over TCP with snapshot-isolated reads
//!   ([`core::ClusterSnapshot`] behind a [`core::SnapshotCell`]);
//! * [`viz`] — SVG rendering of clustering results.
//!
//! ## Quickstart
//!
//! ```
//! use traclus::prelude::*;
//!
//! // Three trajectories sharing a horizontal corridor.
//! let trajectories: Vec<Trajectory2> = (0..3)
//!     .map(|i| {
//!         let y = i as f64 * 2.0;
//!         Trajectory::new(
//!             TrajectoryId(i),
//!             (0..20)
//!                 .map(|k| Point2::xy(k as f64 * 5.0, y + (k as f64 * 0.7).sin()))
//!                 .collect(),
//!         )
//!     })
//!     .collect();
//!
//! let config = TraclusConfig {
//!     eps: 6.0,
//!     min_lns: 3,
//!     ..TraclusConfig::default()
//! };
//! let outcome = Traclus::new(config).run(&trajectories);
//! assert!(!outcome.clusters.is_empty());
//! for cluster in &outcome.clusters {
//!     let rep = &cluster.representative;
//!     assert!(rep.points.len() >= 2, "representative trajectories are polylines");
//! }
//! ```

pub use traclus_baselines as baselines;
pub use traclus_core as core;
pub use traclus_data as data;
pub use traclus_eval as eval;
pub use traclus_geom as geom;
pub use traclus_index as index;
pub use traclus_json as json;
pub use traclus_server as server;
pub use traclus_viz as viz;

/// One-stop imports for typical use.
pub mod prelude {
    pub use traclus_core::{
        cluster::{ClusterId, Clustering, LineSegmentClustering, SegmentLabel},
        params::{select_min_lns, EntropyCurve, EpsSelection, Parallelism},
        partition::{approximate_partition, optimal_partition, MdlCost, PartitionConfig},
        quality::QMeasure,
        representative::RepresentativeConfig,
        segment_db::SegmentDatabase,
        snapshot::{ClusterSnapshot, RegionSummary, SnapshotCell},
        stream::{IncrementalClustering, InsertReport, RemoveReport, StreamConfig, StreamStats},
        Traclus, TraclusConfig, TraclusOutcome,
    };
    pub use traclus_geom::{
        AngleMode, DistanceWeights, Point, Point2, Segment, Segment2, SegmentDistance, Trajectory,
        Trajectory2, TrajectoryId,
    };
    pub use traclus_json::JsonValue;
    pub use traclus_server::{Client, Request, Server, ServerConfig};
}
