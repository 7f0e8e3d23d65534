//! # traclus-eval
//!
//! Survey-scale evaluation for the TRACLUS reproduction.
//!
//! Every earlier test suite in this workspace checks *internal*
//! equivalence (parallel == sequential, stream == batch); this crate adds
//! the missing *external* axes framed by the Bian et al. trajectory-
//! clustering survey (arXiv:1802.06971): clustering quality vs runtime vs
//! parameters, compared across algorithms on the same dataset. Following
//! Rahmani et al. (arXiv:2504.21808), quality is computed at the
//! **segment** level under the paper's composite distance — never on raw
//! points — so TRACLUS and the whole-trajectory baselines are scored on
//! one common substrate:
//!
//! * [`result`] — [`ClusteringResult`], the uniform adapter mapping any
//!   algorithm's output (TRACLUS labels, trajectory assignments, point
//!   labels, an OPTICS ordering) onto per-segment cluster labels over a
//!   shared [`SegmentDatabase`](traclus_core::SegmentDatabase);
//! * [`metrics`] — segment-level silhouette, noise ratio, cluster-size
//!   statistics, and SSQ against representative trajectories, plus range
//!   validation so NaNs cannot slip into reports;
//! * [`report`] — a machine-readable (serde-free) JSON report and an
//!   aligned text table;
//! * [`harness`] — [`evaluate_dataset`], running TRACLUS (sequential,
//!   parallel, streaming) and all four baselines over a parameter grid
//!   with wall-clock capture;
//! * [`parallel`] — [`parallel_map`], the std-only ordered parallel map
//!   the harness uses to score metrics across entries concurrently.

pub mod harness;
pub mod metrics;
pub mod parallel;
pub mod report;
pub mod result;

pub use harness::{evaluate_dataset, EvalConfig};
pub use metrics::{
    cluster_sizes, compute_metrics, compute_metrics_sampled, noise_ratio, segment_silhouette,
    segment_silhouette_sampled, ssq_to_representatives, QualityMetrics, SizeStats,
};
pub use parallel::parallel_map;
pub use report::{EvalEntry, EvalReport};
pub use result::ClusteringResult;
