//! # traclus-baselines
//!
//! Comparison algorithms for the TRACLUS reproduction:
//!
//! * [`regression_mixture`] — Gaffney & Smyth's regression-mixture EM over
//!   **whole** trajectories, the baseline the paper positions itself
//!   against (\[7, 8\]; Sections 1 and 6);
//! * [`kmeans`] — k-means over resampled trajectories (the canonical
//!   partitioning method, \[16\]);
//! * [`point_dbscan`] — classic DBSCAN over points (\[6\]), the algorithm
//!   TRACLUS adapts;
//! * [`optics`] — OPTICS for points and line segments (\[2\]), powering the
//!   Appendix D design-decision experiment;
//! * substrates: [`linalg`] (dense least squares) and [`mod@resample`]
//!   (arc-length trajectory resampling).

#![allow(
    clippy::needless_range_loop,
    reason = "const-generic code indexes several [f64; D] arrays with one loop counter; \
              clippy's iterator rewrite would zip up to four iterators and read worse"
)]

pub mod kmeans;
pub mod linalg;
pub mod optics;
pub mod point_dbscan;
pub mod regression_mixture;
pub mod resample;

pub use kmeans::{kmeans_trajectories, KMeansConfig, KMeansResult};
pub use optics::{optics_generic, optics_points, optics_segments, OpticsEntry, OpticsResult};
pub use point_dbscan::{cluster_count, dbscan_points, PointLabel};
pub use regression_mixture::{
    fit_regression_mixture, RegressionMixtureConfig, RegressionMixtureModel,
};
pub use resample::{feature_vector, resample};
