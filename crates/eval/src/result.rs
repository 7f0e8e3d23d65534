//! [`ClusteringResult`]: one uniform shape for every algorithm's output.
//!
//! The metrics in [`crate::metrics`] need per-segment cluster labels over
//! a shared [`SegmentDatabase`]. Each algorithm family reaches that shape
//! differently:
//!
//! * TRACLUS (sequential / parallel / streaming) labels segments
//!   directly — [`ClusteringResult::from_clustering`];
//! * whole-trajectory baselines (k-means, regression mixture) assign a
//!   cluster per trajectory; every segment inherits its trajectory's
//!   assignment — [`ClusteringResult::from_trajectory_assignments`];
//! * point DBSCAN runs over segment **midpoints**, so its labels align
//!   with segment ids — [`ClusteringResult::from_point_labels`];
//! * OPTICS emits a cluster-ordering; labels are extracted at a
//!   reachability threshold and mapped back from ordering positions to
//!   segment ids — [`ClusteringResult::from_optics`].

use traclus_baselines::{OpticsResult, PointLabel};
use traclus_core::cluster::{Clustering, SegmentLabel};
use traclus_core::{SegmentDatabase, TraclusOutcome};
use traclus_geom::Trajectory;

/// An algorithm's output normalised to per-segment labels, with the
/// metadata a report entry needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringResult<const D: usize> {
    /// Display name of the algorithm ("traclus-seq", "kmeans", …).
    pub algorithm: String,
    /// Parameter name/value pairs, for the report.
    pub params: Vec<(String, String)>,
    /// `labels[i]` = cluster of segment `i` (ids of the shared database),
    /// `None` = noise. Label values need not be dense — metrics are
    /// invariant under relabeling.
    pub labels: Vec<Option<u32>>,
    /// Wall-clock seconds of the clustering call (end to end from
    /// trajectories, so engines with different pipelines stay
    /// comparable).
    pub runtime_secs: f64,
    /// Representative trajectories keyed by label value, when the
    /// algorithm produces them (TRACLUS does; the baselines do not).
    pub representatives: Vec<(u32, Trajectory<D>)>,
}

impl<const D: usize> ClusteringResult<D> {
    /// Bare result from explicit labels.
    pub fn new(algorithm: impl Into<String>, labels: Vec<Option<u32>>) -> Self {
        Self {
            algorithm: algorithm.into(),
            params: Vec::new(),
            labels,
            runtime_secs: 0.0,
            representatives: Vec::new(),
        }
    }

    /// Attaches report parameters (builder style).
    pub fn with_params(mut self, params: Vec<(String, String)>) -> Self {
        self.params = params;
        self
    }

    /// Attaches the measured runtime (builder style).
    pub fn with_runtime(mut self, secs: f64) -> Self {
        self.runtime_secs = secs;
        self
    }

    /// From a TRACLUS grouping-phase [`Clustering`] (no representatives).
    pub fn from_clustering(algorithm: impl Into<String>, clustering: &Clustering) -> Self {
        let labels = clustering
            .labels
            .iter()
            .map(|l| match l {
                SegmentLabel::Cluster(id) => Some(id.0),
                SegmentLabel::Noise => None,
            })
            .collect();
        Self::new(algorithm, labels)
    }

    /// From a full TRACLUS pipeline outcome, including the representative
    /// trajectories (enabling the SSQ metric).
    pub fn from_outcome(algorithm: impl Into<String>, outcome: &TraclusOutcome<D>) -> Self {
        let mut result = Self::from_clustering(algorithm, &outcome.clustering);
        result.representatives = outcome
            .clusters
            .iter()
            .map(|c| (c.cluster.id.0, c.representative.clone()))
            .collect();
        result
    }

    /// From per-trajectory assignments (k-means, regression mixture):
    /// each segment inherits the cluster of the trajectory it was
    /// partitioned from.
    ///
    /// `assignments[k]` must be the cluster of the trajectory with id
    /// `k`. The baselines return assignments by **slice position**, so
    /// this only lines up when the trajectory list they ran on was
    /// ordered by dense id (`trajectories[k].id.0 == k`) — the
    /// [`evaluate_dataset`](crate::evaluate_dataset) harness asserts
    /// exactly that before running them.
    pub fn from_trajectory_assignments(
        algorithm: impl Into<String>,
        db: &SegmentDatabase<D>,
        assignments: &[usize],
    ) -> Self {
        let labels = (0..db.len() as u32)
            .map(|id| {
                let t = db.trajectory_of(id).0 as usize;
                assert!(
                    t < assignments.len(),
                    "trajectory {t} missing from the {}-entry assignment vector \
                     (trajectory ids must be dense)",
                    assignments.len()
                );
                Some(assignments[t] as u32)
            })
            .collect();
        Self::new(algorithm, labels)
    }

    /// From point-DBSCAN labels computed over the database's segment
    /// midpoints (`point_labels[i]` labels segment `i`'s midpoint).
    pub fn from_point_labels(algorithm: impl Into<String>, point_labels: &[PointLabel]) -> Self {
        let labels = point_labels
            .iter()
            .map(|l| match l {
                PointLabel::Cluster(k) => Some(*k as u32),
                PointLabel::Noise => None,
            })
            .collect();
        Self::new(algorithm, labels)
    }

    /// From an OPTICS ordering over the database's segments, extracting a
    /// DBSCAN-equivalent clustering at reachability threshold
    /// `eps_prime` and mapping ordering positions back to segment ids.
    pub fn from_optics(
        algorithm: impl Into<String>,
        optics: &OpticsResult,
        eps_prime: f64,
    ) -> Self {
        let by_position = optics.extract_clusters(eps_prime);
        let mut labels = vec![None; optics.ordering.len()];
        for (pos, entry) in optics.ordering.iter().enumerate() {
            labels[entry.id as usize] = by_position[pos].map(|k| k as u32);
        }
        Self::new(algorithm, labels)
    }

    /// Number of distinct cluster labels.
    pub fn cluster_count(&self) -> usize {
        let mut seen: Vec<u32> = self.labels.iter().filter_map(|l| *l).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_baselines::OpticsEntry;
    use traclus_core::cluster::ClusterId;

    #[test]
    fn clustering_labels_map_noise_to_none() {
        let clustering = Clustering {
            labels: vec![
                SegmentLabel::Cluster(ClusterId(0)),
                SegmentLabel::Noise,
                SegmentLabel::Cluster(ClusterId(1)),
            ],
            clusters: Vec::new(),
            filtered_out: 0,
        };
        let r = ClusteringResult::<2>::from_clustering("t", &clustering);
        assert_eq!(r.labels, vec![Some(0), None, Some(1)]);
        assert_eq!(r.cluster_count(), 2);
    }

    #[test]
    fn point_labels_map_positionally() {
        let r = ClusteringResult::<2>::from_point_labels(
            "dbscan",
            &[PointLabel::Cluster(2), PointLabel::Noise],
        );
        assert_eq!(r.labels, vec![Some(2), None]);
    }

    #[test]
    fn optics_positions_map_back_to_ids() {
        // Ordering visits ids 1, 0; both in one cluster at threshold 5.
        let optics = OpticsResult {
            ordering: vec![
                OpticsEntry {
                    id: 1,
                    reachability: f64::INFINITY,
                    core_distance: 1.0,
                },
                OpticsEntry {
                    id: 0,
                    reachability: 1.0,
                    core_distance: 1.0,
                },
            ],
        };
        let r = ClusteringResult::<2>::from_optics("optics", &optics, 5.0);
        assert_eq!(r.labels, vec![Some(0), Some(0)]);
    }
}
