//! Density-based line-segment clustering (Section 4.2, Figure 12).
//!
//! A faithful adaptation of DBSCAN to line segments under the composite
//! distance: ε-neighborhoods (Definition 4), core segments (Definition 5),
//! cluster expansion through direct density-reachability (Definitions 6–9),
//! and the TRACLUS-specific third step — discarding clusters whose
//! *trajectory cardinality* `|PTR(C)|` (Definition 10) is below a threshold,
//! because a cluster drawn from too few distinct trajectories "does not
//! explain the behavior of a sufficient number of trajectories".
//!
//! The weighted-trajectory extension (end of Section 4.2) replaces the
//! neighborhood count with the sum of member weights.

use std::collections::VecDeque;

use traclus_geom::TrajectoryId;

use crate::params::Parallelism;
use crate::segment_db::{IndexKind, NeighborIndex, PruneStats, SegmentDatabase};

/// Identifier of a cluster in a [`Clustering`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(
    clippy::disallowed_methods,
    reason = "derive(PartialOrd) calls partial_cmp on the u32 field, a total order"
)]
pub struct ClusterId(pub u32);

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Per-segment classification after clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentLabel {
    /// Classified as noise (Figure 12 line 12), or member of a cluster that
    /// the trajectory-cardinality filter later removed.
    Noise,
    /// Member of the given cluster.
    Cluster(ClusterId),
}

/// Parameters of the grouping phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// The neighborhood radius ε.
    pub eps: f64,
    /// `MinLns`: minimum (weighted) neighborhood cardinality of a core
    /// segment.
    pub min_lns: f64,
    /// Threshold on `|PTR(C)|` below which a cluster is removed
    /// (Figure 12 line 15 notes "a threshold other than MinLns can be
    /// used"; `None` uses `MinLns`).
    pub min_trajectories: Option<usize>,
    /// Use weighted neighborhood cardinalities (Section 4.2 extension).
    pub weighted: bool,
    /// Acceleration structure for ε-neighborhood queries.
    pub index: IndexKind,
    /// Worker threads for the ε-queries of
    /// [`LineSegmentClustering::run_configured`]'s ordered grouping pass
    /// (one thread runs it inline). The resulting [`Clustering`] is
    /// identical for every thread count. Partitioning happens before a
    /// database exists, so [`crate::TraclusConfig::parallelism`] governs
    /// it instead.
    pub parallelism: Parallelism,
    /// Filter-and-refine pruning of ε-neighborhood candidates through the
    /// admissible midpoint/length lower bound of
    /// `traclus_geom::lower_bound` (default on). The clustering is
    /// bit-identical either way — this is a performance/diagnostics knob,
    /// not a semantics switch.
    pub pruning: bool,
}

impl ClusterConfig {
    /// Plain configuration with the mandatory parameters.
    pub fn new(eps: f64, min_lns: usize) -> Self {
        Self {
            eps,
            min_lns: min_lns as f64,
            min_trajectories: None,
            weighted: false,
            index: IndexKind::default(),
            parallelism: Parallelism::default(),
            pruning: true,
        }
    }

    pub(crate) fn trajectory_threshold(&self) -> usize {
        self.min_trajectories
            .unwrap_or_else(|| self.min_lns.ceil() as usize)
    }
}

/// A surviving cluster: its members and participating trajectories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// The cluster id (dense, renumbered after filtering).
    pub id: ClusterId,
    /// Member segment ids, ascending.
    pub members: Vec<u32>,
    /// The distinct trajectories contributing members (`PTR(C)`),
    /// ascending.
    pub trajectories: Vec<TrajectoryId>,
}

impl Cluster {
    /// `|PTR(C)|` of Definition 10.
    pub fn trajectory_cardinality(&self) -> usize {
        self.trajectories.len()
    }
}

/// Result of the grouping phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Final label of every segment (dense ids).
    pub labels: Vec<SegmentLabel>,
    /// Surviving clusters, dense ids matching `labels`.
    pub clusters: Vec<Cluster>,
    /// Clusters removed by the trajectory-cardinality filter (kept for
    /// diagnostics/experiments; their members are labelled noise).
    pub filtered_out: usize,
}

impl Clustering {
    /// Segment ids labelled noise.
    pub fn noise(&self) -> Vec<u32> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, SegmentLabel::Noise))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Number of segments labelled noise. Counts labels in place, so tests,
    /// examples, and quality statistics no longer materialise the
    /// [`Self::noise`] id vector just to `.len()` it.
    pub fn noise_count(&self) -> usize {
        self.labels
            .iter()
            .filter(|l| matches!(l, SegmentLabel::Noise))
            .count()
    }

    /// Fraction of segments labelled noise. Counts labels in place — this
    /// runs inside the parameter-sweep experiment loops, where building the
    /// full [`Self::noise`] id vector per configuration was pure waste.
    pub fn noise_ratio(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.noise_count() as f64 / self.labels.len() as f64
        }
    }

    /// Member count of every cluster, in cluster-id order.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        self.clusters.iter().map(|c| c.members.len()).collect()
    }

    /// Mean cluster size in segments (the Section 5.4 statistic).
    pub fn mean_cluster_size(&self) -> f64 {
        if self.clusters.is_empty() {
            0.0
        } else {
            self.clusters.iter().map(|c| c.members.len()).sum::<usize>() as f64
                / self.clusters.len() as f64
        }
    }
}

/// The Figure 12 algorithm, generic over dimension.
pub struct LineSegmentClustering<'db, const D: usize> {
    db: &'db SegmentDatabase<D>,
    config: ClusterConfig,
}

impl<'db, const D: usize> LineSegmentClustering<'db, D> {
    /// Binds the algorithm to a database and parameters.
    pub fn new(db: &'db SegmentDatabase<D>, config: ClusterConfig) -> Self {
        assert!(config.eps >= 0.0 && config.eps.is_finite(), "ε must be ≥ 0");
        assert!(config.min_lns >= 1.0, "MinLns must be ≥ 1");
        Self { db, config }
    }

    /// Runs the three steps of Figure 12 and returns the clustering.
    ///
    /// ```
    /// use traclus_core::{ClusterConfig, LineSegmentClustering, SegmentDatabase};
    /// use traclus_geom::{IdentifiedSegment, Segment2, SegmentDistance, SegmentId, TrajectoryId};
    ///
    /// // Five parallel segments from distinct trajectories, plus one far
    /// // outlier.
    /// let mut segments: Vec<_> = (0..5)
    ///     .map(|i| {
    ///         IdentifiedSegment::new(
    ///             SegmentId(i),
    ///             TrajectoryId(i),
    ///             Segment2::xy(0.0, 0.4 * i as f64, 10.0, 0.4 * i as f64),
    ///         )
    ///     })
    ///     .collect();
    /// segments.push(IdentifiedSegment::new(
    ///     SegmentId(5),
    ///     TrajectoryId(99),
    ///     Segment2::xy(500.0, 500.0, 510.0, 500.0),
    /// ));
    /// let db = SegmentDatabase::from_segments(segments, SegmentDistance::default());
    ///
    /// let clustering = LineSegmentClustering::new(&db, ClusterConfig::new(1.5, 3)).run();
    /// assert_eq!(clustering.clusters.len(), 1, "one dense bundle");
    /// assert_eq!(clustering.clusters[0].members, vec![0, 1, 2, 3, 4]);
    /// assert_eq!(clustering.noise(), vec![5], "the outlier is noise");
    /// ```
    pub fn run(&self) -> Clustering {
        self.run_with_stats().0
    }

    /// [`Self::run`] plus the filter-and-refine counters of its
    /// ε-queries. The counters ride outside the [`Clustering`] so
    /// equivalence comparisons between execution strategies stay exact.
    pub fn run_with_stats(&self) -> (Clustering, PruneStats) {
        let n = self.db.len();
        let mut index = self.db.build_index(self.config.index, self.config.eps);
        index.set_pruning(self.config.pruning);
        // Raw ids assigned during expansion; filtered/renumbered in step 3.
        let mut raw: Vec<Option<u32>> = vec![None; n];
        let mut visited_noise: Vec<bool> = vec![false; n];
        let mut classified: Vec<bool> = vec![false; n];
        let mut cluster_id: u32 = 0; // line 1
        let mut neighborhood = Vec::new();
        let mut queue: VecDeque<u32> = VecDeque::new();

        // Step 1 (lines 3–12): seed clusters from unclassified segments in
        // id order (determinism).
        for l in 0..n as u32 {
            if classified[l as usize] {
                continue;
            }
            self.db
                .neighborhood_into(&index, l, self.config.eps, &mut neighborhood); // line 5
            let cardinality = self
                .db
                .neighborhood_cardinality(&neighborhood, self.config.weighted);
            if cardinality >= self.config.min_lns {
                // lines 7–8: claim the neighborhood for the new cluster and
                // queue the unclassified part (minus L itself) for
                // expansion. Only unclassified or noise segments are
                // claimed: a border segment already classified into an
                // earlier cluster belongs to that cluster (DBSCAN
                // first-come semantics) — unconditionally re-assigning it
                // here would silently steal it and desynchronise the
                // earlier cluster's members from its labels. Noise
                // segments are claimed as border members but not queued
                // (they were already visited and found non-core), matching
                // `expand_cluster`.
                queue.clear();
                for &x in &neighborhood {
                    let xi = x as usize;
                    let was_unclassified = !classified[xi];
                    if was_unclassified || visited_noise[xi] {
                        raw[xi] = Some(cluster_id);
                        classified[xi] = true;
                        visited_noise[xi] = false;
                        if was_unclassified && x != l {
                            queue.push_back(x);
                        }
                    }
                }
                // Step 2 (lines 17–28).
                self.expand_cluster(
                    &index,
                    &mut queue,
                    cluster_id,
                    &mut raw,
                    &mut classified,
                    &mut visited_noise,
                    &mut neighborhood,
                );
                cluster_id += 1; // line 10
            } else {
                visited_noise[l as usize] = true; // line 12
                classified[l as usize] = true;
            }
        }

        // Step 3 (lines 13–16), shared with the parallel path.
        let clustering = finalize_raw(
            self.db,
            &raw,
            cluster_id,
            self.config.trajectory_threshold(),
        );
        (clustering, index.prune_stats())
    }

    /// Runs the grouping phase with its ε-queries on `threads` worker
    /// threads and returns a [`Clustering`] **identical** to [`Self::run`].
    /// One ordered pass queries every segment once and classifies the
    /// results in ascending id order on the calling thread; the
    /// equivalence argument lives in the crate's `grouping` module.
    /// `threads ≤ 1` and small databases run the pass inline, without
    /// spawning.
    ///
    /// ```
    /// use traclus_core::{ClusterConfig, LineSegmentClustering, SegmentDatabase};
    /// use traclus_geom::{IdentifiedSegment, Segment2, SegmentDistance, SegmentId, TrajectoryId};
    ///
    /// let segments: Vec<_> = (0..24)
    ///     .map(|i| {
    ///         // Three separated bundles of eight segments each.
    ///         let (bundle, lane) = (i / 8, i % 8);
    ///         IdentifiedSegment::new(
    ///             SegmentId(i),
    ///             TrajectoryId(i),
    ///             Segment2::xy(
    ///                 bundle as f64 * 100.0,
    ///                 lane as f64 * 0.5,
    ///                 bundle as f64 * 100.0 + 10.0,
    ///                 lane as f64 * 0.5,
    ///             ),
    ///         )
    ///     })
    ///     .collect();
    /// let db = SegmentDatabase::from_segments(segments, SegmentDistance::default());
    /// let algo = LineSegmentClustering::new(&db, ClusterConfig::new(1.5, 3));
    ///
    /// // Any worker count returns the identical clustering.
    /// let sequential = algo.run();
    /// assert_eq!(sequential.clusters.len(), 3);
    /// for threads in [2, 4, 8] {
    ///     assert_eq!(algo.run_parallel(threads), sequential);
    /// }
    /// ```
    pub fn run_parallel(&self, threads: usize) -> Clustering {
        self.run_parallel_with_stats(threads).0
    }

    /// [`Self::run_parallel`] plus the filter-and-refine counters of its
    /// ε-queries. Every worker queries the same shared index, so the
    /// counters are the same at every thread count. The ordered pass
    /// queries only each segment's forward candidates (ids `≥` its own),
    /// so they total about half of [`Self::run_with_stats`]'s, which scores
    /// each pair from both ends.
    pub fn run_parallel_with_stats(&self, threads: usize) -> (Clustering, PruneStats) {
        crate::grouping::run_ordered(self.db, &self.config, threads.max(1))
    }

    /// [`Self::run_parallel`] with the thread count of the configured
    /// [`Parallelism`] knob — the grouping path of [`crate::Traclus::run`].
    pub fn run_configured(&self) -> Clustering {
        self.run_parallel(self.config.parallelism.thread_count())
    }

    /// Lines 17–28: BFS expansion of a density-connected set.
    #[allow(
        clippy::too_many_arguments,
        reason = "the BFS threads the caller's label, flag and scratch buffers, reused across \
                  clusters"
    )]
    fn expand_cluster(
        &self,
        index: &NeighborIndex<D>,
        queue: &mut VecDeque<u32>,
        cluster_id: u32,
        raw: &mut [Option<u32>],
        classified: &mut [bool],
        visited_noise: &mut [bool],
        scratch: &mut Vec<u32>,
    ) {
        while let Some(m) = queue.pop_front() {
            // lines 19–20
            self.db
                .neighborhood_into(index, m, self.config.eps, scratch);
            let cardinality = self
                .db
                .neighborhood_cardinality(scratch, self.config.weighted);
            if cardinality >= self.config.min_lns {
                // lines 21–26
                for &x in scratch.iter() {
                    let xi = x as usize;
                    let was_unclassified = !classified[xi];
                    let was_noise = visited_noise[xi];
                    if was_unclassified || was_noise {
                        raw[xi] = Some(cluster_id);
                        classified[xi] = true;
                        visited_noise[xi] = false;
                        if was_unclassified {
                            queue.push_back(x); // line 26
                        }
                    }
                }
            }
        }
    }
}

/// Step 3 of Figure 12 (lines 13–16), shared by the sequential loop, the
/// ordered grouping pass and the streaming snapshot: gather members per
/// raw cluster id, apply the trajectory-cardinality filter, renumber
/// densely, and build the final label array. Member lists come out
/// ascending because segments are scanned in id order.
pub(crate) fn finalize_raw<const D: usize>(
    db: &SegmentDatabase<D>,
    raw: &[Option<u32>],
    raw_cluster_count: u32,
    threshold: usize,
) -> Clustering {
    let n = raw.len();
    let mut members_by_raw: Vec<Vec<u32>> = vec![Vec::new(); raw_cluster_count as usize];
    for (seg, assignment) in raw.iter().enumerate() {
        if let Some(c) = assignment {
            members_by_raw[*c as usize].push(seg as u32);
        }
    }
    let mut labels = vec![SegmentLabel::Noise; n];
    let mut clusters = Vec::new();
    let mut filtered_out = 0usize;
    for members in members_by_raw {
        if members.is_empty() {
            continue;
        }
        let mut trajectories: Vec<TrajectoryId> =
            members.iter().map(|&m| db.trajectory_of(m)).collect();
        trajectories.sort_unstable();
        trajectories.dedup();
        if trajectories.len() < threshold {
            filtered_out += 1; // line 16: cluster removed; members → noise
            continue;
        }
        let id = ClusterId(clusters.len() as u32);
        for &m in &members {
            labels[m as usize] = SegmentLabel::Cluster(id);
        }
        clusters.push(Cluster {
            id,
            members,
            trajectories,
        });
    }
    Clustering {
        labels,
        clusters,
        filtered_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_geom::{IdentifiedSegment, Segment2, SegmentDistance, SegmentId};

    /// Builds a database where each entry supplies its own trajectory id,
    /// letting tests control trajectory cardinality precisely.
    fn db(entries: &[(Segment2, u32)]) -> SegmentDatabase<2> {
        let segs = entries
            .iter()
            .enumerate()
            .map(|(k, (s, tr))| IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(*tr), *s))
            .collect();
        SegmentDatabase::from_segments(segs, SegmentDistance::default())
    }

    /// A bundle of `count` horizontal segments spaced `gap` apart
    /// vertically starting at `y0`, each from its own trajectory starting
    /// at `tr0`.
    fn bundle(y0: f64, gap: f64, count: u32, tr0: u32, x0: f64) -> Vec<(Segment2, u32)> {
        (0..count)
            .map(|i| {
                (
                    Segment2::xy(x0, y0 + gap * i as f64, x0 + 10.0, y0 + gap * i as f64),
                    tr0 + i,
                )
            })
            .collect()
    }

    #[test]
    fn single_dense_bundle_forms_one_cluster() {
        let entries = bundle(0.0, 0.5, 6, 0, 0.0);
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        assert_eq!(clustering.clusters.len(), 1);
        assert_eq!(clustering.clusters[0].members.len(), 6);
        assert_eq!(clustering.clusters[0].trajectory_cardinality(), 6);
        assert_eq!(clustering.noise_count(), 0);
        assert_eq!(clustering.cluster_sizes(), vec![6]);
    }

    #[test]
    fn two_separated_bundles_form_two_clusters() {
        let mut entries = bundle(0.0, 0.5, 5, 0, 0.0);
        entries.extend(bundle(100.0, 0.5, 5, 10, 0.0));
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        assert_eq!(clustering.clusters.len(), 2);
        // Cluster ids are dense and label arrays agree with member lists.
        for c in &clustering.clusters {
            for &m in &c.members {
                assert_eq!(clustering.labels[m as usize], SegmentLabel::Cluster(c.id));
            }
        }
    }

    #[test]
    fn sparse_outliers_are_noise() {
        let mut entries = bundle(0.0, 0.5, 5, 0, 0.0);
        entries.push((Segment2::xy(500.0, 500.0, 510.0, 500.0), 99));
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        assert_eq!(clustering.clusters.len(), 1);
        let noise = clustering.noise();
        assert_eq!(noise, vec![5], "the outlier is noise");
        assert_eq!(clustering.noise_count(), noise.len());
        assert!((clustering.noise_ratio() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn trajectory_cardinality_filter_removes_single_trajectory_clusters() {
        // Six tightly packed segments, but all from ONE trajectory: the
        // density test passes, the Definition 10 filter must reject.
        let entries: Vec<(Segment2, u32)> = (0..6)
            .map(|i| (Segment2::xy(0.0, 0.2 * i as f64, 10.0, 0.2 * i as f64), 7))
            .collect();
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        assert!(clustering.clusters.is_empty());
        assert_eq!(clustering.filtered_out, 1);
        assert_eq!(clustering.noise_count(), 6, "filtered members become noise");
    }

    #[test]
    fn min_trajectories_override() {
        // Two trajectories only; default threshold (MinLns = 3) filters the
        // cluster, an explicit threshold of 2 keeps it.
        let entries: Vec<(Segment2, u32)> = (0..6)
            .map(|i| {
                (
                    Segment2::xy(0.0, 0.2 * i as f64, 10.0, 0.2 * i as f64),
                    (i % 2) as u32,
                )
            })
            .collect();
        let database = db(&entries);
        let default_run = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        assert!(default_run.clusters.is_empty());
        let relaxed = LineSegmentClustering::new(
            &database,
            ClusterConfig {
                min_trajectories: Some(2),
                ..ClusterConfig::new(1.5, 3)
            },
        )
        .run();
        assert_eq!(relaxed.clusters.len(), 1);
    }

    #[test]
    fn chain_is_density_connected_through_cores() {
        // A long chain of closely spaced segments: every interior segment
        // is core, so the whole chain is one density-connected set.
        let entries: Vec<(Segment2, u32)> = (0..20)
            .map(|i| (Segment2::xy(0.0, 0.4 * i as f64, 10.0, 0.4 * i as f64), i))
            .collect();
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.0, 3)).run();
        assert_eq!(clustering.clusters.len(), 1, "one connected chain");
        assert_eq!(clustering.clusters[0].members.len(), 20);
    }

    #[test]
    fn border_segment_joins_but_does_not_expand() {
        // Classic DBSCAN border case: a segment within ε of a core segment
        // but itself non-core joins the cluster; a second segment only
        // reachable through the border must stay noise.
        let mut entries = bundle(0.0, 0.4, 5, 0, 0.0); // dense core at y=0..1.6
        entries.push((Segment2::xy(0.0, 3.0, 10.0, 3.0), 50)); // border (near y=1.6? no: 1.4 away)
        entries.push((Segment2::xy(0.0, 5.8, 10.0, 5.8), 51)); // beyond the border
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(
            &database,
            ClusterConfig {
                min_trajectories: Some(2),
                ..ClusterConfig::new(1.5, 4)
            },
        )
        .run();
        assert_eq!(clustering.clusters.len(), 1);
        let labels = &clustering.labels;
        assert_eq!(
            labels[5],
            SegmentLabel::Cluster(ClusterId(0)),
            "border segment is absorbed"
        );
        assert_eq!(
            labels[6],
            SegmentLabel::Noise,
            "no expansion through border"
        );
    }

    #[test]
    fn border_segment_is_not_stolen_by_later_cluster() {
        // Two dense bundles share one border segment halfway between them.
        // The border (id 5, y = 3.0) is within ε of the top of bundle A
        // (y = 1.6) and the bottom of bundle B (y = 4.4) but is itself
        // non-core (its neighborhood {1.6, 3.0, 4.4} has cardinality 3 <
        // MinLns 4). Bundle A seeds first (lower ids) and absorbs the
        // border; when bundle B's seed later expands, it must NOT steal
        // the border from cluster 0 — the pre-fix code unconditionally
        // re-assigned every neighborhood member.
        let mut entries = bundle(0.0, 0.4, 5, 0, 0.0); // ids 0–4: bundle A
        entries.push((Segment2::xy(0.0, 3.0, 10.0, 3.0), 50)); // id 5: border
        entries.extend(bundle(4.4, 0.4, 5, 10, 0.0)); // ids 6–10: bundle B
        let database = db(&entries);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 4)).run();
        assert_eq!(clustering.clusters.len(), 2, "both bundles survive");
        let [a, b] = &clustering.clusters[..] else {
            unreachable!("two clusters asserted above")
        };
        assert!(a.members.contains(&0), "cluster 0 is bundle A");
        assert_eq!(
            a.members,
            vec![0, 1, 2, 3, 4, 5],
            "the earlier cluster keeps its border segment"
        );
        assert_eq!(b.members, vec![6, 7, 8, 9, 10], "no stolen member");
        assert_eq!(
            clustering.labels[5],
            SegmentLabel::Cluster(a.id),
            "border label agrees with cluster A's member list"
        );
        // Labels and member lists stay mutually consistent for every
        // cluster — the invariant the stealing bug violated.
        for c in &clustering.clusters {
            for &m in &c.members {
                assert_eq!(clustering.labels[m as usize], SegmentLabel::Cluster(c.id));
            }
        }
    }

    #[test]
    fn weighted_cardinality_can_promote_sparse_neighborhoods() {
        // Two heavy segments whose combined weight passes MinLns = 4 even
        // though only 2 segments are present.
        let segs = vec![
            IdentifiedSegment {
                id: SegmentId(0),
                trajectory: TrajectoryId(0),
                segment: Segment2::xy(0.0, 0.0, 10.0, 0.0),
                weight: 3.0,
            },
            IdentifiedSegment {
                id: SegmentId(1),
                trajectory: TrajectoryId(1),
                segment: Segment2::xy(0.0, 0.3, 10.0, 0.3),
                weight: 3.0,
            },
        ];
        let database = SegmentDatabase::from_segments(segs, SegmentDistance::default());
        let unweighted = LineSegmentClustering::new(
            &database,
            ClusterConfig {
                min_trajectories: Some(2),
                ..ClusterConfig::new(1.0, 4)
            },
        )
        .run();
        assert!(unweighted.clusters.is_empty());
        let weighted = LineSegmentClustering::new(
            &database,
            ClusterConfig {
                weighted: true,
                min_trajectories: Some(2),
                ..ClusterConfig::new(1.0, 4)
            },
        )
        .run();
        assert_eq!(weighted.clusters.len(), 1);
    }

    #[test]
    fn index_kinds_produce_identical_clusterings() {
        let mut entries = bundle(0.0, 0.5, 8, 0, 0.0);
        entries.extend(bundle(40.0, 0.7, 6, 20, 5.0));
        entries.push((Segment2::xy(200.0, 0.0, 210.0, 0.0), 90));
        let database = db(&entries);
        let mut results = Vec::new();
        for kind in [IndexKind::Linear, IndexKind::RTree] {
            let clustering = LineSegmentClustering::new(
                &database,
                ClusterConfig {
                    index: kind,
                    ..ClusterConfig::new(2.0, 3)
                },
            )
            .run();
            results.push(clustering);
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn empty_database() {
        let database = db(&[]);
        let clustering = LineSegmentClustering::new(&database, ClusterConfig::new(1.0, 2)).run();
        assert!(clustering.clusters.is_empty());
        assert!(clustering.labels.is_empty());
        assert_eq!(clustering.noise_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "MinLns")]
    fn zero_min_lns_rejected() {
        let database = db(&[]);
        let _ = LineSegmentClustering::new(&database, ClusterConfig::new(1.0, 0));
    }

    #[test]
    fn determinism_across_runs() {
        let mut entries = bundle(0.0, 0.5, 10, 0, 0.0);
        entries.extend(bundle(30.0, 0.5, 10, 10, 0.0));
        let database = db(&entries);
        let a = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        let b = LineSegmentClustering::new(&database, ClusterConfig::new(1.5, 3)).run();
        assert_eq!(a, b);
    }
}
