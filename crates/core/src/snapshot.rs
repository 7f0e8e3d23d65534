//! Snapshot-isolated reads over the streaming engine.
//!
//! [`IncrementalClustering`] is a single-writer structure: `insert` mutates
//! the database, index, and cluster state in place. Serving queries from
//! it directly would force every reader to lock out the writer (and each
//! other) for the full duration of a query. This module separates the two
//! roles:
//!
//! * [`ClusterSnapshot`] — an immutable, self-contained view of one
//!   engine state: the clustering, the representative trajectories, and
//!   the stream counters. Once captured it never changes, so any number
//!   of readers can query it concurrently without synchronisation.
//! * [`SnapshotCell`] — the publication point: a mutex-guarded
//!   `Arc<ClusterSnapshot>` the writer swaps after ingesting a batch.
//!   Readers take the lock only long enough to clone the `Arc` (two
//!   atomic operations); queries then run entirely on their pinned
//!   snapshot while the writer races ahead.
//!
//! **Publishing what changed.** A representative trajectory (Figure 15)
//! is a function of its cluster's member segments — their geometry,
//! weights and order — and the configuration alone. Each snapshot keeps
//! its clusters' member *stamps*: the names the engine gives its segments
//! for good, never reused and unchanged by the renumbering a removal does
//! (see [`crate::stream`]). [`SnapshotCell::publish_from`] hands the
//! previously published snapshot to the capture, which copies the
//! representative of every cluster whose stamp list and configuration are
//! unchanged and runs the sweep only for the rest; a sliding serving
//! window changes a few of its clusters per publish. The previous snapshot
//! is the whole cache, and [`ClusterSnapshot::swept`] counts the clusters
//! a capture swept afresh.
//!
//! **Equivalence guarantee.** A snapshot captured after the engine has
//! ingested trajectories `t₀ … tₖ` is exactly the batch pipeline's output
//! on that prefix: [`ClusterSnapshot::clustering`] equals
//! [`Traclus::run`]'s clustering label for label (the streaming engine's
//! invariant), and the representatives are produced by the same Figure 15
//! sweep and parameters as the batch tail [`representatives_for`].
//! Readers never see a half-applied insert — they see *some* prefix,
//! bit-identical to what a batch run over that prefix would produce. A
//! copied representative is the sweep's own earlier output on the same
//! segments under the same configuration, so reuse keeps this bit for
//! bit.
//!
//! ```
//! use traclus_core::{ClusterSnapshot, IncrementalClustering, SnapshotCell, TraclusConfig};
//! use traclus_geom::{Point2, Trajectory, TrajectoryId};
//!
//! let config = TraclusConfig { eps: 5.0, min_lns: 3, ..TraclusConfig::default() };
//! let cell = SnapshotCell::<2>::new(config);
//! let mut engine = IncrementalClustering::<2>::new(config);
//! for i in 0..8u32 {
//!     let t = Trajectory::new(
//!         TrajectoryId(i),
//!         (0..25).map(|k| Point2::xy(k as f64 * 4.0, i as f64 * 0.3)).collect(),
//!     );
//!     engine.insert(&t);
//!     cell.publish_from(&engine);
//! }
//! let snap = cell.load(); // a reader's pinned view
//! assert_eq!(snap.trajectories(), 8);
//! assert_eq!(snap.clusters().len(), 1, "one shared corridor");
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use traclus_geom::{Aabb, Point, Trajectory, TrajectoryId};

use crate::cluster::{ClusterId, Clustering};
use crate::representative::representative_trajectory;
use crate::stream::{IncrementalClustering, StreamStats};
use crate::{representative_config, TraclusCluster, TraclusConfig};

#[cfg(doc)]
use crate::{representatives_for, Traclus};

/// An immutable view of one streaming-engine state: clustering,
/// representatives, and counters, frozen at a publication epoch.
///
/// Cheap to share (`Arc`-cloned by [`SnapshotCell::load`]) and safe to
/// query from any number of threads. Queries are answered from the
/// cluster structure and the representative trajectories — the snapshot
/// deliberately does **not** clone the segment database, so it stays
/// small no matter how much has been ingested.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot<const D: usize> {
    epoch: u64,
    clustering: Clustering,
    clusters: Vec<TraclusCluster<D>>,
    /// Each cluster's member stamps, in member order: the segments its
    /// representative was swept from.
    stamps: Vec<Vec<u64>>,
    /// Clusters whose representative this capture swept afresh.
    swept: usize,
    stats: StreamStats,
    config: TraclusConfig,
}

/// Equal snapshots hold equal state. The member stamps and
/// [`ClusterSnapshot::swept`] record how a snapshot was built, not what it
/// holds, so they are left out: two engines that reach one window along
/// different histories publish equal snapshots.
impl<const D: usize> PartialEq for ClusterSnapshot<D> {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.clustering == other.clustering
            && self.clusters == other.clusters
            && self.stats == other.stats
            && self.config == other.config
    }
}

impl<const D: usize> ClusterSnapshot<D> {
    /// The snapshot of an engine that has ingested nothing (epoch 0).
    pub fn empty(config: TraclusConfig) -> Self {
        Self {
            epoch: 0,
            clustering: Clustering {
                labels: Vec::new(),
                clusters: Vec::new(),
                filtered_out: 0,
            },
            clusters: Vec::new(),
            stats: StreamStats::default(),
            stamps: Vec::new(),
            swept: 0,
            config,
        }
    }

    /// Captures the engine's current state under the given epoch, running
    /// the representative sweep for every cluster: the fresh reference
    /// that the reusing [`SnapshotCell::publish_from`] must equal.
    ///
    /// This is the expensive step (it labels the clustering and runs the
    /// representative sweep over the engine's own database, without
    /// copying it); do it **outside** any lock shared with readers.
    pub fn capture(engine: &IncrementalClustering<D>, epoch: u64) -> Self {
        Self::capture_after(&Self::empty(*engine.config()), engine, epoch)
    }

    /// [`Self::capture`], copying from `previous` the representative of
    /// every cluster whose member stamps and configuration equal one of
    /// its clusters', and sweeping only the rest.
    fn capture_after(previous: &Self, engine: &IncrementalClustering<D>, epoch: u64) -> Self {
        let config = *engine.config();
        let clustering = engine.snapshot();
        let live: Vec<u64> = engine.stamps().collect();
        let stamps: Vec<Vec<u64>> = clustering
            .clusters
            .iter()
            .map(|c| c.members.iter().map(|&m| live[m as usize]).collect())
            .collect();
        // Clusters are disjoint, so a first member stamp names at most one
        // previous cluster. Any configuration change can move every
        // polyline.
        let by_first: BTreeMap<u64, usize> = if previous.config == config {
            previous
                .stamps
                .iter()
                .enumerate()
                .filter_map(|(k, own)| Some((*own.first()?, k)))
                .collect()
        } else {
            BTreeMap::new()
        };
        let rep_config = representative_config(&config);
        let mut swept = 0;
        let clusters = clustering
            .clusters
            .iter()
            .zip(&stamps)
            .map(|(cluster, own)| {
                let cached = own
                    .first()
                    .and_then(|first| by_first.get(first))
                    .filter(|&&k| previous.stamps[k] == *own);
                let representative = match cached {
                    Some(&k) => {
                        let mut representative = previous.clusters[k].representative.clone();
                        representative.id = TrajectoryId(cluster.id.0);
                        #[cfg(feature = "invariant-checks")]
                        crate::invariants::assert_reused_representative(
                            engine.database(),
                            cluster,
                            &rep_config,
                            &representative,
                            epoch,
                        );
                        representative
                    }
                    None => {
                        swept += 1;
                        representative_trajectory(engine.database(), cluster, &rep_config)
                    }
                };
                TraclusCluster {
                    cluster: cluster.clone(),
                    representative,
                }
            })
            .collect();
        Self {
            epoch,
            clustering,
            clusters,
            stamps,
            swept,
            stats: engine.stats(),
            config,
        }
    }

    /// The publication epoch (0 for [`Self::empty`], then strictly
    /// increasing per [`SnapshotCell::publish_from`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Trajectories ingested when this snapshot was captured — the prefix
    /// length the equivalence guarantee refers to.
    pub fn trajectories(&self) -> usize {
        self.stats.trajectories
    }

    /// Live segments in the engine's database at capture time.
    pub fn segments(&self) -> usize {
        self.clustering.labels.len()
    }

    /// The raw clustering (labels, clusters, filter diagnostics) — equal
    /// to the batch pipeline's clustering on the same prefix.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Clusters with their representative trajectories.
    pub fn clusters(&self) -> &[TraclusCluster<D>] {
        &self.clusters
    }

    /// The engine's cumulative counters at capture time.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// The configuration the engine runs under.
    pub fn config(&self) -> &TraclusConfig {
        &self.config
    }

    /// How many clusters this capture ran the representative sweep for.
    /// [`Self::capture`] sweeps every cluster; [`SnapshotCell::publish_from`]
    /// copies the representative of each cluster whose member segments
    /// and configuration are unchanged since the previous epoch, so there
    /// it counts only the clusters that changed.
    pub fn swept(&self) -> usize {
        self.swept
    }

    /// The representative trajectories alone, in cluster order.
    pub fn representatives(&self) -> impl Iterator<Item = &Trajectory<D>> {
        self.clusters.iter().map(|c| &c.representative)
    }

    /// Clusters containing the given trajectory, in cluster order.
    pub fn membership(&self, trajectory: TrajectoryId) -> Vec<ClusterId> {
        self.clusters
            .iter()
            .filter(|c| c.cluster.trajectories.contains(&trajectory))
            .map(|c| c.cluster.id)
            .collect()
    }

    /// The cluster whose representative trajectory passes closest to the
    /// probe point, with that (Euclidean point-to-polyline) distance.
    /// `None` when there are no clusters. Ties resolve to the lowest
    /// cluster id, so the answer is deterministic.
    pub fn nearest_cluster(&self, probe: &Point<D>) -> Option<(ClusterId, f64)> {
        let mut best: Option<(ClusterId, f64)> = None;
        for c in &self.clusters {
            let Some(d) = distance_to_polyline(&c.representative, probe) else {
                continue;
            };
            let closer = match best {
                Some((_, bd)) => d < bd,
                None => true,
            };
            if closer {
                best = Some((c.cluster.id, d));
            }
        }
        best
    }

    /// Clusters whose representative trajectory intersects the axis-
    /// aligned region (edge-bounding-box test; a one-point representative
    /// hits when the region contains its point), plus how many distinct
    /// trajectories they cover — a cheap "what moves through here"
    /// aggregate.
    pub fn region_summary(&self, region: &Aabb<D>) -> RegionSummary {
        let mut clusters = Vec::new();
        let mut members: Vec<TrajectoryId> = Vec::new();
        for c in &self.clusters {
            let hits = match c.representative.points.as_slice() {
                [point] => region.contains_point(point),
                _ => c
                    .representative
                    .edges()
                    .any(|e| Aabb::from_segment(&e).intersects(region)),
            };
            if hits {
                clusters.push(c.cluster.id);
                members.extend_from_slice(&c.cluster.trajectories);
            }
        }
        members.sort_unstable();
        members.dedup();
        RegionSummary {
            clusters,
            distinct_trajectories: members.len(),
        }
    }
}

/// Euclidean distance from a point to a polyline (`None` for an empty
/// trajectory; a single-point trajectory measures point-to-point).
fn distance_to_polyline<const D: usize>(polyline: &Trajectory<D>, p: &Point<D>) -> Option<f64> {
    let mut best: Option<f64> = None;
    for edge in polyline.edges() {
        let d = edge.segment_distance(p);
        best = Some(match best {
            Some(b) if b <= d => b,
            _ => d,
        });
    }
    if best.is_none() {
        best = polyline.points.first().map(|q| q.distance(p));
    }
    best
}

/// What [`ClusterSnapshot::region_summary`] reports for a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSummary {
    /// Clusters whose representative intersects the region, in cluster
    /// order.
    pub clusters: Vec<ClusterId>,
    /// Distinct trajectories contributing to those clusters.
    pub distinct_trajectories: usize,
}

/// The publication point between one writer and any number of readers.
///
/// Std-only epoch/arc-swap: the current snapshot lives behind a
/// `Mutex<Arc<…>>`. [`Self::load`] holds the lock just long enough to
/// clone the `Arc`; [`Self::publish_from`] materialises the next snapshot
/// **outside** the lock (snapshot capture is the expensive part) and then
/// swaps the pointer. Readers therefore never wait on snapshot
/// construction, and the writer never waits on queries.
///
/// The cell assumes a single writer (the streaming engine's owner); with
/// multiple concurrent writers epochs would still be monotonic per
/// [`Self::publish_from`] call ordering, but "latest published" would be
/// racy — matching the engine itself, which is `&mut` on ingest anyway.
#[derive(Debug)]
pub struct SnapshotCell<const D: usize> {
    current: Mutex<Arc<ClusterSnapshot<D>>>,
}

impl<const D: usize> SnapshotCell<D> {
    /// A cell holding the empty snapshot (epoch 0) for this configuration.
    pub fn new(config: TraclusConfig) -> Self {
        Self {
            current: Mutex::new(Arc::new(ClusterSnapshot::empty(config))),
        }
    }

    /// The latest published snapshot. O(1): one brief lock and an `Arc`
    /// clone — queries run on the returned snapshot with no further
    /// synchronisation.
    pub fn load(&self) -> Arc<ClusterSnapshot<D>> {
        Arc::clone(&lock_unpoisoned(&self.current))
    }

    /// Captures the engine's state as the next epoch and publishes it,
    /// returning the new snapshot. Capture runs outside the lock.
    ///
    /// The previously published snapshot is the representative cache: a
    /// cluster whose member stamps and configuration equal one of its
    /// clusters' gets that cluster's polyline, renumbered to the current
    /// cluster id, and only the others run the sweep. The result equals
    /// [`ClusterSnapshot::capture`] of the same engine state.
    pub fn publish_from(&self, engine: &IncrementalClustering<D>) -> Arc<ClusterSnapshot<D>> {
        let previous = self.load();
        let snapshot = Arc::new(ClusterSnapshot::capture_after(
            &previous,
            engine,
            previous.epoch + 1,
        ));
        *lock_unpoisoned(&self.current) = Arc::clone(&snapshot);
        snapshot
    }
}

/// Locks a mutex, continuing through poisoning: the guarded value is a
/// bare `Arc` pointer swap, so there is no torn state a panicking thread
/// could have left behind.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{representatives_for, Traclus};
    use traclus_geom::Point2;

    /// A straight west–east track of `n` fixes at height `y`.
    fn track(i: u32, y: f64, n: usize) -> Trajectory<2> {
        Trajectory::new(
            TrajectoryId(i),
            (0..n).map(|k| Point2::xy(k as f64 * 4.0, y)).collect(),
        )
    }

    fn corridor(i: u32, n: usize) -> Trajectory<2> {
        track(i, i as f64 * 0.3, n)
    }

    /// Every cluster of the engine's current state swept afresh over its
    /// own database: what a published snapshot's clusters must equal.
    fn fresh(engine: &IncrementalClustering<2>) -> Vec<TraclusCluster<2>> {
        representatives_for(engine.config(), engine.database(), &engine.snapshot())
    }

    fn config() -> TraclusConfig {
        TraclusConfig {
            eps: 5.0,
            min_lns: 3,
            ..TraclusConfig::default()
        }
    }

    #[test]
    fn capture_matches_batch_prefix() {
        let config = config();
        let trajectories: Vec<_> = (0..8).map(|i| corridor(i, 25)).collect();
        let mut engine = IncrementalClustering::<2>::new(config);
        for (k, t) in trajectories.iter().enumerate() {
            engine.insert(t);
            let snap = ClusterSnapshot::capture(&engine, k as u64 + 1);
            let batch = Traclus::new(config).run(&trajectories[..=k]);
            assert_eq!(snap.clustering(), &batch.clustering, "prefix {}", k + 1);
            assert_eq!(snap.clusters(), &batch.clusters[..], "prefix {}", k + 1);
            assert_eq!(snap.trajectories(), k + 1);
        }
    }

    #[test]
    fn cell_publishes_monotonic_epochs() {
        let config = config();
        let cell = SnapshotCell::<2>::new(config);
        assert_eq!(cell.load().epoch(), 0);
        let mut engine = IncrementalClustering::<2>::new(config);
        for i in 0..3 {
            engine.insert(&corridor(i, 25));
            let published = cell.publish_from(&engine);
            assert_eq!(published.epoch(), u64::from(i) + 1);
            assert_eq!(cell.load().epoch(), u64::from(i) + 1);
        }
        // An old reader's Arc stays valid after newer publications.
        let pinned = cell.load();
        engine.insert(&corridor(3, 25));
        cell.publish_from(&engine);
        assert_eq!(pinned.epoch(), 3);
        assert_eq!(cell.load().epoch(), 4);
    }

    #[test]
    fn queries_answer_from_the_snapshot() {
        let config = config();
        let mut engine = IncrementalClustering::<2>::new(config);
        for i in 0..8 {
            engine.insert(&corridor(i, 25));
        }
        let snap = ClusterSnapshot::capture(&engine, 1);
        assert_eq!(snap.clusters().len(), 1);
        let cluster_id = snap.clusters()[0].cluster.id;

        // Every corridor trajectory is a member; an unknown id is not.
        assert_eq!(snap.membership(TrajectoryId(0)), vec![cluster_id]);
        assert_eq!(snap.membership(TrajectoryId(99)), Vec::new());

        // A probe on the corridor is near the representative; far away is far.
        let (near_id, near_d) = snap.nearest_cluster(&Point2::xy(48.0, 1.0)).unwrap();
        assert_eq!(near_id, cluster_id);
        assert!(near_d < 3.0, "probe on the corridor: {near_d}");
        let (_, far_d) = snap.nearest_cluster(&Point2::xy(48.0, 500.0)).unwrap();
        assert!(far_d > 400.0, "probe far away: {far_d}");

        // The corridor crosses a region around x ∈ [40, 60].
        let hit = snap.region_summary(&Aabb::new([40.0, -5.0], [60.0, 5.0]));
        assert_eq!(hit.clusters, vec![cluster_id]);
        assert_eq!(hit.distinct_trajectories, 8);
        let miss = snap.region_summary(&Aabb::new([40.0, 400.0], [60.0, 500.0]));
        assert_eq!(miss.clusters, Vec::new());
        assert_eq!(miss.distinct_trajectories, 0);
    }

    /// Five short tracks under a wide ε: γ = ε/4 is longer than the
    /// segments, so the sweep emits one point. `region` must find that
    /// cluster wherever `nearest` measures zero distance to it.
    #[test]
    fn one_point_representative_is_found_by_region() {
        let config = TraclusConfig {
            eps: 10.0,
            min_lns: 3,
            ..TraclusConfig::default()
        };
        let mut engine = IncrementalClustering::<2>::new(config);
        for i in 0..5 {
            let y = 0.01 * f64::from(i);
            engine.insert(&Trajectory::new(
                TrajectoryId(i),
                vec![Point2::xy(0.0, y), Point2::xy(2.0, y)],
            ));
        }
        let snap = ClusterSnapshot::capture(&engine, 1);
        assert_eq!(snap.clusters().len(), 1);
        let cluster = &snap.clusters()[0];
        let [point] = cluster.representative.points[..] else {
            panic!("expected a one-point representative: {cluster:?}");
        };
        assert_eq!(
            snap.nearest_cluster(&point),
            Some((cluster.cluster.id, 0.0))
        );
        let hit = snap.region_summary(&Aabb::new([-1.0, -1.0], [1.0, 1.0]));
        assert_eq!(hit.clusters, vec![cluster.cluster.id]);
        assert_eq!(hit.distinct_trajectories, 5);
        let miss = snap.region_summary(&Aabb::new([1.0, 1.0], [2.0, 2.0]));
        assert_eq!(miss.clusters, Vec::new());
    }

    #[test]
    fn empty_snapshot_queries_are_defined() {
        let snap = ClusterSnapshot::<2>::empty(config());
        assert_eq!(snap.nearest_cluster(&Point2::xy(0.0, 0.0)), None);
        assert_eq!(snap.membership(TrajectoryId(0)), Vec::new());
        let summary = snap.region_summary(&Aabb::new([0.0, 0.0], [1.0, 1.0]));
        assert_eq!(summary.distinct_trajectories, 0);
    }

    /// A removal renumbers every later segment. The bundle it leaves alone
    /// keeps its member stamps, so the next publish copies its polyline
    /// (a cache keyed on ids would sweep it again) and sweeps only the
    /// bundle that lost a member. Once the first bundle is gone, the
    /// copied polyline takes the surviving cluster's new id.
    #[test]
    fn renumbered_cluster_reuses_its_representative() {
        let config = config();
        let cell = SnapshotCell::<2>::new(config);
        let mut engine = IncrementalClustering::<2>::new(config);
        for i in 0..5 {
            engine.insert(&track(i, f64::from(i) * 0.3, 25));
        }
        for i in 10..15 {
            engine.insert(&track(i, 100.0 + f64::from(i) * 0.3, 25));
        }
        let before = cell.publish_from(&engine);
        assert_eq!(before.clusters().len(), 2, "two separated bundles");
        assert_eq!(before.swept(), 2);

        engine.remove_trajectory(TrajectoryId(1));
        let after = cell.publish_from(&engine);
        assert_eq!(after.swept(), 1, "only the bundle that lost a member");
        assert_eq!(after.clusters(), &fresh(&engine)[..]);
        assert_eq!(
            after.clusters()[1].representative,
            before.clusters()[1].representative
        );

        for i in [0, 2, 3, 4] {
            engine.remove_trajectory(TrajectoryId(i));
        }
        let last = cell.publish_from(&engine);
        assert_eq!(last.swept(), 0, "the surviving bundle is unchanged");
        assert_eq!(last.clusters().len(), 1);
        assert_eq!(last.clusters()[0].representative.id, TrajectoryId(0));
        assert_eq!(last.clusters(), &fresh(&engine)[..]);
    }

    /// A trajectory id that leaves and returns with new geometry between
    /// two publishes keeps the cluster's trajectory ids and segment
    /// ordinals, but its segments take new stamps: the publish misses the
    /// cache and serves the new representative.
    #[test]
    fn reinserted_trajectory_id_misses_the_cache() {
        let config = config();
        let cell = SnapshotCell::<2>::new(config);
        let mut engine = IncrementalClustering::<2>::new(config);
        for i in 0..5 {
            engine.insert(&corridor(i, 25));
        }
        let before = cell.publish_from(&engine);
        assert_eq!(before.clusters().len(), 1);

        engine.remove_trajectory(TrajectoryId(4));
        engine.insert(&track(4, 3.0, 25));
        let after = cell.publish_from(&engine);
        assert_eq!(after.clusters(), &fresh(&engine)[..]);
        assert_eq!(after.swept(), 1);
        assert_ne!(
            after.clusters()[0].representative,
            before.clusters()[0].representative,
            "the new geometry moves the representative"
        );
    }

    /// Two clones of one engine that each take an arrival of equal length
    /// must stamp it apart: one cell fed by both then serves each clone
    /// its own representative, not the other's.
    #[test]
    fn diverged_clones_publishing_into_one_cell_stay_exact() {
        let config = config();
        let mut left = IncrementalClustering::<2>::new(config);
        for i in 0..5 {
            left.insert(&corridor(i, 25));
        }
        let mut right = left.clone();
        left.insert(&track(5, 2.0, 25));
        right.insert(&track(5, -2.0, 25));

        let cell = SnapshotCell::<2>::new(config);
        assert_eq!(cell.publish_from(&left).clusters(), &fresh(&left)[..]);
        let published = cell.publish_from(&right);
        assert_eq!(published.clusters(), &fresh(&right)[..]);
        assert_eq!(published.swept(), 1);
    }
}
