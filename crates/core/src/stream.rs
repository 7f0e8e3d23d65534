//! Streaming/incremental clustering: ingest trajectories one at a time.
//!
//! The paper's framework (Figure 4) is batch-oriented: partition every
//! trajectory, then group all segments at once. Serving-style workloads
//! instead see trajectories arrive one by one — a new storm track, a new
//! vehicle trace — and want the clustering kept current without re-running
//! the grouping phase from scratch on every arrival. This module provides
//! [`IncrementalClustering`], an online engine that
//!
//! 1. runs MDL partitioning (Section 3) on each arriving trajectory
//!    immediately ([`crate::partition::partition_trajectory_from`]),
//! 2. appends the resulting segments to the shared [`SegmentDatabase`] and
//!    inserts them into the live spatial index (the R-tree's Guttman
//!    insertion path — [`NeighborIndex::insert`]),
//! 3. repairs cluster state **locally**: the ε-neighborhoods (Definition 4)
//!    of the new segments are expanded, neighborhood cardinalities of
//!    affected segments are updated in place, segments whose core-ness
//!    (Definition 5) flips are re-expanded, and a union-find over core
//!    segments (the same min-root state the batch grouping pass builds)
//!    folds newly connected components together.
//!
//! # Exactness
//!
//! Local repair is not an approximation. Core-ness is intrinsic (it depends
//! only on the database, never on arrival order), clusters restricted to
//! cores are the connected components of the core-adjacency graph, and
//! non-core border segments join the earliest claiming component — all
//! order-free quantities, the same argument that makes the batch grouping
//! pass exact at any thread count. Insertion only ever *adds* ε-edges and
//! *promotes* segments to core — every weight is positive, and adding a
//! positive term to an ascending-id sum never lowers it — so maintaining
//! counts, a monotone union-find, and per-border claim lists reproduces the
//! batch state after every insertion: [`IncrementalClustering::snapshot`]
//! equals [`crate::LineSegmentClustering::run`] on the same prefix of the
//! stream, label for label. The equivalence suite
//! (`crates/core/tests/streaming_equivalence.rs`) locks this down on
//! hurricane, grid, and random-walk fixtures, including mid-stream
//! prefixes.
//!
//! # The dirty-region threshold
//!
//! One insertion's repair cost is proportional to its *dirty region*: the
//! new segments plus every existing segment whose core-ness flipped (each
//! needs one ε-expansion). A trajectory crossing a near-threshold region
//! can flip a large fraction of the database at once; past that point,
//! local repair costs as much as re-clustering while leaving the
//! incrementally grown R-tree less balanced than a fresh STR bulk load.
//! [`StreamConfig::rebuild_threshold`] caps the dirty fraction: when one
//! insertion dirties more than that fraction of the database, the engine
//! falls back to a full re-cluster (recomputing counts, cores, components,
//! and claims from scratch) and rebuilds the spatial index. The fallback
//! changes *when* work happens, never the result.
//!
//! # Decremental operation and the sliding window
//!
//! Serving deployments also need trajectories to *leave*: an explicit
//! retraction ([`IncrementalClustering::remove_trajectory`]) or a sliding
//! window that ages old data out ([`StreamConfig::time_window`],
//! [`StreamConfig::capacity`]). Removal is repaired by the mirror-image
//! scheme, in two halves. The analysis runs on the old database with the
//! departing ids masked out of every ε-neighborhood: the cardinalities of
//! the departed segments' surviving ε-neighbors are *recomputed* with
//! fresh whole-window sums (never decremented — repeated subtraction would
//! drift off the batch bit pattern), and every component that contained a
//! departed or demoted core is marked affected. Then the database, the
//! index and every per-id array compact once: the departed rows leave and
//! each survivor is renumbered in order, so the engine's database is
//! always the one the batch pipeline builds over the live window, ids
//! included. On the dense ids, every unaffected component transplants
//! unchanged into a fresh union-find under its minimum root — removal
//! never adds ε-edges — while the affected components' surviving cores are
//! re-expanded, which reproduces any split. The renumbering keeps id
//! order, so the min-root union-find, the ascending-id sums and the claim
//! minima all carry over. The same [`StreamConfig::rebuild_threshold`]
//! bounds the repair: an oversized dirty region falls back to the full
//! re-cluster. Either way the headline guarantee is unchanged: after every
//! operation, [`IncrementalClustering::snapshot`] equals the batch run
//! over the live window (`crates/core/tests/decremental_equivalence.rs`
//! drives random insert/remove/expiry interleavings against it).
//!
//! # Parallel repair
//!
//! Every repair and rebuild path above is dominated by ε-queries, and an
//! ε-query is a pure read of the database and index. When
//! [`crate::TraclusConfig::parallelism`] allows more than one thread, each
//! large enough sweep of queries runs on the ordered engine of the batch
//! grouping pass: scoped workers compute the neighborhoods while the
//! engine applies them on the calling thread in the sweep's order — so the
//! weighted cardinality sums, union-find merges, and claim lists are
//! bit-identical to the sequential engine's, and the snapshot guarantee is
//! untouched by the thread count. [`StreamStats::repair_parallel_batches`]
//! counts how often the workers actually engaged.

use traclus_geom::{remove_sorted, Trajectory, TrajectoryId};

use crate::cluster::{finalize_raw, ClusterConfig, Clustering};
use crate::grouping::{
    classify_forward, for_each_neighborhood, for_each_ordered, push_claim, Classification,
    Neighborhoods, UnionFind,
};
use crate::partition::partition_trajectory_from;
use crate::segment_db::{compacted_id, NeighborIndex, PruneStats, SegmentDatabase};
use crate::{TraclusConfig, TraclusOutcome};

/// Maintenance knobs of the incremental engine — the run-time parameters
/// of *streaming* operation, next to the paper's statistical ones in
/// [`TraclusConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Dirty-region fraction above which one insertion or removal triggers
    /// a full re-cluster (and index rebuild) instead of local repair.
    ///
    /// `0.0` re-clusters on every operation (the naive baseline), values
    /// `≥ 1.0` essentially never re-cluster; the default `0.25` re-clusters
    /// only when a single operation dirties a quarter of the live database.
    /// The choice never affects the resulting clustering, only where the
    /// work is spent. (For removals the dirty region counts the departed
    /// segments, their surviving ε-neighbors, and the re-expanded cores of
    /// split-suspect components — in pathological windows that sum can
    /// exceed the live count, so a threshold above `1.0` is the way to pin
    /// the engine to pure local repair in tests.)
    pub rebuild_threshold: f64,
    /// Sliding time window in logical-clock units: after each insertion,
    /// trajectories whose age (current clock minus their ingest timestamp)
    /// has reached the window are expired. [`IncrementalClustering::insert`]
    /// ticks the clock by one per call, so a window of `w` keeps the `w`
    /// most recent insertions; [`IncrementalClustering::insert_at`] lets
    /// the caller supply real (monotone) event times instead. `None`
    /// disables time-based expiry.
    ///
    /// Boundary semantics are pinned: a trajectory whose age *equals* the
    /// window (`clock − timestamp == w`) is expired, so the live window
    /// holds exactly the timestamps in the half-open interval
    /// `(clock − w, clock]`, and every trajectory ingested at one
    /// timestamp ages out atomically in the same expiry batch. (The
    /// explicit [`IncrementalClustering::expire_older_than`] is the other
    /// way around: its cutoff is exclusive — a trajectory stamped exactly
    /// `cutoff` survives. `expire_older_than(clock − w + 1)` reproduces
    /// the window policy.)
    pub time_window: Option<u64>,
    /// Maximum live trajectories: after each insertion the oldest live
    /// trajectories are expired until at most this many remain. `None`
    /// disables capacity-based expiry. Both policies may be active; the
    /// time window is applied first.
    pub capacity: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            rebuild_threshold: 0.25,
            time_window: None,
            capacity: None,
        }
    }
}

/// What one [`IncrementalClustering::insert`] did, for observability and
/// back-pressure decisions in serving loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InsertReport {
    /// Segments the MDL partitioner produced for this trajectory.
    pub new_segments: usize,
    /// Existing segments whose core-ness flipped and were re-expanded.
    pub flipped_cores: usize,
    /// Whether the dirty-region threshold forced a full re-cluster.
    pub rebuilt: bool,
    /// Trajectories the sliding-window policy expired after this insertion
    /// ([`StreamConfig::time_window`] / [`StreamConfig::capacity`]).
    pub expired_trajectories: usize,
}

/// What one [`IncrementalClustering::remove_trajectory`] (or window
/// expiry) did, the decremental sibling of [`InsertReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RemoveReport {
    /// Live trajectories the operation retired.
    pub removed_trajectories: usize,
    /// Segments removed from the database and the index.
    pub removed_segments: usize,
    /// Surviving segments whose core-ness the removal demoted.
    pub demoted_cores: usize,
    /// Whether the dirty region forced the full re-cluster fallback instead
    /// of local repair.
    pub rebuilt: bool,
}

/// Cumulative counters over the lifetime of one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Trajectories ingested (including ones that partitioned to nothing).
    pub trajectories: usize,
    /// Segments appended to the database.
    pub segments: usize,
    /// Existing segments promoted to core by a later insertion.
    pub core_flips: usize,
    /// Insertions resolved by local repair.
    pub local_repairs: usize,
    /// Insertions resolved by the full re-cluster fallback.
    pub full_rebuilds: usize,
    /// Trajectories removed (explicit removals plus window expiry).
    pub removals: usize,
    /// The subset of `removals` retired by the sliding-window policy.
    pub expired: usize,
    /// Segments retired by removals.
    pub removed_segments: usize,
    /// Surviving segments demoted from core by a removal.
    pub core_demotions: usize,
    /// Removal operations resolved by scoped local repair — the
    /// repair-vs-rebuild counter the decremental test harness pins.
    pub decremental_repairs: usize,
    /// Removal operations resolved by the full re-cluster fallback.
    pub decremental_rebuilds: usize,
    /// Repair and rebuild query sweeps that ran on the parallel workers
    /// (sweeps below the engine's inline floor run on the calling thread
    /// and are not counted).
    pub repair_parallel_batches: usize,
    /// ε-queries executed inside those parallel sweeps.
    pub repair_parallel_queries: u64,
    /// ε-neighborhood candidates examined by the filter-and-refine path
    /// (pruned + refined; 0 while pruning is disabled).
    pub prune_candidates: u64,
    /// Candidates discarded by the MBR min-distance lower bound (tier 1).
    pub pruned_mbr: u64,
    /// Candidates discarded by the midpoint/length lower bound (tier 2).
    pub pruned_midpoint: u64,
    /// Candidates discarded by the exact-angle lower bound (tier 3).
    pub pruned_angle: u64,
    /// Candidates that survived every lower bound and were scored exactly.
    pub prune_refined: u64,
}

impl StreamStats {
    /// Folds one index's filter-and-refine tallies into the lifetime
    /// counters — called when an index is retired (full rebuild) and when
    /// reporting stats from the live index.
    pub(crate) fn absorb_prune(&mut self, p: PruneStats) {
        self.prune_candidates += p.candidates;
        self.pruned_mbr += p.pruned_mbr;
        self.pruned_midpoint += p.pruned_midpoint;
        self.pruned_angle += p.pruned_angle;
        self.prune_refined += p.refined;
    }

    /// Counts one query sweep of `queries` ε-queries if it ran on the
    /// parallel workers.
    fn note_sweep(&mut self, spawned: bool, queries: usize) {
        if spawned {
            self.repair_parallel_batches += 1;
            self.repair_parallel_queries += queries as u64;
        }
    }
}

/// The online TRACLUS engine: accepts one trajectory at a time and keeps
/// the line-segment clustering current.
///
/// Construct it from a [`TraclusConfig`] (directly or via
/// [`crate::Traclus::stream`]), feed trajectories with [`Self::insert`],
/// read the clustering at any point with [`Self::snapshot`], and finish
/// with [`Self::finish`] for the full pipeline outcome including
/// representative trajectories (Section 4.3).
///
/// ```
/// use traclus_core::{IncrementalClustering, Traclus, TraclusConfig};
/// use traclus_geom::{Point2, Trajectory, TrajectoryId};
///
/// // Eight trajectories sharing one horizontal corridor.
/// let trajectories: Vec<Trajectory<2>> = (0..8)
///     .map(|i| {
///         Trajectory::new(
///             TrajectoryId(i),
///             (0..25)
///                 .map(|k| Point2::xy(k as f64 * 4.0, i as f64 * 0.3))
///                 .collect(),
///         )
///     })
///     .collect();
/// let config = TraclusConfig {
///     eps: 5.0,
///     min_lns: 3,
///     ..TraclusConfig::default()
/// };
///
/// // Stream them in one at a time…
/// let mut engine = IncrementalClustering::<2>::new(config);
/// for tr in &trajectories {
///     engine.insert(tr);
/// }
///
/// // …and the result is the batch clustering, label for label.
/// let batch = Traclus::new(config).run(&trajectories);
/// assert_eq!(engine.snapshot(), batch.clustering);
/// ```
#[derive(Clone)]
pub struct IncrementalClustering<const D: usize> {
    config: TraclusConfig,
    cluster: ClusterConfig,
    stream: StreamConfig,
    db: SegmentDatabase<D>,
    index: NeighborIndex<D>,
    /// `|Nε(L)|` per segment (weighted when configured; self included),
    /// maintained incrementally in ascending-id accumulation order — the
    /// same order the batch pass sums in, so the values are bit-identical.
    counts: Vec<f64>,
    /// Core flags (monotone under insertion), the min-root union-find over
    /// cores, and per-border claim lists (cleared when a segment becomes
    /// core; possibly stale after demotions, which [`Self::snapshot`]
    /// filters).
    classes: Classification,
    stats: StreamStats,
    /// Logical clock: ticks by one per [`Self::insert`], or jumps to the
    /// caller-supplied (monotone) timestamp in [`Self::insert_at`]. Drives
    /// [`StreamConfig::time_window`] expiry — no wall clock is ever read.
    clock: u64,
    /// Arrival log: one record per live segment-producing insertion, in
    /// ingest order. The records tile the id space: each arrival's
    /// segments directly follow the previous arrival's, so a record's ids
    /// are the running sum of the counts before it.
    arrivals: Vec<Arrival>,
}

/// One live segment-producing insertion in the arrival log.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    trajectory: TrajectoryId,
    /// Number of segments the insertion appended.
    count: u32,
    /// Logical-clock timestamp at ingest.
    timestamp: u64,
}

impl<const D: usize> IncrementalClustering<D> {
    /// An empty engine bound to a pipeline configuration (the `stream`
    /// field supplies the maintenance knobs).
    pub fn new(config: TraclusConfig) -> Self {
        assert!(config.eps > 0.0 && config.eps.is_finite(), "ε must be > 0");
        assert!(config.min_lns >= 1, "MinLns must be ≥ 1");
        let cluster = config.cluster_config();
        let db = SegmentDatabase::from_segments(Vec::new(), config.distance);
        let mut index = db.build_index(cluster.index, cluster.eps);
        index.set_pruning(cluster.pruning);
        Self {
            config,
            cluster,
            stream: config.stream,
            db,
            index,
            counts: Vec::new(),
            classes: Classification::new(0),
            stats: StreamStats::default(),
            clock: 0,
            arrivals: Vec::new(),
        }
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &TraclusConfig {
        &self.config
    }

    /// The segment database of the live window (phase 1 output): exactly
    /// what [`SegmentDatabase::from_trajectories`] builds over the live
    /// trajectories in arrival order — same ids, trajectory ids, geometry
    /// and weights.
    pub fn database(&self) -> &SegmentDatabase<D> {
        &self.db
    }

    /// Number of live (not removed or expired) segments.
    pub fn live_len(&self) -> usize {
        self.db.len()
    }

    /// Number of live trajectories in the window (segment-producing
    /// insertions not yet removed or expired).
    pub fn live_trajectories(&self) -> usize {
        self.arrivals.len()
    }

    /// The engine's logical clock: the timestamp of the latest insertion.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// True when the live window holds no segments.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Lifetime counters (trajectories, segments, flips, rebuilds,
    /// removals, filter-and-refine prune tallies). Prune counters combine
    /// the totals folded in by retired indexes (full rebuilds) with the
    /// live index's running tallies.
    pub fn stats(&self) -> StreamStats {
        let mut stats = self.stats;
        stats.absorb_prune(self.index.prune_stats());
        stats
    }

    /// Ingests one trajectory at the next logical-clock tick: partitions
    /// it (Figure 8), appends and indexes its segments, repairs cluster
    /// state — locally when the dirty region stays under
    /// [`StreamConfig::rebuild_threshold`], by a full re-cluster otherwise
    /// — and then applies the sliding-window expiry policy. Returns what
    /// happened.
    pub fn insert(&mut self, trajectory: &Trajectory<D>) -> InsertReport {
        let at = self.clock.saturating_add(1);
        self.insert_at(trajectory, at)
    }

    /// [`Self::insert`] at a caller-supplied event time, for streams with
    /// real timestamps. Times must be non-decreasing across calls (the
    /// sliding window is append-ordered); an earlier timestamp panics.
    ///
    /// ```
    /// use traclus_core::{IncrementalClustering, StreamConfig, TraclusConfig};
    /// use traclus_geom::{Point2, Trajectory, TrajectoryId};
    ///
    /// // Keep one hour of history (timestamps in seconds).
    /// let config = TraclusConfig {
    ///     eps: 5.0,
    ///     min_lns: 3,
    ///     stream: StreamConfig { time_window: Some(3600), ..StreamConfig::default() },
    ///     ..TraclusConfig::default()
    /// };
    /// let mut engine = IncrementalClustering::<2>::new(config);
    /// let track = |i: u32| Trajectory::new(
    ///     TrajectoryId(i),
    ///     (0..20).map(|k| Point2::xy(k as f64 * 5.0, i as f64 * 0.3)).collect(),
    /// );
    /// engine.insert_at(&track(0), 100);
    /// engine.insert_at(&track(1), 2_000);
    /// // Two hours later: both earlier tracks age out of the window.
    /// let report = engine.insert_at(&track(2), 7_300);
    /// assert_eq!(report.expired_trajectories, 2);
    /// assert_eq!(engine.live_trajectories(), 1);
    /// ```
    pub fn insert_at(&mut self, trajectory: &Trajectory<D>, timestamp: u64) -> InsertReport {
        assert!(
            timestamp >= self.clock,
            "stream timestamps must be non-decreasing"
        );
        self.clock = timestamp;
        self.stats.trajectories += 1;
        let first = self.db.len() as u32;
        let segments = partition_trajectory_from(&self.config.partition, trajectory, first);
        let new_count = segments.len();
        self.stats.segments += new_count;
        if new_count == 0 {
            // Nothing entered the window, but time still advanced.
            let expired = self.enforce_window();
            return InsertReport {
                expired_trajectories: expired,
                ..InsertReport::default()
            };
        }
        self.arrivals.push(Arrival {
            trajectory: trajectory.id,
            count: new_count as u32,
            timestamp,
        });
        self.db.append_segments(segments);
        let n = self.db.len() as u32;
        for id in first..n {
            self.index.insert(id, &self.db.bbox_of(id));
            self.counts.push(0.0);
            self.classes.push();
        }

        // ε-neighborhoods of every new segment, against the whole database
        // (new segments included — they are already indexed). The repair
        // below reads them twice, so they are kept, flattened.
        let new_ids: Vec<u32> = (first..n).collect();
        let mut hoods = Neighborhoods::default();
        let threads = self.threads();
        let spawned = for_each_neighborhood(
            &self.db,
            &self.index,
            &new_ids,
            self.cluster.eps,
            threads,
            |_, hood| hoods.push(hood),
        );
        self.stats.note_sweep(spawned, new_ids.len());

        // Update cardinalities: each new segment gets its full neighborhood
        // sum; each pre-existing neighbour gains the new segment's
        // contribution. Both accumulate in ascending-id order, matching the
        // batch pass bit for bit.
        let mut touched: Vec<u32> = Vec::new();
        for (k, hood) in hoods.iter().enumerate() {
            let id = first + k as u32;
            self.counts[id as usize] = self
                .db
                .neighborhood_cardinality(hood, self.cluster.weighted);
            let gain = self.db.cardinality_weight(id, self.cluster.weighted);
            for &b in hood {
                if b < first {
                    self.counts[b as usize] += gain;
                    touched.push(b);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();

        // Segments promoted to core, repaired locally.
        let mut flips: Vec<u32> = Vec::new();
        for &b in &touched {
            let was_core = self.classes.core[b as usize];
            let is_core_now = self.counts[b as usize] >= self.cluster.min_lns;
            debug_assert!(
                is_core_now || !was_core,
                "insertion demoted core {b}: with positive weights and monotone \
                 rounding, adding a term to an ascending-id sum never lowers it"
            );
            if is_core_now && !was_core {
                flips.push(b);
            }
        }
        let flipped_cores = flips.len();

        let dirty = new_count + flipped_cores;
        let rebuilt = (dirty as f64) > self.stream.rebuild_threshold * self.db.len() as f64;
        if rebuilt {
            self.rebuild();
            self.stats.full_rebuilds += 1;
        } else {
            self.repair_locally(first, &hoods, &flips);
            self.stats.local_repairs += 1;
        }
        self.stats.core_flips += flipped_cores;
        #[cfg(feature = "invariant-checks")]
        self.debug_check_insert(first, &flips);
        let expired = self.enforce_window();
        InsertReport {
            new_segments: new_count,
            flipped_cores,
            rebuilt,
            expired_trajectories: expired,
        }
    }

    /// Post-insertion sanitizer pass (`invariant-checks` feature only):
    /// union-find canonical form, segment-table coherence, arrival tiling,
    /// incrementally grown index vs full scan on the dirty region, and — at
    /// power-of-two trajectory counts, so the extra work stays O(log n)
    /// batch runs over a stream — the full snapshot == batch spot check.
    #[cfg(feature = "invariant-checks")]
    fn debug_check_insert(&self, first: u32, flips: &[u32]) {
        crate::invariants::assert_union_find_canonical(&self.classes.dsu, "stream-insert");
        crate::invariants::assert_table_coherent(&self.db, "stream-insert");
        crate::invariants::assert_arrivals_tile(&self.db, self.arrival_counts(), "stream-insert");
        let mut dirty: Vec<u32> = (first..self.db.len() as u32).collect();
        dirty.extend_from_slice(flips);
        crate::invariants::assert_index_consistent(
            &self.db,
            &self.index,
            self.cluster.eps,
            &dirty,
            "stream-insert",
        );
        if self.stats.trajectories.is_power_of_two() {
            let batch = crate::cluster::LineSegmentClustering::new(&self.db, self.cluster).run();
            assert!(
                self.snapshot() == batch,
                "invariant-checks[stream-insert]: snapshot diverged from the \
                 batch run at {} trajectories / {} live segments",
                self.stats.trajectories,
                self.db.len()
            );
        }
    }

    /// Post-removal sanitizer pass (`invariant-checks` feature only): the
    /// decremental siblings of [`Self::debug_check_insert`] — union-find
    /// canonical form over the repaired components, segment-table coherence
    /// and arrival tiling after the compaction, the compacted index vs full
    /// scan on the dirty region (dense ids), and the headline decremental
    /// guarantee itself: after **every** removal, `snapshot()` equals a
    /// batch run over the engine's own database.
    #[cfg(feature = "invariant-checks")]
    fn debug_check_remove(&self, dirty: &[u32]) {
        crate::invariants::assert_union_find_canonical(&self.classes.dsu, "stream-remove");
        crate::invariants::assert_table_coherent(&self.db, "stream-remove");
        crate::invariants::assert_arrivals_tile(&self.db, self.arrival_counts(), "stream-remove");
        crate::invariants::assert_index_consistent(
            &self.db,
            &self.index,
            self.cluster.eps,
            dirty,
            "stream-remove",
        );
        let batch = crate::cluster::LineSegmentClustering::new(&self.db, self.cluster).run();
        assert!(
            self.snapshot() == batch,
            "invariant-checks[stream-remove]: snapshot diverged from the \
             batch run over the live window ({} segments)",
            self.db.len()
        );
    }

    /// `(trajectory, segment count)` of each live arrival, in arrival
    /// order, for the tiling check.
    #[cfg(feature = "invariant-checks")]
    fn arrival_counts(&self) -> impl Iterator<Item = (TrajectoryId, u32)> + '_ {
        self.arrivals.iter().map(|a| (a.trajectory, a.count))
    }

    /// Ingests a whole sequence, returning the number of trajectories.
    pub fn extend<'a>(
        &mut self,
        trajectories: impl IntoIterator<Item = &'a Trajectory<D>>,
    ) -> usize {
        let mut count = 0;
        for tr in trajectories {
            self.insert(tr);
            count += 1;
        }
        count
    }

    /// Retires every live arrival of trajectory `id` from the window and
    /// repairs the clustering in place: the departed segments leave the
    /// database and the spatial index, neighborhood cardinalities across
    /// the dirty ε-region are recomputed, demoted cores turn back into
    /// border candidates, and any component the trajectory held together is
    /// rebuilt from its survivors — splitting it when the removed segments
    /// were the bridge. Exactness is preserved: the post-removal
    /// [`Self::snapshot`] equals a batch run over the surviving window,
    /// label for label.
    ///
    /// Removing an id with no live arrivals is a no-op (default report).
    /// The same trajectory id may be re-inserted later; its segments join
    /// the end of the window, like any new arrival's.
    ///
    /// ```
    /// use traclus_core::{IncrementalClustering, Traclus, TraclusConfig};
    /// use traclus_geom::{Point2, Trajectory, TrajectoryId};
    ///
    /// let track = |i: u32| Trajectory::new(
    ///     TrajectoryId(i),
    ///     (0..20).map(|k| Point2::xy(k as f64 * 5.0, i as f64 * 0.4)).collect(),
    /// );
    /// let config = TraclusConfig { eps: 3.0, min_lns: 3, ..TraclusConfig::default() };
    /// let mut engine = IncrementalClustering::<2>::new(config);
    /// for i in 0..6 {
    ///     engine.insert(&track(i));
    /// }
    ///
    /// let report = engine.remove_trajectory(TrajectoryId(2));
    /// assert_eq!(report.removed_trajectories, 1);
    /// assert_eq!(engine.live_trajectories(), 5);
    ///
    /// // Exactness: the snapshot equals the batch run without track 2.
    /// let survivors: Vec<_> = (0..6).filter(|&i| i != 2).map(track).collect();
    /// let batch = Traclus::new(config).run(&survivors);
    /// assert_eq!(engine.snapshot(), batch.clustering);
    /// ```
    pub fn remove_trajectory(&mut self, id: TrajectoryId) -> RemoveReport {
        self.remove_arrivals(|_, a| a.trajectory == id)
    }

    /// Expires every live trajectory whose ingest timestamp is strictly
    /// before `cutoff` — the explicit form of [`StreamConfig::time_window`]
    /// expiry, for callers driving the window themselves. The cutoff is
    /// exclusive: a trajectory stamped exactly `cutoff` survives (whereas
    /// the window policy expires a trajectory whose age exactly equals the
    /// window — see [`StreamConfig::time_window`]).
    pub fn expire_older_than(&mut self, cutoff: u64) -> RemoveReport {
        let report = self.remove_arrivals(|_, a| a.timestamp < cutoff);
        self.stats.expired += report.removed_trajectories;
        report
    }

    /// Expires the oldest live trajectories until at most `keep` remain —
    /// the explicit form of [`StreamConfig::capacity`] expiry.
    pub fn expire_to_capacity(&mut self, keep: usize) -> RemoveReport {
        let excess = self.arrivals.len().saturating_sub(keep);
        let report = self.remove_arrivals(|k, _| k < excess);
        self.stats.expired += report.removed_trajectories;
        report
    }

    /// Applies the configured sliding-window policy after an insertion:
    /// ages out trajectories past [`StreamConfig::time_window`], then
    /// retires oldest-first down to [`StreamConfig::capacity`]. One batched
    /// removal covers both. Returns the number of expired trajectories.
    fn enforce_window(&mut self) -> usize {
        let (window, capacity, clock) = (self.stream.time_window, self.stream.capacity, self.clock);
        if window.is_none() && capacity.is_none() {
            return 0;
        }
        // Timestamps are non-decreasing, so both policies expire a prefix
        // of the log.
        let excess = capacity.map_or(0, |cap| self.arrivals.len().saturating_sub(cap));
        let aged_out = |a: &Arrival| window.is_some_and(|w| clock.saturating_sub(a.timestamp) >= w);
        let report = self.remove_arrivals(|k, a| k < excess || aged_out(a));
        self.stats.expired += report.removed_trajectories;
        report.removed_trajectories
    }

    /// Retires the live arrivals `kill` selects — it sees each record with
    /// its position in the log — and repairs the clustering in one batched
    /// removal.
    fn remove_arrivals(&mut self, mut kill: impl FnMut(usize, &Arrival) -> bool) -> RemoveReport {
        let mut removed: Vec<u32> = Vec::new();
        let (mut position, mut first) = (0usize, 0u32);
        let before = self.arrivals.len();
        self.arrivals.retain(|a| {
            let dead = kill(position, a);
            if dead {
                removed.extend(first..first + a.count);
            }
            position += 1;
            first += a.count;
            !dead
        });
        let killed = before - self.arrivals.len();
        if killed == 0 {
            return RemoveReport::default();
        }
        // The arrivals tile the id space in log order, so `removed` is
        // ascending and duplicate-free.
        self.apply_removal(killed, removed)
    }

    /// The decremental workhorse. It analyses the dirty ε-region on the
    /// old database with the ascending ids `removed` masked out of every
    /// neighborhood: the dirty cardinalities are recomputed with fresh
    /// whole-window sums (never incremental subtraction, which would drift
    /// off the batch bit pattern), and the components the removal may have
    /// split are found. It then compacts the database, the index and the
    /// per-id state once, and repairs the component structure on the dense
    /// ids — scoped local repair when the dirty region stays under
    /// [`StreamConfig::rebuild_threshold`], the full re-cluster fallback
    /// otherwise.
    fn apply_removal(&mut self, removed_trajectories: usize, removed: Vec<u32>) -> RemoveReport {
        self.stats.removals += removed_trajectories;
        self.stats.removed_segments += removed.len();
        let departed = |id: u32| removed.binary_search(&id).is_ok();

        // 1. Dirty region: the surviving ε-neighbors of the departed
        //    segments.
        let mut dirty: Vec<u32> = Vec::new();
        let (threads, eps) = (self.threads(), self.cluster.eps);
        let spawned = for_each_surviving_neighborhood(
            &self.db,
            &self.index,
            &removed,
            &removed,
            eps,
            threads,
            |_, hood| dirty.extend_from_slice(hood),
        );
        self.stats.note_sweep(spawned, removed.len());
        dirty.sort_unstable();
        dirty.dedup();

        // 2. Recompute the dirty cardinalities in ascending id order — the
        //    accumulation order the batch pass uses, so the sums stay
        //    bit-identical. Collect core demotions.
        let mut demoted: Vec<u32> = Vec::new();
        let (db, cluster, counts, core) = (
            &self.db,
            &self.cluster,
            &mut self.counts,
            &self.classes.core,
        );
        let spawned = for_each_surviving_neighborhood(
            db,
            &self.index,
            &dirty,
            &removed,
            eps,
            threads,
            |d, hood| {
                counts[d as usize] = db.neighborhood_cardinality(hood, cluster.weighted);
                let is_core = counts[d as usize] >= cluster.min_lns;
                debug_assert!(
                    core[d as usize] || !is_core,
                    "removal promoted segment {d}: with positive weights and monotone \
                     rounding, dropping a term from an ascending-id sum never raises it"
                );
                if core[d as usize] && !is_core {
                    demoted.push(d);
                }
            },
        );
        self.stats.note_sweep(spawned, dirty.len());

        // 3. Affected components: any old component holding a departed or
        //    demoted core may have split and must be rebuilt from its
        //    survivors. Every other component is untouched — removal never
        //    adds ε-edges, so no cross-component merge can be pending.
        //    Roots are read before any core flag changes.
        let mut affected_roots: Vec<u32> = Vec::new();
        for &r in &removed {
            if self.classes.core[r as usize] {
                affected_roots.push(self.classes.dsu.find_readonly(r));
            }
        }
        for &d in &demoted {
            affected_roots.push(self.classes.dsu.find_readonly(d));
        }
        affected_roots.sort_unstable();
        affected_roots.dedup();

        // 4. Partition the surviving cores: members of affected components
        //    get re-expanded; the rest transplant wholesale under their
        //    old root, which is itself a surviving core.
        let mut affected_cores: Vec<u32> = Vec::new();
        let mut keep: Vec<(u32, u32)> = Vec::new();
        for id in 0..self.db.len() as u32 {
            if !self.classes.core[id as usize] || departed(id) || demoted.binary_search(&id).is_ok()
            {
                continue;
            }
            let root = self.classes.dsu.find_readonly(id);
            if affected_roots.binary_search(&root).is_ok() {
                affected_cores.push(id);
            } else {
                keep.push((root, id));
            }
        }

        // 5. Compact: the departed rows leave the database, the index and
        //    the per-id state, and every survivor is renumbered in order.
        self.db.remove_segments(&removed, &mut self.index);
        remove_sorted(&mut self.counts, &removed);
        self.classes.compact(&removed);
        let renumber = |id: &mut u32| *id = compacted_id(&removed, *id);
        dirty.iter_mut().for_each(renumber);
        demoted.iter_mut().for_each(renumber);
        affected_cores.iter_mut().for_each(renumber);
        for (root, id) in &mut keep {
            renumber(root);
            renumber(id);
        }

        // 6. Repair or rebuild on the dense ids.
        let work = removed.len() + dirty.len() + affected_cores.len();
        let rebuilt = (work as f64) > self.stream.rebuild_threshold * self.db.len().max(1) as f64;
        if rebuilt {
            self.rebuild();
            self.stats.decremental_rebuilds += 1;
        } else {
            self.repair_removal(&demoted, &keep, &affected_cores);
            self.stats.decremental_repairs += 1;
        }
        self.stats.core_demotions += demoted.len();
        #[cfg(feature = "invariant-checks")]
        self.debug_check_remove(&dirty);
        RemoveReport {
            removed_trajectories,
            removed_segments: removed.len(),
            demoted_cores: demoted.len(),
            rebuilt,
        }
    }

    /// Scoped decremental repair on the compacted ids, starting from the
    /// singleton union-find [`Classification::compact`] leaves: unaffected
    /// components transplant wholesale under their minimum root, demoted
    /// cores turn into border candidates, and the surviving cores of
    /// affected components are re-expanded from scratch — the same min-root
    /// rules as the batch grouping pass, confined to the components the
    /// removal could have split.
    ///
    /// A demoted segment needs no ε-query of its own. It was a core, so
    /// every surviving core within ε of it shared its component; those
    /// cores are all affected, and their re-expansion lands their claims
    /// on it. Claims its non-core neighbours still hold on it go stale,
    /// and [`Classification::raw_labels`] skips claims by non-cores.
    fn repair_removal(&mut self, demoted: &[u32], keep: &[(u32, u32)], affected_cores: &[u32]) {
        // All demotions land before any core is re-expanded, so the
        // expansions claim the demoted segments instead of joining them.
        for &d in demoted {
            self.classes.core[d as usize] = false;
        }

        // Transplant the unaffected components. Each member joins its old
        // root, the component's minimum surviving core — the root the
        // batch pass would seed the component with.
        for &(root, id) in keep {
            self.classes.dsu.union(root, id);
        }

        // Re-expand every surviving core of an affected component with a
        // fresh ε-query: their mutual unions rebuild exactly the
        // post-removal connectivity (splits fall out naturally), and their
        // claims re-land on bordering non-cores (duplicates are harmless —
        // the snapshot takes a min over live core claims).
        let (threads, eps) = (self.threads(), self.cluster.eps);
        let classes = &mut self.classes;
        let spawned = for_each_neighborhood(
            &self.db,
            &self.index,
            affected_cores,
            eps,
            threads,
            |c, hood| classes.expand_core(c, hood),
        );
        self.stats.note_sweep(spawned, affected_cores.len());
    }

    /// Local repair: mark the new core flags, then re-expand exactly the
    /// dirty region — flipped segments get a fresh ε-query, new segments
    /// reuse the neighborhoods computed during the count update — unioning
    /// core–core edges and recording core→border claims.
    fn repair_locally(&mut self, first: u32, hoods: &Neighborhoods, flips: &[u32]) {
        let n = self.db.len() as u32;
        for &b in flips {
            self.classes.core[b as usize] = true;
        }
        for id in first..n {
            self.classes.core[id as usize] = self.counts[id as usize] >= self.cluster.min_lns;
        }
        // Segments that became core *this* insertion, ascending (flips are
        // all below `first`, new ids at/above it). Their own expansions
        // record every edge they participate in; older cores' edges to new
        // non-core segments are recorded from the non-core side below.
        let mut fresh: Vec<u32> = flips.to_vec();
        fresh.extend((first..n).filter(|&id| self.classes.core[id as usize]));
        let (threads, eps) = (self.threads(), self.cluster.eps);
        let classes = &mut self.classes;
        let spawned =
            for_each_neighborhood(&self.db, &self.index, flips, eps, threads, |c, hood| {
                classes.expand_core(c, hood)
            });
        self.stats.note_sweep(spawned, flips.len());
        for (k, hood) in hoods.iter().enumerate() {
            let id = first + k as u32;
            if self.classes.core[id as usize] {
                self.classes.expand_core(id, hood);
            } else {
                for &m in hood {
                    if m != id && self.classes.core[m as usize] && fresh.binary_search(&m).is_err()
                    {
                        push_claim(&mut self.classes.claims[id as usize], m);
                    }
                }
            }
        }
    }

    /// Worker threads for ε-query sweeps ([`crate::Parallelism`]).
    fn threads(&self) -> usize {
        self.cluster.parallelism.thread_count()
    }

    /// The fallback: recompute counts, core flags, components, and claims
    /// from scratch over the whole database, against a freshly bulk-built
    /// index (undoing any R-tree degradation from incremental inserts).
    ///
    /// This is the batch grouping pass: one forward-only ε-query per
    /// segment, with the backward half of each neighbourhood carried from
    /// earlier ids, fixes its count and core flag, and visiting ids
    /// ascending lets every backward edge be classified on the spot (see
    /// the `grouping` module docs for why later repairs stay exact on top
    /// of it).
    fn rebuild(&mut self) {
        // The outgoing index carries prune tallies the lifetime stats must
        // keep; fold them in before the replacement drops it.
        self.stats.absorb_prune(self.index.prune_stats());
        self.index = self.db.build_index(self.cluster.index, self.cluster.eps);
        self.index.set_pruning(self.cluster.pruning);
        self.classes.dsu = UnionFind::new(self.db.len() as u32);
        let spawned = classify_forward(
            &self.db,
            &self.index,
            &self.cluster,
            self.threads(),
            &mut self.counts,
            &mut self.classes,
        );
        self.stats.note_sweep(spawned, self.db.len());
        #[cfg(feature = "invariant-checks")]
        crate::invariants::assert_counts_exact(
            &self.db,
            &self.cluster,
            &self.counts,
            &self.classes,
            "stream-rebuild",
        );
    }

    /// The current clustering, identical to what the batch
    /// [`crate::LineSegmentClustering::run`] produces on the segments
    /// ingested so far: components are numbered in ascending minimum-core-id
    /// order (the sequential seed order), border segments join their
    /// earliest claiming component, and the Definition 10
    /// trajectory-cardinality filter runs last.
    pub fn snapshot(&self) -> Clustering {
        let (raw, cluster_count) = self.classes.raw_labels();
        finalize_raw(
            &self.db,
            &raw,
            cluster_count,
            self.cluster.trajectory_threshold(),
        )
    }

    /// Consumes the engine and returns the full pipeline outcome — the
    /// current clustering plus one representative trajectory per cluster,
    /// exactly as [`crate::Traclus::run`] would deliver for the live
    /// window's trajectories.
    pub fn finish(self) -> TraclusOutcome<D> {
        let clustering = self.snapshot();
        crate::attach_representatives(&self.config, self.db, clustering)
    }
}

/// [`for_each_neighborhood`] with the ascending ids `departed` masked out
/// of every neighborhood, so a removal's analysis on the old database sees
/// exactly the post-removal window.
fn for_each_surviving_neighborhood<const D: usize>(
    db: &SegmentDatabase<D>,
    index: &NeighborIndex<D>,
    ids: &[u32],
    departed: &[u32],
    eps: f64,
    threads: usize,
    mut visit: impl FnMut(u32, &[u32]),
) -> bool {
    let fill = |&id: &u32, hood: &mut Vec<u32>| {
        db.neighborhood_into(index, id, eps, hood);
        hood.retain(|m| departed.binary_search(m).is_err());
    };
    for_each_ordered(ids, threads, fill, |&id, hood| visit(id, hood))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LineSegmentClustering, SegmentLabel};
    use traclus_geom::{Point2, TrajectoryId};

    /// A straight horizontal trajectory at height `y` with `points` fixes.
    fn corridor(id: u32, y: f64, points: usize) -> Trajectory<2> {
        Trajectory::new(
            TrajectoryId(id),
            (0..points).map(|k| Point2::xy(k as f64 * 5.0, y)).collect(),
        )
    }

    fn config(eps: f64, min_lns: usize) -> TraclusConfig {
        TraclusConfig {
            eps,
            min_lns,
            ..TraclusConfig::default()
        }
    }

    fn batch_clustering(config: &TraclusConfig, trajectories: &[Trajectory<2>]) -> Clustering {
        let db =
            SegmentDatabase::from_trajectories(trajectories, &config.partition, config.distance);
        LineSegmentClustering::new(&db, config.cluster_config()).run()
    }

    #[test]
    fn empty_engine_snapshot_is_empty() {
        let engine = IncrementalClustering::<2>::new(config(2.0, 3));
        let snap = engine.snapshot();
        assert!(snap.clusters.is_empty());
        assert!(snap.labels.is_empty());
        assert!(engine.is_empty());
    }

    #[test]
    fn degenerate_trajectories_produce_no_segments() {
        let mut engine = IncrementalClustering::<2>::new(config(2.0, 3));
        // Single point: nothing to partition.
        let report = engine.insert(&Trajectory::new(
            TrajectoryId(0),
            vec![Point2::xy(1.0, 1.0)],
        ));
        assert_eq!(report, InsertReport::default());
        // All points identical: every partition is degenerate and dropped.
        let report = engine.insert(&Trajectory::new(
            TrajectoryId(1),
            vec![Point2::xy(2.0, 2.0); 5],
        ));
        assert_eq!(report.new_segments, 0);
        assert!(engine.is_empty());
        assert_eq!(engine.stats().trajectories, 2);
    }

    #[test]
    fn streaming_matches_batch_on_growing_corridor() {
        let trajectories: Vec<Trajectory<2>> =
            (0..7).map(|i| corridor(i, i as f64 * 0.4, 20)).collect();
        let cfg = config(3.0, 3);
        let mut engine = IncrementalClustering::<2>::new(cfg);
        for k in 0..trajectories.len() {
            engine.insert(&trajectories[k]);
            // The invariant is strong: after EVERY insertion the snapshot
            // equals the batch run on the prefix, label for label.
            assert_eq!(
                engine.snapshot(),
                batch_clustering(&cfg, &trajectories[..=k]),
                "diverged after trajectory {k}"
            );
        }
        assert_eq!(engine.stats().trajectories, 7);
        assert_eq!(engine.live_len(), engine.snapshot().labels.len());
    }

    #[test]
    fn late_arrival_flips_borders_to_core() {
        // Two trajectories are too sparse to cluster; the third makes the
        // earlier segments core retroactively.
        let trajectories: Vec<Trajectory<2>> =
            (0..3).map(|i| corridor(i, i as f64 * 0.3, 15)).collect();
        let cfg = config(2.0, 3);
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.insert(&trajectories[0]);
        engine.insert(&trajectories[1]);
        assert!(
            engine.snapshot().clusters.is_empty(),
            "not dense enough yet"
        );
        let report = engine.insert(&trajectories[2]);
        assert!(
            report.rebuilt || report.flipped_cores > 0,
            "third corridor must promote earlier segments"
        );
        let snap = engine.snapshot();
        assert_eq!(snap.clusters.len(), 1);
        assert_eq!(snap, batch_clustering(&cfg, &trajectories));
    }

    #[test]
    fn bridge_trajectory_merges_two_clusters() {
        // Two far-apart corridors cluster separately; a later bridge at an
        // intermediate height connects them into one component.
        let mut trajectories: Vec<Trajectory<2>> = Vec::new();
        for i in 0..4 {
            trajectories.push(corridor(i, i as f64 * 0.3, 15));
        }
        for i in 0..4 {
            trajectories.push(corridor(10 + i, 4.0 + i as f64 * 0.3, 15));
        }
        let cfg = config(2.0, 3);
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.extend(&trajectories);
        assert_eq!(
            engine.snapshot().clusters.len(),
            2,
            "two separate corridors"
        );
        // The bridge sits within ε of the top of band A (y = 0.9) and the
        // bottom of band B (y = 4.0), and is itself core.
        trajectories.push(corridor(99, 2.45, 15));
        engine.insert(trajectories.last().unwrap());
        let snap = engine.snapshot();
        assert_eq!(snap.clusters.len(), 1, "bridge merges the components");
        assert_eq!(snap, batch_clustering(&cfg, &trajectories));
    }

    #[test]
    fn rebuild_thresholds_change_work_not_results() {
        let trajectories: Vec<Trajectory<2>> =
            (0..6).map(|i| corridor(i, i as f64 * 0.4, 18)).collect();
        let base = config(3.0, 3);
        let mut snapshots = Vec::new();
        for threshold in [0.0, 0.25, 1.0] {
            let cfg = TraclusConfig {
                stream: StreamConfig {
                    rebuild_threshold: threshold,
                    ..StreamConfig::default()
                },
                ..base
            };
            let mut engine = IncrementalClustering::<2>::new(cfg);
            engine.extend(&trajectories);
            if threshold == 0.0 {
                assert_eq!(
                    engine.stats().local_repairs,
                    0,
                    "threshold 0 must always rebuild"
                );
            }
            if threshold >= 1.0 {
                assert_eq!(
                    engine.stats().full_rebuilds,
                    0,
                    "threshold ≥ 1 must never rebuild"
                );
            }
            snapshots.push(engine.snapshot());
        }
        assert_eq!(snapshots[0], snapshots[1]);
        assert_eq!(snapshots[0], snapshots[2]);
        assert_eq!(snapshots[0], batch_clustering(&base, &trajectories));
    }

    #[test]
    fn removal_matches_batch_on_live_window() {
        let trajectories: Vec<Trajectory<2>> =
            (0..7).map(|i| corridor(i, i as f64 * 0.4, 20)).collect();
        let cfg = config(3.0, 3);
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.extend(&trajectories);
        // Remove from the middle, the front, and the back; after every
        // removal the snapshot equals the batch run on the survivors.
        let mut live = trajectories.clone();
        for id in [3u32, 0, 6] {
            let report = engine.remove_trajectory(TrajectoryId(id));
            assert_eq!(report.removed_trajectories, 1);
            assert!(report.removed_segments > 0);
            live.retain(|t| t.id != TrajectoryId(id));
            assert_eq!(
                engine.snapshot(),
                batch_clustering(&cfg, &live),
                "after removing {id}"
            );
        }
        assert_eq!(engine.live_trajectories(), 4);
        assert_eq!(engine.stats().removals, 3);
        // Unknown or already-removed trajectories are a no-op.
        assert_eq!(
            engine.remove_trajectory(TrajectoryId(3)),
            RemoveReport::default()
        );
    }

    #[test]
    fn removal_after_rebuild_relands_skipped_claims() {
        // Four stacked cores (ids 0–3, offsets 0.5 apart) and a border
        // (id 4) within ε of cores 2 and 3 only. The rebuild's carry hands
        // the border core 2 and skips core 3, which shares its root; when
        // core 2 leaves, the repair must re-land core 3's claim.
        let bar = |id: u32, y: f64| {
            Trajectory::new(
                TrajectoryId(id),
                vec![Point2::xy(0.0, y), Point2::xy(10.0, y)],
            )
        };
        let trajectories: Vec<Trajectory<2>> = [0.0, 0.5, 1.0, 1.5, 2.9]
            .iter()
            .enumerate()
            .map(|(i, &y)| bar(i as u32, y))
            .collect();
        let cfg = TraclusConfig {
            stream: StreamConfig {
                rebuild_threshold: 10.0,
                ..StreamConfig::default()
            },
            ..config(2.0, 4)
        };
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.extend(&trajectories);
        engine.rebuild();
        assert_eq!(engine.classes.core, [true, true, true, true, false]);
        assert_eq!(engine.classes.claims[4], [2], "core 3 was skipped");

        let report = engine.remove_trajectory(TrajectoryId(2));
        assert!(!report.rebuilt, "threshold 10 pins local repair");
        let live: Vec<Trajectory<2>> = trajectories
            .iter()
            .filter(|t| t.id != TrajectoryId(2))
            .cloned()
            .collect();
        let snap = engine.snapshot();
        assert_eq!(snap, batch_clustering(&cfg, &live));
        assert!(
            matches!(snap.labels[3], SegmentLabel::Cluster(_)),
            "the border keeps its cluster through core 3"
        );
    }

    #[test]
    fn removal_demotes_a_core_that_stays_a_border_of_its_component() {
        // Five bars, ε = 2, MinLns = 4: the four lowest are cores. Removing
        // the bar at y = 0 drops the bars at y = 0.5 and y = 1 to three
        // neighbours each — demoted — while both stay within ε of the core
        // at y = 1.5, which keeps four. The repair must land that core's
        // claim on them, so they stay border members of its cluster.
        let bar = |id: u32, y: f64| {
            Trajectory::new(
                TrajectoryId(id),
                vec![Point2::xy(0.0, y), Point2::xy(10.0, y)],
            )
        };
        let trajectories: Vec<Trajectory<2>> = [0.0, 0.5, 1.0, 1.5, 3.4]
            .iter()
            .enumerate()
            .map(|(i, &y)| bar(i as u32, y))
            .collect();
        let cfg = TraclusConfig {
            stream: StreamConfig {
                rebuild_threshold: 10.0,
                ..StreamConfig::default()
            },
            ..config(2.0, 4)
        };
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.extend(&trajectories);
        assert_eq!(engine.classes.core, [true, true, true, true, false]);

        let report = engine.remove_trajectory(TrajectoryId(0));
        assert!(!report.rebuilt, "threshold 10 pins local repair");
        assert_eq!(report.demoted_cores, 2);
        // Ids after the compaction: y = 0.5, 1, 1.5, 3.4.
        assert_eq!(engine.classes.core, [false, false, true, false]);
        let snap = engine.snapshot();
        assert_eq!(snap, batch_clustering(&cfg, &trajectories[1..]));
        for demoted in [0, 1] {
            assert_eq!(
                snap.labels[demoted], snap.labels[2],
                "demoted segment {demoted} stays a border of the core's cluster"
            );
        }
        assert!(matches!(snap.labels[2], SegmentLabel::Cluster(_)));
    }

    #[test]
    fn bridge_removal_splits_cluster_via_local_repair() {
        // Two corridors held together by one bridge trajectory. Removing
        // the bridge must split the component back in two — through the
        // scoped repair path, pinned by an unreachable rebuild threshold.
        let mut trajectories: Vec<Trajectory<2>> = Vec::new();
        for i in 0..4 {
            trajectories.push(corridor(i, i as f64 * 0.3, 15));
        }
        for i in 0..4 {
            trajectories.push(corridor(10 + i, 4.0 + i as f64 * 0.3, 15));
        }
        trajectories.push(corridor(99, 2.45, 15));
        let cfg = TraclusConfig {
            stream: StreamConfig {
                rebuild_threshold: 10.0,
                ..StreamConfig::default()
            },
            ..config(2.0, 3)
        };
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.extend(&trajectories);
        assert_eq!(engine.snapshot().clusters.len(), 1, "bridge merges all");

        let report = engine.remove_trajectory(TrajectoryId(99));
        assert!(!report.rebuilt, "threshold 10 pins local repair");
        assert_eq!(engine.stats().decremental_repairs, 1);
        assert_eq!(engine.stats().decremental_rebuilds, 0);
        trajectories.pop();
        let snap = engine.snapshot();
        assert_eq!(snap.clusters.len(), 2, "removal splits the component");
        assert_eq!(snap, batch_clustering(&cfg, &trajectories));
    }

    #[test]
    fn removal_demotes_cores_to_noise() {
        // Exactly MinLns corridors: every segment is core. Dropping one
        // corridor pushes the survivors below the threshold — demotion to
        // noise, and an empty clustering.
        let trajectories: Vec<Trajectory<2>> =
            (0..3).map(|i| corridor(i, i as f64 * 0.3, 15)).collect();
        let cfg = config(2.0, 3);
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.extend(&trajectories);
        assert!(!engine.snapshot().clusters.is_empty());
        let report = engine.remove_trajectory(TrajectoryId(1));
        assert!(report.demoted_cores > 0, "survivors fall below MinLns");
        assert_eq!(engine.stats().core_demotions, report.demoted_cores);
        let snap = engine.snapshot();
        assert!(snap.clusters.is_empty(), "no cores survive");
        let live = vec![trajectories[0].clone(), trajectories[2].clone()];
        assert_eq!(snap, batch_clustering(&cfg, &live));
    }

    #[test]
    fn removed_trajectory_id_can_be_reinserted() {
        let cfg = config(3.0, 3);
        let trajectories: Vec<Trajectory<2>> =
            (0..5).map(|i| corridor(i, i as f64 * 0.4, 18)).collect();
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.extend(&trajectories);
        engine.remove_trajectory(TrajectoryId(2));
        // The trajectory id is reusable; its segments join the end of the
        // window.
        engine.insert(&trajectories[2]);
        let mut live = trajectories.clone();
        live.retain(|t| t.id != TrajectoryId(2));
        live.push(trajectories[2].clone());
        assert_eq!(engine.snapshot(), batch_clustering(&cfg, &live));
        assert_eq!(engine.live_trajectories(), 5);
    }

    #[test]
    fn capacity_window_keeps_newest() {
        let cfg = TraclusConfig {
            stream: StreamConfig {
                capacity: Some(3),
                ..StreamConfig::default()
            },
            ..config(3.0, 2)
        };
        let trajectories: Vec<Trajectory<2>> =
            (0..8).map(|i| corridor(i, i as f64 * 0.4, 18)).collect();
        let mut engine = IncrementalClustering::<2>::new(cfg);
        for (k, t) in trajectories.iter().enumerate() {
            let report = engine.insert(t);
            if k >= 3 {
                assert_eq!(report.expired_trajectories, 1, "one in, one out");
            }
            let lo = k.saturating_sub(2);
            assert_eq!(
                engine.snapshot(),
                batch_clustering(&cfg, &trajectories[lo..=k]),
                "window after insert {k}"
            );
        }
        assert_eq!(engine.live_trajectories(), 3);
        assert_eq!(engine.stats().expired, 5);
        assert_eq!(engine.stats().removals, 5);
    }

    #[test]
    fn explicit_expiry_helpers() {
        let cfg = config(3.0, 2);
        let trajectories: Vec<Trajectory<2>> =
            (0..6).map(|i| corridor(i, i as f64 * 0.4, 18)).collect();
        let mut engine = IncrementalClustering::<2>::new(cfg);
        for (k, t) in trajectories.iter().enumerate() {
            engine.insert_at(t, 10 * (k as u64 + 1));
        }
        // Timestamps are 10..=60; cutting below 31 drops the first three.
        let report = engine.expire_older_than(31);
        assert_eq!(report.removed_trajectories, 3);
        assert_eq!(
            engine.snapshot(),
            batch_clustering(&cfg, &trajectories[3..])
        );
        let report = engine.expire_to_capacity(1);
        assert_eq!(report.removed_trajectories, 2);
        assert_eq!(
            engine.snapshot(),
            batch_clustering(&cfg, &trajectories[5..])
        );
        assert_eq!(engine.stats().expired, 5);
    }

    #[test]
    fn parallel_repair_is_identical_to_sequential() {
        use crate::Parallelism;
        // rebuild_threshold 0 forces the full re-cluster on every
        // operation, so once the window holds ≥ INLINE_BELOW live segments
        // every rebuild's query sweep crosses the engine's inline floor and
        // actually engages the workers.
        let trajectories: Vec<Trajectory<2>> =
            (0..80).map(|i| corridor(i, i as f64 * 0.1, 12)).collect();
        let with = |parallelism| TraclusConfig {
            parallelism,
            stream: StreamConfig {
                rebuild_threshold: 0.0,
                ..StreamConfig::default()
            },
            ..config(3.0, 3)
        };
        let mut sequential = IncrementalClustering::<2>::new(with(Parallelism::Sequential));
        let mut reference = Vec::new();
        for t in &trajectories {
            sequential.insert(t);
            reference.push(sequential.snapshot());
        }
        sequential.remove_trajectory(TrajectoryId(7));
        let after_removal = sequential.snapshot();
        assert_eq!(
            sequential.stats().repair_parallel_batches,
            0,
            "sequential engine must never fan out"
        );
        for threads in [2usize, 4, 8] {
            let mut engine = IncrementalClustering::<2>::new(with(Parallelism::Threads(threads)));
            for (k, t) in trajectories.iter().enumerate() {
                engine.insert(t);
                assert_eq!(
                    engine.snapshot(),
                    reference[k],
                    "t={threads} diverged after trajectory {k}"
                );
            }
            engine.remove_trajectory(TrajectoryId(7));
            assert_eq!(
                engine.snapshot(),
                after_removal,
                "t={threads} diverged after removal"
            );
            let stats = engine.stats();
            assert!(
                stats.repair_parallel_batches > 0,
                "t={threads} never engaged the parallel path"
            );
            assert!(stats.repair_parallel_queries >= crate::grouping::INLINE_BELOW as u64);
        }
    }

    #[test]
    fn window_boundary_expires_equal_timestamps_atomically() {
        // Three tracks share one ingest timestamp under a window of 50:
        // they must survive at age 49 and all expire together — in one
        // batch — the moment their age reaches the window.
        let cfg = TraclusConfig {
            stream: StreamConfig {
                time_window: Some(50),
                ..StreamConfig::default()
            },
            ..config(3.0, 2)
        };
        let trajectories: Vec<Trajectory<2>> =
            (0..3).map(|i| corridor(i, i as f64 * 0.4, 18)).collect();
        let mut engine = IncrementalClustering::<2>::new(cfg);
        for t in &trajectories {
            engine.insert_at(t, 100);
        }
        assert_eq!(engine.live_trajectories(), 3);
        // Probes far outside ε of the corridor band, so expiry is the only
        // thing they change. Age 49 < w: everything survives…
        let report = engine.insert_at(&corridor(90, 500.0, 18), 149);
        assert_eq!(report.expired_trajectories, 0);
        assert_eq!(engine.live_trajectories(), 4);
        // …age exactly w: the whole equal-timestamp batch goes at once.
        let report = engine.insert_at(&corridor(91, 600.0, 18), 150);
        assert_eq!(report.expired_trajectories, 3, "boundary is inclusive");
        assert_eq!(engine.live_trajectories(), 2);
        // The snapshot still equals the batch run over the survivors.
        let survivors = vec![corridor(90, 500.0, 18), corridor(91, 600.0, 18)];
        assert_eq!(engine.snapshot(), batch_clustering(&cfg, &survivors));

        // The explicit helper is exclusive at its cutoff, by contrast: a
        // trajectory stamped exactly `cutoff` survives.
        let cfg = config(3.0, 2);
        let mut engine = IncrementalClustering::<2>::new(cfg);
        for t in &trajectories {
            engine.insert_at(t, 100);
        }
        assert_eq!(engine.expire_older_than(100), RemoveReport::default());
        assert_eq!(engine.live_trajectories(), 3);
        let report = engine.expire_older_than(101);
        assert_eq!(report.removed_trajectories, 3);
        assert!(engine.is_empty());
        assert_eq!(engine.live_trajectories(), 0);
        assert!(engine.snapshot().clusters.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn backwards_timestamps_rejected() {
        let mut engine = IncrementalClustering::<2>::new(config(3.0, 3));
        engine.insert_at(&corridor(0, 0.0, 10), 100);
        engine.insert_at(&corridor(1, 0.4, 10), 99);
    }

    #[test]
    fn finish_attaches_representatives() {
        let trajectories: Vec<Trajectory<2>> =
            (0..5).map(|i| corridor(i, i as f64 * 0.4, 20)).collect();
        let cfg = config(3.0, 3);
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.extend(&trajectories);
        let outcome = engine.finish();
        assert_eq!(outcome.clusters.len(), outcome.clustering.clusters.len());
        assert!(!outcome.clusters.is_empty());
        for c in &outcome.clusters {
            assert!(c.representative.points.len() >= 2);
        }
    }

    #[test]
    #[should_panic(expected = "ε must be > 0")]
    fn non_positive_eps_rejected() {
        let _ = IncrementalClustering::<2>::new(config(0.0, 3));
    }
}
