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
//! 3. repairs cluster state from the window's **ε-graph**: the cached
//!    ε-neighbourhoods (Definition 4) of every live segment, so only the
//!    arriving segments are ever queried.
//!
//! # The ε-graph
//!
//! The engine keeps each live segment's whole `Nε(L)`, self included, as
//! an ascending list of ids, next to its neighbourhood cardinality, and
//! nothing else: a segment is core (Definition 5) iff its count reaches
//! `MinLns`, and [`IncrementalClustering::snapshot`] unions the cached
//! core–core edges into components. Every repair reads the lists instead
//! of re-querying, so the ε-queries of an arrival's new segments are the
//! only ones the engine ever runs. The graph costs O(|E|) memory over the
//! live window, one `u32` per directed edge: about 45k entries (0.18 MB)
//! for a 10k-segment window of sparse traffic, and 180k (0.72 MB) for a
//! 2k-segment window of a dense hurricane basin.
//!
//! # Exactness
//!
//! Repair is not an approximation. Core-ness is intrinsic (it depends
//! only on the database, never on arrival order), clusters restricted to
//! cores are the connected components of the core-adjacency graph, and a
//! non-core border segment joins the earliest component among its core
//! neighbours — all order-free quantities, the same argument that makes the
//! batch grouping pass exact at any thread count. The ε-graph holds exactly
//! what those quantities read, so [`IncrementalClustering::snapshot`]
//! equals [`crate::LineSegmentClustering::run`] on the live window, label
//! for label, after every operation. The equivalence suites
//! (`crates/core/tests/streaming_equivalence.rs` for insert-only streams,
//! `crates/core/tests/decremental_equivalence.rs` for random insert,
//! removal and expiry interleavings) lock this down.
//!
//! # Insertion
//!
//! The new segments' ε-queries give their lists. Their ids are the largest
//! in the window, so each new id is appended to the lists of its older
//! neighbours, which stay ascending, and adds its weight to their counts,
//! which extends the ascending-id fold the batch pass sums, bit for bit.
//! Every weight is positive, so insertion only adds edges and raises
//! counts: an older segment is promoted to core when its count crosses
//! `MinLns`, which happens at most once.
//!
//! # Removal and the sliding window
//!
//! Serving deployments also need trajectories to *leave*: an explicit
//! retraction ([`IncrementalClustering::remove_trajectory`]) or a sliding
//! window that ages old data out ([`StreamConfig::time_window`],
//! [`StreamConfig::capacity`]). The ε-relation is symmetric, so the
//! departed segments' lists name every survivor whose neighbourhood
//! shrinks. Those lists drop the departed ids and their counts are re-folded
//! from what is left: the fold a fresh query does, so the sums stay
//! bit-identical where repeated subtraction would drift. A survivor whose
//! count falls below `MinLns` is demoted. Then the database, the index, the
//! per-id arrays and every list entry compact once: the departed rows leave
//! and each survivor is renumbered in order, so the engine's database is
//! always the one the batch pipeline builds over the live window, ids
//! included. Nothing else needs repair: a component the removal split is
//! split in the lists, and the next snapshot unions them afresh.
//!
//! # Parallelism
//!
//! An arrival's ε-queries are pure reads of the database and index. When
//! [`crate::TraclusConfig::parallelism`] allows more than one thread and an
//! arrival brings enough segments, they run on the ordered engine of the
//! batch grouping pass: scoped workers compute the neighbourhoods while the
//! engine applies them on the calling thread in id order, so the graph and
//! the counts are bit-identical to the sequential engine's.

use traclus_geom::{remove_sorted, Trajectory, TrajectoryId};

use crate::cluster::{finalize_raw, ClusterConfig, Clustering};
use crate::grouping::{for_each_neighborhood, raw_labels, UnionFind};
use crate::partition::partition_trajectory_from;
use crate::segment_db::{compacted_id, NeighborIndex, SegmentDatabase};
use crate::{TraclusConfig, TraclusOutcome};

/// The sliding-window policy of the incremental engine — the run-time
/// parameters of *streaming* operation, next to the paper's statistical
/// ones in [`TraclusConfig`]. The default keeps every trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamConfig {
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

/// What one [`IncrementalClustering::insert`] did, for observability and
/// back-pressure decisions in serving loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InsertReport {
    /// Segments the MDL partitioner produced for this trajectory.
    pub new_segments: usize,
    /// Existing segments the insertion promoted to core.
    pub flipped_cores: usize,
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
    /// Segment-producing insertions, each repaired from the ε-graph.
    pub local_repairs: usize,
    /// Always 0: the engine repairs every insertion from its ε-graph and
    /// never re-clusters the whole window. Kept for readers of the earlier
    /// counter set.
    pub full_rebuilds: usize,
    /// Trajectories removed (explicit removals plus window expiry).
    pub removals: usize,
    /// The subset of `removals` retired by the sliding-window policy.
    pub expired: usize,
    /// Segments retired by removals.
    pub removed_segments: usize,
    /// Surviving segments demoted from core by a removal.
    pub core_demotions: usize,
    /// Removal operations (one per explicit removal or expiry batch), each
    /// repaired from the ε-graph.
    pub decremental_repairs: usize,
    /// Always 0, like `full_rebuilds`: no removal re-clusters the window.
    pub decremental_rebuilds: usize,
    /// ε-neighborhood candidates examined by the filter-and-refine path
    /// (pruned + refined; 0 while pruning is disabled).
    pub prune_candidates: u64,
    /// Candidates discarded by the midpoint/length lower bound.
    pub pruned_midpoint: u64,
    /// Candidates that survived the lower bound and were scored exactly.
    pub prune_refined: u64,
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
    db: SegmentDatabase<D>,
    index: NeighborIndex<D>,
    /// The ε-graph: `Nε(id)` of every live segment, ascending, self
    /// included.
    hoods: Vec<Vec<u32>>,
    /// `|Nε(L)|` per segment (weighted when configured): the ascending-id
    /// fold over its list, the order the batch pass sums in, so the values
    /// are bit-identical. A segment is core iff its count reaches `MinLns`.
    counts: Vec<f64>,
    /// Workers for an arrival's ε-queries: the configured parallelism,
    /// resolved once.
    threads: usize,
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
    /// field supplies the sliding-window policy).
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
            db,
            index,
            hoods: Vec::new(),
            counts: Vec::new(),
            threads: cluster.parallelism.thread_count(),
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

    /// Lifetime counters (trajectories, segments, flips, repairs,
    /// removals), with the live index's filter-and-refine prune tallies.
    pub fn stats(&self) -> StreamStats {
        let prune = self.index.prune_stats();
        StreamStats {
            prune_candidates: prune.candidates,
            pruned_midpoint: prune.pruned_midpoint,
            prune_refined: prune.refined,
            ..self.stats
        }
    }

    /// Ingests one trajectory at the next logical-clock tick: partitions
    /// it (Figure 8), appends and indexes its segments, repairs cluster
    /// state from the ε-graph, and then applies the sliding-window expiry
    /// policy. Returns what happened.
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
        }

        // The new segments' lists, queried against the whole window (new
        // segments included — they are already indexed) and visited in id
        // order. Each new id joins its older neighbours' lists and adds its
        // weight to their counts: it is larger than every id there, so the
        // lists stay ascending and the counts extend their ascending-id
        // folds, bit for bit the batch pass's sums. Weights are positive,
        // so a count only rises and crosses `MinLns` at most once: each
        // crossing is one promotion.
        let new_ids: Vec<u32> = (first..n).collect();
        let mut flipped_cores = 0;
        let (db, cluster) = (&self.db, &self.cluster);
        let (hoods, counts) = (&mut self.hoods, &mut self.counts);
        for_each_neighborhood(
            db,
            &self.index,
            &new_ids,
            cluster.eps,
            self.threads,
            |id, hood| {
                counts.push(db.neighborhood_cardinality(hood, cluster.weighted));
                let gain = db.cardinality_weight(id, cluster.weighted);
                for &b in hood.iter().take_while(|&&b| b < first) {
                    let count = &mut counts[b as usize];
                    let was_core = *count >= cluster.min_lns;
                    *count += gain;
                    flipped_cores += usize::from(!was_core && *count >= cluster.min_lns);
                    hoods[b as usize].push(id);
                }
                hoods.push(hood.to_vec());
            },
        );
        self.stats.local_repairs += 1;
        self.stats.core_flips += flipped_cores;
        #[cfg(feature = "invariant-checks")]
        self.debug_check_insert(first);
        let expired = self.enforce_window();
        InsertReport {
            new_segments: new_count,
            flipped_cores,
            expired_trajectories: expired,
        }
    }

    /// Post-insertion sanitizer pass (`invariant-checks` feature only):
    /// segment-table coherence, arrival tiling, and on the dirty region
    /// (the new segments and their neighbours, promoted ones included) the
    /// incrementally grown index vs a full scan and the cached ε-graph vs
    /// fresh queries. At power-of-two trajectory counts, so the extra work
    /// stays O(log n) full passes over a stream, it also checks the whole
    /// graph and that the snapshot equals the batch run.
    #[cfg(feature = "invariant-checks")]
    fn debug_check_insert(&self, first: u32) {
        crate::invariants::assert_table_coherent(&self.db, "stream-insert");
        crate::invariants::assert_arrivals_tile(&self.db, self.arrival_counts(), "stream-insert");
        let mut dirty: Vec<u32> = self.hoods[first as usize..].concat();
        dirty.sort_unstable();
        dirty.dedup();
        crate::invariants::assert_index_consistent(
            &self.db,
            &self.index,
            self.cluster.eps,
            &dirty,
            "stream-insert",
        );
        self.check_graph(&dirty, "stream-insert");
        if self.stats.trajectories.is_power_of_two() {
            let all: Vec<u32> = (0..self.db.len() as u32).collect();
            self.check_graph(&all, "stream-insert");
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
    /// decremental siblings of [`Self::debug_check_insert`] — segment-table
    /// coherence and arrival tiling after the compaction, the compacted
    /// index vs a full scan and the cached ε-graph vs fresh queries on the
    /// dirty set (dense ids), and the headline decremental guarantee
    /// itself: after **every** removal, `snapshot()` equals a batch run
    /// over the engine's own database.
    #[cfg(feature = "invariant-checks")]
    fn debug_check_remove(&self, dirty: &[u32]) {
        crate::invariants::assert_table_coherent(&self.db, "stream-remove");
        crate::invariants::assert_arrivals_tile(&self.db, self.arrival_counts(), "stream-remove");
        crate::invariants::assert_index_consistent(
            &self.db,
            &self.index,
            self.cluster.eps,
            dirty,
            "stream-remove",
        );
        self.check_graph(dirty, "stream-remove");
        let batch = crate::cluster::LineSegmentClustering::new(&self.db, self.cluster).run();
        assert!(
            self.snapshot() == batch,
            "invariant-checks[stream-remove]: snapshot diverged from the \
             batch run over the live window ({} segments)",
            self.db.len()
        );
    }

    /// The ε-graph sanitizer on `ids`; see
    /// [`crate::invariants::assert_graph_exact`].
    #[cfg(feature = "invariant-checks")]
    fn check_graph(&self, ids: &[u32], context: &str) {
        crate::invariants::assert_graph_exact(
            &self.db,
            &self.index,
            &self.cluster,
            (&self.hoods, &self.counts),
            ids,
            context,
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
    /// repairs the ε-graph in place: the departed segments leave the
    /// database, the spatial index and the lists, and the neighbourhood
    /// cardinalities of their surviving ε-neighbours are re-folded, which
    /// demotes the cores that fall below `MinLns`. The next
    /// [`Self::snapshot`] unions the components from the repaired lists —
    /// split where the removed segments were a bridge — and equals a batch
    /// run over the surviving window, label for label.
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
        let StreamConfig {
            time_window: window,
            capacity,
        } = self.config.stream;
        if window.is_none() && capacity.is_none() {
            return 0;
        }
        // Timestamps are non-decreasing, so both policies expire a prefix
        // of the log.
        let clock = self.clock;
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

    /// The decremental workhorse, on the ascending ids `removed`: it
    /// re-folds the counts of the surviving ε-neighbours from the ε-graph,
    /// counting the demotions, and compacts the database, the index, the
    /// per-id arrays and the graph once.
    fn apply_removal(&mut self, removed_trajectories: usize, removed: Vec<u32>) -> RemoveReport {
        self.stats.removals += removed_trajectories;
        self.stats.removed_segments += removed.len();
        let departed = |id: &u32| removed.binary_search(id).is_ok();

        // 1. The dirty set: the survivors on the departed segments' lists.
        //    The ε-relation is symmetric, so these are exactly the lists
        //    that hold a departed id.
        let mut dirty: Vec<u32> = removed
            .iter()
            .flat_map(|&r| &self.hoods[r as usize])
            .copied()
            .filter(|m| !departed(m))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();

        // 2. Each dirty list drops the departed ids, and its count is
        //    re-folded from what is left — the ascending fold a fresh query
        //    does, so the sums stay bit-identical. Dropping a positive term
        //    never raises a count, so a core either stays one or is demoted.
        let min_lns = self.cluster.min_lns;
        let mut demoted_cores = 0;
        for &d in &dirty {
            let hood = &mut self.hoods[d as usize];
            hood.retain(|m| !departed(m));
            let count = self
                .db
                .neighborhood_cardinality(hood, self.cluster.weighted);
            let was_core = self.counts[d as usize] >= min_lns;
            self.counts[d as usize] = count;
            demoted_cores += usize::from(was_core && count < min_lns);
        }

        // 3. Compact: the departed rows leave the database, the index, the
        //    per-id arrays and the graph, and every survivor is renumbered
        //    in order.
        self.db.remove_segments(&removed, &mut self.index);
        remove_sorted(&mut self.counts, &removed);
        remove_sorted(&mut self.hoods, &removed);

        // 4. The list entries take the survivors' new ids.
        for m in self.hoods.iter_mut().flatten() {
            *m = compacted_id(&removed, *m);
        }
        self.stats.decremental_repairs += 1;
        self.stats.core_demotions += demoted_cores;
        #[cfg(feature = "invariant-checks")]
        {
            let dirty: Vec<u32> = dirty.iter().map(|&d| compacted_id(&removed, d)).collect();
            self.debug_check_remove(&dirty);
        }
        RemoveReport {
            removed_trajectories,
            removed_segments: removed.len(),
            demoted_cores,
        }
    }

    /// The current clustering, identical to what the batch
    /// [`crate::LineSegmentClustering::run`] produces on the live window.
    /// One ascending pass over the ε-graph unions every core with the cores
    /// on its list below it; components are numbered in ascending
    /// minimum-core-id order (the sequential seed order), a border segment
    /// joins the earliest component among the cores on its ε-list, and the
    /// Definition 10 trajectory-cardinality filter runs last.
    pub fn snapshot(&self) -> Clustering {
        let min_lns = self.cluster.min_lns;
        let core = |id: u32| self.counts[id as usize] >= min_lns;
        let mut dsu = UnionFind::new(self.db.len() as u32);
        for (c, hood) in (0..).zip(&self.hoods) {
            if core(c) {
                for &m in hood.iter().take_while(|&&m| m < c) {
                    if core(m) {
                        dsu.union(c, m);
                    }
                }
            }
        }
        let (raw, cluster_count) = raw_labels(&self.counts, min_lns, &mut dsu, &self.hoods);
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

    /// The Definition 5 core flag of every live segment, read from its count.
    fn core_flags(engine: &IncrementalClustering<2>) -> Vec<bool> {
        let min_lns = engine.cluster.min_lns;
        engine
            .counts
            .iter()
            .map(|&count| count >= min_lns)
            .collect()
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
            report.flipped_cores > 0,
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

    /// One ten-unit horizontal bar per height in `ys`: parallel segments
    /// of equal extent, so the distance between two of them is their
    /// height difference.
    fn bars(ys: &[f64]) -> Vec<Trajectory<2>> {
        ys.iter()
            .enumerate()
            .map(|(i, &y)| {
                Trajectory::new(
                    TrajectoryId(i as u32),
                    vec![Point2::xy(0.0, y), Point2::xy(10.0, y)],
                )
            })
            .collect()
    }

    #[test]
    fn removal_keeps_a_border_through_its_surviving_core() {
        // Four stacked cores (ids 0–3, offsets 0.5 apart) and a border
        // (id 4) within ε of cores 2 and 3 only. When core 2 leaves, the
        // border must stay in the cluster through core 3.
        let trajectories = bars(&[0.0, 0.5, 1.0, 1.5, 2.9]);
        let cfg = config(2.0, 4);
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.extend(&trajectories);
        assert_eq!(core_flags(&engine), [true, true, true, true, false]);

        engine.remove_trajectory(TrajectoryId(2));
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
    fn removal_split_hands_a_shared_border_to_the_earlier_component() {
        // ε = 2, MinLns = 4. Band B (ids 0–3) sits above band A (ids
        // 4–8), and the bridge (id 9) and the border (id 10) share one
        // height within ε of the top of A and the bottom of B. With the
        // bridge, both are cores and all eleven bars form one component;
        // without it, the border keeps only three neighbours, and the
        // component splits into A and B with the border within ε of a
        // core of each. It must join B, the component with the smaller
        // minimum core id (and the smaller of the two).
        let trajectories = bars(&[
            5.3, 5.7, 6.1, 6.5, // band B
            0.0, 0.4, 0.8, 1.2, 1.5, // band A
            3.4, 3.4, // bridge, border
        ]);
        let cfg = config(2.0, 4);
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.extend(&trajectories);
        let snap = engine.snapshot();
        assert_eq!(snap.clusters.len(), 1, "the bridge holds A and B together");
        assert!(core_flags(&engine).iter().all(|&c| c));

        let report = engine.remove_trajectory(TrajectoryId(9));
        assert_eq!(report.demoted_cores, 1, "the border loses its core flag");
        let live: Vec<Trajectory<2>> = trajectories[..9]
            .iter()
            .chain(&trajectories[10..])
            .cloned()
            .collect();
        let snap = engine.snapshot();
        assert_eq!(snap, batch_clustering(&cfg, &live));
        assert_eq!(snap.clusters.len(), 2, "the removal splits the component");
        // Ids after the compaction: B 0–3, A 4–8, the border 9.
        assert!(!core_flags(&engine)[9]);
        assert_eq!(
            engine.hoods[9],
            [0, 8, 9],
            "within ε of a core of B and of A"
        );
        assert!(matches!(snap.labels[0], SegmentLabel::Cluster(_)));
        assert_ne!(snap.labels[0], snap.labels[4], "A and B are apart");
        assert_eq!(snap.labels[9], snap.labels[0], "the border joins B");
    }

    #[test]
    fn removal_demotes_a_core_that_stays_a_border_of_its_component() {
        // Five bars, ε = 2, MinLns = 4: the four lowest are cores. Removing
        // the bar at y = 0 drops the bars at y = 0.5 and y = 1 to three
        // neighbours each — demoted — while both stay within ε of the core
        // at y = 1.5, which keeps four. The repair must land that core's
        // cluster, so they stay border members of it.
        let trajectories = bars(&[0.0, 0.5, 1.0, 1.5, 3.4]);
        let cfg = config(2.0, 4);
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.extend(&trajectories);
        assert_eq!(core_flags(&engine), [true, true, true, true, false]);

        let report = engine.remove_trajectory(TrajectoryId(0));
        assert_eq!(report.demoted_cores, 2);
        // Ids after the compaction: y = 0.5, 1, 1.5, 3.4.
        assert_eq!(core_flags(&engine), [false, false, true, false]);
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
        // the bridge must split the component back in two.
        let mut trajectories: Vec<Trajectory<2>> = Vec::new();
        for i in 0..4 {
            trajectories.push(corridor(i, i as f64 * 0.3, 15));
        }
        for i in 0..4 {
            trajectories.push(corridor(10 + i, 4.0 + i as f64 * 0.3, 15));
        }
        trajectories.push(corridor(99, 2.45, 15));
        let cfg = config(2.0, 3);
        let mut engine = IncrementalClustering::<2>::new(cfg);
        engine.extend(&trajectories);
        assert_eq!(engine.snapshot().clusters.len(), 1, "bridge merges all");

        engine.remove_trajectory(TrajectoryId(99));
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
        use crate::grouping::INLINE_BELOW;
        use crate::Parallelism;
        // Zigzags cut at every fix: each arrival brings at least
        // INLINE_BELOW segments, so its ε-query sweep engages the workers.
        let zigzag = |id: u32, y: f64| {
            Trajectory::new(
                TrajectoryId(id),
                (0..70)
                    .map(|k| Point2::xy(k as f64 * 5.0, y + 8.0 * (k % 2) as f64))
                    .collect(),
            )
        };
        let trajectories: Vec<Trajectory<2>> = (0..6).map(|i| zigzag(i, i as f64 * 0.5)).collect();
        let with = |parallelism| TraclusConfig {
            parallelism,
            ..config(3.0, 3)
        };
        let mut sequential = IncrementalClustering::<2>::new(with(Parallelism::Sequential));
        let mut reference = Vec::new();
        for t in &trajectories {
            let report = sequential.insert(t);
            assert!(report.new_segments >= INLINE_BELOW, "{report:?}");
            reference.push(sequential.snapshot());
        }
        assert!(!reference.last().unwrap().clusters.is_empty());
        sequential.remove_trajectory(TrajectoryId(2));
        let after_removal = sequential.snapshot();
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
            engine.remove_trajectory(TrajectoryId(2));
            assert_eq!(
                engine.snapshot(),
                after_removal,
                "t={threads} diverged after removal"
            );
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
