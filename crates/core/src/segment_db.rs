//! The segment database `D` of Figure 12 with accelerated ε-neighborhood
//! queries.
//!
//! Holds the line segments produced by the partitioning phase in one
//! segment table, one record per segment that caches its length (the
//! distance function orders operands by length; Lemma 2) and the rest of
//! its derived geometry, and answers Definition 4 neighborhood queries
//! either by full scan or through a spatial index with the conservative
//! filter radius derived in `traclus-index`. A segment's id is its
//! position in the table, so ids are always dense: the streaming engine
//! appends segments and removes them with
//! [`SegmentDatabase::remove_segments`], which closes the gaps in order,
//! so a database is at every point the one the batch pipeline would build
//! over the same segments.
//!
//! Queries run **filter-and-refine**: the index hands over its candidates
//! in whatever order it stores them, and before a candidate reaches the
//! batched distance kernel it passes the admissible midpoint/length lower
//! bound of [`traclus_geom::lower_bound`]; candidates whose bound already
//! exceeds ε are discarded. The bound never exceeds the computed distance,
//! so pruned and unpruned neighborhoods are bit-identical; [`PruneStats`]
//! counts what it saved. The kernel scores each candidate on its own, so
//! candidate order never changes a distance: only the survivors are
//! sorted, last, which is what makes every neighborhood ascending.

use std::sync::atomic::{AtomicU64, Ordering};

use traclus_geom::{
    Aabb, IdentifiedSegment, Point, PruneFilter, SegmentDistance, SegmentTable, Trajectory,
    TrajectoryId,
};
use traclus_index::{filter_radius, RTree};

use crate::params::Parallelism;
use crate::partition::{partition_trajectories_on, PartitionConfig};

/// Which acceleration structure backs ε-neighborhood queries (Lemma 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// Full scan: the O(n²) arm of Lemma 3.
    Linear,
    /// STR-bulk-loaded R-tree (the paper's suggestion).
    #[default]
    RTree,
}

/// Cumulative filter-and-refine counters of one [`NeighborIndex`] — a
/// plain-value snapshot of its atomic tallies, or of one clustering run's
/// ([`crate::LineSegmentClustering::run_with_stats`]).
///
/// Every candidate a query considers is either discarded by the lower
/// bound or scored exactly once by the batched kernel, so the index
/// tallies those two and `candidates` is their sum. All counters stay zero
/// while pruning is disabled.
///
/// A query counts only the candidates it considers. The ordered grouping
/// pass asks each segment for its forward neighbours (ids `≥` its own)
/// only, so its counters total about half of what whole-neighbourhood
/// queries like [`SegmentDatabase::neighborhood_into`] count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneStats {
    /// Candidates the index (or full scan) produced for refinement.
    pub candidates: u64,
    /// Always 0: the filter has no bounding-box bound. Kept for readers
    /// of the earlier counter set.
    pub pruned_mbr: u64,
    /// Candidates discarded by the midpoint/length lower bound.
    pub pruned_midpoint: u64,
    /// Always 0, like `pruned_mbr`: the filter has no angle bound.
    pub pruned_angle: u64,
    /// Candidates that survived the bound and were scored exactly.
    pub refined: u64,
}

/// Shared atomic tallies behind [`PruneStats`]. Queries take `&self` and
/// run concurrently from the grouping workers, so the counters are atomics,
/// each added to once per query (relaxed — the numbers are observability,
/// not synchronisation).
#[derive(Debug, Default)]
struct PruneCounters {
    pruned: AtomicU64,
    refined: AtomicU64,
}

impl Clone for PruneCounters {
    /// A point-in-time copy: atomics have no derived `Clone`.
    fn clone(&self) -> Self {
        let copy = |a: &AtomicU64| AtomicU64::new(a.load(Ordering::Relaxed));
        Self {
            pruned: copy(&self.pruned),
            refined: copy(&self.refined),
        }
    }
}

/// A built neighborhood index bound to a database snapshot.
///
/// The index answers queries for whatever database state it was built
/// against; [`SegmentDatabase::append_segments`] and
/// [`SegmentDatabase::remove_segments`] keep it in step with the database.
///
/// Queries prune candidates through the admissible lower bound of
/// [`traclus_geom::lower_bound`] by default — results are bit-identical
/// either way, so [`Self::set_pruning`] is a performance/diagnostics knob,
/// not a semantics switch. [`Self::prune_stats`] reports what the filter
/// did; a clone carries a point-in-time copy of those counters.
#[derive(Clone)]
pub struct NeighborIndex<const D: usize> {
    /// The R-tree and its query expansion radius per unit ε,
    /// `√(4/w⊥² + 1/w∥²)`; `None` for the full scan, which needs no
    /// structure (the database iterates all segments).
    tree: Option<(RTree<D>, f64)>,
    /// Filter-and-refine switch (default on; bit-identical either way).
    prune: bool,
    counters: PruneCounters,
}

impl<const D: usize> NeighborIndex<D> {
    /// Enables or disables the filter-and-refine lower-bound pruning.
    /// Neighborhoods are bit-identical either way; disabling is useful for
    /// benchmarking the filter's gain and for equivalence harnesses.
    pub fn set_pruning(&mut self, on: bool) {
        self.prune = on;
    }

    /// A snapshot of the cumulative filter-and-refine counters.
    pub fn prune_stats(&self) -> PruneStats {
        let pruned = self.counters.pruned.load(Ordering::Relaxed);
        let refined = self.counters.refined.load(Ordering::Relaxed);
        PruneStats {
            candidates: pruned + refined,
            pruned_midpoint: pruned,
            refined,
            ..PruneStats::default()
        }
    }
}

/// The segment database: the segment table plus the distance function
/// all phases share.
///
/// Each segment is stored once, as one record of a [`SegmentTable`]: its
/// endpoints, the geometry derived from them at insertion (direction
/// vector, squared norm, length, midpoint), its weight and its trajectory
/// id. ε-neighborhood refinement runs the batched
/// [`SegmentDistance::distance_many_into`] kernel on those records instead
/// of re-deriving projection setup from raw endpoints on every pair, and
/// bounding boxes are computed from the endpoints where a query or the
/// R-tree needs one.
///
/// Segment `k` always has id `k`: its position in the table.
/// [`Self::append_segments`] continues the sequence and
/// [`Self::remove_segments`] closes the gaps it leaves, so labels, counts
/// and the ε-lists in `traclus-core::stream` index the same id space as
/// the batch pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentDatabase<const D: usize> {
    table: SegmentTable<D>,
    distance: SegmentDistance,
}

/// Candidates are refined through the batched kernel in stack-allocated
/// chunks of this many distances (no per-query heap traffic).
const REFINE_CHUNK: usize = 64;

/// The one compaction rule: the id segment `id` keeps once the ascending
/// ids `removed` leave — `None` for one of them, else its old id less the
/// removed ids below it. The renumbering keeps id order, and with it every
/// ascending-id fold, the min-root union-find and the Lemma 2 tie-break.
///
/// Inlined into the callers' crates: the compactions that call it once per
/// R-tree leaf and ε-list entry are generic over `D`, so they are compiled
/// where the engine is used, and a cross-crate call per entry would cost
/// more than the renumbering itself.
#[inline]
pub(crate) fn surviving_id(removed: &[u32], id: u32) -> Option<u32> {
    let below = match removed.last() {
        // Past every removed id, as most survivors of an expiry are.
        Some(&last) if id > last => removed.len(),
        // A survivor's insertion point counts the removed ids below it.
        _ => removed.binary_search(&id).err()?,
    };
    Some(id - below as u32)
}

impl<const D: usize> SegmentDatabase<D> {
    /// Builds the database from already-partitioned segments, allocating
    /// the segment table once.
    ///
    /// Segment ids must be dense (`segments[k].id.0 == k`); the clustering
    /// algorithm indexes label arrays by id.
    /// [`crate::partition::partition_trajectories`] produces exactly this
    /// layout.
    pub fn from_segments(segments: Vec<IdentifiedSegment<D>>, distance: SegmentDistance) -> Self {
        Self {
            table: SegmentTable::from_segments(segments),
            distance,
        }
    }

    /// Appends already-identified segments to the table and inserts their
    /// boxes into `index`, in id order — the streaming counterpart of
    /// [`Self::from_segments`] and [`Self::build_index`].
    ///
    /// Ids must continue the dense sequence (`segments[k].id.0 == len + k`),
    /// exactly what [`crate::partition::partition_trajectory_from`] emits
    /// when handed the current length as the first id.
    pub fn append_segments(
        &mut self,
        segments: impl IntoIterator<Item = IdentifiedSegment<D>>,
        index: &mut NeighborIndex<D>,
    ) {
        for s in segments {
            self.table.push(&s);
            if let Some((tree, _)) = &mut index.tree {
                tree.insert(s.id.0, self.bbox_of(s.id.0));
            }
        }
    }

    /// Removes the segments with the ascending, duplicate-free ids
    /// `removed` from the database and from `index`. The table closes up
    /// in place, so every survivor's id, its position, drops by the
    /// number of removed ids below it; one R-tree walk drops the removed
    /// entries and renumbers the rest by that same rule.
    ///
    /// Per-trajectory partitioning is independent, so the result equals
    /// the database the batch pipeline builds over the surviving
    /// trajectories in arrival order: same ids, trajectory ids, geometry
    /// and weights.
    pub fn remove_segments(&mut self, removed: &[u32], index: &mut NeighborIndex<D>) {
        if removed.is_empty() {
            return;
        }
        if let Some((tree, _)) = &mut index.tree {
            let before = tree.len();
            tree.retain_map(|id| surviving_id(removed, id));
            debug_assert_eq!(
                tree.len() + removed.len(),
                before,
                "a removed segment was not indexed"
            );
        }
        self.table.remove_sorted(removed);
    }

    /// Runs the partitioning phase over `trajectories` and builds the
    /// database from the result (Figure 4, lines 1–3).
    ///
    /// Trajectories are partitioned on the threads of the default
    /// [`Parallelism`], and the segments are numbered densely in trajectory
    /// order. The database is identical for every thread count: it equals
    /// [`Self::from_segments`] over
    /// [`crate::partition::partition_trajectories`], the sequential
    /// reference. [`crate::Traclus::run`] partitions with its configured
    /// [`Parallelism`] instead.
    pub fn from_trajectories(
        trajectories: &[Trajectory<D>],
        partition: &PartitionConfig,
        distance: SegmentDistance,
    ) -> Self {
        let threads = Parallelism::default().thread_count();
        let segments = partition_trajectories_on(partition, trajectories, threads);
        Self::from_segments(segments, distance)
    }

    /// Number of segments (`numln`).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no segments are stored.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The stored segments, id-ordered.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = IdentifiedSegment<D>> + '_ {
        self.table.segments()
    }

    /// One segment by dense id.
    pub fn segment(&self, id: u32) -> IdentifiedSegment<D> {
        self.table.segment(id)
    }

    /// Cached midpoint of a segment.
    pub fn midpoint(&self, id: u32) -> Point<D> {
        self.table.record(id).midpoint
    }

    /// The tight bounding box of a segment, computed from its endpoints.
    pub fn bbox_of(&self, id: u32) -> Aabb<D> {
        self.table.record(id).bounding_box()
    }

    /// The segment table: one record per segment, id-ordered, read by the
    /// batched distance kernel and the lower-bound filter.
    pub fn table(&self) -> &SegmentTable<D> {
        &self.table
    }

    /// The distance function shared by all phases.
    pub fn distance_fn(&self) -> &SegmentDistance {
        &self.distance
    }

    /// Distance between two stored segments, with the Lemma 2 ordering done
    /// on cached lengths and the id tie-break (the paper's "internal
    /// identifier") by [`SegmentTable::roles`], the rule the batched
    /// kernel uses too.
    pub fn distance(&self, a: u32, b: u32) -> f64 {
        let (li, lj) = self.table.roles(a, b);
        self.distance.distance_ordered(&li.segment(), &lj.segment())
    }

    /// Builds a neighborhood index of the requested kind over the
    /// segments: an STR bulk-loaded R-tree, or nothing for the full scan.
    /// Under a zero perpendicular or parallel weight no query could use a
    /// tree ([`filter_radius`] is `None`), so none is built and every
    /// query scans.
    ///
    /// `_typical_eps` is ignored — neither index is sized by ε. It remains
    /// so that existing callers (`perfbench` among them) keep compiling.
    pub fn build_index(&self, kind: IndexKind, _typical_eps: f64) -> NeighborIndex<D> {
        let tree = match (kind, filter_radius(1.0, &self.distance.weights)) {
            (IndexKind::RTree, Some(radius_per_eps)) => {
                let boxes = self.table.records().iter().map(|r| r.bounding_box());
                Some((RTree::bulk_load((0..).zip(boxes)), radius_per_eps))
            }
            _ => None,
        };
        NeighborIndex {
            tree,
            prune: true,
            counters: PruneCounters::default(),
        }
    }

    /// Replaces the contents of `out` with the ids of the ε-neighborhood
    /// `Nε(L)` of segment `id` (Definition 4), ascending. The segment
    /// itself is included — `dist(L, L) = 0 ≤ ε` — matching DBSCAN's
    /// core-count convention.
    ///
    /// The index hands over its candidates unsorted. When the index has
    /// pruning enabled (the default), they pass the midpoint/length lower
    /// bound of [`traclus_geom::lower_bound`] first and only the survivors
    /// reach the batched kernel; because the bound never exceeds the
    /// computed distance, the output is bit-identical with pruning on or
    /// off. The kernel scores each candidate on its own, so the order the
    /// candidates arrive in never changes a distance. The neighbours that
    /// survive refinement are sorted last, which is what makes the output
    /// ascending and every weighted sum over it id-ordered.
    ///
    /// The query allocates nothing once `out` has grown to the largest
    /// candidate set: the index writes candidates straight into `out`, and
    /// both the filter and the refinement compact it in place.
    pub fn neighborhood_into(
        &self,
        index: &NeighborIndex<D>,
        id: u32,
        eps: f64,
        out: &mut Vec<u32>,
    ) {
        self.neighborhood_from(index, id, eps, 0, out);
    }

    /// [`Self::neighborhood_into`] restricted to the neighbours with id
    /// `≥ from`: candidates below the bound are dropped before the filter
    /// and the kernel see them, and the prune counters tally only the
    /// rest. The ordered grouping pass queries with `from = id`, so each
    /// unordered pair is refined once.
    pub(crate) fn neighborhood_from(
        &self,
        index: &NeighborIndex<D>,
        id: u32,
        eps: f64,
        from: u32,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        // The query-side filter state (weight coefficient, ε, cached
        // midpoint geometry) is hoisted once; `None` with pruning off or
        // for inadmissible weights, in which case every candidate refines.
        let filter = if index.prune {
            PruneFilter::new(&self.table, id, &self.distance, eps)
        } else {
            None
        };
        let mut pruned = 0;
        match &index.tree {
            Some((tree, radius_per_eps)) => {
                let window = self.bbox_of(id).expanded(eps * radius_per_eps);
                tree.query_into(&window, out);
            }
            // Full scan: either requested or forced by degenerate weights
            // (no conservative filter exists). Every id from `from` on is a
            // candidate.
            None => out.extend(from..self.len() as u32),
        }
        out.retain(|&cand| {
            if cand < from {
                return false;
            }
            let discard = filter
                .as_ref()
                .is_some_and(|f| self.prune_candidate(f, id, cand, eps));
            pruned += u64::from(discard);
            !discard
        });
        // Every survivor is refined; count them before the loop drops the
        // ones beyond ε.
        if index.prune {
            let counters = &index.counters;
            counters.pruned.fetch_add(pruned, Ordering::Relaxed);
            counters
                .refined
                .fetch_add(out.len() as u64, Ordering::Relaxed);
        }
        // Refine in place: each chunk's distances are computed before any
        // of its entries is overwritten, and the write cursor never passes
        // the read position.
        let mut dists = [0.0f64; REFINE_CHUNK];
        let mut kept = 0;
        let mut read = 0;
        while read < out.len() {
            let take = (out.len() - read).min(REFINE_CHUNK);
            self.distance.distance_many_into(
                &self.table,
                id,
                &out[read..read + take],
                &mut dists[..take],
            );
            for (k, &d) in dists[..take].iter().enumerate() {
                if d <= eps {
                    out[kept] = out[read + k];
                    kept += 1;
                }
            }
            read += take;
        }
        out.truncate(kept);
        out.sort_unstable();
    }

    /// The filter step of one candidate: `true` when the admissible lower
    /// bound already exceeds `eps`, so the exact kernel never sees the
    /// pair. Under `invariant-checks` every discard is immediately
    /// re-scored exactly and the process aborts on the first candidate the
    /// bound wrongly excluded.
    #[inline]
    fn prune_candidate(&self, filter: &PruneFilter<D>, query: u32, cand: u32, eps: f64) -> bool {
        let pruned = filter.check(&self.table, cand);
        #[cfg(not(feature = "invariant-checks"))]
        let _ = (query, eps);
        #[cfg(feature = "invariant-checks")]
        if pruned {
            crate::invariants::assert_pruned_pair_outside_eps(self, query, cand, eps);
        }
        pruned
    }

    /// The ε-neighborhood as a fresh vector.
    pub fn neighborhood(&self, index: &NeighborIndex<D>, id: u32, eps: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.neighborhood_into(index, id, eps, &mut out);
        out
    }

    /// `|Nε(L)|` as a (possibly weighted) cardinality: the plain count when
    /// `weighted` is false, else the sum of member weights (the Section 4.2
    /// weighted-trajectory extension).
    pub fn neighborhood_cardinality(&self, members: &[u32], weighted: bool) -> f64 {
        self.add_cardinality(0.0, members, weighted)
    }

    /// Folds the (possibly weighted) cardinality of `members` onto `acc`,
    /// one member at a time in slice order — the one summation behind
    /// every count, so a count accumulated piecewise over an ascending
    /// split of `Nε(L)` equals the whole neighborhood's bit for bit.
    pub(crate) fn add_cardinality(&self, acc: f64, members: &[u32], weighted: bool) -> f64 {
        if weighted {
            members
                .iter()
                .fold(acc, |sum, &m| sum + self.cardinality_weight(m, true))
        } else {
            acc + members.len() as f64
        }
    }

    /// What one member adds to a cardinality: its weight when `weighted`,
    /// else one.
    pub(crate) fn cardinality_weight(&self, id: u32, weighted: bool) -> f64 {
        if weighted {
            self.table.record(id).weight
        } else {
            1.0
        }
    }

    /// The trajectory a segment came from (`TR(L)` of Definition 10).
    pub fn trajectory_of(&self, id: u32) -> TrajectoryId {
        self.table.record(id).trajectory
    }

    /// Bounding box of the contents of the database.
    pub fn bounding_box(&self) -> Aabb<D> {
        let mut b = Aabb::empty();
        for r in self.table.records() {
            b.extend_point(&r.start);
            b.extend_point(&r.end);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_geom::{Segment2, SegmentId};

    fn db_from(segs: &[Segment2]) -> SegmentDatabase<2> {
        let identified = segs
            .iter()
            .enumerate()
            .map(|(k, s)| IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(k as u32), *s))
            .collect();
        SegmentDatabase::from_segments(identified, SegmentDistance::default())
    }

    fn sample_db() -> SegmentDatabase<2> {
        // Three parallel neighbours + one far-away outlier.
        db_from(&[
            Segment2::xy(0.0, 0.0, 10.0, 0.0),
            Segment2::xy(0.0, 1.0, 10.0, 1.0),
            Segment2::xy(0.0, 2.0, 10.0, 2.0),
            Segment2::xy(100.0, 100.0, 110.0, 100.0),
        ])
    }

    #[test]
    fn neighborhood_includes_self() {
        let db = sample_db();
        let idx = db.build_index(IndexKind::Linear, 1.5);
        let n = db.neighborhood(&idx, 0, 0.0);
        assert_eq!(n, vec![0], "dist(L, L) = 0 ⇒ L ∈ Nε(L)");
    }

    #[test]
    fn all_index_kinds_agree() {
        let db = sample_db();
        for eps in [0.5, 1.5, 3.0, 50.0] {
            let linear = db.build_index(IndexKind::Linear, eps);
            let rtree = db.build_index(IndexKind::RTree, eps);
            for id in 0..db.len() as u32 {
                let a = db.neighborhood(&linear, id, eps);
                let c = db.neighborhood(&rtree, id, eps);
                assert_eq!(a, c, "rtree vs linear at eps={eps}, id={id}");
            }
        }
    }

    #[test]
    fn neighborhoods_are_sorted_and_unique() {
        let db = sample_db();
        let idx = db.build_index(IndexKind::RTree, 2.0);
        let n = db.neighborhood(&idx, 1, 2.0);
        let mut sorted = n.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(n, sorted);
        assert!(n.contains(&0) && n.contains(&1) && n.contains(&2));
        assert!(!n.contains(&3), "outlier is no neighbour at eps=2");
    }

    #[test]
    fn distance_symmetry_via_cached_ordering() {
        let db = sample_db();
        for a in 0..db.len() as u32 {
            for b in 0..db.len() as u32 {
                assert!(
                    (db.distance(a, b) - db.distance(b, a)).abs() < 1e-12,
                    "symmetry broken for ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn weighted_cardinality_sums_weights() {
        let segs = vec![
            IdentifiedSegment {
                id: SegmentId(0),
                trajectory: TrajectoryId(0),
                segment: Segment2::xy(0.0, 0.0, 1.0, 0.0),
                weight: 2.5,
            },
            IdentifiedSegment {
                id: SegmentId(1),
                trajectory: TrajectoryId(1),
                segment: Segment2::xy(0.0, 0.1, 1.0, 0.1),
                weight: 0.5,
            },
        ];
        let db = SegmentDatabase::from_segments(segs, SegmentDistance::default());
        assert_eq!(db.neighborhood_cardinality(&[0, 1], false), 2.0);
        assert_eq!(db.neighborhood_cardinality(&[0, 1], true), 3.0);
    }

    #[test]
    fn batched_distances_match_scalar_bitwise() {
        let db = sample_db();
        let candidates: Vec<u32> = (0..db.len() as u32).collect();
        let mut out = vec![0.0; candidates.len()];
        for q in 0..db.len() as u32 {
            db.distance_fn()
                .distance_many_into(db.table(), q, &candidates, &mut out);
            for (&c, &d) in candidates.iter().zip(&out) {
                assert_eq!(
                    d.to_bits(),
                    db.distance(q, c).to_bits(),
                    "batched != scalar for ({q},{c})"
                );
            }
        }
    }

    #[test]
    fn removed_segments_drop_out_of_queries_and_builds() {
        for kind in [IndexKind::Linear, IndexKind::RTree] {
            let mut db = sample_db();
            let mut idx = db.build_index(kind, 1.5);
            db.remove_segments(&[1], &mut idx);
            assert_eq!(db.len(), 3, "{kind:?}: the row is gone");
            // The old id 2 (y = 2) is now id 1, and without the old id 1
            // (y = 1) it is no longer within ε of id 0 (y = 0).
            assert_eq!(db.neighborhood(&idx, 0, 1.5), vec![0], "{kind:?}");
            assert_eq!(db.neighborhood(&idx, 1, 1.5), vec![1], "{kind:?}");
            // The updated index answers like fresh builds over the survivors.
            let linear = db.build_index(IndexKind::Linear, 1.5);
            let fresh = db.build_index(IndexKind::RTree, 1.5);
            for id in 0..db.len() as u32 {
                let want = db.neighborhood(&linear, id, 1.5);
                assert_eq!(db.neighborhood(&idx, id, 1.5), want, "{kind:?} id={id}");
                assert_eq!(db.neighborhood(&fresh, id, 1.5), want, "{kind:?} id={id}");
            }
            // Removing nothing changes nothing.
            db.remove_segments(&[], &mut idx);
            assert_eq!(db.len(), 3);
        }
    }

    #[test]
    fn remove_segments_renumbers_survivors_in_order() {
        let mut db = sample_db();
        let before = db.clone();
        let mut idx = db.build_index(IndexKind::RTree, 1.5);
        db.remove_segments(&[0, 2], &mut idx);
        // Survivors keep their order, trajectory ids, geometry and weights
        // under dense ids: exactly the database built from them directly.
        let survivors: Vec<IdentifiedSegment<2>> = [1, 3]
            .iter()
            .enumerate()
            .map(|(k, &old)| IdentifiedSegment {
                id: SegmentId(k as u32),
                ..before.segment(old)
            })
            .collect();
        let direct = SegmentDatabase::from_segments(survivors, SegmentDistance::default());
        assert_eq!(db, direct);
        assert_eq!(db.segment(0).trajectory, TrajectoryId(1));
        assert_eq!(db.segment(1).trajectory, TrajectoryId(3));
        assert!(db.segments().map(|s| s.id).eq([SegmentId(0), SegmentId(1)]));
        // The R-tree leaves were renumbered too: the far outlier answers
        // under its new id.
        assert_eq!(db.neighborhood(&idx, 1, 1.5), vec![1]);
        assert_eq!(surviving_id(&[0, 2], 1), Some(0));
        assert_eq!(surviving_id(&[0, 2], 2), None);
        assert_eq!(surviving_id(&[0, 2], 3), Some(1));
        assert_eq!(surviving_id(&[], 3), Some(3));
    }

    #[test]
    fn bbox_of_boxes_each_segment_before_and_after_compaction() {
        let mut db = sample_db();
        let tight = |db: &SegmentDatabase<2>| {
            (0..db.len() as u32)
                .all(|id| db.bbox_of(id) == Aabb::from_segment(&db.segment(id).segment))
        };
        assert!(tight(&db));
        let mut idx = db.build_index(IndexKind::RTree, 1.5);
        db.remove_segments(&[1, 2], &mut idx);
        assert!(tight(&db));
        assert_eq!(db.bbox_of(1), Aabb::new([100.0, 100.0], [110.0, 100.0]));
    }

    #[test]
    fn bounding_box_shrinks_with_removals() {
        let mut db = sample_db();
        let mut idx = db.build_index(IndexKind::RTree, 1.5);
        let before = db.bounding_box();
        assert!(before.max[0] >= 110.0, "outlier spans far right");
        db.remove_segments(&[3], &mut idx);
        let after = db.bounding_box();
        assert!(after.max[0] <= 10.0, "outlier no longer stretches the box");
        db.remove_segments(&[0, 1, 2], &mut idx);
        assert!(db.bounding_box().is_empty());
        assert!(db.is_empty());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_rejected() {
        let segs = vec![IdentifiedSegment::new(
            SegmentId(5),
            TrajectoryId(0),
            Segment2::xy(0.0, 0.0, 1.0, 0.0),
        )];
        let _ = SegmentDatabase::from_segments(segs, SegmentDistance::default());
    }

    #[test]
    fn zero_parallel_weight_falls_back_to_full_scan_correctly() {
        // With w∥ = 0 two collinear far-apart segments are at distance 0;
        // the filter must not prune them.
        let segs = vec![
            IdentifiedSegment::new(
                SegmentId(0),
                TrajectoryId(0),
                Segment2::xy(0.0, 0.0, 10.0, 0.0),
            ),
            IdentifiedSegment::new(
                SegmentId(1),
                TrajectoryId(1),
                Segment2::xy(500.0, 0.0, 510.0, 0.0),
            ),
        ];
        let dist = SegmentDistance::new(
            traclus_geom::DistanceWeights::new(1.0, 0.0, 1.0),
            traclus_geom::AngleMode::Directed,
        );
        let db = SegmentDatabase::from_segments(segs, dist);
        let idx = db.build_index(IndexKind::RTree, 1.0);
        let n = db.neighborhood(&idx, 0, 0.5);
        assert_eq!(n, vec![0, 1], "collinear segments are neighbours at w∥=0");
    }

    #[test]
    fn full_scan_weights_build_and_maintain_no_tree() {
        // With w⊥ = 0 or w∥ = 0 no filter radius exists and every query
        // scans, so an R-tree build holds no tree, and appends and
        // removals have none to keep in step.
        for weights in [
            traclus_geom::DistanceWeights::new(1.0, 0.0, 1.0),
            traclus_geom::DistanceWeights::new(0.0, 1.0, 1.0),
        ] {
            let distance = SegmentDistance::new(weights, traclus_geom::AngleMode::Directed);
            let mut db = SegmentDatabase {
                distance,
                ..sample_db()
            };
            let mut idx = db.build_index(IndexKind::RTree, 1.0);
            assert!(idx.tree.is_none(), "{weights:?}: no tree is built");
            // The first is collinear with id 0, far along x.
            let arrivals = [(500.0, 0.0), (0.0, 0.5)]
                .into_iter()
                .zip(4..)
                .map(|((x, y), k)| {
                    let s = Segment2::xy(x, y, x + 10.0, y);
                    IdentifiedSegment::new(SegmentId(k), TrajectoryId(k), s)
                });
            db.append_segments(arrivals, &mut idx);
            db.remove_segments(&[1, 3], &mut idx);
            assert!(idx.tree.is_none(), "{weights:?}: none is maintained");
            let linear = db.build_index(IndexKind::Linear, 1.0);
            for eps in [0.5, 2.0, 50.0] {
                for id in 0..db.len() as u32 {
                    assert_eq!(
                        db.neighborhood(&idx, id, eps),
                        db.neighborhood(&linear, id, eps),
                        "{weights:?} eps={eps} id={id}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_trajectories_round_trip() {
        let trajs = vec![
            Trajectory::new(
                TrajectoryId(0),
                vec![
                    traclus_geom::Point2::xy(0.0, 0.0),
                    traclus_geom::Point2::xy(50.0, 0.0),
                    traclus_geom::Point2::xy(50.0, 50.0),
                ],
            ),
            Trajectory::new(
                TrajectoryId(1),
                vec![
                    traclus_geom::Point2::xy(0.0, 5.0),
                    traclus_geom::Point2::xy(50.0, 5.0),
                ],
            ),
        ];
        let db = SegmentDatabase::from_trajectories(
            &trajs,
            &PartitionConfig::default(),
            SegmentDistance::default(),
        );
        assert!(db.len() >= 3);
        assert_eq!(db.trajectory_of(0), TrajectoryId(0));
        assert!(!db.bounding_box().is_empty());
    }
}
