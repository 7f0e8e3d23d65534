//! Internal-consistency checkers compiled in by the `invariant-checks`
//! feature (`cargo test -p traclus-core --features invariant-checks`).
//!
//! Each checker asserts a structural invariant the algorithms rely on but
//! ordinary tests only observe indirectly through final outputs:
//!
//! * the ordered grouping pass's union-find stays acyclic and in min-root
//!   canonical form (its sequential-equivalence argument numbers
//!   components by minimum core id — a non-canonical root would silently
//!   renumber clusters);
//! * the ordered pass's counts, built from forward-only ε-queries plus the
//!   weights carried from earlier ids, equal full-query counts bit for bit
//!   (a carry bug would shift core flags only near the `MinLns`
//!   threshold, where few fixtures look);
//! * the segments the partition phase produces on worker threads equal
//!   the sequential reference [`crate::partition::partition_trajectories`]
//!   bit for bit (a numbering or ordering slip in the ordered map would
//!   shift ids without changing any cluster count);
//! * every record of the [`SegmentDatabase`]'s segment table equals the
//!   record a fresh build derives from its own endpoints, weight and
//!   trajectory id, after streaming appends and removals (the batched
//!   distance kernel and the lower-bound filter read only the cached
//!   geometry);
//! * an incrementally grown spatial index answers exactly like a full
//!   scan (a stale or mis-inserted entry would corrupt ε-neighborhoods
//!   long before any test compares clusterings);
//! * the stream's cached ε-graph equals fresh ε-queries on the live index,
//!   with every count the bit-exact fold over its list, on the dirty
//!   region of every insert and removal and over the whole window at
//!   power-of-two trajectory counts. Core flags are read from those counts
//!   and components from those lists, so this checks both (a missed
//!   back-append or a departed id left behind by a compaction would
//!   otherwise show only as a label change once the stale entry decides a
//!   core flag or a border);
//! * the stream's arrival log tiles the database in order: each arrival's
//!   segments follow the previous arrival's and carry its trajectory id,
//!   so a removal compacts exactly the departing rows and the database
//!   stays the one the batch pipeline builds over the live window;
//! * at sampled points of a stream — and after **every** removal —
//!   `snapshot()` still equals the batch run over the live window (a cheap
//!   in-process spot check of the headline guarantee).
//!
//! The checkers are plain `assert!`s: with the feature off they do not
//! exist and the hot paths carry zero overhead; with it on, the regular
//! test suite doubles as a sanitizer pass (the CI `invariant-checks` job).

use traclus_geom::{IdentifiedSegment, SegmentTable, Trajectory, TrajectoryId};

use crate::cluster::ClusterConfig;
use crate::grouping::UnionFind;
use crate::partition::{partition_trajectories, PartitionConfig};
use crate::segment_db::{NeighborIndex, SegmentDatabase};
use crate::IndexKind;

/// Asserts the union-find is acyclic and in min-root canonical form.
///
/// Both follow from one local property: every parent pointer is
/// non-increasing (`parent[x] ≤ x`). Chains then strictly decrease until a
/// self-loop root, so there are no cycles, and the root reached from any
/// member is ≤ that member — being itself a member, it is the component
/// minimum. Union-by-min and path halving both preserve the property;
/// anything else is a bug.
pub(crate) fn assert_union_find_canonical(dsu: &UnionFind, context: &str) {
    for (x, &p) in dsu.parent_slice().iter().enumerate() {
        assert!(
            (p as usize) <= x,
            "invariant-checks[{context}]: union-find parent increases at \
             {x} -> {p}; min-root canonical form violated"
        );
    }
}

/// Asserts the ordered pass's counts at the power-of-two ids against full
/// ε-queries (a fresh full scan): the forward folds plus the carried
/// backward weights must add up to the whole-neighbourhood count bit for
/// bit, so the core flags read from them are the batch loop's.
pub(crate) fn assert_counts_exact<const D: usize>(
    db: &SegmentDatabase<D>,
    config: &ClusterConfig,
    counts: &[f64],
    context: &str,
) {
    let linear = db.build_index(IndexKind::Linear, config.eps);
    let mut hood = Vec::new();
    for id in (0..db.len() as u32).filter(|id| id.is_power_of_two()) {
        db.neighborhood_into(&linear, id, config.eps, &mut hood);
        let full = db.neighborhood_cardinality(&hood, config.weighted);
        let count = counts[id as usize];
        assert!(
            full.to_bits() == count.to_bits(),
            "invariant-checks[{context}]: segment {id} has count {count:?} \
             after the ordered pass, but its full ε-query gives {full:?}"
        );
    }
}

/// Asserts the segments the partition phase produced on the ordered map
/// equal [`partition_trajectories`], the sequential reference: the same
/// segments in the same order, with the same ids, trajectory ids,
/// endpoints and weights, compared as bit patterns. The database
/// `SegmentDatabase::from_trajectories` builds from them then equals
/// `from_segments(partition_trajectories(..))`.
pub(crate) fn assert_partition_matches_reference<const D: usize>(
    segments: &[IdentifiedSegment<D>],
    trajectories: &[Trajectory<D>],
    config: &PartitionConfig,
) {
    let reference = partition_trajectories(config, trajectories);
    let bits = |s: &IdentifiedSegment<D>| {
        (
            s.id,
            s.trajectory,
            s.segment.start.coords.map(f64::to_bits),
            s.segment.end.coords.map(f64::to_bits),
            s.weight.to_bits(),
        )
    };
    assert!(
        segments.len() == reference.len(),
        "invariant-checks[partition]: {} segments from the ordered map, {} \
         from partition_trajectories",
        segments.len(),
        reference.len()
    );
    for (got, want) in segments.iter().zip(&reference) {
        assert!(
            bits(got) == bits(want),
            "invariant-checks[partition]: segment {} is {got:?} from the \
             ordered map but {want:?} from partition_trajectories",
            want.id.0
        );
    }
}

/// Asserts the segment table equals a table rebuilt from its own
/// segments, record for record: the cached direction, squared norm,
/// length and midpoint of every record are the values a fresh build
/// derives from its endpoints. Streaming appends and removals change the
/// table in place; any divergence from the batch construction would feed
/// the batched distance kernel different operands than the scalar path
/// sees.
pub(crate) fn assert_table_coherent<const D: usize>(db: &SegmentDatabase<D>, context: &str) {
    let fresh = SegmentTable::from_segments(db.segments());
    assert!(
        fresh == *db.table(),
        "invariant-checks[{context}]: the segment table diverged from a \
         fresh rebuild over {} segments",
        db.len()
    );
}

/// Asserts the stream's arrival log — `(trajectory, segment count)` per
/// live arrival, in arrival order — tiles the database: laid end to end,
/// the arrivals cover `0..len` exactly and every segment carries its
/// arrival's trajectory id. That is the layout the batch pipeline builds
/// over the live window, and the one a removal's compaction relies on to
/// find the departing rows.
pub(crate) fn assert_arrivals_tile<const D: usize>(
    db: &SegmentDatabase<D>,
    arrivals: impl IntoIterator<Item = (TrajectoryId, u32)>,
    context: &str,
) {
    let mut next = 0usize;
    for (trajectory, count) in arrivals {
        let end = next + count as usize;
        assert!(
            count > 0 && end <= db.len(),
            "invariant-checks[{context}]: an arrival of {count} segments at id \
             {next} overruns the {} segments of the database",
            db.len()
        );
        for id in next..end {
            assert!(
                db.segment(id as u32).trajectory == trajectory,
                "invariant-checks[{context}]: segment {id} lies in an arrival of \
                 {trajectory:?} but carries {:?}",
                db.segment(id as u32).trajectory
            );
        }
        next = end;
    }
    assert!(
        next == db.len(),
        "invariant-checks[{context}]: the arrivals cover {next} of {} segments",
        db.len()
    );
}

/// Asserts the lower bound really was admissible for one pruned
/// candidate: re-scores the pair through the exact scalar distance and
/// aborts if it was actually within ε. Called from the filter step of
/// `SegmentDatabase::neighborhood_into` on **every** discard, so an
/// inadmissible bound dies at its first occurrence — with the pair and
/// both numbers — instead of surfacing later as an aggregate clustering
/// mismatch.
pub(crate) fn assert_pruned_pair_outside_eps<const D: usize>(
    db: &SegmentDatabase<D>,
    query: u32,
    cand: u32,
    eps: f64,
) {
    let exact = db.distance(query, cand);
    // A NaN distance is no neighbour, so it counts as outside ε.
    assert!(
        exact > eps || exact.is_nan(),
        "invariant-checks[prune]: the lower bound discarded candidate \
         {cand} of query {query}, but the exact distance {exact} ≤ ε = {eps} \
         — the bound is not admissible for this pair"
    );
}

/// Asserts the stream's ε-graph — `(lists, counts)` per segment id — on
/// `ids`: each cached list equals a fresh
/// [`SegmentDatabase::neighborhood_into`] on the live index, and each count
/// is the fold over that list bit for bit.
pub(crate) fn assert_graph_exact<const D: usize>(
    db: &SegmentDatabase<D>,
    index: &NeighborIndex<D>,
    config: &ClusterConfig,
    (hoods, counts): (&[Vec<u32>], &[f64]),
    ids: &[u32],
    context: &str,
) {
    let mut fresh = Vec::new();
    for &id in ids {
        db.neighborhood_into(index, id, config.eps, &mut fresh);
        let cached = &hoods[id as usize];
        assert!(
            *cached == fresh,
            "invariant-checks[{context}]: the cached ε-list of segment {id} \
             is {cached:?}, but a fresh query gives {fresh:?}"
        );
        let full = db.neighborhood_cardinality(&fresh, config.weighted);
        let count = counts[id as usize];
        assert!(
            full.to_bits() == count.to_bits(),
            "invariant-checks[{context}]: segment {id} has count {count:?}, \
             but its fresh ε-query gives {full:?}"
        );
    }
}

/// Asserts the live index answers ε-neighborhood queries for `ids` exactly
/// like a full scan of the current database — the correctness contract of
/// [`NeighborIndex::insert`] after incremental growth and of
/// [`SegmentDatabase::remove_segments`] after a compaction.
pub(crate) fn assert_index_consistent<const D: usize>(
    db: &SegmentDatabase<D>,
    index: &NeighborIndex<D>,
    eps: f64,
    ids: &[u32],
    context: &str,
) {
    let linear = db.build_index(IndexKind::Linear, eps);
    let mut via_index = Vec::new();
    let mut via_scan = Vec::new();
    for &id in ids {
        db.neighborhood_into(index, id, eps, &mut via_index);
        db.neighborhood_into(&linear, id, eps, &mut via_scan);
        assert!(
            via_index == via_scan,
            "invariant-checks[{context}]: index disagrees with full scan \
             for segment {id}: {via_index:?} vs {via_scan:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::{IncrementalClustering, IndexKind, TraclusConfig};
    use traclus_geom::{Point2, Trajectory, TrajectoryId};

    /// Drives every checker through the streaming engine with each index
    /// kind — including the power-of-two whole-graph and snapshot==batch
    /// samples at 1, 2, 4, and 8 trajectories, and the per-removal checks
    /// of the decremental sanitizer — so the sanitizer pass runs even if
    /// the broader suites are filtered.
    #[test]
    fn checkers_pass_on_a_streamed_corridor() {
        for index in [IndexKind::Linear, IndexKind::RTree] {
            let config = TraclusConfig {
                eps: 3.0,
                min_lns: 3,
                index,
                ..TraclusConfig::default()
            };
            let mut engine = IncrementalClustering::<2>::new(config);
            for i in 0..9u32 {
                engine.insert(&Trajectory::new(
                    TrajectoryId(i),
                    (0..15)
                        .map(|k| Point2::xy(k as f64 * 5.0, i as f64 * 0.4))
                        .collect(),
                ));
            }
            assert!(!engine.snapshot().clusters.is_empty());
            // Decremental pass: every removal runs the post-removal
            // sanitizer (arrival tiling, compacted index vs full scan, the
            // dirty set's ε-lists vs fresh queries, snapshot == live-window
            // batch).
            for i in [4u32, 0, 8] {
                let report = engine.remove_trajectory(TrajectoryId(i));
                assert_eq!(report.removed_trajectories, 1, "{index:?} tr {i}");
            }
            assert_eq!(engine.live_trajectories(), 6);
        }
    }
}
