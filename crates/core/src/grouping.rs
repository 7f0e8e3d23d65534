//! The ordered parallel grouping engine: ε-queries on scoped workers,
//! classification on the calling thread in strictly ascending id order.
//!
//! The output is **identical** to the sequential Figure 12 loop in
//! [`crate::cluster`], not merely similar, because three quantities the
//! loop produces are independent of visit order:
//!
//! 1. *Core-ness is intrinsic.* Whether `|Nε(L)| ≥ MinLns` depends only on
//!    `L`'s own whole-database ε-query, so a segment's core flag is final
//!    the moment its neighbourhood has been computed.
//! 2. *Clusters are components.* Every core reachable through core-to-core
//!    ε-links joins the same cluster, so clusters restricted to cores are
//!    the connected components of the core-adjacency graph. Raw cluster
//!    ids fall out of the seed scan in ascending-id order, i.e. components
//!    are numbered by their minimum core id.
//! 3. *Borders go to the earliest cluster.* A non-core segment within ε of
//!    cores from several components joins the component that seeds first —
//!    the smallest raw id (the "stolen border" semantics). [`raw_labels`]
//!    takes that `min` over the cores on the border's ε-list once every
//!    core flag is final, so the visit order never matters.
//!
//! Visiting ids in ascending order, every backward edge `(b, id)` with
//! `b < id` therefore sees two final core flags, and core–core edges are
//! unioned on the spot. A non-core `id` keeps its list for [`raw_labels`].
//!
//! [`classify_forward`] queries each id for its forward neighbours `c ≥ id`
//! only, so each unordered pair is refined once. That is exact because
//! the segment distance is symmetric bit for bit: the Lemma 2
//! longer-first ordering with the id tie-break gives `dist(a, b)` and
//! `dist(b, a)` the same operands. The backward half of `Nε(id)` is handed
//! forward instead, two ways:
//!
//! * *Counts.* Visiting `b`, the pass adds `b`'s weight to the running
//!   count of every forward neighbour `c > b`. Those additions reach `c` in
//!   ascending `b` order, and visiting `c` folds its forward list on top:
//!   the same fold, in the same order, as over the whole ascending
//!   `Nε(c)`, so counts are bit-identical to a full query's.
//! * *Carried cores.* A core `b` is also pushed onto `c`'s carried list,
//!   which `c`'s visit reads as its backward core neighbours: a core `c`
//!   unions with each, and a non-core `c` keeps them, followed by its
//!   forward list, as its ε-list. `b` is skipped when its union-find root
//!   equals that of the list's last entry. Components only merge during
//!   the pass, so the skipped edge would union nothing new and would add
//!   no component to a border's list. This keeps the carried lists near
//!   the component count, not the edge count.
//!
//! [`for_each_ordered`] is the parallel half, and the one engine behind
//! every parallel phase: `threads` scoped workers claim blocks of
//! [`BLOCK`] items from a shared atomic cursor and fill recycled flat
//! buffers, while the calling thread consumes the blocks in item order. A
//! worker must hold one of [`LOOKAHEAD`] buffers before it claims a block,
//! so the workers never run more than that many blocks ahead of the
//! consumer and memory stays bounded. Here the items are ids and each fill
//! is an ε-query, a pure read of the database and index, so the consumer
//! observes exactly what a sequential loop over the same ids would, for
//! any thread count. [`SegmentDatabase::from_trajectories`] runs the
//! partition phase on the same map, one trajectory per item.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::cluster::{finalize_raw, ClusterConfig, Clustering};
use crate::segment_db::{NeighborIndex, PruneStats, SegmentDatabase};

/// Items a worker claims from the cursor at a time.
const BLOCK: usize = 32;

/// Blocks the workers may hold between the cursor and the consumer.
const LOOKAHEAD: usize = 8;

/// Item lists shorter than this run inline on the calling thread: two
/// blocks are the least that lets a worker overlap the consumer, and below
/// that the spawn costs more than the work.
const INLINE_BELOW: usize = 2 * BLOCK;

/// Variable-length outputs of consecutive items, flattened into one
/// buffer: `flat[ends[k - 1]..ends[k]]` is the `k`-th output.
struct FlatLists<U> {
    flat: Vec<U>,
    ends: Vec<usize>,
}

impl<U> Default for FlatLists<U> {
    fn default() -> Self {
        Self {
            flat: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<U: Copy> FlatLists<U> {
    /// Appends one list.
    fn push(&mut self, list: &[U]) {
        self.flat.extend_from_slice(list);
        self.ends.push(self.flat.len());
    }

    /// The lists in push order.
    fn iter(&self) -> impl Iterator<Item = &[U]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let list = &self.flat[start..end];
            start = end;
            list
        })
    }

    fn clear(&mut self) {
        self.flat.clear();
        self.ends.clear();
    }
}

/// The ordered parallel map: calls `visit(item, out)` for every item of
/// `items`, in `items` order, where `out` is what `fill(item, out)` appends
/// to an empty vector. With `threads ≥ 2` and at least [`INLINE_BELOW`]
/// items the fills run on scoped workers spawned once for the call;
/// otherwise everything runs inline on the calling thread. `visit` always
/// runs on the calling thread, so it may own mutable state. Each `fill`
/// must depend on its item alone; then `visit` observes exactly what a
/// sequential loop would, for any thread count. Returns whether workers
/// were spawned.
pub(crate) fn for_each_ordered<T: Sync, U: Copy + Send>(
    items: &[T],
    threads: usize,
    fill: impl Fn(&T, &mut Vec<U>) + Sync,
    mut visit: impl FnMut(&T, &[U]),
) -> bool {
    if threads <= 1 || items.len() < INLINE_BELOW {
        let mut out = Vec::new();
        for item in items {
            out.clear();
            fill(item, &mut out);
            visit(item, &out);
        }
        return false;
    }
    let blocks = items.len().div_ceil(BLOCK);
    let queue = BlockQueue::new();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(blocks) {
            let (queue, fill) = (&queue, &fill);
            scope.spawn(move || {
                let _stop = StopOnUnwind(queue);
                let mut out = Vec::new();
                while let Some((b, mut block)) = queue.claim(blocks) {
                    for item in &items[b * BLOCK..items.len().min((b + 1) * BLOCK)] {
                        out.clear();
                        fill(item, &mut out);
                        block.push(&out);
                    }
                    queue.fill(b, block);
                }
            });
        }
        let _stop = StopOnUnwind(&queue);
        for (b, chunk) in items.chunks(BLOCK).enumerate() {
            let block = queue.take(b);
            for (item, out) in chunk.iter().zip(block.iter()) {
                visit(item, out);
            }
            queue.recycle(block);
        }
        // Release any worker still waiting for a buffer.
        queue.stop();
    });
    true
}

/// The hand-off between the workers and the consuming thread.
struct BlockQueue<U> {
    /// Next block index to compute.
    cursor: AtomicUsize,
    state: Mutex<QueueState<U>>,
    /// Signalled when a buffer returns to the pool or the queue stops.
    recycled: Condvar,
    /// Signalled when a block lands in `ready` or the queue stops.
    filled: Condvar,
}

struct QueueState<U> {
    /// Empty buffers. A worker takes one *before* it claims a block, so
    /// the blocks between the consumer and the cursor never outnumber the
    /// buffers, and those blocks own distinct `ready` slots.
    pool: Vec<FlatLists<U>>,
    /// Computed blocks, at `block index % LOOKAHEAD`.
    ready: Vec<Option<FlatLists<U>>>,
    /// Set once the consumer is done or either side unwinds, so nobody
    /// waits for a partner that will never signal.
    stopped: bool,
}

impl<U: Copy> BlockQueue<U> {
    fn new() -> Self {
        Self {
            cursor: AtomicUsize::new(0),
            state: Mutex::new(QueueState {
                pool: (0..LOOKAHEAD).map(|_| FlatLists::default()).collect(),
                ready: (0..LOOKAHEAD).map(|_| None).collect(),
                stopped: false,
            }),
            recycled: Condvar::new(),
            filled: Condvar::new(),
        }
    }

    /// No update of the state can be cut short by a panic, so a poisoned
    /// guard still holds consistent state.
    fn lock(&self) -> MutexGuard<'_, QueueState<U>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's next block: a free buffer, then the next index from the
    /// cursor. `None` once every block is claimed or the queue stopped.
    fn claim(&self, blocks: usize) -> Option<(usize, FlatLists<U>)> {
        let mut state = self.lock();
        let mut block = loop {
            if state.stopped {
                return None;
            }
            if let Some(block) = state.pool.pop() {
                break block;
            }
            state = self
                .recycled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(state);
        // Relaxed: the index only has to be unique; block contents travel
        // through the mutex.
        let b = self.cursor.fetch_add(1, Ordering::Relaxed);
        if b >= blocks {
            // Hand the buffer back so a worker still waiting for one wakes
            // up and sees the cursor exhausted too.
            self.recycle(block);
            return None;
        }
        block.clear();
        Some((b, block))
    }

    fn fill(&self, b: usize, block: FlatLists<U>) {
        self.lock().ready[b % LOOKAHEAD] = Some(block);
        self.filled.notify_one();
    }

    /// The consumer's block `b`, waiting until a worker has filled it.
    fn take(&self, b: usize) -> FlatLists<U> {
        let mut state = self.lock();
        loop {
            if let Some(block) = state.ready[b % LOOKAHEAD].take() {
                return block;
            }
            assert!(!state.stopped, "ordered-map worker panicked");
            state = self
                .filled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn recycle(&self, block: FlatLists<U>) {
        self.lock().pool.push(block);
        self.recycled.notify_one();
    }

    fn stop(&self) {
        self.lock().stopped = true;
        self.recycled.notify_all();
        self.filled.notify_all();
    }
}

/// Stops the queue when its thread unwinds, so a panic on either side
/// surfaces instead of deadlocking the scope join.
struct StopOnUnwind<'a, U: Copy>(&'a BlockQueue<U>);

impl<U: Copy> Drop for StopOnUnwind<'_, U> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

/// Raw cluster id of every segment, plus the raw cluster count: components
/// numbered in ascending minimum-core-id order (the sequential seed order),
/// and each non-core segment in the earliest component among the cores its
/// list names. A segment is core iff its count reaches `min_lns`. Non-core
/// entries are skipped, so the list may be the one [`classify_forward`]
/// keeps for a border (its carried cores, then its forward neighbours) or
/// a whole ε-neighbourhood ([`crate::IncrementalClustering`]'s ε-graph):
/// both name a core of every component within ε of the segment, so both
/// give the same labels. Core segments' lists are not read.
pub(crate) fn raw_labels(
    counts: &[f64],
    min_lns: f64,
    dsu: &mut UnionFind,
    lists: &[Vec<u32>],
) -> (Vec<Option<u32>>, u32) {
    let n = counts.len();
    let core = |id: usize| counts[id] >= min_lns;
    let mut comp_of_root = vec![u32::MAX; n];
    let mut raw: Vec<Option<u32>> = vec![None; n];
    let mut cluster_count = 0u32;
    for id in 0..n {
        if core(id) {
            let root = dsu.find(id as u32) as usize;
            if comp_of_root[root] == u32::MAX {
                comp_of_root[root] = cluster_count;
                cluster_count += 1;
            }
            raw[id] = Some(comp_of_root[root]);
        }
    }
    // A border reads each listed core's component from `raw`. The core
    // filter stays: `raw` gains border labels as this loop runs.
    for id in 0..n {
        if !core(id) {
            raw[id] = lists[id]
                .iter()
                .filter(|&&c| core(c as usize))
                .filter_map(|&c| raw[c as usize])
                .min();
        }
    }
    (raw, cluster_count)
}

/// The ordered pass over forward-only ε-queries (see the module docs):
/// visits every id ascending and leaves `|Nε(id)|` in `counts[id]`, the
/// core components in `dsu`, and in `borders[id]` of every non-core id its
/// carried cores followed by its forward neighbours, the list
/// [`raw_labels`] reads. Core ids' entries stay empty. `counts` is zeroed
/// first; the union-find must start as singletons and `borders` empty. In
/// an unweighted database a border's list is shorter than `MinLns`, since
/// its count is the length of its ε-neighbourhood.
pub(crate) fn classify_forward<const D: usize>(
    db: &SegmentDatabase<D>,
    index: &NeighborIndex<D>,
    config: &ClusterConfig,
    threads: usize,
    counts: &mut [f64],
    dsu: &mut UnionFind,
    borders: &mut [Vec<u32>],
) {
    counts.fill(0.0);
    let ids: Vec<u32> = (0..db.len() as u32).collect();
    // `carried[c]`: visited cores `b < c` with `c ∈ Nε(b)`, ascending, minus
    // those whose component the list already reaches.
    let mut carried: Vec<Vec<u32>> = vec![Vec::new(); db.len()];
    let query = |&id: &u32, forward: &mut Vec<u32>| {
        db.neighborhood_from(index, id, config.eps, id, forward);
    };
    for_each_ordered(&ids, threads, query, |&id, forward| {
        let count = db.add_cardinality(counts[id as usize], forward, config.weighted);
        counts[id as usize] = count;
        let mut backward = std::mem::take(&mut carried[id as usize]);
        let core = count >= config.min_lns;
        if core {
            for &b in &backward {
                dsu.union(id, b);
            }
        }
        let root = dsu.find(id);
        let gain = db.cardinality_weight(id, config.weighted);
        for &c in forward.iter().filter(|&&c| c != id) {
            counts[c as usize] += gain;
            let carry = &mut carried[c as usize];
            if core && carry.last().is_none_or(|&last| dsu.find(last) != root) {
                carry.push(id);
            }
        }
        if !core {
            backward.extend_from_slice(forward);
            borders[id as usize] = backward;
        }
    });
}

/// The grouping phase on `threads` workers: one ordered pass over every
/// segment, then the shared finalisation (trajectory-cardinality filter +
/// dense renumbering). The result equals [`crate::LineSegmentClustering::run`].
pub(crate) fn run_ordered<const D: usize>(
    db: &SegmentDatabase<D>,
    config: &ClusterConfig,
    threads: usize,
) -> (Clustering, PruneStats) {
    let n = db.len();
    let mut index = db.build_index(config.index, config.eps);
    index.set_pruning(config.pruning);
    let mut counts = vec![0.0; n];
    let mut dsu = UnionFind::new(n as u32);
    let mut borders = vec![Vec::new(); n];
    classify_forward(
        db,
        &index,
        config,
        threads,
        &mut counts,
        &mut dsu,
        &mut borders,
    );
    #[cfg(feature = "invariant-checks")]
    {
        crate::invariants::assert_union_find_canonical(&dsu, "grouping");
        crate::invariants::assert_pass_exact(db, config, &counts, &mut dsu, &borders);
    }
    let (raw, cluster_count) = raw_labels(&counts, config.min_lns, &mut dsu, &borders);
    // The border lists are spent: free them before the clustering is built.
    drop(borders);
    let clustering = finalize_raw(db, &raw, cluster_count, config.trajectory_threshold());
    (clustering, index.prune_stats())
}

/// Union-find with path halving; the smaller root always wins a union, so
/// a component's root is its minimum member id — deterministic regardless
/// of union order. Component numbering in [`raw_labels`] relies on exactly
/// this min-root property.
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    pub(crate) fn new(n: u32) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    /// Inlined, like [`Self::union`], into the generic grouping and stream
    /// code that calls it once per ε-edge in the callers' crates.
    #[inline]
    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// The raw parent array, for the `invariant-checks` canonical-form
    /// checker (`parent[x] ≤ x` everywhere).
    #[cfg(feature = "invariant-checks")]
    pub(crate) fn parent_slice(&self) -> &[u32] {
        &self.parent
    }

    #[inline]
    pub(crate) fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{
        partition_trajectories, partition_trajectories_on, MdlCost, PartitionConfig,
    };
    use crate::{IndexKind, LineSegmentClustering, SegmentLabel};
    use traclus_geom::{
        IdentifiedSegment, Point2, Segment2, SegmentDistance, SegmentId, Trajectory, TrajectoryId,
    };

    #[test]
    fn union_find_roots_are_minimum_members() {
        let mut dsu = UnionFind::new(10);
        dsu.union(7, 3);
        dsu.union(3, 9);
        dsu.union(5, 7);
        assert_eq!(dsu.find(9), 3);
        assert_eq!(dsu.find(5), 3);
        assert_eq!(dsu.find(0), 0, "untouched elements stay singletons");
    }

    /// Deterministic uniform draws from `[0, 1)` (xorshift64).
    fn unit_draws() -> impl FnMut() -> f64 {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A deterministic walk of `n` segments with jumps, so neighbourhood
    /// sizes vary from empty to dense.
    fn walk_db(n: usize) -> SegmentDatabase<2> {
        let mut next = unit_draws();
        let (mut x, mut y) = (0.0f64, 0.0f64);
        let segments = (0..n)
            .map(|k| {
                let (nx, ny) = (x + 2.0 + 4.0 * next(), y + 6.0 * next() - 3.0);
                let s = Segment2::xy(x, y, nx, ny);
                (x, y) = if next() < 0.1 {
                    (120.0 * next(), 90.0 * next())
                } else {
                    (nx, ny)
                };
                IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(k as u32 % 13), s)
            })
            .collect();
        SegmentDatabase::from_segments(segments, SegmentDistance::default())
    }

    #[test]
    fn ordered_neighborhoods_match_sequential_queries() {
        let db = walk_db(900);
        let index = db.build_index(IndexKind::RTree, 6.0);
        let all: Vec<u32> = (0..db.len() as u32).collect();
        let mut lists: Vec<Vec<u32>> = [
            0,
            1,
            BLOCK - 1,
            BLOCK + 1,
            4 * BLOCK - 1,
            4 * BLOCK + 1,
            3 * LOOKAHEAD * BLOCK + 5,
        ]
        .iter()
        .map(|&len| all[..len].to_vec())
        .collect();
        // Ascending, gapped, not starting at zero.
        lists.push(
            all.iter()
                .copied()
                .filter(|id| id % 3 != 1)
                .skip(9)
                .collect(),
        );
        let mut expected = Vec::new();
        for ids in &lists {
            for threads in [1, 2, 3, 8] {
                let mut seen: Vec<(u32, Vec<u32>)> = Vec::new();
                let spawned = for_each_ordered(
                    ids,
                    threads,
                    |&id, hood| db.neighborhood_into(&index, id, 6.0, hood),
                    |&id, hood| seen.push((id, hood.to_vec())),
                );
                assert_eq!(spawned, threads > 1 && ids.len() >= INLINE_BELOW);
                assert_eq!(seen.len(), ids.len(), "t={threads}: each id once");
                for (&id, (visited, hood)) in ids.iter().zip(&seen) {
                    assert_eq!(*visited, id, "t={threads}: out of input order");
                    db.neighborhood_into(&index, id, 6.0, &mut expected);
                    assert_eq!(*hood, expected, "t={threads}: id {id}");
                }
            }
        }
    }

    /// `n` trajectories: wandering walks of 3 to 40 points, every third one
    /// weighted, with an empty, a one-point and an all-duplicate trajectory
    /// (none yields a segment) in every eleven.
    fn trajectory_pool(n: usize) -> Vec<Trajectory<2>> {
        let mut next = unit_draws();
        (0..n as u32)
            .map(|k| {
                let id = TrajectoryId(k);
                let origin = Point2::xy(200.0 * next(), 200.0 * next());
                let points = match k % 11 {
                    0 => Vec::new(),
                    1 => vec![origin],
                    2 => vec![origin; 4],
                    _ => {
                        let (mut p, mut heading) = (origin, 6.3 * next());
                        (0..3 + k % 38)
                            .map(|_| {
                                heading += 1.2 * next() - 0.6;
                                let step = 1.0 + 9.0 * next();
                                p = Point2::xy(
                                    p.x() + step * heading.cos(),
                                    p.y() + step * heading.sin(),
                                );
                                p
                            })
                            .collect()
                    }
                };
                if k % 3 == 0 {
                    Trajectory::with_weight(id, points, 0.3 + 0.1 * (k % 7) as f64)
                } else {
                    Trajectory::new(id, points)
                }
            })
            .collect()
    }

    #[test]
    fn ordered_partition_matches_sequential_reference() {
        let pool = trajectory_pool(3 * LOOKAHEAD * BLOCK + 5);
        let config = PartitionConfig {
            cost: MdlCost::with_precision(0.5),
            ..PartitionConfig::default()
        };
        // Bit patterns, so -0.0 and 0.0 differ and NaNs compare.
        let bits = |s: &IdentifiedSegment<2>| {
            (
                s.id,
                s.trajectory,
                s.segment.start.coords.map(f64::to_bits),
                s.segment.end.coords.map(f64::to_bits),
                s.weight.to_bits(),
            )
        };
        for len in [0, 1, BLOCK - 1, BLOCK + 1, 3 * LOOKAHEAD * BLOCK + 5] {
            let trajectories = &pool[..len];
            let want: Vec<_> = partition_trajectories(&config, trajectories)
                .iter()
                .map(bits)
                .collect();
            assert!(
                len < 3 || want.len() > len,
                "{len} trajectories: the walks must be cut into several segments"
            );
            for threads in [1, 2, 3, 8] {
                let got: Vec<_> = partition_trajectories_on(&config, trajectories, threads)
                    .iter()
                    .map(bits)
                    .collect();
                assert_eq!(got, want, "{len} trajectories, t={threads}");
            }
        }
    }

    /// Two bundles of nine light bars, within ε = 6 above and below a light
    /// border bar, each held core by one heavy bar beyond the border's
    /// reach: the border stays non-core with 18 core neighbours from two
    /// components. In id order: the lower bundle's heavy bar, the upper
    /// bundle, the border, the lower bundle, the upper bundle's heavy bar.
    /// So the border meets the upper bundle first, but the lower one has
    /// the smaller minimum core id. All lie far left of `walk_db`'s walks.
    fn border_bundles(first: u32) -> Vec<IdentifiedSegment<2>> {
        let mut bars = vec![(-9.0, 3.0)];
        bars.extend((0..9).map(|k| (3.5 + 0.25 * k as f64, 0.05)));
        bars.push((0.0, 0.05));
        bars.extend((0..9).map(|k| (-3.5 - 0.25 * k as f64, 0.05)));
        bars.push((9.0, 3.0));
        (first..)
            .zip(bars)
            .map(|(id, (y, weight))| IdentifiedSegment {
                weight,
                ..IdentifiedSegment::new(
                    SegmentId(id),
                    TrajectoryId(id),
                    Segment2::xy(-1000.0, y, -990.0, y),
                )
            })
            .collect()
    }

    /// The reference the ordered pass must match: every whole
    /// ε-neighbourhood, its count, and every core unioned with the cores on
    /// its list.
    fn full_queries(
        db: &SegmentDatabase<2>,
        index: &NeighborIndex<2>,
        config: &ClusterConfig,
    ) -> (Vec<Vec<u32>>, Vec<f64>, UnionFind) {
        let hoods: Vec<Vec<u32>> = (0..db.len() as u32)
            .map(|id| db.neighborhood(index, id, config.eps))
            .collect();
        let counts: Vec<f64> = hoods
            .iter()
            .map(|hood| db.neighborhood_cardinality(hood, config.weighted))
            .collect();
        let core = |id: u32| counts[id as usize] >= config.min_lns;
        let mut dsu = UnionFind::new(db.len() as u32);
        for (id, hood) in (0..).zip(&hoods) {
            for &m in hood.iter().filter(|&&m| core(id) && core(m)) {
                dsu.union(id, m);
            }
        }
        (hoods, counts, dsu)
    }

    #[test]
    fn forward_pass_matches_full_queries() {
        let plain = walk_db(700);
        // Non-dyadic, non-uniform weights: a sum folded in any other order
        // shows in the bits.
        let mut segments: Vec<_> = plain.segments().collect();
        for (k, s) in segments.iter_mut().enumerate() {
            s.weight = 0.3 + 0.1 * (k % 7) as f64;
        }
        let weighted = SegmentDatabase::from_segments(segments.clone(), SegmentDistance::default());
        segments.extend(border_bundles(700));
        let bundled = SegmentDatabase::from_segments(segments, SegmentDistance::default());
        let inputs = [
            (plain, false, 6.0),
            (weighted, true, 3.3),
            (bundled, true, 3.3),
        ];
        for (db, weighted, min_lns) in &inputs {
            for kind in [IndexKind::Linear, IndexKind::RTree] {
                let config = ClusterConfig {
                    weighted: *weighted,
                    min_lns: *min_lns,
                    index: kind,
                    ..ClusterConfig::new(6.0, 1)
                };
                let index = db.build_index(kind, config.eps);
                let (hoods, want_counts, mut want_dsu) = full_queries(db, &index, &config);
                let core_count = want_counts.iter().filter(|&&c| c >= *min_lns).count();
                assert!(core_count > 0 && core_count < db.len(), "cores and borders");
                let want_labels = raw_labels(&want_counts, *min_lns, &mut want_dsu, &hoods);
                for threads in [1, 2, 3, 8] {
                    let context = format!(
                        "{} segments, weighted={weighted} {kind:?} t={threads}",
                        db.len()
                    );
                    // The pass zeroes the counts itself.
                    let mut counts = vec![f64::NAN; db.len()];
                    let mut dsu = UnionFind::new(db.len() as u32);
                    let mut borders = vec![Vec::new(); db.len()];
                    classify_forward(
                        db,
                        &index,
                        &config,
                        threads,
                        &mut counts,
                        &mut dsu,
                        &mut borders,
                    );
                    for (id, (got, want)) in counts.iter().zip(&want_counts).enumerate() {
                        assert_eq!(got.to_bits(), want.to_bits(), "{context}: count of {id}");
                    }
                    assert_eq!(
                        raw_labels(&counts, *min_lns, &mut dsu, &borders),
                        want_labels,
                        "{context}: labels"
                    );
                }
            }
        }

        // The bundled input holds a weighted border with more than 16 core
        // neighbours, from two components.
        let (db, ..) = &inputs[2];
        let config = ClusterConfig {
            weighted: true,
            min_lns: 3.3,
            ..ClusterConfig::new(6.0, 1)
        };
        let (border, lower, upper) = (710, 700, 701);
        let index = db.build_index(config.index, config.eps);
        let (hoods, counts, mut dsu) = full_queries(db, &index, &config);
        let cores: Vec<u32> = hoods[border]
            .iter()
            .copied()
            .filter(|&c| counts[c as usize] >= config.min_lns)
            .collect();
        assert!(
            counts[border] < config.min_lns && cores.len() > 16,
            "{cores:?}"
        );
        let mut roots: Vec<u32> = cores.iter().map(|&c| dsu.find(c)).collect();
        roots.sort_unstable();
        roots.dedup();
        assert_eq!(roots, [lower, upper], "two components meet at the border");
        let clustering = LineSegmentClustering::new(db, config);
        let labels = clustering.run().labels;
        assert!(matches!(labels[border], SegmentLabel::Cluster(_)));
        assert_ne!(labels[lower as usize], labels[upper as usize]);
        assert_eq!(
            labels[border], labels[lower as usize],
            "the border joins the component with the smaller minimum core id"
        );
        for threads in [1, 2, 3, 8] {
            assert!(
                clustering.run_parallel(threads) == clustering.run(),
                "t={threads}"
            );
        }
    }

    #[test]
    fn worker_panic_surfaces_instead_of_deadlocking() {
        let db = walk_db(300);
        let index = db.build_index(IndexKind::RTree, 6.0);
        // An id past the end makes one worker's query panic mid-pass.
        let mut ids: Vec<u32> = (0..db.len() as u32).collect();
        ids[5 * BLOCK] = db.len() as u32 + 7;
        let outcome = std::panic::catch_unwind(|| {
            let query =
                |&id: &u32, hood: &mut Vec<u32>| db.neighborhood_into(&index, id, 6.0, hood);
            for_each_ordered(&ids, 2, query, |_, _| {})
        });
        assert!(outcome.is_err());
        // A fill that panics on its own, then a visit that panics.
        let items: Vec<usize> = (0..20 * BLOCK).collect();
        let outcome = std::panic::catch_unwind(|| {
            let fill = |&k: &usize, out: &mut Vec<usize>| {
                assert!(k != 5 * BLOCK + 3, "fill panics");
                out.push(k);
            };
            for_each_ordered(&items, 3, fill, |_, _| {})
        });
        assert!(outcome.is_err());
        let outcome = std::panic::catch_unwind(|| {
            let visit = |&k: &usize, _: &[usize]| assert!(k != 7 * BLOCK, "visit panics");
            for_each_ordered(&items, 3, |&k, out| out.push(k), visit)
        });
        assert!(outcome.is_err());
    }
}
