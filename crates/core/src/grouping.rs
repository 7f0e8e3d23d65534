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
//!    cores from several components is claimed by the component that seeds
//!    first — the smallest raw id (the "stolen border" semantics). A `min`
//!    over all claiming components reproduces this in any order.
//!
//! Visiting ids in ascending order, every backward edge `(b, id)` with
//! `b < id` therefore sees two final core flags and is classified on the
//! spot: core–core edges are unioned, core–border edges become claims.
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
//! * *Carried edges.* `b` is also pushed onto `c`'s carried list, which
//!   `c`'s visit hands to [`Classification::classify`] as its backward
//!   neighbours. A core `b` is skipped when its union-find root equals that
//!   of the list's last entry. Components only merge during the pass, so
//!   the skipped edge would union nothing new, and a claim on the same
//!   component never changes a claim minimum. This keeps the carried lists
//!   near the border and component count, not the edge count.
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

use crate::cluster::{finalize_raw, ClusterConfig, ClusterStats, Clustering};
use crate::segment_db::{NeighborIndex, SegmentDatabase};

/// Items a worker claims from the cursor at a time.
const BLOCK: usize = 32;

/// Blocks the workers may hold between the cursor and the consumer.
const LOOKAHEAD: usize = 8;

/// Item lists shorter than this run inline on the calling thread: two
/// blocks are the least that lets a worker overlap the consumer, and below
/// that the spawn costs more than the work.
pub(crate) const INLINE_BELOW: usize = 2 * BLOCK;

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

/// Calls `visit(id, Nε(id))` for every id of `ids`, in `ids` order, with
/// exactly the neighbourhood [`SegmentDatabase::neighborhood_into`]
/// returns: [`for_each_ordered`] with the ε-query as its `fill`. Returns
/// whether workers were spawned.
pub(crate) fn for_each_neighborhood<const D: usize>(
    db: &SegmentDatabase<D>,
    index: &NeighborIndex<D>,
    ids: &[u32],
    eps: f64,
    threads: usize,
    mut visit: impl FnMut(u32, &[u32]),
) -> bool {
    for_each_ordered(
        ids,
        threads,
        |&id, hood| db.neighborhood_into(index, id, eps, hood),
        |&id, hood| visit(id, hood),
    )
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

/// Core flags, core components and border claims: the state one ordered
/// pass builds.
pub(crate) struct Classification {
    /// Definition 5 core flag per segment id.
    pub(crate) core: Vec<bool>,
    /// Union-find over core segments; min-root, so a component's root is
    /// its minimum core id.
    pub(crate) dsu: UnionFind,
    /// For each non-core segment: core ids within ε that claim it as a
    /// border member.
    pub(crate) claims: Vec<Vec<u32>>,
}

/// Claim lists are deduplicated once they outgrow this many entries
/// (weighted databases can have non-core segments with arbitrarily many
/// core neighbours; unweighted ones are bounded by `MinLns` anyway).
const CLAIM_DEDUP_LEN: usize = 16;

impl Classification {
    /// `n` unclassified, non-core singletons.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            core: vec![false; n],
            dsu: UnionFind::new(n as u32),
            claims: vec![Vec::new(); n],
        }
    }

    /// Visits `id` in the ascending pass: records its final core flag and
    /// classifies its backward edges (`b < id`, whose flags are final
    /// too). `hood` is ascending — a whole ε-neighbourhood, or just the
    /// backward neighbours [`classify_forward`] carried — and only its
    /// entries below `id` are read.
    pub(crate) fn classify(&mut self, id: u32, id_core: bool, hood: &[u32]) {
        self.core[id as usize] = id_core;
        self.claims[id as usize] = Vec::new();
        for &b in hood.iter().take_while(|&&b| b < id) {
            match (id_core, self.core[b as usize]) {
                (true, true) => self.dsu.union(id, b),
                (true, false) => push_claim(&mut self.claims[b as usize], id),
                (false, true) => push_claim(&mut self.claims[id as usize], b),
                (false, false) => {}
            }
        }
    }
}

/// Raw cluster id of every segment, plus the raw cluster count: components
/// numbered in ascending minimum-core-id order (the sequential seed order),
/// and each non-core segment in the earliest component among the cores its
/// list names. Non-core entries are skipped, so the list may be the
/// ordered pass's claims or a whole ε-neighbourhood
/// ([`crate::IncrementalClustering`]'s ε-graph): both name a core of every
/// component within ε of the segment, so both give the same labels.
pub(crate) fn raw_labels(
    core: &[bool],
    dsu: &UnionFind,
    lists: &[Vec<u32>],
) -> (Vec<Option<u32>>, u32) {
    let n = core.len();
    let mut comp_of_root = vec![u32::MAX; n];
    let mut raw: Vec<Option<u32>> = vec![None; n];
    let mut cluster_count = 0u32;
    for id in 0..n {
        if core[id] {
            let root = dsu.find_readonly(id as u32) as usize;
            if comp_of_root[root] == u32::MAX {
                comp_of_root[root] = cluster_count;
                cluster_count += 1;
            }
            raw[id] = Some(comp_of_root[root]);
        }
    }
    for id in 0..n {
        if !core[id] {
            raw[id] = lists[id]
                .iter()
                .filter(|&&c| core[c as usize])
                .map(|&c| comp_of_root[dsu.find_readonly(c) as usize])
                .min();
        }
    }
    (raw, cluster_count)
}

/// Appends a claiming core, compacting (sort + dedup) only when the list
/// is both past [`CLAIM_DEDUP_LEN`] and out of capacity, then reserving
/// headroom proportional to the distinct count — so a border segment with
/// `k` distinct claiming cores pays O(k log k) per *doubling*, not per
/// push. Duplicates are harmless for correctness (the labels take a min);
/// compaction only bounds memory.
fn push_claim(claims: &mut Vec<u32>, core_id: u32) {
    if claims.len() >= CLAIM_DEDUP_LEN && claims.len() == claims.capacity() {
        claims.sort_unstable();
        claims.dedup();
        claims.reserve(claims.len().max(CLAIM_DEDUP_LEN));
    }
    claims.push(core_id);
}

/// The ordered pass over forward-only ε-queries (see the module docs):
/// visits every id ascending and leaves `|Nε(id)|` in `counts[id]` and
/// each id's core flag, components and claims in `classes`, exactly as
/// [`Classification::classify`] over whole neighbourhoods would. `counts`
/// is zeroed first; the union-find must start as singletons.
pub(crate) fn classify_forward<const D: usize>(
    db: &SegmentDatabase<D>,
    index: &NeighborIndex<D>,
    config: &ClusterConfig,
    threads: usize,
    counts: &mut [f64],
    classes: &mut Classification,
) {
    counts.fill(0.0);
    let ids: Vec<u32> = (0..db.len() as u32).collect();
    // `carried[c]`: visited `b < c` with `c ∈ Nε(b)`, ascending, minus the
    // cores whose component the list already reaches.
    let mut carried: Vec<Vec<u32>> = vec![Vec::new(); db.len()];
    let query = |&id: &u32, forward: &mut Vec<u32>| {
        db.neighborhood_from(index, id, config.eps, id, forward);
    };
    for_each_ordered(&ids, threads, query, |&id, forward| {
        let count = db.add_cardinality(counts[id as usize], forward, config.weighted);
        counts[id as usize] = count;
        let is_core = count >= config.min_lns;
        classes.classify(id, is_core, &std::mem::take(&mut carried[id as usize]));
        let root = is_core.then(|| classes.dsu.find(id));
        let gain = db.cardinality_weight(id, config.weighted);
        for &c in forward.iter().filter(|&&c| c != id) {
            counts[c as usize] += gain;
            let carry = &mut carried[c as usize];
            if let (Some(root), Some(&last)) = (root, carry.last()) {
                if classes.dsu.find(last) == root {
                    continue;
                }
            }
            carry.push(id);
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
) -> (Clustering, ClusterStats) {
    let n = db.len();
    let mut index = db.build_index(config.index, config.eps);
    index.set_pruning(config.pruning);
    let mut counts = vec![0.0; n];
    let mut classes = Classification::new(n);
    classify_forward(db, &index, config, threads, &mut counts, &mut classes);
    #[cfg(feature = "invariant-checks")]
    {
        crate::invariants::assert_union_find_canonical(&classes.dsu, "grouping");
        crate::invariants::assert_counts_exact(db, config, &counts, &classes, "grouping");
    }
    let (raw, cluster_count) = raw_labels(&classes.core, &classes.dsu, &classes.claims);
    let clustering = finalize_raw(db, &raw, cluster_count, config.trajectory_threshold());
    let stats = ClusterStats {
        prune: index.prune_stats(),
    };
    (clustering, stats)
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

    /// Appends one fresh singleton element (the incremental engine grows
    /// the universe as segments stream in).
    pub(crate) fn push(&mut self) {
        self.parent.push(self.parent.len() as u32);
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

    /// [`Self::find`] without path compression, for shared-reference
    /// callers (e.g. taking a snapshot of the incremental engine).
    pub(crate) fn find_readonly(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
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
    use crate::IndexKind;
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
        // The read-only finder agrees without mutating parents.
        assert_eq!(dsu.find_readonly(9), 3);
        // Growth appends singletons that union like any other element.
        dsu.push();
        assert_eq!(dsu.find(10), 10);
        dsu.union(10, 9);
        assert_eq!(dsu.find_readonly(10), 3);
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
                let spawned = for_each_neighborhood(&db, &index, ids, 6.0, threads, |id, hood| {
                    seen.push((id, hood.to_vec()))
                });
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

    #[test]
    fn forward_pass_matches_full_queries() {
        let plain = walk_db(700);
        // Non-dyadic, non-uniform weights: a sum folded in any other order
        // shows in the bits.
        let mut segments: Vec<_> = plain.segments().collect();
        for (k, s) in segments.iter_mut().enumerate() {
            s.weight = 0.3 + 0.1 * (k % 7) as f64;
        }
        let weighted = SegmentDatabase::from_segments(segments, SegmentDistance::default());
        for (db, is_weighted, min_lns) in [(plain, false, 6.0), (weighted, true, 3.3)] {
            for kind in [IndexKind::Linear, IndexKind::RTree] {
                let config = ClusterConfig {
                    weighted: is_weighted,
                    min_lns,
                    index: kind,
                    ..ClusterConfig::new(6.0, 1)
                };
                let index = db.build_index(kind, config.eps);
                // Reference: whole neighbourhoods, classified ascending.
                let mut want_counts = vec![0.0; db.len()];
                let mut want = Classification::new(db.len());
                let mut hood = Vec::new();
                for id in 0..db.len() as u32 {
                    db.neighborhood_into(&index, id, config.eps, &mut hood);
                    let count = db.neighborhood_cardinality(&hood, is_weighted);
                    want_counts[id as usize] = count;
                    want.classify(id, count >= min_lns, &hood);
                }
                let core_count = want.core.iter().filter(|&&c| c).count();
                assert!(core_count > 0 && core_count < db.len(), "cores and borders");
                let labels = |c: &Classification| raw_labels(&c.core, &c.dsu, &c.claims);
                let want_labels = labels(&want);
                for threads in [1, 2, 3, 8] {
                    let context = format!("weighted={is_weighted} {kind:?} t={threads}");
                    // The pass zeroes the counts itself.
                    let mut counts = vec![f64::NAN; db.len()];
                    let mut classes = Classification::new(db.len());
                    classify_forward(&db, &index, &config, threads, &mut counts, &mut classes);
                    for (id, (got, want)) in counts.iter().zip(&want_counts).enumerate() {
                        assert_eq!(got.to_bits(), want.to_bits(), "{context}: count of {id}");
                    }
                    assert_eq!(classes.core, want.core, "{context}: core flags");
                    assert_eq!(labels(&classes), want_labels, "{context}: labels");
                }
            }
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
            for_each_neighborhood(&db, &index, &ids, 6.0, 2, |_, _| {})
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
