//! An R-tree built from scratch: STR (sort-tile-recursive) bulk loading
//! plus Guttman-style insertion with quadratic split.
//!
//! The paper's Lemma 3 invokes "an appropriate index such as the R-tree
//! \[10\]" (Guttman, SIGMOD 1984) to bring ε-neighborhood queries from O(n)
//! to O(log n). Bulk loading handles the common TRACLUS flow — partition
//! all trajectories, then index all segments at once — while insertion
//! supports incremental use.

use traclus_geom::Aabb;

/// Maximum entries per node before a split (Guttman's `M`).
const MAX_ENTRIES: usize = 16;

/// Minimum entries per node after a split (Guttman's `m`).
const MIN_ENTRIES: usize = 6;

// Guttman's constraint on the fan-out: `2 ≤ m ≤ M/2`.
const _: () = assert!(2 <= MIN_ENTRIES && MIN_ENTRIES <= MAX_ENTRIES / 2);

#[derive(Debug, Clone)]
enum Node<const D: usize> {
    Leaf {
        entries: Vec<(u32, Aabb<D>)>,
    },
    Internal {
        children: Vec<(Aabb<D>, Box<Node<D>>)>,
    },
}

impl<const D: usize> Node<D> {
    fn bbox(&self) -> Aabb<D> {
        let mut b = Aabb::empty();
        match self {
            Node::Leaf { entries } => {
                for (_, e) in entries {
                    b.extend(e);
                }
            }
            Node::Internal { children } => {
                for (cb, _) in children {
                    b.extend(cb);
                }
            }
        }
        b
    }

    fn count(&self) -> usize {
        match self {
            Node::Leaf { entries } => entries.len(),
            Node::Internal { children } => children.iter().map(|(_, c)| c.count()).sum(),
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children } => 1 + children.first().map_or(0, |(_, c)| c.depth()),
        }
    }

    fn query_into(&self, window: &Aabb<D>, out: &mut Vec<u32>) {
        match self {
            Node::Leaf { entries } => {
                for (id, b) in entries {
                    if b.intersects(window) {
                        out.push(*id);
                    }
                }
            }
            Node::Internal { children } => {
                for (b, child) in children {
                    if b.intersects(window) {
                        child.query_into(window, out);
                    }
                }
            }
        }
    }
}

/// An R-tree over id-tagged boxes, with Guttman's fan-out `M = 16`,
/// `m = 6`.
///
/// A query returns **every** stored id whose box intersects the window
/// (false positives allowed, false negatives not) — exactly the contract
/// the conservative ε-filter of the crate docs needs.
#[derive(Debug, Clone)]
pub struct RTree<const D: usize> {
    root: Node<D>,
    len: usize,
}

impl<const D: usize> Default for RTree<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> RTree<D> {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::Leaf {
                entries: Vec::new(),
            },
            len: 0,
        }
    }

    /// Bulk-loads with the STR (sort-tile-recursive) algorithm: full leaves,
    /// near-minimal overlap, O(n log n) build.
    #[expect(
        clippy::expect_used,
        reason = "the loop leaves one node in the non-empty level for the tail expression to take"
    )]
    pub fn bulk_load(entries: impl IntoIterator<Item = (u32, Aabb<D>)>) -> Self {
        let mut items: Vec<(u32, Aabb<D>)> = entries.into_iter().collect();
        let len = items.len();
        if items.is_empty() {
            return Self::new();
        }
        // Tile recursively over dimensions, then chunk into leaves.
        str_sort(&mut items, 0, MAX_ENTRIES, |e| e.1);
        let mut level: Vec<Node<D>> = items
            .chunks(MAX_ENTRIES)
            .map(|chunk| Node::Leaf {
                entries: chunk.to_vec(),
            })
            .collect();
        while level.len() > 1 {
            let mut tagged: Vec<(Aabb<D>, Node<D>)> =
                level.into_iter().map(|n| (n.bbox(), n)).collect();
            str_sort(&mut tagged, 0, MAX_ENTRIES, |e| e.0);
            level = tagged
                .chunks_mut(MAX_ENTRIES)
                .map(|chunk| Node::Internal {
                    children: chunk
                        .iter_mut()
                        .map(|(b, n)| {
                            (
                                *b,
                                Box::new(std::mem::replace(
                                    n,
                                    Node::Leaf {
                                        entries: Vec::new(),
                                    },
                                )),
                            )
                        })
                        .collect(),
                })
                .collect();
        }
        Self {
            root: level.pop().expect("non-empty level"),
            len,
        }
    }

    /// Inserts one entry (Guttman: choose-leaf by least enlargement,
    /// quadratic split on overflow).
    pub fn insert(&mut self, id: u32, bbox: Aabb<D>) {
        self.len += 1;
        if let Some((left, right)) = insert_rec(&mut self.root, id, &bbox) {
            // Root split: grow the tree by one level.
            self.root = Node::Internal {
                children: vec![
                    (left.bbox(), Box::new(left)),
                    (right.bbox(), Box::new(right)),
                ],
            };
        }
    }

    /// Keeps the entries that `f` maps to `Some`, under the id it returns,
    /// and drops the rest, in one walk: how an owner that compacts its id
    /// space drops the departed ids and renumbers the survivors. `f` runs
    /// once per entry and must be injective on the entries it keeps.
    ///
    /// Deliberately simpler than Guttman's condense-tree: survivors keep
    /// their leaves and order, emptied nodes are pruned, the boxes above
    /// every leaf that lost an entry are re-tightened, and single-child
    /// roots collapse. Nodes may drop below `MIN_ENTRIES`, which costs query
    /// selectivity, never correctness. Dropping every entry leaves one
    /// empty leaf, the tree [`Self::new`] starts from.
    pub fn retain_map(&mut self, mut f: impl FnMut(u32) -> Option<u32>) {
        (self.len, _) = retain_rec(&mut self.root, &mut f);
        if self.len == 0 {
            self.root = Node::Leaf {
                entries: Vec::new(),
            };
        }
        // Collapse single-child roots so leaf depth shrinks uniformly.
        while let Node::Internal { children } = &mut self.root {
            if children.len() != 1 {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "the loop breaks unless the root has exactly one child"
            )]
            let (_, child) = children.pop().expect("exactly one child");
            self.root = *child;
        }
    }

    /// Appends to `out` the ids of all entries whose box intersects
    /// `window`. `out` is *not* cleared; each id appears at most once.
    pub fn query_into(&self, window: &Aabb<D>, out: &mut Vec<u32>) {
        if window.is_empty() {
            return;
        }
        self.root.query_into(window, out);
    }

    /// [`Self::query_into`] into a fresh vector.
    pub fn query(&self, window: &Aabb<D>) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_into(window, &mut out);
        out
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 for a single leaf).
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Verifies structural invariants (used by tests): entry counts, bbox
    /// tightness (every parent entry is exactly its child's box, so it
    /// contains the child), and uniform leaf depth.
    pub fn check_invariants(&self) {
        fn walk<const D: usize>(node: &Node<D>, depth: usize, leaf_depth: &mut Option<usize>) {
            match node {
                Node::Leaf { .. } => match leaf_depth {
                    None => *leaf_depth = Some(depth),
                    Some(d) => assert_eq!(*d, depth, "leaves at different depths"),
                },
                Node::Internal { children } => {
                    assert!(!children.is_empty(), "empty internal node");
                    for (b, child) in children {
                        let actual = child.bbox();
                        assert_eq!(*b, actual, "parent entry is not its child's tight box");
                        walk(child, depth + 1, leaf_depth);
                    }
                }
            }
        }
        let mut leaf_depth = None;
        walk(&self.root, 0, &mut leaf_depth);
        assert_eq!(self.root.count(), self.len, "entry count mismatch");
    }
}

/// Recursive STR tiling: sort by the centre of dimension `dim`, slice into
/// `⌈n/slab⌉`-sized runs, recurse on the next dimension. The same recursion
/// tiles raw entries and, one level up, child nodes; `bbox_of` reads the box
/// of either.
fn str_sort<T, const D: usize>(
    items: &mut [T],
    dim: usize,
    node_cap: usize,
    bbox_of: impl Fn(&T) -> Aabb<D> + Copy,
) {
    if dim >= D || items.len() <= node_cap {
        return;
    }
    items.sort_by(|a, b| {
        let ca = bbox_of(a).center().coords[dim];
        let cb = bbox_of(b).center().coords[dim];
        ca.total_cmp(&cb)
    });
    let n_nodes = items.len().div_ceil(node_cap);
    let remaining_dims = D - dim;
    let slices = (n_nodes as f64)
        .powf(1.0 / remaining_dims as f64)
        .ceil()
        .max(1.0) as usize;
    let slab = items.len().div_ceil(slices);
    for chunk in items.chunks_mut(slab.max(1)) {
        str_sort(chunk, dim + 1, node_cap, bbox_of);
    }
}

/// Recursive [`RTree::retain_map`]: returns the entries left below `node`
/// and whether any was dropped, having pruned the children it emptied and
/// re-tightened the box of every child that lost an entry.
fn retain_rec<const D: usize>(
    node: &mut Node<D>,
    f: &mut impl FnMut(u32) -> Option<u32>,
) -> (usize, bool) {
    match node {
        Node::Leaf { entries } => {
            let before = entries.len();
            entries.retain_mut(|(id, _)| match f(*id) {
                Some(new) => {
                    *id = new;
                    true
                }
                None => false,
            });
            (entries.len(), entries.len() < before)
        }
        Node::Internal { children } => {
            let (mut left, mut dropped) = (0, false);
            children.retain_mut(|(bbox, child)| {
                let (kept, shrank) = retain_rec(child, f);
                if shrank && kept > 0 {
                    *bbox = child.bbox();
                }
                left += kept;
                dropped |= shrank;
                kept > 0
            });
            (left, dropped)
        }
    }
}

/// Recursive insertion; returns `Some((left, right))` when the node split.
fn insert_rec<const D: usize>(
    node: &mut Node<D>,
    id: u32,
    bbox: &Aabb<D>,
) -> Option<(Node<D>, Node<D>)> {
    match node {
        Node::Leaf { entries } => {
            entries.push((id, *bbox));
            if entries.len() > MAX_ENTRIES {
                let (a, b) = quadratic_split(std::mem::take(entries), |e| e.1);
                Some((Node::Leaf { entries: a }, Node::Leaf { entries: b }))
            } else {
                None
            }
        }
        Node::Internal { children } => {
            // Choose the child whose bbox needs least enlargement
            // (ties: smaller volume).
            #[expect(clippy::expect_used, reason = "an internal node always has children")]
            let best = (0..children.len())
                .min_by(|&i, &j| {
                    let ei = children[i].0.enlargement(bbox);
                    let ej = children[j].0.enlargement(bbox);
                    ei.total_cmp(&ej)
                        .then_with(|| children[i].0.volume().total_cmp(&children[j].0.volume()))
                })
                .expect("internal node has children");
            let split = insert_rec(&mut children[best].1, id, bbox);
            children[best].0 = children[best].1.bbox();
            if let Some((l, r)) = split {
                children[best] = (l.bbox(), Box::new(l));
                children.push((r.bbox(), Box::new(r)));
                if children.len() > MAX_ENTRIES {
                    let (a, b) = quadratic_split(std::mem::take(children), |e| e.0);
                    return Some((
                        Node::Internal { children: a },
                        Node::Internal { children: b },
                    ));
                }
            }
            None
        }
    }
}

/// Guttman's quadratic split: seed with the pair wasting the most area,
/// then assign each remaining entry to the group needing least enlargement,
/// honouring the min-entries floor.
fn quadratic_split<T, const D: usize>(
    mut entries: Vec<T>,
    bbox_of: impl Fn(&T) -> Aabb<D>,
) -> (Vec<T>, Vec<T>) {
    debug_assert!(entries.len() >= 2);
    // Pick seeds.
    let (mut si, mut sj, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let bi = bbox_of(&entries[i]);
            let bj = bbox_of(&entries[j]);
            let waste = bi.union(&bj).volume() - bi.volume() - bj.volume();
            if waste > worst {
                worst = waste;
                si = i;
                sj = j;
            }
        }
    }
    // Remove the later index first so the earlier stays valid.
    let (hi, lo) = if si > sj { (si, sj) } else { (sj, si) };
    let seed_b = entries.swap_remove(hi);
    let seed_a = entries.swap_remove(lo);
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut bbox_a = bbox_of(&group_a[0]);
    let mut bbox_b = bbox_of(&group_b[0]);

    while let Some(item) = entries.pop() {
        let remaining = entries.len();
        // Force-assign when a group must take everything left to reach m.
        if group_a.len() + remaining < MIN_ENTRIES {
            bbox_a.extend(&bbox_of(&item));
            group_a.push(item);
            continue;
        }
        if group_b.len() + remaining < MIN_ENTRIES {
            bbox_b.extend(&bbox_of(&item));
            group_b.push(item);
            continue;
        }
        let ib = bbox_of(&item);
        let ea = bbox_a.enlargement(&ib);
        let eb = bbox_b.enlargement(&ib);
        if ea < eb || (ea == eb && group_a.len() <= group_b.len()) {
            bbox_a.extend(&ib);
            group_a.push(item);
        } else {
            bbox_b.extend(&ib);
            group_b.push(item);
        }
    }
    (group_a, group_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearScanIndex;

    fn aabb2(minx: f64, miny: f64, maxx: f64, maxy: f64) -> Aabb<2> {
        Aabb::new([minx, miny], [maxx, maxy])
    }

    fn lattice(n: usize) -> Vec<(u32, Aabb<2>)> {
        let mut out = Vec::new();
        let side = (n as f64).sqrt().ceil() as usize;
        for i in 0..n {
            let x = (i % side) as f64 * 2.0;
            let y = (i / side) as f64 * 2.0;
            out.push((i as u32, aabb2(x, y, x + 1.2, y + 0.8)));
        }
        out
    }

    #[test]
    fn bulk_load_invariants_and_queries() {
        let entries = lattice(500);
        let tree = RTree::bulk_load(entries.clone());
        tree.check_invariants();
        assert_eq!(tree.len(), 500);
        assert!(tree.depth() >= 2, "500 entries cannot fit one leaf");

        let linear = LinearScanIndex::build(entries);
        for &(x, y, s) in &[(0.0, 0.0, 3.0), (10.0, 10.0, 5.0), (40.0, 0.0, 2.0)] {
            let w = aabb2(x, y, x + s, y + s);
            let mut a = tree.query(&w);
            let mut b = linear.query(&w);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "window {w:?}");
        }
    }

    #[test]
    fn incremental_insert_matches_linear_scan() {
        let entries = lattice(300);
        let mut tree = RTree::new();
        let mut linear = LinearScanIndex::default();
        for (id, b) in entries {
            tree.insert(id, b);
            linear.insert(id, b);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 300);
        for &(x, y, s) in &[(0.0, 0.0, 100.0), (5.0, 5.0, 0.5), (31.0, 31.0, 4.0)] {
            let w = aabb2(x, y, x + s, y + s);
            let mut a = tree.query(&w);
            let mut b = linear.query(&w);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "window {w:?}");
        }
    }

    #[test]
    fn bulk_load_handles_signed_zeros_and_tied_centers() {
        // Regression for the partial_cmp → total_cmp switch in the STR
        // sorts: centers that tie exactly (stacked boxes) and centers
        // differing only in zero sign (-0.0 vs 0.0 — unequal under
        // total_cmp, equal under partial_cmp) must still produce a tree
        // whose queries match a brute-force filter.
        let mut entries = Vec::new();
        for i in 0..40u32 {
            let x = if i % 2 == 0 { -0.0 } else { 0.0 };
            entries.push((i, aabb2(x, i as f64, x + 1.0, i as f64 + 0.5)));
        }
        // A fully stacked pile: every center identical.
        for i in 40..80u32 {
            entries.push((i, aabb2(5.0, 5.0, 6.0, 6.0)));
        }
        let tree = RTree::bulk_load(entries.clone());
        tree.check_invariants();
        let linear = LinearScanIndex::build(entries);
        for w in [
            aabb2(-1.0, -1.0, 2.0, 50.0),
            aabb2(4.5, 4.5, 7.0, 7.0),
            aabb2(0.0, 10.0, 0.5, 20.0),
        ] {
            let mut a = tree.query(&w);
            let mut b = linear.query(&w);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "window {w:?}");
        }
    }

    #[test]
    fn empty_tree_queries_nothing() {
        let tree: RTree<2> = RTree::default();
        assert!(tree.is_empty());
        assert!(tree.query(&aabb2(0.0, 0.0, 1.0, 1.0)).is_empty());
    }

    #[test]
    fn single_entry() {
        let tree = RTree::bulk_load(vec![(9, aabb2(0.0, 0.0, 1.0, 1.0))]);
        tree.check_invariants();
        assert_eq!(tree.query(&aabb2(0.5, 0.5, 0.6, 0.6)), vec![9]);
        assert!(tree.query(&aabb2(2.0, 2.0, 3.0, 3.0)).is_empty());
    }

    #[test]
    fn duplicate_boxes_are_all_reported() {
        let same = aabb2(1.0, 1.0, 2.0, 2.0);
        let entries: Vec<_> = (0..50).map(|i| (i, same)).collect();
        let tree = RTree::bulk_load(entries);
        tree.check_invariants();
        let mut hits = tree.query(&aabb2(1.5, 1.5, 1.6, 1.6));
        hits.sort_unstable();
        assert_eq!(hits, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn query_window_outside_universe() {
        let tree = RTree::bulk_load(lattice(64));
        assert!(tree.query(&aabb2(-100.0, -100.0, -99.0, -99.0)).is_empty());
    }

    /// Asserts that `tree` answers three probe windows like a linear scan
    /// over `expected`.
    fn assert_same_answers(tree: &RTree<2>, expected: &[(u32, Aabb<2>)], context: &str) {
        let linear = LinearScanIndex::build(expected.iter().copied());
        for &(x, y, s) in &[(0.0, 0.0, 100.0), (3.0, 3.0, 4.0), (20.0, 12.0, 6.0)] {
            let w = aabb2(x, y, x + s, y + s);
            let mut a = tree.query(&w);
            let mut b = linear.query(&w);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{context}, window {w:?}");
        }
    }

    #[test]
    fn remove_matches_linear_scan_after_each_deletion() {
        let entries = lattice(200);
        let mut tree = RTree::bulk_load(entries.clone());
        let mut live = entries;
        // Delete in an order that empties whole leaves (consecutive STR
        // chunks are spatial runs) interleaved with scattered ids.
        let order: Vec<u32> = (0..200u32)
            .map(|k| if k % 2 == 0 { k / 2 } else { 199 - k / 2 })
            .collect();
        for (step, &gone) in order.iter().enumerate() {
            tree.retain_map(|id| (id != gone).then_some(id));
            live.retain(|&(id, _)| id != gone);
            tree.check_invariants();
            assert_eq!(tree.len(), 199 - step);
            assert_same_answers(&tree, &live, &format!("step {step}"));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.depth(), 1, "emptied tree collapses to a single leaf");
        // The emptied tree keeps accepting inserts.
        tree.insert(7, aabb2(0.0, 0.0, 1.0, 1.0));
        tree.check_invariants();
        assert_eq!(tree.query(&aabb2(0.5, 0.5, 0.6, 0.6)), vec![7]);
    }

    #[test]
    fn emptying_a_multi_level_tree_in_one_walk_leaves_one_empty_leaf() {
        let mut tree = RTree::bulk_load(lattice(200));
        assert!(tree.depth() >= 2, "200 entries cannot fit one leaf");
        tree.retain_map(|_| None);
        assert!(tree.is_empty());
        assert_eq!(tree.depth(), 1);
        tree.check_invariants();
        tree.insert(7, aabb2(0.0, 0.0, 1.0, 1.0));
        tree.check_invariants();
        assert_eq!(tree.query(&aabb2(0.5, 0.5, 0.6, 0.6)), vec![7]);
    }

    #[test]
    fn remove_of_absent_id_is_a_noop() {
        let mut tree = RTree::bulk_load(lattice(32));
        let before = format!("{tree:?}");
        tree.retain_map(|id| (id != 999).then_some(id));
        assert_eq!(format!("{tree:?}"), before);
        assert_eq!(tree.len(), 32);
        tree.check_invariants();
    }

    #[test]
    fn remove_interleaved_with_insert_keeps_invariants() {
        let entries = lattice(128);
        let mut tree = RTree::bulk_load(entries);
        // Churn: remove the first half while inserting replacements.
        for i in 0..64u32 {
            tree.retain_map(|id| (id != i).then_some(id));
            assert_eq!(tree.len(), 127);
            let x = 200.0 + i as f64;
            tree.insert(1000 + i, aabb2(x, 0.0, x + 0.5, 0.5));
            tree.check_invariants();
        }
        assert_eq!(tree.len(), 128);
        let hits = tree.query(&aabb2(200.0, 0.0, 300.0, 1.0));
        assert_eq!(hits.len(), 64);
    }

    #[test]
    fn retain_map_renumbers_every_entry_in_place() {
        let entries = lattice(200);
        let mut tree = RTree::bulk_load(entries.clone());
        tree.retain_map(|id| Some(3 * id + 1));
        tree.check_invariants();
        assert_eq!(tree.len(), 200);
        let remapped: Vec<_> = entries.iter().map(|&(id, b)| (3 * id + 1, b)).collect();
        assert_same_answers(&tree, &remapped, "renumbered");
    }

    #[test]
    fn mixed_bulk_and_insert() {
        let mut tree = RTree::bulk_load(lattice(128));
        for i in 0..64u32 {
            let x = -10.0 - i as f64;
            tree.insert(1000 + i, aabb2(x, 0.0, x + 0.5, 0.5));
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 192);
        let hits = tree.query(&aabb2(-12.0, 0.0, -11.0, 1.0));
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|&id| id >= 1000));
    }
}
