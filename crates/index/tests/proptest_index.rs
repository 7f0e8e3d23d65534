//! Property-based tests: the R-tree must agree with the linear-scan ground
//! truth on arbitrary box sets and windows, under bulk loading, incremental
//! insertion and a compacting `retain_map`.

use proptest::prelude::*;
use traclus_geom::Aabb;
use traclus_index::{LinearScanIndex, RTree};

prop_compose! {
    fn bbox()(x in -100.0..100.0f64, y in -100.0..100.0f64,
              w in 0.0..20.0f64, h in 0.0..20.0f64) -> Aabb<2> {
        Aabb::new([x, y], [x + w, y + h])
    }
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

proptest! {
    #[test]
    fn rtree_bulk_load_matches_linear(
        boxes in prop::collection::vec(bbox(), 0..80),
        window in bbox(),
    ) {
        let entries: Vec<(u32, Aabb<2>)> =
            boxes.into_iter().enumerate().map(|(i, b)| (i as u32, b)).collect();
        let tree = RTree::bulk_load(entries.clone());
        tree.check_invariants();
        let linear = LinearScanIndex::build(entries);
        prop_assert_eq!(sorted(tree.query(&window)), sorted(linear.query(&window)));
    }

    #[test]
    fn rtree_incremental_matches_linear(
        boxes in prop::collection::vec(bbox(), 1..60),
        window in bbox(),
    ) {
        let mut tree = RTree::new();
        let mut linear = LinearScanIndex::default();
        for (i, b) in boxes.into_iter().enumerate() {
            tree.insert(i as u32, b);
            linear.insert(i as u32, b);
        }
        tree.check_invariants();
        prop_assert_eq!(sorted(tree.query(&window)), sorted(linear.query(&window)));
    }

    #[test]
    fn rtree_retain_map_matches_linear_over_the_survivors(
        items in prop::collection::vec((bbox(), 0u8..4), 0..120),
        threshold in 0u8..5,
        loaded in 0usize..120,
        window in bbox(),
    ) {
        // The first `loaded` boxes are STR-loaded and the rest inserted.
        // Entry k survives when its draw reaches `threshold` (0 keeps all,
        // 4 drops all), and the survivors are renumbered densely in order,
        // as a compaction does.
        let entries: Vec<(u32, Aabb<2>)> = (0..).zip(items.iter().map(|&(b, _)| b)).collect();
        let loaded = loaded.min(entries.len());
        let mut tree = RTree::bulk_load(entries[..loaded].to_vec());
        for &(id, b) in &entries[loaded..] {
            tree.insert(id, b);
        }
        let mut next = 0u32;
        let renumbered: Vec<Option<u32>> = items
            .iter()
            .map(|&(_, draw)| {
                (draw >= threshold).then(|| {
                    next += 1;
                    next - 1
                })
            })
            .collect();
        tree.retain_map(|id| renumbered[id as usize]);
        tree.check_invariants();
        let survivors = entries
            .iter()
            .filter_map(|&(id, b)| renumbered[id as usize].map(|new| (new, b)));
        let linear = LinearScanIndex::build(survivors);
        prop_assert_eq!(tree.len(), linear.len());
        prop_assert_eq!(sorted(tree.query(&window)), sorted(linear.query(&window)));
        let everything = Aabb::new([-200.0, -200.0], [200.0, 200.0]);
        prop_assert_eq!(sorted(tree.query(&everything)), (0..next).collect::<Vec<u32>>());
    }

    #[test]
    fn query_results_are_unique(
        boxes in prop::collection::vec(bbox(), 0..60),
        window in bbox(),
    ) {
        let entries: Vec<(u32, Aabb<2>)> =
            boxes.into_iter().enumerate().map(|(i, b)| (i as u32, b)).collect();
        let tree = RTree::bulk_load(entries);
        let result = tree.query(&window);
        let mut deduped = result.clone();
        deduped.sort_unstable();
        deduped.dedup();
        prop_assert_eq!(result.len(), deduped.len(), "duplicate ids reported");
    }
}
