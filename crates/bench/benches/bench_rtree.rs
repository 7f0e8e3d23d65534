//! R-tree substrate benchmarks: STR bulk load, incremental insertion, and
//! window queries vs the linear-scan reference.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traclus_geom::Aabb;
use traclus_index::{LinearScanIndex, RTree};

fn random_boxes(n: usize, seed: u64) -> Vec<(u32, Aabb<2>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let x = rng.gen_range(0.0..1000.0);
            let y = rng.gen_range(0.0..1000.0);
            let w = rng.gen_range(0.5..10.0);
            let h = rng.gen_range(0.5..10.0);
            (i as u32, Aabb::new([x, y], [x + w, y + h]))
        })
        .collect()
}

fn bench_rtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree/bulk_load");
    for n in [1_000usize, 10_000] {
        let boxes = random_boxes(n, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &boxes, |b, boxes| {
            b.iter(|| RTree::bulk_load(boxes.iter().copied()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("rtree/insert");
    group.sample_size(20);
    let boxes = random_boxes(10_000, 3);
    group.bench_function("10k_sequential", |b| {
        b.iter(|| {
            let mut tree = RTree::new();
            for (id, bb) in &boxes {
                tree.insert(*id, *bb);
            }
            tree
        })
    });
    group.finish();

    let boxes = random_boxes(20_000, 9);
    let rtree = RTree::bulk_load(boxes.iter().copied());
    let linear = LinearScanIndex::build(boxes.iter().copied());
    let windows: Vec<Aabb<2>> = random_boxes(100, 11)
        .into_iter()
        .map(|(_, b)| b.expanded(15.0))
        .collect();
    let mut group = c.benchmark_group("query/100_windows_on_20k");
    group.bench_function("rtree", |b| {
        b.iter(|| {
            let mut total = 0usize;
            let mut out = Vec::new();
            for w in &windows {
                out.clear();
                rtree.query_into(black_box(w), &mut out);
                total += out.len();
            }
            total
        })
    });
    group.bench_function("linear", |b| {
        b.iter(|| {
            let mut total = 0usize;
            let mut out = Vec::new();
            for w in &windows {
                out.clear();
                linear.query_into(black_box(w), &mut out);
                total += out.len();
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rtree);
criterion_main!(benches);
