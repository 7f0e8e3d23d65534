//! Lemma 3 micro-benchmark: line-segment clustering with and without a
//! spatial index (linear scan = the O(n²) arm; R-tree = the O(n log n)
//! arm).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use traclus_bench::experiments::scaling::scaled_database;
use traclus_core::{ClusterConfig, IndexKind, LineSegmentClustering};

fn bench_cluster(c: &mut Criterion) {
    for (kind, label) in [(IndexKind::Linear, "linear"), (IndexKind::RTree, "rtree")] {
        let mut group = c.benchmark_group(format!("cluster/{label}"));
        group.sample_size(10);
        for n in [500usize, 1000, 2000] {
            let db = scaled_database(n, 5);
            group.bench_with_input(BenchmarkId::from_parameter(n), &db, |b, db| {
                b.iter(|| {
                    LineSegmentClustering::new(
                        db,
                        ClusterConfig {
                            index: kind,
                            ..ClusterConfig::new(7.0, 6)
                        },
                    )
                    .run()
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
