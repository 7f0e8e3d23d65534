//! Micro-benchmarks of the segment distance function (Definitions 1–3) —
//! the innermost kernel of both TRACLUS phases — against the naive
//! endpoint-sum distance of Appendix A, plus the batched table kernel
//! (`distance_many`) against the scalar path on the identical workload.
//!
//! The ROADMAP target for the batched path is ≥2× on
//! `composite_pairwise_32x32` vs. the scalar arm.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traclus_geom::{endpoint_sum_distance, Segment2, SegmentDistance, SegmentTable};

fn random_segments(n: usize, seed: u64) -> Vec<Segment2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Segment2::xy(
                rng.gen_range(0.0..1000.0),
                rng.gen_range(0.0..1000.0),
                rng.gen_range(0.0..1000.0),
                rng.gen_range(0.0..1000.0),
            )
        })
        .collect()
}

fn bench_distance(c: &mut Criterion) {
    let segs = random_segments(1024, 7);
    let dist = SegmentDistance::default();
    let mut group = c.benchmark_group("distance");
    group.bench_function("composite_pairwise_32x32", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in (0..segs.len()).step_by(32) {
                for j in (0..segs.len()).step_by(32) {
                    acc += dist.distance(black_box(&segs[i]), black_box(&segs[j]));
                }
            }
            acc
        })
    });
    // The same 32×32 pair workload through the batched kernel over a
    // segment table: one hoisted query setup per row, cached geometry per
    // candidate.
    let table = SegmentTable::from_geometry(segs.iter());
    let ids: Vec<u32> = (0..segs.len() as u32).step_by(32).collect();
    let mut dists = vec![0.0f64; ids.len()];
    group.bench_function("composite_pairwise_32x32_batched", |b| {
        b.iter(|| {
            for &i in &ids {
                dist.distance_many_into(
                    black_box(&table),
                    black_box(i),
                    black_box(&ids),
                    &mut dists,
                );
                black_box(&dists);
            }
        })
    });
    group.bench_function("endpoint_sum_pairwise_32x32", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in (0..segs.len()).step_by(32) {
                for j in (0..segs.len()).step_by(32) {
                    acc += endpoint_sum_distance(black_box(&segs[i]), black_box(&segs[j]));
                }
            }
            acc
        })
    });
    group.bench_function("components_single", |b| {
        b.iter(|| dist.components(black_box(&segs[0]), black_box(&segs[1])))
    });
    group.finish();
}

criterion_group!(benches, bench_distance);
criterion_main!(benches);
