//! Lemma 3 micro-benchmark: line-segment clustering with and without a
//! spatial index (linear scan = the O(n²) arm; grid and R-tree = the
//! O(n log n) arm), plus the ordered parallel grouping pass across thread
//! counts and the streaming engine's insert throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use traclus_bench::experiments::scaling::scaled_database;
use traclus_core::{
    ClusterConfig, IncrementalClustering, IndexKind, LineSegmentClustering, Parallelism,
    PartitionConfig, SegmentDatabase, SnapshotCell, StreamConfig, Traclus, TraclusConfig,
};
use traclus_data::{HurricaneConfig, HurricaneGenerator};
use traclus_geom::{Aabb, SegmentDistance, Trajectory, TrajectoryId};
use traclus_index::{RTree, RTreeParams};

fn bench_cluster(c: &mut Criterion) {
    for (kind, label) in [
        (IndexKind::Linear, "linear"),
        (IndexKind::Grid, "grid"),
        (IndexKind::RTree, "rtree"),
    ] {
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

/// The ordered grouping pass across thread counts on the 32-trajectory
/// hurricane workload (t = 1 runs it inline; larger t run its ε-queries on
/// scoped workers). Outputs are identical by construction, so this
/// measures pure wall-clock.
fn bench_cluster_parallel(c: &mut Criterion) {
    let tracks = HurricaneGenerator::new(HurricaneConfig {
        tracks: 32,
        seed: 2007,
        ..HurricaneConfig::default()
    })
    .generate();
    let db = SegmentDatabase::from_trajectories(
        &tracks,
        &PartitionConfig::default(),
        SegmentDistance::default(),
    );
    let config = ClusterConfig::new(5.0, 5);
    let mut group = c.benchmark_group("cluster/parallel_hurricane32");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| b.iter(|| LineSegmentClustering::new(&db, config).run_parallel(threads)),
        );
    }
    group.finish();

    // Same sweep on the constant-density scaled scene, a heavier load
    // where the per-segment neighborhood work dominates the spawn cost.
    let db = scaled_database(2000, 5);
    let config = ClusterConfig::new(7.0, 6);
    let mut group = c.benchmark_group("cluster/parallel_scaled2000");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| b.iter(|| LineSegmentClustering::new(&db, config).run_parallel(threads)),
        );
    }
    group.finish();
}

/// Streaming insert throughput: ingest the hurricane basin one storm at a
/// time through `IncrementalClustering` and snapshot at the end.
///
/// Two sweeps:
///
/// * dataset size (32 / 64 / 128 storms) at the default dirty-region
///   threshold, with a batch (`partition-all + run`) arm at each size —
///   the cost of keeping the clustering current versus recomputing it
///   once at the end;
/// * the `rebuild_threshold` knob at a fixed size — 0.0 re-clusters on
///   every insertion (the naive serving loop), 1.0 never does (pure local
///   repair on an incrementally grown R-tree).
fn bench_stream_insert(c: &mut Criterion) {
    let storms = |tracks: usize| -> Vec<Trajectory<2>> {
        HurricaneGenerator::new(HurricaneConfig {
            tracks,
            seed: 2007,
            ..HurricaneConfig::default()
        })
        .generate()
    };
    let config = TraclusConfig {
        eps: 5.0,
        min_lns: 5,
        ..TraclusConfig::default()
    };
    let ingest = |config: TraclusConfig, tracks: &[Trajectory<2>]| {
        let mut engine: IncrementalClustering<2> = Traclus::new(config).stream();
        for tr in tracks {
            engine.insert(tr);
        }
        engine.snapshot()
    };

    let mut group = c.benchmark_group("cluster/stream_ingest_hurricane");
    group.sample_size(10);
    for tracks in [32usize, 64, 128] {
        let dataset = storms(tracks);
        group.bench_with_input(
            BenchmarkId::new("stream", tracks),
            &dataset,
            |b, dataset| b.iter(|| ingest(config, dataset)),
        );
        group.bench_with_input(BenchmarkId::new("batch", tracks), &dataset, |b, dataset| {
            b.iter(|| {
                let db =
                    SegmentDatabase::from_trajectories(dataset, &config.partition, config.distance);
                LineSegmentClustering::new(&db, ClusterConfig::new(config.eps, config.min_lns))
                    .run()
            })
        });
    }
    group.finish();

    let dataset = storms(64);
    let mut group = c.benchmark_group("cluster/stream_rebuild_threshold");
    group.sample_size(10);
    for threshold in [0.0f64, 0.25, 1.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &threshold,
            |b, &threshold| {
                let config = TraclusConfig {
                    stream: StreamConfig {
                        rebuild_threshold: threshold,
                        ..StreamConfig::default()
                    },
                    ..config
                };
                b.iter(|| ingest(config, &dataset))
            },
        );
    }
    group.finish();
}

/// Sliding-window decremental costs.
///
/// Two sweeps:
///
/// * steady-state windowed ingest — a 128-storm stream pushed through a
///   capacity-bounded window (16 / 32 / 64 live trajectories), so every
///   insertion past the warm-up also pays one oldest-trajectory expiry;
///   compare against the unbounded `stream_ingest_hurricane` arms for the
///   price of keeping the window trimmed;
/// * a single explicit removal out of a steady 64-storm window, at the
///   default dirty-region threshold (free to fall back to the full
///   re-cluster) versus a threshold of 10 (pinned to scoped local
///   repair) — the engine clone inside the loop is shared overhead of
///   both arms, so their *difference* isolates repair vs rebuild.
fn bench_sliding_window(c: &mut Criterion) {
    let storms = |tracks: usize| -> Vec<Trajectory<2>> {
        HurricaneGenerator::new(HurricaneConfig {
            tracks,
            seed: 2007,
            ..HurricaneConfig::default()
        })
        .generate()
    };
    let base = TraclusConfig {
        eps: 5.0,
        min_lns: 5,
        ..TraclusConfig::default()
    };

    let dataset = storms(128);
    let mut group = c.benchmark_group("cluster/stream_sliding_window");
    group.sample_size(10);
    for capacity in [16usize, 32, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(capacity),
            &dataset,
            |b, dataset| {
                let config = TraclusConfig {
                    stream: StreamConfig {
                        capacity: Some(capacity),
                        ..StreamConfig::default()
                    },
                    ..base
                };
                b.iter(|| {
                    let mut engine: IncrementalClustering<2> = Traclus::new(config).stream();
                    for tr in dataset {
                        engine.insert(tr);
                    }
                    engine.snapshot()
                })
            },
        );
    }
    group.finish();

    let dataset = storms(64);
    let mut group = c.benchmark_group("cluster/stream_remove");
    group.sample_size(10);
    for (threshold, label) in [(0.25f64, "rebuild-allowed"), (10.0, "repair-pinned")] {
        let config = TraclusConfig {
            stream: StreamConfig {
                rebuild_threshold: threshold,
                ..StreamConfig::default()
            },
            ..base
        };
        let mut engine: IncrementalClustering<2> = Traclus::new(config).stream();
        for tr in &dataset {
            engine.insert(tr);
        }
        let ids: Vec<TrajectoryId> = dataset.iter().map(|t| t.id).collect();
        group.bench_with_input(BenchmarkId::from_parameter(label), &engine, |b, engine| {
            let mut k = 0usize;
            b.iter(|| {
                let mut live = engine.clone();
                let id = ids[k % ids.len()];
                k += 1;
                live.remove_trajectory(id)
            })
        });
    }
    group.finish();
}

/// Serving-layer snapshot costs: what the writer pays per batch to turn
/// the engine's mutable state into an immutable `ClusterSnapshot`
/// (clustering capture + representative materialisation + `Arc` swap),
/// and the per-query `load()` on the reader side that it buys — the
/// latter is the number every server request pays, the former bounds the
/// publication rate.
fn bench_snapshot_publish(c: &mut Criterion) {
    let config = TraclusConfig {
        eps: 5.0,
        min_lns: 5,
        ..TraclusConfig::default()
    };

    let mut group = c.benchmark_group("cluster/snapshot_publish_hurricane");
    group.sample_size(10);
    for tracks in [32usize, 64, 128] {
        let dataset = HurricaneGenerator::new(HurricaneConfig {
            tracks,
            seed: 2007,
            ..HurricaneConfig::default()
        })
        .generate();
        let mut engine: IncrementalClustering<2> = Traclus::new(config).stream();
        for tr in &dataset {
            engine.insert(tr);
        }
        let cell: SnapshotCell<2> = SnapshotCell::new(config);
        group.bench_with_input(BenchmarkId::from_parameter(tracks), &engine, |b, engine| {
            b.iter(|| cell.publish_from(engine))
        });
    }
    group.finish();

    let dataset = HurricaneGenerator::new(HurricaneConfig {
        tracks: 64,
        seed: 2007,
        ..HurricaneConfig::default()
    })
    .generate();
    let mut engine: IncrementalClustering<2> = Traclus::new(config).stream();
    for tr in &dataset {
        engine.insert(tr);
    }
    let cell: SnapshotCell<2> = SnapshotCell::new(config);
    cell.publish_from(&engine);
    let mut group = c.benchmark_group("cluster/snapshot_load");
    group.bench_function("64", |b| b.iter(|| cell.load()));
    group.finish();
}

/// Filter-and-refine pruning: wall-clock with the lower-bound filter on
/// vs off, on the hurricane workload (tight ε — spread-out geometry where
/// the MBR tier bites) and the constant-density scaled scene.
///
/// Besides the two wall-clock arms per workload, each workload emits its
/// measured candidate-reduction ratio as a pseudo-bench line in permille
/// (`…/candidate_reduction_permille/<workload> median <N>ns/iter`, i.e.
/// `N` discarded per 1000 candidates — the `ns` suffix is only there so
/// the snapshot parser ingests the line). The clustering itself is
/// bit-identical across both arms, so the delta is pure filter economics:
/// bound evaluations saved minus bound evaluations wasted.
fn bench_prune(c: &mut Criterion) {
    let hurricane = {
        let tracks = HurricaneGenerator::new(HurricaneConfig {
            tracks: 64,
            seed: 2007,
            ..HurricaneConfig::default()
        })
        .generate();
        SegmentDatabase::from_trajectories(
            &tracks,
            &PartitionConfig::default(),
            SegmentDistance::default(),
        )
    };
    let scaled = scaled_database(1000, 5);
    // The spatial-index workloads measure the filter's overhead when the
    // grid/R-tree window has already discarded the far field (the filter
    // roughly pays for itself); the `_scan` workload runs the Linear
    // full-scan arm, where the bounds are the only thing standing between
    // every query and an O(n) kernel sweep — that's the headline win.
    for (db, label, eps, min_lns, index) in [
        (&hurricane, "hurricane64", 2.0, 3usize, IndexKind::default()),
        (&scaled, "scaled1000", 7.0, 6, IndexKind::default()),
        (&hurricane, "hurricane64_scan", 2.0, 3, IndexKind::Linear),
    ] {
        let mut group = c.benchmark_group(format!("cluster/prune/{label}"));
        group.sample_size(10);
        for (pruning, arm) in [(true, "on"), (false, "off")] {
            group.bench_with_input(BenchmarkId::from_parameter(arm), &pruning, |b, &pruning| {
                b.iter(|| {
                    LineSegmentClustering::new(
                        db,
                        ClusterConfig {
                            pruning,
                            index,
                            ..ClusterConfig::new(eps, min_lns)
                        },
                    )
                    .run()
                })
            });
        }
        group.finish();

        let (_, stats) = LineSegmentClustering::new(
            db,
            ClusterConfig {
                index,
                ..ClusterConfig::new(eps, min_lns)
            },
        )
        .run_with_stats();
        let p = stats.prune;
        let permille = (p.pruned_total() * 1000)
            .checked_div(p.candidates)
            .unwrap_or(0);
        println!(
            "bench: cluster/prune/candidate_reduction_permille/{label:<15} median {permille}ns/iter"
        );
    }
}

/// Parallel STR bulk load across thread counts (t = 1 is the sequential
/// sort/tile/pack recursion; larger t sort and pack on scoped workers).
/// The resulting tree is byte-identical at every t, so this is pure
/// wall-clock for the index (re)build — the term every full rebuild and
/// every parallel grouping run pays before any clustering starts.
fn bench_bulk_load(c: &mut Criterion) {
    let tracks = HurricaneGenerator::new(HurricaneConfig {
        tracks: 64,
        seed: 2007,
        ..HurricaneConfig::default()
    })
    .generate();
    let db = SegmentDatabase::from_trajectories(
        &tracks,
        &PartitionConfig::default(),
        SegmentDistance::default(),
    );
    let entries: Vec<(u32, Aabb<2>)> = (0..db.len() as u32)
        .map(|id| (id, *db.bbox_of(id)))
        .collect();
    let mut group = c.benchmark_group("bulk_load/hurricane64");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    RTree::bulk_load_parallel(RTreeParams::default(), entries.clone(), threads)
                })
            },
        );
    }
    group.finish();
}

/// Parallel repair re-expansion in the streaming engine: the hurricane
/// stream ingested with `rebuild_threshold = 0` (every insertion takes
/// the full re-cluster path, whose ε-query sweep is the heaviest repair
/// loop) under Sequential vs Threads(4) parallelism. Snapshots are
/// bit-identical across arms; the delta is the Amdahl term the parallel
/// repair removes.
fn bench_stream_repair_par(c: &mut Criterion) {
    let dataset = HurricaneGenerator::new(HurricaneConfig {
        tracks: 64,
        seed: 2007,
        ..HurricaneConfig::default()
    })
    .generate();
    let mut group = c.benchmark_group("stream_repair_par/hurricane64");
    group.sample_size(10);
    for threads in [1usize, 4] {
        let config = TraclusConfig {
            eps: 5.0,
            min_lns: 5,
            parallelism: if threads == 1 {
                Parallelism::Sequential
            } else {
                Parallelism::Threads(threads)
            },
            stream: StreamConfig {
                rebuild_threshold: 0.0,
                ..StreamConfig::default()
            },
            ..TraclusConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("t", threads), &dataset, |b, dataset| {
            b.iter(|| {
                let mut engine: IncrementalClustering<2> = Traclus::new(config).stream();
                for tr in dataset {
                    engine.insert(tr);
                }
                engine.snapshot()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cluster,
    bench_cluster_parallel,
    bench_bulk_load,
    bench_stream_repair_par,
    bench_stream_insert,
    bench_sliding_window,
    bench_snapshot_publish,
    bench_prune
);
criterion_main!(benches);
