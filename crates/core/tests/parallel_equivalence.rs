//! Equivalence harness for the ordered parallel grouping pass.
//!
//! `run_parallel(t)` must produce the same clustering as the sequential
//! Figure 12 `run()` for every thread count — the design argument lives
//! in the core crate's `grouping` module, and this suite locks it down
//! empirically:
//!
//! * canonical comparison (clusters as member-id sets, noise sets exact)
//!   for t ∈ {1, 2, 4, 8} on hurricane-like, grid, and random-walk
//!   fixtures;
//! * a long-chain regression shaped like the stolen-border bug, whose
//!   ids span several worker blocks;
//! * the whole `Traclus::run` pipeline under `Parallelism::Threads(t)`
//!   against `Parallelism::Sequential`, with enough trajectories that the
//!   partition phase runs on workers too;
//! * an extra thread count taken from `RUST_TEST_THREADS` when set, so CI
//!   sweeps thread counts that the hard-coded list misses.

mod common;

use common::{grid_db, hurricane_db, identified, random_walk_db, thread_counts};
use traclus_core::{
    partition_trajectories, ClusterConfig, Clustering, IndexKind, LineSegmentClustering,
    Parallelism, PartitionConfig, SegmentDatabase, SegmentLabel, Traclus, TraclusConfig,
};
use traclus_geom::{Point2, Segment2, SegmentDistance, Trajectory, TrajectoryId};

/// Clusters as sorted member-id sets, sorted by first member — the
/// renumbering-invariant canonical form.
fn canonical_clusters(clustering: &Clustering) -> Vec<Vec<u32>> {
    let mut sets: Vec<Vec<u32>> = clustering
        .clusters
        .iter()
        .map(|c| {
            let mut m = c.members.clone();
            m.sort_unstable();
            m
        })
        .collect();
    sets.sort();
    sets
}

/// Asserts parallel/sequential equivalence on one database+config, for the
/// fixed thread counts plus an optional extra one from the environment.
fn assert_equivalent(db: &SegmentDatabase<2>, config: ClusterConfig, fixture: &str) {
    let algo = LineSegmentClustering::new(db, config);
    let sequential = algo.run();
    for t in thread_counts() {
        let parallel = algo.run_parallel(t);
        // Canonical comparison: same clusters up to id renumbering...
        assert_eq!(
            canonical_clusters(&sequential),
            canonical_clusters(&parallel),
            "{fixture}: cluster sets diverge at t={t}"
        );
        // ...exact noise sets...
        assert_eq!(
            sequential.noise(),
            parallel.noise(),
            "{fixture}: noise sets diverge at t={t}"
        );
        assert_eq!(
            sequential.filtered_out, parallel.filtered_out,
            "{fixture}: filter diagnostics diverge at t={t}"
        );
        // ...and (stronger, by design) bit-identical output including
        // cluster numbering: components are numbered in the sequential
        // seed order.
        assert_eq!(
            sequential, parallel,
            "{fixture}: exact equality broken at t={t}"
        );
    }
}

#[test]
fn hurricane_like_fixture_is_equivalent() {
    let db = hurricane_db(40, 2007);
    assert_equivalent(&db, ClusterConfig::new(5.0, 5), "hurricane eps=5");
    assert_equivalent(&db, ClusterConfig::new(2.0, 3), "hurricane eps=2");
}

#[test]
fn grid_fixture_is_equivalent_across_index_kinds() {
    let db = grid_db();
    for kind in [IndexKind::Linear, IndexKind::RTree] {
        let config = ClusterConfig {
            index: kind,
            min_trajectories: Some(2),
            ..ClusterConfig::new(1.5, 3)
        };
        assert_equivalent(&db, config, &format!("grid index={kind:?}"));
    }
}

#[test]
fn random_walk_fixture_is_equivalent() {
    for seed in [3, 99, 2026] {
        let db = random_walk_db(seed, 300);
        assert_equivalent(
            &db,
            ClusterConfig::new(6.0, 4),
            &format!("walk seed={seed}"),
        );
        assert_equivalent(
            &db,
            ClusterConfig {
                weighted: true,
                min_trajectories: Some(2),
                ..ClusterConfig::new(3.0, 3)
            },
            &format!("walk weighted seed={seed}"),
        );
    }
}

#[test]
fn whole_pipeline_fixture_is_equivalent() {
    // Trajectory partitioning feeding straight into the grouping phase.
    // Eight bundles of 13 trajectories: 104 is over three blocks of 32
    // trajectories, so the partition phase runs on workers as well.
    let trajectories: Vec<Trajectory<2>> = (0..104)
        .map(|i| {
            let (bundle, jitter) = ((i / 13) as f64, (i % 13) as f64 * 0.4);
            Trajectory::new(
                TrajectoryId(i),
                (0..25)
                    .map(|k| {
                        let x = k as f64 * 5.0 + bundle * 17.0;
                        let y = bundle * 30.0 + jitter + (k as f64 * (0.4 + 0.05 * bundle)).sin();
                        Point2::xy(x, y)
                    })
                    .collect(),
            )
        })
        .collect();
    let db = SegmentDatabase::from_segments(
        partition_trajectories(&PartitionConfig::default(), &trajectories),
        SegmentDistance::default(),
    );
    assert_equivalent(&db, ClusterConfig::new(4.0, 4), "pipeline");

    let run = |parallelism| {
        let config = TraclusConfig {
            eps: 4.0,
            min_lns: 4,
            parallelism,
            ..TraclusConfig::default()
        };
        Traclus::new(config).run(&trajectories)
    };
    let sequential = run(Parallelism::Sequential);
    assert_eq!(sequential.database, db);
    assert!(sequential.clusters.len() >= 8, "every bundle clusters");
    for t in thread_counts() {
        let parallel = run(Parallelism::Threads(t));
        assert_eq!(
            parallel.database, sequential.database,
            "pipeline: segments diverge at t={t}"
        );
        assert_eq!(
            parallel.clustering, sequential.clustering,
            "pipeline: clustering diverges at t={t}"
        );
        assert_eq!(
            parallel.clusters, sequential.clusters,
            "pipeline: representatives diverge at t={t}"
        );
    }
}

/// The PR 2 bug shape, parallelised: one density-connected cluster strung
/// along a corridor whose ids span several worker blocks, with a non-core
/// border segment claimed by cores from many blocks. Computing the chain's
/// neighbourhoods on different workers must not cut it in two, and the
/// border must not be double-assigned or dropped.
#[test]
fn border_merge_keeps_cross_tile_cluster_whole() {
    let mut entries = Vec::new();
    // A long corridor of overlapping 5-segment bundles: adjacent bundles
    // sit at parallel distance 3 (≤ ε), so every segment is core and the
    // whole corridor is one density-connected component...
    let mut tr = 0u32;
    for step in 0..24 {
        let x0 = step as f64 * 7.0;
        for i in 0..5 {
            entries.push((
                Segment2::xy(x0, 0.4 * i as f64, x0 + 10.0, 0.4 * i as f64),
                tr,
            ));
            tr += 1;
        }
    }
    // ...plus one border segment above the corridor midpoint: its
    // neighborhood is {self + the 5 bundle cores below} = 6 < MinLns 7,
    // so it is non-core but density-reachable — shared by several
    // density-connected cores, the PR 2 bug shape.
    let border_id = entries.len() as u32;
    entries.push((Segment2::xy(12.0 * 7.0, 3.2, 12.0 * 7.0 + 10.0, 3.2), tr));
    let db = identified(entries);
    let config = ClusterConfig {
        min_trajectories: Some(3),
        ..ClusterConfig::new(4.0, 7)
    };

    for threads in [2, 3, 4, 8] {
        let parallel = LineSegmentClustering::new(&db, config).run_parallel(threads);
        assert_eq!(
            parallel.clusters.len(),
            1,
            "corridor cluster split at t={threads}"
        );
        assert_eq!(
            parallel.clusters[0].members.len(),
            db.len(),
            "corridor member lost at t={threads}"
        );
        assert_eq!(
            parallel.labels[border_id as usize],
            SegmentLabel::Cluster(parallel.clusters[0].id),
            "border segment dropped at t={threads}"
        );
    }
    // And the sequential path agrees.
    assert_equivalent(&db, config, "border-merge chain");
}

/// A non-core border segment reachable from two *distinct* clusters must
/// land in the earlier cluster (first-come sequential semantics) under any
/// thread count — the exact PR 2 stolen-border scenario.
#[test]
fn shared_border_segment_is_not_stolen_in_parallel() {
    let mut entries = Vec::new();
    let mut tr = 0u32;
    // Bundle A (ids 0–4) around y = 0..1.6.
    for i in 0..5 {
        entries.push((Segment2::xy(0.0, 0.4 * i as f64, 10.0, 0.4 * i as f64), tr));
        tr += 1;
    }
    // Border (id 5) halfway between the bundles: non-core at MinLns = 4.
    entries.push((Segment2::xy(0.0, 3.0, 10.0, 3.0), 50));
    // Bundle B (ids 6–10) around y = 4.4..6.0.
    for i in 0..5 {
        entries.push((
            Segment2::xy(0.0, 4.4 + 0.4 * i as f64, 10.0, 4.4 + 0.4 * i as f64),
            10 + tr,
        ));
        tr += 1;
    }
    let db = identified(entries);
    let config = ClusterConfig::new(1.5, 4);
    let sequential = LineSegmentClustering::new(&db, config).run();
    assert_eq!(sequential.clusters.len(), 2);
    assert_eq!(sequential.clusters[0].members, vec![0, 1, 2, 3, 4, 5]);
    for t in [2, 3, 4, 8] {
        let parallel = LineSegmentClustering::new(&db, config).run_parallel(t);
        assert_eq!(sequential, parallel, "border stolen at t={t}");
        assert_eq!(
            parallel.labels[5],
            SegmentLabel::Cluster(parallel.clusters[0].id),
            "border must stay with the earlier cluster at t={t}"
        );
    }
}

#[test]
fn dense_database_compaction_preserves_equivalence() {
    // ~600 segments all mutually within ε: every query returns the whole
    // database, so the workers' block buffers and the look-ahead bound
    // carry their heaviest load.
    let entries: Vec<(Segment2, u32)> = (0..600)
        .map(|i| {
            let y = (i % 60) as f64 * 0.05;
            let x = (i / 60) as f64 * 0.1;
            (Segment2::xy(x, y, x + 10.0, y), (i % 23) as u32)
        })
        .collect();
    let db = identified(entries);
    assert_equivalent(&db, ClusterConfig::new(50.0, 5), "dense compaction");
    // A tight ε on the same lattice yields several components plus noise.
    assert_equivalent(&db, ClusterConfig::new(0.08, 3), "dense tight eps");
}

#[test]
fn determinism_across_repeated_parallel_runs() {
    let db = hurricane_db(24, 77);
    let algo = LineSegmentClustering::new(&db, ClusterConfig::new(4.0, 4));
    for t in [2, 4, 8] {
        let a = algo.run_parallel(t);
        let b = algo.run_parallel(t);
        assert_eq!(a, b, "nondeterministic output at t={t}");
    }
}

#[test]
fn degenerate_databases_are_equivalent() {
    // Empty database.
    let empty = identified(vec![]);
    assert_equivalent(&empty, ClusterConfig::new(1.0, 2), "empty");
    // Single segment.
    let single = identified(vec![(Segment2::xy(0.0, 0.0, 5.0, 0.0), 0)]);
    assert_equivalent(&single, ClusterConfig::new(1.0, 2), "single");
    // All segments stacked on one point (one tile, many threads).
    let stacked = identified(
        (0..7)
            .map(|i| (Segment2::xy(1.0, 1.0, 1.0, 1.0), i))
            .collect(),
    );
    assert_equivalent(&stacked, ClusterConfig::new(0.5, 3), "stacked");
}
