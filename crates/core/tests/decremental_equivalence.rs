//! Exhaustive batch-equivalence harness for the decremental streaming
//! engine.
//!
//! The headline guarantee under test: after **every** operation — insert,
//! explicit removal, capacity expiry, time-window expiry, in any
//! interleaving — [`IncrementalClustering::snapshot`] equals the batch
//! pipeline run over the live window, label for label, and the engine's
//! database *is* the batch database of the live window: the same segments
//! under the same ids, so removals leave nothing behind. The property
//! tests drive randomized interleavings against a shadow model (the live
//! window as a plain `Vec<Trajectory>`); a soak test streams ten windows'
//! worth of arrivals through a capacity window; the deterministic
//! regressions pin the structurally interesting repairs — a bridge removal
//! that must *split* a component, core demotion down to an empty
//! clustering, and trajectory-id reuse after removal. A further property
//! test pins the promotion and demotion counts of every report to the core
//! flags full-scan ε-queries give before and after the operation.

use proptest::prelude::*;
use traclus_core::{
    representatives_for, Clustering, IncrementalClustering, IndexKind, RemoveReport,
    SegmentDatabase, SnapshotCell, StreamConfig, Traclus, TraclusConfig,
};
use traclus_geom::{AngleMode, DistanceWeights, Point2, SegmentDistance, Trajectory, TrajectoryId};

fn config_with(eps: f64, min_lns: usize, stream: StreamConfig) -> TraclusConfig {
    TraclusConfig {
        eps,
        min_lns,
        stream,
        ..TraclusConfig::default()
    }
}

/// The oracle: the full batch pipeline over the live window in arrival
/// order — exactly what the engine's snapshot claims to equal.
fn batch(config: &TraclusConfig, live: &[Trajectory<2>]) -> Clustering {
    Traclus::new(*config).run(live).clustering
}

/// The batch database over the live window in arrival order — exactly
/// what the engine's database claims to equal, ids included.
fn batch_database(config: &TraclusConfig, live: &[Trajectory<2>]) -> SegmentDatabase<2> {
    SegmentDatabase::from_trajectories(live, &config.partition, config.distance)
}

/// The Definition 5 core flag of every segment of `db`, from full-scan
/// ε-queries: independent of the engine's cached ε-graph and counts.
fn core_flags(config: &TraclusConfig, db: &SegmentDatabase<2>) -> Vec<bool> {
    let scan = db.build_index(IndexKind::Linear, config.eps);
    (0..db.len() as u32)
        .map(|id| {
            let hood = db.neighborhood(&scan, id, config.eps);
            db.neighborhood_cardinality(&hood, config.weighted) >= config.min_lns as f64
        })
        .collect()
}

/// The pool with non-dyadic weights when `weighted`: a cardinality summed
/// in any order other than ascending id shows in the bits.
fn weigh(pool: Vec<Trajectory<2>>, weighted: bool) -> Vec<Trajectory<2>> {
    if !weighted {
        return pool;
    }
    pool.into_iter()
        .map(|t| {
            let weight = 0.3 + 0.1 * (t.id.0 % 7) as f64;
            Trajectory::with_weight(t.id, t.points, weight)
        })
        .collect()
}

prop_compose! {
    /// A pool of jittered corridor trajectories with ids `0..len`: near-
    /// parallel random walks produce rich overlap structure (clusters,
    /// borders, noise, bridges) at ε around 2.
    fn pool()(
        raw in prop::collection::vec(
            (
                -4.0..4.0f64,
                2.0..6.0f64,
                prop::collection::vec(-0.8..0.8f64, 4..10),
            ),
            3..8,
        )
    ) -> Vec<Trajectory<2>> {
        raw.into_iter()
            .enumerate()
            .map(|(i, (y0, step, jitter))| {
                Trajectory::new(
                    TrajectoryId(i as u32),
                    jitter
                        .iter()
                        .enumerate()
                        .map(|(k, &dy)| Point2::xy(k as f64 * step, y0 + dy))
                        .collect(),
                )
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Random insert / remove / expire-to-capacity interleavings: the
    // snapshot equals the batch run on the live window after every single
    // operation, with and without weights.
    #[test]
    fn interleaved_ops_match_batch(
        pool in pool(),
        ops in prop::collection::vec((0u8..8, 0usize..64), 4..24),
        eps in 1.5..3.5f64,
        min_lns in 2usize..4,
        weighted in 0u8..2,
    ) {
        let weighted = weighted == 1;
        let pool = weigh(pool, weighted);
        let config = TraclusConfig {
            weighted,
            ..config_with(eps, min_lns, StreamConfig::default())
        };
        let mut engine = IncrementalClustering::<2>::new(config);
        let mut model: Vec<Trajectory<2>> = Vec::new();
        for (step, &(op, pick)) in ops.iter().enumerate() {
            match op {
                // Insert (weight 6/8): any pool member, repeats allowed —
                // a duplicate trajectory id means a later removal retires
                // several arrivals at once.
                0..=5 => {
                    let t = &pool[pick % pool.len()];
                    engine.insert(t);
                    model.push(t.clone());
                }
                // Remove one live trajectory id (all its arrivals).
                6 => {
                    if model.is_empty() {
                        continue;
                    }
                    let tid = model[pick % model.len()].id;
                    let report = engine.remove_trajectory(tid);
                    let before = model.len();
                    model.retain(|t| t.id != tid);
                    // Arrivals that produced no segments are not tracked
                    // by the engine, so its count may undershoot the
                    // model's — never overshoot.
                    prop_assert!(report.removed_trajectories <= before - model.len());
                }
                // Expire oldest-first down to a capacity.
                _ => {
                    let keep = pick % (model.len() + 1);
                    engine.expire_to_capacity(keep);
                    // The engine only counts segment-producing arrivals
                    // against the capacity; degenerate ones (never
                    // ingested) must not be double-dropped. Trim the model
                    // by the engine's own live count.
                    while segment_producing(&config, &model) > engine.live_trajectories() {
                        model.remove(0);
                    }
                }
            }
            let snap = engine.snapshot();
            let oracle = batch(&config, &model);
            prop_assert_eq!(
                snap, oracle,
                "diverged after op {} ({}, {}) (weighted {})",
                step, op, pick, weighted
            );
            let want = batch_database(&config, &model);
            prop_assert_eq!(engine.database(), &want, "database diverged after op {}", step);
        }
    }

    // Random insert / remove / expire-to-capacity interleavings without a
    // window: each insert's `flipped_cores` is the number of older segments
    // that turned core, each removal's `demoted_cores` the number of
    // survivors that stopped being core, and the stats keep the running
    // sums. Survivors keep their order, so the flags before and after an
    // operation pair up in order once the departed ids are dropped.
    #[test]
    fn promotion_and_demotion_counts_are_exact(
        pool in pool(),
        ops in prop::collection::vec((0u8..8, 0usize..64), 4..24),
        eps in 1.5..3.5f64,
        min_lns in 2usize..4,
        weighted in 0u8..2,
    ) {
        let weighted = weighted == 1;
        let pool = weigh(pool, weighted);
        let config = TraclusConfig {
            weighted,
            ..config_with(eps, min_lns, StreamConfig::default())
        };
        let mut engine = IncrementalClustering::<2>::new(config);
        let (mut flips, mut demotions) = (0, 0);
        for (step, &(op, pick)) in ops.iter().enumerate() {
            let before = core_flags(&config, engine.database());
            // Which old ids survive the operation, and the count its report
            // gives.
            let (kept, reported): (Vec<bool>, usize) = match op {
                0..=5 => {
                    let report = engine.insert(&pool[pick % pool.len()]);
                    (vec![true; before.len()], report.flipped_cores)
                }
                6 => {
                    let db = engine.database();
                    if db.is_empty() {
                        continue;
                    }
                    let tid = db.trajectory_of((pick % db.len()) as u32);
                    let kept = (0..db.len() as u32).map(|id| db.trajectory_of(id) != tid).collect();
                    (kept, engine.remove_trajectory(tid).demoted_cores)
                }
                _ => {
                    let keep = pick % (engine.live_trajectories() + 1);
                    let report = engine.expire_to_capacity(keep);
                    // The oldest arrivals hold the lowest ids.
                    let gone = before.len() - engine.live_len();
                    ((0..before.len()).map(|id| id >= gone).collect(), report.demoted_cores)
                }
            };
            let after = core_flags(&config, engine.database());
            let survivors: Vec<bool> = before
                .iter()
                .zip(&kept)
                .filter(|&(_, &k)| k)
                .map(|(&c, _)| c)
                .collect();
            prop_assert!(survivors.len() <= after.len(), "step {}", step);
            let pairs = || survivors.iter().zip(&after);
            let promoted = pairs().filter(|&(&was, &is)| !was && is).count();
            let demoted = pairs().filter(|&(&was, &is)| was && !is).count();
            if op <= 5 {
                prop_assert_eq!(demoted, 0, "an insert demoted a core at step {}", step);
                prop_assert_eq!(reported, promoted, "flipped_cores at step {}", step);
                flips += promoted;
            } else {
                prop_assert_eq!(survivors.len(), after.len(), "step {}", step);
                prop_assert_eq!(promoted, 0, "a removal promoted a core at step {}", step);
                prop_assert_eq!(reported, demoted, "demoted_cores at step {}", step);
                demotions += demoted;
            }
            let stats = engine.stats();
            prop_assert_eq!(stats.core_flips, flips, "core_flips at step {}", step);
            prop_assert_eq!(stats.core_demotions, demotions, "core_demotions at step {}", step);
        }
    }

    // A capacity-bounded sliding window over an insert-only stream: the
    // snapshot tracks the batch run over the newest `cap` arrivals.
    #[test]
    fn capacity_window_matches_batch_suffix(
        pool in pool(),
        cap in 1usize..5,
    ) {
        let config = config_with(2.5, 2, StreamConfig {
            capacity: Some(cap),
            ..StreamConfig::default()
        });
        let mut engine = IncrementalClustering::<2>::new(config);
        let mut model: Vec<Trajectory<2>> = Vec::new();
        for t in pool.iter().chain(pool.iter()) {
            let report = engine.insert(t);
            if report.new_segments > 0 {
                model.push(t.clone());
            }
            while model.len() > cap {
                model.remove(0);
            }
            prop_assert_eq!(engine.snapshot(), batch(&config, &model));
            let want = batch_database(&config, &model);
            prop_assert_eq!(engine.database(), &want);
            prop_assert!(engine.live_trajectories() <= cap);
        }
    }

    // A time-bounded sliding window under caller-supplied (monotone)
    // timestamps: arrivals age out exactly when the logical clock says so,
    // and the snapshot tracks the batch run over what remains.
    #[test]
    fn time_window_matches_recent_arrivals(
        pool in pool(),
        deltas in prop::collection::vec(0u64..8, 3..16),
        window in 4u64..20,
    ) {
        let config = config_with(2.5, 2, StreamConfig {
            time_window: Some(window),
            ..StreamConfig::default()
        });
        let mut engine = IncrementalClustering::<2>::new(config);
        let mut model: Vec<(u64, Trajectory<2>)> = Vec::new();
        let mut now = 0u64;
        for (k, delta) in deltas.iter().enumerate() {
            now += delta;
            let t = &pool[k % pool.len()];
            let report = engine.insert_at(t, now);
            if report.new_segments > 0 {
                model.push((now, t.clone()));
            }
            model.retain(|&(ts, _)| now - ts < window);
            let live: Vec<Trajectory<2>> = model.iter().map(|(_, t)| t.clone()).collect();
            prop_assert_eq!(engine.snapshot(), batch(&config, &live));
            let want = batch_database(&config, &live);
            prop_assert_eq!(engine.database(), &want);
            prop_assert_eq!(engine.live_trajectories(), live.len());
        }
    }
}

/// How many of `live` partition into at least one segment under `config` —
/// the arrivals the engine actually tracks.
fn segment_producing(config: &TraclusConfig, live: &[Trajectory<2>]) -> usize {
    live.iter()
        .filter(|t| {
            !traclus_core::partition_trajectories(&config.partition, std::slice::from_ref(t))
                .is_empty()
        })
        .count()
}

/// Soak: a capacity window streamed through twelve times its size, with a
/// mid-window retraction every fifth arrival, unweighted and weighted.
/// After every operation the engine's database is the batch
/// database of the live window — its length is the window's segment
/// count, and the arrivals tile it in arrival order — and at checkpoints
/// the snapshot equals the batch run. Every operation also publishes
/// through one [`SnapshotCell`], whose clusters, with the representatives
/// it copied from the previous epoch, must equal the batch tail on the
/// live window; the cell must have copied some.
#[test]
fn long_capacity_window_stays_the_batch_database() {
    const WINDOW: usize = 8;
    // Deterministic uniform draws from [0, 1) (xorshift64).
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    // Jittered corridors in three bands, so clusters form, grow, split
    // and dissolve as the window slides.
    let pool: Vec<Trajectory<2>> = (0..12 * WINDOW as u32)
        .map(|i| {
            let y0 = f64::from(i % 3) * 3.0 + 1.5 * next();
            let x0 = 10.0 * next();
            let points = (0..6 + i % 5)
                .map(|k| Point2::xy(x0 + f64::from(k) * 4.0, y0 + 0.8 * next()))
                .collect();
            Trajectory::new(TrajectoryId(i), points)
        })
        .collect();
    for weighted in [false, true] {
        let pool: Vec<Trajectory<2>> = pool
            .iter()
            .map(|t| {
                // Non-dyadic weights of at least 0.9, so the weighted
                // window's counts still reach MinLns and clusters form.
                let weight = if weighted {
                    0.9 + 0.1 * f64::from(t.id.0 % 7)
                } else {
                    1.0
                };
                Trajectory::with_weight(t.id, t.points.clone(), weight)
            })
            .collect();
        let config = TraclusConfig {
            weighted,
            ..config_with(
                2.5,
                3,
                StreamConfig {
                    capacity: Some(WINDOW),
                    ..StreamConfig::default()
                },
            )
        };
        let context = format!("weighted {weighted}");
        let cell = SnapshotCell::<2>::new(config);
        let (mut swept, mut clusters) = (0, 0);
        let mut check = |engine: &IncrementalClustering<2>, live: &[Trajectory<2>], k: usize| {
            let want = batch_database(&config, live);
            assert_eq!(engine.database().len(), want.len(), "{context}, step {k}");
            assert_eq!(engine.live_len(), want.len(), "{context}, step {k}");
            assert_eq!(engine.database(), &want, "{context}, step {k}");
            assert_eq!(
                engine.live_trajectories(),
                live.len(),
                "{context}, step {k}"
            );
            let snap = cell.publish_from(engine);
            assert_eq!(
                snap.clusters(),
                &representatives_for(&config, &want, &batch(&config, live))[..],
                "{context}, step {k}"
            );
            swept += snap.swept();
            clusters += snap.clusters().len();
        };
        let mut engine = IncrementalClustering::<2>::new(config);
        let mut live: Vec<Trajectory<2>> = Vec::new();
        for (k, t) in pool.iter().enumerate() {
            assert!(
                engine.insert(t).new_segments > 0,
                "every arrival is tracked"
            );
            live.push(t.clone());
            if live.len() > WINDOW {
                live.remove(0);
            }
            check(&engine, &live, k);
            if k % 5 == 4 {
                let gone = live.remove(live.len() / 2).id;
                assert_eq!(engine.remove_trajectory(gone).removed_trajectories, 1);
                check(&engine, &live, k);
            }
            if k % WINDOW == WINDOW - 1 {
                assert_eq!(
                    engine.snapshot(),
                    batch(&config, &live),
                    "{context}, step {k}"
                );
            }
        }
        assert_eq!(engine.snapshot(), batch(&config, &live), "{context}");
        let stats = engine.stats();
        assert_eq!(stats.removals, pool.len() - live.len(), "{context}");
        assert!(stats.expired > 5 * WINDOW, "{context}: the window slid");
        assert!(stats.decremental_repairs > 0, "{context}");
        assert!(
            swept < clusters,
            "{context}: {swept} of {clusters} published clusters swept"
        );
    }
}

/// A straight corridor trajectory at height `y`.
fn corridor(id: u32, y: f64, points: usize) -> Trajectory<2> {
    Trajectory::new(
        TrajectoryId(id),
        (0..points).map(|k| Point2::xy(k as f64 * 5.0, y)).collect(),
    )
}

/// Regression: removing the single bridge trajectory between two corridor
/// bands must split one component into two, while two far-away padding
/// bands keep their clusters.
#[test]
fn bridge_removal_splits_component_via_local_repair() {
    let mut trajectories: Vec<Trajectory<2>> = Vec::new();
    for i in 0..4 {
        trajectories.push(corridor(i, i as f64 * 0.3, 12)); // band A
        trajectories.push(corridor(10 + i, 4.0 + i as f64 * 0.3, 12)); // band B
        trajectories.push(corridor(20 + i, 40.0 + i as f64 * 0.3, 12)); // padding C
        trajectories.push(corridor(30 + i, 80.0 + i as f64 * 0.3, 12)); // padding D
    }
    trajectories.push(corridor(99, 2.45, 12)); // the A–B bridge
    let config = config_with(2.0, 3, StreamConfig::default());
    let mut engine = IncrementalClustering::<2>::new(config);
    for t in &trajectories {
        engine.insert(t);
    }
    assert_eq!(
        engine.snapshot().clusters.len(),
        3,
        "A+bridge+B merged, C, D"
    );

    let report = engine.remove_trajectory(TrajectoryId(99));
    assert_eq!(report.removed_trajectories, 1);
    assert_eq!(engine.stats().decremental_repairs, 1);

    trajectories.pop();
    let snap = engine.snapshot();
    assert_eq!(snap.clusters.len(), 4, "the bridge held A and B together");
    assert_eq!(snap, batch(&config, &trajectories));
}

/// Regression: with exactly `MinLns` corridors every segment is core;
/// removing one demotes the survivors below the threshold and the
/// clustering empties — the demotion-handling path.
#[test]
fn removal_demotes_cores_to_noise() {
    let trajectories: Vec<Trajectory<2>> =
        (0..3).map(|i| corridor(i, i as f64 * 0.3, 12)).collect();
    let config = config_with(2.0, 3, StreamConfig::default());
    let mut engine = IncrementalClustering::<2>::new(config);
    for t in &trajectories {
        engine.insert(t);
    }
    assert!(!engine.snapshot().clusters.is_empty());

    let report = engine.remove_trajectory(TrajectoryId(1));
    assert!(report.demoted_cores > 0, "survivors fall below MinLns");
    let snap = engine.snapshot();
    assert!(snap.clusters.is_empty(), "no cores survive");
    let live = vec![trajectories[0].clone(), trajectories[2].clone()];
    assert_eq!(snap, batch(&config, &live));
}

/// Regression: a removed trajectory id is immediately reusable; the
/// re-inserted trajectory's segments join the end of the window — the
/// database is the batch database with the re-arrival at the tail — and
/// the clustering matches the batch run in that order.
#[test]
fn removed_trajectory_id_reuse_round_trips() {
    let config = config_with(3.0, 3, StreamConfig::default());
    let trajectories: Vec<Trajectory<2>> =
        (0..5).map(|i| corridor(i, i as f64 * 0.4, 15)).collect();
    let mut engine = IncrementalClustering::<2>::new(config);
    for t in &trajectories {
        engine.insert(t);
    }
    let len_before = engine.database().len();

    assert_eq!(
        engine
            .remove_trajectory(TrajectoryId(2))
            .removed_trajectories,
        1
    );
    assert!(engine.database().len() < len_before, "the rows are gone");
    engine.insert(&trajectories[2]);

    let mut live: Vec<Trajectory<2>> = trajectories.clone();
    live.retain(|t| t.id != TrajectoryId(2));
    live.push(trajectories[2].clone());
    assert_eq!(
        engine.database().len(),
        len_before,
        "the same segments, renumbered"
    );
    assert_eq!(
        engine.database(),
        &batch_database(&config, &live),
        "re-insertion lands at the tail of the id space"
    );
    assert_eq!(engine.snapshot(), batch(&config, &live));

    // Removing the reused id again retires only the one live arrival.
    assert_eq!(
        engine
            .remove_trajectory(TrajectoryId(2))
            .removed_trajectories,
        1
    );
    live.pop();
    assert_eq!(engine.snapshot(), batch(&config, &live));
}

/// Full-scan weights: with w∥ = 0 no filter radius exists, so the R-tree
/// configuration builds and keeps no tree and every ε-query scans. After
/// every insert, a removal and an expiry the snapshot still equals the
/// batch run on the live window, and the database the batch database.
#[test]
fn full_scan_weights_stream_equals_batch() {
    let config = TraclusConfig {
        distance: SegmentDistance::new(DistanceWeights::new(1.0, 0.0, 1.0), AngleMode::Directed),
        index: IndexKind::RTree,
        ..config_with(2.0, 3, StreamConfig::default())
    };
    // Corridors 2 and 5 start far along x: at w∥ = 0 each lies at distance
    // 0 from the corridor at its height, which no spatial filter could find.
    let track = |id: u32, x0: f64, y: f64| {
        let points = (0..12).map(|k| Point2::xy(x0 + f64::from(k) * 5.0, y));
        Trajectory::new(TrajectoryId(id), points.collect())
    };
    let arrivals = [
        track(0, 0.0, 0.0),
        track(1, 0.0, 0.3),
        track(2, 500.0, 0.0),
        track(3, 0.0, 0.6),
        track(4, 0.0, 40.0),
        track(5, 900.0, 0.3),
        track(6, 0.0, 0.9),
    ];
    let check = |engine: &IncrementalClustering<2>, live: &[Trajectory<2>], step: &str| {
        assert_eq!(engine.snapshot(), batch(&config, live), "{step}");
        assert_eq!(engine.database(), &batch_database(&config, live), "{step}");
    };
    let mut engine = IncrementalClustering::<2>::new(config);
    let mut live: Vec<Trajectory<2>> = Vec::new();
    for t in &arrivals {
        assert!(engine.insert(t).new_segments > 0);
        live.push(t.clone());
        check(&engine, &live, &format!("insert {}", t.id.0));
    }

    let gone = engine.remove_trajectory(TrajectoryId(1));
    assert_eq!(gone.removed_trajectories, 1);
    live.retain(|t| t.id != TrajectoryId(1));
    check(&engine, &live, "remove 1");
    assert_eq!(engine.expire_to_capacity(4).removed_trajectories, 2);
    live.drain(..2);
    check(&engine, &live, "expire to 4");
    assert!(
        !engine.snapshot().clusters.is_empty(),
        "the far collinear corridor keeps a cluster alive"
    );
}

/// Removing ids that never arrived (or arrived and already left) is a
/// no-op with a default report.
#[test]
fn removal_of_absent_trajectories_is_a_noop() {
    let config = config_with(3.0, 3, StreamConfig::default());
    let mut engine = IncrementalClustering::<2>::new(config);
    assert_eq!(
        engine.remove_trajectory(TrajectoryId(7)),
        RemoveReport::default()
    );
    engine.insert(&corridor(7, 0.0, 12));
    engine.remove_trajectory(TrajectoryId(7));
    assert_eq!(
        engine.remove_trajectory(TrajectoryId(7)),
        RemoveReport::default()
    );
    assert_eq!(engine.live_trajectories(), 0);
    assert!(engine.snapshot().clusters.is_empty());
}
