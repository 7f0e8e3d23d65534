//! Bit-identity harness for the filter-and-refine pruning path.
//!
//! Pruning is a performance knob, never a semantics knob: the lower
//! bound of `traclus_geom::lower_bound` is admissible for the computed
//! distance, so every candidate they discard would have failed `d ≤ ε`
//! anyway, and the surviving candidates are scored by the unchanged exact
//! kernel. This suite locks the claim down empirically across every
//! execution strategy:
//!
//! * sequential `run()` with pruning on vs off — exact `Clustering`
//!   equality (labels, member lists, filter diagnostics) plus equal
//!   representative trajectories, on hurricane-like, grid, and
//!   random-walk fixtures;
//! * `run_parallel(t)` for t ∈ {1, 2, 4, 8} (and `RUST_TEST_THREADS`
//!   when set) — pruned parallel output equals the unpruned sequential
//!   output bit for bit;
//! * streaming insert/remove interleavings — a pruning engine and a
//!   non-pruning engine fed the same operations agree on `snapshot()`
//!   after every single operation (proptest-generated scenes included);
//! * counter sanity — `candidates = pruned_midpoint + refined` on every
//!   run, the retired `pruned_mbr`/`pruned_angle` tallies stay zero, and
//!   all prune counters stay zero when pruning is disabled;
//! * pair halving — the ordered pass's forward-only queries refine at most
//!   0.55× the candidates `run()` refines, equally at every thread count.

use proptest::prelude::*;
use traclus_core::{
    representatives_for, ClusterConfig, ClusterStats, IncrementalClustering, IndexKind,
    LineSegmentClustering, PartitionConfig, PruneStats, SegmentDatabase, TraclusConfig,
};
use traclus_data::{HurricaneConfig, HurricaneGenerator};
use traclus_geom::{
    IdentifiedSegment, Point2, Segment2, SegmentDistance, SegmentId, Trajectory, TrajectoryId,
};

/// Thread counts every fixture is checked under.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// `RUST_TEST_THREADS`, reused as an extra thread count so CI sweeps
/// thread counts the hard-coded list misses (same idiom as the parallel
/// equivalence suite).
fn env_thread_count() -> Option<usize> {
    std::env::var("RUST_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0 && t <= 64)
}

/// Every counter invariant one run's stats must satisfy.
fn assert_counters_coherent(stats: &ClusterStats, pruning: bool, context: &str) {
    let p = &stats.prune;
    assert_eq!(
        p.candidates,
        p.pruned_midpoint + p.refined,
        "{context}: candidates must split into pruned + refined: {p:?}"
    );
    assert_eq!(
        (p.pruned_mbr, p.pruned_angle),
        (0, 0),
        "{context}: the filter has only the midpoint bound: {p:?}"
    );
    if !pruning {
        assert_eq!(
            *p,
            PruneStats::default(),
            "{context}: counters must stay zero with pruning off"
        );
    }
}

/// Asserts pruned and unpruned execution agree bit for bit — sequentially
/// and across every thread count — and that the counters are coherent.
fn assert_prune_equivalent(db: &SegmentDatabase<2>, config: ClusterConfig, fixture: &str) {
    let on = LineSegmentClustering::new(
        db,
        ClusterConfig {
            pruning: true,
            ..config
        },
    );
    let off = LineSegmentClustering::new(
        db,
        ClusterConfig {
            pruning: false,
            ..config
        },
    );
    let (c_on, s_on) = on.run_with_stats();
    let (c_off, s_off) = off.run_with_stats();
    assert_eq!(c_on, c_off, "{fixture}: pruning changed the clustering");
    assert_counters_coherent(&s_on, true, fixture);
    assert_counters_coherent(&s_off, false, fixture);

    // Representative trajectories are a pure function of (db, clustering),
    // but pin them anyway: they are the pipeline's user-facing output.
    let rep_config = TraclusConfig {
        eps: config.eps.max(f64::MIN_POSITIVE),
        min_lns: (config.min_lns as usize).max(1),
        weighted: config.weighted,
        ..TraclusConfig::default()
    };
    assert_eq!(
        representatives_for(&rep_config, db, &c_on),
        representatives_for(&rep_config, db, &c_off),
        "{fixture}: representatives diverge"
    );

    let mut counts: Vec<usize> = THREAD_COUNTS.to_vec();
    if let Some(extra) = env_thread_count() {
        counts.push(extra);
    }
    for t in counts {
        let (p_on, ps_on) = on.run_parallel_with_stats(t);
        let (p_off, ps_off) = off.run_parallel_with_stats(t);
        assert_eq!(
            p_on, c_off,
            "{fixture}: pruned parallel t={t} diverges from unpruned sequential"
        );
        assert_eq!(p_off, c_off, "{fixture}: unpruned parallel t={t} diverges");
        assert_counters_coherent(&ps_on, true, &format!("{fixture} t={t}"));
        assert_counters_coherent(&ps_off, false, &format!("{fixture} t={t}"));
    }
}

fn identified(segments: Vec<(Segment2, u32)>) -> SegmentDatabase<2> {
    let segs = segments
        .into_iter()
        .enumerate()
        .map(|(k, (s, tr))| IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(tr), s))
        .collect();
    SegmentDatabase::from_segments(segs, SegmentDistance::default())
}

/// Hurricane-like fixture: the synthetic Best-Track stand-in, partitioned
/// by the real MDL phase.
fn hurricane_db(tracks: usize, seed: u64) -> SegmentDatabase<2> {
    let trajectories = HurricaneGenerator::new(HurricaneConfig {
        tracks,
        seed,
        ..HurricaneConfig::default()
    })
    .generate();
    SegmentDatabase::from_trajectories(
        &trajectories,
        &PartitionConfig::default(),
        SegmentDistance::default(),
    )
}

/// Grid fixture: bundles of parallel segments on a lattice plus scattered
/// singletons — spatially spread, so the lower bound has far candidates
/// to discard.
fn grid_db() -> SegmentDatabase<2> {
    let mut entries = Vec::new();
    for gx in 0..4 {
        for gy in 0..3 {
            let (x0, y0) = (gx as f64 * 40.0, gy as f64 * 30.0);
            let bundle_size = 3 + ((gx + gy) % 3);
            for i in 0..bundle_size {
                entries.push((
                    Segment2::xy(x0, y0 + 0.5 * i as f64, x0 + 12.0, y0 + 0.5 * i as f64),
                    (gx * 10 + gy * 3 + i) as u32,
                ));
            }
        }
    }
    for k in 0..6 {
        let x = 17.0 + 23.0 * k as f64;
        entries.push((
            Segment2::xy(x, 15.0 + k as f64, x + 4.0, 15.5 + k as f64),
            (100 + k) as u32,
        ));
    }
    identified(entries)
}

/// Random-walk fixture: deterministic pseudo-random segment soup
/// (xorshift64*), varied density, many trajectories.
fn random_walk_db(seed: u64, n: usize) -> SegmentDatabase<2> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as f64) / (1u64 << 24) as f64
    };
    let mut entries = Vec::new();
    let (mut x, mut y) = (0.0f64, 0.0f64);
    for k in 0..n {
        let dx = 4.0 + 6.0 * next();
        let dy = 8.0 * next() - 4.0;
        let (nx, ny) = (x + dx, y + dy);
        entries.push((Segment2::xy(x, y, nx, ny), (k % 17) as u32));
        x = nx;
        y = ny;
        if next() < 0.15 {
            x = 200.0 * next();
            y = 150.0 * next();
        }
    }
    identified(entries)
}

#[test]
fn hurricane_fixture_is_prune_equivalent() {
    let db = hurricane_db(40, 2007);
    assert_prune_equivalent(&db, ClusterConfig::new(5.0, 5), "hurricane eps=5");
    assert_prune_equivalent(&db, ClusterConfig::new(2.0, 3), "hurricane eps=2");
}

#[test]
fn hurricane_fixture_actually_prunes() {
    // Guard against the suite silently passing because the filter never
    // fires: on the spread-out hurricane fixture at a tight ε the
    // midpoint bound must discard a substantial share of candidates.
    let db = hurricane_db(40, 2007);
    let (_, stats) = LineSegmentClustering::new(&db, ClusterConfig::new(2.0, 3)).run_with_stats();
    let p = stats.prune;
    assert!(p.candidates > 0, "no candidates examined");
    assert!(
        p.pruned_midpoint * 10 >= p.candidates,
        "filter discarded under 10% of candidates — the harness is not \
         exercising the prune path: {p:?}"
    );
}

#[test]
fn ordered_pass_refines_each_pair_once() {
    // The Figure 12 loop scores every unordered pair from both ends; the
    // ordered pass queries forward neighbours only and carries the rest,
    // so it runs about half the kernel calls — at every thread count.
    let db = hurricane_db(40, 2007);
    for config in [ClusterConfig::new(5.0, 5), ClusterConfig::new(2.0, 3)] {
        let algo = LineSegmentClustering::new(&db, config);
        let (_, full) = algo.run_with_stats();
        let (_, inline) = algo.run_parallel_with_stats(1);
        assert!(
            inline.prune.refined as f64 <= 0.55 * full.prune.refined as f64,
            "eps={}: the ordered pass refined {} candidates, run() {}",
            config.eps,
            inline.prune.refined,
            full.prune.refined
        );
        let mut counts: Vec<usize> = THREAD_COUNTS.to_vec();
        counts.extend(env_thread_count());
        for t in counts {
            let (_, pass) = algo.run_parallel_with_stats(t);
            assert_eq!(pass.prune, inline.prune, "eps={} t={t}", config.eps);
        }
    }
}

#[test]
fn grid_fixture_is_prune_equivalent_across_index_kinds() {
    let db = grid_db();
    for kind in [IndexKind::Linear, IndexKind::RTree] {
        let config = ClusterConfig {
            index: kind,
            min_trajectories: Some(2),
            ..ClusterConfig::new(1.5, 3)
        };
        assert_prune_equivalent(&db, config, &format!("grid index={kind:?}"));
    }
}

#[test]
fn random_walk_fixture_is_prune_equivalent() {
    for seed in [3, 99, 2026] {
        let db = random_walk_db(seed, 300);
        assert_prune_equivalent(
            &db,
            ClusterConfig::new(6.0, 4),
            &format!("walk seed={seed}"),
        );
        assert_prune_equivalent(
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
fn degenerate_databases_are_prune_equivalent() {
    let empty = identified(vec![]);
    assert_prune_equivalent(&empty, ClusterConfig::new(1.0, 2), "empty");
    let single = identified(vec![(Segment2::xy(0.0, 0.0, 5.0, 0.0), 0)]);
    assert_prune_equivalent(&single, ClusterConfig::new(1.0, 2), "single");
    let stacked = identified(
        (0..7)
            .map(|i| (Segment2::xy(1.0, 1.0, 1.0, 1.0), i))
            .collect(),
    );
    assert_prune_equivalent(&stacked, ClusterConfig::new(0.5, 3), "stacked");
}

// ---------------------------------------------------------------------------
// Streaming: pruning vs no-pruning engines fed identical operation streams.
// ---------------------------------------------------------------------------

fn stream_config(eps: f64, min_lns: usize, pruning: bool) -> TraclusConfig {
    TraclusConfig {
        eps,
        min_lns,
        pruning,
        ..TraclusConfig::default()
    }
}

/// Runs the same insert/remove interleaving through a pruning and a
/// non-pruning engine, asserting snapshot equality after every operation
/// and counter coherence at the end.
fn assert_stream_equivalent(
    trajectories: &[Trajectory<2>],
    removals: &[(usize, u32)],
    eps: f64,
    min_lns: usize,
    context: &str,
) {
    let mut on = IncrementalClustering::<2>::new(stream_config(eps, min_lns, true));
    let mut off = IncrementalClustering::<2>::new(stream_config(eps, min_lns, false));
    let mut removal_iter = removals.iter().peekable();
    for (step, tr) in trajectories.iter().enumerate() {
        on.insert(tr);
        off.insert(tr);
        assert_eq!(
            on.snapshot(),
            off.snapshot(),
            "{context}: snapshots diverge after insert #{step}"
        );
        while let Some(&&(at, victim)) = removal_iter.peek() {
            if at != step {
                break;
            }
            removal_iter.next();
            let r_on = on.remove_trajectory(TrajectoryId(victim));
            let r_off = off.remove_trajectory(TrajectoryId(victim));
            assert_eq!(
                r_on, r_off,
                "{context}: removal reports diverge at step {step}"
            );
            assert_eq!(
                on.snapshot(),
                off.snapshot(),
                "{context}: snapshots diverge after removing {victim} at step {step}"
            );
        }
    }
    let (s_on, s_off) = (on.stats(), off.stats());
    assert_eq!(
        s_on.prune_candidates,
        s_on.pruned_midpoint + s_on.prune_refined,
        "{context}: stream candidates must split into pruned + refined"
    );
    assert_eq!(
        (
            s_off.prune_candidates,
            s_off.pruned_midpoint,
            s_off.prune_refined,
        ),
        (0, 0, 0),
        "{context}: prune counters must stay zero with pruning off"
    );
    // The counters are the only permitted divergence between the engines.
    let mut s_on_zeroed = s_on;
    s_on_zeroed.prune_candidates = 0;
    s_on_zeroed.pruned_midpoint = 0;
    s_on_zeroed.prune_refined = 0;
    assert_eq!(
        s_on_zeroed, s_off,
        "{context}: non-prune stream stats diverge"
    );
}

/// Jittered corridor trajectories with ids `0..n` — overlapping enough for
/// clusters, borders, promotions and demotions.
fn corridor_trajectories(n: usize) -> Vec<Trajectory<2>> {
    (0..n)
        .map(|i| {
            let jitter = i as f64 * 0.4;
            Trajectory::new(
                TrajectoryId(i as u32),
                (0..20)
                    .map(|k| Point2::xy(k as f64 * 5.0, jitter + (k as f64 * 0.7).sin()))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn streaming_interleavings_are_prune_equivalent() {
    let trajectories = corridor_trajectories(10);
    // Insert-only.
    assert_stream_equivalent(&trajectories, &[], 4.0, 3, "stream insert-only");
    // Mid-stream removals, including one forcing repair right after its
    // insertion and a batch of removals at the end.
    assert_stream_equivalent(
        &trajectories,
        &[(4, 2), (6, 5), (9, 0), (9, 7)],
        4.0,
        3,
        "stream interleaved removals",
    );
    // Tight ε: mostly noise, different repair decisions.
    assert_stream_equivalent(&trajectories, &[(5, 1), (8, 3)], 0.8, 3, "stream tight eps");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Proptest-generated batch scenes: random jittered-corridor segment
    // soups under random ε, pruned vs unpruned, all execution strategies.
    #[test]
    fn random_scenes_are_prune_equivalent(
        raw in prop::collection::vec(
            (-40.0..40.0f64, -30.0..30.0f64, 2.0..14.0f64, -3.0..3.0f64),
            8..60,
        ),
        eps in 0.5..12.0f64,
        min_lns in 2usize..5,
    ) {
        let entries: Vec<(Segment2, u32)> = raw
            .iter()
            .enumerate()
            .map(|(k, &(x, y, dx, dy))| {
                (Segment2::xy(x, y, x + dx, y + dy), (k % 7) as u32)
            })
            .collect();
        let db = identified(entries);
        assert_prune_equivalent(
            &db,
            ClusterConfig {
                min_trajectories: Some(2),
                ..ClusterConfig::new(eps, min_lns)
            },
            "proptest scene",
        );
    }

    // Proptest-generated streaming scenes: random corridor pools with a
    // random removal schedule, pruning vs no-pruning engines compared
    // after every operation.
    #[test]
    fn random_streams_are_prune_equivalent(
        pool_size in 4usize..9,
        removal_raw in prop::collection::vec((0usize..9, 0u32..9), 0..5),
        eps in 1.0..6.0f64,
    ) {
        let trajectories = corridor_trajectories(pool_size);
        let mut removals: Vec<(usize, u32)> = removal_raw
            .into_iter()
            .map(|(at, victim)| (at % pool_size, victim % pool_size as u32))
            .collect();
        removals.sort_unstable();
        removals.dedup_by_key(|r| r.1);
        assert_stream_equivalent(&trajectories, &removals, eps, 3, "proptest stream");
    }
}
