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
//! * absolute counts — over the full scan `run()` considers n² candidates
//!   and the ordered pass n(n+1)/2, a filter with a zero coefficient
//!   prunes none of them, and `refined` counts the candidates scored, not
//!   the neighbours found;
//! * pair halving — the ordered pass's forward-only queries refine at most
//!   0.55× the candidates `run()` refines, equally at every thread count.

mod common;

use common::{grid_db, hurricane_db, identified, random_walk_db, thread_counts};
use proptest::prelude::*;
use traclus_core::{
    representatives_for, ClusterConfig, IncrementalClustering, IndexKind, LineSegmentClustering,
    PruneStats, SegmentDatabase, TraclusConfig,
};
use traclus_geom::{
    AngleMode, DistanceWeights, Point2, Segment2, SegmentDistance, Trajectory, TrajectoryId,
};

/// Every counter invariant one run's stats must satisfy.
fn assert_counters_coherent(p: &PruneStats, pruning: bool, context: &str) {
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

    for t in thread_counts() {
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
    let (_, p) = LineSegmentClustering::new(&db, ClusterConfig::new(2.0, 3)).run_with_stats();
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
            inline.refined as f64 <= 0.55 * full.refined as f64,
            "eps={}: the ordered pass refined {} candidates, run() {}",
            config.eps,
            inline.refined,
            full.refined
        );
        for t in thread_counts() {
            let (_, pass) = algo.run_parallel_with_stats(t);
            assert_eq!(pass, inline, "eps={} t={t}", config.eps);
        }
    }
}

#[test]
fn full_scan_counts_every_candidate_once() {
    // Over the full scan every query's candidates are known in advance:
    // the Figure 12 loop queries each of the n ids once over all n
    // segments, and the ordered pass queries id k over its n − k forward
    // ids only.
    let db = grid_db();
    let n = db.len() as u64;
    let config = ClusterConfig {
        index: IndexKind::Linear,
        min_trajectories: Some(2),
        ..ClusterConfig::new(1.5, 3)
    };
    let algo = LineSegmentClustering::new(&db, config);
    let (_, full) = algo.run_with_stats();
    assert_eq!(full.candidates, n * n, "run(): {full:?}");
    assert!(
        full.pruned_midpoint > 0 && full.refined > 0,
        "the grid has near and far pairs: {full:?}"
    );
    for t in [1, 2, 3] {
        let (_, pass) = algo.run_parallel_with_stats(t);
        assert_eq!(pass.candidates, n * (n + 1) / 2, "t={t}: {pass:?}");
    }

    let off = LineSegmentClustering::new(
        &db,
        ClusterConfig {
            pruning: false,
            ..config
        },
    );
    assert_eq!(off.run_with_stats().1, PruneStats::default());
    assert_eq!(off.run_parallel_with_stats(2).1, PruneStats::default());
}

#[test]
fn zero_parallel_weight_prunes_nothing() {
    // With w∥ = 0 the filter's coefficient min(w⊥, w∥) is 0, so its bound
    // never exceeds ε and every candidate is refined. The R-tree has no
    // conservative window either (`filter_radius` is `None`), so it falls
    // back to the full scan and counts like the linear index.
    let grid = grid_db();
    let n = grid.len() as u64;
    let db = SegmentDatabase::from_segments(
        grid.segments().collect(),
        SegmentDistance::new(DistanceWeights::new(1.0, 0.0, 1.0), AngleMode::Directed),
    );
    for kind in [IndexKind::Linear, IndexKind::RTree] {
        let config = ClusterConfig {
            index: kind,
            ..ClusterConfig::new(1.5, 3)
        };
        let (_, p) = LineSegmentClustering::new(&db, config).run_with_stats();
        assert_eq!(p.candidates, n * n, "{kind:?}: {p:?}");
        assert_eq!(p.pruned_midpoint, 0, "{kind:?}: {p:?}");
        assert_eq!(p.refined, p.candidates, "{kind:?}: {p:?}");
    }
}

#[test]
fn refined_counts_candidates_scored_not_neighbours_found() {
    // `refined` tallies every candidate that reaches the exact kernel,
    // including those it then finds beyond ε, so on the spread-out
    // hurricane fixture it exceeds the neighbours a sweep returns. The
    // Figure 12 loop queries each id once, so its counters equal that
    // sweep's.
    let db = hurricane_db(40, 2007);
    let eps = 2.0;
    let index = db.build_index(IndexKind::RTree, eps);
    let neighbours: u64 = (0..db.len() as u32)
        .map(|id| db.neighborhood(&index, id, eps).len() as u64)
        .sum();
    let sweep = index.prune_stats();
    assert!(
        sweep.refined > neighbours,
        "{neighbours} neighbours from {sweep:?}"
    );
    let (_, run) = LineSegmentClustering::new(&db, ClusterConfig::new(eps, 3)).run_with_stats();
    assert_eq!(run, sweep);
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
