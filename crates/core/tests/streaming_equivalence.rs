//! Equivalence harness for the streaming/incremental clustering engine.
//!
//! Feeding every trajectory of a dataset through
//! [`IncrementalClustering::insert`] one at a time must produce the same
//! clustering as the batch `Traclus::run` path on the full dataset — the
//! design argument lives in `traclus_core::stream`, and this suite locks it
//! down empirically:
//!
//! * canonical comparison (clusters as member-id sets, exact noise sets,
//!   representatives within tolerance) — plus, stronger, exact
//!   `Clustering` equality including cluster numbering — on hurricane-like,
//!   grid, and random-walk trajectory fixtures;
//! * mid-stream prefix snapshots against batch runs on the same prefix;
//! * weighted trajectories, every index kind, and degenerate inputs.

use traclus_core::{Clustering, IncrementalClustering, IndexKind, Traclus, TraclusConfig};
use traclus_data::{HurricaneConfig, HurricaneGenerator};
use traclus_geom::{Point2, Trajectory, TrajectoryId};

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

/// Streams `trajectories` through a fresh engine and asserts the outcome
/// matches the batch pipeline: canonical clusters, exact noise, filter
/// diagnostics, representatives within tolerance — and exact `Clustering`
/// equality, which the engine guarantees by construction.
fn assert_stream_equivalent(config: TraclusConfig, trajectories: &[Trajectory<2>], fixture: &str) {
    let batch = Traclus::new(config).run(trajectories);
    let mut engine: IncrementalClustering<2> = Traclus::new(config).stream();
    for tr in trajectories {
        engine.insert(tr);
    }
    let streamed = engine.finish();
    // Canonical comparison: same clusters up to id renumbering...
    assert_eq!(
        canonical_clusters(&batch.clustering),
        canonical_clusters(&streamed.clustering),
        "{fixture}: cluster sets diverge"
    );
    // ...exact noise sets and filter diagnostics...
    assert_eq!(
        batch.clustering.noise(),
        streamed.clustering.noise(),
        "{fixture}: noise sets diverge"
    );
    assert_eq!(
        batch.clustering.filtered_out, streamed.clustering.filtered_out,
        "{fixture}: filter diagnostics diverge"
    );
    // ...representatives within tolerance (they are in fact computed from
    // identical clusters, so the tolerance is slack)...
    assert_eq!(
        batch.clusters.len(),
        streamed.clusters.len(),
        "{fixture}: representative count diverges"
    );
    for (b, s) in batch.clusters.iter().zip(&streamed.clusters) {
        assert_eq!(
            b.representative.points.len(),
            s.representative.points.len(),
            "{fixture}: representative length diverges"
        );
        for (bp, sp) in b.representative.points.iter().zip(&s.representative.points) {
            for k in 0..2 {
                assert!(
                    (bp.coords[k] - sp.coords[k]).abs() < 1e-9,
                    "{fixture}: representative point diverges"
                );
            }
        }
    }
    // ...and (stronger, by design) exact equality including cluster
    // numbering: the snapshot renumbers components in the sequential seed
    // order.
    assert_eq!(
        batch.clustering, streamed.clustering,
        "{fixture}: exact equality broken"
    );
}

fn hurricane_tracks(tracks: usize, seed: u64) -> Vec<Trajectory<2>> {
    HurricaneGenerator::new(HurricaneConfig {
        tracks,
        seed,
        ..HurricaneConfig::default()
    })
    .generate()
}

/// Grid fixture: bundles of near-parallel trajectories on a lattice, dense
/// enough that most bundles cluster while stray singletons stay noise.
fn grid_tracks() -> Vec<Trajectory<2>> {
    let mut out = Vec::new();
    let mut id = 0u32;
    for gx in 0..3 {
        for gy in 0..3 {
            let (x0, y0) = (gx as f64 * 60.0, gy as f64 * 45.0);
            let bundle_size = 3 + ((gx + gy) % 3);
            for i in 0..bundle_size {
                let y = y0 + 0.5 * i as f64;
                out.push(Trajectory::new(
                    TrajectoryId(id),
                    (0..6).map(|k| Point2::xy(x0 + k as f64 * 4.0, y)).collect(),
                ));
                id += 1;
            }
        }
    }
    // Stray diagonals between lattice nodes.
    for k in 0..5 {
        let x = 25.0 + 37.0 * k as f64;
        out.push(Trajectory::new(
            TrajectoryId(500 + k),
            (0..4)
                .map(|j| Point2::xy(x + j as f64 * 3.0, 20.0 + k as f64 + j as f64 * 2.0))
                .collect(),
        ));
    }
    out
}

/// Random-walk fixture: deterministic pseudo-random wandering trajectories
/// plus a planted shared corridor.
fn random_walk_tracks(seed: u64, walks: usize) -> Vec<Trajectory<2>> {
    // xorshift64* — self-contained, deterministic across platforms.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as f64) / (1u64 << 24) as f64
    };
    let mut out = Vec::new();
    for w in 0..walks {
        let (mut x, mut y) = (150.0 * next(), 100.0 * next());
        let mut points = vec![Point2::xy(x, y)];
        for _ in 0..(8 + (w % 7)) {
            x += 4.0 + 6.0 * next();
            y += 8.0 * next() - 4.0;
            points.push(Point2::xy(x, y));
        }
        out.push(Trajectory::new(TrajectoryId(w as u32), points));
    }
    // A planted corridor several walks share.
    for i in 0..5 {
        let y = 120.0 + 0.6 * i as f64;
        out.push(Trajectory::new(
            TrajectoryId(900 + i),
            (0..10).map(|k| Point2::xy(k as f64 * 5.0, y)).collect(),
        ));
    }
    out
}

fn config(eps: f64, min_lns: usize) -> TraclusConfig {
    TraclusConfig {
        eps,
        min_lns,
        ..TraclusConfig::default()
    }
}

#[test]
fn hurricane_fixture_is_equivalent() {
    let tracks = hurricane_tracks(40, 2007);
    assert_stream_equivalent(config(5.0, 5), &tracks, "hurricane eps=5");
    assert_stream_equivalent(config(2.0, 3), &tracks, "hurricane eps=2");
}

#[test]
fn grid_fixture_is_equivalent_across_index_kinds() {
    let tracks = grid_tracks();
    for kind in [IndexKind::Linear, IndexKind::RTree] {
        let cfg = TraclusConfig {
            index: kind,
            min_trajectories: Some(2),
            ..config(1.5, 3)
        };
        assert_stream_equivalent(cfg, &tracks, &format!("grid index={kind:?}"));
    }
}

#[test]
fn random_walk_fixture_is_equivalent() {
    for seed in [3, 99, 2026] {
        let tracks = random_walk_tracks(seed, 40);
        assert_stream_equivalent(config(6.0, 4), &tracks, &format!("walk seed={seed}"));
    }
}

#[test]
fn weighted_trajectories_are_equivalent() {
    // Down-weighted walks + heavy corridor trajectories: the weighted
    // Section 4.2 cardinalities drive different core sets than counting.
    let tracks: Vec<Trajectory<2>> = random_walk_tracks(7, 25)
        .into_iter()
        .enumerate()
        .map(|(k, tr)| {
            let weight = if tr.id.0 >= 900 {
                2.5
            } else {
                0.5 + 0.1 * (k % 4) as f64
            };
            Trajectory::with_weight(tr.id, tr.points, weight)
        })
        .collect();
    let cfg = TraclusConfig {
        weighted: true,
        min_trajectories: Some(2),
        ..config(3.0, 4)
    };
    assert_stream_equivalent(cfg, &tracks, "weighted walks");
}

#[test]
fn every_prefix_of_the_stream_matches_a_batch_run() {
    // The strong invariant: after EVERY insertion, the snapshot equals the
    // batch clustering of the prefix ingested so far.
    let tracks = hurricane_tracks(16, 77);
    let cfg = config(4.0, 4);
    let mut engine: IncrementalClustering<2> = Traclus::new(cfg).stream();
    for k in 0..tracks.len() {
        engine.insert(&tracks[k]);
        let batch = Traclus::new(cfg).run(&tracks[..=k]);
        assert_eq!(
            engine.snapshot(),
            batch.clustering,
            "prefix of {} tracks diverges",
            k + 1
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.trajectories, tracks.len());
    assert_eq!(stats.local_repairs, tracks.len());
    assert_eq!(stats.full_rebuilds, 0);
}

#[test]
fn snapshots_do_not_perturb_the_stream() {
    // Interleaving reads with writes must not change the final state.
    let tracks = hurricane_tracks(12, 5);
    let cfg = config(5.0, 4);
    let mut observed: IncrementalClustering<2> = Traclus::new(cfg).stream();
    let mut unobserved: IncrementalClustering<2> = Traclus::new(cfg).stream();
    for tr in &tracks {
        observed.insert(tr);
        let _ = observed.snapshot();
        unobserved.insert(tr);
    }
    assert_eq!(observed.snapshot(), unobserved.snapshot());
}

#[test]
fn degenerate_streams_are_equivalent() {
    // No trajectories at all.
    assert_stream_equivalent(config(1.0, 2), &[], "empty");
    // Trajectories that partition to nothing mixed into a real stream.
    let mut tracks = vec![
        Trajectory::new(TrajectoryId(100), vec![Point2::xy(0.0, 0.0)]),
        Trajectory::new(TrajectoryId(101), vec![Point2::xy(3.0, 3.0); 6]),
    ];
    tracks.extend(hurricane_tracks(8, 11));
    assert_stream_equivalent(config(4.0, 3), &tracks, "degenerate mix");
}
