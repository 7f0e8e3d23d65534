//! Fixtures shared by the grouping equivalence suites,
//! `parallel_equivalence.rs` and `prune_equivalence.rs`: the segment
//! databases both check, and the thread counts both sweep.

use traclus_core::{PartitionConfig, SegmentDatabase};
use traclus_data::{HurricaneConfig, HurricaneGenerator};
use traclus_geom::{IdentifiedSegment, Segment2, SegmentDistance, SegmentId, TrajectoryId};

/// Thread counts every fixture is checked under.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// [`THREAD_COUNTS`] plus `RUST_TEST_THREADS`, reused as a thread-count
/// override so CI can sweep thread counts without recompiling the test
/// list.
pub fn thread_counts() -> Vec<usize> {
    let extra = std::env::var("RUST_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0 && t <= 64);
    THREAD_COUNTS.iter().copied().chain(extra).collect()
}

/// A database of `(segment, trajectory id)` pairs, numbered densely in
/// order.
pub fn identified(segments: Vec<(Segment2, u32)>) -> SegmentDatabase<2> {
    let segs = segments
        .into_iter()
        .enumerate()
        .map(|(k, (s, tr))| IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(tr), s))
        .collect();
    SegmentDatabase::from_segments(segs, SegmentDistance::default())
}

/// Hurricane-like fixture: the synthetic Best-Track stand-in, partitioned
/// by the real MDL phase.
pub fn hurricane_db(tracks: usize, seed: u64) -> SegmentDatabase<2> {
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

/// Grid fixture: bundles of parallel segments on a lattice, dense enough
/// that most bundles cluster, plus scattered singletons that stay noise —
/// spatially spread, so the lower bound has far candidates to discard.
pub fn grid_db() -> SegmentDatabase<2> {
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
    // Scattered singletons between lattice nodes.
    for k in 0..6 {
        let x = 17.0 + 23.0 * k as f64;
        entries.push((
            Segment2::xy(x, 15.0 + k as f64, x + 4.0, 15.5 + k as f64),
            (100 + k) as u32,
        ));
    }
    identified(entries)
}

/// Random-walk fixture: deterministic pseudo-random segment soup with a
/// few planted corridors, varied density, many trajectories.
pub fn random_walk_db(seed: u64, n: usize) -> SegmentDatabase<2> {
    // xorshift64* — self-contained, deterministic across platforms.
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
            // Jump: restart the walk elsewhere so density varies.
            x = 200.0 * next();
            y = 150.0 * next();
        }
    }
    identified(entries)
}
