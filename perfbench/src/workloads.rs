//! The three workloads: their inputs (built from the seed alone), their
//! clustering parameters, and their serving rates.

use traclus_core::TraclusConfig;
use traclus_data::{generate_scene, HurricaneConfig, HurricaneGenerator, SceneConfig};
use traclus_geom::{Point2, Trajectory, TrajectoryId};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Hurricane basin: one dense cluster, ε-queries and the sweep dominate.
    BatchDense,
    /// Tiled Figure 23 scene: many small clusters, partitioning and
    /// per-query overhead dominate.
    BatchSparse,
    /// In-process daemon on loopback with a sliding window, open-loop
    /// ingest and queries.
    ServeWindow,
}

/// Everything a workload fixes besides its seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Which measurement path runs.
    pub kind: Kind,
    /// Seed used when none is given.
    pub default_seed: u64,
    /// Seed kept out of tuning, for re-checking a claim.
    pub held_out_seed: u64,
    /// Neighbourhood radius ε.
    pub eps: f64,
    /// `MinLns`.
    pub min_lns: usize,
    /// The serving phase: timed on `serve_window`, a short traced probe on
    /// the batch workloads.
    pub serve: ServeSpec,
}

/// Parameters of one serving phase.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Server-side sliding window (live trajectories), also the number of
    /// trajectories the closed-loop set-up burst ingests.
    pub window: usize,
    /// Open-loop ingest rate (trajectories per second).
    pub ingest_rate: f64,
    /// Open-loop query rate (requests per second) on the second connection.
    pub query_rate: f64,
    /// Length of the phase in seconds when it is not the timed phase.
    pub probe_seconds: f64,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "batch_dense",
        kind: Kind::BatchDense,
        default_seed: 2007,
        held_out_seed: 1950,
        eps: 2.0,
        min_lns: 5,
        serve: ServeSpec {
            window: 64,
            ingest_rate: 8.0,
            query_rate: 100.0,
            probe_seconds: 3.0,
        },
    },
    Workload {
        name: "batch_sparse",
        kind: Kind::BatchSparse,
        default_seed: 5,
        held_out_seed: 23,
        eps: 7.0,
        min_lns: 6,
        serve: ServeSpec {
            window: 300,
            ingest_rate: 60.0,
            query_rate: 100.0,
            probe_seconds: 3.0,
        },
    },
    Workload {
        name: "serve_window",
        kind: Kind::ServeWindow,
        default_seed: 5,
        held_out_seed: 23,
        eps: 7.0,
        min_lns: 6,
        serve: ServeSpec {
            window: 1200,
            ingest_rate: 120.0,
            query_rate: 400.0,
            probe_seconds: 0.0,
        },
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The pipeline configuration: library defaults plus ε and `MinLns`.
    pub fn config(&self) -> TraclusConfig {
        TraclusConfig {
            eps: self.eps,
            min_lns: self.min_lns,
            ..TraclusConfig::default()
        }
    }

    /// The workload's trajectories: the batch input, or the arrival order
    /// of the serving workload (ingested cyclically if a run needs more).
    pub fn input(&self, seed: u64) -> Vec<Trajectory<2>> {
        match self.kind {
            Kind::BatchDense => HurricaneGenerator::new(HurricaneConfig {
                tracks: 512,
                seed,
                ..HurricaneConfig::default()
            })
            .generate(),
            Kind::BatchSparse => tiled_scene(15, 8, seed),
            Kind::ServeWindow => {
                let mut all = tiled_scene(60, 4, seed);
                SplitMix::new(seed).shuffle(&mut all);
                renumber(&mut all);
                all
            }
        }
    }
}

/// Spacing of scene tiles: the 400-unit scene plus a margin wider than any
/// ε used here, so tiles never interact.
const TILE_SPACING: f64 = 450.0;

/// `side × side` copies of the Figure 23-style scene (20% noise
/// trajectories), each tile generated from its own seed so that the
/// workload's cost averages over many scenes instead of repeating one.
fn tiled_scene(per_backbone: usize, side: usize, seed: u64) -> Vec<Trajectory<2>> {
    let mut all = Vec::new();
    for tile in 0..side * side {
        let scene = generate_scene(&SceneConfig {
            per_backbone,
            noise_fraction: 0.2,
            seed: seed.wrapping_mul(100).wrapping_add(tile as u64),
            ..SceneConfig::default()
        });
        let (dx, dy) = (
            (tile % side) as f64 * TILE_SPACING,
            (tile / side) as f64 * TILE_SPACING,
        );
        all.extend(scene.trajectories.into_iter().map(|t| {
            let points = t
                .points
                .iter()
                .map(|p| Point2::xy(p.x() + dx, p.y() + dy))
                .collect();
            Trajectory::new(t.id, points)
        }));
    }
    renumber(&mut all);
    all
}

/// Dense ids in input order.
fn renumber(trajectories: &mut [Trajectory<2>]) {
    for (i, t) in trajectories.iter_mut().enumerate() {
        t.id = TrajectoryId(i as u32);
    }
}

/// SplitMix64: a small seeded generator for shuffles and query parameters.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
