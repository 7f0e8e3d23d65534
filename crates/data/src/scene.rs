//! Labelled synthetic scenes: ground-truth corridors + noise trajectories.
//!
//! Two uses in the reproduction:
//!
//! * the Section 5.5 robustness experiment (Figure 23): "25 % of
//!   trajectories are generated as noises" and the clusters must still be
//!   identified;
//! * controlled correctness tests, where knowing which backbone generated
//!   each trajectory lets us score cluster recovery.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traclus_geom::{Point2, Trajectory, TrajectoryId, Vector2};

use crate::rng_util::normal;

/// Ground truth for one generated trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruthLabel {
    /// Follows backbone `k` (with jitter).
    Corridor(usize),
    /// Pure random walk (should be classified as noise).
    Noise,
}

/// A labelled scene.
#[derive(Debug, Clone)]
pub struct Scene {
    /// The trajectories (corridor followers first, then noise).
    pub trajectories: Vec<Trajectory<2>>,
    /// `truth[i]` labels `trajectories[i]`.
    pub truth: Vec<TruthLabel>,
    /// The backbone polylines.
    pub backbones: Vec<Vec<Point2>>,
}

impl Scene {
    /// Trajectory ids whose ground truth is noise.
    pub fn noise_ids(&self) -> Vec<u32> {
        self.truth
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t, TruthLabel::Noise))
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// Configuration of the scene generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneConfig {
    /// Backbone polylines (the planted common sub-trajectories).
    pub backbones: Vec<Vec<Point2>>,
    /// Corridor-following trajectories per backbone.
    pub per_backbone: usize,
    /// Fraction of *additional* noise trajectories relative to the total
    /// (0.25 reproduces Figure 23's "25 % of trajectories").
    pub noise_fraction: f64,
    /// Cross-track jitter of corridor followers.
    pub jitter: f64,
    /// Sampling step along backbones.
    pub step: f64,
    /// Bounding square side for noise walks.
    pub extent: f64,
    /// Points per noise trajectory.
    pub noise_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SceneConfig {
    fn default() -> Self {
        Self {
            backbones: default_backbones(),
            per_backbone: 15,
            noise_fraction: 0.25,
            jitter: 1.5,
            step: 8.0,
            extent: 400.0,
            noise_len: 40,
            seed: 23,
        }
    }
}

/// Four well-separated backbones inside a 400 × 400 square (two straight,
/// one L-shaped, one diagonal) — a Figure 23-like layout.
pub fn default_backbones() -> Vec<Vec<Point2>> {
    vec![
        vec![Point2::xy(40.0, 60.0), Point2::xy(360.0, 70.0)],
        vec![Point2::xy(50.0, 330.0), Point2::xy(350.0, 320.0)],
        vec![
            Point2::xy(60.0, 120.0),
            Point2::xy(200.0, 140.0),
            Point2::xy(210.0, 280.0),
        ],
        vec![Point2::xy(320.0, 110.0), Point2::xy(250.0, 260.0)],
    ]
}

/// Generates a labelled scene.
pub fn generate_scene(config: &SceneConfig) -> Scene {
    assert!(!config.backbones.is_empty());
    assert!(config.per_backbone > 0);
    assert!((0.0..1.0).contains(&config.noise_fraction));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut trajectories = Vec::new();
    let mut truth = Vec::new();
    let mut next_id = 0u32;

    for (b, backbone) in config.backbones.iter().enumerate() {
        for _ in 0..config.per_backbone {
            let points = follow_backbone(&mut rng, backbone, config);
            trajectories.push(Trajectory::new(TrajectoryId(next_id), points));
            truth.push(TruthLabel::Corridor(b));
            next_id += 1;
        }
    }
    // noise_count / (corridor_count + noise_count) = noise_fraction.
    let corridor_count = trajectories.len();
    let noise_count = ((config.noise_fraction * corridor_count as f64)
        / (1.0 - config.noise_fraction))
        .round() as usize;
    for _ in 0..noise_count {
        let points = random_walk(&mut rng, config);
        trajectories.push(Trajectory::new(TrajectoryId(next_id), points));
        truth.push(TruthLabel::Noise);
        next_id += 1;
    }
    Scene {
        trajectories,
        truth,
        backbones: config.backbones.clone(),
    }
}

fn follow_backbone(rng: &mut StdRng, backbone: &[Point2], config: &SceneConfig) -> Vec<Point2> {
    let mut points = Vec::new();
    // Each follower enters a little late / leaves a little early so the
    // corridor is a *common sub*-trajectory, not a shared whole.
    let skip_head = rng.gen_range(0.0..0.15);
    let skip_tail = rng.gen_range(0.0..0.15);
    let polyline = densify(backbone, config.step);
    let n = polyline.len();
    let lo = ((n as f64) * skip_head) as usize;
    let hi = n - ((n as f64) * skip_tail) as usize;
    for p in &polyline[lo..hi.max(lo + 2).min(n)] {
        points.push(Point2::xy(
            p.x() + normal(rng, 0.0, config.jitter),
            p.y() + normal(rng, 0.0, config.jitter),
        ));
    }
    points
}

fn densify(backbone: &[Point2], step: f64) -> Vec<Point2> {
    let mut out = Vec::new();
    for w in backbone.windows(2) {
        let len = w[0].distance(&w[1]);
        let steps = (len / step).ceil().max(1.0) as usize;
        for s in 0..steps {
            out.push(w[0].lerp(&w[1], s as f64 / steps as f64));
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "a scene backbone is a non-empty polyline"
    )]
    out.push(*backbone.last().expect("non-empty backbone"));
    out
}

fn random_walk(rng: &mut StdRng, config: &SceneConfig) -> Vec<Point2> {
    let mut pos = Point2::xy(
        rng.gen_range(0.0..config.extent),
        rng.gen_range(0.0..config.extent),
    );
    let mut heading = rng.gen_range(0.0..std::f64::consts::TAU);
    let mut points = vec![pos];
    for _ in 1..config.noise_len {
        heading += normal(rng, 0.0, 0.8);
        let step = normal(rng, config.step, config.step * 0.4).max(1.0);
        pos = pos + Vector2::xy(heading.cos(), heading.sin()) * step;
        pos = Point2::xy(
            pos.x().clamp(0.0, config.extent),
            pos.y().clamp(0.0, config.extent),
        );
        points.push(pos);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_fraction_is_respected() {
        let scene = generate_scene(&SceneConfig::default());
        let noise = scene.noise_ids().len();
        let total = scene.trajectories.len();
        let fraction = noise as f64 / total as f64;
        assert!(
            (fraction - 0.25).abs() < 0.03,
            "noise fraction {fraction} (noise {noise} of {total})"
        );
    }

    #[test]
    fn corridor_followers_hug_their_backbone() {
        let config = SceneConfig::default();
        let scene = generate_scene(&config);
        for (t, label) in scene.trajectories.iter().zip(&scene.truth) {
            if let TruthLabel::Corridor(b) = label {
                let backbone = densify(&scene.backbones[*b], config.step);
                for p in &t.points {
                    let min_dist = backbone
                        .iter()
                        .map(|q| p.distance(q))
                        .fold(f64::INFINITY, f64::min);
                    assert!(
                        min_dist < 10.0 * config.jitter,
                        "follower strays {min_dist} from backbone {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn followers_cover_partial_extents() {
        // Entering late / leaving early makes corridors sub-trajectories.
        let scene = generate_scene(&SceneConfig::default());
        let lens: Vec<usize> = scene
            .trajectories
            .iter()
            .zip(&scene.truth)
            .filter(|(_, l)| matches!(l, TruthLabel::Corridor(0)))
            .map(|(t, _)| t.len())
            .collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        assert!(min < max, "extents vary: {lens:?}");
    }

    #[test]
    fn trajectory_ids_are_dense() {
        let scene = generate_scene(&SceneConfig::default());
        for (i, t) in scene.trajectories.iter().enumerate() {
            assert_eq!(t.id.0 as usize, i);
        }
        assert_eq!(scene.truth.len(), scene.trajectories.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_scene(&SceneConfig::default());
        let b = generate_scene(&SceneConfig::default());
        assert_eq!(a.trajectories, b.trajectories);
    }

    #[test]
    fn noise_walks_stay_in_extent() {
        let config = SceneConfig::default();
        let scene = generate_scene(&config);
        for (t, label) in scene.trajectories.iter().zip(&scene.truth) {
            if matches!(label, TruthLabel::Noise) {
                for p in &t.points {
                    assert!((0.0..=config.extent).contains(&p.x()));
                    assert!((0.0..=config.extent).contains(&p.y()));
                }
            }
        }
    }
}
