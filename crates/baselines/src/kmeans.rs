//! k-means over resampled whole trajectories (a second whole-trajectory
//! baseline; the paper's Section 6 classifies k-means \[16\] as the canonical
//! partitioning method).
//!
//! Trajectories are embedded as fixed-length vectors by arc-length
//! resampling, then clustered with k-means++ seeding and Lloyd iterations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traclus_geom::Trajectory;

use crate::resample::feature_vector;

/// Configuration for trajectory k-means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Resampling length `T` (feature dimension is `T·D`).
    pub samples: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// RNG seed (k-means++ seeding).
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 3,
            samples: 20,
            max_iterations: 100,
            seed: 11,
        }
    }
}

/// k-means result.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster assignment per trajectory.
    pub assignments: Vec<usize>,
    /// Cluster centroids in feature space (`k × (T·D)`).
    pub centroids: Vec<Vec<f64>>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Runs k-means++ + Lloyd on resampled trajectories.
pub fn kmeans_trajectories<const D: usize>(
    trajectories: &[Trajectory<D>],
    config: &KMeansConfig,
) -> KMeansResult {
    assert!(config.k >= 1);
    assert!(
        trajectories.len() >= config.k,
        "need at least k trajectories"
    );
    let features: Vec<Vec<f64>> = trajectories
        .iter()
        .map(|t| feature_vector(t, config.samples))
        .collect();
    let n = features.len();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(config.k);
    centroids.push(features[rng.gen_range(0..n)].clone());
    while centroids.len() < config.k {
        let dists: Vec<f64> = features
            .iter()
            .map(|f| {
                centroids
                    .iter()
                    .map(|c| sq_dist(f, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = dists.iter().sum();
        if total <= 0.0 {
            // All points coincide with existing centroids; duplicate one.
            centroids.push(features[rng.gen_range(0..n)].clone());
            continue;
        }
        let mut pick = rng.gen::<f64>() * total;
        let mut chosen = n - 1;
        for (i, d) in dists.iter().enumerate() {
            pick -= d;
            if pick <= 0.0 {
                chosen = i;
                break;
            }
        }
        centroids.push(features[chosen].clone());
    }

    // Lloyd iterations.
    let mut assignments = vec![0usize; n];
    let mut iterations = 0usize;
    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        let mut changed = false;
        for (i, f) in features.iter().enumerate() {
            #[expect(clippy::expect_used, reason = "k >= 1 is asserted above")]
            let best = (0..config.k)
                .min_by(|&a, &b| sq_dist(f, &centroids[a]).total_cmp(&sq_dist(f, &centroids[b])))
                .expect("k ≥ 1");
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Recompute centroids; empty clusters are re-seeded from the point
        // farthest from its centroid.
        let dim = features[0].len();
        let mut sums = vec![vec![0.0; dim]; config.k];
        let mut counts = vec![0usize; config.k];
        for (i, f) in features.iter().enumerate() {
            counts[assignments[i]] += 1;
            for (s, v) in sums[assignments[i]].iter_mut().zip(f) {
                *s += v;
            }
        }
        for k in 0..config.k {
            if counts[k] == 0 {
                #[expect(clippy::expect_used, reason = "n >= k >= 1 is asserted above")]
                let worst = (0..n)
                    .max_by(|&a, &b| {
                        sq_dist(&features[a], &centroids[assignments[a]])
                            .total_cmp(&sq_dist(&features[b], &centroids[assignments[b]]))
                    })
                    .expect("non-empty input");
                centroids[k] = features[worst].clone();
                changed = true;
            } else {
                for (c, s) in centroids[k].iter_mut().zip(&sums[k]) {
                    *c = s / counts[k] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let inertia = features
        .iter()
        .zip(&assignments)
        .map(|(f, &a)| sq_dist(f, &centroids[a]))
        .sum();
    KMeansResult {
        assignments,
        centroids,
        inertia,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_geom::{Point2, TrajectoryId};

    fn family(count: usize, y: f64, id0: u32) -> Vec<Trajectory<2>> {
        (0..count)
            .map(|i| {
                let points = (0..10)
                    .map(|k| Point2::xy(k as f64 * 10.0, y + (i as f64) * 0.2))
                    .collect();
                Trajectory::new(TrajectoryId(id0 + i as u32), points)
            })
            .collect()
    }

    #[test]
    fn separates_two_bands() {
        let mut trajs = family(8, 0.0, 0);
        trajs.extend(family(8, 100.0, 100));
        let result = kmeans_trajectories(
            &trajs,
            &KMeansConfig {
                k: 2,
                ..KMeansConfig::default()
            },
        );
        let a = result.assignments[0];
        assert!(result.assignments[..8].iter().all(|&x| x == a));
        let b = result.assignments[8];
        assert!(result.assignments[8..].iter().all(|&x| x == b));
        assert_ne!(a, b);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let mut trajs = family(6, 0.0, 0);
        trajs.extend(family(6, 50.0, 50));
        trajs.extend(family(6, 100.0, 100));
        let i1 = kmeans_trajectories(
            &trajs,
            &KMeansConfig {
                k: 1,
                ..KMeansConfig::default()
            },
        )
        .inertia;
        let i3 = kmeans_trajectories(
            &trajs,
            &KMeansConfig {
                k: 3,
                ..KMeansConfig::default()
            },
        )
        .inertia;
        assert!(i3 < i1, "k=3 inertia {i3} < k=1 inertia {i1}");
    }

    #[test]
    fn deterministic_per_seed() {
        let trajs = family(10, 0.0, 0);
        let config = KMeansConfig::default();
        assert_eq!(
            kmeans_trajectories(&trajs, &config),
            kmeans_trajectories(&trajs, &config)
        );
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let trajs = family(4, 0.0, 0);
        let result = kmeans_trajectories(
            &trajs,
            &KMeansConfig {
                k: 4,
                samples: 5,
                ..KMeansConfig::default()
            },
        );
        assert!(result.inertia < 1e-9, "each point its own centroid");
    }

    #[test]
    #[should_panic(expected = "at least k")]
    fn too_few_trajectories_rejected() {
        let trajs = family(2, 0.0, 0);
        let _ = kmeans_trajectories(
            &trajs,
            &KMeansConfig {
                k: 5,
                ..KMeansConfig::default()
            },
        );
    }

    #[test]
    fn identical_trajectories_collapse() {
        let trajs: Vec<Trajectory<2>> = (0..6)
            .map(|i| {
                Trajectory::new(
                    TrajectoryId(i),
                    (0..5).map(|k| Point2::xy(k as f64, 0.0)).collect(),
                )
            })
            .collect();
        let result = kmeans_trajectories(
            &trajs,
            &KMeansConfig {
                k: 2,
                samples: 5,
                ..KMeansConfig::default()
            },
        );
        assert!(result.inertia < 1e-9);
    }
}
