//! Arc-length resampling of trajectories to a common length.
//!
//! Whole-trajectory baselines (regression mixtures, k-means) need
//! fixed-dimensional representations; trajectories of different lengths
//! (Section 2.1 allows that) are resampled to `T` points uniformly spaced
//! along the polyline.

use traclus_geom::{Point, Trajectory};

/// Resamples a trajectory to exactly `samples` points, uniformly spaced by
/// arc length. Degenerate inputs (all points identical, or fewer than two
/// points) replicate the first point.
pub fn resample<const D: usize>(trajectory: &Trajectory<D>, samples: usize) -> Vec<Point<D>> {
    assert!(samples >= 2, "need at least two samples");
    let pts = &trajectory.points;
    if pts.is_empty() {
        return Vec::new();
    }
    if pts.len() == 1 {
        return vec![pts[0]; samples];
    }
    // Cumulative arc length.
    let mut cumulative = Vec::with_capacity(pts.len());
    let mut total = 0.0;
    cumulative.push(total);
    for w in pts.windows(2) {
        total += w[0].distance(&w[1]);
        cumulative.push(total);
    }
    if total <= 0.0 {
        return vec![pts[0]; samples];
    }
    let mut out = Vec::with_capacity(samples);
    let mut seg = 0usize;
    for s in 0..samples {
        let target = total * s as f64 / (samples - 1) as f64;
        while seg + 1 < cumulative.len() - 1 && cumulative[seg + 1] < target {
            seg += 1;
        }
        let span = cumulative[seg + 1] - cumulative[seg];
        let t = if span > 0.0 {
            (target - cumulative[seg]) / span
        } else {
            0.0
        };
        out.push(pts[seg].lerp(&pts[seg + 1], t.clamp(0.0, 1.0)));
    }
    out
}

/// Flattens resampled points into one feature vector
/// `[x₀, y₀, x₁, y₁, …]` for vector-space baselines.
pub fn feature_vector<const D: usize>(trajectory: &Trajectory<D>, samples: usize) -> Vec<f64> {
    resample(trajectory, samples)
        .into_iter()
        .flat_map(|p| p.coords.into_iter())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_geom::{Point2, TrajectoryId};

    fn traj(points: &[(f64, f64)]) -> Trajectory<2> {
        Trajectory::new(
            TrajectoryId(0),
            points.iter().map(|&(x, y)| Point2::xy(x, y)).collect(),
        )
    }

    #[test]
    fn straight_line_resamples_uniformly() {
        let t = traj(&[(0.0, 0.0), (10.0, 0.0)]);
        let r = resample(&t, 5);
        let xs: Vec<f64> = r.iter().map(|p| p.x()).collect();
        for (i, &x) in xs.iter().enumerate() {
            assert!((x - 2.5 * i as f64).abs() < 1e-9, "{xs:?}");
        }
    }

    #[test]
    fn endpoints_preserved() {
        let t = traj(&[(1.0, 2.0), (5.0, -3.0), (9.0, 4.0)]);
        let r = resample(&t, 7);
        assert!(r.first().unwrap().distance(&t.points[0]) < 1e-9);
        assert!(r.last().unwrap().distance(&t.points[2]) < 1e-9);
    }

    #[test]
    fn uneven_sampling_is_equalised() {
        // Dense cluster of points then one long hop: arc-length resampling
        // must place samples evenly over distance, not over indices.
        let t = traj(&[(0.0, 0.0), (0.1, 0.0), (0.2, 0.0), (10.0, 0.0)]);
        let r = resample(&t, 11);
        for w in r.windows(2) {
            let gap = w[0].distance(&w[1]);
            assert!((gap - 1.0).abs() < 1e-6, "uniform 1.0 spacing, got {gap}");
        }
    }

    #[test]
    fn degenerate_trajectories() {
        let single = traj(&[(3.0, 3.0)]);
        let r = resample(&single, 4);
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|p| p.distance(&Point2::xy(3.0, 3.0)) < 1e-12));
        let stationary = traj(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let r2 = resample(&stationary, 3);
        assert!(r2.iter().all(|p| p.distance(&Point2::xy(1.0, 1.0)) < 1e-12));
        let empty = traj(&[]);
        assert!(resample(&empty, 3).is_empty());
    }

    #[test]
    fn feature_vector_interleaves_coordinates() {
        let t = traj(&[(0.0, 5.0), (10.0, 5.0)]);
        let f = feature_vector(&t, 3);
        assert_eq!(f, vec![0.0, 5.0, 5.0, 5.0, 10.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "two samples")]
    fn one_sample_rejected() {
        let t = traj(&[(0.0, 0.0), (1.0, 1.0)]);
        let _ = resample(&t, 1);
    }
}
