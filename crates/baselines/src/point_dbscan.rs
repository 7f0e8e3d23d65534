//! Classic DBSCAN over points (Ester et al. \[6\]) — the algorithm TRACLUS
//! adapts to line segments. Used as a reference substrate and by the
//! Appendix D point-vs-segment comparison.

use std::collections::VecDeque;

use traclus_geom::Point;

/// Per-point label after clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointLabel {
    /// Noise.
    Noise,
    /// Member of cluster `k` (dense ids from 0).
    Cluster(usize),
}

/// DBSCAN over a point set with Euclidean distance.
///
/// A uniform grid with cell size ε accelerates region queries (a point's
/// ε-neighbours lie in the 3×3 cell block around it), giving near-linear
/// behaviour on bounded-density data.
#[expect(
    clippy::expect_used,
    reason = "the loop labels every point before the tail expression unwraps the labels"
)]
pub fn dbscan_points<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    min_pts: usize,
) -> Vec<PointLabel> {
    assert!(eps > 0.0 && eps.is_finite());
    assert!(min_pts >= 1);
    let n = points.len();
    let grid = PointGrid::build(points, eps);
    let mut labels = vec![None::<PointLabel>; n];
    let mut cluster = 0usize;
    let mut queue = VecDeque::new();
    let mut scratch = Vec::new();
    for i in 0..n {
        if labels[i].is_some() {
            continue;
        }
        grid.neighbors_into(points, i, eps, &mut scratch);
        if scratch.len() < min_pts {
            labels[i] = Some(PointLabel::Noise);
            continue;
        }
        labels[i] = Some(PointLabel::Cluster(cluster));
        queue.clear();
        queue.extend(scratch.iter().copied().filter(|&j| j != i));
        while let Some(j) = queue.pop_front() {
            match labels[j] {
                Some(PointLabel::Cluster(_)) => continue,
                Some(PointLabel::Noise) => {
                    labels[j] = Some(PointLabel::Cluster(cluster)); // border
                    continue;
                }
                None => {}
            }
            labels[j] = Some(PointLabel::Cluster(cluster));
            grid.neighbors_into(points, j, eps, &mut scratch);
            if scratch.len() >= min_pts {
                for &k in &scratch {
                    if labels[k].is_none() {
                        queue.push_back(k);
                    } else if labels[k] == Some(PointLabel::Noise) {
                        labels[k] = Some(PointLabel::Cluster(cluster));
                    }
                }
            }
        }
        cluster += 1;
    }
    labels
        .into_iter()
        .map(|l| l.expect("every point labelled"))
        .collect()
}

/// Number of clusters in a label vector.
pub fn cluster_count(labels: &[PointLabel]) -> usize {
    labels
        .iter()
        .filter_map(|l| match l {
            PointLabel::Cluster(k) => Some(*k + 1),
            PointLabel::Noise => None,
        })
        .max()
        .unwrap_or(0)
}

/// Uniform grid over points with cell size ε.
#[allow(
    clippy::disallowed_types,
    reason = "the cell map is lookup-only: `neighbors_into` probes the 3^D block of keys \
              around the query cell in a fixed offset order and the per-cell id lists are in \
              insertion order; the map is never iterated, so its random iteration order \
              cannot leak into neighbor order"
)]
struct PointGrid<const D: usize> {
    cell: f64,
    map: std::collections::HashMap<[i64; D], Vec<usize>>,
}

#[allow(
    clippy::disallowed_types,
    reason = "the lookup-only cell map, see the struct's reason"
)]
impl<const D: usize> PointGrid<D> {
    fn build(points: &[Point<D>], cell: f64) -> Self {
        let mut map: std::collections::HashMap<[i64; D], Vec<usize>> =
            std::collections::HashMap::new();
        for (i, p) in points.iter().enumerate() {
            map.entry(Self::key(p, cell)).or_default().push(i);
        }
        Self { cell, map }
    }

    fn key(p: &Point<D>, cell: f64) -> [i64; D] {
        let mut k = [0i64; D];
        for (d, kd) in k.iter_mut().enumerate() {
            *kd = (p.coords[d] / cell).floor() as i64;
        }
        k
    }

    fn neighbors_into(&self, points: &[Point<D>], i: usize, eps: f64, out: &mut Vec<usize>) {
        out.clear();
        let center = Self::key(&points[i], self.cell);
        // Walk the 3^D block around the centre cell.
        let mut offsets = vec![[0i64; D]];
        for d in 0..D {
            let mut next = Vec::with_capacity(offsets.len() * 3);
            for off in &offsets {
                for delta in -1..=1 {
                    let mut o = *off;
                    o[d] = delta;
                    next.push(o);
                }
            }
            offsets = next;
        }
        let eps_sq = eps * eps;
        for off in offsets {
            let mut key = center;
            for d in 0..D {
                key[d] += off[d];
            }
            if let Some(ids) = self.map.get(&key) {
                for &j in ids {
                    if points[i].distance_squared(&points[j]) <= eps_sq {
                        out.push(j);
                    }
                }
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_geom::Point2;

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let angle = i as f64 * 2.39996; // golden-angle spiral
                let r = spread * (i as f64 / n as f64).sqrt();
                Point2::xy(cx + r * angle.cos(), cy + r * angle.sin())
            })
            .collect()
    }

    #[test]
    fn two_blobs_two_clusters() {
        let mut pts = blob(0.0, 0.0, 30, 2.0);
        pts.extend(blob(50.0, 50.0, 30, 2.0));
        let labels = dbscan_points(&pts, 1.5, 4);
        assert_eq!(cluster_count(&labels), 2);
        let first = labels[0];
        assert!(labels[..30].iter().all(|&l| l == first));
    }

    #[test]
    fn isolated_points_are_noise() {
        let mut pts = blob(0.0, 0.0, 20, 1.5);
        pts.push(Point2::xy(500.0, 500.0));
        let labels = dbscan_points(&pts, 1.5, 4);
        assert_eq!(*labels.last().unwrap(), PointLabel::Noise);
    }

    #[test]
    fn min_pts_one_clusters_everything() {
        let pts = vec![
            Point2::xy(0.0, 0.0),
            Point2::xy(100.0, 0.0),
            Point2::xy(200.0, 0.0),
        ];
        let labels = dbscan_points(&pts, 1.0, 1);
        assert_eq!(cluster_count(&labels), 3, "every point is its own core");
    }

    #[test]
    fn chain_connects_through_cores() {
        let pts: Vec<Point2> = (0..50).map(|i| Point2::xy(i as f64 * 0.9, 0.0)).collect();
        let labels = dbscan_points(&pts, 1.0, 3);
        assert_eq!(cluster_count(&labels), 1);
        assert!(labels.iter().all(|l| matches!(l, PointLabel::Cluster(0))));
    }

    #[test]
    fn grid_neighbors_match_brute_force() {
        let pts = blob(0.0, 0.0, 60, 5.0);
        let grid = PointGrid::build(&pts, 1.2);
        let mut out = Vec::new();
        for i in 0..pts.len() {
            grid.neighbors_into(&pts, i, 1.2, &mut out);
            let brute: Vec<usize> = (0..pts.len())
                .filter(|&j| pts[i].distance(&pts[j]) <= 1.2)
                .collect();
            assert_eq!(out, brute, "point {i}");
        }
    }

    #[test]
    fn empty_input() {
        let labels = dbscan_points::<2>(&[], 1.0, 3);
        assert!(labels.is_empty());
        assert_eq!(cluster_count(&labels), 0);
    }
}
