//! OPTICS (Ankerst et al. \[2\]) for points **and** line segments.
//!
//! Appendix D argues why TRACLUS builds on DBSCAN rather than OPTICS: with
//! line segments, "the reachability-distances of cluster objects tend to be
//! higher (i.e., closer to ε) … and cluster objects are made more
//! indistinguishable from noises", because the pairwise distance among the
//! members of an ε-neighborhood of points is capped at 2ε while for
//! segments it is not (Figure 25). This module implements OPTICS generically
//! so the `appendix_d` experiment can produce reachability profiles for
//! matched point and segment datasets and compare the two regimes.

use traclus_core::segment_db::{NeighborIndex, SegmentDatabase};
use traclus_geom::Point;

/// One entry of the OPTICS ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticsEntry {
    /// Object id (index into the input collection).
    pub id: u32,
    /// Reachability distance (∞ for the first object of each component).
    pub reachability: f64,
    /// Core distance (∞ when the object is not core at ε).
    pub core_distance: f64,
}

/// The OPTICS output: the cluster-ordering with per-object distances.
#[derive(Debug, Clone, PartialEq)]
pub struct OpticsResult {
    /// Entries in processing order (the reachability plot's x-axis).
    pub ordering: Vec<OpticsEntry>,
}

impl OpticsResult {
    /// Extracts a DBSCAN-equivalent clustering by thresholding the
    /// reachability plot at `eps_prime ≤ ε` (the standard OPTICS
    /// post-processing): a new cluster starts where reachability exceeds
    /// the threshold but the core distance does not.
    pub fn extract_clusters(&self, eps_prime: f64) -> Vec<Option<usize>> {
        let mut labels = vec![None; self.ordering.len()];
        let mut current: Option<usize> = None;
        let mut next_id = 0usize;
        for (pos, e) in self.ordering.iter().enumerate() {
            if e.reachability > eps_prime {
                if e.core_distance <= eps_prime {
                    current = Some(next_id);
                    next_id += 1;
                    labels[pos] = current;
                } else {
                    current = None; // noise
                }
            } else {
                labels[pos] = current;
            }
        }
        labels
    }

    /// Finite reachability values (the plot's y-values), for distribution
    /// comparisons.
    pub fn finite_reachabilities(&self) -> Vec<f64> {
        self.ordering
            .iter()
            .map(|e| e.reachability)
            .filter(|r| r.is_finite())
            .collect()
    }
}

/// Generic OPTICS core: `n` objects, a neighborhood oracle returning all
/// ids within ε of a query id (including itself), and a distance oracle.
pub fn optics_generic(
    n: usize,
    mut neighbors: impl FnMut(u32) -> Vec<u32>,
    mut dist: impl FnMut(u32, u32) -> f64,
    min_pts: usize,
) -> OpticsResult {
    assert!(min_pts >= 1);
    let mut processed = vec![false; n];
    let mut reach = vec![f64::INFINITY; n];
    let mut ordering: Vec<OpticsEntry> = Vec::with_capacity(n);
    for start in 0..n as u32 {
        if processed[start as usize] {
            continue;
        }
        // Seed list as a simple binary-heap-by-scan (n is moderate for the
        // experiments; priority updates dominate asymptotics otherwise).
        let mut seeds: Vec<u32> = Vec::new();
        let expand = |id: u32,
                      processed: &mut Vec<bool>,
                      reach: &mut Vec<f64>,
                      seeds: &mut Vec<u32>,
                      ordering: &mut Vec<OpticsEntry>,
                      neighbors: &mut dyn FnMut(u32) -> Vec<u32>,
                      dist: &mut dyn FnMut(u32, u32) -> f64| {
            processed[id as usize] = true;
            let nbrs = neighbors(id);
            let core_distance = core_distance(id, &nbrs, min_pts, dist);
            ordering.push(OpticsEntry {
                id,
                reachability: reach[id as usize],
                core_distance,
            });
            if core_distance.is_finite() {
                for &o in &nbrs {
                    if processed[o as usize] {
                        continue;
                    }
                    let new_reach = core_distance.max(dist(id, o));
                    if new_reach < reach[o as usize] {
                        reach[o as usize] = new_reach;
                        if !seeds.contains(&o) {
                            seeds.push(o);
                        }
                    }
                }
            }
        };
        reach[start as usize] = f64::INFINITY;
        expand(
            start,
            &mut processed,
            &mut reach,
            &mut seeds,
            &mut ordering,
            &mut neighbors,
            &mut dist,
        );
        while !seeds.is_empty() {
            // Pop the seed with smallest reachability (ties: smallest id
            // for determinism).
            #[expect(clippy::expect_used, reason = "the loop condition guarantees a seed")]
            let (pos, _) = seeds
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    reach[**a as usize]
                        .total_cmp(&reach[**b as usize])
                        .then(a.cmp(b))
                })
                .expect("non-empty seeds");
            let id = seeds.swap_remove(pos);
            if processed[id as usize] {
                continue;
            }
            expand(
                id,
                &mut processed,
                &mut reach,
                &mut seeds,
                &mut ordering,
                &mut neighbors,
                &mut dist,
            );
        }
    }
    OpticsResult { ordering }
}

/// Core distance: the `min_pts`-th smallest distance to a neighbour
/// (∞ when the neighborhood is too small).
fn core_distance(
    id: u32,
    nbrs: &[u32],
    min_pts: usize,
    dist: &mut dyn FnMut(u32, u32) -> f64,
) -> f64 {
    if nbrs.len() < min_pts {
        return f64::INFINITY;
    }
    let mut ds: Vec<f64> = nbrs.iter().map(|&o| dist(id, o)).collect();
    ds.sort_by(f64::total_cmp);
    ds[min_pts - 1]
}

/// OPTICS over a TRACLUS segment database (the Appendix D "line segments"
/// arm).
pub fn optics_segments<const D: usize>(
    db: &SegmentDatabase<D>,
    index: &NeighborIndex<D>,
    eps: f64,
    min_pts: usize,
) -> OpticsResult {
    optics_generic(
        db.len(),
        |id| db.neighborhood(index, id, eps),
        |a, b| db.distance(a, b),
        min_pts,
    )
}

/// OPTICS over raw points with Euclidean distance (the "points" arm).
pub fn optics_points<const D: usize>(
    points: &[Point<D>],
    eps: f64,
    min_pts: usize,
) -> OpticsResult {
    optics_generic(
        points.len(),
        |id| {
            let p = &points[id as usize];
            (0..points.len() as u32)
                .filter(|&j| points[j as usize].distance(p) <= eps)
                .collect()
        },
        |a, b| points[a as usize].distance(&points[b as usize]),
        min_pts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_geom::{
        IdentifiedSegment, Point2, Segment2, SegmentDistance, SegmentId, TrajectoryId,
    };

    #[test]
    fn core_distance_total_cmp_orders_nan_last_and_ties_stably() {
        // Regression for the partial_cmp → total_cmp switch: total_cmp
        // sorts NaN after every real value (including +∞), so a stray NaN
        // distance can never shadow a real k-th neighbour. The old
        // `partial_cmp(..).unwrap_or(Equal)` comparator left NaN's sorted
        // position unspecified (an inconsistent comparator).
        let ds = [2.0, f64::NAN, 1.0, 1.0];
        let nbrs = [0u32, 1, 2, 3];
        let mut dist = |_q: u32, o: u32| ds[o as usize];
        assert_eq!(core_distance(9, &nbrs, 1, &mut dist), 1.0);
        assert_eq!(core_distance(9, &nbrs, 2, &mut dist), 1.0, "tied pair");
        assert_eq!(core_distance(9, &nbrs, 3, &mut dist), 2.0);
        assert!(
            core_distance(9, &nbrs, 4, &mut dist).is_nan(),
            "NaN is deterministically last"
        );
        // ±0.0 compare unequal under total_cmp but numerically identical;
        // the selected core distance is the same value either way.
        let zs = [0.0, -0.0];
        let mut dist = |_q: u32, o: u32| zs[o as usize];
        assert_eq!(core_distance(9, &[0, 1], 2, &mut dist), 0.0);
    }

    #[test]
    fn ordering_covers_every_object_once() {
        let pts: Vec<Point2> = (0..30).map(|i| Point2::xy(i as f64 * 0.5, 0.0)).collect();
        let result = optics_points(&pts, 1.2, 3);
        assert_eq!(result.ordering.len(), 30);
        let mut ids: Vec<u32> = result.ordering.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..30).collect::<Vec<u32>>());
    }

    #[test]
    fn dense_blob_has_low_reachability() {
        let mut pts: Vec<Point2> = (0..20)
            .map(|i| Point2::xy((i % 5) as f64 * 0.2, (i / 5) as f64 * 0.2))
            .collect();
        pts.push(Point2::xy(100.0, 100.0)); // lone outlier
        let result = optics_points(&pts, 2.0, 3);
        // The outlier is the only object with infinite reachability apart
        // from the start object.
        let infinite = result
            .ordering
            .iter()
            .filter(|e| e.reachability.is_infinite())
            .count();
        assert_eq!(infinite, 2, "start of blob + isolated outlier");
        let finite = result.finite_reachabilities();
        assert!(finite.iter().all(|&r| r < 1.0), "blob is tight: {finite:?}");
    }

    #[test]
    fn extract_clusters_matches_dbscan_structure() {
        let mut pts: Vec<Point2> = (0..15).map(|i| Point2::xy(i as f64 * 0.3, 0.0)).collect();
        pts.extend((0..15).map(|i| Point2::xy(50.0 + i as f64 * 0.3, 0.0)));
        let result = optics_points(&pts, 1.0, 3);
        let labels = result.extract_clusters(1.0);
        let distinct: std::collections::BTreeSet<usize> =
            labels.iter().flatten().copied().collect();
        assert_eq!(distinct.len(), 2, "two bands → two clusters");
        assert!(labels.iter().all(|l| l.is_some()), "no noise in bands");
    }

    #[test]
    fn appendix_d_reachability_gap_points_vs_segments() {
        // Matched scene: a bundle of parallel segments vs the same count of
        // points at the segment midpoints. The paper's Figure 25 argument:
        // pairwise distances inside a point ε-neighborhood are ≤ 2ε, while
        // segment neighbours can sit much further apart (length/angle
        // terms), pushing reachability up towards ε.
        let eps = 5.0;
        let min_pts = 3;
        // Long segments with varied lengths overlapping near x ∈ [0, 60].
        let segs: Vec<Segment2> = (0..12)
            .map(|i| {
                let y = i as f64 * 0.8;
                let x0 = (i % 4) as f64 * 5.0;
                Segment2::xy(x0, y, x0 + 30.0 + (i % 3) as f64 * 10.0, y)
            })
            .collect();
        let identified: Vec<IdentifiedSegment<2>> = segs
            .iter()
            .enumerate()
            .map(|(k, s)| IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(k as u32), *s))
            .collect();
        let db = SegmentDatabase::from_segments(identified, SegmentDistance::default());
        let index = db.build_index(traclus_core::segment_db::IndexKind::Linear, eps);
        let seg_result = optics_segments(&db, &index, eps, min_pts);
        // Matched points: one per segment with the *same* cross-track
        // spacing (the y offsets), so the comparison isolates the extra
        // length/parallel/angle terms that only segments carry.
        let points: Vec<Point2> = segs.iter().map(|s| Point2::xy(0.0, s.start.y())).collect();
        let pt_result = optics_points(&points, eps, min_pts);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let seg_reach = mean(&seg_result.finite_reachabilities());
        let pt_reach = mean(&pt_result.finite_reachabilities());
        assert!(
            seg_reach > pt_reach,
            "segment reachability {seg_reach} must exceed point reachability {pt_reach}"
        );
    }

    #[test]
    fn deterministic() {
        let pts: Vec<Point2> = (0..25)
            .map(|i| Point2::xy((i * 7 % 13) as f64, (i * 5 % 11) as f64))
            .collect();
        let a = optics_points(&pts, 3.0, 3);
        let b = optics_points(&pts, 3.0, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input() {
        let result = optics_points::<2>(&[], 1.0, 2);
        assert!(result.ordering.is_empty());
        assert!(result.extract_clusters(1.0).is_empty());
    }
}
