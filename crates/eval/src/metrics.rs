//! Segment-level clustering-quality metrics under the composite distance.
//!
//! All metrics consume the uniform label shape of
//! [`ClusteringResult`] over a shared
//! [`SegmentDatabase`], so TRACLUS and every baseline are scored on the
//! same substrate (the Rahmani et al. point: trajectory quality must be
//! measured on segments, not raw points). Invariants the property suite
//! locks down: silhouette ∈ [-1, 1], noise ratio ∈ [0, 1], and every
//! metric is invariant under relabeling cluster ids.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traclus_core::SegmentDatabase;
use traclus_geom::{Segment, Trajectory};

use crate::result::ClusteringResult;

/// Distribution statistics of cluster sizes (in segments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeStats {
    /// Number of clusters.
    pub clusters: usize,
    /// Smallest cluster (0 when there are none).
    pub min: usize,
    /// Largest cluster (0 when there are none).
    pub max: usize,
    /// Mean cluster size (0 when there are none).
    pub mean: f64,
    /// Median cluster size (0 when there are none).
    pub median: f64,
}

impl SizeStats {
    /// Statistics of a size list (any order).
    pub fn from_sizes(mut sizes: Vec<usize>) -> Self {
        if sizes.is_empty() {
            return Self {
                clusters: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                median: 0.0,
            };
        }
        sizes.sort_unstable();
        let n = sizes.len();
        let median = if n % 2 == 1 {
            sizes[n / 2] as f64
        } else {
            (sizes[n / 2 - 1] + sizes[n / 2]) as f64 / 2.0
        };
        Self {
            clusters: n,
            min: sizes[0],
            max: sizes[n - 1],
            mean: sizes.iter().sum::<usize>() as f64 / n as f64,
            median,
        }
    }
}

/// The quality slice of a report entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityMetrics {
    /// Mean segment-level silhouette over clustered segments, under the
    /// database's composite distance. `None` when undefined (fewer than
    /// two clusters).
    pub silhouette: Option<f64>,
    /// Fraction of segments labelled noise.
    pub noise_ratio: f64,
    /// Number of clusters.
    pub cluster_count: usize,
    /// Cluster-size distribution.
    pub sizes: SizeStats,
    /// Mean squared composite distance from each clustered segment to its
    /// cluster's representative trajectory (closest representative edge).
    /// `None` when the algorithm produced no representatives.
    pub ssq: Option<f64>,
}

impl QualityMetrics {
    /// Rejects NaN / out-of-range values — the CI smoke gate. A valid
    /// report has silhouette in [-1, 1], noise ratio in [0, 1], finite
    /// non-negative SSQ, and size statistics consistent with the cluster
    /// count.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(s) = self.silhouette {
            if !s.is_finite() || !(-1.0..=1.0).contains(&s) {
                return Err(format!("silhouette {s} outside [-1, 1]"));
            }
        }
        if !self.noise_ratio.is_finite() || !(0.0..=1.0).contains(&self.noise_ratio) {
            return Err(format!("noise ratio {} outside [0, 1]", self.noise_ratio));
        }
        if let Some(q) = self.ssq {
            if !q.is_finite() || q < 0.0 {
                return Err(format!("SSQ {q} is not a finite non-negative number"));
            }
        }
        if self.sizes.clusters != self.cluster_count {
            return Err(format!(
                "size stats cover {} clusters but the labeling has {}",
                self.sizes.clusters, self.cluster_count
            ));
        }
        if !self.sizes.mean.is_finite() || !self.sizes.median.is_finite() {
            return Err("non-finite cluster-size statistics".to_string());
        }
        Ok(())
    }
}

/// Fraction of segments labelled noise (0 for an empty labeling).
pub fn noise_ratio(labels: &[Option<u32>]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    labels.iter().filter(|l| l.is_none()).count() as f64 / labels.len() as f64
}

/// Cluster sizes in descending order — a relabeling-invariant summary of
/// the size distribution.
pub fn cluster_sizes(labels: &[Option<u32>]) -> Vec<usize> {
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for l in labels.iter().flatten() {
        *counts.entry(*l).or_insert(0) += 1;
    }
    let mut sizes: Vec<usize> = counts.into_values().collect();
    sizes.sort_unstable_by_key(|&s| Reverse(s));
    sizes
}

/// Exact mean segment silhouette: O(n²) composite-distance evaluations.
/// `None` when fewer than two clusters exist (the coefficient is
/// undefined). Segments in singleton clusters score 0, the standard
/// convention.
pub fn segment_silhouette<const D: usize>(
    db: &SegmentDatabase<D>,
    labels: &[Option<u32>],
) -> Option<f64> {
    segment_silhouette_sampled(db, labels, usize::MAX, 0)
}

/// Silhouette with a per-(segment, cluster) sampling cap: each mean
/// distance from a segment to a cluster is estimated from at most `cap`
/// sampled members. Deterministic for a fixed seed; `cap = usize::MAX`
/// recovers the exact value. Use on survey-scale databases where the
/// exact O(n²) sweep is prohibitive.
pub fn segment_silhouette_sampled<const D: usize>(
    db: &SegmentDatabase<D>,
    labels: &[Option<u32>],
    cap: usize,
    seed: u64,
) -> Option<f64> {
    assert_eq!(labels.len(), db.len(), "labels must cover the database");
    assert!(cap > 0, "sampling cap must be positive");
    let mut clusters: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (i, l) in labels.iter().enumerate() {
        if let Some(k) = l {
            clusters.entry(*k).or_default().push(i as u32);
        }
    }
    if clusters.len() < 2 {
        return None;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for (k, members) in &clusters {
        for &i in members {
            let s = if members.len() == 1 {
                0.0
            } else {
                let a = mean_distance(db, i, members, true, cap, seed);
                let b = clusters
                    .iter()
                    .filter(|(other, _)| *other != k)
                    .map(|(_, other_members)| mean_distance(db, i, other_members, false, cap, seed))
                    .fold(f64::INFINITY, f64::min);
                let denom = a.max(b);
                if denom > 0.0 {
                    (b - a) / denom
                } else {
                    0.0 // all distances zero: perfectly tied, neutral score
                }
            };
            total += s;
            count += 1;
        }
    }
    Some(total / count as f64)
}

/// Mean composite distance from segment `i` to a member group, optionally
/// excluding `i` itself (the silhouette `a(i)` convention), sampling when
/// the group exceeds `cap`.
///
/// The sampling RNG is re-derived per `(segment, group)` from the seed
/// plus the group's *first member id* — a cluster's identity is its
/// membership, never its label value — so the estimate is invariant
/// under relabeling and under the order clusters are visited in.
fn mean_distance<const D: usize>(
    db: &SegmentDatabase<D>,
    i: u32,
    members: &[u32],
    exclude_self: bool,
    cap: usize,
    seed: u64,
) -> f64 {
    let n = members.len();
    let effective = if exclude_self { n - 1 } else { n };
    if effective == 0 {
        return 0.0;
    }
    if effective <= cap {
        let sum: f64 = members
            .iter()
            .filter(|&&j| !(exclude_self && j == i))
            .map(|&j| db.distance(i, j))
            .sum();
        return sum / effective as f64;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ ((i as u64) << 32) ^ members[0] as u64);
    let mut acc = 0.0;
    for _ in 0..cap {
        let mut j = members[rng.gen_range(0..n)];
        if exclude_self && j == i {
            // Deterministic neighbour swap keeps the draw unbiased enough
            // for an estimate while avoiding a rejection loop.
            #[expect(
                clippy::expect_used,
                reason = "exclude_self is set only when i is one of the members"
            )]
            let pos = members.iter().position(|&m| m == i).expect("i is a member");
            j = members[(pos + 1) % n];
        }
        acc += db.distance(i, j);
    }
    acc / cap as f64
}

/// Mean squared composite distance from every clustered segment to the
/// closest edge of its cluster's representative trajectory — the SSQ
/// quality axis for algorithms that emit representatives. `None` when no
/// representative covers any clustered segment.
pub fn ssq_to_representatives<const D: usize>(
    db: &SegmentDatabase<D>,
    labels: &[Option<u32>],
    representatives: &[(u32, Trajectory<D>)],
) -> Option<f64> {
    assert_eq!(labels.len(), db.len(), "labels must cover the database");
    let edges: BTreeMap<u32, Vec<Segment<D>>> = representatives
        .iter()
        .map(|(k, rep)| (*k, rep.edges().collect()))
        .collect();
    let dist = db.distance_fn();
    let mut total = 0.0;
    let mut count = 0usize;
    for (i, label) in labels.iter().enumerate() {
        let Some(k) = label else { continue };
        let Some(rep_edges) = edges.get(k) else {
            continue;
        };
        if rep_edges.is_empty() {
            continue;
        }
        let seg = db.segment(i as u32).segment;
        let d = rep_edges
            .iter()
            .map(|e| dist.distance(&seg, e))
            .fold(f64::INFINITY, f64::min);
        total += d * d;
        count += 1;
    }
    (count > 0).then(|| total / count as f64)
}

/// All metrics of one result, with exact silhouette.
pub fn compute_metrics<const D: usize>(
    db: &SegmentDatabase<D>,
    result: &ClusteringResult<D>,
) -> QualityMetrics {
    compute_metrics_sampled(db, result, usize::MAX, 0)
}

/// All metrics of one result, with the sampled silhouette estimator.
pub fn compute_metrics_sampled<const D: usize>(
    db: &SegmentDatabase<D>,
    result: &ClusteringResult<D>,
    silhouette_cap: usize,
    seed: u64,
) -> QualityMetrics {
    let labels = &result.labels;
    let sizes = SizeStats::from_sizes(cluster_sizes(labels));
    QualityMetrics {
        silhouette: segment_silhouette_sampled(db, labels, silhouette_cap, seed),
        noise_ratio: noise_ratio(labels),
        cluster_count: sizes.clusters,
        sizes,
        ssq: ssq_to_representatives(db, labels, &result.representatives),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_geom::{
        IdentifiedSegment, Point, Segment2, SegmentDistance, SegmentId, TrajectoryId,
    };

    /// Two tight horizontal bundles far apart: the canonical
    /// well-separated fixture.
    fn two_bundle_db() -> SegmentDatabase<2> {
        let mut segs = Vec::new();
        for i in 0..4 {
            segs.push(Segment2::xy(0.0, i as f64 * 0.2, 10.0, i as f64 * 0.2));
        }
        for i in 0..4 {
            segs.push(Segment2::xy(
                0.0,
                100.0 + i as f64 * 0.2,
                10.0,
                100.0 + i as f64 * 0.2,
            ));
        }
        let identified = segs
            .into_iter()
            .enumerate()
            .map(|(k, s)| IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(k as u32), s))
            .collect();
        SegmentDatabase::from_segments(identified, SegmentDistance::default())
    }

    fn two_bundle_labels() -> Vec<Option<u32>> {
        (0..8).map(|i| Some((i / 4) as u32)).collect()
    }

    #[test]
    fn silhouette_near_one_on_separated_bundles() {
        let db = two_bundle_db();
        let s = segment_silhouette(&db, &two_bundle_labels()).expect("two clusters");
        assert!(
            s > 0.95,
            "well-separated bundles must score near 1, got {s}"
        );
    }

    #[test]
    fn silhouette_undefined_for_one_cluster() {
        let db = two_bundle_db();
        let labels: Vec<Option<u32>> = vec![Some(0); 8];
        assert_eq!(segment_silhouette(&db, &labels), None);
    }

    #[test]
    fn silhouette_negative_when_clusters_are_scrambled() {
        let db = two_bundle_db();
        // Alternate labels across the two bundles: every segment's own
        // cluster is mostly far away.
        let labels: Vec<Option<u32>> = (0..8).map(|i| Some((i % 2) as u32)).collect();
        let s = segment_silhouette(&db, &labels).expect("two clusters");
        assert!(s < 0.0, "scrambled labeling must score negative, got {s}");
    }

    #[test]
    fn sampled_silhouette_matches_exact_under_cap_and_tracks_above() {
        let db = two_bundle_db();
        let labels = two_bundle_labels();
        let exact = segment_silhouette(&db, &labels).unwrap();
        let under_cap = segment_silhouette_sampled(&db, &labels, 100, 7).unwrap();
        assert_eq!(exact, under_cap, "cap above group sizes ⇒ exact path");
        let sampled = segment_silhouette_sampled(&db, &labels, 2, 7).unwrap();
        assert!(
            (sampled - exact).abs() < 0.2,
            "sampled {sampled} vs {exact}"
        );
    }

    #[test]
    fn sampled_silhouette_is_relabeling_invariant() {
        // Cap 2 < cluster size 4 forces the sampling path; the per-group
        // RNG is keyed on membership, not label, so renaming labels (and
        // thereby reversing cluster iteration order) must not move the
        // estimate beyond float-summation jitter.
        let db = two_bundle_db();
        let labels = two_bundle_labels();
        let renamed: Vec<Option<u32>> = labels.iter().map(|l| l.map(|k| 500 - 7 * k)).collect();
        let a = segment_silhouette_sampled(&db, &labels, 2, 9).unwrap();
        let b = segment_silhouette_sampled(&db, &renamed, 2, 9).unwrap();
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn noise_ratio_counts_none() {
        assert_eq!(noise_ratio(&[]), 0.0);
        assert_eq!(noise_ratio(&[Some(0), None, None, Some(1)]), 0.5);
    }

    #[test]
    fn cluster_sizes_are_descending_and_relabel_invariant() {
        let a = cluster_sizes(&[Some(0), Some(0), Some(1), None]);
        let b = cluster_sizes(&[Some(9), Some(9), Some(3), None]);
        assert_eq!(a, vec![2, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn size_stats_median_handles_even_counts() {
        let s = SizeStats::from_sizes(vec![1, 3, 5, 7]);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 7);
        assert_eq!(s.mean, 4.0);
    }

    #[test]
    fn ssq_zero_when_representative_overlays_members() {
        let db = two_bundle_db();
        let labels: Vec<Option<u32>> = vec![Some(0); 4].into_iter().chain(vec![None; 4]).collect();
        // A representative running through the middle of bundle 0.
        let rep = Trajectory::new(
            TrajectoryId(0),
            vec![Point::new([0.0, 0.3]), Point::new([10.0, 0.3])],
        );
        let ssq = ssq_to_representatives(&db, &labels, &[(0, rep)]).expect("covered");
        assert!(ssq < 1.0, "members hug the representative, got {ssq}");
        assert!(ssq > 0.0, "offset members have positive SSQ");
    }

    #[test]
    fn ssq_none_without_representatives() {
        let db = two_bundle_db();
        assert_eq!(ssq_to_representatives(&db, &two_bundle_labels(), &[]), None);
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let good = QualityMetrics {
            silhouette: Some(0.5),
            noise_ratio: 0.1,
            cluster_count: 1,
            sizes: SizeStats::from_sizes(vec![4]),
            ssq: Some(1.0),
        };
        assert!(good.validate().is_ok());
        let mut bad = good;
        bad.silhouette = Some(f64::NAN);
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.noise_ratio = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.ssq = Some(-1.0);
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.cluster_count = 7;
        assert!(bad.validate().is_err());
    }
}
