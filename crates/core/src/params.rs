//! Parameter-value selection heuristics (Section 4.4).
//!
//! The ε heuristic: over a range of candidate ε, compute the entropy
//! (Formula 10) of the neighborhood-size distribution
//! `p(xᵢ) = |Nε(xᵢ)| / Σⱼ|Nε(xⱼ)|` and pick the ε minimising it — a skewed
//! distribution (small entropy) signals good cluster/noise contrast, while
//! both tiny and huge ε make `|Nε|` uniform and entropy maximal. The
//! minimisation runs either as a scan of a candidate grid
//! ([`EntropyCurve::scan`], the Figure 16/19 curves, drawn from one ε-query
//! per segment) or by simulated annealing over per-ε
//! [`NeighborhoodStats::compute`] sweeps, as in the paper.
//!
//! The `MinLns` heuristic: `avg|Nε(L)| + 1 … + 3` at the chosen ε.
//!
//! This module also hosts [`Parallelism`], the execution-parameter knob of
//! the partition and grouping phases (how many worker threads partition
//! trajectories and run ε-queries) — a run-time parameter alongside the
//! paper's statistical ones.

use std::num::NonZeroUsize;
use std::ops::RangeInclusive;

use crate::anneal::{minimize_1d, AnnealConfig};
use crate::grouping::for_each_ordered;
use crate::segment_db::{IndexKind, NeighborIndex, SegmentDatabase};

/// Thread-count knob for the partition and grouping phases.
///
/// The resolved count is the number of workers that partition the
/// trajectories of [`crate::Traclus::run`] and run the ε-queries of the
/// ordered grouping pass. The calling thread numbers the segments in
/// trajectory order and classifies the neighbourhoods in ascending id
/// order. `Sequential` (and any resolved count of 1) runs both phases
/// inline. Every count produces the identical segment database and
/// [`crate::Clustering`]. The default uses every available hardware
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One thread: both phases inline on the calling thread.
    Sequential,
    /// A fixed number of worker threads (0 is treated as 1).
    Threads(usize),
    /// `std::thread::available_parallelism()` workers (the default).
    #[default]
    Available,
}

impl Parallelism {
    /// The resolved worker-thread count (always ≥ 1).
    pub fn thread_count(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(t) => t.max(1),
            Parallelism::Available => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Neighborhood statistics of the whole database at one ε.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborhoodStats {
    /// `|Nε(xᵢ)|` per segment (weighted when requested; self included).
    pub sizes: Vec<f64>,
}

impl NeighborhoodStats {
    /// Computes `|Nε|` for every segment: the per-ε reference of the scan.
    pub fn compute<const D: usize>(
        db: &SegmentDatabase<D>,
        index: &NeighborIndex<D>,
        eps: f64,
        weighted: bool,
    ) -> Self {
        let mut sizes = Vec::with_capacity(db.len());
        let mut scratch = Vec::new();
        for id in 0..db.len() as u32 {
            db.neighborhood_into(index, id, eps, &mut scratch);
            sizes.push(db.neighborhood_cardinality(&scratch, weighted));
        }
        Self { sizes }
    }

    /// The entropy `H(X)` of Formula 10. Zero for an empty database.
    pub fn entropy(&self) -> f64 {
        let total: f64 = self.sizes.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let mut h = 0.0;
        for &s in &self.sizes {
            if s > 0.0 {
                let p = s / total;
                h -= p * p.log2();
            }
        }
        h
    }

    /// `avg|Nε(L)|`, the input to the `MinLns` heuristic.
    pub fn average(&self) -> f64 {
        if self.sizes.is_empty() {
            0.0
        } else {
            self.sizes.iter().sum::<f64>() / self.sizes.len() as f64
        }
    }
}

/// One point of an entropy-vs-ε curve (Figures 16 and 19).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntropyPoint {
    /// The candidate ε.
    pub eps: f64,
    /// `H(X)` at that ε.
    pub entropy: f64,
    /// `avg|Nε(L)|` at that ε.
    pub avg_neighborhood: f64,
}

/// The full entropy curve over a set of candidate ε values.
#[derive(Debug, Clone, PartialEq)]
pub struct EntropyCurve {
    /// Curve samples, in scan order.
    pub points: Vec<EntropyPoint>,
}

impl EntropyCurve {
    /// The curve over the candidates, in their order (Figures 16 and 19
    /// regenerate exactly this). Each segment is queried once, at the
    /// largest candidate (or 0), and the batched kernel re-scores its
    /// neighbours; each adds its weight to every candidate at or above its
    /// distance in ascending id order, the fold of a per-ε query, so the
    /// curve equals [`NeighborhoodStats::compute`] bit for bit. Runs on the
    /// default [`Parallelism`], holding one `f64` per segment per candidate.
    pub fn scan<const D: usize>(
        db: &SegmentDatabase<D>,
        eps_values: impl IntoIterator<Item = f64>,
        weighted: bool,
    ) -> Self {
        let grid: Vec<f64> = eps_values.into_iter().collect();
        let top = grid.iter().copied().fold(0.0, f64::max);
        let index = db.build_index(IndexKind::RTree, top);
        let ids: Vec<u32> = (0..db.len() as u32).collect();
        let bin = |&id: &u32, row: &mut Vec<f64>| {
            let neighbours = db.neighborhood(&index, id, top);
            let mut dists = vec![0.0; neighbours.len()];
            db.distance_fn()
                .distance_many_into(db.table(), id, &neighbours, &mut dists);
            row.resize(grid.len(), 0.0);
            for (&m, &d) in neighbours.iter().zip(&dists) {
                for (size, _) in row.iter_mut().zip(&grid).filter(|&(_, &eps)| d <= eps) {
                    *size += db.cardinality_weight(m, weighted);
                }
            }
        };
        // `rows[id * grid.len() + k]`: `|Nε(id)|` at `grid[k]`.
        let mut rows = Vec::with_capacity(ids.len() * grid.len());
        let threads = Parallelism::default().thread_count();
        for_each_ordered(&ids, threads, bin, |_, row| rows.extend_from_slice(row));
        let points = grid
            .iter()
            .enumerate()
            .map(|(k, &eps)| {
                let sizes = rows.iter().skip(k).step_by(grid.len()).copied().collect();
                let stats = NeighborhoodStats { sizes };
                EntropyPoint {
                    eps,
                    entropy: stats.entropy(),
                    avg_neighborhood: stats.average(),
                }
            })
            .collect();
        Self { points }
    }

    /// The curve's entropy-minimising sample.
    pub fn minimum(&self) -> Option<&EntropyPoint> {
        self.points
            .iter()
            .min_by(|a, b| a.entropy.total_cmp(&b.entropy))
    }
}

/// The outcome of ε selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsSelection {
    /// Selected ε.
    pub eps: f64,
    /// Entropy at the selected ε.
    pub entropy: f64,
    /// `avg|Nε(L)|` at the selected ε ("this operation induces no
    /// additional cost since it can be done while computing H(X)").
    pub avg_neighborhood: f64,
}

/// Selects ε by simulated annealing over `[lo, hi]` (the paper's method).
pub fn select_eps_annealing<const D: usize>(
    db: &SegmentDatabase<D>,
    range: RangeInclusive<f64>,
    weighted: bool,
    config: &AnnealConfig,
) -> EpsSelection {
    let (lo, hi) = (*range.start(), *range.end());
    let index = db.build_index(IndexKind::RTree, hi);
    let outcome = minimize_1d(
        |eps| NeighborhoodStats::compute(db, &index, eps, weighted).entropy(),
        lo,
        hi,
        config,
    );
    let stats = NeighborhoodStats::compute(db, &index, outcome.x, weighted);
    EpsSelection {
        eps: outcome.x,
        entropy: outcome.value,
        avg_neighborhood: stats.average(),
    }
}

/// The `MinLns` heuristic: `avg|Nε(L)| + 1 … avg|Nε(L)| + 3` ("MinLns
/// should be greater than avg|Nε(L)| to discover meaningful clusters").
/// Rounded to the nearest integer before offsetting, floored at 2.
pub fn select_min_lns(avg_neighborhood: f64) -> RangeInclusive<usize> {
    let base = avg_neighborhood.round().max(1.0) as usize;
    (base + 1).max(2)..=(base + 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_geom::{
        AngleMode, DistanceWeights, IdentifiedSegment, Segment2, SegmentDistance, SegmentId,
        TrajectoryId,
    };

    fn db_of(segs: Vec<Segment2>) -> SegmentDatabase<2> {
        let identified = segs
            .into_iter()
            .enumerate()
            .map(|(k, s)| IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(k as u32), s))
            .collect();
        SegmentDatabase::from_segments(identified, SegmentDistance::default())
    }

    /// Two tight bundles plus scattered outliers: a clear density contrast.
    fn clustered_db() -> SegmentDatabase<2> {
        let mut segs = Vec::new();
        for i in 0..8 {
            segs.push(Segment2::xy(0.0, 0.3 * i as f64, 10.0, 0.3 * i as f64));
        }
        for i in 0..8 {
            segs.push(Segment2::xy(
                50.0,
                40.0 + 0.3 * i as f64,
                60.0,
                40.0 + 0.3 * i as f64,
            ));
        }
        for i in 0..6 {
            let x = 100.0 + 25.0 * i as f64;
            segs.push(Segment2::xy(
                x,
                -50.0 - 10.0 * i as f64,
                x + 8.0,
                -45.0 - 10.0 * i as f64,
            ));
        }
        db_of(segs)
    }

    /// 150 segments in three loose bundles with four headings, plus an
    /// exact copy of the last (a distance of 0 between two segments),
    /// weighted 0.1 to 2.6 in steps of 0.1: non-dyadic, so a weighted sum's
    /// bits depend on its order. Enough segments for the ordered map to
    /// spawn workers.
    fn weighted_scene(distance: SegmentDistance) -> SegmentDatabase<2> {
        let mut segs: Vec<Segment2> = (0..150u32)
            .map(|k| {
                let t = f64::from(k);
                let x = 20.0 * (0.37 * t).sin() + 3.0 * f64::from(k % 3);
                let y = 15.0 * (0.61 * t).cos();
                let heading = 0.4 * f64::from(k % 4) + 0.05 * (1.3 * t).sin();
                let len = 2.0 + 3.0 * (0.17 * t).cos().abs();
                Segment2::xy(x, y, x + len * heading.cos(), y + len * heading.sin())
            })
            .collect();
        segs.push(segs[149]);
        let identified = (0u32..)
            .zip(segs)
            .map(|(k, s)| IdentifiedSegment {
                weight: 0.1 * f64::from(1 + k % 26),
                ..IdentifiedSegment::new(SegmentId(k), TrajectoryId(k / 5), s)
            })
            .collect();
        SegmentDatabase::from_segments(identified, distance)
    }

    /// The one-pass scan equals the per-ε `compute` bit for bit through
    /// either reference index: unweighted and weighted, under the default
    /// weights and under w∥ = 0 (no tree is built and every query scans),
    /// over an unsorted grid with duplicates and ε = 0. An empty grid draws
    /// no curve, and an empty database a curve of zeros.
    #[test]
    fn scan_equals_per_eps_compute_bit_for_bit() {
        let grid = [3.0, 0.5, 0.0, 7.25, 0.5, 1.7, 12.0, 3.0, 0.1];
        let bits = |p: &EntropyPoint| {
            (
                p.eps.to_bits(),
                p.entropy.to_bits(),
                p.avg_neighborhood.to_bits(),
            )
        };
        let no_parallel =
            SegmentDistance::new(DistanceWeights::new(1.0, 0.0, 1.0), AngleMode::Directed);
        for distance in [SegmentDistance::default(), no_parallel] {
            let db = weighted_scene(distance);
            for weighted in [false, true] {
                let curve = EntropyCurve::scan(&db, grid, weighted);
                assert_eq!(curve.points.len(), grid.len());
                for kind in [IndexKind::Linear, IndexKind::RTree] {
                    let index = db.build_index(kind, 1.0);
                    for (point, &eps) in curve.points.iter().zip(&grid) {
                        let stats = NeighborhoodStats::compute(&db, &index, eps, weighted);
                        let reference = EntropyPoint {
                            eps,
                            entropy: stats.entropy(),
                            avg_neighborhood: stats.average(),
                        };
                        assert_eq!(
                            bits(point),
                            bits(&reference),
                            "{distance:?}, {kind:?}, weighted {weighted}, eps {eps}"
                        );
                    }
                }
            }
            assert!(EntropyCurve::scan(&db, [], true).points.is_empty());
        }
        let empty = EntropyCurve::scan(&db_of(Vec::new()), grid, true);
        let zeros: Vec<_> = grid.iter().map(|e| (e.to_bits(), 0, 0)).collect();
        assert_eq!(empty.points.iter().map(bits).collect::<Vec<_>>(), zeros);
    }

    #[test]
    fn entropy_is_maximal_for_uniform_sizes() {
        let uniform = NeighborhoodStats {
            sizes: vec![1.0; 16],
        };
        assert!((uniform.entropy() - 4.0).abs() < 1e-12, "log2(16) = 4");
        let skewed = NeighborhoodStats {
            sizes: vec![13.0, 1.0, 1.0, 1.0],
        };
        let flat = NeighborhoodStats {
            sizes: vec![4.0; 4],
        };
        assert!(skewed.entropy() < flat.entropy());
    }

    #[test]
    fn entropy_of_empty_database_is_zero() {
        let stats = NeighborhoodStats { sizes: vec![] };
        assert_eq!(stats.entropy(), 0.0);
        assert_eq!(stats.average(), 0.0);
    }

    #[test]
    fn curve_has_interior_minimum_on_clustered_data() {
        // Section 4.4's observation: tiny ε → all |Nε| = 1 (uniform, max
        // entropy); huge ε → all |Nε| = n (uniform again); good ε → skewed.
        // Log-spaced candidates reach both uniform regimes.
        let db = clustered_db();
        let eps_values: Vec<f64> = (0..=60)
            .map(|i| 0.05 * (500.0f64 / 0.05).powf(i as f64 / 60.0))
            .collect();
        let curve = EntropyCurve::scan(&db, eps_values, false);
        let min = curve.minimum().expect("non-empty curve");
        let first = curve.points.first().unwrap();
        let last = curve.points.last().unwrap();
        assert!(
            min.entropy < first.entropy - 1e-9,
            "interior minimum below the tiny-ε end: {} vs {}",
            min.entropy,
            first.entropy
        );
        assert!(
            min.entropy < last.entropy - 1e-9,
            "interior minimum below the huge-ε end"
        );
        assert!(min.eps > first.eps && min.eps < last.eps);
    }

    #[test]
    fn annealing_agrees_with_scan_roughly() {
        let db = clustered_db();
        let eps_values: Vec<f64> = (1..=40).map(|i| i as f64 * 0.5).collect();
        let curve = EntropyCurve::scan(&db, eps_values, false);
        let scan_best = curve.minimum().unwrap();
        let annealed = select_eps_annealing(
            &db,
            0.5..=20.0,
            false,
            &AnnealConfig {
                iterations: 150,
                ..AnnealConfig::default()
            },
        );
        assert!(
            annealed.entropy <= scan_best.entropy + 0.15,
            "annealing entropy {} far above scan minimum {}",
            annealed.entropy,
            scan_best.entropy
        );
    }

    #[test]
    fn min_lns_heuristic_range() {
        assert_eq!(select_min_lns(4.39), 5..=7, "the paper's hurricane case");
        assert_eq!(select_min_lns(7.63), 9..=11, "the paper's elk case");
        assert_eq!(select_min_lns(0.2), 2..=4, "floor at 2");
    }

    #[test]
    fn stats_average_matches_sizes() {
        let db = db_of(vec![
            Segment2::xy(0.0, 0.0, 10.0, 0.0),
            Segment2::xy(0.0, 0.5, 10.0, 0.5),
            Segment2::xy(0.0, 100.0, 10.0, 100.0),
        ]);
        let index = db.build_index(IndexKind::Linear, 1.0);
        let stats = NeighborhoodStats::compute(&db, &index, 1.0, false);
        assert_eq!(stats.sizes, vec![2.0, 2.0, 1.0]);
        assert!((stats.average() - 5.0 / 3.0).abs() < 1e-12);
    }
}
