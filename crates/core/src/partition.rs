//! Trajectory partitioning via the MDL principle (Section 3).
//!
//! A trajectory is cut at *characteristic points* balancing **preciseness**
//! (the partitions stay close to the trajectory; `L(D|H)`, Formula 7)
//! against **conciseness** (few, long partitions; `L(H)`, Formula 6).
//!
//! Two algorithms:
//!
//! * [`approximate_partition`] — the O(n) greedy scan of Figure 8, which
//!   treats local MDL optima as global;
//! * [`optimal_partition`] — exact dynamic programming over all
//!   point subsets (the paper calls its cost "prohibitive" for its 2007
//!   hardware; it is O(n²) states × O(n) per edge and fine for the
//!   precision experiment of Section 3.3, which reports that ≈80 % of
//!   approximate characteristic points also appear in the exact optimum).
//!
//! The Section 4.1.3 knob — suppressing partitioning by adding a small
//! constant to `cost_nopar` so partitions come out 20–30 % longer — is
//! [`PartitionConfig::suppression`].

use traclus_geom::{
    IdentifiedSegment, Point, PreparedBase, Segment, SegmentDistance, SegmentId, Trajectory,
    TrajectoryId,
};

/// Encoding of real values as bit lengths (Section 3.2).
///
/// The paper encodes a real `x` with precision δ so that
/// `L(x) = log₂ x − log₂ δ` (it then sets δ = 1 for its data, whose
/// lengths and deviations are well above 1). We keep δ explicit:
/// `L(x) = log₂(max(x, δ) / δ)` — magnitudes are measured in units of the
/// coding precision, anything below the precision is indistinguishable
/// from zero and costs nothing. **δ must match the coordinate scale**: for
/// data whose edge lengths hover near 1 unit a δ of 1 makes "keep every
/// edge" nearly free and the partitioner degenerates to one segment per
/// edge; choose δ roughly at the measurement precision (e.g. 0.05° for
/// 6-hourly hurricane fixes, ~10 m for telemetry). See DESIGN.md §5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdlCost {
    /// The coding precision δ (> 0); values below it cost zero bits.
    pub precision: f64,
}

impl Default for MdlCost {
    fn default() -> Self {
        Self { precision: 1.0 }
    }
}

impl MdlCost {
    /// A cost model with the given precision δ.
    pub fn with_precision(precision: f64) -> Self {
        assert!(
            precision > 0.0 && precision.is_finite(),
            "MDL precision must be positive and finite"
        );
        Self { precision }
    }

    /// Code length in bits of a non-negative magnitude.
    #[inline]
    pub fn bits(&self, x: f64) -> f64 {
        debug_assert!(x >= 0.0, "code lengths are defined for magnitudes");
        let scaled = x / self.precision;
        if scaled <= 1.0 {
            0.0
        } else {
            scaled.log2()
        }
    }
}

/// Configuration of the partitioning phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Distance function used inside `L(D|H)` (perpendicular + angle only).
    pub distance: SegmentDistance,
    /// Cost encoding.
    pub cost: MdlCost,
    /// Bits added to `cost_nopar` before the Figure 8 comparison,
    /// suppressing partitioning and lengthening partitions (Section 4.1.3:
    /// "increasing the length of trajectory partitions by 20∼30 % generally
    /// improves the clustering quality"). 0 reproduces Figure 8 verbatim.
    pub suppression: f64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            distance: SegmentDistance::default(),
            cost: MdlCost::default(),
            suppression: 0.0,
        }
    }
}

impl PartitionConfig {
    /// `MDL_par(p_i, p_j)`: cost when `p_i, p_j` are the only characteristic
    /// points of the stretch — `L(H) = log₂ len(p_i p_j)` plus
    /// `L(D|H) = Σ_k log₂ d⊥ + log₂ dθ` against every original edge.
    ///
    /// The hypothesis segment always plays the base role, so its projection
    /// setup is prepared once ([`PreparedBase`]) and the batched MDL kernel
    /// evaluates every edge against it — bit-identical to per-edge
    /// `mdl_components`, minus the repeated setup and the discarded
    /// parallel component.
    pub fn mdl_par<const D: usize>(&self, points: &[Point<D>], i: usize, j: usize) -> f64 {
        debug_assert!(i < j && j < points.len());
        let hypothesis = Segment::new(points[i], points[j]);
        let base = PreparedBase::new(&hypothesis);
        let mut cost = self.cost.bits(hypothesis.length());
        for k in i..j {
            let edge = Segment::new(points[k], points[k + 1]);
            let (perp, angle) = self.distance.mdl_components_prepared(&base, &edge);
            cost += self.cost.bits(perp) + self.cost.bits(angle);
        }
        cost
    }

    /// `MDL_nopar(p_i, p_j)`: cost of keeping the original trajectory —
    /// `L(H)` is the summed edge code lengths and `L(D|H)` is zero.
    pub fn mdl_nopar<const D: usize>(&self, points: &[Point<D>], i: usize, j: usize) -> f64 {
        debug_assert!(i < j && j < points.len());
        (i..j)
            .map(|k| self.cost.bits(points[k].distance(&points[k + 1])))
            .sum()
    }
}

/// Result of partitioning one trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    /// Indices of the characteristic points into the original point
    /// sequence; always starts at 0 and ends at `len − 1`, strictly
    /// increasing (Figure 8 lines 1 and 12).
    pub characteristic_points: Vec<usize>,
}

impl Partitioning {
    /// Number of trajectory partitions (`parᵢ − 1`).
    pub fn partition_count(&self) -> usize {
        self.characteristic_points.len().saturating_sub(1)
    }

    /// Materialises the partitions as segments over the original points.
    pub fn segments<const D: usize>(&self, points: &[Point<D>]) -> Vec<Segment<D>> {
        self.characteristic_points
            .windows(2)
            .map(|w| Segment::new(points[w[0]], points[w[1]]))
            .collect()
    }

    /// Mean partition length (used by the Section 4.1.3 experiment).
    pub fn mean_partition_length<const D: usize>(&self, points: &[Point<D>]) -> f64 {
        let segs = self.segments(points);
        if segs.is_empty() {
            0.0
        } else {
            segs.iter().map(|s| s.length()).sum::<f64>() / segs.len() as f64
        }
    }
}

/// The O(n) approximate algorithm of Figure 8.
///
/// Scans forward, growing a candidate partition while `MDL_par ≤
/// MDL_nopar (+ suppression)`; on the first violation the *previous* point
/// becomes a characteristic point and the scan restarts there.
///
/// Trajectories with fewer than two points yield the trivial partitioning
/// (every available point is characteristic).
///
/// ```
/// use traclus_core::partition::{approximate_partition, PartitionConfig};
/// use traclus_geom::Point2;
///
/// // A long straight run, a sharp corner, another long run: the MDL
/// // balance keeps the runs whole and cuts at (or near) the corner.
/// let points: Vec<Point2> = (0..10)
///     .map(|k| Point2::xy(k as f64 * 10.0, 0.0))
///     .chain((1..10).map(|k| Point2::xy(90.0, k as f64 * 10.0)))
///     .collect();
/// let partitioning = approximate_partition(&PartitionConfig::default(), &points);
///
/// // Far fewer partitions than edges (conciseness) …
/// assert!(partitioning.partition_count() < points.len() - 1);
/// // … and the endpoints are always characteristic (Figure 8 lines 1, 12).
/// assert_eq!(partitioning.characteristic_points.first(), Some(&0));
/// assert_eq!(partitioning.characteristic_points.last(), Some(&(points.len() - 1)));
/// ```
pub fn approximate_partition<const D: usize>(
    config: &PartitionConfig,
    points: &[Point<D>],
) -> Partitioning {
    let n = points.len();
    if n <= 2 {
        return Partitioning {
            characteristic_points: (0..n).collect(),
        };
    }
    let mut cps = vec![0usize]; // line 1: the starting point
    let mut start_index = 0usize; // line 2 (0-based)
    let mut length = 1usize;
    while start_index + length < n {
        // line 3
        let curr_index = start_index + length; // line 4
        let cost_par = config.mdl_par(points, start_index, curr_index); // line 5
        let cost_nopar = config.mdl_nopar(points, start_index, curr_index) + config.suppression; // line 6
        if cost_par > cost_nopar {
            // lines 7–9: partition at the previous point.
            cps.push(curr_index - 1);
            start_index = curr_index - 1;
            length = 1;
        } else {
            length += 1; // line 11
        }
    }
    if *cps.last().expect("non-empty") != n - 1 {
        cps.push(n - 1); // line 12: the ending point
    }
    // Degenerate guard: restarting at curr−1 can re-push the same index when
    // the trajectory contains repeated points; deduplicate while keeping
    // order strictly increasing.
    cps.dedup();
    Partitioning {
        characteristic_points: cps,
    }
}

/// Exact MDL-optimal partitioning by dynamic programming.
///
/// `best[j] = min_{i<j} best[i] + MDL_par(i, j)`; the optimum over *all*
/// subsets of interior points falls out because the total MDL cost is
/// additive over chosen partitions. O(n²) transitions, each O(span).
///
/// `max_span` bounds the partition length considered (`None` = unbounded);
/// the unbounded version is cubic and meant for the Section 3.3 precision
/// experiment on moderate trajectories.
pub fn optimal_partition<const D: usize>(
    config: &PartitionConfig,
    points: &[Point<D>],
    max_span: Option<usize>,
) -> Partitioning {
    let n = points.len();
    if n <= 2 {
        return Partitioning {
            characteristic_points: (0..n).collect(),
        };
    }
    let mut best = vec![f64::INFINITY; n];
    let mut parent = vec![usize::MAX; n];
    best[0] = 0.0;
    for j in 1..n {
        let lo = match max_span {
            Some(span) => j.saturating_sub(span),
            None => 0,
        };
        for i in lo..j {
            if best[i].is_finite() {
                let cost = best[i] + config.mdl_par(points, i, j);
                if cost < best[j] {
                    best[j] = cost;
                    parent[j] = i;
                }
            }
        }
    }
    let mut cps = vec![n - 1];
    let mut cur = n - 1;
    while cur != 0 {
        cur = parent[cur];
        cps.push(cur);
    }
    cps.reverse();
    Partitioning {
        characteristic_points: cps,
    }
}

/// Precision of the approximate solution against the exact one
/// (Section 3.3: "the precision is about 80 % on average") — the fraction
/// of approximate characteristic points that also appear in the exact set.
/// Endpoints are excluded: both algorithms always select them, so counting
/// them would inflate the figure.
pub fn partition_precision(approximate: &Partitioning, exact: &Partitioning) -> Option<f64> {
    let interior = |p: &Partitioning| -> Vec<usize> {
        p.characteristic_points[1..p.characteristic_points.len().saturating_sub(1)].to_vec()
    };
    let approx_interior = interior(approximate);
    if approx_interior.is_empty() {
        return None;
    }
    let exact_interior = interior(exact);
    let hits = approx_interior
        .iter()
        .filter(|i| exact_interior.contains(i))
        .count();
    Some(hits as f64 / approx_interior.len() as f64)
}

/// Partitions every trajectory and accumulates the resulting identified
/// segments into one database-ready vector (Figure 4, lines 1–3).
///
/// Zero-length partitions (from consecutive duplicate points) are skipped:
/// they carry no direction and Section 4.1.3 shows degenerate segments only
/// harm clustering.
pub fn partition_trajectories<const D: usize>(
    config: &PartitionConfig,
    trajectories: &[Trajectory<D>],
) -> Vec<IdentifiedSegment<D>> {
    let mut out = Vec::new();
    for tr in trajectories {
        let first_id = out.len() as u32;
        out.extend(partition_trajectory_from(config, tr, first_id));
    }
    out
}

/// Partitions **one** trajectory, identifying its partitions with dense
/// segment ids starting at `first_id` — the per-trajectory unit of work the
/// streaming engine ([`crate::stream`]) performs on every ingested
/// trajectory. [`partition_trajectories`] is exactly this, folded over a
/// slice with `first_id` carried along, so a trajectory stream partitioned
/// one element at a time yields the identical segment database.
///
/// Degenerate (zero-length) partitions are dropped, as in the batch path:
/// they carry no direction and the composite distance is undefined on them.
///
/// ```
/// use traclus_core::partition::{partition_trajectory_from, PartitionConfig};
/// use traclus_geom::{Point2, Trajectory, TrajectoryId};
///
/// let tr = Trajectory::new(
///     TrajectoryId(7),
///     vec![
///         Point2::xy(0.0, 0.0),
///         Point2::xy(40.0, 0.0),  // long straight run …
///         Point2::xy(40.0, 40.0), // … then a sharp corner
///     ],
/// );
/// let segments = partition_trajectory_from(&PartitionConfig::default(), &tr, 10);
/// assert!(!segments.is_empty());
/// assert_eq!(segments[0].id.0, 10, "ids continue the caller's sequence");
/// assert!(segments.iter().all(|s| s.trajectory == TrajectoryId(7)));
/// ```
pub fn partition_trajectory_from<const D: usize>(
    config: &PartitionConfig,
    trajectory: &Trajectory<D>,
    first_id: u32,
) -> Vec<IdentifiedSegment<D>> {
    let partitioning = approximate_partition(config, &trajectory.points);
    let mut out = Vec::new();
    let mut next_id = first_id;
    for seg in partitioning.segments(&trajectory.points) {
        if seg.is_degenerate() {
            continue;
        }
        out.push(IdentifiedSegment {
            id: SegmentId(next_id),
            trajectory: trajectory.id,
            segment: seg,
            weight: trajectory.weight(),
        });
        next_id += 1;
    }
    out
}

/// Convenience: partitions a single raw point sequence (no ids) — handy in
/// examples and tests.
pub fn partition_points<const D: usize>(
    config: &PartitionConfig,
    points: &[Point<D>],
) -> Vec<Segment<D>> {
    approximate_partition(config, points).segments(points)
}

#[allow(dead_code)]
fn unused_trajectory_id(_: TrajectoryId) {}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_geom::Point2;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::xy(x, y)).collect()
    }

    #[test]
    fn mdl_cost_clamps_small_values() {
        let cost = MdlCost::default();
        assert_eq!(cost.bits(0.0), 0.0);
        assert_eq!(cost.bits(0.5), 0.0);
        assert_eq!(cost.bits(1.0), 0.0);
        assert!((cost.bits(8.0) - 3.0).abs() < 1e-12);
        let fine = MdlCost::with_precision(0.25);
        assert!((fine.bits(8.0) - 5.0).abs() < 1e-12, "log2(32)");
        assert_eq!(fine.bits(0.2), 0.0, "below the precision: free");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_precision_rejected() {
        let _ = MdlCost::with_precision(0.0);
    }

    #[test]
    fn finer_precision_merges_smooth_small_scale_trajectories() {
        // Edge lengths ≈ 1: with δ = 1 keeping the original edges is nearly
        // free and the partitioner splits everywhere; with δ matched to the
        // data scale it merges the smooth run.
        let points: Vec<Point2> = (0..40)
            .map(|i| {
                let x = i as f64 * 1.1;
                Point2::xy(x, 0.04 * (x * 0.5).sin())
            })
            .collect();
        let coarse = approximate_partition(&PartitionConfig::default(), &points);
        let fine = approximate_partition(
            &PartitionConfig {
                cost: MdlCost::with_precision(0.05),
                ..PartitionConfig::default()
            },
            &points,
        );
        assert!(
            fine.partition_count() < coarse.partition_count().max(2),
            "δ-matched encoding must merge: fine {} vs coarse {}",
            fine.partition_count(),
            coarse.partition_count()
        );
        assert!(fine.partition_count() <= 4, "smooth run stays concise");
    }

    #[test]
    fn straight_line_is_never_partitioned() {
        let config = PartitionConfig::default();
        let points = pts(&(0..30).map(|i| (i as f64 * 5.0, 0.0)).collect::<Vec<_>>());
        let p = approximate_partition(&config, &points);
        assert_eq!(
            p.characteristic_points,
            vec![0, 29],
            "collinear points need only the endpoints"
        );
    }

    #[test]
    fn right_angle_turn_is_partitioned_at_the_corner() {
        let config = PartitionConfig::default();
        // 10 steps east then 10 steps north, step length 10.
        let mut coords = Vec::new();
        for i in 0..=10 {
            coords.push((i as f64 * 10.0, 0.0));
        }
        for j in 1..=10 {
            coords.push((100.0, j as f64 * 10.0));
        }
        let points = pts(&coords);
        // The greedy Figure 8 scan detects the turn within one step of the
        // corner (it only partitions once MDL_par exceeds MDL_nopar, which
        // can lag by one point — the Figure 9 approximation).
        let p = approximate_partition(&config, &points);
        assert!(
            p.characteristic_points
                .iter()
                .any(|&c| (9..=11).contains(&c)),
            "a characteristic point near the corner (index 10), got {:?}",
            p.characteristic_points
        );
        assert!(p.partition_count() <= 4, "stays concise");
        // The exact optimiser nails the corner precisely.
        let exact = optimal_partition(&config, &points, None);
        assert!(
            exact.characteristic_points.contains(&10),
            "exact optimum partitions at the corner, got {:?}",
            exact.characteristic_points
        );
    }

    #[test]
    fn endpoints_always_present() {
        let config = PartitionConfig::default();
        let points = pts(&[
            (0.0, 0.0),
            (5.0, 1.0),
            (9.0, -1.0),
            (14.0, 0.5),
            (20.0, 0.0),
        ]);
        let p = approximate_partition(&config, &points);
        assert_eq!(*p.characteristic_points.first().unwrap(), 0);
        assert_eq!(*p.characteristic_points.last().unwrap(), 4);
        assert!(p.characteristic_points.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tiny_trajectories() {
        let config = PartitionConfig::default();
        assert_eq!(
            approximate_partition(&config, &pts(&[])).characteristic_points,
            Vec::<usize>::new()
        );
        assert_eq!(
            approximate_partition(&config, &pts(&[(1.0, 1.0)])).characteristic_points,
            vec![0]
        );
        assert_eq!(
            approximate_partition(&config, &pts(&[(0.0, 0.0), (1.0, 0.0)])).characteristic_points,
            vec![0, 1]
        );
    }

    #[test]
    fn duplicate_points_do_not_break_partitioning() {
        let config = PartitionConfig::default();
        let points = pts(&[(0.0, 0.0), (0.0, 0.0), (5.0, 0.0), (5.0, 0.0), (5.0, 5.0)]);
        let p = approximate_partition(&config, &points);
        assert!(p.characteristic_points.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*p.characteristic_points.last().unwrap(), 4);
    }

    #[test]
    fn suppression_lengthens_partitions() {
        // A noisy zig-zag: with suppression the partitioner must emit
        // fewer (hence longer) partitions — the Section 4.1.3 claim.
        let mut coords = Vec::new();
        for i in 0..60 {
            let x = i as f64 * 4.0;
            let y = if i % 2 == 0 { 0.0 } else { 3.0 };
            coords.push((x, y));
        }
        let points = pts(&coords);
        let base = approximate_partition(&PartitionConfig::default(), &points);
        let suppressed = approximate_partition(
            &PartitionConfig {
                suppression: 4.0,
                ..PartitionConfig::default()
            },
            &points,
        );
        assert!(
            suppressed.partition_count() <= base.partition_count(),
            "suppression must not create more partitions: {} vs {}",
            suppressed.partition_count(),
            base.partition_count()
        );
        assert!(
            suppressed.mean_partition_length(&points) >= base.mean_partition_length(&points),
            "suppression must not shorten partitions"
        );
    }

    #[test]
    fn optimal_cost_never_worse_than_approximate() {
        let config = PartitionConfig::default();
        let points = pts(&[
            (0.0, 0.0),
            (10.0, 1.0),
            (20.0, -1.5),
            (30.0, 8.0),
            (33.0, 20.0),
            (31.0, 33.0),
            (20.0, 38.0),
            (8.0, 39.0),
        ]);
        let approx = approximate_partition(&config, &points);
        let exact = optimal_partition(&config, &points, None);
        let total = |p: &Partitioning| -> f64 {
            p.characteristic_points
                .windows(2)
                .map(|w| config.mdl_par(&points, w[0], w[1]))
                .sum()
        };
        assert!(
            total(&exact) <= total(&approx) + 1e-9,
            "DP optimum {} must not exceed greedy {}",
            total(&exact),
            total(&approx)
        );
    }

    #[test]
    fn optimal_partition_of_straight_line_is_single_segment() {
        let config = PartitionConfig::default();
        let points = pts(&(0..12).map(|i| (i as f64 * 7.0, 0.0)).collect::<Vec<_>>());
        let exact = optimal_partition(&config, &points, None);
        assert_eq!(exact.characteristic_points, vec![0, 11]);
    }

    #[test]
    fn max_span_bounds_partition_length() {
        let config = PartitionConfig::default();
        let points = pts(&(0..20).map(|i| (i as f64 * 3.0, 0.0)).collect::<Vec<_>>());
        let bounded = optimal_partition(&config, &points, Some(5));
        assert!(bounded
            .characteristic_points
            .windows(2)
            .all(|w| w[1] - w[0] <= 5));
    }

    #[test]
    fn precision_of_figure_9_style_failure() {
        // The approximate algorithm may stop early (Figure 9) but its
        // characteristic points largely coincide with the exact optimum.
        let config = PartitionConfig::default();
        let points = pts(&[(0.0, 0.0), (4.0, 6.0), (9.0, 7.5), (14.0, 6.0), (18.0, 0.0)]);
        let approx = approximate_partition(&config, &points);
        let exact = optimal_partition(&config, &points, None);
        if let Some(p) = partition_precision(&approx, &exact) {
            assert!((0.0..=1.0).contains(&p));
        }
        // Identical partitionings give precision 1.
        assert_eq!(partition_precision(&exact, &exact), {
            let interior = exact.characteristic_points.len() - 2;
            if interior == 0 {
                None
            } else {
                Some(1.0)
            }
        });
    }

    #[test]
    fn partition_trajectories_assigns_sequential_ids_and_provenance() {
        let config = PartitionConfig::default();
        let t1 = Trajectory::new(
            TrajectoryId(0),
            pts(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)]),
        );
        let t2 = Trajectory::new(TrajectoryId(1), pts(&[(0.0, 5.0), (10.0, 5.0)]));
        let segs = partition_trajectories(&config, &[t1, t2]);
        assert!(!segs.is_empty());
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(s.id.0 as usize, i, "ids are dense and sequential");
            assert!(!s.segment.is_degenerate());
        }
        assert!(segs.iter().any(|s| s.trajectory == TrajectoryId(0)));
        assert!(segs.iter().any(|s| s.trajectory == TrajectoryId(1)));
    }

    #[test]
    fn partition_trajectories_skips_degenerate_partitions() {
        let config = PartitionConfig::default();
        let t = Trajectory::new(TrajectoryId(0), pts(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]));
        let segs = partition_trajectories(&config, &[t]);
        assert!(segs.is_empty(), "all-duplicate trajectory yields nothing");
    }

    #[test]
    fn appendix_c_shift_invariance_of_partitioning() {
        // TR1 vs TR3 = TR1 + (10000, 10000): because L(H) uses *lengths*
        // not endpoint coordinates, the characteristic points must match.
        let config = PartitionConfig::default();
        let tr1 = pts(&[(100.0, 100.0), (200.0, 200.0), (300.0, 100.0)]);
        let tr3 = pts(&[(10100.0, 10100.0), (10200.0, 10200.0), (10300.0, 10100.0)]);
        let p1 = approximate_partition(&config, &tr1);
        let p3 = approximate_partition(&config, &tr3);
        assert_eq!(p1.characteristic_points, p3.characteristic_points);
        // And the exact optimiser agrees with itself under the shift too.
        let e1 = optimal_partition(&config, &tr1, None);
        let e3 = optimal_partition(&config, &tr3, None);
        assert_eq!(e1.characteristic_points, e3.characteristic_points);
    }
}
