//! Trajectory partitioning via the MDL principle (Section 3).
//!
//! A trajectory is cut at *characteristic points* balancing **preciseness**
//! (the partitions stay close to the trajectory; `L(D|H)`, Formula 7)
//! against **conciseness** (few, long partitions; `L(H)`, Formula 6).
//!
//! Two algorithms:
//!
//! * [`approximate_partition`] — the greedy scan of Figure 8, which
//!   treats local MDL optima as global. Each step re-scores the whole
//!   candidate partition, so it costs O(Σ partition length²): O(n²) for a
//!   straight run;
//! * [`optimal_partition`] — exact dynamic programming over all
//!   point subsets (the paper calls its cost "prohibitive" for its 2007
//!   hardware; it is O(n²) states × O(n) per edge and fine for the
//!   precision experiment of Section 3.3, which reports that ≈80 % of
//!   approximate characteristic points also appear in the exact optimum).
//!
//! The Section 4.1.3 knob — suppressing partitioning by adding a small
//! constant to `cost_nopar` so partitions come out 20–30 % longer — is
//! [`PartitionConfig::suppression`].
//!
//! Every trajectory is partitioned on its own (Figure 4, lines 1–3), so
//! [`crate::SegmentDatabase::from_trajectories`] partitions them on worker
//! threads and numbers the segments in trajectory order as they arrive.
//! [`partition_trajectories`] is the sequential reference it equals bit
//! for bit.

use traclus_geom::{
    IdentifiedSegment, Point, PreparedBase, Segment, SegmentDistance, SegmentId, Trajectory,
};

use crate::grouping::for_each_ordered;

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
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PartitionConfig {
    /// Cost encoding.
    pub cost: MdlCost,
    /// Bits added to `cost_nopar` before the Figure 8 comparison,
    /// suppressing partitioning and lengthening partitions (Section 4.1.3:
    /// "increasing the length of trajectory partitions by 20∼30 % generally
    /// improves the clustering quality"). 0 reproduces Figure 8 verbatim.
    pub suppression: f64,
}

impl PartitionConfig {
    /// `MDL_par(p_i, p_j)`: cost when `p_i, p_j` are the only characteristic
    /// points of the stretch — `L(H) = log₂ len(p_i p_j)` plus
    /// `L(D|H) = Σ_k log₂ d⊥ + log₂ dθ` against every original edge, with
    /// the directed angle distance of Section 3 (an edge turned by 90° or
    /// more costs its whole length). The clustering's weights and angle
    /// mode play no part here.
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
        let directed = SegmentDistance::default();
        let mut cost = self.cost.bits(hypothesis.length());
        for k in i..j {
            let edge = Segment::new(points[k], points[k + 1]);
            let (perp, angle) = directed.mdl_components_prepared(&base, &edge);
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

/// The approximate algorithm of Figure 8.
///
/// Scans forward, growing a candidate partition while `MDL_par ≤
/// MDL_nopar (+ suppression)`; on the first violation the *previous* point
/// becomes a characteristic point and the scan restarts there.
///
/// Each step re-scores the whole candidate partition for `MDL_par`, so the
/// scan costs O(Σ partition length²), and O(n²) for a straight run.
/// `MDL_nopar` is carried as a running sum instead, with each edge's code
/// length computed once. That is the same left fold as
/// [`PartitionConfig::mdl_nopar`], so the comparison is bit-identical. A
/// one-edge candidate is never compared: it is its own hypothesis, so
/// `L(D|H) = 0` in exact arithmetic, and a cut there would restart the scan
/// where it stands.
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
    let edge_bits = |k: usize| config.cost.bits(points[k].distance(&points[k + 1]));
    let mut cps = vec![0usize]; // line 1: the starting point
    let mut start_index = 0usize; // line 2 (0-based)
    let mut length = 1usize;
    // `MDL_nopar(start_index, start_index + length)` and its last edge's
    // code length.
    let mut last_bits = edge_bits(0);
    let mut cost_nopar = last_bits;
    while start_index + length < n {
        // line 3
        let curr_index = start_index + length; // line 4
        if length > 1
            && config.mdl_par(points, start_index, curr_index) > cost_nopar + config.suppression
        {
            // lines 5–9: partition at the previous point. Its edge to
            // `curr_index` is the next candidate's first edge.
            cps.push(curr_index - 1);
            start_index = curr_index - 1;
            length = 1;
            cost_nopar = last_bits;
        } else {
            length += 1; // line 11
            if curr_index + 1 < n {
                last_bits = edge_bits(curr_index);
                cost_nopar += last_bits;
            }
        }
    }
    if cps.last() != Some(&(n - 1)) {
        cps.push(n - 1); // line 12: the ending point
    }
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

/// [`partition_trajectories`] on the ordered parallel map: `threads`
/// workers partition one trajectory each (Figure 8), and the calling thread
/// identifies the segments in trajectory order as they arrive, so the
/// result is the same for every thread count.
pub(crate) fn partition_trajectories_on<const D: usize>(
    config: &PartitionConfig,
    trajectories: &[Trajectory<D>],
    threads: usize,
) -> Vec<IdentifiedSegment<D>> {
    let mut out = Vec::new();
    for_each_ordered(
        trajectories,
        threads,
        |tr, segments| segments.extend(partition_segments(config, &tr.points)),
        |tr, segments| {
            let first_id = out.len() as u32;
            out.extend(identified(tr, first_id, segments.iter().copied()));
        },
    );
    #[cfg(feature = "invariant-checks")]
    crate::invariants::assert_partition_matches_reference(&out, trajectories, config);
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
    identified(
        trajectory,
        first_id,
        partition_segments(config, &trajectory.points),
    )
    .collect()
}

/// The partitions of `points` that [`partition_trajectory_from`] keeps:
/// the segments between consecutive characteristic points, in order,
/// minus the degenerate ones.
fn partition_segments<'a, const D: usize>(
    config: &PartitionConfig,
    points: &'a [Point<D>],
) -> impl Iterator<Item = Segment<D>> + 'a {
    let cps = approximate_partition(config, points).characteristic_points;
    (1..cps.len())
        .map(move |k| Segment::new(points[cps[k - 1]], points[cps[k]]))
        .filter(|s| !s.is_degenerate())
}

/// `segments` of `trajectory`, identified with dense ids from `first_id`
/// and carrying the trajectory's id and weight.
fn identified<'a, const D: usize>(
    trajectory: &'a Trajectory<D>,
    first_id: u32,
    segments: impl IntoIterator<Item = Segment<D>> + 'a,
) -> impl Iterator<Item = IdentifiedSegment<D>> + 'a {
    segments
        .into_iter()
        .zip(first_id..)
        .map(move |(segment, id)| IdentifiedSegment {
            id: SegmentId(id),
            trajectory: trajectory.id,
            segment,
            weight: trajectory.weight(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use traclus_geom::{Point2, TrajectoryId};

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

    /// Characteristic points start at 0, strictly increase and end at
    /// `n − 1`.
    fn assert_well_formed(p: &Partitioning, n: usize) {
        let cps = &p.characteristic_points;
        assert_eq!(cps.first(), Some(&0), "{cps:?}");
        assert_eq!(cps.last(), Some(&(n - 1)), "{cps:?}");
        assert!(cps.windows(2).all(|w| w[0] < w[1]), "{cps:?}");
    }

    // Figure 8 taken literally cuts a one-edge candidate whenever its
    // MDL_par exceeds MDL_nopar + suppression, then restarts at the same
    // start point and loops forever. These two inputs made it fire.

    #[test]
    fn negative_suppression_terminates() {
        let zigzag: Vec<Point2> = (0..40)
            .map(|k| Point2::xy(4.0 * k as f64, if k % 2 == 0 { 0.0 } else { 3.0 }))
            .collect();
        let config = PartitionConfig {
            suppression: -0.5,
            ..PartitionConfig::default()
        };
        assert_well_formed(&approximate_partition(&config, &zigzag), zigzag.len());
    }

    #[test]
    fn ulp_sized_deviations_terminate() {
        // `start + (end − start) ≠ end` on some of these edges, so a
        // one-edge hypothesis leaves an ulp-sized d⊥, which costs bits at
        // δ = 1e-20.
        let points: Vec<Point2> = (0..30)
            .map(|k| Point2::xy(0.1 + 0.2 * k as f64, (k as f64).sin()))
            .collect();
        let config = PartitionConfig {
            cost: MdlCost::with_precision(1e-20),
            ..PartitionConfig::default()
        };
        for n in [4, points.len()] {
            assert_well_formed(&approximate_partition(&config, &points[..n]), n);
        }
    }

    /// The Figure 8 loop verbatim, recomputing `MDL_par` and `MDL_nopar`
    /// at every step and comparing one-edge candidates too: the reference
    /// the production scan must match. It never ends where a one-edge cut
    /// fires, so it is only run with suppression > 0 and δ far above an
    /// ulp.
    fn reference_partition<const D: usize>(
        config: &PartitionConfig,
        points: &[Point<D>],
    ) -> Vec<usize> {
        let n = points.len();
        if n <= 2 {
            return (0..n).collect();
        }
        let mut cps = vec![0];
        let (mut start_index, mut length) = (0, 1);
        while start_index + length < n {
            let curr_index = start_index + length;
            let cost_par = config.mdl_par(points, start_index, curr_index);
            let cost_nopar = config.mdl_nopar(points, start_index, curr_index) + config.suppression;
            if cost_par > cost_nopar {
                cps.push(curr_index - 1);
                start_index = curr_index - 1;
                length = 1;
            } else {
                length += 1;
            }
        }
        if cps.last() != Some(&(n - 1)) {
            cps.push(n - 1);
        }
        cps
    }

    prop_compose! {
        /// A walk of up to 60 points whose heading drifts, so candidate
        /// partitions grow long before they are cut; one step in eight
        /// repeats its point.
        fn drifting_walk()(
            steps in prop::collection::vec((0.2..12.0f64, -0.9..0.9f64, 0u8..8), 1..60),
            x0 in -100.0..100.0f64,
            y0 in -100.0..100.0f64,
        ) -> Vec<Point2> {
            let (mut x, mut y, mut heading) = (x0, y0, 0.0f64);
            let mut points = vec![Point2::xy(x, y)];
            for (length, turn, repeat) in steps {
                if repeat > 0 {
                    heading += turn;
                    x += length * heading.cos();
                    y += length * heading.sin();
                }
                points.push(Point2::xy(x, y));
            }
            points
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn running_sum_scan_matches_the_verbatim_loop(
            points in drifting_walk(),
            precision in 0.05..5.0f64,
            suppression in 0.01..6.0f64,
        ) {
            let config = PartitionConfig {
                cost: MdlCost::with_precision(precision),
                suppression,
            };
            prop_assert_eq!(
                approximate_partition(&config, &points).characteristic_points,
                reference_partition(&config, &points)
            );
        }
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
