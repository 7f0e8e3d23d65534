//! Representative trajectory generation (Section 4.3, Figure 15).
//!
//! For each cluster, a sweep line travels along the cluster's *average
//! direction vector* (Definition 11). At every start/end point of a member
//! segment (sorted by rotated `X′`), the number of member segments whose
//! `X′`-extent contains the sweep position is counted; where at least
//! `MinLns` segments are hit — and the previous emitted point is at least
//! the smoothing distance γ behind — the average of the member segments'
//! coordinates at that sweep position is emitted (after undoing the
//! rotation). The emitted polyline is the cluster's *common
//! sub-trajectory*.

use traclus_geom::{OrthonormalFrame, Point, Trajectory, TrajectoryId, Vector};

use crate::cluster::Cluster;
use crate::segment_db::SegmentDatabase;

/// Parameters of representative-trajectory generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepresentativeConfig {
    /// `MinLns`: minimum sweep-hit count for a point to be emitted
    /// (Figure 15 line 7). Usually the clustering `MinLns`.
    pub min_lns: usize,
    /// Smoothing parameter γ (Figure 15 line 9): minimum `X′` advance
    /// between consecutive emitted points.
    pub smoothing: f64,
    /// Weighted sweep (the Section 4.2 weighted-trajectory extension
    /// carried through to Figure 15): the hit count becomes the sum of
    /// member weights and the emitted coordinate the weighted mean.
    pub weighted: bool,
}

impl RepresentativeConfig {
    /// γ = 0 disables smoothing (every qualifying sweep position emits).
    pub fn new(min_lns: usize, smoothing: f64) -> Self {
        assert!(smoothing >= 0.0, "γ must be non-negative");
        Self {
            min_lns,
            smoothing,
            weighted: false,
        }
    }

    /// Enables the weighted sweep.
    pub fn weighted(mut self) -> Self {
        self.weighted = true;
        self
    }
}

/// The average direction vector of Definition 11: the plain vector mean,
/// deliberately *not* normalising the addends so that longer segments
/// contribute more ("a nice heuristic giving the effect of a longer vector
/// contributing more").
pub fn average_direction_vector<const D: usize>(vectors: &[Vector<D>]) -> Vector<D> {
    let mut sum = Vector::<D>::zero();
    for v in vectors {
        sum += *v;
    }
    if vectors.is_empty() {
        sum
    } else {
        sum / vectors.len() as f64
    }
}

/// Generates the representative trajectory of `cluster` (Figure 15).
///
/// Returns a trajectory whose id is the cluster id re-used as a
/// [`TrajectoryId`] in a separate namespace (representatives are
/// "imaginary" trajectories; Section 2.1). Clusters whose members never
/// stack `min_lns` deep yield an empty polyline.
pub fn representative_trajectory<const D: usize>(
    db: &SegmentDatabase<D>,
    cluster: &Cluster,
    config: &RepresentativeConfig,
) -> Trajectory<D> {
    let Some(sweep) = Sweep::new(db, cluster, config) else {
        // Only possible for an empty/degenerate cluster.
        return Trajectory::new(TrajectoryId(cluster.id.0), Vec::new());
    };
    let mut points: Vec<Point<D>> = Vec::new();
    let mut last_emitted_x: Option<f64> = None;
    for &x in &sweep.events {
        // Line 9: smoothing — require an X′ advance of at least γ. Tested
        // before line 6's O(members) hit count: both tests only skip the
        // position, so the order changes the cost, never the output.
        if let Some(prev) = last_emitted_x {
            if x - prev < config.smoothing {
                continue;
            }
        }
        // Line 7 fails: skip (e.g. positions 5–6 in Figure 13).
        if sweep.hits(x) < config.min_lns as f64 {
            continue;
        }
        points.push(sweep.point_at(x));
        last_emitted_x = Some(x);
    }
    Trajectory::new(TrajectoryId(cluster.id.0), points)
}

/// One member segment in sweep-frame coordinates, oriented so
/// `lo[0] ≤ hi[0]` (the sweep only cares about extents).
struct FrameSegment<const D: usize> {
    lo: [f64; D],
    hi: [f64; D],
    weight: f64,
}

/// A cluster's members rotated onto its average direction (Figure 15
/// lines 1–4): the frame, the frame segments, and their sorted X′ events.
struct Sweep<const D: usize> {
    frame: OrthonormalFrame<D>,
    segments: Vec<FrameSegment<D>>,
    events: Vec<f64>,
}

impl<const D: usize> Sweep<D> {
    /// `None` when no sweep axis exists (an empty or degenerate cluster).
    fn new(
        db: &SegmentDatabase<D>,
        cluster: &Cluster,
        config: &RepresentativeConfig,
    ) -> Option<Self> {
        let vectors: Vec<Vector<D>> = cluster
            .members
            .iter()
            .map(|&m| db.segment(m).segment.vector())
            .collect();
        let mut avg_dir = average_direction_vector(&vectors);
        if avg_dir.normalized().is_none() {
            // Anti-parallel members can cancel exactly; fall back to the
            // longest member's direction so the sweep axis is still defined.
            avg_dir = vectors
                .iter()
                .copied()
                .max_by(|a, b| a.norm_squared().total_cmp(&b.norm_squared()))
                .unwrap_or_else(Vector::zero);
        }
        let frame = OrthonormalFrame::from_direction(&avg_dir)?;
        // Lines 1–2: "rotate the axes".
        let mut segments = Vec::with_capacity(cluster.members.len());
        let mut events = Vec::with_capacity(cluster.members.len() * 2);
        for &m in &cluster.members {
            let identified = db.segment(m);
            let a = frame.to_frame(&identified.segment.start);
            let b = frame.to_frame(&identified.segment.end);
            let (lo, hi) = if a[0] <= b[0] { (a, b) } else { (b, a) };
            events.push(lo[0]);
            events.push(hi[0]);
            segments.push(FrameSegment {
                lo,
                hi,
                weight: if config.weighted {
                    identified.weight
                } else {
                    1.0
                },
            });
        }
        // Lines 3–4: sort the endpoints by X′.
        events.sort_by(f64::total_cmp);
        Some(Self {
            frame,
            segments,
            events,
        })
    }

    /// Line 6: the number of members whose X′ extent contains `x`
    /// (weighted counts under the Section 4.2 extension).
    fn hits(&self, x: f64) -> f64 {
        let mut hits = 0.0f64;
        for fs in &self.segments {
            if fs.lo[0] <= x && x <= fs.hi[0] {
                hits += fs.weight;
            }
        }
        hits
    }

    /// Lines 10–11: the average member coordinates at sweep position `x`
    /// (weight-averaged under the weighted extension), rotated back.
    fn point_at(&self, x: f64) -> Point<D> {
        let mut avg = [0.0f64; D];
        let mut total_weight = 0.0f64;
        for fs in &self.segments {
            if fs.lo[0] <= x && x <= fs.hi[0] {
                let span = fs.hi[0] - fs.lo[0];
                let t = if span > 0.0 {
                    (x - fs.lo[0]) / span
                } else {
                    0.5
                };
                for k in 1..D {
                    avg[k] += fs.weight * (fs.lo[k] + t * (fs.hi[k] - fs.lo[k]));
                }
                total_weight += fs.weight;
            }
        }
        for a in avg.iter_mut().skip(1) {
            *a /= total_weight;
        }
        avg[0] = x;
        self.frame.from_frame(&avg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterId};
    use proptest::prelude::*;
    use traclus_geom::{IdentifiedSegment, Segment2, SegmentDistance, SegmentId, Vector2};

    /// The Figure 15 loop in the paper's line order — the line-6 hit count
    /// before the line-9 smoothing test — kept as the reference the
    /// reordered production loop must match bit for bit.
    fn reference_representative<const D: usize>(
        db: &SegmentDatabase<D>,
        cluster: &Cluster,
        config: &RepresentativeConfig,
    ) -> Trajectory<D> {
        let Some(sweep) = Sweep::new(db, cluster, config) else {
            return Trajectory::new(TrajectoryId(cluster.id.0), Vec::new());
        };
        let mut points: Vec<Point<D>> = Vec::new();
        let mut last_emitted_x: Option<f64> = None;
        for &x in &sweep.events {
            if sweep.hits(x) < config.min_lns as f64 {
                continue;
            }
            if let Some(prev) = last_emitted_x {
                if x - prev < config.smoothing {
                    continue;
                }
            }
            points.push(sweep.point_at(x));
            last_emitted_x = Some(x);
        }
        Trajectory::new(TrajectoryId(cluster.id.0), points)
    }

    /// Bit patterns of a polyline, so `-0.0 != 0.0` and NaN compare too.
    fn bits(t: &Trajectory<2>) -> Vec<[u64; 2]> {
        t.points
            .iter()
            .map(|p| [p.x().to_bits(), p.y().to_bits()])
            .collect()
    }

    prop_compose! {
        /// Up to 40 weighted segments; `tied` stacks them all on one
        /// segment, so every sweep event ties.
        fn random_cluster()(
            raw in prop::collection::vec(
                (-50.0..50.0f64, -50.0..50.0f64, -20.0..20.0f64, -20.0..20.0f64, 0.1..3.0f64),
                1..40,
            ),
            tied in 0u8..4,
        ) -> SegmentDatabase<2> {
            let segments = raw
                .iter()
                .enumerate()
                .map(|(k, &(x, y, dx, dy, weight))| {
                    let (x, y, dx, dy) = if tied == 0 { (1.0, 2.0, 8.0, 3.0) } else { (x, y, dx, dy) };
                    IdentifiedSegment {
                        id: SegmentId(k as u32),
                        trajectory: TrajectoryId(k as u32),
                        segment: Segment2::xy(x, y, x + dx, y + dy),
                        weight,
                    }
                })
                .collect();
            SegmentDatabase::from_segments(segments, SegmentDistance::default())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn smoothing_first_sweep_matches_the_paper_order(
            db in random_cluster(),
            min_lns in 1usize..6,
            smoothing_sel in 0u8..3,
            smoothing in 0.0..15.0f64,
            weighted in 0u8..2,
        ) {
            // A third of the cases run with γ = 0 (smoothing off).
            let gamma = if smoothing_sel == 0 { 0.0 } else { smoothing };
            let mut config = RepresentativeConfig::new(min_lns, gamma);
            config.weighted = weighted == 1;
            let cluster = cluster_of(db.len());
            let fast = representative_trajectory(&db, &cluster, &config);
            let reference = reference_representative(&db, &cluster, &config);
            prop_assert_eq!(bits(&fast), bits(&reference));
        }
    }

    fn db_of(segs: &[Segment2]) -> SegmentDatabase<2> {
        let identified = segs
            .iter()
            .enumerate()
            .map(|(k, s)| IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(k as u32), *s))
            .collect();
        SegmentDatabase::from_segments(identified, SegmentDistance::default())
    }

    fn cluster_of(n: usize) -> Cluster {
        Cluster {
            id: ClusterId(0),
            members: (0..n as u32).collect(),
            trajectories: (0..n as u32).map(TrajectoryId).collect(),
        }
    }

    #[test]
    fn average_direction_weighs_longer_vectors_more() {
        let v = average_direction_vector(&[Vector2::xy(10.0, 0.0), Vector2::xy(0.0, 1.0)]);
        assert!(v.x() > v.y(), "the long east vector dominates");
        assert!((v.x() - 5.0).abs() < 1e-12);
        assert!((v.y() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn average_direction_of_empty_set_is_zero() {
        let v: Vector2 = average_direction_vector(&[]);
        assert_eq!(v, Vector2::zero());
    }

    #[test]
    fn parallel_bundle_yields_centerline() {
        // Five horizontal segments at y = 0..4: the representative must run
        // along y ≈ 2 (the average) from x=0 to x=10.
        let segs: Vec<Segment2> = (0..5)
            .map(|i| Segment2::xy(0.0, i as f64, 10.0, i as f64))
            .collect();
        let db = db_of(&segs);
        let rep =
            representative_trajectory(&db, &cluster_of(5), &RepresentativeConfig::new(3, 0.0));
        assert!(rep.points.len() >= 2);
        for p in &rep.points {
            assert!(
                (p.y() - 2.0).abs() < 1e-9,
                "centerline at y=2, got {}",
                p.y()
            );
        }
        let xs: Vec<f64> = rep.points.iter().map(|p| p.x()).collect();
        assert!(xs.windows(2).all(|w| w[0] <= w[1]), "monotone along sweep");
    }

    #[test]
    fn fully_tied_sweep_events_are_stable_under_total_cmp() {
        // Regression for the partial_cmp → total_cmp switch in the sweep's
        // event sort: four identical segments make every event value tie
        // exactly (and the x = 0 endpoints can carry either zero sign after
        // the frame rotation). The representative must still be the shared
        // corridor itself.
        let segs = vec![Segment2::xy(0.0, 1.0, 10.0, 1.0); 4];
        let db = db_of(&segs);
        let rep =
            representative_trajectory(&db, &cluster_of(4), &RepresentativeConfig::new(3, 0.0));
        assert!(rep.points.len() >= 2, "degenerate ties must still emit");
        for p in &rep.points {
            assert!(
                (p.y() - 1.0).abs() < 1e-12,
                "corridor at y=1, got {}",
                p.y()
            );
        }
        let xs: Vec<f64> = rep.points.iter().map(|p| p.x()).collect();
        assert!(xs.windows(2).all(|w| w[0] <= w[1]), "monotone along sweep");
    }

    #[test]
    fn min_lns_gates_sparse_regions() {
        // Figure 13's staircase: three overlapping segments in the middle,
        // single segments at the flanks. With MinLns = 3 only the overlap
        // region emits points.
        let segs = vec![
            Segment2::xy(0.0, 0.0, 6.0, 0.0),
            Segment2::xy(2.0, 1.0, 8.0, 1.0),
            Segment2::xy(4.0, 2.0, 10.0, 2.0),
        ];
        let db = db_of(&segs);
        let rep =
            representative_trajectory(&db, &cluster_of(3), &RepresentativeConfig::new(3, 0.0));
        for p in &rep.points {
            assert!(
                (4.0 - 1e-9..=6.0 + 1e-9).contains(&p.x()),
                "emitted point {p:?} outside the 3-deep overlap [4, 6]"
            );
        }
        assert!(!rep.points.is_empty(), "the overlap is MinLns deep");
    }

    #[test]
    fn smoothing_thins_out_points() {
        let segs: Vec<Segment2> = (0..6)
            .map(|i| {
                let x0 = i as f64 * 0.5;
                Segment2::xy(x0, i as f64 * 0.1, x0 + 10.0, i as f64 * 0.1)
            })
            .collect();
        let db = db_of(&segs);
        let dense =
            representative_trajectory(&db, &cluster_of(6), &RepresentativeConfig::new(3, 0.0));
        let sparse =
            representative_trajectory(&db, &cluster_of(6), &RepresentativeConfig::new(3, 2.0));
        assert!(sparse.points.len() < dense.points.len());
        let xs: Vec<f64> = sparse.points.iter().map(|p| p.x()).collect();
        assert!(
            xs.windows(2).all(|w| w[1] - w[0] >= 2.0 - 1e-9),
            "γ enforces the minimum advance: {xs:?}"
        );
    }

    #[test]
    fn too_shallow_cluster_yields_empty_representative() {
        let segs = vec![
            Segment2::xy(0.0, 0.0, 10.0, 0.0),
            Segment2::xy(20.0, 0.0, 30.0, 0.0), // disjoint X-extents
        ];
        let db = db_of(&segs);
        let rep =
            representative_trajectory(&db, &cluster_of(2), &RepresentativeConfig::new(3, 0.0));
        assert!(rep.points.is_empty());
    }

    #[test]
    fn diagonal_bundle_follows_average_direction() {
        // Bundle at 45°: the representative must also run at ≈45°.
        let segs: Vec<Segment2> = (0..4)
            .map(|i| {
                let off = i as f64 * 0.5;
                Segment2::xy(0.0 + off, 0.0 - off, 10.0 + off, 10.0 - off)
            })
            .collect();
        let db = db_of(&segs);
        let rep =
            representative_trajectory(&db, &cluster_of(4), &RepresentativeConfig::new(3, 0.0));
        assert!(rep.points.len() >= 2);
        let first = rep.points.first().unwrap();
        let last = rep.points.last().unwrap();
        let dir = first.vector_to(last);
        let angle = dir.angle(&Vector2::xy(1.0, 1.0)).unwrap();
        assert!(angle < 0.05, "representative runs along the diagonal");
    }

    #[test]
    fn anti_parallel_members_do_not_crash() {
        // Directions cancel exactly; the fallback axis keeps the sweep
        // defined.
        let segs = vec![
            Segment2::xy(0.0, 0.0, 10.0, 0.0),
            Segment2::xy(10.0, 1.0, 0.0, 1.0),
            Segment2::xy(0.0, 2.0, 10.0, 2.0),
            Segment2::xy(10.0, 3.0, 0.0, 3.0),
        ];
        let db = db_of(&segs);
        let rep =
            representative_trajectory(&db, &cluster_of(4), &RepresentativeConfig::new(3, 0.0));
        assert!(
            rep.points.len() >= 2,
            "sweep still works on the fallback axis"
        );
    }

    #[test]
    fn vertical_member_in_frame_uses_midpoint() {
        // A member perpendicular to the sweep axis has zero X′ extent; its
        // contribution falls back to the segment midpoint.
        let segs = vec![
            Segment2::xy(0.0, 0.0, 10.0, 0.0),
            Segment2::xy(0.0, 1.0, 10.0, 1.0),
            Segment2::xy(5.0, -2.0, 5.0, 2.0), // vertical
        ];
        let db = db_of(&segs);
        let rep =
            representative_trajectory(&db, &cluster_of(3), &RepresentativeConfig::new(3, 0.0));
        for p in &rep.points {
            assert!(p.is_finite());
        }
    }

    #[test]
    fn representative_id_mirrors_cluster_id() {
        let segs = vec![
            Segment2::xy(0.0, 0.0, 10.0, 0.0),
            Segment2::xy(0.0, 1.0, 10.0, 1.0),
        ];
        let db = db_of(&segs);
        let mut cluster = cluster_of(2);
        cluster.id = ClusterId(5);
        let rep = representative_trajectory(&db, &cluster, &RepresentativeConfig::new(2, 0.0));
        assert_eq!(rep.id, TrajectoryId(5));
    }

    #[test]
    fn sweep_respects_figure_13_counts() {
        // Reconstruction of Figure 13's intent: count transitions happen
        // exactly at start/end points.
        let segs = vec![
            Segment2::xy(0.0, 0.0, 4.0, 0.0),
            Segment2::xy(1.0, 1.0, 5.0, 1.0),
            Segment2::xy(2.0, 2.0, 6.0, 2.0),
            Segment2::xy(3.0, 3.0, 7.0, 3.0),
        ];
        let db = db_of(&segs);
        let rep =
            representative_trajectory(&db, &cluster_of(4), &RepresentativeConfig::new(3, 0.0));
        // 3+ deep only within [2, 5].
        for p in &rep.points {
            assert!((2.0 - 1e-9..=5.0 + 1e-9).contains(&p.x()), "{}", p.x());
        }
    }
}
