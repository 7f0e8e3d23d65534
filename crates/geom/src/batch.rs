//! Batched evaluation of the composite segment distance over a segment
//! table: one record per segment, holding its endpoints and the geometry
//! every kernel derives from them.
//!
//! `SegmentDistance::distance` dominates both TRACLUS phases: every
//! ε-neighborhood query of Figure 12 evaluates it against dozens of
//! candidates, and the MDL cost of Figure 8 evaluates the perpendicular and
//! angle components of one hypothesis segment against every original edge
//! under it. Both workloads share a *one query vs. many candidates* shape,
//! so the per-query projection setup (direction vector, squared norm,
//! length, degeneracy check) can be hoisted out of the candidate loop.
//!
//! Two entry points:
//!
//! * [`SegmentTable`] + [`SegmentDistance::distance_many_into`] — the
//!   symmetric clustering-phase distance against cached candidate
//!   geometry, two candidates per step;
//! * [`PreparedBase`] + [`SegmentDistance::mdl_components_prepared`] — the
//!   role-explicit perpendicular + angle pair used by Formula 7, skipping
//!   the parallel component entirely.
//!
//! # Exactness contract
//!
//! The batched kernels are **bit-identical** to the scalar path
//! ([`SegmentDistance::distance_ordered`] /
//! [`SegmentDistance::mdl_components`]): every floating-point operation is
//! performed in the same order on the same values, with one provably exact
//! rewrite — the parallel distance takes `min` over *squared* endpoint gaps
//! before a single square root instead of four roots before the `min`
//! (`√` is monotone and correctly rounded, so `min(√a, √b) ≡ √min(a, b)`
//! bit-for-bit on non-negative inputs). Cached values (direction vectors,
//! squared norms, lengths, midpoints) are produced by the same expressions
//! the scalar path evaluates inline, so reusing them changes nothing.
//! The paired ε-kernel skips the scalar path's degeneracy branches; a pair
//! of candidates where one would have fired, and the odd last candidate,
//! are scored by the scalar path itself. Property tests in
//! `tests/proptest_geom.rs` compare raw bits.
//!
//! # Role ordering
//!
//! [`SegmentTable::roles`] assigns the *longer* segment the base role `Lᵢ`
//! (Lemma 2), comparing the **cached** lengths; exact-length ties are
//! broken by the smaller id — the paper's "internal identifier" tie-break.
//! It is the one role rule of the ε-kernel and of `SegmentDatabase::distance`
//! in `traclus-core` (whose ids are table positions); only the id-free
//! scalar [`SegmentDistance::distance`] falls back to coordinate order.

use crate::bbox::Aabb;
use crate::distance::{
    lehmer_mean_2, AngleMode, DistanceComponents, DistanceWeights, SegmentDistance,
};
use crate::point::{Point, Vector};
use crate::segment::Segment;
use crate::trajectory::{IdentifiedSegment, SegmentId, TrajectoryId};

/// One segment's row of a [`SegmentTable`]: the endpoints, the geometry
/// derived from them once at insertion, and the provenance the grouping
/// phase reads. The record's id is its position in the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentRecord<const D: usize> {
    /// The start point `sᵢ`.
    pub start: Point<D>,
    /// The end point `eᵢ`.
    pub end: Point<D>,
    /// The raw (unnormalised) direction vector `→sᵢeᵢ`; kept unnormalised
    /// because the scalar path projects with `(p − s)·v / ‖v‖²` and bit
    /// equality requires the same operands. `dir / length` recovers the
    /// unit direction where one is needed.
    pub dir: Vector<D>,
    /// The squared norm of [`Self::dir`].
    pub norm_sq: f64,
    /// The length `‖Lᵢ‖`, bit-identical to `Segment::length()`.
    pub length: f64,
    /// The midpoint.
    pub midpoint: Point<D>,
    /// Weight inherited from the trajectory (1.0 unless weighted).
    pub weight: f64,
    /// The trajectory the segment came from (`TR(Lᵢ)` in Definition 10).
    pub trajectory: TrajectoryId,
}

impl<const D: usize> SegmentRecord<D> {
    /// The record of one identified segment (its id is its position in
    /// the table, so the record does not store it).
    pub fn new(s: &IdentifiedSegment<D>) -> Self {
        let v = s.segment.vector();
        let norm_sq = v.norm_squared();
        Self {
            start: s.segment.start,
            end: s.segment.end,
            dir: v,
            norm_sq,
            // `‖v‖² = Σ(e−s)² = Σ(s−e)²` exactly, so this √ is
            // bit-identical to `Segment::length()`.
            length: norm_sq.sqrt(),
            midpoint: s.segment.midpoint(),
            weight: s.weight,
            trajectory: s.trajectory,
        }
    }

    /// The segment's geometry.
    pub fn segment(&self) -> Segment<D> {
        Segment::new(self.start, self.end)
    }

    /// The tight box around the endpoints.
    pub fn bounding_box(&self) -> Aabb<D> {
        Aabb::from_segment(&self.segment())
    }
}

/// The segment table: one [`SegmentRecord`] per segment in one `Vec`, so
/// every kernel reads a segment's endpoints, derived geometry, weight and
/// trajectory from one contiguous record. Segment `k` has id `k`; in
/// `traclus-core` that is exactly the dense segment id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentTable<const D: usize> {
    records: Vec<SegmentRecord<D>>,
}

impl<const D: usize> SegmentTable<D> {
    /// Builds the table from identified segments in one allocation (for
    /// an exact-size source such as a slice or a `Vec`).
    ///
    /// # Panics
    ///
    /// When the ids are not dense and sequential (`segments[k].id.0 ==
    /// k`): labels and counts are indexed by id.
    pub fn from_segments(segments: impl IntoIterator<Item = IdentifiedSegment<D>>) -> Self {
        let records = segments
            .into_iter()
            .enumerate()
            .map(|(k, s)| {
                assert_dense(k, &s);
                SegmentRecord::new(&s)
            })
            .collect();
        Self { records }
    }

    /// Builds the table from bare geometry, numbering the segments by
    /// position: segment `k` gets id `k`, trajectory id `k` and unit
    /// weight.
    pub fn from_geometry<'a>(segments: impl IntoIterator<Item = &'a Segment<D>>) -> Self {
        Self::from_segments(
            segments
                .into_iter()
                .zip(0..)
                .map(|(s, k)| IdentifiedSegment::new(SegmentId(k), TrajectoryId(k), *s)),
        )
    }

    /// Appends one segment, whose id must continue the dense sequence.
    pub fn push(&mut self, s: &IdentifiedSegment<D>) {
        assert_dense(self.records.len(), s);
        self.records.push(SegmentRecord::new(s));
    }

    /// Drops the segments at the ascending, duplicate-free ids `removed`;
    /// the rest keep their order and close the gaps, so id `i` becomes `i`
    /// less the number of removed ids below it.
    pub fn remove_sorted(&mut self, removed: &[u32]) {
        remove_sorted(&mut self.records, removed);
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Every record, id-ordered.
    pub fn records(&self) -> &[SegmentRecord<D>] {
        &self.records
    }

    /// The record of segment `id`.
    pub fn record(&self, id: u32) -> &SegmentRecord<D> {
        &self.records[id as usize]
    }

    /// Segment `id` with its provenance.
    pub fn segment(&self, id: u32) -> IdentifiedSegment<D> {
        identified(id, self.record(id))
    }

    /// Every segment with its provenance, id-ordered.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = IdentifiedSegment<D>> + '_ {
        self.records
            .iter()
            .enumerate()
            .map(|(id, r)| identified(id as u32, r))
    }

    /// The records of segments `a` and `b` in their Lemma 2 roles
    /// `(Lᵢ, Lⱼ)`: the longer cached length plays `Lᵢ`, and an exact tie
    /// goes to the smaller id.
    #[inline(always)]
    pub fn roles(&self, a: u32, b: u32) -> (&SegmentRecord<D>, &SegmentRecord<D>) {
        let (ra, rb) = (self.record(a), self.record(b));
        // Deliberately branchy: a predicted branch lets the role-dependent
        // gathers issue speculatively, where a conditional move would
        // serialise them behind the length compare — measured slower.
        if ra.length > rb.length {
            (ra, rb)
        } else if rb.length > ra.length {
            (rb, ra)
        } else if a <= b {
            (ra, rb)
        } else {
            (rb, ra)
        }
    }
}

/// Rebuilds the identified segment of record `r` at id `id`.
fn identified<const D: usize>(id: u32, r: &SegmentRecord<D>) -> IdentifiedSegment<D> {
    IdentifiedSegment {
        id: SegmentId(id),
        trajectory: r.trajectory,
        segment: r.segment(),
        weight: r.weight,
    }
}

fn assert_dense<const D: usize>(position: usize, s: &IdentifiedSegment<D>) {
    assert_eq!(
        s.id.0 as usize, position,
        "segment ids must be dense: the segment at position {position} has id {}",
        s.id.0
    );
}

/// Drops the entries of `items` at the ascending, duplicate-free indices
/// `removed`, keeping the rest in order — the compaction behind
/// [`SegmentTable::remove_sorted`], shared with every other per-segment
/// array that must stay aligned with it. Each run of consecutive indices
/// goes in one `drain` (one move of the tail), last run first; the usual
/// removal, one trajectory's segments or the oldest arrivals, is a single
/// run.
pub fn remove_sorted<T>(items: &mut Vec<T>, removed: &[u32]) {
    debug_assert!(removed.windows(2).all(|w| w[0] < w[1]));
    let mut end = removed.len();
    while end > 0 {
        let mut start = end - 1;
        while start > 0 && removed[start - 1] + 1 == removed[start] {
            start -= 1;
        }
        items.drain(removed[start] as usize..=removed[end - 1] as usize);
        end = start;
    }
}

/// A segment prepared to play the base role `Lᵢ` (projection target) across
/// many component evaluations: the per-query state the scalar path
/// recomputes for every pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedBase<const D: usize> {
    start: Point<D>,
    end: Point<D>,
    dir: Vector<D>,
    norm_sq: f64,
}

impl<const D: usize> PreparedBase<D> {
    /// Precomputes the projection setup of `base`.
    pub fn new(base: &Segment<D>) -> Self {
        let dir = base.vector();
        Self {
            start: base.start,
            end: base.end,
            dir,
            norm_sq: dir.norm_squared(),
        }
    }
}

impl SegmentDistance {
    /// Batched weighted distances from `query` to each of `candidates`
    /// (ids in `table`), written into `out[k]` for `candidates[k]`.
    ///
    /// Each pair takes its roles from [`SegmentTable::roles`], the one
    /// Lemma 2 rule `SegmentDatabase::distance` uses too. Results are
    /// bit-identical to calling the scalar
    /// [`SegmentDistance::distance_ordered`] with that ordering.
    ///
    /// # Panics
    ///
    /// When `out.len() != candidates.len()` or an id is out of bounds.
    pub fn distance_many_into<const D: usize>(
        &self,
        table: &SegmentTable<D>,
        query: u32,
        candidates: &[u32],
        out: &mut [f64],
    ) {
        assert_eq!(
            candidates.len(),
            out.len(),
            "distance_many_into needs one output slot per candidate"
        );
        // The query's bounds check runs once, here, which makes the one in
        // `roles` provably redundant. That leaves one bounds-checked record
        // load per candidate, covering every field the kernel reads, so
        // the kernel below compiles to one branch-free basic block — which
        // is what lets the SLP vectorizer pair its divisions and square
        // roots into packed ops.
        table.record(query);
        // Two candidates per step: the kernel is bound by divider-unit
        // throughput (4 divisions + 4 square roots per pair survive the
        // exact rewrites), and two interleaved lanes of isomorphic scalar
        // trees let LLVM's SLP vectorizer pair every one of them into a
        // packed `divpd`/`sqrtpd` — same port cost as one scalar op.
        let mut chunks = candidates.chunks_exact(2);
        let mut slots = out.chunks_exact_mut(2);
        for (pair, slot) in (&mut chunks).zip(&mut slots) {
            let (li_a, lj_a) = table.roles(query, pair[0]);
            let (li_b, lj_b) = table.roles(query, pair[1]);
            let [s0, s1] = slot else {
                unreachable!("chunks_exact_mut(2) yields exactly two slots")
            };
            if !lane2_kernel(
                li_a,
                lj_a,
                li_b,
                lj_b,
                self.angle_mode,
                &self.weights,
                s0,
                s1,
            ) {
                // A rare lane (degenerate geometry, exact collinearity):
                // redo both through the scalar reference.
                *s0 = self.scalar_fallback(li_a, lj_a);
                *s1 = self.scalar_fallback(li_b, lj_b);
            }
        }
        // A possible leftover candidate: the scalar reference too.
        for (&cand, slot) in chunks.remainder().iter().zip(slots.into_remainder()) {
            let (li, lj) = table.roles(query, cand);
            *slot = self.scalar_fallback(li, lj);
        }
    }

    /// The cold path of [`Self::distance_many_into`]: one pair through the
    /// scalar reference, which guards every branch the paired kernel skips.
    /// Kept out of line so the hot loop stays one tight block.
    #[cold]
    #[inline(never)]
    fn scalar_fallback<const D: usize>(&self, li: &SegmentRecord<D>, lj: &SegmentRecord<D>) -> f64 {
        self.distance_ordered(&li.segment(), &lj.segment())
    }

    /// The `(d⊥, dθ)` pair of [`Self::mdl_components`] with the base
    /// segment's projection setup hoisted into `base` — Formula 7 evaluates
    /// one hypothesis against every edge under it, so preparing once
    /// amortises the setup *and* skips the parallel component (with its
    /// four square roots) that the MDL cost discards anyway.
    ///
    /// Bit-identical to `self.mdl_components(base_segment, edge)`.
    pub fn mdl_components_prepared<const D: usize>(
        &self,
        base: &PreparedBase<D>,
        edge: &Segment<D>,
    ) -> (f64, f64) {
        if base.norm_sq <= 0.0 {
            // Degenerate base: the whole positional difference is
            // perpendicular (point-to-midpoint), no directional strength.
            return (base.start.distance(&edge.midpoint()), 0.0);
        }
        let ps = project(&base.start, &base.dir, base.norm_sq, &edge.start);
        let pe = project(&base.start, &base.dir, base.norm_sq, &edge.end);
        let perpendicular = lehmer_mean_2(edge.start.distance(&ps), edge.end.distance(&pe));
        let angle = angle_component(
            &base.dir,
            base.norm_sq,
            &edge.vector(),
            edge.vector().norm_squared(),
            edge.length(),
            self.angle_mode,
        );
        (perpendicular, angle)
    }
}

/// Projection of `p` onto the supporting line through `start` along `dir`
/// (Formula 4) — the same operation order as `Segment::project_onto_line`
/// followed by `translate(scale(u))`.
#[inline(always)]
fn project<const D: usize>(
    start: &Point<D>,
    dir: &Vector<D>,
    norm_sq: f64,
    p: &Point<D>,
) -> Point<D> {
    let u = start.vector_to(p).dot(dir) / norm_sq;
    start.translate(&dir.scale(u))
}

/// The angle distance `dθ` (Definition 3) from cached operands; mirrors the
/// scalar `Vector::sin_angle` + mode dispatch exactly, reusing the single
/// dot product for both the Gram determinant and the direction test.
#[inline(always)]
fn angle_component<const D: usize>(
    vi: &Vector<D>,
    vi_norm_sq: f64,
    vj: &Vector<D>,
    vj_norm_sq: f64,
    lj_len: f64,
    mode: AngleMode,
) -> f64 {
    if lj_len <= 0.0 {
        return 0.0;
    }
    let denom = vi_norm_sq * vj_norm_sq;
    if denom <= 0.0 {
        // `sin_angle` is undefined for a zero vector (scalar path: None).
        return 0.0;
    }
    let vw = vi.dot(vj);
    let gram = (denom - vw * vw).max(0.0);
    let sin_theta = (gram / denom).sqrt().clamp(0.0, 1.0);
    match mode {
        AngleMode::Directed => {
            // Branchless select: `θ ≥ 90°` contributes the full length,
            // i.e. a factor of exactly 1 (`x·1.0 ≡ x` in IEEE 754, so this
            // stays bit-identical to the scalar two-arm branch while the
            // data-dependent direction test becomes a conditional move).
            let factor = if vw > 0.0 { sin_theta } else { 1.0 };
            lj_len * factor
        }
        AngleMode::Undirected => lj_len * sin_theta,
    }
}

/// Two independent (base, other) lane pairs evaluated in lockstep — every
/// statement exists once per lane, adjacent and structurally identical, so
/// the SLP vectorizer can fuse each division and square-root pair into one
/// packed instruction. Lanes never mix: each lane's value sequence is that
/// of [`SegmentDistance::distance_ordered`], so results stay bit-identical.
/// Speculatively stores the two weighted distances through `s0`/`s1` —
/// adjacent output slots, so the SLP vectorizer can seed its tree from the
/// store pair — and returns `true` when the stored values are valid.
///
/// The hot path is one straight-line basic block: no degeneracy guards
/// run before the stores, so every division and square root executes
/// unconditionally and the vectorizer cannot sink them behind branches.
/// Instead, one trailing check detects the rare lanes whose scalar
/// version would have branched — degenerate base (no supporting line),
/// zero Lehmer denominator (`lj` exactly on the base line, e.g. the query
/// itself), degenerate `lj`, a `sin θ` denominator that underflows to
/// zero — and returns `false`; the caller then redoes *both* lanes through
/// the scalar reference, overwriting the speculative NaN/∞ garbage. Valid
/// lanes are bit-identical to the scalar path.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn lane2_kernel<const D: usize>(
    li_a: &SegmentRecord<D>,
    lj_a: &SegmentRecord<D>,
    li_b: &SegmentRecord<D>,
    lj_b: &SegmentRecord<D>,
    mode: AngleMode,
    weights: &DistanceWeights,
    s0: &mut f64,
    s1: &mut f64,
) -> bool {
    // Every gather up front, so the arithmetic below stays one
    // branch-free basic block — the shape the SLP vectorizer needs to
    // pair the lanes' divisions and square roots.
    let norm_a = li_a.norm_sq;
    let norm_b = li_b.norm_sq;
    let vi_a = li_a.dir;
    let vi_b = li_b.dir;
    let start_a = li_a.start;
    let start_b = li_b.start;
    let end_a = li_a.end;
    let end_b = li_b.end;
    let ts_a = lj_a.start;
    let ts_b = lj_b.start;
    let te_a = lj_a.end;
    let te_b = lj_b.end;
    let vj_a = lj_a.dir;
    let vj_b = lj_b.dir;
    let norm_lj_a = lj_a.norm_sq;
    let norm_lj_b = lj_b.norm_sq;
    let len_a = lj_a.length;
    let len_b = lj_b.length;
    let directed = matches!(mode, AngleMode::Directed);

    // Projections of both endpoints, both lanes (Formula 4).
    let u1_a = start_a.vector_to(&ts_a).dot(&vi_a) / norm_a;
    let u1_b = start_b.vector_to(&ts_b).dot(&vi_b) / norm_b;
    let u2_a = start_a.vector_to(&te_a).dot(&vi_a) / norm_a;
    let u2_b = start_b.vector_to(&te_b).dot(&vi_b) / norm_b;
    let ps_a = start_a.translate(&vi_a.scale(u1_a));
    let ps_b = start_b.translate(&vi_b.scale(u1_b));
    let pe_a = start_a.translate(&vi_a.scale(u2_a));
    let pe_b = start_b.translate(&vi_b.scale(u2_b));

    // Perpendicular offsets (Definition 1).
    let perp1_a = ts_a.distance_squared(&ps_a).sqrt();
    let perp1_b = ts_b.distance_squared(&ps_b).sqrt();
    let perp2_a = te_a.distance_squared(&pe_a).sqrt();
    let perp2_b = te_b.distance_squared(&pe_b).sqrt();

    // Parallel gaps (Definition 2), min over squared gaps before one √.
    let gap_a = ps_a
        .distance_squared(&start_a)
        .min(ps_a.distance_squared(&end_a))
        .min(
            pe_a.distance_squared(&start_a)
                .min(pe_a.distance_squared(&end_a)),
        );
    let gap_b = ps_b
        .distance_squared(&start_b)
        .min(ps_b.distance_squared(&end_b))
        .min(
            pe_b.distance_squared(&start_b)
                .min(pe_b.distance_squared(&end_b)),
        );

    // Angle operands (Definition 3).
    let vw_a = vi_a.dot(&vj_a);
    let vw_b = vi_b.dot(&vj_b);
    let sin_den_a = norm_a * norm_lj_a;
    let sin_den_b = norm_b * norm_lj_b;
    let gram_a = (sin_den_a - vw_a * vw_a).max(0.0);
    let gram_b = (sin_den_b - vw_b * vw_b).max(0.0);

    let lehmer_den_a = perp1_a + perp2_a;
    let lehmer_den_b = perp1_b + perp2_b;
    let lehmer_q_a = (perp1_a * perp1_a + perp2_a * perp2_a) / lehmer_den_a;
    let lehmer_q_b = (perp1_b * perp1_b + perp2_b * perp2_b) / lehmer_den_b;
    let sin_q_a = gram_a / sin_den_a;
    let sin_q_b = gram_b / sin_den_b;

    let parallel_a = gap_a.sqrt();
    let parallel_b = gap_b.sqrt();
    let sin_root_a = sin_q_a.sqrt();
    let sin_root_b = sin_q_b.sqrt();

    // `θ ≥ 90°` contributes the full length, i.e. a factor of exactly 1
    // (`x·1.0 ≡ x` in IEEE 754, so the select is bit-identical to the
    // scalar two-arm branch). Both select operands are already computed,
    // so this compiles to a conditional move, not a block split.
    let sin_a = sin_root_a.clamp(0.0, 1.0);
    let sin_b = sin_root_b.clamp(0.0, 1.0);
    let dir_a = if vw_a > 0.0 { sin_a } else { 1.0 };
    let dir_b = if vw_b > 0.0 { sin_b } else { 1.0 };
    let factor_a = if directed { dir_a } else { sin_a };
    let factor_b = if directed { dir_b } else { sin_b };
    let angle_a = len_a * factor_a;
    let angle_b = len_b * factor_b;

    *s0 = DistanceComponents {
        perpendicular: lehmer_q_a,
        parallel: parallel_a,
        angle: angle_a,
    }
    .weighted(weights);
    *s1 = DistanceComponents {
        perpendicular: lehmer_q_b,
        parallel: parallel_b,
        angle: angle_b,
    }
    .weighted(weights);

    // The scalar path short-circuits on any of these (returning exact
    // zeros for the affected components); redo such lanes the guarded way.
    let rare = (norm_a <= 0.0)
        | (norm_b <= 0.0)
        | (lehmer_den_a <= 0.0)
        | (lehmer_den_b <= 0.0)
        | (len_a <= 0.0)
        | (len_b <= 0.0)
        // `sin_den` can underflow to zero for tiny-but-proper segments;
        // the scalar path short-circuits there too.
        | (sin_den_a <= 0.0)
        | (sin_den_b <= 0.0);
    !rare
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceWeights;
    use crate::segment::Segment2;

    fn sample_segments() -> Vec<Segment2> {
        vec![
            Segment2::xy(0.0, 0.0, 10.0, 0.0),
            Segment2::xy(2.0, 1.0, 8.0, 1.0),
            Segment2::xy(0.0, 2.0, 10.0, 2.5),
            Segment2::xy(5.0, 5.0, 5.0, 5.0), // degenerate
            Segment2::xy(100.0, -3.0, 90.0, 4.0),
            Segment2::xy(0.0, 0.0, 0.0, 10.0), // equal length to id 0
            Segment2::xy(1.0, 1.0, 1.0, 1.0),  // second degenerate
        ]
    }

    /// The scalar reference with the same role rule as the batch kernel:
    /// cached-length ordering, index tie-break.
    fn scalar_reference(dist: &SegmentDistance, segs: &[Segment2], a: usize, b: usize) -> f64 {
        let la = segs[a].length();
        let lb = segs[b].length();
        let (i, j) = if la > lb {
            (a, b)
        } else if lb > la {
            (b, a)
        } else if a <= b {
            (a, b)
        } else {
            (b, a)
        };
        dist.distance_ordered(&segs[i], &segs[j])
    }

    #[test]
    fn batched_distances_bit_identical_to_scalar() {
        let segs = sample_segments();
        let table = SegmentTable::from_geometry(segs.iter());
        let candidates: Vec<u32> = (0..segs.len() as u32).collect();
        let weight_sets = [
            DistanceWeights::uniform(),
            DistanceWeights::new(2.0, 0.5, 3.0),
            DistanceWeights::new(0.0, 1.0, 1.0),
            DistanceWeights::new(1.0, 0.0, 0.0),
        ];
        for weights in weight_sets {
            for mode in [AngleMode::Directed, AngleMode::Undirected] {
                let dist = SegmentDistance::new(weights, mode);
                let mut out = vec![0.0; candidates.len()];
                for q in 0..segs.len() {
                    dist.distance_many_into(&table, q as u32, &candidates, &mut out);
                    for (c, &d) in out.iter().enumerate() {
                        let expected = scalar_reference(&dist, &segs, q, c);
                        assert_eq!(
                            d.to_bits(),
                            expected.to_bits(),
                            "batch != scalar at ({q},{c}) with {weights:?} {mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_self_distance_is_zero() {
        let segs = sample_segments();
        let table = SegmentTable::from_geometry(segs.iter());
        let dist = SegmentDistance::default();
        let mut out = [0.0];
        for q in 0..segs.len() as u32 {
            dist.distance_many_into(&table, q, &[q], &mut out);
            assert_eq!(out[0], 0.0, "dist(L, L) must be exactly 0 for {q}");
        }
    }

    /// Pairs on which the paired kernel's speculative lanes go wrong
    /// unless its guards and clamps hold, placed in lane a, in lane b and
    /// as the odd last candidate. The lists leave the query out: its self
    /// pair would send both lanes of its step to the scalar path and hide
    /// the other lane's result.
    #[test]
    fn underflowing_and_nearly_parallel_pairs_bit_identical_in_every_lane() {
        let segs = [
            // Proper segments about 1e-150 long: each squared norm is about
            // 1e-299, but their product underflows to 0, so the scalar
            // `sin_angle` is undefined and the lane must defer.
            Segment2::xy(0.0, 0.0, 3e-150, 0.0),
            Segment2::xy(0.0, 1e-150, 2e-150, 2e-150),
            // Nearly parallel from the origin (so the direction vectors are
            // exact): the Gram term ‖vᵢ‖²‖vⱼ‖² − (vᵢ·vⱼ)² rounds to −1.1e-13
            // and must be clamped before its square root.
            Segment2::xy(0.0, 0.0, 3.031859454455258, 5.7744670227102635),
            Segment2::xy(0.0, 0.0, 1.697574415653892, 3.2331932363768825),
            // Ordinary partners in general position.
            Segment2::xy(1.0, 2.0, 4.0, 7.0),
            Segment2::xy(-3.0, 5.0, 2.0, -1.0),
        ];
        let table = SegmentTable::from_geometry(segs.iter());
        let (f, g) = (4u32, 5u32);
        for mode in [AngleMode::Directed, AngleMode::Undirected] {
            let dist = SegmentDistance::new(DistanceWeights::uniform(), mode);
            for q in 0..4u32 {
                for c in (0..4u32).filter(|&c| c != q) {
                    for list in [[c, f].as_slice(), &[f, c], &[f, g, c]] {
                        let mut out = vec![0.0; list.len()];
                        dist.distance_many_into(&table, q, list, &mut out);
                        for (&cand, &d) in list.iter().zip(&out) {
                            let expected =
                                scalar_reference(&dist, &segs, q as usize, cand as usize);
                            assert_eq!(
                                d.to_bits(),
                                expected.to_bits(),
                                "({q},{cand}) in {list:?}, {mode:?}: {d} vs {expected}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output slot")]
    fn mismatched_output_length_rejected() {
        let segs = sample_segments();
        let table = SegmentTable::from_geometry(segs.iter());
        let mut out = [0.0f64; 1];
        SegmentDistance::default().distance_many_into(&table, 0, &[0, 1], &mut out);
    }

    #[test]
    fn prepared_mdl_components_bit_identical() {
        let segs = sample_segments();
        let dist = SegmentDistance::default();
        for base_seg in &segs {
            let base = PreparedBase::new(base_seg);
            for edge in &segs {
                let (perp, angle) = dist.mdl_components_prepared(&base, edge);
                let (sp, sa) = dist.mdl_components(base_seg, edge);
                assert_eq!(perp.to_bits(), sp.to_bits());
                assert_eq!(angle.to_bits(), sa.to_bits());
            }
        }
    }

    #[test]
    fn table_records_round_trip() {
        let segs = sample_segments();
        let identified: Vec<IdentifiedSegment<2>> = segs
            .iter()
            .enumerate()
            .map(|(k, s)| IdentifiedSegment {
                weight: 0.5 + k as f64,
                ..IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(9 - k as u32), *s)
            })
            .collect();
        let table = SegmentTable::from_segments(identified.iter().copied());
        assert_eq!(table.len(), segs.len());
        assert!(!table.is_empty());
        for (i, s) in identified.iter().enumerate() {
            let id = i as u32;
            let r = table.record(id);
            assert_eq!(r.segment(), s.segment);
            assert_eq!(r.start, s.segment.start);
            assert_eq!(r.end, s.segment.end);
            assert_eq!(r.dir, s.segment.vector());
            assert_eq!(r.length.to_bits(), s.segment.length().to_bits());
            assert_eq!(r.norm_sq, s.segment.vector().norm_squared());
            assert_eq!(r.midpoint, s.segment.midpoint());
            assert_eq!((r.weight, r.trajectory), (s.weight, s.trajectory));
            assert_eq!(r.bounding_box(), s.bounding_box());
            assert_eq!(table.segment(id), *s);
        }
        assert!(table.segments().eq(identified.iter().copied()));
        assert_eq!(table.records().len(), table.segments().len());
        // Pushing one segment at a time builds the same table.
        let mut pushed = SegmentTable::default();
        for s in &identified {
            pushed.push(s);
        }
        assert_eq!(pushed, table);
        // Bare geometry is numbered by position.
        let geometry = SegmentTable::from_geometry(segs.iter());
        assert_eq!(geometry.segment(4).trajectory, TrajectoryId(4));
        assert_eq!(geometry.record(4).weight, 1.0);
        assert!(SegmentTable::<2>::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn pushing_an_out_of_sequence_id_panics() {
        let mut table = SegmentTable::from_geometry(sample_segments().iter());
        let s = Segment2::xy(0.0, 0.0, 1.0, 1.0);
        table.push(&IdentifiedSegment::new(SegmentId(0), TrajectoryId(0), s));
    }

    #[test]
    fn remove_sorted_matches_a_fresh_cache_of_the_survivors() {
        let segs = sample_segments();
        let mut table = SegmentTable::from_geometry(segs.iter());
        let removed = [0u32, 2, 3, segs.len() as u32 - 1];
        table.remove_sorted(&removed);
        // The survivors keep their order, trajectory ids and geometry
        // under dense ids.
        let survivors: Vec<IdentifiedSegment<2>> = (0..segs.len() as u32)
            .filter(|i| !removed.contains(i))
            .zip(0..)
            .map(|(old, new)| {
                IdentifiedSegment::new(SegmentId(new), TrajectoryId(old), segs[old as usize])
            })
            .collect();
        assert_eq!(
            table,
            SegmentTable::from_segments(survivors.iter().copied())
        );
        table.remove_sorted(&[]);
        assert_eq!(table.len(), survivors.len());
        let everything: Vec<u32> = (0..table.len() as u32).collect();
        table.remove_sorted(&everything);
        assert!(table.is_empty());
    }
}
