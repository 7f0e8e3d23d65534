//! Appendices A–D of the paper, each as a small quantitative experiment.

use traclus_baselines::{optics_points, optics_segments};
use traclus_core::{
    approximate_partition, ClusterConfig, IndexKind, LineSegmentClustering, MdlCost,
    PartitionConfig, SegmentDatabase,
};
use traclus_geom::{
    endpoint_sum_distance, DistanceWeights, IdentifiedSegment, Point2, Segment2, SegmentDistance,
    SegmentId, TrajectoryId,
};

use crate::experiments::entropy_curves::{hurricane_eps_grid, optimal_params};
use crate::util::{
    hurricane_database, partition_with_precision, ExperimentContext, HURRICANE_MDL_PRECISION,
};

/// Appendix A / Figure 24: the endpoint-sum distance cannot discriminate
/// segments the composite distance separates.
pub fn appendix_a(ctx: &ExperimentContext) -> std::io::Result<()> {
    let dist = SegmentDistance::default();
    let l1 = Segment2::xy(0.0, 0.0, 200.0, 0.0);
    // The paper's printed coordinates.
    let l2 = Segment2::xy(100.0, 100.0, 300.0, 100.0);
    let l3_paper = Segment2::xy(100.0, 100.0, 200.0, 200.0);
    // An exact endpoint-sum tie (each endpoint 100√2 from its counterpart).
    let l3_tie = Segment2::xy(100.0, 100.0, 200.0, 100.0 * 2.0f64.sqrt());
    let mut csv = ctx.csv(
        "appendix_a_distance_comparison.csv",
        &[
            "pair",
            "endpoint_sum",
            "composite",
            "perpendicular",
            "parallel",
            "angle",
        ],
    )?;
    println!("[appendix_a] endpoint-sum vs composite distance (Figure 24)");
    for (name, other) in [
        ("L1-L2", &l2),
        ("L1-L3_paper", &l3_paper),
        ("L1-L3_tie", &l3_tie),
    ] {
        let naive = endpoint_sum_distance(&l1, other);
        let c = dist.components(&l1, other);
        let composite = dist.distance(&l1, other);
        csv.row(&[
            name.to_string(),
            format!("{naive}"),
            format!("{composite}"),
            format!("{}", c.perpendicular),
            format!("{}", c.parallel),
            format!("{}", c.angle),
        ])?;
        println!(
            "[appendix_a] {name}: endpoint-sum {naive:.1}, composite {composite:.1} (dθ = {:.1})",
            c.angle
        );
    }
    let tie_gap = (endpoint_sum_distance(&l1, &l2) - endpoint_sum_distance(&l1, &l3_tie)).abs();
    let comp_gap = (dist.distance(&l1, &l2) - dist.distance(&l1, &l3_tie)).abs();
    println!(
        "[appendix_a] naive gap on the tie pair = {tie_gap:.3} (cannot discriminate); composite gap = {comp_gap:.1}"
    );
    let path = csv.finish()?;
    println!("[appendix_a] -> {}", path.display());
    Ok(())
}

/// Appendix B: clustering under different distance-component weights.
pub fn appendix_b(ctx: &ExperimentContext) -> std::io::Result<()> {
    let (trajectories, _) = hurricane_database(1950);
    let base_partition = partition_with_precision(HURRICANE_MDL_PRECISION);
    let mut csv = ctx.csv(
        "appendix_b_weights.csv",
        &[
            "w_perp",
            "w_par",
            "w_angle",
            "eps",
            "clusters",
            "noise_ratio",
            "mean_cluster_size",
        ],
    )?;
    println!("[appendix_b] weight sensitivity on the hurricane stand-in");
    for (wp, wl, wa) in [
        (1.0, 1.0, 1.0),
        (2.0, 1.0, 1.0),
        (1.0, 2.0, 1.0),
        (1.0, 1.0, 2.0),
    ] {
        let distance = SegmentDistance::new(
            DistanceWeights::new(wp, wl, wa),
            traclus_geom::AngleMode::Directed,
        );
        let db = SegmentDatabase::from_trajectories(&trajectories, &base_partition, distance);
        // Re-estimate ε per weighting — weights rescale the distance, so a
        // fixed ε would not compare like with like.
        let (eps, avg) = optimal_params(&db, hurricane_eps_grid());
        let min_lns = *traclus_core::select_min_lns(avg).start() + 1;
        let clustering = LineSegmentClustering::new(&db, ClusterConfig::new(eps, min_lns)).run();
        csv.num_row(&[
            wp,
            wl,
            wa,
            eps,
            clustering.clusters.len() as f64,
            clustering.noise_ratio(),
            clustering.mean_cluster_size(),
        ])?;
        println!(
            "[appendix_b] w = ({wp},{wl},{wa}): eps {eps:.2}, {} clusters, noise {:.1}%",
            clustering.clusters.len(),
            clustering.noise_ratio() * 100.0
        );
    }
    let path = csv.finish()?;
    println!("[appendix_b] -> {}", path.display());
    Ok(())
}

/// Appendix C: the length-based `L(H)` is shift invariant; an
/// endpoint-coordinate encoding is not.
pub fn appendix_c(ctx: &ExperimentContext) -> std::io::Result<()> {
    let config = PartitionConfig::default();
    // The appendix's TR1 and TR3 = TR1 + (10000, 10000), extended with a
    // few more vertices so partitioning has actual choices to make.
    let base: Vec<Point2> = vec![
        Point2::xy(100.0, 100.0),
        Point2::xy(150.0, 155.0),
        Point2::xy(200.0, 200.0),
        Point2::xy(250.0, 160.0),
        Point2::xy(300.0, 100.0),
        Point2::xy(360.0, 95.0),
        Point2::xy(420.0, 110.0),
    ];
    let shifted: Vec<Point2> = base
        .iter()
        .map(|p| Point2::xy(p.x() + 10_000.0, p.y() + 10_000.0))
        .collect();
    let p_base = approximate_partition(&config, &base);
    let p_shifted = approximate_partition(&config, &shifted);
    // The broken alternative: encode the hypothesis by its endpoint
    // coordinate magnitudes (what Appendix C warns against). Implemented
    // inline since the library deliberately does not ship it.
    let endpoint_lh = |points: &[Point2], i: usize, j: usize| -> f64 {
        let cost = MdlCost::default();
        points[i]
            .coords
            .iter()
            .chain(points[j].coords.iter())
            .map(|c| cost.bits(c.abs()))
            .sum()
    };
    let lh_base = endpoint_lh(&base, 0, base.len() - 1);
    let lh_shifted = endpoint_lh(&shifted, 0, shifted.len() - 1);
    let mut csv = ctx.csv(
        "appendix_c_shift_invariance.csv",
        &["variant", "characteristic_points", "endpoint_lh_bits"],
    )?;
    csv.row(&[
        "base".into(),
        format!("{:?}", p_base.characteristic_points).replace(',', ";"),
        format!("{lh_base}"),
    ])?;
    csv.row(&[
        "shifted_+10000".into(),
        format!("{:?}", p_shifted.characteristic_points).replace(',', ";"),
        format!("{lh_shifted}"),
    ])?;
    let path = csv.finish()?;
    println!(
        "[appendix_c] length-based L(H): characteristic points {:?} vs {:?} (identical: {})",
        p_base.characteristic_points,
        p_shifted.characteristic_points,
        p_base.characteristic_points == p_shifted.characteristic_points
    );
    println!(
        "[appendix_c] endpoint-coordinate encoding would pay {lh_base:.1} bits vs {lh_shifted:.1} bits for the same geometry -> shift-dependent"
    );
    println!("[appendix_c] -> {}", path.display());
    assert_eq!(
        p_base.characteristic_points, p_shifted.characteristic_points,
        "length-based L(H) must be shift invariant"
    );
    Ok(())
}

/// Appendix D / Figure 25: OPTICS reachability for points vs segments.
pub fn appendix_d(ctx: &ExperimentContext) -> std::io::Result<()> {
    let eps = 5.0;
    let min_pts = 5;
    // A corridor of long overlapping segments (matched cross-track spacing
    // for the point arm), plus an offset second bundle.
    let mut segs: Vec<Segment2> = Vec::new();
    for i in 0..40 {
        let y = (i % 20) as f64 * 0.6 + if i >= 20 { 60.0 } else { 0.0 };
        let x0 = (i % 5) as f64 * 7.0;
        segs.push(Segment2::xy(x0, y, x0 + 35.0 + (i % 3) as f64 * 12.0, y));
    }
    let identified: Vec<IdentifiedSegment<2>> = segs
        .iter()
        .enumerate()
        .map(|(k, s)| IdentifiedSegment::new(SegmentId(k as u32), TrajectoryId(k as u32), *s))
        .collect();
    let db = SegmentDatabase::from_segments(identified, SegmentDistance::default());
    let index = db.build_index(IndexKind::Linear, eps);
    let seg_optics = optics_segments(&db, &index, eps, min_pts);
    let points: Vec<Point2> = segs.iter().map(|s| Point2::xy(0.0, s.start.y())).collect();
    let pt_optics = optics_points(&points, eps, min_pts);
    let mut csv = ctx.csv(
        "appendix_d_reachability.csv",
        &["kind", "order", "reachability", "core_distance"],
    )?;
    for (kind, result) in [("segments", &seg_optics), ("points", &pt_optics)] {
        for (order, e) in result.ordering.iter().enumerate() {
            csv.row(&[
                kind.to_string(),
                order.to_string(),
                format!("{}", e.reachability),
                format!("{}", e.core_distance),
            ])?;
        }
    }
    let path = csv.finish()?;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let seg_mean = mean(&seg_optics.finite_reachabilities());
    let pt_mean = mean(&pt_optics.finite_reachabilities());
    println!(
        "[appendix_d] mean reachability: segments {seg_mean:.2} vs points {pt_mean:.2} (paper: segments sit closer to eps = {eps})"
    );
    println!(
        "[appendix_d] reachability / eps: segments {:.2}, points {:.2} -> {}",
        seg_mean / eps,
        pt_mean / eps,
        path.display()
    );
    Ok(())
}
