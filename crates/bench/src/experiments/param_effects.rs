//! Section 5.4: effects of parameter values.
//!
//! Paper (hurricane data, MinLns fixed): "when ε = 25, nine clusters are
//! discovered, and each cluster contains 38 line segments on average; in
//! contrast, when ε = 35, three clusters are discovered, and each cluster
//! contains 174 line segments on average" — smaller ε (or larger MinLns)
//! ⇒ more, smaller clusters; larger ε (or smaller MinLns) ⇒ fewer, larger
//! clusters. We sweep the same ±17 % band around the entropy-optimal ε and
//! additionally sweep MinLns at fixed ε to confirm the mirrored trend.

use traclus_core::{select_min_lns, ClusterConfig, LineSegmentClustering};

use crate::experiments::entropy_curves::hurricane_optimal_cached;
use crate::util::{hurricane_database, ExperimentContext};

/// Runs the Section 5.4 sweeps on the hurricane stand-in.
pub fn sec54(ctx: &ExperimentContext) -> std::io::Result<()> {
    let (_, db) = hurricane_database(1950);
    let (eps_opt, avg) = hurricane_optimal_cached();
    let min_lns = *select_min_lns(avg).start() + 1; // the heuristic's middle value

    // ε sweep at fixed MinLns — the paper's 25/30/35 pattern, scaled.
    let mut csv = ctx.csv(
        "sec54_param_effects.csv",
        &[
            "eps",
            "min_lns",
            "clusters",
            "mean_cluster_size",
            "noise_ratio",
        ],
    )?;
    println!("[sec54] hurricane stand-in, entropy-optimal eps = {eps_opt:.2}, MinLns = {min_lns}");
    println!("[sec54] paper reference: eps 25 -> 9 clusters (avg 38); eps 30 -> 7; eps 35 -> 3 (avg 174)");
    let mut rows: Vec<(f64, usize, usize, f64)> = Vec::new();
    for factor in [25.0 / 30.0, 1.0, 35.0 / 30.0] {
        let eps = eps_opt * factor;
        let clustering = LineSegmentClustering::new(&db, ClusterConfig::new(eps, min_lns)).run();
        let clusters = clustering.clusters.len();
        let mean = clustering.mean_cluster_size();
        csv.num_row(&[
            eps,
            min_lns as f64,
            clusters as f64,
            mean,
            clustering.noise_ratio(),
        ])?;
        println!(
            "[sec54] eps = {eps:.2}: {clusters} clusters, mean size {mean:.1}, noise {:.1}%",
            clustering.noise_ratio() * 100.0
        );
        rows.push((eps, min_lns, clusters, mean));
    }
    // MinLns sweep at fixed ε: larger MinLns ⇒ more/smaller clusters trend.
    for delta in [-2i64, 0, 2] {
        let m = (min_lns as i64 + delta).max(2) as usize;
        let clustering = LineSegmentClustering::new(&db, ClusterConfig::new(eps_opt, m)).run();
        csv.num_row(&[
            eps_opt,
            m as f64,
            clustering.clusters.len() as f64,
            clustering.mean_cluster_size(),
            clustering.noise_ratio(),
        ])?;
        println!(
            "[sec54] MinLns = {m}: {} clusters, mean size {:.1}",
            clustering.clusters.len(),
            clustering.mean_cluster_size()
        );
    }
    let path = csv.finish()?;
    // The headline shape check: small ε yields at least as many clusters as
    // large ε, with smaller mean size.
    let (small, large) = (&rows[0], &rows[2]);
    println!(
        "[sec54] shape check: clusters {} >= {} ? {}; mean size {:.1} <= {:.1} ? {} -> {}",
        small.2,
        large.2,
        small.2 >= large.2,
        small.3,
        large.3,
        small.3 <= large.3,
        path.display()
    );
    Ok(())
}
