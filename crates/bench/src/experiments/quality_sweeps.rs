//! Figures 17 and 20: `QMeasure` vs ε for three `MinLns` values around the
//! heuristic estimate.
//!
//! The paper sweeps ε = 27…33 × MinLns ∈ {5,6,7} on the hurricane data and
//! ε = 25…31 × MinLns ∈ {8,9,10} on Elk1993, and observes that QMeasure is
//! "nearly minimal when the optimal value of ε is used" within a MinLns
//! row. We regenerate the same grid around *our* entropy-optimal ε.

use traclus_core::{
    select_min_lns, ClusterConfig, LineSegmentClustering, QMeasure, SegmentDatabase,
};

use crate::experiments::entropy_curves::{elk_optimal_cached, hurricane_optimal_cached};
use crate::util::{elk_database, hurricane_database, ExperimentContext};

/// Sampled-QMeasure pair budget (exact below this, sampled above; the
/// noise set of a full dataset has millions of pairs).
const QMEASURE_PAIR_CAP: usize = 400_000;

fn run_sweep(
    ctx: &ExperimentContext,
    name: &str,
    db: &SegmentDatabase<2>,
    eps_opt: f64,
    avg_neighborhood: f64,
    eps_step: f64,
) -> std::io::Result<()> {
    let min_lns_range = select_min_lns(avg_neighborhood);
    let min_lns_values: Vec<usize> = min_lns_range.clone().collect();
    let eps_values: Vec<f64> = (-3..=3).map(|i| eps_opt + i as f64 * eps_step).collect();
    let mut csv = ctx.csv(
        &format!("{name}.csv"),
        &[
            "eps",
            "min_lns",
            "clusters",
            "noise_ratio",
            "total_sse",
            "noise_penalty",
            "qmeasure",
        ],
    )?;
    println!(
        "[{name}] sweeping eps in {:.2}..{:.2} x MinLns {:?} (entropy-optimal eps = {eps_opt:.2})",
        eps_values.first().unwrap(),
        eps_values.last().unwrap(),
        min_lns_values
    );
    let combos: Vec<(f64, usize)> = min_lns_values
        .iter()
        .flat_map(|&m| {
            eps_values
                .iter()
                .filter(|&&e| e > 0.0)
                .map(move |&e| (e, m))
        })
        .collect();
    let rows = traclus_eval::parallel_map(combos, |&(eps, min_lns)| {
        let clustering = LineSegmentClustering::new(db, ClusterConfig::new(eps, min_lns)).run();
        let q = QMeasure::compute_sampled(db, &clustering, QMEASURE_PAIR_CAP, 99);
        (
            eps,
            min_lns,
            clustering.clusters.len(),
            clustering.noise_ratio(),
            q,
        )
    });
    let mut best: Option<(f64, usize, f64)> = None;
    for (eps, min_lns, clusters, noise_ratio, q) in rows {
        csv.num_row(&[
            eps,
            min_lns as f64,
            clusters as f64,
            noise_ratio,
            q.total_sse,
            q.noise_penalty,
            q.value(),
        ])?;
        if best.is_none_or(|(_, _, bq)| q.value() < bq) {
            best = Some((eps, min_lns, q.value()));
        }
    }
    let path = csv.finish()?;
    if let Some((eps, min_lns, q)) = best {
        println!(
            "[{name}] minimum QMeasure = {q:.1} at eps = {eps:.2}, MinLns = {min_lns} -> {}",
            path.display()
        );
    }
    Ok(())
}

/// Figure 17 (hurricane).
pub fn fig17(ctx: &ExperimentContext) -> std::io::Result<()> {
    let (_, db) = hurricane_database(1950);
    let (eps_opt, avg) = hurricane_optimal_cached();
    // The paper steps ε by 1 around 30 (≈3 %); we mirror that relative step.
    run_sweep(
        ctx,
        "fig17_qmeasure_hurricane",
        &db,
        eps_opt,
        avg,
        eps_opt / 30.0,
    )
}

/// Figure 20 (Elk1993).
pub fn fig20(ctx: &ExperimentContext) -> std::io::Result<()> {
    let (_, db) = elk_database(1993);
    let (eps_opt, avg) = elk_optimal_cached();
    run_sweep(
        ctx,
        "fig20_qmeasure_elk1993",
        &db,
        eps_opt,
        avg,
        eps_opt / 27.0,
    )
}
