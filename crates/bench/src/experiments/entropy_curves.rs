//! Figures 16 and 19: the entropy-vs-ε curves driving ε selection.
//!
//! The paper scans ε = 1…60 on the hurricane data (minimum at ε = 31 with
//! avg|Nε| = 4.39) and on Elk1993 (minimum at ε = 25, avg|Nε| = 7.63).
//! Our synthetic stand-ins live on their own coordinate scales, so each
//! curve scans a range appropriate to its data; what must reproduce is the
//! *shape* — high entropy at both extremes, an interior minimum — and the
//! workflow: the chosen ε feeds `select_min_lns`. Each curve is one
//! [`EntropyCurve::scan`]: one ε-query per segment at the grid's largest ε.

use traclus_core::{select_min_lns, EntropyCurve, SegmentDatabase};

use crate::util::{elk_database, hurricane_database, timed, ExperimentContext};

/// ε grid used for the hurricane curve (degrees; the paper scans 60 values
/// — its data sat on a coarser coordinate scale, ours on lat/lon degrees).
pub fn hurricane_eps_grid() -> Vec<f64> {
    (1..=60).map(|i| i as f64 * 0.25).collect()
}

/// ε grid used for the elk/deer curves (metres; the Starkey stand-in uses
/// a 10 km square, so the interesting range sits around tens…hundreds of
/// metres).
pub fn animal_eps_grid() -> Vec<f64> {
    (1..=60).map(|i| i as f64 * 5.0).collect()
}

fn run_curve(
    ctx: &ExperimentContext,
    name: &str,
    db: &SegmentDatabase<2>,
    grid: Vec<f64>,
) -> std::io::Result<()> {
    let (curve, secs) = timed(|| EntropyCurve::scan(db, grid, false));
    let mut csv = ctx.csv(
        &format!("{name}.csv"),
        &["eps", "entropy", "avg_neighborhood"],
    )?;
    for p in &curve.points {
        csv.num_row(&[p.eps, p.entropy, p.avg_neighborhood])?;
    }
    let path = csv.finish()?;
    let min = curve.minimum().expect("non-empty curve");
    let min_lns = select_min_lns(min.avg_neighborhood);
    println!(
        "[{name}] {} segments, scan {secs:.1}s -> {}",
        db.len(),
        path.display()
    );
    println!(
        "[{name}] entropy minimum at eps = {:.2} (H = {:.4}); avg|Neps| = {:.2} -> MinLns in {:?}",
        min.eps, min.entropy, min.avg_neighborhood, min_lns
    );
    Ok(())
}

/// Figure 16 (hurricane).
pub fn fig16(ctx: &ExperimentContext) -> std::io::Result<()> {
    let (_, db) = hurricane_database(1950);
    run_curve(ctx, "fig16_entropy_hurricane", &db, hurricane_eps_grid())
}

/// Figure 19 (Elk1993).
pub fn fig19(ctx: &ExperimentContext) -> std::io::Result<()> {
    let (_, db) = elk_database(1993);
    run_curve(ctx, "fig19_entropy_elk1993", &db, animal_eps_grid())
}

/// Shared helper: the entropy-optimal (ε, avg|Nε|) for a database.
pub fn optimal_params(db: &SegmentDatabase<2>, grid: Vec<f64>) -> (f64, f64) {
    let curve = EntropyCurve::scan(db, grid, false);
    let min = curve.minimum().expect("non-empty curve");
    (min.eps, min.avg_neighborhood)
}

/// Memoised hurricane-optimum (several experiments need it, and the
/// dataset is deterministic per seed 1950).
pub fn hurricane_optimal_cached() -> (f64, f64) {
    static CACHE: std::sync::OnceLock<(f64, f64)> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        let (_, db) = hurricane_database(1950);
        optimal_params(&db, hurricane_eps_grid())
    })
}

/// Memoised Elk1993 optimum.
pub fn elk_optimal_cached() -> (f64, f64) {
    static CACHE: std::sync::OnceLock<(f64, f64)> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        let (_, db) = elk_database(1993);
        optimal_params(&db, animal_eps_grid())
    })
}
