//! Section 3.3: precision of the approximate partitioning.
//!
//! "Our experience indicates that the precision is about 80 % on average,
//! which means that 80 % of the approximate solutions appear also in the
//! exact solutions." We measure exactly that: run the greedy Figure 8 scan and
//! the exact DP optimum over a corpus of trajectories and report the mean
//! fraction of approximate characteristic points present in the exact set.

use traclus_core::{approximate_partition, optimal_partition, partition_precision};
use traclus_data::{AnimalGenerator, HurricaneGenerator};
use traclus_geom::Trajectory;

use crate::util::ExperimentContext;

/// Caps trajectory length fed to the cubic DP.
const MAX_DP_POINTS: usize = 120;

fn corpus() -> Vec<(String, Vec<Trajectory<2>>)> {
    let hurricanes = HurricaneGenerator::paper_scale(77);
    // Elk trajectories are ~1 400 points; slice windows for the DP.
    let elk: Vec<Trajectory<2>> = AnimalGenerator::elk1993(77)
        .into_iter()
        .flat_map(|t| {
            t.points
                .chunks(MAX_DP_POINTS)
                .enumerate()
                .map(|(k, chunk)| {
                    Trajectory::new(
                        traclus_geom::TrajectoryId(t.id.0 * 100 + k as u32),
                        chunk.to_vec(),
                    )
                })
                .collect::<Vec<_>>()
        })
        .take(120)
        .collect();
    vec![
        (
            "hurricane".to_string(),
            hurricanes.into_iter().take(200).collect(),
        ),
        ("elk_windows".to_string(), elk),
    ]
}

/// Runs the precision measurement.
pub fn prec80(ctx: &ExperimentContext) -> std::io::Result<()> {
    let mut csv = ctx.csv(
        "prec80_partition_precision.csv",
        &[
            "dataset",
            "trajectories",
            "mean_precision",
            "mean_approx_cps",
            "mean_exact_cps",
        ],
    )?;
    println!("[prec80] paper: precision is about 80% on average");
    for (name, trajectories) in corpus() {
        let config = if name.starts_with("hurricane") {
            crate::util::partition_with_precision(crate::util::HURRICANE_MDL_PRECISION)
        } else {
            crate::util::partition_with_precision(crate::util::ANIMAL_MDL_PRECISION)
        };
        let mut precisions = Vec::new();
        let mut approx_cps = 0usize;
        let mut exact_cps = 0usize;
        let mut counted = 0usize;
        for t in &trajectories {
            if t.points.len() < 5 || t.points.len() > MAX_DP_POINTS {
                continue;
            }
            let approx = approximate_partition(&config, &t.points);
            let exact = optimal_partition(&config, &t.points, None);
            if let Some(p) = partition_precision(&approx, &exact) {
                precisions.push(p);
                approx_cps += approx.characteristic_points.len();
                exact_cps += exact.characteristic_points.len();
                counted += 1;
            }
        }
        let mean = precisions.iter().sum::<f64>() / precisions.len().max(1) as f64;
        csv.row(&[
            name.clone(),
            counted.to_string(),
            format!("{mean}"),
            format!("{}", approx_cps as f64 / counted.max(1) as f64),
            format!("{}", exact_cps as f64 / counted.max(1) as f64),
        ])?;
        println!(
            "[prec80] {name}: mean precision {:.1}% over {counted} trajectories",
            mean * 100.0
        );
    }
    let path = csv.finish()?;
    println!("[prec80] -> {}", path.display());
    Ok(())
}
