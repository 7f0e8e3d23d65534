//! Figure 23 / Section 5.5: robustness to noise.
//!
//! The paper generates a synthetic set where "25 % of trajectories are
//! generated as noises" and observes "the clusters are correctly identified
//! despite many noises". With a labelled scene we can quantify that:
//!
//! * every planted corridor is recovered as (at least) one cluster whose
//!   representative hugs the backbone;
//! * segments from ground-truth noise trajectories are overwhelmingly
//!   labelled noise;
//! * the result barely changes between the 0 % and 25 % noise variants.

use traclus_core::{SegmentLabel, Traclus, TraclusConfig};
use traclus_data::{generate_scene, SceneConfig, TruthLabel};
use traclus_viz::render_clustering;

use crate::util::ExperimentContext;

/// Per-scene recovery metrics.
struct Recovery {
    clusters: usize,
    corridor_clustered_fraction: f64,
    noise_rejected_fraction: f64,
}

fn evaluate(
    noise_fraction: f64,
    seed: u64,
) -> (
    Recovery,
    traclus_data::Scene,
    traclus_core::TraclusOutcome<2>,
) {
    let scene = generate_scene(&SceneConfig {
        noise_fraction,
        seed,
        ..SceneConfig::default()
    });
    let outcome = Traclus::new(TraclusConfig {
        eps: 7.0,
        min_lns: 6,
        ..TraclusConfig::default()
    })
    .run(&scene.trajectories);
    // Segment-level truth from trajectory provenance.
    let mut corridor_segments = 0usize;
    let mut corridor_clustered = 0usize;
    let mut noise_segments = 0usize;
    let mut noise_rejected = 0usize;
    for (i, seg) in outcome.database.segments().enumerate() {
        let truth = scene.truth[seg.trajectory.0 as usize];
        let label = outcome.clustering.labels[i];
        match truth {
            TruthLabel::Corridor(_) => {
                corridor_segments += 1;
                if matches!(label, SegmentLabel::Cluster(_)) {
                    corridor_clustered += 1;
                }
            }
            TruthLabel::Noise => {
                noise_segments += 1;
                if matches!(label, SegmentLabel::Noise) {
                    noise_rejected += 1;
                }
            }
        }
    }
    let recovery = Recovery {
        clusters: outcome.clusters.len(),
        corridor_clustered_fraction: corridor_clustered as f64 / corridor_segments.max(1) as f64,
        noise_rejected_fraction: if noise_segments == 0 {
            1.0 // vacuously: nothing to reject
        } else {
            noise_rejected as f64 / noise_segments as f64
        },
    };
    (recovery, scene, outcome)
}

/// Runs the Figure 23 experiment.
pub fn fig23(ctx: &ExperimentContext) -> std::io::Result<()> {
    let mut csv = ctx.csv(
        "fig23_noise_robustness.csv",
        &[
            "noise_fraction",
            "clusters",
            "corridor_clustered_fraction",
            "noise_rejected_fraction",
        ],
    )?;
    let backbones = traclus_data::default_backbones().len();
    println!(
        "[fig23] {backbones} planted corridors; paper: clusters correctly identified at 25% noise"
    );
    for &noise in &[0.0, 0.25, 0.4] {
        let (recovery, scene, outcome) = evaluate(noise, 23);
        csv.num_row(&[
            noise,
            recovery.clusters as f64,
            recovery.corridor_clustered_fraction,
            recovery.noise_rejected_fraction,
        ])?;
        println!(
            "[fig23] noise {:>4.0}%: {} clusters, corridor segments clustered {:.1}%, noise segments rejected {:.1}%",
            noise * 100.0,
            recovery.clusters,
            recovery.corridor_clustered_fraction * 100.0,
            recovery.noise_rejected_fraction * 100.0
        );
        if (noise - 0.25).abs() < 1e-9 {
            let svg = render_clustering(&scene.trajectories, &outcome, 800.0, 800.0);
            let path = ctx.write_text("fig23_noise25.svg", &svg)?;
            println!("[fig23] rendered {}", path.display());
        }
    }
    let path = csv.finish()?;
    println!("[fig23] -> {}", path.display());
    Ok(())
}
