//! The Section 5.5 robustness scenario: plant corridors, add 25 % noise
//! trajectories, verify the corridors are still recovered (Figure 23).
//!
//! ```sh
//! cargo run --release --example noise_robustness
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example shows the API, and aborts with a message where a program would \
              handle the error"
)]

use traclus::core::SegmentLabel;
use traclus::data::{generate_scene, SceneConfig, TruthLabel};
use traclus::prelude::*;
use traclus::viz::render_clustering;

fn main() {
    for noise_fraction in [0.0, 0.25] {
        let scene = generate_scene(&SceneConfig {
            noise_fraction,
            seed: 23,
            ..SceneConfig::default()
        });
        let outcome = Traclus::new(TraclusConfig {
            eps: 7.0,
            min_lns: 6,
            ..TraclusConfig::default()
        })
        .run(&scene.trajectories);

        // Score against ground truth using segment provenance.
        let mut corridor = (0usize, 0usize); // (clustered, total)
        let mut noise = (0usize, 0usize); // (rejected, total)
        for (i, seg) in outcome.database.segments().enumerate() {
            let clustered = matches!(outcome.clustering.labels[i], SegmentLabel::Cluster(_));
            match scene.truth[seg.trajectory.0 as usize] {
                TruthLabel::Corridor(_) => {
                    corridor.1 += 1;
                    if clustered {
                        corridor.0 += 1;
                    }
                }
                TruthLabel::Noise => {
                    noise.1 += 1;
                    if !clustered {
                        noise.0 += 1;
                    }
                }
            }
        }
        println!(
            "noise {:>3.0}%: {} clusters over {} planted corridors; corridor segments clustered {}/{}; noise segments rejected {}/{}",
            noise_fraction * 100.0,
            outcome.clusters.len(),
            scene.backbones.len(),
            corridor.0,
            corridor.1,
            noise.0,
            noise.1,
        );
        if noise_fraction > 0.0 {
            let svg = render_clustering(&scene.trajectories, &outcome, 800.0, 800.0);
            std::fs::write("noise_robustness_example.svg", svg).expect("write SVG");
            println!("rendered noise_robustness_example.svg");
        }
    }
}
