//! The paper's animal-movement scenario (Section 5.3): elk and deer
//! telemetry stand-ins, clustered to reveal shared movement corridors —
//! the Example 2 use case (effects of roads and traffic on habitat use).
//!
//! ```sh
//! cargo run --release --example animal_movements
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example shows the API, and aborts with a message where a program would \
              handle the error"
)]

use traclus::data::{AnimalConfig, AnimalGenerator, Habitat};
use traclus::prelude::*;
use traclus::viz::render_clustering;

fn run_species(
    name: &str,
    habitat: Habitat,
    animals: usize,
    fixes: usize,
    eps: f64,
    min_lns: usize,
) {
    let telemetry = AnimalGenerator::new(
        habitat,
        AnimalConfig {
            animals,
            fixes_per_animal: fixes,
            seed: 1993,
            ..AnimalConfig::default()
        },
    )
    .generate();
    let total: usize = telemetry.iter().map(|t| t.len()).sum();
    println!("[{name}] {} animals / {} fixes", telemetry.len(), total);
    let outcome = Traclus::new(TraclusConfig {
        eps,
        min_lns,
        ..TraclusConfig::default()
    })
    .run(&telemetry);
    println!(
        "[{name}] {} partitions -> {} corridor clusters (noise {:.1}%)",
        outcome.database.len(),
        outcome.clusters.len(),
        outcome.clustering.noise_ratio() * 100.0
    );
    for c in &outcome.clusters {
        let rep = &c.representative;
        if let (Some(a), Some(b)) = (rep.points.first(), rep.points.last()) {
            println!(
                "[{name}]   cluster {}: {} segments / {} animals, corridor ({:.0},{:.0}) -> ({:.0},{:.0})",
                c.cluster.id,
                c.members.len(),
                c.trajectory_cardinality(),
                a.x(),
                a.y(),
                b.x(),
                b.y()
            );
        }
    }
    let svg = render_clustering(&telemetry, &outcome, 800.0, 800.0);
    let file = format!("{name}_example.svg");
    std::fs::write(&file, svg).expect("write SVG");
    println!("[{name}] rendered {file}");
}

fn main() {
    // Reduced scale so the example runs in seconds; the experiments binary
    // runs the paper-scale versions (33×1430 and 32×627 fixes).
    run_species("elk", Habitat::elk(), 20, 400, 40.0, 8);
    run_species("deer", Habitat::deer(), 16, 300, 40.0, 8);
}
