//! Streaming ingestion: replay the hurricane dataset one storm at a time.
//!
//! The batch pipeline (see `examples/hurricanes.rs`) partitions and
//! clusters the whole basin at once. This example feeds the same storms
//! through `IncrementalClustering` in arrival order — the serving-style
//! workload of the ROADMAP — printing how the clustering evolves and how
//! many earlier segments each checkpoint's storm promoted to core, then
//! checks the final state against a batch run of the full dataset.
//!
//! ```sh
//! cargo run --release --example streaming
//! ```

use traclus::data::{HurricaneConfig, HurricaneGenerator};
use traclus::prelude::*;

fn main() {
    // The same reduced basin the hurricanes example uses.
    let storms = HurricaneGenerator::new(HurricaneConfig {
        tracks: 150,
        seed: 2004,
        ..HurricaneConfig::default()
    })
    .generate();
    println!("replaying {} storms in arrival order\n", storms.len());

    let config = TraclusConfig {
        eps: 1.2,
        min_lns: 5,
        ..TraclusConfig::default()
    };

    // Ingest storm by storm, reporting the evolving clustering at a few
    // checkpoints — exactly what a serving loop would observe.
    let mut engine: IncrementalClustering<2> = Traclus::new(config).stream();
    for (k, storm) in storms.iter().enumerate() {
        let report = engine.insert(storm);
        let arrived = k + 1;
        if arrived % 30 == 0 {
            let snapshot = engine.snapshot();
            println!(
                "after storm {arrived:>3}: {:>4} segments, {:>2} clusters, noise {:>4.1}%, \
                 {} earlier segments promoted to core by this storm",
                engine.live_len(),
                snapshot.clusters.len(),
                snapshot.noise_ratio() * 100.0,
                report.flipped_cores
            );
        }
    }

    let stats = engine.stats();
    println!(
        "\ningested {} storms -> {} segments; {} core flips",
        stats.trajectories, stats.segments, stats.core_flips
    );

    // The streaming engine's final state is the batch clustering of the
    // full dataset — same membership, same noise, same representatives.
    let streamed = engine.finish();
    let batch = Traclus::new(config).run(&storms);
    assert_eq!(
        streamed.clustering, batch.clustering,
        "streaming must reproduce the batch clustering exactly"
    );
    println!(
        "final state matches the batch run: {} clusters, {} noise segments",
        streamed.clusters.len(),
        streamed.clustering.noise_count()
    );
    for c in &streamed.clusters {
        println!(
            "  cluster {}: {} segments from {} storms",
            c.cluster.id,
            c.members.len(),
            c.trajectory_cardinality()
        );
    }
}
