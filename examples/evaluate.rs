//! Survey-scale comparison: TRACLUS (sequential, parallel, streaming)
//! versus the four baselines on two datasets, with quality, runtime and
//! parameters in one report (the Bian et al. survey axes).
//!
//! Datasets:
//!
//! 1. `hurricane` — the Best-Track stand-in generator (the paper's
//!    Section 5.2 scenario at reduced scale);
//! 2. `corridor-csv` — a labelled corridor scene **round-tripped through
//!    the dataset loaders**: written as timestamped CSV, re-ingested via
//!    `TimedCsvLoader`, proving the loader path feeds the harness.
//!
//! Tables print to stdout; machine-readable JSON lands in
//! `results/evaluation/`. Every report is range-validated (no NaN, no
//! out-of-range metric) and the process exits non-zero on violation —
//! CI runs this example as the evaluation smoke gate.
//!
//! ```sh
//! cargo run --release --example evaluate
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example shows the API, and aborts with a message where a program would \
              handle the error"
)]

use std::io::Write as _;
use std::path::Path;

use traclus::core::{MdlCost, PartitionConfig};
use traclus::data::{
    generate_scene, DatasetLoader, HurricaneConfig, HurricaneGenerator, LoadOptions, SceneConfig,
    TimedCsvLoader,
};
use traclus::eval::{evaluate_dataset, EvalConfig, EvalReport};

fn hurricane_report() -> EvalReport {
    let tracks = HurricaneGenerator::new(HurricaneConfig {
        tracks: 60,
        seed: 2004,
        ..HurricaneConfig::default()
    })
    .generate();
    let config = EvalConfig {
        // δ = 0.05° matches best-track fix accuracy (see MdlCost docs).
        partition: PartitionConfig {
            cost: MdlCost::with_precision(0.05),
            ..PartitionConfig::default()
        },
        kmeans_ks: vec![4],
        mixture_components: vec![4],
        ..EvalConfig::single(3.0, 6)
    };
    evaluate_dataset("hurricane", &tracks, &config)
}

/// Writes the corridor scene as a timestamped CSV (one fix every 10 s,
/// tracks separated by a 1 h gap so `gap_split` has something to ignore
/// and something to respect) and loads it back through the unified
/// loader path.
fn corridor_csv_report(out_dir: &Path) -> EvalReport {
    let scene = generate_scene(&SceneConfig {
        per_backbone: 10,
        noise_fraction: 0.2,
        seed: 31,
        ..SceneConfig::default()
    });
    let csv_path = out_dir.join("corridor.csv");
    let mut file = std::fs::File::create(&csv_path).expect("create corridor.csv");
    writeln!(file, "track_id,x,y,timestamp").expect("write header");
    let mut clock = 0.0f64;
    for t in &scene.trajectories {
        clock += 3600.0; // inter-track gap
        for p in &t.points {
            writeln!(file, "{},{},{},{}", t.id.0, p.x(), p.y(), clock).expect("write row");
            clock += 10.0;
        }
    }
    drop(file);

    let loader = TimedCsvLoader {
        options: LoadOptions {
            gap_split: Some(600.0), // keeps 10 s cadences, would split stalls
            ..LoadOptions::default()
        },
        ..TimedCsvLoader::new(&csv_path)
    };
    let trajectories = loader.load().expect("reload the CSV we just wrote");
    assert_eq!(
        trajectories.len(),
        scene.trajectories.len(),
        "loader round-trip must preserve the track count"
    );
    let config = EvalConfig {
        kmeans_ks: vec![4],
        mixture_components: vec![4],
        ..EvalConfig::single(7.0, 5)
    };
    evaluate_dataset("corridor-csv", &trajectories, &config)
}

fn main() {
    let out_dir = Path::new("results/evaluation");
    std::fs::create_dir_all(out_dir).expect("create results/evaluation");

    let reports = [hurricane_report(), corridor_csv_report(out_dir)];
    let mut failures = 0usize;
    for report in &reports {
        println!("{}", report.to_table());
        let json_path = out_dir.join(format!("{}.json", report.dataset));
        std::fs::write(&json_path, report.to_json()).expect("write report JSON");
        println!("wrote {}\n", json_path.display());
        if let Err(msg) = report.validate() {
            eprintln!("INVALID METRICS: {msg}");
            failures += 1;
        }
    }
    // TRACLUS must actually find structure on both datasets — an
    // all-noise report would "validate" trivially.
    for report in &reports {
        let traclus_found = report
            .entries
            .iter()
            .any(|e| e.algorithm.starts_with("traclus") && e.metrics.cluster_count > 0);
        if !traclus_found {
            eprintln!("SMOKE FAILURE: no TRACLUS clusters on {}", report.dataset);
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!("all {} reports valid", reports.len());
}
