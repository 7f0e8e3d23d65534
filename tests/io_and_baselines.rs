//! Integration: dataset IO round-trips feed the pipeline unchanged, the
//! legacy formats and the new loaders share the [`DatasetLoader`] test
//! surface, and the baseline algorithms interoperate with the same
//! trajectory types.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test helpers outside #[test] functions, where a failed expectation fails the test"
)]

use std::io::Cursor;

use traclus::baselines::{
    cluster_count, dbscan_points, fit_regression_mixture, kmeans_trajectories, optics_segments,
    KMeansConfig, RegressionMixtureConfig,
};
use traclus::core::{IndexKind, SegmentDatabase};
use traclus::data::{
    generate_scene, read_csv, write_csv, BestTrackLoader, DatasetLoader, GeoLifeLoader,
    InterchangeCsvLoader, SceneConfig, TimedCsvLoader,
};
use traclus::prelude::*;

fn scratch_file(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("traclus_io_and_baselines");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write scratch file");
    path
}

#[test]
fn csv_round_trip_preserves_clustering() {
    let scene = generate_scene(&SceneConfig {
        per_backbone: 10,
        seed: 31,
        ..SceneConfig::default()
    });
    let config = TraclusConfig {
        eps: 7.0,
        min_lns: 5,
        ..TraclusConfig::default()
    };
    let direct = Traclus::new(config).run(&scene.trajectories);

    let mut buf = Vec::new();
    write_csv(&mut buf, &scene.trajectories).expect("serialise");
    let reloaded = read_csv(Cursor::new(buf.clone())).expect("parse");
    assert_eq!(reloaded, scene.trajectories);
    let via_csv = Traclus::new(config).run(&reloaded);
    assert_eq!(direct.clustering, via_csv.clustering);

    // The same bytes through the unified loader path produce the same
    // clustering: legacy parse and trait-based load are one surface.
    let path = scratch_file("scene.csv", &String::from_utf8(buf).expect("utf8"));
    let via_loader = InterchangeCsvLoader::new(&path).load().expect("load");
    assert_eq!(via_loader, scene.trajectories);
    let outcome = Traclus::new(config).run(&via_loader);
    assert_eq!(direct.clustering, outcome.clustering);
}

/// A miniature best-track listing with six storms sharing a westward leg.
fn synthetic_best_track() -> String {
    let mut text = String::new();
    for storm in 0..6 {
        text.push_str(&format!("STORM SYNTH{storm} 2000\n"));
        for k in 0..12 {
            let lat = 12.0 + storm as f64 * 0.25 + k as f64 * 0.05;
            let lon = -30.0 - k as f64 * 1.2;
            text.push_str(&format!("{lat:.2} {lon:.2} 65 990\n"));
        }
    }
    text
}

#[test]
fn best_track_loader_feeds_the_pipeline() {
    // The legacy path routed through the DatasetLoader trait.
    let path = scratch_file("synth_best_track.txt", &synthetic_best_track());
    let loader: Box<dyn DatasetLoader> = Box::new(BestTrackLoader::new(&path));
    let storms = loader.load().expect("parse best track");
    assert_eq!(storms.len(), 6);
    // Trait load equals the direct legacy parser, point for point.
    assert_eq!(
        storms,
        traclus::data::parse_best_track(&synthetic_best_track()).expect("legacy parse")
    );
    let outcome = Traclus::new(TraclusConfig {
        eps: 3.0,
        min_lns: 4,
        ..TraclusConfig::default()
    })
    .run(&storms);
    assert_eq!(
        outcome.clusters.len(),
        1,
        "six parallel westward storms form one corridor cluster"
    );
}

#[test]
fn every_loader_format_feeds_the_pipeline_through_one_surface() {
    // One heterogeneous loader list — legacy best-track, timestamped CSV,
    // GeoLife PLT — all consumed by the identical pipeline code.
    let best_track = scratch_file("surface_best_track.txt", &synthetic_best_track());
    let timed_csv = scratch_file(
        "surface_timed.csv",
        "track_id,x,y,timestamp\n\
         0,0.0,0.0,0\n0,4.0,0.1,10\n0,8.0,0.0,20\n\
         1,0.0,1.0,1000\n1,4.0,1.1,1010\n1,8.0,1.0,1020\n",
    );
    let geolife_root = format!(
        "{}/crates/data/tests/fixtures/geolife",
        env!("CARGO_MANIFEST_DIR")
    );
    let loaders: Vec<Box<dyn DatasetLoader>> = vec![
        Box::new(BestTrackLoader::new(&best_track)),
        Box::new(TimedCsvLoader::new(&timed_csv)),
        Box::new(GeoLifeLoader::new(geolife_root)),
    ];
    for loader in &loaders {
        let trajectories = loader.load().expect("golden inputs load");
        assert!(!trajectories.is_empty(), "{}", loader.name());
        let outcome = Traclus::new(TraclusConfig {
            eps: 1.0,
            min_lns: 2,
            ..TraclusConfig::default()
        })
        .run(&trajectories);
        // Tiny inputs need not cluster, but the pipeline must accept every
        // loader's output and label every derived segment.
        assert_eq!(
            outcome.clustering.labels.len(),
            outcome.database.len(),
            "{}",
            loader.name()
        );
    }
}

#[test]
fn baselines_run_on_generated_scenes() {
    let scene = generate_scene(&SceneConfig {
        per_backbone: 8,
        noise_fraction: 0.1,
        seed: 77,
        ..SceneConfig::default()
    });
    // Regression mixture and k-means accept the same Trajectory type.
    let em = fit_regression_mixture(
        &scene.trajectories,
        &RegressionMixtureConfig {
            components: 4,
            max_iterations: 20,
            ..RegressionMixtureConfig::default()
        },
    );
    assert_eq!(em.assignments.len(), scene.trajectories.len());
    let km = kmeans_trajectories(
        &scene.trajectories,
        &KMeansConfig {
            k: 4,
            ..KMeansConfig::default()
        },
    );
    assert_eq!(km.assignments.len(), scene.trajectories.len());

    // Point DBSCAN over the raw fixes finds dense structure.
    let points: Vec<Point2> = scene
        .trajectories
        .iter()
        .flat_map(|t| t.points.iter().copied())
        .collect();
    let labels = dbscan_points(&points, 5.0, 8);
    assert!(cluster_count(&labels) >= 1);

    // OPTICS over the partitioned segments completes and covers all ids.
    let config = TraclusConfig::default();
    let db =
        SegmentDatabase::from_trajectories(&scene.trajectories, &config.partition, config.distance);
    let index = db.build_index(IndexKind::RTree, 7.0);
    let optics = optics_segments(&db, &index, 7.0, 5);
    assert_eq!(optics.ordering.len(), db.len());
}

#[test]
fn whole_trajectory_baselines_vs_traclus_on_fan_scene() {
    // The quantified Figure 1 story used by the `gaffney` experiment,
    // asserted as a regression test.
    let headings = [
        (1.0f64, 1.0f64),
        (1.0, 0.5),
        (1.0, 0.0),
        (1.0, -0.5),
        (1.0, -1.0),
    ];
    let mut trajectories = Vec::new();
    let mut id = 0u32;
    for &(dx, dy) in &headings {
        for j in 0..4 {
            let offset = id as f64 * 0.4 + j as f64 * 0.05;
            let mut points: Vec<Point2> = (0..30)
                .map(|k| Point2::xy(k as f64 * 4.0, offset))
                .collect();
            for k in 1..16 {
                let t = k as f64 * 4.0;
                points.push(Point2::xy(116.0 + dx * t, offset + dy * t));
            }
            trajectories.push(Trajectory::new(TrajectoryId(id), points));
            id += 1;
        }
    }
    let outcome = Traclus::new(TraclusConfig {
        eps: 10.0,
        min_lns: 6,
        ..TraclusConfig::default()
    })
    .run(&trajectories);
    assert!(
        outcome
            .clusters
            .iter()
            .any(|c| c.trajectory_cardinality() >= 15),
        "TRACLUS finds a cluster spanning (nearly) all trajectories: {:?}",
        outcome
            .clusters
            .iter()
            .map(|c| c.trajectory_cardinality())
            .collect::<Vec<_>>()
    );
    let em = fit_regression_mixture(
        &trajectories,
        &RegressionMixtureConfig {
            components: 2,
            degree: 2,
            ..RegressionMixtureConfig::default()
        },
    );
    let mut counts = [0usize; 2];
    for &a in &em.assignments {
        counts[a] += 1;
    }
    assert!(
        counts[0] > 0 && counts[1] > 0,
        "whole-trajectory EM splits the fan; neither component isolates the corridor"
    );
}
