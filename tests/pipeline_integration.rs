//! Cross-crate integration tests: data generators → partitioning →
//! clustering → representatives → rendering, exercised through the façade
//! crate exactly as a downstream user would.

use traclus::core::{SegmentDatabase, SegmentLabel};
use traclus::data::{
    generate_scene, AnimalConfig, AnimalGenerator, Habitat, SceneConfig, TruthLabel,
};
use traclus::prelude::*;
use traclus::viz::{render_clustering, render_segments};

#[test]
fn scene_pipeline_recovers_planted_corridors() {
    let scene = generate_scene(&SceneConfig {
        noise_fraction: 0.25,
        seed: 404,
        ..SceneConfig::default()
    });
    let outcome = Traclus::new(TraclusConfig {
        eps: 7.0,
        min_lns: 6,
        ..TraclusConfig::default()
    })
    .run(&scene.trajectories);

    // Every planted corridor must be recovered by at least one cluster
    // whose representative lies close to the backbone.
    assert!(
        outcome.clusters.len() >= scene.backbones.len(),
        "found {} clusters for {} corridors",
        outcome.clusters.len(),
        scene.backbones.len()
    );
    for (b, backbone) in scene.backbones.iter().enumerate() {
        let hit = outcome.clusters.iter().any(|c| {
            c.representative.points.iter().all(|p| {
                backbone
                    .windows(2)
                    .map(|w| traclus::geom::Segment2::new(w[0], w[1]).segment_distance(p))
                    .fold(f64::INFINITY, f64::min)
                    < 15.0
            }) && c.representative.points.len() >= 2
        });
        assert!(hit, "no cluster recovered backbone {b}");
    }

    // Noise-truth segments are mostly rejected.
    let mut noise_total = 0usize;
    let mut noise_rejected = 0usize;
    for (i, seg) in outcome.database.segments().enumerate() {
        if matches!(scene.truth[seg.trajectory.0 as usize], TruthLabel::Noise) {
            noise_total += 1;
            if matches!(outcome.clustering.labels[i], SegmentLabel::Noise) {
                noise_rejected += 1;
            }
        }
    }
    assert!(noise_total > 0);
    let rejected_fraction = noise_rejected as f64 / noise_total as f64;
    assert!(
        rejected_fraction > 0.8,
        "only {rejected_fraction:.2} of noise segments rejected"
    );
}

#[test]
fn animal_pipeline_finds_corridor_clusters() {
    let telemetry = AnimalGenerator::new(
        Habitat::deer(),
        AnimalConfig {
            animals: 16,
            fixes_per_animal: 300,
            seed: 7,
            ..AnimalConfig::default()
        },
    )
    .generate();
    let outcome = Traclus::new(TraclusConfig {
        eps: 40.0,
        min_lns: 6,
        ..TraclusConfig::default()
    })
    .run(&telemetry);
    assert!(
        !outcome.clusters.is_empty(),
        "the deer corridors must produce clusters"
    );
    // At least one representative is a genuine polyline (clusters whose
    // members never stack MinLns deep at any sweep position may yield
    // empty representatives — Figure 15 permits that), and every emitted
    // point is finite and inside the enclosure.
    assert!(
        outcome
            .clusters
            .iter()
            .any(|c| c.representative.points.len() >= 2),
        "no cluster produced a polyline representative"
    );
    for c in &outcome.clusters {
        for p in &c.representative.points {
            assert!(p.is_finite());
            assert!((-2_000.0..=12_000.0).contains(&p.x()));
            assert!((-2_000.0..=12_000.0).contains(&p.y()));
        }
    }
}

#[test]
fn rendering_is_consistent_with_outcome() {
    let scene = generate_scene(&SceneConfig {
        per_backbone: 10,
        seed: 11,
        ..SceneConfig::default()
    });
    let outcome = Traclus::new(TraclusConfig {
        eps: 7.0,
        min_lns: 5,
        ..TraclusConfig::default()
    })
    .run(&scene.trajectories);
    let svg = render_clustering(&scene.trajectories, &outcome, 640.0, 480.0);
    assert!(svg.starts_with("<svg"));
    // One polyline per input trajectory plus one per representative.
    let polylines = svg.matches("<polyline").count();
    let expected = scene.trajectories.len()
        + outcome
            .clusters
            .iter()
            .filter(|c| c.representative.points.len() >= 2)
            .count();
    assert_eq!(polylines, expected);
    let seg_svg = render_segments(&outcome, 640.0, 480.0);
    assert_eq!(
        seg_svg.matches("<line").count(),
        outcome.database.len(),
        "one line element per segment"
    );
}

#[test]
fn labels_and_cluster_membership_are_mutually_consistent() {
    let scene = generate_scene(&SceneConfig {
        seed: 5,
        ..SceneConfig::default()
    });
    let outcome = Traclus::new(TraclusConfig {
        eps: 7.0,
        min_lns: 6,
        ..TraclusConfig::default()
    })
    .run(&scene.trajectories);
    let clustering = &outcome.clustering;
    // Each cluster's members are labelled with that cluster, clusters are
    // disjoint, and cluster trajectory sets match member provenance.
    let mut seen = vec![false; outcome.database.len()];
    for cluster in &clustering.clusters {
        for &m in &cluster.members {
            assert_eq!(
                clustering.labels[m as usize],
                SegmentLabel::Cluster(cluster.id)
            );
            assert!(!seen[m as usize], "segment {m} in two clusters");
            seen[m as usize] = true;
        }
        let mut trajs: Vec<_> = cluster
            .members
            .iter()
            .map(|&m| outcome.database.trajectory_of(m))
            .collect();
        trajs.sort_unstable();
        trajs.dedup();
        assert_eq!(trajs, cluster.trajectories);
        assert!(
            cluster.trajectory_cardinality() >= 6,
            "Definition 10 threshold respected"
        );
    }
    // Everything not in a cluster is noise.
    for (i, &flag) in seen.iter().enumerate() {
        if !flag {
            assert_eq!(clustering.labels[i], SegmentLabel::Noise);
        }
    }
}

#[test]
fn rebuilding_database_from_segments_preserves_clustering() {
    let scene = generate_scene(&SceneConfig {
        per_backbone: 12,
        seed: 9,
        ..SceneConfig::default()
    });
    let config = TraclusConfig {
        eps: 7.0,
        min_lns: 5,
        ..TraclusConfig::default()
    };
    let first = Traclus::new(config).run(&scene.trajectories);
    // Round-trip the segments through a fresh database.
    let segments = first.database.segments().collect();
    let db2 = SegmentDatabase::from_segments(segments, config.distance);
    assert_eq!(
        db2, first.database,
        "the round trip rebuilds the same table"
    );
    let second = Traclus::new(config).run_on_database(db2);
    assert_eq!(first.clustering, second.clustering);
}

#[test]
fn parallel_and_sequential_pipelines_are_identical() {
    // The Parallelism knob must not change anything observable: labels,
    // clusters, and representative trajectories all come out the same
    // whether the grouping phase runs its ε-queries on one thread or on
    // several worker threads.
    let scene = generate_scene(&SceneConfig {
        noise_fraction: 0.2,
        seed: 31,
        ..SceneConfig::default()
    });
    let base = TraclusConfig {
        eps: 7.0,
        min_lns: 6,
        parallelism: Parallelism::Sequential,
        ..TraclusConfig::default()
    };
    let sequential = Traclus::new(base).run(&scene.trajectories);
    for threads in [2usize, 4, 8] {
        let parallel = Traclus::new(TraclusConfig {
            parallelism: Parallelism::Threads(threads),
            ..base
        })
        .run(&scene.trajectories);
        assert_eq!(
            sequential.clustering, parallel.clustering,
            "clustering diverged at t={threads}"
        );
        assert_eq!(
            sequential.clusters, parallel.clusters,
            "representatives diverged at t={threads}"
        );
    }
    // The default knob (all available hardware threads) agrees too.
    let auto = Traclus::new(TraclusConfig {
        parallelism: Parallelism::Available,
        ..base
    })
    .run(&scene.trajectories);
    assert_eq!(sequential.clustering, auto.clustering);
}
