//! The traced run: spans around each public call into a layer, and the
//! per-layer metrics read from them.

// xtask:allow-file(wall-clock): the traced run times each layer's public
// calls; no reading feeds back into clustering.

use std::hint::black_box;
use std::time::Instant;

use traclus_core::{
    representatives_for, Clustering, IncrementalClustering, LineSegmentClustering, SegmentDatabase,
    SnapshotCell, TraclusCluster, TraclusConfig,
};
use traclus_geom::{Aabb, Point2, Trajectory, TrajectoryId};
use traclus_server::Request;

use crate::report::Report;
use crate::serve::{Op, Session};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Least share of the traced pipeline's wall time its phase spans must
/// cover; below it an untimed gap is hiding work.
const MIN_COVERAGE: f64 = 0.95;

/// `Traclus::run`'s phases called one by one on `input` under spans, the
/// result checked against the untraced pipeline; then a full ε-query sweep
/// and the sequential grouping oracle as separate probes. Returns the
/// traced pipeline's wall time in seconds.
pub fn batch_layers(
    tr: &mut Tracer,
    cfg: &TraclusConfig,
    input: &[Trajectory<2>],
    expected: &Clustering,
    expected_clusters: &[TraclusCluster<2>],
    report: &mut Report,
) -> f64 {
    let root = tr.open("pipeline", None);
    let (db, partition_s) = tr.scope("partition", Some(root), || {
        SegmentDatabase::from_trajectories(input, &cfg.partition, cfg.distance)
    });
    let (mut index, index_s) = tr.scope("index.build", Some(root), || {
        db.build_index(cfg.index, cfg.eps)
    });
    let (clustering, group_s) = tr.scope("group", Some(root), || {
        LineSegmentClustering::new(&db, cfg.cluster_config()).run_configured()
    });
    let (clusters, represent_s) = tr.scope("represent", Some(root), || {
        representatives_for(cfg, &db, &clustering)
    });
    tr.close(root);
    let wall_s = tr.seconds(root);
    let uncovered_s = wall_s - tr.children_seconds(root);
    report.check(clustering == *expected, || {
        "traced grouping differs from the untraced run".into()
    });
    report.check(clusters == expected_clusters, || {
        "traced representatives differ from the untraced run".into()
    });
    report.check(uncovered_s <= (1.0 - MIN_COVERAGE) * wall_s, || {
        format!(
            "phase spans cover only {:.1}% of the traced run",
            100.0 * (1.0 - uncovered_s / wall_s)
        )
    });

    // Every segment's ε-neighbourhood through the index, with the
    // filter-and-refine tallies of exactly this sweep.
    index.set_pruning(cfg.pruning);
    let mut buf = Vec::new();
    let (neighbours, sweep_s) = tr.scope("eps_query.sweep", None, || {
        let mut total = 0u64;
        for id in 0..db.len() as u32 {
            db.neighborhood_into(&index, id, cfg.eps, &mut buf);
            total += buf.len() as u64;
        }
        total
    });
    let prune = index.prune_stats();
    let (sequential, group_seq_s) = tr.scope("group_seq", None, || {
        LineSegmentClustering::new(&db, cfg.cluster_config()).run()
    });
    report.check(sequential == *expected, || {
        "sequential grouping differs from the oracle".into()
    });

    let n = db.len().max(1) as f64;
    report.layer("partition.ms", partition_s * 1e3, "ms");
    report.layer("partition.segments", db.len() as f64, "count");
    report.layer("index.build_ms", index_s * 1e3, "ms");
    report.layer("eps_query.ms", sweep_s * 1e3, "ms");
    report.layer("eps_query.count", db.len() as f64, "count");
    report.layer("eps_query.neighbors_mean", neighbours as f64 / n, "count");
    report.layer("prune.candidates", prune.candidates as f64, "count");
    report.layer("prune.pruned_mbr", prune.pruned_mbr as f64, "count");
    report.layer(
        "prune.pruned_midpoint",
        prune.pruned_midpoint as f64,
        "count",
    );
    report.layer("prune.pruned_angle", prune.pruned_angle as f64, "count");
    report.layer("prune.refined", prune.refined as f64, "count");
    report.layer(
        "prune.useful_ratio",
        neighbours as f64 / prune.refined.max(1) as f64,
        "ratio",
    );
    report.layer("group.ms", group_s * 1e3, "ms");
    report.layer("group_seq.ms", group_seq_s * 1e3, "ms");
    report.layer("group.clusters", clustering.clusters.len() as f64, "count");
    report.layer("represent.ms", represent_s * 1e3, "ms");
    let members: usize = clustering.clusters.iter().map(|c| c.members.len()).sum();
    report.layer("represent.members", members as f64, "count");
    report.layer("trace.uncovered_ms", uncovered_s * 1e3, "ms");
    report.note(format!(
        "traced pipeline {:.3} ms = partition {:.3} + index {:.3} + group {:.3} + represent {:.3} + uncovered {:.3}",
        wall_s * 1e3,
        partition_s * 1e3,
        index_s * 1e3,
        group_s * 1e3,
        represent_s * 1e3,
        uncovered_s * 1e3
    ));
    wall_s
}

/// The serving layers behind a session: the same arrivals replayed through
/// `IncrementalClustering::insert` and `SnapshotCell::publish_from` at the
/// session's observed batch size (once untraced, once traced), snapshot
/// queries, protocol parsing and JSON encoding of the session's own
/// requests and replies, and the client-observed per-op latencies. Returns
/// the replay's tracing overhead in seconds.
pub fn serve_layers(tr: &mut Tracer, w: &Workload, session: &Session, report: &mut Report) -> f64 {
    let timed = &session.arrivals[session.fill..];
    let batch = if session.epochs == 0 {
        timed.len().max(1)
    } else {
        (timed.len() as f64 / session.epochs as f64)
            .round()
            .max(1.0) as usize
    };
    let mut filled = IncrementalClustering::<2>::new(session.config);
    for t in &session.arrivals[..session.fill] {
        filled.insert(t);
    }
    let before = filled.stats();

    let untraced_s = {
        let mut engine = filled.clone();
        let cell = SnapshotCell::new(session.config);
        let t = Instant::now();
        for chunk in timed.chunks(batch) {
            for t in chunk {
                engine.insert(black_box(t));
            }
            black_box(cell.publish_from(&engine));
        }
        t.elapsed().as_secs_f64()
    };

    let mut engine = filled;
    let cell = SnapshotCell::new(session.config);
    let mut insert_us = Vec::new();
    let mut publish_ms = Vec::new();
    let root = tr.open("replay", None);
    for chunk in timed.chunks(batch) {
        for t in chunk {
            let (_, s) = tr.scope("stream.insert", Some(root), || engine.insert(t));
            insert_us.push(s * 1e6);
        }
        let (_, s) = tr.scope("snapshot.publish", Some(root), || {
            cell.publish_from(&engine)
        });
        publish_ms.push(s * 1e3);
    }
    tr.close(root);
    let traced_s = tr.seconds(root);
    let snap = cell.load();
    let expected = &session.live_outcome;
    report.check(snap.clustering() == &expected.clustering, || {
        "replayed stream differs from batch on the live window".into()
    });
    report.check(snap.clusters() == expected.clusters.as_slice(), || {
        "replayed representatives differ from batch on the live window".into()
    });

    // Snapshot queries, request parsing and reply encoding on exactly what
    // the session sent and received.
    let mut parse_us = Vec::new();
    let mut query_us = Vec::new();
    let mut encode_us = Vec::new();
    let mut bytes = 0usize;
    for (line, reply) in &session.recorded {
        let (parsed, s) = tr.scope("protocol.parse", None, || Request::parse_line(line));
        parse_us.push(s * 1e6);
        let query_s = match parsed {
            Ok(Request::Nearest { point }) => Some(tr.scope("snapshot.query", None, || {
                black_box(snap.nearest_cluster(&Point2::xy(point[0], point[1])));
            })),
            Ok(Request::Region { min, max }) => Some(tr.scope("snapshot.query", None, || {
                black_box(snap.region_summary(&Aabb::new(min, max)));
            })),
            Ok(Request::Membership { trajectory }) => {
                Some(tr.scope("snapshot.query", None, || {
                    black_box(snap.membership(TrajectoryId(trajectory)));
                }))
            }
            Ok(_) => None,
            Err(e) => {
                report.check(false, || format!("recorded request does not parse: {e}"));
                None
            }
        };
        query_us.extend(query_s.map(|(_, s)| s * 1e6));
        let (text, s) = tr.scope("json.encode", None, || reply.to_compact());
        encode_us.push(s * 1e6);
        bytes += text.len();
    }

    let stats = engine.stats();
    let insert = Summary::new(&insert_us);
    let publish = Summary::new(&publish_ms);
    let nan = f64::NAN;
    report.layer("stream.insert_p50_us", insert.map_or(nan, |s| s.p50), "us");
    report.layer("stream.insert_p99_us", insert.map_or(nan, |s| s.p99), "us");
    report.layer(
        "stream.local_repairs",
        (stats.local_repairs - before.local_repairs) as f64,
        "count",
    );
    report.layer(
        "stream.decremental_repairs",
        (stats.decremental_repairs - before.decremental_repairs) as f64,
        "count",
    );
    report.layer(
        "stream.full_rebuilds",
        (stats.full_rebuilds - before.full_rebuilds) as f64,
        "count",
    );
    report.layer(
        "stream.decremental_rebuilds",
        (stats.decremental_rebuilds - before.decremental_rebuilds) as f64,
        "count",
    );
    report.layer("stream.live_segments", engine.live_len() as f64, "count");
    report.layer(
        "snapshot.publish_p50_ms",
        publish.map_or(nan, |s| s.p50),
        "ms",
    );
    report.layer(
        "snapshot.publish_p99_ms",
        publish.map_or(nan, |s| s.p99),
        "ms",
    );
    report.layer("snapshot.publishes", publish_ms.len() as f64, "count");
    report.layer("snapshot.query_us", median(&query_us).unwrap_or(nan), "us");
    report.layer("protocol.parse_us", median(&parse_us).unwrap_or(nan), "us");
    report.layer("json.encode_us", median(&encode_us).unwrap_or(nan), "us");
    report.layer(
        "json.response_bytes",
        bytes as f64 / session.recorded.len().max(1) as f64,
        "bytes",
    );

    let op_p50 = |op: Op| median(&session.latencies_us(op)).unwrap_or(nan);
    report.layer("op.ingest_p50_us", op_p50(Op::Ingest), "us");
    report.layer("op.nearest_p50_us", op_p50(Op::Nearest), "us");
    report.layer("op.region_p50_us", op_p50(Op::Region), "us");
    report.layer("op.membership_p50_us", op_p50(Op::Membership), "us");
    report.layer(
        "op.representatives_p50_us",
        op_p50(Op::Representatives),
        "us",
    );
    report.layer("op.stats_p50_us", op_p50(Op::Stats), "us");
    report.layer("server.epochs", session.epochs as f64, "count");
    report.layer(
        "server.batch_mean",
        timed.len() as f64 / session.epochs.max(1) as f64,
        "count",
    );
    report.layer(
        "server.engine_busy_share",
        untraced_s / session.elapsed.max(f64::MIN_POSITIVE),
        "ratio",
    );
    let lags: Vec<f64> = session
        .ingest
        .iter()
        .chain(session.queries.iter().map(|(_, t)| t))
        .map(|t| t.lag() * 1e3)
        .collect();
    report.layer(
        "generator.lag_p99_ms",
        Summary::new(&lags).map_or(nan, |s| s.p99),
        "ms",
    );
    report.note(format!(
        "serve probe: {} timed ingests replayed in batches of {batch} (window {}), {} recorded requests",
        timed.len(),
        w.serve.window,
        session.recorded.len()
    ));
    traced_s - untraced_s
}
