//! The batch workloads: timed `Traclus::run` on the workload's input, each
//! result checked against the sequential Figure 12 oracle.

// xtask:allow-file(wall-clock): this is the benchmark; timing the library's
// public calls is its whole job, and no reading feeds back into clustering.
// xtask:allow-file(unwrap-ratchet): each `expect` names an invariant of this
// standalone program (a non-empty sample); breaking one aborts the run, which
// counts as a failed run.

use std::hint::black_box;
use std::time::Instant;

use traclus_core::{LineSegmentClustering, SegmentDatabase, Traclus};

use crate::layers;
use crate::report::Report;
use crate::serve;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed runs, however long each takes.
const MIN_RUNS: usize = 3;
/// The ε-query sample is taken in this many slices, one after each timed
/// run.
const QUERY_SLICES: usize = 8;

/// Measures one batch workload for `seconds`, plus the per-layer probes
/// when `tracer` is given.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
    report: &mut Report,
) {
    let cfg = w.config();
    let traclus = Traclus::new(cfg);

    // Set-up: build the input and warm up with one full run, several times.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let input = w.input(seed);
        let warm = traclus.run(black_box(&input));
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((input, warm));
    }
    let (input, warm) = prepared.expect("SETUPS > 0");
    let db = SegmentDatabase::from_trajectories(&input, &cfg.partition, cfg.distance);
    let oracle = LineSegmentClustering::new(&db, cfg.cluster_config()).run();
    report.note(format!(
        "input: {} trajectories, {} segments, {} clusters (eps {}, MinLns {})",
        input.len(),
        db.len(),
        oracle.clusters.len(),
        w.eps,
        w.min_lns
    ));
    report.check(warm.clustering == oracle, || {
        "warm-up run differs from the sequential oracle".into()
    });

    // Timed runs, each followed by one slice of the public ε-neighbourhood
    // queries (one per segment, against the workload's index: the whole
    // population, so no sampling noise). Interleaving spreads the query
    // samples over the whole timed phase instead of one burst.
    let mut index = db.build_index(cfg.index, cfg.eps);
    index.set_pruning(cfg.pruning);
    let mut buf = Vec::new();
    let mut query_us = Vec::with_capacity(db.len());
    let slice = db.len().div_ceil(QUERY_SLICES);
    let mut pending = (0..db.len() as u32).collect::<Vec<_>>();
    let mut query_slice = |query_us: &mut Vec<f64>| {
        let from = pending.len().saturating_sub(slice);
        for id in pending.drain(from..) {
            let t = Instant::now();
            db.neighborhood_into(&index, id, cfg.eps, &mut buf);
            black_box(&buf);
            query_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    };
    let start = Instant::now();
    let mut runs_ms = Vec::new();
    let mut last = warm;
    while runs_ms.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = traclus.run(black_box(&input));
        runs_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let k = runs_ms.len();
        report.check(out.clustering == oracle, || {
            format!("timed run {k} differs from the sequential oracle")
        });
        last = out;
        query_slice(&mut query_us);
    }
    while query_us.len() < db.len() {
        query_slice(&mut query_us);
    }
    let run_ms = median(&runs_ms).expect("at least one run");
    report.note(format!("run_ms: median of {} timed runs", runs_ms.len()));
    let q = Summary::new(&query_us).expect("samples");
    report.note(format!(
        "query_*_us: one epsilon-query per segment, {}",
        q.describe()
    ));

    report.e2e("run_ms", run_ms, "ms");
    // Every trajectory of a batch becomes visible when its run returns, so
    // within a run p50 and p99 both equal that run's wall time.
    report.e2e("visible_p50_ms", run_ms, "ms");
    report.e2e("query_p50_us", q.p50, "us");
    report.e2e("setup_s", median(&setup_s).expect("SETUPS > 0"), "s");
    report.layer("visible_p99_ms", run_ms, "ms");
    report.layer("query_p99_us", q.p99, "us");

    if let Some(tr) = tracer {
        let pipeline_s = layers::batch_layers(tr, &cfg, &input, &oracle, &last.clusters, report);
        report.layer("trace.overhead_ms", pipeline_s * 1e3 - run_ms, "ms");
        // The serving layers on this workload's data: a short open-loop
        // session over a small window of its trajectories.
        let session = serve::session(
            w,
            &|| input.clone(),
            seed,
            w.serve.probe_seconds,
            1,
            true,
            report,
        );
        layers::serve_layers(tr, w, &session, report);
    }
}
