//! The serving path: an in-process daemon on loopback with a sliding
//! window, one open-loop ingest connection, one open-loop query connection,
//! and a final stream ≡ batch check over the wire.

// xtask:allow-file(wall-clock): the open-loop generator schedules and
// times requests against the daemon; no reading feeds back into clustering.
// xtask:allow-file(unwrap-ratchet): each `expect` names an invariant of this
// standalone program or a loopback set-up failure; either aborts the run,
// which counts as a failed run.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use traclus_core::{Traclus, TraclusConfig, TraclusOutcome};
use traclus_geom::{Trajectory, TrajectoryId};
use traclus_json::JsonValue;
use traclus_server::{Client, Request, Server, ServerConfig};

use crate::layers;
use crate::openloop::{visibility_latencies, Schedule, Timing};
use crate::report::Report;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::workloads::{SplitMix, Workload};

/// Set-ups per run of `serve_window`; `setup_s` is their median.
const SETUPS: usize = 3;
/// Longest the query connection keeps polling `stats` after the last
/// ingest, waiting for it to become visible.
const DRAIN_LIMIT_S: f64 = 10.0;
/// Timed batch runs over the whole arrival plan.
const PLAN_RUNS: usize = 8;

/// Request kinds, in the order their per-op metrics are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `ingest` (timed until the reply: the trajectory is queued).
    Ingest,
    /// `nearest`.
    Nearest,
    /// `region`.
    Region,
    /// `membership`.
    Membership,
    /// `representatives`.
    Representatives,
    /// `stats` (its trajectory counts also timestamp visibility).
    Stats,
}

/// The query connection's cyclic mix: every other request is `stats`, so
/// visibility is sampled at half the query rate; point queries make up the
/// rest, with one bulk `representatives` read per 32 requests (a bulk read
/// costs ≈20 point queries, so at a larger share the mix's p99 would be
/// the bulk read's own scheduling tail).
const MIX: [Op; 32] = {
    let mut mix = [Op::Stats; 32];
    let point = [Op::Nearest, Op::Region, Op::Membership];
    let mut k = 0;
    while k < 15 {
        mix[2 * k + 1] = point[k % 3];
        k += 1;
    }
    mix[31] = Op::Representatives;
    mix
};

/// Everything one serving session observed.
pub struct Session {
    /// The engine configuration, window included.
    pub config: TraclusConfig,
    /// Trajectories ingested by the closed-loop set-up burst.
    pub fill: usize,
    /// Every trajectory the daemon ingested, in id order.
    pub arrivals: Vec<Trajectory<2>>,
    /// Set-up durations (seconds).
    pub setup_s: Vec<f64>,
    /// Open-loop ingests.
    pub ingest: Vec<Timing>,
    /// Open-loop queries.
    pub queries: Vec<(Op, Timing)>,
    /// Ingest-to-visible latency per timed ingest (seconds).
    pub visible: Vec<f64>,
    /// Length of the timed phase (seconds).
    pub elapsed: f64,
    /// Snapshots published while the timed ingests were applied.
    pub epochs: u64,
    /// Request lines sent and their parsed replies (traced runs only).
    pub recorded: Vec<(String, JsonValue)>,
    /// `Traclus::run` on the final live window: the oracle.
    pub live_outcome: TraclusOutcome<2>,
    /// The final live window.
    pub live: Vec<Trajectory<2>>,
    /// Wall times of `Traclus::run` on the whole arrival plan (ms).
    pub plan_run_ms: Vec<f64>,
}

impl Session {
    /// Open-loop latencies of one request kind, in microseconds.
    pub fn latencies_us(&self, op: Op) -> Vec<f64> {
        let timings: Box<dyn Iterator<Item = &Timing>> = if op == Op::Ingest {
            Box::new(self.ingest.iter())
        } else {
            Box::new(
                self.queries
                    .iter()
                    .filter(|(o, _)| *o == op)
                    .map(|(_, t)| t),
            )
        };
        timings.map(|t| t.latency() * 1e6).collect()
    }
}

/// Measures `serve_window` for `seconds`, plus the per-layer probes when
/// `tracer` is given.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
    report: &mut Report,
) {
    let session = session(
        w,
        &|| w.input(seed),
        seed,
        seconds,
        SETUPS,
        tracer.is_some(),
        report,
    );
    let visible = Summary::new(&session.visible);
    let query_us: Vec<f64> = session
        .queries
        .iter()
        .map(|(_, t)| t.latency() * 1e6)
        .collect();
    let query = Summary::new(&query_us);
    report.note(format!(
        "open loop (Poisson): ingest {} /s, queries {} /s, window {} trajectories, {:.1} s timed",
        w.serve.ingest_rate, w.serve.query_rate, w.serve.window, session.elapsed
    ));
    let describe = |s: Option<Summary>| s.map_or_else(|| "no samples".into(), |s| s.describe());
    report.note(format!("visible_*_ms: {}", describe(visible)));
    report.note(format!("query_*_us: {}", describe(query)));
    for op in [
        Op::Nearest,
        Op::Region,
        Op::Membership,
        Op::Representatives,
        Op::Stats,
    ] {
        if let Some(s) = Summary::new(&session.latencies_us(op)) {
            report.note(format!(
                "{op:?}: p50 {:.1} us, p99 {:.1} us, {}",
                s.p50,
                s.p99,
                s.describe()
            ));
        }
    }
    report.e2e(
        "run_ms",
        median(&session.plan_run_ms).unwrap_or(f64::NAN),
        "ms",
    );
    report.e2e(
        "visible_p50_ms",
        visible.map_or(f64::NAN, |s| s.p50 * 1e3),
        "ms",
    );
    report.e2e("query_p50_us", query.map_or(f64::NAN, |s| s.p50), "us");
    report.e2e("setup_s", median(&session.setup_s).unwrap_or(f64::NAN), "s");
    // The tails swing with host load far more than the bounds allow (see
    // README), so they are reported without one.
    report.layer(
        "visible_p99_ms",
        visible.map_or(f64::NAN, |s| s.p99 * 1e3),
        "ms",
    );
    report.layer("query_p99_us", query.map_or(f64::NAN, |s| s.p99), "us");

    if let Some(tr) = tracer {
        let replay_overhead_s = layers::serve_layers(tr, w, &session, report);
        report.layer("trace.overhead_ms", replay_overhead_s * 1e3, "ms");
        let cfg = w.config();
        let live = &session.live_outcome;
        layers::batch_layers(
            tr,
            &cfg,
            &session.live,
            &live.clustering,
            &live.clusters,
            report,
        );
    }
}

struct Daemon {
    addr: std::net::SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(config: TraclusConfig, window: usize) -> Self {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                traclus: config,
                window: Some(window),
                ..ServerConfig::default()
            },
        )
        .expect("bind a loopback port");
        let addr = server.local_addr();
        Self {
            addr,
            thread: std::thread::spawn(move || server.run()),
        }
    }

    fn stop(self, report: &mut Report) {
        let ack = Client::connect(self.addr).and_then(|mut c| c.request(&Request::Shutdown));
        report.check(ack.is_ok_and(|v| is_ok(&v)), || "shutdown refused".into());
        let joined = self.thread.join();
        report.check(matches!(joined, Ok(Ok(()))), || {
            "daemon ended with an error".into()
        });
    }
}

fn is_ok(v: &JsonValue) -> bool {
    v.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

fn int(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key)
        .and_then(JsonValue::as_i64)
        .and_then(|i| u64::try_from(i).ok())
}

fn ingest_line(t: &Trajectory<2>) -> String {
    Request::Ingest {
        points: t.points.iter().map(|p| [p.x(), p.y()]).collect(),
        weight: None,
    }
    .to_line()
}

/// Timer wake-ups overshoot by tens of microseconds; sleep to this margin
/// before the due time and yield-spin the rest, so the generator's own
/// lateness stays out of the latencies it measures without holding a core
/// the daemon's threads could use.
const SPIN_MARGIN: Duration = Duration::from_micros(200);

fn sleep_until(start: Instant, due: f64) {
    let target = start + Duration::from_secs_f64(due);
    let now = Instant::now();
    if target > now + SPIN_MARGIN {
        std::thread::sleep(target - now - SPIN_MARGIN);
    }
    while Instant::now() < target {
        std::thread::yield_now();
    }
}

/// Closed-loop burst of `fill` ingests, then `flush`; returns the flush
/// epoch.
fn fill_window(
    client: &mut Client,
    source: &[Trajectory<2>],
    fill: usize,
    report: &mut Report,
) -> u64 {
    let mut refused = 0;
    for i in 0..fill {
        let reply = client.send_raw(&ingest_line(&source[i % source.len()]));
        if !reply.is_ok_and(|v| is_ok(&v) && int(&v, "trajectory") == Some(i as u64)) {
            refused += 1;
        }
    }
    report.count(fill as u64, refused, "set-up ingests");
    let flushed = client.request(&Request::Flush).ok().filter(is_ok);
    report.check(flushed.is_some(), || "set-up flush refused".into());
    flushed.and_then(|v| int(&v, "epoch")).unwrap_or(0)
}

/// One serving session: `setups` set-ups (the last daemon is kept), the
/// timed open-loop phase over `generate()`'s trajectories (ingested
/// cyclically), and the final checks. `record` keeps every request line and
/// reply for the traced probes.
#[allow(clippy::too_many_arguments)]
pub fn session(
    w: &Workload,
    generate: &dyn Fn() -> Vec<Trajectory<2>>,
    seed: u64,
    seconds: f64,
    setups: usize,
    record: bool,
    report: &mut Report,
) -> Session {
    let spec = w.serve;
    let mut config = w.config();
    config.stream.capacity = Some(spec.window);
    let fill = spec.window;

    // The seed fixes the arrival plan. Before the daemon starts, in a
    // process not yet disturbed by serving, time the batch pipeline on the
    // whole plan — the from-scratch cost the stream avoids — and run it once
    // on the final live window as the stream ≡ batch oracle.
    let source = generate();
    let mut ingest_sched = Schedule::new(spec.ingest_rate, seed ^ 0x1_9E57);
    let ingest_due: Vec<f64> = std::iter::from_fn(|| Some(ingest_sched.next_due()))
        .take_while(|&due| due < seconds)
        .collect();
    let total = fill + ingest_due.len();
    let arrivals: Vec<Trajectory<2>> = (0..total)
        .map(|i| {
            Trajectory::new(
                TrajectoryId(i as u32),
                source[i % source.len()].points.clone(),
            )
        })
        .collect();
    let traclus = Traclus::new(w.config());
    let plan_run_ms: Vec<f64> = (0..PLAN_RUNS)
        .map(|_| {
            let t = Instant::now();
            black_box(traclus.run(black_box(&arrivals)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let live = arrivals[total.saturating_sub(spec.window)..].to_vec();
    let live_outcome = traclus.run(&live);

    // Set-up: input, daemon, closed-loop window fill; repeated, keeping the
    // last daemon.
    let mut setup_s = Vec::new();
    let mut ready = None;
    for i in 0..setups {
        let t = Instant::now();
        let fresh = generate();
        let daemon = Daemon::start(config, spec.window);
        let mut client = Client::connect(daemon.addr).expect("connect to the daemon");
        let epoch0 = fill_window(&mut client, &fresh, fill, report);
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < setups {
            drop(client);
            daemon.stop(report);
        } else {
            ready = Some((daemon, client, epoch0));
        }
    }
    let (daemon, mut ingest_client, epoch0) = ready.expect("setups > 0");
    let mut query_client = Client::connect(daemon.addr).expect("connect to the daemon");

    // Timed phase: two open-loop connections.
    let lines: Vec<String> = arrivals[fill..].iter().map(ingest_line).collect();
    let ingested = AtomicU64::new(fill as u64);
    let ingest_done = AtomicBool::new(false);
    let start = Instant::now();
    let ((ingest, ingest_refused, ingest_rec), (queries, stats, query_refused, query_rec)) =
        std::thread::scope(|s| {
            let ingest_thread = s.spawn(|| {
                let mut timings = Vec::new();
                let mut refused = 0u64;
                let mut rec = Vec::new();
                for (k, (line, &due)) in lines.iter().zip(&ingest_due).enumerate() {
                    sleep_until(start, due);
                    let sent = start.elapsed().as_secs_f64();
                    let reply = ingest_client.send_raw(line);
                    let done = start.elapsed().as_secs_f64();
                    timings.push(Timing { due, sent, done });
                    let want = (fill + k) as u64;
                    match reply {
                        Ok(v) if is_ok(&v) && int(&v, "trajectory") == Some(want) => {
                            if record {
                                rec.push((line.clone(), v));
                            }
                        }
                        _ => refused += 1,
                    }
                    ingested.store(want + 1, Ordering::SeqCst);
                }
                ingest_done.store(true, Ordering::SeqCst);
                (timings, refused, rec)
            });
            let query_thread = s.spawn(|| {
                let mut sched = Schedule::new(spec.query_rate, seed ^ 0x9_0E55);
                let mut rng = SplitMix::new(seed ^ 0x00C0_FFEE);
                let mut timings = Vec::new();
                let mut stats = Vec::new();
                let mut refused = 0u64;
                let mut rec = Vec::new();
                let mut count = fill as u64;
                for k in 0.. {
                    let due = sched.next_due();
                    let draining = due >= seconds;
                    if draining
                        && ((ingest_done.load(Ordering::SeqCst)
                            && count >= ingested.load(Ordering::SeqCst))
                            || due >= seconds + DRAIN_LIMIT_S)
                    {
                        break;
                    }
                    let op = if draining {
                        Op::Stats
                    } else {
                        MIX[k % MIX.len()]
                    };
                    let line = make_query(op, &mut rng, &source, count, spec.window).to_line();
                    sleep_until(start, due);
                    let sent = start.elapsed().as_secs_f64();
                    let reply = query_client.send_raw(&line);
                    let done = start.elapsed().as_secs_f64();
                    match reply {
                        Ok(v) if is_ok(&v) => {
                            if op == Op::Stats {
                                if let Some(c) = int(&v, "trajectories") {
                                    count = count.max(c);
                                    stats.push((done, c));
                                }
                            }
                            if record && !draining {
                                rec.push((line, v));
                            }
                        }
                        _ => refused += 1,
                    }
                    if !draining {
                        timings.push((op, Timing { due, sent, done }));
                    }
                }
                (timings, stats, refused, rec)
            });
            (
                ingest_thread.join().expect("ingest connection thread"),
                query_thread.join().expect("query connection thread"),
            )
        });
    let elapsed = ingest.last().map_or(0.0, |t| t.done);
    report.count(ingest.len() as u64, ingest_refused, "timed ingests");
    report.count(queries.len() as u64, query_refused, "timed queries");

    let due: Vec<f64> = ingest.iter().map(|t| t.due).collect();
    let attributed = visibility_latencies(&due, fill as u64, &stats);
    let unseen = attributed.iter().filter(|v| v.is_none()).count() as u64;
    report.count(
        attributed.len() as u64,
        unseen,
        "ingests never seen by stats",
    );
    let visible: Vec<f64> = attributed.into_iter().flatten().collect();

    // Final barrier, then stream ≡ batch on the live window over the wire.
    let epoch1 = ingest_client
        .request(&Request::Flush)
        .ok()
        .filter(is_ok)
        .and_then(|v| int(&v, "epoch"));
    report.check(epoch1.is_some(), || "final flush refused".into());
    let epochs = epoch1.unwrap_or(epoch0 + 1).saturating_sub(epoch0 + 1);
    check_served_window(
        &mut query_client,
        &live_outcome,
        total - live.len()..total,
        report,
    );
    drop((ingest_client, query_client));
    daemon.stop(report);

    let mut recorded = ingest_rec;
    recorded.extend(query_rec);
    Session {
        config,
        fill,
        arrivals,
        setup_s,
        ingest,
        queries,
        visible,
        elapsed,
        epochs,
        recorded,
        live_outcome,
        live,
        plan_run_ms,
    }
}

/// One query of the mix, with parameters drawn near the workload's own
/// trajectories (and membership ids from the live window).
fn make_query(
    op: Op,
    rng: &mut SplitMix,
    source: &[Trajectory<2>],
    count: u64,
    window: usize,
) -> Request {
    let mut near = || {
        let t = &source[rng.below(source.len())];
        let p = t.points[rng.below(t.points.len())];
        [
            p.x() + 10.0 * (rng.unit() - 0.5),
            p.y() + 10.0 * (rng.unit() - 0.5),
        ]
    };
    match op {
        Op::Nearest => Request::Nearest { point: near() },
        Op::Region => {
            let [x, y] = near();
            Request::Region {
                min: [x - 30.0, y - 30.0],
                max: [x + 30.0, y + 30.0],
            }
        }
        Op::Membership => {
            let live = count.min(window as u64).max(1);
            Request::Membership {
                trajectory: (count.saturating_sub(live) + rng.below(live as usize) as u64) as u32,
            }
        }
        Op::Representatives => Request::Representatives,
        Op::Stats | Op::Ingest => Request::Stats,
    }
}

/// The served snapshot after the final flush must equal the batch pipeline
/// on the live window: counts, every representative (bit for bit through
/// the wire's round-trip float format), and every live trajectory's
/// membership.
fn check_served_window(
    client: &mut Client,
    expected: &TraclusOutcome<2>,
    live_ids: std::ops::Range<usize>,
    report: &mut Report,
) {
    let total = live_ids.end;
    let stats = client.request(&Request::Stats).ok().filter(is_ok);
    report.check(
        stats.as_ref().is_some_and(|v| {
            int(v, "trajectories") == Some(total as u64)
                && int(v, "segments") == Some(expected.database.len() as u64)
                && int(v, "clusters") == Some(expected.clusters.len() as u64)
        }),
        || format!("served stats {stats:?} differ from the batch window"),
    );
    let reps = client.request(&Request::Representatives).ok().filter(is_ok);
    let served = reps
        .as_ref()
        .and_then(|v| v.get("clusters"))
        .and_then(JsonValue::as_array);
    let same = served.is_some_and(|served| {
        served.len() == expected.clusters.len()
            && served.iter().zip(&expected.clusters).all(|(s, c)| {
                let points = s.get("representative").and_then(JsonValue::as_array);
                int(s, "id") == Some(u64::from(c.cluster.id.0))
                    && int(s, "trajectories") == Some(c.cluster.trajectory_cardinality() as u64)
                    && points.is_some_and(|pts| {
                        pts.len() == c.representative.points.len()
                            && pts.iter().zip(&c.representative.points).all(|(q, p)| {
                                let xy = q.as_array().unwrap_or(&[]);
                                xy.len() == 2
                                    && xy[0].as_f64() == Some(p.x())
                                    && xy[1].as_f64() == Some(p.y())
                            })
                    })
            })
    });
    report.check(same, || {
        "served representatives differ from the batch window".into()
    });
    let mut membership: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
    for c in &expected.clusters {
        for t in &c.cluster.trajectories {
            membership
                .entry(t.0)
                .or_default()
                .push(u64::from(c.cluster.id.0));
        }
    }
    let mut wrong = 0;
    let checked = live_ids.len() as u64;
    for id in live_ids {
        let want = membership.get(&(id as u32)).cloned().unwrap_or_default();
        let got = client
            .request(&Request::Membership {
                trajectory: id as u32,
            })
            .ok()
            .filter(is_ok)
            .and_then(|v| {
                v.get("clusters").and_then(JsonValue::as_array).map(|a| {
                    a.iter()
                        .filter_map(JsonValue::as_i64)
                        .map(|i| i as u64)
                        .collect::<Vec<_>>()
                })
            });
        if got.as_ref() != Some(&want) {
            wrong += 1;
        }
    }
    report.count(checked, wrong, "live-window membership checks");
}
