//! Load generator for the `traclus-server` daemon: replays a synthetic
//! hurricane dataset through N concurrent client connections, then
//! hammers the query surface, reporting sustained throughput and latency
//! percentiles for both phases.
//!
//! The daemon runs in-process on an ephemeral port, so the numbers
//! include the full wire path (encode → TCP loopback → parse → dispatch
//! → encode → parse) without cross-process noise.
//!
//! ```sh
//! cargo run --release --example load_generator            # full run
//! cargo run --release --example load_generator -- --smoke # CI smoke
//! ```
//!
//! `--smoke` shrinks the workload to a few seconds and exits non-zero on
//! any protocol error — CI runs it as the serving smoke gate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use traclus::data::{HurricaneConfig, HurricaneGenerator};
use traclus::json::JsonValue;
use traclus::prelude::*;

struct LoadConfig {
    clients: usize,
    tracks: usize,
    queries_per_client: usize,
    smoke: bool,
}

fn parse_args() -> LoadConfig {
    let mut config = LoadConfig {
        clients: 4,
        tracks: 128,
        queries_per_client: 400,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                config.smoke = true;
                config.clients = 2;
                config.tracks = 16;
                config.queries_per_client = 50;
            }
            "--clients" => {
                config.clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients takes a positive integer");
            }
            "--tracks" => {
                config.tracks = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tracks takes a positive integer");
            }
            "--queries" => {
                config.queries_per_client = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--queries takes a positive integer");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: load_generator [--smoke] [--clients N] [--tracks N] [--queries N]"
                );
                std::process::exit(2);
            }
        }
    }
    config.clients = config.clients.max(1);
    config
}

/// Latency percentiles over one phase's per-request samples.
struct Percentiles {
    count: usize,
    p50_micros: u64,
    p90_micros: u64,
    p99_micros: u64,
    max_micros: u64,
}

fn percentiles(mut samples: Vec<u64>) -> Percentiles {
    samples.sort_unstable();
    let pick = |q: f64| -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let idx = ((samples.len() - 1) as f64 * q).round() as usize;
        samples[idx.min(samples.len() - 1)]
    };
    Percentiles {
        count: samples.len(),
        p50_micros: pick(0.50),
        p90_micros: pick(0.90),
        p99_micros: pick(0.99),
        max_micros: samples.last().copied().unwrap_or(0),
    }
}

struct PhaseResult {
    label: &'static str,
    elapsed_secs: f64,
    latency: Percentiles,
}

impl PhaseResult {
    fn throughput(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.latency.count as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    fn print(&self) {
        println!(
            "{:<8} {:>7} requests in {:>7.3} s  ({:>9.1} req/s)  p50 {:>6} µs  p90 {:>6} µs  p99 {:>6} µs  max {:>6} µs",
            self.label,
            self.latency.count,
            self.elapsed_secs,
            self.throughput(),
            self.latency.p50_micros,
            self.latency.p90_micros,
            self.latency.p99_micros,
            self.latency.max_micros,
        );
    }
}

fn ingest_request(t: &Trajectory2) -> Request {
    Request::Ingest {
        points: t.points.iter().map(|p| [p.x(), p.y()]).collect(),
        weight: None,
    }
}

fn check_ok(resp: &JsonValue, what: &str, failures: &AtomicUsize) {
    if resp.get("ok") != Some(&JsonValue::Bool(true)) {
        eprintln!("{what} failed: {}", resp.to_compact());
        failures.fetch_add(1, Ordering::SeqCst);
    }
}

// The whole point of this harness is measuring wall-clock latency; the
// production crates stay `Instant`-free.
#[allow(clippy::disallowed_methods)]
fn timed_request(
    client: &mut Client,
    request: &Request,
    samples: &mut Vec<u64>,
) -> std::io::Result<JsonValue> {
    let started = Instant::now();
    let resp = client.request(request)?;
    samples.push(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
    Ok(resp)
}

#[allow(clippy::disallowed_methods)] // harness timing, see above
fn run_phase(
    label: &'static str,
    addr: std::net::SocketAddr,
    jobs: Vec<Vec<Request>>,
    failures: &AtomicUsize,
) -> PhaseResult {
    let started = Instant::now();
    let all_samples: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|requests| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connect");
                    let mut samples = Vec::with_capacity(requests.len());
                    for request in &requests {
                        let resp = timed_request(&mut client, request, &mut samples)
                            .expect("request round-trip");
                        check_ok(&resp, label, failures);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    PhaseResult {
        label,
        elapsed_secs: started.elapsed().as_secs_f64(),
        latency: percentiles(all_samples.into_iter().flatten().collect()),
    }
}

fn query_mix(trajectories: &[Trajectory2], queries: usize, salt: usize) -> Vec<Request> {
    (0..queries)
        .map(|k| match (k + salt) % 5 {
            0 => Request::Stats,
            1 => Request::Representatives,
            2 => {
                let t = &trajectories[(k * 7 + salt) % trajectories.len()];
                let p = &t.points[t.points.len() / 2];
                Request::Nearest {
                    point: [p.x(), p.y()],
                }
            }
            3 => Request::Membership {
                trajectory: ((k * 13 + salt) % trajectories.len()) as u32,
            },
            _ => {
                let t = &trajectories[(k * 3 + salt) % trajectories.len()];
                let (min, max) = bounding_box(t);
                Request::Region { min, max }
            }
        })
        .collect()
}

fn bounding_box(t: &Trajectory2) -> ([f64; 2], [f64; 2]) {
    let mut min = [f64::INFINITY; 2];
    let mut max = [f64::NEG_INFINITY; 2];
    for p in &t.points {
        for d in 0..2 {
            min[d] = min[d].min(p.coords[d]);
            max[d] = max[d].max(p.coords[d]);
        }
    }
    (min, max)
}

fn main() {
    let load = parse_args();
    let trajectories = HurricaneGenerator::new(HurricaneConfig {
        tracks: load.tracks,
        seed: 2007,
        ..HurricaneConfig::default()
    })
    .generate();

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            traclus: TraclusConfig {
                eps: 6.0,
                min_lns: 4,
                ..TraclusConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.run());
    println!(
        "daemon on {addr}: {} tracks, {} clients, {} queries/client{}",
        trajectories.len(),
        load.clients,
        load.queries_per_client,
        if load.smoke { " (smoke)" } else { "" },
    );

    let failures = AtomicUsize::new(0);

    // Phase 1 — ingest: the dataset striped across the client connections.
    let mut ingest_jobs: Vec<Vec<Request>> = (0..load.clients).map(|_| Vec::new()).collect();
    for (k, t) in trajectories.iter().enumerate() {
        ingest_jobs[k % load.clients].push(ingest_request(t));
    }
    let ingest = run_phase("ingest", addr, ingest_jobs, &failures);
    ingest.print();

    // Barrier: all queued work applied and published before querying.
    let mut control = Client::connect(addr).expect("control connect");
    let resp = control.request(&Request::Flush).expect("flush");
    check_ok(&resp, "flush", &failures);

    // Phase 2 — queries: a fixed op mix per client over the full dataset.
    let query_jobs: Vec<Vec<Request>> = (0..load.clients)
        .map(|salt| query_mix(&trajectories, load.queries_per_client, salt))
        .collect();
    let query = run_phase("query", addr, query_jobs, &failures);
    query.print();

    // Sanity: the served state covers the whole dataset and found clusters.
    let resp = control.request(&Request::Stats).expect("stats");
    check_ok(&resp, "stats", &failures);
    let served = resp.get("trajectories").and_then(JsonValue::as_i64);
    let clusters = resp
        .get("clusters")
        .and_then(JsonValue::as_i64)
        .unwrap_or(0);
    if served != Some(trajectories.len() as i64) {
        eprintln!(
            "SMOKE FAILURE: daemon serves {served:?} trajectories, expected {}",
            trajectories.len()
        );
        failures.fetch_add(1, Ordering::SeqCst);
    }
    if clusters == 0 {
        eprintln!("SMOKE FAILURE: daemon found no clusters");
        failures.fetch_add(1, Ordering::SeqCst);
    }
    println!(
        "served state: {} trajectories, {} clusters",
        served.unwrap_or(-1),
        clusters
    );

    let resp = control.request(&Request::Shutdown).expect("shutdown");
    check_ok(&resp, "shutdown", &failures);
    serving
        .join()
        .expect("serving thread")
        .expect("clean shutdown");

    let failed = failures.load(Ordering::SeqCst);
    if failed > 0 {
        eprintln!("{failed} request(s) failed");
        std::process::exit(1);
    }
}
