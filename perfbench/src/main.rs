//! The TRACLUS benchmark: one command, three workloads, end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_dense --seed 2007 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root. It prints a human-readable block with
//! every metric by name and unit, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans to `.perfbench/trace-<workload>-<seed>.json`.
//! `--workload all` runs every workload in turn. The exit code is non-zero
//! when any output check failed.

// Timing is this program's purpose: the workspace-wide ban on wall-clock
// reads guards the library's determinism, which the benchmark only observes.
#![allow(clippy::disallowed_methods)]
#![forbid(unsafe_code)]

mod batch;
mod layers;
mod openloop;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use traclus_json::JsonValue;

use crate::report::{machine_stamp, peak_rss_mb, Report};
use crate::trace::Tracer;
use crate::workloads::{Kind, Workload, WORKLOADS};

struct Args {
    workloads: Vec<&'static Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOADS.iter().collect(),
            "--workload" => {
                let w = Workload::by_name(&value)
                    .unwrap_or_else(|| usage(&format!("unknown workload {value:?}")));
                args.workloads = vec![w];
            }
            "--seed" => {
                args.seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                );
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds takes a positive number"));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        usage("--workload is required");
    }
    args
}

fn main() {
    let args = parse_args();
    let stamp = machine_stamp();
    println!("machine: {}", stamp.to_compact());
    let mut all_correct = true;
    for w in &args.workloads {
        let seed = args.seed.unwrap_or(w.default_seed);
        let mut report = Report::default();
        report.note(format!(
            "seeds: default {}, held out {}",
            w.default_seed, w.held_out_seed
        ));
        let mut tracer = args.trace.then(Tracer::new);
        match w.kind {
            Kind::BatchDense | Kind::BatchSparse => {
                batch::run(w, seed, args.seconds, tracer.as_mut(), &mut report)
            }
            Kind::ServeWindow => serve::run(w, seed, args.seconds, tracer.as_mut(), &mut report),
        }
        match peak_rss_mb() {
            Some(mb) => report.e2e("peak_rss_mb", mb, "MB"),
            None => report.check(false, || "peak resident memory unavailable".into()),
        }
        if let Some(tr) = &tracer {
            write_trace(w.name, seed, &stamp, tr);
        }
        report.print(w.name, seed);
        all_correct &= report.correct();
        println!("{}", report.result_line(args.trace));
    }
    if !all_correct {
        std::process::exit(1);
    }
}

/// Writes the spans of a traced run next to the checkout's other
/// build output.
fn write_trace(workload: &str, seed: u64, stamp: &JsonValue, tr: &Tracer) {
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    let body = JsonValue::object([
        ("workload", JsonValue::from(workload)),
        ("seed", JsonValue::Int(seed as i64)),
        ("machine", stamp.clone()),
        ("spans", tr.to_json()),
    ]);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body.to_compact()));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
