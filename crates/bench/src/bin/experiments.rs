//! CLI driver regenerating the paper's tables and figures.
//!
//! ```text
//! experiments [--out DIR] <id>...   run specific experiments
//! experiments [--out DIR] all      run everything
//! experiments --list               list experiment ids
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an operator-run experiment harness: aborting on a violated expectation is the \
              right behavior"
)]

use std::process::ExitCode;

use traclus_bench::experiments::registry;
use traclus_bench::util::ExperimentContext;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = "results".to_string();
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(dir) => out_dir = dir,
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--list" => {
                for e in registry() {
                    println!("{:<12} {}", e.id, e.description);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("usage: experiments [--out DIR] (<id>... | all | --list)");
                println!("experiments:");
                for e in registry() {
                    println!("  {:<12} {}", e.id, e.description);
                }
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("no experiment requested; try --list or `all`");
        return ExitCode::FAILURE;
    }
    let experiments = registry();
    let selected: Vec<_> = if ids.len() == 1 && ids[0] == "all" {
        experiments.iter().collect()
    } else {
        let mut selected = Vec::new();
        for id in &ids {
            match experiments.iter().find(|e| e.id == *id) {
                Some(e) => selected.push(e),
                None => {
                    eprintln!("unknown experiment `{id}`; try --list");
                    return ExitCode::FAILURE;
                }
            }
        }
        selected
    };
    let ctx = match ExperimentContext::new(&out_dir) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("cannot create output directory {out_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in selected {
        println!("=== {} — {} ===", e.id, e.description);
        #[allow(
            clippy::disallowed_methods,
            reason = "the driver prints each experiment's wall time; nothing consumes it"
        )]
        let start = std::time::Instant::now();
        if let Err(err) = (e.run)(&ctx) {
            eprintln!("experiment {} failed: {err}", e.id);
            return ExitCode::FAILURE;
        }
        println!(
            "=== {} done in {:.1}s ===\n",
            e.id,
            start.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}
