//! CLI for the workspace maintenance tool; see the library crate for the
//! engine. Invoked as `cargo xtask <subcommand>` via the alias in
//! `.cargo/config.toml`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::{baseline, bench_snapshot, run_lint};

const USAGE: &str = "\
usage: cargo xtask <subcommand>

subcommands:
  lint [--root <dir>] [--baseline <file>] [--update-baseline]
      Run the static-analysis pass over the workspace sources.
      --root             scan root (default: the workspace root)
      --baseline         ratchet baseline file (default: <root>/xtask/lint-baseline.txt)
      --update-baseline  rewrite the baseline to the current violation counts

  bench-snapshot [--out <file>] [--prune]
      Run the bench_cluster suite and write the perf snapshot JSON.
      --out              output path (default: <root>/BENCH_cluster.json)
      --prune            drop snapshot rows the run did not re-measure
                         (default: preserve them, so partial runs never
                         clobber the rest of the snapshot)

  bench-snapshot --perfbench [--out <file>]
      Run perfbench once per workload <root>/BENCHMARK.json declares,
      untraced and traced, for its run_seconds, and write the machine
      stamp and result lines as the perf ledger.
      --out              output path (default: <root>/BENCH_perfbench.json)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(sub) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match sub.as_str() {
        "lint" => cmd_lint(&args[1..]),
        "bench-snapshot" => cmd_bench_snapshot(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: this crate's manifest dir is `<root>/xtask`.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits one level under the workspace root")
        .to_path_buf()
}

fn flag_value(args: &[String], flag: &str) -> Result<Option<PathBuf>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(PathBuf::from(v)))
            .ok_or_else(|| format!("{flag} requires a value")),
    }
}

fn cmd_lint(args: &[String]) -> Result<ExitCode, String> {
    for a in args {
        if a.starts_with("--")
            && !["--root", "--baseline", "--update-baseline"].contains(&a.as_str())
        {
            return Err(format!("unknown flag {a:?}\n\n{USAGE}"));
        }
    }
    let root = flag_value(args, "--root")?.unwrap_or_else(workspace_root);
    let baseline_path = flag_value(args, "--baseline")?
        .unwrap_or_else(|| root.join("xtask").join("lint-baseline.txt"));
    let update = args.iter().any(|a| a == "--update-baseline");

    let pinned = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => baseline::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => baseline::Baseline::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", baseline_path.display())),
    };

    let outcome = run_lint(&root, &pinned)?;

    for f in &outcome.hard {
        println!("{f}");
    }
    for (rule, file, was, now) in &outcome.ratchet.regressions {
        println!(
            "[{rule}] {file}: {now} violation(s), baseline pins {was} — fix the new \
             ones or justify and `cargo xtask lint --update-baseline`"
        );
    }
    for (rule, file, was, now) in &outcome.ratchet.improvements {
        println!(
            "note: [{rule}] {file}: down to {now} from pinned {was} — run \
             `cargo xtask lint --update-baseline` to lock in the improvement"
        );
    }

    if update {
        std::fs::write(&baseline_path, baseline::render(&outcome.ratchet_counts))
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        println!(
            "lint: baseline rewritten with {} pinned entr{} at {}",
            outcome.ratchet_counts.len(),
            if outcome.ratchet_counts.len() == 1 {
                "y"
            } else {
                "ies"
            },
            baseline_path.display()
        );
        // Hard findings still gate even while re-pinning.
        return Ok(if outcome.hard.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    if outcome.is_ok() {
        println!(
            "lint: {} files scanned, 0 violations ({} ratchet-pinned entr{})",
            outcome.files_scanned,
            outcome.ratchet_counts.len(),
            if outcome.ratchet_counts.len() == 1 {
                "y"
            } else {
                "ies"
            },
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "lint: FAILED — {} hard finding(s), {} ratchet regression(s) across {} files",
            outcome.hard.len(),
            outcome.ratchet.regressions.len(),
            outcome.files_scanned,
        );
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_bench_snapshot(args: &[String]) -> Result<ExitCode, String> {
    for a in args {
        if a.starts_with("--") && !["--out", "--prune", "--perfbench"].contains(&a.as_str()) {
            return Err(format!("unknown flag {a:?}\n\n{USAGE}"));
        }
    }
    let root = workspace_root();
    let prune = args.iter().any(|a| a == "--prune");
    let perfbench = args.iter().any(|a| a == "--perfbench");
    if perfbench && prune {
        return Err("--prune applies to the bench_cluster snapshot only".to_string());
    }
    if perfbench {
        return perfbench_snapshot(&root, args);
    }
    let out_path = flag_value(args, "--out")?.unwrap_or_else(|| root.join("BENCH_cluster.json"));

    println!("bench-snapshot: running `cargo bench -p traclus-bench --bench bench_cluster`…");
    let output = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["bench", "-p", "traclus-bench", "--bench", "bench_cluster"])
        .current_dir(&root)
        .output()
        .map_err(|e| format!("failed to spawn cargo bench: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "cargo bench failed ({}):\n{}\n{}",
            output.status,
            stdout,
            String::from_utf8_lossy(&output.stderr)
        ));
    }

    let fresh = bench_snapshot::parse_bench_output(&stdout);
    if fresh.is_empty() {
        return Err("cargo bench produced no `bench:` lines to snapshot".to_string());
    }
    // Merge over whatever the checked-in snapshot already holds: a run
    // that measured only some groups (filtered, or a bench file that grew
    // new groups since the last capture) must not clobber the rest.
    let existing = std::fs::read_to_string(&out_path)
        .map(|json| bench_snapshot::parse_snapshot_results(&json))
        .unwrap_or_default();
    let stale = existing
        .iter()
        .filter(|e| !fresh.iter().any(|f| f.label == e.label))
        .count();
    let results = if prune {
        bench_snapshot::merge_results_pruned(&existing, &fresh)
    } else {
        bench_snapshot::merge_results(&existing, &fresh)
    };
    if stale > 0 {
        if prune {
            println!("bench-snapshot: pruning {stale} stale entr(ies) the run did not re-measure");
        } else {
            println!("bench-snapshot: preserving {stale} existing entr(ies) not re-measured");
        }
    }

    std::fs::write(
        &out_path,
        bench_snapshot::render_json(&results, unix_now()?),
    )
    .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    println!(
        "bench-snapshot: {} results written to {}",
        results.len(),
        out_path.display()
    );
    Ok(ExitCode::SUCCESS)
}

/// `bench-snapshot --perfbench`: one perfbench process per declared
/// workload at `--trace 0`, then at `--trace 1`, each run as long as the
/// benchmark declares, recorded verbatim in the ledger.
fn perfbench_snapshot(root: &Path, args: &[String]) -> Result<ExitCode, String> {
    let out_path = flag_value(args, "--out")?.unwrap_or_else(|| root.join("BENCH_perfbench.json"));
    let declared = root.join("BENCHMARK.json");
    let (seconds, workloads) = std::fs::read_to_string(&declared)
        .map_err(|e| format!("cannot read {}: {e}", declared.display()))
        .and_then(|json| bench_snapshot::benchmark_declaration(&json))
        .map_err(|e| format!("{}: {e}", declared.display()))?;

    let mut machine: Option<String> = None;
    let mut runs = Vec::new();
    for trace in ["0", "1"] {
        for workload in &workloads {
            println!("bench-snapshot: perfbench {workload}, {seconds} s, --trace {trace}…");
            let output = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
                .args(["run", "--quiet", "--release", "--offline"])
                .args(["--manifest-path", "perfbench/Cargo.toml", "--"])
                .args(["--workload", workload, "--trace", trace])
                .args(["--seconds", &seconds.to_string()])
                .current_dir(root)
                .output()
                .map_err(|e| format!("failed to spawn perfbench: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                return Err(format!(
                    "perfbench failed ({}):\n{}\n{}",
                    output.status,
                    stdout,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let (stamp, mut found) = bench_snapshot::parse_perfbench_output(&stdout, trace == "1")?;
            if machine.as_ref().is_some_and(|m| *m != stamp) {
                return Err("perfbench's machine stamp changed between runs".to_string());
            }
            machine = Some(stamp);
            runs.append(&mut found);
        }
    }
    let machine = machine.expect("at least one run was parsed");
    let json = bench_snapshot::render_perfbench_json(&machine, seconds, &runs, unix_now()?);
    std::fs::write(&out_path, json)
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    println!(
        "bench-snapshot: {} perfbench runs written to {}",
        runs.len(),
        out_path.display()
    );
    Ok(ExitCode::SUCCESS)
}

/// Seconds since the Unix epoch. Wall-clock is the point here: a snapshot
/// records when the numbers were taken. xtask is exempt from the workspace
/// wall-clock policy.
fn unix_now() -> Result<u64, String> {
    #[allow(clippy::disallowed_methods)]
    let now = std::time::SystemTime::now();
    now.duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .map_err(|e| format!("system clock before the epoch: {e}"))
}
