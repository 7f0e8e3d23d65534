//! Workspace maintenance tool, invoked as `cargo xtask <subcommand>` via
//! the alias in `.cargo/config.toml`. Its one subcommand, `bench-snapshot`,
//! records the repository benchmark's untraced and traced runs as the
//! checked-in end-to-end perf ledger ([`bench_snapshot`]).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an operator-run tool: aborting on a violated expectation is the right behavior"
)]

mod bench_snapshot;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: cargo xtask <subcommand>

subcommands:
  bench-snapshot [--out <file>]
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

/// `bench-snapshot`: one perfbench process per declared workload at
/// `--trace 0`, then at `--trace 1`, each run as long as the benchmark
/// declares, recorded verbatim in the ledger.
fn cmd_bench_snapshot(args: &[String]) -> Result<ExitCode, String> {
    for a in args {
        if a.starts_with("--") && a != "--out" {
            return Err(format!("unknown flag {a:?}\n\n{USAGE}"));
        }
    }
    let root = workspace_root();
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
                .current_dir(&root)
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

/// Seconds since the Unix epoch.
fn unix_now() -> Result<u64, String> {
    #[allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "a snapshot records when its numbers were taken"
    )]
    let now = std::time::SystemTime::now();
    now.duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .map_err(|e| format!("system clock before the epoch: {e}"))
}

#[cfg(test)]
mod tests {
    use super::workspace_root;

    /// The trimmed `key = value` lines of the `[name]` table in a manifest,
    /// comments and blank lines left out; `None` when the table is absent.
    fn table(manifest: &str, name: &str) -> Option<Vec<String>> {
        let header = format!("[{name}]");
        let mut lines = manifest.lines().map(str::trim);
        lines.find(|l| *l == header)?;
        Some(
            lines
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect(),
        )
    }

    /// A crate without `[lints] workspace = true` escapes every rule, and a
    /// misspelled lint name in the table only warns, so both are checked
    /// here rather than trusted.
    #[test]
    fn every_member_opts_into_the_workspace_lint_table() {
        let root = workspace_root();
        let read = |dir: &str| std::fs::read_to_string(root.join(dir).join("Cargo.toml")).unwrap();
        let workspace = read(".");
        let members_start = workspace.find("\nmembers = [").expect("a members list");
        let members = &workspace[members_start..];
        let members = &members[..members.find(']').unwrap()];
        let opted_in: Vec<&str> = members
            .split('"')
            .skip(1)
            .step_by(2)
            .filter(|m| !m.starts_with("vendor/"))
            .collect();
        assert!(opted_in.contains(&"xtask"), "{opted_in:?}");
        for dir in std::iter::once(".").chain(opted_in) {
            assert_eq!(
                table(&read(dir), "lints"),
                Some(vec!["workspace = true".to_string()]),
                "{dir}/Cargo.toml must opt into the workspace lints"
            );
        }
        let mut lints = table(&workspace, "workspace.lints.rust").unwrap_or_default();
        lints.extend(table(&workspace, "workspace.lints.clippy").unwrap_or_default());
        lints.sort();
        assert_eq!(
            lints,
            [
                "allow_attributes_without_reason = \"warn\"",
                "expect_used = \"warn\"",
                "missing_docs = \"warn\"",
                "unsafe_code = \"forbid\"",
                "unwrap_used = \"warn\"",
            ]
        );
    }
}
