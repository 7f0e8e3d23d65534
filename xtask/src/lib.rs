//! Workspace maintenance tool, in the style of rustc's `tidy`.
//!
//! Two subcommands (see `src/main.rs` for the CLI):
//!
//! * `cargo xtask lint` — dependency-free static analysis over the
//!   workspace's own sources enforcing the determinism, robustness, and
//!   header invariants ([`rules`]); violations grandfathered at rule
//!   introduction are pinned by a ratcheting baseline ([`baseline`]).
//! * `cargo xtask bench-snapshot` — runs the `bench_cluster` benchmark
//!   suite and captures the medians as a checked-in JSON perf snapshot
//!   ([`bench_snapshot`]); with `--perfbench` it records the repository
//!   benchmark's untraced and traced runs as the end-to-end perf ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod bench_snapshot;
pub mod rules;
pub mod scan;

use std::path::Path;

use baseline::{Baseline, RatchetReport};
use rules::Finding;

/// Everything one lint pass produced, for the CLI (and tests) to render
/// and turn into an exit code.
#[derive(Debug)]
pub struct LintOutcome {
    /// Files scanned, for the summary line.
    pub files_scanned: usize,
    /// Hard findings (non-ratcheted rules): any of these is a failure.
    pub hard: Vec<Finding>,
    /// Current per-(rule, file) counts for ratcheted rules.
    pub ratchet_counts: Baseline,
    /// Ratchet comparison against the pinned baseline.
    pub ratchet: RatchetReport,
}

impl LintOutcome {
    /// Whether the whole pass gates green.
    pub fn is_ok(&self) -> bool {
        self.hard.is_empty() && self.ratchet.is_ok()
    }
}

/// Runs every rule over the sources under `root`, netting ratcheted rules
/// against `pinned_baseline` (the parsed `lint-baseline.txt`; empty map if
/// the file does not exist yet).
pub fn run_lint(root: &Path, pinned_baseline: &Baseline) -> Result<LintOutcome, String> {
    let files = scan::scan_root(root)?;
    let mut findings = Vec::new();
    for file in &files {
        rules::check_file(file, &mut findings);
    }
    let ratcheted = [rules::UNWRAP_RATCHET];
    let ratchet_counts = baseline::counts_of(&findings, &ratcheted);
    let hard: Vec<Finding> = findings
        .into_iter()
        .filter(|f| !ratcheted.contains(&f.rule))
        .collect();
    let ratchet = baseline::compare(pinned_baseline, &ratchet_counts);
    Ok(LintOutcome {
        files_scanned: files.len(),
        hard,
        ratchet_counts,
        ratchet,
    })
}
