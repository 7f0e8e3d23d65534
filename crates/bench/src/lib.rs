//! # traclus-bench
//!
//! Experiment harness regenerating every table and figure of the TRACLUS
//! evaluation (Section 5 + appendices).
//!
//! Run `cargo run -p traclus-bench --release --bin experiments -- all`
//! to regenerate everything into `results/` (CSV + SVG), or pass a single
//! experiment id (`fig16`, `fig17`, …; see `experiments --help`).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an operator-run experiment harness: aborting on a violated expectation is the \
              right behavior"
)]

pub mod experiments;
pub mod util;

pub use util::{CsvWriter, ExperimentContext};
