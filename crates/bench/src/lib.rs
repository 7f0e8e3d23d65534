//! # traclus-bench
//!
//! Experiment harness regenerating every table and figure of the TRACLUS
//! evaluation (Section 5 + appendices).
//!
//! Run `cargo run -p traclus-bench --release --bin experiments -- all`
//! to regenerate everything into `results/` (CSV + SVG), or pass a single
//! experiment id (`fig16`, `fig17`, …; see `experiments --help`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod util;

pub use util::{CsvWriter, ExperimentContext};
