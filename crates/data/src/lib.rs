//! # traclus-data
//!
//! Dataset substrate for the TRACLUS reproduction.
//!
//! The paper evaluates on two real datasets that can no longer be
//! downloaded (Section 5.1): the Atlantic *Best Track* hurricane extract
//! (570 trajectories / 17 736 points) and the Starkey telemetry sets
//! Elk1993 (33 / 47 204) and Deer1995 (32 / 20 065). This crate provides
//!
//! * [`hurricane::HurricaneGenerator`] and [`animal::AnimalGenerator`] —
//!   seeded synthetic stand-ins matching those datasets' counts, scales
//!   and movement regimes (see DESIGN.md §4 for the substitution
//!   rationale);
//! * [`scene`] — labelled corridor+noise scenes for the Figure 23
//!   robustness experiment and for ground-truth validation;
//! * [`io`] — CSV and best-track-style parsers so the *real* files can be
//!   dropped in unchanged if available;
//! * [`loader`] and [`geolife`] — the [`DatasetLoader`] trait unifying
//!   every on-disk format (GeoLife PLT directories, generic timestamped
//!   CSV with a configurable column mapping, and the legacy formats)
//!   behind one interface with shared gap-splitting / downsampling
//!   preprocessing.

pub mod animal;
pub mod geolife;
pub mod hurricane;
pub mod io;
pub mod loader;
pub mod rng_util;
pub mod scene;

pub use animal::{AnimalConfig, AnimalGenerator, Corridor, Habitat};
pub use geolife::{parse_plt, read_plt_file, GeoLifeLoader};
pub use hurricane::{HurricaneConfig, HurricaneGenerator};
pub use io::{parse_best_track, read_csv, write_csv, IoError};
pub use loader::{
    parse_timestamp, read_timed_csv, BestTrackLoader, CsvSchema, DatasetLoader,
    InterchangeCsvLoader, LoadOptions, TimedCsvLoader,
};
pub use scene::{default_backbones, generate_scene, Scene, SceneConfig, TruthLabel};
