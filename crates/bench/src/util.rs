//! Shared harness utilities: output management, CSV emission, dataset
//! construction and timing. The Section 4.4 entropy curves come from
//! [`traclus_core::EntropyCurve::scan`] itself, which already runs on
//! every available thread.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use traclus_core::{PartitionConfig, SegmentDatabase};
use traclus_data::{AnimalGenerator, HurricaneGenerator};
use traclus_geom::{SegmentDistance, Trajectory};

/// Where an experiment writes its artifacts and how it logs.
pub struct ExperimentContext {
    /// Output directory (created on demand).
    pub out_dir: PathBuf,
}

impl ExperimentContext {
    /// Creates the context, ensuring the output directory exists.
    pub fn new(out_dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let out_dir = out_dir.into();
        fs::create_dir_all(&out_dir)?;
        Ok(Self { out_dir })
    }

    /// Opens a CSV file in the output directory.
    pub fn csv(&self, name: &str, header: &[&str]) -> std::io::Result<CsvWriter> {
        CsvWriter::create(self.out_dir.join(name), header)
    }

    /// Writes a string artifact (e.g. an SVG) into the output directory.
    pub fn write_text(&self, name: &str, content: &str) -> std::io::Result<PathBuf> {
        let path = self.out_dir.join(name);
        fs::write(&path, content)?;
        Ok(path)
    }
}

/// A tiny CSV emitter (numbers formatted with full precision).
pub struct CsvWriter {
    file: std::io::BufWriter<fs::File>,
    path: PathBuf,
    columns: usize,
}

impl CsvWriter {
    /// Creates the file and writes the header row.
    pub fn create(path: impl AsRef<Path>, header: &[&str]) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::io::BufWriter::new(fs::File::create(&path)?);
        writeln!(file, "{}", header.join(","))?;
        Ok(Self {
            file,
            path,
            columns: header.len(),
        })
    }

    /// Writes one row of stringified fields.
    pub fn row(&mut self, fields: &[String]) -> std::io::Result<()> {
        debug_assert_eq!(fields.len(), self.columns, "column count mismatch");
        writeln!(self.file, "{}", fields.join(","))
    }

    /// Writes one row of numbers.
    pub fn num_row(&mut self, fields: &[f64]) -> std::io::Result<()> {
        let fields: Vec<String> = fields.iter().map(|f| format!("{f}")).collect();
        self.row(&fields)
    }

    /// Flushes and returns the written path.
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        self.file.flush()?;
        Ok(self.path)
    }
}

/// Times a closure, returning (result, seconds).
#[allow(
    clippy::disallowed_methods,
    reason = "the experiment harness's one timing primitive; the reading feeds only \
              reported CSV columns"
)]
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// MDL coding precision for the hurricane stand-in: 0.05° ≈ the accuracy
/// of best-track centre fixes on a lat/lon grid.
pub const HURRICANE_MDL_PRECISION: f64 = 0.05;

/// MDL coding precision for the telemetry stand-ins: 10 m, a typical
/// radio-telemetry location error on the Starkey grid.
pub const ANIMAL_MDL_PRECISION: f64 = 10.0;

/// Partitioning config with a dataset-appropriate δ (see
/// [`traclus_core::MdlCost`] on why δ must match the coordinate scale).
pub fn partition_with_precision(precision: f64) -> PartitionConfig {
    PartitionConfig {
        cost: traclus_core::MdlCost::with_precision(precision),
        ..PartitionConfig::default()
    }
}

/// Builds the hurricane stand-in dataset and its segment database.
pub fn hurricane_database(seed: u64) -> (Vec<Trajectory<2>>, SegmentDatabase<2>) {
    let trajectories = HurricaneGenerator::paper_scale(seed);
    let partition = partition_with_precision(HURRICANE_MDL_PRECISION);
    let db =
        SegmentDatabase::from_trajectories(&trajectories, &partition, SegmentDistance::default());
    (trajectories, db)
}

/// Builds the Elk1993 stand-in dataset and database.
pub fn elk_database(seed: u64) -> (Vec<Trajectory<2>>, SegmentDatabase<2>) {
    let trajectories = AnimalGenerator::elk1993(seed);
    let partition = partition_with_precision(ANIMAL_MDL_PRECISION);
    let db =
        SegmentDatabase::from_trajectories(&trajectories, &partition, SegmentDistance::default());
    (trajectories, db)
}

/// Builds the Deer1995 stand-in dataset and database.
pub fn deer_database(seed: u64) -> (Vec<Trajectory<2>>, SegmentDatabase<2>) {
    let trajectories = AnimalGenerator::deer1995(seed);
    let partition = partition_with_precision(ANIMAL_MDL_PRECISION);
    let db =
        SegmentDatabase::from_trajectories(&trajectories, &partition, SegmentDistance::default());
    (trajectories, db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writer_emits_header_and_rows() {
        let dir = std::env::temp_dir().join("traclus_bench_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let mut w = CsvWriter::create(&path, &["a", "b"]).unwrap();
        w.num_row(&[1.0, 2.5]).unwrap();
        w.row(&["x".into(), "y".into()]).unwrap();
        let written = w.finish().unwrap();
        let content = fs::read_to_string(written).unwrap();
        assert_eq!(content, "a,b\n1,2.5\nx,y\n");
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn hurricane_database_builds() {
        let (trajs, db) = hurricane_database(1);
        assert_eq!(trajs.len(), 570);
        assert!(
            db.len() > 1_000,
            "partitioning yields many segments: {}",
            db.len()
        );
    }
}
