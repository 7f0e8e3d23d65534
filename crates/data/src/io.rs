//! Trajectory I/O: a simple CSV interchange format plus a best-track-style
//! parser, so the pipeline runs unchanged on the paper's *real* datasets if
//! a user supplies them (the original URLs are dead; see DESIGN.md §4).
//!
//! CSV format (one point per row, trajectories grouped by id):
//!
//! ```text
//! traj_id,x,y
//! 0,12.5,-70.2
//! 0,13.1,-71.0
//! 1,30.0,-50.0
//! ```

use std::io::{BufRead, Write};

use traclus_geom::{Point2, Trajectory, TrajectoryId};

/// Errors raised by the loaders.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed row, with line number and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A loader-level schema problem independent of any particular row
    /// (e.g. a column mapping that references a column the file cannot
    /// have, or a dataset directory with the wrong layout).
    Schema(String),
    /// An error raised while reading a specific file of a multi-file
    /// dataset (e.g. one PLT log of a GeoLife directory), wrapping the
    /// inner error with the offending path.
    InFile {
        /// The file that failed to load.
        path: std::path::PathBuf,
        /// What went wrong inside it.
        source: Box<IoError>,
    },
}

impl IoError {
    /// Wraps an error with the path of the file it occurred in, so
    /// multi-file loaders report *which* file is malformed.
    pub fn in_file(path: impl Into<std::path::PathBuf>, source: IoError) -> Self {
        IoError::InFile {
            path: path.into(),
            source: Box::new(source),
        }
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::Schema(message) => write!(f, "schema error: {message}"),
            IoError::InFile { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Parse { .. } | IoError::Schema(_) => None,
            IoError::InFile { source, .. } => Some(source.as_ref()),
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes trajectories as CSV (`traj_id,x,y` with a header row).
pub fn write_csv<W: Write>(mut w: W, trajectories: &[Trajectory<2>]) -> Result<(), IoError> {
    writeln!(w, "traj_id,x,y")?;
    for t in trajectories {
        for p in &t.points {
            writeln!(w, "{},{},{}", t.id.0, p.x(), p.y())?;
        }
    }
    Ok(())
}

/// Reads the CSV written by [`write_csv`] (header optional). Rows with the
/// same `traj_id` must be contiguous; ids are re-densified in first-seen
/// order so the result satisfies the dense-id invariant downstream code
/// expects.
pub fn read_csv<R: BufRead>(r: R) -> Result<Vec<Trajectory<2>>, IoError> {
    let mut out: Vec<Trajectory<2>> = Vec::new();
    let mut current_source_id: Option<u64> = None;
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if lineno == 0 && trimmed.starts_with("traj_id") {
            continue; // header
        }
        let mut parts = trimmed.split(',');
        let parse = |field: Option<&str>, what: &str| -> Result<f64, IoError> {
            field
                .ok_or_else(|| IoError::Parse {
                    line: lineno + 1,
                    message: format!("missing {what}"),
                })?
                .trim()
                .parse::<f64>()
                .map_err(|e| IoError::Parse {
                    line: lineno + 1,
                    message: format!("bad {what}: {e}"),
                })
        };
        let id_field = parts.next().ok_or_else(|| IoError::Parse {
            line: lineno + 1,
            message: "missing traj_id".to_string(),
        })?;
        let source_id: u64 = id_field.trim().parse().map_err(|e| IoError::Parse {
            line: lineno + 1,
            message: format!("bad traj_id: {e}"),
        })?;
        let x = parse(parts.next(), "x")?;
        let y = parse(parts.next(), "y")?;
        if current_source_id != Some(source_id) {
            current_source_id = Some(source_id);
            out.push(Trajectory::new(TrajectoryId(out.len() as u32), Vec::new()));
        }
        #[expect(
            clippy::expect_used,
            reason = "a trajectory is pushed before its first point"
        )]
        out.last_mut()
            .expect("pushed above")
            .points
            .push(Point2::xy(x, y));
    }
    Ok(out)
}

/// Parses a best-track-style listing: per-storm header lines followed by
/// 6-hourly fix lines, resembling the Unisys/HURDAT layout the paper's
/// hurricane data used. Expected shape:
///
/// ```text
/// STORM ALPHA 1999
/// 12.5 -45.0 65 990
/// 13.1 -46.2 70 985
/// STORM BETA 1999
/// ...
/// ```
///
/// Fix lines are `lat lon [wind [pressure]]` (whitespace separated; the
/// trailing intensity fields are ignored — the paper extracts latitude and
/// longitude only). Output points are `(x = lon, y = lat)`.
pub fn parse_best_track(text: &str) -> Result<Vec<Trajectory<2>>, IoError> {
    let mut out: Vec<Trajectory<2>> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.to_ascii_uppercase().starts_with("STORM") {
            out.push(Trajectory::new(TrajectoryId(out.len() as u32), Vec::new()));
            continue;
        }
        let mut fields = line.split_whitespace();
        let lat: f64 = fields
            .next()
            .ok_or_else(|| IoError::Parse {
                line: lineno + 1,
                message: "missing latitude".into(),
            })?
            .parse()
            .map_err(|e| IoError::Parse {
                line: lineno + 1,
                message: format!("bad latitude: {e}"),
            })?;
        let lon: f64 = fields
            .next()
            .ok_or_else(|| IoError::Parse {
                line: lineno + 1,
                message: "missing longitude".into(),
            })?
            .parse()
            .map_err(|e| IoError::Parse {
                line: lineno + 1,
                message: format!("bad longitude: {e}"),
            })?;
        let storm = out.last_mut().ok_or_else(|| IoError::Parse {
            line: lineno + 1,
            message: "fix line before any STORM header".into(),
        })?;
        storm.points.push(Point2::xy(lon, lat));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Vec<Trajectory<2>> {
        vec![
            Trajectory::new(
                TrajectoryId(0),
                vec![Point2::xy(1.0, 2.0), Point2::xy(3.5, -4.25)],
            ),
            Trajectory::new(TrajectoryId(1), vec![Point2::xy(-7.0, 0.0)]),
        ]
    }

    #[test]
    fn csv_round_trip() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &sample()).unwrap();
        let parsed = read_csv(Cursor::new(buf)).unwrap();
        assert_eq!(parsed, sample());
    }

    #[test]
    fn csv_without_header() {
        let text = "0,1.0,2.0\n0,2.0,3.0\n5,9.0,9.0\n";
        let parsed = read_csv(Cursor::new(text)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].points.len(), 2);
        assert_eq!(
            parsed[1].id,
            TrajectoryId(1),
            "source id 5 re-densified to 1"
        );
    }

    #[test]
    fn csv_skips_blank_lines() {
        let text = "traj_id,x,y\n\n0,1,2\n\n0,3,4\n";
        let parsed = read_csv(Cursor::new(text)).unwrap();
        assert_eq!(parsed[0].points.len(), 2);
    }

    #[test]
    fn csv_reports_bad_rows_with_line_numbers() {
        let text = "traj_id,x,y\n0,1.0,not_a_number\n";
        let err = read_csv(Cursor::new(text)).unwrap_err();
        match err {
            IoError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("bad y"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn csv_missing_column() {
        let text = "0,1.0\n";
        assert!(matches!(
            read_csv(Cursor::new(text)),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn best_track_parsing() {
        let text = "\
# Atlantic 1999 extract
STORM ALPHA 1999
12.5 -45.0 65 990
13.1 -46.2 70 985
STORM BETA 1999
20.0 -80.0
21.5 -81.0 40
";
        let storms = parse_best_track(text).unwrap();
        assert_eq!(storms.len(), 2);
        assert_eq!(storms[0].points.len(), 2);
        assert_eq!(storms[0].points[0], Point2::xy(-45.0, 12.5), "x=lon, y=lat");
        assert_eq!(storms[1].points.len(), 2);
    }

    #[test]
    fn best_track_fix_before_header_is_an_error() {
        let err = parse_best_track("12.0 -40.0\n").unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn best_track_bad_coordinate() {
        let err = parse_best_track("STORM X 2000\nabc -40.0\n").unwrap_err();
        match err {
            IoError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("latitude"));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn error_display_formats() {
        let e = IoError::Parse {
            line: 3,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "line 3: boom");
    }
}
