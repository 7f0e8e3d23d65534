//! What one workload run reports: metrics with units, operation counts,
//! free-form notes, and the machine stamp.

use std::path::Path;
use std::process::Command;

use traclus_json::JsonValue;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (untraced measurements).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Operations attempted (runs, requests, output checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// Human-readable context: sample counts, parameters, failures.
    pub notes: Vec<String>,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Counts one checked operation; a failed check is also noted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            if self
                .notes
                .iter()
                .filter(|n| n.starts_with("FAILED"))
                .count()
                < 20
            {
                self.notes.push(format!("FAILED: {what}"));
            }
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.notes.push(format!("FAILED: {failed} of {n} {what}"));
        }
    }

    /// Adds a note.
    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Failed ÷ attempted.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .end_to_end
                .iter()
                .chain(&self.per_layer)
                .all(|m| m.value.is_finite())
    }

    /// Prints the human-readable block: every metric by name and unit.
    pub fn print(&self, workload: &str, seed: u64) {
        println!("== {workload} (seed {seed})");
        for n in &self.notes {
            println!("   {n}");
        }
        for (title, metrics) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            println!("   -- {title}");
            for m in metrics {
                println!("   {:<28} {:>16.4} {}", m.name, m.value, m.unit);
            }
        }
        println!(
            "   {:<28} {:>16.4} ratio ({} failed of {} attempted)",
            "failed_ratio",
            self.failed_ratio(),
            self.failed,
            self.attempted
        );
    }

    /// The one-line result: end-to-end metrics untraced, per-layer metrics
    /// traced.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        JsonValue::object([
            ("correct", JsonValue::from(self.correct())),
            ("attempted", JsonValue::Int(self.attempted as i64)),
            ("failed", JsonValue::Int(self.failed as i64)),
            (
                "metrics",
                JsonValue::object(metrics.iter().map(|m| {
                    (
                        m.name,
                        JsonValue::object([
                            ("value", JsonValue::from(m.value)),
                            ("unit", JsonValue::from(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .to_compact()
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Where and with what a result was produced, so numbers from different
/// machines or builds are never compared silently.
pub fn machine_stamp() -> JsonValue {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit =
        run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none (not a git checkout)".into());
    let rustc = run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let flags = match std::env::var("RUSTFLAGS") {
        Ok(f) => format!("RUSTFLAGS={f:?}"),
        Err(_) => {
            let config = std::fs::read_to_string(".cargo/config.toml").unwrap_or_default();
            if config.contains("target-cpu=native") {
                "target-cpu=native (.cargo/config.toml)".to_string()
            } else {
                "default (no target-cpu)".to_string()
            }
        }
    };
    JsonValue::object([
        ("cores", JsonValue::from(cores)),
        ("commit", JsonValue::from(commit)),
        ("source_digest", JsonValue::from(source_digest())),
        ("rustc", JsonValue::from(rustc)),
        ("build_flags", JsonValue::from(flags)),
    ])
}

/// FNV-1a over the library sources (`crates/**`, root manifests), so a
/// result from a checkout without git history still names its code.
fn source_digest() -> String {
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.push(Path::new("Cargo.toml").to_path_buf());
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_the_requested_metric_set() {
        let mut r = Report::default();
        r.e2e("run_ms", 1.5, "ms");
        r.layer("group.ms", 1.0, "ms");
        r.check(true, String::new);
        let line = r.result_line(false);
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_i64), Some(1));
        let metrics = v.get("metrics").unwrap();
        assert!(metrics.get("run_ms").is_some());
        assert!(metrics.get("group.ms").is_none());
        assert!(JsonValue::parse(&r.result_line(true))
            .unwrap()
            .get("metrics")
            .unwrap()
            .get("group.ms")
            .is_some());
    }

    #[test]
    fn a_failed_check_or_a_non_finite_metric_is_incorrect() {
        let mut r = Report::default();
        r.check(false, || "mismatch".into());
        assert!(!r.correct());
        assert_eq!(r.failed_ratio(), 1.0);
        let mut r = Report::default();
        r.e2e("x", f64::NAN, "ms");
        assert!(!r.correct());
    }
}
