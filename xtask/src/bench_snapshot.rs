//! Perf-snapshot capture: parse the bench harness output into JSON.
//!
//! The vendored criterion stand-in prints one line per benchmark:
//!
//! ```text
//! bench: cluster/rtree/n1000           median      1.234ms/iter
//! ```
//!
//! `bench-snapshot` runs `cargo bench -p traclus-bench --bench
//! bench_cluster`, parses those lines, and writes `BENCH_cluster.json` — a
//! checked-in snapshot so perf changes show up in review diffs next to the
//! code that caused them. Medians move with hardware and load; the
//! snapshot is a reviewed reference point, not a CI gate.
//!
//! `bench-snapshot --perfbench` keeps the end-to-end ledger instead: it
//! runs the repository's benchmark (`perfbench/`) once per workload that
//! `BENCHMARK.json` declares, untraced and then traced, each in its own
//! process as the benchmark runs it, and writes `BENCH_perfbench.json`
//! with perfbench's `machine:` stamp and each run's final JSON result
//! line, both copied verbatim ([`parse_perfbench_output`],
//! [`render_perfbench_json`]).

use traclus_json::JsonValue;

/// One parsed benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark label, e.g. `cluster/rtree/n1000`.
    pub label: String,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
}

/// Extracts every `bench: <label> median <duration>/iter` line.
pub fn parse_bench_output(output: &str) -> Vec<BenchResult> {
    let mut results = Vec::new();
    for line in output.lines() {
        let Some(rest) = line.trim().strip_prefix("bench:") else {
            continue;
        };
        let Some(median_at) = rest.rfind(" median ") else {
            continue;
        };
        let label = rest[..median_at].trim().to_string();
        let duration = rest[median_at + " median ".len()..]
            .trim()
            .trim_end_matches("/iter")
            .trim();
        if let Some(median_ns) = parse_duration_ns(duration) {
            results.push(BenchResult { label, median_ns });
        }
    }
    results
}

/// Parses `Duration`'s `Debug` rendering (`123ns`, `4.567µs`, `1.2ms`,
/// `3.4s`) into nanoseconds.
pub fn parse_duration_ns(s: &str) -> Option<f64> {
    // Longest suffixes first so `ns` is not taken as `s`.
    for (suffix, scale) in [
        ("ns", 1.0),
        ("µs", 1e3),
        ("us", 1e3),
        ("ms", 1e6),
        ("s", 1e9),
    ] {
        if let Some(num) = s.strip_suffix(suffix) {
            return num.trim().parse::<f64>().ok().map(|v| v * scale);
        }
    }
    None
}

/// Renders the snapshot as pretty-printed JSON (no serde in this tree;
/// labels are plain ASCII bench ids, escaped defensively anyway).
pub fn render_json(results: &[BenchResult], captured_unix_secs: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"suite\": \"bench_cluster\",\n");
    out.push_str(&format!(
        "  \"captured_unix_secs\": {captured_unix_secs},\n"
    ));
    out.push_str("  \"unit\": \"ns_per_iter_median\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"label\": \"{}\", \"median_ns\": {:.1} }}{comma}\n",
            escape_json(&r.label),
            r.median_ns
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a previously rendered snapshot back into its results — the
/// inverse of [`render_json`] over the subset of JSON that renderer
/// emits (one `{ "label": …, "median_ns": … }` object per line). Lines
/// that do not look like result entries are skipped, so a hand-edited or
/// truncated file degrades to "fewer preserved entries", never an error.
pub fn parse_snapshot_results(json: &str) -> Vec<BenchResult> {
    let mut results = Vec::new();
    for line in json.lines() {
        let Some(label_at) = line.find("\"label\": \"") else {
            continue;
        };
        let rest = &line[label_at + "\"label\": \"".len()..];
        let Some((label, rest)) = take_json_string(rest) else {
            continue;
        };
        let Some(median_at) = rest.find("\"median_ns\": ") else {
            continue;
        };
        let tail = &rest[median_at + "\"median_ns\": ".len()..];
        let number: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        if let Ok(median_ns) = number.parse::<f64>() {
            results.push(BenchResult { label, median_ns });
        }
    }
    results
}

/// Reads a JSON string body up to its closing quote, undoing
/// [`escape_json`]; returns the decoded string and the remainder after
/// the quote.
fn take_json_string(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                'u' => {
                    let (j, _) = chars.nth(3)?;
                    let code = u32::from_str_radix(s.get(j - 3..=j)?, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                escaped => out.push(escaped),
            },
            c => out.push(c),
        }
    }
    None
}

/// Merges freshly measured results over an existing snapshot: a label
/// present in both takes the fresh number (in its existing position);
/// labels only in `existing` are preserved — so re-running a subset of
/// bench groups updates those entries without clobbering the rest — and
/// brand-new labels append in measurement order.
pub fn merge_results(existing: &[BenchResult], fresh: &[BenchResult]) -> Vec<BenchResult> {
    let mut merged: Vec<BenchResult> = existing
        .iter()
        .map(|e| {
            fresh
                .iter()
                .find(|f| f.label == e.label)
                .unwrap_or(e)
                .clone()
        })
        .collect();
    for f in fresh {
        if !existing.iter().any(|e| e.label == f.label) {
            merged.push(f.clone());
        }
    }
    merged
}

/// [`merge_results`] with stale-row pruning (`--prune`): rows whose label
/// the fresh run did not measure are dropped instead of preserved, so a
/// renamed or deleted bench group does not haunt the snapshot forever.
/// Surviving rows keep their existing order; brand-new labels append in
/// measurement order, exactly as in the preserving merge.
pub fn merge_results_pruned(existing: &[BenchResult], fresh: &[BenchResult]) -> Vec<BenchResult> {
    merge_results(existing, fresh)
        .into_iter()
        .filter(|r| fresh.iter().any(|f| f.label == r.label))
        .collect()
}

/// One perfbench workload run: the workload block's header and the JSON
/// result line that closes the block.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfbenchRun {
    /// Workload name, e.g. `batch_dense`.
    pub workload: String,
    /// Input seed the run used.
    pub seed: u64,
    /// Whether the run was traced (`--trace 1`: per-layer metrics).
    pub traced: bool,
    /// The run's final JSON line, verbatim.
    pub result: String,
}

/// Splits one perfbench invocation's stdout into its `machine:` stamp
/// (the JSON after the prefix, verbatim) and its runs: every
/// `== <workload> (seed <n>)` header paired with the first JSON line after
/// it. Errors when the stamp is missing, or a header has no result line.
pub fn parse_perfbench_output(
    stdout: &str,
    traced: bool,
) -> Result<(String, Vec<PerfbenchRun>), String> {
    let mut machine = None;
    let mut runs = Vec::new();
    let mut open: Option<(String, u64)> = None;
    for line in stdout.lines() {
        if let Some(stamp) = line.strip_prefix("machine: ") {
            machine.get_or_insert(json_line(stamp)?);
        } else if let Some(header) = line.strip_prefix("== ") {
            if let Some((workload, _)) = &open {
                return Err(format!("workload {workload} printed no result line"));
            }
            let (workload, seed) = header
                .trim()
                .strip_suffix(')')
                .and_then(|h| h.split_once(" (seed "))
                .ok_or_else(|| format!("malformed workload header {line:?}"))?;
            let seed = seed
                .parse()
                .map_err(|_| format!("malformed seed in {line:?}"))?;
            open = Some((workload.to_string(), seed));
        } else if line.starts_with('{') {
            if let Some((workload, seed)) = open.take() {
                runs.push(PerfbenchRun {
                    workload,
                    seed,
                    traced,
                    result: json_line(line)?,
                });
            }
        }
    }
    if let Some((workload, _)) = open {
        return Err(format!("workload {workload} printed no result line"));
    }
    let machine = machine.ok_or("perfbench printed no `machine:` line")?;
    if runs.is_empty() {
        return Err("perfbench printed no workload results".to_string());
    }
    Ok((machine, runs))
}

/// `line` trimmed, once it has parsed as JSON, so the ledger can embed it
/// verbatim and stay valid.
fn json_line(line: &str) -> Result<String, String> {
    let line = line.trim();
    JsonValue::parse(line)
        .map(|_| line.to_string())
        .map_err(|e| format!("perfbench printed malformed JSON ({e}): {line}"))
}

/// Renders the perfbench ledger. `machine` and every run's `result` are
/// perfbench's own JSON, embedded verbatim.
pub fn render_perfbench_json(
    machine: &str,
    seconds: f64,
    runs: &[PerfbenchRun],
    captured_unix_secs: u64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"suite\": \"perfbench\",\n");
    out.push_str(&format!(
        "  \"captured_unix_secs\": {captured_unix_secs},\n"
    ));
    out.push_str(&format!("  \"seconds\": {seconds},\n"));
    out.push_str(&format!("  \"machine\": {machine},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {} }}{comma}\n",
            escape_json(&r.workload),
            r.seed,
            u8::from(r.traced),
            r.result
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `run_seconds` and the workload names, in order, that a benchmark
/// declaration (`BENCHMARK.json`) sets.
pub fn benchmark_declaration(json: &str) -> Result<(f64, Vec<String>), String> {
    let doc = JsonValue::parse(json).map_err(|e| format!("malformed declaration: {e}"))?;
    let seconds = doc
        .get("run_seconds")
        .and_then(JsonValue::as_f64)
        .filter(|s| *s > 0.0 && s.is_finite())
        .ok_or("the declaration sets no positive run_seconds")?;
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .map(str::to_string)
        .collect();
    if workloads.is_empty() {
        return Err("the declaration names no workloads".to_string());
    }
    Ok((seconds, workloads))
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_duration_unit() {
        assert_eq!(parse_duration_ns("123ns"), Some(123.0));
        assert_eq!(parse_duration_ns("4.5µs"), Some(4500.0));
        assert_eq!(parse_duration_ns("4.5us"), Some(4500.0));
        assert_eq!(parse_duration_ns("1.2ms"), Some(1.2e6));
        assert_eq!(parse_duration_ns("3s"), Some(3e9));
        assert_eq!(parse_duration_ns("garbage"), None);
    }

    #[test]
    fn parses_bench_lines_and_skips_noise() {
        let output = "\
Compiling traclus-bench v0.1.0
bench: cluster/linear/n500                       median      1.234ms/iter
bench: cluster/parallel_hurricane32/t4           median    456.700µs/iter
some unrelated line with median in it
bench: malformed line without the keyword
";
        let results = parse_bench_output(output);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].label, "cluster/linear/n500");
        assert_eq!(results[0].median_ns, 1.234e6);
        assert_eq!(results[1].label, "cluster/parallel_hurricane32/t4");
        assert_eq!(results[1].median_ns, 456700.0);
    }

    #[test]
    fn snapshot_json_round_trips_through_the_parser() {
        let results = vec![
            BenchResult {
                label: "cluster/grid/1000".to_string(),
                median_ns: 4157000.0,
            },
            BenchResult {
                label: "odd\"label\\with escapes".to_string(),
                median_ns: 1.5,
            },
        ];
        let parsed = parse_snapshot_results(&render_json(&results, 7));
        assert_eq!(parsed, results);
    }

    #[test]
    fn merge_preserves_unmeasured_entries_and_updates_the_rest() {
        let old = |label: &str, ns: f64| BenchResult {
            label: label.to_string(),
            median_ns: ns,
        };
        let existing = vec![old("a", 1.0), old("b", 2.0), old("c", 3.0)];
        let fresh = vec![old("b", 20.0), old("d", 40.0)];
        let merged = merge_results(&existing, &fresh);
        assert_eq!(
            merged,
            vec![old("a", 1.0), old("b", 20.0), old("c", 3.0), old("d", 40.0)],
            "re-measured labels update in place, new labels append, the rest survive"
        );
    }

    #[test]
    fn pruned_merge_drops_stale_rows_but_keeps_order() {
        let old = |label: &str, ns: f64| BenchResult {
            label: label.to_string(),
            median_ns: ns,
        };
        let existing = vec![old("a", 1.0), old("b", 2.0), old("c", 3.0)];
        let fresh = vec![old("b", 20.0), old("d", 40.0)];
        let merged = merge_results_pruned(&existing, &fresh);
        assert_eq!(
            merged,
            vec![old("b", 20.0), old("d", 40.0)],
            "unmeasured rows a and c are pruned; b updates in place, d appends"
        );
        // A full re-measure prunes nothing.
        let full = vec![old("a", 10.0), old("b", 20.0), old("c", 30.0)];
        assert_eq!(merge_results_pruned(&existing, &full), full);
    }

    #[test]
    fn perfbench_output_pairs_headers_with_result_lines() {
        let stdout = "\
machine: {\"cores\": 2, \"commit\": \"abc\"}
== batch_dense (seed 2007)
   seeds: default 2007, held out 1950
   run_ms                             453.0592 ms
{\"correct\": true, \"metrics\": {\"run_ms\": {\"value\": 453.1, \"unit\": \"ms\"}}}
== serve_window (seed 7)
{\"correct\": true, \"metrics\": {}}
";
        let (machine, runs) = parse_perfbench_output(stdout, true).unwrap();
        assert_eq!(machine, "{\"cores\": 2, \"commit\": \"abc\"}");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].workload, "batch_dense");
        assert_eq!(runs[0].seed, 2007);
        assert!(runs[0].traced);
        assert!(runs[0]
            .result
            .starts_with("{\"correct\": true, \"metrics\": {\"run_ms\""));
        assert_eq!(runs[1].workload, "serve_window");
        assert_eq!(runs[1].result, "{\"correct\": true, \"metrics\": {}}");

        let json = render_perfbench_json(&machine, 20.0, &runs, 9);
        assert!(json.contains("\"machine\": {\"cores\": 2, \"commit\": \"abc\"},"));
        assert!(json.contains(
            "{ \"workload\": \"serve_window\", \"seed\": 7, \"trace\": 1, \"result\": {\"correct\": true, \"metrics\": {}} }\n"
        ));
        assert!(json.contains("\"seconds\": 20,"));
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn perfbench_output_without_stamp_or_result_is_rejected() {
        assert!(parse_perfbench_output("== a (seed 1)\n{}\n", false).is_err());
        let cut = "machine: {}\n== a (seed 1)\n== b (seed 2)\n{}\n";
        assert!(parse_perfbench_output(cut, false).is_err());
        assert!(parse_perfbench_output("machine: {}\n== a (seed 1)\n", false).is_err());
        assert!(parse_perfbench_output("machine: {}\n", false).is_err());
        assert!(parse_perfbench_output("machine: {}\n== a (seed x)\n{}\n", false).is_err());
        assert!(parse_perfbench_output("machine: {}\n== a (seed 1)\n{\"cut\n", false).is_err());
        assert!(parse_perfbench_output("machine: {oops\n== a (seed 1)\n{}\n", false).is_err());
    }

    #[test]
    fn reads_the_benchmark_declaration() {
        let json = r#"{
  "paths": ["perfbench"],
  "run_seconds": 20,
  "workloads": [
    {"name": "batch_dense", "why": "dense"},
    {"name": "serve_window", "why": "loopback"}
  ],
  "end_to_end": [{"name": "run_ms", "bound": 0.25}]
}"#;
        let (seconds, workloads) = benchmark_declaration(json).unwrap();
        assert_eq!(seconds, 20.0);
        assert_eq!(workloads, ["batch_dense", "serve_window"]);
        assert!(benchmark_declaration(r#"{"run_seconds": 20, "workloads": []}"#).is_err());
        assert!(benchmark_declaration(r#"{"workloads": [{"name": "a"}]}"#).is_err());
        assert!(benchmark_declaration("{").is_err());
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let results = vec![BenchResult {
            label: "a\"b".to_string(),
            median_ns: 1.5,
        }];
        let json = render_json(&results, 42);
        assert!(json.contains("\"a\\\"b\""));
        assert!(json.contains("\"captured_unix_secs\": 42"));
        assert!(json.ends_with("}\n"));
    }
}
