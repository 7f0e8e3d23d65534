//! The end-to-end perf ledger.
//!
//! `bench-snapshot` runs the repository's benchmark (`perfbench/`) once per
//! workload that `BENCHMARK.json` declares, untraced and then traced, each
//! in its own process as the benchmark runs it, and writes
//! `BENCH_perfbench.json` with perfbench's `machine:` stamp and each run's
//! final JSON result line, both copied verbatim
//! ([`parse_perfbench_output`], [`render_perfbench_json`]). The stamp names
//! the machine, commit and compiler, so every number in the ledger can be
//! traced to what measured it.

use traclus_json::JsonValue;

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
        let runs = [PerfbenchRun {
            workload: "a\"b\\c\n".to_string(),
            seed: 3,
            traced: false,
            result: "{}".to_string(),
        }];
        let json = render_perfbench_json("{}", 1.5, &runs, 42);
        assert!(json.contains("\"workload\": \"a\\\"b\\\\c\\u000a\""));
        assert!(json.contains("\"captured_unix_secs\": 42"));
        assert!(json.ends_with("}\n"));
        JsonValue::parse(&json).expect("the ledger parses as JSON");
    }
}
