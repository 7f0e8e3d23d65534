//! The lint rules: project invariants enforced at the token level.
//!
//! Three families (see ISSUE/README for the rationale):
//!
//! * **Determinism** — the workspace's headline guarantees are bit-exact
//!   (`run_parallel(t)` == sequential `run()`, streaming `snapshot()` ==
//!   batch `run()`), so anything that injects ambient nondeterminism into
//!   library code is an error: hash-container iteration order, wall-clock
//!   reads, NaN-unsound float comparisons, unstable sorts on float keys.
//! * **Robustness** — `unwrap()`/`expect()` in library code is ratcheted:
//!   existing uses are pinned in `xtask/lint-baseline.txt`; new ones fail.
//! * **Headers** — every crate root must carry `#![forbid(unsafe_code)]`,
//!   and library roots the `#![warn(missing_docs)]` doc policy.
//!
//! Suppress a finding with `// xtask:allow(rule-id): reason` on (or
//! directly above) the offending line, or `// xtask:allow-file(rule-id):
//! reason` for a whole file; the reason is mandatory by convention and
//! reviewed like any other code.

use crate::scan::{FileKind, SourceFile};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`wall-clock`, `float-ord`, …).
    pub rule: &'static str,
    /// Scan-root-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// Crates whose outputs are covered by the bit-exactness guarantees; hash
/// containers and float-key tie-order are policed hardest here.
const DETERMINISM_CRITICAL: &[&str] = &["core", "geom", "index"];

/// Crates allowed to read the wall clock: the bench harness exists to
/// time things, and the tool crate (this one) stamps snapshots.
const WALL_CLOCK_CRATES: &[&str] = &["bench", "xtask"];

/// Crates exempt from the robustness ratchet: the bench harness and the
/// maintenance tool are operator-facing processes where aborting on a
/// violated expectation is the right behavior.
const UNWRAP_EXEMPT_CRATES: &[&str] = &["bench", "xtask"];

/// Rule id for the unwrap/expect ratchet (referenced by the baseline).
pub const UNWRAP_RATCHET: &str = "unwrap-ratchet";

/// Every rule id the engine knows, for validation and docs.
pub const ALL_RULES: &[&str] = &[
    "hash-container",
    "wall-clock",
    "float-ord",
    "float-sort",
    UNWRAP_RATCHET,
    "crate-header",
];

/// Runs every rule over one file, appending findings. Findings for the
/// ratcheting rule are returned like any other; the caller nets them
/// against the baseline.
pub fn check_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    hash_container(file, findings);
    wall_clock(file, findings);
    float_ord(file, findings);
    float_sort(file, findings);
    unwrap_ratchet(file, findings);
    crate_header(file, findings);
}

fn push(
    file: &SourceFile,
    findings: &mut Vec<Finding>,
    rule: &'static str,
    offset: usize,
    message: String,
) {
    let line = file.line_of(offset);
    if file.is_allowed(rule, line) {
        return;
    }
    findings.push(Finding {
        rule,
        file: file.rel.clone(),
        line,
        message,
    });
}

/// Byte offsets of every occurrence of `needle` in the masked text.
fn occurrences<'a>(file: &'a SourceFile, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0;
    std::iter::from_fn(move || {
        let pos = file.masked[from..].find(needle)? + from;
        from = pos + needle.len();
        Some(pos)
    })
}

/// The masked text following an occurrence, whitespace collapsed, capped —
/// enough context to see what a call chains into across line breaks.
fn lookahead(file: &SourceFile, offset: usize, cap: usize) -> String {
    file.masked[offset..]
        .chars()
        .filter(|c| !c.is_whitespace())
        .take(cap)
        .collect()
}

/// `hash-container`: `HashMap`/`HashSet` in determinism-critical library
/// code. Their iteration order is seeded per process; if it reaches any
/// ordered output the bit-exactness guarantees break silently. None of
/// these crates holds one; a lookup-only use would need a justified file
/// allow.
fn hash_container(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !DETERMINISM_CRITICAL.contains(&file.crate_name.as_str()) || file.kind != FileKind::LibSource
    {
        return;
    }
    for token in ["HashMap", "HashSet"] {
        for pos in occurrences(file, token) {
            push(
                file,
                findings,
                "hash-container",
                pos,
                format!(
                    "{token} in determinism-critical crate `{}`: iteration order is \
                     random per process; use Vec/BTreeMap, or justify a lookup-only \
                     use with `// xtask:allow-file(hash-container): <why>`",
                    file.crate_name
                ),
            );
        }
    }
}

/// `wall-clock`: `Instant::now`/`SystemTime` in library crates. Identical
/// inputs must produce identical outputs; timing belongs to the bench/eval
/// measurement layer.
fn wall_clock(file: &SourceFile, findings: &mut Vec<Finding>) {
    if WALL_CLOCK_CRATES.contains(&file.crate_name.as_str()) || file.kind == FileKind::TestOrHarness
    {
        return;
    }
    for token in ["Instant::now", "SystemTime::now", "SystemTime::"] {
        for pos in occurrences(file, token) {
            // Avoid double-reporting `SystemTime::now` under both tokens.
            if token == "SystemTime::" && file.masked[pos..].starts_with("SystemTime::now") {
                continue;
            }
            push(
                file,
                findings,
                "wall-clock",
                pos,
                format!(
                    "{token} read in library crate `{}`: outputs must depend only on \
                     inputs; capture wall-clock in bench/eval and justify with \
                     `// xtask:allow(wall-clock): <why>` where measurement is the point",
                    file.crate_name
                ),
            );
        }
    }
}

/// `float-ord`: `partial_cmp(..).unwrap()` (or `.unwrap_or(Ordering::…)`)
/// on floats. NaN makes the unwrap panic and the `unwrap_or` an
/// inconsistent comparator with an unspecified sort order; `f64::total_cmp`
/// is total, deterministic, and identical on every non-NaN, same-signed
/// comparison.
fn float_ord(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.kind == FileKind::TestOrHarness {
        return;
    }
    for pos in occurrences(file, "partial_cmp") {
        let ahead = lookahead(file, pos + "partial_cmp".len(), 120);
        // The call's argument list is the first `(…)`; what matters is the
        // method chained onto its result.
        let Some(close) = matching_paren(&ahead) else {
            continue;
        };
        let chained = &ahead[close + 1..];
        if chained.starts_with(".unwrap()") || chained.starts_with(".unwrap_or(") {
            push(
                file,
                findings,
                "float-ord",
                pos,
                "partial_cmp followed by unwrap/unwrap_or: panics or becomes an \
                 inconsistent comparator on NaN — use f64::total_cmp (bit-identical \
                 for non-NaN, consistently-signed keys)"
                    .to_string(),
            );
        }
    }
}

/// Index of the `)` closing the `(` that `s` must start with (whitespace
/// already stripped by `lookahead`).
fn matching_paren(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'(') {
        return None;
    }
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// `float-sort`: `sort_unstable_by` with a float-key comparator in
/// determinism-critical crates. Unstable sorts give equal keys an
/// arbitrary relative order, so tie order stops matching input order —
/// use the stable `sort_by` with `total_cmp` for float keys.
fn float_sort(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !DETERMINISM_CRITICAL.contains(&file.crate_name.as_str()) || file.kind != FileKind::LibSource
    {
        return;
    }
    for pos in occurrences(file, "sort_unstable_by") {
        let ahead = lookahead(file, pos, 200);
        if ahead.contains("total_cmp") || ahead.contains("partial_cmp") {
            push(
                file,
                findings,
                "float-sort",
                pos,
                format!(
                    "sort_unstable_by with a float comparator in `{}`: equal keys get \
                     an arbitrary relative order; use the stable sort_by + total_cmp \
                     so tie order is input order",
                    file.crate_name
                ),
            );
        }
    }
}

/// `unwrap-ratchet`: `.unwrap()`/`.expect(` in library code. Existing
/// sites are pinned in the baseline; new ones fail CI until handled (or
/// justified and re-pinned).
fn unwrap_ratchet(file: &SourceFile, findings: &mut Vec<Finding>) {
    if UNWRAP_EXEMPT_CRATES.contains(&file.crate_name.as_str())
        || file.kind == FileKind::TestOrHarness
    {
        return;
    }
    for token in [".unwrap()", ".expect("] {
        for pos in occurrences(file, token) {
            push(
                file,
                findings,
                UNWRAP_RATCHET,
                pos,
                format!(
                    "{token} in library code: return an error or document the \
                     invariant; pinned sites live in xtask/lint-baseline.txt \
                     (`cargo xtask lint --update-baseline` after a justified change)",
                ),
            );
        }
    }
}

/// `crate-header`: crate roots must forbid unsafe code; library roots must
/// carry the doc-warning policy.
fn crate_header(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !file.is_crate_root {
        return;
    }
    if !file.masked.contains("#![forbid(unsafe_code)]") {
        push(
            file,
            findings,
            "crate-header",
            0,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
    if file.is_lib_root && !file.masked.contains("#![warn(missing_docs)]") {
        push(
            file,
            findings,
            "crate-header",
            0,
            "library crate root is missing `#![warn(missing_docs)]` (the workspace \
             doc-warning policy; CI builds rustdoc with -D warnings)"
                .to_string(),
        );
    }
}
