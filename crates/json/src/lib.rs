//! # traclus-json
//!
//! A dependency-free JSON value model with a deterministic writer and a
//! strict parser. The workspace builds offline (no serde), yet three
//! subsystems speak JSON: the evaluation reports of `traclus-eval`, the
//! line-delimited serving protocol of `traclus-server`, and the checked-in
//! perf snapshots. This crate is the one shared implementation, extracted
//! from the hand-rolled writer that used to be private to
//! `traclus_eval::EvalReport`.
//!
//! Design constraints inherited from those call sites:
//!
//! * **Deterministic output.** Object members serialize in insertion order
//!   ([`JsonValue::Object`] is a `Vec` of pairs, never a hash map), and
//!   numbers print via Rust's shortest-round-trip `Display` — identical
//!   inputs give identical bytes, which is what lets the golden-report
//!   regression test pin report output byte for byte.
//! * **Always valid JSON.** Non-finite floats serialize as `null` (the
//!   report validators reject them separately); strings escape quotes,
//!   backslashes, and control characters.
//! * **Total parsing.** [`JsonValue::parse`] returns a typed
//!   [`JsonError`] with line/column on any malformed input — it never
//!   panics, which the server protocol's fuzz suite relies on.
//!
//! ```
//! use traclus_json::JsonValue;
//!
//! let v = JsonValue::object([
//!     ("op", JsonValue::from("ingest")),
//!     ("points", JsonValue::array([JsonValue::from(1.5), JsonValue::from(2i64)])),
//! ]);
//! let line = v.to_compact();
//! assert_eq!(line, r#"{"op": "ingest", "points": [1.5, 2]}"#);
//! let back = JsonValue::parse(&line).unwrap();
//! assert_eq!(back, v);
//! ```

mod parse;
mod value;
mod write;

pub use parse::JsonError;
pub use value::JsonValue;
pub use write::{escape_string, format_f64};
