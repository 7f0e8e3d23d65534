//! The line-delimited JSON wire protocol.
//!
//! Every request is one JSON object on one line of at most
//! [`MAX_LINE_BYTES`] bytes; every response is one JSON object on one
//! line. The protocol is 2-D (points are `[x, y]`
//! pairs) — the serving daemon targets the paper's trajectory datasets,
//! which are planar. Requests:
//!
//! | `op`              | fields                            | answer |
//! |-------------------|-----------------------------------|--------|
//! | `ingest`          | `points: [[x,y],…]` (at most [`MAX_INGEST_POINTS`]), `weight?` (positive, at most [`MAX_WEIGHT`]) | assigned trajectory id (queued, not yet applied) |
//! | `remove`          | `trajectory: id`                  | retires that trajectory from the live window (synchronous: replies after the removal is applied and published) |
//! | `expire`          | `keep: n`                         | expires oldest-first down to `n` live trajectories (synchronous, like `remove`) |
//! | `membership`      | `trajectory: id`                  | clusters containing that trajectory |
//! | `nearest`         | `point: [x,y]`                    | closest cluster + distance to its representative |
//! | `representatives` | —                                 | every cluster's representative polyline |
//! | `region`          | `min: [x,y]`, `max: [x,y]` with `min <= max` componentwise | clusters crossing the axis-aligned region |
//! | `stats`           | —                                 | engine counters (incl. filter-and-refine prune tallies) + snapshot epoch |
//! | `flush`           | —                                 | blocks until every queued ingest is applied and published |
//! | `shutdown`        | —                                 | acknowledges, then stops the daemon |
//!
//! Every coordinate of a point (`ingest`'s `points`, `nearest`'s `point`,
//! `region`'s corners) must be finite and within ±[`MAX_COORDINATE`].
//!
//! Responses carry `"ok": true` plus op-specific fields, or
//! `"ok": false, "error": "…"` — malformed input yields a typed
//! [`ProtocolError`], never a panic (the fuzz suite in
//! `tests/protocol_proptest.rs` holds the parser to that).

use traclus_json::{JsonError, JsonValue};

/// The longest request line the daemon accepts, newline included: 1 MiB,
/// enough for an ingest of about 30k points. A longer line is answered
/// with [`ProtocolError::LineTooLong`] and its connection is closed, so no
/// client can grow the server's memory by withholding the newline.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The most points one `ingest` may carry. The Figure 8 partition scan is
/// quadratic in the length of a straight run (one straight trajectory
/// took 0.29 s at 5k points and 4.7 s at 20k in a release build on a
/// 2-vCPU machine), so the cap keeps one ingest near 0.2 s. Longer
/// ingests are refused with [`ProtocolError::TooManyPoints`].
pub const MAX_INGEST_POINTS: usize = 4096;

/// The largest coordinate magnitude any request point may carry. The
/// distance kernels multiply squared norms — fourth powers of coordinates
/// — which overflow `f64` from about `1e77` on, and `nearest` squares its
/// distances to the representatives, which overflow from about `1e154`
/// (at `[1e200, 0]` every cluster was at distance `inf`, so the lowest
/// cluster id won); the cap leaves both a wide margin. Larger coordinates
/// are refused with [`ProtocolError::CoordinateTooLarge`].
pub const MAX_COORDINATE: f64 = 1e50;

/// The largest trajectory weight an `ingest` may carry. The weighted
/// representative sweep sums weight × coordinate over a cluster's members:
/// at weight `1e300`, six tracks near `1e9` already overflow it to
/// non-finite representative points. At this cap the product stays below
/// `1e100` for every coordinate within [`MAX_COORDINATE`], so sums over
/// any window stay finite. Larger weights are refused with
/// [`ProtocolError::WeightTooLarge`].
pub const MAX_WEIGHT: f64 = 1e50;

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Queue one trajectory for ingestion.
    Ingest {
        /// Polyline vertices as `[x, y]` pairs.
        points: Vec<[f64; 2]>,
        /// Optional trajectory weight (Section 4.2 extension); `None`
        /// means unweighted.
        weight: Option<f64>,
    },
    /// Retire one trajectory (all its live arrivals) from the window.
    Remove {
        /// The trajectory id assigned at ingest.
        trajectory: u32,
    },
    /// Expire oldest-first until at most `keep` live trajectories remain.
    Expire {
        /// The capacity to shrink the live window to.
        keep: usize,
    },
    /// Which clusters contain a trajectory?
    Membership {
        /// The trajectory id assigned at ingest.
        trajectory: u32,
    },
    /// Which cluster's representative passes closest to a probe point?
    Nearest {
        /// The probe point.
        point: [f64; 2],
    },
    /// All representative trajectories.
    Representatives,
    /// Which clusters cross an axis-aligned region?
    Region {
        /// Region minimum corner.
        min: [f64; 2],
        /// Region maximum corner.
        max: [f64; 2],
    },
    /// Engine counters and the current snapshot epoch.
    Stats,
    /// Block until every queued ingest is applied and published.
    Flush,
    /// Stop the daemon.
    Shutdown,
}

/// A request the server could not act on. Conversion to the wire format
/// is total: every variant renders as an `"ok": false` response line.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The line is not valid JSON.
    Json(JsonError),
    /// The line parsed, but not to a JSON object.
    NotAnObject,
    /// The object has no string `"op"` member.
    MissingOp,
    /// The `"op"` value names no known operation.
    UnknownOp(String),
    /// A required field is absent.
    MissingField {
        /// The operation being parsed.
        op: &'static str,
        /// The absent field.
        field: &'static str,
    },
    /// A field is present but has the wrong shape.
    BadField {
        /// The operation being parsed.
        op: &'static str,
        /// The offending field.
        field: &'static str,
        /// What the field must look like.
        expected: &'static str,
    },
    /// The request line outgrew [`MAX_LINE_BYTES`] before its newline.
    LineTooLong {
        /// The cap it exceeded, in bytes.
        limit: usize,
    },
    /// An `ingest` carries more than [`MAX_INGEST_POINTS`] points.
    TooManyPoints {
        /// The cap it exceeded.
        limit: usize,
    },
    /// A point coordinate's magnitude exceeds [`MAX_COORDINATE`].
    CoordinateTooLarge {
        /// The operation being parsed.
        op: &'static str,
        /// The cap it exceeded.
        limit: f64,
    },
    /// An `ingest` weight exceeds [`MAX_WEIGHT`].
    WeightTooLarge {
        /// The cap it exceeded.
        limit: f64,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Json(e) => write!(f, "invalid JSON: {e}"),
            ProtocolError::NotAnObject => write!(f, "request must be a JSON object"),
            ProtocolError::MissingOp => write!(f, "request has no string \"op\" member"),
            ProtocolError::UnknownOp(op) => write!(f, "unknown op {op:?}"),
            ProtocolError::MissingField { op, field } => {
                write!(f, "{op}: missing required field \"{field}\"")
            }
            ProtocolError::BadField {
                op,
                field,
                expected,
            } => write!(f, "{op}: field \"{field}\" must be {expected}"),
            ProtocolError::LineTooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            ProtocolError::TooManyPoints { limit } => {
                write!(f, "ingest: more than {limit} points")
            }
            ProtocolError::CoordinateTooLarge { op, limit } => {
                write!(f, "{op}: a coordinate exceeds {limit:e} in magnitude")
            }
            ProtocolError::WeightTooLarge { limit } => {
                write!(f, "ingest: the weight exceeds {limit:e}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<JsonError> for ProtocolError {
    fn from(e: JsonError) -> Self {
        ProtocolError::Json(e)
    }
}

fn point_json(p: &[f64; 2]) -> JsonValue {
    JsonValue::array([JsonValue::from(p[0]), JsonValue::from(p[1])])
}

fn parse_point(
    value: &JsonValue,
    op: &'static str,
    field: &'static str,
) -> Result<[f64; 2], ProtocolError> {
    let bad = || ProtocolError::BadField {
        op,
        field,
        expected: "a finite [x, y] pair",
    };
    let items = value.as_array().ok_or_else(bad)?;
    if items.len() != 2 {
        return Err(bad());
    }
    let x = items[0].as_f64().ok_or_else(bad)?;
    let y = items[1].as_f64().ok_or_else(bad)?;
    if !x.is_finite() || !y.is_finite() {
        return Err(bad());
    }
    if x.abs() > MAX_COORDINATE || y.abs() > MAX_COORDINATE {
        return Err(ProtocolError::CoordinateTooLarge {
            op,
            limit: MAX_COORDINATE,
        });
    }
    Ok([x, y])
}

fn required<'a>(
    obj: &'a JsonValue,
    op: &'static str,
    field: &'static str,
) -> Result<&'a JsonValue, ProtocolError> {
    obj.get(field)
        .ok_or(ProtocolError::MissingField { op, field })
}

impl Request {
    /// Parses one request line. Total: any input yields `Ok` or a typed
    /// [`ProtocolError`] — never a panic.
    pub fn parse_line(line: &str) -> Result<Self, ProtocolError> {
        let value = JsonValue::parse(line)?;
        if value.as_object().is_none() {
            return Err(ProtocolError::NotAnObject);
        }
        let op = value
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or(ProtocolError::MissingOp)?;
        match op {
            "ingest" => {
                let raw = required(&value, "ingest", "points")?;
                let items = raw.as_array().ok_or(ProtocolError::BadField {
                    op: "ingest",
                    field: "points",
                    expected: "an array of [x, y] pairs",
                })?;
                if items.len() > MAX_INGEST_POINTS {
                    return Err(ProtocolError::TooManyPoints {
                        limit: MAX_INGEST_POINTS,
                    });
                }
                let points = items
                    .iter()
                    .map(|p| parse_point(p, "ingest", "points"))
                    .collect::<Result<Vec<_>, _>>()?;
                let weight = match value.get("weight") {
                    None => None,
                    Some(w) if w.is_null() => None,
                    Some(w) => {
                        let w = w.as_f64().ok_or(ProtocolError::BadField {
                            op: "ingest",
                            field: "weight",
                            expected: "a finite positive number",
                        })?;
                        if !w.is_finite() || w <= 0.0 {
                            return Err(ProtocolError::BadField {
                                op: "ingest",
                                field: "weight",
                                expected: "a finite positive number",
                            });
                        }
                        if w > MAX_WEIGHT {
                            return Err(ProtocolError::WeightTooLarge { limit: MAX_WEIGHT });
                        }
                        Some(w)
                    }
                };
                Ok(Request::Ingest { points, weight })
            }
            "remove" => {
                let raw = required(&value, "remove", "trajectory")?;
                let id = raw.as_i64().and_then(|i| u32::try_from(i).ok()).ok_or(
                    ProtocolError::BadField {
                        op: "remove",
                        field: "trajectory",
                        expected: "a trajectory id (non-negative integer)",
                    },
                )?;
                Ok(Request::Remove { trajectory: id })
            }
            "expire" => {
                let raw = required(&value, "expire", "keep")?;
                let keep = raw.as_i64().and_then(|i| usize::try_from(i).ok()).ok_or(
                    ProtocolError::BadField {
                        op: "expire",
                        field: "keep",
                        expected: "a capacity (non-negative integer)",
                    },
                )?;
                Ok(Request::Expire { keep })
            }
            "membership" => {
                let raw = required(&value, "membership", "trajectory")?;
                let id = raw.as_i64().and_then(|i| u32::try_from(i).ok()).ok_or(
                    ProtocolError::BadField {
                        op: "membership",
                        field: "trajectory",
                        expected: "a trajectory id (non-negative integer)",
                    },
                )?;
                Ok(Request::Membership { trajectory: id })
            }
            "nearest" => {
                let point = parse_point(required(&value, "nearest", "point")?, "nearest", "point")?;
                Ok(Request::Nearest { point })
            }
            "representatives" => Ok(Request::Representatives),
            "region" => {
                let min = parse_point(required(&value, "region", "min")?, "region", "min")?;
                let max = parse_point(required(&value, "region", "max")?, "region", "max")?;
                // The geometry layer's `Aabb::new` asserts min <= max per
                // dimension; an inverted region from the wire must become
                // a typed error here, never a panic there.
                if min[0] > max[0] || min[1] > max[1] {
                    return Err(ProtocolError::BadField {
                        op: "region",
                        field: "min",
                        expected: "componentwise <= \"max\" (a non-inverted region)",
                    });
                }
                Ok(Request::Region { min, max })
            }
            "stats" => Ok(Request::Stats),
            "flush" => Ok(Request::Flush),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::UnknownOp(other.to_string())),
        }
    }

    /// The request as a JSON value (inverse of [`Self::parse_line`] up to
    /// field order, which this encoder fixes canonically).
    pub fn to_json(&self) -> JsonValue {
        match self {
            Request::Ingest { points, weight } => {
                let mut fields = vec![
                    ("op".to_string(), JsonValue::from("ingest")),
                    (
                        "points".to_string(),
                        JsonValue::array(points.iter().map(point_json)),
                    ),
                ];
                if let Some(w) = weight {
                    fields.push(("weight".to_string(), JsonValue::from(*w)));
                }
                JsonValue::Object(fields)
            }
            Request::Remove { trajectory } => JsonValue::object([
                ("op", JsonValue::from("remove")),
                ("trajectory", JsonValue::from(*trajectory)),
            ]),
            Request::Expire { keep } => JsonValue::object([
                ("op", JsonValue::from("expire")),
                ("keep", JsonValue::from(*keep)),
            ]),
            Request::Membership { trajectory } => JsonValue::object([
                ("op", JsonValue::from("membership")),
                ("trajectory", JsonValue::from(*trajectory)),
            ]),
            Request::Nearest { point } => JsonValue::object([
                ("op", JsonValue::from("nearest")),
                ("point", point_json(point)),
            ]),
            Request::Representatives => {
                JsonValue::object([("op", JsonValue::from("representatives"))])
            }
            Request::Region { min, max } => JsonValue::object([
                ("op", JsonValue::from("region")),
                ("min", point_json(min)),
                ("max", point_json(max)),
            ]),
            Request::Stats => JsonValue::object([("op", JsonValue::from("stats"))]),
            Request::Flush => JsonValue::object([("op", JsonValue::from("flush"))]),
            Request::Shutdown => JsonValue::object([("op", JsonValue::from("shutdown"))]),
        }
    }

    /// The request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_compact()
    }
}

/// Renders an error as the `"ok": false` wire response.
pub fn error_response(error: &ProtocolError) -> JsonValue {
    JsonValue::object([
        ("ok", JsonValue::from(false)),
        ("error", JsonValue::from(error.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_op() {
        assert_eq!(
            Request::parse_line(r#"{"op": "ingest", "points": [[0, 1], [2.5, -3]]}"#).unwrap(),
            Request::Ingest {
                points: vec![[0.0, 1.0], [2.5, -3.0]],
                weight: None
            }
        );
        assert_eq!(
            Request::parse_line(r#"{"op": "membership", "trajectory": 7}"#).unwrap(),
            Request::Membership { trajectory: 7 }
        );
        assert_eq!(
            Request::parse_line(r#"{"op": "remove", "trajectory": 3}"#).unwrap(),
            Request::Remove { trajectory: 3 }
        );
        assert_eq!(
            Request::parse_line(r#"{"op": "expire", "keep": 0}"#).unwrap(),
            Request::Expire { keep: 0 }
        );
        assert_eq!(
            Request::parse_line(r#"{"op": "flush"}"#).unwrap(),
            Request::Flush
        );
    }

    #[test]
    fn round_trips_through_to_line() {
        let requests = [
            Request::Ingest {
                points: vec![[1.5, 2.5]],
                weight: Some(2.0),
            },
            Request::Remove { trajectory: 42 },
            Request::Expire { keep: 16 },
            Request::Nearest { point: [0.5, -0.5] },
            Request::Region {
                min: [0.0, 0.0],
                max: [10.5, 10.5],
            },
            Request::Representatives,
            Request::Stats,
            Request::Shutdown,
        ];
        for r in requests {
            assert_eq!(Request::parse_line(&r.to_line()).as_ref(), Ok(&r));
        }
    }

    #[test]
    fn malformed_lines_yield_typed_errors() {
        assert!(matches!(
            Request::parse_line("not json"),
            Err(ProtocolError::Json(_))
        ));
        assert_eq!(Request::parse_line("[1]"), Err(ProtocolError::NotAnObject));
        assert_eq!(
            Request::parse_line(r#"{"points": []}"#),
            Err(ProtocolError::MissingOp)
        );
        assert_eq!(
            Request::parse_line(r#"{"op": "evaporate"}"#),
            Err(ProtocolError::UnknownOp("evaporate".to_string()))
        );
        assert!(matches!(
            Request::parse_line(r#"{"op": "ingest"}"#),
            Err(ProtocolError::MissingField { .. })
        ));
        assert!(matches!(
            Request::parse_line(r#"{"op": "ingest", "points": [[1]]}"#),
            Err(ProtocolError::BadField { .. })
        ));
        assert!(matches!(
            Request::parse_line(r#"{"op": "membership", "trajectory": -3}"#),
            Err(ProtocolError::BadField { .. })
        ));
        assert!(matches!(
            Request::parse_line(r#"{"op": "ingest", "points": [], "weight": 0}"#),
            Err(ProtocolError::BadField { .. })
        ));
        assert!(matches!(
            Request::parse_line(r#"{"op": "remove", "trajectory": -1}"#),
            Err(ProtocolError::BadField { .. })
        ));
        assert!(matches!(
            Request::parse_line(r#"{"op": "expire"}"#),
            Err(ProtocolError::MissingField { .. })
        ));
        assert!(matches!(
            Request::parse_line(r#"{"op": "expire", "keep": 1.5}"#),
            Err(ProtocolError::BadField { .. })
        ));
        // Inverted regions would trip `Aabb::new`'s assert downstream;
        // the parser must reject them (in either or both dimensions).
        for line in [
            r#"{"op": "region", "min": [1, 0], "max": [0, 0]}"#,
            r#"{"op": "region", "min": [0, 1], "max": [0, 0]}"#,
            r#"{"op": "region", "min": [2, 2], "max": [1, 1]}"#,
        ] {
            assert!(
                matches!(
                    Request::parse_line(line),
                    Err(ProtocolError::BadField { .. })
                ),
                "inverted region must be rejected: {line}"
            );
        }
        // Degenerate (zero-area) regions stay valid.
        assert_eq!(
            Request::parse_line(r#"{"op": "region", "min": [1, 1], "max": [1, 1]}"#),
            Ok(Request::Region {
                min: [1.0, 1.0],
                max: [1.0, 1.0]
            })
        );
    }

    #[test]
    fn ingest_caps_hold_at_and_above_each_limit() {
        let ingest = |points: Vec<[f64; 2]>| {
            Request::parse_line(
                &Request::Ingest {
                    points,
                    weight: None,
                }
                .to_line(),
            )
        };
        let at_cap = vec![[1.0, 2.0]; MAX_INGEST_POINTS];
        assert!(ingest(at_cap.clone()).is_ok());
        let mut over = at_cap;
        over.push([3.0, 4.0]);
        assert_eq!(
            ingest(over),
            Err(ProtocolError::TooManyPoints {
                limit: MAX_INGEST_POINTS
            })
        );

        let above = f64::from_bits(MAX_COORDINATE.to_bits() + 1);
        for c in [MAX_COORDINATE, -MAX_COORDINATE] {
            assert!(ingest(vec![[c, 0.0], [0.0, c]]).is_ok(), "{c:e} is allowed");
        }
        let too_large = |op| {
            Err(ProtocolError::CoordinateTooLarge {
                op,
                limit: MAX_COORDINATE,
            })
        };
        for c in [above, -above, 1e300, -1e77] {
            for point in [[c, 0.0], [0.0, c]] {
                assert_eq!(
                    ingest(vec![[0.0, 0.0], point]),
                    too_large("ingest"),
                    "{point:?}"
                );
            }
        }
        // The error names the op and the cap on the wire.
        assert_eq!(
            ProtocolError::CoordinateTooLarge {
                op: "ingest",
                limit: MAX_COORDINATE,
            }
            .to_string(),
            "ingest: a coordinate exceeds 1e50 in magnitude"
        );

        // `nearest` and `region` points share the cap: a `nearest` probe at
        // 1e200 squared its distances to infinity, so the lowest cluster id
        // won whatever was nearest.
        let nearest = |point| Request::parse_line(&Request::Nearest { point }.to_line());
        let region = |c: f64| {
            let (lo, hi) = (c.min(0.0), c.max(0.0));
            Request::parse_line(
                &Request::Region {
                    min: [lo, lo],
                    max: [hi, 0.0],
                }
                .to_line(),
            )
        };
        for c in [MAX_COORDINATE, -MAX_COORDINATE] {
            assert!(nearest([c, 0.0]).is_ok(), "nearest {c:e} is allowed");
            assert!(nearest([0.0, c]).is_ok(), "nearest {c:e} is allowed");
            assert!(region(c).is_ok(), "region {c:e} is allowed");
        }
        for c in [above, -above, 1e200, -1e77] {
            assert_eq!(nearest([c, 0.0]), too_large("nearest"), "{c:e}");
            assert_eq!(nearest([0.0, c]), too_large("nearest"), "{c:e}");
            assert_eq!(region(c), too_large("region"), "{c:e}");
        }
        assert_eq!(
            nearest([1e200, 0.0]).map_err(|e| e.to_string()),
            Err("nearest: a coordinate exceeds 1e50 in magnitude".to_string())
        );

        let weighted = |weight: f64| {
            Request::parse_line(
                &Request::Ingest {
                    points: vec![[0.0, 0.0], [1.0, 1.0]],
                    weight: Some(weight),
                }
                .to_line(),
            )
        };
        for w in [MAX_WEIGHT, f64::from_bits(MAX_WEIGHT.to_bits() - 1), 1.0] {
            assert!(weighted(w).is_ok(), "{w:e} is allowed");
        }
        for w in [f64::from_bits(MAX_WEIGHT.to_bits() + 1), 1e51, 1e300] {
            assert_eq!(
                weighted(w),
                Err(ProtocolError::WeightTooLarge { limit: MAX_WEIGHT }),
                "{w:e}"
            );
        }
        assert_eq!(
            ProtocolError::WeightTooLarge { limit: MAX_WEIGHT }.to_string(),
            "ingest: the weight exceeds 1e50"
        );
    }

    #[test]
    fn errors_render_as_wire_responses() {
        let resp = error_response(&ProtocolError::MissingOp);
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(false)));
        assert!(resp.get("error").and_then(JsonValue::as_str).is_some());
    }
}
