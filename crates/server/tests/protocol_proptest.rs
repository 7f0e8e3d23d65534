//! Protocol property tests: encode→decode round-trips for every request
//! shape, and parser totality — any line, however mangled, yields a typed
//! [`ProtocolError`] rather than a panic.

use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use rand::Rng;
use traclus_server::protocol::{MAX_COORDINATE, MAX_INGEST_POINTS, MAX_WEIGHT};
use traclus_server::{ProtocolError, Request};

fn arb_coord(rng: &mut TestRng) -> f64 {
    // Finite, mixed magnitude; fractional parts exercise float printing.
    rng.gen_range(-1.0e6..1.0e6)
}

fn arb_point(rng: &mut TestRng) -> [f64; 2] {
    [arb_coord(rng), arb_coord(rng)]
}

struct ArbRequest;

impl Strategy for ArbRequest {
    type Value = Request;
    fn generate(&self, rng: &mut TestRng) -> Request {
        match rng.gen_range(0..10u32) {
            0 => {
                let n = rng.gen_range(0..20usize);
                Request::Ingest {
                    points: (0..n).map(|_| arb_point(rng)).collect(),
                    weight: if rng.gen_range(0..2) == 0 {
                        None
                    } else {
                        Some(rng.gen_range(0.001..100.0f64))
                    },
                }
            }
            1 => Request::Membership {
                trajectory: rng.gen_range(0..u32::MAX),
            },
            2 => Request::Nearest {
                point: arb_point(rng),
            },
            3 => Request::Representatives,
            4 => {
                let a = arb_point(rng);
                let b = arb_point(rng);
                Request::Region {
                    min: [a[0].min(b[0]), a[1].min(b[1])],
                    max: [a[0].max(b[0]), a[1].max(b[1])],
                }
            }
            5 => Request::Stats,
            6 => Request::Flush,
            7 => Request::Remove {
                trajectory: rng.gen_range(0..u32::MAX),
            },
            8 => Request::Expire {
                keep: rng.gen_range(0..1_000_000usize),
            },
            _ => Request::Shutdown,
        }
    }
}

/// Corner pairs for `region` lines — deliberately unordered, so roughly
/// three in four draws invert at least one dimension.
struct ArbCorners;

impl Strategy for ArbCorners {
    type Value = ([f64; 2], [f64; 2]);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (arb_point(rng), arb_point(rng))
    }
}

/// Ingest point lists at and around both caps: a point count within two
/// of [`MAX_INGEST_POINTS`], or one coordinate within two ulps of
/// ±[`MAX_COORDINATE`].
struct ArbIngestNearCaps;

impl Strategy for ArbIngestNearCaps {
    type Value = Vec<[f64; 2]>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        if rng.gen_range(0..2u32) == 0 {
            let n = MAX_INGEST_POINTS - 2 + rng.gen_range(0..5usize);
            return (0..n).map(|_| arb_point(rng)).collect();
        }
        let mut points: Vec<[f64; 2]> = (0..rng.gen_range(1..5usize))
            .map(|_| arb_point(rng))
            .collect();
        let bits = MAX_COORDINATE.to_bits() - 2 + rng.gen_range(0..5u64);
        let sign = if rng.gen_range(0..2u32) == 0 {
            1.0
        } else {
            -1.0
        };
        let k = rng.gen_range(0..points.len());
        points[k][rng.gen_range(0..2usize)] = sign * f64::from_bits(bits);
        points
    }
}

/// Ingest weights at and around [`MAX_WEIGHT`]: within two ulps of the
/// cap, or anywhere from one to `1e308`.
struct ArbWeightNearCap;

impl Strategy for ArbWeightNearCap {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        if rng.gen_range(0..2u32) == 0 {
            f64::from_bits(MAX_WEIGHT.to_bits() - 2 + rng.gen_range(0..5u64))
        } else {
            10f64.powf(rng.gen_range(0.0..308.0f64))
        }
    }
}

/// Lines dense in almost-valid requests: protocol keywords, JSON
/// punctuation, numbers, and junk.
struct RequestSoup;

impl Strategy for RequestSoup {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        const FRAGMENTS: &[&str] = &[
            "{",
            "}",
            "[",
            "]",
            "\"",
            ":",
            ",",
            " ",
            "op",
            "ingest",
            "points",
            "weight",
            "membership",
            "trajectory",
            "nearest",
            "point",
            "region",
            "min",
            "max",
            "stats",
            "flush",
            "shutdown",
            "remove",
            "expire",
            "keep",
            "representatives",
            "1",
            "-3.5",
            "1e999",
            "null",
            "true",
            "\\u",
            "\\",
            "\u{0}",
            "é",
        ];
        let n = rng.gen_range(0..25usize);
        (0..n)
            .map(|_| FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())])
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_through_the_wire_format(request in ArbRequest) {
        let line = request.to_line();
        prop_assert!(!line.contains('\n'), "wire lines are single lines: {line:?}");
        let parsed = Request::parse_line(&line);
        prop_assert_eq!(parsed.as_ref(), Ok(&request), "line: {}", line);
    }

    #[test]
    fn region_bounds_are_validated_at_parse(corners in ArbCorners) {
        let (min, max) = corners;
        // `Aabb::new` asserts min <= max per dimension, so the parser must
        // reject inverted corners with a typed error — untrusted wire
        // input can never reach that assert.
        let line = format!(
            "{{\"op\": \"region\", \"min\": [{}, {}], \"max\": [{}, {}]}}",
            min[0], min[1], max[0], max[1]
        );
        let parsed = Request::parse_line(&line);
        if min[0] <= max[0] && min[1] <= max[1] {
            prop_assert_eq!(parsed, Ok(Request::Region { min, max }));
        } else {
            prop_assert!(
                matches!(parsed, Err(ProtocolError::BadField { .. })),
                "inverted region must parse to BadField: {}",
                line
            );
        }
    }

    #[test]
    fn ingest_caps_are_enforced_at_parse(points in ArbIngestNearCaps) {
        // Exactly the ingests within both caps parse; the rest get the
        // typed error of the cap they break, never a queued trajectory.
        let line = Request::Ingest { points: points.clone(), weight: None }.to_line();
        let parsed = Request::parse_line(&line);
        if points.len() > MAX_INGEST_POINTS {
            prop_assert_eq!(
                parsed,
                Err(ProtocolError::TooManyPoints { limit: MAX_INGEST_POINTS })
            );
        } else if points.iter().flatten().any(|c| c.abs() > MAX_COORDINATE) {
            prop_assert_eq!(
                parsed,
                Err(ProtocolError::CoordinateTooLarge { op: "ingest", limit: MAX_COORDINATE })
            );
        } else {
            prop_assert_eq!(parsed, Ok(Request::Ingest { points, weight: None }));
        }
    }

    #[test]
    fn weight_cap_is_enforced_at_parse(weight in ArbWeightNearCap) {
        // Exactly the weights within the cap parse; the rest get the
        // typed error, never a queued trajectory.
        let ingest = Request::Ingest { points: vec![[0.0, 0.0], [3.0, 4.0]], weight: Some(weight) };
        let parsed = Request::parse_line(&ingest.to_line());
        if weight > MAX_WEIGHT {
            prop_assert_eq!(parsed, Err(ProtocolError::WeightTooLarge { limit: MAX_WEIGHT }));
        } else {
            prop_assert_eq!(parsed, Ok(ingest));
        }
    }

    #[test]
    fn parser_is_total_on_soup(line in RequestSoup) {
        // Returning at all is the property; a parsed request must also
        // re-encode and re-parse to itself.
        match Request::parse_line(&line) {
            Ok(request) => {
                let reencoded = request.to_line();
                prop_assert_eq!(Request::parse_line(&reencoded), Ok(request));
            }
            Err(e) => {
                // Every error renders as a non-empty message (it becomes
                // the wire error response).
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}

#[test]
fn weight_zero_and_negative_rejected() {
    for w in ["0", "-1", "1e999", "null"] {
        let line = format!("{{\"op\": \"ingest\", \"points\": [], \"weight\": {w}}}");
        let parsed = Request::parse_line(&line);
        if w == "null" {
            assert_eq!(
                parsed,
                Ok(Request::Ingest {
                    points: vec![],
                    weight: None
                }),
                "explicit null weight means unweighted"
            );
        } else {
            assert!(
                matches!(
                    parsed,
                    Err(ProtocolError::BadField { .. }) | Err(ProtocolError::Json(_))
                ),
                "weight {w} must be rejected: {parsed:?}"
            );
        }
    }
}
