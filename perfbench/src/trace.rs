//! In-memory spans recorded around the benchmark's calls into the library,
//! written out once when the run ends.

// xtask:allow-file(wall-clock): spans are wall-clock intervals by
// definition; they annotate the report and never feed back into clustering.

use std::time::Instant;

use traclus_json::JsonValue;

/// One timed call: name, start and end (seconds since the tracer was
/// created), and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin (`NaN` while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// A span recorder. Spans are appended in start order; ids are indices.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Self::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span; returns its result and the span's duration
    /// in seconds.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        (out, self.spans[id].seconds())
    }

    /// Duration of one span in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        self.spans[id].seconds()
    }

    /// Total duration of the direct children of `parent`.
    pub fn children_seconds(&self, parent: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::seconds)
            .sum()
    }

    /// All spans as a JSON array of `{name, start, end, parent}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::array(self.spans.iter().map(|s| {
            JsonValue::object([
                ("name", JsonValue::from(s.name)),
                ("start", JsonValue::from(s.start)),
                ("end", JsonValue::from(s.end)),
                ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
            ])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_spans_nest_inside_their_parent() {
        let mut tr = Tracer::new();
        let root = tr.open("root", None);
        let (v, a) = tr.scope("a", Some(root), || 1 + 1);
        let (_, b) = tr.scope("b", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.close(root);
        assert_eq!(v, 2);
        assert!(b >= 0.002);
        let covered = tr.children_seconds(root);
        assert!((covered - (a + b)).abs() < 1e-12);
        assert!(covered <= tr.seconds(root));
        let json = tr.to_json().to_compact();
        assert!(json.contains("\"parent\": 0"), "{json}");
    }
}
