//! In-memory span recorder for the traced run.
//!
//! A span covers one call the benchmark makes into a layer's public
//! function: its layer, the function, start and end (nanoseconds since the
//! run's origin), the span that caused it, and the circuit or job it worked
//! on. Spans stay in memory until the run ends; a disabled tracer records
//! nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the called function belongs to (`atpg`, `replay`, …).
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// Circuit name or job id the call worked on.
    pub subject: String,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span recorder of one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    #[must_use]
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, subject: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            subject: subject.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = now;
            if open == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        subject: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(layer, name, subject);
        let value = f();
        self.end(id);
        value
    }

    /// Takes the recorded spans out, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        self.open.clear();
        std::mem::take(&mut self.spans)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Total seconds of the spans named `name`.
#[must_use]
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(Span::seconds)
        .sum()
}

/// Self time per layer: each span's duration minus the part its direct
/// children cover, summed by layer.
#[must_use]
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let own = span
            .end_ns
            .saturating_sub(span.start_ns)
            .saturating_sub(children);
        *by_layer.entry(span.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    by_layer
}

/// The spans as JSON lines (one object per span, `thread` tags which
/// recorder it came from).
#[must_use]
pub fn to_json_lines(spans: &[(usize, Span)]) -> String {
    let mut out = String::new();
    for (thread, span) in spans {
        let _ = writeln!(
            out,
            "{{\"thread\":{thread},\"layer\":\"{}\",\"name\":\"{}\",\"subject\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            span.layer,
            span.name,
            crate::report::escape(&span.subject),
            span.start_ns,
            span.end_ns,
            span.parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string()),
        );
    }
    out
}
