//! In-memory spans recorded by the benchmark's own code around each call
//! into a library layer. Spans are kept in memory during the run and
//! written out once at exit; per-layer figures are derived from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: its layer name, interval, parent span and request.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span; 0 for a root span.
    pub parent: u64,
    /// Request the span belongs to; 0 for set-up and standalone probes.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A per-thread span recorder. Ids are unique across tracers that were
/// given distinct `id_base`s, so spans from caller threads can be merged.
pub struct Tracer {
    origin: Instant,
    id_base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, id_base: u64) -> Self {
        Tracer {
            origin,
            id_base,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span and return its id; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, parent: u64, request: u64) -> u64 {
        let id = self.id_base + self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn exit(&mut self, id: u64) {
        let end = self.now_ns();
        let span = &mut self.spans[(id - self.id_base - 1) as usize];
        span.end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, parent, request);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (ms) of every span with this name.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Self time (ms) of every span with this name: its duration minus the
/// time its direct children cover. Children of one span run one after
/// another on the parent's thread, so their durations add up.
pub fn self_times(spans: &[Span], name: &str) -> Vec<f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            own as f64 / 1e6
        })
        .collect()
}

/// The spans as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out.push(']');
    out
}
