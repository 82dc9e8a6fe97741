//! An in-memory span recorder for the benchmark's traced run.
//!
//! Spans are placed by the benchmark around its own calls into each
//! layer's public functions; the program under test records nothing.
//! Spans stay in memory until [`write_json`] dumps them at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` on the recorder's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `spec.parse` or `session.run.imcis`.
    pub name: String,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The job the span belongs to (spans of one job share it).
    pub job: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. A disabled recorder only runs the
/// wrapped calls, so the traced and untraced phases execute the same code.
#[derive(Debug, Clone)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    notes: Vec<(String, f64)>,
}

impl Recorder {
    /// A recorder timing against `origin` (share one origin between the
    /// recorders of concurrent clients so their spans line up).
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Recorder {
            origin,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A new, empty recorder on the same clock.
    pub fn fork(&self) -> Recorder {
        Recorder::new(self.origin, self.enabled)
    }

    /// Appends a forked recorder's spans (parents re-based) and counts.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(rebase(other.spans, offset));
        self.notes.extend(other.notes);
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the recorder it is handed become children of this one.
    pub fn span<T>(&mut self, name: &str, job: u64, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span measured elsewhere (e.g. from wire-event arrival
    /// times) as a child of the innermost open span.
    pub fn record(&mut self, name: &str, job: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
            job,
        };
        self.spans.push(span);
    }

    /// Records a count observed at a layer boundary (bytes written,
    /// cache builds, search rounds); aggregated by name like spans.
    pub fn note(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.notes.push((name.to_string(), value));
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded counts.
    pub fn notes(&self) -> &[(String, f64)] {
        &self.notes
    }

    /// Consumes the recorder, returning its spans and counts.
    pub fn into_parts(self) -> (Vec<Span>, Vec<(String, f64)>) {
        (self.spans, self.notes)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Overlapping children (concurrent
/// calls) are covered once; children reaching past the parent are
/// clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let lo = span.start_ns.max(parent.start_ns);
            let hi = span.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = 0u64;
            for (lo, hi) in covered {
                let lo = lo.max(reach);
                if hi > lo {
                    union += hi - lo;
                }
                reach = reach.max(hi);
            }
            span.duration_ns().saturating_sub(union)
        })
        .collect()
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStats {
    /// Durations in ms, in recording order.
    pub durations_ms: Vec<f64>,
    /// Self times in ms, in recording order.
    pub self_ms: Vec<f64>,
}

/// Groups spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, SpanStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, SpanStats> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name.clone()).or_default();
        entry.durations_ms.push(span.duration_ns() as f64 / 1e6);
        entry.self_ms.push(self_ns as f64 / 1e6);
    }
    out
}

/// Serialises spans as a JSON array of
/// `{"name", "start_ns", "end_ns", "parent", "job", "self_ns"}` objects.
pub fn write_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (span, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"job\": {}, \"self_ns\": {}}}",
            span.name, span.start_ns, span.end_ns, parent, span.job, self_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// Re-bases every span of `spans` so parents index into a combined list
/// that already holds `offset` spans (merging per-client recorders).
pub fn rebase(spans: Vec<Span>, offset: usize) -> impl Iterator<Item = Span> {
    spans.into_iter().map(move |mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    })
}
