//! The traced run's spans: recorded in memory from ledger's own files around
//! the calls into each layer, aggregated when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Parent of a root span, and the id every call returns while tracing is off.
pub const NONE: u32 = u32::MAX;

/// One timed interval. `parent` is the index of the span that caused it;
/// spans of one request share `request_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder shared by the load threads. With tracing off every call
/// returns before reading a clock.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        spans.push(span);
        (spans.len() - 1) as u32
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: u32, request_id: u32) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let now = self.ns(Instant::now());
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request_id,
        })
    }

    pub fn end(&self, id: u32) {
        if id == NONE {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans.lock().expect("a tracing thread panicked")[id as usize].end_ns = now;
    }

    /// Record a span whose ends the caller already measured.
    pub fn record(
        &self,
        name: &'static str,
        parent: u32,
        request_id: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return NONE;
        }
        self.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request_id,
        })
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .clone()
    }

    /// Write every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            )?;
        }
        out.flush()
    }
}

/// Per span name: how many, their total duration and their total self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.count.max(1) as f64
    }

    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.count.max(1) as f64
    }
}

/// A span's self time is its duration minus the part of its interval that
/// its child spans cover (children of concurrent threads may overlap, so the
/// cover is the union of their intervals).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// [`Totals`] by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = by_name.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    by_name
}

/// Share of the root spans' wall time that the layer spans below them
/// account for: `1 - self time of roots / duration of roots`.
pub fn coverage(spans: &[Span]) -> f64 {
    let (mut wall, mut own) = (0u64, 0u64);
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        if span.parent == NONE {
            wall += span.duration_ns();
            own += self_ns;
        }
    }
    if wall == 0 {
        0.0
    } else {
        1.0 - own as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", 0, 100, NONE),
            // Two client threads overlap between 30 and 40.
            span("request", 10, 40, 0),
            span("request", 30, 70, 0),
            // A grandchild does not reduce the root's self time again.
            span("stream", 50, 60, 2),
            // A child reaching past its parent is clipped.
            span("request", 90, 120, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10, 30]);
        let by_name = totals(&spans);
        assert_eq!(by_name["request"].count, 3);
        assert_eq!(by_name["request"].total_ns, 100);
        assert_eq!(by_name["request"].self_ns, 90);
        assert!((coverage(&spans) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        let id = off.begin("x", NONE, 0);
        off.end(id);
        assert_eq!(id, NONE);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        let root = on.begin("root", NONE, 7);
        let child = on.begin("child", root, 7);
        on.end(child);
        on.end(root);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
