//! Benchmark-side host spans: setup → run → node program → `Am` call.
//!
//! Spans are timed with `Instant` around the benchmark's own calls into the
//! library, kept in memory, and written out when the benchmark ends. Node
//! programs run on their own threads, so each keeps a local buffer
//! ([`NodeSpans`]) and hands it to the run's shared [`SpanLog`] when it
//! returns; nothing is shared between runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which level of the span tree a span sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    Setup,
    Run,
    Node,
    Am,
}

impl Level {
    pub const ALL: [Level; 4] = [Level::Setup, Level::Run, Level::Node, Level::Am];

    pub fn name(self) -> &'static str {
        match self {
            Level::Setup => "setup",
            Level::Run => "run",
            Level::Node => "node",
            Level::Am => "am",
        }
    }
}

/// One closed span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub level: Level,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one benchmark repetition.
#[derive(Clone)]
pub struct SpanLog {
    epoch: Instant,
    next_id: Arc<AtomicU64>,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            next_id: Arc::new(AtomicU64::new(0)),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn id(&self) -> u64 {
        // Relaxed: the id only has to be unique; it publishes no data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span that started at `start` and ends now.
    pub fn close(&self, level: Level, name: &'static str, start: Instant) {
        self.close_as(self.id(), level, name, None, start);
    }

    /// Reserve an id for a span whose children close before it does.
    pub fn open(&self) -> u64 {
        self.id()
    }

    /// Record a span under a reserved id.
    pub fn close_as(
        &self,
        id: u64,
        level: Level,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
    ) {
        let span = Span {
            id,
            parent,
            level,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// A per-thread buffer for one node program whose span is `node_id`.
    pub fn node(&self, node_id: u64) -> NodeSpans {
        NodeSpans {
            log: self.clone(),
            node_id,
            start: Instant::now(),
            buf: Vec::new(),
        }
    }

    pub fn take(&self) -> Vec<Span> {
        let mut v = std::mem::take(&mut *self.spans.lock().expect("span log poisoned"));
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Spans of one node program, buffered locally and flushed on [`NodeSpans::finish`].
pub struct NodeSpans {
    log: SpanLog,
    node_id: u64,
    start: Instant,
    buf: Vec<Span>,
}

impl NodeSpans {
    /// Time one `Am` call.
    pub fn am<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.buf.push(Span {
            id: self.log.id(),
            parent: Some(self.node_id),
            level: Level::Am,
            name,
            start_ns: self.log.ns(start),
            end_ns: self.log.ns(end),
        });
        out
    }

    /// Host nanoseconds of every recorded `Am` call named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.buf
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Close the node program's span under `parent` and flush the buffer.
    pub fn finish(self, name: &'static str, parent: u64) {
        let mut spans = self.log.spans.lock().expect("span log poisoned");
        spans.extend(self.buf);
        spans.push(Span {
            id: self.node_id,
            parent: Some(parent),
            level: Level::Node,
            name,
            start_ns: self.log.ns(self.start),
            end_ns: self.log.ns(Instant::now()),
        });
    }
}

/// Self time of each span: its duration minus the part of it that its
/// children cover (children may overlap one another; their union counts).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut cur_end) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(s.start_ns, s.end_ns), b.clamp(s.start_ns, s.end_ns));
                let a = a.max(cur_end);
                if b > a {
                    covered += b - a;
                    cur_end = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self seconds per tree level.
pub fn self_seconds_by_level(spans: &[Span]) -> Vec<(Level, f64)> {
    let selfs = self_times_ns(spans);
    Level::ALL
        .iter()
        .map(|&lvl| {
            let ns: u64 = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.level == lvl)
                .map(|(_, &t)| t)
                .sum();
            (lvl, ns as f64 / 1e9)
        })
        .collect()
}

/// The spans as a JSON array: id, parent, level, name, start, end, self.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(&selfs)
        .map(|(s, self_ns)| {
            format!(
                "{{\"id\":{},\"parent\":{},\"level\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.level.name(),
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            level: Level::Run,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),  // overlaps child 1
            span(3, Some(0), 90, 120), // runs past the parent's end
            span(4, Some(1), 10, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50 - 10, 20, 30, 30, 10]);
    }
}
