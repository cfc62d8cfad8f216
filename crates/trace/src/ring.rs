//! The recorder: per-node fixed-capacity ring buffers behind a cloneable
//! [`Tracer`] handle.
//!
//! Every component that can observe events holds an `Option<Tracer>`; when
//! tracing is off the option is `None` and the cost is a single branch — no
//! locks, no allocation, nothing on the engine's hot path. When tracing is
//! on, each record costs one short uncontended mutex acquire on the ring
//! owned by the record's node (the engine's single-runner discipline means
//! rings are effectively single-writer).

use crate::record::{Kind, Record, Track, TrackKind};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fixed-capacity overwrite-oldest buffer of [`Record`]s.
struct Ring {
    buf: Vec<Record>,
    cap: usize,
    /// Next write position once the buffer has wrapped.
    next: usize,
    /// Records overwritten because the ring was full.
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, r: Record) {
        if self.buf.len() < self.cap {
            self.buf.push(r);
        } else {
            self.buf[self.next] = r;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

struct Shared {
    /// One ring per node plus a final ring for engine-global records.
    rings: Vec<Mutex<Ring>>,
    /// Global record sequence counter (total order across rings).
    seq: AtomicU64,
}

/// Cloneable handle to the trace recorder. All clones share the same rings.
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("records", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Tracer {
    /// A recorder for `nodes` nodes with `per_node_capacity` records per
    /// node (plus one engine-global ring of the same capacity). Capacity is
    /// allocated up front; recording never allocates.
    pub fn new(nodes: usize, per_node_capacity: usize) -> Tracer {
        assert!(per_node_capacity > 0, "ring capacity must be positive");
        let rings = (0..nodes + 1)
            .map(|_| Mutex::new(Ring::new(per_node_capacity)))
            .collect();
        Tracer {
            shared: Arc::new(Shared {
                rings,
                seq: AtomicU64::new(0),
            }),
        }
    }

    fn ring_index(&self, track: Track) -> usize {
        let engine = self.shared.rings.len() - 1;
        match track.kind() {
            // Inter-frame cables and shards are global resources like the
            // engine.
            TrackKind::Engine | TrackKind::SwitchXLink | TrackKind::Shard => engine,
            _ => track.node().unwrap_or(engine).min(engine - 1),
        }
    }

    fn push(&self, r: Record) {
        self.shared.rings[self.ring_index(r.track)].lock().push(r);
    }

    fn next_seq(&self) -> u64 {
        self.shared.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Record an instant at virtual time `at` (nanoseconds).
    pub fn instant(&self, at: u64, track: Track, kind: Kind, arg: u64) {
        let seq = self.next_seq();
        self.push(Record {
            at,
            dur: 0,
            seq,
            arg,
            track,
            kind,
        });
    }

    /// Record a span covering virtual time `[begin, end)` (nanoseconds).
    pub fn span(&self, begin: u64, end: u64, track: Track, kind: Kind, arg: u64) {
        let seq = self.next_seq();
        self.push(Record {
            at: begin,
            dur: end.saturating_sub(begin),
            seq,
            arg,
            track,
            kind,
        });
    }

    /// Record a counter sample `value` at virtual time `at` (nanoseconds).
    pub fn counter(&self, at: u64, track: Track, kind: Kind, value: u64) {
        self.instant(at, track, kind, value);
    }

    /// All records so far, merged across rings and sorted by `(at, seq)`.
    /// Non-destructive: recording may continue afterwards.
    pub fn snapshot(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.len());
        for ring in &self.shared.rings {
            out.extend_from_slice(&ring.lock().buf);
        }
        out.sort_by_key(|r| (r.at, r.seq));
        out
    }

    /// Total records currently held across all rings.
    pub fn len(&self) -> usize {
        self.shared.rings.iter().map(|r| r.lock().buf.len()).sum()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records lost to ring overflow (oldest-first overwrite).
    pub fn dropped(&self) -> u64 {
        self.shared.rings.iter().map(|r| r.lock().dropped).sum()
    }

    /// Discard all records (capacity and sequence counter are kept).
    pub fn clear(&self) {
        for ring in &self.shared.rings {
            let mut g = ring.lock();
            g.buf.clear();
            g.next = 0;
            g.dropped = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_merge_sorted() {
        let t = Tracer::new(2, 16);
        t.instant(50, Track::program(1), Kind::NodePark, 0);
        t.span(10, 30, Track::program(0), Kind::NodeAdvance, 1);
        t.counter(20, Track::adapter(0), Kind::RecvOccupancy, 3);
        let recs = t.snapshot();
        assert_eq!(recs.len(), 3);
        assert!(recs
            .windows(2)
            .all(|w| (w[0].at, w[0].seq) <= (w[1].at, w[1].seq)));
        assert_eq!(recs[0].at, 10);
        assert_eq!(recs[0].dur, 20);
        assert_eq!(recs[2].kind, Kind::NodePark);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let t = Tracer::new(1, 4);
        for i in 0..10u64 {
            t.instant(i, Track::program(0), Kind::UserMark, i);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let recs = t.snapshot();
        assert_eq!(recs.iter().map(|r| r.arg).collect::<Vec<_>>(), [6, 7, 8, 9]);
    }

    #[test]
    fn clone_shares_rings() {
        let t = Tracer::new(1, 8);
        let t2 = t.clone();
        t.instant(1, Track::program(0), Kind::UserMark, 0);
        t2.instant(2, Track::program(0), Kind::UserMark, 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.snapshot()[1].arg, 1);
    }

    #[test]
    fn clear_resets() {
        let t = Tracer::new(1, 2);
        for i in 0..5 {
            t.instant(i, Track::program(0), Kind::UserMark, i);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn out_of_range_node_lands_in_last_node_ring() {
        let t = Tracer::new(2, 4);
        t.instant(0, Track::program(99), Kind::UserMark, 0);
        assert_eq!(t.len(), 1);
    }
}
