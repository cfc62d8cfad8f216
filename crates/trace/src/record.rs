//! The plain-old-data trace record and its vocabulary ([`Kind`], [`Track`],
//! [`Phase`]).
//!
//! Records are fixed-size copyable structs so the recorder ring buffer never
//! allocates per event. Timestamps are raw virtual-time nanoseconds (`u64`),
//! not `sp_sim::Time`, so this crate sits below every other workspace crate
//! and all of them can depend on it without cycles.

/// How a record should be interpreted (and rendered by exporters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// A point event: `at` is the instant, `dur` is zero.
    Instant,
    /// A duration event: `[at, at + dur)` in virtual time.
    Span,
    /// A sampled value: `arg` is the value at time `at`.
    Counter,
}

/// What happened. Each kind has a fixed [`Phase`] and a stable display name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum Kind {
    // --- engine ---
    /// A parked/sleeping node became runnable (dispatch of a `Wake` event).
    EngineWake,
    /// Dispatch of a boxed-closure event.
    EngineCall,
    /// Dispatch of an allocation-free hot event.
    EngineHot,
    /// A node charged virtual time and yielded until the span's end
    /// (`arg` is 0).
    NodeAdvance,
    /// A node blocked in `park` (`arg` is 0).
    NodePark,
    /// An unpark was queued as a wake event for a parked node.
    NodeUnpark,
    /// Cumulative count of unparks coalesced into an already-queued wake
    /// for this node (the storm-coalescing optimisation made observable).
    WakeCoalesced,
    /// A parallel run completed a conservative lookahead window: all shards
    /// reached the barrier and the horizon advanced. `arg` is the barrier
    /// round number.
    ShardBarrier,
    /// The active portion of one lookahead window on one shard: window
    /// start to the shard's local clock at barrier arrival. `arg` is the
    /// number of events the shard executed inside the window.
    ShardWindow,
    /// The idle tail of one lookahead window on one shard: the shard's
    /// local clock at barrier arrival to the window horizon (time spent
    /// waiting for slower shards). `arg` is the barrier round number.
    ShardWait,
    /// A cross-shard sync event was applied on the destination shard.
    /// `arg` is the event's scheduled virtual time.
    ShardSyncApply,
    /// A shard's event-heap depth sampled at barrier arrival.
    ShardHeapDepth,

    // --- host <-> adapter (MicroChannel side) ---
    /// Host CPU built a send-FIFO entry: memcpy + cache-line flush.
    /// `arg` is the packet's wire bytes.
    HostWrite,
    /// Host CPU doorbell: one programmed-I/O write to the adapter.
    HostDoorbell,
    /// Host CPU polled the receive FIFO and found a packet: memcpy out +
    /// flush. `arg` is the packet's wire bytes.
    HostPollHit,
    /// Host CPU polled the receive FIFO and found it empty.
    HostPollEmpty,
    /// Host CPU flushed a batch of lazy FIFO pops to the adapter (one PIO
    /// write covering `arg` accumulated pops).
    HostLazyPop,

    // --- adapter firmware / DMA ---
    /// Adapter firmware serviced a send-FIFO entry and DMAed it onto the
    /// link. `arg` is wire bytes.
    FwSend,
    /// Adapter firmware received a packet from the link and DMAed it into
    /// the receive FIFO. `arg` is wire bytes.
    FwRecv,
    /// A packet landed in a node's receive FIFO. `arg` is wire bytes.
    RecvDeliver,
    /// A packet was dropped: receive FIFO full. `arg` is wire bytes.
    RecvDrop,
    /// Receive-FIFO occupancy (entries) sampled after a delivery.
    RecvOccupancy,

    // --- switch fabric ---
    /// One packet's fabric traversal, injection start to ejection finish.
    /// `arg` is the destination node.
    SwitchHop,
    /// A link was busy serializing one packet (injection or ejection side,
    /// per the record's track). `arg` is wire bytes.
    LinkBusy,
    /// The fabric dropped a packet (fault injection). `arg` is wire bytes.
    SwitchDrop,
    /// The fabric delayed a packet (fault injection). `arg` is wire bytes.
    SwitchDelayed,
    /// The fabric duplicated a packet (fault injection): a second copy will
    /// reach the destination later. `arg` is wire bytes.
    SwitchDup,
    /// The adaptive route policy steered a packet off the round-robin
    /// candidate, recorded on the chosen cable's track. `arg` is the
    /// occupancy delta dodged: how much later (ns) the round-robin
    /// candidate's first contended link would have freed.
    RouteAdaptive,
    /// Backlog on a fabric link sampled when a packet was scheduled onto
    /// it: nanoseconds until the link frees, measured at injection time.
    LinkBacklog,

    // --- active messages ---
    /// CPU cost of composing and enqueuing a request. `arg` is the
    /// destination node.
    AmRequest,
    /// CPU cost of composing and enqueuing a reply. `arg` is the
    /// destination node.
    AmReply,
    /// One poll of the network: fixed poll overhead. Packet handling is
    /// recorded separately ([`Kind::AmDispatch`]).
    AmPoll,
    /// Header decode + handler dispatch for one received packet. `arg` is
    /// the source node.
    AmDispatch,
    /// A cumulative ack was processed and freed window slots. `arg` packs
    /// `cum | channel << 32` (channel 0 = request, 1 = reply).
    AmAck,
    /// A NACK arrived; go-back-N retransmission of `arg` packets follows.
    AmNackIn,
    /// A NACK was sent for an out-of-order packet. `arg` is the expected
    /// sequence number.
    AmNackOut,
    /// A keep-alive probe was sent. `arg` is the destination node.
    AmProbe,
    /// An idle keep-alive round fired (all peers probed).
    AmKeepalive,
    /// The receiver dropped a duplicate sequenced packet and re-ACKed.
    /// `arg` is the duplicate's sequence number.
    AmDupDrop,
    /// The receiver dropped an out-of-order sequenced packet. `arg` is the
    /// offending packet's sequence number.
    AmOooDrop,
    /// Go-back-N retransmission: `arg` packets re-entered the wire queue.
    AmRetransmit,
    /// First packet of a bulk-transfer chunk entered the send FIFO. `arg`
    /// is the chunk's starting sequence number.
    AmChunkStart,
    /// Last packet of a bulk-transfer chunk was handed to the adapter.
    /// `arg` is the chunk's final sequence number.
    AmChunkEnd,
    /// A bulk store was initiated. `arg` is the payload length.
    AmStore,
    /// A bulk get was initiated. `arg` is the payload length.
    AmGet,
    /// The adaptive retransmission timeout expired: `arg` packets
    /// (the oldest unacked sequence) re-entered the wire queue.
    AmRtoRtx,
    /// A SACK bitmap revealed receiver-side gaps: `arg` packets were
    /// selectively retransmitted.
    AmSackRtx,
    /// An out-of-order packet was buffered for selective repeat instead of
    /// being dropped. `arg` is its sequence number.
    AmOooHold,
    /// A packet from (or addressed to) a dead incarnation was dropped by
    /// the epoch check. `arg` is the stale epoch.
    AmStaleDrop,
    /// A peer's new incarnation epoch was adopted: receive state reset,
    /// in-flight traffic renumbered. `arg` is the adopted epoch.
    AmEpochAdopt,
    /// This node crashed: all protocol and adapter-FIFO state wiped. `arg`
    /// is the new incarnation epoch.
    AmCrash,
    /// This node finished restarting and resumed polling. `arg` is the
    /// incarnation epoch.
    AmRestart,
    /// First delivered packet of the new incarnation: recovery complete.
    /// `arg` is the recovery time in ns (restart to this delivery).
    AmRecovered,

    // --- user / benchmark marks ---
    /// An application-defined span (e.g. one timed round trip). `arg` is
    /// caller-defined.
    UserSpan,
    /// An application-defined instant. `arg` is caller-defined.
    UserMark,
}

impl Kind {
    /// The phase this kind renders as.
    pub fn phase(self) -> Phase {
        use Kind::*;
        match self {
            NodeAdvance | HostWrite | HostDoorbell | HostPollHit | HostPollEmpty | HostLazyPop
            | FwSend | FwRecv | SwitchHop | LinkBusy | AmRequest | AmReply | AmPoll
            | AmDispatch | UserSpan | ShardWindow | ShardWait => Phase::Span,
            RecvOccupancy | WakeCoalesced | ShardHeapDepth | LinkBacklog => Phase::Counter,
            _ => Phase::Instant,
        }
    }

    /// Stable display name (used by the Chrome exporter and reports).
    pub fn name(self) -> &'static str {
        use Kind::*;
        match self {
            EngineWake => "engine-wake",
            EngineCall => "engine-call",
            EngineHot => "engine-hot",
            NodeAdvance => "advance",
            NodePark => "park",
            NodeUnpark => "unpark",
            WakeCoalesced => "wakes-coalesced",
            ShardBarrier => "shard-barrier",
            ShardWindow => "shard-window",
            ShardWait => "shard-wait",
            ShardSyncApply => "shard-sync-apply",
            ShardHeapDepth => "shard-heap",
            HostWrite => "host-write",
            HostDoorbell => "doorbell",
            HostPollHit => "poll-hit",
            HostPollEmpty => "poll-empty",
            HostLazyPop => "lazy-pop",
            FwSend => "fw-send",
            FwRecv => "fw-recv",
            RecvDeliver => "recv-deliver",
            RecvDrop => "recv-drop",
            RecvOccupancy => "recv-occupancy",
            SwitchHop => "switch-hop",
            LinkBusy => "link-busy",
            SwitchDrop => "switch-drop",
            SwitchDelayed => "switch-delayed",
            SwitchDup => "switch-dup",
            RouteAdaptive => "route-adaptive",
            LinkBacklog => "link-backlog",
            AmRequest => "am-request",
            AmReply => "am-reply",
            AmPoll => "am-poll",
            AmDispatch => "am-dispatch",
            AmAck => "am-ack",
            AmNackIn => "am-nack-in",
            AmNackOut => "am-nack-out",
            AmProbe => "am-probe",
            AmKeepalive => "am-keepalive",
            AmDupDrop => "am-dup-drop",
            AmOooDrop => "am-ooo-drop",
            AmRetransmit => "am-retransmit",
            AmChunkStart => "chunk-start",
            AmChunkEnd => "chunk-end",
            AmStore => "am-store",
            AmGet => "am-get",
            AmRtoRtx => "am-rto-rtx",
            AmSackRtx => "am-sack-rtx",
            AmOooHold => "am-ooo-hold",
            AmStaleDrop => "am-stale-drop",
            AmEpochAdopt => "am-epoch-adopt",
            AmCrash => "am-crash",
            AmRestart => "am-restart",
            AmRecovered => "am-recovered",
            UserSpan => "user-span",
            UserMark => "user-mark",
        }
    }
}

/// Which hardware resource a track models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrackKind {
    /// A node's host CPU (the node program).
    Program,
    /// A node's communication adapter (firmware + FIFOs).
    Adapter,
    /// A node's injection link into the switch fabric.
    SwitchInj,
    /// A node's ejection link out of the switch fabric.
    SwitchEj,
    /// The discrete-event engine itself (global, not per node).
    Engine,
    /// An inter-frame cable inside a multi-frame switch fabric (global,
    /// indexed by cable, not owned by any node).
    SwitchXLink,
    /// One shard of the conservative-parallel engine (global, indexed by
    /// shard, not owned by any node).
    Shard,
}

/// A timeline: one per modeled resource. Encoded as a `u32` —
/// `kind << 24 | node` — so records stay plain old data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track(u32);

const TRACK_NODE_MAX: u32 = (1 << 24) - 1;

impl Track {
    /// The engine's global track.
    pub const ENGINE: Track = Track(4 << 24);

    fn node_track(kind: u32, node: usize) -> Track {
        let n = node as u32;
        assert!(n <= TRACK_NODE_MAX, "node index out of track range");
        Track(kind << 24 | n)
    }

    /// Node `node`'s host-CPU track.
    pub fn program(node: usize) -> Track {
        Track::node_track(0, node)
    }

    /// Node `node`'s adapter track.
    pub fn adapter(node: usize) -> Track {
        Track::node_track(1, node)
    }

    /// Node `node`'s injection-link track.
    pub fn switch_inj(node: usize) -> Track {
        Track::node_track(2, node)
    }

    /// Node `node`'s ejection-link track.
    pub fn switch_ej(node: usize) -> Track {
        Track::node_track(3, node)
    }

    /// Inter-frame cable `index`'s track (multi-frame fabrics only).
    pub fn switch_xlink(index: usize) -> Track {
        Track::node_track(5, index)
    }

    /// Shard `index`'s track (conservative-parallel runs only).
    pub fn shard(index: usize) -> Track {
        Track::node_track(6, index)
    }

    /// The resource kind this track models.
    pub fn kind(self) -> TrackKind {
        match self.0 >> 24 {
            0 => TrackKind::Program,
            1 => TrackKind::Adapter,
            2 => TrackKind::SwitchInj,
            3 => TrackKind::SwitchEj,
            5 => TrackKind::SwitchXLink,
            6 => TrackKind::Shard,
            _ => TrackKind::Engine,
        }
    }

    /// The node this track belongs to, or `None` for the engine,
    /// inter-frame cable, and shard tracks (which are global resources).
    pub fn node(self) -> Option<usize> {
        match self.kind() {
            TrackKind::Engine | TrackKind::SwitchXLink | TrackKind::Shard => None,
            _ => Some((self.0 & TRACK_NODE_MAX) as usize),
        }
    }

    /// The cable index of an inter-frame cable track, `None` otherwise.
    pub fn xlink_index(self) -> Option<usize> {
        match self.kind() {
            TrackKind::SwitchXLink => Some((self.0 & TRACK_NODE_MAX) as usize),
            _ => None,
        }
    }

    /// The shard index of a shard track, `None` otherwise.
    pub fn shard_index(self) -> Option<usize> {
        match self.kind() {
            TrackKind::Shard => Some((self.0 & TRACK_NODE_MAX) as usize),
            _ => None,
        }
    }

    /// Human-readable label, e.g. `node 3 adapter`.
    pub fn label(self) -> String {
        match (self.kind(), self.node()) {
            (TrackKind::Program, Some(n)) => format!("node {n} program"),
            (TrackKind::Adapter, Some(n)) => format!("node {n} adapter"),
            (TrackKind::SwitchInj, Some(n)) => format!("node {n} inj link"),
            (TrackKind::SwitchEj, Some(n)) => format!("node {n} ej link"),
            (TrackKind::SwitchXLink, _) => {
                format!("xlink cable {}", self.0 & TRACK_NODE_MAX)
            }
            (TrackKind::Shard, _) => format!("shard {}", self.0 & TRACK_NODE_MAX),
            _ => "engine".to_string(),
        }
    }
}

/// One recorded event: 48 bytes, `Copy`, no heap data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Virtual-time start, nanoseconds.
    pub at: u64,
    /// Duration in nanoseconds (zero for instants and counters).
    pub dur: u64,
    /// Global record sequence number: total order across all rings, so a
    /// merged trace sorts deterministically even at equal timestamps.
    pub seq: u64,
    /// Caller-defined argument (wire bytes, peer node, counter value, ...).
    pub arg: u64,
    /// Which timeline this record belongs to.
    pub track: Track,
    /// What happened.
    pub kind: Kind,
}

impl Record {
    /// Virtual-time end of the record (`at` for instants/counters).
    pub fn end(&self) -> u64 {
        self.at + self.dur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_roundtrip() {
        let t = Track::adapter(7);
        assert_eq!(t.kind(), TrackKind::Adapter);
        assert_eq!(t.node(), Some(7));
        assert_eq!(Track::ENGINE.node(), None);
        assert_eq!(Track::ENGINE.kind(), TrackKind::Engine);
        assert_eq!(Track::switch_inj(0).label(), "node 0 inj link");
    }

    #[test]
    fn xlink_track_roundtrip() {
        let t = Track::switch_xlink(9);
        assert_eq!(t.kind(), TrackKind::SwitchXLink);
        assert_eq!(t.node(), None, "cables are not owned by a node");
        assert_eq!(t.xlink_index(), Some(9));
        assert_eq!(Track::switch_inj(9).xlink_index(), None);
        assert_eq!(t.label(), "xlink cable 9");
    }

    #[test]
    fn phases_are_consistent() {
        assert_eq!(Kind::NodeAdvance.phase(), Phase::Span);
        assert_eq!(Kind::RecvDrop.phase(), Phase::Instant);
        assert_eq!(Kind::RecvOccupancy.phase(), Phase::Counter);
        assert_eq!(Kind::WakeCoalesced.phase(), Phase::Counter);
        assert_eq!(Kind::ShardWindow.phase(), Phase::Span);
        assert_eq!(Kind::ShardWait.phase(), Phase::Span);
        assert_eq!(Kind::ShardSyncApply.phase(), Phase::Instant);
        assert_eq!(Kind::ShardHeapDepth.phase(), Phase::Counter);
        assert_eq!(Kind::LinkBacklog.phase(), Phase::Counter);
    }

    #[test]
    fn shard_track_roundtrip() {
        let t = Track::shard(3);
        assert_eq!(t.kind(), TrackKind::Shard);
        assert_eq!(t.node(), None, "shards are not owned by a node");
        assert_eq!(t.shard_index(), Some(3));
        assert_eq!(Track::program(3).shard_index(), None);
        assert_eq!(t.label(), "shard 3");
    }
}
