//! Packet geometry, the per-node adapter state machine, and its statistics.

use std::collections::VecDeque;

/// Bytes per FIFO entry (= max packet size on the wire).
pub const ENTRY_BYTES: usize = 256;
/// Packet header bytes (destination, route, sequence bookkeeping).
pub const HEADER_BYTES: usize = 32;
/// Maximum payload bytes per packet (`ENTRY_BYTES - HEADER_BYTES`).
pub const MAX_PAYLOAD: usize = ENTRY_BYTES - HEADER_BYTES;
/// Send FIFO entries on TB2.
pub const SEND_FIFO_ENTRIES: usize = 128;
/// Receive FIFO entries per active source node on TB2.
pub const RECV_ENTRIES_PER_NODE: usize = 64;

/// Error returned when the send FIFO has no free entry; the caller must
/// poll (letting the firmware drain) and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoFull;

impl std::fmt::Display for FifoFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "send FIFO full")
    }
}

impl std::error::Error for FifoFull {}

/// One packet as the adapter sees it: addressing, a wire byte count, and an
/// opaque protocol payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePacket<P> {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Bytes transferred on the wire (header + payload), `<= ENTRY_BYTES`.
    pub wire_bytes: usize,
    /// Protocol-defined content.
    pub payload: P,
}

impl<P> WirePacket<P> {
    /// Build a packet carrying `payload_bytes` of protocol payload.
    /// Panics if the payload exceeds [`MAX_PAYLOAD`].
    pub fn new(src: usize, dst: usize, payload_bytes: usize, payload: P) -> Self {
        assert!(
            payload_bytes <= MAX_PAYLOAD,
            "payload {payload_bytes} exceeds {MAX_PAYLOAD}"
        );
        WirePacket {
            src,
            dst,
            wire_bytes: HEADER_BYTES + payload_bytes,
            payload,
        }
    }
}

/// Counters kept by each adapter, exposed for tests and experiments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdapterStats {
    /// Packets handed to the switch.
    pub sent: u64,
    /// Packets delivered into the receive FIFO.
    pub received: u64,
    /// Packets dropped because the receive FIFO was full — the loss source
    /// SP AM's flow control exists to survive.
    pub dropped_overflow: u64,
    /// Doorbell (length-array) MicroChannel stores performed by the host.
    pub doorbells: u64,
    /// Lazy receive-FIFO pops (MicroChannel accesses) performed by the host.
    pub lazy_pops: u64,
    /// High-water mark of receive FIFO occupancy.
    pub recv_high_water: usize,
    /// Written-but-unsent send-FIFO entries lost to a crash wipe.
    pub wiped_send: u64,
    /// Delivered-but-unread receive-FIFO entries lost to a crash wipe.
    pub wiped_recv: u64,
}

/// Send-FIFO entry state: written by the host, made ready by a doorbell.
#[derive(Debug)]
pub(crate) struct SendEntry<P> {
    pub(crate) pkt: WirePacket<P>,
    pub(crate) ready: bool,
}

/// Per-node adapter state.
#[derive(Debug)]
pub(crate) struct Adapter<P> {
    /// Send FIFO: host appends, firmware pops ready entries from the front.
    pub(crate) send_fifo: VecDeque<SendEntry<P>>,
    pub(crate) send_capacity: usize,
    /// Whether a firmware send-scan event chain is currently active.
    pub(crate) fw_send_active: bool,
    /// Injected send-engine stall: the firmware pops no packet before this.
    pub(crate) send_stall_until: sp_sim::Time,
    /// When the receive engine finishes its current packet.
    pub(crate) recv_busy_until: sp_sim::Time,
    /// Receive FIFO: packets DMA'd into host memory, not yet read.
    pub(crate) recv_fifo: VecDeque<WirePacket<P>>,
    /// Entries read by the host but not yet popped (still hold capacity).
    pub(crate) recv_unpopped: usize,
    /// Total receive FIFO capacity (64 × active nodes).
    pub(crate) recv_capacity: usize,
    /// A packet the host's last deferred poll took out of the receive FIFO,
    /// waiting for the node to pick it up (see `host::poll_packet_after`).
    pub(crate) polled: Option<WirePacket<P>>,
    pub(crate) stats: AdapterStats,
}

impl<P> Adapter<P> {
    pub(crate) fn new(send_capacity: usize, recv_capacity: usize) -> Self {
        Adapter {
            // Grown on demand: a sharded world's unowned placeholder
            // adapters never hold a packet, so they allocate nothing.
            send_fifo: VecDeque::new(),
            send_capacity,
            fw_send_active: false,
            send_stall_until: sp_sim::Time::ZERO,
            recv_busy_until: sp_sim::Time::ZERO,
            recv_fifo: VecDeque::new(),
            recv_unpopped: 0,
            recv_capacity,
            polled: None,
            stats: AdapterStats::default(),
        }
    }

    /// Entries currently holding receive-FIFO capacity.
    pub(crate) fn recv_occupancy(&self) -> usize {
        self.recv_fifo.len() + self.recv_unpopped
    }

    /// Host-side: append a written (not yet ready) packet.
    pub(crate) fn push_send(&mut self, pkt: WirePacket<P>) -> Result<(), FifoFull> {
        if self.send_fifo.len() >= self.send_capacity {
            return Err(FifoFull);
        }
        self.send_fifo.push_back(SendEntry { pkt, ready: false });
        Ok(())
    }

    /// Host-side doorbell: mark the oldest `count` unready entries ready.
    /// Returns how many were marked (tests assert it equals `count`).
    pub(crate) fn mark_ready(&mut self, count: usize) -> usize {
        let mut marked = 0;
        for entry in self.send_fifo.iter_mut() {
            if marked == count {
                break;
            }
            if !entry.ready {
                entry.ready = true;
                marked += 1;
            }
        }
        marked
    }

    /// Firmware-side: take the head packet if it is ready.
    pub(crate) fn pop_ready(&mut self) -> Option<WirePacket<P>> {
        if self.send_fifo.front().is_some_and(|e| e.ready) {
            Some(self.send_fifo.pop_front().expect("front checked").pkt)
        } else {
            None
        }
    }

    /// Adapter-side: deliver a packet into the receive FIFO, or drop it on
    /// overflow. Returns whether it was accepted.
    pub(crate) fn deliver(&mut self, pkt: WirePacket<P>) -> bool {
        if self.recv_occupancy() >= self.recv_capacity {
            self.stats.dropped_overflow += 1;
            return false;
        }
        self.recv_fifo.push_back(pkt);
        self.stats.received += 1;
        self.stats.recv_high_water = self.stats.recv_high_water.max(self.recv_occupancy());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(n: usize) -> WirePacket<u32> {
        WirePacket::new(0, 1, n, n as u32)
    }

    #[test]
    fn geometry_constants_match_paper() {
        // chunk = 36 packets x 224 payload bytes = 8064 bytes (§2.2 fn. 1)
        assert_eq!(MAX_PAYLOAD * 36, 8064);
        assert_eq!(ENTRY_BYTES, HEADER_BYTES + MAX_PAYLOAD);
    }

    #[test]
    fn wire_packet_size() {
        let p = pkt(24);
        assert_eq!(p.wire_bytes, 56);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversize_payload_rejected() {
        let _ = pkt(MAX_PAYLOAD + 1);
    }

    #[test]
    fn send_fifo_fills_and_rejects() {
        let mut a: Adapter<u32> = Adapter::new(2, 64);
        a.push_send(pkt(1)).unwrap();
        a.push_send(pkt(2)).unwrap();
        assert_eq!(a.push_send(pkt(3)), Err(FifoFull));
    }

    #[test]
    fn doorbell_marks_in_fifo_order() {
        let mut a: Adapter<u32> = Adapter::new(8, 64);
        for i in 0..4 {
            a.push_send(pkt(i)).unwrap();
        }
        assert!(a.pop_ready().is_none(), "nothing ready before doorbell");
        assert_eq!(a.mark_ready(2), 2);
        assert_eq!(a.pop_ready().unwrap().payload, 0);
        assert_eq!(a.pop_ready().unwrap().payload, 1);
        assert!(a.pop_ready().is_none(), "entries 2,3 not yet ready");
        assert_eq!(a.mark_ready(5), 2, "only 2 unready entries remained");
    }

    #[test]
    fn recv_fifo_overflow_drops() {
        let mut a: Adapter<u32> = Adapter::new(8, 2);
        assert!(a.deliver(pkt(0)));
        assert!(a.deliver(pkt(1)));
        assert!(!a.deliver(pkt(2)), "third packet must drop");
        assert_eq!(a.stats.dropped_overflow, 1);
        assert_eq!(a.stats.received, 2);
    }

    #[test]
    fn unpopped_entries_hold_capacity() {
        let mut a: Adapter<u32> = Adapter::new(8, 2);
        assert!(a.deliver(pkt(0)));
        let _read = a.recv_fifo.pop_front().unwrap();
        a.recv_unpopped += 1; // host read it but did not pop yet
        assert!(a.deliver(pkt(1)));
        assert!(
            !a.deliver(pkt(2)),
            "lazy pop must still count against capacity"
        );
        a.recv_unpopped = 0; // lazy pop happened
        assert!(a.deliver(pkt(3)));
    }

    #[test]
    fn high_water_tracks_max() {
        let mut a: Adapter<u32> = Adapter::new(8, 4);
        for i in 0..3 {
            assert!(a.deliver(pkt(i)));
        }
        assert_eq!(a.stats.recv_high_water, 3);
        a.recv_fifo.clear();
        assert!(a.deliver(pkt(9)));
        assert_eq!(a.stats.recv_high_water, 3, "high water must not regress");
    }
}
