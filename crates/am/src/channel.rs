//! Sliding-window sender/receiver state machines (pure logic, no I/O).
//!
//! One [`TxChan`]/[`RxChan`] pair exists per (peer, channel) — request and
//! reply traffic have independent sequence spaces and windows (§2.2). All
//! methods are pure state transitions so the protocol invariants can be
//! unit- and property-tested without a simulator; `port.rs` wires them to
//! the adapter.

use crate::config::ReliabilityConfig;
use crate::wire::{AmPacket, Body, Channel, Payload, ShortKind};
use sp_adapter::MAX_PAYLOAD;
use sp_sim::Time;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Jacobson/Karels round-trip estimator feeding the adaptive
/// retransmission timeout. Pure integer arithmetic in virtual nanoseconds
/// (the classic fixed-point update with the /8 and /4 gains), so it is
/// bit-deterministic across platforms and shard counts.
#[derive(Debug, Default)]
pub(crate) struct RttEstimator {
    srtt_ns: u64,
    rttvar_ns: u64,
    samples: u64,
    /// Current exponential-backoff doublings applied to the RTO.
    backoff: u32,
    /// High-water mark of `backoff` over the channel's lifetime.
    backoff_hwm: u32,
}

impl RttEstimator {
    /// Fold in one RTT sample (never from a retransmitted packet — Karn's
    /// rule is enforced by the caller via [`Saved::rtx`]).
    pub(crate) fn sample(&mut self, s_ns: u64) {
        if self.samples == 0 {
            self.srtt_ns = s_ns;
            self.rttvar_ns = s_ns / 2;
        } else {
            let diff = self.srtt_ns.abs_diff(s_ns);
            self.rttvar_ns = (3 * self.rttvar_ns + diff) / 4;
            self.srtt_ns = (7 * self.srtt_ns + s_ns) / 8;
        }
        self.samples += 1;
    }

    /// Current retransmission timeout: `SRTT + max(g, 4·RTTVAR)`, clamped
    /// to `[min_rto, max_rto]`, then backed off. Before the first sample
    /// the conservative initial timeout is `8 × min_rto` (clamped).
    pub(crate) fn rto_ns(&self, rel: &ReliabilityConfig) -> u64 {
        let base = if self.samples == 0 {
            (rel.min_rto_ns * 8).min(rel.max_rto_ns)
        } else {
            (self.srtt_ns + rel.granularity_ns.max(4 * self.rttvar_ns))
                .clamp(rel.min_rto_ns, rel.max_rto_ns)
        };
        base.saturating_shl(self.backoff).min(rel.max_rto_ns)
    }

    /// Double the timeout after an expiry (capped at `backoff_cap`).
    pub(crate) fn back_off(&mut self, rel: &ReliabilityConfig) {
        self.backoff = (self.backoff + 1).min(rel.backoff_cap);
        self.backoff_hwm = self.backoff_hwm.max(self.backoff);
    }

    /// New cumulative progress: the network is moving again.
    pub(crate) fn reset_backoff(&mut self) {
        self.backoff = 0;
    }

    #[allow(dead_code)] // diagnostics + tests
    pub(crate) fn srtt_ns(&self) -> u64 {
        self.srtt_ns
    }

    #[allow(dead_code)] // diagnostics + tests
    pub(crate) fn rttvar_ns(&self) -> u64 {
        self.rttvar_ns
    }

    #[allow(dead_code)] // diagnostics + tests
    pub(crate) fn samples(&self) -> u64 {
        self.samples
    }

    pub(crate) fn backoff_hwm(&self) -> u32 {
        self.backoff_hwm
    }
}

/// `u64::checked_shl` that saturates instead of wrapping (a capped backoff
/// can still push a large RTO past 63 bits in pathological configs).
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if shift >= 64 {
            return u64::MAX;
        }
        if self.leading_zeros() < shift {
            u64::MAX
        } else {
            self << shift
        }
    }
}

/// A queued outbound bulk transfer.
#[derive(Debug)]
pub(crate) struct BulkTx {
    /// Issuing-node-local transfer id (rides in `Body::Data::xfer`).
    pub id: u32,
    /// Base destination address on the receiving node.
    pub dst_addr: u32,
    /// Completion handler to run on the receiving node (`u16::MAX` = none).
    pub handler: u16,
    /// Handler argument words.
    pub args: [u32; 4],
    /// Source data snapshot, taken once per transfer; every packet's
    /// [`Payload`] is a range of it.
    pub data: Arc<[u8]>,
    /// Whether the final ack should complete handle `id` on *this* node
    /// (false for get-serving transfers, whose `id` belongs to the
    /// requester and completes over there on data arrival).
    pub track_completion: bool,
    /// Bytes already emitted.
    sent: usize,
    /// Packets already emitted of the current chunk.
    chunk_sent: u32,
}

impl BulkTx {
    pub(crate) fn new(
        id: u32,
        dst_addr: u32,
        handler: u16,
        args: [u32; 4],
        data: Arc<[u8]>,
    ) -> Self {
        assert!(!data.is_empty(), "zero-length bulk transfer");
        BulkTx {
            id,
            dst_addr,
            handler,
            args,
            data,
            track_completion: true,
            sent: 0,
            chunk_sent: 0,
        }
    }

    /// A transfer whose id belongs to a remote requester (get service).
    pub(crate) fn untracked(
        id: u32,
        dst_addr: u32,
        handler: u16,
        args: [u32; 4],
        data: Arc<[u8]>,
    ) -> Self {
        BulkTx {
            track_completion: false,
            ..Self::new(id, dst_addr, handler, args, data)
        }
    }

    /// Packets in the chunk currently being emitted (the last chunk may be
    /// partial).
    fn cur_chunk_packets(&self, chunk_packets: u32) -> u32 {
        let chunk_start = self.sent - (self.chunk_sent as usize * MAX_PAYLOAD);
        let remaining = self.data.len() - chunk_start;
        (remaining.div_ceil(MAX_PAYLOAD)).min(chunk_packets as usize) as u32
    }

    fn mid_chunk(&self) -> bool {
        self.chunk_sent > 0
    }

    fn done(&self) -> bool {
        self.sent >= self.data.len()
    }
}

/// An item waiting in a channel's send queue.
#[derive(Debug)]
pub(crate) enum SendItem {
    /// A short message (request, reply, or get request).
    Short {
        /// Short flavour.
        kind: ShortKind,
        /// Handler id.
        handler: u16,
        /// Valid argument count.
        nargs: u8,
        /// Arguments.
        args: [u32; 4],
    },
    /// A bulk transfer, emitted chunk by chunk.
    Bulk(BulkTx),
}

/// A sent-but-unacked packet saved for retransmission.
#[derive(Debug)]
struct Saved {
    seq: u32,
    offset: u32,
    pkt: AmPacket,
    /// When the *original* transmission was emitted (RTT sample base).
    sent_at: Time,
    /// Ever retransmitted? Karn's rule: such packets never produce RTT
    /// samples (the ack is ambiguous between transmissions).
    rtx: bool,
}

/// Sender half of one reliable channel.
#[derive(Debug)]
pub(crate) struct TxChan {
    chan: Channel,
    window: u32,
    chunk_packets: u32,
    next_seq: u32,
    in_flight: u32,
    queue: VecDeque<SendItem>,
    unacked: VecDeque<Saved>,
    /// Retransmission queue (copies of saved packets; they already hold
    /// window slots, so they bypass admission).
    rtx: VecDeque<AmPacket>,
    /// (bulk id, sequence number of its final chunk): completion fires when
    /// the cumulative ack passes the final seq.
    bulk_finals: VecDeque<(u32, u32)>,
    /// Reliability mode (legacy go-back-N when default).
    rel: ReliabilityConfig,
    /// RTT/RTO estimator (only consulted when `rel.adaptive_rto`).
    est: RttEstimator,
    /// When the retransmission timer was last (re)armed: first send while
    /// nothing was outstanding, cumulative progress, or an RTO expiry.
    rto_armed_at: Time,
    /// Sequences the peer has selectively acknowledged (fully held out of
    /// order); never retransmitted, pruned on cumulative advance.
    sacked: BTreeSet<u32>,
    /// Sequences already retransmitted in the current SACK round (pruned on
    /// cumulative advance) — each gap retransmits at most once per round.
    sack_rtxed: BTreeSet<u32>,
}

impl TxChan {
    #[cfg(test)]
    pub(crate) fn new(chan: Channel, window: u32) -> Self {
        Self::with_chunk(
            chan,
            window,
            crate::wire::CHUNK_PACKETS as u32,
            ReliabilityConfig::default(),
        )
    }

    pub(crate) fn with_chunk(
        chan: Channel,
        window: u32,
        chunk_packets: u32,
        rel: ReliabilityConfig,
    ) -> Self {
        assert!(window >= chunk_packets, "window smaller than a chunk");
        assert!(chunk_packets >= 1, "chunk must hold at least one packet");
        TxChan {
            chan,
            window,
            chunk_packets,
            next_seq: 0,
            in_flight: 0,
            queue: VecDeque::new(),
            unacked: VecDeque::new(),
            rtx: VecDeque::new(),
            bulk_finals: VecDeque::new(),
            rel,
            est: RttEstimator::default(),
            rto_armed_at: Time::ZERO,
            sacked: BTreeSet::new(),
            sack_rtxed: BTreeSet::new(),
        }
    }

    pub(crate) fn push(&mut self, item: SendItem) {
        self.queue.push_back(item);
    }

    /// Anything sent and not yet cumulatively acknowledged?
    pub(crate) fn has_unacked(&self) -> bool {
        !self.unacked.is_empty()
    }

    /// Anything left to (re)send or await?
    pub(crate) fn idle(&self) -> bool {
        self.queue.is_empty() && self.unacked.is_empty() && self.rtx.is_empty()
    }

    #[allow(dead_code)] // diagnostics + tests
    pub(crate) fn in_flight(&self) -> u32 {
        self.in_flight
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn rtx_len(&self) -> usize {
        self.rtx.len()
    }

    /// Build the next packet to put on the wire, or `None` if the window
    /// (or queue) doesn't allow one. Retransmissions go first; then the
    /// current chunk must finish before anything else; then queued items.
    /// The caller stamps the piggybacked ACK fields. `now` timestamps fresh
    /// transmissions for the RTT estimator (ignored in legacy mode).
    pub(crate) fn try_emit(&mut self, now: Time) -> Option<AmPacket> {
        if let Some(pkt) = self.rtx.pop_front() {
            return Some(pkt);
        }
        let arm = self.unacked.is_empty();
        let item = self.queue.front_mut()?;
        let emitted = match item {
            SendItem::Short {
                kind,
                handler,
                nargs,
                args,
            } => {
                if self.in_flight + 1 > self.window {
                    return None;
                }
                let pkt = AmPacket {
                    chan: self.chan,
                    seq: self.next_seq,
                    offset: 0,
                    ack_req: 0,
                    ack_rep: 0,
                    src_epoch: 0,
                    dst_epoch: 0,
                    sack_req: 0,
                    sack_rep: 0,
                    body: Body::Short {
                        kind: *kind,
                        handler: *handler,
                        nargs: *nargs,
                        args: *args,
                    },
                };
                self.unacked.push_back(Saved {
                    seq: self.next_seq,
                    offset: 0,
                    pkt: pkt.clone(),
                    sent_at: now,
                    rtx: false,
                });
                self.next_seq += 1;
                self.in_flight += 1;
                self.queue.pop_front();
                Some(pkt)
            }
            SendItem::Bulk(bulk) => {
                // Admission control is per chunk: a new chunk needs all its
                // packets' window slots up front ("the window slides by the
                // number of packets in a chunk").
                if !bulk.mid_chunk() {
                    let need = bulk.cur_chunk_packets(self.chunk_packets);
                    if self.in_flight + need > self.window {
                        return None;
                    }
                }
                let off = bulk.sent;
                let len = (bulk.data.len() - off).min(MAX_PAYLOAD);
                let chunk_len = bulk.cur_chunk_packets(self.chunk_packets);
                let offset = bulk.chunk_sent;
                let last_of_chunk = offset + 1 == chunk_len;
                let last_of_xfer = off + len >= bulk.data.len();
                let pkt = AmPacket {
                    chan: self.chan,
                    seq: self.next_seq,
                    offset,
                    ack_req: 0,
                    ack_rep: 0,
                    src_epoch: 0,
                    dst_epoch: 0,
                    sack_req: 0,
                    sack_rep: 0,
                    body: Body::Data {
                        addr: bulk.dst_addr + off as u32,
                        len: len as u16,
                        last_of_chunk,
                        last_of_xfer,
                        handler: bulk.handler,
                        args: bulk.args,
                        base_addr: bulk.dst_addr,
                        total_len: bulk.data.len() as u32,
                        xfer: bulk.id,
                        bytes: Payload::new(bulk.data.clone(), off..off + len),
                    },
                };
                self.unacked.push_back(Saved {
                    seq: self.next_seq,
                    offset,
                    pkt: pkt.clone(),
                    sent_at: now,
                    rtx: false,
                });
                self.in_flight += 1;
                bulk.sent += len;
                bulk.chunk_sent += 1;
                if last_of_chunk {
                    if last_of_xfer && bulk.track_completion {
                        self.bulk_finals.push_back((bulk.id, self.next_seq));
                    }
                    self.next_seq += 1;
                    bulk.chunk_sent = 0;
                    if bulk.done() {
                        self.queue.pop_front();
                    }
                }
                Some(pkt)
            }
        };
        if arm && emitted.is_some() {
            self.rto_armed_at = now;
        }
        emitted
    }

    /// Process a cumulative acknowledgement ("everything below `cum` was
    /// received in order") arriving at `now`. Returns `(packets freed, ids
    /// of bulk transfers whose final chunk this ack covers)`. Freed packets
    /// that were never retransmitted feed the RTT estimator (Karn's rule);
    /// any cumulative progress resets the exponential backoff and re-arms
    /// the retransmission timer.
    pub(crate) fn on_ack(&mut self, cum: u32, now: Time) -> (u32, Vec<u32>) {
        let mut freed = 0u32;
        while self.unacked.front().is_some_and(|s| s.seq < cum) {
            let s = self.unacked.pop_front().expect("front checked");
            if self.rel.adaptive_rto && !s.rtx {
                self.est.sample((now - s.sent_at).as_ns());
            }
            self.in_flight -= 1;
            freed += 1;
        }
        // Drop retransmission copies the ack made moot.
        self.rtx.retain(|p| p.seq >= cum);
        let mut completed = Vec::new();
        while self.bulk_finals.front().is_some_and(|&(_, fs)| fs < cum) {
            completed.push(self.bulk_finals.pop_front().expect("front checked").0);
        }
        if freed > 0 {
            self.est.reset_backoff();
            self.rto_armed_at = now;
            // A cumulative advance starts a fresh SACK round.
            self.sacked.retain(|&s| s >= cum);
            self.sack_rtxed.clear();
        }
        (freed, completed)
    }

    /// Process a NACK: cumulative-ack everything below `seq`, then queue
    /// go-back-N retransmission of every saved packet from (`seq`,
    /// `offset`) onward — skipping sequences the peer has selectively
    /// acknowledged, so SACK mode never resends what the receiver already
    /// holds. Returns completed bulk ids (from the implied ack) and the
    /// number of packets queued for retransmission.
    pub(crate) fn on_nack(&mut self, seq: u32, offset: u32, now: Time) -> (Vec<u32>, usize) {
        let (_, completed) = self.on_ack(seq, now);
        self.rtx.clear();
        for saved in &mut self.unacked {
            if (saved.seq, saved.offset) >= (seq, offset) && !self.sacked.contains(&saved.seq) {
                saved.rtx = true;
                self.rtx.push_back(saved.pkt.clone());
            }
        }
        (completed, self.rtx.len())
    }

    /// Process a piggybacked SACK bitmap (bit `i` set ⇒ the peer fully
    /// holds sequence `cum + 1 + i` out of order). Queues a selective
    /// retransmission of every *gap* sequence below the highest sacked one,
    /// at most once per SACK round (rounds end on cumulative advance).
    /// Returns the number of packets queued. No-op unless `rel.sack`.
    pub(crate) fn on_sack(&mut self, cum: u32, bitmap: u64) -> usize {
        if !self.rel.sack || bitmap == 0 {
            return 0;
        }
        let mut highest = cum;
        for i in 0..64u32 {
            if bitmap & (1u64 << i) != 0 {
                let seq = cum + 1 + i;
                self.sacked.insert(seq);
                highest = highest.max(seq);
            }
        }
        // Sacked copies waiting in the go-back-N queue are moot now.
        let sacked = &self.sacked;
        self.rtx.retain(|p| !sacked.contains(&p.seq));
        let mut queued = 0;
        for saved in &mut self.unacked {
            if saved.seq >= highest {
                break;
            }
            // The first gap is `cum` itself — the cumulative point is
            // stuck at the missing sequence.
            if saved.seq >= cum
                && !self.sacked.contains(&saved.seq)
                && !self.sack_rtxed.contains(&saved.seq)
            {
                saved.rtx = true;
                self.rtx.push_back(saved.pkt.clone());
                queued += 1;
            }
        }
        for saved in &self.unacked {
            if saved.seq >= cum && saved.seq < highest && !self.sacked.contains(&saved.seq) {
                self.sack_rtxed.insert(saved.seq);
            }
        }
        queued
    }

    /// Check the adaptive retransmission timer at `now`: if traffic has
    /// been outstanding for a full RTO with no progress, queue a
    /// retransmission of the oldest unacked sequence (every saved packet
    /// sharing it — one short or one chunk), double the backoff, and
    /// re-arm. Returns the number of packets queued (0 = timer not
    /// expired, not armed, or legacy mode).
    pub(crate) fn maybe_rto(&mut self, now: Time) -> usize {
        if !self.rel.adaptive_rto || self.unacked.is_empty() || !self.rtx.is_empty() {
            return 0;
        }
        let deadline = self.rto_armed_at + sp_sim::Dur::ns(self.est.rto_ns(&self.rel));
        if now < deadline {
            return 0;
        }
        let first_seq = self.unacked.front().expect("nonempty").seq;
        let mut queued = 0;
        for saved in &mut self.unacked {
            if saved.seq != first_seq {
                break;
            }
            saved.rtx = true;
            self.rtx.push_back(saved.pkt.clone());
            queued += 1;
        }
        self.est.back_off(&self.rel);
        self.rto_armed_at = now;
        queued
    }

    /// The RTT estimator (stats surfacing).
    pub(crate) fn estimator(&self) -> &RttEstimator {
        &self.est
    }

    /// Rebuild this channel for a freshly-restarted peer incarnation:
    /// every saved-but-unacked packet (and whatever is still queued) is
    /// reassigned consecutive sequence numbers starting from 0, as if it
    /// had never been sent — the new incarnation's receive state expects a
    /// fresh sequence space. Returns the number of packets queued for
    /// (re)transmission.
    pub(crate) fn reincarnate(&mut self, now: Time) -> usize {
        self.rtx.clear();
        self.sacked.clear();
        self.sack_rtxed.clear();
        // A chunk caught mid-emission must restart whole: its already-sent
        // packets and its remainder have to share one sequence number, and
        // the remainder has not been built yet. Rewind the bulk to the
        // chunk boundary and forget the partial chunk's saved packets (they
        // all carry the old, never-completed `next_seq`).
        let partial_seq = match self.queue.front_mut() {
            Some(SendItem::Bulk(bulk)) if bulk.mid_chunk() => {
                bulk.sent -= bulk.chunk_sent as usize * MAX_PAYLOAD;
                bulk.chunk_sent = 0;
                Some(self.next_seq)
            }
            _ => None,
        };
        let saved: Vec<Saved> = self
            .unacked
            .drain(..)
            .filter(|s| Some(s.seq) != partial_seq)
            .collect();
        self.in_flight = 0;
        self.next_seq = 0;
        let mut old_finals: VecDeque<(u32, u32)> = std::mem::take(&mut self.bulk_finals);
        let mut seq_map: Vec<(u32, u32)> = Vec::new(); // (old seq, new seq)
        let mut prev_old: Option<u32> = None;
        for mut s in saved {
            let new_seq = match prev_old {
                Some(po) if po == s.seq => self.next_seq - 1,
                _ => {
                    let ns = self.next_seq;
                    // A mid-chunk tail keeps sharing one (new) sequence;
                    // allocate the next seq when the old one changes.
                    self.next_seq += 1;
                    seq_map.push((s.seq, ns));
                    ns
                }
            };
            prev_old = Some(s.seq);
            s.pkt.seq = new_seq;
            s.seq = new_seq;
            s.rtx = true; // ambiguous timing: never sample (Karn)
            self.in_flight += 1;
            self.rtx.push_back(s.pkt.clone());
            self.unacked.push_back(s);
        }
        for (id, fs) in old_finals.drain(..) {
            if let Some(&(_, ns)) = seq_map.iter().find(|&&(os, _)| os == fs) {
                self.bulk_finals.push_back((id, ns));
            } else {
                // Final chunk was already acked by the dead incarnation but
                // the completion never fired; it completes immediately once
                // the new incarnation acks seq 0 — pin it to the first seq.
                self.bulk_finals.push_back((id, 0));
            }
        }
        self.est.reset_backoff();
        self.rto_armed_at = now;
        self.rtx.len()
    }

    /// Highest sequence number sent so far plus one (what a fully caught-up
    /// receiver would report as expected).
    #[allow(dead_code)] // diagnostics + tests
    pub(crate) fn next_seq(&self) -> u32 {
        self.next_seq
    }
}

/// What the receiver decided about an incoming packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RxVerdict {
    /// In order: deliver it. `force_ack` is set at chunk boundaries ("each
    /// chunk requires only one acknowledgment") and when the explicit-ACK
    /// threshold is reached.
    Deliver {
        /// Send an explicit ACK now.
        force_ack: bool,
    },
    /// Duplicate of something already delivered: drop, but re-ACK so a
    /// sender whose ACKs got lost can make progress.
    DupDrop,
    /// Out of order (a gap): drop; `nack` says whether to send a NACK (one
    /// per gap, not one per stray packet).
    OooDrop {
        /// Send a NACK now.
        nack: bool,
    },
}

/// Receiver half of one reliable channel.
#[derive(Debug)]
pub(crate) struct RxChan {
    expected_seq: u32,
    expected_offset: u32,
    unacked_packets: u32,
    ack_threshold: u32,
    nack_outstanding: bool,
    /// Sequences fully held out of order (SACK mode only): the source of
    /// the piggybacked SACK bitmap. Pruned as the cumulative point passes.
    held: BTreeSet<u32>,
}

impl RxChan {
    pub(crate) fn new(window: u32, ack_threshold: u32) -> Self {
        let _ = window;
        RxChan {
            expected_seq: 0,
            expected_offset: 0,
            unacked_packets: 0,
            ack_threshold,
            nack_outstanding: false,
            held: BTreeSet::new(),
        }
    }

    /// Record that sequence `seq` is fully buffered out of order (all its
    /// packets held); it will appear in [`RxChan::sack_bits`] until the
    /// cumulative point reaches it.
    pub(crate) fn hold(&mut self, seq: u32) {
        if seq > self.expected_seq {
            self.held.insert(seq);
        }
    }

    /// Is `seq` marked fully held?
    pub(crate) fn holds(&self, seq: u32) -> bool {
        self.held.contains(&seq)
    }

    /// The piggybacked SACK bitmap: bit `i` ⇒ sequence
    /// `cum_ack + 1 + i` fully held. All-zero when nothing is buffered
    /// (and always in legacy mode, where `hold` is never called).
    pub(crate) fn sack_bits(&self) -> u64 {
        let mut bits = 0u64;
        for &s in &self.held {
            if s > self.expected_seq {
                let i = s - self.expected_seq - 1;
                if i < 64 {
                    bits |= 1u64 << i;
                }
            }
        }
        bits
    }

    /// Next expected sequence number — the cumulative ACK value this side
    /// piggybacks on every outgoing packet.
    pub(crate) fn cum_ack(&self) -> u32 {
        self.expected_seq
    }

    /// Next expected (seq, in-chunk offset) — the NACK payload.
    pub(crate) fn expected(&self) -> (u32, u32) {
        (self.expected_seq, self.expected_offset)
    }

    /// Note that an ACK for everything so far went out (piggybacked or
    /// explicit).
    pub(crate) fn acked(&mut self) {
        self.unacked_packets = 0;
    }

    /// Classify an incoming sequenced packet. `advances_seq` is true for
    /// shorts and for the last packet of a chunk.
    pub(crate) fn accept(&mut self, seq: u32, offset: u32, advances_seq: bool) -> RxVerdict {
        use std::cmp::Ordering;
        let key = (seq, offset);
        let expected = (self.expected_seq, self.expected_offset);
        match key.cmp(&expected) {
            Ordering::Less => RxVerdict::DupDrop,
            Ordering::Greater => {
                let nack = !self.nack_outstanding;
                self.nack_outstanding = true;
                RxVerdict::OooDrop { nack }
            }
            Ordering::Equal => {
                self.nack_outstanding = false;
                self.unacked_packets += 1;
                if advances_seq {
                    self.expected_seq += 1;
                    self.expected_offset = 0;
                    self.held.remove(&seq);
                } else {
                    self.expected_offset += 1;
                }
                // Explicit-ACK policy: one ACK per completed chunk (§2.2),
                // and the quarter-window threshold otherwise — checked only
                // at sequence boundaries so a chunk never acks mid-flight.
                let force_ack =
                    advances_seq && (offset > 0 || self.unacked_packets >= self.ack_threshold);
                RxVerdict::Deliver { force_ack }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::wire::CHUNK_PACKETS;

    fn short_item(h: u16) -> SendItem {
        SendItem::Short {
            kind: ShortKind::User,
            handler: h,
            nargs: 1,
            args: [7, 0, 0, 0],
        }
    }

    fn tx(window: u32) -> TxChan {
        TxChan::new(Channel::Request, window)
    }

    #[test]
    fn shorts_get_consecutive_seqs() {
        let mut t = tx(72);
        t.push(short_item(1));
        t.push(short_item(2));
        let a = t.try_emit(Time::ZERO).unwrap();
        let b = t.try_emit(Time::ZERO).unwrap();
        assert_eq!((a.seq, b.seq), (0, 1));
        assert_eq!(t.in_flight(), 2);
        assert!(t.try_emit(Time::ZERO).is_none(), "queue drained");
    }

    #[test]
    fn window_blocks_emission() {
        let mut t = tx(CHUNK_PACKETS as u32); // minimum legal window
        for i in 0..=CHUNK_PACKETS as u16 {
            t.push(short_item(i));
        }
        for _ in 0..CHUNK_PACKETS {
            assert!(t.try_emit(Time::ZERO).is_some());
        }
        assert!(t.try_emit(Time::ZERO).is_none(), "window full");
        // Ack one packet; exactly one more may go.
        assert!(t.on_ack(1, Time::ZERO).1.is_empty());
        assert!(t.try_emit(Time::ZERO).is_some());
        assert!(t.try_emit(Time::ZERO).is_none());
    }

    #[test]
    fn chunk_shares_one_seq_and_occupies_its_packets() {
        let mut t = tx(72);
        let data = vec![9u8; CHUNK_BYTES_TEST];
        t.push(SendItem::Bulk(BulkTx::new(
            5,
            0x100,
            3,
            [0; 4],
            data.into(),
        )));
        let mut seqs = Vec::new();
        let mut offsets = Vec::new();
        while let Some(p) = t.try_emit(Time::ZERO) {
            seqs.push(p.seq);
            offsets.push(p.offset);
        }
        assert_eq!(seqs.len(), CHUNK_PACKETS, "one full chunk");
        assert!(seqs.iter().all(|&s| s == 0), "chunk packets share seq");
        assert_eq!(offsets, (0..CHUNK_PACKETS as u32).collect::<Vec<_>>());
        assert_eq!(t.in_flight(), CHUNK_PACKETS as u32);
    }
    const CHUNK_BYTES_TEST: usize = crate::wire::CHUNK_BYTES;

    #[test]
    fn two_chunk_pipeline_waits_for_ack() {
        // Window 72 admits exactly two chunks; the third needs an ack.
        let mut t = tx(72);
        let data = vec![1u8; 3 * CHUNK_BYTES_TEST];
        t.push(SendItem::Bulk(BulkTx::new(
            1,
            0,
            u16::MAX,
            [0; 4],
            data.into(),
        )));
        let mut n = 0;
        while t.try_emit(Time::ZERO).is_some() {
            n += 1;
        }
        assert_eq!(n, 2 * CHUNK_PACKETS, "exactly two chunks admitted");
        t.on_ack(1, Time::ZERO); // first chunk acked
        let mut m = 0;
        while t.try_emit(Time::ZERO).is_some() {
            m += 1;
        }
        assert_eq!(m, CHUNK_PACKETS, "third chunk flows after first ack");
    }

    #[test]
    fn partial_last_chunk_and_completion() {
        let mut t = tx(72);
        // 1.5 packets worth of data: 2 packets, one (partial) chunk.
        let data = vec![2u8; MAX_PAYLOAD + 10];
        t.push(SendItem::Bulk(BulkTx::new(
            9,
            0,
            u16::MAX,
            [0; 4],
            data.into(),
        )));
        let a = t.try_emit(Time::ZERO).unwrap();
        let b = t.try_emit(Time::ZERO).unwrap();
        assert!(t.try_emit(Time::ZERO).is_none());
        match (&a.body, &b.body) {
            (
                Body::Data {
                    len: la,
                    last_of_chunk: ca,
                    last_of_xfer: xa,
                    ..
                },
                Body::Data {
                    len: lb,
                    last_of_chunk: cb,
                    last_of_xfer: xb,
                    ..
                },
            ) => {
                assert_eq!((*la as usize, *lb as usize), (MAX_PAYLOAD, 10));
                assert!(!ca && !xa);
                assert!(cb & xb);
            }
            other => panic!("unexpected bodies {other:?}"),
        }
        assert!(t.on_ack(0, Time::ZERO).1.is_empty());
        assert_eq!(
            t.on_ack(1, Time::ZERO),
            (2, vec![9]),
            "final ack completes the bulk and frees both packets"
        );
        assert_eq!(t.in_flight(), 0);
        assert!(t.idle());
    }

    #[test]
    fn nack_triggers_go_back_n() {
        let mut t = tx(72);
        for i in 0..5 {
            t.push(short_item(i));
        }
        let sent: Vec<AmPacket> = std::iter::from_fn(|| t.try_emit(Time::ZERO)).collect();
        assert_eq!(sent.len(), 5);
        // Receiver saw 0,1 then lost 2: NACK(expected=2).
        let (completed, rtx) = t.on_nack(2, 0, Time::ZERO);
        assert!(completed.is_empty());
        assert_eq!(rtx, 3, "packets 2,3,4 retransmit");
        let r: Vec<u32> = std::iter::from_fn(|| t.try_emit(Time::ZERO))
            .map(|p| p.seq)
            .collect();
        assert_eq!(r, vec![2, 3, 4]);
        assert_eq!(t.in_flight(), 3, "retransmits reuse their window slots");
    }

    #[test]
    fn nack_mid_chunk_retransmits_from_offset() {
        let mut t = tx(72);
        let data = vec![3u8; CHUNK_BYTES_TEST];
        t.push(SendItem::Bulk(BulkTx::new(
            1,
            0,
            u16::MAX,
            [0; 4],
            data.into(),
        )));
        while t.try_emit(Time::ZERO).is_some() {}
        let (_, rtx) = t.on_nack(0, 10, Time::ZERO);
        assert_eq!(rtx, CHUNK_PACKETS - 10);
        let first = t.try_emit(Time::ZERO).unwrap();
        assert_eq!((first.seq, first.offset), (0, 10));
    }

    #[test]
    fn ack_drops_stale_retransmissions() {
        let mut t = tx(72);
        for i in 0..3 {
            t.push(short_item(i));
        }
        while t.try_emit(Time::ZERO).is_some() {}
        t.on_nack(0, 0, Time::ZERO); // retransmit everything
        t.on_ack(2, Time::ZERO); // but 0,1 arrive fine after all
        let r: Vec<u32> = std::iter::from_fn(|| t.try_emit(Time::ZERO))
            .map(|p| p.seq)
            .collect();
        assert_eq!(r, vec![2], "only the still-unacked packet retransmits");
    }

    #[test]
    fn duplicate_nack_is_idempotent() {
        let mut t = tx(72);
        for i in 0..4 {
            t.push(short_item(i));
        }
        while t.try_emit(Time::ZERO).is_some() {}
        t.on_nack(1, 0, Time::ZERO);
        let (_, rtx2) = t.on_nack(1, 0, Time::ZERO);
        assert_eq!(rtx2, 3, "rtx queue rebuilt, not doubled");
        let r: Vec<u32> = std::iter::from_fn(|| t.try_emit(Time::ZERO))
            .map(|p| p.seq)
            .collect();
        assert_eq!(r, vec![1, 2, 3]);
    }

    #[test]
    fn rx_in_order_delivery_and_acks() {
        let mut r = RxChan::new(72, 18);
        for seq in 0..17 {
            assert_eq!(
                r.accept(seq, 0, true),
                RxVerdict::Deliver { force_ack: false }
            );
        }
        // 18th unacked packet crosses the quarter-window threshold.
        assert_eq!(
            r.accept(17, 0, true),
            RxVerdict::Deliver { force_ack: true }
        );
        r.acked();
        assert_eq!(r.cum_ack(), 18);
        assert_eq!(
            r.accept(18, 0, true),
            RxVerdict::Deliver { force_ack: false }
        );
    }

    #[test]
    fn rx_chunk_completion_forces_ack() {
        let mut r = RxChan::new(72, 18);
        for off in 0..CHUNK_PACKETS as u32 - 1 {
            assert_eq!(
                r.accept(0, off, false),
                RxVerdict::Deliver { force_ack: false }
            );
        }
        assert_eq!(
            r.accept(0, CHUNK_PACKETS as u32 - 1, true),
            RxVerdict::Deliver { force_ack: true },
            "last packet of a chunk forces the per-chunk ack"
        );
        assert_eq!(r.cum_ack(), 1);
    }

    #[test]
    fn rx_gap_nacks_once() {
        let mut r = RxChan::new(72, 18);
        assert_eq!(
            r.accept(0, 0, true),
            RxVerdict::Deliver { force_ack: false }
        );
        // Packet 1 lost; 2, 3, 4 arrive.
        assert_eq!(r.accept(2, 0, true), RxVerdict::OooDrop { nack: true });
        assert_eq!(r.accept(3, 0, true), RxVerdict::OooDrop { nack: false });
        assert_eq!(r.accept(4, 0, true), RxVerdict::OooDrop { nack: false });
        assert_eq!(r.expected(), (1, 0));
        // Retransmitted 1 arrives: progress resumes, future gaps re-NACK.
        assert_eq!(
            r.accept(1, 0, true),
            RxVerdict::Deliver { force_ack: false }
        );
        assert_eq!(r.accept(3, 0, true), RxVerdict::OooDrop { nack: true });
    }

    #[test]
    fn rx_duplicates_dropped() {
        let mut r = RxChan::new(72, 18);
        assert_eq!(
            r.accept(0, 0, true),
            RxVerdict::Deliver { force_ack: false }
        );
        assert_eq!(r.accept(0, 0, true), RxVerdict::DupDrop);
        // Mid-chunk duplicate.
        assert_eq!(
            r.accept(1, 0, false),
            RxVerdict::Deliver { force_ack: false }
        );
        assert_eq!(r.accept(1, 0, false), RxVerdict::DupDrop);
        assert_eq!(
            r.accept(1, 1, false),
            RxVerdict::Deliver { force_ack: false }
        );
    }

    fn adaptive() -> ReliabilityConfig {
        ReliabilityConfig::adaptive()
    }

    /// The instant `ns` nanoseconds after simulation start.
    fn at(ns: u64) -> Time {
        Time::ZERO + sp_sim::Dur::ns(ns)
    }

    fn tx_adaptive(window: u32) -> TxChan {
        TxChan::with_chunk(Channel::Request, window, CHUNK_PACKETS as u32, adaptive())
    }

    #[test]
    fn estimator_follows_jacobson_updates() {
        let mut e = RttEstimator::default();
        e.sample(80_000);
        assert_eq!(e.srtt_ns(), 80_000, "first sample seeds SRTT");
        assert_eq!(e.rttvar_ns(), 40_000, "first sample seeds RTTVAR at s/2");
        e.sample(80_000);
        assert_eq!(e.srtt_ns(), 80_000, "steady samples keep SRTT");
        assert_eq!(e.rttvar_ns(), 30_000, "variance decays by 3/4 per sample");
        e.sample(160_000);
        assert_eq!(e.srtt_ns(), 90_000, "SRTT moves by 1/8 of the error");
        assert_eq!(e.rttvar_ns(), 42_500, "variance absorbs 1/4 of |err|");
        assert_eq!(e.samples(), 3);
    }

    #[test]
    fn rto_clamps_and_backs_off() {
        let rel = adaptive();
        let mut e = RttEstimator::default();
        // Before any sample: conservative 8 x min_rto.
        assert_eq!(e.rto_ns(&rel), 8 * rel.min_rto_ns);
        e.sample(100_000);
        // SRTT + max(g, 4*RTTVAR) = 100_000 + 200_000.
        assert_eq!(e.rto_ns(&rel), 300_000);
        e.back_off(&rel);
        assert_eq!(e.rto_ns(&rel), 600_000, "one expiry doubles the RTO");
        for _ in 0..20 {
            e.back_off(&rel);
        }
        assert_eq!(
            e.rto_ns(&rel),
            rel.max_rto_ns,
            "backoff saturates at the cap / max clamp"
        );
        assert_eq!(e.backoff_hwm(), rel.backoff_cap);
        e.reset_backoff();
        assert_eq!(e.rto_ns(&rel), 300_000, "progress resets the backoff");
        assert_eq!(e.backoff_hwm(), rel.backoff_cap, "high water survives");
        // Tiny samples clamp up to min_rto.
        let mut tiny = RttEstimator::default();
        tiny.sample(10);
        assert_eq!(tiny.rto_ns(&rel), rel.min_rto_ns);
    }

    #[test]
    fn karns_rule_skips_retransmitted_samples() {
        let mut t = tx_adaptive(72);
        for i in 0..3 {
            t.push(short_item(i));
        }
        while t.try_emit(Time::ZERO).is_some() {}
        // A NACK at seq 2 implies an ack of 0..2 (two clean samples) and
        // marks packet 2 as a retransmission.
        let (_, rtx) = t.on_nack(2, 0, at(50_000));
        assert_eq!(rtx, 1);
        assert_eq!(t.estimator().samples(), 2, "clean packets sample on ack");
        assert_eq!(t.estimator().srtt_ns(), 50_000);
        while t.try_emit(at(60_000)).is_some() {}
        t.on_ack(3, at(1_000_000));
        assert_eq!(t.estimator().samples(), 2, "Karn: ambiguous ack, no sample");
        assert_eq!(t.estimator().srtt_ns(), 50_000, "estimate untouched");
        assert!(t.idle());
    }

    #[test]
    fn rto_expiry_retransmits_oldest_and_backs_off() {
        let mut t = tx_adaptive(72);
        for i in 0..3 {
            t.push(short_item(i));
        }
        while t.try_emit(Time::ZERO).is_some() {}
        let rto = 8 * adaptive().min_rto_ns; // no samples yet
        assert_eq!(t.maybe_rto(at(rto - 1)), 0, "timer not yet expired");
        assert_eq!(t.maybe_rto(at(rto)), 1, "oldest sequence retransmits");
        let p = t.try_emit(at(rto)).unwrap();
        assert_eq!(p.seq, 0, "RTO resends the window head, not everything");
        // Re-armed with doubled RTO: the next check must wait 2x from the
        // expiry instant.
        assert_eq!(t.maybe_rto(at(rto + 2 * rto - 1)), 0);
        assert_eq!(t.maybe_rto(at(rto + 2 * rto)), 1);
        let _ = t.try_emit(at(3 * rto));
        // Progress clears the backoff.
        t.on_ack(3, at(3 * rto));
        assert!(t.idle());
        assert_eq!(t.maybe_rto(at(100 * rto)), 0, "nothing outstanding");
    }

    #[test]
    fn legacy_mode_never_arms_the_timer() {
        let mut t = tx(72);
        t.push(short_item(1));
        let _ = t.try_emit(Time::ZERO);
        assert_eq!(t.maybe_rto(at(u64::MAX / 2)), 0);
    }

    /// Regression (pre-fix this failed): once the receiver reports a
    /// sequence as selectively held, neither a SACK round nor a subsequent
    /// go-back-N NACK may retransmit it.
    #[test]
    fn sack_never_resends_what_the_receiver_holds() {
        let mut t = tx_adaptive(72);
        for i in 0..6 {
            t.push(short_item(i));
        }
        while t.try_emit(Time::ZERO).is_some() {}
        // Receiver got 0, lost 1 and 3, holds 2, 4, 5: cum=1,
        // bitmap bits for cum+1+i => seqs 2,4,5 are bits 0,2,3.
        t.on_ack(1, at(1_000));
        let queued = t.on_sack(1, 0b1101);
        assert_eq!(queued, 2, "only the gaps (1 and 3) retransmit");
        let seqs: Vec<u32> = std::iter::from_fn(|| t.try_emit(at(2_000)))
            .map(|p| p.seq)
            .collect();
        assert_eq!(seqs, vec![1, 3]);
        // The same bitmap again: this round already resent the gaps.
        assert_eq!(t.on_sack(1, 0b1101), 0, "one retransmit per gap per round");
        // A go-back-N NACK (e.g. a keep-alive answer) must also skip the
        // held sequences.
        let (_, rtx) = t.on_nack(1, 0, at(3_000));
        assert_eq!(rtx, 2, "NACK resends 1 and 3 only, never 2/4/5");
        let seqs: Vec<u32> = std::iter::from_fn(|| t.try_emit(at(4_000)))
            .map(|p| p.seq)
            .collect();
        assert_eq!(seqs, vec![1, 3]);
        // Cumulative progress past the held run clears the bookkeeping.
        let (freed, _) = t.on_ack(6, at(5_000));
        assert_eq!(freed, 5, "the five still-unacked packets free");
        assert!(t.idle());
    }

    #[test]
    fn sack_ignored_in_legacy_mode() {
        let mut t = tx(72);
        for i in 0..4 {
            t.push(short_item(i));
        }
        while t.try_emit(Time::ZERO).is_some() {}
        assert_eq!(t.on_sack(0, 0b110), 0, "legacy mode ignores SACK bitmaps");
        let (_, rtx) = t.on_nack(1, 0, Time::ZERO);
        assert_eq!(rtx, 3, "go-back-N untouched by the ignored bitmap");
    }

    #[test]
    fn rx_holds_feed_the_sack_bitmap() {
        let mut r = RxChan::new(72, 18);
        assert_eq!(
            r.accept(0, 0, true),
            RxVerdict::Deliver { force_ack: false }
        );
        // 1 lost; 2 and 4 arrive whole out of order.
        r.hold(2);
        r.hold(4);
        assert!(r.holds(2) && r.holds(4) && !r.holds(3));
        // cum=1: bit i => seq 2+i, so seqs 2,4 are bits 0 and 2.
        assert_eq!(r.sack_bits(), 0b101);
        // Holding at or below the expected sequence is a no-op.
        r.hold(1);
        assert_eq!(r.sack_bits(), 0b101);
        // The gap fills: delivery walks through the held run.
        assert_eq!(
            r.accept(1, 0, true),
            RxVerdict::Deliver { force_ack: false }
        );
        assert_eq!(
            r.accept(2, 0, true),
            RxVerdict::Deliver { force_ack: false }
        );
        assert_eq!(r.sack_bits(), 0b1, "seq 4 re-bases against cum=3");
    }

    #[test]
    fn reincarnate_renumbers_and_replays_everything() {
        let mut t = tx(72);
        for i in 0..3 {
            t.push(short_item(i));
        }
        while t.try_emit(Time::ZERO).is_some() {}
        t.on_ack(1, Time::ZERO); // packet 0 acked by the old incarnation
        let rtx = t.reincarnate(at(1_000));
        assert_eq!(rtx, 2, "both unacked packets replay");
        let seqs: Vec<u32> = std::iter::from_fn(|| t.try_emit(at(2_000)))
            .map(|p| p.seq)
            .collect();
        assert_eq!(seqs, vec![0, 1], "fresh sequence space from zero");
        assert_eq!(t.next_seq(), 2);
        let (freed, _) = t.on_ack(2, at(3_000));
        assert_eq!(freed, 2);
        assert_eq!(
            t.estimator().samples(),
            0,
            "replayed packets are Karn-ambiguous: no samples"
        );
        assert!(t.idle());
    }

    #[test]
    fn reincarnate_mid_chunk_restarts_the_chunk_whole() {
        let mut t = tx(72);
        let data = vec![7u8; CHUNK_BYTES_TEST];
        t.push(SendItem::Bulk(BulkTx::new(
            3,
            0,
            u16::MAX,
            [0; 4],
            data.into(),
        )));
        // Emit only half the chunk, then the peer reincarnates.
        for _ in 0..CHUNK_PACKETS / 2 {
            assert!(t.try_emit(Time::ZERO).is_some());
        }
        let rtx = t.reincarnate(at(500));
        assert_eq!(rtx, 0, "the partial chunk is forgotten, not replayed");
        let pkts: Vec<AmPacket> = std::iter::from_fn(|| t.try_emit(at(600))).collect();
        assert_eq!(pkts.len(), CHUNK_PACKETS, "chunk re-emits whole");
        assert!(pkts.iter().all(|p| p.seq == 0), "one shared fresh seq");
        assert_eq!(
            pkts.iter().map(|p| p.offset).collect::<Vec<_>>(),
            (0..CHUNK_PACKETS as u32).collect::<Vec<_>>()
        );
        // The final ack must still complete the bulk under its new seq.
        let (_, completed) = t.on_ack(1, at(1_000));
        assert_eq!(completed, vec![3]);
        assert!(t.idle());
    }

    #[test]
    fn shorts_wait_behind_bulk_fifo_order() {
        let mut t = tx(72);
        let data = vec![4u8; 2 * MAX_PAYLOAD];
        t.push(SendItem::Bulk(BulkTx::new(
            1,
            0,
            u16::MAX,
            [0; 4],
            data.into(),
        )));
        t.push(short_item(42));
        let kinds: Vec<bool> = std::iter::from_fn(|| t.try_emit(Time::ZERO))
            .map(|p| matches!(p.body, Body::Data { .. }))
            .collect();
        assert_eq!(kinds, vec![true, true, false], "bulk first, then the short");
    }
}

#[cfg(test)]
mod model_tests {
    //! A pure model check: drive a TxChan/RxChan pair over a lossy,
    //! FIFO-per-pair wire and assert exactly-once in-order delivery with
    //! eventual completion, for arbitrary loss patterns.

    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn lossy_wire_exactly_once(
            n_msgs in 1u16..120,
            loss_millis in 0u32..400,
            seed in any::<u64>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut tx = TxChan::new(Channel::Request, 72);
            let mut rx = RxChan::new(72, 18);
            for i in 0..n_msgs {
                tx.push(SendItem::Short {
                    kind: ShortKind::User,
                    handler: i,
                    nargs: 0,
                    args: [0; 4],
                });
            }
            let mut delivered: Vec<u16> = Vec::new();
            // Rounds: emit what the window allows, drop some, deliver the
            // rest in order, then feed back either an ack or a NACK.
            let mut rounds = 0;
            while delivered.len() < n_msgs as usize {
                rounds += 1;
                prop_assert!(rounds < 10_000, "no progress after {rounds} rounds");
                let mut got_any = false;
                let mut nacked = false;
                while let Some(pkt) = tx.try_emit(Time::ZERO) {
                    if rng.gen_bool(loss_millis as f64 / 1000.0) {
                        continue; // lost on the wire
                    }
                    match rx.accept(pkt.seq, pkt.offset, true) {
                        RxVerdict::Deliver { .. } => {
                            if let Body::Short { handler, .. } = pkt.body {
                                delivered.push(handler);
                            }
                            got_any = true;
                        }
                        RxVerdict::DupDrop => {}
                        RxVerdict::OooDrop { nack } => {
                            if nack && !nacked {
                                nacked = true;
                                let (s, o) = rx.expected();
                                tx.on_nack(s, o, Time::ZERO);
                            }
                        }
                    }
                }
                // End-of-round feedback (the keep-alive/ACK path, itself
                // lossless here — the sim-level tests cover lossy acks).
                if got_any {
                    tx.on_ack(rx.cum_ack(), Time::ZERO);
                    rx.acked();
                } else if tx.has_unacked() {
                    // Keep-alive probe: receiver answers with its state.
                    let (s, o) = rx.expected();
                    tx.on_nack(s, o, Time::ZERO);
                }
            }
            let expect: Vec<u16> = (0..n_msgs).collect();
            prop_assert_eq!(delivered, expect);
            prop_assert!(tx.on_ack(rx.cum_ack(), Time::ZERO).1.is_empty());
            prop_assert!(tx.idle(), "sender should be quiescent");
        }

        #[test]
        fn lossy_wire_bulk_reassembly(
            len in 1usize..60_000,
            loss_millis in 0u32..300,
            seed in any::<u64>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let data: Vec<u8> = (0..len).map(|i| (i as u8) ^ 0x5A).collect();
            let mut tx = TxChan::new(Channel::Request, 72);
            let mut rx = RxChan::new(72, 18);
            tx.push(SendItem::Bulk(BulkTx::new(7, 0, u16::MAX, [0; 4], data.clone().into())));
            let mut assembled = vec![0u8; len];
            let mut done = false;
            let mut rounds = 0;
            while !done {
                rounds += 1;
                prop_assert!(rounds < 20_000, "no progress");
                let mut progressed = false;
                let mut nacked = false;
                while let Some(pkt) = tx.try_emit(Time::ZERO) {
                    if rng.gen_bool(loss_millis as f64 / 1000.0) {
                        continue;
                    }
                    if let Body::Data { addr, last_of_chunk, last_of_xfer, ref bytes, .. } = pkt.body {
                        match rx.accept(pkt.seq, pkt.offset, last_of_chunk) {
                            RxVerdict::Deliver { .. } => {
                                assembled[addr as usize..addr as usize + bytes.len()]
                                    .copy_from_slice(bytes);
                                progressed = true;
                                if last_of_xfer {
                                    done = true;
                                }
                            }
                            RxVerdict::DupDrop => {}
                            RxVerdict::OooDrop { nack } => {
                                if nack && !nacked {
                                    nacked = true;
                                    let (s, o) = rx.expected();
                                    tx.on_nack(s, o, Time::ZERO);
                                }
                            }
                        }
                    }
                }
                tx.on_ack(rx.cum_ack(), Time::ZERO);
                rx.acked();
                if !progressed && !done && tx.has_unacked() {
                    let (s, o) = rx.expected();
                    tx.on_nack(s, o, Time::ZERO);
                }
            }
            prop_assert_eq!(assembled, data);
        }
    }
}
