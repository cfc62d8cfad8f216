//! The per-node protocol engine: wires the pure channel state machines to
//! the adapter, dispatches handlers, and implements bulk transfers, the
//! explicit-ACK/NACK machinery, and the keep-alive protocol.

use crate::api::{AmArgs, AmEnv, BulkHandle, BulkInfo};
use crate::channel::{BulkTx, RxChan, RxVerdict, SendItem, TxChan};
use crate::config::AmConfig;
use crate::mem::MemPool;
use crate::stats::AmStats;
use crate::wire::{AmPacket, Body, Channel, ShortKind};
use crate::AmCtx;
use sp_adapter::host;
use sp_sim::Time;
use sp_trace::{Kind as TraceKind, Tracer, Track};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Handler table index.
pub(crate) const HANDLER_NONE: u16 = u16::MAX;

pub(crate) type HandlerFn<S> = fn(&mut AmEnv<'_, S>, AmArgs);

struct Peer {
    tx: [TxChan; 2],
    rx: [RxChan; 2],
}

/// Per-node SP AM protocol state. Most users interact through the
/// [`Am`](crate::Am) facade instead.
pub struct AmPort<S> {
    me: usize,
    n: usize,
    cfg: AmConfig,
    mem: MemPool,
    handlers: Vec<HandlerFn<S>>,
    peers: Vec<Peer>,
    /// Busy-peer set, one bit per peer: a superset of the peers with a
    /// non-idle send channel. A channel leaves idle only by a `push`, which
    /// is always followed by [`AmPort::pump_peer`], and that sets the bit
    /// (a NACK, SACK, RTO or epoch replay only requeues what a busy channel
    /// already holds). [`AmPort::pump_all`] clears the bit once both
    /// channels are idle. Every per-peer walk of the poll path visits the
    /// set in ascending order, so it touches the peers a full scan would
    /// act on, in the same order.
    busy: Vec<u64>,
    /// Bulk handles whose transfer has completed (sender-side final ack for
    /// stores; local data arrival for gets).
    completed: HashSet<u32>,
    /// Sender-side completion handlers for async stores.
    completions: HashMap<u32, (u16, [u32; 4])>,
    next_bulk_id: u32,
    idle_polls: u32,
    /// Set during a poll when an ack freed window slots or a sequenced
    /// packet was delivered — i.e. the protocol made forward progress.
    made_progress: bool,
    barrier_hits: u32,
    barrier_go: bool,
    /// This node's incarnation epoch: bumped on every crash/restart so the
    /// survivors can tell the old incarnation's in-flight packets from the
    /// new one's. 0 forever on the legacy (no-crash) protocol.
    my_epoch: u32,
    /// Latest incarnation epoch observed from each peer.
    peer_epochs: Vec<u32>,
    /// Selective-repeat buffers, one per (peer, channel): out-of-order
    /// packets held keyed by (seq, offset) until the gap below them fills.
    /// Only populated in SACK mode; a `BTreeMap` so drain order (and the
    /// derived SACK bitmap) is deterministic.
    ooo_buf: Vec<[BTreeMap<(u32, u32), AmPacket>; 2]>,
    /// Set between a restart and the first delivered packet of the new
    /// incarnation (recovery-time measurement).
    restarted_at: Option<sp_sim::Time>,
    tracer: Option<Tracer>,
    pub(crate) stats: AmStats,
}

impl<S> AmPort<S> {
    pub(crate) fn new(
        me: usize,
        n: usize,
        cfg: AmConfig,
        mem: MemPool,
        tracer: Option<Tracer>,
    ) -> Self {
        let peers = (0..n)
            .map(|_| Peer {
                tx: [
                    TxChan::with_chunk(
                        Channel::Request,
                        cfg.window_request,
                        cfg.chunk_packets,
                        cfg.reliability,
                    ),
                    TxChan::with_chunk(
                        Channel::Reply,
                        cfg.window_reply,
                        cfg.chunk_packets,
                        cfg.reliability,
                    ),
                ],
                rx: [
                    RxChan::new(cfg.window_request, cfg.ack_threshold(cfg.window_request)),
                    RxChan::new(cfg.window_reply, cfg.ack_threshold(cfg.window_reply)),
                ],
            })
            .collect();
        AmPort {
            me,
            n,
            cfg,
            mem,
            handlers: Vec::new(),
            peers,
            busy: vec![0; n.div_ceil(64)],
            completed: HashSet::new(),
            completions: HashMap::new(),
            next_bulk_id: 0,
            idle_polls: 0,
            made_progress: false,
            barrier_hits: 0,
            barrier_go: false,
            my_epoch: 0,
            peer_epochs: vec![0; n],
            ooo_buf: (0..n).map(|_| [BTreeMap::new(), BTreeMap::new()]).collect(),
            restarted_at: None,
            tracer,
            stats: AmStats::default(),
        }
    }

    /// A fresh receive channel for `chan` (construction and crash/epoch
    /// resets share the window/threshold arithmetic).
    fn fresh_rx(&self, chan: Channel) -> RxChan {
        let window = match chan {
            Channel::Request => self.cfg.window_request,
            Channel::Reply => self.cfg.window_reply,
        };
        RxChan::new(window, self.cfg.ack_threshold(window))
    }

    /// A fresh send channel for `chan` (crash resets).
    fn fresh_tx(&self, chan: Channel) -> TxChan {
        let window = match chan {
            Channel::Request => self.cfg.window_request,
            Channel::Reply => self.cfg.window_reply,
        };
        TxChan::with_chunk(chan, window, self.cfg.chunk_packets, self.cfg.reliability)
    }

    /// Record a protocol-layer span on this node's program track.
    #[inline]
    fn t_span(&self, begin: sp_sim::Time, end: sp_sim::Time, kind: TraceKind, arg: u64) {
        if let Some(t) = &self.tracer {
            t.span(
                begin.as_ns(),
                end.as_ns(),
                Track::program(self.me),
                kind,
                arg,
            );
        }
    }

    /// Record a protocol-layer instant on this node's program track.
    #[inline]
    fn t_instant(&self, at: sp_sim::Time, kind: TraceKind, arg: u64) {
        if let Some(t) = &self.tracer {
            t.instant(at.as_ns(), Track::program(self.me), kind, arg);
        }
    }

    /// This node's index.
    pub fn node(&self) -> usize {
        self.me
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Statistics so far.
    pub fn stats(&self) -> &AmStats {
        &self.stats
    }

    /// The memory pool.
    pub fn mem_pool(&self) -> &MemPool {
        &self.mem
    }

    #[allow(dead_code)] // exposed for layered protocols and tests
    pub(crate) fn config(&self) -> &AmConfig {
        &self.cfg
    }

    pub(crate) fn config_interrupt_cpu(&self) -> sp_sim::Dur {
        self.cfg.interrupt_cpu
    }

    pub(crate) fn register(&mut self, f: HandlerFn<S>) -> u16 {
        let id = self.handlers.len() as u16;
        assert!(id < HANDLER_NONE, "handler table full");
        self.handlers.push(f);
        id
    }

    // ----- send paths ------------------------------------------------

    /// Queue a user request and push it toward the wire.
    pub(crate) fn send_request(
        &mut self,
        ctx: &mut AmCtx,
        dst: usize,
        handler: u16,
        nargs: u8,
        args: [u32; 4],
    ) {
        let words = (nargs as u64).saturating_sub(1);
        let t0 = ctx.now();
        ctx.advance(self.cfg.request_cpu + self.cfg.per_word_cpu * words);
        self.t_span(t0, ctx.now(), TraceKind::AmRequest, dst as u64);
        self.stats.requests_sent += 1;
        self.peers[dst].tx[Channel::Request.idx()].push(SendItem::Short {
            kind: ShortKind::User,
            handler,
            nargs,
            args,
        });
        self.pump_peer(ctx, dst);
    }

    /// Queue a reply (only legal from a request handler; enforced by
    /// [`AmEnv`](crate::AmEnv)).
    pub(crate) fn send_reply(
        &mut self,
        ctx: &mut AmCtx,
        dst: usize,
        handler: u16,
        nargs: u8,
        args: [u32; 4],
    ) {
        let words = (nargs as u64).saturating_sub(1);
        let t0 = ctx.now();
        ctx.advance(self.cfg.reply_cpu + self.cfg.per_word_cpu * words);
        self.t_span(t0, ctx.now(), TraceKind::AmReply, dst as u64);
        self.stats.replies_sent += 1;
        self.peers[dst].tx[Channel::Reply.idx()].push(SendItem::Short {
            kind: ShortKind::User,
            handler,
            nargs,
            args,
        });
        self.pump_peer(ctx, dst);
    }

    /// Start a bulk store toward `dst_node` (non-blocking). `handler` runs
    /// on the receiver when the data has landed; `completion` runs locally
    /// when the final chunk is acknowledged.
    #[allow(clippy::too_many_arguments)] // mirrors am_store's C signature
    pub(crate) fn start_store(
        &mut self,
        ctx: &mut AmCtx,
        dst_node: usize,
        dst_addr: u32,
        data: Arc<[u8]>,
        handler: u16,
        args: [u32; 4],
        completion: Option<(u16, [u32; 4])>,
    ) -> BulkHandle {
        ctx.advance(self.cfg.bulk_setup_cpu);
        self.t_instant(ctx.now(), TraceKind::AmStore, data.len() as u64);
        self.stats.stores += 1;
        let id = self.alloc_bulk_id();
        if data.is_empty() {
            // Degenerate zero-length store: nothing to move; complete now.
            self.completed.insert(id);
            return BulkHandle(id);
        }
        if let Some(c) = completion {
            self.completions.insert(id, c);
        }
        self.peers[dst_node].tx[Channel::Request.idx()].push(SendItem::Bulk(BulkTx::new(
            id, dst_addr, handler, args, data,
        )));
        self.pump_peer(ctx, dst_node);
        BulkHandle(id)
    }

    /// Start a get: fetch `len` bytes from (`src_node`, `src_addr`) into
    /// local `dst_addr`; `handler` runs locally when the data has arrived.
    #[allow(clippy::too_many_arguments)] // mirrors am_get's C signature
    pub(crate) fn start_get(
        &mut self,
        ctx: &mut AmCtx,
        src_node: usize,
        src_addr: u32,
        dst_addr: u32,
        len: u32,
        handler: u16,
        args: [u32; 4],
    ) -> BulkHandle {
        ctx.advance(self.cfg.bulk_setup_cpu);
        self.t_instant(ctx.now(), TraceKind::AmGet, len as u64);
        self.stats.gets += 1;
        let id = self.alloc_bulk_id();
        if len == 0 {
            self.completed.insert(id);
            return BulkHandle(id);
        }
        self.peers[src_node].tx[Channel::Request.idx()].push(SendItem::Short {
            kind: ShortKind::GetReq {
                src_addr,
                dst_addr,
                len,
                xfer: id,
            },
            handler,
            nargs: 4,
            args,
        });
        self.pump_peer(ctx, src_node);
        BulkHandle(id)
    }

    fn alloc_bulk_id(&mut self) -> u32 {
        let id = self.next_bulk_id;
        self.next_bulk_id += 1;
        id
    }

    /// Has this bulk transfer completed (stores: final ack received; gets:
    /// data arrived locally)?
    pub(crate) fn bulk_done(&self, h: BulkHandle) -> bool {
        self.completed.contains(&h.0)
    }

    // ----- pump: move queued packets to the send FIFO -----------------

    /// Emit as many queued packets toward `dst` as the windows and the send
    /// FIFO allow, batching doorbells.
    pub(crate) fn pump_peer(&mut self, ctx: &mut AmCtx, dst: usize) {
        self.busy[dst / 64] |= 1 << (dst % 64);
        let mut free = host::send_fifo_free(ctx);
        let mut pending_doorbell = 0usize;
        for chan in Channel::BOTH {
            loop {
                if free == 0 {
                    break;
                }
                let now = ctx.now();
                let Some(mut pkt) = self.peers[dst].tx[chan.idx()].try_emit(now) else {
                    break;
                };
                let is_data = matches!(pkt.body, Body::Data { .. });
                if is_data {
                    ctx.advance(self.cfg.bulk_per_packet_cpu);
                    self.stats.packets_sent += 1;
                    if self.tracer.is_some() {
                        if let Body::Data { last_of_chunk, .. } = pkt.body {
                            if pkt.offset == 0 {
                                self.t_instant(ctx.now(), TraceKind::AmChunkStart, pkt.seq as u64);
                            }
                            if last_of_chunk {
                                self.t_instant(ctx.now(), TraceKind::AmChunkEnd, pkt.seq as u64);
                            }
                        }
                    }
                } else {
                    self.stats.packets_sent += 1;
                }
                self.stamp_acks(dst, &mut pkt);
                let bytes = pkt.payload_bytes();
                host::write_packet(ctx, dst, bytes, pkt).expect("send FIFO free count was checked");
                free -= 1;
                pending_doorbell += 1;
                if pending_doorbell >= self.cfg.doorbell_batch {
                    host::ring_doorbell(ctx, pending_doorbell);
                    pending_doorbell = 0;
                }
            }
        }
        if pending_doorbell > 0 {
            host::ring_doorbell(ctx, pending_doorbell);
        }
    }

    /// Pump every peer that has queued or retransmittable traffic, and
    /// drop the idle ones from the busy set.
    pub(crate) fn pump_all(&mut self, ctx: &mut AmCtx) {
        let mut at = 0;
        while let Some(dst) = self.next_busy(at) {
            at = dst + 1;
            if self.peers[dst].tx.iter().all(TxChan::idle) {
                self.busy[dst / 64] &= !(1 << (dst % 64));
            } else {
                self.pump_peer(ctx, dst);
            }
        }
    }

    /// The lowest peer at or above `from` in the busy set.
    fn next_busy(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.busy.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.busy.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The busy set's peers, in ascending order.
    fn busy_peers(&self) -> impl Iterator<Item = &Peer> + '_ {
        std::iter::successors(self.next_busy(0), |&p| self.next_busy(p + 1)).map(|p| &self.peers[p])
    }

    /// Stamp the piggybacked cumulative ACKs (plus, in the adaptive modes,
    /// the SACK bitmaps and incarnation epochs) and note that the peer is
    /// now fully acknowledged. In legacy mode the extra fields stay zero,
    /// keeping every pre-reliability run byte-identical.
    fn stamp_acks(&mut self, dst: usize, pkt: &mut AmPacket) {
        let peer = &mut self.peers[dst];
        pkt.ack_req = peer.rx[Channel::Request.idx()].cum_ack();
        pkt.ack_rep = peer.rx[Channel::Reply.idx()].cum_ack();
        if self.cfg.reliability.sack {
            pkt.sack_req = peer.rx[Channel::Request.idx()].sack_bits();
            pkt.sack_rep = peer.rx[Channel::Reply.idx()].sack_bits();
        }
        pkt.src_epoch = self.my_epoch;
        pkt.dst_epoch = self.peer_epochs[dst];
        peer.rx[0].acked();
        peer.rx[1].acked();
    }

    /// Send a control packet (ACK/NACK/probe) immediately, outside the
    /// sequence space.
    fn send_control(&mut self, ctx: &mut AmCtx, dst: usize, chan: Channel, body: Body) {
        debug_assert!(matches!(body, Body::Ack | Body::Nack { .. } | Body::Probe));
        let mut pkt = AmPacket {
            chan,
            seq: 0,
            offset: 0,
            ack_req: 0,
            ack_rep: 0,
            src_epoch: 0,
            dst_epoch: 0,
            sack_req: 0,
            sack_rep: 0,
            body,
        };
        self.stamp_acks(dst, &mut pkt);
        let bytes = pkt.payload_bytes();
        // Control packets bypass the send queue; if the FIFO is full they
        // are simply not sent — the keep-alive protocol covers the loss.
        if host::send_fifo_free(ctx) > 0 {
            let _ = host::write_packet(ctx, dst, bytes, pkt);
            host::ring_doorbell(ctx, 1);
        }
    }

    // ----- poll: receive, dispatch, ack, keep-alive --------------------

    /// One `am_poll`: drain the receive FIFO, dispatching handlers and
    /// control processing; run the keep-alive counter; pump all peers.
    /// While no peer is busy, the empty polls of a caller that would poll
    /// again until `until` run in the adapter's driver-side loop
    /// ([`host::poll_packet_after`]); `until` at or before now polls once.
    /// Returns the number of packets processed.
    pub(crate) fn poll(&mut self, ctx: &mut AmCtx, state: &mut S, until: Time) -> usize {
        // With no busy peer, an empty poll changes nothing but the clock and
        // `polls`: no keep-alive count, timer sweep or pump follows it.
        let until = if self.next_busy(0).is_none() {
            until
        } else {
            Time::ZERO
        };
        let span = Some(TraceKind::AmPoll);
        let (mut next, rounds) = host::poll_packet_after(ctx, self.cfg.poll_cpu, until, span);
        self.stats.polls += rounds;
        self.made_progress = false;
        let mut processed = 0usize;
        while let Some(wpkt) = next {
            processed += 1;
            let d0 = ctx.now();
            ctx.advance(self.cfg.dispatch_cpu);
            self.t_span(d0, ctx.now(), TraceKind::AmDispatch, wpkt.src as u64);
            self.handle_packet(ctx, state, wpkt.src, wpkt.payload);
            next = host::poll_packet(ctx);
        }
        // Keep-alive: the paper emulates timeouts "by counting the number
        // of unsuccessful polls". A poll is unsuccessful if it made no
        // forward progress (receiving only probes from an equally stuck
        // peer must not reset the counter, or two lossy peers can starve
        // each other's keep-alive forever).
        if self.made_progress {
            self.idle_polls = 0;
        } else if self.any_unacked() {
            self.idle_polls += 1;
            if self.idle_polls >= self.cfg.keepalive_polls {
                self.idle_polls = 0;
                self.keepalive_round(ctx);
            }
        }
        if self.cfg.reliability.adaptive_rto {
            self.rto_sweep(ctx);
        }
        self.pump_all(ctx);
        #[cfg(debug_assertions)]
        self.check_busy_set();
        processed
    }

    /// The busy set against a full scan of every peer (debug builds, after
    /// every poll).
    #[cfg(debug_assertions)]
    fn check_busy_set(&self) {
        for (p, peer) in self.peers.iter().enumerate() {
            assert!(
                peer.tx.iter().all(TxChan::idle) || self.busy[p / 64] >> (p % 64) & 1 == 1,
                "node {}: peer {p} has a non-idle send channel but no busy bit",
                self.me
            );
        }
        let unacked = self
            .peers
            .iter()
            .any(|p| p.tx.iter().any(TxChan::has_unacked));
        assert_eq!(self.any_unacked(), unacked, "node {}: any_unacked", self.me);
        let idle = self.peers.iter().all(|p| p.tx.iter().all(TxChan::idle));
        assert_eq!(self.all_idle(), idle, "node {}: all_idle", self.me);
    }

    /// Check every channel's adaptive retransmission timer: an expiry
    /// queues a retransmission of the oldest unacked sequence and doubles
    /// the channel's backoff (see [`TxChan::maybe_rto`]).
    fn rto_sweep(&mut self, ctx: &mut AmCtx) {
        let now = ctx.now();
        let mut at = 0;
        while let Some(dst) = self.next_busy(at) {
            at = dst + 1;
            for chan in Channel::BOTH {
                let rtx = self.peers[dst].tx[chan.idx()].maybe_rto(now);
                if rtx > 0 {
                    self.stats.packets_retransmitted += rtx as u64;
                    self.stats.rtx_timeout += rtx as u64;
                    let hwm = self.peers[dst].tx[chan.idx()].estimator().backoff_hwm();
                    self.stats.backoff_hwm = self.stats.backoff_hwm.max(hwm as u64);
                    self.t_instant(now, TraceKind::AmRtoRtx, rtx as u64);
                }
            }
        }
    }

    fn any_unacked(&self) -> bool {
        self.busy_peers()
            .any(|p| p.tx.iter().any(TxChan::has_unacked))
    }

    /// True when every outbound channel is quiescent (nothing queued,
    /// unacked, or pending retransmission).
    pub fn all_idle(&self) -> bool {
        self.busy_peers().all(|p| p.tx.iter().all(TxChan::idle))
    }

    /// True when every outbound channel has *emitted* everything it was
    /// asked to send (queues and retransmission buffers empty; acks may
    /// still be outstanding).
    pub fn all_sent(&self) -> bool {
        self.busy_peers()
            .all(|p| p.tx.iter().all(|t| t.queue_len() == 0 && t.rtx_len() == 0))
    }

    /// Probe every peer with unacknowledged traffic; the peer answers with
    /// a NACK reflecting its expected sequence number, which acts as an ACK
    /// if everything actually arrived, or restarts lost traffic otherwise.
    fn keepalive_round(&mut self, ctx: &mut AmCtx) {
        self.stats.keepalive_rounds += 1;
        let mut probes = 0u64;
        let mut at = 0;
        while let Some(dst) = self.next_busy(at) {
            at = dst + 1;
            for chan in Channel::BOTH {
                if self.peers[dst].tx[chan.idx()].has_unacked() {
                    self.stats.probes_sent += 1;
                    probes += 1;
                    self.send_control(ctx, dst, chan, Body::Probe);
                }
            }
        }
        self.t_instant(ctx.now(), TraceKind::AmKeepalive, probes);
    }

    fn handle_packet(&mut self, ctx: &mut AmCtx, state: &mut S, src: usize, pkt: AmPacket) {
        self.stats.packets_received += 1;
        // Incarnation-epoch checks come before *any* ack or sequence
        // processing: state carried by a dead incarnation's packet must
        // never touch the live channels. Legacy runs carry all-zero epochs
        // and skip straight through.
        if pkt.src_epoch < self.peer_epochs[src] {
            // From a dead incarnation of the peer: drop on the floor.
            self.stats.stale_dropped += 1;
            self.t_instant(ctx.now(), TraceKind::AmStaleDrop, pkt.src_epoch as u64);
            return;
        }
        if pkt.src_epoch > self.peer_epochs[src] {
            // The peer restarted: adopt its new incarnation before
            // processing the packet that announced it.
            self.adopt_epoch(ctx, src, pkt.src_epoch);
        }
        if pkt.dst_epoch < self.my_epoch {
            // Addressed to a dead incarnation of *this* node — the sender
            // has not heard about the restart yet. Drop, and advertise the
            // current epoch back (the ACK carries `src_epoch = my_epoch`)
            // so the sender adopts and replays.
            self.stats.stale_dropped += 1;
            self.t_instant(ctx.now(), TraceKind::AmStaleDrop, pkt.dst_epoch as u64);
            self.explicit_ack(ctx, src, pkt.chan);
            return;
        }
        // Piggybacked cumulative ACKs (and SACK bitmaps) ride on every
        // packet.
        self.process_ack(ctx, state, src, Channel::Request, pkt.ack_req);
        self.process_ack(ctx, state, src, Channel::Reply, pkt.ack_rep);
        self.process_sack(ctx, src, Channel::Request, pkt.ack_req, pkt.sack_req);
        self.process_sack(ctx, src, Channel::Reply, pkt.ack_rep, pkt.sack_rep);
        let chan = pkt.chan;
        match pkt.body {
            Body::Ack => {
                self.stats.controls_received += 1;
            }
            Body::Nack { seq, offset, probe } => {
                self.made_progress = true;
                self.stats.controls_received += 1;
                if probe {
                    self.stats.probe_answers_received += 1;
                } else {
                    self.stats.nacks_received += 1;
                }
                let (completed, rtx) =
                    self.peers[src].tx[chan.idx()].on_nack(seq, offset, ctx.now());
                self.t_instant(ctx.now(), TraceKind::AmNackIn, rtx as u64);
                if rtx > 0 {
                    self.t_instant(ctx.now(), TraceKind::AmRetransmit, rtx as u64);
                }
                self.stats.packets_retransmitted += rtx as u64;
                if probe && rtx > 0 {
                    self.stats.rtx_keepalive += rtx as u64;
                }
                self.finish_bulks(ctx, state, completed);
                self.pump_peer(ctx, src);
            }
            Body::Probe => {
                self.stats.controls_received += 1;
                let (es, eo) = self.peers[src].rx[chan.idx()].expected();
                // The probe answer is flagged so the sender attributes any
                // resulting retransmissions to the keep-alive path.
                self.send_control(
                    ctx,
                    src,
                    chan,
                    Body::Nack {
                        seq: es,
                        offset: eo,
                        probe: true,
                    },
                );
                self.t_instant(ctx.now(), TraceKind::AmNackOut, 0);
                self.stats.probe_answers_sent += 1;
            }
            Body::Short { .. } | Body::Data { .. } => {
                self.handle_sequenced(ctx, state, src, pkt);
            }
        }
    }

    /// Does this packet advance the sequence number (shorts and chunk-final
    /// data packets do; mid-chunk packets advance only the offset)?
    fn advances_seq(pkt: &AmPacket) -> bool {
        match &pkt.body {
            Body::Short { .. } => true,
            Body::Data { last_of_chunk, .. } => *last_of_chunk,
            _ => unreachable!("control packets are not sequenced"),
        }
    }

    /// Run one sequenced (short or data) packet through the receive window:
    /// deliver in-order arrivals (then drain anything the advance released
    /// from the selective-repeat buffer), re-ACK duplicates, and handle
    /// gaps — go-back-N NACK in legacy mode, buffer-and-SACK otherwise.
    fn handle_sequenced(&mut self, ctx: &mut AmCtx, state: &mut S, src: usize, pkt: AmPacket) {
        let chan = pkt.chan;
        let advances = Self::advances_seq(&pkt);
        let verdict = self.peers[src].rx[chan.idx()].accept(pkt.seq, pkt.offset, advances);
        match verdict {
            RxVerdict::Deliver { force_ack } => {
                self.deliver_sequenced(ctx, state, src, pkt, force_ack);
                self.drain_held(ctx, state, src, chan);
            }
            RxVerdict::DupDrop => {
                self.stats.dup_dropped += 1;
                self.t_instant(ctx.now(), TraceKind::AmDupDrop, pkt.seq as u64);
                self.explicit_ack(ctx, src, chan);
            }
            RxVerdict::OooDrop { nack } => {
                if self.cfg.reliability.sack {
                    self.buffer_ooo(ctx, src, chan, pkt, nack);
                } else {
                    self.stats.ooo_dropped += 1;
                    self.t_instant(ctx.now(), TraceKind::AmOooDrop, pkt.seq as u64);
                    if nack {
                        self.send_nack(ctx, src, chan);
                    }
                }
            }
        }
    }

    /// Deliver one in-order sequenced packet (the window has already
    /// accepted it).
    fn deliver_sequenced(
        &mut self,
        ctx: &mut AmCtx,
        state: &mut S,
        src: usize,
        pkt: AmPacket,
        force_ack: bool,
    ) {
        self.made_progress = true;
        if let Some(t0) = self.restarted_at.take() {
            // First delivery of the new incarnation: recovery complete.
            self.stats.recovery_ns = (ctx.now() - t0).as_ns();
            self.t_instant(ctx.now(), TraceKind::AmRecovered, self.stats.recovery_ns);
        }
        let chan = pkt.chan;
        match pkt.body {
            Body::Short {
                kind,
                handler,
                nargs,
                args,
            } => {
                self.stats.shorts_delivered += 1;
                match kind {
                    ShortKind::User => {
                        self.invoke(
                            ctx,
                            state,
                            handler,
                            AmArgs {
                                a: args,
                                nargs,
                                src,
                                info: None,
                            },
                            chan == Channel::Request,
                        );
                    }
                    ShortKind::GetReq {
                        src_addr,
                        dst_addr,
                        len,
                        xfer,
                    } => {
                        self.serve_get(ctx, src, src_addr, dst_addr, len, xfer, handler, args);
                    }
                    ShortKind::Barrier { go } => {
                        if go {
                            self.barrier_go = true;
                        } else {
                            self.barrier_hits += 1;
                        }
                    }
                }
                if force_ack {
                    self.explicit_ack(ctx, src, chan);
                }
            }
            Body::Data {
                addr,
                len,
                last_of_xfer,
                handler,
                args,
                base_addr,
                total_len,
                xfer,
                bytes,
                ..
            } => {
                debug_assert_eq!(len as usize, bytes.len());
                self.stats.data_packets_delivered += 1;
                self.stats.bulk_bytes_delivered += bytes.len() as u64;
                self.mem.write(
                    crate::GlobalPtr {
                        node: self.me,
                        addr,
                    },
                    &bytes,
                );
                if last_of_xfer {
                    if chan == Channel::Reply {
                        // Get data arrived back home: the handle completes
                        // here.
                        self.completed.insert(xfer);
                    }
                    if handler != HANDLER_NONE {
                        self.invoke(
                            ctx,
                            state,
                            handler,
                            AmArgs {
                                a: args,
                                nargs: 4,
                                src,
                                info: Some(BulkInfo {
                                    base: base_addr,
                                    len: total_len,
                                }),
                            },
                            chan == Channel::Request,
                        );
                    }
                }
                if force_ack || last_of_xfer {
                    self.explicit_ack(ctx, src, chan);
                }
            }
            _ => unreachable!("only sequenced packets reach delivery"),
        }
    }

    /// SACK mode: hold an out-of-order packet instead of dropping it. When
    /// the packet completes a fully-held sequence (every in-chunk offset up
    /// to the chunk-final present), the sequence enters the advertised SACK
    /// bitmap; the gap advertisement goes out as an explicit ACK on the
    /// first packet of a gap (`first_of_gap`, the slot legacy mode uses for
    /// its NACK) and whenever a sequence becomes newly fully held.
    fn buffer_ooo(
        &mut self,
        ctx: &mut AmCtx,
        src: usize,
        chan: Channel,
        pkt: AmPacket,
        first_of_gap: bool,
    ) {
        let seq = pkt.seq;
        let buf = &mut self.ooo_buf[src][chan.idx()];
        if buf.contains_key(&(seq, pkt.offset)) {
            // Duplicate of something already held: treat like any other
            // duplicate (drop and re-advertise).
            self.stats.dup_dropped += 1;
            self.t_instant(ctx.now(), TraceKind::AmDupDrop, seq as u64);
            self.explicit_ack(ctx, src, chan);
            return;
        }
        let cum = self.peers[src].rx[chan.idx()].cum_ack();
        if seq > cum + 64 {
            // Beyond the 64-bit SACK horizon: unadvertisable, so holding it
            // would be invisible to the sender. Drop like legacy (the RTO
            // or a later round recovers it). Windows keep sequences within
            // the horizon except for degenerate all-shorts bursts.
            self.stats.ooo_dropped += 1;
            self.t_instant(ctx.now(), TraceKind::AmOooDrop, seq as u64);
            return;
        }
        buf.insert((seq, pkt.offset), pkt);
        self.stats.ooo_buffered += 1;
        self.stats.ooo_held += 1;
        self.t_instant(ctx.now(), TraceKind::AmOooHold, seq as u64);
        // Fully held? The chunk-final packet (or the short itself) must be
        // present along with every offset below it.
        let buf = &self.ooo_buf[src][chan.idx()];
        let final_off = buf
            .range((seq, 0)..=(seq, u32::MAX))
            .find_map(|((_, o), p)| Self::advances_seq(p).then_some(*o));
        let fully_held = final_off.is_some_and(|fo| (0..=fo).all(|o| buf.contains_key(&(seq, o))));
        let mut newly_held = false;
        if fully_held && !self.peers[src].rx[chan.idx()].holds(seq) {
            self.peers[src].rx[chan.idx()].hold(seq);
            newly_held = true;
        }
        if first_of_gap || newly_held {
            self.explicit_ack(ctx, src, chan);
        }
    }

    /// After an in-order delivery advanced the window, feed any buffered
    /// packets that are now next-in-line back through delivery, and discard
    /// buffered copies the advance made moot.
    fn drain_held(&mut self, ctx: &mut AmCtx, state: &mut S, src: usize, chan: Channel) {
        if !self.cfg.reliability.sack {
            return;
        }
        loop {
            let expected = self.peers[src].rx[chan.idx()].expected();
            let Some(pkt) = self.ooo_buf[src][chan.idx()].remove(&expected) else {
                break;
            };
            self.stats.ooo_held -= 1;
            let advances = Self::advances_seq(&pkt);
            match self.peers[src].rx[chan.idx()].accept(pkt.seq, pkt.offset, advances) {
                RxVerdict::Deliver { force_ack } => {
                    self.deliver_sequenced(ctx, state, src, pkt, force_ack);
                }
                v => unreachable!("buffered packet at the expected position: {v:?}"),
            }
        }
        // Anything left below the cumulative point was delivered through
        // the in-order path while a copy sat in the buffer: a duplicate.
        let cum = self.peers[src].rx[chan.idx()].cum_ack();
        let buf = &mut self.ooo_buf[src][chan.idx()];
        let moot: Vec<(u32, u32)> = buf.range(..(cum, 0)).map(|(k, _)| *k).collect();
        for k in moot {
            buf.remove(&k);
            self.stats.ooo_held -= 1;
            self.stats.dup_dropped += 1;
        }
    }

    /// Process a piggybacked SACK bitmap for our outbound `chan` toward
    /// `src`: gap sequences the peer does *not* hold retransmit selectively
    /// (at most once per round).
    fn process_sack(&mut self, ctx: &mut AmCtx, src: usize, chan: Channel, cum: u32, bitmap: u64) {
        let rtx = self.peers[src].tx[chan.idx()].on_sack(cum, bitmap);
        if rtx > 0 {
            self.made_progress = true;
            self.stats.packets_retransmitted += rtx as u64;
            self.stats.rtx_sack_gap += rtx as u64;
            self.t_instant(ctx.now(), TraceKind::AmSackRtx, rtx as u64);
            self.pump_peer(ctx, src);
        }
    }

    /// Adopt a peer's new incarnation: its old receive state is
    /// meaningless (the new incarnation restarts its sequence space from
    /// zero), and everything we had in flight toward the old incarnation
    /// replays under fresh sequence numbers.
    fn adopt_epoch(&mut self, ctx: &mut AmCtx, src: usize, epoch: u32) {
        self.peer_epochs[src] = epoch;
        self.t_instant(ctx.now(), TraceKind::AmEpochAdopt, epoch as u64);
        for chan in Channel::BOTH {
            let held = self.ooo_buf[src][chan.idx()].len() as u64;
            self.ooo_buf[src][chan.idx()].clear();
            self.stats.ooo_held -= held;
            self.stats.ooo_dropped += held;
            self.peers[src].rx[chan.idx()] = self.fresh_rx(chan);
            let rtx = self.peers[src].tx[chan.idx()].reincarnate(ctx.now());
            if rtx > 0 {
                self.stats.packets_retransmitted += rtx as u64;
                self.t_instant(ctx.now(), TraceKind::AmRetransmit, rtx as u64);
            }
        }
    }

    /// Crash this node: every piece of protocol state is lost — windows,
    /// sequence spaces, retransmit buffers, bulk completions, epoch views,
    /// selective-repeat buffers — and the incarnation epoch is bumped so
    /// survivors can tell the dead incarnation's in-flight packets from
    /// the new one's. Counters in [`AmStats`] survive: they belong to the
    /// measurement harness, not the crashed program. Call
    /// [`AmPort::note_restart`] when the node comes back up.
    pub(crate) fn crash_reset(&mut self, ctx: &mut AmCtx) {
        self.my_epoch += 1;
        self.stats.epoch = self.my_epoch as u64;
        self.stats.restarts += 1;
        self.t_instant(ctx.now(), TraceKind::AmCrash, self.my_epoch as u64);
        for src in 0..self.n {
            for chan in Channel::BOTH {
                let held = self.ooo_buf[src][chan.idx()].len() as u64;
                self.ooo_buf[src][chan.idx()].clear();
                self.stats.ooo_held -= held;
                self.stats.ooo_dropped += held;
                self.peers[src].rx[chan.idx()] = self.fresh_rx(chan);
                self.peers[src].tx[chan.idx()] = self.fresh_tx(chan);
            }
        }
        self.peer_epochs = vec![0; self.n];
        self.completed.clear();
        self.completions.clear();
        self.idle_polls = 0;
        self.barrier_hits = 0;
        self.barrier_go = false;
    }

    /// The crashed node is back up: start the recovery-time clock and
    /// record the restart on the trace.
    pub(crate) fn note_restart(&mut self, ctx: &mut AmCtx) {
        self.restarted_at = Some(ctx.now());
        self.t_instant(ctx.now(), TraceKind::AmRestart, self.my_epoch as u64);
    }

    fn explicit_ack(&mut self, ctx: &mut AmCtx, dst: usize, chan: Channel) {
        self.stats.explicit_acks_sent += 1;
        self.send_control(ctx, dst, chan, Body::Ack);
    }

    fn send_nack(&mut self, ctx: &mut AmCtx, dst: usize, chan: Channel) {
        let (es, eo) = self.peers[dst].rx[chan.idx()].expected();
        self.t_instant(ctx.now(), TraceKind::AmNackOut, 0);
        self.stats.nacks_sent += 1;
        self.send_control(
            ctx,
            dst,
            chan,
            Body::Nack {
                seq: es,
                offset: eo,
                probe: false,
            },
        );
    }

    fn process_ack(&mut self, ctx: &mut AmCtx, state: &mut S, src: usize, chan: Channel, cum: u32) {
        let (freed, completed) = self.peers[src].tx[chan.idx()].on_ack(cum, ctx.now());
        if freed > 0 {
            self.made_progress = true;
            self.t_instant(
                ctx.now(),
                TraceKind::AmAck,
                cum as u64 | (chan.idx() as u64) << 32,
            );
        }
        self.finish_bulks(ctx, state, completed);
    }

    fn finish_bulks(&mut self, ctx: &mut AmCtx, state: &mut S, ids: Vec<u32>) {
        for id in ids {
            self.completed.insert(id);
            if let Some((handler, args)) = self.completions.remove(&id) {
                self.invoke(
                    ctx,
                    state,
                    handler,
                    AmArgs {
                        a: args,
                        nargs: 4,
                        src: self.me,
                        info: None,
                    },
                    false,
                );
            }
        }
    }

    /// Serve a get request: stream the requested bytes back on the reply
    /// channel. The data packets carry the *requester's* handler/args/id.
    #[allow(clippy::too_many_arguments)] // the get-request wire fields
    fn serve_get(
        &mut self,
        ctx: &mut AmCtx,
        requester: usize,
        src_addr: u32,
        dst_addr: u32,
        len: u32,
        xfer: u32,
        handler: u16,
        args: [u32; 4],
    ) {
        let data = self.mem.read_shared(
            crate::GlobalPtr {
                node: self.me,
                addr: src_addr,
            },
            len as usize,
        );
        self.peers[requester].tx[Channel::Reply.idx()].push(SendItem::Bulk(BulkTx::untracked(
            xfer, dst_addr, handler, args, data,
        )));
        self.pump_peer(ctx, requester);
    }

    fn invoke(
        &mut self,
        ctx: &mut AmCtx,
        state: &mut S,
        handler: u16,
        args: AmArgs,
        reply_allowed: bool,
    ) {
        let f = *self
            .handlers
            .get(handler as usize)
            .unwrap_or_else(|| panic!("node {}: unregistered handler {handler}", self.me));
        let mut env = AmEnv {
            port: self,
            ctx,
            state,
            reply_to: args.src,
            reply_allowed,
            replied: false,
        };
        f(&mut env, args);
    }

    /// Diagnostic snapshot of channel state (debugging aid).
    #[doc(hidden)]
    pub fn debug_state(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (p, peer) in self.peers.iter().enumerate() {
            for chan in Channel::BOTH {
                let tx = &peer.tx[chan.idx()];
                let rx = &peer.rx[chan.idx()];
                if !tx.idle() || rx.expected() != (0, 0) {
                    let _ = write!(
                        s,
                        "[{me}->{p} {chan:?}] tx: in_flight={} unacked={} queue={} rtx={} next={} | rx expects {:?}; ",
                        tx.in_flight(),
                        tx.has_unacked(),
                        tx.queue_len(),
                        tx.rtx_len(),
                        tx.next_seq(),
                        rx.expected(),
                        me = self.me,
                    );
                }
            }
        }
        s
    }

    // ----- barrier ----------------------------------------------------

    /// A simple dissemination barrier built from protocol-level shorts
    /// (node 0 collects hits, then broadcasts go). Used by benchmarks.
    pub(crate) fn barrier(&mut self, ctx: &mut AmCtx, state: &mut S) {
        if self.n == 1 {
            return;
        }
        if self.me == 0 {
            while self.barrier_hits < (self.n - 1) as u32 {
                self.poll(ctx, state, Time::ZERO);
            }
            self.barrier_hits = 0;
            for dst in 1..self.n {
                self.peers[dst].tx[Channel::Request.idx()].push(SendItem::Short {
                    kind: ShortKind::Barrier { go: true },
                    handler: HANDLER_NONE,
                    nargs: 0,
                    args: [0; 4],
                });
                self.pump_peer(ctx, dst);
            }
        } else {
            self.peers[0].tx[Channel::Request.idx()].push(SendItem::Short {
                kind: ShortKind::Barrier { go: false },
                handler: HANDLER_NONE,
                nargs: 0,
                args: [0; 4],
            });
            self.pump_peer(ctx, 0);
            while !self.barrier_go {
                self.poll(ctx, state, Time::ZERO);
            }
            self.barrier_go = false;
        }
    }
}
