//! The user-facing Active Messages API: the [`Am`] facade node programs
//! hold, and the [`AmEnv`] environment handlers receive.

use crate::mem::{GlobalPtr, Mem, MemPool};
use crate::port::{AmPort, HandlerFn, HANDLER_NONE};
use crate::stats::AmStats;
use crate::AmCtx;
use sp_sim::{Dur, Time};

/// Index into the node's handler table (returned by [`Am::register`]).
pub type HandlerId = u16;

/// Handle naming an outstanding bulk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BulkHandle(pub(crate) u32);

/// Addressing/extent info handed to bulk-completion handlers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkInfo {
    /// Base address the transfer landed at (receiver-local).
    pub base: u32,
    /// Total transfer length in bytes.
    pub len: u32,
}

/// Arguments delivered to a handler.
#[derive(Debug, Clone, Copy)]
pub struct AmArgs {
    /// Argument words (only the first `nargs` are meaningful).
    pub a: [u32; 4],
    /// Number of valid argument words.
    pub nargs: u8,
    /// Node that sent the message (or issued the transfer).
    pub src: usize,
    /// For bulk-completion handlers on the receiving side: where the data
    /// landed.
    pub info: Option<BulkInfo>,
}

/// Environment available inside a handler: per-node state, reply
/// capability, and local memory.
pub struct AmEnv<'a, S> {
    pub(crate) port: &'a mut AmPort<S>,
    pub(crate) ctx: &'a mut AmCtx,
    /// The node program's state (same `S` as in [`Am`]).
    pub state: &'a mut S,
    pub(crate) reply_to: usize,
    pub(crate) reply_allowed: bool,
    pub(crate) replied: bool,
}

impl<'a, S> AmEnv<'a, S> {
    /// This node's index.
    pub fn node(&self) -> usize {
        self.port.node()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.port.nodes()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.ctx.now()
    }

    /// Local memory view.
    pub fn mem(&self) -> Mem {
        self.port.mem_pool().on(self.port.node())
    }

    /// Charge handler CPU work to the node's clock.
    pub fn work(&mut self, d: Dur) {
        self.ctx.advance(d);
    }

    /// Reply with `n` argument words. Only request handlers (and store
    /// handlers, which run in request context) may reply, at most once —
    /// the GAM 1.1 rule.
    pub fn reply(&mut self, handler: HandlerId, args: &[u32]) {
        assert!(
            self.reply_allowed,
            "am_reply from a reply/completion handler is illegal (GAM 1.1)"
        );
        assert!(!self.replied, "a handler may reply at most once");
        assert!(args.len() <= 4, "replies carry at most 4 words");
        self.replied = true;
        let mut a = [0u32; 4];
        a[..args.len()].copy_from_slice(args);
        self.port
            .send_reply(self.ctx, self.reply_to, handler, args.len() as u8, a);
    }

    /// `am_reply_1`.
    pub fn reply_1(&mut self, handler: HandlerId, a0: u32) {
        self.reply(handler, &[a0]);
    }

    /// `am_reply_2`.
    pub fn reply_2(&mut self, handler: HandlerId, a0: u32, a1: u32) {
        self.reply(handler, &[a0, a1]);
    }

    /// `am_reply_3`.
    pub fn reply_3(&mut self, handler: HandlerId, a0: u32, a1: u32, a2: u32) {
        self.reply(handler, &[a0, a1, a2]);
    }

    /// `am_reply_4`.
    pub fn reply_4(&mut self, handler: HandlerId, a0: u32, a1: u32, a2: u32, a3: u32) {
        self.reply(handler, &[a0, a1, a2, a3]);
    }
}

/// The per-node Active Messages endpoint: GAM 1.1 calls plus state and
/// memory access. Constructed by [`AmMachine::spawn`](crate::AmMachine).
pub struct Am<'c, S> {
    pub(crate) ctx: &'c mut AmCtx,
    pub(crate) port: AmPort<S>,
    pub(crate) state: S,
}

impl<'c, S> Am<'c, S> {
    pub(crate) fn new(ctx: &'c mut AmCtx, mem: MemPool, cfg: crate::AmConfig, state: S) -> Self {
        let me = ctx.id().0;
        let n = ctx.num_nodes();
        let tracer = ctx.world(|w| w.tracer());
        Am {
            ctx,
            port: AmPort::new(me, n, cfg, mem, tracer),
            state,
        }
    }

    /// This node's index.
    pub fn node(&self) -> usize {
        self.port.node()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.port.nodes()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.ctx.now()
    }

    /// Charge CPU work (computation phases of applications).
    pub fn work(&mut self, d: Dur) {
        self.ctx.advance(d);
    }

    /// The node program's state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// The node program's state, mutably.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Local memory view.
    pub fn mem(&self) -> Mem {
        self.port.mem_pool().on(self.port.node())
    }

    /// The whole memory pool (for address arithmetic on remote nodes).
    pub fn mem_pool(&self) -> &MemPool {
        self.port.mem_pool()
    }

    /// Allocate `len` bytes in local memory.
    pub fn alloc(&mut self, len: u32) -> GlobalPtr {
        self.port.mem_pool().alloc(self.port.node(), len)
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &AmStats {
        self.port.stats()
    }

    /// Direct access to the protocol engine (instrumentation, tests).
    pub fn port(&self) -> &AmPort<S> {
        &self.port
    }

    /// The host cost model of this machine.
    pub fn cost(&self) -> sp_machine::CostModel {
        self.ctx.world(|w| w.cost.clone())
    }

    /// Register `f` in the handler table; every node must register the same
    /// handlers in the same order (as in C, where handler addresses match
    /// across the SPMD program).
    pub fn register(&mut self, f: HandlerFn<S>) -> HandlerId {
        self.port.register(f)
    }

    /// `am_request_M`: send a request with up to 4 argument words; polls
    /// the network afterwards (§1.1: "each call to am_request checks the
    /// network").
    pub fn request(&mut self, dst: usize, handler: HandlerId, args: &[u32]) {
        assert!(args.len() <= 4, "requests carry at most 4 words");
        let mut a = [0u32; 4];
        a[..args.len()].copy_from_slice(args);
        self.port
            .send_request(self.ctx, dst, handler, args.len() as u8, a);
        self.port.poll(self.ctx, &mut self.state, Time::ZERO);
    }

    /// `am_request_1`.
    pub fn request_1(&mut self, dst: usize, handler: HandlerId, a0: u32) {
        self.request(dst, handler, &[a0]);
    }

    /// `am_request_2`.
    pub fn request_2(&mut self, dst: usize, handler: HandlerId, a0: u32, a1: u32) {
        self.request(dst, handler, &[a0, a1]);
    }

    /// `am_request_3`.
    pub fn request_3(&mut self, dst: usize, handler: HandlerId, a0: u32, a1: u32, a2: u32) {
        self.request(dst, handler, &[a0, a1, a2]);
    }

    /// `am_request_4`.
    pub fn request_4(
        &mut self,
        dst: usize,
        handler: HandlerId,
        a0: u32,
        a1: u32,
        a2: u32,
        a3: u32,
    ) {
        self.request(dst, handler, &[a0, a1, a2, a3]);
    }

    /// `am_poll`: drain and dispatch pending messages; returns how many
    /// were processed.
    pub fn poll(&mut self) -> usize {
        self.port.poll(self.ctx, &mut self.state, Time::ZERO)
    }

    /// Poll until `pred(state)` holds. Only a handled packet changes the
    /// state, so while no peer is busy the empty polls repeat in the
    /// engine without asking `pred` again (see `AmPort::poll`); every poll
    /// is still charged and counted.
    pub fn poll_until(&mut self, mut pred: impl FnMut(&S) -> bool) {
        while !pred(&self.state) {
            // Only a packet can change `pred`'s verdict.
            self.port.poll(self.ctx, &mut self.state, Time::MAX);
        }
    }

    /// Interrupt-driven reception (the mode the paper mentions but does not
    /// analyze, §1.1): sleep until the adapter raises an arrival interrupt,
    /// pay the kernel dispatch cost, then poll. Far cheaper in CPU cycles
    /// when idle, far worse in latency — AIX interrupt dispatch
    /// (`interrupt_cpu`, default 35 µs) dwarfs the 1.3 µs poll. See the
    /// `ablations` bench for the comparison.
    pub fn wait_message(&mut self) -> usize {
        // Fast path: something already arrived.
        if sp_adapter::host::recv_pending(self.ctx) {
            return self.port.poll(self.ctx, &mut self.state, Time::ZERO);
        }
        let cost = self.port.config_interrupt_cpu();
        self.ctx.park();
        self.ctx.advance(cost);
        self.port.poll(self.ctx, &mut self.state, Time::ZERO)
    }

    /// Interrupt-driven wait until `pred(state)` holds.
    pub fn wait_until(&mut self, mut pred: impl FnMut(&S) -> bool) {
        while !pred(&self.state) {
            self.wait_message();
        }
    }

    /// `am_store`: copy `data` to `dst` and run `handler` there when the
    /// transfer completes; **blocks** until the final chunk is acknowledged
    /// (the semantics the paper's blocking-bandwidth test measures).
    pub fn store(&mut self, dst: GlobalPtr, data: &[u8], handler: Option<HandlerId>, args: &[u32]) {
        let h = self.store_async(dst, data, handler, args, None);
        self.wait_bulk(h);
    }

    /// `am_store_async`: start the transfer and return a handle;
    /// `completion` (if any) runs *locally* once the final chunk is
    /// acknowledged, i.e. when the source buffer is reusable end-to-end.
    pub fn store_async(
        &mut self,
        dst: GlobalPtr,
        data: &[u8],
        handler: Option<HandlerId>,
        args: &[u32],
        completion: Option<(HandlerId, [u32; 4])>,
    ) -> BulkHandle {
        assert!(args.len() <= 4);
        let mut a = [0u32; 4];
        a[..args.len()].copy_from_slice(args);
        self.port.start_store(
            self.ctx,
            dst.node,
            dst.addr,
            data.into(),
            handler.unwrap_or(HANDLER_NONE),
            a,
            completion,
        )
    }

    /// `am_store` variant reading the source bytes from local memory.
    pub fn store_from(
        &mut self,
        src_addr: u32,
        dst: GlobalPtr,
        len: u32,
        handler: Option<HandlerId>,
        args: &[u32],
    ) {
        let data = self.port.mem_pool().read_vec(
            GlobalPtr {
                node: self.port.node(),
                addr: src_addr,
            },
            len as usize,
        );
        self.store(dst, &data, handler, args);
    }

    /// `am_get`: fetch `len` bytes from `src` into local `dst_addr`; `handler`
    /// runs locally once the data has arrived. Split-phase: returns a handle.
    pub fn get(
        &mut self,
        src: GlobalPtr,
        dst_addr: u32,
        len: u32,
        handler: Option<HandlerId>,
        args: &[u32],
    ) -> BulkHandle {
        assert!(args.len() <= 4);
        let mut a = [0u32; 4];
        a[..args.len()].copy_from_slice(args);
        self.port.start_get(
            self.ctx,
            src.node,
            src.addr,
            dst_addr,
            len,
            handler.unwrap_or(HANDLER_NONE),
            a,
        )
    }

    /// Blocking `am_get`: fetch and wait for arrival.
    pub fn get_blocking(&mut self, src: GlobalPtr, dst_addr: u32, len: u32) {
        let h = self.get(src, dst_addr, len, None, &[]);
        self.wait_bulk(h);
    }

    /// Has this bulk transfer completed?
    pub fn bulk_done(&self, h: BulkHandle) -> bool {
        self.port.bulk_done(h)
    }

    /// Poll until the bulk transfer completes.
    pub fn wait_bulk(&mut self, h: BulkHandle) {
        while !self.port.bulk_done(h) {
            self.port.poll(self.ctx, &mut self.state, Time::ZERO);
        }
    }

    /// Global barrier across all nodes (benchmark utility; built from
    /// protocol shorts, so it exercises the same reliable channels).
    pub fn barrier(&mut self) {
        self.port.barrier(self.ctx, &mut self.state);
    }

    /// Poll until every queued outbound packet has been handed to the
    /// adapter (acks may still be pending). Layers whose remote operations
    /// are *served* by the protocol engine (Split-C gets, for example) call
    /// this before leaving a service window, so a peer's multi-chunk
    /// transfer is never stranded behind this node's next compute phase.
    pub fn flush_sends(&mut self) {
        while !self.port.all_sent() {
            self.port.poll(self.ctx, &mut self.state, Time::ZERO);
        }
    }

    /// Poll until every outbound channel is fully acknowledged (nothing
    /// queued, in flight, or awaiting retransmission). Call before letting
    /// a node program return while peers may still need its traffic —
    /// a program that exits with unacknowledged packets is, to its peers,
    /// a crash (which AM explicitly does not recover from, §1.1).
    pub fn quiesce(&mut self) {
        while !self.port.all_idle() {
            self.port.poll(self.ctx, &mut self.state, Time::ZERO);
        }
    }

    /// Keep polling for `d` of virtual time, serving peers' retransmission
    /// and keep-alive traffic. The standard graceful-shutdown pattern under
    /// lossy conditions: the *active* side `quiesce`s, the *passive* side
    /// `drain`s long enough to cover the active side's recovery rounds.
    pub fn drain(&mut self, d: Dur) {
        let until = self.now() + d;
        while self.now() < until {
            self.port.poll(self.ctx, &mut self.state, until);
        }
    }

    /// [`drain`](Am::drain), but the quiet window *restarts* whenever a
    /// packet arrives: return only after `d` of continuous silence. A
    /// fixed-length drain can end while a lossy peer is still
    /// mid-recovery — its retransmissions then go unacknowledged forever
    /// and the peer's `quiesce` never terminates. A recovering peer
    /// retransmits every few keep-alive rounds (microseconds), so any `d`
    /// well above that cadence makes premature exit require an
    /// arbitrarily long run of consecutive losses. Arrivals alone gate
    /// the exit (never this node's own unacknowledged sends — those are
    /// the *active* side's `quiesce` contract), so a dead peer cannot
    /// wedge the drain.
    pub fn drain_quiet(&mut self, d: Dur) {
        let mut deadline = self.now() + d;
        while self.now() < deadline {
            if self.port.poll(self.ctx, &mut self.state, deadline) > 0 {
                deadline = self.now() + d;
            }
        }
    }

    /// Crash this node and restart it after `down` of virtual time.
    ///
    /// The protocol loses *all* state — windows, sequence spaces,
    /// retransmit buffers, pending bulk completions, selective-repeat
    /// buffers — and the adapter's send and receive FIFOs are wiped, as a
    /// real crashed host's hardware queues would be. The node's
    /// incarnation epoch is bumped so the survivors' epoch checks can tell
    /// the dead incarnation's still-in-flight packets from the new one's.
    /// While down the node does not poll: peers' traffic piles up, goes
    /// stale, or is lost; anything that arrived during the outage is wiped
    /// again at restart. Registered handlers and the application state `S`
    /// survive (the restarted program begins with them in place — workload
    /// code that wants a cold start resets `S` itself).
    ///
    /// Everything here is node-local and driven by the program's own
    /// schedule, so crash/restart chaos schedules replay byte-identically
    /// at any shard count.
    pub fn crash_restart(&mut self, down: Dur) {
        let me = self.port.node();
        self.ctx.world(|w| {
            w.wipe_node(me);
        });
        self.port.crash_reset(self.ctx);
        self.ctx.advance(down);
        // The outage window's arrivals died with the old incarnation too.
        self.ctx.world(|w| {
            w.wipe_node(me);
        });
        self.port.note_restart(self.ctx);
    }
}
