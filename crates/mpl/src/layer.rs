//! The MPL layer: eager packetizing sends, (source, tag) matching receives,
//! credit-based flow control, and the machine builder.

use crate::config::MplConfig;
use crate::wire::MplWire;
use crate::{MplCtx, MplWorld};
use sp_adapter::{host, SpConfig, MAX_PAYLOAD};
use sp_sim::{NodeId, Sim, SimError, Time};
use std::collections::{HashMap, VecDeque};

/// A completed inbound message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Sending node.
    pub src: usize,
    /// Message tag.
    pub tag: u32,
    /// Message bytes.
    pub data: Vec<u8>,
}

/// Handle for a non-blocking send (eager: complete at call return, like
/// `mpc_send` once the message is buffered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendHandle(u64);

/// Handle for a non-blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvHandle(usize);

/// MPL statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MplStats {
    /// Messages sent.
    pub sends: u64,
    /// Messages received (matched).
    pub recvs: u64,
    /// Packets sent (fragments + credits).
    pub packets_sent: u64,
    /// Times a sender stalled waiting for credits.
    pub credit_stalls: u64,
}

struct OutPeer {
    next_msg_id: u32,
    credits: u32,
}

struct InPeer {
    drained: u32,
}

struct Partial {
    tag: u32,
    total: u32,
    got: u32,
    data: Vec<u8>,
}

enum PostedState {
    Waiting,
    Ready(Msg),
    Consumed,
}

struct Posted {
    src: Option<usize>,
    tag: Option<u32>,
    state: PostedState,
}

/// Per-node MPL endpoint.
pub struct Mpl<'c> {
    ctx: &'c mut MplCtx,
    cfg: MplConfig,
    out: Vec<OutPeer>,
    inn: Vec<InPeer>,
    assembling: HashMap<(usize, u32), Partial>,
    unexpected: VecDeque<Msg>,
    posted: Vec<Posted>,
    stats: MplStats,
}

impl<'c> Mpl<'c> {
    /// Wrap a node context as an MPL endpoint.
    pub fn new(ctx: &'c mut MplCtx, cfg: MplConfig) -> Self {
        let n = ctx.num_nodes();
        let window = cfg.credit_window;
        Mpl {
            ctx,
            cfg,
            out: (0..n)
                .map(|_| OutPeer {
                    next_msg_id: 0,
                    credits: window,
                })
                .collect(),
            inn: (0..n).map(|_| InPeer { drained: 0 }).collect(),
            assembling: HashMap::new(),
            unexpected: VecDeque::new(),
            posted: Vec::new(),
            stats: MplStats::default(),
        }
    }

    /// This node's index.
    pub fn node(&self) -> usize {
        self.ctx.id().0
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.ctx.num_nodes()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.ctx.now()
    }

    /// Charge CPU work (computation phases).
    pub fn work(&mut self, d: sp_sim::Dur) {
        self.ctx.advance(d);
    }

    /// Statistics so far.
    pub fn stats(&self) -> &MplStats {
        &self.stats
    }

    /// `mpc_bsend`: blocking eager send of `data` with `tag` to `dst`.
    /// Blocks until the message is handed to the adapter (buffer reusable).
    pub fn bsend(&mut self, dst: usize, tag: u32, data: &[u8]) {
        self.ctx.advance(self.cfg.o_send);
        self.stats.sends += 1;
        let msg_id = self.out[dst].next_msg_id;
        self.out[dst].next_msg_id += 1;
        let total = data.len() as u32;
        let mut offset = 0usize;
        let mut pending_doorbell = 0usize;
        loop {
            // Wait for a credit and a FIFO slot, polling to drain inbound
            // traffic (this is what prevents send-send deadlock).
            while self.out[dst].credits == 0 {
                self.stats.credit_stalls += 1;
                if pending_doorbell > 0 {
                    host::ring_doorbell(self.ctx, pending_doorbell);
                    pending_doorbell = 0;
                }
                self.poll();
            }
            while host::send_fifo_free(self.ctx) == 0 {
                if pending_doorbell > 0 {
                    host::ring_doorbell(self.ctx, pending_doorbell);
                    pending_doorbell = 0;
                }
                self.poll();
            }
            let len = (data.len() - offset).min(MAX_PAYLOAD);
            let frag = MplWire::Frag {
                msg_id,
                tag,
                offset: offset as u32,
                total,
                bytes: data[offset..offset + len].into(),
            };
            self.ctx.advance(self.cfg.per_packet_cpu);
            let bytes = frag.payload_bytes();
            host::write_packet(self.ctx, dst, bytes, frag).expect("FIFO slot was checked");
            self.stats.packets_sent += 1;
            self.out[dst].credits -= 1;
            pending_doorbell += 1;
            if pending_doorbell >= self.cfg.doorbell_batch {
                host::ring_doorbell(self.ctx, pending_doorbell);
                pending_doorbell = 0;
            }
            offset += len;
            if offset >= data.len() {
                break;
            }
        }
        if pending_doorbell > 0 {
            host::ring_doorbell(self.ctx, pending_doorbell);
        }
    }

    /// `mpc_send`: non-blocking send. With MPL's eager buffering the
    /// message is on its way when the call returns, so the handle is
    /// already complete; it exists for API fidelity.
    pub fn send(&mut self, dst: usize, tag: u32, data: &[u8]) -> SendHandle {
        self.bsend(dst, tag, data);
        SendHandle(self.stats.sends)
    }

    /// `mpc_recv`: post a non-blocking receive matching `src`/`tag`
    /// (wildcards via `None`).
    pub fn recv(&mut self, src: Option<usize>, tag: Option<u32>) -> RecvHandle {
        // Check the unexpected queue first.
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|m| src.is_none_or(|s| s == m.src) && tag.is_none_or(|t| t == m.tag))
        {
            let msg = self.unexpected.remove(pos).expect("position valid");
            self.posted.push(Posted {
                src,
                tag,
                state: PostedState::Ready(msg),
            });
        } else {
            self.posted.push(Posted {
                src,
                tag,
                state: PostedState::Waiting,
            });
        }
        RecvHandle(self.posted.len() - 1)
    }

    /// `mpc_wait` on a receive: poll until it matches; returns the message.
    pub fn wait(&mut self, h: RecvHandle) -> Msg {
        while matches!(self.posted[h.0].state, PostedState::Waiting) {
            self.poll();
        }
        match std::mem::replace(&mut self.posted[h.0].state, PostedState::Consumed) {
            PostedState::Ready(msg) => msg,
            PostedState::Consumed => panic!("receive handle waited twice"),
            PostedState::Waiting => unreachable!(),
        }
    }

    /// Has this receive completed (without consuming it)?
    pub fn test(&mut self, h: RecvHandle) -> bool {
        if matches!(self.posted[h.0].state, PostedState::Ready(_)) {
            return true;
        }
        self.poll();
        matches!(self.posted[h.0].state, PostedState::Ready(_))
    }

    /// Remove and return the first unexpected message satisfying `pred`
    /// (without posting a receive). Layers built over MPL — like the
    /// Split-C port, which has to *serve* remote-access requests from
    /// within its own calls since MPL has no remote handlers — use this to
    /// drain service traffic.
    pub fn take_unexpected(&mut self, pred: impl Fn(&Msg) -> bool) -> Option<Msg> {
        let pos = self.unexpected.iter().position(pred)?;
        self.unexpected.remove(pos)
    }

    /// `mpc_brecv`: blocking receive.
    pub fn brecv(&mut self, src: Option<usize>, tag: Option<u32>) -> Msg {
        let h = self.recv(src, tag);
        self.wait(h)
    }

    /// Drain the adapter, assembling fragments, matching completed
    /// messages, and returning credits. Returns packets processed.
    pub fn poll(&mut self) -> usize {
        let mut processed = 0;
        let mut next = host::poll_packet_after(self.ctx, self.cfg.poll_cpu, Time::ZERO, None).0;
        while let Some(wpkt) = next {
            processed += 1;
            let src = wpkt.src;
            match wpkt.payload {
                MplWire::Credit { count } => {
                    self.out[src].credits += count;
                }
                MplWire::Frag {
                    msg_id,
                    tag,
                    offset,
                    total,
                    bytes,
                } => {
                    let p = self
                        .assembling
                        .entry((src, msg_id))
                        .or_insert_with(|| Partial {
                            tag,
                            total,
                            got: 0,
                            data: vec![0u8; total as usize],
                        });
                    p.data[offset as usize..offset as usize + bytes.len()].copy_from_slice(&bytes);
                    p.got += bytes.len().max(1) as u32;
                    let complete = p.got >= p.total.max(1);
                    if complete {
                        let p = self.assembling.remove(&(src, msg_id)).expect("present");
                        self.ctx.advance(self.cfg.o_recv);
                        self.stats.recvs += 1;
                        self.deliver(Msg {
                            src,
                            tag: p.tag,
                            data: p.data,
                        });
                    }
                    // Credit bookkeeping.
                    self.inn[src].drained += 1;
                    if self.inn[src].drained >= self.cfg.credit_batch {
                        let count = self.inn[src].drained;
                        self.inn[src].drained = 0;
                        let credit = MplWire::Credit { count };
                        let bytes = credit.payload_bytes();
                        if host::send_packet(self.ctx, src, bytes, credit).is_ok() {
                            self.stats.packets_sent += 1;
                        } else {
                            // FIFO full: retry on a later poll by restoring
                            // the counter.
                            self.inn[src].drained = count;
                        }
                    }
                }
            }
            next = host::poll_packet(self.ctx);
        }
        processed
    }

    fn deliver(&mut self, msg: Msg) {
        for posted in &mut self.posted {
            if matches!(posted.state, PostedState::Waiting)
                && posted.src.is_none_or(|s| s == msg.src)
                && posted.tag.is_none_or(|t| t == msg.tag)
            {
                posted.state = PostedState::Ready(msg);
                return;
            }
        }
        self.unexpected.push_back(msg);
    }

    /// Barrier over MPL messages (benchmark utility).
    pub fn barrier(&mut self) {
        const BARRIER_TAG: u32 = u32::MAX - 7;
        let me = self.node();
        let n = self.nodes();
        if n == 1 {
            return;
        }
        if me == 0 {
            for _ in 1..n {
                let _ = self.brecv(None, Some(BARRIER_TAG));
            }
            for dst in 1..n {
                self.bsend(dst, BARRIER_TAG, &[]);
            }
        } else {
            self.bsend(0, BARRIER_TAG, &[]);
            let _ = self.brecv(Some(0), Some(BARRIER_TAG));
        }
    }
}

/// Builder for MPL simulations (mirrors `AmMachine`).
pub struct MplMachine {
    sim: Sim<MplWorld>,
    cfg: MplConfig,
    nodes: usize,
    spawned: usize,
    parallel: usize,
}

/// Result of an MPL run.
pub struct MplReport {
    /// Final virtual time.
    pub end_time: Time,
    /// Engine events executed.
    pub events: u64,
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
    /// Duplicate unpark wake-ups coalesced by the engine.
    pub wakes_coalesced: u64,
    /// Per-shard engine breakdown (empty on a serial run).
    pub shards: Vec<sp_sim::ShardReport>,
    /// Shards requested via [`SpConfig::parallel`] before clamping to the
    /// node count.
    pub shards_requested: usize,
    /// Inter-shard synchronization events (0 on a serial run).
    pub sync_events: u64,
    /// Conservative lookahead windows (0 on a serial run).
    pub windows: u64,
    /// PDES profile of a parallel run; `None` on a serial run.
    pub profile: Option<sp_sim::ShardProfile>,
    /// Final hardware state.
    pub world: MplWorld,
}

impl MplMachine {
    /// Build an MPL machine.
    pub fn new(sp: SpConfig, cfg: MplConfig, seed: u64) -> Self {
        let nodes = sp.nodes;
        let parallel = sp.parallel;
        MplMachine {
            sim: Sim::new(MplWorld::new(sp), seed),
            cfg,
            nodes,
            spawned: 0,
            parallel,
        }
    }

    /// Mutate hardware before the run (fault injection etc.).
    pub fn configure_world(&mut self, f: impl FnOnce(&mut MplWorld)) -> &mut Self {
        f(self.sim.world_mut());
        self
    }

    /// Spawn the next node's program.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        prog: impl FnOnce(&mut Mpl<'_>) + Send + 'static,
    ) -> NodeId {
        assert!(self.spawned < self.nodes, "more programs than nodes");
        self.spawned += 1;
        let cfg = self.cfg.clone();
        self.sim.spawn(name, move |ctx| {
            let mut mpl = Mpl::new(ctx, cfg);
            prog(&mut mpl);
        })
    }

    /// Run to completion on [`SpConfig::parallel`] conservative-parallel
    /// shards (one shard by default).
    pub fn run(self) -> Result<MplReport, SimError> {
        assert_eq!(self.spawned, self.nodes, "every node needs a program");
        let report = self.sim.run_parallel(self.parallel.max(1))?;
        Ok(MplReport {
            end_time: report.end_time,
            events: report.events,
            wall: report.wall,
            wakes_coalesced: report.wakes_coalesced,
            shards: report.shards,
            shards_requested: report.shards_requested,
            sync_events: report.sync_events,
            windows: report.windows,
            profile: report.profile,
            world: report.world,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pair(
        a: impl FnOnce(&mut Mpl<'_>) + Send + 'static,
        b: impl FnOnce(&mut Mpl<'_>) + Send + 'static,
    ) -> MplReport {
        let mut m = MplMachine::new(SpConfig::thin(2), MplConfig::default(), 5);
        m.spawn("a", a);
        m.spawn("b", b);
        m.run().unwrap()
    }

    #[test]
    fn small_message_roundtrip() {
        pair(
            |mpl| {
                mpl.bsend(1, 7, &[1, 2, 3, 4]);
                let reply = mpl.brecv(Some(1), Some(8));
                assert_eq!(reply.data, vec![9]);
            },
            |mpl| {
                let msg = mpl.brecv(None, None);
                assert_eq!(
                    (msg.src, msg.tag, msg.data.clone()),
                    (0, 7, vec![1, 2, 3, 4])
                );
                mpl.bsend(0, 8, &[9]);
            },
        );
    }

    #[test]
    fn large_message_reassembles() {
        let data: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let expect = data.clone();
        pair(
            move |mpl| {
                mpl.bsend(1, 1, &data);
                mpl.barrier();
            },
            move |mpl| {
                let msg = mpl.brecv(Some(0), Some(1));
                assert_eq!(msg.data, expect);
                mpl.barrier();
            },
        );
    }

    #[test]
    fn zero_length_messages() {
        pair(
            |mpl| {
                mpl.bsend(1, 3, &[]);
                mpl.barrier();
            },
            |mpl| {
                let msg = mpl.brecv(Some(0), Some(3));
                assert!(msg.data.is_empty());
                mpl.barrier();
            },
        );
    }

    #[test]
    fn tag_matching_out_of_arrival_order() {
        pair(
            |mpl| {
                mpl.bsend(1, 10, &[10]);
                mpl.bsend(1, 20, &[20]);
                mpl.barrier();
            },
            |mpl| {
                // Receive tag 20 first even though tag 10 arrived first.
                let m20 = mpl.brecv(None, Some(20));
                let m10 = mpl.brecv(None, Some(10));
                assert_eq!((m20.data[0], m10.data[0]), (20, 10));
                mpl.barrier();
            },
        );
    }

    #[test]
    fn same_tag_messages_keep_fifo_order() {
        pair(
            |mpl| {
                for i in 0..20u8 {
                    mpl.bsend(1, 5, &[i]);
                }
                mpl.barrier();
            },
            |mpl| {
                for i in 0..20u8 {
                    let m = mpl.brecv(Some(0), Some(5));
                    assert_eq!(m.data[0], i, "same-tag messages must stay ordered");
                }
                mpl.barrier();
            },
        );
    }

    #[test]
    fn nonblocking_recv_posted_before_send() {
        pair(
            |mpl| {
                let h = mpl.recv(Some(1), Some(2));
                mpl.bsend(1, 1, &[0]); // tell peer we're ready
                let msg = mpl.wait(h);
                assert_eq!(msg.data, vec![42]);
            },
            |mpl| {
                let _ = mpl.brecv(Some(0), Some(1));
                mpl.bsend(0, 2, &[42]);
            },
        );
    }

    #[test]
    fn mutual_floods_do_not_deadlock() {
        // Both sides send far more packets than the credit window before
        // either receives: credit stalls must resolve via polling.
        let big = vec![7u8; 224 * 120];
        let big2 = big.clone();
        let report = pair(
            move |mpl| {
                mpl.bsend(1, 1, &big);
                let m = mpl.brecv(Some(1), Some(1));
                assert_eq!(m.data.len(), 224 * 120);
            },
            move |mpl| {
                mpl.bsend(0, 1, &big2);
                let m = mpl.brecv(Some(0), Some(1));
                assert_eq!(m.data.len(), 224 * 120);
            },
        );
        assert_eq!(report.world.adapter_stats(0).dropped_overflow, 0);
        assert_eq!(report.world.adapter_stats(1).dropped_overflow, 0);
    }

    #[test]
    fn round_trip_matches_paper_mpl() {
        // One-word ping-pong with mpc_bsend/mpc_brecv: paper says 88 us.
        let out = Arc::new(parking_lot::Mutex::new(0.0f64));
        let out2 = out.clone();
        let iters = 50u32;
        pair(
            move |mpl| {
                // Warmup.
                mpl.bsend(1, 1, &[0, 0, 0, 0]);
                let _ = mpl.brecv(Some(1), Some(1));
                let t0 = mpl.now();
                for _ in 0..iters {
                    mpl.bsend(1, 1, &[0, 0, 0, 0]);
                    let _ = mpl.brecv(Some(1), Some(1));
                }
                *out2.lock() = (mpl.now() - t0).as_us() / iters as f64;
            },
            move |mpl| {
                for _ in 0..iters + 1 {
                    let _ = mpl.brecv(Some(0), Some(1));
                    mpl.bsend(0, 1, &[0, 0, 0, 0]);
                }
            },
        );
        let rtt = *out.lock();
        eprintln!("MPL 1-word round trip: {rtt:.2} us (paper: 88.0)");
        assert!(
            (80.0..96.0).contains(&rtt),
            "MPL round trip {rtt:.2} us, want ~88"
        );
    }

    #[test]
    fn barrier_eight_nodes() {
        let mut m = MplMachine::new(SpConfig::thin(8), MplConfig::default(), 5);
        let t = Arc::new(parking_lot::Mutex::new(vec![0.0f64; 8]));
        for node in 0..8 {
            let t = t.clone();
            m.spawn(format!("n{node}"), move |mpl| {
                mpl.work(sp_sim::Dur::us(25.0 * node as f64));
                mpl.barrier();
                t.lock()[node] = mpl.now().as_us();
            });
        }
        m.run().unwrap();
        let t = t.lock();
        for &x in t.iter() {
            assert!(x >= 25.0 * 7.0);
        }
    }
}
