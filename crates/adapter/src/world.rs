//! The simulated SP machine: switch + one adapter per node + host cost
//! model, plus the firmware event chains that move packets.

use crate::config::AdapterConfig;
use crate::unit::{Adapter, AdapterStats, WirePacket};
use sp_machine::CostModel;
use sp_sim::{Dur, EventCtx, ShardMsg, Shardable, Time};
use sp_switch::{LinkId, RoutePolicy, StagedTransit, Switch, SwitchConfig, Topology, Transit};
use sp_trace::{Kind, Tracer, Track};

/// Configuration of a whole simulated SP partition.
#[derive(Debug, Clone)]
pub struct SpConfig {
    /// Number of processing nodes (must equal `topology.nodes()`).
    pub nodes: usize,
    /// Host cost model (thin or wide nodes).
    pub cost: CostModel,
    /// Switch fabric parameters.
    pub switch: SwitchConfig,
    /// How the switch frames are arranged and cabled.
    pub topology: Topology,
    /// Adapter firmware/DMA parameters.
    pub adapter: AdapterConfig,
    /// Number of engine shards to run the simulation on (1 = one shard,
    /// exactly [`sp_sim::Sim::run`]; >= 2 splits the world across
    /// [`sp_sim::Sim::run_parallel`] shards).
    /// Multi-frame topologies, fault injection, and pre-scheduled world
    /// events all run sharded with results bit-identical to serial; the
    /// one remaining restriction is round-robin routing (the adaptive
    /// policy reads link occupancy across shards).
    pub parallel: usize,
}

impl SpConfig {
    /// A partition of `nodes` thin nodes on a single switch frame with
    /// default fabric and adapter parameters — the configuration of every
    /// experiment except the wide-node MPI figures.
    pub fn thin(nodes: usize) -> Self {
        SpConfig {
            nodes,
            cost: CostModel::thin(),
            switch: SwitchConfig::default(),
            topology: Topology::single_frame(nodes),
            adapter: AdapterConfig::default(),
            parallel: 1,
        }
    }

    /// A partition of `nodes` wide nodes (model 590): larger cache lines, a
    /// faster memory system and I/O bus.
    pub fn wide(nodes: usize) -> Self {
        SpConfig {
            cost: CostModel::wide(),
            ..SpConfig::thin(nodes)
        }
    }

    /// A thin-node partition of `frames` switch frames with
    /// `nodes_per_frame` nodes each, cabled all-to-all: cross-frame packets
    /// pay one extra switch stage and contend for the inter-frame cables.
    pub fn multi_frame(frames: usize, nodes_per_frame: usize) -> Self {
        let topology = Topology::multi_frame(frames, nodes_per_frame);
        SpConfig {
            nodes: topology.nodes(),
            topology,
            ..SpConfig::thin(1)
        }
    }

    /// A thin-node partition on a folded-Clos fat tree of full
    /// frames-of-16: `radix^(levels-1)` leaf frames under `levels - 1`
    /// spine tiers, thinned per tier by `oversubscription`. Cross-frame
    /// packets climb to the lowest common spine group and back down,
    /// paying one switch stage per up/down link crossed.
    pub fn fat_tree(levels: usize, radix: usize, oversubscription: usize) -> Self {
        SpConfig::with_topology(Topology::fat_tree(levels, radix, oversubscription))
    }

    /// A thin-node partition over an arbitrary prebuilt [`Topology`].
    pub fn with_topology(topology: Topology) -> Self {
        SpConfig {
            nodes: topology.nodes(),
            topology,
            ..SpConfig::thin(1)
        }
    }

    /// The same partition with the given switch routing policy (builder
    /// style): `SpConfig::multi_frame(2, 4).routed(RoutePolicy::Adaptive)`.
    pub fn routed(mut self, policy: sp_switch::RoutePolicy) -> Self {
        self.switch.route_policy = policy;
        self
    }

    /// The same partition simulated on `shards` engine shards (builder
    /// style): `SpConfig::thin(8).parallel(4)`. `1` keeps one shard; see
    /// [`SpConfig::parallel`] for the restrictions `>= 2` imposes.
    pub fn parallel(mut self, shards: usize) -> Self {
        self.parallel = shards;
        self
    }
}

/// World state of an SP-machine simulation with protocol payload `P`.
pub struct SpWorld<P: Send + 'static> {
    // (fields below)
    /// Host cost model, read by protocol layers to charge their own costs.
    pub cost: CostModel,
    /// The switch fabric (exposed for fault injection and statistics).
    pub switch: Switch,
    pub(crate) cfg: AdapterConfig,
    pub(crate) adapters: Vec<Adapter<P>>,
    pub(crate) inflight: InflightSlab<P>,
    pub(crate) tracer: Option<Tracer>,
    /// Present when this world is one shard of a parallel run (see
    /// [`Shardable`] below); `None` on the serial engine, keeping the
    /// classic path byte-identical to the golden pins.
    pub(crate) shard: Option<SpShard<P>>,
}

/// Per-shard state of a parallel [`SpWorld`]: the shard's identity, the
/// node→shard ownership map, the precomputed conservative lookahead (which
/// is also the per-stage timestamp shift), the staging mode, and the
/// outbox of packets bound for other shards.
pub(crate) struct SpShard<P: Send + 'static> {
    pub(crate) owner: Vec<usize>,
    pub(crate) lookahead: Dur,
    pub(crate) mode: ShardMode,
    pub(crate) outbox: Vec<ShardMsg<SpMsg<P>>>,
}

/// Where the sharded fabric runs the fabric stage of
/// [`Switch::transit`]'s one walk, and so which lookahead it declares (see
/// the [`Shardable`] impl's docs for the derivation). Every mode runs the
/// same three stages: [`Switch::origin_phase`] on the source's owner,
/// [`Switch::fabric_phase`], and [`Switch::eject_phase`] on the
/// destination's owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardMode {
    /// Single frame, no fabric-wide injector: the fabric stage runs on the
    /// origin shard right after the origin stage, and one message hop
    /// (lookahead `L`) later the destination shard finishes at the
    /// ejection link.
    TwoPhase,
    /// Multi-frame topology and/or a live fabric-wide injector: the fabric
    /// stage runs on [`FABRIC_SHARD`], which owns the fabric-wide
    /// injector, every injection-link injector and every intermediate
    /// link, so it classifies those streams and claims those links in
    /// serial order. Two message hops of lookahead `L/2` each.
    Pipelined,
}

/// The shard that runs the pipelined mode's fabric stage. Any fixed shard
/// works (the stage only needs *one* owner for the fabric-wide injector,
/// the injection-link injectors, and the intermediate links); shard 0
/// always exists.
pub(crate) const FABRIC_SHARD: usize = 0;

/// A packet advancing through the sharded fabric's staged pipeline. The
/// carried [`StagedTransit`] holds the original (unshifted) fabric
/// timestamps and accumulated fault verdicts, so every stage classifies
/// and claims with inputs bit-identical to a one-shard [`Switch::transit`]
/// no matter which shard executes it.
pub enum SpMsg<P> {
    /// Final stage, on the shard owning the destination node: classify and
    /// claim the ejection link, then chain into firmware receive.
    Eject {
        /// The in-flight packet.
        pkt: WirePacket<P>,
        /// Carried fabric state (see [`Switch::eject_phase`]).
        t: StagedTransit,
    },
    /// Pipelined middle stage, on the fabric shard: fabric-wide and
    /// injection-link classification plus the intermediate links of a
    /// cross-frame path (see [`Switch::fabric_phase`]).
    Fabric {
        /// The in-flight packet.
        pkt: WirePacket<P>,
        /// Carried fabric state.
        t: StagedTransit,
        /// The generating send event's ordering stamp, re-used as the
        /// forwarded ejection message's [`ShardMsg::seq`].
        gen: u64,
    },
}

impl<P> std::fmt::Debug for SpMsg<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (stage, pkt, t) = match self {
            SpMsg::Eject { pkt, t } => ("Eject", pkt, t),
            SpMsg::Fabric { pkt, t, .. } => ("Fabric", pkt, t),
        };
        f.debug_struct(stage)
            .field("src", &pkt.src)
            .field("dst", &pkt.dst)
            .field("wire_bytes", &pkt.wire_bytes)
            .field("arrival", &t.arrival)
            .finish()
    }
}

/// Parking space for packets crossing the switch: allocation-free `Hot`
/// events carry only integers, so a packet in transit parks here and its
/// slot index rides through the event chain. Slots are recycled LIFO; with
/// the single-runner discipline the reuse order is deterministic.
pub(crate) struct InflightSlab<P: Send + 'static> {
    slots: Vec<Option<WirePacket<P>>>,
    free: Vec<u32>,
}

impl<P: Send + 'static> InflightSlab<P> {
    fn new() -> Self {
        InflightSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    pub(crate) fn insert(&mut self, pkt: WirePacket<P>) -> u64 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(pkt);
                i as u64
            }
            None => {
                self.slots.push(Some(pkt));
                (self.slots.len() - 1) as u64
            }
        }
    }

    pub(crate) fn get(&self, slot: u64) -> &WirePacket<P> {
        self.slots[slot as usize]
            .as_ref()
            .expect("in-flight slot occupied")
    }

    pub(crate) fn take(&mut self, slot: u64) -> WirePacket<P> {
        let pkt = self.slots[slot as usize]
            .take()
            .expect("in-flight slot occupied");
        self.free.push(slot as u32);
        pkt
    }
}

impl<P: Send + 'static> std::fmt::Debug for SpWorld<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpWorld")
            .field("nodes", &self.adapters.len())
            .field("switch", self.switch.stats())
            .finish_non_exhaustive()
    }
}

impl<P: Send + 'static> SpWorld<P> {
    /// Build the machine.
    pub fn new(cfg: SpConfig) -> Self {
        assert_eq!(
            cfg.nodes,
            cfg.topology.nodes(),
            "node count disagrees with the topology"
        );
        let recv_capacity = cfg.adapter.recv_entries_per_node * cfg.nodes.max(1);
        let adapters = (0..cfg.nodes)
            .map(|_| Adapter::new(cfg.adapter.send_entries, recv_capacity))
            .collect();
        SpWorld {
            cost: cfg.cost,
            switch: Switch::with_topology(cfg.topology, cfg.switch),
            cfg: cfg.adapter,
            adapters,
            inflight: InflightSlab::new(),
            tracer: None,
            shard: None,
        }
    }

    /// Install a trace recorder on the whole machine: host FIFO operations,
    /// firmware send/receive, deliveries and drops, and (via the embedded
    /// switch) per-hop transit and link occupancy.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.switch.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// The installed trace recorder, if any.
    pub fn tracer(&self) -> Option<Tracer> {
        self.tracer.clone()
    }

    /// Packets dropped to receive-FIFO overflow, summed over all adapters.
    pub fn dropped_overflow(&self) -> u64 {
        self.adapters.iter().map(|a| a.stats.dropped_overflow).sum()
    }

    /// Number of nodes in the partition.
    pub fn nodes(&self) -> usize {
        self.adapters.len()
    }

    /// Adapter configuration.
    pub fn adapter_config(&self) -> &AdapterConfig {
        &self.cfg
    }

    /// Adapter statistics for `node`.
    pub fn adapter_stats(&self, node: usize) -> &AdapterStats {
        &self.adapters[node].stats
    }

    /// Artificially shrink node `node`'s receive-FIFO capacity (tests use
    /// this to force overflow drops cheaply).
    pub fn set_recv_capacity(&mut self, node: usize, capacity: usize) {
        self.adapters[node].recv_capacity = capacity;
    }

    /// Stall node `node`'s send engine until `until` (max-combined with any
    /// existing stall): the firmware pops no send-FIFO entry before then.
    /// Models a send-DMA or firmware hiccup.
    pub fn stall_send(&mut self, node: usize, until: sp_sim::Time) {
        let a = &mut self.adapters[node];
        a.send_stall_until = a.send_stall_until.max(until);
    }

    /// Stall node `node`'s receive engine until `until` (max-combined):
    /// arriving packets queue behind the stall as if the engine were busy.
    pub fn stall_recv(&mut self, node: usize, until: sp_sim::Time) {
        let a = &mut self.adapters[node];
        a.recv_busy_until = a.recv_busy_until.max(until);
    }

    /// Packets sitting in node `node`'s receive FIFO, delivered but not yet
    /// read by the host.
    pub fn recv_backlog(&self, node: usize) -> usize {
        self.adapters[node].recv_fifo.len()
    }

    /// Crash-wipe node `node`'s adapter: written-but-unsent send-FIFO
    /// entries and delivered-but-unread receive-FIFO entries are lost, as
    /// the hardware queues of a crashed host would be. Returns `(send
    /// entries lost, recv entries lost)`; both are also accumulated on
    /// [`AdapterStats::wiped_send`]/[`AdapterStats::wiped_recv`]. Strictly
    /// node-local state, so the operation is shard-safe: each shard owns
    /// its nodes' adapters. Packets already in flight through the switch
    /// are *not* wiped — they arrive at the restarted node and are the
    /// protocol layer's (epoch check's) problem.
    pub fn wipe_node(&mut self, node: usize) -> (u64, u64) {
        let a = &mut self.adapters[node];
        let send_lost = a.send_fifo.len() as u64;
        let recv_lost = a.recv_fifo.len() as u64;
        a.send_fifo.clear();
        a.recv_fifo.clear();
        a.recv_unpopped = 0;
        a.stats.wiped_send += send_lost;
        a.stats.wiped_recv += recv_lost;
        (send_lost, recv_lost)
    }

    /// Whether a parallel split of this world runs the fabric stage on the
    /// fabric shard ([`ShardMode::Pipelined`]) instead of on each origin
    /// shard. Multi-frame topologies need one owner for the intermediate
    /// links; a live fabric-wide injector needs one shard to classify the
    /// whole packet stream in serial order.
    fn pipelined_split(&self) -> bool {
        self.switch.topology().frames() > 1 || !self.switch.global_fault_is_noop()
    }
}

/// Firmware send engine: take the head ready packet, spend per-packet
/// processing + DMA time, hand it to the switch, and chain to the next
/// packet. The chain parks (`fw_send_active = false`) when the FIFO has no
/// ready head entry; the next doorbell restarts it after the scan delay.
///
/// This and the chains it feeds are allocation-free `Hot` events
/// (`fn(ctx, u64, u64)`): the node id / FIFO slot ride as the integer
/// arguments and in-flight packets park in [`InflightSlab`]. The second
/// argument, `gen`, is the instant this event was *scheduled* (as ns):
/// the order the serial engine assigns event sequence numbers, which the
/// sharded mode stamps into outbound [`ShardMsg::seq`] so same-nanosecond
/// sends from different shards claim shared links in serial order.
pub(crate) fn fw_send_step<P: Send + Clone + 'static>(
    e: &mut EventCtx<'_, SpWorld<P>>,
    node: u64,
    gen: u64,
) {
    let node = node as usize;
    let now = e.now();
    // Injected send-engine stall: hold the chain (without popping) until
    // the stall expires.
    let stall = e.world().adapters[node].send_stall_until;
    if now < stall {
        e.schedule_hot_at(stall, fw_send_step, node as u64, now.as_ns());
        return;
    }
    let (pkt, done) = {
        let w = e.world();
        match w.adapters[node].pop_ready() {
            None => {
                w.adapters[node].fw_send_active = false;
                return;
            }
            Some(pkt) => {
                let occupancy = w.cfg.fw_send_per_packet + w.cfg.dma(pkt.wire_bytes);
                let done = now + occupancy;
                if let Some(t) = &w.tracer {
                    t.span(
                        now.as_ns(),
                        done.as_ns(),
                        Track::adapter(node),
                        Kind::FwSend,
                        pkt.wire_bytes as u64,
                    );
                }
                (pkt, done)
            }
        }
    };
    let dst = pkt.dst;
    // Sharded mode stages every non-loopback transit through the outbox:
    // the injection link is claimed here on the source shard, and the
    // remaining stages each run exactly one lookahead later as
    // barrier-applied sync events, so the counted event stream stays
    // identical to the serial engine. Every eject (same-shard destinations
    // included) rides the outbox so the barrier's `(ts, seq)` sort orders
    // all claims of a shared link the way the serial event queue would.
    // Loopback never enters the fabric and keeps the one-shard path.
    let direct = {
        let w = e.world();
        w.adapters[node].stats.sent += 1;
        match &mut w.shard {
            Some(sh) if dst != node => {
                let t = w.switch.origin_phase(node, dst, pkt.wire_bytes, done);
                let staged = match sh.mode {
                    // The origin shard owns this injection link's injector
                    // and a sealed no-op fabric-wide one: it runs the
                    // fabric stage itself, and a drop ends the packet here.
                    ShardMode::TwoPhase => w
                        .switch
                        .fabric_phase(t)
                        .map(|t| (sh.owner[dst], SpMsg::Eject { pkt, t })),
                    ShardMode::Pipelined => Some((FABRIC_SHARD, SpMsg::Fabric { pkt, t, gen })),
                };
                if let Some((dst_shard, msg)) = staged {
                    sh.outbox.push(ShardMsg {
                        ts: now + sh.lookahead,
                        seq: gen,
                        dst_shard,
                        msg,
                    });
                }
                None
            }
            _ => match w.switch.transit(node, dst, pkt.wire_bytes, done) {
                Transit::Delivered { at, dup_at, .. } => Some((pkt, at, dup_at)),
                Transit::Dropped => None,
            },
        }
    };
    if let Some((pkt, at, dup_at)) = direct {
        recv_at(e, pkt, at, dup_at);
    }
    e.schedule_hot_at(done, fw_send_step, node as u64, now.as_ns());
}

/// Hand a packet that crossed the switch to its destination's receive
/// engine at `at`. A fabric-duplicated packet reaches the receive engine
/// twice: the second, identical copy parks in its own slab slot.
fn recv_at<P: Send + Clone + 'static>(
    e: &mut EventCtx<'_, SpWorld<P>>,
    pkt: WirePacket<P>,
    at: Time,
    dup_at: Option<Time>,
) {
    let dst = pkt.dst as u64;
    let w = e.world();
    let dup = dup_at.map(|d| (w.inflight.insert(pkt.clone()), d));
    let slot = w.inflight.insert(pkt);
    if let Some((dup_slot, dup_at)) = dup {
        e.schedule_hot_at(dup_at, fw_recv_step, dst, dup_slot);
    }
    e.schedule_hot_at(at, fw_recv_step, dst, slot);
}

/// Final stage of a staged transit, applied on the destination shard as a
/// barrier sync event: classify and claim the ejection link with the
/// carried serial-time inputs, then chain into the (counted) firmware
/// receive step. The claim depends only on the carried [`StagedTransit`]
/// and the ejection link's occupancy — not on the instant this event
/// executes — so running it a constant shift after injection reproduces
/// the serial claim exactly, as long as per-link claim order is preserved
/// (which the barrier's `(ts, seq)` sort guarantees).
fn eject_and_recv<P: Send + Clone + 'static>(
    e: &mut EventCtx<'_, SpWorld<P>>,
    pkt: WirePacket<P>,
    t: StagedTransit,
) {
    // `None`: dropped crossing the ejection link.
    if let Some((at, dup_at)) = e.world().switch.eject_phase(t) {
        recv_at(e, pkt, at, dup_at);
    }
}

/// Firmware receive engine: per-packet processing + DMA into the host-memory
/// receive FIFO; drops on overflow. `slot` is the packet's [`InflightSlab`]
/// index.
pub(crate) fn fw_recv_step<P: Send + 'static>(
    e: &mut EventCtx<'_, SpWorld<P>>,
    dst: u64,
    slot: u64,
) {
    let now = e.now();
    let finish = {
        let w = e.world();
        let wire_bytes = w.inflight.get(slot).wire_bytes;
        let start = now.max(w.adapters[dst as usize].recv_busy_until);
        let finish = start + w.cfg.fw_recv_per_packet + w.cfg.dma(wire_bytes);
        w.adapters[dst as usize].recv_busy_until = finish;
        if let Some(t) = &w.tracer {
            t.span(
                start.as_ns(),
                finish.as_ns(),
                Track::adapter(dst as usize),
                Kind::FwRecv,
                wire_bytes as u64,
            );
        }
        finish
    };
    e.schedule_hot_at(finish, deliver_step, dst, slot);
}

/// Final hop: unpark the slab slot into the destination's receive FIFO.
fn deliver_step<P: Send + 'static>(e: &mut EventCtx<'_, SpWorld<P>>, dst: u64, slot: u64) {
    let now = e.now();
    let accepted = {
        let w = e.world();
        let pkt = w.inflight.take(slot);
        let wire_bytes = pkt.wire_bytes as u64;
        let dst = dst as usize;
        let accepted = w.adapters[dst].deliver(pkt);
        if let Some(t) = &w.tracer {
            let track = Track::adapter(dst);
            if accepted {
                t.instant(now.as_ns(), track, Kind::RecvDeliver, wire_bytes);
                let occupancy = w.adapters[dst].recv_occupancy() as u64;
                t.counter(now.as_ns(), track, Kind::RecvOccupancy, occupancy);
            } else {
                t.instant(now.as_ns(), track, Kind::RecvDrop, wire_bytes);
            }
        }
        accepted
    };
    if accepted {
        // Interrupt line: wake the host if it is sleeping on arrival
        // (a latched signal otherwise; pure-polling layers never park,
        // so this is free for them).
        e.unpark(sp_sim::NodeId(dst as usize));
    }
}

/// Sharding the SP machine for the conservative-parallel engine.
///
/// The conservative lookahead is the minimum virtual-time distance between
/// a source-shard event and its earliest possible effect on another shard.
/// The only cross-shard channel is a packet transit. Every shard runs the
/// same walk as [`Switch::transit`] — origin, fabric and eject stages —
/// with the stages spread over shards through the outbox. The
/// staging mode chosen at [`Shardable::split`] time decides only where
/// the fabric stage runs:
///
/// * **Two-phase** (single frame, no fabric-wide injector): the origin
///   shard claims the injection link and runs the fabric stage right
///   away. Its fabric-wide injector is a sealed no-op and it owns its
///   nodes' injection-link injectors, so it classifies each of those
///   streams in serial order. One message hop later the destination's
///   owner classifies and claims the ejection link. That
///   claim lands at `nominal >= send_event_time + fw_send_per_packet +
///   dma(wire) + serialization(wire) + hop_latency`; with `serialization
///   = for_bytes(wire) + packet_gap` and `dma, for_bytes > 0`, the bound
///   `L = fw_send_per_packet + packet_gap + hop_latency` (≈ 4.63 µs at
///   default calibration) is strictly below every nominal — so the eject
///   stage at exactly `send_event_time + L` satisfies the engine's
///   conservative-advancement contract and still precedes the delivery
///   instant it computes.
/// * **Pipelined** (multi-frame topology and/or a live fabric-wide
///   injector): two message hops — origin (injection-link claim) →
///   fabric shard (fabric-wide + injection-link classification, plus the
///   intermediate links of a cross-frame path) → destination owner
///   (ejection).
///   Each hop shifts the stage timestamp by the declared lookahead
///   `W = L / 2`, so the eject stage lands at `send_event_time + 2W <=
///   send_event_time + L`, still strictly below every delivery instant;
///   the fabric stage at `send_event_time + W` precedes its first
///   intermediate claim by the same argument. Concentrating the
///   fabric-wide injector, all injection-link injectors, and the
///   intermediate links on one shard keeps each injector's classification
///   stream — and each link's claim order — identical to serial,
///   including the coupling where a fabric-wide drop skips the injection
///   link's own classification.
///
/// Claims and classifications replay in the serial engine's event order
/// because every stage of a per-link stream carries the same constant
/// shift, and the barrier applies messages in `(ts, seq)` order where
/// `seq` is the generating send event's *scheduling* instant — the order
/// the serial engine assigns event sequence numbers. Same-nanosecond
/// sends from different shards therefore claim shared links exactly as
/// serial does; the only residual tie (two sends scheduled at the same
/// instant *and* firing at the same instant) falls back to source-shard
/// order.
impl<P: Send + Clone + 'static> Shardable for SpWorld<P> {
    type Msg = SpMsg<P>;

    fn lookahead(&self) -> Dur {
        let l = self.cfg.fw_send_per_packet
            + self.switch.config().packet_gap
            + self.switch.config().hop_latency;
        if self.pipelined_split() {
            Dur(l.as_ns() / 2)
        } else {
            l
        }
    }

    fn split(self, num_shards: usize, owner: &[usize]) -> Vec<Self> {
        let topo = self.switch.topology().clone();
        assert_eq!(
            self.switch.config().route_policy,
            RoutePolicy::RoundRobin,
            "parallel SpWorld requires round-robin routing \
             (adaptive routing reads link occupancy across shards)"
        );
        let mode = if self.pipelined_split() {
            ShardMode::Pipelined
        } else {
            ShardMode::TwoPhase
        };
        let lookahead = Shardable::lookahead(&self);
        assert!(
            lookahead > Dur::ZERO,
            "degenerate calibration: staged-transit lookahead is zero"
        );
        let mut base = self;
        let (global_fault, link_faults) = base.switch.take_fault_injectors();
        let nodes = base.adapters.len();
        let recv_capacity = base.cfg.recv_entries_per_node * nodes.max(1);
        let mut shards: Vec<SpWorld<P>> = (0..num_shards)
            .map(|_sid| {
                let mut switch = Switch::with_topology(topo.clone(), base.switch.config().clone());
                if let Some(t) = &base.tracer {
                    switch.set_tracer(t.clone());
                }
                if mode == ShardMode::TwoPhase {
                    // Every two-phase shard runs the fabric stage for its
                    // own sources, so a fabric-wide injector installed
                    // mid-run would classify each substream apart; it must
                    // fail loudly instead of silently diverging from serial.
                    switch.seal_global_fault();
                }
                SpWorld {
                    cost: base.cost.clone(),
                    switch,
                    cfg: base.cfg.clone(),
                    // Full-length vector so node indexing works everywhere;
                    // only owned slots (overwritten below) are ever touched.
                    adapters: (0..nodes)
                        .map(|_| Adapter::new(base.cfg.send_entries, recv_capacity))
                        .collect(),
                    inflight: InflightSlab::new(),
                    tracer: base.tracer.clone(),
                    shard: Some(SpShard {
                        owner: owner.to_vec(),
                        lookahead,
                        mode,
                        outbox: Vec::new(),
                    }),
                }
            })
            .collect();
        // Re-home each fault injector onto the one shard that classifies
        // the corresponding packet stream, so every injector sees the
        // complete stream in serial order. (Injectors installed *mid-run*
        // via a broadcast world event land on every shard's fabric copy;
        // only the owning shard's copy ever classifies, so those work the
        // same way.)
        if mode == ShardMode::Pipelined {
            shards[FABRIC_SHARD].switch.set_fault_injector(global_fault);
        }
        for (link, inj) in link_faults.into_iter().enumerate() {
            let Some(inj) = inj else { continue };
            let sid = if link < nodes {
                // Injection link of node `link`: classified by the fabric
                // stage, on the origin's owner (two-phase) or the fabric
                // shard (pipelined).
                match mode {
                    ShardMode::TwoPhase => owner[link],
                    ShardMode::Pipelined => FABRIC_SHARD,
                }
            } else if link < 2 * nodes {
                // Ejection link of node `link - nodes`: always classified
                // on the destination's owner.
                owner[link - nodes]
            } else {
                // Intermediate link (cable, up- or down-link): only the
                // fabric stage touches it.
                FABRIC_SHARD
            };
            shards[sid]
                .switch
                .set_link_fault_injector(link as LinkId, inj);
        }
        // Move each node's (possibly pre-configured: shrunken FIFO,
        // injected stall) adapter onto its owner shard.
        for (i, adapter) in base.adapters.into_iter().enumerate() {
            shards[owner[i]].adapters[i] = adapter;
        }
        shards
    }

    fn merge(parts: Vec<Self>) -> Self {
        let mut parts = parts.into_iter();
        let mut base = parts.next().expect("at least one shard");
        let owner = base
            .shard
            .take()
            .expect("shard 0 carries the owner map")
            .owner;
        for (sid, mut part) in parts.enumerate() {
            let sid = sid + 1;
            part.shard = None;
            base.switch.absorb_stats(part.switch.stats());
            for (i, adapter) in part.adapters.into_iter().enumerate() {
                if owner[i] == sid {
                    base.adapters[i] = adapter;
                }
            }
        }
        base
    }

    fn apply_msg(e: &mut EventCtx<'_, Self>, msg: SpMsg<P>) {
        match msg {
            SpMsg::Eject { pkt, t } => eject_and_recv(e, pkt, t),
            SpMsg::Fabric { pkt, t, gen } => {
                let now = e.now();
                let w = e.world();
                if let Some(t2) = w.switch.fabric_phase(t) {
                    let sh = w.shard.as_mut().expect("fabric stage runs sharded");
                    let ts = now + sh.lookahead;
                    let dst_shard = sh.owner[t2.dst];
                    sh.outbox.push(ShardMsg {
                        ts,
                        seq: gen,
                        dst_shard,
                        msg: SpMsg::Eject { pkt, t: t2 },
                    });
                }
            }
        }
    }

    fn take_messages(&mut self) -> Vec<ShardMsg<SpMsg<P>>> {
        match &mut self.shard {
            Some(sh) => std::mem::take(&mut sh.outbox),
            None => Vec::new(),
        }
    }
}
