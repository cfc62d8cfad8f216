//! The switch fabric timing model.

use crate::fault::{FaultInjector, FaultKind};
use crate::topology::{LinkId, Topology};
use sp_sim::{Dur, Time};
use sp_trace::{Kind, Tracer, Track};

/// How the fabric picks among the `routes_per_pair` candidate routes for
/// each packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// The TB2 firmware's behaviour (paper §1.2): cycle through the routes
    /// `0, 1, ..., routes_per_pair - 1` per (src, dst) pair, blind to link
    /// occupancy. Every golden pin is measured under this policy.
    #[default]
    RoundRobin,
    /// Occupancy-aware: pick the candidate route whose first contended link
    /// (the first link along the path still busy at the decision instant)
    /// frees earliest. Ties break in round-robin order starting from the
    /// pair's counter, so zero contention degrades to exactly the
    /// round-robin sequence — the paper-faithful behaviour is the
    /// degenerate case.
    Adaptive,
}

/// Switch fabric parameters (paper §1.2).
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Hardware latency of one switch stage (~500 ns). Cross-frame packets
    /// pay it once per stage crossed.
    pub hop_latency: Dur,
    /// Link bandwidth in MB/s (~40).
    pub link_mb_s: f64,
    /// Inter-packet gap on a link (flit framing, arbitration). Calibrated
    /// so the measured asymptotic payload bandwidth lands on the paper's
    /// 34.3 MB/s rather than the idealized 35 MB/s.
    pub packet_gap: Dur,
    /// Number of distinct routes the adapter firmware cycles through per
    /// destination (4 on the SP).
    pub routes_per_pair: usize,
    /// Extra delay applied to packets classified [`FaultKind::Delay`],
    /// expressed as a multiple of `hop_latency`.
    pub delay_fault_hops: u64,
    /// How far behind the original the second copy of a packet classified
    /// [`FaultKind::Duplicate`] arrives, as a multiple of `hop_latency`.
    pub dup_fault_hops: u64,
    /// Route selection among the candidate routes (see [`RoutePolicy`]).
    pub route_policy: RoutePolicy,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            hop_latency: Dur::ns(500),
            link_mb_s: 40.0,
            packet_gap: Dur::ns(130),
            routes_per_pair: 4,
            delay_fault_hops: 200,
            dup_fault_hops: 50,
            route_policy: RoutePolicy::RoundRobin,
        }
    }
}

/// Outcome of injecting one packet into the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transit {
    /// Delivered to the destination adapter at the given time, via the
    /// given route index.
    Delivered {
        /// Instant the last byte reaches the destination adapter.
        at: Time,
        /// Route index used (`0..routes_per_pair`), as chosen by the
        /// fabric's [`RoutePolicy`].
        route: usize,
        /// If the packet was classified [`FaultKind::Duplicate`], the
        /// instant a second, identical copy also reaches the destination.
        dup_at: Option<Time>,
    },
    /// Lost in transit (fault injection only — the real fabric is lossless).
    Dropped,
}

/// Occupancy of one directed link.
///
/// `free` is the instant the link finishes serializing the last normally
/// claimed packet; a claim's window is `[at - ser, at]`. Packets carrying
/// an injected *delay* are special: they occupy the link far in the future,
/// and serializing every successor behind them would destroy the reordering
/// the fault exists to produce. A delayed claim is therefore recorded as a
/// `reserved` window instead of moving `free`: successors may overtake it
/// (reordering preserved) but are bumped past the window if they would
/// overlap it (occupancy stays serialized).
#[derive(Debug, Clone, Default)]
struct LinkState {
    free: Time,
    reserved: Vec<(Time, Time)>,
}

impl LinkState {
    /// Claim the link for a window ending no earlier than `nominal`, with
    /// `ser` of serialization. Returns the window end.
    fn claim(&mut self, nominal: Time, ser: Dur, delayed: bool) -> Time {
        let mut at = nominal.max(self.free + ser);
        // Bump past reserved (delayed-packet) windows until disjoint.
        loop {
            let mut bumped = false;
            for &(a, b) in &self.reserved {
                if at > a && at - ser < b {
                    at = b + ser;
                    bumped = true;
                }
            }
            if !bumped {
                break;
            }
        }
        if delayed {
            self.reserved.push((at - ser, at));
        } else {
            self.free = at;
            self.reserved.retain(|&(_, b)| b > at);
        }
        at
    }
}

/// The switch fabric: per-link occupancy over an explicit [`Topology`],
/// a round-robin route counter per (src, dst) pair, and fault injection
/// both fabric-wide and pinned to individual links.
#[derive(Debug)]
pub struct Switch {
    cfg: SwitchConfig,
    topo: Topology,
    links: Vec<LinkState>,
    route_rr: Vec<usize>, // nodes x nodes round-robin counters
    fault: FaultInjector,
    link_faults: Vec<Option<FaultInjector>>,
    stats: SwitchStats,
    tracer: Option<Tracer>,
    /// Set on shards running the two-phase staged transit, where every
    /// shard runs the fabric stage for its own sources: a fabric-wide
    /// injector installed mid-run would classify each shard's substream
    /// apart and silently diverge from serial, so it panics instead.
    global_fault_sealed: bool,
}

/// Aggregate fabric statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped by fault injection.
    pub dropped: u64,
    /// Packets delivered late due to an injected delay fault.
    pub delayed: u64,
    /// Extra packet copies created by an injected duplicate fault (each is
    /// a second delivery of a packet already counted in `delivered`).
    pub duplicated: u64,
    /// Total wire bytes delivered.
    pub wire_bytes: u64,
    /// Total switch stages crossed by delivered packets (loopback crosses
    /// none; within a frame one; across frames two).
    pub hops: u64,
}

/// A transit in flight between the stages of [`Switch::transit`]'s walk:
/// the original (unshifted) fabric timestamps plus the fault verdicts
/// accumulated so far, so each stage classifies and claims with the same
/// inputs no matter which shard of a sharded fabric runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedTransit {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Bytes on the wire.
    pub wire_bytes: usize,
    /// Instant the packet entered the fabric; fault windows key off this.
    pub ready: Time,
    /// Route chosen at the origin (consumed the pair's round-robin counter).
    pub route: usize,
    /// Injection-link claim start — anchors delay/drop trace instants.
    pub origin_start: Time,
    /// Claim end of the previous stage's link; start of the next hop span.
    pub hop_start: Time,
    /// Last-byte arrival at the next stage's link.
    pub arrival: Time,
    /// Switch stages the packet will have crossed when delivered.
    pub hops: u64,
    /// Delay verdict from the previous link, charged at the next stage.
    pub pending_delay: bool,
    /// Fabric-wide delay verdict, charged at the final stage.
    pub global_delay: bool,
    /// The packet was delayed at some earlier stage.
    pub got_delayed: bool,
    /// Some injector asked for a duplicate ejection.
    pub want_dup: bool,
}

impl Switch {
    /// A single-frame fabric connecting `nodes` nodes — the classic SP
    /// rack, and the configuration every golden pin is measured on.
    pub fn new(nodes: usize, cfg: SwitchConfig) -> Self {
        Switch::with_topology(Topology::single_frame(nodes), cfg)
    }

    /// A fabric over an explicit topology.
    pub fn with_topology(topo: Topology, cfg: SwitchConfig) -> Self {
        assert!(cfg.routes_per_pair >= 1, "need at least one route");
        let nodes = topo.nodes();
        Switch {
            links: vec![LinkState::default(); topo.num_links()],
            link_faults: (0..topo.num_links()).map(|_| None).collect(),
            route_rr: vec![0; nodes * nodes],
            topo,
            fault: FaultInjector::none(),
            cfg,
            stats: SwitchStats::default(),
            tracer: None,
            global_fault_sealed: false,
        }
    }

    /// Replace the fabric-wide fault injector (tests / reliability
    /// experiments). It classifies every non-loopback packet once, in
    /// injection order: drops take effect at the packet's first link,
    /// delays at its final switch stage.
    pub fn set_fault_injector(&mut self, fault: FaultInjector) {
        assert!(
            !self.global_fault_sealed || fault.is_noop(),
            "fabric-wide fault injector installed mid-run on a two-phase \
             parallel shard: every shard would classify only its own \
             sources' packets, so the run would silently diverge from \
             serial. Install the injector before the run starts (the \
             parallel split then runs every fabric stage on one shard), or \
             run serially."
        );
        self.fault = fault;
    }

    /// Forbid installing a non-noop fabric-wide injector from here on.
    /// The parallel split calls this on shards running the two-phase staged
    /// transit, where each shard runs the fabric stage for its own sources
    /// and so sees only part of the packet stream.
    pub fn seal_global_fault(&mut self) {
        self.global_fault_sealed = true;
    }

    /// `true` when the fabric-wide injector cannot fault a packet. The
    /// parallel split uses this to pick the staged-transit mode: a live
    /// fabric-wide injector forces every packet through the fabric stage
    /// so one shard classifies the whole stream in serial order.
    pub fn global_fault_is_noop(&self) -> bool {
        self.fault.is_noop()
    }

    /// Remove and return every fault injector — the fabric-wide one and the
    /// per-link ones — leaving this fabric fault-free. The parallel split
    /// uses this to re-home each injector onto the one shard that classifies
    /// the corresponding packet stream.
    pub fn take_fault_injectors(&mut self) -> (FaultInjector, Vec<Option<FaultInjector>>) {
        let global = std::mem::replace(&mut self.fault, FaultInjector::none());
        let links = std::mem::take(&mut self.link_faults);
        self.link_faults = (0..self.topo.num_links()).map(|_| None).collect();
        (global, links)
    }

    /// Pin a fault injector to one directed link (see [`Topology::inj_link`],
    /// [`Topology::ej_link`], [`Topology::cable`]). It classifies only the
    /// packets that reach that link, in the order they claim it; a drop
    /// loses the packet as it crosses the link, a delay charges the extra
    /// latency at that hop. Packets already dropped upstream (by the
    /// fabric-wide injector or an earlier link) never reach it.
    pub fn set_link_fault_injector(&mut self, link: LinkId, fault: FaultInjector) {
        self.link_faults[link as usize] = Some(fault);
    }

    /// Install a trace recorder: each transit records one span per switch
    /// stage plus an occupancy span on every link crossed.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Fabric configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// The fabric's topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SwitchStats {
        &self.stats
    }

    /// Number of attached nodes.
    pub fn nodes(&self) -> usize {
        self.topo.nodes()
    }

    /// Serialization time of `wire_bytes` on one link, including the
    /// inter-packet gap.
    pub fn serialization(&self, wire_bytes: usize) -> Dur {
        Dur::for_bytes(wire_bytes as u64, self.cfg.link_mb_s) + self.cfg.packet_gap
    }

    /// The trace track modeling `link`.
    fn track(&self, link: LinkId) -> Track {
        let n = self.topo.nodes();
        let l = link as usize;
        if l < n {
            Track::switch_inj(l)
        } else if l < 2 * n {
            Track::switch_ej(l - n)
        } else {
            Track::switch_xlink(l - 2 * n)
        }
    }

    /// The adaptive policy's metric for one candidate route: the `free`
    /// time of the first link along `(src, dst, route)`'s path that is
    /// still busy at `ready`, or [`Time::ZERO`] when every link is idle.
    /// Lower is better; equal keys are indistinguishable to the policy.
    /// Public so the routing-invariant property tests can check the
    /// policy's choice against every candidate at decision time.
    pub fn contention_key(&self, src: usize, dst: usize, route: usize, ready: Time) -> Time {
        let path = self.topo.path(src, dst, route);
        for &link in path.links() {
            let free = self.links[link as usize].free;
            if free > ready {
                return free;
            }
        }
        Time::ZERO
    }

    /// Route-selection key for the adaptive policy: the contention key,
    /// except that a path through a severed link (an injector that drops
    /// every packet, [`FaultInjector::lane_dead`]) is unusable and sorts
    /// behind every live route — the SP fault daemon's route-table mask
    /// around a failed cable. With every candidate dead the keys tie and
    /// selection degenerates to the round-robin counter.
    fn route_key(&self, src: usize, dst: usize, route: usize, ready: Time) -> Time {
        let path = self.topo.path(src, dst, route);
        let dead = path.links().iter().any(|&link| {
            self.link_faults[link as usize]
                .as_ref()
                .is_some_and(|inj| inj.lane_dead())
        });
        if dead {
            return Time::MAX;
        }
        self.contention_key(src, dst, route, ready)
    }

    /// Pick the route for one packet and advance the pair's round-robin
    /// counter past the choice. `RoundRobin` consumes the counter as-is
    /// (the historical behaviour, byte-identical to the pre-policy code);
    /// `Adaptive` scans the candidates in round-robin order starting at
    /// the counter and keeps only strict improvements of the route key,
    /// so ties — including the zero-contention case — reproduce the
    /// round-robin sequence exactly. Loopback never enters the fabric and
    /// always takes the plain counter under either policy.
    fn select_route(&mut self, src: usize, dst: usize, ready: Time) -> usize {
        let n = self.topo.nodes();
        let rpp = self.cfg.routes_per_pair;
        let rr = self.route_rr[src * n + dst];
        let route = if src == dst || self.cfg.route_policy == RoutePolicy::RoundRobin {
            rr
        } else {
            let mut best = rr;
            let mut best_key = self.route_key(src, dst, best, ready);
            for k in 1..rpp {
                let cand = (rr + k) % rpp;
                let key = self.route_key(src, dst, cand, ready);
                if key < best_key {
                    best = cand;
                    best_key = key;
                }
            }
            if best != rr {
                if let Some(t) = &self.tracer {
                    // A strict improvement implies the candidate paths
                    // differ, i.e. a cross-frame pair, so links()[1] is the
                    // chosen cable: its track names the lane dodged onto,
                    // and the arg carries the occupancy delta dodged (ns,
                    // saturated when the incumbent lane was dead).
                    let dodged = self
                        .route_key(src, dst, rr, ready)
                        .as_ns()
                        .saturating_sub(best_key.as_ns());
                    let cable = self.topo.path(src, dst, best).links()[1];
                    t.instant(
                        ready.as_ns(),
                        self.track(cable),
                        Kind::RouteAdaptive,
                        dodged,
                    );
                }
            }
            best
        };
        self.route_rr[src * n + dst] = (route + 1) % rpp;
        route
    }

    fn classify_link(&mut self, link: LinkId, at: Time) -> FaultKind {
        match &mut self.link_faults[link as usize] {
            Some(inj) => inj.classify_at(at),
            None => FaultKind::None,
        }
    }

    /// Claim the packet's first link starting no earlier than `ready`,
    /// trace the occupancy, and return the injection start.
    fn claim_first(&mut self, link: LinkId, ready: Time, ser: Dur) -> Time {
        let st = &mut self.links[link as usize];
        let start = ready.max(st.free);
        // Queueing delay the packet eats waiting for the link — sampled at
        // injection so the backlog gauge tracks contention as it builds.
        let backlog = start.as_ns() - ready.as_ns();
        st.free = start + ser;
        if let Some(t) = &self.tracer {
            let track = self.track(link);
            t.counter(ready.as_ns(), track, Kind::LinkBacklog, backlog);
            t.span(
                start.as_ns(),
                (start + ser).as_ns(),
                track,
                Kind::LinkBusy,
                0,
            );
        }
        start
    }

    /// Inject a packet of `wire_bytes` from `src` to `dst`, with the first
    /// byte available at the source adapter at `ready`. Returns when (and
    /// whether) the packet reaches the destination adapter.
    ///
    /// A packet bound for another node walks its path in three stages on
    /// this one fabric — [`Switch::origin_phase`], [`Switch::fabric_phase`],
    /// [`Switch::eject_phase`] — the same stages a sharded fabric runs on
    /// the shards owning each part of the path. Each link on the path is
    /// claimed in order: `at_i = max(at_{i-1} + hop_latency (+ injected
    /// extra), link-free + ser)`, cut-through forwarding paced by any
    /// contended stage. For a single frame this reduces exactly to the
    /// historical two-endpoint recurrence the golden pins are measured on.
    ///
    /// Loopback (`src == dst`) still crosses the adapter but not the fabric:
    /// the SP adapter loops self-addressed packets through the MSMU with the
    /// same serialization and negligible latency. Because it never enters
    /// the fabric, no fault injector — fabric-wide or per-link — sees it.
    pub fn transit(&mut self, src: usize, dst: usize, wire_bytes: usize, ready: Time) -> Transit {
        if src == dst {
            assert!(src < self.topo.nodes(), "node out of range");
            let route = self.select_route(src, dst, ready);
            let link = self.topo.inj_link(src);
            let ser = self.serialization(wire_bytes);
            let start = self.claim_first(link, ready, ser);
            let at = start + ser;
            self.finish(wire_bytes);
            if let Some(t) = &self.tracer {
                t.span(
                    start.as_ns(),
                    at.as_ns(),
                    self.track(link),
                    Kind::SwitchHop,
                    dst as u64,
                );
            }
            return Transit::Delivered {
                at,
                route,
                dup_at: None,
            };
        }
        let t = self.origin_phase(src, dst, wire_bytes, ready);
        let route = t.route;
        match self.fabric_phase(t).and_then(|t| self.eject_phase(t)) {
            Some((at, dup_at)) => Transit::Delivered { at, route, dup_at },
            None => Transit::Dropped,
        }
    }

    /// Fold another fabric's statistics into this one. The parallel engine
    /// runs one `Switch` per shard and merges them at the end so the
    /// reported totals match a serial run.
    pub fn absorb_stats(&mut self, other: &SwitchStats) {
        self.stats.delivered += other.delivered;
        self.stats.dropped += other.dropped;
        self.stats.delayed += other.delayed;
        self.stats.duplicated += other.duplicated;
        self.stats.wire_bytes += other.wire_bytes;
        self.stats.hops += other.hops;
    }

    /// Stage 1 of [`Switch::transit`]: route selection consumes the
    /// pair's round-robin counter, and the injection link is claimed and
    /// traced. Non-loopback only. No injector classifies here: every
    /// verdict on the injection link is taken by the fabric stage, and the
    /// delivery counters are charged at the ejection stage.
    pub fn origin_phase(
        &mut self,
        src: usize,
        dst: usize,
        wire_bytes: usize,
        ready: Time,
    ) -> StagedTransit {
        let n = self.topo.nodes();
        assert!(src < n && dst < n, "node out of range");
        assert_ne!(src, dst, "loopback never enters the fabric");
        let ser = self.serialization(wire_bytes);
        let route = self.select_route(src, dst, ready);
        let start = self.claim_first(self.topo.inj_link(src), ready, ser);
        StagedTransit {
            src,
            dst,
            wire_bytes,
            ready,
            route,
            origin_start: start,
            hop_start: start,
            arrival: start + ser,
            hops: 1,
            pending_delay: false,
            global_delay: false,
            got_delayed: false,
            want_dup: false,
        }
    }

    /// Stage 2 of [`Switch::transit`]: classify the packet and walk the
    /// intermediate stages. The fabric-wide verdict comes first, and a
    /// fabric-wide drop returns before the injection link's own injector
    /// ever sees the packet. Both verdicts are keyed to the instant the
    /// packet entered the fabric. A drop here loses the packet on its
    /// injection link: the link stays claimed, the `SwitchDrop` instant
    /// lands at the injection start, and `None` is returned (charged to
    /// this fabric's counters). A cross-frame path then classifies and
    /// claims each intermediate link — one flat cable, or a fat tree's up-
    /// and down-links — in order. A sharded fabric runs this stage on the
    /// one shard owning every injector it consults and every link it
    /// claims.
    pub fn fabric_phase(&mut self, mut t: StagedTransit) -> Option<StagedTransit> {
        let inj = self.topo.inj_link(t.src);
        let mut dropped = false;
        match self.fault.classify_pair_at(t.src, t.dst, t.ready) {
            FaultKind::Drop => dropped = true,
            FaultKind::Duplicate => t.want_dup = true,
            FaultKind::Delay => t.global_delay = true,
            FaultKind::None => {}
        }
        if !dropped {
            match self.classify_link(inj, t.ready) {
                FaultKind::Drop => dropped = true,
                FaultKind::Duplicate => t.want_dup = true,
                FaultKind::Delay => t.pending_delay = true,
                FaultKind::None => {}
            }
        }
        if dropped {
            self.stats.dropped += 1;
            if let Some(tr) = &self.tracer {
                tr.instant(
                    t.origin_start.as_ns(),
                    self.track(inj),
                    Kind::SwitchDrop,
                    t.wire_bytes as u64,
                );
            }
            return None;
        }
        let path = self.topo.path(t.src, t.dst, t.route);
        let links = path.links();
        if links.len() == 2 {
            // Same-frame: the next (and final) stage is the ejection link.
            return Some(t);
        }
        // Walk every intermediate stage: one flat cable, or a fat tree's
        // up- and down-links.
        let mut prev = inj;
        for &link in &links[1..links.len() - 1] {
            if !self.staged_hop(&mut t, link, prev, false) {
                return None;
            }
            prev = link;
        }
        t.hops = (links.len() - 1) as u64;
        Some(t)
    }

    /// Stage 3 of [`Switch::transit`]: classify and claim the packet's
    /// ejection link, then charge the delivery counters. A pending or
    /// fabric-wide delay lands here, a drop loses the packet after it
    /// crossed the link, and a duplicate verdict ejects a stale second
    /// copy. Returns `None` on a drop, else `(at, dup_at)`: the instant(s)
    /// the last byte reaches the destination adapter. A sharded fabric runs
    /// this stage on the shard owning the destination node.
    pub fn eject_phase(&mut self, mut t: StagedTransit) -> Option<(Time, Option<Time>)> {
        let ser = self.serialization(t.wire_bytes);
        let link = self.topo.ej_link(t.dst);
        let prev = if t.hops >= 2 {
            // The last link claimed before ejection: the packet's final
            // intermediate stage (flat cable, or deepest fat-tree down-link).
            let path = self.topo.path(t.src, t.dst, t.route);
            path.links()[path.links().len() - 2]
        } else {
            self.topo.inj_link(t.src)
        };
        if !self.staged_hop(&mut t, link, prev, true) {
            return None;
        }
        if t.got_delayed {
            self.stats.delayed += 1;
        }
        self.finish(t.wire_bytes);
        self.stats.hops += t.hops;
        // A duplicate is modeled as a stale copy surviving in the fabric and
        // ejecting later: a second claim on the final link, recorded as a
        // reserved window (like a delayed packet) so well-behaved successors
        // are not serialized behind the far-future copy.
        let mut dup_at = None;
        if t.want_dup {
            let nominal = t.arrival + self.cfg.hop_latency * self.cfg.dup_fault_hops;
            let at = self.links[link as usize].claim(nominal, ser, true);
            self.stats.duplicated += 1;
            self.stats.wire_bytes += t.wire_bytes as u64;
            if let Some(tr) = &self.tracer {
                let track = self.track(link);
                tr.span((at - ser).as_ns(), at.as_ns(), track, Kind::LinkBusy, 0);
                tr.instant(
                    t.arrival.as_ns(),
                    track,
                    Kind::SwitchDup,
                    t.wire_bytes as u64,
                );
            }
            dup_at = Some(at);
        }
        Some((t.arrival, dup_at))
    }

    /// One downstream stage of a transit: classify `link`, then claim it
    /// one hop latency (plus any injected delay) after the previous stage.
    /// Records the link's occupancy and one `SwitchHop` span on the track
    /// of `prev_link`, the link the packet entered the stage from, with the
    /// destination as its arg. Returns `false` when the packet drops
    /// crossing `link`.
    fn staged_hop(
        &mut self,
        t: &mut StagedTransit,
        link: LinkId,
        prev_link: LinkId,
        is_last: bool,
    ) -> bool {
        let ser = self.serialization(t.wire_bytes);
        let extra = self.cfg.hop_latency * self.cfg.delay_fault_hops;
        let mut delayed = std::mem::take(&mut t.pending_delay);
        match self.classify_link(link, t.arrival) {
            FaultKind::Drop => {
                // The bytes cross this link, then are lost.
                let at =
                    self.links[link as usize].claim(t.arrival + self.cfg.hop_latency, ser, false);
                self.stats.dropped += 1;
                if let Some(tr) = &self.tracer {
                    let track = self.track(link);
                    tr.span(
                        (at - ser).as_ns(),
                        at.as_ns(),
                        track,
                        Kind::LinkBusy,
                        t.wire_bytes as u64,
                    );
                    tr.instant(
                        (at - ser).as_ns(),
                        track,
                        Kind::SwitchDrop,
                        t.wire_bytes as u64,
                    );
                }
                return false;
            }
            FaultKind::Duplicate => t.want_dup = true,
            FaultKind::Delay => delayed = true,
            FaultKind::None => {}
        }
        if is_last && t.global_delay {
            delayed = true;
        }
        t.got_delayed |= delayed;
        let mut nominal = t.arrival + self.cfg.hop_latency;
        if delayed {
            nominal += extra;
        }
        let at = self.links[link as usize].claim(nominal, ser, delayed);
        if let Some(tr) = &self.tracer {
            let track = self.track(link);
            tr.span((at - ser).as_ns(), at.as_ns(), track, Kind::LinkBusy, 0);
            if delayed {
                tr.instant(
                    t.origin_start.as_ns(),
                    self.track(self.topo.inj_link(t.src)),
                    Kind::SwitchDelayed,
                    t.wire_bytes as u64,
                );
            }
            tr.span(
                t.hop_start.as_ns(),
                at.as_ns(),
                self.track(prev_link),
                Kind::SwitchHop,
                t.dst as u64,
            );
        }
        t.hop_start = at;
        t.arrival = at;
        true
    }

    fn finish(&mut self, wire_bytes: usize) {
        self.stats.delivered += 1;
        self.stats.wire_bytes += wire_bytes as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sw(n: usize) -> Switch {
        Switch::new(n, SwitchConfig::default())
    }

    fn delivered(t: Transit) -> Time {
        match t {
            Transit::Delivered { at, .. } => at,
            Transit::Dropped => panic!("unexpected drop"),
        }
    }

    /// A packet dropped on its injection link still occupies that link;
    /// the occupancy span carries arg 0 like every other `LinkBusy`, and
    /// the wire bytes ride on the `SwitchDrop` instant at the injection
    /// start.
    #[test]
    fn dropped_packets_count_and_trace() {
        let tracer = Tracer::new(2, 64);
        let mut s = sw(2);
        s.set_tracer(tracer.clone());
        s.set_fault_injector(FaultInjector::drop_at([0]));
        assert_eq!(s.transit(0, 1, 256, Time(1_000)), Transit::Dropped);
        assert_eq!(s.stats().dropped, 1);
        let recs = tracer.snapshot();
        let inj = Track::switch_inj(0);
        let busy: Vec<_> = recs
            .iter()
            .filter(|r| r.kind == Kind::LinkBusy && r.track == inj)
            .collect();
        assert_eq!(busy.len(), 1, "the injection link is still claimed");
        assert_eq!(busy[0].at, 1_000);
        assert_eq!(busy[0].arg, 0);
        let drops: Vec<_> = recs.iter().filter(|r| r.kind == Kind::SwitchDrop).collect();
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].track, inj);
        assert_eq!(drops[0].at, busy[0].at, "drop fires at the injection start");
        assert_eq!(drops[0].arg, 256);
    }

    #[test]
    fn duplicated_packets_count_and_trace() {
        let tracer = Tracer::new(2, 64);
        let mut s = sw(2);
        s.set_tracer(tracer.clone());
        s.set_fault_injector(FaultInjector::dup_at([0]));
        let t = s.transit(0, 1, 256, Time::ZERO);
        assert!(matches!(
            t,
            Transit::Delivered {
                dup_at: Some(_),
                ..
            }
        ));
        assert_eq!(s.stats().duplicated, 1);
        assert!(tracer
            .snapshot()
            .iter()
            .any(|r| r.kind == Kind::SwitchDup && r.arg == 256));
    }

    /// The shard that runs the pipelined fabric stage (`FABRIC_SHARD` in
    /// `sp-adapter`).
    const FABRIC: usize = 0;

    /// Split one fabric into per-shard fabrics the way `SpWorld::split`
    /// does: every shard gets a fault-free copy, the fabric-wide injector
    /// moves to the fabric shard (pipelined) or must be a no-op and is
    /// sealed (two-phase), injection-link injectors go to whichever shard
    /// runs the fabric stage, ejection-link injectors to the destination's
    /// owner, and intermediate-link injectors to the fabric shard.
    fn split(mut whole: Switch, owner: &[usize], shards: usize, pipelined: bool) -> Vec<Switch> {
        let n = whole.nodes();
        let (global, links) = whole.take_fault_injectors();
        let mut parts: Vec<Switch> = (0..shards)
            .map(|_| {
                let mut s = Switch::with_topology(whole.topo.clone(), whole.cfg.clone());
                if !pipelined {
                    s.seal_global_fault();
                }
                s
            })
            .collect();
        if pipelined {
            parts[FABRIC].set_fault_injector(global);
        } else {
            assert!(
                global.is_noop(),
                "two-phase needs a no-op fabric-wide injector"
            );
        }
        for (link, inj) in links.into_iter().enumerate() {
            let Some(inj) = inj else { continue };
            let sid = match link {
                l if l < n && pipelined => FABRIC,
                l if l < n => owner[l],
                l if l < 2 * n => owner[l - n],
                _ => FABRIC,
            };
            parts[sid].set_link_fault_injector(link as LinkId, inj);
        }
        parts
    }

    /// Run `sends` through one fabric built by `mk` with [`Switch::transit`],
    /// and through the same fabric split over `shards` shards by `owner`,
    /// each stage on the shard that owns it: the origin stage on the
    /// source's owner, the fabric stage on the fabric shard (pipelined) or
    /// the source's owner (two-phase), the eject stage on the
    /// destination's owner. The sharded stages run as three passes over the
    /// whole stream, so each stage sees the other stages' links and
    /// injectors only through the carried [`StagedTransit`]. Outcomes,
    /// merged stats and every pair's route counter must match.
    fn assert_sharded_matches_one_fabric(
        mk: impl Fn() -> Switch,
        owner: &[usize],
        shards: usize,
        pipelined: bool,
        sends: &[(usize, usize, usize, u64)],
    ) {
        let mut one = mk();
        let want: Vec<Transit> = sends
            .iter()
            .map(|&(src, dst, bytes, ns)| one.transit(src, dst, bytes, Time(ns)))
            .collect();
        let mut parts = split(mk(), owner, shards, pipelined);
        let staged: Vec<StagedTransit> = sends
            .iter()
            .map(|&(src, dst, bytes, ns)| parts[owner[src]].origin_phase(src, dst, bytes, Time(ns)))
            .collect();
        let staged: Vec<Option<StagedTransit>> = staged
            .into_iter()
            .map(|t| {
                let fab = if pipelined { FABRIC } else { owner[t.src] };
                parts[fab].fabric_phase(t)
            })
            .collect();
        for ((t, want), &(src, dst, bytes, ns)) in staged.into_iter().zip(want).zip(sends) {
            let got = t.and_then(|t| parts[owner[t.dst]].eject_phase(t));
            match (want, got) {
                (Transit::Delivered { at, dup_at, .. }, Some((gat, gdup))) => {
                    assert_eq!(gat, at, "{src}->{dst} {bytes}B @ {ns}");
                    assert_eq!(gdup, dup_at, "{src}->{dst} {bytes}B @ {ns}");
                }
                (Transit::Dropped, None) => {}
                (w, g) => panic!("{src}->{dst} @ {ns}: one fabric {w:?} vs sharded {g:?}"),
            }
        }
        let n = one.nodes();
        for (pair, &rr) in one.route_rr.iter().enumerate() {
            assert_eq!(parts[owner[pair / n]].route_rr[pair], rr, "pair {pair}");
        }
        let mut parts = parts.into_iter();
        let mut merged = parts.next().unwrap();
        for part in parts {
            merged.absorb_stats(part.stats());
        }
        assert_eq!(merged.stats(), one.stats());
    }

    /// Two-phase sharding of a fault-free single frame: converging senders
    /// and varied sizes exercise both the injection and the
    /// shared-ejection contention paths across shard boundaries.
    #[test]
    fn two_phase_matches_serial_transit() {
        let sends = [
            (0usize, 1usize, 256usize, 0u64),
            (2, 1, 64, 100),
            (0, 1, 256, 200),
            (3, 2, 128, 300),
            (1, 0, 256, 400),
            (2, 1, 512, 500),
        ];
        assert_sharded_matches_one_fabric(|| sw(4), &[0, 1, 1, 0], 2, false, &sends);
    }

    /// Eject-phase claims may arrive out of nominal order across source
    /// shards; the link still serializes them like the serial fabric.
    #[test]
    fn eject_phase_orders_by_claim_not_nominal() {
        let mut s = sw(3);
        let t0 = s.origin_phase(0, 2, 256, Time::ZERO);
        let t1 = s.origin_phase(1, 2, 256, Time::ZERO);
        assert_eq!(
            t0.arrival, t1.arrival,
            "independent injection links, same arrival"
        );
        // Claim in the opposite order the packets were injected.
        let (a, _) = s.eject_phase(t1).unwrap();
        let (b, _) = s.eject_phase(t0).unwrap();
        assert_eq!(a, t1.arrival + s.config().hop_latency);
        assert_eq!(b - a, s.serialization(256), "second claim is paced");
    }

    /// Two-phase sharding with per-link injectors: the source's owner
    /// classifies its injection link in its fabric stage, the destination's
    /// owner classifies the ejection link, and drops, dups and delays land
    /// packet for packet as on one fabric.
    #[test]
    fn two_phase_with_link_faults_matches_serial() {
        let mk = || {
            let mut s = sw(3);
            let inj0 = s.topology().inj_link(0);
            let mut f = FaultInjector::none();
            f.drop_indices.insert(1);
            f.dup_indices.insert(2);
            f.delay_indices.insert(3);
            s.set_link_fault_injector(inj0, f);
            let ej2 = s.topology().ej_link(2);
            s.set_link_fault_injector(ej2, FaultInjector::drop_at([0]));
            s
        };
        let sends = [
            (0usize, 2usize, 256usize, 0u64),
            (0, 2, 64, 100),
            (0, 1, 256, 200),
            (0, 1, 128, 300),
            (1, 2, 256, 400),
            (0, 2, 512, 500),
        ];
        assert_sharded_matches_one_fabric(mk, &[0, 1, 2], 3, false, &sends);
    }

    /// Pipelined sharding across frames under fabric-wide and per-link
    /// faults, with every node on its own shard: the fabric shard owns the
    /// fabric-wide injector, the injection-link injectors and the cables,
    /// including the coupling where a fabric-wide drop skips the injection
    /// link's own classification.
    #[test]
    fn staged_pipeline_matches_serial_with_faults() {
        let mk = || {
            let mut s = cross(2, 2); // nodes 0,1 | 2,3
            let mut g = FaultInjector::with_seed(9);
            g.drop_indices.insert(2);
            g.dup_indices.insert(4);
            g.delay_indices.insert(5);
            s.set_fault_injector(g);
            let ej3 = s.topology().ej_link(3);
            s.set_link_fault_injector(ej3, FaultInjector::drop_at([1]));
            let inj0 = s.topology().inj_link(0);
            let mut d = FaultInjector::none();
            d.delay_indices.insert(0);
            s.set_link_fault_injector(inj0, d);
            // Exercises the drop-skips-classification coupling: node 1's
            // first packet is globally dropped, so this injector must see
            // its *second* packet as index 0.
            let inj1 = s.topology().inj_link(1);
            s.set_link_fault_injector(inj1, FaultInjector::dup_at([0]));
            let cable = s.topology().cable(0, 1, 2);
            s.set_link_fault_injector(cable, FaultInjector::drop_at([0]));
            s
        };
        let sends = [
            (0usize, 2usize, 256usize, 0u64), // inj0 delays its packet 0
            (0, 3, 64, 100),                  // clean cross-frame
            (1, 3, 256, 200),                 // global drop (its index 2)
            (0, 2, 256, 300),                 // clean cross-frame
            (2, 3, 128, 400),                 // same frame; dropped at ej3
            (1, 2, 256, 500),                 // inj1 dup + global delay
            (3, 0, 512, 600),                 // clean cross-frame
            (0, 2, 256, 700),                 // route 2: dropped at the cable
        ];
        assert_sharded_matches_one_fabric(mk, &[0, 1, 2, 3], 4, true, &sends);
    }

    #[test]
    fn sealed_global_fault_still_accepts_noop_installs() {
        let mut s = sw(2);
        s.seal_global_fault();
        s.set_fault_injector(FaultInjector::with_seed(3)); // noop: fine
    }

    #[test]
    #[should_panic(expected = "fabric-wide fault injector installed mid-run")]
    fn sealed_global_fault_rejects_live_install() {
        let mut s = sw(2);
        s.seal_global_fault();
        s.set_fault_injector(FaultInjector::drop_at([0]));
    }

    #[test]
    fn take_fault_injectors_leaves_fabric_fault_free() {
        let mut s = sw(2);
        s.set_fault_injector(FaultInjector::drop_at([0]));
        let link = s.topology().ej_link(1);
        s.set_link_fault_injector(link, FaultInjector::drop_at([1]));
        let (global, links) = s.take_fault_injectors();
        assert!(!global.is_noop());
        assert_eq!(links.len(), s.topology().num_links());
        assert!(links[link as usize].as_ref().is_some_and(|f| !f.is_noop()));
        let (global, links) = s.take_fault_injectors();
        assert!(global.is_noop(), "the fabric-wide injector is gone");
        assert_eq!(links.len(), s.topology().num_links());
        assert!(
            links.iter().all(Option::is_none),
            "no per-link injector left"
        );
    }

    #[test]
    fn absorb_stats_sums_counters() {
        let mut a = sw(2);
        let mut b = sw(2);
        delivered(a.transit(0, 1, 256, Time::ZERO));
        delivered(b.transit(0, 1, 64, Time::ZERO));
        delivered(b.transit(1, 0, 64, Time::ZERO));
        let b_stats = b.stats().clone();
        a.absorb_stats(&b_stats);
        assert_eq!(a.stats().delivered, 3);
        assert_eq!(a.stats().wire_bytes, 256 + 64 + 64);
        assert_eq!(a.stats().hops, 3);
    }

    #[test]
    fn single_packet_latency() {
        let mut s = sw(2);
        // 256 wire bytes at 40 MB/s = 6.4 us + 0.13 us gap + 0.5 us hop.
        let at = delivered(s.transit(0, 1, 256, Time::ZERO));
        assert_eq!(at.as_ns(), 6_400 + 130 + 500);
    }

    #[test]
    fn back_to_back_packets_are_paced_by_serialization() {
        let mut s = sw(2);
        let a = delivered(s.transit(0, 1, 256, Time::ZERO));
        let b = delivered(s.transit(0, 1, 256, Time::ZERO));
        assert_eq!((b - a), s.serialization(256));
    }

    #[test]
    fn payload_bandwidth_approaches_paper_value() {
        // 224 payload bytes per 256-byte packet; asymptotic payload rate
        // should be close to the paper's 34.3 MB/s.
        let mut s = sw(2);
        let n = 10_000u64;
        let mut last = Time::ZERO;
        for _ in 0..n {
            last = delivered(s.transit(0, 1, 256, Time::ZERO));
        }
        let mb_s = (n * 224) as f64 / last.as_secs() / 1e6;
        assert!(
            (34.0..35.0).contains(&mb_s),
            "payload bandwidth {mb_s:.2} MB/s"
        );
    }

    #[test]
    fn per_pair_delivery_is_fifo() {
        let mut s = sw(3);
        let mut prev = Time::ZERO;
        for i in 0..100 {
            let at = delivered(s.transit(0, 1, 64 + (i % 3) * 50, Time::ZERO));
            assert!(at > prev, "delivery went backwards at {i}");
            prev = at;
        }
    }

    #[test]
    fn routes_cycle_round_robin_per_pair() {
        let mut s = sw(2);
        let routes: Vec<usize> = (0..8)
            .map(|_| match s.transit(0, 1, 64, Time::ZERO) {
                Transit::Delivered { route, .. } => route,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(routes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn ejection_link_shared_by_converging_senders() {
        // Two senders to one receiver: the receiver's ejection link paces
        // aggregate delivery at one packet per serialization time.
        let mut s = sw(3);
        let mut deliveries = Vec::new();
        for _ in 0..50 {
            deliveries.push(delivered(s.transit(0, 2, 256, Time::ZERO)));
            deliveries.push(delivered(s.transit(1, 2, 256, Time::ZERO)));
        }
        deliveries.sort();
        let ser = s.serialization(256);
        for w in deliveries.windows(2) {
            assert!(w[1] - w[0] >= ser, "ejection link over-subscribed");
        }
        // Aggregate rate equals a single link's rate, so each sender gets
        // half: total time ~ 100 * ser.
        let span = *deliveries.last().unwrap() - deliveries[0];
        assert!(span >= ser * 98, "contention not modeled: span {span}");
    }

    #[test]
    fn distinct_receivers_do_not_contend() {
        let mut s = sw(3);
        let a = delivered(s.transit(0, 1, 256, Time::ZERO));
        let mut s2 = sw(3);
        let _ = s2.transit(0, 2, 256, Time::ZERO);
        let b = delivered(s2.transit(0, 1, 256, Time::ZERO));
        // Packet to node 1 after a packet to node 2 pays only injection
        // serialization, not node 2's ejection occupancy.
        assert_eq!(b - a, s.serialization(256));
    }

    #[test]
    fn loopback_skips_fabric() {
        let mut s = sw(2);
        let at = delivered(s.transit(0, 0, 256, Time::ZERO));
        assert_eq!(at.as_ns(), 6_400 + 130); // no hop latency
    }

    #[test]
    fn loopback_is_never_classified_by_fault_injection() {
        // Regression: loopback rides the MSMU, never the fabric, so the
        // fault injector must neither drop it nor consume a classification
        // index on it. Pre-fix, the loopback consumed (and was killed by)
        // drop index 0.
        let mut s = sw(2);
        s.set_fault_injector(FaultInjector::drop_at([0]));
        let at = delivered(s.transit(0, 0, 256, Time::ZERO));
        assert_eq!(at.as_ns(), 6_400 + 130);
        assert_eq!(s.stats().dropped, 0);
        // Index 0 was not consumed by the loopback: the first *fabric*
        // packet is the one dropped.
        assert_eq!(s.transit(0, 1, 256, Time::ZERO), Transit::Dropped);
    }

    #[test]
    fn drop_fault_loses_packet_but_charges_link() {
        let mut s = sw(2);
        s.set_fault_injector(FaultInjector::drop_at([0]));
        assert_eq!(s.transit(0, 1, 256, Time::ZERO), Transit::Dropped);
        assert_eq!(s.stats().dropped, 1);
        // Next packet starts after the dropped one's serialization.
        let at = delivered(s.transit(0, 1, 256, Time::ZERO));
        assert_eq!(
            at,
            Time::ZERO + s.serialization(256) * 2 + s.config().hop_latency
        );
    }

    #[test]
    fn delay_fault_reorders() {
        let mut s = sw(2);
        let mut inj = FaultInjector::none();
        inj.delay_indices.insert(0);
        s.set_fault_injector(inj);
        let a = delivered(s.transit(0, 1, 64, Time::ZERO));
        let b = delivered(s.transit(0, 1, 64, Time::ZERO));
        assert!(a > b, "delayed packet must arrive after its successor");
        assert_eq!(s.stats().delayed, 1);
    }

    #[test]
    fn delayed_packet_keeps_ejection_occupancy_serialized() {
        // Regression: the delayed packet's ejection window is [at - ser, at]
        // at its *delayed* arrival. Pre-fix, `ej_free` was set before the
        // extra delay was added, so a successor could occupy the ejection
        // link inside the delayed packet's serialization window.
        let mut s = Switch::new(
            2,
            SwitchConfig {
                // Small delay: the delayed packet lands between successors
                // instead of far past them, exposing the overlap.
                delay_fault_hops: 2,
                ..SwitchConfig::default()
            },
        );
        let mut inj = FaultInjector::none();
        inj.delay_indices.insert(0);
        s.set_fault_injector(inj);
        let ser = s.serialization(64);
        let mut arrivals = vec![
            delivered(s.transit(0, 1, 64, Time::ZERO)),
            delivered(s.transit(0, 1, 64, Time::ZERO)),
        ];
        arrivals.sort();
        assert!(
            arrivals[1] - arrivals[0] >= ser,
            "ejection windows overlap: {arrivals:?} with ser {ser}"
        );
        assert_eq!(s.stats().delayed, 1);
    }

    #[test]
    fn delayed_reservation_does_not_serialize_faster_successors() {
        // The huge default delay pushes the packet ~100 us out; successors
        // must still flow at line rate instead of queueing behind the
        // reservation.
        let mut s = sw(2);
        let mut inj = FaultInjector::none();
        inj.delay_indices.insert(0);
        s.set_fault_injector(inj);
        let slow = delivered(s.transit(0, 1, 64, Time::ZERO));
        let mut prev = Time::ZERO;
        for _ in 0..10 {
            let at = delivered(s.transit(0, 1, 64, Time::ZERO));
            assert!(at < slow, "successor stuck behind the delay reservation");
            assert!(at > prev);
            prev = at;
        }
    }

    #[test]
    fn ready_time_respected() {
        let mut s = sw(2);
        let at = delivered(s.transit(0, 1, 64, Time(1_000_000)));
        assert!(at > Time(1_000_000));
    }

    #[test]
    fn tracer_records_hop_and_link_occupancy() {
        use sp_trace::{Kind, Tracer, Track};
        let tracer = Tracer::new(2, 256);
        let mut s = sw(2);
        s.set_tracer(tracer.clone());
        let at = delivered(s.transit(0, 1, 256, Time::ZERO));
        let recs = tracer.snapshot();
        let hop = recs
            .iter()
            .find(|r| r.kind == Kind::SwitchHop)
            .expect("hop span recorded");
        assert_eq!(hop.track, Track::switch_inj(0));
        assert_eq!(hop.at, 0);
        assert_eq!(hop.dur, at.as_ns());
        assert_eq!(hop.arg, 1, "arg carries destination");
        let busy: Vec<_> = recs.iter().filter(|r| r.kind == Kind::LinkBusy).collect();
        assert_eq!(busy.len(), 2, "injection + ejection occupancy");
        let ser = s.serialization(256).as_ns();
        assert!(busy.iter().all(|r| r.dur == ser));
        assert!(busy.iter().any(|r| r.track == Track::switch_ej(1)));
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let mut s = sw(2);
        s.set_fault_injector(FaultInjector::dup_at([0]));
        let t = s.transit(0, 1, 256, Time::ZERO);
        let Transit::Delivered {
            at,
            dup_at: Some(dup),
            ..
        } = t
        else {
            panic!("expected duplicated delivery, got {t:?}");
        };
        assert_eq!(dup, at + s.config().hop_latency * s.config().dup_fault_hops);
        assert_eq!(s.stats().delivered, 1);
        assert_eq!(s.stats().duplicated, 1);
        assert_eq!(s.stats().dropped, 0);
    }

    #[test]
    fn duplicate_copy_does_not_stall_successors() {
        // The second copy holds a far-future reservation on the ejection
        // link; packets sent meanwhile must flow at line rate ahead of it.
        let mut s = sw(2);
        s.set_fault_injector(FaultInjector::dup_at([0]));
        let Transit::Delivered {
            dup_at: Some(dup), ..
        } = s.transit(0, 1, 64, Time::ZERO)
        else {
            panic!("expected duplicate");
        };
        let mut prev = Time::ZERO;
        for _ in 0..10 {
            let at = delivered(s.transit(0, 1, 64, Time::ZERO));
            assert!(at < dup, "successor queued behind the duplicate copy");
            assert!(at > prev);
            prev = at;
        }
    }

    #[test]
    fn window_faults_hit_only_packets_entering_in_window() {
        use crate::fault::FaultWindow;
        let mut s = sw(2);
        let mut inj = FaultInjector::none();
        inj.windows.push(FaultWindow {
            from: Time(10_000),
            until: Time(20_000),
            kind: FaultKind::Drop,
            probability: 1.0,
        });
        s.set_fault_injector(inj);
        assert!(matches!(
            s.transit(0, 1, 64, Time::ZERO),
            Transit::Delivered { .. }
        ));
        assert_eq!(s.transit(0, 1, 64, Time(15_000)), Transit::Dropped);
        assert!(matches!(
            s.transit(0, 1, 64, Time(25_000)),
            Transit::Delivered { .. }
        ));
        assert_eq!(s.stats().dropped, 1);
    }

    // --- multi-frame topologies ---

    fn cross(frames: usize, per: usize) -> Switch {
        Switch::with_topology(Topology::multi_frame(frames, per), SwitchConfig::default())
    }

    #[test]
    fn cross_frame_transit_pays_one_extra_hop() {
        let mut single = sw(2);
        let mut multi = cross(2, 1); // nodes 0 and 1 in different frames
        let a = delivered(single.transit(0, 1, 256, Time::ZERO));
        let b = delivered(multi.transit(0, 1, 256, Time::ZERO));
        assert_eq!(b - a, multi.config().hop_latency);
        assert_eq!(multi.stats().hops, 2);
        assert_eq!(single.stats().hops, 1);
    }

    #[test]
    fn same_frame_transit_in_multi_frame_machine_is_one_hop() {
        let mut s = cross(2, 2); // nodes 0,1 | 2,3
        let at = delivered(s.transit(2, 3, 256, Time::ZERO));
        assert_eq!(at.as_ns(), 6_400 + 130 + 500);
        assert_eq!(s.stats().hops, 1);
    }

    #[test]
    fn route_diversity_dodges_a_bad_cable() {
        // Drop everything on cable lane 0 between frames 0 and 1: the first
        // packet (route 0) dies there, the second (route 1) rides lane 1.
        let mut s = cross(2, 1);
        let lane0 = s.topology().cable(0, 1, 0);
        s.set_link_fault_injector(lane0, {
            let mut inj = FaultInjector::none();
            inj.drop_every_nth = Some(1);
            inj
        });
        assert_eq!(s.transit(0, 1, 256, Time::ZERO), Transit::Dropped);
        assert!(matches!(
            s.transit(0, 1, 256, Time::ZERO),
            Transit::Delivered { route: 1, .. }
        ));
        assert_eq!(s.stats().dropped, 1);
        assert_eq!(s.stats().delivered, 1);
    }

    #[test]
    fn adaptive_masks_a_dead_cable_out_of_selection() {
        // Same dead lane 0, but under the adaptive policy: the route key of
        // any path through the severed cable saturates, so every packet
        // dodges onto a live lane and nothing is ever dropped — while the
        // fault-blind round-robin policy (previous test) feeds it packets.
        let mut s = Switch::with_topology(
            Topology::multi_frame(2, 1),
            SwitchConfig {
                route_policy: RoutePolicy::Adaptive,
                ..Default::default()
            },
        );
        let lane0 = s.topology().cable(0, 1, 0);
        s.set_link_fault_injector(lane0, {
            let mut inj = FaultInjector::none();
            inj.drop_every_nth = Some(1);
            inj
        });
        for _ in 0..12 {
            match s.transit(0, 1, 256, Time::ZERO) {
                Transit::Delivered { route, .. } => assert_ne!(route, 0, "dead lane selected"),
                Transit::Dropped => panic!("adaptive policy routed onto the dead lane"),
            }
        }
        assert_eq!(s.stats().dropped, 0);
        assert_eq!(s.stats().delivered, 12);
    }

    #[test]
    fn per_link_delay_is_charged_at_that_hop() {
        let mut s = cross(2, 1);
        let lane0 = s.topology().cable(0, 1, 0);
        let mut inj = FaultInjector::none();
        inj.delay_indices.insert(0);
        s.set_link_fault_injector(lane0, inj);
        let extra = s.config().hop_latency * s.config().delay_fault_hops;
        let a = delivered(s.transit(0, 1, 64, Time::ZERO)); // lane 0: delayed
        let mut clean = cross(2, 1);
        let b = delivered(clean.transit(0, 1, 64, Time::ZERO));
        assert_eq!(a - b, extra);
        assert_eq!(s.stats().delayed, 1);
    }

    #[test]
    fn per_link_injector_only_sees_reaching_packets() {
        // An injector on node 1's ejection link sees cross traffic to node
        // 1 but not traffic between other nodes.
        let mut s = sw(4);
        let ej1 = s.topology().ej_link(1);
        s.set_link_fault_injector(ej1, FaultInjector::drop_at([1]));
        let _ = delivered(s.transit(2, 3, 64, Time::ZERO)); // not seen
        let _ = delivered(s.transit(0, 1, 64, Time::ZERO)); // index 0
        assert_eq!(s.transit(0, 1, 64, Time::ZERO), Transit::Dropped); // index 1
        assert_eq!(s.stats().dropped, 1);
    }

    #[test]
    fn tracer_records_one_span_per_stage_across_frames() {
        use sp_trace::{Kind, Tracer, Track, TrackKind};
        let tracer = Tracer::new(2, 256);
        let mut s = cross(2, 1);
        s.set_tracer(tracer.clone());
        let at = delivered(s.transit(0, 1, 256, Time::ZERO));
        let recs = tracer.snapshot();
        let hops: Vec<_> = recs.iter().filter(|r| r.kind == Kind::SwitchHop).collect();
        assert_eq!(hops.len(), 2, "two stages, two spans");
        assert_eq!(hops[0].track, Track::switch_inj(0));
        assert_eq!(hops[1].track.kind(), TrackKind::SwitchXLink);
        assert_eq!(hops[0].end(), hops[1].at, "stages chain causally");
        assert_eq!(hops[1].end(), at.as_ns());
        let busy: Vec<_> = recs.iter().filter(|r| r.kind == Kind::LinkBusy).collect();
        assert_eq!(busy.len(), 3, "inj + cable + ej occupancy");
        let ser = s.serialization(256).as_ns();
        assert!(busy.iter().all(|r| r.dur == ser));
    }

    fn adaptive(frames: usize, per: usize) -> Switch {
        Switch::with_topology(
            Topology::multi_frame(frames, per),
            SwitchConfig {
                route_policy: RoutePolicy::Adaptive,
                ..SwitchConfig::default()
            },
        )
    }

    #[test]
    fn adaptive_dodges_a_busy_cable() {
        // Node 0 -> 2 occupies cable lane 0; node 1 -> 3 decides while that
        // lane is still busy and must steer onto an idle lane — the next one
        // in round-robin order.
        let mut s = adaptive(2, 2);
        let _ = delivered(s.transit(0, 2, 256, Time::ZERO));
        match s.transit(1, 3, 256, Time::ZERO) {
            Transit::Delivered { route, .. } => assert_eq!(route, 1),
            t => panic!("unexpected {t:?}"),
        }
    }

    #[test]
    fn adaptive_without_contention_is_round_robin() {
        // Idle fabric at every decision instant: the adaptive policy must
        // reproduce the paper's round-robin sequence exactly.
        let mut s = adaptive(2, 1);
        for i in 0..12 {
            let ready = Time(i as u64 * 1_000_000); // 1 ms apart: all idle
            match s.transit(0, 1, 64, ready) {
                Transit::Delivered { route, .. } => assert_eq!(route, i % 4),
                t => panic!("unexpected {t:?}"),
            }
        }
    }

    #[test]
    fn adaptive_same_frame_pairs_keep_the_rr_sequence() {
        // Same-frame candidate paths are identical, so the contention keys
        // always tie and the tie-break preserves round-robin even under load.
        let mut s = adaptive(2, 2);
        for i in 0..8 {
            match s.transit(2, 3, 256, Time::ZERO) {
                Transit::Delivered { route, .. } => assert_eq!(route, i % 4),
                t => panic!("unexpected {t:?}"),
            }
        }
    }

    #[test]
    fn adaptive_pick_traces_the_dodged_occupancy() {
        use sp_trace::{Kind, Tracer};
        let tracer = Tracer::new(2, 256);
        let mut s = adaptive(2, 2);
        s.set_tracer(tracer.clone());
        let key0 = {
            let _ = delivered(s.transit(0, 2, 256, Time::ZERO));
            s.contention_key(1, 3, 0, Time::ZERO)
        };
        let _ = delivered(s.transit(1, 3, 256, Time::ZERO));
        let recs = tracer.snapshot();
        let pick = recs
            .iter()
            .find(|r| r.kind == Kind::RouteAdaptive)
            .expect("adaptive pick recorded");
        assert_eq!(
            pick.track,
            s.track(s.topology().cable(0, 1, 1)),
            "recorded on the chosen cable's track"
        );
        assert_eq!(pick.arg, key0.as_ns(), "arg is the occupancy dodged");
    }

    #[test]
    fn adaptive_relieves_a_hot_cable_pair() {
        // Many senders hammer one frame pair on a single decision instant;
        // under round-robin consecutive senders pile onto the same lane
        // sequence, while adaptive spreads onto whichever lane frees first.
        // Adaptive must never finish later.
        let finish = |policy: RoutePolicy| {
            let mut s = Switch::with_topology(
                Topology::multi_frame(2, 4),
                SwitchConfig {
                    route_policy: policy,
                    ..SwitchConfig::default()
                },
            );
            let mut last = Time::ZERO;
            for i in 0..32 {
                let src = i % 4;
                let dst = 4 + (i + 1) % 4;
                last = last.max(delivered(s.transit(src, dst, 256, Time::ZERO)));
            }
            last
        };
        assert!(finish(RoutePolicy::Adaptive) <= finish(RoutePolicy::RoundRobin));
    }

    #[test]
    fn cable_contention_paces_cross_frame_senders() {
        // Two frame-0 senders to frame-1 receivers, forced onto one cable
        // lane: the shared cable paces them like a shared ejection link.
        let mut s = Switch::with_topology(
            Topology::MultiFrame {
                frames: 2,
                nodes_per_frame: 2,
                cables_per_pair: 1,
            },
            SwitchConfig::default(),
        );
        let mut deliveries = Vec::new();
        for _ in 0..20 {
            deliveries.push(delivered(s.transit(0, 2, 256, Time::ZERO)));
            deliveries.push(delivered(s.transit(1, 3, 256, Time::ZERO)));
        }
        deliveries.sort();
        let ser = s.serialization(256);
        for w in deliveries.windows(2) {
            assert!(w[1] - w[0] >= ser, "inter-frame cable over-subscribed");
        }
    }
}
