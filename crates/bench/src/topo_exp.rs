//! Topology sweep (§1.2): the same one-word round trip and streaming
//! bandwidth measured on a single-frame machine and on multi-frame
//! machines where the two endpoints sit in different frames.
//!
//! A cross-frame path traverses one extra switch stage over an inter-frame
//! cable, so its round trip grows by exactly `2 * hop_latency` of fabric
//! time — visible in the trace-based breakdown as the `inter-frame hop`
//! segments. Streaming bandwidth is latency-insensitive (the pipeline
//! hides the extra stage), which the sweep also demonstrates.

use crate::trace_rt::{self, Breakdown};
use crate::Tally;
use parking_lot::Mutex;
use sp_adapter::{RoutePolicy, SpConfig};
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine, GlobalPtr, ReliabilityConfig};
use sp_trace::{Digest, Kind, Record, TimeSeries, Track, TrackKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One topology's measurements.
#[derive(Debug, Clone)]
pub struct TopoPoint {
    /// Human label, e.g. `"2 frames x 1 node"`.
    pub label: String,
    /// Switch frames in the machine.
    pub frames: usize,
    /// Total nodes.
    pub nodes: usize,
    /// The ping-pong peer (node 0 is always the pinger).
    pub dst: usize,
    /// Switch stages on the `0 -> dst` path.
    pub hops: usize,
    /// Measured one-word round trip, ns (steady-state iteration).
    pub rtt_ns: u64,
    /// Fabric share of the round trip: serialization + every switch
    /// stage, both directions (from the trace-based breakdown).
    pub wire_switch_ns: u64,
    /// Streaming async-store bandwidth `0 -> dst`, MB/s.
    pub store_bw_mb_s: f64,
}

/// The sweep's machine configurations: a single frame, the smallest
/// machine with a cross-frame pair, and a four-frame machine pinging
/// corner to corner.
pub fn configs() -> Vec<(String, SpConfig, usize)> {
    let four = SpConfig::multi_frame(4, 4);
    let far = four.nodes - 1;
    vec![
        ("1 frame x 2 nodes".to_owned(), SpConfig::thin(2), 1),
        (
            "2 frames x 1 node".to_owned(),
            SpConfig::multi_frame(2, 1),
            1,
        ),
        ("4 frames x 4 nodes".to_owned(), four, far),
    ]
}

/// Trace one steady-state round trip on `cfg` and return its breakdown.
pub fn traced_round_trip(cfg: &SpConfig, dst: usize, iters: u32, t: &mut Tally) -> Breakdown {
    let (records, report, _) = trace_rt::run_one_word_on(cfg.clone(), dst, iters);
    t.add(&report);
    trace_rt::breakdown_on(&records, iters as u64 - 1, cfg, dst)
}

/// Run the whole sweep.
pub fn run(quick: bool, t: &mut Tally) -> Vec<TopoPoint> {
    let iters = if quick { 4 } else { 8 };
    let (n, count) = if quick { (4096, 16) } else { (16384, 64) };
    configs()
        .into_iter()
        .map(|(label, cfg, dst)| {
            let bd = traced_round_trip(&cfg, dst, iters, t);
            let bw = store_bandwidth(cfg.clone(), dst, n, count, t);
            TopoPoint {
                label,
                frames: cfg.topology.frames(),
                nodes: cfg.nodes,
                dst,
                hops: cfg.topology.hops(0, dst),
                rtt_ns: bd.rtt_ns,
                wire_switch_ns: bd.wire_switch_ns(),
                store_bw_mb_s: bw,
            }
        })
        .collect()
}

/// One routing policy's result under the hot-spot congestion workload:
/// frame-0 senders hammer one frame pair — a bulk streamer keeps the
/// shared inter-frame cables occupied with back-to-back 256-byte packets
/// while the remaining frame-0 nodes each ping-pong a distinct frame-1
/// peer and measure their round trips. A round-robin pinger lands behind
/// a bulk packet's serialization whenever its blind lane choice collides;
/// an adaptive pinger steers onto an idle lane.
#[derive(Debug, Clone)]
pub struct CongestionPoint {
    /// Policy label, `"round-robin"` or `"adaptive"`.
    pub policy: &'static str,
    /// Concurrent frame-0 senders (1 bulk streamer + the pingers).
    pub senders: usize,
    /// Measured round trips across all pingers (after one warmup each).
    pub samples: usize,
    /// Median round trip, ns (streaming-digest estimate, ≤0.5% rel error).
    pub rtt_p50_ns: u64,
    /// 99th-percentile round trip, ns.
    pub rtt_p99_ns: u64,
    /// 99.9th-percentile round trip, ns.
    pub rtt_p999_ns: u64,
    /// Worst round trip, ns (exact: the digest clamps to observed max).
    pub rtt_max_ns: u64,
    /// Trace records lost to ring overflow (0 means the percentiles and
    /// gauges below saw every event).
    pub trace_dropped: u64,
    /// Virtual-time gauge series sampled from the trace (link busy %,
    /// recv-FIFO depth, in-flight packets, retransmits).
    pub series: TimeSeries,
    /// Link-utilization spread across the frame pair's cable lanes: the
    /// mean over fine virtual-time bins of `(busiest lane - idlest lane)`
    /// busy time, as a fraction of the bin width. 0 = perfectly balanced.
    pub lane_spread: f64,
    /// How many packets the adaptive policy steered off the round-robin
    /// candidate (always 0 under `RoundRobin`).
    pub adaptive_picks: u64,
}

/// Run the hot-spot congestion experiment under both policies.
pub fn congestion(quick: bool, t: &mut Tally) -> (CongestionPoint, CongestionPoint) {
    let iters = if quick { 12 } else { 32 };
    (
        congestion_run(RoutePolicy::RoundRobin, 8, iters, t),
        congestion_run(RoutePolicy::Adaptive, 8, iters, t),
    )
}

/// One congestion run on a 2-frame machine of `k` nodes per frame: frame-0
/// node 0 streams pipelined bulk stores at frame-1 node `k` (keeping the
/// shared cables occupied for the whole measurement), while frame-0 nodes
/// `1..k` each measure `iters` one-word round trips to a distinct frame-1
/// peer.
pub fn congestion_run(policy: RoutePolicy, k: usize, iters: u32, t: &mut Tally) -> CongestionPoint {
    let (m, tracer, cfg) = hotspot_machine(policy, k, iters);
    t.add(&m.run().expect("congestion run completes"));
    let records = tracer.snapshot();

    let mut rtts = Digest::new();
    for r in records.iter().filter(|r| r.kind == Kind::UserSpan) {
        rtts.observe(r.dur);
    }
    assert!(rtts.count() > 0, "no measured bursts in trace");
    CongestionPoint {
        policy: policy_label(policy),
        senders: k,
        samples: rtts.count() as usize,
        rtt_p50_ns: rtts.quantile_ns(0.50),
        rtt_p99_ns: rtts.quantile_ns(0.99),
        rtt_p999_ns: rtts.quantile_ns(0.999),
        rtt_max_ns: rtts.max_ns(),
        trace_dropped: tracer.dropped(),
        series: TimeSeries::sample(&records, 25_000),
        // Bin width ~2x a bulk packet's serialization: wide enough to see a
        // round-robin collision (two packets queued back-to-back on one
        // lane while the others idle), narrow enough that the imbalance is
        // not averaged away over the whole run.
        lane_spread: lane_spread(&records, &cfg, 25_000),
        adaptive_picks: records
            .iter()
            .filter(|r| r.kind == Kind::RouteAdaptive)
            .count() as u64,
    }
}

fn policy_label(policy: RoutePolicy) -> &'static str {
    match policy {
        RoutePolicy::RoundRobin => "round-robin",
        RoutePolicy::Adaptive => "adaptive",
    }
}

/// Build (but do not run) the hot-spot machine shared by the congestion
/// and fault-latency experiments: a 2-frame machine of `k` nodes per
/// frame, one bulk streamer plus `k - 1` pingers measuring `iters`
/// round trips each (round 0 is warmup).
fn hotspot_machine(
    policy: RoutePolicy,
    k: usize,
    iters: u32,
) -> (AmMachine, sp_trace::Tracer, SpConfig) {
    assert!(k >= 2, "need a streamer and at least one pinger");
    let cfg = SpConfig::multi_frame(2, k).routed(policy);
    let mut m = AmMachine::new(cfg.clone(), AmConfig::default(), 7);
    let tracer = m.enable_tracing(1 << 16);
    // Enough bulk volume to outlast the pingers: ~60 us per round trip at
    // ~30 MB/s of stream throughput, with generous margin.
    let store_bytes = 4096usize;
    let stores = (iters as usize * 2).max(16);
    m.spawn("bulk-tx", Ping::default(), move |am: &mut Am<'_, Ping>| {
        am.register(pong_handler);
        am.register(pong_done_handler);
        let data = vec![0xA5u8; store_bytes];
        am.barrier();
        let mut handles = Vec::with_capacity(stores);
        for _ in 0..stores {
            handles.push(am.store_async(GlobalPtr { node: k, addr: 0 }, &data, None, &[], None));
        }
        for h in handles {
            am.wait_bulk(h);
        }
        am.barrier();
    });
    for i in 1..k {
        let peer = k + i;
        let t = tracer.clone();
        m.spawn(
            format!("tx{i}"),
            Ping::default(),
            move |am: &mut Am<'_, Ping>| {
                am.register(pong_handler);
                let done = am.register(pong_done_handler);
                am.barrier();
                // Round 0 is warmup (channel state, route counters settle).
                for it in 0..=iters {
                    let t0 = am.now();
                    am.request_1(peer, 0, done as u32);
                    am.poll_until(move |s| s.pongs > it);
                    if it > 0 {
                        t.span(
                            t0.as_ns(),
                            am.now().as_ns(),
                            Track::program(i),
                            Kind::UserSpan,
                            it as u64 - 1,
                        );
                    }
                }
                am.barrier();
            },
        );
    }
    m.spawn("bulk-rx", Ping::default(), move |am: &mut Am<'_, Ping>| {
        am.register(pong_handler);
        am.register(pong_done_handler);
        am.alloc(store_bytes as u32); // landing area at addr 0
        am.barrier();
        am.barrier(); // polls for the incoming stores while parked here
    });
    for i in 1..k {
        m.spawn(
            format!("rx{i}"),
            Ping::default(),
            move |am: &mut Am<'_, Ping>| {
                am.register(pong_handler);
                am.register(pong_done_handler);
                am.barrier();
                am.poll_until(move |s| s.pings > iters);
                am.barrier();
            },
        );
    }
    (m, tracer, cfg)
}

/// One routing policy's result under the fault-latency workload: pingers
/// ping-pong across the frame pair while lane 0 of its cable bundle dies
/// mid-run ([`FAULT_KILL_AT_NS`], both directions, every packet on it
/// dropped). Round-robin stays fault-blind — a quarter of its sends keep
/// riding the dead lane, and each loss costs a keepalive round before the
/// NACK restarts it on the next lane — while the adaptive policy masks
/// severed links out of route selection (the fault daemon's route-table
/// regeneration) and keeps its round trips clean.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Policy label, `"round-robin"` or `"adaptive"`.
    pub policy: &'static str,
    /// Round trips measured after the cable died.
    pub samples_after: usize,
    /// Median post-kill round trip, ns (streaming-digest estimate).
    pub rtt_p50_ns: u64,
    /// 99th-percentile post-kill round trip, ns.
    pub rtt_p99_ns: u64,
    /// 99.9th-percentile post-kill round trip, ns.
    pub rtt_p999_ns: u64,
    /// Worst post-kill round trip, ns (exact).
    pub rtt_max_ns: u64,
    /// Packets the fabric dropped over the whole run (all on the dead
    /// lane: the workload is otherwise loss-free).
    pub dropped: u64,
    /// Trace records lost to ring overflow.
    pub trace_dropped: u64,
    /// Virtual-time gauge series sampled from the trace — the retransmit
    /// counter shows the recovery bursts after the lane dies.
    pub series: TimeSeries,
}

/// Virtual time at which the fault-latency experiment kills the cable:
/// past the start-up barrier and the warmup round (together roughly two
/// cross-frame round trips), well before the measured rounds end.
pub const FAULT_KILL_AT_NS: u64 = 150_000;

/// Run the fault-latency experiment under both policies.
pub fn fault_latency(quick: bool, t: &mut Tally) -> (FaultPoint, FaultPoint) {
    let iters = if quick { 12 } else { 32 };
    (
        fault_run(RoutePolicy::RoundRobin, 8, iters, 1, t),
        fault_run(RoutePolicy::Adaptive, 8, iters, 1, t),
    )
}

/// Build (but do not run) the fault-latency machine: a 2-frame machine of
/// `k` nodes per frame where every frame-0 node `i` measures `iters`
/// one-word round trips against frame-1 peer `k + i`, all across the
/// shared cable bundle.
///
/// Deliberately no bulk stream (unlike [`hotspot_machine`]): recovery from
/// the dead lane is the measurement, and single-packet exchanges keep the
/// go-back-N retransmission bursts short. A burst whose counter advance is
/// a multiple of the lane count re-rides the dead lane on every
/// round-robin retransmission — a phase-locked near-livelock that drains
/// one packet per NACK cycle. Timeouts are chaos-campaign-sized
/// (`keepalive_polls: 64` against the 4096 default) so a lost packet is
/// probed after roughly a round trip of idle polls instead of the probe
/// latency dominating every sample.
fn fault_machine(
    policy: RoutePolicy,
    k: usize,
    iters: u32,
    shards: usize,
) -> (AmMachine, sp_trace::Tracer, SpConfig) {
    let cfg = SpConfig::multi_frame(2, k).routed(policy).parallel(shards);
    let am_cfg = AmConfig {
        keepalive_polls: 64,
        ..AmConfig::default()
    };
    let mut m = AmMachine::new(cfg.clone(), am_cfg, 7);
    let tracer = m.enable_tracing(1 << 16);
    for i in 0..k {
        let peer = k + i;
        let t = tracer.clone();
        m.spawn(
            format!("tx{i}"),
            Ping::default(),
            move |am: &mut Am<'_, Ping>| {
                am.register(pong_handler);
                let done = am.register(pong_done_handler);
                am.barrier();
                // Round 0 is warmup (channel state, route counters settle).
                for it in 0..=iters {
                    let t0 = am.now();
                    am.request_1(peer, 0, done as u32);
                    am.poll_until(move |s| s.pongs > it);
                    if it > 0 {
                        t.span(
                            t0.as_ns(),
                            am.now().as_ns(),
                            Track::program(i),
                            Kind::UserSpan,
                            it as u64 - 1,
                        );
                    }
                }
                // Graceful shutdown, not a barrier: a barrier master parked
                // with a full receive FIFO drops a stuck peer's
                // retransmissions without ever waking (the arrival that
                // would wake it is the drop), wedging the run. Quiesce acks
                // everything outbound, then serve peers' recovery rounds
                // until the fabric has been quiet for a while.
                am.quiesce();
                am.drain_quiet(sp_sim::Dur::ms(0.5));
            },
        );
    }
    for i in 0..k {
        m.spawn(
            format!("rx{i}"),
            Ping::default(),
            move |am: &mut Am<'_, Ping>| {
                am.register(pong_handler);
                am.register(pong_done_handler);
                am.barrier();
                am.poll_until(move |s| s.pings > iters);
                am.quiesce();
                am.drain_quiet(sp_sim::Dur::ms(0.5));
            },
        );
    }
    (m, tracer, cfg)
}

/// One fault-latency run: the pinger machine with a `cable_kill` of
/// lane 0 (both directions) scheduled at [`FAULT_KILL_AT_NS`], on
/// `shards` conservative-parallel engine shards (1: the one-shard
/// engine). The mid-run cable kill is broadcast to every shard and the
/// per-link injectors classify at the cables' owning shard, so the
/// measured round trips, drops, and digests match the one-shard run under
/// either routing policy. They do here, though a kill at another instant
/// can meet packets sent up to one lookahead before it (ROADMAP item 9);
/// `topo --parallel N` checks this one.
pub fn fault_run(
    policy: RoutePolicy,
    k: usize,
    iters: u32,
    shards: usize,
    t: &mut Tally,
) -> FaultPoint {
    let (mut m, tracer, _cfg) = fault_machine(policy, k, iters, shards);
    m.schedule_world_at(sp_sim::Time(FAULT_KILL_AT_NS), |w| {
        for (from, to) in [(0usize, 1usize), (1, 0)] {
            let link = w.switch.topology().cable(from, to, 0);
            let mut dead = sp_switch::FaultInjector::none();
            dead.drop_every_nth = Some(1);
            w.switch.set_link_fault_injector(link, dead);
        }
    });
    let report = m.run().expect("fault-latency run completes");
    t.add(&report);
    let records = tracer.snapshot();

    let mut rtts = Digest::new();
    for r in records
        .iter()
        .filter(|r| r.kind == Kind::UserSpan && r.at >= FAULT_KILL_AT_NS)
    {
        rtts.observe(r.dur);
    }
    assert!(rtts.count() > 0, "no post-kill round trips in trace");
    FaultPoint {
        policy: policy_label(policy),
        samples_after: rtts.count() as usize,
        rtt_p50_ns: rtts.quantile_ns(0.50),
        rtt_p99_ns: rtts.quantile_ns(0.99),
        rtt_p999_ns: rtts.quantile_ns(0.999),
        rtt_max_ns: rtts.max_ns(),
        dropped: report.world.switch.stats().dropped,
        trace_dropped: tracer.dropped(),
        series: TimeSeries::sample(&records, 25_000),
    }
}

/// Link-utilization spread across the inter-frame cable lanes: bin the
/// cables' `LinkBusy` occupancy into `bin_ns`-wide virtual-time bins and
/// average, over the bins where any cable was busy, the busiest-minus-
/// idlest lane difference as a fraction of the bin width. Round-robin's
/// phase collisions pile bursts onto one lane while others idle, which
/// coarse per-lane byte totals would hide but fine bins expose.
fn lane_spread(records: &[Record], cfg: &SpConfig, bin_ns: u64) -> f64 {
    let topo = &cfg.topology;
    let cpp = match *topo {
        sp_switch::Topology::MultiFrame {
            cables_per_pair, ..
        } => cables_per_pair,
        // Lane spread is a flat frame-pair metric; fat-tree spine balance
        // is reported by the traffic experiment instead.
        _ => return 0.0,
    };
    let mut lanes: Vec<usize> = Vec::new();
    for from in 0..topo.frames() {
        for to in 0..topo.frames() {
            if from == to {
                continue;
            }
            for lane in 0..cpp {
                lanes.push(
                    topo.cable_index(topo.cable(from, to, lane))
                        .expect("cables have a cable index"),
                );
            }
        }
    }
    let mut busy: BTreeMap<u64, BTreeMap<usize, u64>> = BTreeMap::new();
    for r in records {
        if r.kind != Kind::LinkBusy || r.track.kind() != TrackKind::SwitchXLink {
            continue;
        }
        let lane = r.track.xlink_index().expect("xlink track has an index");
        let (mut at, end) = (r.at, r.end());
        while at < end {
            let bin = at / bin_ns;
            let upto = end.min((bin + 1) * bin_ns);
            *busy.entry(bin).or_default().entry(lane).or_default() += upto - at;
            at = upto;
        }
    }
    if busy.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for per_lane in busy.values() {
        let max = lanes
            .iter()
            .map(|l| *per_lane.get(l).unwrap_or(&0))
            .max()
            .unwrap_or(0);
        let min = lanes
            .iter()
            .map(|l| *per_lane.get(l).unwrap_or(&0))
            .min()
            .unwrap_or(0);
        total += (max - min) as f64 / bin_ns as f64;
    }
    total / busy.len() as f64
}

#[derive(Default)]
struct Ping {
    pings: u32,
    pongs: u32,
}

fn pong_handler(env: &mut AmEnv<'_, Ping>, args: AmArgs) {
    env.state.pings += 1;
    env.reply_1(args.a[0] as u16, 0);
}

fn pong_done_handler(env: &mut AmEnv<'_, Ping>, _args: AmArgs) {
    env.state.pongs += 1;
}

#[derive(Default)]
struct St {
    done: u32,
}

fn done_handler(env: &mut AmEnv<'_, St>, _args: AmArgs) {
    env.state.done += 1;
}

/// One-way streaming bandwidth (MB/s of payload) of `count` pipelined
/// `n`-byte async stores from node 0 to node `dst` on `cfg`; uninvolved
/// nodes only take part in the opening/closing barriers.
pub fn store_bandwidth(cfg: SpConfig, dst: usize, n: usize, count: u32, t: &mut Tally) -> f64 {
    let nodes = cfg.nodes;
    assert!(dst != 0 && dst < nodes);
    let mut m = AmMachine::new(cfg, AmConfig::default(), 42);
    let out = Arc::new(Mutex::new(0.0f64));
    let out2 = out.clone();
    m.spawn("tx", St::default(), move |am: &mut Am<'_, St>| {
        am.register(done_handler);
        let data = vec![0x5Au8; n];
        am.barrier();
        let t0 = am.now();
        let mut handles = Vec::with_capacity(count as usize);
        for _ in 0..count {
            handles.push(am.store_async(GlobalPtr { node: dst, addr: 0 }, &data, None, &[], None));
        }
        for h in handles {
            am.wait_bulk(h);
        }
        *out2.lock() = (count as usize * n) as f64 / (am.now() - t0).as_secs() / 1e6;
        am.barrier();
    });
    for node in 1..nodes {
        if node == dst {
            m.spawn("rx", St::default(), move |am: &mut Am<'_, St>| {
                am.register(done_handler);
                am.alloc(n as u32); // landing area at addr 0
                am.barrier();
                am.barrier();
            });
        } else {
            m.spawn(
                format!("idle{node}"),
                St::default(),
                |am: &mut Am<'_, St>| {
                    am.register(done_handler);
                    am.barrier();
                    am.barrier();
                },
            );
        }
    }
    t.add(&m.run().expect("store-bandwidth run completes"));
    let v = *out.lock();
    v
}

/// One reliability mode's result under the seeded lossy-window workload:
/// a stream of single-packet requests crosses a virtual-time window that
/// drops 15% of every packet (data, acks, NACKs alike), followed by a
/// lossless tail. Legacy go-back-N resends everything from a gap onward
/// (up to a full 72-packet window per loss) and waits out keep-alive
/// rounds for tail losses; adaptive RTO + SACK retransmits only the
/// receiver's actual gaps and re-arms from the measured RTT.
#[derive(Debug, Clone)]
pub struct LossPoint {
    /// Mode label, `"legacy"` or `"adaptive"`.
    pub mode: &'static str,
    /// Virtual ns from the first request to full quiescence (every
    /// request delivered *and* acknowledged): the time the reliability
    /// layer needed to push the stream through the window and recover.
    pub recover_ns: u64,
    /// Requests delivered per millisecond over [`LossPoint::recover_ns`].
    pub goodput_msgs_ms: f64,
    /// Packets the fabric dropped (all inside the seeded window).
    pub dropped: u64,
    /// Packets the sender retransmitted, total.
    pub retransmits: u64,
    /// Retransmits in excess of the fabric's drops: packets re-sent that
    /// the receiver already held (go-back-N's collateral resends).
    pub spurious_rtx: u64,
    /// Retransmit-cause breakdown (adaptive-RTO expiry / SACK gap /
    /// keep-alive probe; legacy NACK go-back-N carries no cause).
    pub rtx_timeout: u64,
    /// SACK-gap retransmits (see [`LossPoint::rtx_timeout`]).
    pub rtx_sack_gap: u64,
    /// Keep-alive-driven retransmits (see [`LossPoint::rtx_timeout`]).
    pub rtx_keepalive: u64,
}

/// Run the loss-recovery experiment under both reliability modes — the
/// same seeded drop window, byte-identical fabric, only the reliability
/// configuration differs.
pub fn loss_recovery(quick: bool, t: &mut Tally) -> (LossPoint, LossPoint) {
    let msgs = if quick { 150 } else { 300 };
    (
        loss_run(ReliabilityConfig::default(), msgs, t),
        loss_run(ReliabilityConfig::adaptive(), msgs, t),
    )
}

/// One loss-recovery run: `msgs` single-packet requests from node 0 to
/// node 1 through a seeded 15% drop window over virtual time
/// `[100 µs, 1.5 ms)`, timed to full quiescence.
pub fn loss_run(rel: ReliabilityConfig, msgs: u32, t: &mut Tally) -> LossPoint {
    // Keep-alive at a middling threshold (not the chaos harness's hair
    // trigger of 64): legacy's only timeout is emulated by poll counting,
    // so this is exactly the recovery path the adaptive RTO replaces.
    let am_cfg = AmConfig {
        keepalive_polls: 256,
        reliability: rel,
        ..AmConfig::default()
    };
    let mut m = AmMachine::new(SpConfig::thin(2), am_cfg, 7);
    m.configure_world(|w| {
        let mut inj = sp_switch::FaultInjector::with_seed(9);
        inj.windows.push(sp_switch::FaultWindow {
            from: sp_sim::Time(100_000),
            until: sp_sim::Time(1_500_000),
            kind: sp_switch::FaultKind::Drop,
            probability: 0.15,
        });
        w.switch.set_fault_injector(inj);
    });
    let out = Arc::new(Mutex::new(0u64));
    let out2 = out.clone();
    m.spawn("tx", St::default(), move |am: &mut Am<'_, St>| {
        am.register(done_handler);
        let t0 = am.now();
        for i in 0..msgs {
            am.request_1(1, 0, i);
        }
        // Quiesce: every request delivered and acknowledged — the stream
        // has fully recovered from the window.
        am.quiesce();
        *out2.lock() = (am.now() - t0).as_ns();
    });
    m.spawn("rx", St::default(), move |am: &mut Am<'_, St>| {
        am.register(done_handler);
        am.poll_until(move |s| s.done == msgs);
        // Serve the sender's recovery traffic before exiting.
        am.drain(sp_sim::Dur::ms(5.0));
    });
    let report = m.run().expect("loss-recovery run completes");
    t.add(&report);
    let recover_ns = *out.lock();
    let stats = &report.am_stats[0];
    let dropped = report.world.switch.stats().dropped;
    LossPoint {
        mode: if rel.is_legacy() {
            "legacy"
        } else {
            "adaptive"
        },
        recover_ns,
        goodput_msgs_ms: msgs as f64 / (recover_ns as f64 / 1e6),
        dropped,
        retransmits: stats.packets_retransmitted,
        spurious_rtx: stats.packets_retransmitted.saturating_sub(dropped),
        rtx_timeout: stats.rtx_timeout,
        rtx_sack_gap: stats.rtx_sack_gap,
        rtx_keepalive: stats.rtx_keepalive,
    }
}
