//! Serial ≡ parallel equivalence suite for the sharded conservative-parallel
//! engine (`Sim::run_parallel` / `SpConfig::parallel`).
//!
//! The parallel engine's contract is *exact* agreement with the serial
//! engine: same final virtual time, same counted-event total, and the same
//! observable world state (hashed FNV-1a over per-adapter and switch
//! counters, the way the golden pins do). Each test runs one workload
//! serially, then on 2 and 4 shards, and compares the full tuple.
//!
//! Coverage spans the once-restricted territory: multi-frame topologies
//! (the staged fabric pipeline with halved lookahead), fault injection
//! (global and per-link injectors classify at each packet's owning shard,
//! so seeded chaos schedules replay identically), and pre-scheduled world
//! events ([`sp_am::AmMachine::schedule_world_at`] broadcasts, driving the
//! mid-run dead-cable experiment), and adaptive routing (route choice on
//! the fabric shard, across multi-frame fabrics and fat trees).

use proptest::prelude::*;
use sp_adapter::{host, SpConfig, SpWorld};
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine};
use sp_mpi::runner::MpiImpl;
use sp_nas::{run_kernel_on, Kernel, NasClass};
use sp_sim::{Dur, NodeId, Sim, SimReport, Time};
use sp_switch::{FaultInjector, LinkId, RoutePolicy, Topology};

/// FNV-1a, the same construction the golden pins use.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `(end_ns, events, world_hash)` for a finished `SpWorld` run — the same
/// observables the golden pins hash, minus protocol memory.
fn sp_fingerprint<P: Send + 'static>(report: &SimReport<SpWorld<P>>) -> (u64, u64, u64) {
    let mut h = Fnv::new();
    h.u64(report.end_time.as_ns());
    h.u64(report.events);
    for node in 0..report.world.nodes() {
        let a = report.world.adapter_stats(node);
        h.u64(a.sent);
        h.u64(a.received);
        h.u64(a.dropped_overflow);
        h.u64(a.doorbells);
        h.u64(a.lazy_pops);
        h.u64(a.recv_high_water as u64);
    }
    let s = report.world.switch.stats();
    h.u64(s.delivered);
    h.u64(s.dropped);
    h.u64(s.wire_bytes);
    h.u64(s.hops);
    (report.end_time.as_ns(), report.events, h.finish())
}

// ---------------------------------------------------------------------------
// Engine-level: the ping-pong storm (the bench workload), world = ().
// ---------------------------------------------------------------------------

/// `pairs` sleeper/waker pairs; with `shards` dividing `pairs`, each pair
/// sits on one shard (`owner[i] = i * shards / (2 * pairs)`).
fn pingpong_storm(pairs: usize, rounds: u64, shards: usize) -> (u64, u64) {
    let mut sim = Sim::new((), 1);
    for p in 0..pairs {
        let sleeper = NodeId(2 * p);
        sim.spawn(format!("sleeper{p}"), move |ctx| {
            for _ in 0..rounds {
                ctx.park();
            }
        });
        sim.spawn(format!("waker{p}"), move |ctx| {
            for _ in 0..rounds {
                ctx.advance(Dur::ns(100));
                ctx.unpark(sleeper);
                ctx.advance(Dur::ns(50));
            }
        });
    }
    let report = if shards <= 1 {
        sim.run().unwrap()
    } else {
        sim.run_parallel(shards).unwrap()
    };
    (report.end_time.as_ns(), report.events)
}

#[test]
fn pingpong_storm_parallel_matches_serial() {
    let serial = pingpong_storm(4, 250, 1);
    for shards in [2, 4] {
        assert_eq!(
            pingpong_storm(4, 250, shards),
            serial,
            "{shards} shards diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Adapter-level: the packet-stream bench workload, cross-shard traffic.
// ---------------------------------------------------------------------------

fn packet_stream(streams: usize, packets: u32, shards: usize) -> (u64, u64, u64) {
    let nodes = 2 * streams;
    let mut sim = Sim::new(SpWorld::<u32>::new(SpConfig::thin(nodes)), 1);
    for s in 0..streams {
        let rx_node = 2 * s + 1;
        sim.spawn(format!("tx{s}"), move |ctx| {
            for i in 0..packets {
                while host::send_fifo_free(ctx) == 0 {
                    ctx.advance(Dur::us(1.0));
                }
                host::send_packet(ctx, rx_node, 64, i).unwrap();
            }
        });
        sim.spawn(format!("rx{s}"), move |ctx| {
            for _ in 0..packets {
                let _ = host::spin_recv(ctx, Dur::ns(300));
            }
        });
    }
    let report = if shards <= 1 {
        sim.run().unwrap()
    } else {
        sim.run_parallel(shards).unwrap()
    };
    sp_fingerprint(&report)
}

#[test]
fn packet_stream_parallel_matches_serial() {
    // With 2 streams (4 nodes) and 2 shards, tx0/rx0 share a shard
    // (intra-shard two-phase) while on 4 shards every hop crosses shards.
    let serial = packet_stream(2, 500, 1);
    for shards in [2, 4] {
        assert_eq!(
            packet_stream(2, 500, shards),
            serial,
            "{shards} shards diverged"
        );
    }
}

#[test]
fn packet_stream_cross_shard_pair_matches_serial() {
    // 2 nodes / 2 shards: *every* packet is an inter-shard message.
    let serial = packet_stream(1, 500, 1);
    assert_eq!(packet_stream(1, 500, 2), serial);
}

/// Nodes 1, 2 and 3 each send one packet to node 0, and all three send
/// steps are due at the same instant and were scheduled at the same
/// instant, so the three packets contend for node 0's ejection link in
/// whatever order those steps run. Node 3 reaches the send first (its
/// wake was queued earliest), node 1 last. Returns the payloads (sender
/// ids) in arrival order, plus the run fingerprint.
fn same_instant_sends(shards: usize) -> (Vec<u32>, (u64, u64, u64)) {
    let nodes = 4;
    let mut sim = Sim::new(SpWorld::<u32>::new(SpConfig::thin(nodes)), 1);
    let arrivals = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let log = arrivals.clone();
    sim.spawn("rx", move |ctx| {
        for _ in 1..nodes {
            let pkt = host::spin_recv(ctx, Dur::ns(300));
            log.lock().unwrap().push(pkt.payload);
        }
    });
    for node in 1..nodes {
        sim.spawn(format!("tx{node}"), move |ctx| {
            // Every sender wakes at 10 us, each from a wake queued at a
            // different instant: node 3's at 10 ns, node 1's at 30 ns.
            let first = Dur::ns(10 * (nodes - node) as u64);
            ctx.advance(first);
            ctx.advance(Dur::us(10.0) - first);
            host::send_packet(ctx, 0, 64, node as u32).unwrap();
        });
    }
    let report = if shards <= 1 {
        sim.run().unwrap()
    } else {
        sim.run_parallel(shards).unwrap()
    };
    let order = arrivals.lock().unwrap().clone();
    (order, sp_fingerprint(&report))
}

/// Same-instant sends claim a shared link in one canonical order — node
/// order — at any shard count. When the barrier broke that tie by source
/// shard and the one-shard queue by insertion, the one-shard run
/// delivered `[3, 2, 1]`, 2 shards `[1, 3, 2]` and 4 shards `[1, 2, 3]`.
#[test]
fn same_instant_sends_claim_links_in_node_order() {
    let serial = same_instant_sends(1);
    assert_eq!(serial.0, vec![1, 2, 3], "one-shard run ranks sends by node");
    for shards in [2, 4] {
        assert_eq!(
            same_instant_sends(shards),
            serial,
            "{shards} shards diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// AM-protocol-level: loss-free request/reply + barrier workload.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct St {
    hits: u32,
}

fn count(env: &mut AmEnv<'_, St>, _args: AmArgs) {
    env.state.hits += 1;
}

/// A loss-free AM run: request storm to the right neighbor, then quiesce.
/// Returns the golden-style fingerprint (end, events, world hash).
fn am_ring(nodes: usize, requests: u32, shards: usize) -> (u64, u64, u64) {
    am_ring_on(SpConfig::thin(nodes), 1, requests, shards, |_| {})
}

/// [`am_ring`] on an arbitrary topology, each node sending `stride` nodes
/// round (a stride of half the machine puts every request on the
/// intermediate tier: cables, or a fat tree's up- and down-links), with a
/// pre-run machine hook for fault installation
/// ([`AmMachine::configure_world`] / [`AmMachine::schedule_world_at`]).
/// The fingerprint additionally covers the fault counters (dropped /
/// delayed / duplicated), so a shard-count-dependent fault classification
/// shows up as a hash mismatch.
fn am_ring_on(
    sp: SpConfig,
    stride: usize,
    requests: u32,
    shards: usize,
    setup: impl FnOnce(&mut AmMachine),
) -> (u64, u64, u64) {
    let nodes = sp.nodes;
    let sp = sp.parallel(shards);
    let cfg = AmConfig {
        keepalive_polls: 64,
        ..AmConfig::default()
    };
    let mut m = AmMachine::new(sp, cfg, 0xBEEF);
    setup(&mut m);
    for node in 0..nodes {
        m.spawn(
            format!("n{node}"),
            St::default(),
            move |am: &mut Am<'_, St>| {
                am.register(count);
                let right = (node + stride) % nodes;
                am.barrier();
                for i in 0..requests {
                    am.request_1(right, 0, i);
                    if i % 8 == 0 {
                        am.poll();
                    }
                }
                am.poll_until(|s| s.hits >= requests);
                am.quiesce();
                am.drain(sp_sim::Dur::ms(1.0));
            },
        );
    }
    let report = m.run().expect("am ring completes");
    let mut h = Fnv::new();
    h.u64(report.end_time.as_ns());
    h.u64(report.events);
    for node in 0..nodes {
        let a = report.world.adapter_stats(node);
        h.u64(a.sent);
        h.u64(a.received);
        h.u64(a.dropped_overflow);
        h.u64(a.doorbells);
        h.u64(a.lazy_pops);
        h.u64(a.recv_high_water as u64);
    }
    let s = report.world.switch.stats();
    h.u64(s.delivered);
    h.u64(s.wire_bytes);
    h.u64(s.hops);
    h.u64(s.dropped);
    h.u64(s.delayed);
    h.u64(s.duplicated);
    (report.end_time.as_ns(), report.events, h.finish())
}

#[test]
fn am_ring_parallel_matches_serial() {
    let serial = am_ring(4, 40, 1);
    for shards in [2, 4] {
        assert_eq!(am_ring(4, 40, shards), serial, "{shards} shards diverged");
    }
}

// ---------------------------------------------------------------------------
// Multi-frame topologies: the staged fabric pipeline under sharding.
// ---------------------------------------------------------------------------

#[test]
fn multi_frame_am_ring_parallel_matches_serial() {
    // 2 frames x 2 nodes: the ring 0→1→2→3→0 alternates same-frame hops
    // (2-link paths) and cross-frame hops (3-link paths over the shared
    // cable bundle), so per-packet claims interleave on every link class.
    let cfg = || SpConfig::multi_frame(2, 2);
    let serial = am_ring_on(cfg(), 1, 24, 1, |_| {});
    for shards in [2, 4] {
        assert_eq!(
            am_ring_on(cfg(), 1, 24, shards, |_| {}),
            serial,
            "{shards} shards diverged on 2x2 frames"
        );
    }
    // 4 frames x 1 node: every packet is cross-frame.
    let cfg = || SpConfig::multi_frame(4, 1);
    let serial = am_ring_on(cfg(), 1, 16, 1, |_| {});
    for shards in [2, 4] {
        assert_eq!(
            am_ring_on(cfg(), 1, 16, shards, |_| {}),
            serial,
            "{shards} shards diverged on 4x1 frames"
        );
    }
}

#[test]
fn multi_frame_packet_stream_parallel_matches_serial() {
    // Raw adapter-level streams across a frame pair: nodes 0,1 (frame 0)
    // stream to 2,3 (frame 1), sharing the inter-frame cable bundle.
    let run = |shards: usize| {
        let mut sim = Sim::new(SpWorld::<u32>::new(SpConfig::multi_frame(2, 2)), 1);
        for s in 0..2usize {
            let rx_node = s + 2;
            sim.spawn(format!("tx{s}"), move |ctx| {
                for i in 0..300u32 {
                    while host::send_fifo_free(ctx) == 0 {
                        ctx.advance(Dur::us(1.0));
                    }
                    host::send_packet(ctx, rx_node, 64, i).unwrap();
                }
            });
        }
        for s in 0..2usize {
            sim.spawn(format!("rx{s}"), move |ctx| {
                for _ in 0..300u32 {
                    let _ = host::spin_recv(ctx, Dur::ns(300));
                }
            });
        }
        let report = if shards <= 1 {
            sim.run().unwrap()
        } else {
            sim.run_parallel(shards).unwrap()
        };
        sp_fingerprint(&report)
    };
    let serial = run(1);
    for shards in [2, 4] {
        assert_eq!(run(shards), serial, "{shards} shards diverged");
    }
}

// ---------------------------------------------------------------------------
// Fault injection: injectors classify at each packet's owning shard.
// ---------------------------------------------------------------------------

/// Installs a seeded global injector (drop/dup/delay indices plus a
/// Bernoulli drop window) and a per-link drop on node 0's injection link.
/// The AM protocol retransmits through all of it, so the run completes;
/// the fingerprint covers every fault counter.
fn install_chaos_faults(m: &mut AmMachine) {
    m.configure_world(|w| {
        let mut inj = FaultInjector::with_seed(0xFA117);
        inj.drop_indices.insert(3);
        inj.dup_indices.insert(5);
        inj.delay_indices.insert(7);
        inj.drop_probability = 0.05;
        w.switch.set_fault_injector(inj);
        let mut link = FaultInjector::none();
        link.drop_every_nth = Some(9);
        w.switch.set_link_fault_injector(0, link);
    });
}

#[test]
fn faulted_am_ring_parallel_matches_serial() {
    // Single frame (but a live global injector forces the staged pipeline
    // under sharding) …
    let serial = am_ring_on(SpConfig::thin(4), 1, 24, 1, install_chaos_faults);
    for shards in [2, 4] {
        assert_eq!(
            am_ring_on(SpConfig::thin(4), 1, 24, shards, install_chaos_faults),
            serial,
            "{shards} shards diverged under faults (single frame)"
        );
    }
    // … and across a frame pair, where cable stages classify too.
    let serial = am_ring_on(SpConfig::multi_frame(2, 2), 1, 16, 1, install_chaos_faults);
    for shards in [2, 4] {
        assert_eq!(
            am_ring_on(
                SpConfig::multi_frame(2, 2),
                1,
                16,
                shards,
                install_chaos_faults
            ),
            serial,
            "{shards} shards diverged under faults (2 frames)"
        );
    }
}

/// Seeded chaos schedules end-to-end: the full campaign machinery (random
/// fault schedules, invariant checks, formatted reports) must produce
/// byte-identical reports under sharding. This sweeps every fault class
/// the generator emits — index faults, probabilistic windows, FIFO
/// shrinks, send/recv stalls, pauses, and mid-run cable kills — on both
/// single- and two-frame machines.
#[test]
fn chaos_schedules_parallel_match_serial() {
    use sp_chaos::{judge, random_schedule, Workload};
    for w in [Workload::PingPong, Workload::MpiExchange] {
        for seed in 0..4u64 {
            let s = random_schedule(w, 7_000 + seed);
            let serial = judge(&s, 1);
            for shards in [2usize, 4] {
                let sharded = judge(&s, shards);
                assert_eq!(
                    serial.report, sharded.report,
                    "workload {w:?} seed {} diverged at {shards} shards",
                    s.seed
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pre-scheduled world events: the dead-cable experiment under sharding.
// ---------------------------------------------------------------------------

/// Kills cable lane 0 of the frame pair (both directions) at 150 us —
/// the `topo` fault-latency experiment's world event, scheduled through
/// [`AmMachine::schedule_world_at`] and broadcast to every shard.
fn kill_cable_mid_run(m: &mut AmMachine) {
    m.schedule_world_at(Time(150_000), |w| {
        for (from, to) in [(0usize, 1usize), (1, 0)] {
            let link = w.switch.topology().cable(from, to, 0);
            let mut dead = FaultInjector::none();
            dead.drop_every_nth = Some(1);
            w.switch.set_link_fault_injector(link, dead);
        }
    });
}

#[test]
fn world_event_cable_kill_parallel_matches_serial() {
    for policy in [RoutePolicy::RoundRobin, RoutePolicy::Adaptive] {
        let cfg = || SpConfig::multi_frame(2, 2).routed(policy);
        let serial = am_ring_on(cfg(), 1, 24, 1, kill_cable_mid_run);
        assert_ne!(
            serial,
            am_ring_on(cfg(), 1, 24, 1, |_| {}),
            "{policy:?}: the cable kill must actually change the run"
        );
        for shards in [2, 4] {
            assert_eq!(
                am_ring_on(cfg(), 1, 24, shards, kill_cable_mid_run),
                serial,
                "{policy:?}: {shards} shards diverged with a mid-run cable kill"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Adaptive routing: the route choice runs on the fabric shard.
// ---------------------------------------------------------------------------

/// Per-link faults on the tier adaptive routing scores: the first cable
/// or up-link is severed (masked out of selection), and the next one
/// drops every 7th packet crossing it (which the policy cannot see).
fn install_xlink_faults(m: &mut AmMachine) {
    m.configure_world(|w| {
        let first = 2 * w.nodes();
        let mut dead = FaultInjector::none();
        dead.drop_every_nth = Some(1);
        w.switch.set_link_fault_injector(first as LinkId, dead);
        let mut lossy = FaultInjector::none();
        lossy.drop_every_nth = Some(7);
        w.switch
            .set_link_fault_injector((first + 1) as LinkId, lossy);
    });
}

/// Every node of a 2-frame machine and of a 3-tier fat tree sends half-way
/// round, so every request crosses the intermediate tier and adaptive
/// routing has occupancy to dodge: its choice must change the run, or the
/// serial ≡ sharded proptest below (`prop_adaptive_configs_equivalent`)
/// would compare round-robin runs under another name.
#[test]
fn adaptive_routing_changes_cross_traffic() {
    for topo in [
        Topology::multi_frame(2, 3),
        Topology::fat_tree_custom(3, 2, 1, 2, 2),
    ] {
        let stride = topo.nodes() / 2;
        let run = |policy| {
            let sp = SpConfig::with_topology(topo.clone()).routed(policy);
            am_ring_on(sp, stride, 24, 1, |_| {})
        };
        assert_ne!(
            run(RoutePolicy::Adaptive),
            run(RoutePolicy::RoundRobin),
            "{topo:?}: adaptive must choose differently from round-robin"
        );
    }
}

// ---------------------------------------------------------------------------
// Shard-count clamping is reported, not silent.
// ---------------------------------------------------------------------------

#[test]
fn clamped_shard_count_is_recorded_in_report() {
    let nodes = 4;
    let sp = SpConfig::thin(nodes).parallel(8); // more shards than nodes
    let mut m = AmMachine::new(sp, AmConfig::default(), 7);
    for node in 0..nodes {
        m.spawn(
            format!("n{node}"),
            St::default(),
            move |am: &mut Am<'_, St>| {
                am.register(count);
                let right = (node + 1) % nodes;
                am.barrier();
                am.request_1(right, 0, 1);
                am.poll_until(|s| s.hits >= 1);
                am.quiesce();
                am.drain(sp_sim::Dur::ms(1.0));
            },
        );
    }
    let report = m.run().unwrap();
    assert_eq!(report.shards_requested, 8, "requested count is recorded");
    assert_eq!(report.shards.len(), nodes, "effective count is clamped");
}

/// Stress the inter-shard channel hand-off ordering: a small cross-shard
/// workload repeated many times must produce one identical fingerprint —
/// any OS-scheduling-dependent barrier/deposit ordering shows up here as a
/// flaky mismatch.
#[test]
fn cross_shard_handoff_ordering_is_stable() {
    let serial = packet_stream(1, 60, 1);
    for round in 0..25 {
        assert_eq!(
            packet_stream(1, 60, 2),
            serial,
            "round {round} diverged from serial"
        );
    }
    let serial = am_ring(4, 12, 1);
    for round in 0..10 {
        assert_eq!(
            am_ring(4, 12, 4),
            serial,
            "AM round {round} diverged from serial"
        );
    }
}

// ---------------------------------------------------------------------------
// NAS-kernel-level: a full MPI application through the sharded engine.
// ---------------------------------------------------------------------------

#[test]
fn nas_mg_parallel_matches_serial() {
    let run = |shards: usize| {
        run_kernel_on(
            Kernel::Mg,
            MpiImpl::AmOptimized,
            SpConfig::thin(4).parallel(shards),
            11,
            NasClass::Reduced,
        )
    };
    let (serial_res, serial_run) = run(1);
    for shards in [2, 4] {
        let (res, rep) = run(shards);
        assert_eq!(res.time, serial_res.time, "{shards} shards: timed section");
        assert_eq!(
            res.checksum.to_bits(),
            serial_res.checksum.to_bits(),
            "{shards} shards: residual"
        );
        assert_eq!(rep.end_ns, serial_run.end_ns, "{shards} shards: end time");
        assert_eq!(rep.events, serial_run.events, "{shards} shards: events");
        assert_eq!(
            rep.report_hash, serial_run.report_hash,
            "{shards} shards: world hash"
        );
        assert_eq!(rep.shards.len(), shards);
    }
}

// ---------------------------------------------------------------------------
// Property: random ping-pong / streaming configurations stay equivalent.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Random park/unpark ping-pong configurations: any pair count that
    /// keeps each pair on one shard (a multiple of the shard count; an
    /// unpark cannot cross shards) and any round count must agree between
    /// 1 shard and 2 or 4.
    #[test]
    fn prop_pingpong_configs_equivalent(
        pairs_per_shard in 1usize..3,
        rounds in 1u64..40,
    ) {
        for shards in [2usize, 4] {
            let pairs = pairs_per_shard * shards;
            let serial = pingpong_storm(pairs, rounds, 1);
            prop_assert_eq!(pingpong_storm(pairs, rounds, shards), serial);
        }
    }

    /// Random adaptive-routing configurations: a multi-frame fabric or a
    /// fat tree, any request count and stride, with or without per-link
    /// faults on the scored tier, must agree between 1, 2, and 4 shards.
    #[test]
    fn prop_adaptive_configs_equivalent(
        fat_tree in any::<bool>(),
        faults in any::<bool>(),
        requests in 1u32..32,
        stride in 1usize..8,
    ) {
        let topo = if fat_tree {
            Topology::fat_tree_custom(3, 2, 1, 2, 2)
        } else {
            Topology::multi_frame(2, 3)
        };
        let stride = 1 + (stride - 1) % (topo.nodes() - 1);
        let sp = SpConfig::with_topology(topo).routed(RoutePolicy::Adaptive);
        let setup: fn(&mut AmMachine) = if faults { install_xlink_faults } else { |_| {} };
        let serial = am_ring_on(sp.clone(), stride, requests, 1, setup);
        for shards in [2usize, 4] {
            prop_assert_eq!(am_ring_on(sp.clone(), stride, requests, shards, setup), serial);
        }
    }

    /// Random streaming configurations: stream count, packet count, and
    /// payload size must agree between 1, 2, and 4 shards — full
    /// fingerprint including per-adapter and switch counters.
    #[test]
    fn prop_streaming_configs_equivalent(
        streams in 1usize..3,
        packets in 1u32..60,
        payload in 1usize..224,
    ) {
        let serial = stream_with_payload(streams, packets, payload, 1);
        for shards in [2usize, 4] {
            prop_assert_eq!(
                stream_with_payload(streams, packets, payload, shards),
                serial
            );
        }
    }
}

/// `packet_stream` with a configurable payload size (proptest driver).
fn stream_with_payload(
    streams: usize,
    packets: u32,
    payload: usize,
    shards: usize,
) -> (u64, u64, u64) {
    let nodes = 2 * streams;
    let mut sim = Sim::new(SpWorld::<u32>::new(SpConfig::thin(nodes)), 1);
    for s in 0..streams {
        let rx_node = 2 * s + 1;
        sim.spawn(format!("tx{s}"), move |ctx| {
            for i in 0..packets {
                while host::send_fifo_free(ctx) == 0 {
                    ctx.advance(Dur::us(1.0));
                }
                host::send_packet(ctx, rx_node, payload, i).unwrap();
            }
        });
        sim.spawn(format!("rx{s}"), move |ctx| {
            for _ in 0..packets {
                let _ = host::spin_recv(ctx, Dur::ns(300));
            }
        });
    }
    let report = if shards <= 1 {
        sim.run().unwrap()
    } else {
        sim.run_parallel(shards).unwrap()
    };
    sp_fingerprint(&report)
}

#[test]
fn parallel_report_surfaces_shard_breakdown() {
    let nodes = 4;
    let sp = SpConfig::thin(nodes).parallel(2);
    let mut m = AmMachine::new(sp, AmConfig::default(), 7);
    for node in 0..nodes {
        m.spawn(
            format!("n{node}"),
            St::default(),
            move |am: &mut Am<'_, St>| {
                am.register(count);
                let right = (node + 1) % nodes;
                am.barrier();
                am.request_1(right, 0, 1);
                am.poll_until(|s| s.hits >= 1);
                am.quiesce();
                am.drain(sp_sim::Dur::ms(1.0));
            },
        );
    }
    let report = m.run().unwrap();
    assert_eq!(report.shards.len(), 2);
    assert_eq!(report.shards.iter().map(|s| s.nodes).sum::<usize>(), nodes);
    assert_eq!(
        report.shards.iter().map(|s| s.events).sum::<u64>(),
        report.events
    );
    assert!(report.windows > 0, "a sharded run advances through windows");
    assert!(
        report.sync_events > 0,
        "cross-shard packets ride sync events"
    );
}
