//! Golden determinism test: a fixed-seed, 4-node, lossy-switch AM run must
//! reproduce an exact `(end_time, events)` pair and world-trace hash —
//! run-to-run *and* commit-to-commit. Engine changes (how a node yields and
//! resumes, allocation-free hot events) must not move virtual time by a
//! single nanosecond; if this test fails after an engine change, the change
//! altered simulation semantics, not just performance.
//!
//! To reprint the current values (e.g. after an *intentional* protocol
//! change): `SP_GOLDEN_PRINT=1 cargo test -p sp-integration golden -- --nocapture`

use sp_adapter::{RoutePolicy, SpConfig};
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine, AmStats, GlobalPtr};
use sp_switch::FaultInjector;

#[derive(Default)]
struct St {
    hits: u32,
    stores: u32,
}

fn count(env: &mut AmEnv<'_, St>, _args: AmArgs) {
    env.state.hits += 1;
}

fn store_done(env: &mut AmEnv<'_, St>, _args: AmArgs) {
    env.state.stores += 1;
}

const NODES: usize = 4;
const SEED: u64 = 0xC0FFEE;
const LOSS: f64 = 0.02;
const REQUESTS: u32 = 40;
const STORE_LEN: usize = 3 * 1024;

/// One full fixed-seed lossy run; returns `(end_time_ns, events, world_hash)`.
fn golden_run() -> (u64, u64, u64) {
    let cfg = AmConfig {
        keepalive_polls: 64,
        ..AmConfig::default()
    };
    let mut m = AmMachine::new(SpConfig::thin(NODES), cfg, SEED);
    m.configure_world(|w| {
        w.switch
            .set_fault_injector(FaultInjector::bernoulli(LOSS, SEED))
    });
    for node in 0..NODES {
        m.mem().alloc(node, STORE_LEN as u32);
    }
    for node in 0..NODES {
        m.spawn(
            format!("n{node}"),
            St::default(),
            move |am: &mut Am<'_, St>| {
                am.register(count);
                am.register(store_done);
                let right = (node + 1) % NODES;
                am.barrier();
                // Request stream to the right neighbor, under loss.
                for i in 0..REQUESTS {
                    am.request_1(right, 0, i);
                    if i % 8 == 0 {
                        am.poll();
                    }
                }
                // Bulk store to the same neighbor: exercises the chunk
                // protocol + firmware event chains.
                let data: Vec<u8> = (0..STORE_LEN).map(|i| (i as u8) ^ (node as u8)).collect();
                am.store(
                    GlobalPtr {
                        node: right,
                        addr: 0,
                    },
                    &data,
                    Some(1),
                    &[],
                );
                // Serve peers until everyone's traffic landed, then drain so
                // retransmission recovery can finish cluster-wide.
                am.poll_until(|s| s.hits >= REQUESTS && s.stores >= 1);
                am.quiesce();
                am.drain(sp_sim::Dur::ms(5.0));
            },
        );
    }
    let report = m.run().expect("golden run completes");

    // World-trace hash: FNV-1a over the observable end state — virtual
    // time, per-adapter counters, switch counters, and every stored byte.
    let mut h = Fnv::new();
    h.u64(report.end_time.as_ns());
    h.u64(report.events);
    for node in 0..NODES {
        let a = report.world.adapter_stats(node);
        h.u64(a.sent);
        h.u64(a.received);
        h.u64(a.dropped_overflow);
        h.u64(a.doorbells);
        h.u64(a.lazy_pops);
        h.u64(a.recv_high_water as u64);
        h.bytes(&report.mem.read_vec(GlobalPtr { node, addr: 0 }, STORE_LEN));
    }
    let s = report.world.switch.stats();
    h.u64(s.delivered);
    h.u64(s.dropped);
    h.u64(s.delayed);
    h.u64(s.wire_bytes);
    (report.end_time.as_ns(), report.events, h.finish())
}

/// The multi-frame sibling of [`golden_run`]: the same fixed-seed lossy
/// workload on a 2-frame machine under the *adaptive* routing policy, so
/// the occupancy-aware route choice itself is pinned. The hash extends the
/// single-frame one with each node's final [`AmStats`] — any change to how
/// adaptive selection feeds back into protocol behaviour (retransmissions,
/// NACKs, delivery counts) moves it.
fn golden_run_multi_adaptive() -> (u64, u64, u64) {
    let cfg = AmConfig {
        keepalive_polls: 64,
        ..AmConfig::default()
    };
    let sp = SpConfig::multi_frame(2, 2).routed(RoutePolicy::Adaptive);
    let mut m = AmMachine::new(sp, cfg, SEED);
    m.configure_world(|w| {
        w.switch
            .set_fault_injector(FaultInjector::bernoulli(LOSS, SEED))
    });
    for node in 0..NODES {
        m.mem().alloc(node, STORE_LEN as u32);
    }
    let stats: std::sync::Arc<std::sync::Mutex<Vec<(usize, AmStats)>>> = Default::default();
    for node in 0..NODES {
        let stats = stats.clone();
        m.spawn(
            format!("n{node}"),
            St::default(),
            move |am: &mut Am<'_, St>| {
                am.register(count);
                am.register(store_done);
                let right = (node + 1) % NODES; // 1->2 and 3->0 cross frames
                am.barrier();
                for i in 0..REQUESTS {
                    am.request_1(right, 0, i);
                    if i % 8 == 0 {
                        am.poll();
                    }
                }
                let data: Vec<u8> = (0..STORE_LEN).map(|i| (i as u8) ^ (node as u8)).collect();
                am.store(
                    GlobalPtr {
                        node: right,
                        addr: 0,
                    },
                    &data,
                    Some(1),
                    &[],
                );
                am.poll_until(|s| s.hits >= REQUESTS && s.stores >= 1);
                am.quiesce();
                am.drain(sp_sim::Dur::ms(5.0));
                stats.lock().unwrap().push((node, am.stats().clone()));
            },
        );
    }
    let report = m.run().expect("multi-frame adaptive golden run completes");

    let mut h = Fnv::new();
    h.u64(report.end_time.as_ns());
    h.u64(report.events);
    for node in 0..NODES {
        let a = report.world.adapter_stats(node);
        h.u64(a.sent);
        h.u64(a.received);
        h.u64(a.dropped_overflow);
        h.u64(a.doorbells);
        h.u64(a.lazy_pops);
        h.u64(a.recv_high_water as u64);
        h.bytes(&report.mem.read_vec(GlobalPtr { node, addr: 0 }, STORE_LEN));
    }
    let s = report.world.switch.stats();
    h.u64(s.delivered);
    h.u64(s.dropped);
    h.u64(s.delayed);
    h.u64(s.wire_bytes);
    h.u64(s.hops);
    let mut stats = stats.lock().unwrap().clone();
    stats.sort_by_key(|(node, _)| *node);
    for (node, st) in &stats {
        h.u64(*node as u64);
        h.u64(st.requests_sent);
        h.u64(st.replies_sent);
        h.u64(st.packets_sent);
        h.u64(st.packets_retransmitted);
        h.u64(st.packets_received);
        h.u64(st.shorts_delivered);
        h.u64(st.data_packets_delivered);
        h.u64(st.bulk_bytes_delivered);
        h.u64(st.dup_dropped);
        h.u64(st.ooo_dropped);
        // Every NACK-shaped control packet, loss NACK or keep-alive probe
        // answer alike.
        h.u64(st.nacks_sent + st.probe_answers_sent);
        h.u64(st.nacks_received + st.probe_answers_received);
    }
    (report.end_time.as_ns(), report.events, h.finish())
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The pinned golden values. An engine perf change must never move these;
/// a deliberate protocol/cost-model change may — reprint and update with
/// `SP_GOLDEN_PRINT=1` (and say why in the commit).
///
/// How a node yields and resumes must not move them, and they are
/// byte-identical with and without the tracing hooks compiled in.
///
/// These pins also encode the single-frame equivalence guarantee of the
/// topology-aware fabric: `SwitchConfig::default()` on
/// `Topology::single_frame(n)` (what `SpConfig::thin` builds, and what
/// this run uses) must reproduce the historical two-endpoint wormhole
/// recurrence exactly — per-link occupancy and the fault-model fixes both
/// leave this run byte-identical.
const GOLDEN_END_NS: u64 = 6_642_255;
const GOLDEN_EVENTS: u64 = 36_135;
const GOLDEN_HASH: u64 = 0xEB6B_8367_9ED3_66C6;

#[test]
fn golden_lossy_run_is_pinned() {
    let (end_ns, events, hash) = golden_run();
    if std::env::var("SP_GOLDEN_PRINT").is_ok_and(|v| v == "1") {
        println!("golden: end_ns={end_ns} events={events} hash={hash:#018X}");
    }
    assert_eq!(end_ns, GOLDEN_END_NS, "virtual end time moved");
    assert_eq!(events, GOLDEN_EVENTS, "event count moved");
    assert_eq!(hash, GOLDEN_HASH, "world-trace hash moved");
}

/// Pins for the multi-frame adaptive sibling run (same reprint protocol:
/// `SP_GOLDEN_PRINT=1`). These fence the first change where link-occupancy
/// bookkeeping feeds back into routing decisions: any later tweak to the
/// contention metric or tie-break moves these values, deliberately.
const GOLDEN_MF_END_NS: u64 = 6_016_060;
const GOLDEN_MF_EVENTS: u64 = 34_802;
const GOLDEN_MF_HASH: u64 = 0xE2D8_FCBA_9C7E_FA87;

#[test]
fn golden_multi_frame_adaptive_run_is_pinned() {
    let (end_ns, events, hash) = golden_run_multi_adaptive();
    if std::env::var("SP_GOLDEN_PRINT").is_ok_and(|v| v == "1") {
        println!("golden-mf-adaptive: end_ns={end_ns} events={events} hash={hash:#018X}");
    }
    assert_eq!(end_ns, GOLDEN_MF_END_NS, "virtual end time moved");
    assert_eq!(events, GOLDEN_MF_EVENTS, "event count moved");
    assert_eq!(hash, GOLDEN_MF_HASH, "world-trace + AmStats hash moved");
}

#[test]
fn golden_multi_frame_adaptive_run_repeats_identically() {
    assert_eq!(
        golden_run_multi_adaptive(),
        golden_run_multi_adaptive(),
        "same seed must reproduce bit-identical runs"
    );
}

#[test]
fn golden_run_repeats_identically() {
    assert_eq!(
        golden_run(),
        golden_run(),
        "same seed must reproduce bit-identical runs"
    );
}
