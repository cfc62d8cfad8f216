//! End-to-end reliability-layer tests on a real two-node machine:
//! crash/restart with the incarnation-epoch handshake, and the adaptive
//! (RTT-estimated RTO + SACK) mode under random loss — exercising the
//! full port/adapter/switch stack rather than the channel state machines.

use sp_adapter::SpConfig;
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine, AmStats, ReliabilityConfig};
use sp_switch::FaultInjector;
use std::sync::Arc;

#[derive(Default)]
struct St {
    bits: u32,
    count: u32,
}

fn set_bit(env: &mut AmEnv<'_, St>, args: AmArgs) {
    env.state.bits |= args.a[0];
}

#[test]
fn crash_restart_epoch_handshake_redelivers_everything() {
    // The receiver crashes after the first delivery: its adapter FIFOs and
    // all AM channel state are wiped, it stays dark for 200µs, then
    // restarts with a bumped incarnation epoch. The sender's channels must
    // reincarnate and replay, and every request must still land (handlers
    // are idempotent bit-sets, since crash-straddling packets may
    // legitimately be redelivered).
    let n = 20u32;
    let goal = (1u64 << n) as u32 - 1;
    let cfg = AmConfig {
        keepalive_polls: 32,
        ..AmConfig::default()
    };
    let mut m = AmMachine::new(SpConfig::thin(2), cfg, 7);
    let stats = Arc::new(parking_lot::Mutex::new((
        AmStats::default(),
        AmStats::default(),
    )));
    let (s0, s1) = (stats.clone(), stats.clone());
    m.spawn("sender", St::default(), move |am: &mut Am<'_, St>| {
        am.register(set_bit);
        for i in 0..n {
            am.request_1(1, 0, 1 << i);
        }
        am.quiesce(); // every request acked by the *new* incarnation
        s0.lock().0 = am.stats().clone();
    });
    m.spawn("receiver", St::default(), move |am: &mut Am<'_, St>| {
        am.register(set_bit);
        am.poll_until(|s| s.bits != 0);
        am.crash_restart(sp_sim::Dur::us(200.0));
        am.poll_until(|s| s.bits == goal);
        // Serve the sender's recovery traffic before exiting.
        am.drain(sp_sim::Dur::ms(5.0));
        s1.lock().1 = am.stats().clone();
    });
    m.run().unwrap();
    let (tx, rx) = &*stats.lock();
    assert_eq!(rx.restarts, 1, "exactly one crash/restart");
    assert_eq!(rx.epoch, 1, "restart must bump the incarnation epoch");
    assert!(rx.recovery_ns > 0, "restart must clock time-to-recover");
    assert!(
        tx.packets_retransmitted > 0,
        "the wiped window can only arrive by retransmission"
    );
}

#[test]
fn keepalive_probe_answers_are_not_loss_nacks() {
    // Lossless: the receiver computes for 500 µs before it first polls, so
    // the sender's idle polls trip keep-alive probes. Each answer lands in
    // the probe-answer counters; no NACK is ever sent for a loss.
    let cfg = AmConfig {
        keepalive_polls: 4,
        ..AmConfig::default()
    };
    let mut m = AmMachine::new(SpConfig::thin(2), cfg, 1);
    m.spawn("sender", St::default(), |am: &mut Am<'_, St>| {
        am.register(set_bit);
        for i in 0..4 {
            am.request_1(1, 0, 1 << i);
        }
        am.quiesce();
    });
    m.spawn("receiver", St::default(), |am: &mut Am<'_, St>| {
        am.register(set_bit);
        am.work(sp_sim::Dur::us(500.0));
        am.poll_until(|s| s.bits == 0xF);
        am.drain(sp_sim::Dur::ms(1.0));
    });
    let report = m.run().unwrap();
    assert_eq!(
        report.switch_dropped + report.dropped_overflow,
        0,
        "lossless"
    );
    let (tx, rx) = (&report.am_stats[0], &report.am_stats[1]);
    assert!(tx.probes_sent > 0, "keep-alive must fire: {tx:?}");
    assert_eq!(
        (
            tx.nacks_sent,
            tx.nacks_received,
            rx.nacks_sent,
            rx.nacks_received
        ),
        (0, 0, 0, 0)
    );
    assert!(rx.probe_answers_sent > 0, "{rx:?}");
    assert!(tx.probe_answers_received > 0, "{tx:?}");
}

/// 300 in-order requests under 5% random loss; returns (sender, receiver)
/// stats after full quiescence.
fn run_lossy(rel: ReliabilityConfig) -> (AmStats, AmStats) {
    fn ordered(env: &mut AmEnv<'_, St>, args: AmArgs) {
        assert_eq!(args.a[0], env.state.count, "delivery must stay in order");
        env.state.count += 1;
    }
    let cfg = AmConfig {
        keepalive_polls: 64,
        reliability: rel,
        ..AmConfig::default()
    };
    let mut m = AmMachine::new(SpConfig::thin(2), cfg, 3);
    m.configure_world(|w| {
        w.switch
            .set_fault_injector(FaultInjector::bernoulli(0.05, 5))
    });
    let stats = Arc::new(parking_lot::Mutex::new((
        AmStats::default(),
        AmStats::default(),
    )));
    let (s0, s1) = (stats.clone(), stats.clone());
    m.spawn("sender", St::default(), move |am: &mut Am<'_, St>| {
        am.register(ordered);
        for i in 0..300u32 {
            am.request_1(1, 0, i);
        }
        am.quiesce();
        s0.lock().0 = am.stats().clone();
    });
    m.spawn("receiver", St::default(), move |am: &mut Am<'_, St>| {
        am.register(ordered);
        am.poll_until(|s| s.count == 300);
        am.drain(sp_sim::Dur::ms(5.0));
        s1.lock().1 = am.stats().clone();
    });
    m.run().unwrap();
    let (tx, rx) = &*stats.lock();
    (tx.clone(), rx.clone())
}

#[test]
fn adaptive_mode_survives_loss_and_attributes_every_retransmit() {
    let (tx, rx) = run_lossy(ReliabilityConfig::adaptive());
    assert!(tx.packets_retransmitted > 0, "5% loss must force recovery");
    assert!(
        tx.rtx_timeout + tx.rtx_sack_gap + tx.rtx_keepalive > 0,
        "adaptive retransmits must carry a cause"
    );
    assert!(
        rx.ooo_buffered > 0,
        "SACK mode must hold out-of-order packets instead of dropping them"
    );
    assert_eq!(rx.ooo_dropped, 0, "nothing should be go-back-N discarded");
}

#[test]
fn legacy_mode_never_uses_the_adaptive_machinery() {
    let (tx, rx) = run_lossy(ReliabilityConfig::default());
    assert!(tx.packets_retransmitted > 0, "5% loss must force recovery");
    assert_eq!(tx.rtx_timeout, 0, "no adaptive RTO in legacy mode");
    assert_eq!(tx.rtx_sack_gap, 0, "no SACK gaps in legacy mode");
    assert_eq!(rx.ooo_buffered, 0, "legacy receivers drop out-of-order");
}

#[test]
fn busy_peer_set_spans_words_through_a_crash() {
    // 130 nodes put each port's busy-peer set across three 64-bit words.
    // Node 0 stores to peers on both sides of each word boundary while peer
    // 64 crashes before anything reaches it, so the sender's walk must keep
    // every target busy through adaptive RTOs, the epoch adoption and the
    // replay. The debug check after every poll compares the set against a
    // full scan; here every store must land exactly once and every node's
    // `quiesce` must return.
    const TARGETS: [usize; 5] = [1, 63, 64, 127, 129];
    const CRASHED: usize = 64;
    const STORES: usize = 3;
    const LEN: u32 = 3000;
    #[derive(Default)]
    struct Hits([u32; STORES]);
    fn landed(env: &mut AmEnv<'_, Hits>, args: AmArgs) {
        env.state.0[args.a[0] as usize] += 1;
    }
    let cfg = AmConfig {
        keepalive_polls: 32,
        reliability: ReliabilityConfig::adaptive(),
        ..AmConfig::default()
    };
    let mut m = AmMachine::new(SpConfig::multi_frame(10, 13), cfg, 5);
    assert_eq!(m.nodes(), 130);
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let quiesced = Arc::new(parking_lot::Mutex::new(0usize));
    let (seen2, quiesced2) = (seen.clone(), quiesced.clone());
    m.spawn_all(
        |_| Hits::default(),
        move |am: &mut Am<'_, Hits>| {
            let h = am.register(landed);
            let me = am.node();
            if me == 0 {
                let data = vec![0xA5u8; LEN as usize];
                for i in 0..STORES {
                    for &dst in &TARGETS {
                        let to = sp_am::GlobalPtr {
                            node: dst,
                            addr: i as u32 * LEN,
                        };
                        am.store_async(to, &data, Some(h), &[i as u32], None);
                    }
                }
                am.quiesce();
            } else if TARGETS.contains(&me) {
                am.alloc(STORES as u32 * LEN);
                if me == CRASHED {
                    am.crash_restart(sp_sim::Dur::us(200.0));
                }
                am.poll_until(|s| s.0.iter().all(|&c| c > 0));
                am.quiesce();
                // Serve the sender's last acks before exiting.
                am.drain_quiet(sp_sim::Dur::ms(1.0));
                seen2.lock().push((me, am.state().0));
            } else {
                am.quiesce();
            }
            *quiesced2.lock() += 1;
        },
    );
    let report = m.run().unwrap();
    assert_eq!(*quiesced.lock(), 130, "every node's quiesce returns");
    let mut seen = seen.lock().clone();
    seen.sort();
    assert_eq!(
        seen,
        TARGETS.map(|t| (t, [1; STORES])),
        "every store lands exactly once"
    );
    assert_eq!(report.am_stats[CRASHED].restarts, 1);
    assert!(
        report.am_stats[0].packets_retransmitted > 0,
        "the crashed peer's stores can only land by replay"
    );
}
