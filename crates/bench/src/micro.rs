//! SP AM / MPL microbenchmarks: Table 2 (call costs), §2.3 (round-trip
//! latencies), §2.4/Figure 3 (bandwidth curves and half-power points),
//! Table 3 (the summary).

use crate::fmt::Series;
use crate::Tally;
use parking_lot::Mutex;
use sp_adapter::{host, SpConfig, SpWorld};
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine, GlobalPtr};
use sp_mpl::{Mpl, MplConfig, MplMachine};
use sp_sim::{Dur, Sim};
use std::sync::Arc;

// ------------------------------------------------------------ round trips

#[derive(Default)]
struct PingSt {
    pongs: u32,
    pings: u32,
    reply_cost_ns: u64,
    replies: u32,
}

fn pong_handler(env: &mut AmEnv<'_, PingSt>, args: AmArgs) {
    env.state.pings += 1;
    let t0 = env.now();
    match args.nargs {
        1 => env.reply_1(1, 0),
        2 => env.reply_2(1, 0, 0),
        3 => env.reply_3(1, 0, 0, 0),
        _ => env.reply_4(1, 0, 0, 0, 0),
    }
    let dt = env.now() - t0;
    env.state.reply_cost_ns += dt.as_ns();
    env.state.replies += 1;
}

fn done_handler(env: &mut AmEnv<'_, PingSt>, _args: AmArgs) {
    env.state.pongs += 1;
}

/// One-word (`words` = 1..4) AM round-trip time in µs, plus the measured
/// `am_reply_N` call cost.
pub fn am_round_trip(words: u8, iters: u32, t: &mut Tally) -> (f64, f64) {
    let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 42);
    let out = Arc::new(Mutex::new((0.0f64, 0.0f64)));
    let out2 = out.clone();
    m.spawn(
        "pinger",
        PingSt::default(),
        move |am: &mut Am<'_, PingSt>| {
            am.register(pong_handler);
            am.register(done_handler);
            let send = |am: &mut Am<'_, PingSt>| match words {
                1 => am.request_1(1, 0, 0),
                2 => am.request_2(1, 0, 0, 0),
                3 => am.request_3(1, 0, 0, 0, 0),
                _ => am.request_4(1, 0, 0, 0, 0, 0),
            };
            send(am);
            am.poll_until(|s| s.pongs >= 1);
            let t0 = am.now();
            for i in 0..iters {
                send(am);
                am.poll_until(move |s| s.pongs >= i + 2);
            }
            out2.lock().0 = (am.now() - t0).as_us() / iters as f64;
        },
    );
    let out3 = out.clone();
    m.spawn(
        "ponger",
        PingSt::default(),
        move |am: &mut Am<'_, PingSt>| {
            am.register(pong_handler);
            am.register(done_handler);
            am.poll_until(move |s| s.pings > iters);
            let st = am.state();
            out3.lock().1 = st.reply_cost_ns as f64 / st.replies as f64 / 1000.0;
        },
    );
    t.add(&m.run().expect("ping-pong completes"));
    let v = *out.lock();
    v
}

/// Raw (protocol-less) one-word round trip over the bare adapter, µs.
pub fn raw_round_trip(iters: u32, t: &mut Tally) -> f64 {
    let mut sim = Sim::new(SpWorld::<u8>::new(SpConfig::thin(2)), 42);
    let out = Arc::new(Mutex::new(0.0f64));
    let out2 = out.clone();
    let spin = Dur::ns(1000); // a minimal raw polling loop iteration
    sim.spawn("pinger", move |ctx| {
        host::send_packet(ctx, 1, 16, 0).expect("fifo space");
        let _ = host::spin_recv(ctx, spin);
        let t0 = ctx.now();
        for _ in 0..iters {
            host::send_packet(ctx, 1, 16, 0).expect("fifo space");
            let _ = host::spin_recv(ctx, spin);
        }
        *out2.lock() = (ctx.now() - t0).as_us() / iters as f64;
    });
    sim.spawn("ponger", move |ctx| {
        for _ in 0..iters + 1 {
            let _ = host::spin_recv(ctx, spin);
            host::send_packet(ctx, 0, 16, 0).expect("fifo space");
        }
    });
    t.add(&sim.run().expect("raw ping-pong completes"));
    let v = *out.lock();
    v
}

/// MPL one-word round trip (`mpc_bsend`/`mpc_brecv`), µs.
pub fn mpl_round_trip(iters: u32, t: &mut Tally) -> f64 {
    let mut m = MplMachine::new(SpConfig::thin(2), MplConfig::default(), 42);
    let out = Arc::new(Mutex::new(0.0f64));
    let out2 = out.clone();
    m.spawn("pinger", move |mpl: &mut Mpl<'_>| {
        mpl.bsend(1, 1, &[0; 4]);
        let _ = mpl.brecv(Some(1), Some(1));
        let t0 = mpl.now();
        for _ in 0..iters {
            mpl.bsend(1, 1, &[0; 4]);
            let _ = mpl.brecv(Some(1), Some(1));
        }
        *out2.lock() = (mpl.now() - t0).as_us() / iters as f64;
    });
    m.spawn("ponger", move |mpl: &mut Mpl<'_>| {
        for _ in 0..iters + 1 {
            let _ = mpl.brecv(Some(0), Some(1));
            mpl.bsend(0, 1, &[0; 4]);
        }
    });
    t.add(&m.run().expect("MPL ping-pong completes"));
    let v = *out.lock();
    v
}

// ------------------------------------------------------------- call costs

/// Table 2 data: cost of `am_request_N` / `am_reply_N` calls (µs), the
/// empty-poll cost, and the per-received-message poll overhead.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// `am_request_N` call cost, N = 1..4.
    pub request: [f64; 4],
    /// `am_reply_N` call cost, N = 1..4.
    pub reply: [f64; 4],
    /// `am_poll` on an empty network.
    pub poll_empty: f64,
    /// Additional cost per message received in a poll.
    pub per_message: f64,
}

/// Measure Table 2.
pub fn table2(t: &mut Tally) -> Table2 {
    let mut request = [0.0f64; 4];
    let mut reply = [0.0f64; 4];
    for (i, words) in (1..=4u8).enumerate() {
        // Request cost: time around the call with a quiet network (fewer
        // sends than the ack threshold so nothing arrives back).
        let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 1);
        let out = Arc::new(Mutex::new(0.0f64));
        let out2 = out.clone();
        m.spawn(
            "sender",
            PingSt::default(),
            move |am: &mut Am<'_, PingSt>| {
                am.register(done_handler);
                let n = 12u32; // below the 18-packet explicit-ack threshold
                let t0 = am.now();
                for _ in 0..n {
                    match words {
                        1 => am.request_1(1, 0, 0),
                        2 => am.request_2(1, 0, 0, 0),
                        3 => am.request_3(1, 0, 0, 0, 0),
                        _ => am.request_4(1, 0, 0, 0, 0, 0),
                    }
                }
                *out2.lock() = (am.now() - t0).as_us() / n as f64;
                am.barrier();
            },
        );
        m.spawn("sink", PingSt::default(), move |am: &mut Am<'_, PingSt>| {
            am.register(done_handler);
            am.poll_until(|s| s.pongs >= 12);
            am.barrier();
        });
        t.add(&m.run().expect("request-cost run completes"));
        request[i] = *out.lock();
        // Reply cost comes from the ping-pong's handler-side timer.
        let (_, r) = am_round_trip(words, 40, t);
        reply[i] = r;
    }

    // Poll costs.
    let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 1);
    let out = Arc::new(Mutex::new((0.0f64, 0.0f64)));
    let out2 = out.clone();
    m.spawn(
        "poller",
        PingSt::default(),
        move |am: &mut Am<'_, PingSt>| {
            am.register(done_handler);
            // Empty-poll cost.
            let t0 = am.now();
            for _ in 0..1000 {
                am.poll();
            }
            let empty = (am.now() - t0).as_us() / 1000.0;
            am.barrier(); // peer now sends a burst of 10
            am.work(Dur::ms(1.0)); // let them all land
            let t1 = am.now();
            let got = am.poll();
            // 10 requests, possibly plus the peer's next barrier token.
            assert!(got >= 10, "burst should be waiting, got {got}");
            let burst = (am.now() - t1).as_us();
            *out2.lock() = (empty, (burst - empty) / got as f64);
            am.barrier();
        },
    );
    m.spawn(
        "burster",
        PingSt::default(),
        move |am: &mut Am<'_, PingSt>| {
            am.register(done_handler);
            am.barrier();
            for _ in 0..10 {
                am.request_1(0, 0, 0);
            }
            am.barrier();
        },
    );
    t.add(&m.run().expect("poll-cost run completes"));
    let (poll_empty, per_message) = *out.lock();

    Table2 {
        request,
        reply,
        poll_empty,
        per_message,
    }
}

// ------------------------------------------------------------- bandwidth

/// Which Figure 3 curve to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BwMode {
    /// Blocking `am_store` per transfer.
    SyncStore,
    /// Blocking `am_get` per transfer.
    SyncGet,
    /// `mpc_bsend` + 0-byte `mpc_brecv` per transfer.
    MplSendReply,
    /// Pipelined `am_store_async`.
    AsyncStore,
    /// Pipelined `am_get` (split-phase).
    AsyncGet,
    /// Pipelined `mpc_send`.
    MplPipelined,
}

impl BwMode {
    /// Legend label (paper's Figure 3).
    pub fn label(&self) -> &'static str {
        match self {
            BwMode::SyncStore => "Sync Store",
            BwMode::SyncGet => "Sync Get",
            BwMode::MplSendReply => "MPL send/reply",
            BwMode::AsyncStore => "Pipel. Async Store",
            BwMode::AsyncGet => "Pipel. Async Get",
            BwMode::MplPipelined => "Pipelined MPL Send",
        }
    }
}

/// One-way bandwidth (MB/s of payload) moving ~`total` bytes in `n`-byte
/// transfers using `mode`.
pub fn bandwidth(mode: BwMode, n: usize, total: usize, t: &mut Tally) -> f64 {
    let count = (total / n).clamp(4, 8192) as u32;
    match mode {
        BwMode::SyncStore | BwMode::SyncGet | BwMode::AsyncStore | BwMode::AsyncGet => {
            am_bandwidth(mode, n, count, t)
        }
        BwMode::MplSendReply | BwMode::MplPipelined => mpl_bandwidth(mode, n, count, t),
    }
}

fn am_bandwidth(mode: BwMode, n: usize, count: u32, t: &mut Tally) -> f64 {
    let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 42);
    let out = Arc::new(Mutex::new(0.0f64));
    let out2 = out.clone();
    m.spawn("tx", PingSt::default(), move |am: &mut Am<'_, PingSt>| {
        am.register(done_handler);
        let data = vec![0x5Au8; n];
        let local = am.alloc(n as u32);
        am.barrier();
        let t0 = am.now();
        match mode {
            BwMode::SyncStore => {
                for _ in 0..count {
                    am.store(GlobalPtr { node: 1, addr: 0 }, &data, None, &[]);
                }
            }
            BwMode::SyncGet => {
                for _ in 0..count {
                    am.get_blocking(GlobalPtr { node: 1, addr: 0 }, local.addr, n as u32);
                }
            }
            BwMode::AsyncStore => {
                let mut handles = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    handles.push(am.store_async(
                        GlobalPtr { node: 1, addr: 0 },
                        &data,
                        None,
                        &[],
                        None,
                    ));
                }
                for h in handles {
                    am.wait_bulk(h);
                }
            }
            BwMode::AsyncGet => {
                let mut handles = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    handles.push(am.get(
                        GlobalPtr { node: 1, addr: 0 },
                        local.addr,
                        n as u32,
                        None,
                        &[],
                    ));
                }
                for h in handles {
                    am.wait_bulk(h);
                }
            }
            _ => unreachable!(),
        }
        *out2.lock() = (count as usize * n) as f64 / (am.now() - t0).as_secs() / 1e6;
        am.barrier();
    });
    m.spawn("rx", PingSt::default(), move |am: &mut Am<'_, PingSt>| {
        am.register(done_handler);
        am.alloc(n.max(8) as u32); // landing / source area at addr 0
        am.barrier();
        am.barrier();
    });
    t.add(&m.run().expect("bandwidth run completes"));
    let v = *out.lock();
    v
}

fn mpl_bandwidth(mode: BwMode, n: usize, count: u32, t: &mut Tally) -> f64 {
    let mut m = MplMachine::new(SpConfig::thin(2), MplConfig::default(), 42);
    let out = Arc::new(Mutex::new(0.0f64));
    let out2 = out.clone();
    m.spawn("tx", move |mpl: &mut Mpl<'_>| {
        let data = vec![0xA5u8; n];
        mpl.barrier();
        let t0 = mpl.now();
        match mode {
            BwMode::MplSendReply => {
                for _ in 0..count {
                    mpl.bsend(1, 1, &data);
                    let _ = mpl.brecv(Some(1), Some(2)); // 0-byte reply
                }
            }
            BwMode::MplPipelined => {
                for _ in 0..count {
                    let _ = mpl.send(1, 1, &data);
                }
                let _ = mpl.brecv(Some(1), Some(3)); // all-received token
            }
            _ => unreachable!(),
        }
        *out2.lock() = (count as usize * n) as f64 / (mpl.now() - t0).as_secs() / 1e6;
        mpl.barrier();
    });
    m.spawn("rx", move |mpl: &mut Mpl<'_>| {
        mpl.barrier();
        match mode {
            BwMode::MplSendReply => {
                for _ in 0..count {
                    let _ = mpl.brecv(Some(0), Some(1));
                    mpl.bsend(0, 2, &[]);
                }
            }
            BwMode::MplPipelined => {
                for _ in 0..count {
                    let _ = mpl.brecv(Some(0), Some(1));
                }
                mpl.bsend(0, 3, &[]);
            }
            _ => unreachable!(),
        }
        mpl.barrier();
    });
    t.add(&m.run().expect("MPL bandwidth run completes"));
    let v = *out.lock();
    v
}

/// Bidirectional ("exchange") bandwidth: both nodes stream `n`-byte async
/// stores at each other simultaneously; returns the *aggregate* payload
/// rate in MB/s. The paper defers exchange measurements to the companion
/// technical report (§2.4 footnote, Cornell TR 96-1571); included here for
/// completeness.
pub fn exchange_bandwidth(n: usize, total: usize, t: &mut Tally) -> f64 {
    let count = (total / n).clamp(4, 4096) as u32;
    let out = Arc::new(Mutex::new([0.0f64; 2]));
    let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 42);
    for me in 0..2usize {
        let out = out.clone();
        m.spawn(
            format!("n{me}"),
            PingSt::default(),
            move |am: &mut Am<'_, PingSt>| {
                am.register(done_handler);
                am.alloc(n.max(8) as u32);
                let data = vec![0x7Eu8; n];
                am.barrier();
                let t0 = am.now();
                let mut handles = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    handles.push(am.store_async(
                        GlobalPtr {
                            node: 1 - me,
                            addr: 0,
                        },
                        &data,
                        None,
                        &[],
                        None,
                    ));
                }
                for h in handles {
                    am.wait_bulk(h);
                }
                out.lock()[me] = (count as usize * n) as f64 / (am.now() - t0).as_secs() / 1e6;
                am.barrier();
            },
        );
    }
    t.add(&m.run().expect("exchange run completes"));
    let v = *out.lock();
    v[0] + v[1]
}

/// The paper's Figure 3 size grid.
pub fn fig3_sizes(quick: bool) -> Vec<usize> {
    let max = 1 << 20;
    let mut sizes = Vec::new();
    let mut n = 16;
    while n <= max {
        sizes.push(n);
        n *= if quick { 4 } else { 2 };
    }
    sizes
}

/// All six Figure 3 curves.
pub fn fig3(quick: bool, t: &mut Tally) -> Vec<Series> {
    let sizes = fig3_sizes(quick);
    let total = if quick { 1 << 18 } else { 1 << 20 };
    [
        BwMode::SyncStore,
        BwMode::SyncGet,
        BwMode::MplSendReply,
        BwMode::AsyncStore,
        BwMode::AsyncGet,
        BwMode::MplPipelined,
    ]
    .into_iter()
    .map(|mode| Series {
        label: mode.label().to_string(),
        points: sizes
            .iter()
            .map(|&n| (n as f64, bandwidth(mode, n, total, t)))
            .collect(),
    })
    .collect()
}

/// Half-power point: the transfer size at which `rate` reaches half of
/// `r_inf`, interpolated on a log₂ grid.
pub fn half_power_point(points: &[(f64, f64)], r_inf: f64) -> f64 {
    let target = r_inf / 2.0;
    for w in points.windows(2) {
        let ((x0, y0), (x1, y1)) = (w[0], w[1]);
        if y0 < target && y1 >= target {
            let f = (target - y0) / (y1 - y0);
            return x0 * (x1 / x0).powf(f);
        }
    }
    f64::NAN
}

/// Table 3 data.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// AM one-word round trip (µs).
    pub am_rtt: f64,
    /// MPL one-word round trip (µs).
    pub mpl_rtt: f64,
    /// Raw round trip (µs).
    pub raw_rtt: f64,
    /// AM asymptotic bandwidth (MB/s).
    pub am_rinf: f64,
    /// MPL asymptotic bandwidth (MB/s).
    pub mpl_rinf: f64,
    /// AM non-blocking half-power point (bytes).
    pub am_n_half_async: f64,
    /// MPL non-blocking half-power point (bytes).
    pub mpl_n_half_async: f64,
    /// AM blocking-store half-power point (bytes).
    pub am_n_half_sync: f64,
    /// MPL blocking half-power point (bytes).
    pub mpl_n_half_sync: f64,
}

/// Measure Table 3 (round trips + bandwidth summary).
pub fn table3(quick: bool, t: &mut Tally) -> Table3 {
    let iters = if quick { 40 } else { 150 };
    let (am_rtt, _) = am_round_trip(1, iters, t);
    let mpl_rtt = mpl_round_trip(iters, t);
    let raw_rtt = raw_round_trip(iters, t);

    let total = if quick { 1 << 18 } else { 1 << 20 };
    let mut sweep = |mode: BwMode| -> Vec<(f64, f64)> {
        fig3_sizes(quick)
            .iter()
            .map(|&n| (n as f64, bandwidth(mode, n, total, t)))
            .collect()
    };
    let async_store = sweep(BwMode::AsyncStore);
    let sync_store = sweep(BwMode::SyncStore);
    let mpl_pipe = sweep(BwMode::MplPipelined);
    let mpl_sync = sweep(BwMode::MplSendReply);
    let am_rinf = async_store.last().expect("points").1;
    let mpl_rinf = mpl_pipe.last().expect("points").1;
    Table3 {
        am_rtt,
        mpl_rtt,
        raw_rtt,
        am_rinf,
        mpl_rinf,
        am_n_half_async: half_power_point(&async_store, am_rinf),
        mpl_n_half_async: half_power_point(&mpl_pipe, mpl_rinf),
        am_n_half_sync: half_power_point(&sync_store, am_rinf),
        mpl_n_half_sync: half_power_point(&mpl_sync, mpl_rinf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_power_interpolates_on_log_grid() {
        // r_inf/2 = 16 is crossed between n = 1024 (rate 8) and n = 4096
        // (rate 32): the rate-linear fraction is (16-8)/(32-8) = 1/3,
        // applied geometrically in n: 1024 * 4^(1/3) ~ 1625.5.
        let points = vec![(256.0, 2.0), (1024.0, 8.0), (4096.0, 32.0), (16384.0, 32.0)];
        let n_half = half_power_point(&points, 32.0);
        let expect = 1024.0 * 4.0f64.powf(1.0 / 3.0);
        assert!(
            (n_half - expect).abs() < 1.0,
            "n_half = {n_half}, expect {expect}"
        );
    }

    #[test]
    fn half_power_nan_when_never_crossed() {
        let points = vec![(16.0, 30.0), (64.0, 31.0)];
        assert!(half_power_point(&points, 32.0).is_nan() || half_power_point(&points, 32.0) > 0.0);
        let low = vec![(16.0, 1.0), (64.0, 2.0)];
        assert!(half_power_point(&low, 32.0).is_nan());
    }

    #[test]
    fn size_grids() {
        let full = fig3_sizes(false);
        assert_eq!(*full.first().unwrap(), 16);
        assert_eq!(*full.last().unwrap(), 1 << 20);
        assert!(fig3_sizes(true).len() < full.len());
    }
}
