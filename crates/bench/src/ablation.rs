//! Ablations of the paper's design choices: chunk size, window size,
//! doorbell batching, explicit-ACK threshold, lazy-pop batching, the MPI
//! binned allocator, tuned collectives, and polling vs interrupts.

use crate::Tally;
use parking_lot::Mutex;
use sp_adapter::SpConfig;
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine, GlobalPtr};
use sp_mpi::runner::MpiImpl;
use sp_mpi::{Mpi, MpiAm, MpiAmConfig, MpiSt};
use sp_nas::{run_kernel_on, Kernel, NasClass};
use std::sync::Arc;

#[derive(Default)]
struct St {
    count: u32,
}

fn bump(env: &mut AmEnv<'_, St>, _args: AmArgs) {
    env.state.count += 1;
}

/// Async-store bandwidth (MB/s) and blocking 64 KB store latency (µs)
/// under a given protocol/hardware configuration.
pub fn am_profile(sp: SpConfig, am_cfg: AmConfig, t: &mut Tally) -> (f64, f64) {
    let out = Arc::new(Mutex::new((0.0f64, 0.0f64)));
    let out2 = out.clone();
    let mut m = AmMachine::new(sp, am_cfg, 17);
    m.mem().alloc(1, 1 << 17);
    m.spawn("tx", St::default(), move |am: &mut Am<'_, St>| {
        am.register(bump);
        // Bandwidth: 512 KB in pipelined 64 KB async stores.
        let data = vec![0x3Cu8; 1 << 16];
        am.barrier();
        let t0 = am.now();
        let handles: Vec<_> = (0..8)
            .map(|_| am.store_async(GlobalPtr { node: 1, addr: 0 }, &data, None, &[], None))
            .collect();
        for h in handles {
            am.wait_bulk(h);
        }
        let bw = (8 << 16) as f64 / (am.now() - t0).as_secs() / 1e6;
        // Latency: one blocking 64 KB store.
        let t1 = am.now();
        am.store(GlobalPtr { node: 1, addr: 0 }, &data, None, &[]);
        let lat = (am.now() - t1).as_us();
        *out2.lock() = (bw, lat);
        am.barrier();
    });
    m.spawn("rx", St::default(), |am: &mut Am<'_, St>| {
        am.register(bump);
        am.barrier();
        am.barrier();
    });
    t.add(&m.run().expect("ablation run completes"));
    let v = *out.lock();
    v
}

/// Explicit-ACK packets sent by the receiver for a fixed request stream,
/// plus the stream's completion time (µs).
pub fn ack_threshold_profile(div: u32, t: &mut Tally) -> (u64, f64) {
    let cfg = AmConfig {
        ack_threshold_div: div,
        ..AmConfig::default()
    };
    let out = Arc::new(Mutex::new((0u64, 0.0f64)));
    let out2 = out.clone();
    let mut m = AmMachine::new(SpConfig::thin(2), cfg, 17);
    m.spawn("tx", St::default(), |am: &mut Am<'_, St>| {
        am.register(bump);
        for _ in 0..200u32 {
            am.request_1(1, 0, 0);
        }
        am.quiesce();
        am.barrier();
    });
    m.spawn("rx", St::default(), move |am: &mut Am<'_, St>| {
        am.register(bump);
        am.poll_until(|s| s.count >= 200);
        am.barrier();
        *out2.lock() = (am.stats().explicit_acks_sent, am.now().as_us());
    });
    t.add(&m.run().expect("ack ablation completes"));
    let v = *out.lock();
    v
}

/// MPI 256-byte eager send+recv per-message time (µs) with/without the
/// binned allocator (everything else optimized).
pub fn allocator_profile(binned: bool, t: &mut Tally) -> f64 {
    let cfg = MpiAmConfig {
        binned_allocator: binned,
        ..MpiAmConfig::optimized()
    };
    let out = Arc::new(Mutex::new(0.0f64));
    let sp = SpConfig::thin(2);
    let cost = sp.cost.clone();
    let mut m = AmMachine::new(sp, AmConfig::default(), 23);
    for rank in 0..2usize {
        let out = out.clone();
        let cfg = cfg.clone();
        let st = MpiSt::new(&cfg, rank, 2, &cost);
        m.spawn(format!("r{rank}"), st, move |am: &mut Am<'_, MpiSt>| {
            let mut mpi = MpiAm::new(am, cfg);
            let iters = 300u32;
            if rank == 0 {
                let data = vec![0x11u8; 256];
                mpi.barrier();
                let t0 = mpi.now();
                for i in 0..iters {
                    mpi.send(&data, 1, i as i32);
                }
                let _ = mpi.recv(Some(1), Some(-1));
                *out.lock() = (mpi.now() - t0).as_us() / iters as f64;
                mpi.barrier();
            } else {
                mpi.barrier();
                for i in 0..iters {
                    let _ = mpi.recv(Some(0), Some(i as i32));
                }
                mpi.send(&[], 0, -1);
                mpi.barrier();
            }
        });
    }
    t.add(&m.run().expect("allocator ablation completes"));
    let v = *out.lock();
    v
}

/// FT kernel time (s) with the generic vs tuned all-to-all.
pub fn collective_profile(t: &mut Tally) -> (f64, f64) {
    let mut ft = |imp| {
        let (r, run) = run_kernel_on(Kernel::Ft, imp, SpConfig::thin(16), 5, NasClass::Reduced);
        t.add(&run);
        r
    };
    let generic = ft(MpiImpl::AmOptimized);
    let tuned = ft(MpiImpl::AmTuned);
    assert!(
        (generic.checksum - tuned.checksum).abs() <= 1e-9 * generic.checksum.abs(),
        "tuned collectives changed the numerics"
    );
    (generic.time.as_secs(), tuned.time.as_secs())
}

/// Polling vs interrupt-driven server RTT (µs) and server poll counts.
pub fn reception_profile(t: &mut Tally) -> ((f64, u64), (f64, u64)) {
    let mut run = |interrupts: bool| {
        let out = Arc::new(Mutex::new(0.0f64));
        let out2 = out.clone();
        let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 42);
        let iters = 60u32;
        m.spawn("client", St::default(), move |am: &mut Am<'_, St>| {
            am.register(pong);
            am.register(bump);
            am.request_1(1, 0, 0);
            am.poll_until(|s| s.count >= 1);
            let t0 = am.now();
            for i in 0..iters {
                am.request_1(1, 0, 0);
                am.poll_until(move |s| s.count >= i + 2);
            }
            *out2.lock() = (am.now() - t0).as_us() / iters as f64;
        });
        m.spawn("server", St::default(), move |am: &mut Am<'_, St>| {
            am.register(pong);
            am.register(bump);
            if interrupts {
                am.wait_until(move |s| s.count > iters);
            } else {
                am.poll_until(move |s| s.count > iters);
            }
        });
        let report = m.run().expect("reception ablation completes");
        t.add(&report);
        let rtt = *out.lock();
        (rtt, report.am_stats[1].polls)
    };
    fn pong(env: &mut AmEnv<'_, St>, _args: AmArgs) {
        env.state.count += 1;
        env.reply_1(1, 0);
    }
    (run(false), run(true))
}
