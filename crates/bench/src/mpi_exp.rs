//! MPI experiments: Figure 7 (protocol bandwidth), Figures 8–11 (point-to-
//! point latency/bandwidth on thin and wide nodes, four layers).

use crate::fmt::Series;
use crate::Tally;
use parking_lot::Mutex;
use sp_adapter::SpConfig;
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine, GlobalPtr};
use sp_mpi::runner::{run_mpi_report, MpiImpl};
use sp_mpi::{Mpi, MpiAm, MpiAmConfig, MpiSt};
use std::sync::Arc;

// ---------------------------------------------------------------- figure 7

/// The three ADI protocols of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Buffered for every size (large staging region).
    Buffered,
    /// Rendezvous for every size.
    Rendezvous,
    /// Hybrid buffered/rendezvous (4 KB prefix).
    Hybrid,
}

impl Protocol {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::Buffered => "Buffered",
            Protocol::Rendezvous => "Rendevous", // the paper's spelling
            Protocol::Hybrid => "Hybrid Buf/Rendevous",
        }
    }

    fn config(&self) -> MpiAmConfig {
        match self {
            Protocol::Buffered => MpiAmConfig {
                eager_limit: 1 << 20,
                region_size: 512 * 1024,
                optimized: true,
                ..MpiAmConfig::optimized()
            },
            Protocol::Rendezvous => MpiAmConfig {
                eager_limit: 0,
                optimized: false,
                ..MpiAmConfig::unoptimized()
            },
            Protocol::Hybrid => MpiAmConfig {
                // The real optimized configuration: buffered below 8 KB,
                // hybrid rendezvous above; same region size as the
                // buffered-only curve so allocator backpressure is equal.
                region_size: 512 * 1024,
                ..MpiAmConfig::optimized()
            },
        }
    }
}

/// Pipelined 2-rank MPI bandwidth (MB/s) at message size `n` under a
/// forced protocol.
pub fn protocol_bandwidth(protocol: Protocol, n: usize, total: usize, t: &mut Tally) -> f64 {
    let cfg = protocol.config();
    let count = (total / n).clamp(4, 2048) as u32;
    let out = Arc::new(Mutex::new(0.0f64));
    let sp = SpConfig::thin(2);
    let cost = sp.cost.clone();
    let mut m = AmMachine::new(sp, AmConfig::default(), 11);
    for rank in 0..2usize {
        let out = out.clone();
        let cfg = cfg.clone();
        let st = MpiSt::new(&cfg, rank, 2, &cost);
        m.spawn(format!("r{rank}"), st, move |am: &mut Am<'_, MpiSt>| {
            let mut mpi = MpiAm::new(am, cfg);
            if rank == 0 {
                let data = vec![0xEEu8; n];
                mpi.barrier();
                let t0 = mpi.now();
                let mut reqs = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    reqs.push(mpi.isend(&data, 1, 1));
                }
                for r in reqs {
                    mpi.wait(r);
                }
                // Completion token: all data received.
                let _ = mpi.recv(Some(1), Some(2));
                *out.lock() = (count as usize * n) as f64 / (mpi.now() - t0).as_secs() / 1e6;
                mpi.barrier();
            } else {
                mpi.barrier();
                for _ in 0..count {
                    let _ = mpi.recv(Some(0), Some(1));
                }
                mpi.send(&[], 0, 2);
                mpi.barrier();
            }
        });
    }
    t.add(&m.run().expect("protocol bandwidth run completes"));
    let v = *out.lock();
    v
}

/// Figure 7: bandwidth of the three protocols over message size.
pub fn fig7(quick: bool, t: &mut Tally) -> Vec<Series> {
    let sizes: Vec<usize> = {
        let mut v = Vec::new();
        let mut n = 256;
        while n <= (1 << 17) {
            v.push(n);
            n *= if quick { 4 } else { 2 };
        }
        v
    };
    let total = 1 << 19;
    [Protocol::Buffered, Protocol::Rendezvous, Protocol::Hybrid]
        .into_iter()
        .map(|p| Series {
            label: p.label().to_string(),
            points: sizes
                .iter()
                .map(|&n| (n as f64, protocol_bandwidth(p, n, total, t)))
                .collect(),
        })
        .collect()
}

// ------------------------------------------------------------ figures 8-11

/// The four layers of Figures 8–11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Raw `am_store` (lowest curve).
    AmStore,
    /// Unoptimized MPI over AM.
    MpiAmUnopt,
    /// Optimized MPI over AM.
    MpiAmOpt,
    /// MPI-F.
    MpiF,
}

impl Layer {
    /// Legend label (paper's wording).
    pub fn label(&self) -> &'static str {
        match self {
            Layer::AmStore => "am_store",
            Layer::MpiAmUnopt => "unoptimized AM MPI",
            Layer::MpiAmOpt => "optimized AM MPI",
            Layer::MpiF => "MPI-F",
        }
    }

    /// All four in legend order.
    pub fn all() -> [Layer; 4] {
        [
            Layer::AmStore,
            Layer::MpiAmUnopt,
            Layer::MpiAmOpt,
            Layer::MpiF,
        ]
    }
}

/// Per-hop time (µs) sending an `n`-byte message around a 4-node ring
/// (`laps` full laps), as in §4.3.
pub fn ring_per_hop(layer: Layer, n: usize, wide: bool, laps: u32, t: &mut Tally) -> f64 {
    let nodes = 4;
    let sp = if wide {
        SpConfig::wide(nodes)
    } else {
        SpConfig::thin(nodes)
    };
    match layer {
        Layer::AmStore => am_store_ring(sp, n, laps, t),
        Layer::MpiAmUnopt => mpi_ring(MpiImpl::AmUnoptimized, sp, n, laps, t),
        Layer::MpiAmOpt => mpi_ring(MpiImpl::AmOptimized, sp, n, laps, t),
        Layer::MpiF => mpi_ring(MpiImpl::MpiF, sp, n, laps, t),
    }
}

fn mpi_ring(imp: MpiImpl, sp: SpConfig, n: usize, laps: u32, t: &mut Tally) -> f64 {
    let (per_hop, run) = run_mpi_report(imp, sp, 3, move |mpi: &mut dyn Mpi| {
        let me = mpi.rank();
        let p = mpi.size();
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        let data = vec![0x44u8; n];
        mpi.barrier();
        let t0 = mpi.now();
        for _ in 0..laps {
            if me == 0 {
                mpi.send(&data, right, 1);
                let _ = mpi.recv(Some(left), Some(1));
            } else {
                let (d, _) = mpi.recv(Some(left), Some(1));
                mpi.send(&d, right, 1);
            }
        }
        let hop_us = (mpi.now() - t0).as_us() / (laps as usize * p) as f64;
        mpi.barrier();
        hop_us
    });
    t.add(&run);
    per_hop[0]
}

#[derive(Default)]
struct RingSt {
    arrived: u32,
}

fn ring_handler(env: &mut AmEnv<'_, RingSt>, _args: AmArgs) {
    env.state.arrived += 1;
}

fn am_store_ring(sp: SpConfig, n: usize, laps: u32, t: &mut Tally) -> f64 {
    let nodes = sp.nodes;
    let out = Arc::new(Mutex::new(0.0f64));
    let mut m = AmMachine::new(sp, AmConfig::default(), 13);
    for me in 0..nodes {
        let out = out.clone();
        m.spawn(
            format!("n{me}"),
            RingSt::default(),
            move |am: &mut Am<'_, RingSt>| {
                am.register(ring_handler);
                let _buf = am.alloc(n.max(8) as u32);
                let right = (me + 1) % nodes;
                let data = vec![0x77u8; n.max(1)];
                am.barrier();
                let t0 = am.now();
                for lap in 0..laps {
                    if me == 0 {
                        am.store(
                            GlobalPtr {
                                node: right,
                                addr: 0,
                            },
                            &data,
                            Some(0),
                            &[],
                        );
                        am.poll_until(move |s| s.arrived > lap);
                    } else {
                        am.poll_until(move |s| s.arrived > lap);
                        am.store(
                            GlobalPtr {
                                node: right,
                                addr: 0,
                            },
                            &data,
                            Some(0),
                            &[],
                        );
                    }
                }
                if me == 0 {
                    *out.lock() = (am.now() - t0).as_us() / (laps as usize * nodes) as f64;
                }
                am.barrier();
            },
        );
    }
    t.add(&m.run().expect("am_store ring completes"));
    let v = *out.lock();
    v
}

/// Figures 8/10: per-hop latency over small sizes.
pub fn fig_latency(wide: bool, quick: bool, t: &mut Tally) -> Vec<Series> {
    let sizes: Vec<usize> = if quick {
        vec![4, 64, 256, 1024]
    } else {
        vec![4, 16, 64, 128, 256, 512, 1024, 2048, 4096]
    };
    let laps = if quick { 8 } else { 20 };
    Layer::all()
        .into_iter()
        .map(|layer| Series {
            label: layer.label().to_string(),
            points: sizes
                .iter()
                .map(|&n| (n as f64, ring_per_hop(layer, n, wide, laps, t)))
                .collect(),
        })
        .collect()
}

/// Figures 9/11: per-hop bandwidth over larger sizes.
pub fn fig_bandwidth(wide: bool, quick: bool, t: &mut Tally) -> Vec<Series> {
    let sizes: Vec<usize> = if quick {
        vec![1 << 10, 1 << 13, 1 << 16]
    } else {
        vec![
            1 << 10,
            1 << 11,
            1 << 12,
            1 << 13,
            1 << 14,
            1 << 15,
            1 << 16,
            1 << 17,
            1 << 18,
        ]
    };
    let laps = if quick { 3 } else { 6 };
    Layer::all()
        .into_iter()
        .map(|layer| Series {
            label: layer.label().to_string(),
            points: sizes
                .iter()
                .map(|&n| {
                    let hop_us = ring_per_hop(layer, n, wide, laps, t);
                    (n as f64, n as f64 / hop_us) // bytes/µs = MB/s
                })
                .collect(),
        })
        .collect()
}
