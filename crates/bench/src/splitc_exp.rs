//! Split-C experiments: Table 4 (machine characteristics), Table 5
//! (absolute benchmark times) and Figure 4 (normalized cpu/net split).

use crate::fmt::Series;
use crate::Tally;
use parking_lot::Mutex;
use sp_logp::{Logp, LogpParams, LogpWorld};
use sp_sim::Sim;
use sp_splitc::apps::{mm, radix_sort, sample_sort, MmConfig, RadixConfig, SampleConfig};
use sp_splitc::{run_spmd_report, AppTimes, Gas, Platform};
use std::sync::Arc;

/// Table 4 row: a machine's characteristics, configured and measured.
#[derive(Debug, Clone)]
pub struct MachineRow {
    /// Machine name.
    pub name: &'static str,
    /// CPU description.
    pub cpu: &'static str,
    /// Per-message overhead, µs (configured).
    pub overhead_us: f64,
    /// Measured one-word round-trip latency, µs.
    pub rtt_us: f64,
    /// Measured asymptotic bandwidth, MB/s.
    pub bandwidth_mb_s: f64,
}

/// Measure RTT and bandwidth of a LogGP machine model.
fn logp_measurements(params: LogpParams, t: &mut Tally) -> (f64, f64) {
    let rtt = Arc::new(Mutex::new((0.0f64, 0.0f64)));
    let rtt2 = rtt.clone();
    let mut sim = Sim::new(LogpWorld::new(2), 1);
    let (pa, pb) = (params.clone(), params);
    sim.spawn("a", move |ctx| {
        let mut lp = Logp::new(ctx, pa);
        let recv = |lp: &mut Logp<'_>| loop {
            if let Some(m) = lp.poll() {
                return m;
            }
        };
        // RTT.
        lp.send(1, 0, [0; 4], &[]);
        recv(&mut lp);
        let t0 = lp.now();
        let iters = 50;
        for _ in 0..iters {
            lp.send(1, 0, [0; 4], &[]);
            recv(&mut lp);
        }
        let rtt_us = (lp.now() - t0).as_us() / iters as f64;
        // Bandwidth: stream 4 KB messages.
        let chunk = vec![0u8; 4096];
        let t1 = lp.now();
        for _ in 0..200 {
            lp.send(1, 1, [0; 4], &chunk);
        }
        recv(&mut lp); // done token
        let bw = (200.0 * 4096.0) / (lp.now() - t1).as_secs() / 1e6;
        *rtt2.lock() = (rtt_us, bw);
    });
    sim.spawn("b", move |ctx| {
        let mut lp = Logp::new(ctx, pb);
        let recv = |lp: &mut Logp<'_>| loop {
            if let Some(m) = lp.poll() {
                return m;
            }
        };
        for _ in 0..51 {
            recv(&mut lp);
            lp.send(0, 0, [0; 4], &[]);
        }
        for _ in 0..200 {
            recv(&mut lp);
        }
        lp.send(0, 2, [0; 4], &[]);
    });
    t.add(&sim.run().expect("logp measurement completes"));
    let v = *rtt.lock();
    v
}

/// Table 4: the four machines (SP measured on the detailed model).
pub fn table4(sp_rtt: f64, sp_bw: f64, t: &mut Tally) -> Vec<MachineRow> {
    let mut rows = Vec::new();
    for (params, cpu) in [
        (LogpParams::cm5(), "33 MHz Sparc-2"),
        (LogpParams::cs2(), "40 MHz Sparc"),
        (LogpParams::unet(), "50/60 MHz Sparc-20"),
    ] {
        let (rtt, bw) = logp_measurements(params.clone(), t);
        rows.push(MachineRow {
            name: params.name,
            cpu,
            overhead_us: (params.o_send + params.o_recv).as_us(),
            rtt_us: rtt,
            bandwidth_mb_s: bw,
        });
    }
    rows.push(MachineRow {
        name: "IBM SP (AM)",
        cpu: "66 MHz RS6000",
        overhead_us: 6.0,
        rtt_us: sp_rtt,
        bandwidth_mb_s: sp_bw,
    });
    rows
}

/// The five benchmarks of Table 5 (paper row order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// mm, 128×128 blocks.
    MmLarge,
    /// mm, 16×16 blocks.
    MmSmall,
    /// Sample sort, fine-grain.
    SmpSortSm,
    /// Sample sort, bulk.
    SmpSortLg,
    /// Radix sort, fine-grain.
    RdxSortSm,
    /// Radix sort, bulk.
    RdxSortLg,
}

impl App {
    /// Table 5 row label.
    pub fn label(&self) -> &'static str {
        match self {
            App::MmLarge => "mm 128x128",
            App::MmSmall => "mm 16x16",
            App::SmpSortSm => "smpsort sm",
            App::SmpSortLg => "smpsort lg",
            App::RdxSortSm => "rdxsort sm",
            App::RdxSortLg => "rdxsort lg",
        }
    }

    /// All rows in paper order.
    pub fn all() -> [App; 6] {
        [
            App::MmLarge,
            App::MmSmall,
            App::SmpSortSm,
            App::SmpSortLg,
            App::RdxSortSm,
            App::RdxSortLg,
        ]
    }
}

/// Keys per node used for the sort rows (scaled class; see EXPERIMENTS.md).
pub fn sort_keys_per_node(quick: bool) -> usize {
    if quick {
        4 * 1024
    } else {
        16 * 1024
    }
}

/// Run one app on one platform (8 processors); returns the slowest node's
/// times (total + comm).
pub fn run_app(app: App, platform: Platform, quick: bool, t: &mut Tally) -> AppTimes {
    let nodes = 8;
    let keys = sort_keys_per_node(quick);
    let (times, report): (Vec<AppTimes>, _) = match app {
        App::MmLarge | App::MmSmall => {
            let cfg = if app == App::MmLarge {
                MmConfig::large()
            } else {
                MmConfig::small()
            };
            run_spmd_report(platform, nodes, 5, move |g: &mut dyn Gas| {
                mm::run(g, &cfg).0
            })
        }
        App::SmpSortSm | App::SmpSortLg => {
            let cfg = SampleConfig {
                keys_per_node: keys,
                ..SampleConfig::paper(app == App::SmpSortLg)
            };
            run_spmd_report(platform, nodes, 9, move |g: &mut dyn Gas| {
                sample_sort::run(g, &cfg).0
            })
        }
        App::RdxSortSm | App::RdxSortLg => {
            let cfg = RadixConfig {
                keys_per_node: keys,
                ..RadixConfig::paper(app == App::RdxSortLg)
            };
            run_spmd_report(platform, nodes, 9, move |g: &mut dyn Gas| {
                radix_sort::run(g, &cfg).0
            })
        }
    };
    t.add(&report);
    times
        .into_iter()
        .max_by(|a, b| a.total.cmp(&b.total))
        .expect("nodes > 0")
}

/// Table 5 / Figure 4 data: `times[app][platform]`.
pub fn table5(quick: bool, t: &mut Tally) -> Vec<(App, Vec<(Platform, AppTimes)>)> {
    App::all()
        .into_iter()
        .map(|app| {
            let row = Platform::all()
                .into_iter()
                .map(|p| (p, run_app(app, p, quick, t)))
                .collect();
            (app, row)
        })
        .collect()
}

/// Figure 4: the same data normalized to SP AM's total time, split into
/// cpu and net components (two series per platform).
pub fn fig4(data: &[(App, Vec<(Platform, AppTimes)>)]) -> Vec<(App, Vec<Series>)> {
    data.iter()
        .map(|(app, row)| {
            let sp_am_total = row
                .iter()
                .find(|(p, _)| *p == Platform::SpAm)
                .expect("SP AM present")
                .1
                .total
                .as_secs();
            let series = row
                .iter()
                .flat_map(|(p, t)| {
                    [
                        Series {
                            label: format!("{} cpu", p.name()),
                            points: vec![(0.0, t.cpu().as_secs() / sp_am_total)],
                        },
                        Series {
                            label: format!("{} net", p.name()),
                            points: vec![(0.0, t.comm.as_secs() / sp_am_total)],
                        },
                    ]
                })
                .collect();
            (*app, series)
        })
        .collect()
}
