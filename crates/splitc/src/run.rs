//! SPMD runner: execute the same Split-C program over any of the five
//! platforms of the paper's comparison (Table 5 / Figure 4).

use crate::backend::am::{AmGas, SplitcSt};
use crate::backend::logp::LogGas;
use crate::backend::mpl::MplGas;
use crate::gas::Gas;
use parking_lot::Mutex;
use sp_adapter::SpConfig;
use sp_am::{Am, AmConfig, AmMachine, AmReport, MemPool};
use sp_logp::{Logp, LogpParams, LogpWorld};
use sp_mpl::{Mpl, MplConfig, MplMachine, MplReport};
use sp_sim::{Sim, SimReport};
use std::sync::Arc;

/// The five platforms of the paper's Split-C comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// IBM SP over SP Active Messages (detailed machine model).
    SpAm,
    /// IBM SP over MPL (detailed machine model).
    SpMpl,
    /// TMC CM-5 (LogGP model).
    Cm5,
    /// Meiko CS-2 (LogGP model).
    Cs2,
    /// U-Net/ATM Sparc cluster (LogGP model).
    Unet,
}

impl Platform {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Platform::SpAm => "IBM SP AM",
            Platform::SpMpl => "IBM SP MPL",
            Platform::Cm5 => "TMC CM-5",
            Platform::Cs2 => "Meiko CS-2",
            Platform::Unet => "SS20/U-Net/ATM",
        }
    }

    /// All five platforms in the paper's column order.
    pub fn all() -> [Platform; 5] {
        [
            Platform::SpAm,
            Platform::SpMpl,
            Platform::Cm5,
            Platform::Cs2,
            Platform::Unet,
        ]
    }
}

/// The machine-level report of one SPMD run, by platform family.
pub enum SpmdReport {
    /// An SP AM run.
    Am(AmReport),
    /// An SP MPL run.
    Mpl(MplReport),
    /// A LogGP-model run (CM-5, CS-2, U-Net).
    Logp(SimReport<LogpWorld>),
}

/// Run `app` SPMD over `nodes` nodes of `platform`; returns each node's
/// result, indexed by node.
pub fn run_spmd<R: Send + 'static>(
    platform: Platform,
    nodes: usize,
    seed: u64,
    app: impl Fn(&mut dyn Gas) -> R + Send + Sync + Clone + 'static,
) -> Vec<R> {
    run_spmd_report(platform, nodes, seed, app).0
}

/// [`run_spmd`], additionally returning the run's [`SpmdReport`].
pub fn run_spmd_report<R: Send + 'static>(
    platform: Platform,
    nodes: usize,
    seed: u64,
    app: impl Fn(&mut dyn Gas) -> R + Send + Sync + Clone + 'static,
) -> (Vec<R>, SpmdReport) {
    let results: Arc<Mutex<Vec<Option<R>>>> =
        Arc::new(Mutex::new((0..nodes).map(|_| None).collect()));
    let report = match platform {
        Platform::SpAm => {
            let mut m = AmMachine::new(SpConfig::thin(nodes), AmConfig::default(), seed);
            for node in 0..nodes {
                let app = app.clone();
                let results = results.clone();
                m.spawn(
                    format!("n{node}"),
                    SplitcSt::default(),
                    move |am: &mut Am<'_, SplitcSt>| {
                        let mut gas = AmGas::new(am);
                        let r = app(&mut gas);
                        results.lock()[node] = Some(r);
                    },
                );
            }
            SpmdReport::Am(m.run().expect("SP AM run completes"))
        }
        Platform::SpMpl => {
            let mut m = MplMachine::new(SpConfig::thin(nodes), MplConfig::default(), seed);
            let mem = MemPool::new(nodes);
            for node in 0..nodes {
                let app = app.clone();
                let results = results.clone();
                let mem = mem.clone();
                m.spawn(format!("n{node}"), move |mpl: &mut Mpl<'_>| {
                    let mut gas = MplGas::new(mpl, mem);
                    let r = app(&mut gas);
                    results.lock()[node] = Some(r);
                });
            }
            SpmdReport::Mpl(m.run().expect("SP MPL run completes"))
        }
        Platform::Cm5 | Platform::Cs2 | Platform::Unet => {
            let params = match platform {
                Platform::Cm5 => LogpParams::cm5(),
                Platform::Cs2 => LogpParams::cs2(),
                _ => LogpParams::unet(),
            };
            let mut sim = Sim::new(LogpWorld::new(nodes), seed);
            let mem = MemPool::new(nodes);
            for node in 0..nodes {
                let app = app.clone();
                let results = results.clone();
                let mem = mem.clone();
                let params = params.clone();
                sim.spawn(format!("n{node}"), move |ctx| {
                    let mut lp = Logp::new(ctx, params);
                    let mut gas = LogGas::new(&mut lp, mem);
                    let r = app(&mut gas);
                    results.lock()[node] = Some(r);
                });
            }
            SpmdReport::Logp(sim.run().expect("LogGP run completes"))
        }
    };
    let mut out = Vec::with_capacity(nodes);
    for slot in results.lock().iter_mut() {
        out.push(slot.take().expect("every node produced a result"));
    }
    (out, report)
}
