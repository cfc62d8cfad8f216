//! Table 6: NAS kernels on 16 thin nodes, MPI-F vs MPI-AM — plus the
//! scaled-up class sweep that exercises the engine at scale on
//! S/W-sized grids (ROADMAP: "scale the NAS grids back up").

use crate::Tally;
use sp_adapter::SpConfig;
use sp_mpi::runner::{MpiImpl, MpiRunReport};
use sp_nas::{run_kernel_on, Kernel, NasClass, NasResult};

/// Run `kernel` at `class` on `sp` hardware under `imp` (seed 5, as in
/// every Table 6 run) and fold the run into `t`.
fn run(
    kernel: Kernel,
    imp: MpiImpl,
    sp: SpConfig,
    class: NasClass,
    t: &mut Tally,
) -> (NasResult, MpiRunReport) {
    let (r, report) = run_kernel_on(kernel, imp, sp, 5, class);
    t.add(&report);
    (r, report)
}

/// One Table 6 row.
#[derive(Debug, Clone)]
pub struct NasRow {
    /// Benchmark name.
    pub kernel: Kernel,
    /// MPI-F time (virtual seconds, scaled class — see EXPERIMENTS.md).
    pub mpif_s: f64,
    /// MPI-AM (optimized MPICH-over-AM) time.
    pub mpiam_s: f64,
    /// Residual agreement check.
    pub checksums_agree: bool,
}

/// Run Table 6 on `ranks` ranks.
pub fn table6(ranks: usize, t: &mut Tally) -> Vec<NasRow> {
    Kernel::all()
        .into_iter()
        .map(|kernel| {
            let thin = || SpConfig::thin(ranks);
            let (f, _) = run(kernel, MpiImpl::MpiF, thin(), NasClass::Reduced, t);
            let (am, _) = run(kernel, MpiImpl::AmOptimized, thin(), NasClass::Reduced, t);
            NasRow {
                kernel,
                mpif_s: f.time.as_secs(),
                mpiam_s: am.time.as_secs(),
                checksums_agree: (f.checksum - am.checksum).abs()
                    <= 1e-9 * f.checksum.abs().max(1.0),
            }
        })
        .collect()
}

/// One kernel at one problem class: virtual time plus the engine's actual
/// event count and wall-clock rate for that single run.
#[derive(Debug, Clone)]
pub struct ClassPoint {
    /// Benchmark.
    pub kernel: Kernel,
    /// Problem class.
    pub class: NasClass,
    /// MPI-AM virtual time (seconds).
    pub virtual_s: f64,
    /// Engine events executed by this run.
    pub events: u64,
    /// Wall-clock engine rate for this run (events/second).
    pub events_per_sec: f64,
}

/// One kernel × class run on one node flavour, split into communication
/// and computation time.
#[derive(Debug, Clone)]
pub struct WidePoint {
    /// Benchmark.
    pub kernel: Kernel,
    /// Problem class.
    pub class: NasClass,
    /// Node flavour ("thin" or "wide").
    pub flavour: &'static str,
    /// MPI-AM virtual time (seconds).
    pub virtual_s: f64,
    /// Fraction of aggregate rank-time spent in charged computation.
    pub comp_frac: f64,
    /// Fraction spent outside charged computation: messaging, protocol
    /// and fabric costs plus any wait/imbalance.
    pub comm_frac: f64,
}

/// The wide-node sweep: each kernel at Class S and W (quick: the reduced
/// class only) on MPI-AM, on thin vs wide nodes. NAS flops are charged at
/// the fixed sustained Power2 rate regardless of node flavour, so the
/// run's summed [`NasResult::comp_ns`] is the same on both; what moves
/// is the communication side, which prices through the wide CostModel's
/// faster memory system and I/O bus. The comm fraction is
/// `1 - comp_ns / (ranks * end_ns)` — everything that is not charged
/// computation, including wait time, counted against aggregate rank-time.
pub fn wide_sweep(ranks: usize, quick: bool, t: &mut Tally) -> Vec<WidePoint> {
    let classes: &[NasClass] = if quick {
        &[NasClass::Reduced]
    } else {
        &[NasClass::S, NasClass::W]
    };
    let mut out = Vec::new();
    for &class in classes {
        for kernel in Kernel::all() {
            for (flavour, sp) in [
                ("thin", SpConfig::thin(ranks)),
                ("wide", SpConfig::wide(ranks)),
            ] {
                out.push(wide_point(kernel, class, flavour, sp, t));
            }
        }
    }
    out
}

/// One point of [`wide_sweep`]: `kernel` at `class` on MPI-AM over `sp`
/// (one rank per node), with the comp/comm split taken from that run's
/// own compute charge and end time.
pub fn wide_point(
    kernel: Kernel,
    class: NasClass,
    flavour: &'static str,
    sp: SpConfig,
    t: &mut Tally,
) -> WidePoint {
    let ranks = sp.nodes as u64;
    let (r, report) = run(kernel, MpiImpl::AmOptimized, sp, class, t);
    let agg_ns = (ranks * report.end_ns).max(1);
    let comp_frac = r.comp_ns as f64 / agg_ns as f64;
    WidePoint {
        kernel,
        class,
        flavour,
        virtual_s: r.time.as_secs(),
        comp_frac,
        comm_frac: 1.0 - comp_frac,
    }
}

/// The class sweep: every kernel at every class on MPI-AM, with each
/// run's own event count and engine throughput. `quick` limits the sweep
/// to the reduced class.
pub fn class_sweep(ranks: usize, quick: bool, t: &mut Tally) -> Vec<ClassPoint> {
    let classes: &[NasClass] = if quick {
        &[NasClass::Reduced]
    } else {
        &NasClass::all()
    };
    let mut out = Vec::new();
    for &class in classes {
        for kernel in Kernel::all() {
            let sp = SpConfig::thin(ranks);
            let (r, report) = run(kernel, MpiImpl::AmOptimized, sp, class, t);
            out.push(ClassPoint {
                kernel,
                class,
                virtual_s: r.time.as_secs(),
                events: report.events,
                events_per_sec: report.events as f64 / report.wall.as_secs_f64().max(1e-9),
            });
        }
    }
    out
}
