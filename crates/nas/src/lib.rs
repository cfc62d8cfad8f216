//! # sp-nas — NAS Parallel Benchmark kernels for Table 6
//!
//! The paper's §4.4 compares MPI-over-AM against MPI-F on the NAS Parallel
//! Benchmarks 2.0 (BT, FT, LU, MG, SP), Class A, on 16 thin nodes. This
//! crate reimplements the five kernels as *communication-faithful*
//! miniatures:
//!
//! * each kernel runs the real NPB 2.0 communication pattern — BT/SP's
//!   per-dimension face exchanges on a square process grid, LU's fine-grain
//!   SSOR wavefront pipeline, MG's V-cycle halo exchanges across grid
//!   levels, FT's transpose built on `MPI_Alltoall` (the generic MPICH
//!   schedule on MPI-AM, the tuned one on MPI-F — exactly the difference
//!   the paper blames for FT's gap);
//! * each performs *real arithmetic* on a scaled-down grid (class "S16" —
//!   our simulation class), so results are verifiable: both MPI
//!   implementations must produce bit-identical residuals;
//! * computation is charged to virtual time from the actual flop counts of
//!   the scaled problem, so communication/computation ratios stay
//!   representative and the Table 6 *ratios* (MPI-AM vs MPI-F per
//!   benchmark) are meaningful even though our absolute class is smaller
//!   than Class A (see EXPERIMENTS.md for the scale discussion).
//!
//! Run a kernel with [`run_kernel`]; each returns a [`NasResult`] with the
//! timed section's virtual duration and a deterministic residual checksum.
//! [`run_kernel_class`] scales the grids and iteration counts up through
//! [`NasClass::S`] and [`NasClass::W`]; the reduced class stays the
//! test-time default.

#![warn(missing_docs)]

mod adi;
mod common;
mod ft;
mod lu;
mod mg;

pub use common::{Kernel, NasClass, NasResult};

use sp_adapter::SpConfig;
use sp_mpi::runner::{run_mpi_report, MpiImpl, MpiRunReport};

/// Run `kernel` at the reduced (test-time default) class. See
/// [`run_kernel_class`] for the scaled-up S/W-sized grids.
pub fn run_kernel(kernel: Kernel, imp: MpiImpl, ranks: usize, seed: u64) -> NasResult {
    run_kernel_class(kernel, imp, ranks, seed, NasClass::Reduced)
}

/// Run `kernel` on `ranks` ranks of `imp` at problem `class`; returns the
/// slowest rank's timed duration and the global residual checksum.
pub fn run_kernel_class(
    kernel: Kernel,
    imp: MpiImpl,
    ranks: usize,
    seed: u64,
    class: NasClass,
) -> NasResult {
    run_kernel_on(kernel, imp, SpConfig::thin(ranks), seed, class).0
}

/// Run `kernel` at `class` on explicit SP hardware — a wide-node partition
/// (`SpConfig::wide`), or a sharded engine (`SpConfig::thin(n).parallel(k)`)
/// — and additionally return the machine-level [`MpiRunReport`] (end time,
/// event count, world hash, shard breakdown) the serial-vs-parallel
/// equivalence checks compare.
pub fn run_kernel_on(
    kernel: Kernel,
    imp: MpiImpl,
    sp: SpConfig,
    seed: u64,
    class: NasClass,
) -> (NasResult, MpiRunReport) {
    let ranks = sp.nodes;
    let (results, run) = run_mpi_report(imp, sp, seed, move |mpi| match kernel {
        Kernel::Bt => adi::run_bt(mpi, class),
        Kernel::Sp => adi::run_sp(mpi, class),
        Kernel::Lu => lu::run(mpi, class),
        Kernel::Mg => mg::run(mpi, class),
        Kernel::Ft => ft::run(mpi, class),
    });
    assert_eq!(results.len(), ranks);
    let time = results.iter().map(|r| r.time).max().expect("ranks > 0");
    let checksum = results[0].checksum;
    for r in &results {
        assert!(
            (r.checksum - checksum).abs() <= 1e-9 * checksum.abs().max(1.0),
            "ranks disagree on the residual"
        );
    }
    let comp_ns = results.iter().map(|r| r.comp_ns).sum();
    (
        NasResult {
            time,
            checksum,
            comp_ns,
        },
        run,
    )
}
