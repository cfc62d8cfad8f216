//! A run's telemetry belongs to that run: the same NAS point measured
//! alone and next to a concurrent NAS run reports identical figures.

use sp_adapter::SpConfig;
use sp_bench::nas_exp::{self, WidePoint};
use sp_bench::Tally;
use sp_nas::{Kernel, NasClass};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// MG on four thin nodes with the wide-sweep accounting, plus its tally
/// with the host wall time zeroed (the one figure two runs never share).
fn mg_point() -> (WidePoint, Tally) {
    let mut t = Tally::default();
    let p = nas_exp::wide_point(
        Kernel::Mg,
        NasClass::Reduced,
        "thin",
        SpConfig::thin(4),
        &mut t,
    );
    (
        p,
        Tally {
            wall: Duration::ZERO,
            ..t
        },
    )
}

#[test]
fn concurrent_nas_run_does_not_leak_into_the_measured_one() {
    let (alone, alone_tally) = mg_point();

    // A barrier starts both runs together, so the neighbour's compute
    // charges and engine events overlap the measured run's.
    let start = Arc::new(Barrier::new(2));
    let gate = start.clone();
    let neighbour = std::thread::spawn(move || {
        gate.wait();
        let mut t = Tally::default();
        nas_exp::wide_point(
            Kernel::Ft,
            NasClass::Reduced,
            "wide",
            SpConfig::wide(4),
            &mut t,
        );
    });
    start.wait();
    let (beside, beside_tally) = mg_point();
    neighbour.join().expect("neighbour run completes");

    assert!(alone.comp_frac > 0.0 && alone.comp_frac < 1.0);
    assert_eq!(
        beside.comp_frac.to_bits(),
        alone.comp_frac.to_bits(),
        "compute fraction moved with a neighbour running"
    );
    assert_eq!(
        beside_tally, alone_tally,
        "tally moved with a neighbour running"
    );
    assert_eq!(alone_tally.runs, 1);
}
