//! The fault-latency experiment terminates and shows the policy split:
//! a scaled-down [`topo_exp::fault_run`] under both routing policies.
//!
//! Round-robin is fault-blind — after the cable kill it keeps feeding
//! the dead lane and pays keepalive-plus-retransmission latency on those
//! round trips — while the adaptive policy masks severed links out of
//! route selection and never drops a packet.

use sp_bench::{topo_exp, Tally};
use sp_switch::RoutePolicy;

#[test]
fn fault_run_terminates_and_policies_split() {
    let rr = topo_exp::fault_run(RoutePolicy::RoundRobin, 4, 6, 1, &mut Tally::default());
    let ad = topo_exp::fault_run(RoutePolicy::Adaptive, 4, 6, 1, &mut Tally::default());

    // Both runs measured most of their rounds after the kill.
    assert!(rr.samples_after >= 12, "rr samples: {}", rr.samples_after);
    assert!(ad.samples_after >= 12, "ad samples: {}", ad.samples_after);

    // The blind policy keeps hitting the dead lane; the masking policy
    // stops losing packets the moment the injector is installed.
    assert!(rr.dropped > 0, "round-robin never hit the dead lane");
    assert_eq!(ad.dropped, 0, "adaptive routed onto the dead lane");

    // Lost packets surface as keepalive-sized round-trip outliers.
    assert!(
        rr.rtt_p99_ns > ad.rtt_p99_ns,
        "rr p99 {} <= adaptive p99 {}",
        rr.rtt_p99_ns,
        ad.rtt_p99_ns
    );
}
