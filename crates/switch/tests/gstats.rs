//! The process-wide fabric counters (`sp_switch::gstats`) move by exactly
//! one per dropped or duplicated packet.
//!
//! These tests assert exact deltas on process-global atomics, so they live
//! in their own test binary: no other test in this process transits packets
//! through a faulty fabric, and the two tests below bump different counters.

use sp_sim::Time;
use sp_switch::{gstats, FaultInjector, Switch, SwitchConfig, Transit};
use sp_trace::{Kind, Tracer};

fn sw(n: usize) -> Switch {
    Switch::new(n, SwitchConfig::default())
}

#[test]
fn dropped_packets_count_globally_and_trace() {
    let tracer = Tracer::new(2, 64);
    let before = gstats::dropped();
    let mut s = sw(2);
    s.set_tracer(tracer.clone());
    s.set_fault_injector(FaultInjector::drop_at([0]));
    assert_eq!(s.transit(0, 1, 256, Time::ZERO), Transit::Dropped);
    assert_eq!(gstats::dropped(), before + 1);
    assert!(tracer
        .snapshot()
        .iter()
        .any(|r| r.kind == Kind::SwitchDrop && r.arg == 256));
}

#[test]
fn duplicated_packets_count_globally_and_trace() {
    let tracer = Tracer::new(2, 64);
    let before = gstats::duplicated();
    let mut s = sw(2);
    s.set_tracer(tracer.clone());
    s.set_fault_injector(FaultInjector::dup_at([0]));
    let t = s.transit(0, 1, 256, Time::ZERO);
    assert!(matches!(
        t,
        Transit::Delivered {
            dup_at: Some(_),
            ..
        }
    ));
    assert_eq!(gstats::duplicated(), before + 1);
    assert!(tracer
        .snapshot()
        .iter()
        .any(|r| r.kind == Kind::SwitchDup && r.arg == 256));
}
