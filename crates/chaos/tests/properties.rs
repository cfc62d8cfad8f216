//! The harness's central property: **any** finite fault schedule with a
//! lossless tail (and keep-alive enabled — the only configuration that can
//! clear ack residue) ends in quiescence with exactly-once, in-order
//! delivery and conserved packet counts. Failures are shrunk to a minimal
//! reproducer before being reported.

use proptest::prelude::*;
use sp_chaos::{
    judge, package_failure, random_schedule, FaultEvent, ReliabilityConfig, Schedule, Workload,
};

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn lossless_tail_schedules_quiesce_exactly_once(seed in any::<u64>(), w in 0usize..4) {
        // `random_schedule` generates finite faults only (index faults,
        // closing windows, bounded stalls/pauses, healed partitions,
        // restarting crashes) with keep-alive on.
        let s = random_schedule(Workload::ALL[w], seed);
        let judged = judge(&s, 1);
        if !judged.violations.is_empty() {
            let f = package_failure(s);
            return Err(format!(
                "invariants violated: {:?}\nminimal reproducer:\n{}",
                judged.violations, f.repro
            ));
        }
    }

    #[test]
    fn crash_restart_plus_loss_schedules_quiesce_exactly_once(
        seed in any::<u64>(),
        w in 0usize..2,
        at_ns in 0u64..2_000_000,
        down_ns in 100_000u64..1_000_000,
        p in 1u32..=25,
        adaptive in any::<bool>(),
    ) {
        // Any crash instant and outage length inside the faulty prefix,
        // stacked on probabilistic loss, under either reliability mode:
        // the lossless tail must still end in exactly-once (modulo
        // crash-straddling redelivery) delivery and full quiescence.
        let mut s = Schedule::new([Workload::PingPong, Workload::Streaming][w]);
        s.seed = seed;
        s.msgs = 8;
        if adaptive {
            s.reliability = ReliabilityConfig::adaptive();
        }
        s.events = vec![
            FaultEvent::DropWindow {
                p: p as f64 / 100.0,
                from_ns: 0,
                until_ns: 2_500_000,
            },
            FaultEvent::Crash { node: 1, at_ns, down_ns },
        ];
        let judged = judge(&s, 1);
        if !judged.violations.is_empty() {
            let f = package_failure(s);
            return Err(format!(
                "invariants violated: {:?}\nminimal reproducer:\n{}",
                judged.violations, f.repro
            ));
        }
    }
}
