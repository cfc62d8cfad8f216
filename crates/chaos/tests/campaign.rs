//! End-to-end acceptance of the chaos harness: a demonstrably failing
//! schedule shrinks to a minimal reproducer whose replay reproduces the
//! identical violation byte-for-byte; random campaigns stay green; and the
//! shipped schedules behave as pinned.

use sp_chaos::{
    judge, package_failure, replay, repro_text, run_campaign, FaultEvent, ReliabilityConfig,
    RoutePolicy, Schedule, Workload,
};

/// Keep-alive disabled plus a drop of the final reply packet (index
/// `2*msgs - 1` of the strictly alternating pingpong stream): the one loss
/// the NACK machinery cannot see, padded with two recoverable decoy
/// faults the shrinker must strip.
fn demo_schedule() -> Schedule {
    let mut s = Schedule::new(Workload::PingPong);
    s.msgs = 4;
    s.keepalive_polls = 0;
    s.events = vec![
        FaultEvent::DelayIndex(1),
        FaultEvent::DropIndex(7),
        FaultEvent::DupIndex(3),
    ];
    s
}

#[test]
fn keepalive_off_tail_drop_shrinks_and_replays_byte_for_byte() {
    let judged = judge(&demo_schedule(), 1);
    assert!(
        judged
            .violations
            .iter()
            .any(|v| v.kind == "incomplete-delivery"),
        "tail drop without keep-alive must lose the final reply: {:?}",
        judged.violations
    );

    let f = package_failure(demo_schedule());
    assert!(
        f.shrunk.events.len() <= 3,
        "reproducer must be minimal, got {:?}",
        f.shrunk.events
    );
    assert_eq!(
        f.shrunk.events,
        vec![FaultEvent::DropIndex(7)],
        "both decoy faults are recoverable and must shrink away"
    );

    // The replay file re-executes to the identical violation: same virtual
    // times, same counters, same report bytes.
    let rep = replay(&f.repro, 1).expect("reproducer must parse");
    assert_eq!(rep.matches(), Some(true), "replay drifted:\n{}", rep.report);
    assert!(f.report.contains("V incomplete-delivery"));
    assert!(
        f.chrome_json.contains("switch-drop") || f.chrome_json.contains("ph"),
        "failing run must come with a Chrome trace"
    );
}

#[test]
fn same_fault_with_keepalive_recovers() {
    let mut s = demo_schedule();
    s.keepalive_polls = 64;
    let judged = judge(&s, 1);
    assert!(
        judged.violations.is_empty(),
        "keep-alive must restart the lost tail: {:?}",
        judged.violations
    );
}

#[test]
fn smoke_campaign_is_green() {
    let result = run_campaign(3, 9000, &Workload::ALL, 1, |_, _| {});
    assert_eq!(result.runs, 12);
    let reports: Vec<&str> = result.failures.iter().map(|f| f.report.as_str()).collect();
    assert!(
        result.failures.is_empty(),
        "random lossless-tail schedules must all pass:\n{}",
        reports.join("\n---\n")
    );
}

#[test]
fn fabric_duplicates_surface_in_outcome_counters() {
    let mut s = Schedule::new(Workload::Streaming);
    s.events = vec![FaultEvent::DupIndex(0), FaultEvent::DupIndex(2)];
    let j = judge(&s, 1);
    assert!(j.violations.is_empty(), "{:?}", j.violations);
    assert_eq!(j.outcome.switch.duplicated, 2);
    let dup_dropped: u64 = j.outcome.nodes.iter().map(|n| n.stats.dup_dropped).sum();
    assert_eq!(dup_dropped, 2, "each fabric dup must hit a DupDrop re-ACK");
}

#[test]
fn multi_frame_adaptive_campaign_survives_drop_and_delay_windows() {
    // Every workload on a two-frame machine under adaptive routing, with
    // probabilistic loss and reordering over the first 3 ms: exactly-once
    // and quiescence must hold exactly as on the single-frame machine.
    for w in Workload::ALL {
        let mut s = Schedule::new(w);
        s.frames = 2;
        s.route_policy = RoutePolicy::Adaptive;
        s.events = vec![
            FaultEvent::DropWindow {
                p: 0.15,
                from_ns: 0,
                until_ns: 3_000_000,
            },
            FaultEvent::DelayWindow {
                p: 0.15,
                from_ns: 0,
                until_ns: 3_000_000,
            },
        ];
        let j = judge(&s, 1);
        assert!(
            j.violations.is_empty(),
            "{} under adaptive multi-frame faults: {:?}",
            w.name(),
            j.violations
        );
        assert!(
            j.report.contains("topology frames 2 route_policy adaptive"),
            "report must name the topology:\n{}",
            j.report
        );
    }
}

#[test]
fn killing_one_cable_of_a_frame_pair_still_quiesces() {
    // Sever one of the four cable lanes between the frames, permanently.
    // Fault-blind round-robin keeps feeding it packets and must recover
    // them by retransmission onto the three live lanes; fault-aware
    // adaptive masks the dead lane out of selection entirely and loses
    // nothing. Either way the run must reach full quiescence.
    for policy in [RoutePolicy::RoundRobin, RoutePolicy::Adaptive] {
        let mut s = Schedule::new(Workload::PingPong);
        s.frames = 2; // two nodes, one per frame: all traffic is cross-frame
        s.route_policy = policy;
        s.events = vec![FaultEvent::CableKill {
            from: 0,
            to: 1,
            lane: 0,
        }];
        let j = judge(&s, 1);
        assert!(
            j.violations.is_empty(),
            "{policy:?} with a dead cable: {:?}",
            j.violations
        );
        match policy {
            RoutePolicy::RoundRobin => assert!(
                j.outcome.switch.dropped > 0,
                "round-robin: the severed lane never saw a packet"
            ),
            RoutePolicy::Adaptive => assert_eq!(
                j.outcome.switch.dropped, 0,
                "adaptive: a dead lane must be masked out of selection"
            ),
        }
    }
}

#[test]
fn topology_aware_failing_schedule_shrinks_to_one_event() {
    // Same kill shot as the single-frame demo (keep-alive off plus a drop
    // of the final reply), but on a three-frame adaptive machine, padded
    // with two topology-aware decoys: a cable kill on a frame pair that
    // carries no traffic, and a recoverable delay. The shrinker must strip
    // both and the reproducer must replay byte-for-byte, topology included.
    let mut s = Schedule::new(Workload::PingPong);
    s.frames = 3; // node 2 is idle, so the 0<->2 cables carry nothing
    s.route_policy = RoutePolicy::Adaptive;
    s.msgs = 4;
    s.keepalive_polls = 0;
    s.events = vec![
        FaultEvent::CableKill {
            from: 0,
            to: 2,
            lane: 1,
        },
        FaultEvent::DropIndex(7),
        FaultEvent::DelayIndex(1),
    ];
    let f = package_failure(s);
    assert_eq!(
        f.shrunk.events,
        vec![FaultEvent::DropIndex(7)],
        "decoy cable kill and delay must shrink away"
    );
    assert!(f.repro.contains("frames 3\n"));
    assert!(f.repro.contains("route_policy adaptive\n"));
    let rep = replay(&f.repro, 1).expect("reproducer must parse");
    assert_eq!(rep.matches(), Some(true), "replay drifted:\n{}", rep.report);
}

/// Node 1 crashes 600 µs into a lossy pingpong under the adaptive
/// reliability config: the restart bumps its incarnation epoch, the
/// sender's channels reincarnate, and the run must still reach
/// exactly-once (modulo crash-straddling redelivery) and quiescence.
fn crash_schedule() -> Schedule {
    let mut s = Schedule::new(Workload::PingPong);
    s.msgs = 12;
    s.seed = 77;
    s.reliability = ReliabilityConfig::adaptive();
    s.events = vec![
        FaultEvent::DropWindow {
            p: 0.15,
            from_ns: 0,
            until_ns: 2_000_000,
        },
        FaultEvent::Crash {
            node: 1,
            at_ns: 600_000,
            down_ns: 500_000,
        },
    ];
    s
}

#[test]
fn crash_restart_recovers_exactly_once_and_reports_recovery() {
    let j = judge(&crash_schedule(), 1);
    assert!(
        j.violations.is_empty(),
        "crash/restart must recover over the lossless tail: {:?}",
        j.violations
    );
    let n1 = &j
        .outcome
        .nodes
        .iter()
        .find(|n| n.node == 1)
        .expect("node 1 ran")
        .stats;
    assert_eq!(n1.restarts, 1, "exactly one restart happened");
    assert_eq!(n1.epoch, 1, "the restart must bump the incarnation epoch");
    assert!(n1.recovery_ns > 0, "the restart must clock its recovery");
    assert!(
        j.report.contains("reliability: config") && j.report.contains("restarts 1"),
        "crash runs must report the reliability layer:\n{}",
        j.report
    );
}

#[test]
fn healed_partition_quiesces_exactly_once() {
    // Sever node 0 from node 1 for 700 µs mid-run; once healed, the
    // reliability layer must redeliver everything the partition ate,
    // exactly once, and the run must fully quiesce.
    let mut s = Schedule::new(Workload::PingPong);
    s.msgs = 12;
    s.events = vec![FaultEvent::Partition {
        a: 0b01,
        b: 0b10,
        from_ns: 200_000,
        until_ns: 900_000,
    }];
    let j = judge(&s, 1);
    assert!(
        j.violations.is_empty(),
        "healed partition must end exactly-once: {:?}",
        j.violations
    );
    assert!(
        j.outcome.switch.dropped > 0,
        "the partition window must actually sever traffic"
    );
}

#[test]
fn splitc_partition_straddling_the_quiet_tail_completes() {
    // Regression: a dead inter-frame cable slows the Split-C round-trips
    // into a partition window *longer than the quiet tail*, so one node
    // used to finish, hear nothing but partition silence, drain, and
    // exit — stranding its peer in an unbounded blocking read that spun
    // until the event budget aborted the run. The workload's waits are
    // now deadline-bounded and a closing barrier keeps every service
    // window open until all nodes finish.
    let mut s = Schedule::new(Workload::SplitcRoundtrips);
    s.seed = 6;
    s.msgs = 6;
    s.frames = 2;
    s.events = vec![
        FaultEvent::CableKill {
            from: 0,
            to: 1,
            lane: 2,
        },
        FaultEvent::Partition {
            a: 0b01,
            b: 0b10,
            from_ns: 1_144_380,
            until_ns: 3_081_407,
        },
    ];
    let j = judge(&s, 1);
    assert!(
        j.violations.is_empty(),
        "healed partition + dead cable must still complete: {:?}",
        j.violations
    );
    for n in ["n0:rt", "n1:rt"] {
        let got = j
            .outcome
            .streams
            .iter()
            .find(|(name, _)| name == n)
            .map(|(_, ids)| ids.len());
        assert_eq!(got, Some(6), "{n} must finish every round-trip");
    }
}

#[test]
fn crash_schedule_replays_byte_identically_across_shards() {
    let s = crash_schedule();
    let serial = judge(&s, 1);
    assert!(serial.violations.is_empty(), "{:?}", serial.violations);
    for shards in [2, 4] {
        let sharded = judge(&s, shards);
        assert_eq!(
            serial.report, sharded.report,
            "crash/restart run diverged at {shards} shards"
        );
    }
}

#[test]
fn replay_under_a_different_reliability_config_fails_loudly() {
    let s = crash_schedule();
    let j = judge(&s, 1);
    assert!(j.violations.is_empty(), "{:?}", j.violations);
    let repro = repro_text(&s, &j.report);
    let faithful = replay(&repro, 1).expect("reproducer must parse");
    assert_eq!(faithful.matches(), Some(true));

    // Strip the reliability directive: same schedule, legacy config. The
    // config hash embedded in the expected report must catch the swap even
    // if every counter happened to coincide.
    let tampered: String = repro
        .lines()
        .filter(|l| !l.starts_with("reliability "))
        .map(|l| format!("{l}\n"))
        .collect();
    let rep = replay(&tampered, 1).expect("tampered reproducer still parses");
    assert_eq!(
        rep.matches(),
        Some(false),
        "a replay under a different reliability config must fail loudly"
    );
    assert!(
        rep.report.contains("reliability: config"),
        "crash schedules report the config hash even in legacy mode:\n{}",
        rep.report
    );
}

#[test]
fn pinned_crash_schedule_replays_serial_and_sharded() {
    let text = include_str!("../schedules/crash.sched");
    let rep = replay(text, 1).unwrap();
    assert_eq!(
        rep.matches(),
        Some(true),
        "crash/restart behaviour drifted under the pinned schedule:\n{}",
        rep.report
    );
    let rep4 = replay(text, 4).unwrap();
    assert_eq!(
        rep4.matches(),
        Some(true),
        "pinned crash schedule diverged under --parallel 4:\n{}",
        rep4.report
    );
}

#[test]
fn shipped_example_schedule_passes() {
    let rep = replay(include_str!("../schedules/example.sched"), 1).unwrap();
    assert!(
        rep.report.contains("\nviolations 0\n"),
        "example schedule must recover:\n{}",
        rep.report
    );
}

#[test]
fn pinned_nasty_schedule_report_is_stable() {
    let rep = replay(include_str!("../schedules/nasty.sched"), 1).unwrap();
    assert_eq!(
        rep.matches(),
        Some(true),
        "protocol behaviour drifted under the pinned schedule:\n{}",
        rep.report
    );
}

/// The two schedules that failed `campaign --per-workload 512 --seed 1`
/// before the quiet tail waited out the schedule's faults: a partition
/// that outlasts the receiver's work must not end its tail early.
#[test]
fn pinned_partition_tail_schedules_replay_serial_and_sharded() {
    for text in [
        include_str!("../schedules/partition-tail-streaming.sched"),
        include_str!("../schedules/partition-tail-splitc.sched"),
    ] {
        let rep = replay(text, 1).unwrap();
        assert_eq!(rep.matches(), Some(true), "drifted:\n{}", rep.report);
        assert!(rep.report.contains("\nviolations 0\n"), "{}", rep.report);
        let rep4 = replay(text, 4).unwrap();
        assert_eq!(rep4.matches(), Some(true), "--parallel 4:\n{}", rep4.report);
    }
}
