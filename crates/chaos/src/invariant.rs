//! The invariants every schedule execution must satisfy after its lossless
//! tail, and the deterministic report a run is judged (and replayed) by.

use crate::run::RunOutcome;
use crate::schedule::{policy_name, FaultEvent, Schedule, Workload};
use sp_switch::RoutePolicy;
use std::collections::BTreeSet;
use std::fmt::Write;

/// Nodes the schedule actually crashes: crash events are applied by the
/// AM-level workloads only (the library-level workloads ignore them), and
/// only for in-range nodes.
fn crashed_nodes(s: &Schedule) -> BTreeSet<usize> {
    if !matches!(s.workload, Workload::PingPong | Workload::Streaming) {
        return BTreeSet::new();
    }
    s.events
        .iter()
        .filter_map(|ev| match *ev {
            FaultEvent::Crash { node, .. } if node < s.nodes.max(2) => Some(node),
            _ => None,
        })
        .collect()
}

/// One invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: &'static str,
    /// What exactly happened (ids, nodes, counters).
    pub detail: String,
}

impl Violation {
    fn new(kind: &'static str, detail: String) -> Violation {
        Violation { kind, detail }
    }
}

/// Check every invariant against a completed run:
///
/// * **exactly-once** — no delivery stream observes the same id twice;
/// * **ordered** — every stream's ids are strictly increasing (SP AM
///   promises ordered delivery per channel);
/// * **no-corruption** — workload-level payload verification passed;
/// * **completeness** — everything the sender's protocol accepted was
///   delivered (per workload, from the protocol's own counters);
/// * **quiescence** — after the lossless tail every node emitted all
///   accepted sends, no receive FIFO holds unread packets, and (when
///   keep-alive is enabled, which is the only configuration that *can*
///   clear ack residue) every channel is fully idle;
/// * **conservation** — packets are neither created nor destroyed
///   unaccounted, at each AM port, across the adapters, and in the fabric;
/// * **aborted** — the run exhausted its event budget (reported alone,
///   since hardware state is lost).
pub fn check(out: &RunOutcome) -> Vec<Violation> {
    let mut v = Vec::new();
    if let Some(e) = &out.aborted {
        v.push(Violation::new("aborted", e.clone()));
        return v;
    }
    let s = &out.schedule;
    let crashed = crashed_nodes(s);

    // A receiver crash loses the "already delivered" memory for packets
    // that were delivered but not yet cumulatively acked, so the sender's
    // reincarnated channel redelivers them: exactly-once across a crash
    // necessarily degrades to exactly-once *modulo crash-straddling
    // redelivery*. Crash schedules are therefore judged on each stream's
    // first deliveries (dedup keeping first occurrence); everything else
    // keeps the strict checks.
    let streams: Vec<(String, Vec<u64>)> = out
        .streams
        .iter()
        .map(|(name, ids)| {
            if crashed.is_empty() {
                (name.clone(), ids.clone())
            } else {
                let mut seen = BTreeSet::new();
                let firsts = ids.iter().copied().filter(|&i| seen.insert(i)).collect();
                (name.clone(), firsts)
            }
        })
        .collect();

    for (name, ids) in &streams {
        let mut seen = BTreeSet::new();
        for &id in ids {
            if !seen.insert(id) {
                v.push(Violation::new(
                    "duplicate-delivery",
                    format!("{name}: id {id} delivered twice"),
                ));
            }
        }
        if let Some(w) = ids.windows(2).find(|w| w[1] <= w[0]) {
            v.push(Violation::new(
                "out-of-order",
                format!("{name}: id {} delivered after id {}", w[1], w[0]),
            ));
        }
    }

    for m in &out.mismatches {
        v.push(Violation::new("data-mismatch", m.clone()));
    }

    let len = |name: &str| -> u64 {
        streams
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, ids)| ids.len() as u64)
    };
    let node = |i: usize| out.nodes.iter().find(|n| n.node == i);
    fn incomplete(v: &mut Vec<Violation>, what: &str, got: u64, want: u64) {
        if got != want {
            v.push(Violation::new(
                "incomplete-delivery",
                format!("{what}: {got} delivered, {want} accepted for send"),
            ));
        }
    }
    // Completeness compares a stream's (first-)delivery count against the
    // *sender's* accepted-for-send counter — meaningless when that sender
    // crashed, since the wipe discards accepted-but-unsent traffic.
    match s.workload {
        Workload::PingPong => {
            if let (Some(n0), Some(n1)) = (node(0), node(1)) {
                if !crashed.contains(&0) {
                    incomplete(&mut v, "n1:req", len("n1:req"), n0.stats.requests_sent);
                }
                if !crashed.contains(&1) {
                    incomplete(&mut v, "n0:rep", len("n0:rep"), n1.stats.replies_sent);
                }
            }
        }
        Workload::Streaming => {
            if let Some(n0) = node(0) {
                if !crashed.contains(&0) {
                    incomplete(&mut v, "n1:req", len("n1:req"), n0.stats.requests_sent);
                }
            }
        }
        Workload::SplitcRoundtrips | Workload::MpiExchange => {
            let stream = if s.workload == Workload::SplitcRoundtrips {
                "rt"
            } else {
                "xch"
            };
            for n in &out.nodes {
                let peer_exists =
                    s.workload == Workload::MpiExchange || (n.node ^ 1) < out.nodes.len();
                if peer_exists {
                    let name = format!("n{}:{stream}", n.node);
                    incomplete(&mut v, &name, len(&name), s.msgs);
                }
            }
        }
    }

    for n in &out.nodes {
        if !n.all_sent {
            v.push(Violation::new(
                "stuck-send",
                format!("node {}: unsent traffic after tail: {}", n.node, n.residue),
            ));
        }
        if s.keepalive_polls != 0 && !n.all_idle {
            v.push(Violation::new(
                "no-quiescence",
                format!(
                    "node {}: channels not idle after tail: {}",
                    n.node, n.residue
                ),
            ));
        }
    }
    for (i, b) in out.backlog.iter().enumerate() {
        if *b > 0 {
            v.push(Violation::new(
                "recv-backlog",
                format!("node {i}: {b} packets unread in receive FIFO"),
            ));
        }
    }

    let mut am_received = 0;
    for n in &out.nodes {
        let st = &n.stats;
        am_received += st.packets_received;
        let disp = st.shorts_delivered
            + st.data_packets_delivered
            + st.dup_dropped
            + st.ooo_dropped
            + st.controls_received
            + st.stale_dropped
            + st.ooo_held;
        if st.packets_received != disp {
            v.push(Violation::new(
                "conservation",
                format!(
                    "node {}: {} packets received != {} dispositions",
                    n.node, st.packets_received, disp
                ),
            ));
        }
    }
    let fabric_out = out.switch.delivered + out.switch.duplicated;
    if out.adapter_received + out.dropped_overflow != fabric_out {
        v.push(Violation::new(
            "conservation",
            format!(
                "adapters received {} + overflow {} != fabric delivered {}",
                out.adapter_received, out.dropped_overflow, fabric_out
            ),
        ));
    }
    let backlog: u64 = out.backlog.iter().map(|&b| b as u64).sum();
    if am_received + backlog + out.wiped_recv != out.adapter_received {
        v.push(Violation::new(
            "conservation",
            format!(
                "AM ports received {am_received} + backlog {backlog} + crash-wiped {} \
                 != adapters received {}",
                out.wiped_recv, out.adapter_received
            ),
        ));
    }
    v
}

/// Format the run as a deterministic multi-line report: only virtual-time
/// and counter state, so re-executing the same schedule yields the same
/// bytes. This is what reproducer files embed and replays are compared to.
pub fn report(out: &RunOutcome, violations: &[Violation]) -> String {
    let s = &out.schedule;
    let mut r = String::new();
    let _ = writeln!(
        r,
        "workload {} nodes {} seed {} msgs {} keepalive_polls {}",
        s.workload.name(),
        s.nodes,
        s.seed,
        s.msgs,
        s.keepalive_polls
    );
    // Topology line only for multi-frame (or non-default policy) runs, so
    // every pre-topology pinned report keeps its exact bytes.
    if let Some((levels, radix, oversub, npf)) = s.fat_tree {
        let _ = writeln!(
            r,
            "topology fat_tree levels {levels} radix {radix} oversub {oversub} npf {npf} route_policy {}",
            policy_name(s.route_policy)
        );
    } else if s.frames > 1 || s.route_policy != RoutePolicy::RoundRobin {
        let _ = writeln!(
            r,
            "topology frames {} route_policy {}",
            s.frames,
            policy_name(s.route_policy)
        );
    }
    if let Some(e) = &out.aborted {
        let _ = writeln!(r, "aborted {e}");
    } else {
        let _ = writeln!(r, "end_ns {}", out.end_ns);
        for n in &out.nodes {
            let st = &n.stats;
            let _ = writeln!(
                r,
                "node{}: end_ns {} sent {} rtx {} recvd {} shorts {} data {} dup {} ooo {} nacks {}/{} eacks {} probes {} answers {}/{} ka {} idle {} all_sent {} backlog {}",
                n.node,
                n.end_ns,
                st.packets_sent,
                st.packets_retransmitted,
                st.packets_received,
                st.shorts_delivered,
                st.data_packets_delivered,
                st.dup_dropped,
                st.ooo_dropped,
                st.nacks_sent,
                st.nacks_received,
                st.explicit_acks_sent,
                st.probes_sent,
                st.probe_answers_sent,
                st.probe_answers_received,
                st.keepalive_rounds,
                n.all_idle,
                n.all_sent,
                out.backlog.get(n.node).copied().unwrap_or(0)
            );
        }
        let sw = &out.switch;
        let _ = writeln!(
            r,
            "switch: delivered {} dropped {} delayed {} duplicated {} overflow {}",
            sw.delivered, sw.dropped, sw.delayed, sw.duplicated, out.dropped_overflow
        );
        // Reliability lines only for schedules that exercise the layer
        // (non-legacy config or crash faults): pre-reliability pinned
        // reports keep their exact bytes. The config hash makes a replay
        // under a *different* reliability configuration fail the
        // byte-compare loudly instead of silently diverging.
        if !s.reliability.is_legacy() || !crashed_nodes(s).is_empty() {
            let _ = writeln!(
                r,
                "reliability: config {:016x} wiped_recv {}",
                s.reliability.hash(),
                out.wiped_recv
            );
            for n in &out.nodes {
                let st = &n.stats;
                let _ = writeln!(
                    r,
                    "node{} reliability: rtx t/s/k {}/{}/{} stale {} buffered {} held {} \
                     epoch {} restarts {} backoff_hwm {} recovery_ns {}",
                    n.node,
                    st.rtx_timeout,
                    st.rtx_sack_gap,
                    st.rtx_keepalive,
                    st.stale_dropped,
                    st.ooo_buffered,
                    st.ooo_held,
                    st.epoch,
                    st.restarts,
                    st.backoff_hwm,
                    st.recovery_ns,
                );
            }
        }
        for (name, ids) in &out.streams {
            let _ = writeln!(r, "stream {name}: {} ids", ids.len());
        }
    }
    let _ = writeln!(r, "violations {}", violations.len());
    for viol in violations {
        let _ = writeln!(r, "V {}: {}", viol.kind, viol.detail);
    }
    r
}
