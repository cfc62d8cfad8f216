//! Serializable fault schedules — the unit of input to the chaos harness.
//!
//! A [`Schedule`] names a workload, its parameters, and an ordered list of
//! [`FaultEvent`]s pinned to virtual-time windows or global packet indices.
//! Schedules round-trip exactly through a plain-text format so a failing
//! run can be written to disk and re-executed byte-for-byte:
//!
//! ```text
//! workload pingpong
//! nodes 2
//! seed 42
//! msgs 8
//! keepalive_polls 64
//! deadline_ns 50000000
//! tail_quiet_ns 2000000
//! drop index 7
//! dup p 0.1 from 0 until 2000000
//! fifo_shrink node 1 capacity 4 from 0 until 1000000
//! send_stall node 0 at 100000 dur 500000
//! pause node 1 at 200000 dur 1000000
//! ```
//!
//! Multi-frame machines add two more header directives and one event:
//!
//! ```text
//! frames 2
//! route_policy adaptive
//! cable_kill from 0 to 1 lane 2
//! ```
//!
//! Hierarchical machines instead declare a fat-tree shape (which overrides
//! `frames`/`nodes`; `cable_kill` has no cables to sever there and is
//! ignored):
//!
//! ```text
//! fat_tree levels 2 radix 4 oversub 1 npf 4
//! ```
//!
//! The reliability layer adds one more header directive and two events
//! (node sets in `partition` are bitmasks, node `i` ⇒ bit `i`):
//!
//! ```text
//! reliability adaptive_rto 1 sack 1 min_rto_ns 50000 max_rto_ns 4000000 granularity_ns 10000 backoff_cap 6
//! crash node 1 at 300000 down 500000
//! partition a 1 b 2 from 100000 until 900000
//! ```
//!
//! All such headers serialize only when they differ from the classic
//! default (single frame, round-robin, legacy go-back-N reliability), so
//! every pre-existing schedule file (and every pinned reproducer report)
//! keeps its exact bytes.
//!
//! Lines starting with `#` are comments. All times are virtual nanoseconds.

use sp_am::ReliabilityConfig;
use sp_switch::RoutePolicy;
use std::fmt;

/// The workload a schedule runs its faults under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Node 0 sends `msgs` sequential request/reply round-trips to node 1.
    PingPong,
    /// Node 0 streams `msgs` one-way requests at node 1.
    Streaming,
    /// Both nodes perform `msgs` Split-C `write_u32`/`read_u32` round-trips
    /// against the peer's memory, verifying each value read back.
    SplitcRoundtrips,
    /// A ring of nodes exchanges `msgs` tagged MPI messages, verifying
    /// payload contents each round.
    MpiExchange,
}

impl Workload {
    /// Every workload, in campaign order.
    pub const ALL: [Workload; 4] = [
        Workload::PingPong,
        Workload::Streaming,
        Workload::SplitcRoundtrips,
        Workload::MpiExchange,
    ];

    /// The name used in schedule files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PingPong => "pingpong",
            Workload::Streaming => "streaming",
            Workload::SplitcRoundtrips => "splitc",
            Workload::MpiExchange => "mpi",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Node count the workload runs on by default.
    pub fn default_nodes(self) -> usize {
        match self {
            Workload::MpiExchange => 4,
            _ => 2,
        }
    }
}

/// One fault, pinned to a packet index, a virtual-time window, or a
/// virtual-time instant. Index-based events select packets by their global
/// fabric-injection index (0-based, in injection order); window events hit
/// packets probabilistically while the window `[from, until)` is open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Drop the packet with this global injection index.
    DropIndex(u64),
    /// Duplicate the packet with this global injection index.
    DupIndex(u64),
    /// Delay (reorder) the packet with this global injection index.
    DelayIndex(u64),
    /// Drop packets with probability `p` while the window is open.
    DropWindow {
        /// Per-packet selection probability.
        p: f64,
        /// Window opens (inclusive), virtual ns.
        from_ns: u64,
        /// Window closes (exclusive), virtual ns.
        until_ns: u64,
    },
    /// Duplicate packets with probability `p` while the window is open.
    DupWindow {
        /// Per-packet selection probability.
        p: f64,
        /// Window opens (inclusive), virtual ns.
        from_ns: u64,
        /// Window closes (exclusive), virtual ns.
        until_ns: u64,
    },
    /// Delay packets with probability `p` while the window is open.
    DelayWindow {
        /// Per-packet selection probability.
        p: f64,
        /// Window opens (inclusive), virtual ns.
        from_ns: u64,
        /// Window closes (exclusive), virtual ns.
        until_ns: u64,
    },
    /// Shrink a node's receive FIFO to `capacity` entries over a window
    /// (restored to the configured size at `until_ns`).
    FifoShrink {
        /// Node whose FIFO shrinks.
        node: usize,
        /// Shrunk capacity, in entries.
        capacity: usize,
        /// Shrink takes effect (virtual ns).
        from_ns: u64,
        /// Capacity is restored (virtual ns).
        until_ns: u64,
    },
    /// Stall a node's send DMA engine: the firmware pops no send-FIFO entry
    /// between `at` and `at + dur`.
    SendStall {
        /// Node whose send engine stalls.
        node: usize,
        /// Stall starts (virtual ns).
        at_ns: u64,
        /// Stall length (ns).
        dur_ns: u64,
    },
    /// Stall a node's receive firmware: arrivals queue behind the stall.
    RecvStall {
        /// Node whose receive engine stalls.
        node: usize,
        /// Stall starts (virtual ns).
        at_ns: u64,
        /// Stall length (ns).
        dur_ns: u64,
    },
    /// Pause a node's *program* (it stops polling), keepalive-visible from
    /// the peer's side. Applied at the first poll-loop iteration at or
    /// after `at`.
    Pause {
        /// Node whose program pauses.
        node: usize,
        /// Pause starts (virtual ns).
        at_ns: u64,
        /// Pause length (ns).
        dur_ns: u64,
    },
    /// Crash a node's program at `at_ns`: its adapter FIFOs and all AM
    /// channel/epoch state are wiped, the node stays dark for `down_ns`
    /// (arrivals during the outage are lost too), then it restarts with a
    /// bumped incarnation epoch. Handlers and application memory survive
    /// (the model crashes the *communication subsystem*, not the test
    /// harness). Applied at the first poll-loop iteration at or after
    /// `at_ns`, like [`FaultEvent::Pause`].
    Crash {
        /// Node that crashes.
        node: usize,
        /// Crash instant (virtual ns).
        at_ns: u64,
        /// Outage length (ns) before the restart.
        down_ns: u64,
    },
    /// Bidirectional partition between two node sets (bitmasks: node `i` ⇒
    /// bit `i`) over `[from_ns, until_ns)`: packets crossing the split in
    /// either direction are dropped; intra-side traffic is unaffected.
    Partition {
        /// One side of the split (bitmask).
        a: u64,
        /// The other side (bitmask).
        b: u64,
        /// Partition begins (inclusive, virtual ns).
        from_ns: u64,
        /// Partition heals (exclusive, virtual ns).
        until_ns: u64,
    },
    /// Permanently sever one cable lane of a frame pair: every packet
    /// routed onto it is dropped, for the whole run. Directional (only the
    /// `from -> to` cable dies); ignored on single-frame machines or when
    /// the pair/lane is out of range. With four lanes per pair the
    /// reliability layer must route retransmissions around the dead cable.
    CableKill {
        /// Source frame of the severed cable.
        from: usize,
        /// Destination frame of the severed cable.
        to: usize,
        /// Which of the parallel cable lanes dies.
        lane: usize,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::DropIndex(i) => write!(f, "drop index {i}"),
            FaultEvent::DupIndex(i) => write!(f, "dup index {i}"),
            FaultEvent::DelayIndex(i) => write!(f, "delay index {i}"),
            FaultEvent::DropWindow {
                p,
                from_ns,
                until_ns,
            } => {
                write!(f, "drop p {p} from {from_ns} until {until_ns}")
            }
            FaultEvent::DupWindow {
                p,
                from_ns,
                until_ns,
            } => {
                write!(f, "dup p {p} from {from_ns} until {until_ns}")
            }
            FaultEvent::DelayWindow {
                p,
                from_ns,
                until_ns,
            } => {
                write!(f, "delay p {p} from {from_ns} until {until_ns}")
            }
            FaultEvent::FifoShrink {
                node,
                capacity,
                from_ns,
                until_ns,
            } => {
                write!(
                    f,
                    "fifo_shrink node {node} capacity {capacity} from {from_ns} until {until_ns}"
                )
            }
            FaultEvent::SendStall {
                node,
                at_ns,
                dur_ns,
            } => {
                write!(f, "send_stall node {node} at {at_ns} dur {dur_ns}")
            }
            FaultEvent::RecvStall {
                node,
                at_ns,
                dur_ns,
            } => {
                write!(f, "recv_stall node {node} at {at_ns} dur {dur_ns}")
            }
            FaultEvent::Pause {
                node,
                at_ns,
                dur_ns,
            } => {
                write!(f, "pause node {node} at {at_ns} dur {dur_ns}")
            }
            FaultEvent::Crash {
                node,
                at_ns,
                down_ns,
            } => {
                write!(f, "crash node {node} at {at_ns} down {down_ns}")
            }
            FaultEvent::Partition {
                a,
                b,
                from_ns,
                until_ns,
            } => {
                write!(f, "partition a {a} b {b} from {from_ns} until {until_ns}")
            }
            FaultEvent::CableKill { from, to, lane } => {
                write!(f, "cable_kill from {from} to {to} lane {lane}")
            }
        }
    }
}

/// The name a routing policy carries in schedule files and reports.
pub fn policy_name(p: RoutePolicy) -> &'static str {
    match p {
        RoutePolicy::RoundRobin => "round_robin",
        RoutePolicy::Adaptive => "adaptive",
    }
}

/// Inverse of [`policy_name`].
pub fn parse_policy(s: &str) -> Option<RoutePolicy> {
    match s {
        "round_robin" => Some(RoutePolicy::RoundRobin),
        "adaptive" => Some(RoutePolicy::Adaptive),
        _ => None,
    }
}

/// A complete chaos-run description: workload, parameters, faults.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Workload to run the faults under.
    pub workload: Workload,
    /// Machine size (clamped up to the workload's minimum at run time).
    pub nodes: usize,
    /// Seed for the fault injector's stochastic selectors.
    pub seed: u64,
    /// Workload message count.
    pub msgs: u64,
    /// AM keep-alive threshold in unsuccessful polls; `0` disables
    /// keep-alive entirely (maps to `u32::MAX` in [`sp_am::AmConfig`]).
    pub keepalive_polls: u32,
    /// Per-wait virtual-time deadline: blocking loops give up at this
    /// absolute virtual time instead of hanging forever.
    pub deadline_ns: u64,
    /// Quiet-window length for the lossless-tail drain each node runs
    /// after its workload loop.
    pub tail_quiet_ns: u64,
    /// Switch frames. `1` (the default) is the classic single-frame
    /// machine; larger values spread `nodes` across
    /// `Topology::multi_frame(frames, ceil(nodes / frames))`.
    pub frames: usize,
    /// Fabric routing policy. Only observable on multi-frame machines,
    /// where the candidate routes ride distinct cables.
    pub route_policy: RoutePolicy,
    /// Hierarchical fat-tree topology `(levels, radix, oversubscription,
    /// nodes_per_frame)`. When set it overrides `frames` and `nodes`: the
    /// machine is `Topology::fat_tree_custom(..)` and every leaf frame is
    /// fully populated. Serialized only when set, so flat schedule files
    /// keep their exact bytes.
    pub fat_tree: Option<(usize, usize, usize, usize)>,
    /// AM reliability mode (legacy go-back-N by default). Serialized only
    /// when non-default, so pre-reliability schedule files keep their
    /// bytes; its hash is embedded in replay reports so a schedule replayed
    /// under a different reliability configuration fails loudly.
    pub reliability: ReliabilityConfig,
    /// The faults, applied in order.
    pub events: Vec<FaultEvent>,
}

impl Schedule {
    /// A schedule with no faults and default parameters for `workload`.
    pub fn new(workload: Workload) -> Schedule {
        Schedule {
            workload,
            nodes: workload.default_nodes(),
            seed: 1,
            msgs: 8,
            keepalive_polls: 64,
            deadline_ns: 50_000_000,
            tail_quiet_ns: 2_000_000,
            frames: 1,
            route_policy: RoutePolicy::RoundRobin,
            fat_tree: None,
            reliability: ReliabilityConfig::default(),
            events: Vec::new(),
        }
    }

    /// The virtual instant the last timed fault ends (windows, stalls,
    /// pauses, crash outages and partitions), zero when there is none.
    pub fn faults_end_ns(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match *e {
                FaultEvent::DropWindow { until_ns, .. }
                | FaultEvent::DupWindow { until_ns, .. }
                | FaultEvent::DelayWindow { until_ns, .. }
                | FaultEvent::FifoShrink { until_ns, .. }
                | FaultEvent::Partition { until_ns, .. } => until_ns,
                FaultEvent::SendStall { at_ns, dur_ns, .. }
                | FaultEvent::RecvStall { at_ns, dur_ns, .. }
                | FaultEvent::Pause { at_ns, dur_ns, .. } => at_ns.saturating_add(dur_ns),
                FaultEvent::Crash { at_ns, down_ns, .. } => at_ns.saturating_add(down_ns),
                FaultEvent::DropIndex(_)
                | FaultEvent::DupIndex(_)
                | FaultEvent::DelayIndex(_)
                | FaultEvent::CableKill { .. } => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Render the canonical text form (inverse of [`Schedule::parse`]).
    pub fn format(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "workload {}", self.workload.name());
        let _ = writeln!(s, "nodes {}", self.nodes);
        let _ = writeln!(s, "seed {}", self.seed);
        let _ = writeln!(s, "msgs {}", self.msgs);
        let _ = writeln!(s, "keepalive_polls {}", self.keepalive_polls);
        let _ = writeln!(s, "deadline_ns {}", self.deadline_ns);
        let _ = writeln!(s, "tail_quiet_ns {}", self.tail_quiet_ns);
        // Topology headers only when non-default: single-frame schedule
        // files written before multi-frame support keep their exact bytes.
        if self.frames > 1 {
            let _ = writeln!(s, "frames {}", self.frames);
        }
        if self.route_policy != RoutePolicy::RoundRobin {
            let _ = writeln!(s, "route_policy {}", policy_name(self.route_policy));
        }
        if let Some((levels, radix, oversub, npf)) = self.fat_tree {
            let _ = writeln!(
                s,
                "fat_tree levels {levels} radix {radix} oversub {oversub} npf {npf}"
            );
        }
        if !self.reliability.is_legacy() {
            let _ = writeln!(s, "reliability {}", self.reliability.format_fields());
        }
        for ev in &self.events {
            let _ = writeln!(s, "{ev}");
        }
        s
    }

    /// Parse the text form. Header lines may appear in any order; event
    /// lines keep their order. Lines starting with `#` are ignored.
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let mut sched: Option<Schedule> = None;
        let mut header: Vec<(String, u64)> = Vec::new();
        let mut policy: Option<RoutePolicy> = None;
        let mut fat_tree: Option<(usize, usize, usize, usize)> = None;
        let mut reliability: Option<ReliabilityConfig> = None;
        let mut events = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: &str| format!("line {}: {m}: {line:?}", lineno + 1);
            let tok: Vec<&str> = line.split_whitespace().collect();
            match tok[0] {
                "workload" => {
                    let name = tok.get(1).ok_or_else(|| err("missing workload name"))?;
                    let w = Workload::parse(name).ok_or_else(|| err("unknown workload"))?;
                    sched = Some(Schedule::new(w));
                }
                "nodes" | "seed" | "msgs" | "keepalive_polls" | "deadline_ns" | "tail_quiet_ns"
                | "frames" => {
                    let v = parse_u64(tok.get(1).copied()).ok_or_else(|| err("bad value"))?;
                    header.push((tok[0].to_string(), v));
                }
                "route_policy" => {
                    let name = tok.get(1).ok_or_else(|| err("missing route policy"))?;
                    policy = Some(parse_policy(name).ok_or_else(|| err("unknown route policy"))?);
                }
                "fat_tree" => {
                    let f = parse_fields(&tok[1..], &["levels", "radix", "oversub", "npf"])
                        .ok_or_else(|| err("bad fat_tree header"))?;
                    let (levels, radix, oversub, npf) =
                        (f[0] as usize, f[1] as usize, f[2] as usize, f[3] as usize);
                    // Validate here so a hostile schedule file errors instead
                    // of panicking inside the topology constructor.
                    if !(2..=sp_switch::MAX_PATH_LINKS / 2).contains(&levels)
                        || radix < 2
                        || oversub < 1
                        || !(1..=sp_switch::FRAME_PORTS).contains(&npf)
                    {
                        return Err(err("fat_tree shape out of range"));
                    }
                    fat_tree = Some((levels, radix, oversub, npf));
                }
                "drop" | "dup" | "delay" => {
                    events.push(parse_fault(&tok).ok_or_else(|| err("bad fault event"))?);
                }
                "fifo_shrink" => {
                    let f = parse_fields(&tok[1..], &["node", "capacity", "from", "until"])
                        .ok_or_else(|| err("bad fifo_shrink event"))?;
                    events.push(FaultEvent::FifoShrink {
                        node: f[0] as usize,
                        capacity: f[1] as usize,
                        from_ns: f[2],
                        until_ns: f[3],
                    });
                }
                "reliability" => {
                    let f = parse_fields(
                        &tok[1..],
                        &[
                            "adaptive_rto",
                            "sack",
                            "min_rto_ns",
                            "max_rto_ns",
                            "granularity_ns",
                            "backoff_cap",
                        ],
                    )
                    .ok_or_else(|| err("bad reliability directive"))?;
                    reliability = Some(
                        ReliabilityConfig::from_values(&f)
                            .ok_or_else(|| err("bad reliability values"))?,
                    );
                }
                "crash" => {
                    let f = parse_fields(&tok[1..], &["node", "at", "down"])
                        .ok_or_else(|| err("bad crash event"))?;
                    events.push(FaultEvent::Crash {
                        node: f[0] as usize,
                        at_ns: f[1],
                        down_ns: f[2],
                    });
                }
                "partition" => {
                    let f = parse_fields(&tok[1..], &["a", "b", "from", "until"])
                        .ok_or_else(|| err("bad partition event"))?;
                    events.push(FaultEvent::Partition {
                        a: f[0],
                        b: f[1],
                        from_ns: f[2],
                        until_ns: f[3],
                    });
                }
                "cable_kill" => {
                    let f = parse_fields(&tok[1..], &["from", "to", "lane"])
                        .ok_or_else(|| err("bad cable_kill event"))?;
                    events.push(FaultEvent::CableKill {
                        from: f[0] as usize,
                        to: f[1] as usize,
                        lane: f[2] as usize,
                    });
                }
                "send_stall" | "recv_stall" | "pause" => {
                    let f = parse_fields(&tok[1..], &["node", "at", "dur"])
                        .ok_or_else(|| err("bad stall/pause event"))?;
                    let (node, at_ns, dur_ns) = (f[0] as usize, f[1], f[2]);
                    events.push(match tok[0] {
                        "send_stall" => FaultEvent::SendStall {
                            node,
                            at_ns,
                            dur_ns,
                        },
                        "recv_stall" => FaultEvent::RecvStall {
                            node,
                            at_ns,
                            dur_ns,
                        },
                        _ => FaultEvent::Pause {
                            node,
                            at_ns,
                            dur_ns,
                        },
                    });
                }
                _ => return Err(err("unknown directive")),
            }
        }
        let mut sched = sched.ok_or("missing `workload` line".to_string())?;
        for (key, v) in header {
            match key.as_str() {
                "nodes" => sched.nodes = v as usize,
                "seed" => sched.seed = v,
                "msgs" => sched.msgs = v,
                "keepalive_polls" => sched.keepalive_polls = v as u32,
                "deadline_ns" => sched.deadline_ns = v,
                "tail_quiet_ns" => sched.tail_quiet_ns = v,
                "frames" => sched.frames = (v as usize).max(1),
                _ => unreachable!(),
            }
        }
        if let Some(p) = policy {
            sched.route_policy = p;
        }
        sched.fat_tree = fat_tree;
        if let Some(r) = reliability {
            sched.reliability = r;
        }
        sched.events = events;
        Ok(sched)
    }
}

fn parse_u64(tok: Option<&str>) -> Option<u64> {
    tok?.parse().ok()
}

/// Parse `<label0> <v0> <label1> <v1> …` checking each label.
fn parse_fields(tok: &[&str], labels: &[&str]) -> Option<Vec<u64>> {
    if tok.len() != labels.len() * 2 {
        return None;
    }
    let mut out = Vec::with_capacity(labels.len());
    for (i, label) in labels.iter().enumerate() {
        if tok[2 * i] != *label {
            return None;
        }
        out.push(tok[2 * i + 1].parse().ok()?);
    }
    Some(out)
}

/// Parse `drop|dup|delay index N` or `drop|dup|delay p P from A until B`.
fn parse_fault(tok: &[&str]) -> Option<FaultEvent> {
    match *tok.get(1)? {
        "index" => {
            let i: u64 = tok.get(2)?.parse().ok()?;
            if tok.len() != 3 {
                return None;
            }
            Some(match tok[0] {
                "drop" => FaultEvent::DropIndex(i),
                "dup" => FaultEvent::DupIndex(i),
                _ => FaultEvent::DelayIndex(i),
            })
        }
        "p" => {
            if tok.len() != 7 || tok[3] != "from" || tok[5] != "until" {
                return None;
            }
            let p: f64 = tok.get(2)?.parse().ok()?;
            if !(0.0..=1.0).contains(&p) {
                return None;
            }
            let from_ns: u64 = tok[4].parse().ok()?;
            let until_ns: u64 = tok[6].parse().ok()?;
            Some(match tok[0] {
                "drop" => FaultEvent::DropWindow {
                    p,
                    from_ns,
                    until_ns,
                },
                "dup" => FaultEvent::DupWindow {
                    p,
                    from_ns,
                    until_ns,
                },
                _ => FaultEvent::DelayWindow {
                    p,
                    from_ns,
                    until_ns,
                },
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        let mut s = Schedule::new(Workload::PingPong);
        s.seed = 42;
        s.msgs = 4;
        s.keepalive_polls = 0;
        s.events = vec![
            FaultEvent::DropIndex(7),
            FaultEvent::DupWindow {
                p: 0.125,
                from_ns: 0,
                until_ns: 2_000_000,
            },
            FaultEvent::DelayIndex(3),
            FaultEvent::FifoShrink {
                node: 1,
                capacity: 4,
                from_ns: 10,
                until_ns: 1_000_000,
            },
            FaultEvent::SendStall {
                node: 0,
                at_ns: 100_000,
                dur_ns: 500_000,
            },
            FaultEvent::RecvStall {
                node: 1,
                at_ns: 5,
                dur_ns: 6,
            },
            FaultEvent::Pause {
                node: 1,
                at_ns: 200_000,
                dur_ns: 1_000_000,
            },
            FaultEvent::DropWindow {
                p: 1.0,
                from_ns: 3,
                until_ns: 9,
            },
        ];
        s
    }

    #[test]
    fn round_trips_exactly() {
        let s = sample();
        let text = s.format();
        let back = Schedule::parse(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.format(), text);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = format!("# repro\n\n{}\n# trailing\n", sample().format());
        assert_eq!(Schedule::parse(&text).unwrap(), sample());
    }

    #[test]
    fn header_lines_override_defaults_in_any_order() {
        let s = Schedule::parse("msgs 3\nworkload mpi\nseed 9\n").unwrap();
        assert_eq!(s.workload, Workload::MpiExchange);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.msgs, 3);
        assert_eq!(s.seed, 9);
    }

    #[test]
    fn topology_headers_and_cable_kills_round_trip() {
        let mut s = sample();
        s.frames = 2;
        s.route_policy = RoutePolicy::Adaptive;
        s.events.push(FaultEvent::CableKill {
            from: 0,
            to: 1,
            lane: 2,
        });
        let text = s.format();
        assert!(text.contains("frames 2\n"));
        assert!(text.contains("route_policy adaptive\n"));
        assert!(text.contains("cable_kill from 0 to 1 lane 2\n"));
        let back = Schedule::parse(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.format(), text);
    }

    #[test]
    fn fat_tree_header_round_trips_and_validates() {
        let mut s = sample();
        s.fat_tree = Some((2, 4, 1, 4));
        let text = s.format();
        assert!(text.contains("fat_tree levels 2 radix 4 oversub 1 npf 4\n"));
        let back = Schedule::parse(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.format(), text);
        // Flat schedules never mention the header.
        assert!(!sample().format().contains("fat_tree"));
        // Hostile shapes error instead of panicking downstream.
        for bad in [
            "workload pingpong\nfat_tree levels 9 radix 4 oversub 1 npf 4",
            "workload pingpong\nfat_tree levels 2 radix 1 oversub 1 npf 4",
            "workload pingpong\nfat_tree levels 2 radix 4 oversub 0 npf 4",
            "workload pingpong\nfat_tree levels 2 radix 4 oversub 1 npf 17",
        ] {
            assert!(Schedule::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn default_topology_serializes_to_the_pre_topology_bytes() {
        // Single-frame round-robin schedules must not mention the topology
        // at all: exactly the 7 historical header lines plus the events.
        let s = sample();
        let text = s.format();
        assert!(!text.contains("frames"));
        assert!(!text.contains("route_policy"));
        let headers = text.lines().take_while(|l| !l.starts_with("drop")).count();
        assert_eq!(headers, 7);
    }

    #[test]
    fn reliability_crash_and_partition_round_trip() {
        let mut s = sample();
        s.reliability = ReliabilityConfig::adaptive();
        s.events.push(FaultEvent::Crash {
            node: 1,
            at_ns: 300_000,
            down_ns: 500_000,
        });
        s.events.push(FaultEvent::Partition {
            a: 0b01,
            b: 0b10,
            from_ns: 100_000,
            until_ns: 900_000,
        });
        let text = s.format();
        assert!(text.contains(
            "reliability adaptive_rto 1 sack 1 min_rto_ns 50000 \
             max_rto_ns 4000000 granularity_ns 10000 backoff_cap 6\n"
        ));
        assert!(text.contains("crash node 1 at 300000 down 500000\n"));
        assert!(text.contains("partition a 1 b 2 from 100000 until 900000\n"));
        let back = Schedule::parse(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.format(), text);
    }

    #[test]
    fn legacy_reliability_serializes_to_the_pre_reliability_bytes() {
        let s = sample();
        assert!(s.reliability.is_legacy());
        assert!(!s.format().contains("reliability"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Schedule::parse("").is_err());
        assert!(Schedule::parse("workload nope").is_err());
        assert!(Schedule::parse("workload pingpong\nfrobnicate 3").is_err());
        assert!(Schedule::parse("workload pingpong\ndrop p 1.5 from 0 until 9").is_err());
        assert!(Schedule::parse("workload pingpong\ndrop index").is_err());
        assert!(Schedule::parse("workload pingpong\nroute_policy hottest").is_err());
        assert!(Schedule::parse("workload pingpong\ncable_kill from 0 to 1").is_err());
        assert!(Schedule::parse("workload pingpong\ncrash node 1 at 5").is_err());
        assert!(Schedule::parse("workload pingpong\npartition a 1 b 2 from 0").is_err());
        assert!(Schedule::parse("workload pingpong\nreliability adaptive_rto 2").is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
