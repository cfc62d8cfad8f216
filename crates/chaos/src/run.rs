//! Executing one [`Schedule`]: build the machine, install the faults, run
//! the workload, and collect everything the invariant checker needs.

use crate::schedule::{FaultEvent, Schedule, Workload};
use parking_lot::Mutex;
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine, AmStats, GlobalPtr};
use sp_mpi::{Mpi, MpiAm, MpiAmConfig, MpiSt};
use sp_sim::{Dur, Time};
use sp_splitc::backend::am::{AmGas, SplitcSt};
use sp_splitc::Gas;
use sp_switch::{FaultInjector, FaultKind, FaultWindow, PartitionWindow, SwitchStats, Topology};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Engine-event ceiling per run: a livelock guard so schedules that wedge
/// the protocol (e.g. keep-alive disabled plus a tail drop under a
/// blocking workload) abort deterministically instead of hanging.
pub const EVENT_BUDGET: u64 = 5_000_000;

/// Per-node end-of-run snapshot, recorded by the node program itself just
/// before it exits.
#[derive(Debug, Clone)]
pub struct NodeEnd {
    /// Node id.
    pub node: usize,
    /// Virtual time the program exited.
    pub end_ns: u64,
    /// All outbound channels fully quiescent (nothing unacked).
    pub all_idle: bool,
    /// All accepted sends emitted (acks may be outstanding).
    pub all_sent: bool,
    /// Protocol counters.
    pub stats: AmStats,
    /// Channel-state residue (empty when idle) — names the stuck channel.
    pub residue: String,
}

/// Everything observable about one schedule execution. Contains only
/// virtual-time and counter state, so two executions of the same schedule
/// produce identical outcomes (and identical formatted reports).
#[derive(Debug)]
pub struct RunOutcome {
    /// The schedule that ran.
    pub schedule: Schedule,
    /// Final virtual time of the whole simulation.
    pub end_ns: u64,
    /// Per-node snapshots, ordered by node id.
    pub nodes: Vec<NodeEnd>,
    /// Named delivery streams in arrival order (sorted by name): ids
    /// observed by handlers / verified round-trips.
    pub streams: Vec<(String, Vec<u64>)>,
    /// Workload-level data corruption reports (wrong value read back).
    pub mismatches: Vec<String>,
    /// Switch fabric statistics.
    pub switch: SwitchStats,
    /// Receive-FIFO overflow drops, summed over adapters.
    pub dropped_overflow: u64,
    /// Per-node receive-FIFO backlog at end of run.
    pub backlog: Vec<usize>,
    /// Packets delivered into receive FIFOs, summed over adapters.
    pub adapter_received: u64,
    /// Delivered-but-unread receive-FIFO entries lost to crash wipes,
    /// summed over adapters.
    pub wiped_recv: u64,
    /// Set when the run aborted (event budget exhausted): the simulation's
    /// deterministic error string. Hardware state is lost on abort.
    pub aborted: Option<String>,
    /// Chrome trace JSON of the run (only when requested).
    pub chrome_json: Option<String>,
    /// Always-on bounded flight recorder: holds the tail of the run's
    /// trace so a failing schedule can dump its last virtual-time slice
    /// ([`sp_trace::FlightRecorder::dump_json`]) without re-running.
    /// Recording is virtual-time-only, so outcomes (and the invariant
    /// report) are byte-identical with or without it.
    pub flight: sp_trace::FlightRecorder,
}

#[derive(Default)]
struct Probe {
    streams: BTreeMap<String, Vec<u64>>,
    mismatches: Vec<String>,
    ends: BTreeMap<usize, NodeEnd>,
}

type SharedProbe = Arc<Mutex<Probe>>;

/// Per-node program state for the AM-level workloads.
struct ChaosSt {
    probe: SharedProbe,
    got: u64,
    pauses: Vec<(Time, Dur)>,
    pause_next: usize,
    crashes: Vec<(Time, Dur)>,
    crash_next: usize,
}

/// Execute `schedule` across `shards` conservative-parallel engine
/// shards (1: the one-shard engine) and collect the outcome, under either
/// routing policy. Fault classification happens at each packet's owning
/// shard, so outcomes (and the formatted invariant report) match one
/// shard's for any shard count, with one known gap: a scheduled event that
/// changes the fabric mid-run (a cable kill, say) reaches packets sent up
/// to one lookahead before it (ROADMAP item 9). The pinned schedules
/// replay byte-identically.
pub fn run(schedule: &Schedule, shards: usize) -> RunOutcome {
    run_inner(schedule, false, shards)
}

/// Execute `schedule` on one shard with tracing enabled and attach the
/// Chrome trace. Tracing is virtual-time-invariant, so the outcome is
/// otherwise identical to [`run`]'s.
pub fn run_traced(schedule: &Schedule) -> RunOutcome {
    run_inner(schedule, true, 1)
}

fn run_inner(s: &Schedule, trace: bool, shards: usize) -> RunOutcome {
    let nodes = s.nodes.max(2);
    // Multi-frame schedules spread the nodes over `frames` frames (rounded
    // up to keep frames equal-sized) and run under the schedule's routing
    // policy; `frames 1` is the classic single-frame machine where the
    // policy has nothing to choose between.
    let frames = s.frames.max(1);
    let (nodes, sp) = if let Some((levels, radix, oversub, npf)) = s.fat_tree {
        // A fat-tree header pins the whole machine shape: every leaf frame
        // is fully populated, so `nodes`/`frames` are overridden.
        let topo = sp_switch::Topology::fat_tree_custom(
            levels,
            radix,
            oversub,
            npf,
            sp_switch::DEFAULT_CABLES_PER_PAIR,
        );
        (
            topo.nodes(),
            sp_adapter::SpConfig::with_topology(topo).routed(s.route_policy),
        )
    } else if frames > 1 {
        let per = nodes.div_ceil(frames);
        (
            frames * per,
            sp_adapter::SpConfig::multi_frame(frames, per).routed(s.route_policy),
        )
    } else {
        (nodes, sp_adapter::SpConfig::thin(nodes))
    };
    let sp = sp.parallel(shards);
    let cost = sp.cost.clone();
    let am_cfg = AmConfig {
        keepalive_polls: if s.keepalive_polls == 0 {
            u32::MAX
        } else {
            s.keepalive_polls
        },
        reliability: s.reliability,
        ..AmConfig::default()
    };
    let mut m = AmMachine::new(sp, am_cfg, s.seed);
    install_faults(&mut m, s, nodes);
    m.set_event_budget(EVENT_BUDGET);
    let tracer = if trace {
        Some(m.enable_tracing(1 << 14))
    } else {
        None
    };
    // Always-on flight recorder. A full-trace run shares the big rings;
    // otherwise a small bounded ring (2k records/node) is installed, which
    // only ever holds the tail of the run — exactly what a crash dump needs.
    let flight = match &tracer {
        Some(t) => {
            sp_trace::FlightRecorder::from_tracer(t.clone(), sp_trace::flight::DEFAULT_WINDOW_NS)
        }
        None => {
            let f =
                sp_trace::FlightRecorder::new(nodes, 1 << 11, sp_trace::flight::DEFAULT_WINDOW_NS);
            m.install_tracer(f.tracer());
            f
        }
    };

    let probe: SharedProbe = Arc::new(Mutex::new(Probe::default()));
    let pauses = collect_pauses(s, nodes);
    let crashes = collect_crashes(s, nodes);
    match s.workload {
        Workload::PingPong => spawn_pingpong(&mut m, s, nodes, &probe, &pauses, &crashes),
        Workload::Streaming => spawn_streaming(&mut m, s, nodes, &probe, &pauses, &crashes),
        Workload::SplitcRoundtrips => spawn_splitc(&mut m, s, nodes, &probe, &pauses),
        Workload::MpiExchange => spawn_mpi(&mut m, s, nodes, &probe, &pauses, cost),
    }

    let result = m.run();
    let p = match Arc::try_unwrap(probe) {
        Ok(m) => m.into_inner(),
        // Abort paths can leave program threads holding clones; fall back
        // to draining a locked snapshot.
        Err(arc) => std::mem::take(&mut *arc.lock()),
    };
    let mut out = RunOutcome {
        schedule: s.clone(),
        end_ns: 0,
        nodes: p.ends.into_values().collect(),
        streams: p.streams.into_iter().collect(),
        mismatches: p.mismatches,
        switch: SwitchStats::default(),
        dropped_overflow: 0,
        backlog: vec![0; nodes],
        adapter_received: 0,
        wiped_recv: 0,
        aborted: None,
        chrome_json: None,
        flight,
    };
    match result {
        Ok(report) => {
            out.end_ns = report.end_time.as_ns();
            out.switch = report.world.switch.stats().clone();
            out.dropped_overflow = report.dropped_overflow;
            out.backlog = (0..nodes).map(|n| report.world.recv_backlog(n)).collect();
            out.adapter_received = (0..nodes)
                .map(|n| report.world.adapter_stats(n).received)
                .sum();
            out.wiped_recv = (0..nodes)
                .map(|n| report.world.adapter_stats(n).wiped_recv)
                .sum();
        }
        Err(e) => out.aborted = Some(format!("{e:?}")),
    }
    if let Some(t) = tracer {
        out.chrome_json = Some(sp_trace::chrome::to_chrome_json(&t.snapshot()));
    }
    out
}

/// Build the fabric injector and the scheduled hardware mutations.
fn install_faults(m: &mut AmMachine, s: &Schedule, nodes: usize) {
    let mut inj = FaultInjector::with_seed(s.seed);
    for ev in &s.events {
        match *ev {
            FaultEvent::DropIndex(i) => {
                inj.drop_indices.insert(i);
            }
            FaultEvent::DupIndex(i) => {
                inj.dup_indices.insert(i);
            }
            FaultEvent::DelayIndex(i) => {
                inj.delay_indices.insert(i);
            }
            FaultEvent::DropWindow {
                p,
                from_ns,
                until_ns,
            } => inj.windows.push(FaultWindow {
                from: Time(from_ns),
                until: Time(until_ns),
                kind: FaultKind::Drop,
                probability: p,
            }),
            FaultEvent::DupWindow {
                p,
                from_ns,
                until_ns,
            } => inj.windows.push(FaultWindow {
                from: Time(from_ns),
                until: Time(until_ns),
                kind: FaultKind::Duplicate,
                probability: p,
            }),
            FaultEvent::DelayWindow {
                p,
                from_ns,
                until_ns,
            } => inj.windows.push(FaultWindow {
                from: Time(from_ns),
                until: Time(until_ns),
                kind: FaultKind::Delay,
                probability: p,
            }),
            FaultEvent::Partition {
                a,
                b,
                from_ns,
                until_ns,
            } => inj.partitions.push(PartitionWindow {
                a_nodes: a,
                b_nodes: b,
                from: Time(from_ns),
                until: Time(until_ns),
            }),
            _ => {}
        }
    }
    // Cable kills become per-link injectors that drop every packet routed
    // onto the severed lane, for the whole run. Out-of-range pairs (and any
    // kill on a single-frame machine, which has no cables) are ignored.
    let kills: Vec<(usize, usize, usize)> = s
        .events
        .iter()
        .filter_map(|ev| match *ev {
            FaultEvent::CableKill { from, to, lane } => Some((from, to, lane)),
            _ => None,
        })
        .collect();
    m.configure_world(move |w| {
        w.switch.set_fault_injector(inj);
        for &(from, to, lane) in &kills {
            let Topology::MultiFrame {
                frames,
                cables_per_pair,
                ..
            } = *w.switch.topology()
            else {
                continue;
            };
            if from == to || from >= frames || to >= frames || lane >= cables_per_pair {
                continue;
            }
            let link = w.switch.topology().cable(from, to, lane);
            let mut dead = FaultInjector::none();
            dead.drop_every_nth = Some(1);
            w.switch.set_link_fault_injector(link, dead);
        }
    });
    for ev in &s.events {
        match *ev {
            FaultEvent::FifoShrink {
                node,
                capacity,
                from_ns,
                until_ns,
            } if node < nodes => {
                m.schedule_world_at(Time(from_ns), move |w| w.set_recv_capacity(node, capacity));
                m.schedule_world_at(Time(until_ns), move |w| {
                    let cap = w.adapter_config().recv_entries_per_node * w.nodes();
                    w.set_recv_capacity(node, cap);
                });
            }
            FaultEvent::SendStall {
                node,
                at_ns,
                dur_ns,
            } if node < nodes => {
                m.schedule_world_at(Time(at_ns), move |w| {
                    w.stall_send(node, Time(at_ns + dur_ns));
                });
            }
            FaultEvent::RecvStall {
                node,
                at_ns,
                dur_ns,
            } if node < nodes => {
                m.schedule_world_at(Time(at_ns), move |w| {
                    w.stall_recv(node, Time(at_ns + dur_ns));
                });
            }
            _ => {}
        }
    }
}

/// Per-node program pauses, sorted by start time.
fn collect_pauses(s: &Schedule, nodes: usize) -> Vec<Vec<(Time, Dur)>> {
    let mut pauses = vec![Vec::new(); nodes];
    for ev in &s.events {
        if let FaultEvent::Pause {
            node,
            at_ns,
            dur_ns,
        } = *ev
        {
            if node < nodes {
                pauses[node].push((Time(at_ns), Dur(dur_ns)));
            }
        }
    }
    for p in &mut pauses {
        p.sort_by_key(|(at, _)| *at);
    }
    pauses
}

/// Per-node crash/restart events, sorted by crash time. Applied by the
/// AM-level workloads (pingpong, streaming), whose node programs own the
/// port directly; the library-level workloads (splitc, mpi) ignore them.
fn collect_crashes(s: &Schedule, nodes: usize) -> Vec<Vec<(Time, Dur)>> {
    let mut crashes = vec![Vec::new(); nodes];
    for ev in &s.events {
        if let FaultEvent::Crash {
            node,
            at_ns,
            down_ns,
        } = *ev
        {
            if node < nodes {
                crashes[node].push((Time(at_ns), Dur(down_ns)));
            }
        }
    }
    for c in &mut crashes {
        c.sort_by_key(|(at, _)| *at);
    }
    crashes
}

impl ChaosSt {
    fn new(probe: SharedProbe, pauses: Vec<(Time, Dur)>, crashes: Vec<(Time, Dur)>) -> ChaosSt {
        ChaosSt {
            probe,
            got: 0,
            pauses,
            pause_next: 0,
            crashes,
            crash_next: 0,
        }
    }
}

/// Take any due program pause: the node stops polling for the pause
/// length, which the peer observes as silence (keep-alive territory).
fn take_pause(am: &mut Am<'_, ChaosSt>) {
    loop {
        let now = am.now();
        let st = am.state();
        match st.pauses.get(st.pause_next) {
            Some(&(at, dur)) if now >= at => {
                am.state_mut().pause_next += 1;
                am.work(dur);
            }
            _ => return,
        }
    }
}

/// Take any due crash: wipe the node's adapter FIFOs and AM channel state,
/// stay dark for the outage, restart with a bumped incarnation epoch.
fn take_crash(am: &mut Am<'_, ChaosSt>) {
    loop {
        let now = am.now();
        let st = am.state();
        match st.crashes.get(st.crash_next) {
            Some(&(at, down)) if now >= at => {
                am.state_mut().crash_next += 1;
                am.crash_restart(down);
            }
            _ => return,
        }
    }
}

/// Apply every due scheduled program fault (crashes, then pauses).
fn take_faults(am: &mut Am<'_, ChaosSt>) {
    take_crash(am);
    take_pause(am);
}

/// Lossless-tail drain + end-of-run snapshot, shared by every workload:
/// keep polling until a quiet window passes with no arrivals, then give
/// keep-alive a bounded chance to clear unacked residue, then record the
/// node's final protocol state into the probe. The quiet window starts no
/// earlier than `faults_end`, the end of the schedule's last timed fault:
/// a fault still under way (a partition, say) could silence the peer for
/// the whole window.
fn settle<S>(
    am: &mut Am<'_, S>,
    tail: Dur,
    faults_end: Time,
    probe: &SharedProbe,
    mut hook: impl FnMut(&mut Am<'_, S>),
) {
    let start = am.now().max(faults_end);
    let hard = start + tail * 8;
    let mut quiet_until = start + tail;
    while am.now() < quiet_until && am.now() < hard {
        hook(am);
        if am.poll() > 0 {
            quiet_until = am.now() + tail;
        }
    }
    let idle_by = am.now() + tail * 4;
    while !am.port().all_idle() && am.now() < idle_by {
        hook(am);
        am.poll();
    }
    let end = NodeEnd {
        node: am.node(),
        end_ns: am.now().as_ns(),
        all_idle: am.port().all_idle(),
        all_sent: am.port().all_sent(),
        stats: am.stats().clone(),
        residue: am.port().debug_state(),
    };
    probe.lock().ends.insert(end.node, end);
}

// ----- pingpong / streaming handlers (GAM table, same on every node) ----

/// Request handler: record arrival, bounce the id back.
fn h_pingpong_req(env: &mut AmEnv<'_, ChaosSt>, args: AmArgs) {
    let me = env.node();
    env.state.got += 1;
    env.state
        .probe
        .lock()
        .stream(format!("n{me}:req"))
        .push(args.a[0] as u64);
    env.reply_2(args.a[1] as u16, args.a[0], 0);
}

/// Reply handler: record the bounced id.
fn h_pingpong_rep(env: &mut AmEnv<'_, ChaosSt>, args: AmArgs) {
    let me = env.node();
    env.state.got += 1;
    env.state
        .probe
        .lock()
        .stream(format!("n{me}:rep"))
        .push(args.a[0] as u64);
}

/// One-way sink handler: record arrival, no reply.
fn h_sink(env: &mut AmEnv<'_, ChaosSt>, args: AmArgs) {
    let me = env.node();
    env.state.got += 1;
    env.state
        .probe
        .lock()
        .stream(format!("n{me}:req"))
        .push(args.a[0] as u64);
}

impl Probe {
    fn stream(&mut self, name: String) -> &mut Vec<u64> {
        self.streams.entry(name).or_default()
    }
}

fn spawn_pingpong(
    m: &mut AmMachine,
    s: &Schedule,
    nodes: usize,
    probe: &SharedProbe,
    pauses: &[Vec<(Time, Dur)>],
    crashes: &[Vec<(Time, Dur)>],
) {
    let (msgs, deadline, tail) = (s.msgs, Time(s.deadline_ns), Dur(s.tail_quiet_ns));
    let faults_end = Time(s.faults_end_ns());
    for (node, node_pauses) in pauses.iter().enumerate().take(nodes) {
        let st = ChaosSt::new(probe.clone(), node_pauses.clone(), crashes[node].clone());
        let probe = probe.clone();
        m.spawn(format!("pp{node}"), st, move |am| {
            let req_h = am.register(h_pingpong_req);
            let rep_h = am.register(h_pingpong_rep);
            if node == 0 {
                for i in 0..msgs {
                    am.request_2(1, req_h, i as u32, rep_h as u32);
                    while am.state().got <= i && am.now() < deadline {
                        take_faults(am);
                        am.poll();
                    }
                    if am.state().got <= i {
                        break; // reply never came before the deadline
                    }
                }
            } else if node == 1 {
                while am.state().got < msgs && am.now() < deadline {
                    take_faults(am);
                    am.poll();
                }
            }
            settle(am, tail, faults_end, &probe, take_faults);
        });
    }
}

fn spawn_streaming(
    m: &mut AmMachine,
    s: &Schedule,
    nodes: usize,
    probe: &SharedProbe,
    pauses: &[Vec<(Time, Dur)>],
    crashes: &[Vec<(Time, Dur)>],
) {
    let (msgs, deadline, tail) = (s.msgs, Time(s.deadline_ns), Dur(s.tail_quiet_ns));
    let faults_end = Time(s.faults_end_ns());
    for (node, node_pauses) in pauses.iter().enumerate().take(nodes) {
        let st = ChaosSt::new(probe.clone(), node_pauses.clone(), crashes[node].clone());
        let probe = probe.clone();
        m.spawn(format!("st{node}"), st, move |am| {
            let sink_h = am.register(h_sink);
            if node == 0 {
                for i in 0..msgs {
                    if am.now() >= deadline {
                        break;
                    }
                    take_faults(am);
                    am.request_2(1, sink_h, i as u32, 0);
                }
            } else if node == 1 {
                while am.state().got < msgs && am.now() < deadline {
                    take_faults(am);
                    am.poll();
                }
            }
            settle(am, tail, faults_end, &probe, take_faults);
        });
    }
}

fn spawn_splitc(
    m: &mut AmMachine,
    s: &Schedule,
    nodes: usize,
    probe: &SharedProbe,
    pauses: &[Vec<(Time, Dur)>],
) {
    let (msgs, deadline, tail) = (s.msgs, Time(s.deadline_ns), Dur(s.tail_quiet_ns));
    let faults_end = Time(s.faults_end_ns());
    for node in 0..nodes {
        let probe = probe.clone();
        let pauses = pauses[node].clone();
        m.spawn(format!("sc{node}"), SplitcSt::default(), move |am| {
            {
                let mut gas = AmGas::new(am);
                // SPMD symmetric heap: every node allocates in the same
                // order, so `cell` has the same address machine-wide. The
                // allocation precedes the barrier: the poll that delivers
                // the barrier's release can also deliver the peer's first
                // put, which must find `cell` already allocated.
                let cell = gas.alloc(4);
                gas.barrier();
                let peer = node ^ 1;
                let mut pause_next = 0;
                for i in 0..msgs {
                    while let Some(&(at, dur)) = pauses.get(pause_next) {
                        if gas.now() < at {
                            break;
                        }
                        pause_next += 1;
                        gas.work(dur);
                    }
                    if gas.now() >= deadline || peer >= nodes {
                        break;
                    }
                    // Only this node writes the peer's cell, so the value
                    // read back must be the value just written. Both waits
                    // are deadline-bounded (`sync_until`, not the blocking
                    // `write_u32`/`read_u32`): a fault window that outlives
                    // the peer's quiet tail must not wedge this node in an
                    // unbounded completion loop.
                    let v = ((node as u32) << 16) | i as u32;
                    let cell = GlobalPtr {
                        node: peer,
                        addr: cell.addr,
                    };
                    let scratch = gas.scratch_addr();
                    gas.mem().write_u32(scratch, v);
                    gas.put(scratch, cell, 4);
                    if !gas.sync_until(deadline) {
                        break;
                    }
                    gas.get(cell, scratch, 4);
                    if !gas.sync_until(deadline) {
                        break;
                    }
                    let r = gas.mem().read_u32(scratch);
                    let mut p = probe.lock();
                    if r == v {
                        p.stream(format!("n{node}:rt")).push(i);
                    } else {
                        p.mismatches
                            .push(format!("splitc n{node} rt {i}: read {r:#x} want {v:#x}"));
                    }
                }
                // Closing barrier: a node that returns while its peer still
                // has round-trips in flight is, to the peer, a crash (§1.1).
                // The barrier polls — it keeps serving the peer's requests —
                // and every loop above is deadline-bounded, so everyone
                // reaches it even when a fault window severed the fabric.
                gas.barrier();
            }
            settle(am, tail, faults_end, &probe, |_| {});
        });
    }
}

fn spawn_mpi(
    m: &mut AmMachine,
    s: &Schedule,
    nodes: usize,
    probe: &SharedProbe,
    pauses: &[Vec<(Time, Dur)>],
    cost: sp_machine::CostModel,
) {
    let (msgs, deadline, tail) = (s.msgs, Time(s.deadline_ns), Dur(s.tail_quiet_ns));
    let faults_end = Time(s.faults_end_ns());
    let cfg = MpiAmConfig::optimized();
    for node in 0..nodes {
        let probe = probe.clone();
        let pauses = pauses[node].clone();
        let st = MpiSt::new(&cfg, node, nodes, &cost);
        let cfg = cfg.clone();
        m.spawn(format!("mx{node}"), st, move |am| {
            {
                let mut mpi = MpiAm::new(am, cfg);
                let right = (node + 1) % nodes;
                let left = (node + nodes - 1) % nodes;
                let mut pause_next = 0;
                for round in 0..msgs {
                    while let Some(&(at, dur)) = pauses.get(pause_next) {
                        if mpi.now() < at {
                            break;
                        }
                        pause_next += 1;
                        mpi.work(dur);
                    }
                    if mpi.now() >= deadline {
                        break;
                    }
                    let out = exchange_payload(node, round);
                    let rs = mpi.isend(&out, right, round as i32);
                    let rr = mpi.irecv(Some(left), Some(round as i32));
                    while !mpi.test(rr) && mpi.now() < deadline {
                        mpi.progress();
                    }
                    if !mpi.test(rr) {
                        break; // deadline: leave the round incomplete
                    }
                    let (data, status) = mpi.wait(rr).expect("tested complete");
                    let mut p = probe.lock();
                    if data == exchange_payload(left, round) && status.source == left {
                        p.stream(format!("n{node}:xch")).push(round);
                    } else {
                        p.mismatches.push(format!(
                            "mpi n{node} round {round}: bad payload from {}",
                            status.source
                        ));
                    }
                    drop(p);
                    while !mpi.test(rs) && mpi.now() < deadline {
                        mpi.progress();
                    }
                    if mpi.test(rs) {
                        mpi.wait(rs);
                    }
                }
            }
            settle(am, tail, faults_end, &probe, |_| {});
        });
    }
}

/// The byte pattern rank `src` sends in `round` (verifiable at the
/// receiver without shared state).
fn exchange_payload(src: usize, round: u64) -> Vec<u8> {
    (0..96u64)
        .map(|i| (src as u64 ^ round.wrapping_mul(31) ^ i) as u8)
        .collect()
}
