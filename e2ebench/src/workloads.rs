//! The three workloads. Each repetition sets up one experiment from the
//! seed, runs it once, checks its outputs and returns what it measured.
//!
//! Every number comes from the run's own reports (`AmReport`,
//! `TrafficReport`, `Am::stats()`, `adapter_stats`, `switch.stats()`) or
//! from benchmark-side `Instant` spans; nothing reads a process-wide
//! counter, so repetitions in one process cannot leak into each other.

use crate::spans::{Level, NodeSpans, SpanLog};
use sp_adapter::{RoutePolicy, SpConfig};
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine, AmReport, AmStats, BulkHandle, CHUNK_BYTES};
use sp_sim::{Dur, Time};
use sp_switch::Topology;
use sp_trace::{Kind, Metrics, Record, Tracer, Track};
use sp_traffic::{TrafficConfig, TrafficSchedule};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Table 3 of the paper: one-word round trip and asymptotic bandwidth.
pub const PAPER_RTT_US: f64 = 51.0;
pub const PAPER_BW_MB_S: f64 = 34.3;
/// The calibration guard: `paper_err_pct` above this fails the run.
pub const PAPER_ERR_LIMIT_PCT: f64 = 2.0;

/// Round trips per `pingpong` repetition: p99 has 10 samples beyond it.
const PP_ROUND_TRIPS: u32 = 1_000;
/// One-chunk stores per `bulk` repetition, and how many are kept in flight.
const BULK_STORES: u32 = 1_000;
const BULK_WINDOW: usize = 4;
/// Seeded virtual compute, uniform in `[0, max)` ns: the `pingpong`
/// client's slice between polls and the `bulk` client's think time before
/// each store. Arrivals then land at seed-dependent phases of the receiver's
/// poll loop; without it every seed measures the same phase-locked figures.
const PP_SLICE_MAX_NS: u64 = 200;
const BULK_THINK_MAX_NS: u64 = 2_000;
/// `traffic`: 64-node two-tier fat tree, 32 servers and 32 clients at 0.8x
/// the default per-client Poisson rate over a 2.5 ms horizon: about 1 280
/// flows, below the knee. (With 8 servers the p99 of one run swings by half
/// from seed to seed; spread over 32 servers it stays within about 10 %.)
const TRAFFIC_SERVERS: usize = 32;
const TRAFFIC_LOAD: f64 = 0.8;
const TRAFFIC_HORIZON_NS: u64 = 2_500_000;
const TRAFFIC_SHARDS: usize = 2;
/// Engine events allowed per operation before a run counts as livelocked.
const EVENTS_PER_OP_BUDGET: u64 = 5_000;
/// Per-node trace ring for traced repetitions (records; overflow is
/// reported as `trace.dropped_records`).
const RING_CAPACITY: usize = 1 << 20;

/// Handler ids: every node registers the same handlers in this order.
const PING: u16 = 0;
const DONE: u16 = 1;
const STORED: u16 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pingpong,
    Bulk,
    Traffic,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "pingpong" => Some(Workload::Pingpong),
            "bulk" => Some(Workload::Bulk),
            "traffic" => Some(Workload::Traffic),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pingpong => "pingpong",
            Workload::Bulk => "bulk",
            Workload::Traffic => "traffic",
        }
    }

    /// Whether the tracer can be installed: `run_traffic` builds its
    /// machine internally and exposes no tracer.
    pub fn traceable(self) -> bool {
        self != Workload::Traffic
    }

    /// Operations one repetition attempts (round trips, stores or flows).
    fn planned_ops(self, seed: u64) -> u64 {
        match self {
            Workload::Pingpong => PP_ROUND_TRIPS as u64,
            Workload::Bulk => BULK_STORES as u64,
            Workload::Traffic => {
                TrafficSchedule::generate(&traffic_config(seed), traffic_sp().nodes).total_flows()
                    as u64
            }
        }
    }
}

/// What a repetition is asked to record beyond the end-to-end figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Install the `sp-trace` recorder across the stack (virtual-time spans).
    pub tracer: bool,
    /// Record benchmark-side host spans around every layer call.
    pub spans: bool,
}

/// Virtual-clock figures: identical for every repetition of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFigures {
    pub p50_us: f64,
    pub p99_us: f64,
    pub mb_s: f64,
    /// Error against Table 3 (`pingpong` and `bulk` only).
    pub paper_err_pct: Option<f64>,
}

/// What one repetition measured.
pub struct Rep {
    pub mode: Mode,
    pub setup_s: f64,
    pub wall_s: f64,
    pub ops: u64,
    pub outcome: Result<Measured, String>,
}

pub struct Measured {
    pub sim: SimFigures,
    /// Counters that must repeat exactly for one seed (run isolation and
    /// determinism): end time, events, protocol/adapter/switch counts or
    /// the traffic fingerprint.
    pub counts: Vec<u64>,
    /// Per-layer values by metric name.
    pub layer: BTreeMap<String, f64>,
    /// Named correctness checks and their verdicts.
    pub checks: Vec<(String, bool)>,
    /// Host spans of this repetition (empty unless `Mode::spans`).
    pub spans: Vec<crate::spans::Span>,
}

/// Run one repetition of `w` for `seed`. Never panics: an error, a panic,
/// an exhausted event budget or a failed check makes `outcome` an `Err`.
pub fn run_rep(w: Workload, seed: u64, mode: Mode) -> Rep {
    let log = mode.spans.then(SpanLog::new);
    let mut setup_s = 0.0;
    let mut wall_s = 0.0;
    let result = catch_unwind(AssertUnwindSafe(|| match w {
        Workload::Pingpong => pingpong(seed, mode, log.as_ref(), &mut setup_s, &mut wall_s),
        Workload::Bulk => bulk(seed, mode, log.as_ref(), &mut setup_s, &mut wall_s),
        Workload::Traffic => traffic(seed, log.as_ref(), &mut setup_s, &mut wall_s),
    }));
    let outcome = match result {
        Ok(Ok(mut m)) => {
            if let Some((name, _)) = m.checks.iter().find(|(_, ok)| !ok) {
                Err(format!("check failed: {name}"))
            } else {
                m.spans = log.map(|l| l.take()).unwrap_or_default();
                Ok(m)
            }
        }
        Ok(Err(e)) => Err(e),
        Err(panic) => Err(panic_message(&panic)),
    };
    Rep {
        mode,
        setup_s,
        wall_s,
        ops: w.planned_ops(seed),
        outcome,
    }
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_owned())
}

/// splitmix64: the benchmark's input generator, a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of `v`, `None` when empty.
pub fn median(mut v: Vec<f64>) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

fn pct_err(measured: f64, paper: f64) -> f64 {
    (measured - paper).abs() / paper * 100.0
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Node programs hand their protocol counters and measurements out here.
type Slot<T> = Arc<Mutex<Option<T>>>;

fn put<T>(slot: &Slot<T>, v: T) {
    *slot.lock().expect("result slot poisoned") = Some(v);
}

fn take<T>(slot: &Slot<T>, what: &str) -> Result<T, String> {
    slot.lock()
        .expect("result slot poisoned")
        .take()
        .ok_or_else(|| format!("{what} did not report"))
}

/// Time one `Am` call when host spans are on.
fn timed<T>(spans: &mut Option<NodeSpans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.am(name, f),
        None => f(),
    }
}

/// Setups per repetition: `setup_s` is their median, and the last one runs.
const SETUP_SAMPLES: usize = 5;

/// Set up `SETUP_SAMPLES` times with `f`; return the last setup and the
/// median setup time.
fn sample_setups<P>(log: Option<&SpanLog>, setup_s: &mut f64, mut f: impl FnMut() -> P) -> P {
    let t_setup = Instant::now();
    let mut times = Vec::with_capacity(SETUP_SAMPLES);
    let mut last = None;
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let p = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(p);
    }
    *setup_s = median(times).expect("at least one setup");
    if let Some(l) = log {
        l.close(Level::Setup, "setup", t_setup);
    }
    last.expect("at least one setup")
}

/// Host spans of one node program, opened when the program starts.
fn node_spans(log: &Option<SpanLog>) -> Option<NodeSpans> {
    log.as_ref().map(|l| l.node(l.open()))
}

fn finish_spans(spans: Option<NodeSpans>, name: &'static str, run_id: u64) {
    if let Some(s) = spans {
        s.finish(name, run_id);
    }
}

/// Run `m`, timing the run as the parent span of every node program.
fn run_machine(
    m: AmMachine,
    log: Option<&SpanLog>,
    run_id: u64,
    wall_s: &mut f64,
) -> Result<AmReport, String> {
    let t_run = Instant::now();
    let report = m.run();
    *wall_s = t_run.elapsed().as_secs_f64();
    if let Some(l) = log {
        l.close_as(run_id, Level::Run, "run", None, t_run);
    }
    report.map_err(|e| format!("simulation failed: {e}"))
}

/// Per-layer values every `AmMachine` workload reports from its own reports.
fn machine_layers(report: &AmReport, stats: &[AmStats], layer: &mut BTreeMap<String, f64>) {
    let mut put = |k: &str, v: f64| {
        layer.insert(k.to_owned(), v);
    };
    let run_s = report.wall.as_secs_f64();
    put("sim.events", report.events as f64);
    put("sim.run_s", run_s);
    put(
        "sim.host_ns_per_event",
        run_s * 1e9 / report.events.max(1) as f64,
    );
    put("sim.events_per_s", report.events_per_sec());
    put("sim.sync_events", report.sync_events as f64);
    put("sim.windows", report.windows as f64);
    put("sim.shards_used", report.shards.len().max(1) as f64);
    put("sim.wakes_coalesced", report.wakes_coalesced as f64);
    match &report.profile {
        Some(p) => {
            let n = p.num_shards().max(1);
            let util: f64 = (0..n).map(|s| p.window_utilization(s)).sum::<f64>() / n as f64;
            put("sim.sync_ratio", p.sync_ratio());
            put("sim.window_util_pct", util * 100.0);
            put("sim.event_imbalance", p.event_imbalance());
        }
        None => {
            // One shard: no barrier windows, nothing to balance.
            put("sim.sync_ratio", 0.0);
            put("sim.window_util_pct", 0.0);
            put("sim.event_imbalance", 1.0);
        }
    }

    let sum = |f: fn(&AmStats) -> u64| stats.iter().map(f).sum::<u64>();
    let polls = sum(|s| s.polls);
    let sent = sum(|s| s.packets_sent);
    let rtx = sum(|s| s.packets_retransmitted);
    put("am.polls", polls as f64);
    put(
        "am.poll_hit_ratio",
        ratio(sum(|s| s.packets_received), polls),
    );
    put("am.packets_sent", sent as f64);
    put("am.packets_retransmitted", rtx as f64);
    put("am.rtx_ratio", ratio(rtx, sent));
    put(
        "am.explicit_acks_sent",
        sum(|s| s.explicit_acks_sent) as f64,
    );
    put("am.nacks_received", sum(|s| s.nacks_received) as f64);
    put("am.probes_sent", sum(|s| s.probes_sent) as f64);
    put("am.dup_dropped", sum(|s| s.dup_dropped) as f64);

    let nodes = report.world.nodes();
    let ad = |f: fn(&sp_adapter::AdapterStats) -> u64| -> u64 {
        (0..nodes).map(|n| f(report.world.adapter_stats(n))).sum()
    };
    let a_sent = ad(|a| a.sent);
    put("adapter.sent", a_sent as f64);
    put("adapter.received", ad(|a| a.received) as f64);
    put(
        "adapter.doorbells_per_packet",
        ratio(ad(|a| a.doorbells), a_sent),
    );
    put("adapter.lazy_pops", ad(|a| a.lazy_pops) as f64);
    put(
        "adapter.recv_high_water",
        ad(|a| a.recv_high_water as u64) as f64,
    );
    put("adapter.dropped_overflow", report.dropped_overflow as f64);

    let sw = report.world.switch.stats();
    put("switch.delivered", sw.delivered as f64);
    put("switch.hops_per_packet", ratio(sw.hops, sw.delivered));
    put("switch.wire_bytes", sw.wire_bytes as f64);
    put("switch.dropped", sw.dropped as f64);
}

/// Counters that must repeat exactly across repetitions of one seed.
fn machine_counts(report: &AmReport, stats: &[AmStats]) -> Vec<u64> {
    let mut c = vec![
        report.end_time.as_ns(),
        report.events,
        report.dropped_overflow,
    ];
    for s in stats {
        c.extend([
            s.requests_sent,
            s.replies_sent,
            s.stores,
            s.polls,
            s.packets_sent,
            s.packets_retransmitted,
            s.packets_received,
            s.bulk_bytes_delivered,
            s.explicit_acks_sent,
            s.nacks_received,
            s.probes_sent,
        ]);
    }
    for n in 0..report.world.nodes() {
        let a = report.world.adapter_stats(n);
        c.extend([a.sent, a.received, a.doorbells, a.lazy_pops]);
    }
    let sw = report.world.switch.stats();
    c.extend([sw.delivered, sw.dropped, sw.wire_bytes, sw.hops]);
    c
}

/// Virtual-time per-layer values from a traced repetition.
fn trace_layers(records: &[Record], dropped: u64, layer: &mut BTreeMap<String, f64>) {
    let m = Metrics::aggregate_with_dropped(records, dropped);
    let mean = |k: Kind| m.spans.get(&k).map_or(0.0, |h| h.mean_ns() as f64);
    layer.insert("trace.records".into(), records.len() as f64);
    layer.insert("trace.dropped_records".into(), dropped as f64);
    layer.insert("vt.host_write_mean_ns".into(), mean(Kind::HostWrite));
    layer.insert("vt.fw_send_mean_ns".into(), mean(Kind::FwSend));
    layer.insert("vt.fw_recv_mean_ns".into(), mean(Kind::FwRecv));
    layer.insert("vt.switch_hop_mean_ns".into(), mean(Kind::SwitchHop));
    layer.insert("vt.handler_mean_ns".into(), mean(Kind::AmDispatch));
    let util = m
        .link_busy
        .keys()
        .map(|&t| m.link_utilization(t))
        .fold(0.0, f64::max);
    layer.insert("switch.link_util_max_pct".into(), util * 100.0);
}

/// Metric-name form of a breakdown segment label, e.g.
/// `"fifo write+flush (n0)"` → `"fifo_write_flush_n0"`.
pub fn segment_key(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.is_empty() && !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_owned()
}

/// Mean per-segment attribution of every traced round trip. Each
/// iteration's segments sum to its round trip exactly, so the means sum to
/// the mean round trip.
fn rtt_segments(records: &[Record], iters: u32) -> BTreeMap<String, f64> {
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    let user = records
        .iter()
        .filter(|r| r.kind == Kind::UserSpan && r.track == Track::program(0));
    for span in user {
        // Slice the time-sorted trace to this round trip's window so each
        // breakdown scans only its own records.
        let lo = records.partition_point(|r| r.at < span.at);
        let hi = records.partition_point(|r| r.at <= span.end());
        let bd = sp_bench::trace_rt::breakdown(&records[lo..hi], span.arg);
        for s in bd.segments {
            *sums.entry(segment_key(&s.label)).or_insert(0) += s.measured_ns;
        }
    }
    sums.into_iter()
        .map(|(k, ns)| (format!("vt.rtt.{k}_ns"), ns as f64 / iters as f64))
        .collect()
}

// ------------------------------------------------------------- pingpong

#[derive(Default)]
struct NodeSt {
    pings: u32,
    pongs: u32,
    misordered: u32,
    stored: u32,
}

fn ping_handler(env: &mut AmEnv<'_, NodeSt>, args: AmArgs) {
    env.state.pings += 1;
    env.reply_1(DONE, args.a[0]);
}

fn done_handler(env: &mut AmEnv<'_, NodeSt>, args: AmArgs) {
    // The reply echoes the request's token: round trip i carries token i.
    if args.a[0] != env.state.pongs {
        env.state.misordered += 1;
    }
    env.state.pongs += 1;
}

fn stored_handler(env: &mut AmEnv<'_, NodeSt>, args: AmArgs) {
    // Store k carries k: completions arrive once each, in issue order.
    if args.a[0] != env.state.stored {
        env.state.misordered += 1;
    }
    env.state.stored += 1;
}

fn register(am: &mut Am<'_, NodeSt>) {
    assert_eq!(am.register(ping_handler), PING);
    assert_eq!(am.register(done_handler), DONE);
    assert_eq!(am.register(stored_handler), STORED);
}

struct NodeOut {
    stats: AmStats,
    pings: u32,
    pongs: u32,
    stored: u32,
    misordered: u32,
}

fn node_out(am: &Am<'_, NodeSt>) -> NodeOut {
    let s = am.state();
    NodeOut {
        stats: am.stats().clone(),
        pings: s.pings,
        pongs: s.pongs,
        stored: s.stored,
        misordered: s.misordered,
    }
}

struct PingOut {
    rtt_ns: Vec<u64>,
    span_ns: u64,
    host_rtt_ns: Vec<u64>,
}

/// `pingpong`: node 0 sends `request_1` to node 1 and polls until the
/// `reply_1` lands, one request outstanding, on two thin nodes in one
/// frame on the serial engine. Node 0 waits in a compute loop: between
/// polls it computes for a seeded slice of `[0, PP_SLICE_MAX_NS)`, so the
/// reply is seen at a seed-dependent point of its poll loop.
fn pingpong(
    seed: u64,
    mode: Mode,
    log: Option<&SpanLog>,
    setup_s: &mut f64,
    wall_s: &mut f64,
) -> Result<Measured, String> {
    let n = PP_ROUND_TRIPS;
    let run_id = log.map_or(0, |l| l.open());
    let (m, tracer, outs, ping_out) = sample_setups(log, setup_s, || {
        let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), seed);
        m.set_event_budget(EVENTS_PER_OP_BUDGET * (n as u64 + 1));
        let tracer: Option<Tracer> = mode.tracer.then(|| m.enable_tracing(RING_CAPACITY));
        let outs: [Slot<NodeOut>; 2] = Default::default();
        let ping_out: Slot<PingOut> = Default::default();

        let (o, po, tr, lg) = (
            outs[0].clone(),
            ping_out.clone(),
            tracer.clone(),
            log.cloned(),
        );
        m.spawn("pinger", NodeSt::default(), move |am| {
            let mut sp = node_spans(&lg);
            register(am);
            // Warmup round trip (token 0) sets up the channel state.
            timed(&mut sp, "request_1", || am.request_1(1, PING, 0));
            timed(&mut sp, "poll_until", || am.poll_until(|s| s.pongs >= 1));
            let mut rtt_ns = Vec::with_capacity(n as usize);
            let mut slices = Rng::new(seed, 1);
            let first = am.now();
            for i in 0..n {
                let t0 = am.now();
                timed(&mut sp, "request_1", || am.request_1(1, PING, i + 1));
                timed(&mut sp, "poll_loop", || {
                    while am.state().pongs < i + 2 {
                        am.poll();
                        am.work(Dur::ns(slices.below(PP_SLICE_MAX_NS)));
                    }
                });
                let t1 = am.now();
                if let Some(t) = &tr {
                    t.span(
                        t0.as_ns(),
                        t1.as_ns(),
                        Track::program(0),
                        Kind::UserSpan,
                        i as u64,
                    );
                }
                rtt_ns.push((t1 - t0).as_ns());
            }
            let host_rtt_ns = sp.as_ref().map_or_else(Vec::new, |s| {
                // Pair each request with its poll loop, skipping the warmup.
                let req = s.durations_ns("request_1");
                let wait = s.durations_ns("poll_loop");
                req.iter().skip(1).zip(&wait).map(|(a, b)| a + b).collect()
            });
            let span_ns = (am.now() - first).as_ns();
            put(
                &po,
                PingOut {
                    rtt_ns,
                    span_ns,
                    host_rtt_ns,
                },
            );
            put(&o, node_out(am));
            finish_spans(sp, "pinger", run_id);
        });
        let (o, lg) = (outs[1].clone(), log.cloned());
        m.spawn("ponger", NodeSt::default(), move |am| {
            let mut sp = node_spans(&lg);
            register(am);
            timed(&mut sp, "poll_until", || am.poll_until(|s| s.pings > n));
            put(&o, node_out(am));
            finish_spans(sp, "ponger", run_id);
        });
        (m, tracer, outs, ping_out)
    });

    let report = run_machine(m, log, run_id, wall_s)?;
    let client = take(&outs[0], "pinger")?;
    let server = take(&outs[1], "ponger")?;
    let p = take(&ping_out, "pinger")?;
    let stats = [client.stats.clone(), server.stats.clone()];

    let mut sorted = p.rtt_ns.clone();
    sorted.sort_unstable();
    let mean_us = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64 / 1e3;
    let sim = SimFigures {
        p50_us: quantile(&sorted, 0.50) as f64 / 1e3,
        p99_us: quantile(&sorted, 0.99) as f64 / 1e3,
        // One-word request payload per round trip.
        mb_s: (n as f64 * 4.0) / (p.span_ns as f64 / 1e9) / 1e6,
        paper_err_pct: Some(pct_err(mean_us, PAPER_RTT_US)),
    };
    let total = n + 1;
    let mut checks = vec![
        (
            "exactly_once.replies_eq_requests".to_owned(),
            client.pongs == total && server.pings == total,
        ),
        (
            "exactly_once.am_counts".to_owned(),
            stats[0].requests_sent == total as u64 && stats[1].replies_sent == total as u64,
        ),
        ("in_order.reply_tokens".to_owned(), client.misordered == 0),
        (
            "paper_err_pct_below_limit".to_owned(),
            sim.paper_err_pct.unwrap_or(0.0) < PAPER_ERR_LIMIT_PCT,
        ),
    ];

    let mut layer = BTreeMap::new();
    machine_layers(&report, &stats, &mut layer);
    if !p.host_rtt_ns.is_empty() {
        let mut host = p.host_rtt_ns.clone();
        host.sort_unstable();
        layer.insert(
            "am.host_rtt_us_p50".into(),
            quantile(&host, 0.50) as f64 / 1e3,
        );
        layer.insert(
            "am.host_rtt_us_p99".into(),
            quantile(&host, 0.99) as f64 / 1e3,
        );
    }
    if let Some(t) = &tracer {
        let records = t.snapshot();
        trace_layers(&records, t.dropped(), &mut layer);
        let segs = rtt_segments(&records, n);
        let seg_sum_us: f64 = segs.values().sum::<f64>() / 1e3;
        checks.push((
            "vt.rtt_segments_sum_to_rtt".to_owned(),
            t.dropped() == 0 && (seg_sum_us - mean_us).abs() <= 0.01 * mean_us,
        ));
        layer.extend(segs);
    }
    Ok(Measured {
        sim,
        counts: machine_counts(&report, &stats),
        layer,
        checks,
        spans: Vec::new(),
    })
}

// ----------------------------------------------------------------- bulk

struct BulkOut {
    latency_ns: Vec<u64>,
    span_ns: u64,
    host_store_ns: Vec<u64>,
    host_wait_ns: Vec<u64>,
}

type Inflight = VecDeque<(BulkHandle, Time)>;

/// Record the virtual latency of every store at the head of `inflight`
/// that has completed.
fn retire(am: &Am<'_, NodeSt>, inflight: &mut Inflight, latency_ns: &mut Vec<u64>) {
    while let Some(&(handle, t0)) = inflight.front() {
        if !am.bulk_done(handle) {
            break;
        }
        latency_ns.push((am.now() - t0).as_ns());
        inflight.pop_front();
    }
}

/// `bulk`: node 0 streams one-chunk (8064-byte) `store_async`s to node 1,
/// keeping `BULK_WINDOW` in flight after a seeded think time each, on two
/// thin nodes split over two engine shards.
fn bulk(
    seed: u64,
    mode: Mode,
    log: Option<&SpanLog>,
    setup_s: &mut f64,
    wall_s: &mut f64,
) -> Result<Measured, String> {
    let n = BULK_STORES;
    let len = n as usize * CHUNK_BYTES;
    let run_id = log.map_or(0, |l| l.open());
    let (m, tracer, outs, bulk_out, data, landing) = sample_setups(log, setup_s, || {
        let mut rng = Rng::new(seed, 3);
        let data: Arc<Vec<u8>> = Arc::new((0..len).map(|_| rng.next() as u8).collect());
        let mut m = AmMachine::new(SpConfig::thin(2).parallel(2), AmConfig::default(), seed);
        m.set_event_budget(EVENTS_PER_OP_BUDGET * n as u64);
        let tracer: Option<Tracer> = mode.tracer.then(|| m.enable_tracing(RING_CAPACITY));
        let landing = m.mem().alloc(1, len as u32);
        let outs: [Slot<NodeOut>; 2] = Default::default();
        let bulk_out: Slot<BulkOut> = Default::default();

        let (o, bo, src, lg) = (
            outs[0].clone(),
            bulk_out.clone(),
            data.clone(),
            log.cloned(),
        );
        m.spawn("storer", NodeSt::default(), move |am| {
            let mut sp = node_spans(&lg);
            register(am);
            let mut think = Rng::new(seed, 2);
            let mut inflight = Inflight::with_capacity(BULK_WINDOW);
            let mut latency_ns = Vec::with_capacity(n as usize);
            let first = am.now();
            for k in 0..n {
                while inflight.len() >= BULK_WINDOW {
                    timed(&mut sp, "poll", || am.poll());
                    retire(am, &mut inflight, &mut latency_ns);
                }
                am.work(Dur::ns(think.below(BULK_THINK_MAX_NS)));
                let off = k as usize * CHUNK_BYTES;
                let (dst, chunk) = (landing.offset(off as u32), &src[off..off + CHUNK_BYTES]);
                let handle = timed(&mut sp, "store_async", || {
                    am.store_async(dst, chunk, Some(STORED), &[k], None)
                });
                inflight.push_back((handle, am.now()));
                retire(am, &mut inflight, &mut latency_ns);
            }
            while !inflight.is_empty() {
                timed(&mut sp, "poll", || am.poll());
                retire(am, &mut inflight, &mut latency_ns);
            }
            let (host_store_ns, host_wait_ns) = sp.as_ref().map_or_else(Default::default, |s| {
                (s.durations_ns("store_async"), s.durations_ns("poll"))
            });
            let span_ns = (am.now() - first).as_ns();
            put(
                &bo,
                BulkOut {
                    latency_ns,
                    span_ns,
                    host_store_ns,
                    host_wait_ns,
                },
            );
            put(&o, node_out(am));
            finish_spans(sp, "storer", run_id);
        });
        let (o, lg) = (outs[1].clone(), log.cloned());
        m.spawn("sink", NodeSt::default(), move |am| {
            let mut sp = node_spans(&lg);
            register(am);
            timed(&mut sp, "poll_until", || am.poll_until(|s| s.stored >= n));
            // Stay up until the storer has seen its last acknowledgement.
            timed(&mut sp, "drain_quiet", || am.drain_quiet(Dur::us(200.0)));
            put(&o, node_out(am));
            finish_spans(sp, "sink", run_id);
        });
        (m, tracer, outs, bulk_out, data, landing)
    });

    let report = run_machine(m, log, run_id, wall_s)?;
    let client = take(&outs[0], "storer")?;
    let server = take(&outs[1], "sink")?;
    let b = take(&bulk_out, "storer")?;
    let stats = [client.stats.clone(), server.stats.clone()];

    let mut sorted = b.latency_ns.clone();
    sorted.sort_unstable();
    let bw = len as f64 / (b.span_ns as f64 / 1e9) / 1e6;
    let sim = SimFigures {
        p50_us: quantile(&sorted, 0.50) as f64 / 1e3,
        p99_us: quantile(&sorted, 0.99) as f64 / 1e3,
        mb_s: bw,
        paper_err_pct: Some(pct_err(bw, PAPER_BW_MB_S)),
    };
    let landed = report.mem.read_vec(landing, len);
    let checks = vec![
        (
            "exactly_once.stores_completed".to_owned(),
            sorted.len() == n as usize && server.stored == n,
        ),
        (
            "exactly_once.bulk_bytes".to_owned(),
            stats[1].bulk_bytes_delivered == len as u64 && stats[0].stores == n as u64,
        ),
        ("in_order.store_handlers".to_owned(), server.misordered == 0),
        ("readback.landing_buffer".to_owned(), landed == *data),
        (
            "paper_err_pct_below_limit".to_owned(),
            sim.paper_err_pct.unwrap_or(0.0) < PAPER_ERR_LIMIT_PCT,
        ),
    ];

    let mut layer = BTreeMap::new();
    machine_layers(&report, &stats, &mut layer);
    if !b.host_store_ns.is_empty() {
        let mean = b.host_store_ns.iter().sum::<u64>() as f64 / b.host_store_ns.len() as f64;
        layer.insert("am.host_store_us_mean".into(), mean / 1e3);
        layer.insert(
            "am.host_wait_s".into(),
            b.host_wait_ns.iter().sum::<u64>() as f64 / 1e9,
        );
    }
    if let Some(t) = &tracer {
        let records = t.snapshot();
        trace_layers(&records, t.dropped(), &mut layer);
    }
    Ok(Measured {
        sim,
        counts: machine_counts(&report, &stats),
        layer,
        checks,
        spans: Vec::new(),
    })
}

// -------------------------------------------------------------- traffic

fn traffic_config(seed: u64) -> TrafficConfig {
    let mut cfg = TrafficConfig {
        seed,
        horizon_ns: TRAFFIC_HORIZON_NS,
        ..TrafficConfig::new(TRAFFIC_SERVERS)
    }
    .scaled(TRAFFIC_LOAD);
    cfg.event_budget = Some(EVENTS_PER_OP_BUDGET * 2_000);
    cfg
}

fn traffic_sp() -> SpConfig {
    SpConfig::with_topology(Topology::fat_tree_custom(2, 4, 1, 16, 4))
        .routed(RoutePolicy::Adaptive)
        .parallel(TRAFFIC_SHARDS)
}

/// `traffic`: open-loop Poisson request/response flows with bounded-Pareto
/// sizes from 32 clients to 32 servers on a 64-node fat tree with adaptive
/// routing, driven by `sp_traffic::run_traffic`. The machine is built
/// inside `run_traffic`, so `setup_s` here is the schedule generation.
fn traffic(
    seed: u64,
    log: Option<&SpanLog>,
    setup_s: &mut f64,
    wall_s: &mut f64,
) -> Result<Measured, String> {
    let cfg = traffic_config(seed);
    let sp = traffic_sp();
    let sched = sample_setups(log, setup_s, || TrafficSchedule::generate(&cfg, sp.nodes));

    let t_run = Instant::now();
    let r = sp_traffic::run_traffic(&cfg, sp);
    *wall_s = t_run.elapsed().as_secs_f64();
    if let Some(l) = log {
        l.close(Level::Run, "run", t_run);
    }

    let issued = sched.total_flows();
    let sim = SimFigures {
        p50_us: r.p50_ns as f64 / 1e3,
        p99_us: r.p99_ns as f64 / 1e3,
        mb_s: r.goodput_mb_s,
        paper_err_pct: None,
    };
    let checks = vec![
        ("exactly_once.flows_completed".to_owned(), r.flows == issued),
        ("traffic.at_least_1000_flows".to_owned(), issued >= 1_000),
        (
            "traffic.quantiles_ordered".to_owned(),
            r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns && r.p999_ns <= r.max_ns,
        ),
    ];
    let run_s = r.wall.as_secs_f64();
    let mut layer = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        layer.insert(k.to_owned(), v);
    };
    put("sim.events", r.events as f64);
    put("sim.run_s", run_s);
    put(
        "sim.host_ns_per_event",
        run_s * 1e9 / r.events.max(1) as f64,
    );
    put("sim.events_per_s", r.events as f64 / run_s.max(1e-9));
    put("sim.shards_used", r.shards as f64);
    put("adapter.dropped_overflow", r.dropped_overflow as f64);
    put("switch.dropped", r.switch_dropped as f64);
    put("traffic.schedule_s", *setup_s);
    put("traffic.flows", r.flows as f64);
    put("traffic.offered_mb_s", r.offered_mb_s);
    Ok(Measured {
        sim,
        counts: vec![r.hash, sched.hash(), r.end_ns, r.events, r.flows as u64],
        layer,
        checks,
        spans: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_keys_are_metric_names() {
        assert_eq!(segment_key("fifo write+flush (n0)"), "fifo_write_flush_n0");
        assert_eq!(
            segment_key("poll epilogue + handler (n0)"),
            "poll_epilogue_handler_n0"
        );
        assert_eq!(segment_key("wire+switch (0->1)"), "wire_switch_0_1");
    }

    /// Run isolation: two back-to-back repetitions in one process report
    /// identical virtual figures and counters.
    #[test]
    fn back_to_back_repetitions_report_identical_counts() {
        let plain = Mode {
            tracer: false,
            spans: false,
        };
        for w in [Workload::Pingpong, Workload::Bulk] {
            let a = run_rep(w, 11, plain).outcome.expect("first repetition");
            let b = run_rep(w, 11, plain).outcome.expect("second repetition");
            assert_eq!(a.sim, b.sim, "{}", w.name());
            assert_eq!(a.counts, b.counts, "{}", w.name());
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[7], 0.99), 7);
    }
}
