//! Topology sweep: one-word RTT and streaming bandwidth on single-frame
//! vs multi-frame machines (§1.2), plus the traced latency breakdown of a
//! cross-frame round trip showing the extra switch stage as its own
//! `inter-frame hop` segments, plus the hot-spot congestion experiment
//! comparing the round-robin and adaptive routing policies.
//!
//! ```text
//! cargo run --bin topo
//! cargo run --bin topo -- --parallel 4
//! ```
//!
//! `--parallel N` runs only the dead-cable fault-latency experiment, once
//! serial and once sharded N ways on the conservative-parallel engine, and
//! fails (exit 1) unless every headline metric — post-kill round-trip
//! digest, sample count, and fabric drops — matches exactly. This is the
//! CI guard that fault injection plus mid-run world events replay
//! identically under sharding.
//!
//! Set `SP_BENCH_TOPO_JSON=<path>` to write the congestion metrics as JSON
//! lines, and `SP_BENCH_TOPO_BASELINE=<path>` to compare against a saved
//! baseline (CI fails the run only on an order-of-magnitude regression,
//! mirroring `SP_BENCH_ENGINE_BASELINE`).

use sp_bench::metrics::{compare_baseline, write_metrics};
use sp_bench::topo_exp::CongestionPoint;
use sp_bench::{quick, topo_exp};

fn main() {
    let mut tally = sp_bench::Tally::default();
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--parallel") {
        let shards: usize = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("topo: --parallel needs a shard count");
                std::process::exit(1);
            });
        if !parallel_fault_check(shards, &mut tally) {
            std::process::exit(1);
        }
        sp_bench::print_engine_summary(&tally);
        return;
    }
    let points = topo_exp::run(quick(), &mut tally);

    println!("one-word RTT and streaming bandwidth vs topology (node 0 <-> far node)\n");
    println!(
        "{:<20} {:>6} {:>6} {:>5} {:>10} {:>14} {:>10}",
        "machine", "frames", "nodes", "hops", "rtt (us)", "fabric (us)", "bw (MB/s)"
    );
    println!("{}", "-".repeat(78));
    for p in &points {
        println!(
            "{:<20} {:>6} {:>6} {:>5} {:>10.2} {:>14.2} {:>10.1}",
            p.label,
            p.frames,
            p.nodes,
            p.hops,
            p.rtt_ns as f64 / 1_000.0,
            p.wire_switch_ns as f64 / 1_000.0,
            p.store_bw_mb_s,
        );
    }

    let single = &points[0];
    let multi = &points[1];
    println!(
        "\ncross-frame fabric premium: {:+.2} us RTT, {:+.2} us of it in switch stages",
        (multi.rtt_ns as f64 - single.rtt_ns as f64) / 1_000.0,
        (multi.wire_switch_ns as f64 - single.wire_switch_ns as f64) / 1_000.0,
    );

    // Full attribution of a cross-frame round trip: the inter-frame hop
    // shows up as its own pair of segments, each one hop_latency.
    let (label, cfg, dst) = topo_exp::configs().remove(1);
    println!("\n==== breakdown: {label} ====");
    println!("{}", topo_exp::traced_round_trip(&cfg, dst, 4, &mut tally));

    // Hot-spot congestion: k frame-0 senders hammer one frame pair, under
    // both routing policies.
    let (rr, ad) = topo_exp::congestion(quick(), &mut tally);
    println!(
        "==== hot-spot congestion: {} senders x 1 frame pair ====\n",
        rr.senders
    );
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>12} {:>8}",
        "policy",
        "samples",
        "p50 (us)",
        "p99 (us)",
        "p999 (us)",
        "max (us)",
        "lane spread",
        "dodges"
    );
    println!("{}", "-".repeat(88));
    for p in [&rr, &ad] {
        println!(
            "{:<12} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>12.3} {:>8}",
            p.policy,
            p.samples,
            p.rtt_p50_ns as f64 / 1_000.0,
            p.rtt_p99_ns as f64 / 1_000.0,
            p.rtt_p999_ns as f64 / 1_000.0,
            p.rtt_max_ns as f64 / 1_000.0,
            p.lane_spread,
            p.adaptive_picks,
        );
        report_truncation(p.policy, p.trace_dropped);
    }
    println!(
        "\nadaptive vs round-robin: p99 {:+.1}%, lane spread {:+.1}%",
        (ad.rtt_p99_ns as f64 / rr.rtt_p99_ns as f64 - 1.0) * 100.0,
        (ad.lane_spread / rr.lane_spread - 1.0) * 100.0,
    );

    // Virtual-time gauges from the sampler: how the congestion builds and
    // where the adaptive policy spreads it.
    for p in [&rr, &ad] {
        println!("\ngauges over virtual time ({}, 25 us bins):", p.policy);
        print_sparklines(&p.series);
    }

    // Fault latency: the same machine, but cable lane 0 dies mid-run.
    let (frr, fad) = topo_exp::fault_latency(quick(), &mut tally);
    println!(
        "\n==== fault latency: cable lane 0 killed at {} us ====\n",
        topo_exp::FAULT_KILL_AT_NS as f64 / 1_000.0
    );
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "policy", "samples", "p50 (us)", "p99 (us)", "p999 (us)", "max (us)", "dropped"
    );
    println!("{}", "-".repeat(76));
    for p in [&frr, &fad] {
        println!(
            "{:<12} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>9}",
            p.policy,
            p.samples_after,
            p.rtt_p50_ns as f64 / 1_000.0,
            p.rtt_p99_ns as f64 / 1_000.0,
            p.rtt_p999_ns as f64 / 1_000.0,
            p.rtt_max_ns as f64 / 1_000.0,
            p.dropped,
        );
        report_truncation(p.policy, p.trace_dropped);
    }
    // Recovery visualised: the cumulative retransmit counter climbs in
    // bursts after the kill under round-robin, and stays flat (so the
    // sampler emits no series) under adaptive routing.
    for p in [&frr, &fad] {
        if let Some(retx) = p.series.get("retransmits (cum)") {
            println!(
                "\nretransmits over virtual time ({}): {}  (total {})",
                p.policy,
                retx.sparkline(),
                retx.max()
            );
        }
    }
    println!(
        "\nadaptive vs round-robin with a dead cable: p99 {:+.1}%, drops {:+.1}%",
        (fad.rtt_p99_ns as f64 / frr.rtt_p99_ns as f64 - 1.0) * 100.0,
        (fad.dropped as f64 / frr.dropped as f64 - 1.0) * 100.0,
    );

    // Loss recovery: the same seeded 15% drop window crossed by a bulk
    // store under the legacy go-back-N and the adaptive RTO+SACK modes.
    let (leg, adp) = topo_exp::loss_recovery(quick(), &mut tally);
    println!("\n==== loss recovery: seeded 15% drop window, legacy vs adaptive ====\n");
    println!(
        "{:<10} {:>12} {:>10} {:>8} {:>6} {:>9} {:>18}",
        "mode", "recover (us)", "msgs/ms", "rtx", "drops", "spurious", "cause t/s/k"
    );
    println!("{}", "-".repeat(78));
    for p in [&leg, &adp] {
        println!(
            "{:<10} {:>12.1} {:>10.1} {:>8} {:>6} {:>9} {:>18}",
            p.mode,
            p.recover_ns as f64 / 1_000.0,
            p.goodput_msgs_ms,
            p.retransmits,
            p.dropped,
            p.spurious_rtx,
            format!("{}/{}/{}", p.rtx_timeout, p.rtx_sack_gap, p.rtx_keepalive),
        );
    }
    println!(
        "\nadaptive vs legacy under loss: recovery {:+.1}%, spurious rtx {:+.1}%",
        (adp.recover_ns as f64 / leg.recover_ns as f64 - 1.0) * 100.0,
        (adp.spurious_rtx as f64 / leg.spurious_rtx.max(1) as f64 - 1.0) * 100.0,
    );
    if adp.recover_ns >= leg.recover_ns || adp.spurious_rtx >= leg.spurious_rtx {
        println!("LOSS RECOVERY CHECK FAILED: adaptive must strictly beat legacy on both");
        std::process::exit(1);
    }

    let mut metrics = collect_metrics(&rr, &ad);
    for p in [&frr, &fad] {
        metrics.push((
            format!("topo/fault-{}-p50-rtt-ns", p.policy),
            p.rtt_p50_ns as f64,
        ));
        metrics.push((
            format!("topo/fault-{}-p99-rtt-ns", p.policy),
            p.rtt_p99_ns as f64,
        ));
        metrics.push((format!("topo/fault-{}-dropped", p.policy), p.dropped as f64));
    }
    for p in [&leg, &adp] {
        metrics.push((
            format!("topo/loss-{}-recover-ns", p.mode),
            p.recover_ns as f64,
        ));
        metrics.push((
            format!("topo/loss-{}-spurious-rtx", p.mode),
            p.spurious_rtx as f64,
        ));
    }
    if let Ok(path) = std::env::var("SP_BENCH_TOPO_JSON") {
        write_metrics(&path, &metrics).expect("write SP_BENCH_TOPO_JSON file");
        println!("wrote {} metrics to {path}", metrics.len());
    }
    if let Ok(path) = std::env::var("SP_BENCH_TOPO_SERIES") {
        std::fs::write(&path, ad.series.to_json()).expect("write SP_BENCH_TOPO_SERIES file");
        println!("wrote adaptive congestion gauge series to {path}");
    }
    if let Ok(path) = std::env::var("SP_BENCH_TOPO_BASELINE") {
        if !compare_baseline("topo", 28, &path, &metrics) {
            println!("topo congestion metrics regressed by more than an order of magnitude");
            std::process::exit(1);
        }
    }

    sp_bench::print_engine_summary(&tally);
}

/// The dead-cable experiment, serial vs `shards`-way sharded, round-robin
/// routing (the policy the sharded engine supports). Every headline
/// metric must match exactly: the cable kill is a broadcast world event
/// and the per-link drop injectors classify at the cables' owning shard,
/// so divergence here means the conservative-parallel engine broke
/// serial-equivalence under faults.
fn parallel_fault_check(shards: usize, tally: &mut sp_bench::Tally) -> bool {
    let iters = if quick() { 12 } else { 32 };
    let rr = sp_adapter::RoutePolicy::RoundRobin;
    let serial = topo_exp::fault_run(rr, 8, iters, tally);
    let sharded = topo_exp::fault_run_sharded(rr, 8, iters, shards, tally);
    println!(
        "==== parallel fault check: cable lane 0 killed at {} us, {shards} shards ====\n",
        topo_exp::FAULT_KILL_AT_NS as f64 / 1_000.0
    );
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "engine", "samples", "p50 (us)", "p99 (us)", "p999 (us)", "max (us)", "dropped"
    );
    println!("{}", "-".repeat(76));
    for (name, p) in [("serial", &serial), ("sharded", &sharded)] {
        println!(
            "{:<12} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>9}",
            name,
            p.samples_after,
            p.rtt_p50_ns as f64 / 1_000.0,
            p.rtt_p99_ns as f64 / 1_000.0,
            p.rtt_p999_ns as f64 / 1_000.0,
            p.rtt_max_ns as f64 / 1_000.0,
            p.dropped,
        );
    }
    let same = [
        serial.samples_after as u64 == sharded.samples_after as u64,
        serial.rtt_p50_ns == sharded.rtt_p50_ns,
        serial.rtt_p99_ns == sharded.rtt_p99_ns,
        serial.rtt_p999_ns == sharded.rtt_p999_ns,
        serial.rtt_max_ns == sharded.rtt_max_ns,
        serial.dropped == sharded.dropped,
    ]
    .iter()
    .all(|b| *b);
    if same {
        println!("\nserial and {shards}-shard runs agree on every metric");
    } else {
        println!("\nPARALLEL FAULT CHECK FAILED: sharded run diverged from serial");
    }
    same
}

/// Flag ring overflow next to the table it would silently skew.
fn report_truncation(policy: &str, dropped: u64) {
    if dropped > 0 {
        println!("  ({policy}: trace truncated, {dropped} records lost to ring overflow)");
    }
}

/// Print the headline gauge sparklines of a sampled run: the shared-cable
/// busy percentages and the aggregate in-flight packet count. Per-node
/// FIFO-depth gauges stay in the JSON export — sixteen near-identical
/// lines add nothing to a terminal summary.
fn print_sparklines(series: &sp_trace::TimeSeries) {
    for s in series.series.iter() {
        let keep = s.name.contains("xlink") || s.name == "in-flight packets";
        if !keep {
            continue;
        }
        println!("  {:<24} {}  (max {})", s.name, s.sparkline(), s.max());
    }
}

/// The congestion metrics that go into `BENCH_topo.json`. All are
/// lower-is-better, so the baseline comparison fails on a 10x increase.
fn collect_metrics(rr: &CongestionPoint, ad: &CongestionPoint) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for p in [rr, ad] {
        out.push((format!("topo/{}-p50-rtt-ns", p.policy), p.rtt_p50_ns as f64));
        out.push((format!("topo/{}-p99-rtt-ns", p.policy), p.rtt_p99_ns as f64));
        out.push((format!("topo/{}-lane-spread", p.policy), p.lane_spread));
    }
    out
}
