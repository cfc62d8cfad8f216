//! Open-loop datacenter traffic on a 512-node fat tree: saturation curves
//! (offered load vs goodput) and request-latency quantiles per routing
//! policy, driven by the seeded `sp-traffic` workload generator.
//!
//! ```text
//! cargo run --release --bin traffic
//! cargo run --release --bin traffic -- --parallel 4
//! ```
//!
//! `--parallel N` shards the conservative-parallel engine N ways for every
//! run, under both routing policies (default 4). The workload, schedule,
//! and metrics do not depend on the shard count (the determinism tests in
//! `tests/tests/traffic.rs` assert it on smaller fabrics; this sweep was
//! checked at 1 and 4 shards).
//!
//! Set `SP_BENCH_QUICK=1` for the CI-sized sweep, `SP_BENCH_TRAFFIC_JSON=
//! <path>` to write the headline metrics as JSON lines, and
//! `SP_BENCH_TRAFFIC_BASELINE=<path>` to compare against a saved baseline
//! (fails on any metric that differs from it or is missing: every metric
//! is deterministic virtual time, as with `SP_BENCH_TOPO_BASELINE`).

use sp_adapter::{RoutePolicy, SpConfig};
use sp_bench::metrics::{compare_baseline, write_metrics};
use sp_bench::quick;
use sp_traffic::{run_traffic, saturation_sweep, Incast, LoadPoint, TrafficConfig};

fn main() {
    let mut tally = sp_bench::Tally::default();
    let args: Vec<String> = std::env::args().collect();
    let shards: usize = match args.iter().position(|a| a == "--parallel") {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("traffic: --parallel needs a shard count");
                std::process::exit(1);
            }),
        None => 4,
    };
    let quick = quick();

    // 512 leaves: 32 frames of 16 under one full-bisection spine tier.
    // The binding resource is not server CPU (~4.3 us/request) but the
    // down-lanes feeding the 4 server frames: the sweep's sustained
    // drain rate plateaus near 160 MB/s while offered load spans
    // ~100-3600 MB/s, so the curve brackets the knee from both sides
    // (p50 sits near the unloaded service time at the bottom scale and
    // grows to milliseconds of queueing delay at the top).
    let sp = SpConfig::fat_tree(2, 32, 1);
    let base = TrafficConfig {
        horizon_ns: if quick { 250_000 } else { 500_000 },
        ..TrafficConfig::new(64)
    };
    let scales: &[f64] = if quick {
        &[0.125, 0.5, 2.0]
    } else {
        &[0.125, 0.25, 0.5, 1.0, 2.0, 4.0]
    };
    println!(
        "open-loop traffic: {} nodes ({} servers), fat_tree(2, 32, 1), horizon {} us",
        sp.nodes,
        base.servers,
        base.horizon_ns as f64 / 1_000.0
    );

    let mut metrics = Vec::new();
    let mut sweeps = Vec::new();
    for policy in [RoutePolicy::RoundRobin, RoutePolicy::Adaptive] {
        let sp = sp.clone().routed(policy).parallel(shards);
        let points = saturation_sweep(&base, &sp, scales);
        for p in &points {
            tally.add(&p.report);
        }
        let engine = match points[0].report.shards {
            1 => "serial".to_string(),
            n => format!("{n} shards"),
        };
        println!("\n==== saturation sweep: {policy:?} ({engine}) ====\n");
        println!(
            "{:>6} {:>7} {:>12} {:>12} {:>10} {:>10} {:>10} {:>8}",
            "scale",
            "flows",
            "offered MB/s",
            "goodput MB/s",
            "p50 (us)",
            "p99 (us)",
            "p999 (us)",
            "drops"
        );
        println!("{}", "-".repeat(82));
        for p in &points {
            let r = &p.report;
            if !(r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns && r.p999_ns <= r.max_ns) {
                println!("TRAFFIC CHECK FAILED: latency quantiles out of order");
                std::process::exit(1);
            }
            println!(
                "{:>6.2} {:>7} {:>12.1} {:>12.1} {:>10.2} {:>10.2} {:>10.2} {:>8}",
                p.scale,
                r.flows,
                r.offered_mb_s,
                r.goodput_mb_s,
                r.p50_ns as f64 / 1_000.0,
                r.p99_ns as f64 / 1_000.0,
                r.p999_ns as f64 / 1_000.0,
                r.dropped_overflow,
            );
        }
        let tag = match policy {
            RoutePolicy::RoundRobin => "rr",
            RoutePolicy::Adaptive => "adaptive",
        };
        // Headline quantiles come from the scale present in both quick and
        // full sweeps, just under the knee.
        let nominal = &points[scales.iter().position(|&s| s == 0.5).unwrap_or(0)].report;
        metrics.push((format!("traffic/{tag}-p50-ns"), nominal.p50_ns as f64));
        metrics.push((format!("traffic/{tag}-p99-ns"), nominal.p99_ns as f64));
        metrics.push((format!("traffic/{tag}-p999-ns"), nominal.p999_ns as f64));
        metrics.push((
            format!("traffic/{tag}-drops"),
            points
                .iter()
                .map(|p| p.report.dropped_overflow)
                .sum::<u64>() as f64,
        ));
        sweeps.push((tag, points));
    }
    report_saturation(&sweeps);

    // Incast: a synchronized fan-in burst into one server on top of a
    // light background load — the FIFO-overflow stress the reliability
    // layer exists for.
    let fan_in = if quick { 32 } else { 64 };
    let incast_cfg = TrafficConfig {
        incast: Some(Incast {
            fan_in,
            server: 0,
            at_ns: base.horizon_ns / 2,
            bytes: 1024,
        }),
        ..base.clone().scaled(0.25)
    };
    println!("\n==== incast: {fan_in} clients -> server 0, 1 KiB each ====\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>8}",
        "policy", "p99 (us)", "p999 (us)", "max (us)", "drops"
    );
    println!("{}", "-".repeat(54));
    for policy in [RoutePolicy::RoundRobin, RoutePolicy::Adaptive] {
        let r = run_traffic(&incast_cfg, sp.clone().routed(policy).parallel(shards));
        tally.add(&r);
        println!(
            "{:<12} {:>10.2} {:>10.2} {:>10.2} {:>8}",
            format!("{policy:?}"),
            r.p99_ns as f64 / 1_000.0,
            r.p999_ns as f64 / 1_000.0,
            r.max_ns as f64 / 1_000.0,
            r.dropped_overflow,
        );
        let tag = match policy {
            RoutePolicy::RoundRobin => "rr",
            RoutePolicy::Adaptive => "adaptive",
        };
        metrics.push((format!("traffic/incast-{tag}-p999-ns"), r.p999_ns as f64));
        metrics.push((
            format!("traffic/incast-{tag}-drops"),
            r.dropped_overflow as f64,
        ));
    }

    if let Ok(path) = std::env::var("SP_BENCH_TRAFFIC_JSON") {
        write_metrics(&path, &metrics).expect("write SP_BENCH_TRAFFIC_JSON file");
        println!("\nwrote {} metrics to {path}", metrics.len());
    }
    if let Ok(path) = std::env::var("SP_BENCH_TRAFFIC_BASELINE") {
        if !compare_baseline("traffic", 32, &path, &metrics) {
            println!("traffic metrics differ from the baseline");
            std::process::exit(1);
        }
    }
    sp_bench::print_engine_summary(&tally);
}

/// The headline read of the sweep: where each policy's goodput stops
/// tracking offered load. Absolute delivery efficiency (goodput/offered)
/// is diluted by the drain tail — the last flows issued at the horizon
/// still need a full service time — so the knee is read *relatively*:
/// the first point whose efficiency falls below half the lightest
/// load's.
fn report_saturation(sweeps: &[(&str, Vec<LoadPoint>)]) {
    println!();
    for (tag, points) in sweeps {
        let eff = |p: &LoadPoint| p.report.goodput_mb_s / p.report.offered_mb_s.max(1e-9);
        let floor = 0.5 * eff(&points[0]);
        let knee = points.iter().skip(1).find(|p| eff(p) < floor);
        match knee {
            Some(p) => println!(
                "{tag}: goodput falls off offered load at scale {:.2} ({:.1} of {:.1} MB/s)",
                p.scale, p.report.goodput_mb_s, p.report.offered_mb_s
            ),
            None => println!("{tag}: goodput tracks offered load across the whole sweep"),
        }
    }
}
