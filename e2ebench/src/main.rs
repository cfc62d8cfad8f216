//! End-to-end and per-layer benchmark of the SP AM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload pingpong|bulk|traffic --seed N --seconds S --trace 0|1
//! ```
//!
//! One run repeats the workload's experiment (set up from the seed, run,
//! checked) until `--seconds` of host time are used, at least twice, and
//! reports medians over the repetitions. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates plain repetitions with traced ones and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! README.md for the metric → layer → workload map.

mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};
use workloads::{median, Mode, Rep, Workload};

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_mb_s", "MB/s"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str)] = &[
    // sp-sim
    ("sim.events", "count"),
    ("sim.run_s", "s"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.events_per_s", "1/s"),
    ("sim.sync_events", "count"),
    ("sim.windows", "count"),
    ("sim.sync_ratio", "ratio"),
    ("sim.window_util_pct", "%"),
    ("sim.event_imbalance", "ratio"),
    ("sim.shards_used", "count"),
    ("sim.wakes_coalesced", "count"),
    // sp-am
    ("am.host_rtt_us_p50", "us"),
    ("am.host_rtt_us_p99", "us"),
    ("am.host_store_us_mean", "us"),
    ("am.host_wait_s", "s"),
    ("am.polls", "count"),
    ("am.poll_hit_ratio", "ratio"),
    ("am.packets_sent", "count"),
    ("am.packets_retransmitted", "count"),
    ("am.rtx_ratio", "ratio"),
    ("am.explicit_acks_sent", "count"),
    ("am.nacks_received", "count"),
    ("am.probes_sent", "count"),
    ("am.dup_dropped", "count"),
    ("am.paper_err_pct", "%"),
    // sp-adapter
    ("adapter.sent", "count"),
    ("adapter.received", "count"),
    ("adapter.doorbells_per_packet", "ratio"),
    ("adapter.lazy_pops", "count"),
    ("adapter.recv_high_water", "count"),
    ("adapter.dropped_overflow", "count"),
    // sp-switch
    ("switch.delivered", "count"),
    ("switch.hops_per_packet", "ratio"),
    ("switch.wire_bytes", "bytes"),
    ("switch.dropped", "count"),
    ("switch.link_util_max_pct", "%"),
    // sp-traffic
    ("traffic.schedule_s", "s"),
    ("traffic.flows", "count"),
    ("traffic.offered_mb_s", "MB/s"),
    // sp-trace and the benchmark's own spans
    ("trace.overhead_pct", "%"),
    ("trace.records", "count"),
    ("trace.dropped_records", "count"),
    ("span.setup.self_s", "s"),
    ("span.run.self_s", "s"),
    ("span.node.self_s", "s"),
    ("span.am.self_s", "s"),
    ("vt.host_write_mean_ns", "ns"),
    ("vt.fw_send_mean_ns", "ns"),
    ("vt.fw_recv_mean_ns", "ns"),
    ("vt.switch_hop_mean_ns", "ns"),
    ("vt.handler_mean_ns", "ns"),
    // The one-word round trip's causal segments, in causal order.
    ("vt.rtt.request_cpu_n0_ns", "ns"),
    ("vt.rtt.fifo_write_flush_n0_ns", "ns"),
    ("vt.rtt.doorbell_pio_n0_ns", "ns"),
    ("vt.rtt.fw_scan_delay_n0_ns", "ns"),
    ("vt.rtt.fw_send_dma_n0_ns", "ns"),
    ("vt.rtt.wire_switch_0_1_ns", "ns"),
    ("vt.rtt.fw_recv_dma_n1_ns", "ns"),
    ("vt.rtt.receiver_poll_wait_n1_ns", "ns"),
    ("vt.rtt.fifo_copy_out_n1_ns", "ns"),
    ("vt.rtt.dispatch_cpu_n1_ns", "ns"),
    ("vt.rtt.reply_cpu_n1_ns", "ns"),
    ("vt.rtt.fifo_write_flush_n1_ns", "ns"),
    ("vt.rtt.doorbell_pio_n1_ns", "ns"),
    ("vt.rtt.fw_scan_delay_n1_ns", "ns"),
    ("vt.rtt.fw_send_dma_n1_ns", "ns"),
    ("vt.rtt.wire_switch_1_0_ns", "ns"),
    ("vt.rtt.fw_recv_dma_n0_ns", "ns"),
    ("vt.rtt.sender_poll_wait_n0_ns", "ns"),
    ("vt.rtt.fifo_copy_out_n0_ns", "ns"),
    ("vt.rtt.dispatch_cpu_n0_ns", "ns"),
    ("vt.rtt.poll_epilogue_handler_n0_ns", "ns"),
];

/// A seed kept out of every tuning run, for later claims to be checked on.
const HELD_OUT_SEED: u64 = 7_919;
/// A run that has not finished by then reports failure and exits, inside
/// the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (pingpong, bulk, traffic)")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host and build metadata stored with every result.
fn provenance(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"held_out_seed\":{},\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_commit\":{},\"unix_time\":{}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace as u8,
        HELD_OUT_SEED,
        nproc,
        json_str(&cpu),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        unix_s
    )
}

fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                v,
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        correct,
        attempted.max(1),
        failed,
        metrics_json(metrics)
    )
}

/// Results and spans go under the benchmark's own directory.
fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn run(args: &Args) -> (bool, u64, u64, Vec<(&'static str, &'static str, f64)>) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    // Repeat until the next repetition would overrun the budget; at least
    // two (two of each kind when tracing), so determinism and run isolation
    // are checked inside every run.
    let alternate = args.trace && args.workload.traceable();
    let min_reps = if alternate { 4 } else { 2 };
    loop {
        let mode = Mode {
            tracer: alternate && reps.len() % 2 == 1,
            spans: args.trace,
        };
        let t = Instant::now();
        let rep = workloads::run_rep(args.workload, args.seed, mode);
        let took = t.elapsed().as_secs_f64();
        println!(
            "rep {:>2} {:<8} setup {:.6} s  run {:.4} s  ({:.2} s total)  {}",
            reps.len(),
            if mode.tracer { "traced" } else { "plain" },
            rep.setup_s,
            rep.wall_s,
            took,
            match &rep.outcome {
                Ok(_) => "ok".to_owned(),
                Err(e) => format!("FAILED: {e}"),
            }
        );
        reps.push(rep);
        let typical = median(reps.iter().map(|r| r.setup_s + r.wall_s).collect()).unwrap_or(0.0);
        if reps.len() >= min_reps && start.elapsed().as_secs_f64() + typical > budget.as_secs_f64()
        {
            break;
        }
    }

    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let mut failed: u64 = reps
        .iter()
        .filter(|r| r.outcome.is_err())
        .map(|r| r.ops)
        .sum();
    let ok: Vec<&workloads::Measured> = reps
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();

    // Check verdicts, summed over repetitions.
    let mut verdicts: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for m in &ok {
        for (name, pass) in &m.checks {
            let e = verdicts.entry(name.as_str()).or_default();
            e.0 += *pass as usize;
            e.1 += 1;
        }
    }
    for (name, (pass, n)) in &verdicts {
        println!(
            "check {name}: {} ({pass}/{n} reps)",
            if pass == n { "ok" } else { "FAILED" }
        );
    }
    // Every repetition of one seed, traced or not, must agree exactly on
    // the virtual-clock figures and every run-scoped counter.
    let identical = ok
        .windows(2)
        .all(|w| w[0].sim == w[1].sim && w[0].counts == w[1].counts);
    println!(
        "check determinism.identical_sim_and_counts: {} ({} reps)",
        if identical { "ok" } else { "FAILED" },
        ok.len()
    );
    if !identical {
        failed = attempted;
    }
    let correct = failed == 0 && !ok.is_empty();

    let plain: Vec<&Rep> = reps.iter().filter(|r| !r.mode.tracer).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.mode.tracer).collect();
    let wall_plain = median(plain.iter().map(|r| r.wall_s).collect());
    let mut out: Vec<(&'static str, &'static str, f64)> = Vec::new();
    if !args.trace {
        let first = ok.first().map(|m| m.sim.clone());
        for (name, unit) in END_TO_END {
            let v = match name {
                "wall_s" => wall_plain,
                "setup_s" => median(plain.iter().map(|r| r.setup_s).collect()),
                "peak_rss_mb" => Some(peak_rss_mb()),
                "sim_p50_us" => first.as_ref().map(|s| s.p50_us),
                "sim_p99_us" => first.as_ref().map(|s| s.p99_us),
                "sim_mb_s" => first.as_ref().map(|s| s.mb_s),
                _ => unreachable!("every end-to-end metric is handled"),
            };
            if let Some(v) = v {
                out.push((name, unit, v));
            }
        }
        if let Some(s) = &first {
            if let Some(e) = s.paper_err_pct {
                println!(
                    "paper_err_pct {e:.4} % (Table 3; calibration guard < {} %)",
                    workloads::PAPER_ERR_LIMIT_PCT
                );
            }
        }
    } else {
        // Host-time layer values come from plain repetitions, virtual-time
        // trace values from traced ones; counters are identical in both.
        let layer_median = |reps: &[&Rep], key: &str| -> Option<f64> {
            median(
                reps.iter()
                    .filter_map(|r| r.outcome.as_ref().ok())
                    .filter_map(|m| m.layer.get(key).copied())
                    .collect(),
            )
        };
        let span_level = |key: &str| -> Option<f64> {
            median(
                plain
                    .iter()
                    .filter_map(|r| r.outcome.as_ref().ok())
                    .filter(|m| !m.spans.is_empty())
                    .filter_map(|m| {
                        spans::self_seconds_by_level(&m.spans)
                            .into_iter()
                            .find(|(l, _)| format!("span.{}.self_s", l.name()) == key)
                            .map(|(_, s)| s)
                    })
                    .collect(),
            )
        };
        let wall_traced = median(traced.iter().map(|r| r.wall_s).collect());
        let undeclared: std::collections::BTreeSet<&str> = ok
            .iter()
            .flat_map(|m| m.layer.keys())
            .map(String::as_str)
            .filter(|k| !PER_LAYER.iter().any(|(name, _)| name == k))
            .collect();
        for k in undeclared {
            println!("note: layer value {k} is measured but not declared in BENCHMARK.json");
        }
        for &(name, unit) in PER_LAYER {
            let v = if name == "trace.overhead_pct" {
                match (wall_traced, wall_plain) {
                    (Some(t), Some(p)) => Some((t / p - 1.0) * 100.0),
                    _ => None,
                }
            } else if name.starts_with("span.") {
                span_level(name)
            } else if name.starts_with("vt.")
                || name.starts_with("trace.")
                || name == "switch.link_util_max_pct"
            {
                layer_median(&traced, name)
            } else if name == "am.paper_err_pct" {
                ok.first().and_then(|m| m.sim.paper_err_pct)
            } else {
                layer_median(&plain, name)
            };
            // A layer the workload does not exercise, or whose counters its
            // public API does not expose, reads 0 (see README.md).
            out.push((name, unit, v.unwrap_or(0.0)));
        }
        if let Some(m) = plain
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .find(|m| !m.spans.is_empty())
        {
            let mut by_name: BTreeMap<(&str, &str), (u64, usize)> = BTreeMap::new();
            for (s, self_ns) in m.spans.iter().zip(spans::self_times_ns(&m.spans)) {
                let e = by_name.entry((s.level.name(), s.name)).or_default();
                e.0 += self_ns;
                e.1 += 1;
            }
            println!("host self time by span (first plain repetition):");
            for ((level, name), (ns, count)) in by_name {
                println!(
                    "  {level:<5} {name:<12} {:>10.6} s over {count} spans",
                    ns as f64 / 1e9
                );
            }
            let dir = results_dir();
            let path = dir.join(format!(
                "spans-{}-seed{}.json",
                args.workload.name(),
                args.seed
            ));
            if std::fs::create_dir_all(&dir)
                .and_then(|_| std::fs::write(&path, spans::to_json(&m.spans)))
                .is_ok()
            {
                println!("wrote {}", path.display());
            }
        }
    }
    for (name, unit, v) in &out {
        println!("metric {name} = {v} {unit}");
    }
    println!(
        "failed_ratio {} ({failed}/{attempted} operations over {} repetitions)",
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        },
        reps.len()
    );
    (correct, attempted, failed, out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "e2ebench: no result after {} s; giving up",
            WATCHDOG.as_secs()
        );
        println!("{}", result_line(false, 1, 1, &[]));
        std::process::exit(3);
    });
    let prov = provenance(&args);
    println!(
        "e2ebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let (correct, attempted, failed, metrics) = run(&args);
    println!("provenance {prov}");
    let line = result_line(correct, attempted, failed, &metrics);
    let record = format!("{{\"provenance\":{prov},\"result\":{line}}}\n");
    let dir = results_dir();
    let appended = std::fs::create_dir_all(&dir).and_then(|_| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("runs.jsonl"))
            .and_then(|mut f| f.write_all(record.as_bytes()))
    });
    if let Err(e) = appended {
        eprintln!("e2ebench: could not record the result: {e}");
    }
    println!("{line}");
    std::io::stdout().flush().expect("flush stdout");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must not drift apart.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let lines: Vec<&str> = json.lines().filter(|l| l.contains("\"unit\"")).collect();
        let declared: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        assert_eq!(
            lines.len(),
            declared.len(),
            "one BENCHMARK.json line per metric"
        );
        for (line, (name, unit)) in lines.iter().zip(&declared) {
            let expect = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(
                line.trim_start().starts_with(&expect),
                "{line} should start with {expect}"
            );
        }
    }
}
