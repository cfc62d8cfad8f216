//! Wall-clock throughput benches of the DES engine itself, used to track
//! its hot paths (self-driving yields, allocation-free hot events). Run
//! with `cargo bench --bench engine`; the repo records baseline and
//! current numbers in `BENCH_engine.json`.
//!
//! Workloads:
//! * **empty-poll** — the dominant pattern of every AM program: nodes spin
//!   on an empty receive FIFO, charging the poll cost each time. Each poll
//!   yields, and a node whose own wake comes up next resumes in place.
//! * **advance** — pure virtual-time charging on a single node: every
//!   advance resumes in place, with no handoff.
//! * **ping-pong-storm** — park/unpark rendezvous pairs; this is the slow
//!   path (real handoffs) and must not regress.
//! * **event-chain** — engine-side events rescheduling themselves.
//! * **packet-stream** — end-to-end adapter traffic (firmware event chains,
//!   delivery events): exercises the typed allocation-free event path.
//! * **parallel-ping-pong-storm** — the storm on the sharded
//!   conservative-parallel engine (`run_parallel(4)`): pairs land on
//!   distinct shards and rendezvous concurrently.
//! * **parallel-packet-stream** — the adapter stream on `run_parallel(2)`:
//!   tx and rx on separate shards, every packet an inter-shard hand-off
//!   through lookahead windows (the worst case for the window barrier).

use criterion::{criterion_group, Criterion, Throughput};
use sp_adapter::{host, SpConfig, SpWorld};
use sp_bench::metrics::{json_number, json_string};
use sp_sim::{Dur, Sim};

/// 4 nodes × 2,500 polls of an empty receive FIFO.
fn empty_poll(c: &mut Criterion) {
    const NODES: usize = 4;
    const POLLS: u64 = 2_500;
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(NODES as u64 * POLLS));
    g.bench_function("empty-poll-4x2500", |b| {
        b.iter(|| {
            let mut sim = Sim::new(SpWorld::<u32>::new(SpConfig::thin(NODES)), 1);
            for i in 0..NODES {
                sim.spawn(format!("n{i}"), |ctx| {
                    for _ in 0..POLLS {
                        assert!(host::poll_packet(ctx).is_none());
                    }
                });
            }
            sim.run().unwrap()
        })
    });
    g.finish();
}

/// One node charging 10,000 spans of virtual time.
fn advance(c: &mut Criterion) {
    const STEPS: u64 = 10_000;
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(STEPS));
    g.bench_function("advance-1x10k", |b| {
        b.iter(|| {
            let mut sim = Sim::new((), 1);
            sim.spawn("spinner", |ctx| {
                for _ in 0..STEPS {
                    ctx.advance(Dur::ns(100));
                }
            });
            sim.run().unwrap()
        })
    });
    g.finish();
}

/// 4 independent park/unpark pairs, 250 rounds each: genuine handoffs
/// between node threads.
fn ping_pong_storm(c: &mut Criterion) {
    const PAIRS: usize = 4;
    const ROUNDS: u64 = 250;
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(PAIRS as u64 * ROUNDS));
    g.bench_function("ping-pong-storm-4x250", |b| {
        b.iter(|| {
            let mut sim = Sim::new((), 1);
            for p in 0..PAIRS {
                let sleeper = sp_sim::NodeId(2 * p);
                sim.spawn(format!("sleeper{p}"), move |ctx| {
                    for _ in 0..ROUNDS {
                        ctx.park();
                    }
                });
                sim.spawn(format!("waker{p}"), move |ctx| {
                    for _ in 0..ROUNDS {
                        ctx.advance(Dur::ns(100));
                        ctx.unpark(sleeper);
                        ctx.advance(Dur::ns(50));
                    }
                });
            }
            sim.run().unwrap()
        })
    });
    g.finish();
}

/// A chain of 10,000 engine events, each scheduling its successor.
fn event_chain(c: &mut Criterion) {
    const LINKS: u64 = 10_000;
    fn step(e: &mut sp_sim::EventCtx<'_, u64>) {
        if *e.world() < LINKS {
            *e.world() += 1;
            e.schedule(Dur::ns(10), step);
        }
    }
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(LINKS));
    g.bench_function("event-chain-10k", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0u64, 1);
            sim.spawn("kick", |ctx| {
                ctx.schedule(Dur::ns(10), step);
                ctx.advance(Dur::ms(1.0));
            });
            let report = sim.run().unwrap();
            assert_eq!(report.world, LINKS);
            report
        })
    });
    g.finish();
}

/// 500 packets through the firmware send/transit/receive event chains.
fn packet_stream(c: &mut Criterion) {
    const PACKETS: u32 = 500;
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(PACKETS as u64));
    g.bench_function("packet-stream-2x500", |b| {
        b.iter(|| {
            let mut sim = Sim::new(SpWorld::<u32>::new(SpConfig::thin(2)), 1);
            sim.spawn("tx", |ctx| {
                for i in 0..PACKETS {
                    while host::send_fifo_free(ctx) == 0 {
                        ctx.advance(Dur::us(1.0));
                    }
                    host::send_packet(ctx, 1, 64, i).unwrap();
                }
            });
            sim.spawn("rx", |ctx| {
                for _ in 0..PACKETS {
                    let _ = host::spin_recv(ctx, Dur::ns(300));
                }
            });
            sim.run().unwrap()
        })
    });
    g.finish();
}

/// The ping-pong storm on the sharded engine: 4 pairs on 4 shards. Pairs
/// never talk across the cut, so this measures pure intra-shard
/// parallelism (single unbounded window) against the serial storm.
fn parallel_ping_pong_storm(c: &mut Criterion) {
    const PAIRS: usize = 4;
    const ROUNDS: u64 = 250;
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(PAIRS as u64 * ROUNDS));
    g.bench_function("parallel-ping-pong-storm-4x250", |b| {
        b.iter(|| {
            let mut sim = Sim::new((), 1);
            for p in 0..PAIRS {
                let sleeper = sp_sim::NodeId(2 * p);
                sim.spawn(format!("sleeper{p}"), move |ctx| {
                    for _ in 0..ROUNDS {
                        ctx.park();
                    }
                });
                sim.spawn(format!("waker{p}"), move |ctx| {
                    for _ in 0..ROUNDS {
                        ctx.advance(Dur::ns(100));
                        ctx.unpark(sleeper);
                        ctx.advance(Dur::ns(50));
                    }
                });
            }
            sim.run_parallel(4).unwrap()
        })
    });
    g.finish();
}

/// The adapter packet stream on the sharded engine: tx and rx on separate
/// shards, so all 500 packets cross the cut as timestamped inter-shard
/// messages through conservative lookahead windows.
fn parallel_packet_stream(c: &mut Criterion) {
    const PACKETS: u32 = 500;
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(PACKETS as u64));
    g.bench_function("parallel-packet-stream-2x500", |b| {
        b.iter(|| {
            let mut sim = Sim::new(SpWorld::<u32>::new(SpConfig::thin(2)), 1);
            sim.spawn("tx", |ctx| {
                for i in 0..PACKETS {
                    while host::send_fifo_free(ctx) == 0 {
                        ctx.advance(Dur::us(1.0));
                    }
                    host::send_packet(ctx, 1, 64, i).unwrap();
                }
            });
            sim.spawn("rx", |ctx| {
                for _ in 0..PACKETS {
                    let _ = host::spin_recv(ctx, Dur::ns(300));
                }
            });
            sim.run_parallel(2).unwrap()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(12).measurement_time(std::time::Duration::from_secs(3));
    targets = empty_poll, advance, ping_pong_storm, event_chain, packet_stream,
        parallel_ping_pong_storm, parallel_packet_stream
}

/// Elements processed per second for one result (the events/sec proxy).
fn elems_per_sec(r: &criterion::BenchResult) -> f64 {
    let elems = match r.throughput {
        Some(Throughput::Elements(n)) => n as f64,
        Some(Throughput::Bytes(n)) => n as f64,
        None => 1.0,
    };
    elems / (r.ns_per_iter / 1e9)
}

/// Run all workloads, print a summary, optionally write the results as
/// line-JSON (`SP_BENCH_ENGINE_JSON=<path>`), and optionally compare them
/// against a previously written baseline (`SP_BENCH_ENGINE_BASELINE=<path>`).
///
/// The baseline comparison is a *smoke* check for CI: it fails only when a
/// workload's throughput collapses below a tenth of the recorded baseline —
/// an order-of-magnitude regression — so shared-runner noise never trips it.
fn main() {
    benches();
    let results = criterion::take_results();
    println!("{:<28} {:>14} {:>16}", "workload", "ns/iter", "elems/sec");
    for r in &results {
        println!(
            "{:<28} {:>14.0} {:>16.0}",
            r.id,
            r.ns_per_iter,
            elems_per_sec(r)
        );
    }

    // Sharded-engine speedup over the serial twin of each parallel workload.
    for (par, ser) in [
        ("parallel-ping-pong-storm-4x250", "ping-pong-storm-4x250"),
        ("parallel-packet-stream-2x500", "packet-stream-2x500"),
    ] {
        let find = |id: &str| results.iter().find(|r| r.id == id).map(elems_per_sec);
        if let (Some(p), Some(s)) = (find(par), find(ser)) {
            println!("{par}: {:.2}x vs serial", p / s);
        }
    }

    if let Ok(path) = std::env::var("SP_BENCH_ENGINE_JSON") {
        let mut out = String::new();
        for r in &results {
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"ns_per_iter\":{:.1},\"elems_per_sec\":{:.1}}}\n",
                r.id,
                r.ns_per_iter,
                elems_per_sec(r)
            ));
        }
        std::fs::write(&path, out).expect("write SP_BENCH_ENGINE_JSON");
        println!("\nwrote {path}");
    }

    if let Ok(path) = std::env::var("SP_BENCH_ENGINE_BASELINE") {
        let baseline = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("SP_BENCH_ENGINE_BASELINE={path} is not readable ({e}); pass the path to a committed BENCH_engine.json")
        });
        let mut failed = false;
        println!("\nbaseline comparison ({path}):");
        for line in baseline.lines().filter(|l| !l.trim().is_empty()) {
            let (Some(id), Some(base)) =
                (json_string(line, "id"), json_number(line, "elems_per_sec"))
            else {
                panic!("malformed baseline line: {line}");
            };
            let Some(cur) = results.iter().find(|r| r.id == id).map(elems_per_sec) else {
                println!("  {id}: missing from current run (workload removed?)");
                failed = true;
                continue;
            };
            let ratio = cur / base;
            let verdict = if ratio < 0.1 {
                "FAIL (>10x slower)"
            } else {
                "ok"
            };
            println!("  {id}: {cur:.0} vs baseline {base:.0} ({ratio:.2}x) {verdict}");
            failed |= ratio < 0.1;
        }
        assert!(
            !failed,
            "engine throughput collapsed by an order of magnitude vs {path}"
        );
    }
}
