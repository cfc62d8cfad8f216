//! `chaos` — run fault-injection campaigns and replay reproducers.
//!
//! ```text
//! chaos campaign [--per-workload N] [--seed S] [--workload NAME]... [--out DIR] [--parallel N]
//! chaos replay FILE [--trace OUT.json] [--parallel N]
//! ```
//!
//! `campaign` runs N seeded random schedules per workload; any invariant
//! violation is shrunk to a minimal reproducer written to DIR together
//! with a Chrome trace of the failing run. Exit code 2 if anything failed.
//!
//! `replay` re-executes a schedule (or reproducer) file and prints its
//! report; if the file embeds an expected report (`#= ` lines), the replay
//! is compared byte-for-byte and mismatches exit 3.
//!
//! `--parallel N` runs each schedule sharded across N conservative-parallel
//! engine shards. Outcomes and reports match one-shard runs (up to the
//! mid-run world-event gap noted on `sp_chaos::run`), so
//! reproducers recorded on one shard replay under `--parallel` and vice
//! versa.

use sp_chaos::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("campaign") => campaign(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => {
            eprintln!("usage: chaos campaign [--per-workload N] [--seed S] [--workload NAME]... [--out DIR] [--parallel N]");
            eprintln!("       chaos replay FILE [--trace OUT.json] [--parallel N]");
            ExitCode::FAILURE
        }
    }
}

fn campaign(args: &[String]) -> ExitCode {
    let mut per_workload = 16;
    let mut seed = 1u64;
    let mut workloads = Vec::new();
    let mut out_dir = PathBuf::from("chaos-out");
    let mut parallel = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--per-workload" => {
                per_workload = val("--per-workload")
                    .parse()
                    .unwrap_or_else(|_| die("bad --per-workload"))
            }
            "--seed" => seed = val("--seed").parse().unwrap_or_else(|_| die("bad --seed")),
            "--workload" => {
                let name = val("--workload");
                workloads.push(
                    Workload::parse(name)
                        .unwrap_or_else(|| die(&format!("unknown workload {name}"))),
                );
            }
            "--out" => out_dir = PathBuf::from(val("--out")),
            "--parallel" => {
                parallel = val("--parallel")
                    .parse()
                    .unwrap_or_else(|_| die("bad --parallel"))
            }
            _ => die(&format!("unknown flag {a}")),
        }
    }
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    let result =
        sp_chaos::run_campaign(per_workload, seed, &workloads, parallel, |s, violations| {
            println!(
                "[chaos] {} seed {} ({} events): {}",
                s.workload.name(),
                s.seed,
                s.events.len(),
                if violations == 0 {
                    "ok".into()
                } else {
                    format!("{violations} VIOLATIONS")
                }
            );
        });
    println!(
        "[chaos] {} runs, {} failures",
        result.runs,
        result.failures.len()
    );
    if result.failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| die(&format!("mkdir {}: {e}", out_dir.display())));
    for f in &result.failures {
        let base = format!("chaos-repro-{}-{}", f.shrunk.workload.name(), f.shrunk.seed);
        let sched_path = out_dir.join(format!("{base}.sched"));
        let trace_path = out_dir.join(format!("{base}.trace.json"));
        let flight_path = out_dir.join(format!("{base}.flight.json"));
        std::fs::write(&sched_path, &f.repro).unwrap_or_else(|e| die(&format!("write: {e}")));
        std::fs::write(&trace_path, &f.chrome_json).unwrap_or_else(|e| die(&format!("write: {e}")));
        std::fs::write(&flight_path, &f.flight_json)
            .unwrap_or_else(|e| die(&format!("write: {e}")));
        println!(
            "[chaos] FAILURE {}: {} events shrunk to {}; repro {} trace {} flight {}",
            f.shrunk.workload.name(),
            f.original.events.len(),
            f.shrunk.events.len(),
            sched_path.display(),
            trace_path.display(),
            flight_path.display()
        );
        print!("{}", f.report);
    }
    ExitCode::from(2)
}

fn replay(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut parallel = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => {
                trace_out = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| die("--trace needs a value")),
                ))
            }
            "--parallel" => {
                parallel = it
                    .next()
                    .unwrap_or_else(|| die("--parallel needs a value"))
                    .parse()
                    .unwrap_or_else(|_| die("bad --parallel"))
            }
            _ if file.is_none() => file = Some(a.clone()),
            _ => die(&format!("unexpected argument {a}")),
        }
    }
    let file = file.unwrap_or_else(|| die("replay needs a schedule file"));
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| die(&format!("read {file}: {e}")));
    let rep =
        sp_chaos::replay(&text, parallel).unwrap_or_else(|e| die(&format!("parse {file}: {e}")));
    print!("{}", rep.report);
    if let Some(out) = trace_out {
        let traced = sp_chaos::run_traced(&rep.schedule);
        std::fs::write(&out, traced.chrome_json.unwrap_or_default())
            .unwrap_or_else(|e| die(&format!("write {}: {e}", out.display())));
        println!("[chaos] trace written to {}", out.display());
    }
    match rep.matches() {
        Some(true) => {
            println!("[chaos] replay matches embedded expectation byte-for-byte");
            ExitCode::SUCCESS
        }
        Some(false) => {
            eprintln!("[chaos] REPLAY MISMATCH: run differs from embedded expectation");
            eprintln!("--- expected ---\n{}", rep.expected.unwrap());
            // Dump the mismatching run's tail so the divergence can be
            // inspected without re-running under full tracing.
            let flight_path = format!("{file}.flight.json");
            std::fs::write(
                &flight_path,
                sp_chaos::run(&rep.schedule, 1).flight.dump_json(),
            )
            .unwrap_or_else(|e| die(&format!("write {flight_path}: {e}")));
            eprintln!("[chaos] flight dump written to {flight_path}");
            ExitCode::from(3)
        }
        None => ExitCode::SUCCESS,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("chaos: {msg}");
    std::process::exit(1);
}
