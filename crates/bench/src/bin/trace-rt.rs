//! Trace a one-word AM round trip, print the measured latency breakdown
//! (the paper's §2.3 cost attribution, reconstructed from spans instead of
//! added constants), and export the full trace as Chrome trace-event JSON
//! loadable in Perfetto / `chrome://tracing`.
//!
//! ```text
//! cargo run --bin trace-rt -- --out trace.json
//! ```

use sp_bench::trace_rt;
use sp_trace::{chrome, Metrics};

fn main() {
    let mut out = String::from("target/trace-rt.json");
    let mut iters: u32 = 8;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            "--iters" => {
                iters = args
                    .next()
                    .expect("--iters needs a count")
                    .parse()
                    .expect("--iters takes an integer")
            }
            other => panic!("unknown argument {other:?} (expected --out/--iters)"),
        }
    }
    assert!(iters >= 1, "--iters must be at least 1");

    let (records, report, dropped) = trace_rt::run_one_word(iters);
    println!(
        "traced {} one-word round trips: {} records ({} lost to ring overflow), {} engine events\n",
        iters,
        records.len(),
        dropped,
        report.events
    );

    // Last measured iteration: steady state, far from warmup effects.
    let bd = trace_rt::breakdown(&records, iters as u64 - 1);
    println!("{bd}");

    println!("\n{}", Metrics::aggregate_with_dropped(&records, dropped));

    let json = chrome::to_chrome_json(&records);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out, &json).expect("write trace file");
    println!(
        "\nwrote {} ({} bytes) — load in Perfetto or chrome://tracing",
        out,
        json.len()
    );
    sp_bench::print_engine_summary(&sp_bench::Tally::from(&report));
}
