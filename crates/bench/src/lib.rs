//! # sp-bench — the experiment harness
//!
//! One function per table/figure of the paper, each returning plain data
//! that the `src/bin/*` binaries print in the paper's layout. DESIGN.md
//! maps every experiment id to its regenerating binary; EXPERIMENTS.md
//! records paper-vs-measured values.
//!
//! Everything here measures **virtual time** on the simulated SP (or LogGP
//! machines); `cargo bench` (Criterion) separately measures the *wall
//! clock* performance of the implementation's hot data structures. Each
//! experiment function also adds the report of every run it makes to a
//! caller's [`Tally`], whose host-side totals the binaries print with
//! [`print_engine_summary`].

#![warn(missing_docs)]

pub mod ablation;
pub mod fmt;
pub mod metrics;
pub mod micro;
pub mod mpi_exp;
pub mod nas_exp;
pub mod splitc_exp;
mod tally;
pub mod topo_exp;
pub mod trace_rt;

pub use tally::Tally;

/// Default node count for the point-to-point experiments.
pub const PAIR: usize = 2;

/// Quick mode (set `SP_BENCH_QUICK=1`): smaller sweeps for smoke runs.
pub fn quick() -> bool {
    std::env::var("SP_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Print the engine, drop, reliability and (if any run was sharded)
/// parallel-engine totals of the runs folded into `t` — called at the end
/// of each experiment binary so simulator-performance regressions show up
/// in ordinary runs.
pub fn print_engine_summary(t: &Tally) {
    println!("\n[engine] {}", t.engine_line());
    println!(
        "[engine] drops: {} fifo-overflow, {} switch ({} duplicated); wakes coalesced: {}",
        t.dropped_overflow, t.switch_dropped, t.switch_duplicated, t.wakes_coalesced
    );
    println!("[reliability] {}", t.reliability_line());
    if let Some(par) = t.parallel_line() {
        println!("[parallel] {par}");
    }
}
