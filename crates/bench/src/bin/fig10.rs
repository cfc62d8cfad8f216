//! Regenerates Figure 10: MPI point-to-point per-hop latencies on wide
//! nodes.

use sp_bench::fmt::print_series;

fn main() {
    let mut tally = sp_bench::Tally::default();
    let quick = sp_bench::quick();
    let series = sp_bench::mpi_exp::fig_latency(true, quick, &mut tally);
    println!("Figure 10: MPI per-hop latency on wide SP nodes (us)\n");
    print_series("bytes", &series);
    println!("\nexpected shape (paper): as Figure 8, but MPI-F (tuned for wide nodes)");
    println!("competitive below ~100 bytes and slower above.");
    sp_bench::print_engine_summary(&tally);
}
