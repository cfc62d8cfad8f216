//! Regenerates Figure 8: MPI point-to-point per-hop latencies on thin
//! nodes (4-node ring), four layers.

use sp_bench::fmt::print_series;

fn main() {
    let mut tally = sp_bench::Tally::default();
    let quick = sp_bench::quick();
    let series = sp_bench::mpi_exp::fig_latency(false, quick, &mut tally);
    println!("Figure 8: MPI per-hop latency on thin SP nodes (us)\n");
    print_series("bytes", &series);
    println!("\nexpected shape (paper): am_store lowest; optimized AM MPI beats MPI-F for");
    println!("small messages on thin nodes; unoptimized AM MPI highest.");
    sp_bench::print_engine_summary(&tally);
}
