//! Regenerates Figure 11: MPI point-to-point bandwidths on wide nodes.

use sp_bench::fmt::print_series;

fn main() {
    let mut tally = sp_bench::Tally::default();
    let quick = sp_bench::quick();
    let series = sp_bench::mpi_exp::fig_bandwidth(true, quick, &mut tally);
    println!("Figure 11: MPI per-hop bandwidth on wide SP nodes (MB/s)\n");
    print_series("bytes", &series);
    println!("\nexpected shape (paper): as Figure 9 with the faster wide-node memory");
    println!("system lifting all curves.");
    sp_bench::print_engine_summary(&tally);
}
