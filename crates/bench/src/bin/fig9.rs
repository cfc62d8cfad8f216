//! Regenerates Figure 9: MPI point-to-point bandwidths on thin nodes.

use sp_bench::fmt::print_series;

fn main() {
    let mut tally = sp_bench::Tally::default();
    let quick = sp_bench::quick();
    let series = sp_bench::mpi_exp::fig_bandwidth(false, quick, &mut tally);
    println!("Figure 9: MPI per-hop bandwidth on thin SP nodes (MB/s)\n");
    print_series("bytes", &series);
    println!("\nexpected shape (paper): optimized AM MPI 10-30% above MPI-F for medium");
    println!("(8-32 KB) messages — the hybrid protocol avoids MPI-F's rendezvous dip;");
    println!("all converge at 1 MB.");
    sp_bench::print_engine_summary(&tally);
}
