//! Regenerates Figure 7: bandwidth of the buffered, rendezvous, and hybrid
//! MPI protocols over message size.

use sp_bench::fmt::print_series;

fn main() {
    let mut tally = sp_bench::Tally::default();
    let quick = sp_bench::quick();
    let series = sp_bench::mpi_exp::fig7(quick, &mut tally);
    println!("Figure 7: performance of buffered and rendezvous protocols (MB/s)\n");
    print_series("bytes", &series);
    println!("\nexpected shape (paper): buffered best for small sizes (extra copy hurts as");
    println!("sizes grow); rendezvous poor for small sizes (handshake latency) but best");
    println!("asymptotically; hybrid follows buffered at small sizes and rendezvous at");
    println!("large, with no dip at the switch.");
    sp_bench::print_engine_summary(&tally);
}
