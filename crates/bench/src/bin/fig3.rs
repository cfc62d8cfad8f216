//! Regenerates Figure 3: bandwidth of blocking and non-blocking bulk
//! transfers (six curves) over message size.

use sp_bench::fmt::print_series;

fn main() {
    let mut tally = sp_bench::Tally::default();
    let quick = sp_bench::quick();
    let series = sp_bench::micro::fig3(quick, &mut tally);
    println!("Figure 3: Bandwidth of blocking and non-blocking bulk transfers (MB/s)\n");
    print_series("bytes", &series);
    println!("\nexpected shape: all curves converge to ~34.3 MB/s; async store/get rise");
    println!("fastest (n1/2 ~260 B); sync store next (~2800 B), sync get slower (~3000 B,");
    println!("get-request overhead); MPL slowest to rise; async == sync above one 8064-B chunk.");
    sp_bench::print_engine_summary(&tally);
}
