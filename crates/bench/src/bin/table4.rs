//! Regenerates Table 4: performance characteristics of the TMC CM-5,
//! Meiko CS-2, U-Net/ATM cluster, and IBM SP.

fn main() {
    let mut tally = sp_bench::Tally::default();
    let quick = sp_bench::quick();
    let iters = if quick { 40 } else { 120 };
    let (sp_rtt, _) = sp_bench::micro::am_round_trip(1, iters, &mut tally);
    let sp_bw = sp_bench::micro::bandwidth(
        sp_bench::micro::BwMode::AsyncStore,
        1 << 16,
        1 << 19,
        &mut tally,
    );
    let rows = sp_bench::splitc_exp::table4(sp_rtt, sp_bw, &mut tally);
    println!("Table 4: machine performance characteristics\n");
    println!(
        "{:>12}  {:>20}  {:>12}  {:>14}  {:>10}",
        "Machine", "CPU", "Msg overhead", "RT latency", "Bandwidth"
    );
    println!("{}", "-".repeat(80));
    for r in rows {
        println!(
            "{:>12}  {:>20}  {:>10.1}us  {:>12.1}us  {:>6.1}MB/s",
            r.name, r.cpu, r.overhead_us, r.rtt_us, r.bandwidth_mb_s
        );
    }
    println!("\npaper: CM-5 3us/12us/10MB/s; CS-2 11us/55us*/39MB/s; U-Net 13us*/66us/14MB/s;");
    println!("       SP ~6us/51us/34MB/s   (* OCR-reconstructed, see DESIGN.md)");
    sp_bench::print_engine_summary(&tally);
}
