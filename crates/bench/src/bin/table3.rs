//! Regenerates Table 3 (performance summary of SP AM vs IBM MPL) plus the
//! §2.3 round-trip details.

fn main() {
    let mut tally = sp_bench::Tally::default();
    let quick = sp_bench::quick();
    let t = sp_bench::micro::table3(quick, &mut tally);
    println!("Table 3: Performance Summary of SP AM and IBM MPL\n");
    println!("{:>42}  {:>10}  {:>10}", "Metric", "AM", "MPL");
    println!("{}", "-".repeat(68));
    println!(
        "{:>42}  {:>10.1}  {:>10.1}",
        "One-word round-trip latency (us)", t.am_rtt, t.mpl_rtt
    );
    println!(
        "{:>42}  {:>10.2}  {:>10.2}",
        "Asymptotic bandwidth r_inf (MB/s)", t.am_rinf, t.mpl_rinf
    );
    println!(
        "{:>42}  {:>10.0}  {:>10.0}",
        "Half-power point n1/2, non-blocking (bytes)", t.am_n_half_async, t.mpl_n_half_async
    );
    println!(
        "{:>42}  {:>10.0}  {:>10.0}",
        "Half-power point n1/2, blocking (bytes)", t.am_n_half_sync, t.mpl_n_half_sync
    );
    println!();
    println!(
        "raw (no protocol) round trip: {:.1} us (paper: ~47)",
        t.raw_rtt
    );
    println!(
        "AM software overhead over raw: {:.1} us (paper: ~4)",
        t.am_rtt - t.raw_rtt
    );
    // Per-word growth (§2.3: ~0.5 us per extra word).
    let (rtt1, _) = sp_bench::micro::am_round_trip(1, 60, &mut tally);
    let (rtt4, _) = sp_bench::micro::am_round_trip(4, 60, &mut tally);
    println!(
        "per-word round-trip growth: {:.2} us/word (paper: ~0.5)",
        (rtt4 - rtt1) / 3.0
    );
    let ex = sp_bench::micro::exchange_bandwidth(1 << 16, 1 << 19, &mut tally);
    println!("exchange (bidirectional) aggregate bandwidth: {ex:.2} MB/s");
    println!("\npaper: RTT 51.0 vs 88.0; r_inf 34.3 vs 34.6; n1/2 async 260 vs ~2400*;");
    println!("       n1/2 blocking 2800 vs >3200*   (* OCR-reconstructed, see DESIGN.md)");
    sp_bench::print_engine_summary(&tally);
}
