//! Regenerates Table 2: cost of `am_request_N` and `am_reply_N` calls.
//! Paper values: request 7.7/7.9/8.0/8.2 µs, reply 4.0/4.1/4.3/4.4 µs,
//! empty poll 1.3 µs, +1.8 µs per received message.

fn main() {
    let mut tally = sp_bench::Tally::default();
    let t = sp_bench::micro::table2(&mut tally);
    println!("Table 2: cost of am_request_N / am_reply_N (microseconds)\n");
    println!("{:>14}  {:>6}  {:>6}  {:>6}  {:>6}", "N", 1, 2, 3, 4);
    println!("{}", "-".repeat(52));
    print!("{:>14}", "am_request_N");
    for v in t.request {
        print!("  {v:>6.1}");
    }
    println!();
    print!("{:>14}", "am_reply_N");
    for v in t.reply {
        print!("  {v:>6.1}");
    }
    println!("\n");
    println!("empty am_poll: {:.1} us   (paper: 1.3)", t.poll_empty);
    println!(
        "per received message: {:.1} us   (paper: ~1.8)",
        t.per_message
    );
    println!("\npaper: request 7.7 / 7.9 / 8.0 / 8.2, reply 4.0 / 4.1 / 4.3 / 4.4");
    sp_bench::print_engine_summary(&tally);
}
