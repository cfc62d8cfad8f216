//! Regenerates Table 5: absolute Split-C benchmark execution times on
//! eight processors across the five platforms.

use sp_splitc::Platform;

fn main() {
    let mut tally = sp_bench::Tally::default();
    let quick = sp_bench::quick();
    let data = sp_bench::splitc_exp::table5(quick, &mut tally);
    println!("Table 5: Split-C benchmark execution times, 8 processors (seconds, scaled class)\n");
    print!("{:>12}", "Benchmark");
    for p in Platform::all() {
        print!("  {:>14}", p.name());
    }
    println!();
    println!("{}", "-".repeat(95));
    for (app, row) in &data {
        print!("{:>12}", app.label());
        for (_, t) in row {
            print!("  {:>13.3}s", t.total.as_secs());
        }
        println!();
    }
    println!("\nexpected shape (paper): SP AM fastest or tied everywhere; SP MPL ~equal for");
    println!("mm 128 and bulk sorts, 2-4x slower for the fine-grain (sm) variants; CM-5");
    println!("slowest cpu but competitive comm; CS-2/U-Net in between.");

    // Figure 4 from the same data (normalized to SP AM, cpu/net split) —
    // printed here so `repro-all` doesn't pay for the sweep twice.
    println!("\nFigure 4: the same runs normalized to SP AM (cpu / net split)\n");
    for (app, row) in &data {
        let sp_total = row
            .iter()
            .find(|(p, _)| *p == Platform::SpAm)
            .expect("SP AM row")
            .1
            .total
            .as_secs();
        println!("{}:", app.label());
        println!(
            "{:>16}  {:>8}  {:>8}  {:>8}",
            "platform", "cpu", "net", "total"
        );
        for (p, t) in row {
            println!(
                "{:>16}  {:>8.2}  {:>8.2}  {:>8.2}",
                p.name(),
                t.cpu().as_secs() / sp_total,
                t.comm.as_secs() / sp_total,
                t.total.as_secs() / sp_total
            );
        }
        println!();
    }
    println!("expected shape (paper): SP bars lowest cpu (fastest processor); SP AM net");
    println!("below SP MPL net everywhere, drastically so for the sm sort variants.");
    sp_bench::print_engine_summary(&tally);
}
