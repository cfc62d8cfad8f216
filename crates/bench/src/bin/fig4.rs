//! Regenerates Figure 4: Split-C benchmark times normalized to the SP AM
//! version, split into cpu and net components.

use sp_splitc::Platform;

fn main() {
    let mut tally = sp_bench::Tally::default();
    let quick = sp_bench::quick();
    let data = sp_bench::splitc_exp::table5(quick, &mut tally);
    println!("Figure 4: Split-C results normalized to SP AM (cpu / net split)\n");
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
