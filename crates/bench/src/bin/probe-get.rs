//! Diagnostic: blocking 2 KB remote-read latency through the Split-C layer
//! on SP AM vs SP MPL (investigating the mm 16x16 Table 5 relation).

use sp_splitc::{run_spmd_report, Gas, GlobalPtr, Platform};

fn main() {
    let mut tally = sp_bench::Tally::default();
    for platform in [Platform::SpAm, Platform::SpMpl] {
        let (out, report) = run_spmd_report(platform, 2, 3, |g: &mut dyn Gas| {
            let buf = g.alloc(2048);
            g.mem().write(buf.addr, &vec![7u8; 2048]);
            g.barrier();
            if g.node() == 0 {
                let t0 = g.now();
                let iters = 50;
                for _ in 0..iters {
                    g.read_into(
                        GlobalPtr {
                            node: 1,
                            addr: buf.addr,
                        },
                        buf.addr,
                        2048,
                    );
                }
                let per = (g.now() - t0).as_us() / iters as f64;
                g.barrier();
                per
            } else {
                g.barrier();
                0.0
            }
        });
        tally.add(&report);
        println!(
            "{:>12}: {:.1} us per blocking 2KB read",
            platform.name(),
            out[0]
        );
    }
    sp_bench::print_engine_summary(&tally);
}
