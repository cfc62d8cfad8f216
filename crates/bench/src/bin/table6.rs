//! Regenerates Table 6: NAS kernels on 16 thin nodes, MPI-F vs MPI-AM,
//! then sweeps the problem classes (reduced / S / W) on MPI-AM to exercise
//! the engine on the scaled-up grids, reporting virtual time and per-run
//! engine throughput. `SP_BENCH_QUICK=1` keeps only the reduced class.

fn main() {
    let mut tally = sp_bench::Tally::default();
    let ranks = 16;
    // `table6 --parallel` runs only the parallel engine check, with the
    // per-shard profile and a Perfetto trace of the 4-shard run — the
    // shard-telemetry smoke path, skipping the full table regeneration.
    if std::env::args().any(|a| a == "--parallel") {
        parallel_engine_check(ranks, true, &mut tally);
        sp_bench::print_engine_summary(&tally);
        return;
    }
    let rows = sp_bench::nas_exp::table6(ranks, &mut tally);
    println!("Table 6: NAS kernel run times on {ranks} thin nodes (scaled class, seconds)\n");
    println!(
        "{:>10}  {:>10}  {:>10}  {:>8}  {:>10}",
        "Benchmark", "MPI-F", "MPI-AM", "ratio", "checksums"
    );
    println!("{}", "-".repeat(60));
    for r in rows {
        println!(
            "{:>10}  {:>9.3}s  {:>9.3}s  {:>8.2}  {:>10}",
            r.kernel.name(),
            r.mpif_s,
            r.mpiam_s,
            r.mpiam_s / r.mpif_s,
            if r.checksums_agree { "agree" } else { "DIFFER" }
        );
    }
    println!("\nexpected shape (paper): MPI-AM close to MPI-F on every kernel; FT pays for");
    println!("MPICH's generic Alltoall (convergent schedule); both implementations compute");
    println!("identical numerics.");

    let quick = sp_bench::quick();
    let points = sp_bench::nas_exp::class_sweep(ranks, quick, &mut tally);
    println!(
        "\nClass sweep: MPI-AM on {ranks} thin nodes{}\n",
        if quick { " (quick: reduced only)" } else { "" }
    );
    println!(
        "{:>10}  {:>8}  {:>11}  {:>12}  {:>12}",
        "Benchmark", "class", "virtual", "events", "events/sec"
    );
    println!("{}", "-".repeat(62));
    for p in points {
        println!(
            "{:>10}  {:>8}  {:>10.3}s  {:>12}  {:>12.0}",
            p.kernel.name(),
            p.class.name(),
            p.virtual_s,
            p.events,
            p.events_per_sec
        );
    }

    let wides = sp_bench::nas_exp::wide_sweep(ranks, quick, &mut tally);
    println!(
        "\nWide-node sweep: MPI-AM on {ranks} thin vs wide nodes{}\n",
        if quick { " (quick: reduced only)" } else { "" }
    );
    println!(
        "{:>10}  {:>8}  {:>6}  {:>11}  {:>8}  {:>8}",
        "Benchmark", "class", "nodes", "virtual", "comp", "comm"
    );
    println!("{}", "-".repeat(62));
    for p in &wides {
        println!(
            "{:>10}  {:>8}  {:>6}  {:>10.3}s  {:>7.1}%  {:>7.1}%",
            p.kernel.name(),
            p.class.name(),
            p.flavour,
            p.virtual_s,
            p.comp_frac * 100.0,
            p.comm_frac * 100.0,
        );
    }
    println!("\nexpected shape: the compute charge is the same Power2 rate on both flavours,");
    println!("so wide nodes (faster memcpy and PIO) shrink the comm share and total time.");

    parallel_engine_check(ranks, false, &mut tally);
    sp_bench::print_engine_summary(&tally);
}

/// Validate the sharded engine against the serial one on a real kernel:
/// MG (reduced class) on MPI-AM, serial vs 4 conservative-parallel shards,
/// with the per-shard breakdown from the run report. Any divergence in
/// virtual time, event count, or the observable-state hash is a bug.
/// With `export`, the 4-shard run also writes a Perfetto trace (per-shard
/// tracks with lookahead-window and barrier-wait spans) next to the cwd.
fn parallel_engine_check(ranks: usize, export: bool, tally: &mut sp_bench::Tally) {
    use sp_mpi::runner::MpiImpl;
    use sp_nas::{Kernel, NasClass};

    let mut run = |shards: usize| {
        let (r, report) = sp_nas::run_kernel_on(
            Kernel::Mg,
            MpiImpl::AmOptimized,
            sp_adapter::SpConfig::thin(ranks).parallel(shards),
            5,
            NasClass::Reduced,
        );
        tally.add(&report);
        (r, report)
    };
    let (rs, serial) = run(1);
    if export {
        std::env::set_var("SP_TRACE_OUT", "table6-mg-4shard.trace.json");
    }
    let (rp, parallel) = run(4);
    if export {
        std::env::remove_var("SP_TRACE_OUT");
    }
    println!("\nParallel engine check: MG reduced, serial vs 4 shards\n");
    println!(
        "  serial:   {:>9.3}s  {:>9} events  hash {:016x}",
        rs.time.as_secs(),
        serial.events,
        serial.report_hash
    );
    println!(
        "  parallel: {:>9.3}s  {:>9} events  hash {:016x}  ({} windows, {} sync events)",
        rp.time.as_secs(),
        parallel.events,
        parallel.report_hash,
        parallel.windows,
        parallel.sync_events
    );
    for s in &parallel.shards {
        println!(
            "    shard {}: {} nodes, {} events, {} sync",
            s.shard, s.nodes, s.events, s.sync_events
        );
    }
    if let Some(p) = &parallel.profile {
        println!(
            "\n  shard profile ({} windows, {} ns of windowed virtual time):",
            p.windows, p.window_ns
        );
        for s in 0..p.num_shards() {
            println!(
                "    shard {s}: {:>5.1}% window utilization, busy {:>9} ns, active in {}/{} windows",
                p.window_utilization(s) * 100.0,
                p.busy_ns[s],
                p.active_windows[s],
                p.windows,
            );
        }
        println!("  {}", p.summary());
    }
    assert_eq!(
        (serial.end_ns, serial.events, serial.report_hash),
        (parallel.end_ns, parallel.events, parallel.report_hash),
        "parallel MG run diverged from serial"
    );
    println!("  verdict: identical end time, event count, and report hash");
}
