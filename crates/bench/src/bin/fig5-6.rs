//! Regenerates Figures 5 and 6 (the rendezvous and buffered protocol
//! diagrams) from *traced* protocol events: three MPI sends — buffered,
//! rendezvous with the receive pre-posted, rendezvous with the receive
//! posted late — printed as two-node timelines.

use parking_lot::Mutex;
use sp_adapter::SpConfig;
use sp_am::{Am, AmConfig, AmMachine};
use sp_mpi::{Mpi, MpiAm, MpiAmConfig, MpiSt};
use std::sync::Arc;

type Log = Vec<(sp_sim::Time, usize, &'static str)>;

fn run_scenario(
    tally: &mut sp_bench::Tally,
    title: &str,
    sender: impl Fn(&mut MpiAm<'_, '_>) + Send + Sync + 'static,
    receiver: impl Fn(&mut MpiAm<'_, '_>) + Send + Sync + 'static,
) {
    let cfg = MpiAmConfig {
        trace_protocol: true,
        ..MpiAmConfig::unoptimized()
    };
    let sp = SpConfig::thin(2);
    let cost = sp.cost.clone();
    let mut m = AmMachine::new(sp, AmConfig::default(), 11);
    let log: Arc<Mutex<Log>> = Arc::new(Mutex::new(Vec::new()));
    let sender = Arc::new(sender);
    let receiver = Arc::new(receiver);
    for rank in 0..2usize {
        let cfg = cfg.clone();
        let st = MpiSt::new(&cfg, rank, 2, &cost);
        let log = log.clone();
        let sender = sender.clone();
        let receiver = receiver.clone();
        m.spawn(format!("r{rank}"), st, move |am: &mut Am<'_, MpiSt>| {
            let mut mpi = MpiAm::new(am, cfg);
            if rank == 0 {
                sender(&mut mpi);
            } else {
                receiver(&mut mpi);
            }
            mpi.barrier();
            log.lock().extend_from_slice(mpi.protocol_log());
        });
    }
    tally.add(&m.run().expect("scenario completes"));
    let mut log = log.lock().clone();
    log.sort_by_key(|&(t, _, _)| t);
    println!("--- {title} ---");
    println!("{:>12}  {:>6}  event", "time (us)", "node");
    for (t, node, what) in log {
        println!("{:>12.1}  {:>6}  {what}", t.as_us(), node);
    }
    println!();
}

fn main() {
    let mut tally = sp_bench::Tally::default();
    println!("Figures 5/6: buffered and rendezvous protocols over AM (traced)\n");

    run_scenario(
        &mut tally,
        "Figure 6 (left): buffered protocol — small message",
        |mpi| {
            mpi.send(&[0u8; 600], 1, 1);
        },
        |mpi| {
            let _ = mpi.recv(Some(0), Some(1));
        },
    );

    run_scenario(
        &mut tally,
        "Figure 5 (left): rendezvous — receive posted before the send",
        |mpi| {
            // Give the receiver time to post.
            mpi.work(sp_sim::Dur::us(200.0));
            mpi.send(&vec![0u8; 40_000], 1, 1);
        },
        |mpi| {
            let r = mpi.irecv(Some(0), Some(1));
            mpi.wait(r);
        },
    );

    run_scenario(
        &mut tally,
        "Figure 5 (right): rendezvous — receive posted after the send",
        |mpi| {
            let r = mpi.isend(&vec![0u8; 40_000], 1, 1);
            mpi.wait(r);
        },
        |mpi| {
            // Post late: keep polling (so the request is *handled* and
            // recorded as unexpected) before the receive appears — the
            // grant then travels as a fresh request.
            let t0 = mpi.now();
            while (mpi.now() - t0) < sp_sim::Dur::ms(1.0) {
                mpi.progress();
            }
            let r = mpi.irecv(Some(0), Some(1));
            mpi.wait(r);
        },
    );

    println!("Shapes match the paper's diagrams: the buffered path is one store plus a");
    println!("free reply; pre-posted rendezvous grants from the request handler's reply;");
    println!("late-posted rendezvous records the request and grants when the receive is");
    println!("posted — and the data store always launches from a poll, never from the");
    println!("grant handler (the ADI restriction the paper describes).");
    sp_bench::print_engine_summary(&tally);
}
