//! Ablation study of the paper's design decisions (DESIGN.md §"design
//! choices"): what happens to bandwidth/latency when each protocol knob is
//! moved off the paper's value.

use sp_adapter::SpConfig;
use sp_am::AmConfig;
use sp_bench::ablation;

fn main() {
    let mut tally = sp_bench::Tally::default();
    println!("Ablations of SP AM / MPI-AM design choices\n");

    // ---- chunk size (paper: 36 packets = 8064 bytes) -------------------
    println!("chunk size (window = 2 chunks):");
    println!(
        "{:>10}  {:>12}  {:>16}",
        "packets", "bw (MB/s)", "64KB store (us)"
    );
    for chunk in [9u32, 18, 36, 72] {
        let cfg = AmConfig {
            chunk_packets: chunk,
            window_request: 2 * chunk,
            window_reply: 2 * chunk + 4,
            ..AmConfig::default()
        };
        let (bw, lat) = ablation::am_profile(SpConfig::thin(2), cfg, &mut tally);
        let mark = if chunk == 36 { "  <- paper" } else { "" };
        println!("{chunk:>10}  {bw:>12.2}  {lat:>16.0}{mark}");
    }
    println!("below ~18 packets the per-chunk ack round trip can no longer hide inside");
    println!("the chunk's injection time and the pipeline drains; past 36 the wire is");
    println!("already saturated, while a 72-packet chunk needs a window exceeding the");
    println!("receive FIFO's 64-entries-per-node share (riskier under load).\n");

    // ---- window size (paper: 72 request packets) -----------------------
    println!("request window (chunk = 36 packets):");
    println!(
        "{:>10}  {:>12}  {:>16}",
        "packets", "bw (MB/s)", "64KB store (us)"
    );
    for window in [36u32, 72, 144] {
        let cfg = AmConfig {
            window_request: window,
            window_reply: window + 4,
            ..AmConfig::default()
        };
        let (bw, lat) = ablation::am_profile(SpConfig::thin(2), cfg, &mut tally);
        let mark = if window == 72 { "  <- paper" } else { "" };
        println!("{window:>10}  {bw:>12.2}  {lat:>16.0}{mark}");
    }
    println!("one chunk of window serializes chunk-ack-chunk; beyond two chunks there");
    println!("is nothing left to overlap, so 72 is the sweet spot (§2.2).\n");

    // ---- doorbell batching (paper: batch the length-array stores) ------
    println!("doorbell batching (MicroChannel length stores per batch):");
    println!(
        "{:>10}  {:>12}  {:>16}",
        "batch", "bw (MB/s)", "64KB store (us)"
    );
    for batch in [1usize, 4, 8, 16] {
        let cfg = AmConfig {
            doorbell_batch: batch,
            ..AmConfig::default()
        };
        let (bw, lat) = ablation::am_profile(SpConfig::thin(2), cfg, &mut tally);
        let mark = if batch == 8 { "  <- default" } else { "" };
        println!("{batch:>10}  {bw:>12.2}  {lat:>16.0}{mark}");
    }
    println!("at this calibration the host path (5.9 us/packet) keeps ~0.6 us headroom");
    println!("under the 6.5 us wire rate, so batching is nearly neutral and mostly trades");
    println!("publish latency; it becomes decisive when the host is the bottleneck — the");
    println!("situation the paper's bulk path faced (§2.1).\n");

    // ---- explicit-ACK threshold (paper: quarter window) ----------------
    println!("explicit-ACK threshold (window / div), 200-request stream:");
    println!(
        "{:>10}  {:>14}  {:>14}",
        "div", "explicit acks", "done at (us)"
    );
    for div in [2u32, 4, 8, 16] {
        let (acks, t) = ablation::ack_threshold_profile(div, &mut tally);
        let mark = if div == 4 { "  <- paper" } else { "" };
        println!("{div:>10}  {acks:>14}  {t:>14.0}{mark}");
    }
    println!("larger thresholds (small div) send fewer explicit-ACK packets and finish");
    println!("sooner here; the paper's quarter-window choice spends a little bandwidth to");
    println!("keep the sender's window from stalling on bursts (§2.2).\n");

    // ---- MPI binned allocator (paper §4.2) ------------------------------
    println!("MPI buffered-protocol allocator (256-byte messages):");
    let ff = ablation::allocator_profile(false, &mut tally);
    let bins = ablation::allocator_profile(true, &mut tally);
    println!("{:>20}  {:>14}", "allocator", "us/message");
    println!("{:>20}  {:>14.2}", "first-fit", ff);
    println!(
        "{:>20}  {:>14.2}  <- paper's optimization",
        "8 x 1KB bins", bins
    );
    println!();

    // ---- tuned collectives (paper §4.4 future work) ---------------------
    println!("FT kernel (16 ranks): generic MPICH Alltoall vs SP-tuned schedule:");
    let (generic, tuned) = ablation::collective_profile(&mut tally);
    println!("{:>20}  {:>12}", "alltoall", "FT time (s)");
    println!("{:>20}  {:>12.3}", "generic (MPICH)", generic);
    println!(
        "{:>20}  {:>12.3}  <- the paper's proposed fix",
        "staggered", tuned
    );
    println!();

    // ---- polling vs interrupts (paper §1.1) ------------------------------
    println!("message reception mode (server side of a ping-pong):");
    let ((poll_rtt, poll_polls), (int_rtt, int_polls)) = ablation::reception_profile(&mut tally);
    println!("{:>12}  {:>10}  {:>12}", "mode", "RTT (us)", "server polls");
    println!(
        "{:>12}  {:>10.1}  {:>12}  <- the paper's choice",
        "polling", poll_rtt, poll_polls
    );
    println!("{:>12}  {:>10.1}  {:>12}", "interrupts", int_rtt, int_polls);
    println!("interrupt dispatch (~35 us on AIX) dwarfs the 1.3 us poll — the reason");
    println!("the paper analyzes polling mode only (§1.1).");
    sp_bench::print_engine_summary(&tally);
}
