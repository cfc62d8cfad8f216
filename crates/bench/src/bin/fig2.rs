//! Regenerates Figure 2 (the flow-control protocol diagram) from *measured*
//! protocol events: the chunk pipeline of a large store — chunk N+2 starts
//! only after the ACK for chunk N — printed as a timeline.
//!
//! The events come from the unified trace recorder ([`sp_trace`]): the AM
//! layer stamps `AmChunkStart`/`AmChunkEnd` instants as chunks enter the
//! send FIFO and `AmAck` instants as cumulative acknowledgements free
//! window slots, all on the sender's program track.

use sp_adapter::SpConfig;
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine, GlobalPtr};
use sp_trace::{Kind, Track};

#[derive(Default)]
struct St {
    done: bool,
}

fn mark(env: &mut AmEnv<'_, St>, _args: AmArgs) {
    env.state.done = true;
}

fn main() {
    let chunks = 6usize;
    let len = chunks * sp_am::CHUNK_BYTES;
    let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 7);
    let tracer = m.enable_tracing(1 << 16);
    m.mem().alloc(1, len as u32);
    m.spawn("sender", St::default(), move |am: &mut Am<'_, St>| {
        let data = vec![0xF1u8; len];
        am.register(mark);
        am.store(GlobalPtr { node: 1, addr: 0 }, &data, Some(0), &[]);
    });
    m.spawn("receiver", St::default(), |am: &mut Am<'_, St>| {
        am.register(mark);
        am.poll_until(|s| s.done);
    });
    let report = m.run().expect("store completes");

    let us = |ns: u64| ns as f64 / 1_000.0;
    println!("Figure 2: flow-control protocol — measured chunk pipeline");
    println!(
        "({chunks} chunks of {} bytes; sender-side events)\n",
        sp_am::CHUNK_BYTES
    );
    println!("{:>12}  event", "time (us)");
    println!("{}", "-".repeat(60));
    let mut chunk_start = vec![None; chunks + 1];
    let mut acked_through = Vec::new();
    for r in tracer
        .snapshot()
        .iter()
        .filter(|r| r.track == Track::program(0))
    {
        match r.kind {
            Kind::AmChunkStart => {
                chunk_start[r.arg as usize] = Some(r.at);
                println!(
                    "{:>12.1}  chunk {} -> first packet enters send FIFO",
                    us(r.at),
                    r.arg + 1
                );
            }
            Kind::AmChunkEnd => {
                println!(
                    "{:>12.1}  chunk {} fully handed to adapter",
                    us(r.at),
                    r.arg + 1
                );
            }
            // Request-channel acks only (the reply channel carries no data
            // in this experiment); the low word is the cumulative sequence.
            Kind::AmAck if r.arg >> 32 == 0 => {
                let cum = r.arg as u32;
                acked_through.push((cum, r.at));
                println!("{:>12.1}  <- ack: chunks 1..{} delivered", us(r.at), cum);
            }
            _ => {}
        }
    }
    // Verify the Figure 2 invariant: chunk N+2 starts only after the ack
    // for chunk N.
    #[allow(clippy::needless_range_loop)] // n is a chunk number, not an index
    for n in 2..chunks {
        let start = chunk_start[n].expect("chunk started");
        let ack_n_minus_2 = acked_through
            .iter()
            .find(|&&(cum, _)| cum as usize >= n - 1)
            .map(|&(_, at)| at)
            .expect("ack observed");
        assert!(
            start >= ack_n_minus_2,
            "chunk {} started at {} before the ack for chunk {} at {}",
            n + 1,
            start,
            n - 1,
            ack_n_minus_2
        );
    }
    println!("\ninvariant checked: chunk N+2 is transmitted only after the ack for chunk N");
    println!("(\"initially, two chunks are transmitted and the next chunk is sent only when");
    println!("the previous to last chunk is acknowledged\" — paper Figure 2).");
    sp_bench::print_engine_summary(&sp_bench::Tally::from(&report));
}
