//! An idle port's empty polls run in its shard's driver: while no peer is
//! busy, `poll_until`, `drain` and `drain_quiet` hand their loop of empty
//! polls to `host::poll_packet_after`, and the node thread resumes only
//! when a packet arrives or the loop's bound is reached. Nothing a run
//! shows may move: a server that waits with them matches one that loops
//! over `Am::poll` by hand in `AmStats`, end time, events and trace, while
//! it is granted the baton a few times per idle stretch instead of once
//! per poll.

use sp_adapter::SpConfig;
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine, AmStats};
use sp_sim::Dur;
use sp_trace::Record;

/// Requests the client on the server's shard sends.
const NEAR: u32 = 24;
/// Requests the client on the other shard (when there are two) sends.
const FAR: u32 = 6;
const SERVER: usize = 1;

#[derive(Default)]
struct St {
    /// The server answers odd requests (its port is then busy until the
    /// client acks the answer).
    answer: bool,
    served: u32,
    replies: u32,
}

/// Server side: count the request, and answer it if asked to.
fn serve(env: &mut AmEnv<'_, St>, args: AmArgs) {
    env.state.served += 1;
    if env.state.answer && args.a[0] % 2 == 1 {
        env.reply_1(1, args.a[0]);
    }
}

fn answered(env: &mut AmEnv<'_, St>, _args: AmArgs) {
    env.state.replies += 1;
}

/// How the server waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// `poll_until`, `drain` and `drain_quiet`.
    Api,
    /// The same loops written out over `Am::poll`.
    Hand,
}

fn server(am: &mut Am<'_, St>, wait: Wait) {
    let want = NEAR + if am.nodes() > 2 { FAR } else { 0 };
    // Long enough to answer the clients' keep-alive probes while they
    // quiesce.
    let (linger, quiet) = (Dur::us(300.0), Dur::us(100.0));
    match wait {
        Wait::Api => {
            am.poll_until(|s| s.served >= want);
            am.drain(linger);
            am.drain_quiet(quiet);
        }
        Wait::Hand => {
            while am.state().served < want {
                am.poll();
            }
            let until = am.now() + linger;
            while am.now() < until {
                am.poll();
            }
            let mut deadline = am.now() + quiet;
            while am.now() < deadline {
                if am.poll() > 0 {
                    deadline = am.now() + quiet;
                }
            }
        }
    }
    // Passive side: the clients saw every answer, and nobody acks the
    // last ones after the clients return, so the server does not quiesce.
}

/// A client that keeps its shard busy: it computes in short steps between
/// requests, so its wakes and the server's interleave.
fn client(am: &mut Am<'_, St>, requests: u32, gap_steps: u32) {
    let answers = if am.state().answer { requests / 2 } else { 0 };
    let me = am.node() as u32;
    for r in 0..requests {
        for k in 0..gap_steps {
            am.work(Dur::ns(600 + ((me * 7 + r * 13 + k * 31) % 400) as u64));
        }
        am.request_1(SERVER, 0, r);
    }
    am.poll_until(|s| s.replies >= answers);
    am.quiesce();
}

struct Outcome {
    end_ns: u64,
    events: u64,
    grants: u64,
    stats: Vec<AmStats>,
    trace: Vec<Record>,
}

/// Run the server with two clients (one per shard at `shards = 2`), or
/// with one client on its shard when `nodes` is 2.
fn run(wait: Wait, answer: bool, nodes: usize, shards: usize) -> Outcome {
    let sp = SpConfig::thin(nodes).parallel(shards);
    let cfg = AmConfig {
        keepalive_polls: 64,
        ..AmConfig::default()
    };
    let mut m = AmMachine::new(sp, cfg, 5);
    let tracer = m.enable_tracing(1 << 16);
    m.set_event_budget(2_000_000);
    for node in 0..nodes {
        let st = St {
            answer,
            ..St::default()
        };
        m.spawn(format!("n{node}"), st, move |am: &mut Am<'_, St>| {
            am.register(serve);
            am.register(answered);
            match node {
                SERVER => server(am, wait),
                0 => client(am, NEAR, 40),
                _ => client(am, FAR, 200),
            }
        });
    }
    let r = m.run().expect("run completes");
    assert_eq!(tracer.dropped(), 0, "the ring must hold the whole run");
    Outcome {
        end_ns: r.end_time.as_ns(),
        events: r.events,
        grants: r.grants,
        stats: r.am_stats,
        trace: tracer.snapshot(),
    }
}

/// Records without their global sequence numbers, sorted (two shards
/// interleave their records by host timing).
fn unsequenced(trace: &[Record]) -> Vec<(u64, u64, u64, String, String)> {
    let mut v: Vec<_> = trace
        .iter()
        .map(|r| {
            let (track, kind) = (format!("{:?}", r.track), format!("{:?}", r.kind));
            (r.at, r.dur, r.arg, track, kind)
        })
        .collect();
    v.sort();
    v
}

#[test]
fn idle_server_loops_match_hand_loops_of_am_poll() {
    for (answer, nodes, shards) in [(true, 3, 1), (true, 3, 2), (false, 3, 1), (false, 2, 1)] {
        let api = run(Wait::Api, answer, nodes, shards);
        let hand = run(Wait::Hand, answer, nodes, shards);
        let at = format!("{nodes} nodes on {shards} shard(s), answer {answer}");
        assert_eq!(api.stats, hand.stats, "{at}: AmStats");
        assert_eq!(api.end_ns, hand.end_ns, "{at}: end time");
        assert_eq!(api.events, hand.events, "{at}: events");
        if shards == 1 {
            assert_eq!(api.trace, hand.trace, "{at}: trace snapshot");
        } else {
            assert_eq!(
                unsequenced(&api.trace),
                unsequenced(&hand.trace),
                "{at}: trace"
            );
        }
        let s = &api.stats[SERVER];
        assert!(
            s.polls > 20 * s.packets_received,
            "{at}: the server must mostly poll an empty FIFO ({} polls, {} packets)",
            s.polls,
            s.packets_received
        );
    }
}

/// A server that never answers keeps its port idle, so its waits cost a
/// handful of grants per idle stretch (a stretch ends at each packet it receives
/// and at each of its loops' ends), not one per empty poll: a change that
/// quietly stopped repeating empty polls in the driver would pass every
/// exactness test above but fail here.
#[test]
fn idle_server_is_granted_per_stretch_not_per_poll() {
    let api = run(Wait::Api, false, 2, 1);
    let hand = run(Wait::Hand, false, 2, 1);
    let s = &api.stats[SERVER];
    let stretches = s.packets_received + 3;
    let idle_polls = s.polls - s.packets_received;
    assert!(
        idle_polls > 20 * stretches,
        "too few empty polls to tell: {idle_polls} over {stretches} stretches"
    );
    // Each stretch ends with the server's packet handling, whose yields
    // interleave with the client's: a handful of grants.
    assert!(
        api.grants <= 8 * stretches,
        "{} grants for {stretches} idle stretches ({idle_polls} empty polls)",
        api.grants
    );
    // The hand loop resumes the server for every empty poll, from the
    // client's thread.
    assert!(
        hand.grants >= idle_polls,
        "hand loop: {} grants for {idle_polls} empty polls",
        hand.grants
    );
}
