//! `NodeCtx::advance_then(d, step, a, b)` is exactly `advance(d)` followed
//! by `world_then_advance(|w| ((), step(w, a, b)))`: same end time, event
//! count, world state, trace and budget trip, at any shard count. The toy
//! world below polls per-node mailboxes that other nodes post into, on the
//! same shard and across shards, while same-shard neighbours unpark each
//! other so that latched signals meet sleeping and running nodes.

use sp_sim::{Dur, EventCtx, NodeCtx, NodeId, ShardMsg, Shardable, Sim, SimError, Tie, Time};
use sp_trace::Tracer;
use std::collections::VecDeque;
use std::sync::Arc;

const NODES: usize = 8;
const ROUNDS: u64 = 40;
/// Mailbox post latency: also the cross-shard lookahead.
const LAT: u64 = 700;
/// Log entry of a poll that found its mailbox empty.
const EMPTY: u64 = u64::MAX;

struct Toy {
    boxes: Vec<VecDeque<u64>>,
    /// Per node: `(poll instant, value or EMPTY)`, in poll order.
    log: Vec<Vec<(u64, u64)>>,
    /// Per node: the value its last poll took, until the node reads it.
    polled: Vec<Option<u64>>,
    shard: Option<(usize, Arc<Vec<usize>>)>,
    outbox: Vec<ShardMsg<(u64, u64)>>,
}

impl Toy {
    fn new() -> Toy {
        Toy {
            boxes: vec![VecDeque::new(); NODES],
            log: vec![Vec::new(); NODES],
            polled: vec![None; NODES],
            shard: None,
            outbox: Vec::new(),
        }
    }

    /// Node `me`'s mailbox check at `t0_ns`: a hit costs more than a miss,
    /// and an even node's miss costs nothing.
    fn check(w: &mut Toy, me: u64, t0_ns: u64) -> Dur {
        let me = me as usize;
        let got = w.boxes[me].pop_front();
        w.log[me].push((t0_ns, got.unwrap_or(EMPTY)));
        w.polled[me] = got;
        match got {
            Some(v) => Dur::ns(150 + v % 97),
            None => Dur::ns(60 * (me as u64 % 2)),
        }
    }

    /// A check that fails the run.
    fn boom(_w: &mut Toy, _me: u64, _t0_ns: u64) -> Dur {
        panic!("step boom");
    }

    /// Post `value` to node `dst`'s mailbox, landing `LAT` from now (see
    /// the mailbox world in the engine's parallel tests).
    fn post(e: &mut EventCtx<'_, Toy>, dst: u64, value: u64) {
        let ts = e.now() + Dur::ns(LAT);
        match e.world().shard.clone() {
            None => e.schedule_hot_at(ts, Toy::land, dst, value),
            Some((sid, owner)) if owner[dst as usize] == sid => {
                e.schedule_sync_hot_at(ts, Toy::relay, dst, value)
            }
            Some((_, owner)) => {
                let tie = Tie {
                    gen: e.now(),
                    rank: dst as u32,
                };
                e.world().outbox.push(ShardMsg {
                    ts,
                    tie,
                    dst_shard: owner[dst as usize],
                    msg: (dst, value),
                });
            }
        }
    }

    fn relay(e: &mut EventCtx<'_, Toy>, dst: u64, value: u64) {
        e.schedule_hot_at(e.now(), Toy::land, dst, value);
    }

    fn land(e: &mut EventCtx<'_, Toy>, dst: u64, value: u64) {
        e.world().boxes[dst as usize].push_back(value);
    }
}

impl Shardable for Toy {
    type Msg = (u64, u64);
    fn lookahead(&self) -> Dur {
        Dur::ns(LAT)
    }
    fn split(self, num_shards: usize, owner: &[usize]) -> Vec<Toy> {
        let owner = Arc::new(owner.to_vec());
        (0..num_shards)
            .map(|sid| Toy {
                shard: Some((sid, owner.clone())),
                ..Toy::new()
            })
            .collect()
    }
    fn merge(parts: Vec<Toy>) -> Toy {
        let mut out = Toy::new();
        for p in parts {
            for (i, log) in p.log.into_iter().enumerate() {
                out.log[i].extend(log);
            }
        }
        out
    }
    fn apply_msg(e: &mut EventCtx<'_, Toy>, (dst, value): (u64, u64)) {
        Toy::relay(e, dst, value);
    }
    fn take_messages(&mut self, out: &mut Vec<ShardMsg<(u64, u64)>>) {
        out.append(&mut self.outbox);
    }
}

/// One poll of node `me`: charge `cpu`, then check the mailbox.
fn poll(ctx: &mut NodeCtx<Toy>, fused: bool, cpu: Dur) -> Option<u64> {
    let me = ctx.id().0;
    let t0 = (ctx.now() + cpu).as_ns();
    if fused {
        ctx.advance_then(cpu, Toy::check, me as u64, t0);
    } else {
        ctx.advance(cpu);
        ctx.world_then_advance(|w| ((), Toy::check(w, me as u64, t0)));
    }
    ctx.world(|w| w.polled[me].take())
}

/// The node that node `src` posts to in round `k`.
fn dst(src: usize, k: u64) -> usize {
    (src + 1 + k as usize % 5) % NODES
}

fn program(ctx: &mut NodeCtx<Toy>, fused: bool) {
    let me = ctx.id().0;
    // Same-shard neighbour at every shard count used here (blocks of two).
    let buddy = NodeId(me ^ 1);
    let mut left = (0..NODES)
        .flat_map(|src| (0..ROUNDS).map(move |k| dst(src, k)))
        .filter(|&d| d == me)
        .count();
    for k in 0..ROUNDS {
        let value = me as u64 * 1000 + k;
        ctx.schedule_hot(Dur::ZERO, Toy::post, dst(me, k) as u64, value);
        if k % 3 == 0 {
            // Latches a signal on a running or sleeping buddy.
            ctx.unpark(buddy);
        }
        let cpu = Dur::ns(90 + (me as u64 * 37 + k * 11) % 200);
        let mut got = poll(ctx, fused, cpu);
        while got.is_some() {
            left -= 1;
            ctx.advance(Dur::ns(40));
            got = poll(ctx, fused, Dur::ns(25));
        }
        if k % 7 == 6 {
            ctx.advance(Dur::ns(300));
        }
    }
    // Poll until every post addressed here has arrived.
    while left > 0 {
        if poll(ctx, fused, Dur::ns(25)).is_some() {
            left -= 1;
        }
    }
}

type Outcome = Result<(Time, u64, Vec<Vec<(u64, u64)>>), SimError>;

fn run(fused: bool, shards: usize, budget: Option<u64>, tracer: Option<&Tracer>) -> Outcome {
    let mut sim = Sim::new(Toy::new(), 11);
    // A run that stops delivering posts fails instead of polling forever.
    sim.set_event_budget(budget.unwrap_or(1_000_000));
    if let Some(t) = tracer {
        sim.set_tracer(t.clone());
    }
    for i in 0..NODES {
        sim.spawn(format!("toy{i}"), move |ctx| program(ctx, fused));
    }
    let r = if shards == 1 {
        sim.run()
    } else {
        sim.run_parallel(shards)
    }?;
    Ok((r.end_time, r.events, r.world.log))
}

/// A trace's records without their global sequence numbers (which order
/// records of concurrently running shards by host timing), sorted.
fn records(t: &Tracer) -> Vec<(u64, u64, u64, String, String)> {
    let mut v: Vec<_> = t
        .snapshot()
        .into_iter()
        .map(|r| {
            (
                r.at,
                r.dur,
                r.arg,
                format!("{:?}", r.track),
                format!("{:?}", r.kind),
            )
        })
        .collect();
    v.sort();
    v
}

#[test]
fn advance_then_matches_advance_plus_world_then_advance() {
    for shards in [1, 2, 4] {
        let plain = run(false, shards, None, None).unwrap();
        let fused = run(true, shards, None, None).unwrap();
        assert_eq!(fused, plain, "shards={shards}");
        let hits = plain.2.iter().flatten().filter(|e| e.1 != EMPTY).count();
        assert_eq!(hits as u64, NODES as u64 * ROUNDS, "every post is polled");
    }
}

#[test]
fn advance_then_matches_with_a_tracer() {
    for shards in [1, 2, 4] {
        let (tp, tf) = (Tracer::new(NODES, 1 << 14), Tracer::new(NODES, 1 << 14));
        let plain = run(false, shards, None, Some(&tp)).unwrap();
        let fused = run(true, shards, None, Some(&tf)).unwrap();
        assert_eq!(fused, plain, "shards={shards}");
        assert_eq!(
            run(false, shards, None, None).unwrap(),
            plain,
            "tracing perturbs"
        );
        assert_eq!(tp.dropped(), 0, "the ring must hold the whole run");
        assert_eq!(records(&tf), records(&tp), "shards={shards}");
    }
}

#[test]
fn advance_then_trips_the_budget_at_the_same_instant() {
    for shards in [1, 2, 4] {
        let (_, events, _) = run(false, shards, None, None).unwrap();
        let budget = events / 2;
        let trip = |fused| match run(fused, shards, Some(budget), None) {
            Err(SimError::EventBudgetExhausted { at, budget }) => (at, budget),
            other => panic!("shards={shards}: expected a budget trip, got {other:?}"),
        };
        let plain = trip(false);
        assert_eq!(plain.1, budget);
        assert_eq!(trip(true), plain, "shards={shards}");
    }
}

/// A panicking step fails the run as the panic of the node that issued it,
/// even when another node's thread is driving the shard when it runs.
#[test]
fn panicking_step_names_the_issuing_node() {
    let outcomes: Vec<_> = [1, 2]
        .into_iter()
        .map(|shards| {
            let mut sim = Sim::new(Toy::new(), 0);
            for i in 0..4 {
                sim.spawn(format!("toy{i}"), move |ctx| {
                    if i == 0 {
                        // The step parks with the wake, which pops while
                        // another node, asleep across it, drives the shard.
                        ctx.advance_then(Dur::ns(100), Toy::boom, 0, 0);
                        unreachable!("the step panicked");
                    }
                    ctx.advance(Dur::ns(200));
                });
            }
            let out = if shards == 1 {
                sim.run()
            } else {
                sim.run_parallel(shards)
            };
            out.map(|r| r.end_time)
        })
        .collect();
    for (shards, out) in [1, 2].into_iter().zip(outcomes) {
        match out {
            Err(SimError::NodePanicked { node, message }) => {
                assert_eq!(node, "toy0", "shards={shards}");
                assert!(message.contains("step boom"), "{message}");
            }
            other => panic!("shards={shards}: expected a node panic, got {other:?}"),
        }
    }
}
