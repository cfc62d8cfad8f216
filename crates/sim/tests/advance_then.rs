//! `NodeCtx::advance_then(d, step, a, until, span)` is exactly a loop of
//! `advance(d)` followed by `world_then_advance(|w| ((), step(w, a,
//! now).0))`, with `span` recorded over each round's advance as the node
//! resumes, that stops at the first step that finds something or before
//! the first round that would start at or after `until`: same end time,
//! event count, world state, trace and budget trip, at any shard count,
//! whether the driver repeats the idle rounds or the node does. The toy
//! world below polls per-node mailboxes that other nodes post into, on the
//! same shard and across shards, while same-shard neighbours unpark each
//! other so that latched signals meet sleeping and running nodes.

mod common;

use common::within_deadline;
use sp_sim::{Dur, EventCtx, NodeCtx, NodeId, ShardMsg, Shardable, Sim, SimError, Tie, Time};
use sp_trace::{Kind, Record, Tracer, Track};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NODES: usize = 8;
const ROUNDS: u64 = 40;
/// Mailbox post latency: also the cross-shard lookahead.
const LAT: u64 = 700;
/// Log entry of a poll that found its mailbox empty.
const EMPTY: u64 = u64::MAX;
/// What a node records over each poll round's advance (any kind will do).
const SPAN: Kind = Kind::AmPoll;

struct Toy {
    boxes: Vec<VecDeque<u64>>,
    /// Per node: `(poll instant, value or EMPTY)`, in poll order.
    log: Vec<Vec<(u64, u64)>>,
    /// Per node: the value its last poll took, until the node reads it.
    polled: Vec<Option<u64>>,
    shard: Option<(usize, Arc<Vec<usize>>)>,
    outbox: Vec<ShardMsg<(u64, u64)>>,
    /// The run's recorder, for a node that records its own rounds.
    tracer: Option<Tracer>,
}

impl Toy {
    fn new(tracer: Option<Tracer>) -> Toy {
        Toy {
            boxes: vec![VecDeque::new(); NODES],
            log: vec![Vec::new(); NODES],
            polled: vec![None; NODES],
            shard: None,
            outbox: Vec::new(),
            tracer,
        }
    }

    /// Node `me`'s mailbox check at `t0`: a hit costs more than a miss,
    /// and an even node's miss costs nothing.
    fn check(w: &mut Toy, me: u64, t0: Time) -> (Dur, bool) {
        let me = me as usize;
        let got = w.boxes[me].pop_front();
        w.log[me].push((t0.as_ns(), got.unwrap_or(EMPTY)));
        w.polled[me] = got;
        match got {
            Some(v) => (Dur::ns(150 + v % 97), false),
            None => (Dur::ns(60 * (me as u64 % 2)), true),
        }
    }

    /// An idle check that fails the run on node 0's `fatal`-th check.
    fn boom(w: &mut Toy, fatal: u64, t0: Time) -> (Dur, bool) {
        w.log[0].push((t0.as_ns(), EMPTY));
        if w.log[0].len() as u64 == fatal {
            panic!("step boom");
        }
        (Dur::ns(10), true)
    }

    /// Post `value` to node `dst`'s mailbox, landing `LAT` from now (see
    /// the mailbox world in the engine's parallel tests).
    fn post(e: &mut EventCtx<'_, Toy>, dst: u64, value: u64) {
        let ts = e.now() + Dur::ns(LAT);
        match e.world().shard.clone() {
            None => e.schedule_hot_at(ts, Toy::land, dst, value),
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
                ..Toy::new(self.tracer.clone())
            })
            .collect()
    }
    fn merge(parts: Vec<Toy>) -> Toy {
        let mut out = Toy::new(None);
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

/// How a node polls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// A loop of `advance` and `world_then_advance`, recording its own
    /// rounds through the world.
    Plain,
    /// A loop of one-round `advance_then` calls.
    Fused,
    /// One bounded `advance_then` call.
    Looped,
}

/// Poll node `me`'s mailbox in rounds of `cpu` then a check, until a check
/// finds a post or the next round would start at or after `until`.
/// Returns the post, if any, and the rounds run.
fn poll(ctx: &mut NodeCtx<Toy>, mode: Mode, cpu: Dur, until: Time) -> (Option<u64>, u64) {
    let me = ctx.id().0;
    if mode == Mode::Looped {
        let rounds = ctx.advance_then(cpu, Toy::check, me as u64, until, Some(SPAN));
        return (ctx.world(|w| w.polled[me].take()), rounds);
    }
    let mut rounds = 0;
    loop {
        rounds += 1;
        let got = if mode == Mode::Fused {
            let one = ctx.advance_then(cpu, Toy::check, me as u64, Time::ZERO, Some(SPAN));
            assert_eq!(one, 1, "a bound at zero runs one round");
            ctx.world(|w| w.polled[me].take())
        } else {
            let start = ctx.now();
            ctx.advance(cpu);
            let at = ctx.now();
            ctx.world_then_advance(|w| ((), Toy::check(w, me as u64, at).0));
            ctx.world(|w| {
                if let Some(t) = &w.tracer {
                    let end = (start + cpu).as_ns();
                    t.span(start.as_ns(), end, Track::program(me), SPAN, 0);
                }
                w.polled[me].take()
            })
        };
        if got.is_some() || ctx.now() >= until {
            return (got, rounds);
        }
    }
}

/// The node that node `src` posts to in round `k`.
fn dst(src: usize, k: u64) -> usize {
    (src + 1 + k as usize % 5) % NODES
}

fn program(ctx: &mut NodeCtx<Toy>, mode: Mode) {
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
        let mut got = poll(ctx, mode, cpu, Time::ZERO).0;
        while got.is_some() {
            left -= 1;
            ctx.advance(Dur::ns(40));
            got = poll(ctx, mode, Dur::ns(25), Time::ZERO).0;
        }
        if k % 7 == 6 {
            ctx.advance(Dur::ns(300));
        }
        if k % 5 == 2 {
            // Wait a while for a post.
            let until = ctx.now() + Dur::ns(1_500 + 13 * me as u64);
            if poll(ctx, mode, Dur::ns(25 + k), until).0.is_some() {
                left -= 1;
            }
        }
    }
    // Poll until every post addressed here has arrived.
    while left > 0 {
        if poll(ctx, mode, Dur::ns(25), Time::MAX).0.is_some() {
            left -= 1;
        }
    }
}

type Outcome = Result<(Time, u64, Vec<Vec<(u64, u64)>>), SimError>;
/// Trace records without their sequence numbers (see [`records`]).
type Unsequenced = Vec<(u64, u64, u64, String, String)>;

fn run(mode: Mode, shards: usize, budget: Option<u64>, tracer: Option<&Tracer>) -> Outcome {
    let mut sim = Sim::new(Toy::new(tracer.cloned()), 11);
    // A run that stops delivering posts fails instead of polling forever.
    sim.set_event_budget(budget.unwrap_or(1_000_000));
    if let Some(t) = tracer {
        sim.set_tracer(t.clone());
    }
    for i in 0..NODES {
        sim.spawn(format!("toy{i}"), move |ctx| program(ctx, mode));
    }
    let r = if shards == 1 {
        sim.run()
    } else {
        sim.run_parallel(shards)
    }?;
    Ok((r.end_time, r.events, r.world.log))
}

/// [`run`] on a thread of its own, failing by name if it hangs.
fn run_within(mode: Mode, shards: usize, budget: Option<u64>, tracer: Option<&Tracer>) -> Outcome {
    let tracer = tracer.cloned();
    let what = format!("{mode:?} run on {shards} shard(s)");
    within_deadline(&what, move || run(mode, shards, budget, tracer.as_ref()))
}

/// A trace's records without their global sequence numbers (which order
/// records of concurrently running shards by host timing), sorted.
fn records(t: &Tracer) -> Unsequenced {
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

/// A traced run's outcome and its records: the whole snapshot on one
/// shard, where the global sequence is deterministic too, else
/// [`records`].
fn traced(mode: Mode, shards: usize) -> (Outcome, Vec<Record>, Unsequenced) {
    let t = Tracer::new(NODES, 1 << 15);
    let out = run_within(mode, shards, None, Some(&t));
    assert_eq!(t.dropped(), 0, "the ring must hold the whole run");
    let exact = if shards == 1 {
        t.snapshot()
    } else {
        Vec::new()
    };
    (out, exact, records(&t))
}

#[test]
fn advance_then_matches_advance_plus_world_then_advance() {
    for shards in [1, 2, 4] {
        let plain = run_within(Mode::Plain, shards, None, None).unwrap();
        let fused = run_within(Mode::Fused, shards, None, None).unwrap();
        assert_eq!(fused, plain, "shards={shards}");
        let hits = plain.2.iter().flatten().filter(|e| e.1 != EMPTY).count();
        assert_eq!(hits as u64, NODES as u64 * ROUNDS, "every post is polled");
    }
}

#[test]
fn advance_then_matches_with_a_tracer() {
    for shards in [1, 2, 4] {
        let plain = traced(Mode::Plain, shards);
        let fused = traced(Mode::Fused, shards);
        assert_eq!(fused.0, plain.0, "shards={shards}");
        assert_eq!(
            run_within(Mode::Plain, shards, None, None),
            plain.0,
            "tracing perturbs"
        );
        assert_eq!(fused.1, plain.1, "shards={shards}: snapshot");
        assert_eq!(fused.2, plain.2, "shards={shards}");
    }
}

/// The driver repeating idle rounds changes nothing a run shows: end time,
/// events, world log, and trace (the whole snapshot on one shard).
#[test]
fn bounded_loop_matches_single_rounds() {
    for shards in [1, 2, 4] {
        let fused = traced(Mode::Fused, shards);
        let looped = traced(Mode::Looped, shards);
        assert_eq!(looped.0, fused.0, "shards={shards}");
        assert_eq!(looped.1, fused.1, "shards={shards}: snapshot");
        assert_eq!(looped.2, fused.2, "shards={shards}");
        let empty = fused
            .0
            .unwrap()
            .2
            .iter()
            .flatten()
            .filter(|e| e.1 == EMPTY)
            .count();
        assert!(empty > 1_000, "too few idle rounds to test: {empty}");
    }
}

#[test]
fn advance_then_trips_the_budget_at_the_same_instant() {
    for shards in [1, 2, 4] {
        let (_, events, _) = run_within(Mode::Plain, shards, None, None).unwrap();
        // Half the run trips inside the program's rounds; nine tenths, in
        // its final unbounded loops.
        for budget in [events / 2, events * 9 / 10] {
            let trip = |mode| match run_within(mode, shards, Some(budget), None) {
                Err(SimError::EventBudgetExhausted { at, budget }) => (at, budget),
                other => panic!("shards={shards}: expected a budget trip, got {other:?}"),
            };
            let plain = trip(Mode::Plain);
            assert_eq!(plain.1, budget);
            assert_eq!(trip(Mode::Fused), plain, "shards={shards}");
            assert_eq!(trip(Mode::Looped), plain, "shards={shards}");
        }
    }
}

/// Rounds of 100 ns plus a 60 ns check (node 1's miss) start at 0, 160,
/// 320, …: a bound stops the loop before the first round that would start
/// at or after it, and a round already under way runs to its end.
#[test]
fn no_round_starts_at_or_after_the_bound() {
    for (until, rounds) in [(0, 1), (1, 1), (160, 1), (161, 2), (960, 6), (961, 7)] {
        for mode in [Mode::Fused, Mode::Looped] {
            let got = within_deadline("bounded idle loop", move || {
                let ran = Arc::new(AtomicU64::new(0));
                let mut sim = Sim::new(Toy::new(None), 0);
                sim.spawn("idle", |ctx| ctx.advance(Dur::ZERO));
                let r = ran.clone();
                sim.spawn("poller", move |ctx| {
                    let (got, n) = poll(ctx, mode, Dur::ns(100), Time(until));
                    assert_eq!(got, None);
                    r.store(n, Ordering::Relaxed);
                });
                let report = sim.run().unwrap();
                let starts: Vec<u64> = report.world.log[1].iter().map(|e| e.0 - 100).collect();
                (starts, ran.load(Ordering::Relaxed), report.end_time)
            });
            let want: Vec<u64> = (0..rounds).map(|k| 160 * k).collect();
            assert_eq!(got.0, want, "until={until} {mode:?}");
            assert_eq!(got.1, rounds, "until={until} {mode:?}: rounds returned");
            assert_eq!(got.2, Time(160 * rounds), "until={until} {mode:?}");
        }
    }
}

/// A panicking step fails the run as the panic of the node that issued it,
/// even when another node's thread is driving the shard when it runs, and
/// when it panics in a round the driver repeated.
#[test]
fn panicking_step_names_the_issuing_node() {
    for (fatal, until) in [(1, Time::ZERO), (4, Time::MAX)] {
        for shards in [1, 2] {
            let out = within_deadline("panicking step", move || {
                let mut sim = Sim::new(Toy::new(None), 0);
                for i in 0..4 {
                    sim.spawn(format!("toy{i}"), move |ctx| {
                        if i == 0 {
                            // The step parks with the wake, which pops while
                            // another node, asleep across it, drives the
                            // shard.
                            ctx.advance_then(Dur::ns(100), Toy::boom, fatal, until, None);
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
            });
            match out {
                Err(SimError::NodePanicked { node, message }) => {
                    assert_eq!(node, "toy0", "shards={shards} fatal={fatal}");
                    assert!(message.contains("step boom"), "{message}");
                }
                other => panic!("shards={shards}: expected a node panic, got {other:?}"),
            }
        }
    }
}
