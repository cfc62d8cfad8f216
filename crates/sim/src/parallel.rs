//! The drive loop: [`Sim::run`] and [`Sim::run_parallel`].
//!
//! ## Who drives a shard?
//!
//! There is no engine thread. A run partitions its nodes into *shards*,
//! each with a private event heap, local clock and world slice; [`Sim::run`]
//! is the one-shard case. The node threads of a shard pass a *driving* role
//! cooperatively: whenever a node yields (sleep/park), it becomes the
//! shard's driver, popping events and granting batons until either its own
//! wake surfaces — it resumes with zero context switches
//! ([`Drive::SelfRun`]) — or it releases its own baton, grants another
//! node's and waits for its own next grant (one switch). The release waits
//! for the handoff, so a self-resume takes no baton lock. A wake may carry
//! a world step the node parked with it ([`NodeCtx::advance_then`]): the
//! driver runs the step and charges its cost before it grants the baton,
//! so a node whose step puts it back to sleep is not resumed at all; and
//! when the step found nothing and the node's bound allows another round,
//! the driver starts that round itself, exactly as the node would have
//! (an idle poll loop costs no handoff per poll). This keeps the
//! single-runner-per-shard discipline that makes world access
//! data-race-free. A node whose program returns keeps driving until it
//! hands the role on. A one-shard run has an unbounded horizon, so it ends
//! when its queue drains; the calling thread only drives up to the first
//! wake, then waits.
//!
//! ## Sharded runs
//!
//! [`Sim::run_parallel`] partitions nodes into `num_shards` shards by a
//! block map (`owner[i] = i * num_shards / num_nodes`) and splits the world
//! ([`Shardable::split`]). Shards advance conservatively in *lookahead
//! windows*: with `M` the global minimum pending-event time and `L` the
//! world's lookahead ([`Shardable::lookahead`] — for the SP world, the
//! minimum latency any cross-node interaction must incur), every shard may
//! freely execute events, node wakes included, strictly below the horizon
//! `M + L`. Anything a shard does inside the window can only affect
//! other shards at or after the horizon, so no shard can receive a message
//! "from the past" — the classic null-message/conservative PDES argument,
//! with the per-window barrier standing in for per-link null messages.
//!
//! Shards interact only through timestamped [`ShardMsg`]s: generated
//! inside a window, collected at the next barrier
//! ([`Shardable::take_messages`]), and applied on the destination shard as
//! `sync` events ([`Shardable::apply_msg`]) ordered by `(timestamp, tie,
//! source shard)` — the world-provided [`Tie`] stamp reproduces the
//! one-shard run's same-instant event order across shards. A message
//! carries the lookahead; an unpark takes effect at once and carries none,
//! so a node or event that unparks a node of another shard panics and
//! fails the run ([`NodeCtx::unpark`]). The one exception is a broadcast
//! world event ([`Sim::schedule_call_at`]), whose replica on the target's
//! shard delivers the unpark while the other replicas skip it.
//! Sync events are charged to a separate `sync_events` counter so a
//! sharded run reports the *same* `events` as its one-shard twin and the
//! synchronization overhead stays observable ([`SimReport::sync_events`],
//! [`SimReport::windows`]).
//!
//! Messages cross by value, and moving one allocates nothing. The last
//! arriver at a barrier drains every shard's outbound messages, in shard
//! order, and moves each into its destination shard's *message slab*, a
//! slot vector that reuses freed slots. Per destination it keeps the
//! `(timestamp, tie, slot)` keys in a buffer that keeps its capacity from
//! window to window, sorts them, and queues one allocation-free
//! `SyncHot` event per key that names the slot.
//! That event's `fn` is monomorphised for the world: it takes the message
//! out of the slab and calls [`Shardable::apply_msg`]. The slab's type is
//! erased in the shard's state, which does not know the world's message
//! type, and recovered by a checked downcast. Boxing each message in a
//! closure instead would allocate a block on the source shard's thread
//! that the destination shard's thread frees, and once the freeing
//! thread's cache for that size is full, glibc's `free` of another
//! thread's block takes (and may wait on) that thread's arena lock.
//!
//! ## The window barrier
//!
//! A window is a few microseconds of host time on packet workloads, so the
//! barrier keeps the kernel off its path the way SP AM keeps it off the
//! message path: by polling memory. The last shard to arrive applies every
//! inbox, opens the next window (horizon and budget quota on every shard),
//! and only then publishes the new round in an atomic. A shard that arrives
//! earlier spins on that atomic for at most [`SPIN_BUDGET`], then parks on
//! the barrier's condvar. Between short bursts of spinning it yields its
//! CPU, so when there are more runnable threads than cores (more shards
//! than cores, or other runs in the same process) the shard still in its
//! window gets the CPU. The run's calling thread waits on a condvar of its
//! own that only the end of the run signals, so no window wakes it.
//! Parked arrivers are counted under the state lock, and the window
//! opener notifies the condvar only when that count is above zero: a
//! notify costs a system call even with no waiter, and most windows close
//! within the spin. Opening a window and ending the run both notify after
//! the state lock is released, so a woken thread does not block on it
//! again (the vendored condvar has no wait morphing).
//!
//! ## Event budget
//!
//! [`Sim::set_event_budget`] counts serial-comparable events only (never
//! sync events), and every shard charges a plain per-shard quota. A
//! one-shard run's quota is the budget itself. A sharded run's barrier
//! opens each window with a quota of `budget − used` on every shard, where
//! `used` is the run's event count over the closed windows. A shard whose
//! quota is spent stops at its next serial-comparable event and arrives
//! flagged. The last arriver then fails the run if any shard is flagged or
//! `used` exceeds the budget, so a sharded run fails exactly when its
//! one-shard twin does, and it reports a deterministic `at`: the window
//! horizon when it is finite, else the smallest flagged clock (the largest
//! arrival clock if no shard is flagged). Only the verdict matches, not
//! the work done: every shard gets the whole remainder, so a window can
//! run up to `num_shards × (budget − used)` events before the barrier
//! fails the run. That is still a bound, so a livelock still ends.
//!
//! ## Determinism
//!
//! Within a shard, events run in `(time, tie, seq)` order ([`Tie`]: the
//! instant an event was scheduled, then a world-chosen rank). Across
//! shards, every hand-off is timestamped and applied in `(timestamp, tie,
//! source shard)` order at a barrier whose placement depends only on
//! virtual time — never on OS scheduling. Runs are therefore reproducible
//! for a fixed `(config, seed, num_shards)`. For worlds whose same-instant
//! hand-offs from different shards carry different ties, end time, event
//! count, and world state match the one-shard run exactly — see
//! `tests/parallel.rs` and the proptest equivalence suite.

use crate::engine::{
    broadcast_kind, exec_event, EvKind, EventCtx, Inner, NState, NodeId, NodeMeta, Sched,
    ShardProfile, ShardReport, ShardSlot, Sim, SimReport, Tie,
};
use crate::error::SimError;
use crate::node::{Baton, Drive, NodeCtx, Resume, ShutdownToken, WakeReason};
use crate::time::{Dur, Time};
use parking_lot::{Condvar, Mutex, MutexGuard};
use sp_trace::{Kind as TraceKind, Tracer, Track};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a shard that arrives early at the window barrier spins before
/// it parks. Windows that close within it cost no sleep and no wake; the
/// figure is not a tuning knob (budgets from 5 to 200 µs measure alike on
/// `bulk`).
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// A timestamped inter-shard message produced by a world slice during a
/// lookahead window (see [`Shardable::take_messages`]).
pub struct ShardMsg<M> {
    /// Virtual time at which the message takes effect on the destination
    /// shard. Must be at least the producing shard's horizon (i.e. at least
    /// `lookahead` past the generating event) — this is what makes the
    /// conservative window sound.
    pub ts: Time,
    /// Same-instant order: messages landing on one destination shard at
    /// the same `ts` are applied in ascending `tie` (then source shard)
    /// order, the order the engine's queue gives events due at the same
    /// instant. A world stamps it with the [`Tie`] of the event the
    /// one-shard run would order in its place: the event that generates
    /// the message ([`EventCtx::tie`]) when that run does the message's
    /// work inline, or the one it would schedule for `ts`. Ties of events
    /// on different shards must then differ, so the source shard never
    /// decides.
    pub tie: Tie,
    /// Destination shard index (`owner[dst_node]`).
    pub dst_shard: usize,
    /// World-defined payload.
    pub msg: M,
}

/// A world that can be partitioned across conservative-parallel shards.
///
/// `split` carves the world into per-shard slices before the run; during
/// the run each slice buffers outbound [`ShardMsg`]s which the barrier
/// collects (`take_messages`) and applies on the destination slice
/// (`apply_msg`); `merge` reassembles the final world for the report.
/// These messages are the only way one shard's nodes and events reach
/// another's: an unpark across shards fails the run.
pub trait Shardable: Send + Sized + 'static {
    /// Inter-shard message payload.
    type Msg: Send + 'static;

    /// The minimum virtual-time latency of any cross-shard interaction:
    /// no event a shard executes at time `t` may affect another shard
    /// before `t + lookahead()`. Must be positive; `Dur(u64::MAX)` means
    /// shards never interact through the world.
    fn lookahead(&self) -> Dur;

    /// Partition into `num_shards` slices; `owner[node] == shard` gives the
    /// node partition. Slice `s` must answer world access for exactly the
    /// nodes it owns.
    fn split(self, num_shards: usize, owner: &[usize]) -> Vec<Self>;

    /// Reassemble the final world from the slices (in shard order).
    fn merge(parts: Vec<Self>) -> Self;

    /// Apply one inbound message on the destination shard, as an engine
    /// event at the message timestamp.
    fn apply_msg(e: &mut EventCtx<'_, Self>, msg: Self::Msg);

    /// Move this slice's outbound messages, in generation order, to the
    /// end of `out` (called at each barrier). `out` is the barrier's own
    /// buffer and keeps its capacity, so appending (e.g. with
    /// [`Vec::append`], which also keeps the slice's buffer) allocates
    /// nothing once both have grown to a window's traffic.
    fn take_messages(&mut self, out: &mut Vec<ShardMsg<Self::Msg>>);
}

/// The trivial world shards into nothing: it sends no messages, so shards
/// never interact, the lookahead is unbounded and a parallel run needs
/// exactly one window. Used by engine-only workloads (benchmarks, tests)
/// whose nodes interact purely through park/unpark within their own
/// shard; an unpark of a node on another shard fails the run.
impl Shardable for () {
    type Msg = ();
    fn lookahead(&self) -> Dur {
        Dur(u64::MAX)
    }
    fn split(self, num_shards: usize, _owner: &[usize]) -> Vec<()> {
        vec![(); num_shards]
    }
    fn merge(_parts: Vec<()>) {}
    fn apply_msg(_e: &mut EventCtx<'_, ()>, _msg: ()) {}
    fn take_messages(&mut self, _out: &mut Vec<ShardMsg<()>>) {}
}

/// One shard's state snapshot taken at barrier arrival, used to profile
/// the window that just ended. All virtual-time quantities, so profiles
/// are deterministic.
#[derive(Clone, Copy, Default)]
struct Arrive {
    /// The shard's local clock when it exhausted the window.
    now: Time,
    /// Cumulative executed events (serial-comparable + sync).
    counts: u64,
    /// Cumulative serial-comparable events: what the budget counts.
    events: u64,
    /// The shard stopped because its budget quota was spent; `now` is its
    /// clock at that point.
    tripped: bool,
    /// Event-heap depth at arrival.
    heap: usize,
}

/// The barrier's message buffers, typed by the world's message type and
/// reused every window.
struct Mail<M> {
    /// One source shard's outbound messages, as [`Shardable::take_messages`]
    /// leaves them; moved into destination slabs before the next source.
    out: Vec<ShardMsg<M>>,
    /// Per destination shard: `(ts, tie, slot)` of the window's inbound
    /// messages, by source shard in ascending order, each source's in
    /// generation order. Only these keys are sorted; each message stays
    /// in its slot.
    inbox: Vec<Vec<(Time, Tie, usize)>>,
}

/// A destination shard's message slab ([`ShardSlot::msgs`]): messages
/// waiting for the sync events that apply them, by slot.
struct Slab<M> {
    slots: Vec<Option<M>>,
    /// Empty slots, reused before `slots` grows.
    free: Vec<usize>,
}

impl<M: Send + 'static> Slab<M> {
    /// The slab of shard `slot`, created on first use.
    fn of(slot: &mut ShardSlot) -> &mut Slab<M> {
        slot.msgs
            .get_or_insert_with(|| {
                Box::new(Slab::<M> {
                    slots: Vec::new(),
                    free: Vec::new(),
                })
            })
            .downcast_mut()
            .expect("message slab matches the world's message type")
    }

    fn insert(&mut self, msg: M) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(msg);
                slot
            }
            None => {
                self.slots.push(Some(msg));
                self.slots.len() - 1
            }
        }
    }

    fn take(&mut self, slot: usize) -> M {
        let msg = self.slots[slot].take().expect("message slot applied twice");
        self.free.push(slot);
        msg
    }
}

/// The typed half of the window barrier, run by the last arriver with
/// every shard at the barrier: move all shards' outbound messages into
/// their destinations' slabs and queues, and lower each receiving shard's
/// `next` event time to match. The mail is a `Mail<W::Msg>`.
type Deliver<W> = fn(&mut (dyn Any + Send), &[Mutex<Inner<W>>], &mut [Option<Time>]);

fn deliver<W: Shardable>(
    mail: &mut (dyn Any + Send),
    shards: &[Mutex<Inner<W>>],
    next: &mut [Option<Time>],
) {
    let Mail { out, inbox } = mail
        .downcast_mut::<Mail<W::Msg>>()
        .expect("barrier mail matches the world's message type");
    for src in shards {
        W::take_messages(&mut src.lock().world, out);
        // A source's messages mostly share a destination: lock it once
        // per run of them.
        let mut dst: Option<(usize, MutexGuard<'_, Inner<W>>)> = None;
        for m in out.drain(..) {
            if dst.as_ref().map(|(d, _)| *d) != Some(m.dst_shard) {
                drop(dst.take());
                dst = Some((m.dst_shard, shards[m.dst_shard].lock()));
            }
            let (d, inner) = dst.as_mut().expect("destination locked");
            let shard = inner.shard.as_mut().expect("a sharded run's shard");
            let slot = Slab::of(shard).insert(m.msg);
            inbox[*d].push((m.ts, m.tie, slot));
        }
    }
    for (dst, keys) in inbox.iter_mut().enumerate() {
        if keys.is_empty() {
            continue;
        }
        // Deterministic application order, independent of which shard
        // arrived when: by timestamp, then the world's tie stamp (the
        // engine queue's same-instant order). The sort is stable and the
        // keys hold sources in ascending order, so the source shard
        // breaks remaining ties, then each source's generation order.
        keys.sort_by_key(|&(ts, tie, _)| (ts, tie));
        let inner = &mut *shards[dst].lock();
        // Applied messages queue in sorted order: one shared tie, so the
        // insertion sequence decides among them.
        let gen = Tie::unranked(inner.now);
        for (ts, _, slot) in keys.drain(..) {
            inner.sched.push(
                ts.max(inner.now),
                gen,
                EvKind::SyncHot {
                    f: apply_slot::<W>,
                    a: slot as u64,
                    b: 0,
                },
            );
        }
        next[dst] = inner.sched.peek_time();
    }
}

/// The sync event of one inbound message: take it out of this shard's
/// slab (slot `slot`) and apply it.
fn apply_slot<W: Shardable>(e: &mut EventCtx<'_, W>, slot: u64, _b: u64) {
    let shard = e.shard_slot().expect("a delivered message's shard");
    let msg = Slab::<W::Msg>::of(shard).take(slot as usize);
    W::apply_msg(e, msg);
}

/// Barrier / completion state shared by all shards of one run.
struct GState {
    /// The barrier's message buffers: a `Mail` of the world's message
    /// type, read by [`Core::deliver`].
    mail: Box<dyn Any + Send>,
    /// Each shard's earliest pending event time as of its latest barrier
    /// arrival (`None` = queue drained).
    next: Vec<Option<Time>>,
    /// Drivers arrived at the current barrier round.
    arrived: usize,
    /// Early arrivers parked on [`Core::cv`], so the window-open path
    /// makes the wake syscall only when someone sleeps.
    sleepers: usize,
    /// Barrier generation counter; [`Core::round`] mirrors it.
    round: u64,
    /// Completed lookahead windows.
    windows: u64,
    /// Start of the window currently open (the barrier's minimum
    /// next-event time `M`). Equal to `window_horizon` before round 1.
    window_start: Time,
    /// Horizon of the window currently open (`M + lookahead`).
    window_horizon: Time,
    /// Per-shard snapshot from each shard's latest barrier arrival.
    arrive: Vec<Arrive>,
    /// Per-shard busy virtual time accumulated across closed windows.
    busy_ns: Vec<u64>,
    /// Per-shard count of closed windows with at least one executed event.
    active_windows: Vec<u64>,
    /// Per-shard cumulative event count at the previously closed window.
    prev_counts: Vec<u64>,
    /// Sum of closed windows' widths, virtual ns.
    window_ns: u64,
    /// First error raised by any shard (budget, panic).
    failed: Option<SimError>,
    /// Run must stop (finished or failed).
    stop: bool,
}

impl GState {
    fn new(num_shards: usize, mail: Box<dyn Any + Send>) -> Self {
        GState {
            mail,
            next: vec![None; num_shards],
            arrived: 0,
            sleepers: 0,
            round: 0,
            windows: 0,
            window_start: Time::ZERO,
            window_horizon: Time::ZERO,
            arrive: vec![Arrive::default(); num_shards],
            busy_ns: vec![0; num_shards],
            active_windows: vec![0; num_shards],
            prev_counts: vec![0; num_shards],
            window_ns: 0,
            failed: None,
            stop: false,
        }
    }
}

/// Everything the drive loops of one run share: the per-shard engines,
/// every node's baton, and the barrier. A shard's engine is locked by
/// the one thread that drives it at a time, and by the last arriver at a
/// barrier, while every driver waits there.
pub(crate) struct Core<W: Send + 'static> {
    pub(crate) shards: Vec<Mutex<Inner<W>>>,
    pub(crate) batons: Vec<Arc<Baton>>,
    lookahead: Dur,
    /// Moves the messages in [`GState::mail`] (see [`Deliver`]).
    deliver: Deliver<W>,
    /// The run's event budget ([`Sim::set_event_budget`]).
    budget: u64,
    state: Mutex<GState>,
    /// Parked early barrier arrivers wait here for the next round.
    cv: Condvar,
    /// The run's calling thread waits here for the end of the run.
    done: Condvar,
    /// Mirror of `GState::stop` readable without the state lock (drive
    /// loops hold their shard lock and must not take the state lock).
    stopped: AtomicBool,
    /// Mirror of `GState::round`, stored (Release) once the next window is
    /// fully open, so a spinning arriver that sees it move may run on
    /// without the state lock. The round only moves when a window opens.
    round: AtomicU64,
    tracer: Option<Tracer>,
}

impl<W: Send + 'static> Core<W> {
    /// [`Core::stop`], taking the state lock. Callers must not hold any
    /// shard's inner lock.
    fn halt(&self, err: Option<SimError>) {
        self.stop(self.state.lock(), err);
    }

    /// End the run — with `err` as its failure unless an earlier one was
    /// recorded — and release everyone. The wakes follow the unlock, so a
    /// woken thread does not block again on the state lock.
    fn stop(&self, mut st: MutexGuard<'_, GState>, err: Option<SimError>) {
        if st.failed.is_none() {
            st.failed = err;
        }
        st.stop = true;
        self.stopped.store(true, Ordering::Release);
        drop(st);
        self.cv.notify_all();
        self.done.notify_all();
    }

    /// Wait, as an early arriver holding the state lock `st`, for the next
    /// round: spin for up to [`SPIN_BUDGET`], then park. Returns `true` to
    /// continue into the next window.
    fn await_round<'a>(&'a self, st: MutexGuard<'a, GState>) -> bool {
        let round = st.round;
        drop(st);
        let deadline = Instant::now() + SPIN_BUDGET;
        while Instant::now() < deadline {
            for _ in 0..64 {
                if self.round.load(Ordering::Acquire) != round {
                    return true;
                }
                if self.stopped.load(Ordering::Acquire) {
                    return false;
                }
                std::hint::spin_loop();
            }
            // With more runnable threads than CPUs (more shards than
            // cores, or other runs in the process), let the shard still
            // in its window have this CPU. Returns at once otherwise.
            std::thread::yield_now();
        }
        let mut st = self.state.lock();
        st.sleepers += 1;
        while st.round == round && !st.stop {
            self.cv.wait(&mut st);
        }
        st.sleepers -= 1;
        !st.stop
    }

    /// Close out the window that just ended (all shards arrived): charge
    /// each shard's busy time and activity, accumulate the window's width,
    /// and emit the per-shard window/wait spans and heap-depth gauges.
    /// No-op before the first real window (round 0's bootstrap barrier).
    fn finalize_window(&self, st: &mut GState) {
        let start = st.window_start;
        let horizon = st.window_horizon;
        if horizon <= start {
            return;
        }
        // An unbounded window (`Dur(u64::MAX)` lookahead: shards never
        // interact) is measured to the latest shard's arrival clock, not
        // the infinite horizon.
        let max_now = st.arrive.iter().map(|a| a.now).max().unwrap_or(start);
        let end = if horizon == Time::MAX {
            max_now.max(start)
        } else {
            horizon
        };
        let width = end.as_ns().saturating_sub(start.as_ns());
        st.window_ns = st.window_ns.saturating_add(width);
        for sid in 0..self.shards.len() {
            let a = st.arrive[sid];
            let busy = a.now.as_ns().saturating_sub(start.as_ns()).min(width);
            st.busy_ns[sid] += busy;
            let delta = a.counts.saturating_sub(st.prev_counts[sid]);
            if delta > 0 {
                st.active_windows[sid] += 1;
            }
            st.prev_counts[sid] = a.counts;
            if let Some(t) = &self.tracer {
                let track = Track::shard(sid);
                let s0 = start.as_ns();
                t.span(s0, s0 + busy, track, TraceKind::ShardWindow, delta);
                if busy < width {
                    t.span(s0 + busy, s0 + width, track, TraceKind::ShardWait, st.round);
                }
                t.counter(
                    a.now.as_ns(),
                    track,
                    TraceKind::ShardHeapDepth,
                    a.heap as u64,
                );
            }
        }
    }

    /// Arrive at the window barrier with this shard's next-event time and
    /// profiling snapshot. (Its outbound messages stay in its world slice
    /// until the last arriver delivers them.) Returns `true` to continue
    /// into the next window, `false` when the run is over (finished or
    /// failed).
    fn barrier(&self, sid: usize, next: Option<Time>, arrive: Arrive) -> bool {
        let mut st = self.state.lock();
        if st.stop {
            return false;
        }
        st.next[sid] = next;
        st.arrive[sid] = arrive;
        st.arrived += 1;
        if st.arrived < self.shards.len() {
            return self.await_round(st);
        }

        // Last arriver: close out the window's profile, check the budget,
        // deliver inboxes, recompute each receiver's next event, open the
        // next window. Locking a shard's inner here is safe: every driver
        // is at this barrier (spinning or parked, without its inner).
        st.arrived = 0;
        self.finalize_window(&mut st);
        // The run-wide budget check (module docs, "Event budget").
        let used: u64 = st.arrive.iter().map(|a| a.events).sum();
        let flagged = st.arrive.iter().filter(|a| a.tripped).map(|a| a.now).min();
        if flagged.is_some() || used > self.budget {
            let at = if st.window_horizon < Time::MAX {
                st.window_horizon
            } else {
                flagged
                    .unwrap_or_else(|| st.arrive.iter().map(|a| a.now).max().unwrap_or(Time::ZERO))
            };
            let err = SimError::EventBudgetExhausted {
                at,
                budget: self.budget,
            };
            self.stop(st, Some(err));
            return false;
        }
        // Deliver every shard's messages.
        let GState { mail, next, .. } = &mut *st;
        (self.deliver)(&mut **mail, &self.shards, next);

        let m = st.next.iter().copied().flatten().min();
        match m {
            None => {
                // Every queue drained and no traffic in flight: done.
                self.stop(st, None);
                false
            }
            Some(m) => {
                let horizon = m.saturating_add(self.lookahead);
                for s in &self.shards {
                    let mut inner = s.lock();
                    inner.horizon = horizon;
                    inner.budget_left = self.budget - used;
                }
                st.window_start = m;
                st.window_horizon = horizon;
                st.windows += 1;
                if let Some(t) = &self.tracer {
                    t.instant(
                        m.as_ns(),
                        Track::ENGINE,
                        TraceKind::ShardBarrier,
                        st.round + 1,
                    );
                }
                // Publish the round only now that the window is open, and
                // wake the early arrivers that parked, after the unlock.
                st.round += 1;
                self.round.store(st.round, Ordering::Release);
                let sleepers = st.sleepers > 0;
                drop(st);
                if sleepers {
                    self.cv.notify_all();
                }
                true
            }
        }
    }

    /// Flush this shard's outbound traffic and arrive at the window barrier
    /// (`tripped`: its budget quota is spent). Returns the barrier's
    /// verdict: `true` to continue into the next window.
    fn arrive(&self, sid: usize, inner: MutexGuard<'_, Inner<W>>, tripped: bool) -> bool {
        let next = inner.sched.peek_time();
        let arrive = Arrive {
            now: inner.now,
            counts: inner.events + inner.sync_events,
            events: inner.events,
            tripped,
            heap: inner.sched.len(),
        };
        drop(inner);
        self.barrier(sid, next, arrive)
    }

    /// One shard's event loop, entered holding the shard's lock `inner`:
    /// pop-and-execute below the horizon, run the world step a woken node
    /// parked with its wake (and the idle rounds after it), grant batons to
    /// woken nodes, and when the window is exhausted arrive at the barrier
    /// (sharded) or end the run (one shard: the queue is empty). Returns
    /// when the baton moved to another node ([`Drive::Handed`]), the
    /// caller's own wake surfaced ([`Drive::SelfRun`]), or the run ended
    /// ([`Drive::Shutdown`]).
    pub(crate) fn drive<'a>(
        &'a self,
        sid: usize,
        me: Option<NodeId>,
        mut inner: MutexGuard<'a, Inner<W>>,
    ) -> Drive {
        loop {
            if self.stopped.load(Ordering::Acquire) {
                return Drive::Shutdown;
            }
            let horizon = inner.horizon;
            let Some(ev) = inner.sched.pop_before(horizon) else {
                if self.shards.len() == 1 {
                    // Unbounded horizon: nothing left to run anywhere.
                    drop(inner);
                    self.halt(None);
                    return Drive::Shutdown;
                }
                // Window exhausted: flush outbound traffic and synchronize.
                if !self.arrive(sid, inner, false) {
                    return Drive::Shutdown;
                }
                inner = self.shards[sid].lock();
                continue;
            };
            if ev.kind.is_sync() {
                inner.sync_events += 1;
                if let Some(t) = &inner.tracer {
                    t.instant(
                        ev.time.as_ns(),
                        Track::shard(sid),
                        TraceKind::ShardSyncApply,
                        ev.time.as_ns(),
                    );
                }
            } else if inner.budget_left == 0 {
                // The budget counts serial-comparable events only, and this
                // shard's quota for the window is spent. One shard: the run
                // is over budget, tripping at the clock. Sharded: arrive
                // flagged and let the last arriver fail the run, with an
                // `at` that does not depend on which shard got there first
                // (module docs, "Event budget").
                if self.shards.len() == 1 {
                    let at = inner.now;
                    drop(inner);
                    self.halt(Some(SimError::EventBudgetExhausted {
                        at,
                        budget: self.budget,
                    }));
                } else {
                    let go_on = self.arrive(sid, inner, true);
                    debug_assert!(!go_on, "a flagged arrival must end the run");
                }
                return Drive::Shutdown;
            } else {
                inner.budget_left -= 1;
                inner.events += 1;
            }
            debug_assert!(ev.time >= inner.now, "shard queue went backwards");
            inner.now = ev.time;
            match ev.kind {
                EvKind::Wake {
                    node,
                    epoch,
                    reason,
                } => {
                    let meta = &mut inner.nodes[node.0];
                    let runnable = meta.epoch == epoch
                        && matches!(
                            meta.state,
                            NState::Startup | NState::Sleeping | NState::Parked
                        );
                    if !runnable {
                        continue; // stale wake (still counted)
                    }
                    meta.epoch += 1;
                    meta.state = NState::Running;
                    // The queued unpark (if any) is consumed by this wake;
                    // later unparks must queue a fresh event.
                    meta.unpark_queued = false;
                    if let Some(t) = &inner.tracer {
                        t.instant(
                            ev.time.as_ns(),
                            Track::program(node.0),
                            TraceKind::EngineWake,
                            matches!(reason, WakeReason::Unparked) as u64,
                        );
                    }
                    let (at, rounds) = match inner.run_step(node, ev.time) {
                        Ok(Some(resumed)) => resumed,
                        Ok(None) => continue, // asleep again: keep driving
                        Err(payload) => {
                            inner.nodes[node.0].state = NState::Done;
                            let name = inner.nodes[node.0].name.clone();
                            drop(inner);
                            self.halt(Some(SimError::NodePanicked {
                                node: name,
                                message: panic_message(payload),
                            }));
                            return Drive::Shutdown;
                        }
                    };
                    let resume = Resume { at, reason, rounds };
                    if me == Some(node) {
                        // The driver's own wake: resume in place, zero
                        // hand-offs, still holding the baton.
                        drop(inner);
                        debug_assert!(
                            self.batons[node.0].held(),
                            "a self-resuming driver released its baton"
                        );
                        return Drive::SelfRun(resume);
                    }
                    inner.grants += 1;
                    drop(inner);
                    // Release the driver's own baton before the grant: the
                    // granted node may drive next and grant it back.
                    if let Some(me) = me {
                        self.batons[me.0].release();
                    }
                    self.batons[node.0].grant(resume);
                    return Drive::Handed;
                }
                kind => exec_event(&mut inner, ev.time, ev.tie, kind),
            }
        }
    }
}

/// The message of a panic payload, for [`SimError::NodePanicked`].
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// A run's per-shard engines and barrier state after a clean finish,
/// before the caller folds them into a [`SimReport`].
struct Finished<W: Send + 'static> {
    inners: Vec<Inner<W>>,
    st: GState,
    end_time: Time,
    wakes_coalesced: u64,
    grants: u64,
}

impl<W: Send + 'static> Sim<W> {
    /// Run to completion: until every node program has returned and the
    /// event queue is empty. This is the one-shard drive loop: no barrier,
    /// no split world, and no thread besides the node threads.
    pub fn run(mut self) -> Result<SimReport<W>, SimError> {
        let started = std::time::Instant::now();
        let world = self.world.take().expect("world present");
        let owner = Arc::new(vec![0; self.programs.len()]);
        // A one-shard run has no barrier, so nothing is ever delivered.
        let f = self.execute(
            vec![world],
            owner,
            Dur(u64::MAX),
            Box::new(()),
            |_, _, _| {},
        )?;
        let inner = f.inners.into_iter().next().expect("one shard");
        let wall = started.elapsed();
        Ok(SimReport {
            world: inner.world,
            end_time: f.end_time,
            events: inner.events,
            wakes_coalesced: f.wakes_coalesced,
            grants: f.grants,
            shards: Vec::new(),
            shards_requested: 0,
            sync_events: 0,
            windows: 0,
            profile: None,
            wall,
        })
    }

    /// Drive one world slice per shard (`owner[node] == shard`) to
    /// completion, tear every thread down, and check for a deadlock.
    fn execute(
        mut self,
        worlds: Vec<W>,
        owner: Arc<Vec<usize>>,
        lookahead: Dur,
        mail: Box<dyn Any + Send>,
        deliver: Deliver<W>,
    ) -> Result<Finished<W>, SimError> {
        let num_shards = worlds.len();
        let sharded = num_shards > 1;
        let programs = std::mem::take(&mut self.programs);
        let num_nodes = programs.len();
        let tracer = self.tracer.take();
        let mut shards = Vec::with_capacity(num_shards);
        for (sid, world) in worlds.into_iter().enumerate() {
            let mut sched = Sched::new();
            // Broadcast world events: every shard pre-loads a replica so each
            // world slice observes the mutation at exactly the scheduled
            // time; only shard 0's replica is a counted event.
            for (at, f) in &self.initial {
                sched.push(
                    *at,
                    Tie::unranked(Time::ZERO),
                    broadcast_kind(f.clone(), sid == 0),
                );
            }
            let mut nodes = Vec::with_capacity(num_nodes);
            for (i, (name, _)) in programs.iter().enumerate() {
                // Full-length meta vector (indexed by global NodeId); only
                // owned nodes get startup wakes or ever change state here.
                nodes.push(NodeMeta::new(name.clone()));
                if owner[i] == sid {
                    sched.push(
                        Time::ZERO,
                        Tie::unranked(Time::ZERO),
                        EvKind::Wake {
                            node: NodeId(i),
                            epoch: 0,
                            reason: WakeReason::Timeout,
                        },
                    );
                }
            }
            shards.push(Mutex::new(Inner {
                world,
                now: Time::ZERO,
                sched,
                nodes,
                steps: (0..num_nodes).map(|_| None).collect(),
                grants: 0,
                events: 0,
                sync_events: 0,
                budget_left: self.event_budget,
                // Sharded: nothing may run until the first barrier opens
                // the first window. One shard: no barrier, no bound.
                horizon: if sharded { Time::ZERO } else { Time::MAX },
                shard: sharded.then(|| ShardSlot {
                    id: sid,
                    owner: owner.clone(),
                    broadcast: false,
                    msgs: None,
                }),
                tracer: tracer.clone(),
            }));
        }
        let core = Arc::new(Core {
            shards,
            batons: (0..num_nodes).map(|_| Baton::new()).collect(),
            lookahead,
            deliver,
            budget: self.event_budget,
            state: Mutex::new(GState::new(num_shards, mail)),
            cv: Condvar::new(),
            done: Condvar::new(),
            stopped: AtomicBool::new(false),
            round: AtomicU64::new(0),
            tracer,
        });

        let mut handles = Vec::with_capacity(num_nodes);
        for (i, (name, program)) in programs.into_iter().enumerate() {
            let (core, sid, seed) = (core.clone(), owner[i], self.seed);
            let handle = std::thread::Builder::new()
                .name(format!("sp-sim-node-{i}-{name}"))
                .spawn(move || {
                    let mut ctx = NodeCtx::new(NodeId(i), num_nodes, seed, core.clone(), sid);
                    let baton = &core.batons[i];
                    let done = || {
                        let mut inner = core.shards[sid].lock();
                        inner.nodes[i].state = NState::Done;
                        inner
                    };
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        ctx.now = baton.wait_for_run().at;
                        program(&mut ctx);
                        // Stay on as the shard's driver: its queue may still
                        // hold events, and a drained shard must keep
                        // answering barriers (and executing any late
                        // inbound messages) until the run ends. No wake
                        // grants a finished node's baton again, so it needs
                        // no release.
                        core.drive(sid, None, done());
                    }));
                    let Err(payload) = out else { return };
                    if payload.is::<ShutdownToken>() {
                        return; // orderly teardown
                    }
                    drop(done());
                    core.halt(Some(SimError::NodePanicked {
                        node: name,
                        message: panic_message(payload),
                    }));
                })
                .expect("spawn node thread");
            handles.push(handle);
        }

        if sharded {
            // One short-lived bootstrap driver per shard: arrives at the
            // initial barrier (horizon starts at zero), then pops the first
            // startup wake and hands the driving role to the node threads.
            for sid in 0..num_shards {
                let core = core.clone();
                let boot = std::thread::Builder::new()
                    .name(format!("sp-sim-shard-{sid}"))
                    .spawn(move || {
                        core.drive(sid, None, core.shards[sid].lock());
                    })
                    .expect("spawn shard bootstrap thread");
                handles.push(boot);
            }
        } else {
            // No barrier to bootstrap: the calling thread drives up to the
            // first wake it grants.
            core.drive(0, None, core.shards[0].lock());
        }

        // Wait for completion (clean or failed) on the run's own condvar:
        // only the end of the run wakes it, never a window.
        {
            let mut st = core.state.lock();
            while !st.stop {
                core.done.wait(&mut st);
            }
        }
        // Unwind every node thread still blocked on (or about to block on)
        // its baton; running nodes observe `Exit` at their next wait
        // (release() preserves it).
        for baton in &core.batons {
            baton.exit();
        }
        for handle in handles {
            let _ = handle.join();
        }

        let core = Arc::try_unwrap(core)
            .unwrap_or_else(|_| panic!("driver threads still hold engine state"));
        let st = core.state.into_inner();
        if let Some(err) = st.failed {
            return Err(err);
        }
        let inners: Vec<Inner<W>> = core.shards.into_iter().map(Mutex::into_inner).collect();
        let mut end_time = Time::ZERO;
        let mut stuck: Vec<String> = Vec::new();
        let mut wakes_coalesced = 0u64;
        for (sid, inner) in inners.iter().enumerate() {
            end_time = end_time.max(inner.now);
            for (i, meta) in inner.nodes.iter().enumerate() {
                if owner[i] == sid {
                    wakes_coalesced += meta.coalesced;
                    if meta.state != NState::Done {
                        stuck.push(meta.name.clone());
                    }
                }
            }
        }
        if !stuck.is_empty() {
            return Err(SimError::Deadlock {
                at: end_time,
                parked: stuck,
            });
        }
        let grants = inners.iter().map(|i| i.grants).sum();
        Ok(Finished {
            inners,
            st,
            end_time,
            wakes_coalesced,
            grants,
        })
    }
}

impl<W: Shardable> Sim<W> {
    /// Run to completion on `num_shards` shards using conservative
    /// lookahead-window synchronization. One shard (after the clamp below)
    /// is exactly [`Sim::run`]; for supported workloads, larger shard
    /// counts produce the same end time, event count, and final world state
    /// (see the module docs for the argument and its limits). Nodes on
    /// different shards interact only through the world's messages: a node
    /// that unparks a node of another shard fails the run as its own panic
    /// ([`SimError::NodePanicked`]).
    ///
    /// Pre-scheduled world events ([`Sim::schedule_call_at`]) are broadcast:
    /// every shard pre-loads a replica and executes it against its own world
    /// slice at exactly the scheduled time (shard 0's replica counts toward
    /// `events`, the rest are `sync_events`). `num_shards` is clamped to the
    /// node count; the requested value is recorded in
    /// [`SimReport::shards_requested`] and a clamp is flagged in the
    /// experiment binaries' `[parallel]` summary line. The event budget
    /// ([`Sim::set_event_budget`]) counts serial-comparable events only.
    /// Each shard charges its own quota, which the barrier resets every
    /// window to what the run has left, so a sharded run fails with
    /// `EventBudgetExhausted` exactly when its one-shard twin does, and the
    /// reported `at` is the same for every run of a given shard count.
    pub fn run_parallel(mut self, num_shards: usize) -> Result<SimReport<W>, SimError> {
        assert!(num_shards >= 1, "need at least one shard");
        let requested_shards = num_shards;
        let num_nodes = self.programs.len();
        let num_shards = num_shards.min(num_nodes.max(1));
        if num_shards <= 1 {
            let mut rep = self.run()?;
            rep.shards_requested = requested_shards;
            return Ok(rep);
        }
        let started = std::time::Instant::now();
        let world = self.world.take().expect("world present");
        let lookahead = world.lookahead();
        assert!(lookahead > Dur::ZERO, "lookahead must be positive");

        // Block partition: contiguous node ranges, every shard non-empty
        // (owner is surjective for num_shards <= num_nodes).
        let owner: Arc<Vec<usize>> =
            Arc::new((0..num_nodes).map(|i| i * num_shards / num_nodes).collect());
        let worlds = world.split(num_shards, &owner);
        assert_eq!(
            worlds.len(),
            num_shards,
            "split must produce one world per shard"
        );
        let mail = Mail::<W::Msg> {
            out: Vec::new(),
            inbox: (0..num_shards).map(|_| Vec::new()).collect(),
        };
        let f = self.execute(
            worlds,
            owner.clone(),
            lookahead,
            Box::new(mail),
            deliver::<W>,
        )?;
        let st = f.st;
        let shard_reports: Vec<ShardReport> = f
            .inners
            .iter()
            .enumerate()
            .map(|(sid, inner)| ShardReport {
                shard: sid,
                nodes: owner.iter().filter(|&&o| o == sid).count(),
                events: inner.events,
                sync_events: inner.sync_events,
            })
            .collect();
        let events: u64 = shard_reports.iter().map(|s| s.events).sum();
        let sync_events: u64 = shard_reports.iter().map(|s| s.sync_events).sum();
        let world = W::merge(f.inners.into_iter().map(|i| i.world).collect());
        let wall = started.elapsed();
        let profile = ShardProfile {
            windows: st.windows,
            window_ns: st.window_ns,
            busy_ns: st.busy_ns,
            events: shard_reports.iter().map(|s| s.events).collect(),
            sync_events: shard_reports.iter().map(|s| s.sync_events).collect(),
            active_windows: st.active_windows,
        };
        Ok(SimReport {
            world,
            end_time: f.end_time,
            events,
            wakes_coalesced: f.wakes_coalesced,
            grants: f.grants,
            shards: shard_reports,
            shards_requested: requested_shards,
            sync_events,
            windows: st.windows,
            profile: Some(profile),
            wall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::within_deadline;
    use crate::{Dur, Sim, WakeReason};

    /// Serial/parallel twin runs of an N-pair ping-pong storm (pure engine
    /// workload on the unit world: park/unpark within each pair). A pair
    /// must sit on one shard (`owner[i] = i * shards / (2 * pairs)`).
    fn pingpong(pairs: usize, rounds: usize, shards: usize) -> (Time, u64) {
        let mut sim = Sim::new((), 7);
        for p in 0..pairs {
            let a = NodeId(2 * p);
            let b = NodeId(2 * p + 1);
            sim.spawn(format!("sleeper{p}"), move |ctx| {
                for _ in 0..rounds {
                    assert_eq!(ctx.park(), WakeReason::Unparked);
                    ctx.unpark(b);
                }
            });
            sim.spawn(format!("waker{p}"), move |ctx| {
                for _ in 0..rounds {
                    ctx.advance(Dur::ns(100));
                    ctx.unpark(a);
                    assert_eq!(ctx.park(), WakeReason::Unparked);
                    ctx.advance(Dur::ns(50));
                }
            });
        }
        let r = if shards <= 1 {
            sim.run().unwrap()
        } else {
            sim.run_parallel(shards).unwrap()
        };
        (r.end_time, r.events)
    }

    #[test]
    fn parallel_pingpong_matches_serial() {
        let serial = pingpong(4, 50, 1);
        for shards in [2, 4] {
            assert_eq!(pingpong(4, 50, shards), serial, "shards={shards}");
        }
    }

    #[test]
    fn parallel_shard_count_clamps_to_node_count() {
        // More shards than nodes degrades gracefully (clamped, not panic).
        // Every node then sits on a shard of its own, so the nodes only
        // advance: on the unit world, shards cannot interact at all.
        let run = |shards| {
            let mut sim = Sim::new((), 7);
            for i in 0..4u64 {
                sim.spawn(format!("n{i}"), move |ctx| {
                    for _ in 0..10 {
                        ctx.advance(Dur::ns(10 + i));
                    }
                });
            }
            sim.run_parallel(shards).unwrap()
        };
        let (serial, clamped) = (run(1), run(16));
        assert_eq!(clamped.shards.len(), 4);
        assert_eq!(clamped.shards_requested, 16);
        assert_eq!(
            (clamped.end_time, clamped.events),
            (serial.end_time, serial.events)
        );
    }

    /// A node that unparks a node of another shard fails the run by name:
    /// an unpark carries no lookahead, so shards meet only through world
    /// messages.
    #[test]
    fn cross_shard_unpark_fails_the_run() {
        let mut sim = Sim::new((), 0);
        sim.spawn("sleeper", |ctx| {
            ctx.park();
        });
        sim.spawn("waker", |ctx| {
            ctx.advance(Dur::ns(100));
            ctx.unpark(NodeId(0));
        });
        match within_deadline("cross-shard unpark", move || sim.run_parallel(2)) {
            Err(SimError::NodePanicked { node, message }) => {
                assert_eq!(node, "waker");
                assert!(message.contains("cross-shard unpark of n0"), "{message}");
            }
            other => panic!("expected node panic, got {other:?}"),
        }
    }

    /// `(end, events, wakes coalesced, wake instants)` of a node on shard 1
    /// (of 2) that parks twice, unparked by two [`Sim::schedule_call_at`]
    /// closures while a node on shard 0 runs past both.
    fn broadcast_unpark_run(shards: usize) -> (Time, u64, u64, Vec<Time>) {
        let wakes = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new((), 0);
        sim.spawn("busy", |ctx| {
            for _ in 0..10 {
                ctx.advance(Dur::ns(100));
            }
        });
        let w = wakes.clone();
        sim.spawn("sleeper", move |ctx| {
            for _ in 0..2 {
                assert_eq!(ctx.park(), WakeReason::Unparked);
                w.lock().push(ctx.now());
            }
        });
        for at in [250, 600] {
            sim.schedule_call_at(Time(at), |e| e.unpark(NodeId(1)));
        }
        let r = sim.run_parallel(shards).unwrap();
        let wakes = wakes.lock().clone();
        (r.end_time, r.events, r.wakes_coalesced, wakes)
    }

    /// A broadcast world event may unpark a node of any shard: only the
    /// owner's replica delivers it, so the node wakes once per call, at the
    /// call's instant, exactly as on one shard.
    #[test]
    fn broadcast_unpark_wakes_an_other_shard_node_once() {
        let serial = broadcast_unpark_run(1);
        assert_eq!(serial.2, 0, "no unpark coalesced");
        assert_eq!(serial.3, vec![Time(250), Time(600)]);
        let sharded = within_deadline("broadcast unpark", || broadcast_unpark_run(2));
        assert_eq!(sharded, serial);
    }

    #[test]
    fn parallel_repeats_identically() {
        let a = pingpong(3, 40, 3);
        let b = pingpong(3, 40, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_reports_shards() {
        let mut sim = Sim::new((), 0);
        for i in 0..4 {
            sim.spawn(format!("n{i}"), |ctx| {
                for _ in 0..10 {
                    ctx.advance(Dur::ns(10));
                }
            });
        }
        let r = sim.run_parallel(2).unwrap();
        assert_eq!(r.shards.len(), 2);
        assert_eq!(r.shards.iter().map(|s| s.nodes).sum::<usize>(), 4);
        assert_eq!(r.shards.iter().map(|s| s.events).sum::<u64>(), r.events);
        // Unit world: no cross-shard traffic, single unbounded window.
        assert_eq!(r.sync_events, 0);
    }

    #[test]
    fn parallel_deadlock_is_detected() {
        let mut sim = Sim::new((), 0);
        sim.spawn("stuck-a", |ctx| {
            ctx.park();
        });
        sim.spawn("ok-b", |ctx| ctx.advance(Dur::ns(5)));
        match within_deadline("sharded deadlocked run", move || sim.run_parallel(2)) {
            Err(SimError::Deadlock { parked, .. }) => {
                assert_eq!(parked, vec!["stuck-a".to_string()])
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn parallel_budget_exhaustion_is_reported() {
        let mut sim = Sim::new((), 0);
        sim.set_event_budget(200);
        sim.spawn("spin-a", |ctx| loop {
            ctx.advance(Dur::ns(1));
        });
        sim.spawn("spin-b", |ctx| loop {
            ctx.advance(Dur::ns(1));
        });
        match within_deadline("sharded spinning run", move || sim.run_parallel(2)) {
            Err(SimError::EventBudgetExhausted { budget, .. }) => assert_eq!(budget, 200),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn parallel_node_panic_is_reported() {
        let mut sim = Sim::new((), 0);
        sim.spawn("bad", |ctx| {
            ctx.advance(Dur::ns(1));
            panic!("boom");
        });
        sim.spawn("good", |ctx| {
            for _ in 0..100 {
                ctx.advance(Dur::ns(1));
            }
        });
        match within_deadline("sharded panicking run", move || sim.run_parallel(2)) {
            Err(SimError::NodePanicked { node, message }) => {
                assert_eq!(node, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected node panic, got {other:?}"),
        }
    }

    /// A shardable world with real cross-shard traffic: each shard holds a
    /// per-node mailbox count; nodes "send" increments to the next node with
    /// a fixed virtual latency. Exercises messages, windows, and merge.
    struct Mailboxes {
        counts: Vec<u64>,
        shard: Option<(usize, Arc<Vec<usize>>)>,
        outbox: Vec<ShardMsg<usize>>,
    }

    const MAIL_LAT: u64 = 1_000;

    impl Mailboxes {
        fn new(n: usize) -> Mailboxes {
            Mailboxes {
                counts: vec![0; n],
                shard: None,
                outbox: Vec::new(),
            }
        }
        /// Post an increment to `dst`, landing `MAIL_LAT` ns from `now`.
        /// Serial: the landing is one counted Hot event at `ts`. Parallel:
        /// a message, through the outbox even to this shard, carries the
        /// hand-off to `ts`, and its sync event re-schedules the same
        /// counted landing event — so `events` stays identical to serial
        /// and only `sync_events` grows.
        fn post(e: &mut EventCtx<'_, Mailboxes>, dst: u64, _b: u64) {
            let dst = dst as usize;
            let ts = e.now() + Dur::ns(MAIL_LAT);
            match e.world().shard.clone() {
                None => e.schedule_hot_at(ts, Mailboxes::land, dst as u64, 0),
                Some((_, owner)) => {
                    let dst_shard = owner[dst];
                    let tie = Tie::unranked(e.now());
                    e.world().outbox.push(ShardMsg {
                        ts,
                        tie,
                        dst_shard,
                        msg: dst,
                    });
                }
            }
        }
        fn relay(e: &mut EventCtx<'_, Mailboxes>, dst: u64, _b: u64) {
            e.schedule_hot_at(e.now(), Mailboxes::land, dst, 0);
        }
        fn land(e: &mut EventCtx<'_, Mailboxes>, dst: u64, _b: u64) {
            e.world().counts[dst as usize] += 1;
        }
    }

    impl Shardable for Mailboxes {
        type Msg = usize;
        fn lookahead(&self) -> Dur {
            Dur::ns(MAIL_LAT)
        }
        fn split(self, num_shards: usize, owner: &[usize]) -> Vec<Mailboxes> {
            let owner: Arc<Vec<usize>> = Arc::new(owner.to_vec());
            (0..num_shards)
                .map(|sid| Mailboxes {
                    counts: vec![0; self.counts.len()],
                    shard: Some((sid, owner.clone())),
                    outbox: Vec::new(),
                })
                .collect()
        }
        fn merge(parts: Vec<Mailboxes>) -> Mailboxes {
            let mut out = Mailboxes::new(parts[0].counts.len());
            for p in parts {
                for (i, c) in p.counts.iter().enumerate() {
                    out.counts[i] += c;
                }
            }
            out
        }
        fn apply_msg(e: &mut EventCtx<'_, Mailboxes>, dst: usize) {
            // Hand-off leg on the destination shard, at the message ts:
            // re-schedules the same counted landing event serial runs.
            Mailboxes::relay(e, dst as u64, 0);
        }
        fn take_messages(&mut self, out: &mut Vec<ShardMsg<usize>>) {
            out.append(&mut self.outbox);
        }
    }

    fn mailbox_run(nodes: usize, sends: usize, shards: usize) -> (Time, u64, Vec<u64>) {
        let mut sim = Sim::new(Mailboxes::new(nodes), 3);
        for i in 0..nodes {
            let dst = (i + 1) % nodes;
            sim.spawn(format!("m{i}"), move |ctx| {
                for _ in 0..sends {
                    ctx.advance(Dur::ns(250));
                    ctx.schedule_hot(Dur::ZERO, Mailboxes::post, dst as u64, 0);
                }
                // Drain long enough for the last increment to land.
                ctx.advance(Dur::ns(MAIL_LAT * 2));
            });
        }
        // `post` routes through a Hot event whose `a` argument is the dst.
        let r = if shards <= 1 {
            sim.run().unwrap()
        } else {
            sim.run_parallel(shards).unwrap()
        };
        (r.end_time, r.events, r.world.counts)
    }

    #[test]
    fn cross_shard_messages_match_serial() {
        let serial = mailbox_run(4, 20, 1);
        assert_eq!(serial.2.iter().sum::<u64>(), 80);
        for shards in [2, 4] {
            assert_eq!(mailbox_run(4, 20, shards), serial, "shards={shards}");
        }
    }

    /// A shardable world that logs the order cross-shard messages are
    /// applied in: the deterministic-tie-break probe. Each message is a
    /// marker appended to the destination shard's log.
    struct OrderLog {
        log: Vec<u64>,
        shard: Option<(usize, Arc<Vec<usize>>)>,
        outbox: Vec<ShardMsg<u64>>,
        nodes: usize,
    }

    impl OrderLog {
        /// Send `marker` to node 0, landing at absolute time `ts_ns`.
        /// `tie` is the landing event's: scheduled at the posting time.
        fn post(e: &mut EventCtx<'_, OrderLog>, marker: u64, ts_ns: u64) {
            let ts = Time(ts_ns);
            let tie = Tie::unranked(e.now());
            match e.world().shard.clone() {
                None => e.schedule_hot_at(ts, OrderLog::land, marker, 0),
                Some((_, owner)) => {
                    let dst_shard = owner[0];
                    e.world().outbox.push(ShardMsg {
                        ts,
                        tie,
                        dst_shard,
                        msg: marker,
                    });
                }
            }
        }
        fn land(e: &mut EventCtx<'_, OrderLog>, marker: u64, _b: u64) {
            e.world().log.push(marker);
        }
    }

    impl Shardable for OrderLog {
        type Msg = u64;
        fn lookahead(&self) -> Dur {
            Dur::ns(800)
        }
        fn split(self, num_shards: usize, owner: &[usize]) -> Vec<OrderLog> {
            let owner: Arc<Vec<usize>> = Arc::new(owner.to_vec());
            (0..num_shards)
                .map(|sid| OrderLog {
                    log: Vec::new(),
                    shard: Some((sid, owner.clone())),
                    outbox: Vec::new(),
                    nodes: self.nodes,
                })
                .collect()
        }
        fn merge(parts: Vec<OrderLog>) -> OrderLog {
            let nodes = parts[0].nodes;
            let mut log = Vec::new();
            for p in parts {
                log.extend(p.log);
            }
            OrderLog {
                log,
                shard: None,
                outbox: Vec::new(),
                nodes,
            }
        }
        fn apply_msg(e: &mut EventCtx<'_, OrderLog>, marker: u64) {
            OrderLog::land(e, marker, 0);
        }
        fn take_messages(&mut self, out: &mut Vec<ShardMsg<u64>>) {
            out.append(&mut self.outbox);
        }
    }

    fn tie_break_run(shards: usize) -> Vec<u64> {
        let mut sim = Sim::new(
            OrderLog {
                log: Vec::new(),
                shard: None,
                outbox: Vec::new(),
                nodes: 3,
            },
            0,
        );
        // Node 0 (shard 0) receives; it just outlives the landings.
        sim.spawn("rx", |ctx| ctx.advance(Dur::ns(2_000)));
        // Node 1 (shard 1) posts *later* (at 200 ns) — but from the lower
        // shard. Node 2 (shard 2) posts *earlier* (at 100 ns) from the
        // higher shard. Both land at t=1000 on node 0. Serial executes
        // the landings in posting order: marker 2 then marker 1. A
        // barrier that tie-breaks equal timestamps by source shard
        // instead of by the carried posting sequence inverts them.
        sim.spawn("late-low-shard", |ctx| {
            ctx.advance(Dur::ns(200));
            ctx.schedule_hot(Dur::ZERO, OrderLog::post, 1, 1_000);
            ctx.advance(Dur::ns(1_800));
        });
        sim.spawn("early-high-shard", |ctx| {
            ctx.advance(Dur::ns(100));
            ctx.schedule_hot(Dur::ZERO, OrderLog::post, 2, 1_000);
            ctx.advance(Dur::ns(1_900));
        });
        let r = if shards <= 1 {
            sim.run().unwrap()
        } else {
            sim.run_parallel(shards).unwrap()
        };
        r.world.log
    }

    /// Regression: two cross-shard messages with the *same* destination
    /// timestamp must apply in posting order (the carried `tie`), not in
    /// source-shard order. Before `ShardMsg` carried a posting stamp, the
    /// barrier sorted `(ts, src_shard)` and this test's parallel log came
    /// out `[1, 2]` against the serial `[2, 1]`.
    #[test]
    fn equal_timestamp_messages_apply_in_posting_order() {
        let serial = tie_break_run(1);
        assert_eq!(serial, vec![2, 1], "serial executes in posting order");
        assert_eq!(tie_break_run(3), serial, "sharded tie-break diverged");
    }

    /// `nodes` spinning nodes on the unit world (unbounded lookahead: one
    /// window) under an event budget of 300. Node `i` advances `step(i)` ns
    /// per iteration and, when `stop(i)` is `Some(n)`, returns after `n`.
    fn budget_run(
        shards: usize,
        nodes: usize,
        step: fn(usize) -> u64,
        stop: fn(usize) -> Option<usize>,
    ) -> Result<SimReport<()>, SimError> {
        let mut sim = Sim::new((), 0);
        sim.set_event_budget(300);
        for i in 0..nodes {
            let (d, n) = (Dur::ns(step(i)), stop(i).unwrap_or(usize::MAX));
            sim.spawn(format!("spin{i}"), move |ctx| {
                for _ in 0..n {
                    ctx.advance(d);
                }
            });
        }
        if shards <= 1 {
            sim.run()
        } else {
            sim.run_parallel(shards)
        }
    }

    /// [`budget_run`]'s `(at, budget)` trip, under [`within_deadline`].
    fn trip(
        shards: usize,
        nodes: usize,
        step: fn(usize) -> u64,
        stop: fn(usize) -> Option<usize>,
    ) -> (Time, u64) {
        let r = within_deadline("budget run", move || budget_run(shards, nodes, step, stop));
        match r {
            Err(SimError::EventBudgetExhausted { at, budget }) => (at, budget),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    /// Serial and parallel runs of a workload that never ends both trip
    /// the event budget, within the deadline, and report the same budget
    /// value; the one-shard trip keeps its pinned clock. (It checks the verdict, not how many
    /// events ran: a sharded window may run up to `shards ×` the budget
    /// left, see the module docs.)
    #[test]
    fn budget_error_pins_same_value_serial_and_parallel() {
        let run = |shards| trip(shards, 4, |_| 1, |_| None);
        // One shard has no window horizon, so `at` is its clock when the
        // budget ran out — pinned to the value the engine has always given.
        assert_eq!(run(1), (Time(74), 300));
        for shards in [2, 4] {
            assert_eq!(run(shards).1, 300, "shards={shards}");
        }
    }

    /// A sharded budget trip reports one `(at, budget)` per configuration,
    /// however the shards' threads interleave: with even loads and with
    /// uneven ones (different step sizes, and nodes that finish early so
    /// their shard drains before the others trip). A run-wide atomic
    /// reported the clock of whichever shard charged it last.
    #[test]
    fn sharded_budget_trip_is_deterministic() {
        type Load = (usize, fn(usize) -> u64, fn(usize) -> Option<usize>);
        let loads: [(&str, Load); 2] = [
            ("even", (4, |_| 1, |_| None)),
            (
                "uneven",
                (6, |i| 1 + i as u64 % 3, |i| (i < 2).then_some(10 * (i + 1))),
            ),
        ];
        for (name, (nodes, step, stop)) in loads {
            for shards in [2, 3, 4] {
                let first = trip(shards, nodes, step, stop);
                assert_eq!(first.1, 300);
                for _ in 1..20 {
                    assert_eq!(
                        trip(shards, nodes, step, stop),
                        first,
                        "{name} load, shards={shards}"
                    );
                }
            }
        }
    }

    /// The parking half of the barrier wait: the peer shard drains and
    /// waits at the barrier while the bad node holds its host thread for
    /// far longer than [`SPIN_BUDGET`], so the peer has stopped spinning
    /// and parked by the time the panic ends the run. The run must still
    /// report the panic (`parallel_node_panic_is_reported` covers a peer
    /// that is still spinning).
    #[test]
    fn parallel_node_panic_reaches_a_parked_peer() {
        let mut sim = Sim::new((), 0);
        sim.spawn("slow-bad", |ctx| {
            ctx.advance(Dur::ns(1));
            std::thread::sleep(std::time::Duration::from_millis(5));
            panic!("boom");
        });
        sim.spawn("done-early", |ctx| ctx.advance(Dur::ns(1)));
        match within_deadline("sharded panicking run", move || sim.run_parallel(2)) {
            Err(SimError::NodePanicked { node, message }) => {
                assert_eq!(node, "slow-bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected node panic, got {other:?}"),
        }
    }

    /// One-shard teardown: a node panics after its first real yield while
    /// one sibling is parked and another is asleep. The run reports the
    /// panicking node, and every node thread has unwound and been joined
    /// by the time `run` returns, within the deadline.
    #[test]
    fn one_shard_panic_tears_down_parked_and_sleeping_siblings() {
        use std::sync::atomic::AtomicUsize;
        struct Unwound(Arc<AtomicUsize>);
        impl Drop for Unwound {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let unwound = Arc::new(AtomicUsize::new(0));
        let mut sim = Sim::new((), 0);
        let u = unwound.clone();
        sim.spawn("parked", move |ctx| {
            let _u = Unwound(u);
            ctx.park();
            unreachable!("nothing unparks this node");
        });
        let u = unwound.clone();
        sim.spawn("sleeping", move |ctx| {
            let _u = Unwound(u);
            ctx.advance(Dur::us(1_000.0));
        });
        let u = unwound.clone();
        sim.spawn("bad", move |ctx| {
            let _u = Unwound(u);
            ctx.advance(Dur::us(2.0));
            panic!("boom");
        });
        match within_deadline("one-shard teardown", move || sim.run()) {
            Err(SimError::NodePanicked { node, message }) => {
                assert_eq!(node, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected node panic, got {other:?}"),
        }
        assert_eq!(
            unwound.load(Ordering::SeqCst),
            3,
            "a node thread outlived run"
        );
    }

    #[test]
    fn cross_shard_run_reports_windows_and_sync_events() {
        let mut sim = Sim::new(Mailboxes::new(4), 3);
        for i in 0..4 {
            let dst = (i + 1) % 4;
            sim.spawn(format!("m{i}"), move |ctx| {
                for _ in 0..10 {
                    ctx.advance(Dur::ns(250));
                    ctx.schedule_hot(Dur::ZERO, Mailboxes::post, dst as u64, 0);
                }
                ctx.advance(Dur::ns(MAIL_LAT * 2));
            });
        }
        let r = sim.run_parallel(2).unwrap();
        assert!(r.windows > 0, "bounded lookahead must use windows");
        assert!(r.sync_events > 0, "ring traffic crosses the shard cut");
        assert_eq!(r.world.counts.iter().sum::<u64>(), 40);
    }
}
