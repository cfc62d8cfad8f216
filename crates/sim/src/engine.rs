//! The discrete-event engine's state: event queue, per-node scheduler
//! state, event dispatch, the [`Sim`] builder and its [`SimReport`]. The
//! drive loop that runs it — [`Sim::run`] and [`Sim::run_parallel`] —
//! lives in the `parallel` module.

use crate::node::{NodeCtx, WakeReason};
use crate::time::{Dur, Time};
use parking_lot::Mutex;
use sp_trace::{Kind as TraceKind, Tracer, Track};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Identifier of a node program (dense, `0..num_nodes`, in spawn order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

pub(crate) type WakeEpoch = u64;

/// Boxed engine-side event callback.
pub(crate) type EventFn<W> = Box<dyn FnOnce(&mut EventCtx<'_, W>) + Send + 'static>;

/// Allocation-free engine-side event callback: a plain `fn` pointer plus
/// two integer arguments (see [`EventCtx::schedule_hot`]).
pub type HotFn<W> = fn(&mut EventCtx<'_, W>, u64, u64);

/// Event payload.
pub(crate) enum EvKind<W: Send + 'static> {
    /// Resume node `node` if its epoch still matches.
    Wake {
        node: NodeId,
        epoch: WakeEpoch,
        reason: WakeReason,
    },
    /// Run an arbitrary engine-side closure (hardware model step).
    Call(EventFn<W>),
    /// Run a plain `fn` with two integer arguments. Unlike [`EvKind::Call`]
    /// this allocates nothing: the whole payload lives inline in the event
    /// heap entry. Used by recurring hardware events (firmware steps, packet
    /// delivery) on the hot path.
    Hot { f: HotFn<W>, a: u64, b: u64 },
    /// Parallel-mode sibling of [`EvKind::Call`]: an inter-shard message
    /// applied as an event on the destination shard. Executes identically to
    /// `Call` but is charged to `sync_events` instead of `events`, so a
    /// parallel run reports the same `events` as its serial twin and the
    /// synchronization overhead stays separately observable.
    SyncCall(EventFn<W>),
    /// Parallel-mode sibling of [`EvKind::Hot`] (see [`EvKind::SyncCall`]).
    SyncHot { f: HotFn<W>, a: u64, b: u64 },
}

impl<W: Send + 'static> EvKind<W> {
    pub(crate) fn call(f: impl FnOnce(&mut EventCtx<'_, W>) + Send + 'static) -> Self {
        EvKind::Call(Box::new(f))
    }

    pub(crate) fn sync_call(f: impl FnOnce(&mut EventCtx<'_, W>) + Send + 'static) -> Self {
        EvKind::SyncCall(Box::new(f))
    }

    /// True for the parallel-mode synchronization variants (charged to
    /// `sync_events`, not `events`).
    pub(crate) fn is_sync(&self) -> bool {
        matches!(self, EvKind::SyncCall(_) | EvKind::SyncHot { .. })
    }
}

pub(crate) struct Ev<W: Send + 'static> {
    pub(crate) time: Time,
    pub(crate) seq: u64,
    pub(crate) kind: EvKind<W>,
}

impl<W: Send + 'static> PartialEq for Ev<W> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<W: Send + 'static> Eq for Ev<W> {}
impl<W: Send + 'static> PartialOrd for Ev<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W: Send + 'static> Ord for Ev<W> {
    /// Reversed so `BinaryHeap` (a max-heap) pops the *earliest* event;
    /// ties break by insertion sequence for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Pending-event state.
pub(crate) struct Sched<W: Send + 'static> {
    queue: BinaryHeap<Ev<W>>,
    seq: u64,
}

impl<W: Send + 'static> Sched<W> {
    pub(crate) fn push(&mut self, time: Time, kind: EvKind<W>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Ev { time, seq, kind });
    }

    pub(crate) fn new() -> Self {
        Sched {
            queue: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Earliest pending event time, if any.
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.queue.peek().map(|ev| ev.time)
    }

    /// Pop the earliest event if it falls strictly before `horizon`.
    pub(crate) fn pop_before(&mut self, horizon: Time) -> Option<Ev<W>> {
        if self.queue.peek().is_some_and(|ev| ev.time < horizon) {
            self.queue.pop()
        } else {
            None
        }
    }

    /// Pending events (heap depth), for telemetry gauges.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NState {
    Startup,
    Running,
    Sleeping,
    Parked,
    SleepInt,
    Done,
}

pub(crate) struct NodeMeta {
    pub(crate) name: String,
    pub(crate) state: NState,
    pub(crate) epoch: WakeEpoch,
    pub(crate) signal: bool,
    /// An unpark Wake for the current epoch is already queued; further
    /// unparks before it fires coalesce into it instead of pushing
    /// duplicate (stale-on-arrival) events.
    pub(crate) unpark_queued: bool,
    /// Unparks absorbed by an already-queued wake (observability).
    pub(crate) coalesced: u64,
}

impl NodeMeta {
    pub(crate) fn new(name: String) -> NodeMeta {
        NodeMeta {
            name,
            state: NState::Startup,
            epoch: 0,
            signal: false,
            unpark_queued: false,
            coalesced: 0,
        }
    }
}

/// Shard-local bookkeeping hung off [`Inner`] when it is one shard of a
/// run with two or more (`None` in a one-shard run).
pub(crate) struct ShardSlot {
    /// This shard's index.
    pub(crate) id: usize,
    /// Node→shard ownership map shared by all shards.
    pub(crate) owner: Arc<Vec<usize>>,
    /// Unparks aimed at nodes owned by other shards, deferred to the next
    /// window barrier (timestamped with the local clock at call time).
    pub(crate) remote_unparks: Vec<(NodeId, Time)>,
    /// True while a broadcast world event (a [`Sim::schedule_call_at`]
    /// replica, pre-loaded into every shard) is executing. In that mode
    /// unparks aimed at non-owned nodes are dropped — the owning shard's own
    /// replica delivers them — and follow-up events the closure schedules
    /// inherit broadcast mode (counted on shard 0, sync elsewhere) so the
    /// run-wide `events` total matches the serial twin.
    pub(crate) broadcast: bool,
}

/// Run-wide event budget shared by every shard of a run. Counts only
/// serial-comparable events (wakes, calls, fast-path advances) — never
/// `sync_events`, which are pure parallel overhead — so a sharded run trips
/// [`SimError::EventBudgetExhausted`](crate::SimError::EventBudgetExhausted)
/// at the same event count as a one-shard run instead of `num_shards`×
/// later.
pub(crate) struct GlobalBudget {
    pub(crate) limit: u64,
    pub(crate) used: std::sync::atomic::AtomicU64,
}

impl GlobalBudget {
    pub(crate) fn new(limit: u64) -> Self {
        GlobalBudget {
            limit,
            used: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Charge one event; `false` once the budget is exceeded. The caller on
    /// this path is about to fail the run, so the overshoot is not undone.
    pub(crate) fn charge(&self) -> bool {
        use std::sync::atomic::Ordering;
        self.used.fetch_add(1, Ordering::Relaxed) < self.limit
    }

    /// Charge one event if the budget allows, undoing the reservation and
    /// returning `false` otherwise. Fast paths use this: a refusal falls
    /// back to a real scheduled event, which then trips the budget on the
    /// slow path with identical accounting.
    pub(crate) fn try_charge(&self) -> bool {
        use std::sync::atomic::Ordering;
        if self.used.fetch_add(1, Ordering::Relaxed) < self.limit {
            true
        } else {
            self.used.fetch_sub(1, Ordering::Relaxed);
            false
        }
    }
}

pub(crate) struct Inner<W: Send + 'static> {
    pub(crate) world: W,
    pub(crate) now: Time,
    pub(crate) sched: Sched<W>,
    pub(crate) nodes: Vec<NodeMeta>,
    /// Events executed so far — engine-loop pops *and* fast-path advances
    /// (each fast advance stands in for exactly one elided Wake event).
    pub(crate) events: u64,
    /// Synchronization events executed (inter-shard message deliveries).
    /// Kept out of `events` so one-shard and sharded runs of the same
    /// config report identical `events`.
    pub(crate) sync_events: u64,
    /// Run-wide budget, shared by all shards and with the fast path, so a
    /// zero-cost spin loop still trips
    /// [`SimError::EventBudgetExhausted`](crate::SimError::EventBudgetExhausted)
    /// instead of livelocking. Charged for serial-comparable events only.
    pub(crate) budget: Arc<GlobalBudget>,
    /// Conservative-advance horizon: node fast paths may not move virtual
    /// time to or past it, and the drive loop only pops events strictly
    /// before it. `Time::MAX` in a one-shard run (no constraint).
    pub(crate) horizon: Time,
    /// Present iff this `Inner` is one shard of a run with two or more.
    pub(crate) shard: Option<ShardSlot>,
    /// Trace recorder; `None` (the default) keeps every hook down to a
    /// single branch so the fast path stays allocation-free.
    pub(crate) tracer: Option<Tracer>,
}

/// One shard's engine state, shared by the threads that take turns driving
/// it. All access is serialized both by the mutex and, more fundamentally,
/// by the baton discipline (one thread per shard executes at a time).
pub(crate) struct Shared<W: Send + 'static> {
    pub(crate) inner: Mutex<Inner<W>>,
}

pub(crate) fn unpark_inner<W: Send + 'static>(
    sched: &mut Sched<W>,
    nodes: &mut [NodeMeta],
    shard: &mut Option<ShardSlot>,
    target: NodeId,
    now: Time,
    tracer: &Option<Tracer>,
) {
    if let Some(s) = shard {
        if s.owner[target.0] != s.id {
            if s.broadcast {
                // Broadcast world events run as a replica on every shard;
                // the owner's replica unparks this node locally, so a
                // cross-shard deferral here would deliver it twice.
                return;
            }
            // Cross-shard unpark: defer to the window barrier, which applies
            // it on the owning shard at `max(now, that shard's clock)`.
            s.remote_unparks.push((target, now));
            return;
        }
    }
    let meta = &mut nodes[target.0];
    match meta.state {
        NState::Parked | NState::SleepInt => {
            if meta.unpark_queued {
                // A wake for this epoch is already in flight; pushing another
                // would only produce a stale event. Coalesce instead.
                meta.coalesced += 1;
                if let Some(t) = tracer {
                    t.counter(
                        now.as_ns(),
                        Track::program(target.0),
                        TraceKind::WakeCoalesced,
                        meta.coalesced,
                    );
                }
                return;
            }
            meta.unpark_queued = true;
            sched.push(
                now,
                EvKind::Wake {
                    node: target,
                    epoch: meta.epoch,
                    reason: WakeReason::Unparked,
                },
            );
            if let Some(t) = tracer {
                t.instant(
                    now.as_ns(),
                    Track::program(target.0),
                    TraceKind::NodeUnpark,
                    0,
                );
            }
        }
        NState::Startup | NState::Running | NState::Sleeping => {
            meta.signal = true;
        }
        NState::Done => {}
    }
}

impl<W: Send + 'static> Shared<W> {
    pub(crate) fn with_world<R>(&self, f: impl FnOnce(&mut W) -> R) -> R {
        f(&mut self.inner.lock().world)
    }

    /// Zero-handoff advance: move virtual time to `until` without yielding
    /// the baton, provided nothing else could possibly run first.
    ///
    /// While a node program runs it holds its shard's baton, so no other
    /// thread drives the shard and this lock is uncontended: the check is
    /// one lock acquire instead of a trip through the drive loop. The fast
    /// path applies only when (a) no pending event falls at or before
    /// `until` (strictly: same-time events were pushed with smaller
    /// sequence numbers and must run before a Wake would), (b) no unpark
    /// signal is latched for this node, and (c) the event budget is not
    /// exhausted — each fast advance replaces exactly one Wake event and is
    /// charged against the budget.
    pub(crate) fn try_fast_advance(&self, id: NodeId, until: Time) -> bool {
        let mut inner = self.inner.lock();
        if inner.nodes[id.0].signal
            || until >= inner.horizon
            || inner.sched.queue.peek().is_some_and(|ev| ev.time <= until)
            || !inner.budget.try_charge()
        {
            return false;
        }
        inner.events += 1;
        debug_assert!(until >= inner.now, "fast advance went backwards");
        if let Some(t) = &inner.tracer {
            t.span(
                inner.now.as_ns(),
                until.as_ns(),
                Track::program(id.0),
                TraceKind::NodeAdvance,
                1,
            );
        }
        inner.now = until;
        true
    }

    /// Run a world closure and attempt the fast-path advance for the
    /// duration it returns, all under a single lock acquire. Returns the
    /// closure result, the computed wake time, and whether the fast path
    /// was taken (if not, the caller must fall back to a normal sleep).
    pub(crate) fn world_charge<R>(
        &self,
        id: NodeId,
        now: Time,
        f: impl FnOnce(&mut W) -> (R, Dur),
    ) -> (R, Time, bool) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let (r, d) = f(&mut inner.world);
        let until = now + d;
        if d == Dur::ZERO {
            // Nothing to charge: never yields, never counts an event.
            return (r, until, true);
        }
        let fast = !inner.nodes[id.0].signal
            && until < inner.horizon
            && inner.sched.queue.peek().is_none_or(|ev| ev.time > until)
            && inner.budget.try_charge();
        if fast {
            inner.events += 1;
            if let Some(t) = &inner.tracer {
                t.span(
                    now.as_ns(),
                    until.as_ns(),
                    Track::program(id.0),
                    TraceKind::NodeAdvance,
                    1,
                );
            }
            inner.now = until;
        }
        (r, until, fast)
    }

    pub(crate) fn schedule(&self, at: Time, kind: EvKind<W>) {
        self.inner.lock().sched.push(at, kind);
    }

    pub(crate) fn take_signal(&self, id: NodeId) -> bool {
        let mut inner = self.inner.lock();
        let sig = inner.nodes[id.0].signal;
        inner.nodes[id.0].signal = false;
        sig
    }

    pub(crate) fn note_sleep(&self, id: NodeId, until: Time) {
        let mut inner = self.inner.lock();
        let epoch = inner.nodes[id.0].epoch;
        inner.nodes[id.0].state = NState::Sleeping;
        if let Some(t) = &inner.tracer {
            // While a node runs, `inner.now` tracks its local clock, so the
            // slow-path advance spans `[inner.now, until)`.
            t.span(
                inner.now.as_ns(),
                until.as_ns(),
                Track::program(id.0),
                TraceKind::NodeAdvance,
                0,
            );
        }
        inner.sched.push(
            until,
            EvKind::Wake {
                node: id,
                epoch,
                reason: WakeReason::Timeout,
            },
        );
    }

    pub(crate) fn note_park(&self, id: NodeId, timeout: Option<Time>) {
        let mut inner = self.inner.lock();
        let epoch = inner.nodes[id.0].epoch;
        if let Some(t) = &inner.tracer {
            t.instant(
                inner.now.as_ns(),
                Track::program(id.0),
                TraceKind::NodePark,
                timeout.is_some() as u64,
            );
        }
        match timeout {
            None => inner.nodes[id.0].state = NState::Parked,
            Some(until) => {
                inner.nodes[id.0].state = NState::SleepInt;
                inner.sched.push(
                    until,
                    EvKind::Wake {
                        node: id,
                        epoch,
                        reason: WakeReason::Timeout,
                    },
                );
            }
        }
    }

    pub(crate) fn unpark(&self, target: NodeId, now: Time) {
        let inner = &mut *self.inner.lock();
        unpark_inner(
            &mut inner.sched,
            &mut inner.nodes,
            &mut inner.shard,
            target,
            now,
            &inner.tracer,
        );
    }

    pub(crate) fn note_done(&self, id: NodeId) {
        self.inner.lock().nodes[id.0].state = NState::Done;
    }
}

/// Context handed to engine-side event closures (hardware model steps).
///
/// Unlike node programs, event closures execute instantaneously in virtual
/// time; they mutate the world, schedule further events, and wake nodes.
pub struct EventCtx<'a, W: Send + 'static> {
    now: Time,
    world: &'a mut W,
    sched: &'a mut Sched<W>,
    nodes: &'a mut Vec<NodeMeta>,
    shard: &'a mut Option<ShardSlot>,
    tracer: &'a Option<Tracer>,
}

impl<'a, W: Send + 'static> EventCtx<'a, W> {
    /// Virtual time of this event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The installed trace recorder, if any (see [`Sim::set_tracer`]).
    #[inline]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The simulated hardware state.
    #[inline]
    pub fn world(&mut self) -> &mut W {
        self.world
    }

    /// `Some(is_primary_shard)` while the currently-executing event is a
    /// broadcast world-event replica (see [`ShardSlot::broadcast`]); `None`
    /// otherwise. Shard 0 is the primary: its replica's events count as
    /// ordinary `events`, every other shard's as `sync_events`.
    fn in_broadcast(&self) -> Option<bool> {
        self.shard
            .as_ref()
            .filter(|s| s.broadcast)
            .map(|s| s.id == 0)
    }

    /// Push a closure event, wrapping it for broadcast inheritance when the
    /// current event is itself a broadcast replica.
    fn push_call(&mut self, at: Time, f: impl FnOnce(&mut EventCtx<'_, W>) + Send + 'static) {
        match self.in_broadcast() {
            None => self.sched.push(at, EvKind::call(f)),
            Some(primary) => {
                let g = move |e: &mut EventCtx<'_, W>| broadcast_exec(e, f);
                let kind = if primary {
                    EvKind::call(g)
                } else {
                    EvKind::sync_call(g)
                };
                self.sched.push(at, kind);
            }
        }
    }

    /// Schedule a follow-up event `after` from now.
    pub fn schedule(&mut self, after: Dur, f: impl FnOnce(&mut EventCtx<'_, W>) + Send + 'static) {
        self.push_call(self.now + after, f);
    }

    /// Schedule a follow-up event at absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: Time, f: impl FnOnce(&mut EventCtx<'_, W>) + Send + 'static) {
        let at = at.max(self.now);
        self.push_call(at, f);
    }

    /// Schedule an allocation-free event `after` from now: a plain `fn`
    /// pointer called with two integer arguments. Recurring hardware events
    /// (firmware steps, packet delivery) use this instead of
    /// [`EventCtx::schedule`] so the per-event closure allocation disappears
    /// from the hot path; anything larger than two words parks in world
    /// state (e.g. a packet slab) and travels as a slot index.
    pub fn schedule_hot(&mut self, after: Dur, f: HotFn<W>, a: u64, b: u64) {
        let at = self.now + after;
        if self.in_broadcast().is_some() {
            // Broadcast follow-ups need the closure wrapper for mode
            // inheritance; broadcast events are rare, so the allocation is
            // irrelevant here.
            self.push_call(at, move |e| f(e, a, b));
        } else {
            self.sched.push(at, EvKind::Hot { f, a, b });
        }
    }

    /// Schedule an allocation-free event at absolute time `at` (clamped to
    /// now). See [`EventCtx::schedule_hot`].
    pub fn schedule_hot_at(&mut self, at: Time, f: HotFn<W>, a: u64, b: u64) {
        let at = at.max(self.now);
        if self.in_broadcast().is_some() {
            self.push_call(at, move |e| f(e, a, b));
        } else {
            self.sched.push(at, EvKind::Hot { f, a, b });
        }
    }

    /// Schedule an allocation-free *synchronization* event at absolute time
    /// `at` (clamped to now): executes exactly like
    /// [`EventCtx::schedule_hot_at`] but is charged to the run's
    /// `sync_events` counter instead of `events`. Parallel-mode world models
    /// use this for the local leg of a lookahead-shifted hand-off so the
    /// shift stays invisible in the serial-comparable event count.
    pub fn schedule_sync_hot_at(&mut self, at: Time, f: HotFn<W>, a: u64, b: u64) {
        let at = at.max(self.now);
        self.sched.push(at, EvKind::SyncHot { f, a, b });
    }

    /// Unpark a node program (see [`NodeCtx::unpark`](crate::NodeCtx::unpark)).
    pub fn unpark(&mut self, target: NodeId) {
        unpark_inner(
            self.sched,
            self.nodes,
            self.shard,
            target,
            self.now,
            self.tracer,
        );
    }
}

/// Barrier-replayed cross-shard unpark (see `SyncCore::barrier` in the
/// parallel module). If a wake for `target` is already in flight on this
/// shard, re-queue behind it (same time, later sequence number) so this
/// unpark lands only after the target consumed the earlier wake — the
/// serial interleaving always runs the target between two of its unparks.
/// Coalescing here (the right behavior for racing *local* unparks) would
/// lose a wake the serial run delivers and deadlock the target.
pub(crate) fn replay_unpark<W: Send + 'static>(e: &mut EventCtx<'_, W>, target: NodeId) {
    let meta = &e.nodes[target.0];
    let wake_in_flight =
        matches!(meta.state, NState::Parked | NState::SleepInt) && meta.unpark_queued;
    if wake_in_flight {
        e.sched
            .push(e.now, EvKind::sync_call(move |e| replay_unpark(e, target)));
    } else {
        e.unpark(target);
    }
}

/// Run `f` with the shard's broadcast flag raised (restoring it after), so
/// unpark suppression and follow-up wrapping apply for the closure's whole
/// execution. No-op marker in a one-shard run (no shard slot).
pub(crate) fn broadcast_exec<W: Send + 'static>(
    e: &mut EventCtx<'_, W>,
    f: impl FnOnce(&mut EventCtx<'_, W>),
) {
    let prev = match e.shard.as_mut() {
        Some(s) => std::mem::replace(&mut s.broadcast, true),
        None => false,
    };
    f(e);
    if let Some(s) = e.shard.as_mut() {
        s.broadcast = prev;
    }
}

/// Shared pre-run world event (see [`Sim::schedule_call_at`]): stored as a
/// cloneable `Arc<dyn Fn>` so a sharded run can pre-load a replica into
/// every shard's queue.
pub(crate) type InitialFn<W> = Arc<dyn Fn(&mut EventCtx<'_, W>) + Send + Sync + 'static>;

/// Build the event kind for one shard's replica of a broadcast world event:
/// counted on the primary shard, a sync event elsewhere, broadcast-wrapped
/// on both.
pub(crate) fn broadcast_kind<W: Send + 'static>(f: InitialFn<W>, primary: bool) -> EvKind<W> {
    let g = move |e: &mut EventCtx<'_, W>| broadcast_exec(e, |e| f(e));
    if primary {
        EvKind::call(g)
    } else {
        EvKind::sync_call(g)
    }
}

/// Execute a non-`Wake` event against `inner` at virtual time `at` (the
/// drive loop handles wakes itself).
pub(crate) fn exec_event<W: Send + 'static>(inner: &mut Inner<W>, at: Time, kind: EvKind<W>) {
    match kind {
        EvKind::Call(f) | EvKind::SyncCall(f) => {
            if let Some(t) = &inner.tracer {
                t.instant(at.as_ns(), Track::ENGINE, TraceKind::EngineCall, 0);
            }
            let mut ectx = EventCtx {
                now: at,
                world: &mut inner.world,
                sched: &mut inner.sched,
                nodes: &mut inner.nodes,
                shard: &mut inner.shard,
                tracer: &inner.tracer,
            };
            f(&mut ectx);
        }
        EvKind::Hot { f, a, b } | EvKind::SyncHot { f, a, b } => {
            if let Some(t) = &inner.tracer {
                t.instant(at.as_ns(), Track::ENGINE, TraceKind::EngineHot, a);
            }
            let mut ectx = EventCtx {
                now: at,
                world: &mut inner.world,
                sched: &mut inner.sched,
                nodes: &mut inner.nodes,
                shard: &mut inner.shard,
                tracer: &inner.tracer,
            };
            f(&mut ectx, a, b);
        }
        EvKind::Wake { .. } => unreachable!("wake events are handled by the caller"),
    }
}

pub(crate) type Prog<W> = Box<dyn FnOnce(&mut NodeCtx<W>) + Send + 'static>;

/// A configured simulation: world state plus node programs, ready to run.
pub struct Sim<W: Send + 'static> {
    pub(crate) world: Option<W>,
    pub(crate) seed: u64,
    pub(crate) event_budget: u64,
    pub(crate) programs: Vec<(String, Prog<W>)>,
    pub(crate) initial: Vec<(Time, InitialFn<W>)>,
    pub(crate) tracer: Option<Tracer>,
}

/// Per-shard slice of a parallel run's accounting (see
/// [`SimReport::shards`]). Empty in serial runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index (`0..num_shards`).
    pub shard: usize,
    /// Node programs owned by this shard.
    pub nodes: usize,
    /// Serial-comparable events this shard executed (wakes + calls +
    /// fast-path advances).
    pub events: u64,
    /// Synchronization events this shard executed (inter-shard message
    /// deliveries) — pure parallel-mode overhead.
    pub sync_events: u64,
}

/// PDES profile of a parallel run: how well the conservative lookahead
/// windows were used, and how evenly the load spread across shards.
///
/// All stored fields are integers (virtual nanoseconds and counts) so the
/// profile is `Eq`-comparable and bit-deterministic; percentages and ratios
/// are derived on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardProfile {
    /// Conservative lookahead windows (barrier rounds) the run used.
    pub windows: u64,
    /// Total windowed virtual time: the sum of every window's width, ns.
    /// (Unbounded-lookahead windows are measured to the latest shard's
    /// arrival clock instead of the infinite horizon.)
    pub window_ns: u64,
    /// Per-shard busy time: virtual ns from each window's start to the
    /// shard's local clock at barrier arrival, summed over windows.
    pub busy_ns: Vec<u64>,
    /// Per-shard serial-comparable events.
    pub events: Vec<u64>,
    /// Per-shard synchronization events (cross-shard deliveries).
    pub sync_events: Vec<u64>,
    /// Per-shard count of windows in which the shard executed at least one
    /// event (the rest were pure barrier waits).
    pub active_windows: Vec<u64>,
}

impl ShardProfile {
    /// Number of shards profiled.
    pub fn num_shards(&self) -> usize {
        self.busy_ns.len()
    }

    /// Fraction of the total windowed time shard `s` spent busy,
    /// `0.0..=1.0`.
    pub fn window_utilization(&self, s: usize) -> f64 {
        if self.window_ns == 0 {
            return 0.0;
        }
        self.busy_ns[s] as f64 / self.window_ns as f64
    }

    /// Max-over-mean ratio of per-shard event counts (1.0 = perfectly
    /// balanced).
    pub fn event_imbalance(&self) -> f64 {
        imbalance(&self.events)
    }

    /// Max-over-mean ratio of per-shard busy time.
    pub fn time_imbalance(&self) -> f64 {
        imbalance(&self.busy_ns)
    }

    /// Synchronization events as a fraction of all executed events,
    /// `0.0..=1.0` — the pure parallel-mode overhead.
    pub fn sync_ratio(&self) -> f64 {
        let events: u64 = self.events.iter().sum();
        let sync: u64 = self.sync_events.iter().sum();
        if events + sync == 0 {
            return 0.0;
        }
        sync as f64 / (events + sync) as f64
    }

    /// The shard with the most busy time — the one gating every barrier.
    pub fn critical_shard(&self) -> usize {
        self.busy_ns
            .iter()
            .enumerate()
            .max_by_key(|&(i, &b)| (b, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Compact one-line rendering, e.g.
    /// `util [93 91 88 90]%, events [1200 1180 1210 1190], imbalance 1.01x ev / 1.03x time, sync 2.1%, critical shard 0`.
    pub fn summary(&self) -> String {
        let utils: Vec<String> = (0..self.num_shards())
            .map(|s| format!("{:.0}", 100.0 * self.window_utilization(s)))
            .collect();
        let events: Vec<String> = self.events.iter().map(|e| e.to_string()).collect();
        format!(
            "util [{}]%, events [{}], imbalance {:.2}x ev / {:.2}x time, sync {:.1}%, critical shard {}",
            utils.join(" "),
            events.join(" "),
            self.event_imbalance(),
            self.time_imbalance(),
            100.0 * self.sync_ratio(),
            self.critical_shard(),
        )
    }
}

/// Max-over-mean of a count vector; 1.0 when empty or all-zero.
fn imbalance(v: &[u64]) -> f64 {
    let sum: u64 = v.iter().sum();
    if v.is_empty() || sum == 0 {
        return 1.0;
    }
    let mean = sum as f64 / v.len() as f64;
    *v.iter().max().unwrap() as f64 / mean
}

/// The outcome of a completed simulation.
#[derive(Debug)]
pub struct SimReport<W> {
    /// Final world state.
    pub world: W,
    /// Virtual time of the last executed event.
    pub end_time: Time,
    /// Number of events executed (wakes + calls + fast-path advances).
    pub events: u64,
    /// Unparks absorbed into an already-queued wake instead of producing a
    /// duplicate (stale) event, summed over all nodes.
    pub wakes_coalesced: u64,
    /// Per-shard accounting of a parallel run; empty for serial runs.
    pub shards: Vec<ShardReport>,
    /// Shard count the caller asked [`Sim::run_parallel`] for, before the
    /// clamp to the node count. Zero for serial runs; when it differs from
    /// `shards.len()` the profile describes fewer shards than requested
    /// (flagged in the experiment binaries' `[parallel]` summary line).
    pub shards_requested: usize,
    /// Total synchronization events (inter-shard message deliveries) across
    /// all shards. Zero for serial runs; the null-message overhead of a
    /// parallel run is `sync_events + windows` relative to its serial twin.
    pub sync_events: u64,
    /// Conservative lookahead windows (barrier rounds) the parallel run
    /// used. Zero for serial runs.
    pub windows: u64,
    /// Unparks that crossed a shard boundary and were applied at a window
    /// barrier. Zero for serial runs.
    pub cross_unparks: u64,
    /// PDES profile of a parallel run (window utilization, load imbalance,
    /// sync overhead). `None` for serial runs.
    pub profile: Option<ShardProfile>,
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
}

impl<W> SimReport<W> {
    /// Simulated events per wall-clock second (engine throughput).
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

impl<W: Send + 'static> Sim<W> {
    /// Create a simulation over `world`, with `seed` driving all per-node
    /// RNG streams.
    pub fn new(world: W, seed: u64) -> Self {
        Sim {
            world: Some(world),
            seed,
            event_budget: u64::MAX,
            programs: Vec::new(),
            initial: Vec::new(),
            tracer: None,
        }
    }

    /// Install a trace recorder: every layer with trace hooks (engine,
    /// adapter, switch, protocol) records into it for the whole run. Keep a
    /// clone to read the trace back after [`Sim::run`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Cap the number of events executed; exceeding it aborts the run with
    /// [`crate::SimError::EventBudgetExhausted`]. Useful against livelocks.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Mutable access to the world before the run starts (e.g. to install
    /// fault injectors).
    pub fn world_mut(&mut self) -> &mut W {
        self.world.as_mut().expect("world present before run")
    }

    /// Schedule an event to run at virtual time `at`, before the run starts.
    /// Fault harnesses use this to mutate the world mid-run at precise
    /// virtual instants (shrink a FIFO, stall an engine) without involving
    /// any node program.
    ///
    /// The closure must be `Fn` (not `FnOnce`): in a parallel run it is
    /// broadcast to every shard and executes once per shard against that
    /// shard's world copy, at exactly virtual time `at`, so sharded worlds
    /// observe the mutation identically to the serial run. Only shard 0's
    /// replica counts toward `events`; the others are `sync_events`.
    pub fn schedule_call_at(
        &mut self,
        at: Time,
        f: impl Fn(&mut EventCtx<'_, W>) + Send + Sync + 'static,
    ) {
        self.initial.push((at, Arc::new(f)));
    }

    /// Register a node program. Nodes are numbered densely in spawn order
    /// and all start at virtual time zero.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        program: impl FnOnce(&mut NodeCtx<W>) + Send + 'static,
    ) -> NodeId {
        let id = NodeId(self.programs.len());
        self.programs.push((name.into(), Box::new(program)));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimError;

    #[test]
    fn empty_sim_completes() {
        let sim = Sim::new((), 0);
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, Time::ZERO);
        assert_eq!(report.events, 0);
    }

    #[test]
    fn single_node_advances_time() {
        let mut sim = Sim::new(0u32, 1);
        sim.spawn("a", |ctx| {
            ctx.advance(Dur::us(5.0));
            ctx.advance(Dur::us(7.0));
            ctx.world(|w| *w = 99);
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world, 99);
        assert_eq!(report.end_time.as_us(), 12.0);
    }

    #[test]
    fn nodes_interleave_in_time_order() {
        // Two nodes appending (node, time) tuples must interleave by time.
        let mut sim = Sim::new(Vec::<(usize, u64)>::new(), 7);
        for (i, step) in [(0usize, 3u64), (1usize, 5u64)] {
            sim.spawn(format!("n{i}"), move |ctx| {
                for _ in 0..4 {
                    ctx.advance(Dur::ns(step));
                    let t = ctx.now().as_ns();
                    ctx.world(|w| w.push((i, t)));
                }
            });
        }
        let report = sim.run().unwrap();
        let times: Vec<u64> = report.world.iter().map(|&(_, t)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "log out of time order: {:?}", report.world);
        assert_eq!(report.world.len(), 8);
    }

    #[test]
    fn same_time_events_run_in_insertion_order() {
        let mut sim = Sim::new(Vec::<u32>::new(), 0);
        sim.spawn("s", |ctx| {
            for k in 0..5u32 {
                ctx.schedule(Dur::us(1.0), move |e| e.world().push(k));
            }
            ctx.advance(Dur::us(2.0));
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn park_unpark_roundtrip() {
        let mut sim = Sim::new(Vec::<&'static str>::new(), 0);
        let waiter = NodeId(0);
        sim.spawn("waiter", |ctx| {
            let reason = ctx.park();
            assert_eq!(reason, WakeReason::Unparked);
            ctx.world(|w| w.push("woken"));
        });
        sim.spawn("waker", move |ctx| {
            ctx.advance(Dur::us(10.0));
            ctx.world(|w| w.push("waking"));
            ctx.unpark(waiter);
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world, vec!["waking", "woken"]);
        assert_eq!(report.end_time.as_us(), 10.0);
    }

    #[test]
    fn park_timeout_fires_without_unpark() {
        let mut sim = Sim::new((), 0);
        sim.spawn("t", |ctx| {
            let reason = ctx.park_timeout(Dur::us(3.0));
            assert_eq!(reason, WakeReason::Timeout);
            assert_eq!(ctx.now().as_us(), 3.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn park_timeout_fast_path_observable_in_trace() {
        // A timed park whose deadline precedes every queued event cannot be
        // unparked, so it takes the one-lock fast path (NodeAdvance span
        // with arg=1, no NodePark); one with an event inside the window
        // falls back to the real park.
        let tracer = Tracer::new(1, 1024);
        let mut sim = Sim::new((), 0);
        sim.set_tracer(tracer.clone());
        sim.spawn("t", |ctx| {
            assert_eq!(ctx.park_timeout(Dur::us(3.0)), WakeReason::Timeout);
            ctx.schedule(Dur::us(1.0), |_e| {});
            assert_eq!(ctx.park_timeout(Dur::us(3.0)), WakeReason::Timeout);
            assert_eq!(ctx.now().as_us(), 6.0);
        });
        sim.run().unwrap();
        let recs = tracer.snapshot();
        let fast: Vec<_> = recs
            .iter()
            .filter(|r| r.kind == TraceKind::NodeAdvance && r.arg == 1)
            .collect();
        assert_eq!(fast.len(), 1, "first park_timeout fast-paths: {fast:?}");
        assert_eq!((fast[0].at, fast[0].dur), (0, 3_000));
        let parks: Vec<_> = recs
            .iter()
            .filter(|r| r.kind == TraceKind::NodePark)
            .collect();
        assert_eq!(parks.len(), 1, "second park_timeout really parks");
        assert_eq!(parks[0].at, 3_000);
    }

    #[test]
    fn park_timeout_fast_path_matches_advance_accounting() {
        // An un-unparkable timed park is semantically a timed advance; the
        // fast path must keep the two identical in both virtual time and
        // event count (each fast advance stands in for one elided Wake).
        fn run(use_park: bool) -> (Time, u64) {
            let mut sim = Sim::new((), 0);
            sim.spawn("t", move |ctx| {
                for _ in 0..10 {
                    if use_park {
                        assert_eq!(ctx.park_timeout(Dur::us(3.0)), WakeReason::Timeout);
                    } else {
                        ctx.advance(Dur::us(3.0));
                    }
                }
            });
            let r = sim.run().unwrap();
            (r.end_time, r.events)
        }
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn unpark_during_sleep_is_latched() {
        let mut sim = Sim::new((), 0);
        let sleeper = NodeId(0);
        sim.spawn("sleeper", |ctx| {
            ctx.advance(Dur::us(10.0)); // unpark arrives at t=2 while asleep
            let reason = ctx.park_timeout(Dur::us(50.0));
            assert_eq!(reason, WakeReason::Unparked, "latched signal must win");
            assert_eq!(ctx.now().as_us(), 10.0, "no time may pass");
        });
        sim.spawn("poker", move |ctx| {
            ctx.advance(Dur::us(2.0));
            ctx.unpark(sleeper);
        });
        sim.run().unwrap();
    }

    #[test]
    fn deadlock_is_detected() {
        let mut sim = Sim::new((), 0);
        sim.spawn("stuck", |ctx| {
            ctx.park();
        });
        match sim.run() {
            Err(SimError::Deadlock { parked, .. }) => assert_eq!(parked, vec!["stuck".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn event_budget_stops_livelock() {
        let mut sim = Sim::new((), 0);
        sim.set_event_budget(1000);
        sim.spawn("spinner", |ctx| loop {
            ctx.advance(Dur::ZERO);
        });
        match sim.run() {
            Err(SimError::EventBudgetExhausted { budget, .. }) => assert_eq!(budget, 1000),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn node_panic_is_reported() {
        // Silence the default panic hook for this intentional panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut sim = Sim::new((), 0);
        sim.spawn("bad", |_ctx| panic!("boom"));
        let out = sim.run();
        std::panic::set_hook(prev);
        match out {
            Err(SimError::NodePanicked { node, message }) => {
                assert_eq!(node, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected node panic, got {other:?}"),
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once(seed: u64) -> (Vec<(usize, u64, u32)>, Time) {
            let mut sim = Sim::new(Vec::new(), seed);
            for i in 0..4usize {
                sim.spawn(format!("n{i}"), move |ctx| {
                    for _ in 0..16 {
                        let jitter = {
                            use rand::Rng;
                            ctx.rng().gen_range(1..100u64)
                        };
                        ctx.advance(Dur::ns(jitter));
                        let t = ctx.now().as_ns();
                        let tag = {
                            use rand::Rng;
                            ctx.rng().gen::<u32>()
                        };
                        ctx.world(|w: &mut Vec<(usize, u64, u32)>| w.push((i, t, tag)));
                    }
                });
            }
            let r = sim.run().unwrap();
            (r.world, r.end_time)
        }
        let a = run_once(1234);
        let b = run_once(1234);
        let c = run_once(9999);
        assert_eq!(a, b, "same seed must reproduce identical traces");
        assert_ne!(a.0, c.0, "different seeds should differ");
    }

    #[test]
    fn events_scheduled_from_events_chain() {
        let mut sim = Sim::new(0u64, 0);
        sim.spawn("kick", |ctx| {
            ctx.schedule(Dur::us(1.0), |e| {
                e.world();
                e.schedule(Dur::us(1.0), |e2| {
                    *e2.world() += 1;
                    e2.schedule(Dur::us(1.0), |e3| *e3.world() += 10);
                });
            });
            ctx.advance(Dur::us(10.0));
            assert_eq!(ctx.world(|w| *w), 11);
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world, 11);
    }

    #[test]
    fn wake_from_event_unparks_node() {
        let mut sim = Sim::new(false, 0);
        let n = NodeId(0);
        sim.spawn("sleepy", move |ctx| {
            ctx.schedule(Dur::us(4.0), move |e| {
                *e.world() = true;
                e.unpark(n);
            });
            let reason = ctx.park();
            assert_eq!(reason, WakeReason::Unparked);
            assert_eq!(ctx.now().as_us(), 4.0);
        });
        let report = sim.run().unwrap();
        assert!(report.world);
    }

    #[test]
    fn hot_events_interleave_with_boxed_in_order() {
        // Hot and boxed events at the same instant must run in push order.
        fn push_hot(e: &mut EventCtx<'_, Vec<u64>>, a: u64, b: u64) {
            e.world().push(a * 10 + b);
        }
        let mut sim = Sim::new(Vec::<u64>::new(), 0);
        sim.spawn("s", |ctx| {
            ctx.schedule(Dur::us(1.0), |e| e.world().push(1));
            ctx.schedule_hot(Dur::us(1.0), push_hot, 0, 2);
            ctx.schedule(Dur::us(1.0), |e| e.world().push(3));
            ctx.schedule_hot(Dur::us(1.0), push_hot, 0, 4);
            ctx.advance(Dur::us(2.0));
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world, vec![1, 2, 3, 4]);
    }

    #[test]
    fn hot_events_chain_and_wake() {
        // A hot event rescheduling itself, then unparking the node.
        fn tick(e: &mut EventCtx<'_, u64>, left: u64, node: u64) {
            *e.world() += 1;
            if left > 1 {
                e.schedule_hot(Dur::us(1.0), tick, left - 1, node);
            } else {
                e.unpark(NodeId(node as usize));
            }
        }
        let mut sim = Sim::new(0u64, 0);
        sim.spawn("waiter", |ctx| {
            ctx.schedule_hot(Dur::us(1.0), tick, 5, 0);
            assert_eq!(ctx.park(), WakeReason::Unparked);
            assert_eq!(ctx.now().as_us(), 5.0);
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world, 5);
    }

    #[test]
    fn fast_advance_matches_slow_path_timing() {
        // A node advancing across a pending event must still let the event
        // run mid-span (slow path), while spans with no pending events take
        // the fast path — and both must produce identical virtual times.
        let mut sim = Sim::new(Vec::<(u64, &'static str)>::new(), 0);
        sim.spawn("n", |ctx| {
            for _ in 0..100 {
                ctx.advance(Dur::ns(10)); // fast path: queue empty
            }
            ctx.schedule(Dur::ns(50), |e| {
                let t = e.now().as_ns();
                e.world().push((t, "event"));
            });
            ctx.advance(Dur::ns(100)); // slow path: event inside span
            let t = ctx.now().as_ns();
            ctx.world(move |w| w.push((t, "node")));
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world, vec![(1050, "event"), (1100, "node")]);
        assert_eq!(report.end_time.as_ns(), 1100);
    }

    #[test]
    fn world_then_advance_equals_world_plus_advance() {
        // The fused op must produce the same virtual times as the two-call
        // sequence it replaces.
        fn run(fused: bool) -> (Vec<u64>, Time, u64) {
            let mut sim = Sim::new(Vec::<u64>::new(), 0);
            sim.spawn("n", move |ctx| {
                for i in 0..50u64 {
                    if fused {
                        ctx.world_then_advance(|w| {
                            w.push(i);
                            ((), Dur::ns(7))
                        });
                    } else {
                        ctx.world(|w| w.push(i));
                        ctx.advance(Dur::ns(7));
                    }
                }
            });
            let r = sim.run().unwrap();
            (r.world, r.end_time, r.events)
        }
        let (wa, ta, ea) = run(true);
        let (wb, tb, eb) = run(false);
        assert_eq!(wa, wb);
        assert_eq!(ta, tb);
        assert_eq!(ea, eb, "fused op must charge the event budget identically");
    }

    #[test]
    fn world_then_advance_zero_cost_never_yields() {
        // A zero charge returns without yielding even with a same-time
        // event pending; the event runs at the next real yield.
        let mut sim = Sim::new(Vec::<&'static str>::new(), 0);
        sim.spawn("n", |ctx| {
            ctx.schedule(Dur::ZERO, |e| e.world().push("event"));
            let r = ctx.world_then_advance(|w| {
                w.push("zero-cost");
                (7u32, Dur::ZERO)
            });
            assert_eq!(r, 7);
            ctx.world(|w| w.push("still-before-event"));
            ctx.advance(Dur::ns(1));
        });
        let report = sim.run().unwrap();
        assert_eq!(
            report.world,
            vec!["zero-cost", "still-before-event", "event"]
        );
    }

    #[test]
    fn fast_advance_respects_event_budget() {
        // Fast-path advances must count against the budget too.
        let mut sim = Sim::new((), 0);
        sim.set_event_budget(500);
        sim.spawn("spinner", |ctx| loop {
            ctx.advance(Dur::ns(1)); // all fast-path: nothing else pending
        });
        match sim.run() {
            Err(SimError::EventBudgetExhausted { budget, .. }) => assert_eq!(budget, 500),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn report_carries_wall_clock_throughput() {
        let mut sim = Sim::new((), 0);
        sim.spawn("n", |ctx| {
            for _ in 0..100 {
                ctx.advance(Dur::ns(5));
            }
        });
        let report = sim.run().unwrap();
        assert!(report.wall > std::time::Duration::ZERO);
        assert!(report.events_per_sec() > 0.0);
    }

    #[test]
    fn double_unpark_coalesces() {
        let mut sim = Sim::new(0u32, 0);
        let n = NodeId(0);
        sim.spawn("target", |ctx| {
            // First park absorbs both unparks sent at t=1; second park would
            // deadlock, so use a timeout to observe the coalescing.
            assert_eq!(ctx.park(), WakeReason::Unparked);
            assert_eq!(ctx.park_timeout(Dur::us(10.0)), WakeReason::Timeout);
            ctx.world(|w| *w += 1);
        });
        sim.spawn("dbl", move |ctx| {
            ctx.advance(Dur::us(1.0));
            ctx.unpark(n);
            ctx.unpark(n);
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world, 1);
        assert_eq!(report.wakes_coalesced, 1, "second unpark must coalesce");
    }

    #[test]
    fn unpark_storm_coalesces_to_one_wake() {
        // Five unparks at the same instant to a parked node: one Wake event
        // is queued, four are absorbed, and the node still observes exactly
        // one wakeup (the park/park_timeout semantics are unchanged).
        let mut sim = Sim::new(0u32, 0);
        let n = NodeId(0);
        sim.spawn("target", |ctx| {
            assert_eq!(ctx.park(), WakeReason::Unparked);
            assert_eq!(ctx.park_timeout(Dur::us(10.0)), WakeReason::Timeout);
            ctx.world(|w| *w += 1);
        });
        sim.spawn("storm", move |ctx| {
            ctx.advance(Dur::us(1.0));
            for _ in 0..5 {
                ctx.unpark(n);
            }
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world, 1);
        assert_eq!(report.wakes_coalesced, 4);
    }

    #[test]
    fn coalesced_wake_does_not_leak_into_next_park() {
        // After the coalesced wake is consumed, a fresh unpark must queue a
        // fresh Wake (the queued flag is cleared on consumption).
        let mut sim = Sim::new(Vec::<&'static str>::new(), 0);
        let n = NodeId(0);
        sim.spawn("target", |ctx| {
            assert_eq!(ctx.park(), WakeReason::Unparked);
            ctx.world(|w| w.push("first"));
            assert_eq!(ctx.park(), WakeReason::Unparked);
            ctx.world(|w| w.push("second"));
        });
        sim.spawn("waker", move |ctx| {
            ctx.advance(Dur::us(1.0));
            ctx.unpark(n);
            ctx.unpark(n); // coalesced
            ctx.advance(Dur::us(5.0));
            ctx.unpark(n); // must wake the second park
        });
        let report = sim.run().unwrap();
        assert_eq!(report.world, vec!["first", "second"]);
        assert_eq!(report.wakes_coalesced, 1);
    }

    #[test]
    fn tracer_records_advances_and_wakes() {
        let tracer = Tracer::new(2, 4096);
        let mut sim = Sim::new((), 0);
        sim.set_tracer(tracer.clone());
        let n = NodeId(0);
        sim.spawn("sleeper", |ctx| {
            ctx.advance(Dur::us(2.0));
            assert_eq!(ctx.park(), WakeReason::Unparked);
        });
        sim.spawn("waker", move |ctx| {
            ctx.advance(Dur::us(5.0));
            ctx.unpark(n);
        });
        sim.run().unwrap();
        let recs = tracer.snapshot();
        assert!(!recs.is_empty());
        let adv: Vec<_> = recs
            .iter()
            .filter(|r| r.kind == TraceKind::NodeAdvance && r.track == Track::program(0))
            .collect();
        assert_eq!(adv.len(), 1, "one advance on node 0: {adv:?}");
        assert_eq!(adv[0].at, 0);
        assert_eq!(adv[0].dur, 2_000);
        assert!(recs
            .iter()
            .any(|r| r.kind == TraceKind::NodeUnpark && r.at == 5_000));
        assert!(recs
            .iter()
            .any(|r| r.kind == TraceKind::NodePark && r.track == Track::program(0)));
        // Wakes: two startup wakes at t=0 plus the unpark delivery at t=5us.
        assert!(recs
            .iter()
            .any(|r| r.kind == TraceKind::EngineWake && r.at == 5_000 && r.arg == 1));
    }

    #[test]
    fn tracing_disabled_changes_nothing() {
        fn run(trace: bool) -> (Time, u64) {
            let mut sim = Sim::new(0u64, 42);
            if trace {
                sim.set_tracer(Tracer::new(2, 1024));
            }
            let n = NodeId(0);
            sim.spawn("a", |ctx| {
                for _ in 0..20 {
                    ctx.advance(Dur::ns(30));
                }
                ctx.park();
            });
            sim.spawn("b", move |ctx| {
                for _ in 0..10 {
                    ctx.advance(Dur::ns(100));
                }
                ctx.unpark(n);
            });
            let r = sim.run().unwrap();
            (r.end_time, r.events)
        }
        assert_eq!(run(false), run(true), "tracing must not perturb the run");
    }
}
