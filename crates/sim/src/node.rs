//! Node programs: the baton handshake and the [`NodeCtx`] API they program
//! against.
//!
//! Each simulated node's program runs on a dedicated OS thread, and exactly
//! one thread per shard executes at any moment. There is no engine thread:
//! a node that yields becomes its shard's driver (see the `parallel`
//! module), popping events until its own wake surfaces — it then resumes
//! with no context switch — or until it grants another node's baton and
//! blocks on its own. A yield takes the shard lock once and hands it to
//! the drive loop. A node may park a world step with its wake
//! ([`NodeCtx::advance_then`]), which the driver runs before it grants,
//! and a step that finds nothing may start the node's next round in the
//! driver instead of resuming it. A baton is a tiny state machine in a
//! mutex, with a condvar the node thread waits on. A node holds `Run` in its slot from its grant until it
//! hands off: the driver releases its own baton only just before it
//! grants another node's (or when the run ends), so a yield whose own
//! wake comes up first takes no baton lock at all. Every wake follows the
//! unlock: the vendored condvar has no wait morphing, so a node notified
//! while the granter still held the mutex would wake only to block on it,
//! and one handoff would enter the kernel twice.

use crate::engine::{EvKind, Inner, NodeId, Step, StepFn, Tie};
use crate::parallel::Core;
use crate::time::{Dur, Time};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sp_trace::Kind as TraceKind;
use std::sync::Arc;

/// Why a blocked node program resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// The requested virtual-time span elapsed (for [`NodeCtx::advance`]),
    /// or the node's program started.
    Timeout,
    /// Another node or a scheduled event called `unpark` on this node.
    Unparked,
}

/// What a node resumes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resume {
    /// The virtual instant it resumes at.
    pub(crate) at: Time,
    pub(crate) reason: WakeReason,
    /// Rounds its [`NodeCtx::advance_then`] ran; zero after any other
    /// yield.
    pub(crate) rounds: u64,
}

/// Baton slot contents.
enum Slot {
    /// The node does not hold the baton.
    Idle,
    /// A driver granted the node the right to run.
    Run(Resume),
    /// The run is being torn down; the node thread must exit.
    Exit,
}

/// Panic payload used to unwind a node thread during teardown.
pub(crate) struct ShutdownToken;

/// One node's run permission: granted by whichever thread drives the
/// node's shard, waited on by the node thread.
pub(crate) struct Baton {
    slot: Mutex<Slot>,
    cv: Condvar,
}

impl Baton {
    pub(crate) fn new() -> Arc<Baton> {
        Arc::new(Baton {
            slot: Mutex::new(Slot::Idle),
            cv: Condvar::new(),
        })
    }

    /// Teardown: tell a blocked node thread to unwind and exit.
    pub(crate) fn exit(&self) {
        *self.slot.lock() = Slot::Exit; // unlocked before the wake
        self.cv.notify_one();
    }

    /// Grant the baton to a node without blocking (the granting thread is
    /// a driver, which then waits for its own turn or for the run to end).
    /// The target must be idle, unless teardown already told it to exit:
    /// that `Exit` wins, so a grant racing a failure on another shard
    /// cannot strand the node past the join.
    pub(crate) fn grant(&self, resume: Resume) {
        let mut slot = self.slot.lock();
        if matches!(*slot, Slot::Exit) {
            return;
        }
        debug_assert!(matches!(*slot, Slot::Idle), "grant: baton not idle");
        *slot = Slot::Run(resume);
        // Wake after the unlock (module docs).
        drop(slot);
        self.cv.notify_one();
    }

    /// Give the baton back: the driver calls it on its own baton just
    /// before it grants another's, or when the run ends before it waits.
    /// Only replaces a `Run`; a concurrent teardown `Exit` is preserved so
    /// the thread still unwinds at its next wait.
    pub(crate) fn release(&self) {
        let mut slot = self.slot.lock();
        if matches!(*slot, Slot::Run(_)) {
            *slot = Slot::Idle;
        }
    }

    /// Whether the node still holds its grant (`Run`), or teardown already
    /// told it to exit (`Exit`): a node that yields keeps one of the two
    /// until it hands off.
    pub(crate) fn held(&self) -> bool {
        !matches!(*self.slot.lock(), Slot::Idle)
    }

    /// Node side: block until granted `Run`; unwind on `Exit`.
    pub(crate) fn wait_for_run(&self) -> Resume {
        let mut slot = self.slot.lock();
        loop {
            match &*slot {
                // Leave `Run` in place: it marks that the node holds the
                // baton until it yields again.
                Slot::Run(resume) => return *resume,
                Slot::Exit => {
                    drop(slot);
                    std::panic::resume_unwind(Box::new(ShutdownToken));
                }
                Slot::Idle => self.cv.wait(&mut slot),
            }
        }
    }
}

/// What one call of a shard's drive loop produced.
pub(crate) enum Drive {
    /// The driving node's own wake came up while it was driving: it resumes
    /// running directly, with zero baton hand-offs.
    SelfRun(Resume),
    /// The driver released its own baton and granted some other node's;
    /// the caller must wait for its own next `Run` grant.
    Handed,
    /// The run is over (finished or failed); the caller must release its
    /// baton and wait on it for the teardown `Exit`.
    Shutdown,
}

/// Handle through which a node program interacts with the simulation.
///
/// A `NodeCtx` is handed (by mutable reference) to the node program closure.
/// All methods that touch virtual time are *explicit*: wall-clock time spent
/// computing inside the closure costs nothing; only [`NodeCtx::advance`]
/// moves this node's clock.
pub struct NodeCtx<W: Send + 'static> {
    pub(crate) id: NodeId,
    pub(crate) num_nodes: usize,
    pub(crate) now: Time,
    pub(crate) rng: SmallRng,
    /// The run this node belongs to and the shard it drives on yield.
    pub(crate) core: Arc<Core<W>>,
    pub(crate) shard: usize,
}

impl<W: Send + 'static> NodeCtx<W> {
    pub(crate) fn new(
        id: NodeId,
        num_nodes: usize,
        seed: u64,
        core: Arc<Core<W>>,
        shard: usize,
    ) -> Self {
        // Mix the node id into the master seed so per-node streams differ.
        let node_seed = seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        NodeCtx {
            id,
            num_nodes,
            now: Time::ZERO,
            rng: SmallRng::seed_from_u64(node_seed),
            core,
            shard,
        }
    }

    /// Yield: *become* the shard's driver, still holding the baton and
    /// the shard lock `inner` the yield took. If this node's own wake
    /// surfaces while driving, it resumes with zero context switches;
    /// otherwise the driver released its baton, granted another node's,
    /// and this node waits for its turn.
    fn yield_and_drive(&self, inner: MutexGuard<'_, Inner<W>>) -> Resume {
        let baton = &self.core.batons[self.id.0];
        match self.core.drive(self.shard, Some(self.id), inner) {
            Drive::SelfRun(resume) => resume,
            Drive::Handed => baton.wait_for_run(),
            Drive::Shutdown => {
                // Without the release the wait would return the held `Run`.
                baton.release();
                baton.wait_for_run()
            }
        }
    }

    /// This node's id (dense, `0..num_nodes`).
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Total number of node programs in the simulation.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Current virtual time at this node.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Deterministic per-node random number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Charge `d` of virtual time to this node (e.g. CPU work, an I/O-bus
    /// access, a cache flush). Scheduled events whose time falls within the
    /// span execute while this node "computes"; unparks arriving meanwhile
    /// are latched and delivered by the next [`NodeCtx::park`]. The node
    /// yields even for a zero `d`, so events due now run first, and each
    /// advance counts one event against the budget.
    pub fn advance(&mut self, d: Dur) {
        self.advance_with(d, None);
    }

    /// Rounds of [`NodeCtx::advance`]`(d)` followed by
    /// [`NodeCtx::world_then_advance`]`(|w| ((), step(w, a, now).0))`, with
    /// the same virtual-time behavior, event count and trace as that loop,
    /// but cheaper on the host: the node parks the step with its wake, and
    /// the driver that pops the wake runs the step and charges its cost
    /// itself. The step sees exactly the state the resumed node would have
    /// seen: one thread per shard runs at a time, and the driver runs the
    /// step before anything else. `step` is a plain `fn` (like
    /// [`HotFn`](crate::HotFn)), so nothing is allocated; a result larger
    /// than the returned cost travels through the world. A panic in the
    /// step fails the run as this node's panic.
    ///
    /// The first round always runs. When a step finds nothing (its second
    /// result) and the next round would start before `until`, the driver
    /// starts that round itself instead of resuming the node, so a node
    /// whose loop only polls again is resumed once, when its step finds
    /// something or the bound is reached. The caller must do nothing
    /// between two such rounds besides recording `span` (if given), over
    /// the round's advance on its program track: the driver records it as
    /// each round ends, before the node resumes or the next round starts.
    /// `until` at or before now makes it one round; `Time::MAX` bounds
    /// nothing. Returns the rounds run.
    pub fn advance_then(
        &mut self,
        d: Dur,
        step: StepFn<W>,
        a: u64,
        until: Time,
        span: Option<TraceKind>,
    ) -> u64 {
        let step = Step {
            f: step,
            a,
            d,
            until,
            span,
            start: self.now,
            rounds: 0,
            idle: None,
        };
        self.advance_with(d, Some(step))
    }

    /// Sleep for `d`, parking `then` (if any) for the driver that pops the
    /// wake, and drive; one shard-lock acquire per yield. Returns the
    /// rounds `then` ran.
    fn advance_with(&mut self, d: Dur, then: Option<Step<W>>) -> u64 {
        let mut inner = self.core.shards[self.shard].lock();
        inner.sleep(self.id, self.now + d);
        inner.steps[self.id.0] = then;
        let resume = self.yield_and_drive(inner);
        self.now = resume.at;
        resume.rounds
    }

    /// Access the world and charge virtual time in one combined operation:
    /// `f` returns `(result, cost)` and the cost is charged as by
    /// [`NodeCtx::advance`], all under a single lock acquire. A zero cost
    /// charges nothing and never yields (use it for error arms that abort
    /// before touching the hardware). A non-zero cost sleeps like
    /// [`NodeCtx::advance`]; to fold an advance *before* the world access
    /// into the same yield, see [`NodeCtx::advance_then`].
    pub fn world_then_advance<R>(&mut self, f: impl FnOnce(&mut W) -> (R, Dur)) -> R {
        let mut inner = self.core.shards[self.shard].lock();
        let (r, d) = f(&mut inner.world);
        self.now = match inner.charge(self.id, d) {
            Some(t) => t,
            None => self.yield_and_drive(inner).at,
        };
        r
    }

    /// Block until another node or an event calls unpark on this node.
    /// Consecutive unparks coalesce (as with `std::thread::park`). Returns
    /// immediately if a signal is already pending.
    pub fn park(&mut self) -> WakeReason {
        let mut inner = self.core.shards[self.shard].lock();
        if inner.take_signal(self.id) {
            return WakeReason::Unparked;
        }
        inner.note_park(self.id);
        let resume = self.yield_and_drive(inner);
        self.now = resume.at;
        resume.reason
    }

    /// Unpark node `target`: if it is parked it becomes runnable *now*;
    /// otherwise the signal is latched for its next park. In a sharded run
    /// the target must share this node's shard: nodes on different shards
    /// interact only through the world's messages, so an unpark across
    /// shards panics and the run fails as this node's panic.
    pub fn unpark(&mut self, target: NodeId) {
        self.core.shards[self.shard].lock().unpark(target, self.now);
    }

    /// Access the shared world state (the simulated hardware). No virtual
    /// time is charged; pair with [`NodeCtx::advance`] to model cost.
    pub fn world<R>(&self, f: impl FnOnce(&mut W) -> R) -> R {
        f(&mut self.core.shards[self.shard].lock().world)
    }

    /// Schedule `f` to run as an engine event `after` from now.
    pub fn schedule(
        &self,
        after: Dur,
        f: impl FnOnce(&mut crate::engine::EventCtx<'_, W>) + Send + 'static,
    ) {
        self.core.shards[self.shard].lock().sched.push(
            self.now + after,
            Tie::unranked(self.now),
            EvKind::call(f),
        );
    }

    /// Schedule an allocation-free event `after` from now (see
    /// [`EventCtx::schedule_hot`](crate::engine::EventCtx::schedule_hot)).
    pub fn schedule_hot(&self, after: Dur, f: crate::engine::HotFn<W>, a: u64, b: u64) {
        self.schedule_hot_ranked(after, Tie::UNRANKED, f, a, b);
    }

    /// [`NodeCtx::schedule_hot`] with a [`Tie::rank`] (see
    /// [`EventCtx::schedule_hot_ranked_at`](crate::engine::EventCtx::schedule_hot_ranked_at)).
    pub fn schedule_hot_ranked(
        &self,
        after: Dur,
        rank: u32,
        f: crate::engine::HotFn<W>,
        a: u64,
        b: u64,
    ) {
        let tie = Tie {
            gen: self.now,
            rank,
        };
        self.core.shards[self.shard].lock().sched.push(
            self.now + after,
            tie,
            EvKind::Hot { f, a, b },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::within_deadline;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const START: Resume = Resume {
        at: Time::ZERO,
        reason: WakeReason::Timeout,
        rounds: 0,
    };

    /// Whether `wait_for_run` unwinds with the teardown token. Call it only
    /// when the slot holds `Run` or `Exit`: an idle baton would block.
    fn unwinds(baton: &Baton) -> bool {
        let out = catch_unwind(AssertUnwindSafe(|| baton.wait_for_run()));
        matches!(out, Err(payload) if payload.is::<ShutdownToken>())
    }

    fn is_exit(baton: &Baton) -> bool {
        matches!(*baton.slot.lock(), Slot::Exit)
    }

    #[test]
    fn exit_after_grant_unwinds_the_waiter() {
        let baton = Baton::new();
        baton.grant(START);
        baton.exit();
        assert!(unwinds(&baton));
    }

    #[test]
    fn grant_after_exit_is_ignored() {
        let baton = Baton::new();
        baton.exit();
        baton.grant(START);
        assert!(is_exit(&baton), "a racing grant must not undo Exit");
        assert!(unwinds(&baton));
    }

    #[test]
    fn release_after_exit_keeps_exit() {
        let baton = Baton::new();
        baton.grant(START);
        baton.exit();
        // A driver may still pop its own wake after `Exit`: it resumes in
        // place, releases when its drive ends, and unwinds at the wait.
        assert!(baton.held(), "a self-resume must still see a held baton");
        baton.release();
        assert!(is_exit(&baton), "release must not undo Exit");
        assert!(unwinds(&baton));
    }

    #[test]
    fn a_held_grant_stays_until_released() {
        // A yielding node keeps its `Run` until it hands off, so resuming in
        // place takes no baton lock; a wait before the release returns the
        // stale grant.
        let baton = Baton::new();
        assert!(!baton.held());
        let r = Resume {
            at: Time(5),
            reason: WakeReason::Unparked,
            rounds: 0,
        };
        baton.grant(r);
        assert_eq!(baton.wait_for_run(), r);
        assert!(baton.held(), "the grant stays while the node runs");
        assert_eq!(baton.wait_for_run(), r);
        baton.release();
        assert!(!baton.held());
    }

    #[test]
    fn exit_unwinds_a_node_waiting_after_its_release() {
        // The usual teardown: the run ends, the driving node releases its
        // baton and waits, and teardown's exit, landing before or after
        // the wait begins, unwinds it.
        let baton = Baton::new();
        baton.grant(START);
        baton.release();
        let b = baton.clone();
        std::thread::spawn(move || b.exit());
        assert!(within_deadline("released node", move || unwinds(&baton)));
    }
}
