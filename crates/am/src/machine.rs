//! Builder tying an SP machine simulation to per-node AM programs.

use crate::api::Am;
use crate::config::AmConfig;
use crate::mem::MemPool;
use crate::stats::AmStats;
use crate::wire::AmPacket;
use crate::AmWorld;
use sp_adapter::SpConfig;
use sp_sim::{NodeId, ShardProfile, ShardReport, Sim, SimError, Time};
use sp_trace::Tracer;

/// A configured SP machine running Active Messages node programs.
///
/// ```
/// use sp_am::{AmConfig, AmMachine};
/// use sp_adapter::SpConfig;
///
/// let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 1);
/// for node in 0..2 {
///     m.spawn(format!("n{node}"), (), |am| {
///         am.barrier();
///     });
/// }
/// let report = m.run().unwrap();
/// assert!(report.end_time.as_us() > 0.0);
/// ```
pub struct AmMachine {
    sim: Sim<AmWorld>,
    mem: MemPool,
    cfg: AmConfig,
    nodes: usize,
    spawned: usize,
    parallel: usize,
}

/// Result of a completed AM simulation.
#[derive(Debug)]
pub struct AmReport {
    /// Final virtual time.
    pub end_time: Time,
    /// Engine events executed.
    pub events: u64,
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
    /// Packets dropped to receive-FIFO overflow, summed over all adapters —
    /// the loss source the AM window/NACK machinery exists to survive.
    pub dropped_overflow: u64,
    /// Packets dropped inside the switch fabric (fault injection).
    pub switch_dropped: u64,
    /// Duplicate unpark wake-ups coalesced by the engine.
    pub wakes_coalesced: u64,
    /// Baton handoffs between node threads ([`SimReport::grants`]).
    ///
    /// [`SimReport::grants`]: sp_sim::SimReport::grants
    pub grants: u64,
    /// Per-shard engine breakdown (empty on a serial run).
    pub shards: Vec<ShardReport>,
    /// Shards requested via [`SpConfig::parallel`] before clamping to the
    /// node count. `shards` is empty on a one-shard run, so a clamp shows
    /// as `shards_requested > shards.len().max(1)`.
    pub shards_requested: usize,
    /// Synchronization (inter-shard hand-off) events, not counted in
    /// `events` — the parallel engine's overhead stream.
    pub sync_events: u64,
    /// Conservative lookahead windows the parallel run advanced through.
    pub windows: u64,
    /// PDES profile of a parallel run (window utilization, imbalance,
    /// sync overhead); `None` on a serial run.
    pub profile: Option<ShardProfile>,
    /// The machine's final hardware state (switch/adapter statistics).
    pub world: AmWorld,
    /// The memory pool (inspect transfer results after the run).
    pub mem: MemPool,
    /// Each node's final [`AmStats`], indexed by node.
    pub am_stats: Vec<AmStats>,
}

impl AmReport {
    /// Simulated events per wall-clock second (engine throughput).
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

impl AmMachine {
    /// Build a machine over `sp` hardware with `am` protocol parameters.
    pub fn new(sp: SpConfig, am: AmConfig, seed: u64) -> Self {
        let nodes = sp.nodes;
        let parallel = sp.parallel;
        let world: AmWorld = sp_adapter::SpWorld::<AmPacket>::new(sp);
        AmMachine {
            sim: Sim::new(world, seed),
            mem: MemPool::new(nodes),
            cfg: am,
            nodes,
            spawned: 0,
            parallel,
        }
    }

    /// Mutate the machine's hardware state before the run (fault
    /// injection, receive-FIFO shrinking, …).
    pub fn configure_world(&mut self, f: impl FnOnce(&mut AmWorld)) -> &mut Self {
        f(self.sim.world_mut());
        self
    }

    /// Cap engine events (livelock guard in tests).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.sim.set_event_budget(budget);
    }

    /// Schedule a hardware-state mutation at virtual time `at` — the moving
    /// version of [`AmMachine::configure_world`]. Fault harnesses use this
    /// to shrink a FIFO or stall an engine mid-run, deterministically, with
    /// no node program involved. Under a sharded run the call is broadcast:
    /// every shard executes `f` against its own world copy at `at`, so the
    /// closure must be `Fn` (re-runnable) and only mutate state each shard
    /// owns a consistent view of (fault injectors, FIFO capacities, …).
    pub fn schedule_world_at(
        &mut self,
        at: Time,
        f: impl Fn(&mut AmWorld) + Send + Sync + 'static,
    ) {
        self.sim.schedule_call_at(at, move |e| f(e.world()));
    }

    /// Install a virtual-time trace recorder across the whole stack — the
    /// engine, the adapters and switch, and every node's protocol engine —
    /// and return the handle used to snapshot records afterwards. Each node
    /// gets a ring of `per_node_capacity` records (oldest overwritten on
    /// overflow). Call any time before [`AmMachine::run`]; node programs
    /// pick the tracer up from the world when they start.
    pub fn enable_tracing(&mut self, per_node_capacity: usize) -> Tracer {
        let tracer = Tracer::new(self.nodes, per_node_capacity);
        self.install_tracer(tracer.clone());
        tracer
    }

    /// Install an existing trace recorder (e.g. a flight recorder's
    /// bounded ring) across the whole stack. Prefer
    /// [`AmMachine::enable_tracing`] unless the recorder outlives the
    /// machine, as a crash dump's must.
    pub fn install_tracer(&mut self, tracer: Tracer) {
        self.sim.set_tracer(tracer.clone());
        self.sim.world_mut().set_tracer(tracer);
    }

    /// The memory pool handle (also available in [`AmReport`]).
    pub fn mem(&self) -> MemPool {
        self.mem.clone()
    }

    /// Number of nodes in the machine.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Spawn the next node's program with initial state `state`. Programs
    /// must be spawned for nodes `0..nodes` in order.
    pub fn spawn<S: Send + 'static>(
        &mut self,
        name: impl Into<String>,
        state: S,
        prog: impl FnOnce(&mut Am<'_, S>) + Send + 'static,
    ) -> NodeId {
        assert!(self.spawned < self.nodes, "more programs than nodes");
        let node = self.spawned;
        self.spawned += 1;
        let mem = self.mem.clone();
        let cfg = self.cfg.clone();
        self.sim.spawn(name, move |ctx| {
            let mut am = Am::new(ctx, mem, cfg, state);
            prog(&mut am);
            am.mem_pool().leave_stats(node, am.stats().clone());
        })
    }

    /// Spawn the same program on every remaining node (SPMD style).
    pub fn spawn_all<S: Send + 'static>(
        &mut self,
        state: impl Fn(usize) -> S + 'static,
        prog: impl Fn(&mut Am<'_, S>) + Send + Sync + Clone + 'static,
    ) {
        for node in self.spawned..self.nodes {
            let p = prog.clone();
            self.spawn(format!("n{node}"), state(node), move |am| p(am));
        }
    }

    /// Run to completion on [`SpConfig::parallel`] conservative-parallel
    /// shards (one shard by default). Multi-frame topologies, both
    /// routing policies, fault injection, and
    /// [`AmMachine::schedule_world_at`] all run sharded and match the
    /// one-shard run, except that a world event which changes the fabric
    /// mid-run reaches packets sent up to one lookahead before it (ROADMAP
    /// item 9).
    pub fn run(self) -> Result<AmReport, SimError> {
        assert_eq!(self.spawned, self.nodes, "every node needs a program");
        let mem = self.mem;
        let report = self.sim.run_parallel(self.parallel.max(1))?;
        Ok(AmReport {
            end_time: report.end_time,
            events: report.events,
            wall: report.wall,
            dropped_overflow: report.world.dropped_overflow(),
            switch_dropped: report.world.switch.stats().dropped,
            wakes_coalesced: report.wakes_coalesced,
            grants: report.grants,
            shards: report.shards,
            shards_requested: report.shards_requested,
            sync_events: report.sync_events,
            windows: report.windows,
            profile: report.profile,
            world: report.world,
            am_stats: mem.take_stats(),
            mem,
        })
    }
}
