//! SPMD runner for MPI programs over the paper's MPI implementations.

use crate::iface::Mpi;
use crate::mpiam::{MpiAm, MpiAmConfig, MpiSt};
use crate::mpif::{MpiF, MpiFConfig};
use parking_lot::Mutex;
use sp_adapter::SpConfig;
use sp_am::{Am, AmConfig, AmMachine, AmStats};
use sp_mpl::{Mpl, MplMachine};
use std::sync::Arc;

/// Which MPI implementation (and node flavour) to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiImpl {
    /// Unoptimized MPICH-over-AM (§4.1).
    AmUnoptimized,
    /// Optimized MPICH-over-AM (§4.2).
    AmOptimized,
    /// Optimized MPICH-over-AM with SP-tuned collectives (the paper's
    /// §4.4 future-work configuration).
    AmTuned,
    /// The MPI-F-like native baseline.
    MpiF,
}

impl MpiImpl {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            MpiImpl::AmUnoptimized => "unoptimized AM MPI",
            MpiImpl::AmOptimized => "optimized AM MPI",
            MpiImpl::AmTuned => "AM MPI + tuned collectives",
            MpiImpl::MpiF => "MPI-F",
        }
    }

    /// All implementations, in the paper's legend order (the tuned-
    /// collectives extension last).
    pub fn all() -> [MpiImpl; 4] {
        [
            MpiImpl::AmUnoptimized,
            MpiImpl::AmOptimized,
            MpiImpl::MpiF,
            MpiImpl::AmTuned,
        ]
    }
}

/// Machine-level outcome of an MPI run, beyond the per-rank results: the
/// engine observables the serial-vs-parallel equivalence checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiRunReport {
    /// Final virtual time, ns.
    pub end_ns: u64,
    /// Counted engine events executed.
    pub events: u64,
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
    /// Duplicate unpark wake-ups coalesced by the engine.
    pub wakes_coalesced: u64,
    /// FNV-1a over `(end, events, per-node adapter stats, switch stats)` —
    /// the same observable-state construction the golden pins use. Two runs
    /// with equal hashes moved every packet identically.
    pub report_hash: u64,
    /// Per-shard engine breakdown (empty on a serial run).
    pub shards: Vec<sp_sim::ShardReport>,
    /// Shards requested via `SpConfig::parallel` before clamping to the
    /// node count.
    pub shards_requested: usize,
    /// Inter-shard synchronization events (0 on a serial run).
    pub sync_events: u64,
    /// Conservative lookahead windows (0 on a serial run).
    pub windows: u64,
    /// PDES profile of a parallel run (window utilization, imbalance,
    /// sync overhead); `None` on a serial run. Integer-valued fields keep
    /// the report `Eq`-comparable for the equivalence checks.
    pub profile: Option<sp_sim::ShardProfile>,
    /// Packets dropped to receive-FIFO overflow, summed over all adapters.
    pub dropped_overflow: u64,
    /// Packets dropped inside the switch fabric (fault injection).
    pub switch_dropped: u64,
    /// Extra packet copies the switch fabric created (fault injection).
    pub switch_duplicated: u64,
    /// Each rank's final AM protocol counters, indexed by rank (empty for
    /// MPI-F, which runs over MPL).
    pub am_stats: Vec<AmStats>,
}

/// FNV-1a over the observable end state of any `SpWorld`-backed machine.
fn world_hash<P: Send + 'static>(end_ns: u64, events: u64, w: &sp_adapter::SpWorld<P>) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(end_ns);
    mix(events);
    for node in 0..w.nodes() {
        let a = w.adapter_stats(node);
        mix(a.sent);
        mix(a.received);
        mix(a.dropped_overflow);
        mix(a.doorbells);
        mix(a.lazy_pops);
        mix(a.recv_high_water as u64);
    }
    let s = w.switch.stats();
    mix(s.delivered);
    mix(s.dropped);
    mix(s.wire_bytes);
    mix(s.hops);
    h
}

/// The [`MpiRunReport`] of `$r`, an `AmReport` or `MplReport` (both name
/// their fields alike), with the ranks' AM counters `$am_stats`.
macro_rules! run_report {
    ($r:ident, $am_stats:expr) => {{
        let end_ns = $r.end_time.as_ns();
        let sw = $r.world.switch.stats();
        MpiRunReport {
            end_ns,
            events: $r.events,
            wall: $r.wall,
            wakes_coalesced: $r.wakes_coalesced,
            report_hash: world_hash(end_ns, $r.events, &$r.world),
            shards: $r.shards,
            shards_requested: $r.shards_requested,
            sync_events: $r.sync_events,
            windows: $r.windows,
            profile: $r.profile,
            dropped_overflow: $r.world.dropped_overflow(),
            switch_dropped: sw.dropped,
            switch_duplicated: sw.duplicated,
            am_stats: $am_stats,
        }
    }};
}

/// Run `app` SPMD over `nodes` ranks of `imp` on the given SP hardware
/// (thin or wide nodes); returns each rank's result.
pub fn run_mpi<R: Send + 'static>(
    imp: MpiImpl,
    sp: SpConfig,
    seed: u64,
    app: impl Fn(&mut dyn Mpi) -> R + Send + Sync + Clone + 'static,
) -> Vec<R> {
    run_mpi_report(imp, sp, seed, app).0
}

/// [`run_mpi`], additionally returning the [`MpiRunReport`] — end time,
/// event count, world hash, and the parallel engine's shard breakdown.
/// `sp.parallel >= 2` runs the machine on the sharded conservative engine.
pub fn run_mpi_report<R: Send + 'static>(
    imp: MpiImpl,
    sp: SpConfig,
    seed: u64,
    app: impl Fn(&mut dyn Mpi) -> R + Send + Sync + Clone + 'static,
) -> (Vec<R>, MpiRunReport) {
    let nodes = sp.nodes;
    let results: Arc<Mutex<Vec<Option<R>>>> =
        Arc::new(Mutex::new((0..nodes).map(|_| None).collect()));
    let run = match imp {
        MpiImpl::AmUnoptimized | MpiImpl::AmOptimized | MpiImpl::AmTuned => {
            let cfg = match imp {
                MpiImpl::AmOptimized => MpiAmConfig::optimized(),
                MpiImpl::AmTuned => MpiAmConfig {
                    tuned_collectives: true,
                    ..MpiAmConfig::optimized()
                },
                _ => MpiAmConfig::unoptimized(),
            };
            let cost = sp.cost.clone();
            let mut m = AmMachine::new(sp, AmConfig::default(), seed);
            for node in 0..nodes {
                let app = app.clone();
                let results = results.clone();
                let cfg = cfg.clone();
                let st = MpiSt::new(&cfg, node, nodes, &cost);
                m.spawn(format!("r{node}"), st, move |am: &mut Am<'_, MpiSt>| {
                    let mut mpi = MpiAm::new(am, cfg);
                    let r = app(&mut mpi);
                    results.lock()[node] = Some(r);
                });
            }
            // `SP_TRACE_OUT=<path>` captures a full Perfetto trace of
            // this run (AM machines only): per-node tracks, and per-shard
            // window/wait tracks when the parallel engine is active.
            let trace_out = std::env::var("SP_TRACE_OUT").ok();
            let tracer = trace_out.as_ref().map(|_| m.enable_tracing(1 << 16));
            let r = m.run().expect("MPI-AM run completes");
            if let (Some(path), Some(t)) = (trace_out, tracer) {
                let json = sp_trace::chrome::to_chrome_json(&t.snapshot());
                std::fs::write(&path, json).expect("write SP_TRACE_OUT trace");
                println!(
                    "[trace] wrote {path} ({} records, {} dropped to ring overflow)",
                    t.len(),
                    t.dropped()
                );
            }
            run_report!(r, r.am_stats)
        }
        MpiImpl::MpiF => {
            let cfg = MpiFConfig::default();
            let mut m = MplMachine::new(sp, cfg.transport.clone(), seed);
            for node in 0..nodes {
                let app = app.clone();
                let results = results.clone();
                let cfg = cfg.clone();
                m.spawn(format!("r{node}"), move |mpl: &mut Mpl<'_>| {
                    let mut mpi = MpiF::new(mpl, cfg);
                    let r = app(&mut mpi);
                    results.lock()[node] = Some(r);
                });
            }
            let r = m.run().expect("MPI-F run completes");
            run_report!(r, Vec::new())
        }
    };
    let mut out = Vec::with_capacity(nodes);
    for slot in results.lock().iter_mut() {
        out.push(slot.take().expect("every rank produced a result"));
    }
    (out, run)
}
