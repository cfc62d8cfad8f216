//! Host-side telemetry of the runs one experiment binary made, folded from
//! each run's own report. Nothing is counted outside a report, so two runs
//! in one process never see each other's figures.

use sp_adapter::SpWorld;
use sp_am::{AmReport, AmStats};
use sp_logp::LogpWorld;
use sp_mpi::runner::MpiRunReport;
use sp_mpl::MplReport;
use sp_sim::{ShardProfile, SimReport};
use sp_splitc::SpmdReport;
use sp_traffic::TrafficReport;
use std::time::Duration;

/// Totals over a set of finished runs, printed by
/// [`print_engine_summary`](crate::print_engine_summary). Experiment
/// functions take a `&mut Tally` and [`Tally::add`] every report they get.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Completed simulations.
    pub runs: u64,
    /// Engine events executed.
    pub events: u64,
    /// Wall-clock time spent inside the runs.
    pub wall: Duration,
    /// Unparks coalesced into already-queued wakes.
    pub wakes_coalesced: u64,
    /// Packets dropped to receive-FIFO overflow.
    pub dropped_overflow: u64,
    /// Packets dropped inside the switch fabric.
    pub switch_dropped: u64,
    /// Extra packet copies the switch fabric created.
    pub switch_duplicated: u64,
    /// AM reliability counters of every node, in `[reliability]` line
    /// order: rtx, rtx by cause (timeout, SACK gap, keep-alive), loss NACKs
    /// out/in, probe answers out/in, dup, ooo and stale drops, keep-alive
    /// rounds.
    pub reliability: [u64; 12],
    /// Runs on two or more engine shards.
    pub parallel_runs: u64,
    /// Shards used, summed over the parallel runs.
    pub parallel_shards: u64,
    /// Inter-shard synchronization events of the parallel runs.
    pub sync_events: u64,
    /// Lookahead windows of the parallel runs.
    pub windows: u64,
    /// Parallel runs that got fewer shards than they asked for.
    pub clamped_runs: u64,
    /// `(requested, effective)` shard counts of the last clamped run.
    pub last_clamp: Option<(usize, usize)>,
    /// Shard profile of the last parallel run.
    pub last_profile: Option<ShardProfile>,
}

/// An AM port's counters in `[reliability]` line order.
fn reliability(s: &AmStats) -> [u64; 12] {
    [
        s.packets_retransmitted,
        s.rtx_timeout,
        s.rtx_sack_gap,
        s.rtx_keepalive,
        s.nacks_sent,
        s.nacks_received,
        s.probe_answers_sent,
        s.probe_answers_received,
        s.dup_dropped,
        s.ooo_dropped,
        s.stale_dropped,
        s.keepalive_rounds,
    ]
}

impl Tally {
    /// Fold a finished run's report into this tally; the "last" fields
    /// take the run's value when it has one.
    pub fn add(&mut self, run: impl Into<Tally>) {
        let r = run.into();
        self.runs += r.runs;
        self.events += r.events;
        self.wall += r.wall;
        self.wakes_coalesced += r.wakes_coalesced;
        self.dropped_overflow += r.dropped_overflow;
        self.switch_dropped += r.switch_dropped;
        self.switch_duplicated += r.switch_duplicated;
        self.am(r.reliability);
        self.parallel_runs += r.parallel_runs;
        self.parallel_shards += r.parallel_shards;
        self.sync_events += r.sync_events;
        self.windows += r.windows;
        self.clamped_runs += r.clamped_runs;
        self.last_clamp = r.last_clamp.or(self.last_clamp);
        self.last_profile = r.last_profile.or(self.last_profile.take());
    }

    fn am(&mut self, counters: [u64; 12]) {
        for (sum, c) in self.reliability.iter_mut().zip(counters) {
            *sum += c;
        }
    }

    /// Add the AM counters of a run's nodes.
    fn am_nodes(mut self, nodes: &[AmStats]) -> Tally {
        nodes.iter().for_each(|s| self.am(reliability(s)));
        self
    }

    /// One run's engine figures. A run with a shard profile is a parallel
    /// run, clamped when it asked for more shards than the profile has.
    fn run(
        events: u64,
        wall: Duration,
        wakes_coalesced: u64,
        requested: usize,
        profile: &Option<ShardProfile>,
    ) -> Tally {
        let mut t = Tally {
            runs: 1,
            events,
            wall,
            wakes_coalesced,
            ..Tally::default()
        };
        if let Some(p) = profile {
            let shards = p.num_shards();
            t.parallel_runs = 1;
            t.parallel_shards = shards as u64;
            t.sync_events = p.sync_events.iter().sum();
            t.windows = p.windows;
            if requested > shards {
                t.clamped_runs = 1;
                t.last_clamp = Some((requested, shards));
            }
            t.last_profile = Some(p.clone());
        }
        t
    }

    /// Add an SP machine's drop counters, read off its final world.
    fn drops<P: Send + 'static>(mut self, world: &SpWorld<P>) -> Tally {
        self.dropped_overflow = world.dropped_overflow();
        self.switch_dropped = world.switch.stats().dropped;
        self.switch_duplicated = world.switch.stats().duplicated;
        self
    }

    /// The `[engine]` line: runs, events, wall time and engine rate.
    pub(crate) fn engine_line(&self) -> String {
        let (runs, events, secs) = (self.runs, self.events, self.wall.as_secs_f64());
        let rate = events as f64 / secs.max(1e-9);
        let (scaled, unit) = if rate >= 1e6 {
            (rate / 1e6, "M")
        } else {
            (rate / 1e3, "k")
        };
        format!("{runs} runs, {events} events in {secs:.2} s ({scaled:.1} {unit} events/sec)")
    }

    /// The `[reliability]` line. The retransmit-cause breakdown is
    /// `timeout/sack-gap/keepalive`; the rest of `rtx` is NACK-driven
    /// go-back-N. `nacks` counts loss NACKs only, apart from keep-alive
    /// probe answers.
    pub(crate) fn reliability_line(&self) -> String {
        let [rtx, t, s, k, n_out, n_in, p_out, p_in, dup, ooo, stale, ka] = self.reliability;
        format!(
            "rtx {rtx} (cause t/s/k {t}/{s}/{k}) | nacks {n_out}/{n_in} (out/in) | \
             probe-answers {p_out}/{p_in} (out/in) | dup-drop {dup} | ooo-drop {ooo} | \
             stale-drop {stale} | keepalive {ka}"
        )
    }

    /// The `[parallel]` line: parallel-run totals, the last parallel run's
    /// shard profile, and a warning when any run got fewer shards than it
    /// requested. `None` when no run was parallel.
    pub(crate) fn parallel_line(&self) -> Option<String> {
        if self.parallel_runs == 0 {
            return None;
        }
        let mut line = format!(
            "{} parallel runs ({} shards): {} sync events, {} windows",
            self.parallel_runs, self.parallel_shards, self.sync_events, self.windows
        );
        if let Some(p) = &self.last_profile {
            line.push_str(&format!("; last run: {}", p.summary()));
        }
        if let Some((req, eff)) = self.last_clamp {
            line.push_str(&format!(
                "; WARNING: {} run(s) clamped below the requested shard count \
                 (last: {req} requested -> {eff} effective)",
                self.clamped_runs
            ));
        }
        Some(line)
    }
}

/// [`Tally::run`] over a report's engine fields, which every report type
/// names alike.
macro_rules! engine {
    ($r:expr) => {
        Tally::run(
            $r.events,
            $r.wall,
            $r.wakes_coalesced,
            $r.shards_requested,
            &$r.profile,
        )
    };
}

impl From<&AmReport> for Tally {
    fn from(r: &AmReport) -> Tally {
        engine!(r).drops(&r.world).am_nodes(&r.am_stats)
    }
}

impl From<&MplReport> for Tally {
    fn from(r: &MplReport) -> Tally {
        engine!(r).drops(&r.world)
    }
}

impl<P: Send + 'static> From<&SimReport<SpWorld<P>>> for Tally {
    fn from(r: &SimReport<SpWorld<P>>) -> Tally {
        engine!(r).drops(&r.world)
    }
}

impl From<&SimReport<LogpWorld>> for Tally {
    fn from(r: &SimReport<LogpWorld>) -> Tally {
        engine!(r)
    }
}

impl From<&SpmdReport> for Tally {
    fn from(r: &SpmdReport) -> Tally {
        match r {
            SpmdReport::Am(r) => r.into(),
            SpmdReport::Mpl(r) => r.into(),
            SpmdReport::Logp(r) => r.into(),
        }
    }
}

impl From<&MpiRunReport> for Tally {
    fn from(r: &MpiRunReport) -> Tally {
        let t = Tally {
            dropped_overflow: r.dropped_overflow,
            switch_dropped: r.switch_dropped,
            switch_duplicated: r.switch_duplicated,
            ..engine!(r)
        };
        t.am_nodes(&r.am_stats)
    }
}

impl From<&TrafficReport> for Tally {
    fn from(r: &TrafficReport) -> Tally {
        let t = Tally {
            dropped_overflow: r.dropped_overflow,
            switch_dropped: r.switch_dropped,
            switch_duplicated: r.switch_duplicated,
            ..Tally::run(r.events, r.wall, r.wakes_coalesced, r.shards, &r.profile)
        };
        t.am_nodes(&r.am_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_adapter::SpConfig;
    use sp_am::{Am, AmConfig, AmMachine};

    fn barrier_run(sp: SpConfig) -> AmReport {
        let mut m = AmMachine::new(sp, AmConfig::default(), 1);
        m.spawn_all(|_| (), |am: &mut Am<'_, ()>| am.barrier());
        m.run().expect("barrier run completes")
    }

    #[test]
    fn one_shard_run_prints_no_parallel_line() {
        let r = barrier_run(SpConfig::thin(2));
        let t = Tally::from(&r);
        assert_eq!((t.runs, t.events), (1, r.events));
        assert_eq!(t.parallel_line(), None);
    }

    #[test]
    fn clamped_parallel_run_is_flagged_and_last_profile_kept() {
        let serial = barrier_run(SpConfig::thin(2));
        let clamped = barrier_run(SpConfig::thin(2).parallel(4));
        let mut t = Tally::default();
        t.add(&clamped);
        t.add(&serial);
        assert_eq!((t.runs, t.parallel_runs, t.parallel_shards), (2, 1, 2));
        assert_eq!(t.last_clamp, Some((4, 2)));
        assert_eq!(t.last_profile, clamped.profile);
        let line = t.parallel_line().expect("one parallel run");
        assert!(
            line.ends_with(
                "WARNING: 1 run(s) clamped below the requested shard count \
                 (last: 4 requested -> 2 effective)"
            ),
            "{line}"
        );
    }
}
