//! # sp-chaos — fault-schedule chaos harness for the SP AM stack
//!
//! The reliability layer (sp-am §2.2) exists to survive a hostile
//! fabric-and-adapter substrate: FIFO overflow, lost and duplicated and
//! reordered packets, firmware stalls, silent peers. This crate turns that
//! claim into a checked property:
//!
//! 1. **Fault schedules** ([`Schedule`]) — serializable plain-text
//!    compositions of link drops/delays/duplicates, receive-FIFO
//!    shrinkage, send-DMA and receive-firmware stalls,
//!    keepalive-visible node pauses, and (on multi-frame machines)
//!    permanently severed inter-frame cable lanes, pinned to virtual-time
//!    windows or global packet indices. Schedules pick the machine
//!    topology (`frames`) and fabric routing policy (`route_policy`), so
//!    campaigns cover adaptive occupancy-aware routing too.
//! 2. **Campaign runner** ([`run_campaign`]) — executes workloads
//!    (request/reply pingpong, one-way streaming, Split-C round-trips,
//!    MPI ring exchange) under N seeded random schedules and checks the
//!    invariants after a lossless tail: exactly-once handler delivery,
//!    per-channel sequence monotonicity, eventual quiescence, and stats
//!    conservation across the AM/adapter/switch layers ([`check`]).
//! 3. **Shrinking** (`shrink`) — a violated invariant is shrunk to a
//!    1-minimal reproducer, emitted as an exactly re-executable replay
//!    file ([`repro_text`], [`replay`]) with the expected report embedded,
//!    plus a Chrome trace of the failing run.
//!
//! Determinism end to end: the same schedule always produces the same
//! [`RunOutcome`] and the same report bytes, so a replay either matches
//! its embedded expectation exactly or the stack has changed.

#![warn(missing_docs)]

mod campaign;
mod invariant;
mod run;
mod schedule;
mod shrink;

pub use campaign::{
    embedded_report, judge, judge_sharded, package_failure, random_schedule, replay,
    replay_sharded, repro_text, run_campaign, run_campaign_sharded, CampaignResult, Failure,
    Judged, Replay, EXPECT_PREFIX,
};
pub use invariant::{check, report, Violation};
pub use run::{run, run_sharded, run_traced, NodeEnd, RunOutcome, EVENT_BUDGET};
pub use schedule::{parse_policy, policy_name, FaultEvent, Schedule, Workload};
pub use sp_am::ReliabilityConfig;
pub use sp_switch::RoutePolicy;
