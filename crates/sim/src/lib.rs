//! # sp-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the `sp-am-rs` reproduction of
//! *"Low-Latency Communication on the IBM RISC System/6000 SP"* (SC '96).
//! Having no SP hardware, the reproduction runs the paper's protocols on a
//! simulated machine; this crate provides the engine that machine is built
//! on.
//!
//! ## Model
//!
//! A [`Sim`] owns a *world* (the mutable hardware state — switch, adapters,
//! …; any `W: Send`), an event queue ordered by virtual [`Time`], and a set
//! of *node programs*. Each node program is an ordinary Rust closure running
//! on its own OS thread, but **exactly one thread executes at any instant**
//! (per shard): a node that charges virtual time ([`NodeCtx::advance`]) or
//! blocks ([`NodeCtx::park`]) yields by driving the event queue itself until
//! its own wake comes up or it hands the baton to the next node to run.
//! There is no engine thread. Events are executed in
//! `(time, insertion-sequence)` order, so every run is bit-deterministic
//! regardless of OS scheduling.
//!
//! This "thread-backed coroutine" style lets protocol and benchmark code be
//! written as straight-line blocking Rust — exactly the shape of the C code
//! the paper describes — while the engine remains a simple binary-heap DES.
//! [`Sim::run`] drives one shard; [`Sim::run_parallel`] splits a
//! [`Shardable`] world across several, synchronized in conservative
//! lookahead windows, with the same drive loop.
//!
//! ## Example
//!
//! ```
//! use sp_sim::{Sim, Dur};
//!
//! let mut sim = Sim::new(0u64 /* world */, 42 /* seed */);
//! sim.spawn("ticker", |ctx| {
//!     for _ in 0..3 {
//!         ctx.advance(Dur::us(10.0));
//!         ctx.world(|w| *w += 1);
//!     }
//! });
//! let report = sim.run().unwrap();
//! assert_eq!(report.world, 3);
//! assert_eq!(report.end_time.as_us(), 30.0);
//! ```

#![warn(missing_docs)]

mod engine;
mod error;
mod node;
mod parallel;
#[cfg(test)]
mod test_util;
mod time;

pub use engine::{EventCtx, HotFn, NodeId, ShardProfile, ShardReport, Sim, SimReport, StepFn, Tie};
pub use error::SimError;
pub use node::{NodeCtx, WakeReason};
pub use parallel::{ShardMsg, Shardable};
pub use time::{Dur, Time};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::{
        Dur, EventCtx, NodeCtx, NodeId, ShardMsg, ShardReport, Shardable, Sim, SimError, SimReport,
        Tie, Time, WakeReason,
    };
}
