//! # sp-am — SP Active Messages (the paper's contribution)
//!
//! A full implementation of the Generic Active Messages 1.1 interface
//! layered **directly on the TB2 adapter model** (`sp-adapter`), using no
//! other communication software — exactly the structure of the paper's
//! SP AM (§2). The interface is the paper's Table 1:
//!
//! | function            | operation                                         |
//! |---------------------|---------------------------------------------------|
//! | `am_request_M`      | send an M-word request (M = 1..4)                 |
//! | `am_reply_M`        | send an M-word reply (from a request handler)     |
//! | `am_store`          | send a long message, blocking                     |
//! | `am_store_async`    | send a long message, non-blocking                 |
//! | `am_get`            | fetch data from a remote node                     |
//! | `am_poll`           | poll the network                                  |
//!
//! (Rust spelling: [`Am::request_1`]…[`Am::request_4`], [`AmEnv::reply_1`]…,
//! [`Am::store`], [`Am::store_async`], [`Am::get`], [`Am::poll`].)
//!
//! ## Reliability layer (paper §2.2)
//!
//! SP AM provides reliable, **ordered** delivery, optimized for the SP
//! switch's lossless behaviour; packets are lost only to receive-FIFO
//! overflow (and, in tests, fault injection):
//!
//! * per-destination **sequence numbers** with a **sliding window** — 72
//!   packets for the request channel, 76 for the reply channel;
//! * acknowledgements **piggybacked** on every request/reply going the
//!   other way; **explicit ACKs** when a quarter of the window's worth of
//!   packets is pending;
//! * an out-of-sequence packet is **dropped and NACKed**, forcing go-back-N
//!   retransmission of the missing and all subsequent packets;
//! * bulk transfers are cut into **8064-byte chunks of 36 packets** that
//!   share one sequence number (the window slides by 36; address offsets
//!   order packets within the chunk; one ACK per chunk), and chunk *N+2*
//!   launches only after the ACK of chunk *N* — a 2-deep pipeline whose
//!   per-chunk send overhead exceeds one round-trip, keeping it full;
//! * a **keep-alive** protocol — timeouts emulated by counting unsuccessful
//!   polls — probes the peer, which answers with a NACK/ACK that restarts
//!   any lost traffic.
//!
//! ## Using it
//!
//! Build an [`AmMachine`], spawn one program per node, and interact through
//! the [`Am`] facade. Handlers are plain functions over your per-node state
//! type `S`:
//!
//! ```
//! use sp_am::{Am, AmArgs, AmEnv, AmMachine};
//!
//! fn pong(env: &mut AmEnv<'_, u32>, args: AmArgs) {
//!     *env.state += args.a[0];
//!     env.reply_1(args.a[1] as u16, 99); // args.a[1] carries the reply handler id
//! }
//! fn done(env: &mut AmEnv<'_, u32>, args: AmArgs) {
//!     *env.state += args.a[0];
//! }
//!
//! let mut m = AmMachine::new(sp_adapter::SpConfig::thin(2), sp_am::AmConfig::default(), 7);
//! m.spawn("client", 0u32, |am| {
//!     let pong_h = am.register(pong);
//!     let done_h = am.register(done);
//!     am.request_2(1, pong_h, 1, done_h as u32);
//!     while *am.state() == 0 {
//!         am.poll();
//!     }
//!     assert_eq!(*am.state(), 99);
//! });
//! m.spawn("server", 0u32, |am| {
//!     am.register(pong); // same table on every node
//!     am.register(done);
//!     while *am.state() == 0 {
//!         am.poll();
//!     }
//! });
//! m.run().unwrap();
//! ```

#![warn(missing_docs)]

mod api;
mod channel;
mod config;
mod machine;
mod mem;
mod port;
mod stats;
mod wire;

pub use api::{Am, AmArgs, AmEnv, BulkHandle, HandlerId};
pub use config::{AmConfig, ReliabilityConfig};
pub use machine::{AmMachine, AmReport};
pub use mem::{GlobalPtr, Mem, MemPool};
pub use port::AmPort;
pub use stats::AmStats;
pub use wire::{AmPacket, Body, Channel, Payload, CHUNK_BYTES, CHUNK_PACKETS};

/// World type used by every SP AM simulation.
pub type AmWorld = sp_adapter::SpWorld<wire::AmPacket>;
/// Node context type used by every SP AM simulation.
pub type AmCtx = sp_adapter::SpCtx<wire::AmPacket>;
