//! # sp-switch — SP high-performance switch fabric model
//!
//! The SP's interconnect (§1.2 of the paper) is a scalable multistage
//! switch: racks of up to 16 thin nodes, **four distinct routes between
//! each pair of nodes**, a hardware latency of about **500 ns**, and link
//! bandwidth close to **40 MB/s**. The switch itself is lossless and highly
//! reliable; packets are only lost at the *adapter's* receive FIFO on
//! overflow (modeled in `sp-adapter`), or through explicit fault injection.
//!
//! ## Timing model
//!
//! Wormhole-style over an explicit [`Topology`]: a packet of `w` wire bytes
//! leaving node `s` for node `d` occupies each directed link on its route —
//! `s`'s injection link, any inter-frame cables, `d`'s ejection link — for
//! `w/B` (B = link bandwidth), and pays `L` (hop latency) per switch stage
//! crossed: one stage within a frame, two across frames. Links are
//! independent resources, so
//!
//! * a single sender is paced at `B` (the paper's 34–35 MB/s of payload once
//!   the 32-byte packet header is discounted),
//! * `k` senders converging on one receiver share the receiver's ejection
//!   link — the paper's §4.4 observation that MPICH's naive `MPI_Alltoall`
//!   ("all processors try to send to the same processor at the same time")
//!   bottlenecks is exactly this resource, and
//! * cross-frame traffic additionally contends for the inter-frame cables,
//!   which the four per-pair routes spread across four parallel cables.
//!
//! A [`Topology::single_frame`] fabric reproduces the historical single-hop
//! model byte-for-byte (see the golden pins in the integration tests).
//! Delivery per (src, dst) pair is FIFO (all routes between a pair have
//! equal length in a real SP partition, and the model's per-link resources
//! are monotone), which is what lets SP AM promise *ordered* delivery
//! (§4.1). A test-only reordering fault can be injected to exercise AM's
//! NACK path; fault injectors can also be pinned to individual links.

#![warn(missing_docs)]

mod fabric;
mod fault;
mod topology;

pub use fabric::{RoutePolicy, StagedTransit, Switch, SwitchConfig, SwitchStats, Transit};
pub use fault::{FaultInjector, FaultKind, FaultWindow, PartitionWindow};
pub use topology::{
    HopPath, LinkClass, LinkId, Topology, DEFAULT_CABLES_PER_PAIR, FRAME_PORTS, MAX_PATH_LINKS,
};
