//! # sp-adapter — the TB2 network adapter model
//!
//! The SP's nodes attach to the switch through the "TB2" communication
//! adapter (paper §1.2, Fig. 1): a MicroChannel card with an Intel i860,
//! 8 MB of DRAM, two DMA engines and a Memory/Switch Management Unit. The
//! standard firmware exposes, to **one user process per node**, a pair of
//! memory-mapped FIFOs in *host* memory plus a packet-length array in
//! *adapter* memory:
//!
//! * **send FIFO** — 128 entries of 256 bytes, each holding one packet
//!   (32-byte header + up to 224 bytes of payload). The host builds a packet
//!   in the next entry, explicitly flushes the cache lines (the RS/6000
//!   memory bus is not coherent), then stores the packet's byte count into
//!   the corresponding **packet-length array** slot across the MicroChannel
//!   (~1 µs per access; bulk senders batch several length stores into one).
//!   The firmware polls the length array and DMAs ready packets to the MSMU.
//! * **receive FIFO** — 64 entries per active node; the adapter DMAs
//!   arriving packets in, the host copies them out, flushes the entry in
//!   preparation for wrap-around, and **lazily** pops the adapter-side FIFO
//!   pointer (one MicroChannel access per batch of pops).
//!
//! Packets that arrive while the receive FIFO is full are **dropped** — the
//! only loss source in a healthy SP, and the reason SP AM carries a
//! sliding-window/NACK reliability layer.
//!
//! This crate models all of the above as a [`SpWorld`] usable as the world
//! type of an [`sp_sim::Sim`], and a [`host`] module of host-side operations
//! that charge the [`sp_machine::CostModel`] costs. The protocol layers
//! (`sp-am`, `sp-mpl`, `sp-mpi`'s MPI-F baseline) are written against this
//! interface exactly as the paper's layers were written against the real
//! firmware. The payload type `P` is generic: each protocol defines its own
//! wire representation; the adapter sees only byte counts.

#![warn(missing_docs)]

mod config;
pub mod host;
mod unit;
mod world;

pub use config::AdapterConfig;
pub use unit::{
    AdapterStats, FifoFull, WirePacket, ENTRY_BYTES, HEADER_BYTES, MAX_PAYLOAD,
    RECV_ENTRIES_PER_NODE, SEND_FIFO_ENTRIES,
};
pub use world::{SpConfig, SpMsg, SpWorld};

// Downstream crates configure the fabric through `SpConfig.switch`; re-export
// the routing policy so they need not depend on `sp-switch` directly.
pub use sp_switch::RoutePolicy;

/// The world type every SP-machine simulation uses, parameterized by the
/// protocol's wire payload.
pub type SpCtx<P> = sp_sim::NodeCtx<SpWorld<P>>;
