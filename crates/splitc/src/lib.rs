//! # sp-splitc — a Split-C-style global-address-space runtime
//!
//! Split-C (Culler et al., Supercomputing '93) extends C with a global
//! address space: *global pointers* name memory on any processor, accessed
//! with blocking reads/writes, split-phase `get`/`put` completed by
//! `sync()`, and one-way `store`s completed by `all_store_sync()`. The
//! paper ports Split-C to the SP twice — over SP AM and over MPL — and uses
//! five application benchmarks to compare the SP against the CM-5, CS-2 and
//! U-Net/ATM cluster (§3, Tables 4–5, Figure 4).
//!
//! This crate reproduces that stack:
//!
//! * [`Gas`] — the Split-C communication interface as a trait;
//! * [`backend`] — three implementations: over SP AM (`AmGas`), over the
//!   MPL comparator (`MplGas`), and over LogGP machine models (`LogGas`)
//!   parameterized for the CM-5 / CS-2 / U-Net comparison;
//! * [`apps`] — the benchmark set: blocked matrix multiply (two block
//!   sizes), sample sort (fine-grain and bulk variants), and radix sort
//!   (fine-grain and bulk variants), each instrumented to separate
//!   computation from communication time exactly as the paper's Figure 4
//!   requires;
//! * [`util`] — SPMD helpers (value exchange, deterministic key
//!   generation).
//!
//! Programs are SPMD: every node runs the same function against its `Gas`
//! endpoint; allocation sequences are identical across nodes, so symmetric
//! data structures live at identical local addresses machine-wide (the
//! Split-C "spread" layout).

#![warn(missing_docs)]

pub mod apps;
pub mod backend;
mod gas;
pub mod run;
pub mod util;

pub use gas::{AppTimes, Gas};
pub use run::{run_spmd, run_spmd_report, Platform, SpmdReport};
pub use sp_am::{GlobalPtr, Mem, MemPool};
