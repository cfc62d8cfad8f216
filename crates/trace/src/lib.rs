//! `sp-trace`: workspace-wide virtual-time tracing and metrics.
//!
//! Every layer of the simulated SP — the discrete-event engine, the TB2
//! adapter, the switch fabric, and the active-message protocol — records
//! fixed-size [`Record`]s into a shared [`Tracer`] when one is installed.
//! Timestamps are virtual-time nanoseconds, so traces are bit-deterministic
//! across runs and machines.
//!
//! Several consumers sit on top of the recorder:
//!
//! * [`chrome::to_chrome_json`] renders a trace to the Chrome
//!   trace-event JSON array format, loadable in `ui.perfetto.dev`.
//! * [`metrics::Metrics::aggregate`] computes log2 latency histograms,
//!   instant counts, counter high-water marks, and link utilization.
//! * [`series::TimeSeries::sample`] derives periodic gauge time-series
//!   (link occupancy, FIFO depth, in-flight packets, shard heap depth)
//!   with JSON export and ASCII sparklines.
//! * [`digest::Digest`] is a fixed-memory streaming quantile sketch for
//!   tail-latency percentiles (p50/p99/p999) over millions of samples.
//! * [`flight::FlightRecorder`] is a bounded always-on ring that dumps
//!   the last slice of virtual time as a Perfetto trace after a failure.
//! * `sp-bench`'s `trace_rt` module reconstructs the paper's one-word
//!   round-trip cost-attribution table from measured spans.
//!
//! Overhead contract: components hold an `Option<Tracer>`; when it is
//! `None` the per-event cost is one branch — no locks, no allocation —
//! so an untraced run's engine hot path is unaffected. When tracing is
//! enabled, each record is one short uncontended mutex acquire into a
//! fixed-capacity per-node ring buffer (oldest records overwritten, never
//! reallocated).

#![warn(missing_docs)]

pub mod chrome;
pub mod digest;
pub mod flight;
pub mod metrics;
mod record;
mod ring;
pub mod series;

pub use digest::Digest;
pub use flight::FlightRecorder;
pub use metrics::{Hist, Metrics};
pub use record::{Kind, Phase, Record, Track, TrackKind};
pub use ring::Tracer;
pub use series::{sparkline, Series, TimeSeries};
