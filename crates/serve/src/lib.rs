//! `dwt-serve` — a wall-clock multi-core serving runtime over the
//! netlist-level DWT datapaths.
//!
//! The multi-lane pool (`dwt-pool`) proves the fault-tolerance story in
//! deterministic virtual time: health-scored lanes, circuit breakers,
//! deadline admission, chaos campaigns, every run replayable from its
//! seed. This crate carries the same defences onto **real threads and
//! real clocks**, turning the paper's throughput-per-area argument into
//! a measured tiles/sec/machine number:
//!
//! * a work-stealing worker per core, each owning a
//!   [`dwt_recover::executor::TileExecutor`] (event-driven or compiled
//!   backend) with its full replay → TMR → golden degradation ladder;
//! * a **bounded ingress queue** with a choice of backpressure
//!   (block the producer) or load shedding (serve from the golden
//!   model) when full;
//! * **wall-clock deadline admission** reusing the pool's EWMA cost
//!   model, with nanoseconds in place of simulator cycles;
//! * **per-worker circuit breakers** — the pool's breaker verbatim,
//!   fed monotonic-nanosecond ticks through the
//!   [`dwt_pool::clock::Clock`] abstraction, so the wall-clock port is
//!   provably the same state machine virtual-clock tests exercise;
//! * **bounded retries** with exponential backoff and deterministic
//!   jitter, preferring workers that have not yet failed the request;
//! * a terminal **software-golden fallback**, so every submitted
//!   request gets exactly one bit-exact response — overload and chaos
//!   shed hardware goodput, never correctness and never requests.
//!
//! Chaos scenarios from [`dwt_pool::chaos`] (Poisson SEUs, permanently
//! stuck workers, slow workers) drive the same campaigns through real
//! threads; slow workers stall for real wall time so admission and
//! health see the slowdown.
//!
//! Entry points: [`ServeConfig`] → [`Server::start`] →
//! [`Server::submit`] / the response channel → [`Server::shutdown`] →
//! [`ServeStats`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod report;
pub mod request;
pub mod retry;
pub mod server;
mod worker;

pub use config::{OverloadPolicy, ServeConfig};
pub use dwt_arch::golden::golden_tile;
pub use error::{Error, Result};
pub use report::{Counters, ServeReport, ServeStats};
pub use request::{ServedBy, ShedReason, TileRequest, TileResponse};
pub use retry::RetryPolicy;
pub use server::Server;
pub use worker::WorkerStats;
