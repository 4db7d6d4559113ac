//! `dwt-pool` — a fault-tolerant multi-lane tile scheduler over the
//! netlist-level DWT datapaths.
//!
//! The recovery runtime (`dwt-recover`) hardens *one* datapath with a
//! detect → rollback → replay → spare ladder. This crate scales that
//! out: a **pool** shards a pair stream into tiles and serves them
//! across N lanes, each lane a checkpointed
//! [`dwt_recover::executor::TileExecutor`] over any paper design and
//! hardening. Around the lanes sit the serving-stack defences:
//!
//! * [`health`] — per-lane EWMA health scores fed by tile verdicts;
//!   dispatch always prefers the healthiest admissible lane.
//! * [`breaker`] — per-lane circuit breakers (Closed → Open on an EWMA
//!   failure-rate threshold → HalfOpen canary probes), driven entirely
//!   off the pool's cycle clock with exponential reopen backoff.
//! * [`admission`] — optional deadline admission: a tile is only
//!   dispatched to a lane whose queue depth plus estimated cost still
//!   meets the tile's cycle budget, and is shed to the software golden
//!   path when no lane can; its `pick` is the dispatch rule the pool
//!   and the `dwt-serve` server share.
//! * [`chaos`] — correlated failure scenarios (common-mode SEU bursts,
//!   permanently stuck lanes, slow lanes) compiled into per-lane
//!   deterministic fault injectors.
//! * [`clock`] — the tick-source abstraction that lets the breaker,
//!   admission and cost-model machinery run identically on simulator
//!   cycles (this crate's deterministic pool) and monotonic wall-clock
//!   nanoseconds (the `dwt-serve` runtime), with a hand-cranked
//!   [`clock::VirtualClock`] keeping wall-clock code testable
//!   deterministically.
//! * [`histogram`] — the exact nearest-rank latency histogram the
//!   serving reports, campaign binaries and ledger read percentiles
//!   from.
//!
//! Everything runs on virtual time: tile arrivals, queue depths,
//! breaker cooldowns and fault arrivals are all keyed to simulator
//! cycle counts, so a whole chaos campaign replays bit for bit from its
//! seed. The scheduler's invariants — no tile lost, no tile committed
//! twice, concatenated output bit-exact against [`dwt_arch::golden`] in
//! workload order no matter how tiles were redistributed — are enforced
//! at commit time and property-tested.
//!
//! Entry points: [`PoolConfig`] → [`Pool::run`] → [`PoolReport`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod breaker;
pub mod chaos;
pub mod clock;
pub mod error;
pub mod health;
pub mod histogram;
pub mod lane;
pub mod report;
pub mod scheduler;

pub use error::{Error, Result};
pub use report::PoolReport;
pub use scheduler::{Pool, PoolConfig};
