//! # dwt-recover
//!
//! Detect–rollback–replay recovery runtime for the simulated lifting
//! datapaths: checkpointed streaming tile execution with a graceful-
//! degradation ladder.
//!
//! PR 1 taught the repo to *break* the datapaths (seeded SEU injection,
//! hardened TMR/parity variants); this crate teaches the system to
//! *heal*. Image sample pairs stream through any of the five paper
//! designs tile by tile, and every tile is protected by three layers:
//!
//! 1. **Checkpointing** — at each tile boundary the runtime captures a
//!    bit-exact [`dwt_rtl::sim::Snapshot`] of the drained simulator and
//!    computes the tile's reference from zero history with the
//!    [`dwt_arch::golden::GoldenStream`] model, so any mid-tile failure
//!    can be rolled back without replaying the whole stream.
//! 2. **Online detection** — duplication-with-comparison (DWC) checks
//!    every flushed coefficient against the golden model the cycle it
//!    emerges, a watchdog bounds the event budget of each cycle so an
//!    oscillating (stuck) netlist is reported as a hang instead of
//!    wedging the service, and parity-hardened primaries additionally
//!    contribute their `fault_detect` flag.
//! 3. **A degradation ladder** — on detection the tile is rolled back
//!    and replayed (transient upsets do not recur); if the failure
//!    repeats, the tile is re-dispatched to a TMR-hardened spare of the
//!    same design; if even the spare fails, the runtime falls back to
//!    the software golden model, which is correct by definition. Every
//!    rung is accounted: which rung served each tile, how many cycles
//!    recovery cost, and how quickly faults were detected.
//!
//! The [`executor::TileExecutor`] is the engine; [`seu::PoissonSeu`]
//! models single-event upsets as a Poisson process over executed
//! cycles (optionally mixing in persistent stuck-at "hard" faults that
//! survive rollback and force the deeper rungs). The `dwt-bench`
//! crate's `recovery_campaign` binary sweeps SEU rates across Designs
//! 1–5 and reports availability, throughput degradation, detection
//! latency and SDC escapes.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), dwt_recover::Error> {
//! use dwt_arch::designs::Design;
//! use dwt_arch::golden::still_tone_pairs;
//! use dwt_recover::executor::{ExecutorConfig, TileExecutor};
//! use dwt_recover::injector::NoFaults;
//! use dwt_rtl::sim::Simulator;
//!
//! let cfg = ExecutorConfig { tile_pairs: 16, ..ExecutorConfig::default() };
//! let mut exec = TileExecutor::<Simulator>::new(Design::D2, cfg)?;
//! let report = exec.run_stream(&still_tone_pairs(32, 1), &mut NoFaults)?;
//! assert_eq!(report.tiles.len(), 2);
//! assert_eq!(report.sdc_escapes(), 0);
//! assert!((report.availability() - 1.0).abs() < 1e-12); // no faults, no overhead
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod executor;
pub mod injector;
pub mod seu;
pub mod watchdog;

mod error;

pub use error::{Error, Result};
