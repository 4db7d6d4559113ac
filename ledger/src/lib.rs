//! The layer-ledger benchmark: four seeded workloads driven through the
//! public APIs of `dwt-serve`, `dwt-pool`, `dwt-recover`, `dwt-rtl` and
//! `dwt-partition`, timed end to end, audited bit for bit, and replayed
//! one layer at a time in a separate traced run.
//!
//! See `README.md` beside this crate for why each workload exists and
//! which per-layer number should move which end-to-end number.

pub mod audit;
pub mod layers;
pub mod report;
pub mod trace;
pub mod workloads;

pub use report::{Metric, Outcome};
pub use workloads::{Options, Workload};
