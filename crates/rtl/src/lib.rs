//! # dwt-rtl
//!
//! Register-transfer-level substrate for the DATE'05 DWT architecture
//! reproduction: netlist construction, validation, and cycle-accurate
//! event-driven simulation with glitch-aware transition counting.
//!
//! This crate plays the role VHDL + a simulator played for the paper's
//! authors. Architectures are built as explicit netlists through
//! [`builder::NetlistBuilder`], mixing the two abstraction levels the
//! paper compares:
//!
//! * behavioral word operators ([`cell::CellKind::CarryAdd`]) that an
//!   FPGA mapper implements on fast-carry chains, and
//! * structural bit-level logic ([`cell::CellKind::FullAdder`],
//!   [`cell::CellKind::Lut`]) mapped to plain logic elements.
//!
//! [`sim::Simulator`] executes a netlist clock cycle by clock cycle under
//! a unit-delay event model, so deep combinational cones glitch and the
//! recorded [`sim::ActivityStats`] expose exactly the switching-activity
//! differences that drive the paper's power comparisons. `dwt-fpga`
//! turns those counts plus a device model into area/Fmax/power reports.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), dwt_rtl::Error> {
//! use dwt_rtl::builder::NetlistBuilder;
//! use dwt_rtl::sim::Simulator;
//!
//! // y = (x * 5) >> 1 via shift-and-add, pipelined once.
//! let mut b = NetlistBuilder::new();
//! let x = b.input("x", 8)?;
//! let x4 = b.shift_left(&x, 2)?;
//! let sum = b.carry_add("sum", &x4, &x, 11)?;
//! let q = b.register("q", &sum)?;
//! let y = b.shift_right_arith(&q, 1)?;
//! b.output("y", &y)?;
//!
//! let mut sim = Simulator::new(b.finish()?)?;
//! sim.set_input("x", 20)?;
//! sim.tick();
//! sim.tick();
//! assert_eq!(sim.peek("y")?, 50);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `deny`, not `forbid`: the jit backend's loader module needs a scoped
// `#[allow(unsafe_code)]` for its dlopen/dlsym FFI shim and the kernel
// entry-point calls. Everything else in the crate stays safe code.
#![deny(unsafe_code)]

pub mod builder;
pub mod bytes;
pub mod cell;
pub mod compile;
pub mod dot;
pub mod engine;
mod error;
pub mod fault;
pub mod jit;
pub mod net;
pub mod netlist;
pub mod opt;
mod proptests;
pub mod query;
pub mod sim;
pub mod sliced;
pub mod stats;
pub mod vcd;

pub use error::{Error, Result};
