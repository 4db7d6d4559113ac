//! Fault models for soft-error (SEU) injection campaigns.
//!
//! A [`FaultSpec`] names a disturbance in netlist terms — a net held at
//! a logic level, a flip-flop whose captured bit flips on one clock
//! edge, or a memory word whose stored bit is upset — and
//! [`Simulator::inject`](crate::sim::Simulator::inject) arms it on a
//! running simulation. The models follow the usual radiation-effects
//! taxonomy: stuck-ats stand in for hard defects, transient register
//! and RAM flips for single-event upsets.
//!
//! Faults are resolved by *name* so campaign drivers can enumerate
//! targets from [`Netlist::cells`](crate::netlist::Netlist::cells) and
//! ports without touching simulator internals, and a resolved fault is
//! deterministic: the same spec on the same netlist always disturbs the
//! same bit.

use std::fmt;

use crate::cell::CellKind;
use crate::error::{Error, Result};
use crate::net::NetId;
use crate::netlist::{CellId, Netlist};

/// One injectable disturbance, addressed by port/cell name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Permanently forces one bit of a named net (a port, or the output
    /// bus of a named cell) to a fixed level.
    StuckAt {
        /// Port name, or name of the cell whose output bus is targeted.
        net: String,
        /// Bit position within the bus (LSB = 0).
        bit: usize,
        /// The forced level: `false` = stuck-at-0, `true` = stuck-at-1.
        value: bool,
    },
    /// Flips the bit a named register captures on one specific clock
    /// edge (the tick whose zero-based index equals `cycle`); the
    /// corrupted value propagates until overwritten by the next capture.
    BitFlip {
        /// Name of the register cell.
        register: String,
        /// Bit position within the register (LSB = 0).
        bit: usize,
        /// Zero-based tick index at which the upset strikes.
        cycle: u64,
    },
    /// Flips one stored bit of a named RAM word at the start of one
    /// clock cycle (the memory-cell analogue of [`FaultSpec::BitFlip`]).
    RamUpset {
        /// Name of the RAM cell.
        ram: String,
        /// Word address within the RAM.
        addr: usize,
        /// Bit position within the word (LSB = 0).
        bit: usize,
        /// Zero-based tick index at which the upset strikes.
        cycle: u64,
    },
}

impl FaultSpec {
    /// The same disturbance, moved to strike on tick `now`: the next
    /// clock edge of an engine whose [`cycle`](crate::engine::Engine::cycle)
    /// is `now`. Every injection point that replays a fault schedule
    /// against a rolled-back or relocated clock (the recovery executor,
    /// a partition shard worker) arms transients through this one rule.
    /// A stuck-at has no cycle and is returned unchanged.
    #[must_use]
    pub fn strike_at(self, now: u64) -> FaultSpec {
        match self {
            FaultSpec::BitFlip { register, bit, .. } => {
                FaultSpec::BitFlip { register, bit, cycle: now }
            }
            FaultSpec::RamUpset { ram, addr, bit, .. } => {
                FaultSpec::RamUpset { ram, addr, bit, cycle: now }
            }
            stuck @ FaultSpec::StuckAt { .. } => stuck,
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::StuckAt { net, bit, value } => {
                write!(f, "stuck-at-{} {net}[{bit}]", u8::from(*value))
            }
            FaultSpec::BitFlip { register, bit, cycle } => {
                write!(f, "bit-flip {register}[{bit}]@{cycle}")
            }
            FaultSpec::RamUpset { ram, addr, bit, cycle } => {
                write!(f, "ram-upset {ram}[{addr}].{bit}@{cycle}")
            }
        }
    }
}

/// A [`FaultSpec`] resolved against one concrete netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolvedFault {
    /// Force `net` to `value` forever.
    Stuck {
        /// The physical net.
        net: NetId,
        /// The forced level.
        value: bool,
    },
    /// Invert bit `bit` of what `register` captures at tick `cycle`.
    Flip {
        /// The register cell.
        register: CellId,
        /// Bit position.
        bit: usize,
        /// Tick index.
        cycle: u64,
    },
    /// XOR bit `bit` of word `addr` in `cell` at the start of `cycle`.
    Ram {
        /// The RAM cell.
        cell: CellId,
        /// Word address.
        addr: usize,
        /// Bit position.
        bit: usize,
        /// Tick index.
        cycle: u64,
    },
}

fn fault_error(target: &str, detail: String) -> Error {
    Error::FaultTarget { target: target.to_owned(), detail }
}

/// The nets of a named bus: a port of either direction, or the output
/// bus of a named cell.
fn lookup_nets(netlist: &Netlist, name: &str) -> Result<Vec<NetId>> {
    if let Ok(port) = netlist.port(name) {
        return Ok(port.bus.bits().to_vec());
    }
    netlist
        .cells()
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.kind.output_nets())
        .ok_or_else(|| fault_error(name, "no port or cell with this name".into()))
}

fn find_cell(
    netlist: &Netlist,
    name: &str,
    wanted: &str,
    matches: impl Fn(&CellKind) -> bool,
) -> Result<CellId> {
    netlist
        .cells()
        .iter()
        .position(|c| c.name == name && matches(&c.kind))
        .map(|i| CellId(i as u32))
        .ok_or_else(|| fault_error(name, format!("no {wanted} cell with this name")))
}

/// Resolves a spec against a netlist, validating names and bounds.
pub(crate) fn resolve(netlist: &Netlist, spec: &FaultSpec) -> Result<ResolvedFault> {
    match spec {
        FaultSpec::StuckAt { net, bit, value } => {
            let nets = lookup_nets(netlist, net)?;
            let id = *nets.get(*bit).ok_or_else(|| {
                fault_error(net, format!("bit {bit} out of range (width {})", nets.len()))
            })?;
            Ok(ResolvedFault::Stuck { net: id, value: *value })
        }
        FaultSpec::BitFlip { register, bit, cycle } => {
            let id = find_cell(netlist, register, "register", |k| {
                matches!(k, CellKind::Register { .. })
            })?;
            let width = match &netlist.cell(id).kind {
                CellKind::Register { q, .. } => q.width(),
                _ => unreachable!("matched a register"),
            };
            if *bit >= width {
                return Err(fault_error(
                    register,
                    format!("bit {bit} out of range (width {width})"),
                ));
            }
            Ok(ResolvedFault::Flip { register: id, bit: *bit, cycle: *cycle })
        }
        FaultSpec::RamUpset { ram, addr, bit, cycle } => {
            let id = find_cell(netlist, ram, "ram", |k| matches!(k, CellKind::Ram { .. }))?;
            let (words, width) = match &netlist.cell(id).kind {
                CellKind::Ram { words, rdata, .. } => (*words, rdata.width()),
                _ => unreachable!("matched a ram"),
            };
            if *addr >= words {
                return Err(fault_error(
                    ram,
                    format!("address {addr} out of range ({words} words)"),
                ));
            }
            if *bit >= width {
                return Err(fault_error(ram, format!("bit {bit} out of range (width {width})")));
            }
            Ok(ResolvedFault::Ram { cell: id, addr: *addr, bit: *bit, cycle: *cycle })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let s = b.carry_add("s", &x, &x, 9).unwrap();
        let q = b.register("q", &s).unwrap();
        let addr = b.constant(0, 2).unwrap();
        let gnd = b.gnd().unwrap();
        let rd = b.ram("m", 4, 9, &addr, &addr, &q, gnd).unwrap();
        b.output("o", &rd).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn resolves_ports_cells_registers_and_rams() {
        let n = sample();
        let stuck_port = resolve(&n, &FaultSpec::StuckAt { net: "x".into(), bit: 3, value: true });
        assert!(matches!(stuck_port, Ok(ResolvedFault::Stuck { value: true, .. })));
        let stuck_cell = resolve(&n, &FaultSpec::StuckAt { net: "s".into(), bit: 8, value: false });
        assert!(matches!(stuck_cell, Ok(ResolvedFault::Stuck { value: false, .. })));
        let flip = resolve(&n, &FaultSpec::BitFlip { register: "q".into(), bit: 0, cycle: 7 });
        assert!(matches!(flip, Ok(ResolvedFault::Flip { bit: 0, cycle: 7, .. })));
        let ram = resolve(&n, &FaultSpec::RamUpset { ram: "m".into(), addr: 3, bit: 8, cycle: 1 });
        assert!(matches!(ram, Ok(ResolvedFault::Ram { addr: 3, bit: 8, .. })));
    }

    #[test]
    fn bad_references_error_with_context() {
        let n = sample();
        let cases = [
            FaultSpec::StuckAt { net: "nope".into(), bit: 0, value: true },
            FaultSpec::StuckAt { net: "x".into(), bit: 8, value: true },
            FaultSpec::BitFlip { register: "s".into(), bit: 0, cycle: 0 },
            FaultSpec::BitFlip { register: "q".into(), bit: 9, cycle: 0 },
            FaultSpec::RamUpset { ram: "m".into(), addr: 4, bit: 0, cycle: 0 },
            FaultSpec::RamUpset { ram: "m".into(), addr: 0, bit: 9, cycle: 0 },
        ];
        for spec in cases {
            let err = resolve(&n, &spec).unwrap_err();
            assert!(matches!(err, Error::FaultTarget { .. }), "{spec} resolved to {err:?}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn strike_at_moves_transients_and_keeps_stuck_ats() {
        let flip = FaultSpec::BitFlip { register: "q".into(), bit: 3, cycle: 90 };
        assert_eq!(
            flip.strike_at(7),
            FaultSpec::BitFlip { register: "q".into(), bit: 3, cycle: 7 }
        );
        let upset = FaultSpec::RamUpset { ram: "m".into(), addr: 2, bit: 1, cycle: 0 };
        assert_eq!(
            upset.strike_at(41),
            FaultSpec::RamUpset { ram: "m".into(), addr: 2, bit: 1, cycle: 41 }
        );
        let stuck = FaultSpec::StuckAt { net: "x".into(), bit: 0, value: true };
        assert_eq!(stuck.clone().strike_at(5), stuck);
    }

    #[test]
    fn specs_display_compactly() {
        let s = FaultSpec::StuckAt { net: "alpha_r".into(), bit: 2, value: true };
        assert_eq!(s.to_string(), "stuck-at-1 alpha_r[2]");
        let f = FaultSpec::BitFlip { register: "p7".into(), bit: 11, cycle: 40 };
        assert_eq!(f.to_string(), "bit-flip p7[11]@40");
        let r = FaultSpec::RamUpset { ram: "m".into(), addr: 2, bit: 5, cycle: 9 };
        assert_eq!(r.to_string(), "ram-upset m[2].5@9");
    }
}
