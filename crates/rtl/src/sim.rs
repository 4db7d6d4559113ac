//! Event-driven unit-delay simulation with transition counting.
//!
//! Every combinational cell is given one unit of delay. Within a clock
//! cycle the simulator propagates changes event by event, so a cell whose
//! inputs arrive at *different* times re-evaluates and may glitch —
//! producing extra output transitions exactly as deep combinational
//! cones do in real hardware. The per-cell transition counts are the raw
//! material of the power model in `dwt-fpga`: pipelined designs show
//! fewer transitions per cycle because their registers stop glitch
//! propagation, which is the physical mechanism behind the paper's
//! observation that the 21-stage designs cut power roughly in half.

use std::sync::Arc;

use crate::cell::CellKind;
use crate::error::{Error, Result};
use crate::fault::{self, FaultSpec, ResolvedFault};
use crate::net::{bits_to_signed, signed_to_bits, Bus, NetId};
use crate::netlist::{CellId, Netlist, PortDirection};
use crate::snapbytes::{ByteReader, ByteWriter};

/// Per-cell and aggregate switching-activity counters.
///
/// Combinational transitions are split by the capacitance class of the
/// net they happen on, because the energy of a transition is dominated
/// by what it drives:
///
/// * **routed** — the net fans out through general-purpose routing;
/// * **local** — the net's only reader is a register (a folded
///   flip-flop's D pin inside the same logic element) or the next full
///   adder of a chain (LAB-local lines);
/// * **carry** — internal carry hops of a fast-carry chain (dedicated
///   short wires).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ActivityStats {
    /// Output-bit transitions per combinational cell (indexed by cell).
    pub cell_toggles: Vec<u64>,
    /// Transitions on generally routed nets.
    pub routed_toggles: u64,
    /// Transitions on LAB-local nets (folded-FF feeds, FA-chain hops).
    pub local_toggles: u64,
    /// Internal carry-chain transitions.
    pub carry_toggles: u64,
    /// Flip-flop output transitions, summed over all registers.
    pub ff_toggles: u64,
    /// Clock cycles simulated.
    pub cycles: u64,
}

impl ActivityStats {
    /// Total combinational transitions across all cells.
    #[must_use]
    pub fn total_cell_toggles(&self) -> u64 {
        self.cell_toggles.iter().sum()
    }

    /// Mean combinational transitions per simulated cycle.
    #[must_use]
    pub fn toggles_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_cell_toggles() as f64 / self.cycles as f64
        }
    }

    /// Mean flip-flop transitions per simulated cycle.
    #[must_use]
    pub fn ff_toggles_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ff_toggles as f64 / self.cycles as f64
        }
    }

    /// Mean transitions per cycle in each capacitance class:
    /// `(routed, local, carry)`.
    #[must_use]
    pub fn class_toggles_per_cycle(&self) -> (f64, f64, f64) {
        if self.cycles == 0 {
            return (0.0, 0.0, 0.0);
        }
        let c = self.cycles as f64;
        (
            self.routed_toggles as f64 / c,
            self.local_toggles as f64 / c,
            self.carry_toggles as f64 / c,
        )
    }
}

/// Capacitance class of a net (see [`ActivityStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetClass {
    Routed,
    Local,
}

/// A bit-exact capture of every piece of mutable simulator state, as
/// produced by [`Simulator::snapshot`] and consumed by
/// [`Simulator::restore`].
///
/// A snapshot records net values, in-flight events, switching
/// statistics, RAM contents, carry-chain state, the absolute cycle
/// counter, staged inputs, and all armed faults (stuck-at clamps,
/// pending register flips and RAM upsets) — everything needed for a
/// restored simulator to replay the exact cycle-by-cycle behaviour of
/// the original from the capture point onward. The immutable netlist is
/// *not* copied; a snapshot can only be restored into a simulator built
/// from an identical netlist (checked by net/cell counts).
///
/// Snapshots are the rollback substrate of checkpointed tile execution:
/// a recovery runtime captures one at every tile boundary and rewinds
/// to it when a fault is detected mid-tile.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    values: Vec<bool>,
    projected: Vec<bool>,
    staged_inputs: Vec<(Bus, i64)>,
    stats: ActivityStats,
    pending: Vec<std::collections::VecDeque<(u32, bool)>>,
    /// Wheel contents in sorted order (heap order is unspecified, so a
    /// canonical ordering keeps `PartialEq` meaningful).
    wheel: Vec<std::cmp::Reverse<(u32, u8, u32, bool)>>,
    enqueued_at: Vec<u32>,
    ram_contents: Vec<Vec<i64>>,
    carry_state: Vec<u64>,
    cycle: u64,
    stuck: Vec<(u32, bool)>,
    flips: Vec<(CellId, usize, u64)>,
    ram_upsets: Vec<(CellId, usize, usize, u64)>,
    event_cap: u64,
    last_eval: Option<CellId>,
}

impl Snapshot {
    /// The absolute tick count at the moment of capture.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether any fault (stuck-at clamp, pending flip or RAM upset)
    /// was armed when the snapshot was taken. Recovery runtimes use
    /// this to tell a clean checkpoint from one that would replay a
    /// persistent fault.
    #[must_use]
    pub fn has_armed_faults(&self) -> bool {
        !self.stuck.is_empty() || !self.flips.is_empty() || !self.ram_upsets.is_empty()
    }
}

/// Leading tag byte of a serialized event-driven snapshot (`'E'`).
const SNAPSHOT_TAG: u8 = b'E';
/// Encoding version; bump on any field/layout change.
const SNAPSHOT_VERSION: u8 = 1;

fn write_bus(w: &mut ByteWriter, bus: &Bus) {
    w.len(bus.width());
    for &net in bus.bits() {
        w.u32(net.index() as u32);
    }
}

fn read_bus(r: &mut ByteReader<'_>) -> Result<Bus> {
    let width = r.len(4)?;
    let mut bits = Vec::with_capacity(width);
    for _ in 0..width {
        bits.push(NetId(r.u32()?));
    }
    Bus::new(bits).map_err(|e| Error::SnapshotDecode { detail: format!("bad bus: {e}") })
}

impl crate::engine::PortableSnapshot for Snapshot {
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(SNAPSHOT_TAG);
        w.u8(SNAPSHOT_VERSION);
        w.len(self.values.len());
        for &v in &self.values {
            w.bool(v);
        }
        w.len(self.projected.len());
        for &v in &self.projected {
            w.bool(v);
        }
        w.len(self.staged_inputs.len());
        for (bus, value) in &self.staged_inputs {
            write_bus(&mut w, bus);
            w.i64(*value);
        }
        w.len(self.stats.cell_toggles.len());
        for &t in &self.stats.cell_toggles {
            w.u64(t);
        }
        w.u64(self.stats.routed_toggles);
        w.u64(self.stats.local_toggles);
        w.u64(self.stats.carry_toggles);
        w.u64(self.stats.ff_toggles);
        w.u64(self.stats.cycles);
        w.len(self.pending.len());
        for queue in &self.pending {
            w.len(queue.len());
            for &(at, value) in queue {
                w.u32(at);
                w.bool(value);
            }
        }
        w.len(self.wheel.len());
        for &std::cmp::Reverse((at, tier, net, value)) in &self.wheel {
            w.u32(at);
            w.u8(tier);
            w.u32(net);
            w.bool(value);
        }
        w.len(self.enqueued_at.len());
        for &at in &self.enqueued_at {
            w.u32(at);
        }
        w.len(self.ram_contents.len());
        for ram in &self.ram_contents {
            w.len(ram.len());
            for &word in ram {
                w.i64(word);
            }
        }
        w.len(self.carry_state.len());
        for &s in &self.carry_state {
            w.u64(s);
        }
        w.u64(self.cycle);
        w.len(self.stuck.len());
        for &(net, value) in &self.stuck {
            w.u32(net);
            w.bool(value);
        }
        w.len(self.flips.len());
        for &(cell, bit, cycle) in &self.flips {
            w.u32(cell.index() as u32);
            w.usize(bit);
            w.u64(cycle);
        }
        w.len(self.ram_upsets.len());
        for &(cell, addr, bit, cycle) in &self.ram_upsets {
            w.u32(cell.index() as u32);
            w.usize(addr);
            w.usize(bit);
            w.u64(cycle);
        }
        w.u64(self.event_cap);
        match self.last_eval {
            None => w.u8(0),
            Some(cell) => {
                w.u8(1);
                w.u32(cell.index() as u32);
            }
        }
        w.finish()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let tag = r.u8()?;
        if tag != SNAPSHOT_TAG {
            return Err(Error::SnapshotDecode {
                detail: format!("tag {tag:#04x} is not an event-driven snapshot"),
            });
        }
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(Error::SnapshotDecode {
                detail: format!("unsupported snapshot version {version}"),
            });
        }
        let mut values = Vec::with_capacity(r.len(1)?);
        for _ in 0..values.capacity() {
            values.push(r.bool()?);
        }
        let mut projected = Vec::with_capacity(r.len(1)?);
        for _ in 0..projected.capacity() {
            projected.push(r.bool()?);
        }
        let mut staged_inputs = Vec::with_capacity(r.len(4)?);
        for _ in 0..staged_inputs.capacity() {
            let bus = read_bus(&mut r)?;
            let value = r.i64()?;
            staged_inputs.push((bus, value));
        }
        let mut cell_toggles = Vec::with_capacity(r.len(8)?);
        for _ in 0..cell_toggles.capacity() {
            cell_toggles.push(r.u64()?);
        }
        let stats = ActivityStats {
            cell_toggles,
            routed_toggles: r.u64()?,
            local_toggles: r.u64()?,
            carry_toggles: r.u64()?,
            ff_toggles: r.u64()?,
            cycles: r.u64()?,
        };
        let mut pending = Vec::with_capacity(r.len(4)?);
        for _ in 0..pending.capacity() {
            let mut queue = std::collections::VecDeque::with_capacity(r.len(5)?);
            for _ in 0..queue.capacity() {
                let at = r.u32()?;
                let value = r.bool()?;
                queue.push_back((at, value));
            }
            pending.push(queue);
        }
        let mut wheel = Vec::with_capacity(r.len(10)?);
        for _ in 0..wheel.capacity() {
            let at = r.u32()?;
            let tier = r.u8()?;
            let net = r.u32()?;
            let value = r.bool()?;
            wheel.push(std::cmp::Reverse((at, tier, net, value)));
        }
        let mut enqueued_at = Vec::with_capacity(r.len(4)?);
        for _ in 0..enqueued_at.capacity() {
            enqueued_at.push(r.u32()?);
        }
        let mut ram_contents = Vec::with_capacity(r.len(4)?);
        for _ in 0..ram_contents.capacity() {
            let mut ram = Vec::with_capacity(r.len(8)?);
            for _ in 0..ram.capacity() {
                ram.push(r.i64()?);
            }
            ram_contents.push(ram);
        }
        let mut carry_state = Vec::with_capacity(r.len(8)?);
        for _ in 0..carry_state.capacity() {
            carry_state.push(r.u64()?);
        }
        let cycle = r.u64()?;
        let mut stuck = Vec::with_capacity(r.len(5)?);
        for _ in 0..stuck.capacity() {
            let net = r.u32()?;
            let value = r.bool()?;
            stuck.push((net, value));
        }
        let mut flips = Vec::with_capacity(r.len(20)?);
        for _ in 0..flips.capacity() {
            let cell = CellId(r.u32()?);
            let bit = r.usize()?;
            let due = r.u64()?;
            flips.push((cell, bit, due));
        }
        let mut ram_upsets = Vec::with_capacity(r.len(28)?);
        for _ in 0..ram_upsets.capacity() {
            let cell = CellId(r.u32()?);
            let addr = r.usize()?;
            let bit = r.usize()?;
            let due = r.u64()?;
            ram_upsets.push((cell, addr, bit, due));
        }
        let event_cap = r.u64()?;
        let last_eval = match r.u8()? {
            0 => None,
            1 => Some(CellId(r.u32()?)),
            other => {
                return Err(Error::SnapshotDecode { detail: format!("bad last_eval tag {other}") })
            }
        };
        r.finish()?;
        Ok(Snapshot {
            values,
            projected,
            staged_inputs,
            stats,
            pending,
            wheel,
            enqueued_at,
            ram_contents,
            carry_state,
            cycle,
            stuck,
            flips,
            ram_upsets,
            event_cap,
            last_eval,
        })
    }
}

/// Cycle-accurate simulator over an owned [`Netlist`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dwt_rtl::Error> {
/// use dwt_rtl::builder::NetlistBuilder;
/// use dwt_rtl::sim::Simulator;
///
/// let mut b = NetlistBuilder::new();
/// let x = b.input("x", 8)?;
/// let y = b.input("y", 8)?;
/// let sum = b.carry_add("sum", &x, &y, 9)?;
/// let q = b.register("q", &sum)?;
/// b.output("out", &q)?;
///
/// let mut sim = Simulator::new(b.finish()?)?;
/// sim.set_input("x", 100)?;
/// sim.set_input("y", -30)?;
/// sim.tick(); // inputs propagate to the adder
/// sim.tick(); // the register captures the sum
/// assert_eq!(sim.peek("out")?, 70);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    netlist: Arc<Netlist>,
    values: Vec<bool>,
    staged_inputs: Vec<(Bus, i64)>,
    stats: ActivityStats,
    /// The value each net will have once every scheduled change has
    /// applied; evals compare against this so a change is scheduled only
    /// once.
    projected: Vec<bool>,
    /// Per-net scheduled (time, value) changes awaiting delivery, in
    /// time order; inertial pulse filtering cancels back-to-back
    /// opposite changes closer than [`Self::MIN_PULSE`].
    pending: Vec<std::collections::VecDeque<(u32, bool)>>,
    /// Capacitance class of each net, precomputed from its fanout.
    net_class: Vec<NetClass>,
    /// Event wheel: `(time, kind, id, value)` where kind 0 = net value
    /// change (id = net, `value` is the new level) and kind 1 = cell
    /// evaluation (id = cell). Net changes at an instant apply before
    /// cell evaluations at that instant.
    wheel: std::collections::BinaryHeap<std::cmp::Reverse<(u32, u8, u32, bool)>>,
    /// Last time each cell was enqueued, to coalesce same-time events.
    enqueued_at: Vec<u32>,
    register_ids: Vec<CellId>,
    /// Contents of each RAM cell (empty vec for non-RAM cells).
    ram_contents: Vec<Vec<i64>>,
    /// Internal carry bits of each carry-chain adder, as a bitmask, so
    /// carry transitions (which happen inside the chain's LEs and burn
    /// energy like any other transition) can be counted per evaluation.
    carry_state: Vec<u64>,
    /// Absolute tick count since construction. Unlike
    /// [`ActivityStats::cycles`] it survives [`Simulator::reset_stats`],
    /// so transient faults armed by cycle number stay on schedule.
    cycle: u64,
    /// Injected stuck-at levels by net index; every write to a stuck net
    /// is clamped to the forced level.
    stuck: std::collections::HashMap<u32, bool>,
    /// Armed transient register upsets: `(register, bit, cycle)`.
    flips: Vec<(CellId, usize, u64)>,
    /// Armed RAM upsets: `(cell, addr, bit, cycle)`.
    ram_upsets: Vec<(CellId, usize, usize, u64)>,
    /// Event budget per drain; exceeding it reports
    /// [`Error::SimulationDiverged`] instead of hanging.
    event_cap: u64,
    /// Name of the cell most recently evaluated by the event loop, for
    /// divergence diagnostics.
    last_eval: Option<CellId>,
}

impl Simulator {
    /// Wraps a netlist, initialising all nets to 0 (registers power up
    /// cleared) and settling constants and combinational logic. An
    /// `Arc<Netlist>` is shared, not copied.
    ///
    /// # Errors
    ///
    /// Currently infallible for validated netlists; kept fallible for
    /// future device-specific checks.
    pub fn new(netlist: impl Into<Arc<Netlist>>) -> Result<Self> {
        let netlist: Arc<Netlist> = netlist.into();
        let register_ids = netlist.registers().to_vec();
        // Classify nets: a net stays on LAB-local wiring when its only
        // readers are registers (folded flip-flop D pins) or the carry
        // input of the neighbouring full adder; any other reader — an
        // adder operand, a LUT, a word operator — is reached through
        // general routing. Output ports count as routed.
        let mut net_class = vec![NetClass::Local; netlist.net_count()];
        for (idx, class) in net_class.iter_mut().enumerate() {
            let net = crate::net::NetId(idx as u32);
            let routed_reader = netlist.fanout(net).iter().any(|&r| match &netlist.cell(r).kind {
                CellKind::Register { .. } => false,
                CellKind::FullAdder { cin, .. } => *cin != net,
                _ => true,
            });
            if routed_reader {
                *class = NetClass::Routed;
            }
        }
        for port in netlist.ports().values() {
            if port.direction == PortDirection::Output {
                for &net in port.bus.bits() {
                    net_class[net.index()] = NetClass::Routed;
                }
            }
        }
        let mut sim = Simulator {
            values: vec![false; netlist.net_count()],
            projected: vec![false; netlist.net_count()],
            pending: vec![std::collections::VecDeque::new(); netlist.net_count()],
            net_class,
            staged_inputs: Vec::new(),
            stats: ActivityStats {
                cell_toggles: vec![0; netlist.cell_count()],
                ..ActivityStats::default()
            },
            wheel: std::collections::BinaryHeap::new(),
            enqueued_at: vec![u32::MAX; netlist.cell_count()],
            register_ids,
            ram_contents: netlist
                .cells()
                .iter()
                .map(|c| match &c.kind {
                    CellKind::Ram { words, .. } => vec![0i64; *words],
                    _ => Vec::new(),
                })
                .collect(),
            carry_state: vec![0; netlist.cell_count()],
            cycle: 0,
            stuck: std::collections::HashMap::new(),
            flips: Vec::new(),
            ram_upsets: Vec::new(),
            event_cap: Self::default_event_cap(netlist.cell_count()),
            last_eval: None,
            netlist,
        };
        // Power-on settle: evaluate every combinational cell in topo
        // order (constants included), without counting transitions.
        for i in 0..sim.netlist.topo_order().len() {
            let id = sim.netlist.topo_order()[i];
            sim.eval_cell_silent(id);
        }
        sim.stats = ActivityStats {
            cell_toggles: vec![0; sim.netlist.cell_count()],
            ..ActivityStats::default()
        };
        Ok(sim)
    }

    /// The netlist being simulated.
    #[must_use]
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// Accumulated switching statistics.
    #[must_use]
    pub fn stats(&self) -> &ActivityStats {
        &self.stats
    }

    /// Clears the switching statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = ActivityStats {
            cell_toggles: vec![0; self.netlist.cell_count()],
            ..ActivityStats::default()
        };
    }

    /// Stages a value on an input port; it is applied at the next
    /// [`Simulator::tick`] or [`Simulator::settle`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPort`] for an unknown or non-input port,
    /// or [`Error::ValueOutOfRange`] if the value does not fit.
    pub fn set_input(&mut self, name: &str, value: i64) -> Result<()> {
        let port = self.netlist.port(name)?;
        if port.direction != PortDirection::Input {
            return Err(Error::UnknownPort { name: name.to_owned() });
        }
        port.bus.check_value(value)?;
        let bus = port.bus.clone();
        self.staged_inputs.push((bus, value));
        Ok(())
    }

    /// Reads the current signed value of any port.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPort`] if the port does not exist.
    pub fn peek(&self, name: &str) -> Result<i64> {
        let port = self.netlist.port(name)?;
        Ok(self.read_bus(&port.bus))
    }

    /// Reads the current signed value of an arbitrary bus.
    #[must_use]
    pub fn read_bus(&self, bus: &Bus) -> i64 {
        let bits: Vec<bool> = bus.bits().iter().map(|n| self.values[n.index()]).collect();
        bits_to_signed(&bits)
    }

    /// Reads a bus as a raw (zero-extended) bit pattern.
    fn read_bus_unsigned(&self, bus: &Bus) -> i64 {
        bus.bits()
            .iter()
            .enumerate()
            .fold(0i64, |acc, (i, n)| acc | ((self.values[n.index()] as i64) << i))
    }

    /// One clock cycle: registers capture their (settled) data inputs,
    /// then the staged input changes and new register outputs propagate
    /// through the combinational network, counting every transition.
    ///
    /// # Panics
    ///
    /// Panics if the event loop diverges (see [`Simulator::try_tick`]
    /// for the fallible form). A validated netlist without injected
    /// faults cannot diverge under the default event budget.
    pub fn tick(&mut self) {
        self.try_tick().unwrap_or_else(|e| panic!("tick: {e}"));
    }

    /// As [`Simulator::tick`], reporting divergence instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SimulationDiverged`] naming the offending cell
    /// if the cycle's event count exceeds the budget — an oscillating
    /// netlist that would otherwise hang the simulation.
    pub fn try_tick(&mut self) -> Result<()> {
        // 0. RAM upsets strike at the clock edge, before anything reads
        // the array this cycle.
        let mut ram_reeval: Vec<CellId> = Vec::new();
        let cycle = self.cycle;
        let mut due_ram = Vec::new();
        self.ram_upsets.retain(|&u| {
            if u.3 == cycle {
                due_ram.push(u);
                false
            } else {
                true
            }
        });
        for (id, addr, bit, _) in due_ram {
            self.ram_contents[id.index()][addr] ^= 1 << bit;
            ram_reeval.push(id);
        }
        // 1. Capture D of every register from the settled state.
        let mut new_q: Vec<(CellId, Vec<bool>)> = Vec::with_capacity(self.register_ids.len());
        for &id in &self.register_ids {
            if let CellKind::Register { d, .. } = &self.netlist.cell(id).kind {
                let bits = d.bits().iter().map(|n| self.values[n.index()]).collect();
                new_q.push((id, bits));
            }
        }
        // 1a. Transient upsets strike the captured bits of this edge.
        let mut due_flips = Vec::new();
        self.flips.retain(|&f| {
            if f.2 == cycle {
                due_flips.push(f);
                false
            } else {
                true
            }
        });
        for (reg, bit, _) in due_flips {
            if let Some((_, bits)) = new_q.iter_mut().find(|(id, _)| *id == reg) {
                bits[bit] = !bits[bit];
            }
        }
        // 1b. Commit RAM writes from the settled state, and collect the
        // RAM cells whose visible read data changes as a result.
        for i in 0..self.netlist.cell_count() {
            let id = CellId(i as u32);
            if let CellKind::Ram { words, raddr, waddr, wdata, wen, .. } =
                &self.netlist.cell(id).kind
            {
                if self.values[wen.index()] {
                    let addr = self.read_bus_unsigned(waddr) as usize;
                    if addr < *words {
                        let value = self.read_bus(wdata);
                        if self.ram_contents[i][addr] != value {
                            self.ram_contents[i][addr] = value;
                            // If the read port currently points at the
                            // written word, the read data must update.
                            if self.read_bus_unsigned(raddr) as usize == addr {
                                ram_reeval.push(id);
                            }
                        }
                    }
                }
            }
        }
        // 2. Apply register outputs and staged inputs simultaneously.
        let mut changed: Vec<NetId> = Vec::new();
        for (id, bits) in new_q {
            if let CellKind::Register { q, .. } = &self.netlist.cell(id).kind {
                for (i, &b) in bits.iter().enumerate() {
                    let net = q.bit(i);
                    let b = self.stuck.get(&net.0).copied().unwrap_or(b);
                    if self.values[net.index()] != b {
                        self.values[net.index()] = b;
                        self.projected[net.index()] = b;
                        self.stats.ff_toggles = self.stats.ff_toggles.wrapping_add(1);
                        changed.push(net);
                    }
                }
            }
        }
        let staged = std::mem::take(&mut self.staged_inputs);
        for (bus, value) in staged {
            let bits = signed_to_bits(value, bus.width());
            for (i, &b) in bits.iter().enumerate() {
                let net = bus.bit(i);
                let b = self.stuck.get(&net.0).copied().unwrap_or(b);
                if self.values[net.index()] != b {
                    self.values[net.index()] = b;
                    self.projected[net.index()] = b;
                    changed.push(net);
                }
            }
        }
        // 3. Drain.
        self.schedule_fanout(&changed, 0);
        for id in ram_reeval {
            self.enqueue(id, 1);
        }
        self.drain()?;
        // Counters restored from a snapshot may hold any value, so they
        // wrap rather than overflow.
        self.stats.cycles = self.stats.cycles.wrapping_add(1);
        self.cycle = self.cycle.wrapping_add(1);
        Ok(())
    }

    /// Applies staged inputs and settles the combinational logic without
    /// clocking the registers (for purely combinational studies).
    ///
    /// # Panics
    ///
    /// Panics if the event loop diverges (see [`Simulator::try_settle`]
    /// for the fallible form).
    pub fn settle(&mut self) {
        self.try_settle().unwrap_or_else(|e| panic!("settle: {e}"));
    }

    /// As [`Simulator::settle`], reporting divergence instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SimulationDiverged`] naming the offending cell
    /// if the event count exceeds the budget.
    pub fn try_settle(&mut self) -> Result<()> {
        let mut changed: Vec<NetId> = Vec::new();
        let staged = std::mem::take(&mut self.staged_inputs);
        for (bus, value) in staged {
            let bits = signed_to_bits(value, bus.width());
            for (i, &b) in bits.iter().enumerate() {
                let net = bus.bit(i);
                let b = self.stuck.get(&net.0).copied().unwrap_or(b);
                if self.values[net.index()] != b {
                    self.values[net.index()] = b;
                    self.projected[net.index()] = b;
                    changed.push(net);
                }
            }
        }
        self.schedule_fanout(&changed, 0);
        self.drain()
    }

    fn schedule_fanout(&mut self, nets: &[NetId], time: u32) {
        for &net in nets {
            for i in 0..self.netlist.fanout(net).len() {
                let reader = self.netlist.fanout(net)[i];
                if self.netlist.cell(reader).kind.is_combinational() {
                    self.enqueue(reader, time + 1);
                }
            }
        }
    }

    fn enqueue(&mut self, cell: CellId, time: u32) {
        if self.enqueued_at[cell.index()] == time {
            return; // already scheduled for this instant
        }
        self.enqueued_at[cell.index()] = time;
        self.wheel.push(std::cmp::Reverse((time, 1, cell.0, false)));
    }

    /// Minimum pulse width (in delay units) that survives propagation;
    /// narrower glitch pulses are filtered inertially, as the routing
    /// capacitance swallows them before they reach full swing.
    const MIN_PULSE: u32 = 2;

    fn drain(&mut self) -> Result<()> {
        let mut events: u64 = 0;
        while let Some(std::cmp::Reverse((time, kind, raw, _value))) = self.wheel.pop() {
            events += 1;
            if events > self.event_cap {
                // Discard the residual event state so the simulator stays
                // usable (values are left as-is — the netlist was
                // oscillating, so no settled state exists to restore).
                self.wheel.clear();
                for q in &mut self.pending {
                    q.clear();
                }
                for e in &mut self.enqueued_at {
                    *e = u32::MAX;
                }
                self.projected.clone_from(&self.values);
                let cell = self
                    .last_eval
                    .map(|id| self.netlist.cell(id).name.clone())
                    .unwrap_or_else(|| "<none>".to_owned());
                return Err(Error::SimulationDiverged { cell, cycle: self.cycle, events });
            }
            if kind == 0 {
                // Net value change token: deliver the queued change if it
                // has not been cancelled by inertial filtering.
                let net = NetId(raw);
                let deliver = match self.pending[net.index()].front() {
                    Some(&(t, _)) if t == time => self.pending[net.index()].pop_front(),
                    _ => None,
                };
                if let Some((_, value)) = deliver {
                    let value = self.stuck.get(&net.0).copied().unwrap_or(value);
                    if self.values[net.index()] != value {
                        self.values[net.index()] = value;
                        if let Some(driver) = self.netlist.driver(net) {
                            let t = &mut self.stats.cell_toggles[driver.index()];
                            *t = t.wrapping_add(1);
                        }
                        match self.net_class[net.index()] {
                            NetClass::Routed => {
                                self.stats.routed_toggles =
                                    self.stats.routed_toggles.wrapping_add(1);
                            }
                            NetClass::Local => {
                                self.stats.local_toggles = self.stats.local_toggles.wrapping_add(1);
                            }
                        }
                        self.schedule_fanout(&[net], time);
                    }
                }
            } else {
                // Cell evaluation.
                let id = CellId(raw);
                if self.enqueued_at[id.index()] == time {
                    self.enqueued_at[id.index()] = u32::MAX;
                }
                self.last_eval = Some(id);
                self.eval_cell(id, time);
            }
        }
        Ok(())
    }

    /// Evaluates a cell against the current net values and schedules the
    /// resulting output changes as future net events, so downstream cells
    /// observe staggered (glitching) arrivals exactly as hardware does.
    ///
    /// A deterministic per-net jitter models placement-dependent routing
    /// spread: nets of one bus arrive at slightly different instants, the
    /// main source of glitching in deep combinational cones. The jitter
    /// is a pure function of the net id, so event delivery per net stays
    /// first-in-first-out and results remain reproducible.
    fn eval_cell(&mut self, id: CellId, time: u32) {
        let outs = self.compute(id);
        for (net, bit, extra) in outs {
            let bit = self.stuck.get(&net.0).copied().unwrap_or(bit);
            if self.projected[net.index()] != bit {
                let jitter = (net.0.wrapping_mul(2_654_435_761) >> 28) % 3;
                let mut at = time + 1 + extra + jitter;
                // Keep per-net delivery order monotone: a fast (e.g.
                // provisional) change computed after a slow one cannot
                // arrive before it.
                if let Some(&(t_back, _)) = self.pending[net.index()].back() {
                    at = at.max(t_back);
                }
                // Inertial filtering: a change that re-reverses a pending
                // opposite change within MIN_PULSE cancels the pulse.
                let cancelled = match self.pending[net.index()].back() {
                    Some(&(t, v)) if v != bit && at.saturating_sub(t) <= Self::MIN_PULSE => {
                        self.pending[net.index()].pop_back();
                        true
                    }
                    _ => false,
                };
                self.projected[net.index()] = bit;
                if !cancelled {
                    self.pending[net.index()].push_back((at, bit));
                    self.wheel.push(std::cmp::Reverse((at, 0, net.0, bit)));
                }
            }
        }
        // Internal carry transitions of chain adders.
        let carries = self.chain_carries(id);
        if let Some(c) = carries {
            let flips = (c ^ self.carry_state[id.index()]).count_ones();
            let t = &mut self.stats.cell_toggles[id.index()];
            *t = t.wrapping_add(u64::from(flips));
            self.stats.carry_toggles = self.stats.carry_toggles.wrapping_add(u64::from(flips));
            self.carry_state[id.index()] = c;
        }
    }

    fn eval_cell_silent(&mut self, id: CellId) {
        for (net, bit, _) in self.compute(id) {
            let bit = self.stuck.get(&net.0).copied().unwrap_or(bit);
            self.values[net.index()] = bit;
            self.projected[net.index()] = bit;
        }
        if let Some(c) = self.chain_carries(id) {
            self.carry_state[id.index()] = c;
        }
    }

    /// The internal carry bits of a carry-chain adder for its current
    /// inputs, or `None` for other cell kinds. Carry `i` is the carry
    /// *out of* bit position `i` of `a op b` (unsigned chain semantics).
    fn chain_carries(&self, id: CellId) -> Option<u64> {
        let (a, b, sub, width) = match &self.netlist.cell(id).kind {
            CellKind::CarryAdd { a, b, out } => (a, b, false, out.width()),
            CellKind::CarrySub { a, b, out } => (a, b, true, out.width()),
            _ => return None,
        };
        let read_u = |bus: &Bus| -> u64 {
            bus.bits()
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, n)| acc | ((self.values[n.index()] as u64) << i))
        };
        let av = read_u(a);
        let bv = if sub { !read_u(b) } else { read_u(b) };
        let cin = u64::from(sub);
        // carries = (a + b + cin) ^ a ^ b, shifted into carry-out view.
        let sum = av.wrapping_add(bv).wrapping_add(cin);
        let internal = (sum ^ av ^ bv) >> 1; // carry INTO each position
        let mask = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
        Some(internal & mask)
    }

    /// Carry-chain output bits ripple: each group of this many bit
    /// positions adds one unit of propagation delay, so downstream cells
    /// see staggered arrivals and glitch accordingly.
    const CARRY_BITS_PER_UNIT: u32 = 1;

    /// Computes a cell's output bits from the current net values,
    /// returning `(net, value, extra-delay)` triples.
    fn compute(&self, id: CellId) -> Vec<(NetId, bool, u32)> {
        let v = |n: NetId| self.values[n.index()];
        // A carry-chain adder's sum LUTs respond to their direct inputs
        // immediately (provisional value a^b^cin-without-carry) and are
        // corrected as the carry ripples in — so downstream logic sees
        // the same double transitions a bit-level ripple adder produces.
        let word = |out: &Bus, value: i64, provisional: u64| -> Vec<(NetId, bool, u32)> {
            let mut events = Vec::with_capacity(out.width() * 2);
            for (i, b) in signed_to_bits(value, out.width()).into_iter().enumerate() {
                let ripple = i as u32 / Self::CARRY_BITS_PER_UNIT;
                let prov = provisional & (1 << i) != 0;
                if prov != b && ripple > 0 {
                    events.push((out.bit(i), prov, 0));
                }
                events.push((out.bit(i), b, ripple));
            }
            events
        };
        match &self.netlist.cell(id).kind {
            CellKind::Lut { inputs, table, output } => {
                let idx = inputs
                    .iter()
                    .enumerate()
                    .fold(0usize, |acc, (i, &n)| acc | ((v(n) as usize) << i));
                vec![(*output, table & (1 << idx) != 0, 0)]
            }
            CellKind::FullAdder { a, b, cin, sum, cout, invert_b } => {
                let (a, mut b, c) = (v(*a), v(*b), v(*cin));
                if *invert_b {
                    b = !b;
                }
                let s = a ^ b ^ c;
                let co = (a & b) | (a & c) | (b & c);
                vec![(*sum, s, 0), (*cout, co, 0)]
            }
            CellKind::CarryAdd { a, b, out } => {
                let sum = self.read_bus(a) + self.read_bus(b);
                let prov = (self.read_bus_unsigned(a) ^ self.read_bus_unsigned(b)) as u64;
                word(out, sum, prov)
            }
            CellKind::CarrySub { a, b, out } => {
                let diff = self.read_bus(a) - self.read_bus(b);
                let prov = !(self.read_bus_unsigned(a) ^ self.read_bus_unsigned(b)) as u64;
                word(out, diff, prov)
            }
            CellKind::Constant { value, out } => {
                let bits = signed_to_bits(*value, out.width());
                bits.into_iter().enumerate().map(|(i, b)| (out.bit(i), b, 0)).collect()
            }
            CellKind::Register { .. } => vec![],
            CellKind::Ram { words, raddr, rdata, .. } => {
                let addr = self.read_bus_unsigned(raddr) as usize;
                let value = if addr < *words { self.ram_contents[id.index()][addr] } else { 0 };
                signed_to_bits(value, rdata.width())
                    .into_iter()
                    .enumerate()
                    .map(|(i, b)| (rdata.bit(i), b, 0))
                    .collect()
            }
        }
    }

    /// Captures every piece of mutable simulator state, bit-exactly.
    ///
    /// The capture includes in-flight events, so a snapshot may be
    /// taken at any point — though the natural checkpoint is right
    /// after a [`Simulator::tick`], when the event wheel is empty.
    /// Restoring the snapshot with [`Simulator::restore`] resumes the
    /// simulation in a state indistinguishable from the original.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut wheel: Vec<_> = self.wheel.iter().copied().collect();
        wheel.sort_unstable();
        let mut stuck: Vec<(u32, bool)> = self.stuck.iter().map(|(&n, &v)| (n, v)).collect();
        stuck.sort_unstable();
        Snapshot {
            values: self.values.clone(),
            projected: self.projected.clone(),
            staged_inputs: self.staged_inputs.clone(),
            stats: self.stats.clone(),
            pending: self.pending.clone(),
            wheel,
            enqueued_at: self.enqueued_at.clone(),
            ram_contents: self.ram_contents.clone(),
            carry_state: self.carry_state.clone(),
            cycle: self.cycle,
            stuck,
            flips: self.flips.clone(),
            ram_upsets: self.ram_upsets.clone(),
            event_cap: self.event_cap,
            last_eval: self.last_eval,
        }
    }

    /// Rewinds the simulator to a previously captured [`Snapshot`],
    /// discarding all state accumulated since — including injected
    /// faults, which revert to whatever was armed at capture time.
    /// Nothing is overwritten unless every length and index in the
    /// snapshot fits this netlist.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotMismatch`] if the snapshot was taken
    /// from a netlist of different shape (a per-net or per-cell table
    /// of another length), and [`Error::SnapshotDecode`] for a RAM of
    /// another size, or a staged input, event, stuck net, flip, RAM
    /// upset or last-evaluated cell that names no net, cell, register
    /// bit or RAM bit of this netlist; the simulator is left untouched
    /// in either case.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<()> {
        self.check(snap)?;
        self.values.clone_from(&snap.values);
        self.projected.clone_from(&snap.projected);
        self.staged_inputs.clone_from(&snap.staged_inputs);
        self.stats = snap.stats.clone();
        self.pending.clone_from(&snap.pending);
        self.wheel = snap.wheel.iter().copied().collect();
        self.enqueued_at.clone_from(&snap.enqueued_at);
        self.ram_contents.clone_from(&snap.ram_contents);
        self.carry_state.clone_from(&snap.carry_state);
        self.cycle = snap.cycle;
        self.stuck = snap.stuck.iter().copied().collect();
        self.flips.clone_from(&snap.flips);
        self.ram_upsets.clone_from(&snap.ram_upsets);
        self.event_cap = snap.event_cap;
        self.last_eval = snap.last_eval;
        Ok(())
    }

    /// Checks that every table in `s` has this netlist's length and
    /// every index it holds is in range, so `restore` can refuse it
    /// before overwriting anything.
    fn check(&self, s: &Snapshot) -> Result<()> {
        let (nets, cells) = (self.netlist.net_count(), self.netlist.cell_count());
        if [s.values.len(), s.projected.len(), s.pending.len()] != [nets; 3]
            || [s.carry_state.len(), s.enqueued_at.len(), s.stats.cell_toggles.len()] != [cells; 3]
            || s.ram_contents.len() != cells
        {
            return Err(Error::SnapshotMismatch {
                snapshot_nets: s.values.len(),
                simulator_nets: nets,
                snapshot_cells: s.carry_state.len(),
                simulator_cells: cells,
            });
        }
        let kind = |c: CellId| self.netlist.cells().get(c.index()).map(|cell| &cell.kind);
        let ram_shape = |c: CellId| match kind(c) {
            Some(CellKind::Ram { words, rdata, .. }) => Some((*words, rdata.width())),
            _ => None,
        };
        let detail = if let Some(i) = (0..cells)
            .find(|&i| s.ram_contents[i].len() != ram_shape(CellId(i as u32)).map_or(0, |r| r.0))
        {
            format!("cell {i} holds {} RAM words, which is not its size", s.ram_contents[i].len())
        } else if let Some((bus, _)) =
            s.staged_inputs.iter().find(|(bus, _)| bus.bits().iter().any(|n| n.index() >= nets))
        {
            format!("staged input on nets {:?}, but the netlist has {nets} nets", bus.bits())
        } else if let Some(std::cmp::Reverse(event)) =
            s.wheel.iter().find(|std::cmp::Reverse((at, tier, id, _))| {
                *at > Self::MAX_EVENT_TIME || *id as usize >= if *tier == 0 { nets } else { cells }
            })
        {
            format!("event {event:?} names no net or cell of {nets} nets and {cells} cells, or is too late")
        } else if let Some(net) =
            s.pending.iter().position(|q| q.iter().any(|&(at, _)| at > Self::MAX_EVENT_TIME))
        {
            format!("net {net} has a change pending later than any settle reaches")
        } else if let Some((net, _)) = s.stuck.iter().find(|&&(n, _)| n as usize >= nets) {
            format!("stuck-at on net {net}, but the netlist has {nets} nets")
        } else if let Some((cell, bit, _)) = s.flips.iter().find(|&&(c, bit, _)| {
            !matches!(kind(c), Some(CellKind::Register { q, .. }) if bit < q.width())
        }) {
            format!("bit flip on cell {} bit {bit}, which is no register bit", cell.index())
        } else if let Some((cell, addr, bit, _)) = s
            .ram_upsets
            .iter()
            .find(|&&(c, a, bit, _)| !ram_shape(c).is_some_and(|(w, width)| a < w && bit < width))
        {
            format!("RAM upset on cell {} word {addr} bit {bit}, which is no RAM bit", cell.index())
        } else if let Some(cell) = s.last_eval.filter(|c| c.index() >= cells) {
            format!("last evaluated cell {}, but the netlist has {cells} cells", cell.index())
        } else {
            return Ok(());
        };
        Err(Error::SnapshotDecode { detail })
    }

    /// Latest event time a snapshot may hold. A drain starts at time 0
    /// and each cell adds at most a few dozen units, so settling times
    /// stay far below this, and events scheduled after a restored one
    /// cannot overflow the `u32` clock.
    const MAX_EVENT_TIME: u32 = u32::MAX / 2;

    /// Reads the current signed Q-side value of a named register cell
    /// (test-bench state inspection, e.g. snapshot round-trip checks).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPort`] if no register cell has that name.
    pub fn peek_register(&self, name: &str) -> Result<i64> {
        let id = self
            .netlist
            .cells()
            .iter()
            .position(|c| c.name == name && matches!(c.kind, CellKind::Register { .. }))
            .map(|i| CellId(i as u32))
            .ok_or_else(|| Error::UnknownPort { name: name.to_owned() })?;
        match &self.netlist.cell(id).kind {
            CellKind::Register { q, .. } => Ok(self.read_bus(q)),
            _ => unreachable!("matched a register"),
        }
    }

    /// Writes one word into a RAM cell directly (test-bench preload),
    /// bypassing the write port.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPort`] if no RAM cell has that name, or
    /// [`Error::ValueOutOfRange`] if the address is out of bounds.
    pub fn poke_ram(&mut self, name: &str, addr: usize, value: i64) -> Result<()> {
        let id = self.find_ram(name)?;
        let words = self.ram_contents[id.index()].len();
        if addr >= words {
            return Err(Error::ValueOutOfRange { value: addr as i64, width: words });
        }
        self.ram_contents[id.index()][addr] = value;
        // Refresh the read port if it is looking at this word.
        self.eval_cell_silent(id);
        Ok(())
    }

    /// Reads one word from a RAM cell directly (test-bench readback).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPort`] if no RAM cell has that name, or
    /// [`Error::ValueOutOfRange`] for an out-of-bounds address.
    pub fn peek_ram(&self, name: &str, addr: usize) -> Result<i64> {
        let id = self.find_ram(name)?;
        self.ram_contents[id.index()].get(addr).copied().ok_or(Error::ValueOutOfRange {
            value: addr as i64,
            width: self.ram_contents[id.index()].len(),
        })
    }

    /// Arms a fault on the running simulation.
    ///
    /// * [`FaultSpec::StuckAt`] takes effect immediately: the net snaps
    ///   to the forced level, the disturbance propagates through the
    ///   combinational logic (counting transitions like any real event),
    ///   and from then on every write to the net is clamped.
    /// * [`FaultSpec::BitFlip`] and [`FaultSpec::RamUpset`] lie dormant
    ///   until the tick whose zero-based [`Simulator::cycle`] index
    ///   matches, strike once, and disarm.
    ///
    /// Activity accounting is unchanged — injected transitions are real
    /// transitions, and the counters keep their usual meaning.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FaultTarget`] if the spec names a port, cell,
    /// register or RAM the netlist does not have, or addresses one out
    /// of bounds; [`Error::SimulationDiverged`] if applying a stuck-at
    /// fails to settle.
    pub fn inject(&mut self, spec: &FaultSpec) -> Result<()> {
        match fault::resolve(&self.netlist, spec)? {
            ResolvedFault::Stuck { net, value } => {
                self.stuck.insert(net.0, value);
                if self.values[net.index()] != value {
                    self.values[net.index()] = value;
                    self.projected[net.index()] = value;
                    self.schedule_fanout(&[net], 0);
                    self.drain()?;
                }
            }
            ResolvedFault::Flip { register, bit, cycle } => {
                self.flips.push((register, bit, cycle));
            }
            ResolvedFault::Ram { cell, addr, bit, cycle } => {
                self.ram_upsets.push((cell, addr, bit, cycle));
            }
        }
        Ok(())
    }

    /// Disarms every pending fault and lifts all stuck-at clamps.
    ///
    /// A formerly stuck net keeps its forced level until the next event
    /// re-drives it; campaigns wanting a pristine machine should build a
    /// fresh [`Simulator`] per fault instead.
    pub fn clear_faults(&mut self) {
        self.stuck.clear();
        self.flips.clear();
        self.ram_upsets.clear();
    }

    /// Absolute tick count since construction (not reset by
    /// [`Simulator::reset_stats`]); transient faults are scheduled
    /// against this clock.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Overrides the per-drain event budget (mainly for tests; the
    /// default scales with netlist size and is far above anything a
    /// settling netlist produces).
    pub fn set_event_cap(&mut self, cap: u64) {
        self.event_cap = cap;
    }

    /// Default event budget per drain: a validated netlist settles in
    /// O(depth × cells) events, orders of magnitude below this.
    fn default_event_cap(cells: usize) -> u64 {
        (cells as u64 + 64) * 1024
    }

    fn find_ram(&self, name: &str) -> Result<CellId> {
        self.netlist
            .cells()
            .iter()
            .position(|c| c.name == name && matches!(c.kind, CellKind::Ram { .. }))
            .map(|i| CellId(i as u32))
            .ok_or_else(|| Error::UnknownPort { name: name.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn combinational_add_and_sub() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let y = b.input("y", 8).unwrap();
        let s = b.carry_add("s", &x, &y, 9).unwrap();
        let d = b.carry_sub("d", &x, &y, 9).unwrap();
        b.output("sum", &s).unwrap();
        b.output("diff", &d).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        for (a, c) in [(5i64, 7i64), (-128, 127), (-1, -1), (100, -100)] {
            sim.set_input("x", a).unwrap();
            sim.set_input("y", c).unwrap();
            sim.settle();
            assert_eq!(sim.peek("sum").unwrap(), a + c);
            assert_eq!(sim.peek("diff").unwrap(), a - c);
        }
    }

    #[test]
    fn ripple_add_matches_carry_add() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let y = b.input("y", 8).unwrap();
        let s1 = b.carry_add("s1", &x, &y, 9).unwrap();
        let s2 = b.ripple_add("s2", &x, &y, 9).unwrap();
        let d1 = b.carry_sub("d1", &x, &y, 9).unwrap();
        let d2 = b.ripple_sub("d2", &x, &y, 9).unwrap();
        b.output("o1", &s1).unwrap();
        b.output("o2", &s2).unwrap();
        b.output("o3", &d1).unwrap();
        b.output("o4", &d2).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        for a in (-128..=127).step_by(17) {
            for c in (-128..=127).step_by(23) {
                sim.set_input("x", a).unwrap();
                sim.set_input("y", c).unwrap();
                sim.settle();
                assert_eq!(sim.peek("o1").unwrap(), sim.peek("o2").unwrap());
                assert_eq!(sim.peek("o3").unwrap(), sim.peek("o4").unwrap());
            }
        }
    }

    #[test]
    fn wraparound_matches_twos_complement() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 4).unwrap();
        let y = b.input("y", 4).unwrap();
        let s = b.carry_add("s", &x, &y, 4).unwrap();
        b.output("o", &s).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        sim.set_input("x", 7).unwrap();
        sim.set_input("y", 2).unwrap();
        sim.settle();
        assert_eq!(sim.peek("o").unwrap(), -7); // 9 wraps in 4 bits
    }

    #[test]
    fn register_pipeline_latency() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let r1 = b.register("r1", &x).unwrap();
        let r2 = b.register("r2", &r1).unwrap();
        b.output("o", &r2).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        sim.set_input("x", 42).unwrap();
        sim.tick();
        assert_eq!(sim.peek("o").unwrap(), 0); // two-stage latency
        sim.tick();
        assert_eq!(sim.peek("o").unwrap(), 0);
        sim.tick();
        assert_eq!(sim.peek("o").unwrap(), 42);
    }

    #[test]
    fn counter_counts() {
        let mut b = NetlistBuilder::new();
        let one = b.constant(1, 4).unwrap();
        let (q, feed) = b.register_loop("count", 4).unwrap();
        let next = b.carry_add("inc", &q, &one, 4).unwrap();
        feed.connect(&mut b, &next).unwrap();
        b.output("count", &q).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        for expected in 1..=7 {
            sim.tick();
            assert_eq!(sim.peek("count").unwrap(), expected);
        }
    }

    #[test]
    fn shift_semantics() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let l = b.shift_left(&x, 2).unwrap();
        let r = b.shift_right_arith(&x, 2).unwrap();
        b.output("l", &l).unwrap();
        b.output("r", &r).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        for v in [-128i64, -37, -1, 0, 1, 55, 127] {
            sim.set_input("x", v).unwrap();
            sim.settle();
            assert_eq!(sim.peek("l").unwrap(), v * 4, "left shift of {v}");
            assert_eq!(sim.peek("r").unwrap(), v >> 2, "right shift of {v}");
        }
    }

    #[test]
    fn glitches_grow_with_combinational_depth() {
        // A chain of dependent adders (deep cone) must produce more
        // transitions per cycle than the same adders fed in parallel
        // (flat cone), because late-arriving inputs force re-evaluation.
        fn chain(depth: usize) -> Simulator {
            let mut b = NetlistBuilder::new();
            let x = b.input("x", 8).unwrap();
            let mut acc = x.clone();
            for i in 0..depth {
                // Alternate add/sub so values stay bounded.
                acc = if i % 2 == 0 {
                    b.carry_add(&format!("a{i}"), &acc, &x, 12).unwrap()
                } else {
                    b.carry_sub(&format!("a{i}"), &acc, &x, 12).unwrap()
                };
            }
            b.output("o", &acc).unwrap();
            Simulator::new(b.finish().unwrap()).unwrap()
        }
        let run = |mut sim: Simulator| {
            let mut v = 1i64;
            for i in 0..200 {
                v = (v * 29 + i).rem_euclid(128) - 64;
                sim.set_input("x", v).unwrap();
                sim.tick();
            }
            sim.stats().toggles_per_cycle()
        };
        let shallow = run(chain(2));
        let deep = run(chain(8));
        assert!(deep > shallow * 2.0, "deep {deep} should glitch much more than shallow {shallow}");
    }

    #[test]
    fn registers_stop_glitch_propagation() {
        // Same logical function, but with a pipeline register between the
        // two adders: transitions downstream of the register drop.
        fn build(pipelined: bool) -> Simulator {
            let mut b = NetlistBuilder::new();
            let x = b.input("x", 8).unwrap();
            let s1 = b.carry_add("s1", &x, &x, 10).unwrap();
            let mid = if pipelined { b.register("p", &s1).unwrap() } else { s1 };
            let s2 = b.carry_add("s2", &mid, &x, 11).unwrap();
            let s3 = b.carry_add("s3", &s2, &x, 12).unwrap();
            let q = b.register("q", &s3).unwrap();
            b.output("o", &q).unwrap();
            Simulator::new(b.finish().unwrap()).unwrap()
        }
        let run = |mut sim: Simulator| {
            let mut v = 3i64;
            for i in 0..500 {
                v = (v * 37 + i * 7).rem_euclid(255) - 128;
                sim.set_input("x", v).unwrap();
                sim.tick();
            }
            sim.stats().toggles_per_cycle()
        };
        let flat = run(build(false));
        let piped = run(build(true));
        assert!(piped < flat, "pipelined {piped} should not exceed unpipelined {flat}");
    }

    #[test]
    fn stats_reset() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 4).unwrap();
        let s = b.carry_add("s", &x, &x, 5).unwrap();
        b.output("o", &s).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        sim.set_input("x", 3).unwrap();
        sim.tick();
        assert!(sim.stats().total_cell_toggles() > 0);
        sim.reset_stats();
        assert_eq!(sim.stats().total_cell_toggles(), 0);
        assert_eq!(sim.stats().cycles, 0);
    }

    #[test]
    fn stuck_at_clamps_every_write() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 4).unwrap();
        let s = b.carry_add("s", &x, &x, 5).unwrap();
        b.output("o", &s).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        sim.inject(&FaultSpec::StuckAt { net: "x".into(), bit: 0, value: true }).unwrap();
        // Injection on a settled machine propagates immediately: x = 1.
        assert_eq!(sim.peek("o").unwrap(), 2);
        // Staged input writes are clamped too: 4 becomes 5.
        sim.set_input("x", 4).unwrap();
        sim.settle();
        assert_eq!(sim.peek("o").unwrap(), 10);
        sim.clear_faults();
        sim.set_input("x", 4).unwrap();
        sim.settle();
        assert_eq!(sim.peek("o").unwrap(), 8);
    }

    #[test]
    fn transient_flip_strikes_once_then_heals() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let q = b.register("q", &x).unwrap();
        b.output("o", &q).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        sim.inject(&FaultSpec::BitFlip { register: "q".into(), bit: 2, cycle: 1 }).unwrap();
        sim.set_input("x", 0).unwrap();
        sim.tick(); // cycle 0: clean capture
        assert_eq!(sim.peek("o").unwrap(), 0);
        sim.tick(); // cycle 1: upset strikes the captured word
        assert_eq!(sim.peek("o").unwrap(), 4);
        sim.tick(); // cycle 2: next capture heals it
        assert_eq!(sim.peek("o").unwrap(), 0);
        assert_eq!(sim.cycle(), 3);
    }

    #[test]
    fn ram_upset_corrupts_stored_word() {
        let mut b = NetlistBuilder::new();
        let addr = b.constant(0, 2).unwrap();
        let x = b.input("x", 8).unwrap();
        let gnd = b.gnd().unwrap();
        let rd = b.ram("m", 4, 8, &addr, &addr, &x, gnd).unwrap();
        b.output("o", &rd).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        sim.inject(&FaultSpec::RamUpset { ram: "m".into(), addr: 0, bit: 3, cycle: 1 }).unwrap();
        sim.tick();
        assert_eq!(sim.peek("o").unwrap(), 0);
        sim.tick(); // upset strikes at the edge, read port refreshes
        assert_eq!(sim.peek("o").unwrap(), 8);
        assert_eq!(sim.peek_ram("m", 0).unwrap(), 8);
    }

    #[test]
    fn event_cap_reports_divergence_with_cell_name() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let mut acc = x.clone();
        for i in 0..6 {
            acc = b.carry_add(&format!("a{i}"), &acc, &x, 12).unwrap();
        }
        b.output("o", &acc).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        sim.set_event_cap(3);
        sim.set_input("x", 77).unwrap();
        let err = sim.try_settle().unwrap_err();
        match err {
            Error::SimulationDiverged { cell, cycle, events } => {
                assert!(cell.starts_with('a'), "unexpected cell '{cell}'");
                assert_eq!(cycle, 0);
                assert!(events > 3);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        // The machine stays usable once the budget is restored.
        sim.set_event_cap(1 << 20);
        sim.set_input("x", 3).unwrap();
        sim.settle();
        assert_eq!(sim.peek("o").unwrap(), 21);
    }

    #[test]
    fn injection_preserves_stats_semantics() {
        // Arming a dormant fault must not add transitions by itself.
        let build = || {
            let mut b = NetlistBuilder::new();
            let x = b.input("x", 8).unwrap();
            let s = b.carry_add("s", &x, &x, 9).unwrap();
            let q = b.register("q", &s).unwrap();
            b.output("o", &q).unwrap();
            Simulator::new(b.finish().unwrap()).unwrap()
        };
        let run = |mut sim: Simulator, arm: bool| {
            if arm {
                sim.inject(&FaultSpec::BitFlip { register: "q".into(), bit: 0, cycle: 1_000_000 })
                    .unwrap();
            }
            for v in [1i64, -5, 60, 0, 33] {
                sim.set_input("x", v).unwrap();
                sim.tick();
            }
            sim.stats().clone()
        };
        assert_eq!(run(build(), false), run(build(), true));
    }

    #[test]
    fn snapshot_restore_roundtrips_registers_ram_and_outputs() {
        let build = || {
            let mut b = NetlistBuilder::new();
            let x = b.input("x", 8).unwrap();
            let s = b.carry_add("s", &x, &x, 9).unwrap();
            let q = b.register("q", &s).unwrap();
            let addr = b.constant(0, 2).unwrap();
            let gnd = b.gnd().unwrap();
            let rd = b.ram("m", 4, 9, &addr, &addr, &q, gnd).unwrap();
            let q2 = b.register("q2", &rd).unwrap();
            b.output("o", &q2).unwrap();
            Simulator::new(b.finish().unwrap()).unwrap()
        };
        let stimulus = |i: i64| (i * 23 + 7).rem_euclid(200) - 100;
        let mut sim = build();
        for i in 0..10 {
            sim.set_input("x", stimulus(i)).unwrap();
            sim.tick();
        }
        let snap = sim.snapshot();
        assert_eq!(snap.cycle(), 10);
        assert!(!snap.has_armed_faults());
        // Reference continuation.
        let mut reference = Vec::new();
        for i in 10..25 {
            sim.set_input("x", stimulus(i * 3)).unwrap();
            sim.tick();
            reference.push(sim.peek("o").unwrap());
        }
        // Diverge the machine, then rewind and replay.
        for i in 0..7 {
            sim.set_input("x", stimulus(i + 99)).unwrap();
            sim.tick();
        }
        let q_before = sim.peek_register("q").unwrap();
        sim.restore(&snap).unwrap();
        assert_eq!(sim.cycle(), 10);
        assert_eq!(sim.snapshot(), snap, "restore is bit-exact");
        assert_ne!(sim.peek_register("q").unwrap(), q_before, "state rewound");
        let mut replay = Vec::new();
        for i in 10..25 {
            sim.set_input("x", stimulus(i * 3)).unwrap();
            sim.tick();
            replay.push(sim.peek("o").unwrap());
        }
        assert_eq!(replay, reference);
    }

    #[test]
    fn portable_snapshot_bytes_round_trip_and_reject_corruption() {
        use crate::engine::PortableSnapshot;
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let s = b.carry_add("s", &x, &x, 9).unwrap();
        let q = b.register("q", &s).unwrap();
        let addr = b.constant(1, 2).unwrap();
        let vcc = b.vcc().unwrap();
        let rd = b.ram("m", 4, 9, &addr, &addr, &q, vcc).unwrap();
        let q2 = b.register("q2", &rd).unwrap();
        b.output("o", &q2).unwrap();
        let netlist = b.finish().unwrap();
        let mut sim = Simulator::new(netlist.clone()).unwrap();
        for i in 0..9 {
            sim.set_input("x", (i * 13) % 100 - 50).unwrap();
            sim.tick();
        }
        // Arm faults and stage an input so the optional state is
        // exercised by the codec, not just the dense vectors.
        sim.inject(&FaultSpec::StuckAt { net: "x".into(), bit: 0, value: true }).unwrap();
        sim.inject(&FaultSpec::BitFlip { register: "q".into(), bit: 2, cycle: 30 }).unwrap();
        sim.set_input("x", 17).unwrap();
        let snap = sim.snapshot();
        let bytes = snap.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snap, "byte round-trip is identity");

        // A restore from the decoded snapshot resumes bit-exactly.
        let mut other = Simulator::new(netlist).unwrap();
        other.restore(&decoded).unwrap();
        for i in 0..20 {
            let v = (i * 7) % 90 - 45;
            sim.set_input("x", v).unwrap();
            other.set_input("x", v).unwrap();
            sim.tick();
            other.tick();
            assert_eq!(sim.peek("o").unwrap(), other.peek("o").unwrap());
        }

        // Truncation at any point is a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                matches!(Snapshot::from_bytes(&bytes[..cut]), Err(Error::SnapshotDecode { .. })),
                "truncation at {cut} must be rejected"
            );
        }
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(Snapshot::from_bytes(&long), Err(Error::SnapshotDecode { .. })));
        // A wrong backend tag is rejected.
        let mut wrong = bytes;
        wrong[0] = b'C';
        assert!(matches!(Snapshot::from_bytes(&wrong), Err(Error::SnapshotDecode { .. })));
    }

    #[test]
    fn restore_reverts_injected_faults() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let q = b.register("q", &x).unwrap();
        b.output("o", &q).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        sim.set_input("x", 11).unwrap();
        sim.tick();
        let snap = sim.snapshot();
        sim.inject(&FaultSpec::StuckAt { net: "x".into(), bit: 0, value: true }).unwrap();
        sim.inject(&FaultSpec::BitFlip { register: "q".into(), bit: 1, cycle: 5 }).unwrap();
        assert!(sim.snapshot().has_armed_faults());
        sim.restore(&snap).unwrap();
        assert!(!sim.snapshot().has_armed_faults());
        sim.set_input("x", 4).unwrap();
        sim.tick();
        sim.tick(); // staged input propagates, then the register captures
        assert_eq!(sim.peek("o").unwrap(), 4, "stuck clamp lifted by restore");
    }

    #[test]
    fn restore_rejects_foreign_netlists() {
        let small = {
            let mut b = NetlistBuilder::new();
            let x = b.input("x", 4).unwrap();
            b.output("o", &x).unwrap();
            Simulator::new(b.finish().unwrap()).unwrap()
        };
        let mut big = {
            let mut b = NetlistBuilder::new();
            let x = b.input("x", 8).unwrap();
            let s = b.carry_add("s", &x, &x, 9).unwrap();
            b.output("o", &s).unwrap();
            Simulator::new(b.finish().unwrap()).unwrap()
        };
        let snap = small.snapshot();
        match big.restore(&snap) {
            Err(Error::SnapshotMismatch { .. }) => {}
            other => panic!("expected SnapshotMismatch, got {other:?}"),
        }
    }

    /// A RAM whose read data is registered, with one fault of each
    /// family armed and an input staged: every list a snapshot carries
    /// has an entry but the event wheel, which a settled machine empties.
    fn armed() -> Simulator {
        let mut b = NetlistBuilder::new();
        let addr = b.input("addr", 2).unwrap();
        let wdata = b.input("wdata", 6).unwrap();
        let wen = b.input("wen", 1).unwrap();
        let rdata = b.ram("m", 4, 6, &addr, &addr, &wdata, wen.bit(0)).unwrap();
        let q = b.register("q", &rdata).unwrap();
        b.output("q", &q).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        sim.inject(&FaultSpec::StuckAt { net: "wdata".into(), bit: 0, value: true }).unwrap();
        sim.inject(&FaultSpec::BitFlip { register: "q".into(), bit: 1, cycle: 5 }).unwrap();
        sim.inject(&FaultSpec::RamUpset { ram: "m".into(), addr: 1, bit: 2, cycle: 4 }).unwrap();
        sim.set_input("wdata", 9).unwrap();
        sim
    }

    #[test]
    fn restore_refuses_out_of_range_fields() {
        use crate::engine::PortableSnapshot;
        use std::cmp::Reverse;
        let good = armed().snapshot();
        const FAR: u32 = u32::MAX;
        type Edit = fn(&mut Snapshot);
        let cases: [(&str, Edit, bool); 20] = [
            ("values", |s| s.values.truncate(1), true),
            ("projected", |s| s.projected.push(false), true),
            ("pending", |s| s.pending.truncate(1), true),
            ("carry state", |s| s.carry_state.truncate(1), true),
            ("enqueued", |s| s.enqueued_at.push(0), true),
            ("cell toggles", |s| s.stats.cell_toggles.truncate(1), true),
            ("ram table", |s| s.ram_contents.push(Vec::new()), true),
            ("ram size", |s| s.ram_contents.iter_mut().for_each(|r| r.push(0)), false),
            ("staged net", |s| s.staged_inputs[0].0 = Bus::new(vec![NetId(FAR)]).unwrap(), false),
            ("net event", |s| s.wheel.push(Reverse((0, 0, FAR, true))), false),
            ("cell event", |s| s.wheel.push(Reverse((0, 1, FAR, false))), false),
            ("late event", |s| s.wheel.push(Reverse((FAR, 1, 0, false))), false),
            ("late change", |s| s.pending[0].push_back((FAR, true)), false),
            ("stuck net", |s| s.stuck[0].0 = FAR, false),
            ("flip on the RAM cell", |s| s.flips[0].0 = s.ram_upsets[0].0, false),
            ("flip bit", |s| s.flips[0].1 = 6, false),
            ("upset on the register cell", |s| s.ram_upsets[0].0 = s.flips[0].0, false),
            ("upset addr", |s| s.ram_upsets[0].1 = 4, false),
            ("upset bit", |s| s.ram_upsets[0].2 = 6, false),
            ("last evaluated cell", |s| s.last_eval = Some(CellId(FAR)), false),
        ];
        for (field, edit, mismatch) in cases {
            let mut bad = good.clone();
            edit(&mut bad);
            // Through the byte codec, as a hostile store record arrives.
            let bad = Snapshot::from_bytes(&bad.to_bytes()).unwrap();
            let mut sim = armed();
            sim.tick();
            let before = sim.snapshot();
            match sim.restore(&bad) {
                Err(Error::SnapshotMismatch { .. }) if mismatch => {}
                Err(Error::SnapshotDecode { .. }) if !mismatch => {}
                other => panic!("{field} gave {other:?}"),
            }
            assert_eq!(sim.snapshot(), before, "{field} changed the simulator");
            sim.restore(&good).unwrap();
            for _ in 0..8 {
                sim.tick();
            }
        }
        // Counters restored at their limit wrap instead of overflowing.
        let mut full = good;
        let st = &mut full.stats;
        for counter in [&mut st.routed_toggles, &mut st.local_toggles, &mut st.carry_toggles]
            .into_iter()
            .chain([&mut st.ff_toggles, &mut st.cycles, &mut full.cycle])
            .chain(st.cell_toggles.iter_mut())
        {
            *counter = u64::MAX;
        }
        let mut sim = armed();
        sim.restore(&full).unwrap();
        for k in 0..8 {
            sim.set_input("addr", k % 4 - 2).unwrap();
            sim.set_input("wdata", k).unwrap();
            sim.tick();
        }
    }

    #[test]
    fn peek_register_reads_q_side() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let q = b.register("q", &x).unwrap();
        b.output("o", &q).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        sim.set_input("x", -42).unwrap();
        sim.tick();
        sim.tick(); // staged input propagates, then the register captures
        assert_eq!(sim.peek_register("q").unwrap(), -42);
        assert!(sim.peek_register("nope").is_err());
    }

    #[test]
    fn unknown_port_errors() {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 4).unwrap();
        b.output("o", &x).unwrap();
        let mut sim = Simulator::new(b.finish().unwrap()).unwrap();
        assert!(sim.set_input("nope", 0).is_err());
        assert!(sim.peek("nope").is_err());
        // Outputs cannot be driven.
        assert!(sim.set_input("o", 0).is_err());
        // Out-of-range values are rejected.
        assert!(sim.set_input("x", 100).is_err());
    }
}
