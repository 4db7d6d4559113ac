//! Levelized, bit-sliced compiled simulation backend.
//!
//! [`Program::compile`] lowers a validated [`Netlist`] into a
//! straight-line sequence of word operations over a flat register file
//! of `u64` words, one word per single-bit net, ordered by the
//! netlist's combinational topological order (its *levelization*). One
//! pass over the program recomputes every combinational net from the
//! current register/input values — no event queue, no per-event
//! dispatch.
//!
//! Evaluation is **bit-sliced**: bit `l` of every word belongs to an
//! independent sample stream, so a single pass advances [`LANES`] (64)
//! lanes at once. Structural cells lower directly to bitwise ops (a
//! full adder is two ops: XOR3 for the sum, MAJ3 for the carry);
//! behavioral word adders ([`CellKind::CarryAdd`] / `CarrySub`) lower
//! to a ripple chain of the same two ops per bit, which computes the
//! identical modulo-2^width two's-complement result the event-driven
//! simulator produces.
//!
//! [`CompiledEngine`] wraps a program with the architectural state
//! (net words, RAM bit-planes, staged inputs, armed faults) and
//! implements [`Engine`], making it a drop-in replacement for
//! [`sim::Simulator`](crate::sim::Simulator) wherever glitch/activity
//! fidelity is not needed. At every cycle boundary its lane-0 values
//! are bit-exact with the event-driven simulator's settled values; the
//! deliberate differences are documented on [`CompiledEngine`].

use crate::cell::{tables, Cell, CellKind};
use crate::engine::{Engine, EngineCaps};
use crate::fault::{self, FaultSpec, ResolvedFault};
use crate::net::{signed_to_bits, Bus, NetId};
use crate::netlist::{CellId, Netlist, PortDirection};
use crate::snapbytes::{ByteReader, ByteWriter};
use crate::{Error, Result};

/// Independent sample streams packed into each machine word.
pub const LANES: usize = 64;

/// All lanes set.
const ALL: u64 = !0;

/// One word operation of a compiled program. `dst`/operand fields are
/// slot indices into the flat word file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    /// Broadcast a constant bit to every lane of `dst`.
    Const { dst: u32, ones: bool },
    /// `dst = a`.
    Copy { dst: u32, a: u32 },
    /// `dst = !a`.
    Not { dst: u32, a: u32 },
    /// `dst = a & b`.
    And { dst: u32, a: u32, b: u32 },
    /// `dst = a | b`.
    Or { dst: u32, a: u32, b: u32 },
    /// `dst = a ^ b`.
    Xor { dst: u32, a: u32, b: u32 },
    /// Full-adder sum: `dst = a ^ (b ^ invert_b) ^ cin`.
    FaSum { dst: u32, a: u32, b: u32, cin: u32, invert_b: bool },
    /// Full-adder carry: `dst = majority(a, b ^ invert_b, cin)`.
    FaCarry { dst: u32, a: u32, b: u32, cin: u32, invert_b: bool },
    /// Generic ≤4-input LUT: sum of minterms over the set table bits.
    Lut { dst: u32, inputs: Box<[u32]>, table: u16 },
    /// Asynchronous read of RAM port `port` (decode + mux per lane).
    RamRead { port: u32 },
}

/// Register slots: where to capture D from and where Q lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RegSlots {
    pub(crate) cell: CellId,
    /// Offset of this register's bits in the capture scratch buffer.
    pub(crate) offset: usize,
    pub(crate) d: Vec<u32>,
    pub(crate) q: Vec<u32>,
}

/// RAM port slots and geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RamSlots {
    pub(crate) cell: CellId,
    pub(crate) words: usize,
    pub(crate) width: usize,
    pub(crate) raddr: Vec<u32>,
    pub(crate) rdata: Vec<u32>,
    pub(crate) waddr: Vec<u32>,
    pub(crate) wdata: Vec<u32>,
    pub(crate) wen: u32,
}

/// A netlist lowered to a levelized straight-line word program.
///
/// The schedule is computed once per design; every
/// [`CompiledEngine::try_tick`] replays it in order. Slots `0..nets`
/// mirror the netlist's nets; higher slots hold ripple-carry
/// temporaries and the two constant words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub(crate) ops: Vec<Op>,
    /// Total word-file size (nets + constants + temporaries).
    pub(crate) slots: usize,
    /// Slot permanently holding all-zeros.
    pub(crate) zero: u32,
    /// Slot permanently holding all-ones.
    pub(crate) one: u32,
    pub(crate) regs: Vec<RegSlots>,
    pub(crate) rams: Vec<RamSlots>,
    /// Combinational depth: the longest chain of dependent cells.
    levels: usize,
    /// Total register bits (capture-buffer size).
    pub(crate) reg_bits: usize,
}

impl Program {
    /// Lowers a validated netlist into a compiled program.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedProgram`] when the lowering pass finds
    /// an internal inconsistency — in practice only possible for
    /// netlists that bypassed validation.
    pub fn compile(netlist: &Netlist) -> Result<Program> {
        let nets = netlist.net_count();
        let mut ops = Vec::new();
        let mut next_slot = nets as u32;
        let mut alloc = || {
            let s = next_slot;
            next_slot += 1;
            s
        };
        let zero = alloc();
        let one = alloc();

        // Per-cell combinational level, for the depth report.
        let mut level = vec![0u32; netlist.cell_count()];
        let mut levels = 0usize;

        for &id in netlist.topo_order() {
            let kind = &netlist.cell(id).kind;
            let lvl = kind
                .comb_input_nets()
                .iter()
                .filter_map(|&n| netlist.driver(n))
                .filter(|&d| netlist.cell(d).kind.is_combinational())
                .map(|d| level[d.index()])
                .max()
                .unwrap_or(0)
                + 1;
            level[id.index()] = lvl;
            levels = levels.max(lvl as usize);

            match kind {
                CellKind::Constant { value, out } => {
                    for (i, &b) in signed_to_bits(*value, out.width()).iter().enumerate() {
                        ops.push(Op::Const { dst: slot(out.bit(i)), ones: b });
                    }
                }
                CellKind::Lut { inputs, table, output } => {
                    ops.push(lower_lut(inputs, *table, slot(*output)));
                }
                CellKind::FullAdder { a, b, cin, sum, cout, invert_b } => {
                    let (a, b, cin) = (slot(*a), slot(*b), slot(*cin));
                    ops.push(Op::FaSum { dst: slot(*sum), a, b, cin, invert_b: *invert_b });
                    ops.push(Op::FaCarry { dst: slot(*cout), a, b, cin, invert_b: *invert_b });
                }
                CellKind::CarryAdd { a, b, out } => {
                    lower_ripple(&mut ops, a, b, out, false, zero, &mut alloc);
                }
                CellKind::CarrySub { a, b, out } => {
                    lower_ripple(&mut ops, a, b, out, true, one, &mut alloc);
                }
                CellKind::Ram { .. } => {
                    // RamSlots are collected below; emit the read op at
                    // this cell's place in the schedule.
                    ops.push(Op::RamRead { port: 0 }); // port fixed up below
                }
                CellKind::Register { .. } => {}
            }
        }

        // Number RAM ports in schedule order and collect their slots.
        let mut rams = Vec::new();
        for op in &mut ops {
            if let Op::RamRead { port } = op {
                *port = rams.len() as u32;
                // Find the matching Ram cell: the n-th Ram in topo order.
                let cell = netlist
                    .topo_order()
                    .iter()
                    .copied()
                    .filter(|&id| matches!(netlist.cell(id).kind, CellKind::Ram { .. }))
                    .nth(rams.len())
                    .ok_or_else(|| Error::MalformedProgram {
                        detail: format!(
                            "RamRead op {} has no matching Ram cell in the schedule",
                            rams.len()
                        ),
                    })?;
                if let CellKind::Ram { words, raddr, rdata, waddr, wdata, wen } =
                    &netlist.cell(cell).kind
                {
                    rams.push(RamSlots {
                        cell,
                        words: *words,
                        width: rdata.width(),
                        raddr: bus_slots(raddr),
                        rdata: bus_slots(rdata),
                        waddr: bus_slots(waddr),
                        wdata: bus_slots(wdata),
                        wen: slot(*wen),
                    });
                }
            }
        }

        let mut regs = Vec::new();
        let mut reg_bits = 0usize;
        for &id in netlist.registers() {
            if let CellKind::Register { d, q } = &netlist.cell(id).kind {
                regs.push(RegSlots {
                    cell: id,
                    offset: reg_bits,
                    d: bus_slots(d),
                    q: bus_slots(q),
                });
                reg_bits += d.width();
            }
        }

        Ok(Program { ops, slots: next_slot as usize, zero, one, regs, rams, levels, reg_bits })
    }

    /// Word operations executed per pass.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Word-file size (nets + constants + ripple temporaries).
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.slots
    }

    /// Combinational depth of the schedule (longest dependent-cell
    /// chain — the levelization depth).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Back-translates the compiled program into a validated netlist.
    ///
    /// Every word slot becomes a net: slots `0..nets` keep the source
    /// netlist's net ids (so ports and register names carry over
    /// unchanged), the two constant slots become [`CellKind::Constant`]
    /// drivers, and ripple-carry temporaries become fresh single-bit
    /// nets. Each op lowers to the cell computing exactly that op —
    /// generic ops become LUTs whose truth table is evaluated from the
    /// op semantics, RAM reads copy the source RAM cell verbatim.
    ///
    /// The result is what the interpreter *actually executes*, expressed
    /// back in the netlist IR, which lets `dwt-equiv` prove the lowering
    /// correct against the source netlist instead of sampling it.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotMismatch`] if `source` is not the netlist this
    /// program was compiled from (net/cell counts differ), or a
    /// validation error if the program somehow encodes a broken graph
    /// (never expected for [`Program::compile`] output).
    pub fn to_netlist(&self, source: &Netlist) -> Result<Netlist> {
        if source.net_count() != self.zero as usize
            || self.regs.iter().any(|r| r.cell.index() >= source.cell_count())
        {
            return Err(Error::SnapshotMismatch {
                snapshot_nets: self.zero as usize,
                simulator_nets: source.net_count(),
                snapshot_cells: self.regs.len(),
                simulator_cells: source.cell_count(),
            });
        }
        let net = |s: u32| NetId(s);
        let one_bit = |s: u32| Bus::new(vec![net(s)]);
        let mut cells = Vec::with_capacity(self.ops.len() + self.regs.len() + 2);
        cells.push(Cell {
            name: "bt_zero".into(),
            kind: CellKind::Constant { value: 0, out: one_bit(self.zero)? },
        });
        cells.push(Cell {
            name: "bt_one".into(),
            kind: CellKind::Constant { value: -1, out: one_bit(self.one)? },
        });
        for (i, op) in self.ops.iter().enumerate() {
            let (name, kind) = match *op {
                Op::Const { dst, ones } => (
                    format!("bt{i}"),
                    CellKind::Constant { value: if ones { -1 } else { 0 }, out: one_bit(dst)? },
                ),
                Op::Copy { dst, a } => (
                    format!("bt{i}"),
                    CellKind::Lut { inputs: vec![net(a)], table: tables::BUF1, output: net(dst) },
                ),
                Op::Not { dst, a } => (
                    format!("bt{i}"),
                    CellKind::Lut { inputs: vec![net(a)], table: tables::NOT1, output: net(dst) },
                ),
                Op::And { dst, a, b } => (
                    format!("bt{i}"),
                    CellKind::Lut {
                        inputs: vec![net(a), net(b)],
                        table: tables::AND2,
                        output: net(dst),
                    },
                ),
                Op::Or { dst, a, b } => (
                    format!("bt{i}"),
                    CellKind::Lut {
                        inputs: vec![net(a), net(b)],
                        table: tables::OR2,
                        output: net(dst),
                    },
                ),
                Op::Xor { dst, a, b } => (
                    format!("bt{i}"),
                    CellKind::Lut {
                        inputs: vec![net(a), net(b)],
                        table: tables::XOR2,
                        output: net(dst),
                    },
                ),
                Op::FaSum { dst, a, b, cin, invert_b } => (
                    format!("bt{i}"),
                    CellKind::Lut {
                        inputs: vec![net(a), net(b), net(cin)],
                        table: fa_table(invert_b, false),
                        output: net(dst),
                    },
                ),
                Op::FaCarry { dst, a, b, cin, invert_b } => (
                    format!("bt{i}"),
                    CellKind::Lut {
                        inputs: vec![net(a), net(b), net(cin)],
                        table: fa_table(invert_b, true),
                        output: net(dst),
                    },
                ),
                Op::Lut { dst, ref inputs, table } => (
                    format!("bt{i}"),
                    CellKind::Lut {
                        inputs: inputs.iter().map(|&s| net(s)).collect(),
                        table,
                        output: net(dst),
                    },
                ),
                Op::RamRead { port } => {
                    // The op implements exactly the source RAM cell's
                    // read port; the write port commits in the register
                    // phase, as in the source. Copy the cell verbatim.
                    let cell = source.cell(self.rams[port as usize].cell);
                    (cell.name.clone(), cell.kind.clone())
                }
            };
            cells.push(Cell { name, kind });
        }
        for reg in &self.regs {
            let d = Bus::new(reg.d.iter().map(|&s| net(s)).collect())?;
            let q = Bus::new(reg.q.iter().map(|&s| net(s)).collect())?;
            cells.push(Cell {
                name: source.cell(reg.cell).name.clone(),
                kind: CellKind::Register { d, q },
            });
        }
        Netlist::validate(cells, self.slots as u32, source.ports().clone())
    }
}

/// Truth table of a full-adder sum (`carry == false`) or carry
/// (`carry == true`) op over inputs `[a, b, cin]` (input 0 = least
/// significant selector bit), honoring the op's `invert_b` flag.
fn fa_table(invert_b: bool, carry: bool) -> u16 {
    let mut table = 0u16;
    for m in 0u16..8 {
        let a = m & 1 != 0;
        let b = ((m >> 1) & 1 != 0) ^ invert_b;
        let c = (m >> 2) & 1 != 0;
        let out = if carry { (a & b) | (a & c) | (b & c) } else { a ^ b ^ c };
        if out {
            table |= 1 << m;
        }
    }
    table
}

/// Slot index of a net.
pub(crate) fn slot(net: NetId) -> u32 {
    net.index() as u32
}

/// Slot indices of a bus, LSB first.
fn bus_slots(bus: &Bus) -> Vec<u32> {
    bus.bits().iter().map(|&n| slot(n)).collect()
}

/// Specializes a LUT to a dedicated op where the table matches a
/// common function; anything else falls back to the generic
/// minterm-sum op.
fn lower_lut(inputs: &[NetId], table: u16, dst: u32) -> Op {
    let s: Vec<u32> = inputs.iter().map(|&n| slot(n)).collect();
    match (s.as_slice(), table) {
        (&[a], 0b10) => Op::Copy { dst, a },
        (&[a], 0b01) => Op::Not { dst, a },
        (&[_], 0b00) => Op::Const { dst, ones: false },
        (&[_], 0b11) => Op::Const { dst, ones: true },
        (&[a, b], 0b1000) => Op::And { dst, a, b },
        (&[a, b], 0b1110) => Op::Or { dst, a, b },
        (&[a, b], 0b0110) => Op::Xor { dst, a, b },
        (&[a, b, c], 0b1001_0110) => Op::FaSum { dst, a, b, cin: c, invert_b: false },
        (&[a, b, c], 0b1110_1000) => Op::FaCarry { dst, a, b, cin: c, invert_b: false },
        _ => Op::Lut { dst, inputs: s.into_boxed_slice(), table },
    }
}

/// Lowers a behavioral word adder/subtractor to a ripple chain of
/// full-adder ops. With `invert_b` and carry-in 1 (the `one` constant
/// slot) this computes `a - b`; both wrap modulo 2^width exactly like
/// the event-driven simulator's word evaluation.
fn lower_ripple(
    ops: &mut Vec<Op>,
    a: &Bus,
    b: &Bus,
    out: &Bus,
    invert_b: bool,
    cin0: u32,
    alloc: &mut impl FnMut() -> u32,
) {
    let width = out.width();
    let mut cin = cin0;
    for i in 0..width {
        let (ai, bi) = (slot(a.bit(i)), slot(b.bit(i)));
        ops.push(Op::FaSum { dst: slot(out.bit(i)), a: ai, b: bi, cin, invert_b });
        if i + 1 < width {
            let carry = alloc();
            ops.push(Op::FaCarry { dst: carry, a: ai, b: bi, cin, invert_b });
            cin = carry;
        }
    }
}

/// A staged input write, already scattered into one word of the word
/// file and applied at the next tick/settle as
/// `word = (word & !mask) | bits`. Staging writes words rather than
/// values, so once the staging list has reached its working size a
/// write allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StagedWord {
    /// Index into the word file.
    pub(crate) idx: u32,
    /// The lanes of the word this write sets.
    pub(crate) mask: u64,
    /// Their new bits.
    pub(crate) bits: u64,
}

/// Validates a write of `values` to the input port `name` and returns
/// the port's bus.
pub(crate) fn input_bus<'a>(netlist: &'a Netlist, name: &str, values: &[i64]) -> Result<&'a Bus> {
    let port = netlist.port(name)?;
    if port.direction != PortDirection::Input {
        return Err(Error::UnknownPort { name: name.to_owned() });
    }
    for &v in values {
        port.bus.check_value(v)?;
    }
    Ok(&port.bus)
}

/// Stages `values[k]` into lane `first + k` of `bus`, scattered
/// bit-major: one word per (bit, 64-lane block) touched, in a word file
/// of `blocks` words per slot.
pub(crate) fn stage_lanes(
    staged: &mut Vec<StagedWord>,
    bus: &Bus,
    blocks: usize,
    first: usize,
    values: &[i64],
) {
    let end = first + values.len();
    for blk in first / 64..end.div_ceil(64) {
        let lo = (blk * 64).max(first);
        let chunk = &values[lo - first..((blk + 1) * 64).min(end) - first];
        let shift = lo % 64;
        let mask = (ALL >> (64 - chunk.len())) << shift;
        for (i, &net) in bus.bits().iter().enumerate() {
            let mut bits = 0u64;
            for (b, &v) in chunk.iter().enumerate() {
                bits |= (((v >> i) & 1) as u64) << b;
            }
            let idx = (slot(net) as usize * blocks + blk) as u32;
            staged.push(StagedWord { idx, mask, bits: bits << shift });
        }
    }
}

/// Stages `value` on every lane of `bus`.
pub(crate) fn stage_broadcast(staged: &mut Vec<StagedWord>, bus: &Bus, blocks: usize, value: i64) {
    for (i, &net) in bus.bits().iter().enumerate() {
        let bits = if (value >> i) & 1 == 1 { ALL } else { 0 };
        let base = slot(net) as usize * blocks;
        for blk in 0..blocks {
            staged.push(StagedWord { idx: (base + blk) as u32, mask: ALL, bits });
        }
    }
}

/// Signed values of a bus in the 64 lanes of one block, gathered
/// bit-major: `word(bit)` is the block's word for each bit of the bus.
pub(crate) fn gather_lanes(width: usize, word: impl Fn(usize) -> u64, out: &mut impl Extend<i64>) {
    let mut raw = [0u64; 64];
    for i in 0..width {
        let mut w = word(i);
        while w != 0 {
            raw[w.trailing_zeros() as usize] |= 1 << i;
            w &= w - 1;
        }
    }
    out.extend(raw.iter().map(|&v| sign_extend(v, width)));
}

/// Two's-complement interpretation of `width` LSB-first raw bits.
#[inline]
pub(crate) fn sign_extend(raw: u64, width: usize) -> i64 {
    let v = raw as i64;
    if width < 64 && raw >> (width - 1) & 1 == 1 {
        v - (1 << width)
    } else {
        v
    }
}

/// Encodes a staging list for a portable snapshot.
pub(crate) fn write_staged(w: &mut ByteWriter, staged: &[StagedWord]) {
    w.len(staged.len());
    for s in staged {
        w.u32(s.idx);
        w.u64(s.mask);
        w.u64(s.bits);
    }
}

/// Decodes a staging list written by [`write_staged`].
pub(crate) fn read_staged(r: &mut ByteReader<'_>) -> Result<Vec<StagedWord>> {
    let n = r.len(20)?;
    let mut staged = Vec::with_capacity(n);
    for _ in 0..n {
        staged.push(StagedWord { idx: r.u32()?, mask: r.u64()?, bits: r.u64()? });
    }
    Ok(staged)
}

/// Complete architectural state of a [`CompiledEngine`]: net words,
/// RAM bit-planes, staged inputs, armed faults and the cycle counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSnapshot {
    nets: usize,
    cells: usize,
    words: Vec<u64>,
    ram: Vec<Vec<u64>>,
    staged: Vec<StagedWord>,
    stuck: Vec<(u32, bool)>,
    flips: Vec<(CellId, usize, u64)>,
    ram_upsets: Vec<(CellId, usize, usize, u64)>,
    cycle: u64,
}

impl CompiledSnapshot {
    /// The clock cycle at which the snapshot was taken.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether any fault (stuck-at clamp, pending flip or RAM upset)
    /// is armed in the snapshot.
    #[must_use]
    pub fn has_armed_faults(&self) -> bool {
        !self.stuck.is_empty() || !self.flips.is_empty() || !self.ram_upsets.is_empty()
    }
}

/// Leading tag byte of a serialized compiled snapshot (`'C'`).
const SNAPSHOT_TAG: u8 = b'C';
/// Encoding version; bump on any field/layout change.
const SNAPSHOT_VERSION: u8 = 2;

impl crate::engine::PortableSnapshot for CompiledSnapshot {
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(SNAPSHOT_TAG);
        w.u8(SNAPSHOT_VERSION);
        w.usize(self.nets);
        w.usize(self.cells);
        w.len(self.words.len());
        for &word in &self.words {
            w.u64(word);
        }
        w.len(self.ram.len());
        for planes in &self.ram {
            w.len(planes.len());
            for &word in planes {
                w.u64(word);
            }
        }
        write_staged(&mut w, &self.staged);
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
        w.u64(self.cycle);
        w.finish()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let tag = r.u8()?;
        if tag != SNAPSHOT_TAG {
            return Err(Error::SnapshotDecode {
                detail: format!("tag {tag:#04x} is not a compiled snapshot"),
            });
        }
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(Error::SnapshotDecode {
                detail: format!("unsupported snapshot version {version}"),
            });
        }
        let nets = r.usize()?;
        let cells = r.usize()?;
        let mut words = Vec::with_capacity(r.len(8)?);
        for _ in 0..words.capacity() {
            words.push(r.u64()?);
        }
        let mut ram = Vec::with_capacity(r.len(4)?);
        for _ in 0..ram.capacity() {
            let mut planes = Vec::with_capacity(r.len(8)?);
            for _ in 0..planes.capacity() {
                planes.push(r.u64()?);
            }
            ram.push(planes);
        }
        let staged = read_staged(&mut r)?;
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
        let cycle = r.u64()?;
        r.finish()?;
        Ok(CompiledSnapshot { nets, cells, words, ram, staged, stuck, flips, ram_upsets, cycle })
    }
}

/// The levelized bit-sliced simulation backend.
///
/// Advances [`LANES`] independent sample streams per tick; scalar
/// [`Engine`] verbs broadcast writes to every lane and read lane 0, so
/// any code written against the event-driven simulator behaves
/// identically here. The per-lane verbs
/// ([`set_input_lane`](CompiledEngine::set_input_lane),
/// [`peek_lane`](CompiledEngine::peek_lane),
/// [`peek_lanes`](CompiledEngine::peek_lanes)) expose the parallelism.
///
/// Deliberate differences from [`sim::Simulator`](crate::sim::Simulator):
///
/// * **No glitch model / activity statistics.** Each cycle is one
///   functional pass in topological order; intermediate transitions of
///   the event model never exist, so there is nothing to count. Use
///   the event-driven backend for power work.
/// * **No divergence detection.** The program is straight-line; it
///   cannot oscillate, so `set_event_cap` is a no-op and
///   `SimulationDiverged` is never reported.
/// * **Stuck-at decay after [`clear_faults`](Engine::clear_faults).**
///   The event-driven simulator leaves a formerly-clamped net at its
///   forced level until its driver re-fires; the compiled backend
///   recomputes every net each pass, so cleared nets heal at the next
///   tick/settle.
///
/// Injected faults apply to **all lanes** (the same clamp masks and
/// transient XORs are word-wide), which is exactly what differential
/// campaigns want: one engine, 64 identically-faulted trials.
#[derive(Debug, Clone)]
pub struct CompiledEngine {
    netlist: Netlist,
    program: Program,
    words: Vec<u64>,
    /// Per-RAM bit-plane storage: `ram[r][word * width + bit]`.
    ram: Vec<Vec<u64>>,
    /// Register-capture buffer reused across ticks.
    scratch: Vec<u64>,
    staged: Vec<StagedWord>,
    /// Per-slot clamp masks (`AND` then `OR`); identity unless stuck.
    and_mask: Vec<u64>,
    or_mask: Vec<u64>,
    has_stuck: bool,
    stuck: Vec<(u32, bool)>,
    flips: Vec<(CellId, usize, u64)>,
    ram_upsets: Vec<(CellId, usize, usize, u64)>,
    cycle: u64,
}

impl CompiledEngine {
    /// Compiles and power-cycles an engine for a validated netlist:
    /// registers and RAM zeroed in every lane, combinational logic
    /// settled.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedProgram`] if lowering finds an
    /// internal inconsistency — unreachable for netlists that passed
    /// validation at build time.
    pub fn new(netlist: Netlist) -> Result<Self> {
        let program = Program::compile(&netlist)?;
        let slots = program.slots;
        let mut engine = CompiledEngine {
            words: vec![0; slots],
            ram: program.rams.iter().map(|r| vec![0; r.words * r.width]).collect(),
            scratch: Vec::with_capacity(program.reg_bits),
            staged: Vec::new(),
            and_mask: vec![ALL; slots],
            or_mask: vec![0; slots],
            has_stuck: false,
            stuck: Vec::new(),
            flips: Vec::new(),
            ram_upsets: Vec::new(),
            cycle: 0,
            program,
            netlist,
        };
        engine.words[engine.program.one as usize] = ALL;
        engine.eval_pass::<false>();
        Ok(engine)
    }

    /// The compiled schedule (for depth/size reports).
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Stages a value on an input port for one lane only; other lanes
    /// keep their current bits.
    ///
    /// # Errors
    ///
    /// Same port/range validation as [`Engine::set_input`]; rejects
    /// `lane >=` [`LANES`].
    pub fn set_input_lane(&mut self, name: &str, lane: usize, value: i64) -> Result<()> {
        let bus = input_bus(&self.netlist, name, &[value])?;
        check_lane(lane)?;
        stage_lanes(&mut self.staged, bus, 1, lane, &[value]);
        Ok(())
    }

    /// Stages per-lane values on an input port: `values[l]` goes to
    /// lane `l`. Accepts 1 to [`LANES`] values; lanes beyond
    /// `values.len()` keep their current bits.
    ///
    /// # Errors
    ///
    /// Same validation as [`Engine::set_input`] applied to every
    /// value; rejects empty or oversized value slices.
    pub fn set_input_lanes(&mut self, name: &str, values: &[i64]) -> Result<()> {
        if values.is_empty() || values.len() > LANES {
            return Err(Error::FaultTarget {
                target: name.to_owned(),
                detail: format!("expected 1..={LANES} lane values, got {}", values.len()),
            });
        }
        let bus = input_bus(&self.netlist, name, values)?;
        stage_lanes(&mut self.staged, bus, 1, 0, values);
        Ok(())
    }

    /// Reads the settled value of a port in one lane.
    ///
    /// # Errors
    ///
    /// Unknown port, or `lane >=` [`LANES`].
    pub fn peek_lane(&self, name: &str, lane: usize) -> Result<i64> {
        check_lane(lane)?;
        let bus = &self.netlist.port(name)?.bus;
        let raw = bus
            .bits()
            .iter()
            .enumerate()
            .fold(0u64, |v, (i, &n)| v | ((self.words[n.index()] >> lane) & 1) << i);
        Ok(sign_extend(raw, bus.width()))
    }

    /// Reads the settled value of a port in every lane, gathered
    /// bit-major: one word read per bit of the port.
    ///
    /// # Errors
    ///
    /// Unknown port.
    pub fn peek_lanes(&self, name: &str) -> Result<Vec<i64>> {
        let bits = self.netlist.port(name)?.bus.bits();
        let mut out = Vec::with_capacity(LANES);
        gather_lanes(bits.len(), |i| self.words[bits[i].index()], &mut out);
        Ok(out)
    }

    /// Applies staged input writes into the word file, keeping the
    /// staging list's capacity.
    fn apply_staged<const CLAMPED: bool>(&mut self) {
        for k in 0..self.staged.len() {
            let StagedWord { idx, mask, bits } = self.staged[k];
            self.store::<CLAMPED>(idx, (self.words[idx as usize] & !mask) | bits);
        }
        self.staged.clear();
    }

    /// Writes a word to a slot, through the stuck-at clamp masks when
    /// `CLAMPED`.
    #[inline]
    fn store<const CLAMPED: bool>(&mut self, dst: u32, v: u64) {
        let i = dst as usize;
        self.words[i] = if CLAMPED { (v & self.and_mask[i]) | self.or_mask[i] } else { v };
    }

    /// One full pass over the compiled schedule: recomputes every
    /// combinational net (all 64 lanes) from registers and inputs.
    fn eval_pass<const CLAMPED: bool>(&mut self) {
        let CompiledEngine { program, words, ram, and_mask, or_mask, .. } = self;
        macro_rules! store {
            ($dst:expr, $v:expr) => {{
                let i = $dst as usize;
                let v = $v;
                words[i] = if CLAMPED { (v & and_mask[i]) | or_mask[i] } else { v };
            }};
        }
        macro_rules! w {
            ($s:expr) => {
                words[$s as usize]
            };
        }
        for op in &program.ops {
            match *op {
                Op::Const { dst, ones } => store!(dst, if ones { ALL } else { 0 }),
                Op::Copy { dst, a } => store!(dst, w!(a)),
                Op::Not { dst, a } => store!(dst, !w!(a)),
                Op::And { dst, a, b } => store!(dst, w!(a) & w!(b)),
                Op::Or { dst, a, b } => store!(dst, w!(a) | w!(b)),
                Op::Xor { dst, a, b } => store!(dst, w!(a) ^ w!(b)),
                Op::FaSum { dst, a, b, cin, invert_b } => {
                    let b = if invert_b { !w!(b) } else { w!(b) };
                    store!(dst, w!(a) ^ b ^ w!(cin));
                }
                Op::FaCarry { dst, a, b, cin, invert_b } => {
                    let a = w!(a);
                    let b = if invert_b { !w!(b) } else { w!(b) };
                    let c = w!(cin);
                    store!(dst, (a & b) | (a & c) | (b & c));
                }
                Op::Lut { dst, ref inputs, table } => {
                    let mut out = 0u64;
                    for m in 0..(1u32 << inputs.len()) {
                        if table & (1u16 << m) != 0 {
                            let mut term = ALL;
                            for (i, &inp) in inputs.iter().enumerate() {
                                let v = w!(inp);
                                term &= if (m >> i) & 1 == 1 { v } else { !v };
                            }
                            out |= term;
                        }
                    }
                    store!(dst, out);
                }
                Op::RamRead { port } => {
                    let r = &program.rams[port as usize];
                    let mut acc = [0u64; 64];
                    for wd in 0..r.words {
                        let mut dec = ALL;
                        for (i, &a) in r.raddr.iter().enumerate() {
                            let v = w!(a);
                            dec &= if (wd >> i) & 1 == 1 { v } else { !v };
                            if dec == 0 {
                                break;
                            }
                        }
                        if dec == 0 {
                            continue;
                        }
                        let plane = &ram[port as usize][wd * r.width..(wd + 1) * r.width];
                        for (j, &p) in plane.iter().enumerate() {
                            acc[j] |= dec & p;
                        }
                    }
                    for (j, &d) in r.rdata.iter().enumerate() {
                        store!(d, acc[j]);
                    }
                }
            }
        }
    }

    /// One clock edge; mirrors the event-driven simulator's edge
    /// ordering exactly (RAM upsets strike storage, registers capture
    /// the settled pre-upset read data, transient flips hit the
    /// captured bits, RAM writes commit from settled values, then Q
    /// and staged inputs apply and the combinational pass settles).
    fn step<const CLAMPED: bool>(&mut self) {
        let now = self.cycle;

        // 0. Due RAM upsets strike the array (every lane).
        let mut due_ram = Vec::new();
        self.ram_upsets.retain(|&u| {
            if u.3 == now {
                due_ram.push(u);
                false
            } else {
                true
            }
        });
        for (cell, addr, bit, _) in due_ram {
            if let Some(idx) = self.program.rams.iter().position(|r| r.cell == cell) {
                let width = self.program.rams[idx].width;
                self.ram[idx][addr * width + bit] ^= ALL;
            }
        }

        // 1. Capture register D from the settled state.
        self.scratch.clear();
        for reg in &self.program.regs {
            for &d in &reg.d {
                self.scratch.push(self.words[d as usize]);
            }
        }

        // 1a. Due transient flips strike the captured bits.
        let mut due_flips = Vec::new();
        self.flips.retain(|&f| {
            if f.2 == now {
                due_flips.push(f);
                false
            } else {
                true
            }
        });
        for (cell, bit, _) in due_flips {
            if let Some(reg) = self.program.regs.iter().find(|r| r.cell == cell) {
                self.scratch[reg.offset + bit] ^= ALL;
            }
        }

        // 1b. Commit RAM writes from the settled (pre-edge) values.
        for idx in 0..self.program.rams.len() {
            let r = &self.program.rams[idx];
            let wen = self.words[r.wen as usize];
            if wen == 0 {
                continue;
            }
            for wd in 0..r.words {
                let mut sel = wen;
                for (i, &a) in r.waddr.iter().enumerate() {
                    let v = self.words[a as usize];
                    sel &= if (wd >> i) & 1 == 1 { v } else { !v };
                    if sel == 0 {
                        break;
                    }
                }
                if sel == 0 {
                    continue;
                }
                for j in 0..r.width {
                    let data = self.words[r.wdata[j] as usize];
                    let plane = &mut self.ram[idx][wd * r.width + j];
                    *plane = (*plane & !sel) | (data & sel);
                }
            }
        }

        // 2. Q and staged inputs apply together.
        {
            let CompiledEngine { program, words, scratch, and_mask, or_mask, .. } = &mut *self;
            let mut k = 0usize;
            for reg in &program.regs {
                for &q in &reg.q {
                    let i = q as usize;
                    let v = scratch[k];
                    k += 1;
                    words[i] = if CLAMPED { (v & and_mask[i]) | or_mask[i] } else { v };
                }
            }
        }
        self.apply_staged::<CLAMPED>();

        // 3. Settle.
        self.eval_pass::<CLAMPED>();
        self.cycle += 1;
    }

    /// Rebuilds the clamp masks from the stuck list.
    fn rebuild_masks(&mut self) {
        self.and_mask.iter_mut().for_each(|m| *m = ALL);
        self.or_mask.iter_mut().for_each(|m| *m = 0);
        for &(net, value) in &self.stuck {
            if value {
                self.or_mask[net as usize] = ALL;
            } else {
                self.and_mask[net as usize] = 0;
            }
        }
        self.has_stuck = !self.stuck.is_empty();
    }
}

/// Validates a lane index.
fn check_lane(lane: usize) -> Result<()> {
    if lane >= LANES {
        return Err(Error::FaultTarget {
            target: format!("lane {lane}"),
            detail: format!("engine has {LANES} lanes"),
        });
    }
    Ok(())
}

impl Engine for CompiledEngine {
    type Snapshot = CompiledSnapshot;

    fn from_netlist(netlist: Netlist) -> Result<Self> {
        CompiledEngine::new(netlist)
    }

    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            backend: "compiled",
            lanes: LANES,
            activity_stats: false,
            glitch_model: false,
            divergence_detection: false,
            native_codegen: false,
            fault_stuck_at: true,
            fault_bit_flip: true,
            fault_ram_upset: true,
        }
    }

    fn set_input(&mut self, name: &str, value: i64) -> Result<()> {
        let bus = input_bus(&self.netlist, name, &[value])?;
        stage_broadcast(&mut self.staged, bus, 1, value);
        Ok(())
    }

    fn try_tick(&mut self) -> Result<()> {
        if self.has_stuck {
            self.step::<true>();
        } else {
            self.step::<false>();
        }
        Ok(())
    }

    fn try_settle(&mut self) -> Result<()> {
        if self.has_stuck {
            self.apply_staged::<true>();
            self.eval_pass::<true>();
        } else {
            self.apply_staged::<false>();
            self.eval_pass::<false>();
        }
        Ok(())
    }

    fn peek(&self, name: &str) -> Result<i64> {
        CompiledEngine::peek_lane(self, name, 0)
    }

    fn set_input_lanes(&mut self, name: &str, values: &[i64]) -> Result<()> {
        CompiledEngine::set_input_lanes(self, name, values)
    }

    fn peek_lane(&self, name: &str, lane: usize) -> Result<i64> {
        CompiledEngine::peek_lane(self, name, lane)
    }

    fn peek_lanes(&self, name: &str) -> Result<Vec<i64>> {
        CompiledEngine::peek_lanes(self, name)
    }

    fn snapshot(&self) -> CompiledSnapshot {
        CompiledSnapshot {
            nets: self.netlist.net_count(),
            cells: self.netlist.cell_count(),
            words: self.words.clone(),
            ram: self.ram.clone(),
            staged: self.staged.clone(),
            stuck: self.stuck.clone(),
            flips: self.flips.clone(),
            ram_upsets: self.ram_upsets.clone(),
            cycle: self.cycle,
        }
    }

    fn restore(&mut self, snapshot: &CompiledSnapshot) -> Result<()> {
        if snapshot.nets != self.netlist.net_count()
            || snapshot.cells != self.netlist.cell_count()
            || snapshot.words.len() != self.words.len()
            || snapshot.staged.iter().any(|s| s.idx as usize >= self.words.len())
        {
            return Err(Error::SnapshotMismatch {
                snapshot_nets: snapshot.nets,
                simulator_nets: self.netlist.net_count(),
                snapshot_cells: snapshot.cells,
                simulator_cells: self.netlist.cell_count(),
            });
        }
        self.words.clone_from(&snapshot.words);
        self.ram.clone_from(&snapshot.ram);
        self.staged.clone_from(&snapshot.staged);
        self.stuck.clone_from(&snapshot.stuck);
        self.flips.clone_from(&snapshot.flips);
        self.ram_upsets.clone_from(&snapshot.ram_upsets);
        self.cycle = snapshot.cycle;
        self.rebuild_masks();
        Ok(())
    }

    fn inject(&mut self, spec: &FaultSpec) -> Result<()> {
        match fault::resolve(&self.netlist, spec)? {
            ResolvedFault::Stuck { net, value } => {
                let s = slot(net);
                match self.stuck.iter_mut().find(|(n, _)| *n == s) {
                    Some(entry) => entry.1 = value,
                    None => self.stuck.push((s, value)),
                }
                self.rebuild_masks();
                // Force the net now and re-settle downstream logic.
                self.store::<true>(s, self.words[s as usize]);
                self.eval_pass::<true>();
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

    fn clear_faults(&mut self) {
        self.stuck.clear();
        self.flips.clear();
        self.ram_upsets.clear();
        self.rebuild_masks();
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn set_event_cap(&mut self, _cap: u64) {
        // Straight-line programs cannot diverge; nothing to bound.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::sim::Simulator;

    /// A netlist exercising every lowered cell class: behavioral
    /// word add/sub, structural ripple logic, specialized and generic
    /// LUTs (mux, eq, parity tree), registers and constants.
    fn mixed_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let y = b.input("y", 8).unwrap();
        let sum = b.carry_add("sum", &x, &y, 10).unwrap();
        let dif = b.carry_sub("dif", &x, &y, 10).unwrap();
        let rs = b.register("rs", &sum).unwrap();
        let rd = b.register("rd", &dif).unwrap();
        let rip = b.ripple_add("rip", &rs, &rd, 11).unwrap();
        let sel = b.eq_const("sel", &x, 3).unwrap();
        let rs_w = b.sign_extend(&rs, 11).unwrap();
        let m = b.mux("m", sel, &rip, &rs_w).unwrap();
        let par = b.xor_tree("par", m.bits()).unwrap();
        b.output("s", &m).unwrap();
        b.output("p", &Bus::new(vec![par]).unwrap()).unwrap();
        b.finish().unwrap()
    }

    /// Write port + read port around a 4-word RAM; the 3-bit signed
    /// address inputs can point past the last word (negative values
    /// read back as high unsigned addresses), covering the
    /// out-of-range read/write path.
    fn ram_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        let raddr = b.input("raddr", 3).unwrap();
        let waddr = b.input("waddr", 3).unwrap();
        let wdata = b.input("wdata", 6).unwrap();
        let wen = b.input("wen", 1).unwrap();
        let rdata = b.ram("m", 4, 6, &raddr, &waddr, &wdata, wen.bit(0)).unwrap();
        b.output("rdata", &rdata).unwrap();
        b.finish().unwrap()
    }

    /// Tiny deterministic generator so tests need no external RNG.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }
    }

    /// Drives both backends in lockstep and compares the named output
    /// ports every cycle.
    fn lockstep(
        netlist: Netlist,
        inputs: &[(&str, i64, i64)],
        outputs: &[&str],
        ticks: usize,
        seed: u64,
        mut faults: impl FnMut(usize) -> Vec<FaultSpec>,
    ) {
        let mut sim = Simulator::new(netlist.clone()).unwrap();
        let mut eng = CompiledEngine::new(netlist).unwrap();
        let mut rng = Lcg(seed);
        for t in 0..ticks {
            for spec in faults(t) {
                sim.inject(&spec).unwrap();
                eng.inject(&spec).unwrap();
            }
            for &(name, lo, hi) in inputs {
                let v = rng.in_range(lo, hi);
                sim.set_input(name, v).unwrap();
                Engine::set_input(&mut eng, name, v).unwrap();
            }
            sim.try_tick().unwrap();
            eng.try_tick().unwrap();
            for &out in outputs {
                assert_eq!(
                    sim.peek(out).unwrap(),
                    Engine::peek(&eng, out).unwrap(),
                    "output {out} diverged at tick {t}"
                );
            }
        }
    }

    #[test]
    fn mixed_logic_matches_event_sim() {
        lockstep(
            mixed_netlist(),
            &[("x", -128, 127), ("y", -128, 127)],
            &["s", "p"],
            200,
            7,
            |_| Vec::new(),
        );
    }

    #[test]
    fn ram_matches_event_sim() {
        lockstep(
            ram_netlist(),
            &[("raddr", -4, 3), ("waddr", -4, 3), ("wdata", -32, 31), ("wen", -1, 0)],
            &["rdata"],
            300,
            11,
            |_| Vec::new(),
        );
    }

    #[test]
    fn faults_match_event_sim() {
        // A stuck output bit, a register flip mid-stream, and (on the
        // RAM netlist) an array upset all land identically.
        lockstep(
            mixed_netlist(),
            &[("x", -128, 127), ("y", -128, 127)],
            &["s", "p"],
            120,
            13,
            |t| match t {
                10 => vec![FaultSpec::StuckAt { net: "s".into(), bit: 2, value: true }],
                40 => vec![FaultSpec::BitFlip { register: "rs".into(), bit: 1, cycle: 45 }],
                _ => Vec::new(),
            },
        );
        lockstep(
            ram_netlist(),
            &[("raddr", -4, 3), ("waddr", -4, 3), ("wdata", -32, 31), ("wen", -1, 0)],
            &["rdata"],
            120,
            17,
            |t| match t {
                5 => vec![FaultSpec::RamUpset { ram: "m".into(), addr: 2, bit: 3, cycle: 20 }],
                _ => Vec::new(),
            },
        );
    }

    #[test]
    fn snapshot_round_trips_and_rejects_foreign_netlists() {
        let mut eng = CompiledEngine::new(mixed_netlist()).unwrap();
        let mut rng = Lcg(23);
        for _ in 0..20 {
            Engine::set_input(&mut eng, "x", rng.in_range(-128, 127)).unwrap();
            Engine::set_input(&mut eng, "y", rng.in_range(-128, 127)).unwrap();
            eng.try_tick().unwrap();
        }
        let snap = eng.snapshot();
        assert_eq!(snap.cycle(), 20);
        assert!(!snap.has_armed_faults());
        // Diverge, then roll back and replay identically.
        let mut trace = Vec::new();
        let replay: Vec<(i64, i64)> =
            (0..10).map(|_| (rng.in_range(-128, 127), rng.in_range(-128, 127))).collect();
        for &(x, y) in &replay {
            Engine::set_input(&mut eng, "x", x).unwrap();
            Engine::set_input(&mut eng, "y", y).unwrap();
            eng.try_tick().unwrap();
            trace.push((Engine::peek(&eng, "s").unwrap(), eng.peek_lanes("s").unwrap()));
        }
        eng.restore(&snap).unwrap();
        assert_eq!(eng.snapshot(), snap, "restore must reproduce the snapshot state");
        for (i, &(x, y)) in replay.iter().enumerate() {
            Engine::set_input(&mut eng, "x", x).unwrap();
            Engine::set_input(&mut eng, "y", y).unwrap();
            eng.try_tick().unwrap();
            assert_eq!(Engine::peek(&eng, "s").unwrap(), trace[i].0);
            assert_eq!(eng.peek_lanes("s").unwrap(), trace[i].1);
        }
        // A snapshot from a different netlist shape is rejected.
        let mut other = CompiledEngine::new(ram_netlist()).unwrap();
        assert!(matches!(other.restore(&snap), Err(Error::SnapshotMismatch { .. })));
    }

    #[test]
    fn portable_snapshot_bytes_round_trip_and_reject_corruption() {
        use crate::engine::PortableSnapshot;
        use crate::fault::FaultSpec;
        let netlist = ram_netlist();
        let mut eng = CompiledEngine::new(netlist.clone()).unwrap();
        let mut rng = Lcg(31);
        for _ in 0..12 {
            Engine::set_input(&mut eng, "raddr", rng.in_range(0, 3)).unwrap();
            Engine::set_input(&mut eng, "waddr", rng.in_range(0, 3)).unwrap();
            Engine::set_input(&mut eng, "wdata", rng.in_range(-32, 31)).unwrap();
            Engine::set_input(&mut eng, "wen", rng.in_range(-1, 0)).unwrap();
            eng.try_tick().unwrap();
        }
        // Exercise every StagedInput arm plus armed faults.
        Engine::set_input(&mut eng, "raddr", 2).unwrap();
        eng.set_input_lane("wdata", 3, 19).unwrap();
        eng.set_input_lanes("waddr", &[1; LANES]).unwrap();
        eng.inject(&FaultSpec::StuckAt { net: "wdata".into(), bit: 0, value: true }).unwrap();
        eng.inject(&FaultSpec::RamUpset { ram: "m".into(), addr: 1, bit: 2, cycle: 40 }).unwrap();
        let snap = eng.snapshot();
        let bytes = snap.to_bytes();
        let decoded = CompiledSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snap, "byte round-trip is identity");

        // A restore from the decoded snapshot resumes identically in
        // every lane.
        let mut twin = CompiledEngine::new(netlist).unwrap();
        twin.restore(&decoded).unwrap();
        for _ in 0..15 {
            let ra = rng.in_range(0, 3);
            let wa = rng.in_range(0, 3);
            let wd = rng.in_range(-32, 31);
            for e in [&mut eng, &mut twin] {
                Engine::set_input(e, "raddr", ra).unwrap();
                Engine::set_input(e, "waddr", wa).unwrap();
                Engine::set_input(e, "wdata", wd).unwrap();
                Engine::set_input(e, "wen", -1).unwrap();
                e.try_tick().unwrap();
            }
            assert_eq!(eng.peek_lanes("rdata").unwrap(), twin.peek_lanes("rdata").unwrap());
        }

        // Truncation anywhere is a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    CompiledSnapshot::from_bytes(&bytes[..cut]),
                    Err(Error::SnapshotDecode { .. })
                ),
                "truncation at {cut} must be rejected"
            );
        }
        let mut long = bytes.clone();
        long.push(9);
        assert!(matches!(CompiledSnapshot::from_bytes(&long), Err(Error::SnapshotDecode { .. })));
        // An event-driven tag must not decode as a compiled snapshot.
        let mut wrong = bytes;
        wrong[0] = b'E';
        assert!(matches!(CompiledSnapshot::from_bytes(&wrong), Err(Error::SnapshotDecode { .. })));
    }

    #[test]
    fn lanes_are_independent() {
        let netlist = mixed_netlist();
        let mut packed = CompiledEngine::new(netlist.clone()).unwrap();
        let mut rng = Lcg(29);
        // 64 independent (x, y) streams, 40 ticks deep.
        let stream: Vec<Vec<(i64, i64)>> = (0..LANES)
            .map(|_| (0..40).map(|_| (rng.in_range(-128, 127), rng.in_range(-128, 127))).collect())
            .collect();
        let mut packed_out: Vec<Vec<i64>> = vec![Vec::new(); LANES];
        for t in 0..40 {
            let xs: Vec<i64> = stream.iter().map(|s| s[t].0).collect();
            let ys: Vec<i64> = stream.iter().map(|s| s[t].1).collect();
            packed.set_input_lanes("x", &xs).unwrap();
            packed.set_input_lanes("y", &ys).unwrap();
            packed.try_tick().unwrap();
            for (l, out) in packed_out.iter_mut().enumerate() {
                out.push(packed.peek_lane("s", l).unwrap());
            }
        }
        // Each lane must equal its own broadcast single-lane run.
        for (l, lane_stream) in stream.iter().enumerate() {
            let mut single = CompiledEngine::new(netlist.clone()).unwrap();
            for (t, &(x, y)) in lane_stream.iter().enumerate() {
                Engine::set_input(&mut single, "x", x).unwrap();
                Engine::set_input(&mut single, "y", y).unwrap();
                single.try_tick().unwrap();
                assert_eq!(
                    Engine::peek(&single, "s").unwrap(),
                    packed_out[l][t],
                    "lane {l} diverged from its scalar run at tick {t}"
                );
            }
        }
    }

    #[test]
    fn caps_and_program_shape() {
        let eng = CompiledEngine::new(mixed_netlist()).unwrap();
        let caps = Engine::caps(&eng);
        assert_eq!(caps.backend, "compiled");
        assert_eq!(caps.lanes, LANES);
        assert!(!caps.activity_stats && !caps.glitch_model && !caps.divergence_detection);
        let p = eng.program();
        assert!(p.op_count() > 0);
        assert!(p.levels() >= 2, "mux/parity logic is at least two levels deep");
        assert!(p.word_count() > eng.netlist.net_count());

        let sim_caps = Engine::caps(&Simulator::new(mixed_netlist()).unwrap());
        assert_eq!(sim_caps.lanes, 1);
        assert!(sim_caps.activity_stats && sim_caps.glitch_model && sim_caps.divergence_detection);
    }

    #[test]
    fn settle_applies_inputs_without_ticking() {
        let netlist = mixed_netlist();
        let mut sim = Simulator::new(netlist.clone()).unwrap();
        let mut eng = CompiledEngine::new(netlist).unwrap();
        sim.set_input("x", 3).unwrap();
        sim.set_input("y", 5).unwrap();
        Engine::set_input(&mut eng, "x", 3).unwrap();
        Engine::set_input(&mut eng, "y", 5).unwrap();
        sim.try_settle().unwrap();
        eng.try_settle().unwrap();
        assert_eq!(Engine::cycle(&eng), 0);
        // Registers have not clocked, so outputs reflect reset state,
        // but both backends agree on every port.
        for port in ["s", "p"] {
            assert_eq!(sim.peek(port).unwrap(), Engine::peek(&eng, port).unwrap());
        }
    }

    #[test]
    fn back_translation_simulates_identically() {
        // The netlist rebuilt from the compiled program must be a valid
        // graph that simulates bit-exactly against the source, RAM
        // included — this is the substrate the formal checker rests on.
        for (netlist, inputs, outputs) in [
            (mixed_netlist(), vec![("x", -128i64, 127i64), ("y", -128, 127)], vec!["s", "p"]),
            (
                ram_netlist(),
                vec![("raddr", -4, 3), ("waddr", -4, 3), ("wdata", -32, 31), ("wen", -1, 0)],
                vec!["rdata"],
            ),
        ] {
            let program = Program::compile(&netlist).unwrap();
            let back = program.to_netlist(&netlist).expect("back-translation validates");
            let mut src = Simulator::new(netlist).unwrap();
            let mut bt = Simulator::new(back).unwrap();
            let mut rng = Lcg(41);
            for t in 0..100 {
                for &(name, lo, hi) in &inputs {
                    let v = rng.in_range(lo, hi);
                    src.set_input(name, v).unwrap();
                    bt.set_input(name, v).unwrap();
                }
                src.try_tick().unwrap();
                bt.try_tick().unwrap();
                for &out in &outputs {
                    assert_eq!(
                        src.peek(out).unwrap(),
                        bt.peek(out).unwrap(),
                        "back-translated netlist diverged on {out} at tick {t}"
                    );
                }
            }
        }
        // A program refuses to back-translate against a foreign netlist.
        let program = Program::compile(&mixed_netlist()).unwrap();
        assert!(matches!(program.to_netlist(&ram_netlist()), Err(Error::SnapshotMismatch { .. })));
    }

    #[test]
    fn staged_lane_writes_touch_exactly_their_lanes() {
        let width = 5;
        let bus = Bus::new((0..width as u32).map(NetId).collect()).unwrap();
        for (blocks, first, n) in [
            (1, 0, 64),
            (1, 3, 10),
            (1, 63, 1),
            (4, 0, 256),
            (4, 60, 9),
            (4, 130, 126),
            (4, 255, 1),
        ] {
            let values: Vec<i64> = (0..n as i64).map(|k| (k * 7) % 32 - 16).collect();
            let mut staged = Vec::new();
            stage_lanes(&mut staged, &bus, blocks, first, &values);
            let before = 0x5555_aaaa_0f0f_f0f0_u64;
            let mut words = vec![before; width * blocks];
            for s in &staged {
                let w = &mut words[s.idx as usize];
                *w = (*w & !s.mask) | s.bits;
            }
            for lane in 0..blocks * 64 {
                let raw = (0..width).fold(0u64, |v, i| {
                    v | ((words[i * blocks + lane / 64] >> (lane % 64)) & 1) << i
                });
                let expect = if (first..first + n).contains(&lane) {
                    values[lane - first]
                } else {
                    sign_extend(
                        (0..width).fold(0, |v, i| v | ((before >> (lane % 64)) & 1) << i),
                        width,
                    )
                };
                assert_eq!(
                    sign_extend(raw, width),
                    expect,
                    "blocks {blocks} first {first} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn lane_bounds_are_checked() {
        let mut eng = CompiledEngine::new(mixed_netlist()).unwrap();
        assert!(eng.set_input_lane("x", LANES, 0).is_err());
        assert!(eng.peek_lane("s", LANES).is_err());
        assert!(eng.set_input_lanes("x", &[]).is_err());
        assert!(eng.set_input_lanes("x", &vec![0; LANES + 1]).is_err());
        assert!(Engine::set_input(&mut eng, "nope", 0).is_err());
        assert!(Engine::set_input(&mut eng, "s", 0).is_err(), "outputs are not drivable");
        assert!(Engine::set_input(&mut eng, "x", 1 << 20).is_err(), "range checked");
    }
}
