//! Levelized, bit-sliced compiled simulation backend.
//!
//! [`Program::compile`] lowers a validated [`Netlist`] into a
//! straight-line sequence of word operations over a flat register file
//! of `u64` words, one word (slot) per single-bit net, ordered by the
//! netlist's combinational topological order (its *levelization*). One
//! pass over the program recomputes every combinational net from the
//! current register/input values — no event queue, no per-event
//! dispatch. Slots are numbered stage-major (see [`Program`]), so the
//! register commit is a handful of block moves.
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
//! [`CompiledEngine`] is the [`Sliced`] machine (state, clock edge,
//! faults, lane I/O, snapshots) running its passes through the
//! [`Interpreter`]. At every cycle boundary its lane-0 values are
//! bit-exact with the event-driven simulator's settled values; the
//! deliberate differences are documented on [`Sliced`].

use std::collections::VecDeque;

use crate::cell::{tables, Cell, CellKind};
use crate::net::{signed_to_bits, Bus, NetId};
use crate::netlist::{CellId, Netlist};
use crate::sliced::{CommitPlan, Kernel, Sliced, ALL};
use crate::{Error, Result};

/// Independent sample streams packed into each machine word.
pub const LANES: usize = 64;

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

/// Register slots: where D is read from and where Q lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RegSlots {
    pub(crate) cell: CellId,
    pub(crate) d: Vec<u32>,
    pub(crate) q: Vec<u32>,
}

/// RAM port slots and geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RamSlots {
    pub(crate) cell: CellId,
    /// Index of this RAM's first bit plane in the flat RAM buffer.
    pub(crate) base: usize,
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
/// The schedule is computed once per design; every tick of a
/// [`Sliced`] engine replays it in order. Slots `0..nets` hold the
/// netlist's nets, numbered stage-major rather than by net id; higher
/// slots hold the two constant words and ripple-carry temporaries.
///
/// A register bit's *depth* is the number of register hops from a D
/// that no register drives: 0 for a register fed by logic, an input
/// or a constant, `k + 1` for one fed straight from a depth-`k` Q.
/// The slots start with the D nets of the depth-0 bits, then the Q
/// nets of every depth in turn, then the Qs of bits that a register
/// ring feeds, then every other net in id order. Within a depth, the
/// bits that read a slot's first copy come first, in the order of the
/// slots they read, then those reading a second copy, and so on; so
/// the commit moves each depth onto the next as one block per copy
/// (and the logic-fed Ds onto depth 0 likewise), plus a block where a
/// run of fan-out breaks.
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
    /// Total RAM bit planes (`words * width` summed over the RAMs).
    pub(crate) ram_planes: usize,
    /// `net_slot[n]`: the slot of net `n`.
    net_slot: Box<[u32]>,
    /// `slot_net[s]`: the net in slot `s`, for every `s` below `zero`.
    slot_net: Box<[u32]>,
    /// The register commit over this layout.
    pub(crate) commit: CommitPlan,
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
        let (net_slot, commit) = layout(netlist);
        let slot = |n: NetId| net_slot[n.index()];
        let bus_slots = |bus: &Bus| bus.bits().iter().map(|&n| slot(n)).collect::<Vec<u32>>();
        let mut ops = Vec::new();
        let mut next_slot = nets as u32;
        let mut alloc = || {
            let s = next_slot;
            next_slot += 1;
            s
        };
        let zero = alloc();
        let one = alloc();

        // Level of each net's combinational driver (0 where a register
        // or an input drives it), for the depth report.
        let mut net_level = vec![0u32; nets];
        let mut levels = 0u32;
        let mut record_level = |outs: &[NetId], ins: &[&[NetId]]| {
            let lvl = ins.iter().flat_map(|b| b.iter()).map(|n| net_level[n.index()]).max();
            let lvl = lvl.unwrap_or(0) + 1;
            outs.iter().for_each(|n| net_level[n.index()] = lvl);
            levels = levels.max(lvl);
        };

        for &id in netlist.topo_order() {
            match &netlist.cell(id).kind {
                CellKind::Constant { value, out } => {
                    record_level(out.bits(), &[]);
                    for (i, &b) in signed_to_bits(*value, out.width()).iter().enumerate() {
                        ops.push(Op::Const { dst: slot(out.bit(i)), ones: b });
                    }
                }
                CellKind::Lut { inputs, table, output } => {
                    record_level(&[*output], &[inputs]);
                    let inputs = inputs.iter().map(|&n| slot(n)).collect();
                    ops.push(lower_lut(inputs, *table, slot(*output)));
                }
                CellKind::FullAdder { a, b, cin, sum, cout, invert_b } => {
                    record_level(&[*sum, *cout], &[&[*a, *b, *cin]]);
                    let (a, b, cin) = (slot(*a), slot(*b), slot(*cin));
                    ops.push(Op::FaSum { dst: slot(*sum), a, b, cin, invert_b: *invert_b });
                    ops.push(Op::FaCarry { dst: slot(*cout), a, b, cin, invert_b: *invert_b });
                }
                CellKind::CarryAdd { a, b, out } => {
                    record_level(out.bits(), &[a.bits(), b.bits()]);
                    let (a, b, out) = (bus_slots(a), bus_slots(b), bus_slots(out));
                    lower_ripple(&mut ops, &a, &b, &out, false, zero, &mut alloc);
                }
                CellKind::CarrySub { a, b, out } => {
                    record_level(out.bits(), &[a.bits(), b.bits()]);
                    let (a, b, out) = (bus_slots(a), bus_slots(b), bus_slots(out));
                    lower_ripple(&mut ops, &a, &b, &out, true, one, &mut alloc);
                }
                CellKind::Ram { raddr, rdata, .. } => {
                    record_level(rdata.bits(), &[raddr.bits()]);
                    // RamSlots are collected below; emit the read op at
                    // this cell's place in the schedule.
                    ops.push(Op::RamRead { port: 0 }); // port fixed up below
                }
                CellKind::Register { .. } => {}
            }
        }

        // Number RAM ports in schedule order and collect their slots.
        let mut rams = Vec::new();
        let mut ram_planes = 0usize;
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
                        base: ram_planes,
                        words: *words,
                        width: rdata.width(),
                        raddr: bus_slots(raddr),
                        rdata: bus_slots(rdata),
                        waddr: bus_slots(waddr),
                        wdata: bus_slots(wdata),
                        wen: slot(*wen),
                    });
                    ram_planes += words * rdata.width();
                }
            }
        }

        let mut regs = Vec::new();
        for &id in netlist.registers() {
            if let CellKind::Register { d, q } = &netlist.cell(id).kind {
                regs.push(RegSlots { cell: id, d: bus_slots(d), q: bus_slots(q) });
            }
        }

        let mut slot_net = vec![0u32; nets];
        for (n, &s) in net_slot.iter().enumerate() {
            slot_net[s as usize] = n as u32;
        }
        Ok(Program {
            ops,
            slots: next_slot as usize,
            zero,
            one,
            regs,
            rams,
            levels: levels as usize,
            ram_planes,
            net_slot: net_slot.into_boxed_slice(),
            slot_net: slot_net.into_boxed_slice(),
            commit,
        })
    }

    /// The slot holding net `net`.
    pub(crate) fn slot(&self, net: NetId) -> u32 {
        self.net_slot[net.index()]
    }

    /// Block moves of the register commit (see [`Program`] for the
    /// layout that keeps them few), ring rotations included.
    #[must_use]
    pub fn commit_blocks(&self) -> usize {
        self.commit.blocks.len() + self.commit.rings.len()
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
    /// Every word slot becomes a net: slots `0..nets` map back to the
    /// source netlist's net ids (so ports and register names carry over
    /// unchanged), the two constant slots become [`CellKind::Constant`]
    /// drivers, and ripple-carry temporaries become fresh single-bit
    /// nets numbered as their slots. Each op lowers to the cell
    /// computing exactly that op — generic ops become LUTs whose truth
    /// table is evaluated from the op semantics, RAM reads copy the
    /// source RAM cell verbatim.
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
        let net = |s: u32| NetId(self.slot_net.get(s as usize).copied().unwrap_or(s));
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

/// Numbers the nets of `netlist` stage-major (see [`Program`]) and
/// plans the register commit over that numbering: returns each net's
/// slot and the plan.
///
/// The depths come out of a breadth-first walk from the logic-fed Ds
/// along each net's readers, once to learn every bit's height (the
/// register hops below it to its deepest reader) and once more, from
/// the Ds in their final order, to place each depth. The commit's
/// moves run deepest depth first, so no move overwrites a Q that a
/// later one reads. Bits whose chain of register hops ends in a ring
/// of registers feeding each other have no depth; they come after,
/// readers before the Q they read, and each ring, its Qs in
/// consecutive slots, turns in one rotation.
fn layout(netlist: &Netlist) -> (Vec<u32>, CommitPlan) {
    const NONE: u32 = u32::MAX;
    let nets = netlist.net_count();
    // Every register bit as `(d, q)` nets, in register order.
    let mut bits: Vec<(u32, u32)> = Vec::new();
    for &id in netlist.registers() {
        if let CellKind::Register { d, q } = &netlist.cell(id).kind {
            bits.extend(d.bits().iter().zip(q.bits()).map(|(d, q)| (d.0, q.0)));
        }
    }
    let mut q_bit = vec![NONE; nets];
    for (j, &(_, q)) in bits.iter().enumerate() {
        q_bit[q as usize] = j as u32;
    }
    // The bits reading net `n`: `first[n]`, then each one's `sibling`,
    // in bit order. The logic-fed Ds are the `roots`; `shared` holds
    // the nets read by more than one bit.
    let (mut first, mut sibling) = (vec![NONE; nets], vec![NONE; bits.len()]);
    let (mut roots, mut shared) = (Vec::new(), Vec::new());
    for (j, &(d, _)) in bits.iter().enumerate().rev() {
        let d = d as usize;
        if first[d] == NONE {
            if q_bit[d] == NONE {
                roots.push(d as u32);
            }
        } else if sibling[first[d] as usize] == NONE {
            shared.push(d);
        }
        sibling[j] = first[d];
        first[d] = j as u32;
    }
    // Every bit with a depth, by depth, then heights from the deepest.
    let push_readers = |walk: &mut Vec<u32>, net: u32| {
        let mut j = first[net as usize];
        while j != NONE {
            walk.push(j);
            j = sibling[j as usize];
        }
    };
    let mut walk = Vec::with_capacity(bits.len());
    roots.iter().for_each(|&r| push_readers(&mut walk, r));
    let mut k = 0;
    while let Some(&j) = walk.get(k) {
        push_readers(&mut walk, bits[j as usize].1);
        k += 1;
    }
    let mut height = vec![0u32; bits.len()];
    for &j in walk.iter().rev() {
        let p = q_bit[bits[j as usize].0 as usize];
        if p != NONE {
            height[p as usize] = height[p as usize].max(height[j as usize] + 1);
        }
    }
    // The tallest reader of each shared net first: it takes the
    // net's first copy.
    for &n in &shared {
        let (mut best, mut before_best) = (first[n], NONE);
        let (mut prev, mut j) = (first[n], sibling[first[n] as usize]);
        while j != NONE {
            if height[j as usize] > height[best as usize] {
                (best, before_best) = (j, prev);
            }
            prev = j;
            j = sibling[j as usize];
        }
        if before_best != NONE {
            sibling[before_best as usize] = sibling[best as usize];
            sibling[best as usize] = first[n];
            first[n] = best;
        }
    }
    // Ds read by more bits first, so that the Ds with a `c`-th reader
    // are a prefix; then those with taller readers, so that the
    // depth-0 bits with readers of their own lead their depth.
    let mut keyed: Vec<u64> = roots
        .iter()
        .map(|&r| {
            let mut j = first[r as usize];
            let (tallest, mut count) = (height[j as usize], 0u64);
            while j != NONE {
                count += 1;
                j = sibling[j as usize];
            }
            let desc = |v: u64| u64::from(u16::MAX) - v.min(u64::from(u16::MAX));
            desc(count) << 48 | desc(u64::from(tallest)) << 32 | u64::from(r)
        })
        .collect();
    keyed.sort_unstable();

    let mut net_slot = vec![NONE; nets];
    let mut next = 0u32;
    let place = |net_slot: &mut [u32], next: &mut u32, net: u32| {
        net_slot[net as usize] = *next;
        *next += 1;
    };
    let mut sources: Vec<u32> = keyed.iter().map(|&k| k as u32).collect();
    sources.iter().for_each(|&r| place(&mut net_slot, &mut next, r));
    // Each depth: the bits reading the first copy of each slot of the
    // depth above (or of a logic-fed D), in that slot order; then
    // those reading a second copy, and so on.
    let mut depths: Vec<Vec<u32>> = Vec::new();
    let mut copies: Vec<Vec<u32>> = Vec::new();
    while !sources.is_empty() {
        let mut depth = Vec::with_capacity(sources.len());
        for &s in &sources {
            let mut j = first[s as usize];
            if j == NONE {
                continue;
            }
            depth.push(j);
            let mut c = 0;
            j = sibling[j as usize];
            while j != NONE {
                if c == copies.len() {
                    copies.push(Vec::new());
                }
                copies[c].push(j);
                c += 1;
                j = sibling[j as usize];
            }
        }
        copies.iter_mut().for_each(|c| depth.append(c));
        sources.clear();
        for &j in &depth {
            let q = bits[j as usize].1;
            place(&mut net_slot, &mut next, q);
            sources.push(q);
        }
        if !depth.is_empty() {
            depths.push(depth);
        }
    }
    // The ring-fed bits: readers first, then each ring's bits in
    // consecutive slots, bit `i + 1` holding the Q that bit `i` reads.
    let parent = |j: u32| q_bit[bits[j as usize].0 as usize];
    let mut unplaced = vec![false; bits.len()];
    let mut unread = vec![0u32; bits.len()];
    let ring_fed: Vec<u32> =
        (0..bits.len() as u32).filter(|&j| net_slot[bits[j as usize].1 as usize] == NONE).collect();
    for &j in &ring_fed {
        unplaced[j as usize] = true;
        if parent(j) != j {
            unread[parent(j) as usize] += 1;
        }
    }
    let mut ready: VecDeque<u32> =
        ring_fed.iter().copied().filter(|&j| unread[j as usize] == 0).collect();
    let mut fed = Vec::new();
    while let Some(j) = ready.pop_front() {
        place(&mut net_slot, &mut next, bits[j as usize].1);
        unplaced[j as usize] = false;
        let p = parent(j);
        if p != j {
            fed.push(j);
            unread[p as usize] -= 1;
            if unread[p as usize] == 0 {
                ready.push_back(p);
            }
        }
    }
    let mut rings = Vec::new();
    for &start in &ring_fed {
        let ring_slot = next;
        let mut j = start;
        while unplaced[j as usize] {
            unplaced[j as usize] = false;
            place(&mut net_slot, &mut next, bits[j as usize].1);
            j = parent(j);
        }
        if next > ring_slot {
            rings.push((ring_slot, next - ring_slot));
        }
    }
    for net in 0..nets as u32 {
        if net_slot[net as usize] == NONE {
            place(&mut net_slot, &mut next, net);
        }
    }
    let moves = depths.iter().rev().flatten().chain(&fed).map(|&j| {
        let (d, q) = bits[j as usize];
        (net_slot[d as usize], net_slot[q as usize])
    });
    let plan = CommitPlan::new(moves, rings);
    (net_slot, plan)
}

/// Specializes a LUT over the slots `s` to a dedicated op where the
/// table matches a common function; anything else falls back to the
/// generic minterm-sum op.
fn lower_lut(s: Vec<u32>, table: u16, dst: u32) -> Op {
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
    a: &[u32],
    b: &[u32],
    out: &[u32],
    invert_b: bool,
    cin0: u32,
    alloc: &mut impl FnMut() -> u32,
) {
    let width = out.len();
    let mut cin = cin0;
    for i in 0..width {
        let (ai, bi) = (a[i], b[i]);
        ops.push(Op::FaSum { dst: out[i], a: ai, b: bi, cin, invert_b });
        if i + 1 < width {
            let carry = alloc();
            ops.push(Op::FaCarry { dst: carry, a: ai, b: bi, cin, invert_b });
            cin = carry;
        }
    }
}

/// One instruction of the [`Interpreter`]'s tape: an [`Op`] as the
/// program holds it, or [`Inst::Fa`], an adjacent `FaSum` + `FaCarry`
/// pair over the same operands fused into one full adder.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Inst {
    /// One program op, run as is.
    Op(Op),
    /// `FaSum { dst: sum, .. }` then `FaCarry { dst: cout, .. }`: loads
    /// its inputs once and stores both outputs.
    Fa { sum: u32, cout: u32, a: u32, b: u32, cin: u32, invert_b: bool },
}

/// The op-list interpreter: each pass replays the [`Program`] in
/// schedule order over one 64-lane block per slot, from a private tape
/// lowered once at build time. The tape is the program's op list with
/// every adjacent `FaSum` + `FaCarry` pair over the same operands (a
/// structural full adder, or one bit of a ripple chain) fused into one
/// instruction.
///
/// A clamped pass stores nothing through masks: it runs the tape in
/// segments and forces each stuck slot right after the one instruction
/// that writes it, and a stuck slot that no instruction writes (a
/// register Q, an input) before the first. Clamping is the identity on
/// every other slot, so this equals clamping every store.
#[derive(Debug, Clone)]
pub struct Interpreter {
    tape: Box<[Inst]>,
    /// `writer[s]`: one past the index of the tape instruction that
    /// writes slot `s`, or 0 if none does.
    writer: Box<[u32]>,
}

/// Where a clamped pass of the [`Interpreter`] forces one stuck slot:
/// once the first `after` tape instructions have run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClampPoint {
    after: u32,
    slot: u32,
    ones: bool,
}

impl ClampPoint {
    /// Forces the point's slot to its level.
    fn force(self, words: &mut [u64]) {
        words[self.slot as usize] = if self.ones { ALL } else { 0 };
    }
}

/// The [`Interpreter`]'s form of the armed stuck-at faults: one clamp
/// point per stuck slot, in tape order.
#[derive(Debug, Clone, Default)]
pub struct ClampPoints(Vec<ClampPoint>);

/// The levelized bit-sliced interpreter backend: the [`Sliced`]
/// machine at [`LANES`] (64) lanes, running its passes through the
/// [`Interpreter`].
pub type CompiledEngine = Sliced<Interpreter>;

impl Interpreter {
    /// The interpreter for `program` running `tape`.
    fn new(program: &Program, tape: Box<[Inst]>) -> Self {
        let mut writer = vec![0u32; program.slots];
        for (i, inst) in tape.iter().enumerate() {
            let mut wrote = |s: u32| writer[s as usize] = i as u32 + 1;
            match *inst {
                Inst::Fa { sum, cout, .. } => {
                    wrote(sum);
                    wrote(cout);
                }
                Inst::Op(Op::RamRead { port }) => {
                    program.rams[port as usize].rdata.iter().for_each(|&s| wrote(s));
                }
                Inst::Op(
                    Op::Const { dst, .. }
                    | Op::Copy { dst, .. }
                    | Op::Not { dst, .. }
                    | Op::And { dst, .. }
                    | Op::Or { dst, .. }
                    | Op::Xor { dst, .. }
                    | Op::FaSum { dst, .. }
                    | Op::FaCarry { dst, .. }
                    | Op::Lut { dst, .. },
                ) => wrote(dst),
            }
        }
        Interpreter { tape, writer: writer.into_boxed_slice() }
    }

    /// Lowers `ops` to the tape. A `FaSum` fuses with the `FaCarry`
    /// after it only when both read the same operands and the sum is
    /// none of them, so loading the inputs once reads what the carry
    /// op would have read after the sum's store.
    fn lower(ops: &[Op]) -> Box<[Inst]> {
        let mut tape = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            if let (
                &Op::FaSum { dst: sum, a, b, cin, invert_b },
                Some(&Op::FaCarry { dst: cout, a: a2, b: b2, cin: cin2, invert_b: inv2 }),
            ) = (&ops[i], ops.get(i + 1))
            {
                if (a, b, cin, invert_b) == (a2, b2, cin2, inv2) && ![a, b, cin].contains(&sum) {
                    tape.push(Inst::Fa { sum, cout, a, b, cin, invert_b });
                    i += 2;
                    continue;
                }
            }
            tape.push(Inst::Op(ops[i].clone()));
            i += 1;
        }
        tape.into_boxed_slice()
    }

    /// The tape with every fused full adder split back into its
    /// `FaSum` and `FaCarry` ops: what the interpreter executes, in the
    /// program's own terms.
    fn unfused(&self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(self.tape.len());
        for inst in self.tape.iter() {
            match *inst {
                Inst::Op(ref op) => ops.push(op.clone()),
                Inst::Fa { sum, cout, a, b, cin, invert_b } => {
                    ops.push(Op::FaSum { dst: sum, a, b, cin, invert_b });
                    ops.push(Op::FaCarry { dst: cout, a, b, cin, invert_b });
                }
            }
        }
        ops
    }

    /// Runs `tape`, a stretch of the tape, storing every result as is.
    /// One out-of-line body serves a whole unclamped pass and every
    /// segment of a clamped one, so both run the same code.
    #[inline(never)]
    fn run(tape: &[Inst], program: &Program, words: &mut [u64], ram: &[u64]) {
        macro_rules! w {
            ($s:expr) => {
                words[$s as usize]
            };
        }
        macro_rules! w_inv {
            ($s:expr, $invert:expr) => {
                if $invert {
                    !w!($s)
                } else {
                    w!($s)
                }
            };
        }
        for inst in tape {
            let op = match *inst {
                Inst::Fa { sum, cout, a, b, cin, invert_b } => {
                    let (a, b, c) = (w!(a), w_inv!(b, invert_b), w!(cin));
                    w!(sum) = fa_sum(a, b, c);
                    w!(cout) = fa_carry(a, b, c);
                    continue;
                }
                Inst::Op(ref op) => op,
            };
            match *op {
                Op::Const { dst, ones } => w!(dst) = if ones { ALL } else { 0 },
                Op::Copy { dst, a } => w!(dst) = w!(a),
                Op::Not { dst, a } => w!(dst) = !w!(a),
                Op::And { dst, a, b } => w!(dst) = w!(a) & w!(b),
                Op::Or { dst, a, b } => w!(dst) = w!(a) | w!(b),
                Op::Xor { dst, a, b } => w!(dst) = w!(a) ^ w!(b),
                Op::FaSum { dst, a, b, cin, invert_b } => {
                    w!(dst) = fa_sum(w!(a), w_inv!(b, invert_b), w!(cin));
                }
                Op::FaCarry { dst, a, b, cin, invert_b } => {
                    w!(dst) = fa_carry(w!(a), w_inv!(b, invert_b), w!(cin));
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
                    w!(dst) = out;
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
                        let plane = &ram[r.base + wd * r.width..][..r.width];
                        for (j, &p) in plane.iter().enumerate() {
                            acc[j] |= dec & p;
                        }
                    }
                    for (j, &d) in r.rdata.iter().enumerate() {
                        w!(d) = acc[j];
                    }
                }
            }
        }
    }
}

impl CompiledEngine {
    /// Whether the interpreter's tape, with every fused full adder
    /// split back into its sum and carry ops, is exactly
    /// [`program`](Sliced::program)'s op list, op for op. Every proof
    /// about the program (its back-translation, `dwt-equiv`'s backend
    /// obligation) then holds for what the interpreter executes.
    #[must_use]
    pub fn tape_matches_program(&self) -> bool {
        self.kernel().unfused() == self.program().ops
    }
}

/// Full-adder sum of three words.
#[inline(always)]
fn fa_sum(a: u64, b: u64, c: u64) -> u64 {
    a ^ b ^ c
}

/// Full-adder carry (majority) of three words.
#[inline(always)]
fn fa_carry(a: u64, b: u64, c: u64) -> u64 {
    (a & b) | (c & (a ^ b))
}

impl Kernel for Interpreter {
    const BLOCKS: usize = LANES / 64;
    const BACKEND: &'static str = "compiled";
    const NATIVE: bool = false;
    type Clamps = ClampPoints;

    fn build(_netlist: &Netlist, program: &Program) -> Result<Self> {
        Ok(Interpreter::new(program, Self::lower(&program.ops)))
    }

    fn arm(&self, _: &Program, stuck: &[(u32, bool)], clamps: &mut ClampPoints) {
        clamps.0.clear();
        clamps.0.extend(stuck.iter().map(|&(slot, ones)| ClampPoint {
            after: self.writer[slot as usize],
            slot,
            ones,
        }));
        // A slot listed twice (only in a hostile snapshot) ends
        // all-ones, as the jit's OR mask wins over its AND mask.
        clamps.0.sort_unstable_by_key(|p| (p.after, p.ones));
    }

    fn eval<const CLAMPED: bool>(
        &self,
        program: &Program,
        words: &mut [u64],
        ram: &[u64],
        clamps: &ClampPoints,
    ) {
        if !CLAMPED {
            return Self::run(&self.tape, program, words, ram);
        }
        let mut done = 0;
        for &p in &clamps.0 {
            let after = p.after as usize;
            if after > done {
                Self::run(&self.tape[done..after], program, words, ram);
                done = after;
            }
            p.force(words);
        }
        Self::run(&self.tape[done..], program, words, ram);
    }

    fn ram_commit(&self, program: &Program, words: &[u64], ram: &mut [u64]) {
        for r in &program.rams {
            let wen = words[r.wen as usize];
            if wen == 0 {
                continue;
            }
            for wd in 0..r.words {
                let mut sel = wen;
                for (i, &a) in r.waddr.iter().enumerate() {
                    let v = words[a as usize];
                    sel &= if (wd >> i) & 1 == 1 { v } else { !v };
                    if sel == 0 {
                        break;
                    }
                }
                if sel == 0 {
                    continue;
                }
                let planes = &mut ram[r.base + wd * r.width..][..r.width];
                for (plane, &d) in planes.iter_mut().zip(&r.wdata) {
                    *plane = (*plane & !sel) | (words[d as usize] & sel);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::engine::Engine;
    use crate::fault::FaultSpec;
    use crate::sim::Simulator;
    use crate::sliced::tests::{lockstep, mixed_netlist, ram_netlist, Lcg};

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
        assert!(p.word_count() > eng.netlist().net_count());

        let sim_caps = Engine::caps(&Simulator::new(mixed_netlist()).unwrap());
        assert_eq!(sim_caps.lanes, 1);
        assert!(sim_caps.activity_stats && sim_caps.glitch_model && sim_caps.divergence_detection);
    }

    #[test]
    fn the_tape_fuses_full_adders_and_unfuses_to_the_program() {
        for netlist in [mixed_netlist(), ram_netlist(), adder_netlist()] {
            assert!(CompiledEngine::new(netlist).unwrap().tape_matches_program());
        }
        // Every structural full adder and every ripple bit but the top
        // one fuses: 11 structural bits plus 9 + 9 behavioral bits.
        let eng = CompiledEngine::new(mixed_netlist()).unwrap();
        let fused = eng.kernel().tape.iter().filter(|i| matches!(i, Inst::Fa { .. })).count();
        assert_eq!(fused, 29);
        assert_eq!(eng.kernel().tape.len() + fused, eng.program().op_count());
    }

    #[test]
    fn a_sum_that_feeds_its_own_adder_does_not_fuse() {
        let ops = vec![
            Op::FaSum { dst: 5, a: 1, b: 2, cin: 3, invert_b: false },
            Op::FaCarry { dst: 6, a: 1, b: 2, cin: 3, invert_b: false },
            Op::FaSum { dst: 7, a: 7, b: 2, cin: 3, invert_b: true },
            Op::FaCarry { dst: 8, a: 7, b: 2, cin: 3, invert_b: true },
            Op::FaSum { dst: 9, a: 1, b: 2, cin: 3, invert_b: false },
            Op::FaCarry { dst: 10, a: 1, b: 2, cin: 3, invert_b: true },
        ];
        let tape = Interpreter::lower(&ops);
        assert!(matches!(tape[0], Inst::Fa { sum: 5, cout: 6, .. }));
        assert_eq!(tape.len(), 5, "only the first pair fuses");
        let program = Program::compile(&mixed_netlist()).unwrap();
        assert_eq!(Interpreter::new(&program, tape).unfused(), ops);
    }

    /// Structural ripple adder and subtractor (full-adder cells whose
    /// `cout` feeds the next cell's `cin`) beside a behavioral adder,
    /// all registered.
    fn adder_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let y = b.input("y", 8).unwrap();
        let add = b.ripple_add("add", &x, &y, 9).unwrap();
        let sub = b.ripple_sub("sub", &x, &y, 9).unwrap();
        let beh = b.carry_add("beh", &add, &sub, 10).unwrap();
        let q = b.register("q", &beh).unwrap();
        b.output("q", &q).unwrap();
        b.output("add", &add).unwrap();
        b.output("sub", &sub).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn stuck_full_adder_outputs_match_event_sim() {
        // A stuck `cout` (output bit 1) corrupts the next adder's `cin`;
        // a stuck `sum` (bit 0) only its own output. Both run the fused
        // instruction's clamped stores on the bit-sliced engines.
        let inputs = [("x", -128, 127), ("y", -128, 127)];
        for (cell, bit) in [("add_fa3", 1), ("add_fa3", 0), ("sub_fa4", 1), ("sub_fa2", 0)] {
            for value in [false, true] {
                lockstep(adder_netlist(), &inputs, &["q", "add", "sub"], 40, 3, |t| {
                    if t == 5 {
                        vec![FaultSpec::StuckAt { net: cell.into(), bit, value }]
                    } else {
                        Vec::new()
                    }
                });
            }
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
}
