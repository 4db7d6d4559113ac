//! The bit-sliced machine behind the two levelized backends.
//!
//! [`Sliced`] runs a levelized op [`Program`] over bit planes. Every
//! slot of its word file is `K::BLOCKS` `u64` words: lane `l` of slot
//! `s` is bit `l % 64` of `words[s * BLOCKS + l / 64]`, so one pass
//! advances `64 * BLOCKS` independent sample streams. The machine owns
//! the architectural state (word file, RAM planes, staged inputs, armed
//! faults, cycle counter), the clock edge, fault injection, lane I/O
//! and snapshots; its netlist, program and kernel sit in one immutable
//! image behind an `Arc`, so a clone copies only that state. A
//! [`Kernel`] supplies only the passes:
//!
//! * [`compile::Interpreter`](crate::compile::Interpreter) replays the
//!   op list, one block (64 lanes) per slot:
//!   [`CompiledEngine`](crate::compile::CompiledEngine);
//! * [`jit::NativeKernel`](crate::jit::NativeKernel) calls the program
//!   compiled to native code, four blocks (256 lanes) per slot:
//!   [`JitEngine`](crate::jit::JitEngine).
//!
//! Slots are the program's stage-major numbering of the nets, not net
//! ids: every path from a net to a word (lane staging, `set_input*`,
//! `peek*`, stuck-at arming) goes through the program's map, with each
//! port's slots resolved once per image.
//!
//! One clock edge mirrors the event-driven simulator's order: due RAM
//! upsets strike storage, RAM writes commit from the settled values,
//! every register copies its settled D onto its Q in place (the
//! program's `CommitPlan`: a few block moves, in an order where no
//! block overwrites a D word that a later block still reads, run here
//! for both kernels), due bit flips strike the new Q, staged inputs
//! apply, and the combinational pass settles. While any stuck-at fault
//! is armed every settle runs its `CLAMPED` instantiation, which leaves
//! each stuck slot at its forced level; how is the kernel's choice,
//! prepared from the stuck list by [`Kernel::arm`] whenever it changes.
//! RAM planes are one flat buffer: bit `b` of word `a` of a RAM whose
//! first plane is `base` is plane `base + a * width + b`, at
//! `ram[plane * BLOCKS..][..BLOCKS]`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::bytes::{ByteReader, ByteWriter};
use crate::compile::Program;
use crate::engine::{Engine, EngineCaps, PortableSnapshot};
use crate::fault::{self, FaultSpec, ResolvedFault};
use crate::netlist::{CellId, Netlist, PortDirection};
use crate::{Error, Result};

/// All 64 lanes of one block set.
pub(crate) const ALL: u64 = !0;

/// The backend-specific passes of a [`Sliced`] machine over one
/// [`Program`], on a word file of [`BLOCKS`](Kernel::BLOCKS) words per
/// slot. A `CLAMPED` eval computes what it would if every store to a
/// stuck slot were forced to that slot's level, and leaves every stuck
/// slot at its level. The register commit is the machine's, not the
/// kernel's; it clamps nothing: a clamped eval follows it on every
/// clock edge and forces the stuck slots before anything reads them.
pub trait Kernel: Clone + fmt::Debug {
    /// `u64` blocks per slot: the machine runs `64 * BLOCKS` lanes.
    const BLOCKS: usize;
    /// Report name ([`EngineCaps::backend`]).
    const BACKEND: &'static str;
    /// The armed stuck-at faults in the form the `CLAMPED` eval reads.
    type Clamps: Clone + fmt::Debug + Default;

    /// Prepares the passes for `program`, lowered from `netlist`.
    ///
    /// # Errors
    ///
    /// Backend-specific; the native kernel reports
    /// [`Error::NativeCodegen`].
    fn build(netlist: &Netlist, program: &Program) -> Result<Self>;

    /// Rebuilds `clamps` for the stuck-at faults `stuck`, `(slot,
    /// level)` pairs with every slot a net of the program, reusing its
    /// buffers. The machine calls it when a stuck-at is armed or a
    /// snapshot restored, and runs `CLAMPED` evals only while the list
    /// is not empty, so clearing the list needs no call.
    fn arm(&self, p: &Program, stuck: &[(u32, bool)], clamps: &mut Self::Clamps);

    /// Recomputes every combinational word from registers, inputs and
    /// RAM.
    fn eval<const CLAMPED: bool>(
        &self,
        p: &Program,
        words: &mut [u64],
        ram: &[u64],
        clamps: &Self::Clamps,
    );

    /// Commits each RAM write port's enabled lanes from settled words.
    fn ram_commit(&self, p: &Program, words: &[u64], ram: &mut [u64]);
}

/// A staged input write, already scattered into one word of the word
/// file and applied at the next tick/settle as
/// `word = (word & !mask) | bits`. Staging writes words rather than
/// values, so once the staging list has reached its working size a
/// write allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StagedWord {
    /// Index into the word file.
    idx: u32,
    /// The lanes of the word this write sets.
    mask: u64,
    /// Their new bits.
    bits: u64,
}

/// The register commit of a clock edge: every register bit's D word
/// copied onto its Q word in place, with no capture buffer, as a few
/// block moves over the program's stage-major slots.
///
/// Copying a bit overwrites its Q slot, so every bit whose D slot is
/// that Q (a register fed straight from another register) must copy
/// first. The `blocks` run in order, each as one `memmove`, and no
/// block overwrites a slot that a later block reads; the `rings` of
/// registers feeding each other, which no order can serve, run after
/// as rotations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct CommitPlan {
    /// `(d, q, len)`: slots `q..q + len` take the words of
    /// `d..d + len`.
    pub(crate) blocks: Vec<(u32, u32, u32)>,
    /// `(first, len)`: a ring of `len` bits with their Qs in slots
    /// `first..first + len`, each slot taking the next one's word and
    /// the last slot the first's.
    pub(crate) rings: Vec<(u32, u32)>,
}

impl CommitPlan {
    /// The plan running the `(d, q)` slot moves `moves`, in an order
    /// where no move overwrites a slot that a later move reads, then
    /// the `rings`. Moves that continue the one before them in both
    /// slots merge into its block: no move of a block reads a slot that
    /// an earlier one writes, so moving them at once is moving them in
    /// turn.
    pub(crate) fn new(moves: impl IntoIterator<Item = (u32, u32)>, rings: Vec<(u32, u32)>) -> Self {
        let mut blocks: Vec<(u32, u32, u32)> = Vec::new();
        for (d, q) in moves {
            match blocks.last_mut() {
                Some((bd, bq, len)) if *bd + *len == d && *bq + *len == q => *len += 1,
                _ => blocks.push((d, q, 1)),
            }
        }
        CommitPlan { blocks, rings }
    }

    /// Runs the plan on a word file of `b` words per slot.
    #[inline]
    pub(crate) fn run(&self, words: &mut [u64], b: usize) {
        for &(d, q, len) in &self.blocks {
            let (d, q, len) = (d as usize * b, q as usize * b, len as usize * b);
            if len == 1 {
                words[q] = words[d];
            } else {
                words.copy_within(d..d + len, q);
            }
        }
        for &(first, len) in &self.rings {
            words[first as usize * b..(first + len) as usize * b].rotate_left(b);
        }
    }
}

/// Stages `values[k]` into lane `first + k` of the bus whose slots are
/// `bits` (LSB first), scattered bit-major: one word per (bit, 64-lane
/// block) touched, in a word file of `blocks` words per slot.
fn stage_lanes(
    staged: &mut Vec<StagedWord>,
    bits: &[u32],
    blocks: usize,
    first: usize,
    values: &[i64],
) {
    let width = bits.len();
    let end = first + values.len();
    for blk in first / 64..end.div_ceil(64) {
        let lo = (blk * 64).max(first);
        let chunk = &values[lo - first..((blk + 1) * 64).min(end) - first];
        let shift = lo % 64;
        let mask = (ALL >> (64 - chunk.len())) << shift;
        let mut planes = [0u64; 64];
        for (row, &v) in planes.iter_mut().zip(chunk) {
            *row = v as u64;
        }
        transpose_narrow(&mut planes, width, true);
        for (&slot, &plane) in bits.iter().zip(&planes) {
            let idx = (slot as usize * blocks + blk) as u32;
            staged.push(StagedWord { idx, mask, bits: plane << shift });
        }
    }
}

/// Transposes one 64-lane block between lane values and the bit planes
/// of a `width`-bit bus. With `to_planes`, row `l` holds lane `l`'s
/// value, and afterwards bit `l` of row `i < width` is its bit `i`
/// (rows at or above `width` are left unspecified); without, the
/// reverse, from planes in rows `< width` with every row above up to
/// `P` (below) a copy of the sign plane `width - 1`, so that each lane
/// comes out sign-extended.
///
/// A 64×64 bit transpose (Hacker's Delight, §7-3) is six rounds. The
/// round of span `J` swaps bit log2(J) of every bit's row index with
/// the same bit of its column index, moving each bit on its own, so the
/// rounds commute. Only the bits whose column (staging) or row
/// (readback) is below `width` matter; with `P` = `width` rounded up to
/// a power of two, their index bits from log2(P) up are zero on that
/// side. The rounds of span `P` and up only move those high index bits
/// across, so for these bits they amount to packing rows `r + P·k` into
/// the `k`-th `P`-bit field of row `r` (staging), or unpacking it
/// (readback): 64 masked shifts. The rounds of span below `P` then run
/// on rows `< P` only: log2(P) · P / 2 row pairs. Against the full
/// transpose's 192 row pairs, an 8-bit bus needs 64 shifts and 12
/// pairs. Each `P` gets its own instance, so every loop bound is a
/// constant.
fn transpose_narrow(m: &mut [u64; 64], width: usize, to_planes: bool) {
    match width.next_power_of_two() {
        1 => transpose_narrow_by::<1>(m, to_planes),
        2 => transpose_narrow_by::<2>(m, to_planes),
        4 => transpose_narrow_by::<4>(m, to_planes),
        8 => transpose_narrow_by::<8>(m, to_planes),
        16 => transpose_narrow_by::<16>(m, to_planes),
        32 => transpose_narrow_by::<32>(m, to_planes),
        _ => transpose_narrow_by::<64>(m, to_planes),
    }
}

/// [`transpose_narrow`] for a bus width that rounds up to `P`.
fn transpose_narrow_by<const P: usize>(m: &mut [u64; 64], to_planes: bool) {
    if to_planes {
        let field = u64::MAX >> (64 - P);
        for r in 0..P % 64 {
            m[r] = (0..64 / P).fold(0, |packed, k| packed | (m[r + P * k] & field) << (P * k));
        }
    }
    swap_blocks::<32, P>(m, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16, P>(m, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8, P>(m, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4, P>(m, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2, P>(m, 0x3333_3333_3333_3333);
    swap_blocks::<1, P>(m, 0x5555_5555_5555_5555);
    if !to_planes {
        // Field `k` holds a value sign-extended to `P` bits: shift its
        // top bit up to bit 63, then arithmetically back down.
        for r in 0..P % 64 {
            let packed = m[r];
            for k in 0..64 / P {
                m[r + P * k] = (((packed << (64 - P * (k + 1))) as i64) >> (64 - P)) as u64;
            }
        }
    }
}

/// The transpose round of span `J`, if `J < P`, on rows `< P`: in
/// every `2J`-row band, swaps the `J`-bit column blocks that `mask`
/// selects between row `k` and row `k + J`.
#[inline(always)]
fn swap_blocks<const J: usize, const P: usize>(m: &mut [u64; 64], mask: u64) {
    if J >= P {
        return;
    }
    for band in m[..P].chunks_exact_mut(2 * J) {
        let (lo, hi) = band.split_at_mut(J);
        for (a, b) in lo.iter_mut().zip(hi) {
            let t = ((*a >> J) ^ *b) & mask;
            *a ^= t << J;
            *b ^= t;
        }
    }
}

/// Signed values of a `width`-bit bus in the 64 lanes of one block:
/// `word(bit)` is the block's word for each bit of the bus.
fn gather_lanes(width: usize, word: impl Fn(usize) -> u64, out: &mut impl Extend<i64>) {
    let mut rows = [0u64; 64];
    for (i, row) in rows.iter_mut().take(width).enumerate() {
        *row = word(i);
    }
    let sign = rows[width - 1];
    rows[width..width.next_power_of_two()].fill(sign);
    transpose_narrow(&mut rows, width, false);
    out.extend(rows.iter().map(|&v| v as i64));
}

/// Two's-complement interpretation of the low `width` bits of `raw`.
#[inline]
fn sign_extend(raw: u64, width: usize) -> i64 {
    let pad = 64 - width as u32;
    ((raw << pad) as i64) >> pad
}

/// A levelized netlist running on bit planes through kernel `K` (see
/// the module docs for the layout and the clock edge).
///
/// Scalar [`Engine`] verbs broadcast writes to every lane and read lane
/// 0, so code written against the event-driven simulator behaves
/// identically here; [`set_input_lane`](Sliced::set_input_lane) and the
/// [`Engine`] lane verbs expose the parallelism. Injected faults apply
/// to every lane: one engine, `64 * BLOCKS` identically faulted trials.
///
/// Deliberate differences from [`sim::Simulator`](crate::sim::Simulator):
///
/// * **No glitch model / activity statistics.** Each cycle is one
///   functional pass in topological order; intermediate transitions of
///   the event model never exist, so there is nothing to count.
/// * **No divergence detection.** The passes are straight-line; they
///   cannot oscillate, so `set_event_cap` is a no-op and
///   `SimulationDiverged` is never reported.
/// * **Stuck-at decay after [`clear_faults`](Engine::clear_faults).**
///   The event-driven simulator leaves a formerly clamped net at its
///   forced level until its driver re-fires; this machine recomputes
///   every net each pass, so cleared nets heal at the next tick/settle.
#[derive(Debug, Clone)]
pub struct Sliced<K: Kernel> {
    /// What the machine runs, shared by every clone.
    image: Arc<Image<K>>,
    words: Vec<u64>,
    ram: Vec<u64>,
    staged: Vec<StagedWord>,
    /// Armed stuck-ats: `(slot, level)`, every slot a net's.
    stuck: Vec<(u32, bool)>,
    /// The kernel's form of `stuck`.
    clamps: K::Clamps,
    flips: Vec<(CellId, usize, u64)>,
    ram_upsets: Vec<(CellId, usize, usize, u64)>,
    cycle: u64,
}

/// The immutable part of a [`Sliced`] machine: the netlist, the
/// program lowered from it, the kernel prepared for that program and
/// every port's slots. Built once per engine construction and shared
/// by every clone, so a clone copies only the architectural state.
#[derive(Debug)]
struct Image<K> {
    netlist: Arc<Netlist>,
    program: Program,
    kernel: K,
    ports: BTreeMap<String, PortSlots>,
}

/// A port's slots, LSB first.
#[derive(Debug)]
struct PortSlots {
    input: bool,
    slots: Box<[u32]>,
}

impl<K> Image<K> {
    /// The slots of port `name`.
    fn port(&self, name: &str) -> Result<&[u32]> {
        match self.ports.get(name) {
            Some(p) => Ok(&p.slots),
            None => Err(Error::UnknownPort { name: name.to_owned() }),
        }
    }

    /// Validates a write of `values` to the input port `name` and
    /// returns the port's slots.
    fn input(&self, name: &str, values: &[i64]) -> Result<&[u32]> {
        let port = match self.ports.get(name) {
            Some(p) if p.input => p,
            _ => return Err(Error::UnknownPort { name: name.to_owned() }),
        };
        // A value fits a `w`-bit bus iff its bits from `w - 1` up all
        // equal its sign bit, i.e. `v ^ (v >> 63)` is below `2^(w-1)`:
        // one branch-free pass over the write, then a per-value search
        // for the one to report only when some value does not fit.
        let spread = values.iter().fold(0u64, |acc, &v| acc | (v ^ (v >> 63)) as u64);
        if spread >> (port.slots.len() - 1) != 0 {
            let bus = &self.netlist.port(name)?.bus;
            for &v in values {
                bus.check_value(v)?;
            }
        }
        Ok(&port.slots)
    }
}

impl<K: Kernel> Sliced<K> {
    const LANES: usize = 64 * K::BLOCKS;

    /// Lowers and power-cycles an engine for a validated netlist:
    /// registers and RAM zeroed in every lane, combinational logic
    /// settled. An `Arc<Netlist>` is shared, not copied.
    ///
    /// # Errors
    ///
    /// [`Error::MalformedProgram`] from lowering (unreachable for
    /// netlists that passed validation), or the kernel's build error.
    pub fn new(netlist: impl Into<Arc<Netlist>>) -> Result<Self> {
        let netlist: Arc<Netlist> = netlist.into();
        let program = Program::compile(&netlist)?;
        let kernel = K::build(&netlist, &program)?;
        let (b, words) = (K::BLOCKS, program.slots * K::BLOCKS);
        let one = program.one as usize * b;
        let ports = netlist
            .ports()
            .iter()
            .map(|(name, port)| {
                let slots = port.bus.bits().iter().map(|&n| program.slot(n)).collect();
                (name.clone(), PortSlots { input: port.direction == PortDirection::Input, slots })
            })
            .collect();
        let mut engine = Sliced {
            words: vec![0; words],
            ram: vec![0; program.ram_planes * b],
            staged: Vec::new(),
            stuck: Vec::new(),
            clamps: K::Clamps::default(),
            flips: Vec::new(),
            ram_upsets: Vec::new(),
            cycle: 0,
            image: Arc::new(Image { netlist, program, kernel, ports }),
        };
        engine.words[one..one + b].fill(ALL);
        engine.settle::<false>();
        Ok(engine)
    }

    /// The levelized schedule the kernel runs.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.image.program
    }

    pub(crate) fn kernel(&self) -> &K {
        &self.image.kernel
    }

    /// Stages a value on an input port for one lane only; other lanes
    /// keep their current bits.
    ///
    /// # Errors
    ///
    /// Same port/range validation as [`Engine::set_input`]; rejects
    /// lanes beyond the engine's lane count.
    pub fn set_input_lane(&mut self, name: &str, lane: usize, value: i64) -> Result<()> {
        let slots = self.image.input(name, &[value])?;
        Self::check_lane(lane)?;
        stage_lanes(&mut self.staged, slots, K::BLOCKS, lane, &[value]);
        Ok(())
    }

    /// Whether the register commit, run on a word file of
    /// pseudo-random words, leaves every register bit's Q word holding
    /// what its D word held before and every other word as it was: the
    /// simultaneous capture of every register, checked against the
    /// block moves and rotations that the program's commit plan runs
    /// in place.
    #[must_use]
    pub fn commit_captures_every_register(&self, seed: u64) -> bool {
        let (p, b) = (&self.image.program, K::BLOCKS);
        let mut state = seed;
        let mut words: Vec<u64> = (0..self.words.len())
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                state ^ (state >> 29)
            })
            .collect();
        let mut want = words.clone();
        for r in &p.regs {
            for (&d, &q) in r.d.iter().zip(&r.q) {
                let (d, q) = (d as usize * b, q as usize * b);
                want[q..q + b].copy_from_slice(&words[d..d + b]);
            }
        }
        p.commit.run(&mut words, b);
        words == want
    }

    fn check_lane(lane: usize) -> Result<()> {
        if lane >= Self::LANES {
            return Err(Error::FaultTarget {
                target: format!("lane {lane}"),
                detail: format!("engine has {} lanes", Self::LANES),
            });
        }
        Ok(())
    }

    /// Applies the staged input writes (keeping the list's capacity),
    /// then settles the combinational pass, which forces every stuck
    /// slot when `CLAMPED`.
    fn settle<const CLAMPED: bool>(&mut self) {
        for StagedWord { idx, mask, bits } in self.staged.drain(..) {
            let w = &mut self.words[idx as usize];
            *w = (*w & !mask) | bits;
        }
        let Sliced { image, words, ram, clamps, .. } = self;
        image.kernel.eval::<CLAMPED>(&image.program, words, ram, clamps);
    }

    /// One clock edge, in the order the module docs give.
    fn step<const CLAMPED: bool>(&mut self) {
        let (b, now) = (K::BLOCKS, self.cycle);
        let Sliced { image, words, ram, .. } = self;
        let (p, kernel) = (&image.program, &image.kernel);
        self.ram_upsets.retain(|&(cell, addr, bit, due)| {
            if due == now {
                if let Some(r) = p.rams.iter().find(|r| r.cell == cell) {
                    let o = (r.base + addr * r.width + bit) * b;
                    ram[o..o + b].iter_mut().for_each(|w| *w ^= ALL);
                }
            }
            due != now
        });
        kernel.ram_commit(p, words, ram);
        p.commit.run(words, b);
        // A flip inverts the bit the register captured, so it strikes
        // the new Q; on a stuck Q the settle below forces it back.
        self.flips.retain(|&(cell, bit, due)| {
            if due == now {
                if let Some(r) = p.regs.iter().find(|r| r.cell == cell) {
                    let o = r.q[bit] as usize * b;
                    words[o..o + b].iter_mut().for_each(|w| *w ^= ALL);
                }
            }
            due != now
        });
        self.settle::<CLAMPED>();
        self.cycle = self.cycle.wrapping_add(1);
    }

    /// Hands the stuck list to the kernel.
    fn arm(&mut self) {
        self.image.kernel.arm(&self.image.program, &self.stuck, &mut self.clamps);
    }

    /// Checks that `s` is a state of this engine's netlist and lane
    /// width, and that every index it holds is in range, so `restore`
    /// can refuse it before overwriting anything.
    fn check(&self, s: &SlicedSnapshot) -> Result<()> {
        let (nets, cells) = (self.image.netlist.net_count(), self.image.netlist.cell_count());
        if s.lanes != Self::LANES
            || (s.nets, s.cells) != (nets, cells)
            || s.words.len() != self.words.len()
            || s.ram.len() != self.ram.len()
        {
            return Err(Error::SnapshotMismatch {
                snapshot_nets: s.nets,
                simulator_nets: nets,
                snapshot_cells: s.cells,
                simulator_cells: cells,
            });
        }
        let p = &self.image.program;
        let detail = if let Some(w) = s.staged.iter().find(|w| w.idx as usize >= s.words.len()) {
            format!("staged word {} outside the {}-word file", w.idx, s.words.len())
        } else if let Some((slot, _)) = s.stuck.iter().find(|&&(n, _)| n as usize >= nets) {
            // Slots below `nets` are the nets; the rest, constants and
            // temporaries, are no fault sites.
            format!("stuck-at on slot {slot}, but the netlist has {nets} nets")
        } else if let Some((cell, bit, _)) = s
            .flips
            .iter()
            .find(|&&(c, bit, _)| !p.regs.iter().any(|r| r.cell == c && bit < r.d.len()))
        {
            format!("bit flip on cell {} bit {bit}, which is no register bit", cell.index())
        } else if let Some((cell, addr, bit, _)) = s.ram_upsets.iter().find(|&&(c, a, bit, _)| {
            !p.rams.iter().any(|r| r.cell == c && a < r.words && bit < r.width)
        }) {
            format!("RAM upset on cell {} word {addr} bit {bit}, which is no RAM bit", cell.index())
        } else {
            return Ok(());
        };
        Err(Error::SnapshotDecode { detail })
    }
}

impl<K: Kernel> Engine for Sliced<K> {
    type Snapshot = SlicedSnapshot;

    fn from_netlist(netlist: impl Into<Arc<Netlist>>) -> Result<Self> {
        Self::new(netlist)
    }

    fn netlist(&self) -> &Arc<Netlist> {
        &self.image.netlist
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps { backend: K::BACKEND, lanes: Self::LANES }
    }

    fn set_input(&mut self, name: &str, value: i64) -> Result<()> {
        let slots = self.image.input(name, &[value])?;
        for (i, &slot) in slots.iter().enumerate() {
            let bits = if (value >> i) & 1 == 1 { ALL } else { 0 };
            let base = slot as usize * K::BLOCKS;
            for idx in base..base + K::BLOCKS {
                self.staged.push(StagedWord { idx: idx as u32, mask: ALL, bits });
            }
        }
        Ok(())
    }

    fn try_tick(&mut self) -> Result<()> {
        if self.stuck.is_empty() {
            self.step::<false>();
        } else {
            self.step::<true>();
        }
        Ok(())
    }

    fn try_settle(&mut self) -> Result<()> {
        if self.stuck.is_empty() {
            self.settle::<false>();
        } else {
            self.settle::<true>();
        }
        Ok(())
    }

    fn peek(&self, name: &str) -> Result<i64> {
        self.peek_lane(name, 0)
    }

    fn set_input_lanes(&mut self, name: &str, values: &[i64]) -> Result<()> {
        if values.is_empty() || values.len() > Self::LANES {
            return Err(Error::FaultTarget {
                target: name.to_owned(),
                detail: format!("expected 1..={} lane values, got {}", Self::LANES, values.len()),
            });
        }
        let slots = self.image.input(name, values)?;
        stage_lanes(&mut self.staged, slots, K::BLOCKS, 0, values);
        Ok(())
    }

    fn peek_lane(&self, name: &str, lane: usize) -> Result<i64> {
        Self::check_lane(lane)?;
        let slots = self.image.port(name)?;
        let (blk, bit) = (lane / 64, lane % 64);
        let raw = slots.iter().enumerate().fold(0u64, |v, (i, &s)| {
            v | ((self.words[s as usize * K::BLOCKS + blk] >> bit) & 1) << i
        });
        Ok(sign_extend(raw, slots.len()))
    }

    fn peek_lanes(&self, name: &str) -> Result<Vec<i64>> {
        let slots = self.image.port(name)?;
        let mut out = Vec::with_capacity(Self::LANES);
        for blk in 0..K::BLOCKS {
            let word = |i: usize| self.words[slots[i] as usize * K::BLOCKS + blk];
            gather_lanes(slots.len(), word, &mut out);
        }
        Ok(out)
    }

    fn snapshot(&self) -> SlicedSnapshot {
        SlicedSnapshot {
            lanes: Self::LANES,
            nets: self.image.netlist.net_count(),
            cells: self.image.netlist.cell_count(),
            words: self.words.clone(),
            ram: self.ram.clone(),
            staged: self.staged.clone(),
            stuck: self.stuck.clone(),
            flips: self.flips.clone(),
            ram_upsets: self.ram_upsets.clone(),
            cycle: self.cycle,
        }
    }

    /// Restores a snapshot of this netlist at this lane width. Nothing
    /// is overwritten unless every field is in range.
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotMismatch`] for another netlist, lane width or
    /// buffer shape; [`Error::SnapshotDecode`] for a staged word, stuck
    /// net, flip or RAM upset that names no slot, register bit or RAM
    /// bit of this netlist.
    fn restore(&mut self, s: &SlicedSnapshot) -> Result<()> {
        self.check(s)?;
        self.words.clone_from(&s.words);
        self.ram.clone_from(&s.ram);
        self.staged.clone_from(&s.staged);
        self.stuck.clone_from(&s.stuck);
        self.flips.clone_from(&s.flips);
        self.ram_upsets.clone_from(&s.ram_upsets);
        self.cycle = s.cycle;
        self.arm();
        Ok(())
    }

    fn inject(&mut self, spec: &FaultSpec) -> Result<()> {
        match fault::resolve(&self.image.netlist, spec)? {
            ResolvedFault::Stuck { net, value } => {
                let s = self.image.program.slot(net);
                match self.stuck.iter_mut().find(|(n, _)| *n == s) {
                    Some(entry) => entry.1 = value,
                    None => self.stuck.push((s, value)),
                }
                self.arm();
                // Force the net now and re-settle downstream logic.
                self.settle::<true>();
            }
            ResolvedFault::Flip { register, bit, cycle } => self.flips.push((register, bit, cycle)),
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
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn set_event_cap(&mut self, _cap: u64) {
        // Straight-line passes cannot diverge; nothing to bound.
    }
}

/// Complete architectural state of a [`Sliced`] engine: lane width,
/// word file, RAM planes, staged inputs, armed faults and the cycle
/// counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicedSnapshot {
    lanes: usize,
    nets: usize,
    cells: usize,
    words: Vec<u64>,
    ram: Vec<u64>,
    staged: Vec<StagedWord>,
    stuck: Vec<(u32, bool)>,
    flips: Vec<(CellId, usize, u64)>,
    ram_upsets: Vec<(CellId, usize, usize, u64)>,
    cycle: u64,
}

impl SlicedSnapshot {
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

/// Leading tag byte of a serialized bit-sliced snapshot (`'S'`).
const SNAPSHOT_TAG: u8 = b'S';
/// Encoding version; bump on any field/layout change. Version 3 is the
/// first with one encoding for both lane widths; version 4 the first
/// whose word file and stuck list are in the stage-major slot layout,
/// so a version-3 word file, numbered by net id, is refused rather than
/// misread.
const SNAPSHOT_VERSION: u8 = 4;

impl PortableSnapshot for SlicedSnapshot {
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(SNAPSHOT_TAG);
        w.u8(SNAPSHOT_VERSION);
        w.usize(self.lanes);
        w.usize(self.nets);
        w.usize(self.cells);
        w.seq(&self.words, |w, &word| w.u64(word));
        w.seq(&self.ram, |w, &word| w.u64(word));
        w.seq(&self.staged, |w, s| {
            w.u32(s.idx);
            w.u64(s.mask);
            w.u64(s.bits);
        });
        w.seq(&self.stuck, |w, &(net, value)| {
            w.u32(net);
            w.bool(value);
        });
        w.seq(&self.flips, |w, &(cell, bit, cycle)| {
            w.u32(cell.index() as u32);
            w.usize(bit);
            w.u64(cycle);
        });
        w.seq(&self.ram_upsets, |w, &(cell, addr, bit, cycle)| {
            w.u32(cell.index() as u32);
            w.usize(addr);
            w.usize(bit);
            w.u64(cycle);
        });
        w.u64(self.cycle);
        w.finish()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let (tag, version) = (r.u8()?, r.u8()?);
        if (tag, version) != (SNAPSHOT_TAG, SNAPSHOT_VERSION) {
            return Err(Error::SnapshotDecode {
                detail: format!(
                    "tag {tag:#04x} version {version} is not a bit-sliced v{SNAPSHOT_VERSION} snapshot"
                ),
            });
        }
        let (lanes, nets, cells) = (r.usize()?, r.usize()?, r.usize()?);
        let words = r.seq(8, ByteReader::u64)?;
        let ram = r.seq(8, ByteReader::u64)?;
        let staged =
            r.seq(20, |r| Ok(StagedWord { idx: r.u32()?, mask: r.u64()?, bits: r.u64()? }))?;
        let stuck = r.seq(5, |r| Ok((r.u32()?, r.bool()?)))?;
        let flips = r.seq(20, |r| Ok((CellId(r.u32()?), r.usize()?, r.u64()?)))?;
        let ram_upsets = r.seq(28, |r| Ok((CellId(r.u32()?), r.usize()?, r.usize()?, r.u64()?)))?;
        let cycle = r.u64()?;
        r.finish()?;
        Ok(SlicedSnapshot {
            lanes,
            nets,
            cells,
            words,
            ram,
            staged,
            stuck,
            flips,
            ram_upsets,
            cycle,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::compile::{CompiledEngine, Interpreter};
    use crate::jit::{JitEngine, NativeKernel};
    use crate::net::Bus;
    use crate::sim::Simulator;

    /// A netlist exercising every lowered cell class: behavioral
    /// word add/sub, structural ripple logic, specialized and generic
    /// LUTs (mux, eq, parity tree), registers and constants.
    pub(crate) fn mixed_netlist() -> Netlist {
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
    pub(crate) fn ram_netlist() -> Netlist {
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
    pub(crate) struct Lcg(pub(crate) u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        pub(crate) fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }
    }

    /// Drives the event-driven simulator and both bit-sliced engines in
    /// lockstep and compares the named output ports every cycle.
    pub(crate) fn lockstep(
        netlist: Netlist,
        inputs: &[(&str, i64, i64)],
        outputs: &[&str],
        ticks: usize,
        seed: u64,
        mut faults: impl FnMut(usize) -> Vec<FaultSpec>,
    ) {
        let mut sim = Simulator::new(netlist.clone()).unwrap();
        let mut compiled = CompiledEngine::new(netlist.clone()).unwrap();
        let mut jit = JitEngine::new(netlist).unwrap();
        let mut rng = Lcg(seed);
        for t in 0..ticks {
            for spec in faults(t) {
                sim.inject(&spec).unwrap();
                compiled.inject(&spec).unwrap();
                jit.inject(&spec).unwrap();
            }
            for &(name, lo, hi) in inputs {
                let v = rng.in_range(lo, hi);
                sim.set_input(name, v).unwrap();
                compiled.set_input(name, v).unwrap();
                jit.set_input(name, v).unwrap();
            }
            sim.try_tick().unwrap();
            compiled.try_tick().unwrap();
            jit.try_tick().unwrap();
            for &out in outputs {
                let want = sim.peek(out).unwrap();
                assert_eq!(
                    want,
                    compiled.peek(out).unwrap(),
                    "compiled {out} diverged at tick {t}"
                );
                assert_eq!(want, jit.peek(out).unwrap(), "jit {out} diverged at tick {t}");
            }
        }
    }

    const MIXED_IN: &[(&str, i64, i64)] = &[("x", -128, 127), ("y", -128, 127)];
    const RAM_IN: &[(&str, i64, i64)] =
        &[("raddr", -4, 3), ("waddr", -4, 3), ("wdata", -32, 31), ("wen", -1, 0)];

    #[test]
    fn mixed_logic_matches_event_sim() {
        lockstep(mixed_netlist(), MIXED_IN, &["s", "p"], 200, 7, |_| Vec::new());
    }

    #[test]
    fn ram_matches_event_sim() {
        lockstep(ram_netlist(), RAM_IN, &["rdata"], 300, 11, |_| Vec::new());
    }

    #[test]
    fn faults_match_event_sim() {
        // A stuck output bit, a register flip mid-stream, and (on the
        // RAM netlist) an array upset all land identically.
        lockstep(mixed_netlist(), MIXED_IN, &["s", "p"], 120, 13, |t| match t {
            10 => vec![FaultSpec::StuckAt { net: "s".into(), bit: 2, value: true }],
            40 => vec![FaultSpec::BitFlip { register: "rs".into(), bit: 1, cycle: 45 }],
            _ => Vec::new(),
        });
        lockstep(ram_netlist(), RAM_IN, &["rdata"], 120, 17, |t| match t {
            5 => vec![FaultSpec::RamUpset { ram: "m".into(), addr: 2, bit: 3, cycle: 20 }],
            _ => Vec::new(),
        });
    }

    /// A shift chain `a -> b -> c`, a ring `r1 -> r2 -> r3 -> r1` with
    /// a tap `t` on it, a register `h` holding its own Q, and a
    /// register `m` whose bits read from all of them.
    fn register_web_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 4).unwrap();
        let a = b.register("a", &x).unwrap();
        let bq = b.register("b", &a).unwrap();
        let c = b.register("c", &bq).unwrap();
        let (r1, f1) = b.register_loop("r1", 4).unwrap();
        let (r2, f2) = b.register_loop("r2", 4).unwrap();
        let (r3, f3) = b.register_loop("r3", 4).unwrap();
        f1.connect(&mut b, &r3).unwrap();
        f2.connect(&mut b, &r1).unwrap();
        f3.connect(&mut b, &r2).unwrap();
        let t = b.register("t", &r2).unwrap();
        let (h, _) = b.register_loop("h", 4).unwrap();
        let mix = Bus::new(vec![a.bit(0), c.bit(1), r1.bit(2), h.bit(3)]).unwrap();
        let m = b.register("m", &mix).unwrap();
        for (name, bus) in [("a", &a), ("b", &bq), ("c", &c), ("r1", &r1), ("r2", &r2), ("r3", &r3)]
        {
            b.output(&format!("o{name}"), bus).unwrap();
        }
        b.output("ot", &t).unwrap();
        b.output("oh", &h).unwrap();
        b.output("om", &m).unwrap();
        b.finish().unwrap()
    }

    /// Checks the properties every commit plan must have: each
    /// register bit's move comes from exactly one block or ring, no
    /// block overwrites a slot that a later block reads, and the plan
    /// captures every register at once at both block widths.
    pub(crate) fn check_commit_plan(p: &Program) {
        let plan = &p.commit;
        let mut bits: Vec<(u32, u32)> = p
            .regs
            .iter()
            .flat_map(|r| r.d.iter().copied().zip(r.q.iter().copied()))
            .filter(|&(d, q)| d != q)
            .collect();
        let block_moves = |&(d, q, len): &(u32, u32, u32)| (0..len).map(move |i| (d + i, q + i));
        let ring_moves =
            |&(first, len): &(u32, u32)| (0..len).map(move |i| (first + (i + 1) % len, first + i));
        let mut planned: Vec<(u32, u32)> = plan
            .blocks
            .iter()
            .flat_map(block_moves)
            .chain(plan.rings.iter().flat_map(ring_moves))
            .collect();
        bits.sort_unstable();
        planned.sort_unstable();
        assert_eq!(planned, bits, "every register bit that moves, exactly once");
        for (i, &(_, q, len)) in plan.blocks.iter().enumerate() {
            let later = plan.blocks[i + 1..].iter().flat_map(block_moves);
            let reads = later.chain(plan.rings.iter().flat_map(ring_moves)).map(|(d, _)| d);
            assert!(reads.into_iter().all(|d| !(q..q + len).contains(&d)), "block {i} clobbers");
        }
        for b in [1, 4] {
            let mut words: Vec<u64> = (0..p.slots * b).map(|k| k as u64 * 0x9e37 + 1).collect();
            let mut want = words.clone();
            for r in &p.regs {
                for (&d, &q) in r.d.iter().zip(&r.q) {
                    let (d, q) = (d as usize * b, q as usize * b);
                    want[q..q + b].copy_from_slice(&words[d..d + b]);
                }
            }
            plan.run(&mut words, b);
            assert_eq!(words, want, "{b} words per slot");
        }
    }

    #[test]
    fn commit_plan_moves_chains_in_blocks_and_rotates_rings() {
        let netlist = register_web_netlist();
        let p = Program::compile(&netlist).unwrap();
        check_commit_plan(&p);
        // One three-register ring per bit of r1/r2/r3, in consecutive
        // slots.
        assert_eq!(p.commit.rings.len(), 4);
        assert!(p.commit.rings.iter().all(|&(_, len)| len == 3));
        // The chain a -> b -> c shifts as one block per stage; t reads
        // one ring bit per slot, and m four different sources.
        assert!(p.commit.blocks.len() <= 3 + 4 + 4 + 1, "{:?}", p.commit.blocks);
        assert!(CompiledEngine::new(netlist.clone()).unwrap().commit_captures_every_register(7));
        assert!(JitEngine::new(netlist).unwrap().commit_captures_every_register(7));
    }

    #[test]
    fn a_chain_shifts_as_one_block_per_stage_and_fan_out_as_one_per_copy() {
        // An 8-bit input delayed three stages, with the first stage
        // also read twice more (a second and a third copy), and a
        // 4-bit tap off the second stage: 3 stage shifts, 2 + 2 copy
        // blocks, 1 block for the tap.
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let n = b.not("n", &x).unwrap();
        let s1 = b.register("s1", &n).unwrap();
        let s2 = b.register("s2", &s1).unwrap();
        let s3 = b.register("s3", &s2).unwrap();
        let c1 = b.register("c1", &s1).unwrap();
        let c2 = b.register("c2", &s1).unwrap();
        let t = b.register("t", &s2.slice(2, 6)).unwrap();
        for (name, bus) in [("s3", &s3), ("c1", &c1), ("c2", &c2), ("t", &t)] {
            b.output(&format!("o{name}"), bus).unwrap();
        }
        let netlist = b.finish().unwrap();
        let p = Program::compile(&netlist).unwrap();
        check_commit_plan(&p);
        assert!(p.commit.rings.is_empty());
        assert_eq!(p.commit_blocks(), 6, "{:?}", p.commit.blocks);
        let outputs = ["os3", "oc1", "oc2", "ot"];
        lockstep(netlist, &[("x", -128, 127)], &outputs, 20, 5, |_| Vec::new());
    }

    #[test]
    fn registers_commit_in_place_under_flips_and_stuck_bits() {
        // Flips seed the ring (it powers up at zero) and strike the
        // chain and the self-holding register; a stuck ring bit makes
        // every tick clamped, and a flip lands on it while stuck.
        let outputs = ["oa", "ob", "oc", "or1", "or2", "or3", "ot", "oh", "om"];
        let flip = |register: &str, bit, cycle| FaultSpec::BitFlip {
            register: register.into(),
            bit,
            cycle,
        };
        lockstep(register_web_netlist(), &[("x", -8, 7)], &outputs, 60, 29, |t| match t {
            1 => vec![flip("r1", 0, 3), flip("r2", 2, 4), flip("h", 1, 6), flip("b", 3, 8)],
            10 => vec![flip("r3", 1, 12), flip("m", 2, 14), flip("c", 0, 15)],
            20 => vec![FaultSpec::StuckAt { net: "r3".into(), bit: 1, value: true }],
            24 => vec![flip("r3", 1, 26), flip("r1", 3, 27)],
            _ => Vec::new(),
        });
    }

    /// A structural adder of an input and a constant, registered and
    /// summed with a RAM's read data: a stuck slot of every kind to arm.
    fn clamp_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let k = b.constant(37, 8).unwrap();
        let add = b.ripple_add("add", &x, &k, 9).unwrap();
        let r = b.register("r", &add).unwrap();
        let raddr = b.input("raddr", 2).unwrap();
        let waddr = b.input("waddr", 2).unwrap();
        let wdata = b.input("wdata", 6).unwrap();
        let wen = b.input("wen", 1).unwrap();
        let rdata = b.ram("m", 4, 6, &raddr, &waddr, &wdata, wen.bit(0)).unwrap();
        let rd = b.sign_extend(&rdata, 9).unwrap();
        let mix = b.ripple_add("mix", &r, &rd, 10).unwrap();
        let q = b.register("q", &mix).unwrap();
        for (name, bus) in [("add", &add), ("r", &r), ("rdata", &rdata), ("mix", &mix), ("q", &q)] {
            b.output(&format!("o{name}"), bus).unwrap();
        }
        b.finish().unwrap()
    }

    const CLAMP_IN: &[(&str, i64, i64)] =
        &[("x", -128, 127), ("raddr", -2, 1), ("waddr", -2, 1), ("wdata", -32, 31), ("wen", -1, 0)];

    /// Stuck-ats on one fused full adder's sum and carry (one tape
    /// instruction), a register Q that a flip also strikes, an input
    /// bit, a RAM read-data bit and a constant-driven net, all armed at
    /// once, plus a flip on a free bit of the same register.
    fn clamp_faults() -> Vec<FaultSpec> {
        let stuck = |net: &str, bit, value| FaultSpec::StuckAt { net: net.into(), bit, value };
        let flip = |bit, cycle| FaultSpec::BitFlip { register: "r".into(), bit, cycle };
        vec![
            stuck("add_fa3", 0, true),
            stuck("add_fa3", 1, false),
            stuck("r", 2, true),
            stuck("x", 1, false),
            stuck("m", 3, true),
            stuck("const_37_8", 0, false),
            flip(2, 12),
            flip(5, 14),
        ]
    }

    #[test]
    fn every_kind_of_stuck_slot_matches_event_sim() {
        let outputs = ["oadd", "or", "ordata", "omix", "oq"];
        lockstep(clamp_netlist(), CLAMP_IN, &outputs, 40, 37, |t| {
            if t == 6 {
                clamp_faults()
            } else {
                Vec::new()
            }
        });
    }

    /// Arms [`clamp_faults`] at tick 6 and clears them at tick 20 on one
    /// engine, driving a never-faulted twin with the same inputs.
    fn cleared_stuck_ats_heal_on<K: Kernel>() {
        let mut faulted = Sliced::<K>::new(clamp_netlist()).unwrap();
        let mut clean = faulted.clone();
        let mut rng = Lcg(43);
        for t in 0..30 {
            if t == 6 {
                clamp_faults().iter().for_each(|f| faulted.inject(f).unwrap());
            }
            if t == 20 {
                assert_ne!(faulted.snapshot(), clean.snapshot(), "{}: no fault landed", K::BACKEND);
                faulted.clear_faults();
            }
            for &(name, lo, hi) in CLAMP_IN {
                let v = rng.in_range(lo, hi);
                faulted.set_input(name, v).unwrap();
                clean.set_input(name, v).unwrap();
            }
            faulted.try_tick().unwrap();
            clean.try_tick().unwrap();
            // The first pass after the clear recomputes every net from
            // inputs and RAM; registers reload over the next two edges.
            if t >= 20 {
                for port in ["oadd", "ordata"] {
                    let (got, want) = (faulted.peek_lanes(port), clean.peek_lanes(port));
                    assert_eq!(got.unwrap(), want.unwrap(), "{} {port} at tick {t}", K::BACKEND);
                }
            }
            if t >= 22 {
                assert_eq!(faulted.snapshot(), clean.snapshot(), "{} at tick {t}", K::BACKEND);
            }
        }
    }

    #[test]
    fn cleared_stuck_ats_heal_on_the_next_pass() {
        cleared_stuck_ats_heal_on::<Interpreter>();
        cleared_stuck_ats_heal_on::<NativeKernel>();
    }

    fn snapshot_round_trips_and_rejects_foreign_netlists_on<K: Kernel>() {
        let mut eng = Sliced::<K>::new(mixed_netlist()).unwrap();
        let mut rng = Lcg(23);
        for _ in 0..20 {
            eng.set_input("x", rng.in_range(-128, 127)).unwrap();
            eng.set_input("y", rng.in_range(-128, 127)).unwrap();
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
            eng.set_input("x", x).unwrap();
            eng.set_input("y", y).unwrap();
            eng.try_tick().unwrap();
            trace.push((eng.peek("s").unwrap(), eng.peek_lanes("s").unwrap()));
        }
        eng.restore(&snap).unwrap();
        assert_eq!(eng.snapshot(), snap, "restore must reproduce the snapshot state");
        for (i, &(x, y)) in replay.iter().enumerate() {
            eng.set_input("x", x).unwrap();
            eng.set_input("y", y).unwrap();
            eng.try_tick().unwrap();
            assert_eq!(eng.peek("s").unwrap(), trace[i].0);
            assert_eq!(eng.peek_lanes("s").unwrap(), trace[i].1);
        }
        // A snapshot from a different netlist shape is rejected.
        let mut other = Sliced::<K>::new(ram_netlist()).unwrap();
        assert!(matches!(other.restore(&snap), Err(Error::SnapshotMismatch { .. })));
    }

    #[test]
    fn snapshot_round_trips_and_rejects_foreign_netlists() {
        snapshot_round_trips_and_rejects_foreign_netlists_on::<Interpreter>();
        snapshot_round_trips_and_rejects_foreign_netlists_on::<NativeKernel>();
    }

    fn portable_snapshot_bytes_round_trip_and_reject_corruption_on<K: Kernel>() {
        let netlist = ram_netlist();
        let mut eng = Sliced::<K>::new(netlist.clone()).unwrap();
        let mut rng = Lcg(31);
        for _ in 0..12 {
            eng.set_input("raddr", rng.in_range(0, 3)).unwrap();
            eng.set_input("waddr", rng.in_range(0, 3)).unwrap();
            eng.set_input("wdata", rng.in_range(-32, 31)).unwrap();
            eng.set_input("wen", rng.in_range(-1, 0)).unwrap();
            eng.try_tick().unwrap();
        }
        // Exercise every staging path plus armed faults.
        eng.set_input("raddr", 2).unwrap();
        eng.set_input_lane("wdata", 3, 19).unwrap();
        eng.set_input_lanes("waddr", &vec![1; eng.caps().lanes]).unwrap();
        eng.inject(&FaultSpec::StuckAt { net: "wdata".into(), bit: 0, value: true }).unwrap();
        eng.inject(&FaultSpec::RamUpset { ram: "m".into(), addr: 1, bit: 2, cycle: 40 }).unwrap();
        let snap = eng.snapshot();
        let bytes = snap.to_bytes();
        let decoded = SlicedSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snap, "byte round-trip is identity");

        // A restore from the decoded snapshot resumes identically in
        // every lane.
        let mut twin = Sliced::<K>::new(netlist).unwrap();
        twin.restore(&decoded).unwrap();
        for _ in 0..15 {
            let ra = rng.in_range(0, 3);
            let wa = rng.in_range(0, 3);
            let wd = rng.in_range(-32, 31);
            for e in [&mut eng, &mut twin] {
                e.set_input("raddr", ra).unwrap();
                e.set_input("waddr", wa).unwrap();
                e.set_input("wdata", wd).unwrap();
                e.set_input("wen", -1).unwrap();
                e.try_tick().unwrap();
            }
            assert_eq!(eng.peek_lanes("rdata").unwrap(), twin.peek_lanes("rdata").unwrap());
        }

        // Truncation anywhere is a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    SlicedSnapshot::from_bytes(&bytes[..cut]),
                    Err(Error::SnapshotDecode { .. })
                ),
                "truncation at {cut} must be rejected"
            );
        }
        let mut long = bytes.clone();
        long.push(9);
        assert!(matches!(SlicedSnapshot::from_bytes(&long), Err(Error::SnapshotDecode { .. })));
        // An event-driven tag must not decode as a bit-sliced snapshot.
        let mut wrong = bytes;
        wrong[0] = b'E';
        assert!(matches!(SlicedSnapshot::from_bytes(&wrong), Err(Error::SnapshotDecode { .. })));
    }

    #[test]
    fn portable_snapshot_bytes_round_trip_and_reject_corruption() {
        portable_snapshot_bytes_round_trip_and_reject_corruption_on::<Interpreter>();
        portable_snapshot_bytes_round_trip_and_reject_corruption_on::<NativeKernel>();
    }

    fn snapshot_round_trips_through_bytes_on<K: Kernel>() {
        let mut eng = Sliced::<K>::new(mixed_netlist()).unwrap();
        eng.set_input("x", -5).unwrap();
        eng.set_input("y", 77).unwrap();
        eng.try_tick().unwrap();
        eng.inject(&FaultSpec::BitFlip { register: "rs".into(), bit: 0, cycle: 9 }).unwrap();
        let snap = eng.snapshot();
        let decoded = SlicedSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap);

        // Diverge, restore, and check both engines evolve identically.
        let mut other = Sliced::<K>::new(mixed_netlist()).unwrap();
        other.set_input("x", 100).unwrap();
        other.try_tick().unwrap();
        other.restore(&decoded).unwrap();
        for _ in 0..12 {
            eng.try_tick().unwrap();
            other.try_tick().unwrap();
            assert_eq!(eng.peek("s").unwrap(), other.peek("s").unwrap());
        }
        assert_eq!(eng.cycle(), other.cycle());
    }

    #[test]
    fn snapshot_round_trips_through_bytes() {
        snapshot_round_trips_through_bytes_on::<Interpreter>();
        snapshot_round_trips_through_bytes_on::<NativeKernel>();
    }

    fn snapshot_rejects_other_netlists_and_bad_bytes_on<K: Kernel>() {
        let eng = Sliced::<K>::new(mixed_netlist()).unwrap();
        let snap = eng.snapshot();
        let mut other = Sliced::<K>::new(ram_netlist()).unwrap();
        assert!(matches!(other.restore(&snap), Err(Error::SnapshotMismatch { .. })));
        assert!(matches!(
            SlicedSnapshot::from_bytes(&[0xff, 0x01]),
            Err(Error::SnapshotDecode { .. })
        ));
        let mut truncated = snap.to_bytes();
        truncated.truncate(truncated.len() - 3);
        assert!(matches!(
            SlicedSnapshot::from_bytes(&truncated),
            Err(Error::SnapshotDecode { .. })
        ));
    }

    #[test]
    fn snapshot_rejects_other_netlists_and_bad_bytes() {
        snapshot_rejects_other_netlists_and_bad_bytes_on::<Interpreter>();
        snapshot_rejects_other_netlists_and_bad_bytes_on::<NativeKernel>();
    }

    #[test]
    fn snapshots_record_their_lane_width_and_version() {
        let bytes = CompiledEngine::new(mixed_netlist()).unwrap().snapshot().to_bytes();
        let decoded = SlicedSnapshot::from_bytes(&bytes).unwrap();
        // A 64-lane snapshot does not restore into the 256-lane machine.
        let mut jit = JitEngine::new(mixed_netlist()).unwrap();
        assert!(matches!(jit.restore(&decoded), Err(Error::SnapshotMismatch { .. })));
        // Version-2 encodings, under the old per-backend tags or the
        // merged one, are refused, and so is a version-3 word file,
        // numbered by net id rather than stage-major.
        for (tag, version) in [(b'C', 2), (b'J', 2), (SNAPSHOT_TAG, 2), (SNAPSHOT_TAG, 3)] {
            let mut old = bytes.clone();
            old[..2].copy_from_slice(&[tag, version]);
            assert!(matches!(SlicedSnapshot::from_bytes(&old), Err(Error::SnapshotDecode { .. })));
        }
    }

    /// A RAM whose read data is registered, with one fault of each
    /// family armed and an input staged: every list a snapshot carries
    /// has an entry.
    fn armed<K: Kernel>() -> Sliced<K> {
        let mut b = NetlistBuilder::new();
        let addr = b.input("addr", 2).unwrap();
        let wdata = b.input("wdata", 6).unwrap();
        let wen = b.input("wen", 1).unwrap();
        let rdata = b.ram("m", 4, 6, &addr, &addr, &wdata, wen.bit(0)).unwrap();
        let q = b.register("q", &rdata).unwrap();
        b.output("q", &q).unwrap();
        let mut eng = Sliced::<K>::new(b.finish().unwrap()).unwrap();
        eng.inject(&FaultSpec::StuckAt { net: "wdata".into(), bit: 0, value: true }).unwrap();
        eng.inject(&FaultSpec::BitFlip { register: "q".into(), bit: 1, cycle: 5 }).unwrap();
        eng.inject(&FaultSpec::RamUpset { ram: "m".into(), addr: 1, bit: 2, cycle: 4 }).unwrap();
        eng.set_input("wdata", 9).unwrap();
        eng
    }

    fn restore_refuses_out_of_range_fields_on<K: Kernel>() {
        let good = armed::<K>().snapshot();
        type Edit = fn(&mut SlicedSnapshot);
        let cases: [(&str, Edit, bool); 11] = [
            ("lane width", |s| s.lanes *= 2, true),
            ("word file", |s| s.words.truncate(1), true),
            ("ram planes", |s| s.ram.push(0), true),
            ("staged word", |s| s.staged[0].idx = u32::MAX, false),
            ("stuck net", |s| s.stuck[0].0 = u32::MAX, false),
            ("flip on the RAM cell", |s| s.flips[0].0 = s.ram_upsets[0].0, false),
            ("flip cell index", |s| s.flips[0].0 = CellId(u32::MAX), false),
            ("flip bit", |s| s.flips[0].1 = 6, false),
            ("upset on the register cell", |s| s.ram_upsets[0].0 = s.flips[0].0, false),
            ("upset addr", |s| s.ram_upsets[0].1 = 4, false),
            ("upset bit", |s| s.ram_upsets[0].2 = 6, false),
        ];
        for (field, edit, mismatch) in cases {
            let mut bad = good.clone();
            edit(&mut bad);
            // Through the byte codec, as a hostile store record arrives.
            let bad = SlicedSnapshot::from_bytes(&bad.to_bytes()).unwrap();
            let mut eng = armed::<K>();
            eng.try_tick().unwrap();
            let before = eng.snapshot();
            match eng.restore(&bad) {
                Err(Error::SnapshotMismatch { .. }) if mismatch => {}
                Err(Error::SnapshotDecode { .. }) if !mismatch => {}
                other => panic!("{}: {field} gave {other:?}", K::BACKEND),
            }
            assert_eq!(eng.snapshot(), before, "{}: {field} changed the engine", K::BACKEND);
            eng.restore(&good).unwrap();
            for _ in 0..8 {
                eng.try_tick().unwrap();
            }
        }
    }

    #[test]
    fn restore_refuses_out_of_range_fields() {
        restore_refuses_out_of_range_fields_on::<Interpreter>();
        restore_refuses_out_of_range_fields_on::<NativeKernel>();
    }

    fn lanes_are_independent_on<K: Kernel>() {
        let netlist = mixed_netlist();
        let mut packed = Sliced::<K>::new(netlist.clone()).unwrap();
        let lanes = packed.caps().lanes;
        let mut rng = Lcg(29);
        // Independent (x, y) streams on every lane, 40 ticks deep.
        let stream: Vec<Vec<(i64, i64)>> = (0..lanes)
            .map(|_| (0..40).map(|_| (rng.in_range(-128, 127), rng.in_range(-128, 127))).collect())
            .collect();
        let mut packed_out: Vec<Vec<i64>> = vec![Vec::new(); lanes];
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
            let mut single = Sliced::<K>::new(netlist.clone()).unwrap();
            for (t, &(x, y)) in lane_stream.iter().enumerate() {
                single.set_input("x", x).unwrap();
                single.set_input("y", y).unwrap();
                single.try_tick().unwrap();
                assert_eq!(
                    single.peek("s").unwrap(),
                    packed_out[l][t],
                    "lane {l} diverged from its scalar run at tick {t}"
                );
            }
        }
    }

    #[test]
    fn lanes_are_independent() {
        lanes_are_independent_on::<Interpreter>();
        lanes_are_independent_on::<NativeKernel>();
    }

    fn settle_applies_inputs_without_ticking_on<K: Kernel>() {
        let netlist = mixed_netlist();
        let mut sim = Simulator::new(netlist.clone()).unwrap();
        let mut eng = Sliced::<K>::new(netlist).unwrap();
        sim.set_input("x", 3).unwrap();
        sim.set_input("y", 5).unwrap();
        eng.set_input("x", 3).unwrap();
        eng.set_input("y", 5).unwrap();
        sim.try_settle().unwrap();
        eng.try_settle().unwrap();
        assert_eq!(eng.cycle(), 0);
        // Registers have not clocked, so outputs reflect reset state,
        // but both backends agree on every port.
        for port in ["s", "p"] {
            assert_eq!(sim.peek(port).unwrap(), eng.peek(port).unwrap());
        }
    }

    #[test]
    fn settle_applies_inputs_without_ticking() {
        settle_applies_inputs_without_ticking_on::<Interpreter>();
        settle_applies_inputs_without_ticking_on::<NativeKernel>();
    }

    #[test]
    fn staged_lane_writes_touch_exactly_their_lanes() {
        let width = 5;
        let slots: Vec<u32> = (0..width as u32).collect();
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
            stage_lanes(&mut staged, &slots, blocks, first, &values);
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

    /// A 64-bit pseudo-random word.
    fn word(rng: &mut Lcg) -> u64 {
        (rng.next() << 40) ^ (rng.next() << 20) ^ rng.next()
    }

    #[test]
    fn narrow_transposes_match_a_per_bit_reference() {
        let mut rng = Lcg(47);
        for width in 1..=64usize {
            let slots: Vec<u32> = (0..width as u32).collect();
            let (min, max) = (i64::MIN >> (64 - width), i64::MAX >> (64 - width));
            for (blocks, first, n) in
                [(1, 0, 64), (1, 5, 40), (1, 63, 1), (4, 0, 256), (4, 60, 9), (4, 100, 156)]
            {
                let values: Vec<i64> = (0..n)
                    .map(|k| match k % 5 {
                        0 => min,
                        1 => max,
                        2 => -1,
                        3 => 0,
                        _ => sign_extend(word(&mut rng), width),
                    })
                    .collect();
                let before: Vec<u64> = (0..width * blocks).map(|_| word(&mut rng)).collect();
                let mut staged = Vec::new();
                stage_lanes(&mut staged, &slots, blocks, first, &values);
                let mut words = before.clone();
                for s in &staged {
                    let w = &mut words[s.idx as usize];
                    *w = (*w & !s.mask) | s.bits;
                }
                let at = |words: &[u64], i: usize, lane: usize| {
                    (words[i * blocks + lane / 64] >> (lane % 64)) & 1
                };
                for lane in 0..blocks * 64 {
                    let staged_here = (first..first + n).contains(&lane);
                    for i in 0..width {
                        let want = if staged_here {
                            (values[lane - first] >> i) as u64 & 1
                        } else {
                            at(&before, i, lane)
                        };
                        assert_eq!(at(&words, i, lane), want, "width {width} lane {lane} bit {i}");
                    }
                }
                let mut read = Vec::new();
                for blk in 0..blocks {
                    gather_lanes(width, |i| words[i * blocks + blk], &mut read);
                }
                for (lane, &v) in read.iter().enumerate() {
                    let raw = (0..width).fold(0u64, |r, i| r | at(&words, i, lane) << i);
                    assert_eq!(v, sign_extend(raw, width), "width {width} lane {lane}");
                    if (first..first + n).contains(&lane) {
                        assert_eq!(v, values[lane - first], "width {width} lane {lane}");
                    }
                }
            }
        }
    }

    /// Every port width from 1 to [`Bus::MAX_WIDTH`] in steps, each
    /// input registered to an output of the same width.
    const IO_WIDTHS: [usize; 12] = [1, 2, 7, 8, 9, 10, 16, 31, 32, 33, 62, 63];

    fn lane_io_round_trips_at_every_width_on<K: Kernel>() {
        let mut b = NetlistBuilder::new();
        for w in IO_WIDTHS {
            let x = b.input(&format!("i{w}"), w).unwrap();
            let q = b.register(&format!("q{w}"), &x).unwrap();
            b.output(&format!("o{w}"), &q).unwrap();
        }
        let mut eng = Sliced::<K>::new(b.finish().unwrap()).unwrap();
        let lanes = eng.caps().lanes;
        let mut rng = Lcg(53);
        for w in IO_WIDTHS {
            let (min, max) = (i64::MIN >> (64 - w), i64::MAX >> (64 - w));
            let (i, o) = (format!("i{w}"), format!("o{w}"));
            let mut want: Vec<i64> = (0..lanes).map(|_| sign_extend(word(&mut rng), w)).collect();
            want[0] = min;
            want[1] = max;
            eng.set_input_lanes(&i, &want).unwrap();
            // Inputs apply at the edge; the register shows them one later.
            eng.try_tick().unwrap();
            eng.try_tick().unwrap();
            assert_eq!(eng.peek_lanes(&o).unwrap(), want, "{} width {w}", K::BACKEND);
            // A chunk shorter than the lane count, then single lanes,
            // leave every other lane as it was.
            let short: Vec<i64> = (0..lanes - 19).map(|k| [min, max, -1, 0][k % 4]).collect();
            eng.set_input_lanes(&i, &short).unwrap();
            want[..short.len()].copy_from_slice(&short);
            for lane in [lanes - 1, lanes - 19, 3] {
                let v = sign_extend(word(&mut rng), w);
                eng.set_input_lane(&i, lane, v).unwrap();
                want[lane] = v;
            }
            eng.try_tick().unwrap();
            eng.try_tick().unwrap();
            let got = eng.peek_lanes(&o).unwrap();
            assert_eq!(got, want, "{} width {w}", K::BACKEND);
            for (lane, &v) in got.iter().enumerate() {
                assert_eq!(eng.peek_lane(&o, lane).unwrap(), v, "{} width {w}", K::BACKEND);
            }
        }
    }

    #[test]
    fn lane_io_round_trips_at_every_width() {
        lane_io_round_trips_at_every_width_on::<Interpreter>();
        lane_io_round_trips_at_every_width_on::<NativeKernel>();
    }

    fn lane_bounds_are_checked_on<K: Kernel>() {
        let mut eng = Sliced::<K>::new(mixed_netlist()).unwrap();
        let lanes = eng.caps().lanes;
        assert!(eng.set_input_lane("x", lanes, 0).is_err());
        assert!(eng.peek_lane("s", lanes).is_err());
        assert!(eng.set_input_lanes("x", &[]).is_err());
        assert!(eng.set_input_lanes("x", &vec![0; lanes + 1]).is_err());
        assert!(eng.set_input("nope", 0).is_err());
        assert!(eng.set_input("s", 0).is_err(), "outputs are not drivable");
        assert!(eng.set_input("x", 1 << 20).is_err(), "range checked");
    }

    #[test]
    fn lane_bounds_are_checked() {
        lane_bounds_are_checked_on::<Interpreter>();
        lane_bounds_are_checked_on::<NativeKernel>();
    }
}
