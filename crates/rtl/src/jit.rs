//! Native-codegen (`jit`) simulation backend: netlist → Rust → `rustc`
//! → loaded kernel.
//!
//! The levelized op [`Program`] the bit-sliced interpreter replays is
//! instead *emitted as Rust source* — one straight-line function per
//! design for the combinational pass, one for the RAM writes — compiled
//! by `rustc` into a `cdylib` at a content-hashed cache path, loaded
//! with a minimal `dlopen` shim, and run as the passes of
//! [`JitEngine`], the [`Sliced`] machine at 256 lanes, whose block
//! register commit serves both kernels.
//!
//! Two things distinguish the generated kernel from the interpreter:
//!
//! * **Wider data plane.** Words are 256-bit blocks: [`LANES`] (256)
//!   independent sample lanes per pass instead of the interpreter's
//!   64, with no per-op dispatch — the whole pass is branch-free
//!   straight-line code. On an x86-64 host with AVX2 a block is one
//!   AVX2 register (the kernel is built with `+avx2` and cached under
//!   its own name); elsewhere on x86-64 it is two SSE2 registers
//!   (baseline for the architecture); `rustc` does not vectorize the
//!   portable `[u64; 4]` form, which other architectures use.
//! * **Word-lowered adders.** Behavioral `CarryAdd`/`CarrySub` cells
//!   whose result provably fits fewer bits than their output bus get
//!   their high output bits emitted as sign copies and the dead carry
//!   chain above them dropped. Legality uses only *structural,
//!   fault-invariant* facts (see [`effective_width`]): a
//!   sign-replication strip (repeated top net of a bus is
//!   value-invariant sign extension, even under a stuck-at on that
//!   shared net) and full signed ranges by width. Propagated value
//!   intervals and dwt-lint L003 range anchors are deliberately *not*
//!   used: they assume fault-free operation, and a stuck-at can force
//!   values outside them.
//!
//! State, clock edge, fault points, lane I/O and snapshots are the
//! [`Sliced`] machine's, shared with
//! [`CompiledEngine`](crate::compile::CompiledEngine); the differential
//! suite in `dwt-bench` holds all three backends bit-identical under
//! fault injection.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

use crate::cell::CellKind;
use crate::compile::{Op, Program};
use crate::net::Bus;
use crate::netlist::Netlist;
use crate::sliced::{Kernel, Sliced};
use crate::{Error, Result};

/// Independent sample streams advanced per tick.
pub const LANES: usize = 256;

/// `u64` blocks per word (`LANES / 64`).
const BLOCKS: usize = LANES / 64;

/// Effective signed width of a bus: its width after stripping the
/// sign-replication strip (a run of repeated top `NetId`s).
///
/// This is the fault-invariant core of dwt-lint's L003 width analysis:
/// replicated top bits are the *same net*, so whatever value that net
/// takes — including a stuck-at forced value, since the clamp applies
/// to the net once — the bus reads back as a sign extension of its low
/// `effective_width` bits. The bus value is therefore always inside
/// the full signed range of that effective width.
fn effective_width(bus: &Bus) -> usize {
    let mut w = bus.width();
    while w > 1 && bus.bit(w - 1) == bus.bit(w - 2) {
        w -= 1;
    }
    w
}

/// Smallest signed width whose range contains `[lo, hi]`.
fn bits_for(lo: i128, hi: i128) -> usize {
    for w in 1..=64usize {
        if lo >= -(1i128 << (w - 1)) && hi < (1i128 << (w - 1)) {
            return w;
        }
    }
    64
}

/// Codegen decisions worth reporting: how much word-lowering narrowing
/// actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodegenStats {
    /// Adder output bits emitted as sign copies instead of full-adder
    /// sums.
    pub elided_bits: usize,
    /// Ops dropped entirely (dead carry-chain temporaries above the
    /// proven width).
    pub skipped_ops: usize,
}

/// Everything the host needs from one codegen run.
struct Generated {
    source: String,
    abi: u64,
    stats: CodegenStats,
}

/// Maps adder output-bit slots proven redundant to the slot of the
/// sign bit they replicate, using only structural facts (see module
/// docs for the legality argument).
fn elision_map(
    netlist: &Netlist,
    program: &Program,
    stats: &mut CodegenStats,
) -> HashMap<u32, u32> {
    let mut elide = HashMap::new();
    for cell in netlist.cells() {
        let (a, b, out, sub) = match &cell.kind {
            CellKind::CarryAdd { a, b, out } => (a, b, out, false),
            CellKind::CarrySub { a, b, out } => (a, b, out, true),
            _ => continue,
        };
        let full = |w: usize| (-(1i128 << (w - 1)), (1i128 << (w - 1)) - 1);
        let (alo, ahi) = full(effective_width(a));
        let (blo, bhi) = full(effective_width(b));
        let (lo, hi) = if sub { (alo - bhi, ahi - blo) } else { (alo + blo, ahi + bhi) };
        let wp = bits_for(lo, hi);
        if wp < out.width() {
            let src = program.slot(out.bit(wp - 1));
            for i in wp..out.width() {
                elide.insert(program.slot(out.bit(i)), src);
            }
            stats.elided_bits += out.width() - wp;
        }
    }
    elide
}

/// Destination slot of an op, if it has one.
fn op_dst(op: &Op) -> Option<u32> {
    match *op {
        Op::Const { dst, .. }
        | Op::Copy { dst, .. }
        | Op::Not { dst, .. }
        | Op::And { dst, .. }
        | Op::Or { dst, .. }
        | Op::Xor { dst, .. }
        | Op::FaSum { dst, .. }
        | Op::FaCarry { dst, .. }
        | Op::Lut { dst, .. } => Some(dst),
        Op::RamRead { .. } => None,
    }
}

/// Slots an op reads.
fn op_reads(op: &Op, program: &Program) -> Vec<u32> {
    match *op {
        Op::Const { .. } => Vec::new(),
        Op::Copy { a, .. } | Op::Not { a, .. } => vec![a],
        Op::And { a, b, .. } | Op::Or { a, b, .. } | Op::Xor { a, b, .. } => vec![a, b],
        Op::FaSum { a, b, cin, .. } | Op::FaCarry { a, b, cin, .. } => vec![a, b, cin],
        Op::Lut { ref inputs, .. } => inputs.to_vec(),
        Op::RamRead { port } => program.rams[port as usize].raddr.clone(),
    }
}

/// Emission state for the straight-line eval body: which slots already
/// have a post-clamp local (`t{slot}`) or a pre-clamp local
/// (`r{slot}`) in scope, and which computed slots the pass must store.
struct Emitter {
    src: String,
    loaded: HashSet<u32>,
    computed: HashSet<u32>,
    /// Slots read outside the pass: port nets (lane I/O), register D
    /// slots (the commit) and RAM write ports (the RAM commit). The
    /// pass keeps every other value in a local only.
    stored: HashSet<u32>,
    zero: u32,
    one: u32,
}

impl Emitter {
    /// Rust expression for the post-clamp value of a slot, emitting a
    /// load-on-first-use for slots not computed in this pass
    /// (registers, inputs).
    fn val(&mut self, s: u32) -> String {
        if s == self.zero {
            return "ZEROW".into();
        }
        if s == self.one {
            return "ALLW".into();
        }
        if self.computed.contains(&s) || self.loaded.contains(&s) {
            return format!("t{s}");
        }
        let _ = writeln!(self.src, "    let t{s} = ld(w, {});", s as usize * BLOCKS);
        self.loaded.insert(s);
        format!("t{s}")
    }

    /// Emits one computed op: pre-clamp local, then the post-clamp
    /// local, stored if anything outside the pass reads the slot.
    fn define(&mut self, dst: u32, expr: &str) {
        let _ = writeln!(self.src, "    let r{dst} = {expr};");
        let f = if self.stored.contains(&dst) { "stc::<C>(w, am, om" } else { "clp::<C>(am, om" };
        let _ = writeln!(self.src, "    let t{dst} = {f}, {}, r{dst});", dst as usize * BLOCKS);
        self.computed.insert(dst);
    }
}

/// FNV-1a 64-bit hash (cache keying; not cryptographic).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Translates a compiled program into a self-contained Rust `cdylib`
/// source exporting the kernel entry points.
fn generate(netlist: &Netlist, program: &Program) -> Generated {
    let mut stats = CodegenStats::default();
    let elide = elision_map(netlist, program, &mut stats);
    // Every slot the kernel touches must lie inside the word file the
    // engine sizes from `program`: a netlist that is not the program's
    // source must not steer native loads or stores out of bounds.
    assert!(elide.iter().all(|(&d, &s)| d.max(s) < program.zero), "netlist and program disagree");

    let abi = fnv64(
        format!("dwt-jit-abi v4 slots={} ram={}", program.slots, program.ram_planes * BLOCKS)
            .as_bytes(),
    );

    // Reverse liveness over temp slots: a carry temporary is emitted
    // only if a live op reads it. Elided destinations read just their
    // sign-bit source, so the carry chain above the proven width dies.
    let first_temp = program.one + 1;
    let mut needed: HashSet<u32> = HashSet::new();
    let mut emit = vec![true; program.ops.len()];
    for (i, op) in program.ops.iter().enumerate().rev() {
        if let Some(dst) = op_dst(op) {
            if dst >= first_temp && !needed.contains(&dst) {
                emit[i] = false;
                continue;
            }
            if let Some(&src) = elide.get(&dst) {
                needed.insert(src);
                continue;
            }
        }
        for s in op_reads(op, program) {
            needed.insert(s);
        }
    }
    stats.skipped_ops = emit.iter().filter(|&&e| !e).count();

    let ports = netlist.ports().values().flat_map(|p| p.bus.bits()).map(|&n| program.slot(n));
    let regs = program.regs.iter().flat_map(|r| r.d.iter().copied());
    let rams = program
        .rams
        .iter()
        .flat_map(|r| r.waddr.iter().chain(&r.wdata).copied().chain(std::iter::once(r.wen)));
    let mut e = Emitter {
        src: String::with_capacity(64 * 1024),
        loaded: HashSet::new(),
        computed: HashSet::new(),
        stored: ports.chain(regs).chain(rams).collect(),
        zero: program.zero,
        one: program.one,
    };

    let _ = writeln!(
        e.src,
        "// Generated by dwt-rtl jit codegen; do not edit.\n\
         #![allow(unused_variables, unused_mut, unused_unsafe, clippy::all)]\n\
         #[cfg(all(target_arch = \"x86_64\", target_feature = \"avx2\"))]\n\
         mod lanes {{\n\
             use core::arch::x86_64::*;\n\
             pub type W = __m256i;\n\
             pub const ZEROW: W = unsafe {{ core::mem::transmute([0u64; 4]) }};\n\
             pub const ALLW: W = unsafe {{ core::mem::transmute([!0u64; 4]) }};\n\
             #[inline(always)]\n\
             pub unsafe fn ld(p: *const u64, o: usize) -> W {{ _mm256_loadu_si256(p.add(o).cast()) }}\n\
             #[inline(always)]\n\
             pub unsafe fn st(p: *mut u64, o: usize, v: W) {{ _mm256_storeu_si256(p.add(o).cast(), v) }}\n\
             #[inline(always)]\n\
             pub fn andw(a: W, b: W) -> W {{ unsafe {{ _mm256_and_si256(a, b) }} }}\n\
             #[inline(always)]\n\
             pub fn orw(a: W, b: W) -> W {{ unsafe {{ _mm256_or_si256(a, b) }} }}\n\
             #[inline(always)]\n\
             pub fn xorw(a: W, b: W) -> W {{ unsafe {{ _mm256_xor_si256(a, b) }} }}\n\
             #[inline(always)]\n\
             pub fn any(a: W) -> bool {{ unsafe {{ _mm256_testz_si256(a, a) == 0 }} }}\n\
         }}\n\
         #[cfg(all(target_arch = \"x86_64\", not(target_feature = \"avx2\")))]\n\
         mod lanes {{\n\
             use core::arch::x86_64::*;\n\
             pub type W = [__m128i; 2];\n\
             pub const ZEROW: W = unsafe {{ core::mem::transmute([0u64; 4]) }};\n\
             pub const ALLW: W = unsafe {{ core::mem::transmute([!0u64; 4]) }};\n\
             #[inline(always)]\n\
             pub unsafe fn ld(p: *const u64, o: usize) -> W {{\n\
                 [_mm_loadu_si128(p.add(o).cast()), _mm_loadu_si128(p.add(o + 2).cast())]\n\
             }}\n\
             #[inline(always)]\n\
             pub unsafe fn st(p: *mut u64, o: usize, v: W) {{\n\
                 _mm_storeu_si128(p.add(o).cast(), v[0]);\n\
                 _mm_storeu_si128(p.add(o + 2).cast(), v[1]);\n\
             }}\n\
             #[inline(always)]\n\
             pub fn andw(a: W, b: W) -> W {{ unsafe {{ [_mm_and_si128(a[0], b[0]), _mm_and_si128(a[1], b[1])] }} }}\n\
             #[inline(always)]\n\
             pub fn orw(a: W, b: W) -> W {{ unsafe {{ [_mm_or_si128(a[0], b[0]), _mm_or_si128(a[1], b[1])] }} }}\n\
             #[inline(always)]\n\
             pub fn xorw(a: W, b: W) -> W {{ unsafe {{ [_mm_xor_si128(a[0], b[0]), _mm_xor_si128(a[1], b[1])] }} }}\n\
             #[inline(always)]\n\
             pub fn any(a: W) -> bool {{\n\
                 let x: [u64; 4] = unsafe {{ core::mem::transmute(a) }};\n\
                 (x[0] | x[1] | x[2] | x[3]) != 0\n\
             }}\n\
         }}\n\
         #[cfg(not(target_arch = \"x86_64\"))]\n\
         mod lanes {{\n\
             pub type W = [u64; 4];\n\
             pub const ZEROW: W = [0u64; 4];\n\
             pub const ALLW: W = [!0u64; 4];\n\
             #[inline(always)]\n\
             pub unsafe fn ld(p: *const u64, o: usize) -> W {{\n\
                 [*p.add(o), *p.add(o + 1), *p.add(o + 2), *p.add(o + 3)]\n\
             }}\n\
             #[inline(always)]\n\
             pub unsafe fn st(p: *mut u64, o: usize, v: W) {{\n\
                 *p.add(o) = v[0];\n\
                 *p.add(o + 1) = v[1];\n\
                 *p.add(o + 2) = v[2];\n\
                 *p.add(o + 3) = v[3];\n\
             }}\n\
             #[inline(always)]\n\
             pub fn andw(a: W, b: W) -> W {{ [a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]] }}\n\
             #[inline(always)]\n\
             pub fn orw(a: W, b: W) -> W {{ [a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]] }}\n\
             #[inline(always)]\n\
             pub fn xorw(a: W, b: W) -> W {{ [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]] }}\n\
             #[inline(always)]\n\
             pub fn any(a: W) -> bool {{ (a[0] | a[1] | a[2] | a[3]) != 0 }}\n\
         }}\n\
         use lanes::*;\n\
         #[inline(always)]\n\
         fn notw(a: W) -> W {{ xorw(a, ALLW) }}\n\
         #[inline(always)]\n\
         fn majw(a: W, b: W, c: W) -> W {{ orw(andw(a, b), andw(c, xorw(a, b))) }}\n\
         #[inline(always)]\n\
         unsafe fn clp<const C: bool>(am: *const u64, om: *const u64, o: usize, v: W) -> W {{\n\
             if C {{ orw(andw(v, ld(am, o)), ld(om, o)) }} else {{ v }}\n\
         }}\n\
         #[inline(always)]\n\
         unsafe fn stc<const C: bool>(w: *mut u64, am: *const u64, om: *const u64, o: usize, v: W) -> W {{\n\
             let x = clp::<C>(am, om, o, v);\n\
             st(w, o, x);\n\
             x\n\
         }}\n\
         #[no_mangle]\n\
         pub extern \"C\" fn dwt_jit_abi() -> u64 {{ {abi:#018x} }}"
    );

    // --- eval -------------------------------------------------------
    let _ = writeln!(
        e.src,
        "unsafe fn eval<const C: bool>(w: *mut u64, ram: *const u64, am: *const u64, om: *const u64) {{"
    );
    for (i, op) in program.ops.iter().enumerate() {
        if !emit[i] {
            continue;
        }
        if let Some(dst) = op_dst(op) {
            if let Some(&src) = elide.get(&dst) {
                // Sign copy of the pre-clamp value: the event-driven
                // simulator computes high sum bits from the word add,
                // independent of any clamp forced onto the sign net.
                let expr = if e.computed.contains(&src) { format!("r{src}") } else { e.val(src) };
                e.define(dst, &expr);
                continue;
            }
        }
        match *op {
            Op::Const { dst, ones } => {
                let expr = if ones { "ALLW" } else { "ZEROW" };
                e.define(dst, expr);
            }
            Op::Copy { dst, a } => {
                let a = e.val(a);
                e.define(dst, &a);
            }
            Op::Not { dst, a } => {
                let a = e.val(a);
                e.define(dst, &format!("notw({a})"));
            }
            Op::And { dst, a, b } => {
                let (a, b) = (e.val(a), e.val(b));
                e.define(dst, &format!("andw({a}, {b})"));
            }
            Op::Or { dst, a, b } => {
                let (a, b) = (e.val(a), e.val(b));
                e.define(dst, &format!("orw({a}, {b})"));
            }
            Op::Xor { dst, a, b } => {
                let (a, b) = (e.val(a), e.val(b));
                e.define(dst, &format!("xorw({a}, {b})"));
            }
            Op::FaSum { dst, a, b, cin, invert_b } => {
                let (a, b, c) = (e.val(a), e.val(b), e.val(cin));
                let b = if invert_b { format!("notw({b})") } else { b };
                e.define(dst, &format!("xorw(xorw({a}, {b}), {c})"));
            }
            Op::FaCarry { dst, a, b, cin, invert_b } => {
                let (a, b, c) = (e.val(a), e.val(b), e.val(cin));
                let b = if invert_b { format!("notw({b})") } else { b };
                e.define(dst, &format!("majw({a}, {b}, {c})"));
            }
            Op::Lut { dst, ref inputs, table } => {
                let names: Vec<String> = inputs.iter().map(|&s| e.val(s)).collect();
                let mut terms = Vec::new();
                for m in 0..(1u32 << inputs.len()) {
                    if table & (1u16 << m) != 0 {
                        let mut term = "ALLW".to_owned();
                        for (i, name) in names.iter().enumerate() {
                            let lit = if (m >> i) & 1 == 1 {
                                name.clone()
                            } else {
                                format!("notw({name})")
                            };
                            term = format!("andw({term}, {lit})");
                        }
                        terms.push(term);
                    }
                }
                let expr = terms
                    .into_iter()
                    .reduce(|acc, t| format!("orw({acc}, {t})"))
                    .unwrap_or_else(|| "ZEROW".to_owned());
                e.define(dst, &expr);
            }
            Op::RamRead { port } => {
                let p = port as usize;
                let r = &program.rams[p];
                let names: Vec<String> = r.raddr.clone().iter().map(|&a| e.val(a)).collect();
                for j in 0..r.width {
                    let _ = writeln!(e.src, "    let mut acc{p}_{j} = ZEROW;");
                }
                let _ = writeln!(e.src, "    let mut wd{p} = 0usize;");
                let _ = writeln!(e.src, "    while wd{p} < {} {{", r.words);
                let _ = writeln!(e.src, "        let mut dec = ALLW;");
                for (i, name) in names.iter().enumerate() {
                    let _ = writeln!(
                        e.src,
                        "        dec = andw(dec, if (wd{p} >> {i}) & 1 == 1 {{ {name} }} else {{ notw({name}) }});"
                    );
                }
                let _ = writeln!(e.src, "        if any(dec) {{");
                let _ = writeln!(
                    e.src,
                    "            let base = {} + wd{p} * {};",
                    r.base * BLOCKS,
                    r.width * BLOCKS
                );
                for j in 0..r.width {
                    let _ = writeln!(
                        e.src,
                        "            acc{p}_{j} = orw(acc{p}_{j}, andw(dec, ld(ram, base + {})));",
                        j * BLOCKS
                    );
                }
                let _ = writeln!(e.src, "        }}");
                let _ = writeln!(e.src, "        wd{p} += 1;");
                let _ = writeln!(e.src, "    }}");
                for (j, &d) in r.rdata.clone().iter().enumerate() {
                    e.define(d, &format!("acc{p}_{j}"));
                }
            }
        }
    }
    let _ = writeln!(e.src, "}}");
    let _ = writeln!(
        e.src,
        "#[no_mangle]\n\
         pub unsafe extern \"C\" fn dwt_jit_eval(w: *mut u64, ram: *const u64) {{\n\
             eval::<false>(w, ram, core::ptr::null(), core::ptr::null());\n\
         }}\n\
         #[no_mangle]\n\
         pub unsafe extern \"C\" fn dwt_jit_eval_clamped(w: *mut u64, ram: *const u64, am: *const u64, om: *const u64) {{\n\
             eval::<true>(w, ram, am, om);\n\
         }}"
    );

    // --- RAM write commit -------------------------------------------
    let _ = writeln!(
        e.src,
        "#[no_mangle]\n\
         pub unsafe extern \"C\" fn dwt_jit_ram_commit(w: *const u64, ram: *mut u64) {{"
    );
    for (p, r) in program.rams.iter().enumerate() {
        let _ = writeln!(e.src, "    let wen{p} = ld(w, {});", r.wen as usize * BLOCKS);
        let _ = writeln!(e.src, "    if any(wen{p}) {{");
        for (i, &a) in r.waddr.iter().enumerate() {
            let _ = writeln!(e.src, "        let wa{p}_{i} = ld(w, {});", a as usize * BLOCKS);
        }
        for (j, &d) in r.wdata.iter().enumerate() {
            let _ = writeln!(e.src, "        let wv{p}_{j} = ld(w, {});", d as usize * BLOCKS);
        }
        let _ = writeln!(e.src, "        let mut wd{p} = 0usize;");
        let _ = writeln!(e.src, "        while wd{p} < {} {{", r.words);
        let _ = writeln!(e.src, "            let mut sel = wen{p};");
        for i in 0..r.waddr.len() {
            let _ = writeln!(
                e.src,
                "            sel = andw(sel, if (wd{p} >> {i}) & 1 == 1 {{ wa{p}_{i} }} else {{ notw(wa{p}_{i}) }});"
            );
        }
        let _ = writeln!(e.src, "            if any(sel) {{");
        let _ = writeln!(
            e.src,
            "                let base = {} + wd{p} * {};",
            r.base * BLOCKS,
            r.width * BLOCKS
        );
        for j in 0..r.width {
            let _ = writeln!(
                e.src,
                "                let o = base + {};\n\
                 \x20               let old = ld(ram as *const u64, o);\n\
                 \x20               st(ram, o, orw(andw(old, notw(sel)), andw(wv{p}_{j}, sel)));",
                j * BLOCKS
            );
        }
        let _ = writeln!(e.src, "            }}");
        let _ = writeln!(e.src, "            wd{p} += 1;");
        let _ = writeln!(e.src, "        }}");
        let _ = writeln!(e.src, "    }}");
    }
    let _ = writeln!(e.src, "}}");

    Generated { source: e.src, abi, stats }
}

/// Minimal `dlopen`/`dlsym` shim — the only unsafe code in the crate.
///
/// Library handles are intentionally leaked: kernels are cached for
/// the process lifetime and never unloaded, so the code behind the
/// resolved function pointers cannot disappear under a live engine.
#[allow(unsafe_code)]
mod native {
    use std::ffi::{c_char, c_int, c_void, CStr, CString};
    use std::path::Path;

    use crate::{Error, Result};

    extern "C" {
        fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
        fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        fn dlerror() -> *mut c_char;
    }

    const RTLD_NOW: c_int = 0x2;

    pub(super) type EvalFn = unsafe extern "C" fn(*mut u64, *const u64);
    pub(super) type EvalClampedFn =
        unsafe extern "C" fn(*mut u64, *const u64, *const u64, *const u64);
    pub(super) type RamCommitFn = unsafe extern "C" fn(*const u64, *mut u64);
    type AbiFn = unsafe extern "C" fn() -> u64;

    /// Resolved entry points of one loaded kernel library.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct JitFns {
        pub(super) eval: EvalFn,
        pub(super) eval_clamped: EvalClampedFn,
        pub(super) ram_commit: RamCommitFn,
    }

    fn last_error() -> String {
        let p = unsafe { dlerror() };
        if p.is_null() {
            "unknown dl error".into()
        } else {
            unsafe { CStr::from_ptr(p) }.to_string_lossy().into_owned()
        }
    }

    fn err(stage: &str, detail: String) -> Error {
        Error::NativeCodegen { stage: stage.into(), detail }
    }

    /// Opens a kernel library, checks its ABI fingerprint, and
    /// resolves every entry point.
    pub(super) fn load(path: &Path, expected_abi: u64) -> Result<JitFns> {
        let text = path
            .to_str()
            .ok_or_else(|| err("dlopen", format!("non-UTF8 path {}", path.display())))?;
        let cpath =
            CString::new(text).map_err(|_| err("dlopen", "NUL byte in library path".into()))?;
        let handle = unsafe { dlopen(cpath.as_ptr(), RTLD_NOW) };
        if handle.is_null() {
            return Err(err("dlopen", last_error()));
        }
        let sym = |name: &str| -> Result<*mut c_void> {
            let cname = CString::new(name).expect("symbol names contain no NUL");
            let p = unsafe { dlsym(handle, cname.as_ptr()) };
            if p.is_null() {
                Err(err("dlsym", format!("{name}: {}", last_error())))
            } else {
                Ok(p)
            }
        };
        // Raw dl pointers are transmuted to the exact extern "C"
        // signatures the generated source exports; the ABI fingerprint
        // check below rejects stale or foreign libraries first.
        unsafe {
            let abi = std::mem::transmute::<*mut c_void, AbiFn>(sym("dwt_jit_abi")?);
            let got = abi();
            if got != expected_abi {
                return Err(err(
                    "abi",
                    format!("kernel fingerprint {got:#018x}, expected {expected_abi:#018x}"),
                ));
            }
            Ok(JitFns {
                eval: std::mem::transmute::<*mut c_void, EvalFn>(sym("dwt_jit_eval")?),
                eval_clamped: std::mem::transmute::<*mut c_void, EvalClampedFn>(sym(
                    "dwt_jit_eval_clamped",
                )?),
                ram_commit: std::mem::transmute::<*mut c_void, RamCommitFn>(sym(
                    "dwt_jit_ram_commit",
                )?),
            })
        }
    }
}

/// The `rustc`-compiled passes of one design: a safe call surface over
/// the raw kernel entry points. Every slice length is asserted against
/// the geometry the kernel was generated for before a pointer crosses
/// the FFI boundary.
#[derive(Debug, Clone, Copy)]
pub struct NativeKernel {
    fns: native::JitFns,
    words_len: usize,
    ram_len: usize,
    stats: CodegenStats,
}

/// The native-codegen backend: the [`Sliced`] machine at [`LANES`]
/// (256) lanes, running every pass through a `rustc`-compiled
/// [`NativeKernel`].
pub type JitEngine = Sliced<NativeKernel>;

impl JitEngine {
    /// How much word-lowering narrowing fired during codegen.
    #[must_use]
    pub fn codegen_stats(&self) -> CodegenStats {
        self.kernel().stats
    }
}

/// The [`NativeKernel`]'s form of the armed stuck-at faults: the stuck
/// slots, and the per-word `AND` then `OR` masks the generated clamped
/// eval stores through (identity on every word not stuck). The masks
/// stay empty until a stuck-at is first armed.
#[derive(Debug, Clone, Default)]
pub struct ClampMasks {
    slots: Vec<u32>,
    and: Vec<u64>,
    or: Vec<u64>,
}

impl NativeKernel {
    /// Asserts that the word file, and when `CLAMPED` the clamp masks,
    /// have the generated length.
    fn check_words<const CLAMPED: bool>(&self, words: &[u64], m: &ClampMasks) {
        assert_eq!(words.len(), self.words_len, "word buffer length");
        if CLAMPED {
            assert_eq!(m.and.len(), self.words_len, "and-mask length");
            assert_eq!(m.or.len(), self.words_len, "or-mask length");
        }
    }
}

#[allow(unsafe_code)]
impl Kernel for NativeKernel {
    const BLOCKS: usize = BLOCKS;
    const BACKEND: &'static str = "jit";
    const NATIVE: bool = true;
    type Clamps = ClampMasks;

    fn build(netlist: &Netlist, program: &Program) -> Result<Self> {
        let generated = generate(netlist, program);
        Ok(NativeKernel {
            fns: build_kernel(&generated.source, generated.abi)?,
            words_len: program.slots * BLOCKS,
            ram_len: program.ram_planes * BLOCKS,
            stats: generated.stats,
        })
    }

    fn arm(&self, _: &Program, stuck: &[(u32, bool)], m: &mut ClampMasks) {
        m.slots.clear();
        m.slots.extend(stuck.iter().map(|&(slot, _)| slot));
        if stuck.is_empty() {
            return;
        }
        m.and.clear();
        m.and.resize(self.words_len, !0);
        m.or.clear();
        m.or.resize(self.words_len, 0);
        for &(net, ones) in stuck {
            let w = net as usize * BLOCKS..(net as usize + 1) * BLOCKS;
            if ones {
                m.or[w].fill(!0);
            } else {
                m.and[w].fill(0);
            }
        }
    }

    fn eval<const CLAMPED: bool>(
        &self,
        _: &Program,
        words: &mut [u64],
        ram: &[u64],
        m: &ClampMasks,
    ) {
        self.check_words::<CLAMPED>(words, m);
        assert_eq!(ram.len(), self.ram_len, "ram buffer length");
        if CLAMPED {
            // The generated pass clamps what it stores; registers and
            // inputs it only loads.
            for &s in &m.slots {
                let w = s as usize * BLOCKS..(s as usize + 1) * BLOCKS;
                let masks = m.and[w.clone()].iter().zip(&m.or[w.clone()]);
                for (v, (&and, &or)) in words[w].iter_mut().zip(masks) {
                    *v = (*v & and) | or;
                }
            }
        }
        let (w, r) = (words.as_mut_ptr(), ram.as_ptr());
        // SAFETY: the kernel was generated for buffers of exactly the
        // lengths asserted above and touches nothing outside them.
        unsafe {
            if CLAMPED {
                (self.fns.eval_clamped)(w, r, m.and.as_ptr(), m.or.as_ptr());
            } else {
                (self.fns.eval)(w, r);
            }
        }
    }

    fn ram_commit(&self, _: &Program, words: &[u64], ram: &mut [u64]) {
        self.check_words::<false>(words, &ClampMasks::default());
        assert_eq!(ram.len(), self.ram_len, "ram buffer length");
        // SAFETY: as in `eval`, every buffer has its generated length.
        unsafe { (self.fns.ram_commit)(words.as_ptr(), ram.as_mut_ptr()) }
    }
}

/// Process-wide kernel registry keyed by source hash: each distinct
/// generated source is compiled and loaded at most once per process.
static KERNELS: OnceLock<Mutex<HashMap<u64, native::JitFns>>> = OnceLock::new();

/// Kernel cache directory: `$DWT_JIT_CACHE`, or
/// `<tmp>/dwt-jit-cache`.
fn cache_dir() -> std::path::PathBuf {
    match std::env::var_os("DWT_JIT_CACHE") {
        Some(dir) if !dir.is_empty() => std::path::PathBuf::from(dir),
        _ => std::env::temp_dir().join("dwt-jit-cache"),
    }
}

fn stage_err(stage: &str) -> impl Fn(std::io::Error) -> Error + '_ {
    move |e| Error::NativeCodegen { stage: stage.into(), detail: e.to_string() }
}

/// Extra `rustc` flags for this host, and the tag that keeps kernels
/// built with them apart in the cache: with AVX2, a 256-lane block is
/// one register instead of two SSE2 halves.
fn host_codegen() -> (&'static [&'static str], &'static str) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return (&["-C", "target-feature=+avx2"], "_avx2");
    }
    (&[], "")
}

/// The `rustc` flags of every kernel build. Every kernel function
/// starts on a 64-byte line: a pass is one long straight-line body
/// whose speed moved by ≈10 % with its offset in a line when an
/// unrelated function ahead of it changed size.
const RUSTC_FLAGS: [&str; 10] = [
    "--edition=2021",
    "--crate-type=cdylib",
    "-C",
    "opt-level=3",
    "-C",
    "codegen-units=1",
    "-C",
    "debuginfo=0",
    "-C",
    "llvm-args=-align-all-functions=6",
];

/// Compiles (or reuses from cache) and loads the kernel for one
/// generated source.
///
/// The cache key is the FNV-1a hash of [`RUSTC_FLAGS`] and the source
/// (tagged with the host's extra codegen flags), so any codegen change
/// reissues `rustc`; the library is compiled to a
/// process-unique temp name and atomically renamed into place, which
/// makes concurrent builds of the same design (parallel test binaries)
/// race-free.
fn build_kernel(source: &str, abi: u64) -> Result<native::JitFns> {
    let hash = fnv64(format!("{RUSTC_FLAGS:?}\n{source}").as_bytes());
    let registry = KERNELS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&fns) = map.get(&hash) {
        return Ok(fns);
    }

    let dir = cache_dir();
    std::fs::create_dir_all(&dir).map_err(stage_err("cache"))?;
    let (flags, tag) = host_codegen();
    let stem = format!("dwt_jit_{hash:016x}{tag}");
    let lib = dir.join(format!("{stem}{}", std::env::consts::DLL_SUFFIX));
    if !lib.exists() {
        let src_path = dir.join(format!("{stem}.rs"));
        std::fs::write(&src_path, source).map_err(stage_err("codegen"))?;
        let tmp = dir.join(format!("{stem}.{}.tmp", std::process::id()));
        let rustc = std::env::var("DWT_JIT_RUSTC").unwrap_or_else(|_| "rustc".into());
        let output = std::process::Command::new(&rustc)
            .args(RUSTC_FLAGS)
            .args(flags)
            .arg("-o")
            .arg(&tmp)
            .arg(&src_path)
            .output()
            .map_err(|e| Error::NativeCodegen {
                stage: "rustc".into(),
                detail: format!("spawning '{rustc}': {e}"),
            })?;
        if !output.status.success() {
            let stderr = String::from_utf8_lossy(&output.stderr);
            return Err(Error::NativeCodegen {
                stage: "rustc".into(),
                detail: format!(
                    "{}: {}",
                    output.status,
                    stderr.lines().take(12).collect::<Vec<_>>().join("\n")
                ),
            });
        }
        std::fs::rename(&tmp, &lib).map_err(stage_err("cache"))?;
    }
    let fns = native::load(&lib, abi)?;
    map.insert(hash, fns);
    Ok(fns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::engine::Engine;
    use crate::fault::FaultSpec;
    use crate::sim::Simulator;
    use crate::sliced::tests::{lockstep, mixed_netlist};

    /// Narrow operands into a wide adder: sign extension replicates
    /// the top nets, so the word-lowering proof must fire and elide
    /// the high output bits.
    fn elision_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        let x = b.input("x", 8).unwrap();
        let y = b.input("y", 8).unwrap();
        let sum = b.carry_add("sum", &x, &y, 14).unwrap();
        let dif = b.carry_sub("dif", &sum, &y, 15).unwrap();
        let q = b.register("q", &dif).unwrap();
        b.output("s", &sum).unwrap();
        b.output("d", &q).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn word_lowering_fires_and_stays_bit_exact_under_faults() {
        let eng = JitEngine::new(elision_netlist()).unwrap();
        let stats = eng.codegen_stats();
        // x, y are 8-bit: the 14-bit sum fits 9 bits, so its top 5
        // bits become sign copies and their carry chain dies. The
        // subtractor must NOT narrow: its operand's high bits are
        // *fresh nets* that merely equal the sign bit in fault-free
        // runs — a stuck-at on one of them breaks that equality, so
        // only same-net replication (true sign extension) is a sound
        // width proof.
        assert_eq!(stats.elided_bits, 5, "structural elision should fire for 'sum' only");
        assert!(stats.skipped_ops > 0, "dead carry temporaries were not dropped");
        drop(eng);
        // Bit-exactness under faults *on the elided cone*: a stuck-at
        // forced onto the sign bit the copies replicate, and one on an
        // elided high bit itself.
        lockstep(
            elision_netlist(),
            &[("x", -128, 127), ("y", -128, 127)],
            &["s", "d"],
            150,
            23,
            |t| match t {
                20 => vec![FaultSpec::StuckAt { net: "s".into(), bit: 8, value: true }],
                60 => vec![FaultSpec::StuckAt { net: "s".into(), bit: 12, value: false }],
                90 => vec![FaultSpec::BitFlip { register: "q".into(), bit: 9, cycle: 95 }],
                _ => Vec::new(),
            },
        );
    }

    #[test]
    fn lane_verbs_drive_all_256_lanes() {
        let mut eng = JitEngine::new(mixed_netlist()).unwrap();
        let xs: Vec<i64> = (0..LANES as i64).map(|l| (l % 255) - 127).collect();
        let ys: Vec<i64> = (0..LANES as i64).map(|l| ((l * 7) % 255) - 127).collect();
        Engine::set_input_lanes(&mut eng, "x", &xs).unwrap();
        Engine::set_input_lanes(&mut eng, "y", &ys).unwrap();
        eng.try_tick().unwrap();
        eng.try_tick().unwrap();
        let got = Engine::peek_lanes(&eng, "s").unwrap();
        assert_eq!(got.len(), LANES);
        // Check a sample of lanes against a scalar reference engine.
        for &lane in &[0usize, 1, 63, 64, 127, 128, 200, 255] {
            let mut reference = Simulator::new(mixed_netlist()).unwrap();
            reference.set_input("x", xs[lane]).unwrap();
            reference.set_input("y", ys[lane]).unwrap();
            reference.try_tick().unwrap();
            reference.try_tick().unwrap();
            assert_eq!(got[lane], reference.peek("s").unwrap(), "lane {lane}");
            assert_eq!(
                Engine::peek_lane(&eng, "s", lane).unwrap(),
                got[lane],
                "peek_lane vs peek_lanes at {lane}"
            );
        }
    }

    #[test]
    fn second_engine_reuses_the_cached_kernel() {
        let a = JitEngine::new(mixed_netlist()).unwrap();
        let b = JitEngine::new(mixed_netlist()).unwrap();
        assert_eq!(a.codegen_stats(), b.codegen_stats());
        assert_eq!(Engine::caps(&a).lanes, LANES);
        assert!(Engine::caps(&b).native_codegen);
    }
}
