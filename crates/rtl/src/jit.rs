//! Native-codegen (`jit`) simulation backend: netlist → Rust → `rustc`
//! → loaded kernel.
//!
//! The levelized op [`Program`] the bit-sliced interpreter replays is
//! instead *emitted as Rust source* — one straight-line function per
//! design, registers as explicit capture/commit phases — compiled by
//! `rustc` into a `cdylib` at a content-hashed cache path, loaded with
//! a minimal `dlopen` shim, and wrapped in [`JitEngine`], a full
//! [`Engine`] implementation (snapshot/restore, stuck-at clamps,
//! scheduled bit-flips and RAM upsets included).
//!
//! Two things distinguish the generated kernel from the interpreter:
//!
//! * **Wider data plane.** Words are `[u64; 4]` blocks: [`LANES`]
//!   (256) independent sample lanes per pass instead of the
//!   interpreter's 64, with no per-op dispatch — the whole pass is
//!   branch-free straight-line code `rustc` can keep in registers and
//!   auto-vectorize.
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
//! Cycle semantics (edge ordering, fault application points, clamp
//! masks) mirror [`CompiledEngine`](crate::compile::CompiledEngine)
//! exactly; the differential suite in `dwt-bench` holds all three
//! backends bit-identical under fault injection.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

use crate::cell::CellKind;
use crate::compile::{
    gather_lanes, input_bus, read_staged, sign_extend, slot, stage_broadcast, stage_lanes,
    write_staged, Op, Program, StagedWord,
};
use crate::engine::{Engine, EngineCaps};
use crate::fault::{self, FaultSpec, ResolvedFault};
use crate::net::Bus;
use crate::netlist::{CellId, Netlist};
use crate::snapbytes::{ByteReader, ByteWriter};
use crate::{Error, Result};

/// Independent sample streams advanced per tick.
pub const LANES: usize = 256;

/// `u64` blocks per word (`LANES / 64`).
const BLOCKS: usize = 4;

/// All 64 lanes of one block set.
const ALL: u64 = !0;

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
    /// Flat RAM buffer length in `u64`s (all arrays concatenated,
    /// plane-major, [`BLOCKS`] words per plane).
    ram_len: usize,
    /// Per-RAM base offset into the flat buffer, in `u64`s.
    ram_offsets: Vec<usize>,
    stats: CodegenStats,
}

/// Maps adder output-bit slots proven redundant to the slot of the
/// sign bit they replicate, using only structural facts (see module
/// docs for the legality argument).
fn elision_map(netlist: &Netlist, stats: &mut CodegenStats) -> HashMap<u32, u32> {
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
            let src = slot(out.bit(wp - 1));
            for i in wp..out.width() {
                elide.insert(slot(out.bit(i)), src);
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
/// (`r{slot}`) in scope.
struct Emitter {
    src: String,
    loaded: HashSet<u32>,
    computed: HashSet<u32>,
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

    /// Emits one computed op: pre-clamp local, clamped store, post-clamp
    /// local.
    fn define(&mut self, dst: u32, expr: &str) {
        let _ = writeln!(self.src, "    let r{dst} = {expr};");
        let _ = writeln!(
            self.src,
            "    let t{dst} = stc::<C>(w, am, om, {}, r{dst});",
            dst as usize * BLOCKS
        );
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
    let elide = elision_map(netlist, &mut stats);

    // Flat RAM layout: arrays concatenated, BLOCKS u64s per bit-plane.
    let mut ram_offsets = Vec::with_capacity(program.rams.len());
    let mut ram_len = 0usize;
    for r in &program.rams {
        ram_offsets.push(ram_len);
        ram_len += r.words * r.width * BLOCKS;
    }

    let abi = fnv64(
        format!(
            "dwt-jit-abi v1 slots={} regbits={} ram={}",
            program.slots, program.reg_bits, ram_len
        )
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

    let mut e = Emitter {
        src: String::with_capacity(64 * 1024),
        loaded: HashSet::new(),
        computed: HashSet::new(),
        zero: program.zero,
        one: program.one,
    };

    let _ = writeln!(
        e.src,
        "// Generated by dwt-rtl jit codegen; do not edit.\n\
         #![allow(unused_variables, unused_mut, clippy::all)]\n\
         type W = [u64; 4];\n\
         const ZEROW: W = [0u64; 4];\n\
         const ALLW: W = [!0u64; 4];\n\
         #[inline(always)]\n\
         unsafe fn ld(p: *const u64, o: usize) -> W {{\n\
             [*p.add(o), *p.add(o + 1), *p.add(o + 2), *p.add(o + 3)]\n\
         }}\n\
         #[inline(always)]\n\
         unsafe fn st(p: *mut u64, o: usize, v: W) {{\n\
             *p.add(o) = v[0];\n\
             *p.add(o + 1) = v[1];\n\
             *p.add(o + 2) = v[2];\n\
             *p.add(o + 3) = v[3];\n\
         }}\n\
         #[inline(always)]\n\
         fn andw(a: W, b: W) -> W {{ [a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]] }}\n\
         #[inline(always)]\n\
         fn orw(a: W, b: W) -> W {{ [a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]] }}\n\
         #[inline(always)]\n\
         fn xorw(a: W, b: W) -> W {{ [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]] }}\n\
         #[inline(always)]\n\
         fn notw(a: W) -> W {{ [!a[0], !a[1], !a[2], !a[3]] }}\n\
         #[inline(always)]\n\
         fn majw(a: W, b: W, c: W) -> W {{ orw(orw(andw(a, b), andw(a, c)), andw(b, c)) }}\n\
         #[inline(always)]\n\
         fn any(a: W) -> bool {{ (a[0] | a[1] | a[2] | a[3]) != 0 }}\n\
         #[inline(always)]\n\
         unsafe fn stc<const C: bool>(w: *mut u64, am: *const u64, om: *const u64, o: usize, v: W) -> W {{\n\
             let x = if C {{ orw(andw(v, ld(am, o)), ld(om, o)) }} else {{ v }};\n\
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
                    ram_offsets[p],
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

    // --- register capture / commit ---------------------------------
    let _ = writeln!(
        e.src,
        "#[no_mangle]\n\
         pub unsafe extern \"C\" fn dwt_jit_capture(w: *const u64, s: *mut u64) {{"
    );
    for reg in &program.regs {
        for (k, &d) in reg.d.iter().enumerate() {
            let _ = writeln!(
                e.src,
                "    st(s, {}, ld(w, {}));",
                (reg.offset + k) * BLOCKS,
                d as usize * BLOCKS
            );
        }
    }
    let _ = writeln!(e.src, "}}");

    let _ = writeln!(
        e.src,
        "unsafe fn commit<const C: bool>(w: *mut u64, s: *const u64, am: *const u64, om: *const u64) {{"
    );
    for reg in &program.regs {
        for (k, &q) in reg.q.iter().enumerate() {
            let _ = writeln!(
                e.src,
                "    let _ = stc::<C>(w, am, om, {}, ld(s, {}));",
                q as usize * BLOCKS,
                (reg.offset + k) * BLOCKS
            );
        }
    }
    let _ = writeln!(
        e.src,
        "}}\n\
         #[no_mangle]\n\
         pub unsafe extern \"C\" fn dwt_jit_commit(w: *mut u64, s: *const u64) {{\n\
             commit::<false>(w, s, core::ptr::null(), core::ptr::null());\n\
         }}\n\
         #[no_mangle]\n\
         pub unsafe extern \"C\" fn dwt_jit_commit_clamped(w: *mut u64, s: *const u64, am: *const u64, om: *const u64) {{\n\
             commit::<true>(w, s, am, om);\n\
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
            ram_offsets[p],
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

    Generated { source: e.src, abi, ram_len, ram_offsets, stats }
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
    pub(super) type CaptureFn = unsafe extern "C" fn(*const u64, *mut u64);
    pub(super) type CommitFn = unsafe extern "C" fn(*mut u64, *const u64);
    pub(super) type CommitClampedFn =
        unsafe extern "C" fn(*mut u64, *const u64, *const u64, *const u64);
    pub(super) type RamCommitFn = unsafe extern "C" fn(*const u64, *mut u64);
    type AbiFn = unsafe extern "C" fn() -> u64;

    /// Resolved entry points of one loaded kernel library.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct JitFns {
        pub(super) eval: EvalFn,
        pub(super) eval_clamped: EvalClampedFn,
        pub(super) capture: CaptureFn,
        pub(super) commit: CommitFn,
        pub(super) commit_clamped: CommitClampedFn,
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
                capture: std::mem::transmute::<*mut c_void, CaptureFn>(sym("dwt_jit_capture")?),
                commit: std::mem::transmute::<*mut c_void, CommitFn>(sym("dwt_jit_commit")?),
                commit_clamped: std::mem::transmute::<*mut c_void, CommitClampedFn>(sym(
                    "dwt_jit_commit_clamped",
                )?),
                ram_commit: std::mem::transmute::<*mut c_void, RamCommitFn>(sym(
                    "dwt_jit_ram_commit",
                )?),
            })
        }
    }
}

/// Safe call surface over the raw kernel entry points: every slice
/// length is asserted against the geometry the kernel was generated
/// for before a pointer crosses the FFI boundary.
#[derive(Debug, Clone, Copy)]
struct Kernel {
    fns: native::JitFns,
    words_len: usize,
    ram_len: usize,
    scratch_len: usize,
}

#[allow(unsafe_code)]
impl Kernel {
    fn check(&self, words: usize, ram: usize) {
        assert_eq!(words, self.words_len, "word buffer length");
        assert_eq!(ram, self.ram_len, "ram buffer length");
    }

    fn eval(&self, words: &mut [u64], ram: &[u64]) {
        self.check(words.len(), ram.len());
        unsafe { (self.fns.eval)(words.as_mut_ptr(), ram.as_ptr()) }
    }

    fn eval_clamped(&self, words: &mut [u64], ram: &[u64], am: &[u64], om: &[u64]) {
        self.check(words.len(), ram.len());
        assert_eq!(am.len(), self.words_len);
        assert_eq!(om.len(), self.words_len);
        unsafe {
            (self.fns.eval_clamped)(words.as_mut_ptr(), ram.as_ptr(), am.as_ptr(), om.as_ptr());
        }
    }

    fn capture(&self, words: &[u64], scratch: &mut [u64]) {
        assert_eq!(words.len(), self.words_len);
        assert_eq!(scratch.len(), self.scratch_len);
        unsafe { (self.fns.capture)(words.as_ptr(), scratch.as_mut_ptr()) }
    }

    fn commit(&self, words: &mut [u64], scratch: &[u64]) {
        assert_eq!(words.len(), self.words_len);
        assert_eq!(scratch.len(), self.scratch_len);
        unsafe { (self.fns.commit)(words.as_mut_ptr(), scratch.as_ptr()) }
    }

    fn commit_clamped(&self, words: &mut [u64], scratch: &[u64], am: &[u64], om: &[u64]) {
        assert_eq!(words.len(), self.words_len);
        assert_eq!(scratch.len(), self.scratch_len);
        assert_eq!(am.len(), self.words_len);
        assert_eq!(om.len(), self.words_len);
        unsafe {
            (self.fns.commit_clamped)(
                words.as_mut_ptr(),
                scratch.as_ptr(),
                am.as_ptr(),
                om.as_ptr(),
            );
        }
    }

    fn ram_commit(&self, words: &[u64], ram: &mut [u64]) {
        self.check(words.len(), ram.len());
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

/// Compiles (or reuses from cache) and loads the kernel for one
/// generated source.
///
/// The cache key is the FNV-1a hash of the source itself, so any
/// codegen change reissues `rustc`; the library is compiled to a
/// process-unique temp name and atomically renamed into place, which
/// makes concurrent builds of the same design (parallel test binaries)
/// race-free.
fn build_kernel(source: &str, abi: u64) -> Result<native::JitFns> {
    let hash = fnv64(source.as_bytes());
    let registry = KERNELS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&fns) = map.get(&hash) {
        return Ok(fns);
    }

    let dir = cache_dir();
    std::fs::create_dir_all(&dir).map_err(stage_err("cache"))?;
    let lib = dir.join(format!("dwt_jit_{hash:016x}{}", std::env::consts::DLL_SUFFIX));
    if !lib.exists() {
        let src_path = dir.join(format!("dwt_jit_{hash:016x}.rs"));
        std::fs::write(&src_path, source).map_err(stage_err("codegen"))?;
        let tmp = dir.join(format!("dwt_jit_{hash:016x}.{}.tmp", std::process::id()));
        let rustc = std::env::var("DWT_JIT_RUSTC").unwrap_or_else(|_| "rustc".into());
        let output = std::process::Command::new(&rustc)
            .args(["--edition=2021", "--crate-type=cdylib", "-C", "opt-level=3"])
            .args(["-C", "codegen-units=1", "-C", "debuginfo=0"])
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

/// Leading tag byte of a serialized jit snapshot (`'J'`).
const SNAPSHOT_TAG: u8 = b'J';
/// Encoding version; bump on any field/layout change.
const SNAPSHOT_VERSION: u8 = 2;

/// Complete architectural state of a [`JitEngine`]: net words (256
/// lanes), flat RAM planes, staged inputs, armed faults and the cycle
/// counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JitSnapshot {
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

impl JitSnapshot {
    /// The clock cycle at which the snapshot was taken.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

impl crate::engine::PortableSnapshot for JitSnapshot {
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
        for &word in &self.ram {
            w.u64(word);
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
                detail: format!("tag {tag:#04x} is not a jit snapshot"),
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
        let mut ram = Vec::with_capacity(r.len(8)?);
        for _ in 0..ram.capacity() {
            ram.push(r.u64()?);
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
        Ok(JitSnapshot { nets, cells, words, ram, staged, stuck, flips, ram_upsets, cycle })
    }
}

/// The native-codegen simulation backend.
///
/// Cycle semantics, fault application points and [`Engine`] behavior
/// mirror [`CompiledEngine`](crate::compile::CompiledEngine) — same
/// two-phase clocking, same clamp-mask stuck-at model, same
/// documented divergences from the event-driven simulator (no glitch
/// model, no activity statistics, stuck nets heal on the pass after
/// [`clear_faults`](Engine::clear_faults)) — but every pass runs
/// through a `rustc`-compiled kernel over [`LANES`] (256) lanes.
///
/// Word layout: slot `s`, lane `l` lives at
/// `words[s * 4 + l / 64]` bit `l % 64`. RAM planes are concatenated
/// into one flat buffer with the same 4-block layout.
#[derive(Debug, Clone)]
pub struct JitEngine {
    netlist: Netlist,
    program: Program,
    kernel: Kernel,
    stats: CodegenStats,
    words: Vec<u64>,
    ram: Vec<u64>,
    /// Per-RAM base offset into `ram`, in `u64`s.
    ram_offsets: Vec<usize>,
    scratch: Vec<u64>,
    staged: Vec<StagedWord>,
    and_mask: Vec<u64>,
    or_mask: Vec<u64>,
    has_stuck: bool,
    stuck: Vec<(u32, bool)>,
    flips: Vec<(CellId, usize, u64)>,
    ram_upsets: Vec<(CellId, usize, usize, u64)>,
    cycle: u64,
}

impl JitEngine {
    /// Generates, compiles (or reuses from cache), loads and
    /// power-cycles the kernel for a validated netlist: registers and
    /// RAM zeroed in every lane, combinational logic settled.
    ///
    /// # Errors
    ///
    /// [`Error::MalformedProgram`] from lowering, or
    /// [`Error::NativeCodegen`] when codegen, `rustc`, or the dynamic
    /// loader fails.
    pub fn new(netlist: Netlist) -> Result<Self> {
        let program = Program::compile(&netlist)?;
        let generated = generate(&netlist, &program);
        let fns = build_kernel(&generated.source, generated.abi)?;
        let slots = program.slots;
        let kernel = Kernel {
            fns,
            words_len: slots * BLOCKS,
            ram_len: generated.ram_len,
            scratch_len: program.reg_bits * BLOCKS,
        };
        let mut engine = JitEngine {
            words: vec![0; slots * BLOCKS],
            ram: vec![0; generated.ram_len],
            ram_offsets: generated.ram_offsets,
            scratch: vec![0; program.reg_bits * BLOCKS],
            staged: Vec::new(),
            and_mask: vec![ALL; slots * BLOCKS],
            or_mask: vec![0; slots * BLOCKS],
            has_stuck: false,
            stuck: Vec::new(),
            flips: Vec::new(),
            ram_upsets: Vec::new(),
            cycle: 0,
            stats: generated.stats,
            kernel,
            program,
            netlist,
        };
        for j in 0..BLOCKS {
            engine.words[engine.program.one as usize * BLOCKS + j] = ALL;
        }
        engine.eval();
        Ok(engine)
    }

    /// The compiled schedule the kernel was generated from.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// How much word-lowering narrowing fired during codegen.
    #[must_use]
    pub fn codegen_stats(&self) -> CodegenStats {
        self.stats
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
        stage_lanes(&mut self.staged, bus, BLOCKS, lane, &[value]);
        Ok(())
    }

    /// Signed value of a bus in one lane.
    fn read_bus_lane(&self, bus: &Bus, lane: usize) -> i64 {
        let (blk, bit) = (lane / 64, lane % 64);
        let width = bus.width();
        let mut v = 0u64;
        for (i, &n) in bus.bits().iter().enumerate() {
            v |= ((self.words[n.index() * BLOCKS + blk] >> bit) & 1) << i;
        }
        sign_extend(v, width)
    }

    /// Signed values of a bus across all lanes, gathered bit-major: one
    /// word read per (bit, block) instead of one per (bit, lane) — this
    /// is the hot readback path of the throughput benchmark.
    fn read_bus_lanes(&self, bus: &Bus) -> Vec<i64> {
        let bits = bus.bits();
        let mut out = Vec::with_capacity(LANES);
        for blk in 0..BLOCKS {
            gather_lanes(bits.len(), |i| self.words[bits[i].index() * BLOCKS + blk], &mut out);
        }
        out
    }

    /// Writes one word index through the stuck-at clamp masks when
    /// `CLAMPED`.
    #[inline]
    fn store_idx<const CLAMPED: bool>(&mut self, idx: usize, v: u64) {
        self.words[idx] = if CLAMPED { (v & self.and_mask[idx]) | self.or_mask[idx] } else { v };
    }

    /// Applies staged input writes into the word file, keeping the
    /// staging list's capacity.
    fn apply_staged<const CLAMPED: bool>(&mut self) {
        for k in 0..self.staged.len() {
            let StagedWord { idx, mask, bits } = self.staged[k];
            let idx = idx as usize;
            self.store_idx::<CLAMPED>(idx, (self.words[idx] & !mask) | bits);
        }
        self.staged.clear();
    }

    /// One settle pass through the kernel.
    fn eval(&mut self) {
        if self.has_stuck {
            self.kernel.eval_clamped(&mut self.words, &self.ram, &self.and_mask, &self.or_mask);
        } else {
            self.kernel.eval(&mut self.words, &self.ram);
        }
    }

    /// One clock edge; identical ordering to the interpreter's
    /// (`CompiledEngine::step`): RAM upsets strike storage, registers
    /// capture settled D, transient flips hit the captured bits, RAM
    /// writes commit from settled values, then Q and staged inputs
    /// apply and the combinational pass settles.
    fn step(&mut self) {
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
                let base = self.ram_offsets[idx] + (addr * width + bit) * BLOCKS;
                for j in 0..BLOCKS {
                    self.ram[base + j] ^= ALL;
                }
            }
        }

        // 1. Capture register D from the settled state.
        self.kernel.capture(&self.words, &mut self.scratch);

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
                let base = (reg.offset + bit) * BLOCKS;
                for j in 0..BLOCKS {
                    self.scratch[base + j] ^= ALL;
                }
            }
        }

        // 1b. Commit RAM writes from the settled (pre-edge) values.
        self.kernel.ram_commit(&self.words, &mut self.ram);

        // 2. Q and staged inputs apply together.
        if self.has_stuck {
            self.kernel.commit_clamped(
                &mut self.words,
                &self.scratch,
                &self.and_mask,
                &self.or_mask,
            );
            self.apply_staged::<true>();
        } else {
            self.kernel.commit(&mut self.words, &self.scratch);
            self.apply_staged::<false>();
        }

        // 3. Settle.
        self.eval();
        self.cycle += 1;
    }

    /// Rebuilds the clamp masks from the stuck list.
    fn rebuild_masks(&mut self) {
        self.and_mask.iter_mut().for_each(|m| *m = ALL);
        self.or_mask.iter_mut().for_each(|m| *m = 0);
        for &(net, value) in &self.stuck {
            for j in 0..BLOCKS {
                let idx = net as usize * BLOCKS + j;
                if value {
                    self.or_mask[idx] = ALL;
                } else {
                    self.and_mask[idx] = 0;
                }
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

impl Engine for JitEngine {
    type Snapshot = JitSnapshot;

    fn from_netlist(netlist: Netlist) -> Result<Self> {
        JitEngine::new(netlist)
    }

    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            backend: "jit",
            lanes: LANES,
            activity_stats: false,
            glitch_model: false,
            divergence_detection: false,
            native_codegen: true,
            fault_stuck_at: true,
            fault_bit_flip: true,
            fault_ram_upset: true,
        }
    }

    fn set_input(&mut self, name: &str, value: i64) -> Result<()> {
        let bus = input_bus(&self.netlist, name, &[value])?;
        stage_broadcast(&mut self.staged, bus, BLOCKS, value);
        Ok(())
    }

    fn try_tick(&mut self) -> Result<()> {
        self.step();
        Ok(())
    }

    fn try_settle(&mut self) -> Result<()> {
        if self.has_stuck {
            self.apply_staged::<true>();
        } else {
            self.apply_staged::<false>();
        }
        self.eval();
        Ok(())
    }

    fn peek(&self, name: &str) -> Result<i64> {
        Engine::peek_lane(self, name, 0)
    }

    fn set_input_lanes(&mut self, name: &str, values: &[i64]) -> Result<()> {
        if values.is_empty() || values.len() > LANES {
            return Err(Error::FaultTarget {
                target: name.to_owned(),
                detail: format!("expected 1..={LANES} lane values, got {}", values.len()),
            });
        }
        let bus = input_bus(&self.netlist, name, values)?;
        stage_lanes(&mut self.staged, bus, BLOCKS, 0, values);
        Ok(())
    }

    fn peek_lane(&self, name: &str, lane: usize) -> Result<i64> {
        check_lane(lane)?;
        let port = self.netlist.port(name)?;
        Ok(self.read_bus_lane(&port.bus, lane))
    }

    fn peek_lanes(&self, name: &str) -> Result<Vec<i64>> {
        let port = self.netlist.port(name)?;
        Ok(self.read_bus_lanes(&port.bus))
    }

    fn snapshot(&self) -> JitSnapshot {
        JitSnapshot {
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

    fn restore(&mut self, snapshot: &JitSnapshot) -> Result<()> {
        if snapshot.nets != self.netlist.net_count()
            || snapshot.cells != self.netlist.cell_count()
            || snapshot.words.len() != self.words.len()
            || snapshot.ram.len() != self.ram.len()
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
                for j in 0..BLOCKS {
                    let idx = s as usize * BLOCKS + j;
                    self.words[idx] = (self.words[idx] & self.and_mask[idx]) | self.or_mask[idx];
                }
                self.eval();
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
        // Straight-line kernels cannot diverge; nothing to bound.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::engine::PortableSnapshot;
    use crate::sim::Simulator;

    /// Same fixture as the interpreter's test suite: every lowered
    /// cell class in one netlist.
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

    /// Drives the event-driven simulator and the jit engine in
    /// lockstep and compares the named output ports every cycle.
    fn lockstep(
        netlist: Netlist,
        inputs: &[(&str, i64, i64)],
        outputs: &[&str],
        ticks: usize,
        seed: u64,
        mut faults: impl FnMut(usize) -> Vec<FaultSpec>,
    ) {
        let mut sim = Simulator::new(netlist.clone()).unwrap();
        let mut eng = JitEngine::new(netlist).unwrap();
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
    fn snapshot_round_trips_through_bytes() {
        let mut eng = JitEngine::new(mixed_netlist()).unwrap();
        Engine::set_input(&mut eng, "x", -5).unwrap();
        Engine::set_input(&mut eng, "y", 77).unwrap();
        eng.try_tick().unwrap();
        eng.inject(&FaultSpec::BitFlip { register: "rs".into(), bit: 0, cycle: 9 }).unwrap();
        let snap = eng.snapshot();
        let decoded = JitSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap);

        // Diverge, restore, and check both engines evolve identically.
        let mut other = JitEngine::new(mixed_netlist()).unwrap();
        Engine::set_input(&mut other, "x", 100).unwrap();
        other.try_tick().unwrap();
        other.restore(&decoded).unwrap();
        for _ in 0..12 {
            eng.try_tick().unwrap();
            other.try_tick().unwrap();
            assert_eq!(Engine::peek(&eng, "s").unwrap(), Engine::peek(&other, "s").unwrap());
        }
        assert_eq!(eng.cycle(), other.cycle());
    }

    #[test]
    fn snapshot_rejects_other_netlists_and_bad_bytes() {
        let eng = JitEngine::new(mixed_netlist()).unwrap();
        let snap = eng.snapshot();
        let mut other = JitEngine::new(ram_netlist()).unwrap();
        assert!(matches!(other.restore(&snap), Err(Error::SnapshotMismatch { .. })));
        assert!(matches!(
            JitSnapshot::from_bytes(&[0xff, 0x01]),
            Err(Error::SnapshotDecode { .. })
        ));
        let mut truncated = snap.to_bytes();
        truncated.truncate(truncated.len() - 3);
        assert!(matches!(JitSnapshot::from_bytes(&truncated), Err(Error::SnapshotDecode { .. })));
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
