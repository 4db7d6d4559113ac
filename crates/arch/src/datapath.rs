//! The lifting 1-D DWT datapath generator (Figure 5 of the paper).
//!
//! One parametric generator produces all five designs of Section 3. The
//! datapath accepts one even/odd sample pair per clock and emits one
//! low/high coefficient pair per clock after a fixed latency. Its four
//! lifting stages follow Figure 3; each constant multiplier is built
//! according to the chosen [`MultiplierImpl`] and [`AdderStyle`], and
//! pipeline registers are placed according to `pipelined_operators`:
//!
//! * `false` — one register layer per lifting stage (Figure 5): the
//!   multiplier arithmetic is combinational within the stage. The
//!   resulting latency is **8 cycles**, the paper's "8 pipeline stages".
//! * `true` — a register after *every* adder (Figure 8(b)): "each
//!   complete sum operation is done at just one pipeline stage". With
//!   the accumulation operand entering the partial-product array
//!   pre-shifted by 8 bits (exactly as Figure 7 draws `r3`), the longest
//!   path crosses **21 register layers**, the paper's 21 stages.
//!
//! Register widths follow the Section 3.1 sizing (see
//! [`dwt_core::bitwidth::paper`]); intermediate partial sums inside the
//! multipliers are sized by interval analysis of their own operands.
//! Three multiplier structures are available: shift-add plans (the
//! paper's Designs 2–5), generic ripple-row arrays (Design 1 as a
//! behavioral `*` elaborates), and generic carry-save arrays (the
//! ablation behind the Design 1 power analysis in EXPERIMENTS.md).

use dwt_core::bitwidth::paper;
use dwt_core::coeffs::LiftingConstants;
use dwt_core::fixed::bits_for_range;
use dwt_rtl::builder::NetlistBuilder;
use dwt_rtl::net::Bus;
use dwt_rtl::netlist::Netlist;

use crate::error::{Error, Result};
use crate::shift_add::{Recoding, ShiftAddPlan};

/// How the six constant multipliers are implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiplierImpl {
    /// Generic integer array multipliers (Design 1, Section 3.1): one
    /// partial-product row per constant bit, zero rows included,
    /// accumulated as ripple rows, as a behavioral `*` elaborates.
    GenericArray,
    /// Generic multipliers with carry-save (Wallace) row reduction and a
    /// single final carry-propagate adder — the structure a multiplier
    /// megafunction with internal compression uses. Same generic area
    /// class as [`MultiplierImpl::GenericArray`] but far less internal
    /// glitching (the ablation behind the Design 1 power analysis).
    GenericCarrySave,
    /// Shift-add decomposition of the constant (Sections 3.2–3.5) under
    /// the given recoding.
    ShiftAdd(Recoding),
}

/// How adders are realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdderStyle {
    /// Behavioral `+` mapped on the fast carry chain (1 LE/bit).
    CarryChain,
    /// Structural full-adder composition (2 LEs/bit, Section 3.4).
    Ripple,
}

/// Soft-error hardening applied to the pipeline registers.
///
/// Both schemes act at the single point every datapath register is
/// created (`Ctx::reg`), so they compose with any [`DatapathSpec`]
/// and the FPGA mapper prices their overhead with the ordinary cell
/// vocabulary — no special cases in the area model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Hardening {
    /// Plain registers (the paper's designs).
    #[default]
    None,
    /// Triple modular redundancy: every register is instantiated three
    /// times and a per-bit majority LUT votes the replicas, so any
    /// single register-bit upset is masked outright. Latency is
    /// unchanged; area roughly triples the flip-flop count and adds one
    /// LUT per register bit.
    Tmr,
    /// Even-parity checking: each register carries one extra parity
    /// bit, and a checker LUT tree recomputes the parity on the Q side.
    /// Mismatches from all registers are OR-reduced onto a
    /// `fault_detect` output port. Upsets are *detected*, not masked —
    /// the cheap option for systems that can retry a tile.
    Parity,
}

/// LUT mask for a 3-input majority vote (inputs a, b, c → index
/// `a | b<<1 | c<<2`).
const MAJ3: u16 = 0b1110_1000;
/// LUT mask for a 2-input XOR.
const XOR2: u16 = 0b0110;

/// Full specification of one datapath variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatapathSpec {
    /// Multiplier implementation.
    pub multiplier: MultiplierImpl,
    /// Adder implementation.
    pub adder_style: AdderStyle,
    /// Whether every adder gets its own pipeline stage (Designs 3/5).
    pub pipelined_operators: bool,
    /// The Table 1 constants to use.
    pub constants: LiftingConstants,
    /// Input sample precision in bits (the paper's designs use 8; wider
    /// datapaths scale every register class accordingly).
    pub input_bits: u32,
}

/// A generated datapath with its architectural metadata.
///
/// Ports: inputs `in_even`/`in_odd` (8-bit), outputs `low` (10-bit) and
/// `high` (9-bit). At cycle `t + latency` the outputs hold the
/// coefficients of the pair accepted at cycle `t`.
#[derive(Debug)]
pub struct BuiltDatapath {
    /// The synthesizable netlist.
    pub netlist: Netlist,
    /// Input-to-output latency in cycles — the pipeline depth.
    pub latency: usize,
}

/// A bus annotated with its stream timestamp and value range.
///
/// `tau` counts the cycles since the sample this bus carries entered the
/// datapath, so two signals may be combined exactly when their `tau`
/// match; `range` is the inclusive value interval used for width sizing.
#[derive(Debug, Clone)]
pub(crate) struct Sig {
    pub(crate) bus: Bus,
    pub(crate) tau: u32,
    pub(crate) range: (i64, i64),
}

/// A partial-product node inside a multiplier: value = `±(bus << shift)`.
#[derive(Debug, Clone)]
struct Node {
    sig: Sig,
    shift: u32,
    negate: bool,
}

pub(crate) struct Ctx {
    pub(crate) b: NetlistBuilder,
    pub(crate) style: AdderStyle,
    pub(crate) pipelined: bool,
    /// Whether shifted-operand adders skip their pass-through low bits
    /// (constant propagation a synthesizer applies to explicit shift-add
    /// code, but not inside an opaque generic multiplier).
    pub(crate) optimize_shifts: bool,
    pub(crate) seq: u32,
    /// Register hardening scheme applied by [`Ctx::reg`].
    pub(crate) hardening: Hardening,
    /// Per-register parity-mismatch nets, OR-reduced onto the
    /// `fault_detect` port when the datapath is sealed.
    pub(crate) detect: Vec<dwt_rtl::net::NetId>,
}

impl Ctx {
    pub(crate) fn name(&mut self, stem: &str) -> String {
        self.seq += 1;
        format!("{stem}_{}", self.seq)
    }

    pub(crate) fn width_for(range: (i64, i64)) -> usize {
        bits_for_range(range.0, range.1) as usize
    }

    /// One register layer, hardened per [`Ctx::hardening`]. All datapath
    /// registers flow through here, so a hardening scheme covers the
    /// whole machine by construction.
    pub(crate) fn reg(&mut self, stem: &str, s: &Sig) -> Result<Sig> {
        let name = self.name(stem);
        let bus = match self.hardening {
            Hardening::None => self.b.register(&name, &s.bus)?,
            Hardening::Tmr => {
                let q0 = self.b.register(&format!("{name}_tmr0"), &s.bus)?;
                let q1 = self.b.register(&format!("{name}_tmr1"), &s.bus)?;
                let q2 = self.b.register(&format!("{name}_tmr2"), &s.bus)?;
                let mut voted = Vec::with_capacity(s.bus.width());
                for i in 0..s.bus.width() {
                    voted.push(self.b.lut(
                        &format!("{name}_vote{i}"),
                        &[q0.bit(i), q1.bit(i), q2.bit(i)],
                        MAJ3,
                    )?);
                }
                Bus::new(voted).map_err(Error::Rtl)?
            }
            Hardening::Parity => {
                let parity = self.b.xor_tree(&format!("{name}_pgen"), s.bus.bits())?;
                let mut d_bits = s.bus.bits().to_vec();
                d_bits.push(parity);
                let ext = Bus::new(d_bits).map_err(Error::Rtl)?;
                let q = self.b.register(&name, &ext)?;
                let data = Bus::new(q.bits()[..s.bus.width()].to_vec()).map_err(Error::Rtl)?;
                let recomputed = self.b.xor_tree(&format!("{name}_pchk"), data.bits())?;
                let mismatch = self.b.lut(
                    &format!("{name}_perr"),
                    &[recomputed, q.bit(s.bus.width())],
                    XOR2,
                )?;
                self.detect.push(mismatch);
                data
            }
        };
        Ok(Sig { bus, tau: s.tau + 1, range: s.range })
    }

    /// `n` register layers.
    pub(crate) fn delay(&mut self, stem: &str, s: &Sig, n: u32) -> Result<Sig> {
        let mut cur = s.clone();
        for _ in 0..n {
            cur = self.reg(stem, &cur)?;
        }
        Ok(cur)
    }

    /// Delays `s` until its `tau` reaches `tau` (no-op when equal).
    pub(crate) fn align_to(&mut self, stem: &str, s: &Sig, tau: u32) -> Result<Sig> {
        assert!(tau >= s.tau, "cannot un-delay {stem}: {} > {tau}", s.tau);
        self.delay(stem, s, tau - s.tau)
    }

    /// An adder (or subtractor) in the configured style, sized from the
    /// operand ranges. Operands must be time-aligned.
    pub(crate) fn add(&mut self, stem: &str, a: &Sig, b: &Sig, sub: bool) -> Result<Sig> {
        assert_eq!(a.tau, b.tau, "misaligned operands at {stem}");
        let range = if sub {
            (a.range.0 - b.range.1, a.range.1 - b.range.0)
        } else {
            (a.range.0 + b.range.0, a.range.1 + b.range.1)
        };
        let width = Self::width_for(range);
        let name = self.name(stem);
        let bus = match (self.style, sub) {
            (AdderStyle::CarryChain, false) => self.b.carry_add(&name, &a.bus, &b.bus, width)?,
            (AdderStyle::CarryChain, true) => self.b.carry_sub(&name, &a.bus, &b.bus, width)?,
            (AdderStyle::Ripple, false) => self.b.ripple_add(&name, &a.bus, &b.bus, width)?,
            (AdderStyle::Ripple, true) => self.b.ripple_sub(&name, &a.bus, &b.bus, width)?,
        };
        Ok(Sig { bus, tau: a.tau, range })
    }

    /// Combines two multiplier nodes into one: the common low-order zero
    /// bits stay as wiring and only the active spans go through an adder,
    /// the width optimisation a synthesizer applies to shifted operands.
    fn combine(&mut self, stem: &str, x: &Node, y: &Node) -> Result<Node> {
        // Ensure the negated node (if any) is on the right so a single
        // subtractor suffices; two negated nodes add and stay negated.
        let (l, r, sub, negate) = match (x.negate, y.negate) {
            (false, false) => (x, y, false, false),
            (false, true) => (x, y, true, false),
            (true, false) => (y, x, true, false),
            (true, true) => (x, y, false, true),
        };
        let s = l.shift.min(r.shift);
        let (dl, dr) = (l.shift - s, r.shift - s);
        let sig = if dl == 0 {
            // l is the unshifted base: l ± (r << dr).
            self.add_shifted(stem, &l.sig, &r.sig, dr, sub)?
        } else if !sub {
            // Addition commutes: use r as the base.
            self.add_shifted(stem, &r.sig, &l.sig, dl, false)?
        } else {
            // (l << dl) - r: the minuend is the shifted one, so the low
            // bits borrow and nothing passes through; full width.
            let li = self.lift_shift(&l.sig, dl)?;
            self.add(stem, &li, &r.sig, true)?
        };
        Ok(Node { sig, shift: s, negate })
    }

    /// Computes `l ± (r << k)` exactly. With shift optimisation enabled,
    /// the low `k` result bits are `l`'s own bits (wiring) and the adder
    /// covers only `floor(l / 2^k) ± r`, since the shifted operand
    /// contributes nothing (and propagates no carry) below bit `k`.
    fn add_shifted(&mut self, stem: &str, l: &Sig, r: &Sig, k: u32, sub: bool) -> Result<Sig> {
        if k == 0 || !self.optimize_shifts {
            let ri = self.lift_shift(r, k)?;
            return self.add(stem, l, &ri, sub);
        }
        assert_eq!(l.tau, r.tau, "misaligned operands at {stem}");
        let k = k as usize;
        // Upper part: floor(l / 2^k) ± r.
        let l_hi_bus = self.b.shift_right_arith(&l.bus, k)?;
        let l_hi = Sig { bus: l_hi_bus, tau: l.tau, range: (l.range.0 >> k, l.range.1 >> k) };
        let upper = self.add(stem, &l_hi, r, sub)?;
        // Result = concat(l[0..k], upper).
        let mut bits: Vec<dwt_rtl::net::NetId> = Vec::with_capacity(k + upper.bus.width());
        for i in 0..k {
            bits.push(if i < l.bus.width() { l.bus.bit(i) } else { l.bus.msb() });
        }
        bits.extend_from_slice(upper.bus.bits());
        let bus = Bus::new(bits).map_err(Error::Rtl)?;
        let range = if sub {
            (l.range.0 - (r.range.1 << k), l.range.1 - (r.range.0 << k))
        } else {
            (l.range.0 + (r.range.0 << k), l.range.1 + (r.range.1 << k))
        };
        Ok(Sig { bus, tau: l.tau, range })
    }

    /// Applies a left shift inside a node (wiring only).
    fn lift_shift(&mut self, s: &Sig, k: u32) -> Result<Sig> {
        if k == 0 {
            return Ok(s.clone());
        }
        let bus = self.b.shift_left(&s.bus, k as usize)?;
        Ok(Sig { bus, tau: s.tau, range: (s.range.0 << k, s.range.1 << k) })
    }

    /// Reduces nodes to a single node as a balanced tree — the structure
    /// a synthesizer builds for a behavioral sum expression. When
    /// operators are pipelined, every tree level is registered (with
    /// balance registers on odd-one-out nodes), realising "one sum
    /// operation per pipeline stage".
    fn reduce(&mut self, stem: &str, mut nodes: Vec<Node>) -> Result<Node> {
        assert!(!nodes.is_empty(), "no partial products at {stem}");
        while nodes.len() > 1 {
            // Pair negated nodes with positive ones where possible.
            nodes.sort_by_key(|n| n.negate);
            let mut next = Vec::with_capacity(nodes.len().div_ceil(2));
            let mut iter = nodes.into_iter();
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => {
                        let c = self.combine(stem, &a, &b)?;
                        if self.pipelined {
                            let sig = self.reg(&format!("{stem}_p"), &c.sig)?;
                            next.push(Node { sig, ..c });
                        } else {
                            next.push(c);
                        }
                    }
                    None => {
                        if self.pipelined {
                            let sig = self.reg(&format!("{stem}_bal"), &a.sig)?;
                            next.push(Node { sig, ..a });
                        } else {
                            next.push(a);
                        }
                    }
                }
            }
            nodes = next;
        }
        Ok(nodes.remove(0))
    }

    /// Reduces nodes as a linear chain — the fixed internal structure of
    /// a generic array multiplier (row after row). With operator
    /// pipelining, a register follows every row (the `lpm_pipeline`
    /// option of the megafunction), and the pending operands are delayed
    /// alongside the accumulator (shared per distinct bus, as the real
    /// pipelined array shares its multiplicand delay line).
    fn reduce_chain(&mut self, stem: &str, mut nodes: Vec<Node>) -> Result<Node> {
        assert!(!nodes.is_empty(), "no partial products at {stem}");
        nodes.sort_by_key(|n| n.negate);
        let mut acc = nodes.remove(0);
        assert!(!acc.negate, "all-negative plans are not supported");
        let mut rest = nodes;
        while !rest.is_empty() {
            let n = rest.remove(0);
            acc = self.combine(stem, &acc, &n)?;
            if self.pipelined {
                let sig = self.reg(&format!("{stem}_row_r"), &acc.sig)?;
                acc = Node { sig, ..acc };
                let mut cache: Vec<(Bus, Sig)> = Vec::new();
                for node in &mut rest {
                    if let Some((_, s)) = cache.iter().find(|(b, _)| *b == node.sig.bus) {
                        node.sig = s.clone();
                    } else {
                        let s = self.reg(&format!("{stem}_dly"), &node.sig)?;
                        cache.push((node.sig.bus.clone(), s.clone()));
                        node.sig = s;
                    }
                }
            }
        }
        Ok(acc)
    }

    /// Multiply-accumulate block: computes `(coeff * x + acc) >> 8`
    /// (`acc` entering the array pre-shifted by 8, as Figure 7 draws
    /// `r3`), or a bare `(coeff * x) >> 8` when `acc` is `None`.
    ///
    /// Returns the result truncated to `out_range`'s width — the
    /// register sizing of Section 3.1.
    pub(crate) fn mac(
        &mut self,
        stem: &str,
        x: &Sig,
        plan: &ShiftAddPlan,
        acc: Option<&Sig>,
        out_range: (i64, i64),
    ) -> Result<Sig> {
        self.mac_signed(stem, x, plan, acc, out_range, false)
    }

    /// As [`Ctx::mac`] but optionally computing `(acc - coeff*x) >> 8`
    /// (every partial product negated) — the inverse lifting steps.
    pub(crate) fn mac_signed(
        &mut self,
        stem: &str,
        x: &Sig,
        plan: &ShiftAddPlan,
        acc: Option<&Sig>,
        out_range: (i64, i64),
        negate_product: bool,
    ) -> Result<Sig> {
        let mut leaves: Vec<Node> = Vec::new();

        // Shared subexpression (β reuse): y = x + (x << 1).
        let shared = if plan.shared_shift().is_some() {
            let x1 = self.lift_shift(x, 1)?;
            let y = self.add(&format!("{stem}_shared"), x, &x1, false)?;
            let y = if self.pipelined { self.reg(&format!("{stem}_shared_r"), &y)? } else { y };
            Some(y)
        } else {
            None
        };

        for t in plan.terms() {
            let base = if t.uses_shared {
                shared.as_ref().expect("shared term without shared value")
            } else {
                x
            };
            leaves.push(Node {
                sig: base.clone(),
                shift: t.shift,
                negate: t.negate ^ negate_product,
            });
        }
        if let Some(acc) = acc {
            leaves.push(Node { sig: acc.clone(), shift: 8, negate: false });
        }
        // When a shared subexpression was registered, the plain-x leaves
        // lag one layer behind; align them.
        if let Some(y) = &shared {
            let target = y.tau;
            for leaf in &mut leaves {
                if leaf.sig.tau < target {
                    leaf.sig = self.align_to(&format!("{stem}_lag"), &leaf.sig, target)?;
                }
            }
        }

        let product = self.reduce(stem, leaves)?;
        assert!(!product.negate, "multiplier result must be positive-form");

        // Value = bus << shift; apply the >>8 adjustment in wiring.
        let sig = product.sig;
        let (bus, range) = if product.shift >= 8 {
            let k = product.shift - 8;
            let bus = self.b.shift_left(&sig.bus, k as usize)?;
            (bus, (sig.range.0 << k, sig.range.1 << k))
        } else {
            let k = (8 - product.shift) as usize;
            let bus = self.b.shift_right_arith(&sig.bus, k)?;
            (bus, (sig.range.0 >> k, sig.range.1 >> k))
        };
        let _ = range; // the architectural width below overrides it
        let width = Self::width_for(out_range);
        let bus = self.b.resize(&bus, width)?;
        Ok(Sig { bus, tau: sig.tau, range: out_range })
    }

    /// Carry-save multiply-accumulate: the partial-product rows (zero
    /// rows included) and the pre-shifted accumulator are reduced with
    /// 3:2 compressors (structural full adders, no carry propagation)
    /// down to two vectors, which one final carry-propagate adder sums.
    /// The sign row (bit 9 of a negative constant) is handled by a
    /// final subtraction.
    pub(crate) fn mac_carry_save(
        &mut self,
        stem: &str,
        x: &Sig,
        coeff: i64,
        acc: Option<&Sig>,
        out_range: (i64, i64),
    ) -> Result<Sig> {
        use dwt_rtl::net::NetId;
        let gnd = self.b.gnd()?;

        // Product width: enough for |coeff|·x plus the accumulator.
        let mag = coeff.unsigned_abs() as i64;
        let mut pre_min = -mag * x.range.1.max(-x.range.0);
        let mut pre_max = -pre_min;
        if let Some(a) = acc {
            pre_min += a.range.0 << 8;
            pre_max += a.range.1 << 8;
        }
        let width = Self::width_for((pre_min.min(-1), pre_max.max(1))) + 1;

        // Column bit matrix.
        let mut cols: Vec<Vec<NetId>> = vec![Vec::new(); width];
        let push_row = |cols: &mut Vec<Vec<NetId>>, bus: &Bus, shift: usize| {
            for (i, col) in cols.iter_mut().skip(shift).enumerate() {
                let bit = if i < bus.width() { bus.bit(i) } else { bus.msb() };
                col.push(bit);
            }
        };
        let bits = (coeff as u64) & 0x3ff;
        for j in 0..9usize {
            if bits & (1 << j) != 0 {
                push_row(&mut cols, &x.bus, j);
            } else {
                // A generic array keeps the zero row's compressor slots.
                for col in cols.iter_mut().skip(j) {
                    col.push(gnd);
                }
            }
        }
        if let Some(a) = acc {
            assert_eq!(a.tau, x.tau, "misaligned accumulator at {stem}");
            push_row(&mut cols, &a.bus, 8);
        }

        // Wallace reduction with full adders until every column holds at
        // most two bits.
        let mut level = 0;
        loop {
            let max_height = cols.iter().map(Vec::len).max().unwrap_or(0);
            if max_height <= 2 {
                break;
            }
            level += 1;
            let mut next: Vec<Vec<NetId>> = vec![Vec::new(); width];
            for c in 0..width {
                let mut col = std::mem::take(&mut cols[c]);
                while col.len() >= 3 {
                    let (a, b2, ci) = (col.pop().unwrap(), col.pop().unwrap(), col.pop().unwrap());
                    let sum = self.b.alloc_net()?;
                    let cout = self.b.alloc_net()?;
                    self.b.full_adder(&format!("{stem}_csa{level}_{c}"), a, b2, ci, sum, cout)?;
                    next[c].push(sum);
                    if c + 1 < width {
                        next[c + 1].push(cout);
                    }
                }
                next[c].append(&mut col);
            }
            cols = next;
        }

        // Final carry-propagate add of the two remaining vectors.
        let vec_a = Bus::new((0..width).map(|c| cols[c].first().copied().unwrap_or(gnd)).collect())
            .map_err(Error::Rtl)?;
        let vec_b = Bus::new((0..width).map(|c| cols[c].get(1).copied().unwrap_or(gnd)).collect())
            .map_err(Error::Rtl)?;
        let mut product_bus = self.b.carry_add(&format!("{stem}_cpa"), &vec_a, &vec_b, width)?;
        // Subtract the sign row for a negative constant.
        if bits & (1 << 9) != 0 {
            let shifted = self.b.shift_left(&x.bus, 9)?;
            product_bus =
                self.b.carry_sub(&format!("{stem}_sign"), &product_bus, &shifted, width)?;
        }
        let adjusted = self.b.shift_right_arith(&product_bus, 8)?;
        let out_width = Self::width_for(out_range);
        let bus = self.b.resize(&adjusted, out_width)?;
        Ok(Sig { bus, tau: x.tau, range: out_range })
    }

    /// Generic-array multiply-accumulate (Design 1): one row per
    /// constant bit, zero rows included, accumulated as a combinational
    /// row chain exactly like an elaborated behavioral `*`.
    fn mac_generic(
        &mut self,
        stem: &str,
        x: &Sig,
        coeff: i64,
        acc: Option<&Sig>,
        out_range: (i64, i64),
    ) -> Result<Sig> {
        let zero = {
            let bus = self.b.constant(0, 2)?;
            Sig { bus, tau: x.tau, range: (0, 0) }
        };
        let mut nodes: Vec<Node> = Vec::new();
        let bits = (coeff as u64) & 0x3ff;
        for j in 0..10u32 {
            let set = bits & (1 << j) != 0;
            let negate = j == 9 && set; // two's-complement sign row
            let sig = if set { x.clone() } else { zero.clone() };
            nodes.push(Node { sig, shift: j, negate });
        }
        if let Some(acc) = acc {
            nodes.push(Node { sig: acc.clone(), shift: 8, negate: false });
        }
        // A generic array is a row chain in bit order; the accumulation
        // input enters first. As in a real array multiplier, each row
        // adder spans the operand width and the low product bits drop
        // out of the array as wiring — but every row (zero or not) keeps
        // its adder, because the array does not see the constant.
        nodes.rotate_right(1);
        let product = self.reduce_chain(stem, nodes)?;
        assert!(!product.negate);
        let sig = product.sig;
        let bus = if product.shift >= 8 {
            self.b.shift_left(&sig.bus, (product.shift - 8) as usize)?
        } else {
            self.b.shift_right_arith(&sig.bus, (8 - product.shift) as usize)?
        };
        let width = Self::width_for(out_range);
        let bus = self.b.resize(&bus, width)?;
        Ok(Sig { bus, tau: sig.tau, range: out_range })
    }
}

fn double(r: (i64, i64)) -> (i64, i64) {
    (r.0 * 2, r.1 * 2)
}

/// Which multiply-accumulate structure a stage instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MacKind {
    ShiftAdd,
    GenericRipple,
    GenericCarrySave,
}

impl MacKind {
    fn apply(
        self,
        ctx: &mut Ctx,
        stem: &str,
        x: &Sig,
        plan: &ShiftAddPlan,
        acc: Option<&Sig>,
        out_range: (i64, i64),
    ) -> Result<Sig> {
        match self {
            MacKind::ShiftAdd => ctx.mac(stem, x, plan, acc, out_range),
            MacKind::GenericRipple => {
                ctx.mac_generic(stem, x, i64::from(plan.coeff().raw()), acc, out_range)
            }
            MacKind::GenericCarrySave => {
                ctx.mac_carry_save(stem, x, i64::from(plan.coeff().raw()), acc, out_range)
            }
        }
    }
}

/// Builds the datapath described by `spec`.
///
/// # Errors
///
/// Propagates netlist-construction failures (which indicate a generator
/// bug rather than a user error).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dwt_arch::Error> {
/// use dwt_arch::datapath::{build_datapath, AdderStyle, DatapathSpec, MultiplierImpl};
/// use dwt_arch::shift_add::Recoding;
/// use dwt_core::coeffs::LiftingConstants;
///
/// // Design 2: behavioral shift-add, stage pipelining only.
/// let spec = DatapathSpec {
///     multiplier: MultiplierImpl::ShiftAdd(Recoding::BinaryReuse),
///     adder_style: AdderStyle::CarryChain,
///     pipelined_operators: false,
///     constants: LiftingConstants::default(),
///     input_bits: 8,
/// };
/// let built = build_datapath(&spec)?;
/// assert_eq!(built.latency, 8); // the paper's 8 pipeline stages
/// # Ok(())
/// # }
/// ```
pub fn build_datapath(spec: &DatapathSpec) -> Result<BuiltDatapath> {
    build_datapath_hardened(spec, Hardening::None)
}

/// As [`build_datapath`], with soft-error hardening applied to every
/// pipeline register.
///
/// With [`Hardening::Parity`] the netlist gains a 1-bit `fault_detect`
/// output that rises the cycle after any register captured a word whose
/// stored parity disagrees with its data — i.e. the cycle an upset
/// becomes visible.
///
/// # Errors
///
/// Propagates netlist-construction failures (which indicate a generator
/// bug rather than a user error).
pub fn build_datapath_hardened(spec: &DatapathSpec, hardening: Hardening) -> Result<BuiltDatapath> {
    assert!(
        (8..=16).contains(&spec.input_bits),
        "input precision {} outside 8..=16",
        spec.input_bits
    );
    // The datapath is linear, so every Section 3.1 register range scales
    // with the input magnitude.
    let scale = 1i64 << (spec.input_bits - 8);
    let ranges = paper();
    let c = &spec.constants;
    let mut ctx = Ctx {
        b: NetlistBuilder::new(),
        style: spec.adder_style,
        pipelined: spec.pipelined_operators,
        optimize_shifts: true,
        seq: 0,
        hardening,
        detect: Vec::new(),
    };

    let plan = |coeff| -> ShiftAddPlan {
        match spec.multiplier {
            MultiplierImpl::ShiftAdd(recoding) => {
                // The β reuse trick trades a stage for an adder; in the
                // fully pipelined designs the paper keeps one sum per
                // stage, so reuse only applies without operator
                // pipelining.
                let r = if spec.pipelined_operators && recoding == Recoding::BinaryReuse {
                    Recoding::Binary
                } else {
                    recoding
                };
                ShiftAddPlan::new(coeff, r)
            }
            MultiplierImpl::GenericArray | MultiplierImpl::GenericCarrySave => {
                ShiftAddPlan::new(coeff, Recoding::Binary)
            }
        }
    };
    let generic =
        matches!(spec.multiplier, MultiplierImpl::GenericArray | MultiplierImpl::GenericCarrySave);
    let carry_save = matches!(spec.multiplier, MultiplierImpl::GenericCarrySave);

    // --- Input registers -------------------------------------------------
    let in_even = ctx.b.input("in_even", spec.input_bits as usize)?;
    let in_odd = ctx.b.input("in_odd", spec.input_bits as usize)?;
    let range_of = |r: dwt_core::bitwidth::NodeRange| (r.min * scale, r.max * scale);
    let input_range = range_of(ranges.input);
    let se0 = Sig { bus: in_even, tau: 0, range: input_range };
    let so0 = Sig { bus: in_odd, tau: 0, range: input_range };
    let se = ctx.reg("r_in_even", &se0)?; // r0
    let so = ctx.reg("r_in_odd", &so0)?; // r1

    // --- Helper closures for the two stage shapes ------------------------
    // Predict stage (α, γ): d' = d + (coeff·(s[m] + s[m+1]) + 0) >> 8.
    // Consumes the *next* even sample, so the even flow gains one sample
    // of delay; returns (d_next, s_pass) time-aligned with each other.
    fn predict(
        ctx: &mut Ctx,
        stem: &str,
        s_cur: &Sig,
        d_cur: &Sig,
        plan: &ShiftAddPlan,
        mac_kind: MacKind,
        out_range: (i64, i64),
    ) -> Result<(Sig, Sig)> {
        let s_prev = ctx.reg(&format!("{stem}_sprev"), s_cur)?;
        // Pair adder: s[m] + s[m+1]; the result carries index m, one
        // sample older than s_cur, so its tau is s_prev's.
        let pair_range = double(s_cur.range);
        let width = Ctx::width_for(pair_range);
        let name = ctx.name(&format!("{stem}_pair"));
        let pair_bus = match ctx.style {
            AdderStyle::CarryChain => ctx.b.carry_add(&name, &s_cur.bus, &s_prev.bus, width)?,
            AdderStyle::Ripple => ctx.b.ripple_add(&name, &s_cur.bus, &s_prev.bus, width)?,
        };
        let mut pair = Sig { bus: pair_bus, tau: s_prev.tau, range: pair_range };
        if ctx.pipelined {
            pair = ctx.reg(&format!("{stem}_pair_r"), &pair)?;
        }
        let d_in = ctx.align_to(&format!("{stem}_dal"), d_cur, pair.tau)?;
        let mut d_next = mac_kind.apply(ctx, stem, &pair, plan, Some(&d_in), out_range)?;
        if !ctx.pipelined {
            d_next = ctx.reg(&format!("{stem}_out"), &d_next)?;
        }
        // The even flow continues from s[m] (= s_prev), left at its own
        // tau; consumers align it as late as possible so no dead delay
        // chains are generated.
        Ok((d_next, s_prev))
    }

    // Update stage (β, δ): s' = s + (coeff·(d[m-1] + d[m]) + 0) >> 8.
    // Uses the *previous* odd-flow sample: no index shift.
    fn update(
        ctx: &mut Ctx,
        stem: &str,
        d_cur: &Sig,
        s_cur: &Sig,
        plan: &ShiftAddPlan,
        mac_kind: MacKind,
        out_range: (i64, i64),
    ) -> Result<Sig> {
        let d_prev = ctx.reg(&format!("{stem}_dprev"), d_cur)?;
        // d[m] + d[m-1]: d_cur carries index m when d_prev carries m-1;
        // combinational sum keeps d_cur's tau... but the adder inputs
        // must be physical buses sampled the same cycle, which they are;
        // the result is indexed like d_cur.
        let pair_range = double(d_cur.range);
        let width = Ctx::width_for(pair_range);
        let name = ctx.name(&format!("{stem}_pair"));
        let pair_bus = match ctx.style {
            AdderStyle::CarryChain => ctx.b.carry_add(&name, &d_cur.bus, &d_prev.bus, width)?,
            AdderStyle::Ripple => ctx.b.ripple_add(&name, &d_cur.bus, &d_prev.bus, width)?,
        };
        let mut pair = Sig { bus: pair_bus, tau: d_cur.tau, range: pair_range };
        if ctx.pipelined {
            pair = ctx.reg(&format!("{stem}_pair_r"), &pair)?;
        }
        let s_in = ctx.align_to(&format!("{stem}_sal"), s_cur, pair.tau)?;
        let mut s_next = mac_kind.apply(ctx, stem, &pair, plan, Some(&s_in), out_range)?;
        if !ctx.pipelined {
            s_next = ctx.reg(&format!("{stem}_out"), &s_next)?;
        }
        Ok(s_next)
    }

    // --- The four lifting stages -----------------------------------------
    let mac_kind = if carry_save {
        MacKind::GenericCarrySave
    } else if generic {
        MacKind::GenericRipple
    } else {
        MacKind::ShiftAdd
    };
    let (d1, s0p) = predict(
        &mut ctx,
        "alpha",
        &se,
        &so,
        &plan(c.alpha),
        mac_kind,
        range_of(ranges.after_alpha),
    )?;
    let s1 =
        update(&mut ctx, "beta", &d1, &s0p, &plan(c.beta), mac_kind, range_of(ranges.after_beta))?;
    let (d2, s1p) = predict(
        &mut ctx,
        "gamma",
        &s1,
        &d1,
        &plan(c.gamma),
        mac_kind,
        range_of(ranges.after_gamma),
    )?;
    let s2 = update(
        &mut ctx,
        "delta",
        &d2,
        &s1p,
        &plan(c.delta),
        mac_kind,
        range_of(ranges.after_delta),
    )?;

    // --- Output scaling ---------------------------------------------------
    let mut low = mac_kind.apply(
        &mut ctx,
        "inv_k",
        &s2,
        &plan(c.inv_k),
        None,
        range_of(ranges.low_output),
    )?;
    let mut high = mac_kind.apply(
        &mut ctx,
        "minus_k",
        &d2,
        &plan(c.minus_k),
        None,
        range_of(ranges.high_output),
    )?;
    if !ctx.pipelined {
        low = ctx.reg("low_out", &low)?;
        high = ctx.reg("high_out", &high)?;
    }
    // Align both outputs to the same latency.
    let tau = low.tau.max(high.tau);
    let low = ctx.align_to("low_bal", &low, tau)?;
    let high = ctx.align_to("high_bal", &high, tau)?;

    ctx.b.output("low", &low.bus)?;
    ctx.b.output("high", &high.bus)?;
    if !ctx.detect.is_empty() {
        let flag = ctx.b.or_tree("fault_detect_or", &ctx.detect.clone())?;
        let flag_bus = Bus::new(vec![flag]).map_err(Error::Rtl)?;
        ctx.b.output("fault_detect", &flag_bus)?;
    }

    let netlist = ctx.b.finish().map_err(Error::Rtl)?;
    Ok(BuiltDatapath { netlist, latency: tau as usize })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(multiplier: MultiplierImpl, adder_style: AdderStyle, pipelined: bool) -> DatapathSpec {
        DatapathSpec {
            multiplier,
            adder_style,
            pipelined_operators: pipelined,
            constants: LiftingConstants::default(),
            input_bits: 8,
        }
    }

    #[test]
    fn stage_pipelined_latency_is_8() {
        for (m, a) in [
            (MultiplierImpl::GenericArray, AdderStyle::CarryChain),
            (MultiplierImpl::ShiftAdd(Recoding::BinaryReuse), AdderStyle::CarryChain),
            (MultiplierImpl::ShiftAdd(Recoding::BinaryReuse), AdderStyle::Ripple),
        ] {
            let built = build_datapath(&spec(m, a, false)).unwrap();
            assert_eq!(built.latency, 8, "{m:?} {a:?}");
        }
    }

    #[test]
    fn operator_pipelined_latency_is_21() {
        for a in [AdderStyle::CarryChain, AdderStyle::Ripple] {
            let built =
                build_datapath(&spec(MultiplierImpl::ShiftAdd(Recoding::BinaryReuse), a, true))
                    .unwrap();
            assert_eq!(built.latency, 21, "{a:?}");
        }
    }

    #[test]
    fn ports_have_paper_widths() {
        let built = build_datapath(&spec(
            MultiplierImpl::ShiftAdd(Recoding::BinaryReuse),
            AdderStyle::CarryChain,
            false,
        ))
        .unwrap();
        let n = &built.netlist;
        assert_eq!(n.port("in_even").unwrap().bus.width(), 8);
        assert_eq!(n.port("in_odd").unwrap().bus.width(), 8);
        assert_eq!(n.port("low").unwrap().bus.width(), 10);
        assert_eq!(n.port("high").unwrap().bus.width(), 9);
    }

    #[test]
    fn ripple_designs_contain_no_carry_chains() {
        let built = build_datapath(&spec(
            MultiplierImpl::ShiftAdd(Recoding::BinaryReuse),
            AdderStyle::Ripple,
            false,
        ))
        .unwrap();
        assert_eq!(built.netlist.census().carry_adders, 0);
        assert!(built.netlist.census().full_adders > 100);
    }

    #[test]
    fn behavioral_designs_contain_no_full_adders() {
        let built = build_datapath(&spec(
            MultiplierImpl::ShiftAdd(Recoding::BinaryReuse),
            AdderStyle::CarryChain,
            false,
        ))
        .unwrap();
        assert_eq!(built.netlist.census().full_adders, 0);
        assert!(built.netlist.census().carry_adders > 20);
    }

    #[test]
    fn generic_array_uses_more_adders_than_shift_add() {
        let generic =
            build_datapath(&spec(MultiplierImpl::GenericArray, AdderStyle::CarryChain, false))
                .unwrap();
        let shift_add = build_datapath(&spec(
            MultiplierImpl::ShiftAdd(Recoding::BinaryReuse),
            AdderStyle::CarryChain,
            false,
        ))
        .unwrap();
        assert!(
            generic.netlist.census().carry_adder_bits > shift_add.netlist.census().carry_adder_bits
        );
    }

    #[test]
    fn pipelined_design_has_more_registers() {
        let flat = build_datapath(&spec(
            MultiplierImpl::ShiftAdd(Recoding::BinaryReuse),
            AdderStyle::CarryChain,
            false,
        ))
        .unwrap();
        let piped = build_datapath(&spec(
            MultiplierImpl::ShiftAdd(Recoding::BinaryReuse),
            AdderStyle::CarryChain,
            true,
        ))
        .unwrap();
        assert!(piped.netlist.census().register_bits > 2 * flat.netlist.census().register_bits);
    }
}

#[cfg(test)]
mod carry_save_tests {
    use super::*;
    use crate::golden::still_tone_pairs;
    use crate::verify::verify_datapath;

    fn csa_spec() -> DatapathSpec {
        DatapathSpec {
            multiplier: MultiplierImpl::GenericCarrySave,
            adder_style: AdderStyle::CarryChain,
            pipelined_operators: false,
            constants: LiftingConstants::default(),
            input_bits: 8,
        }
    }

    #[test]
    fn carry_save_design_is_bit_exact() {
        let built = build_datapath(&csa_spec()).unwrap();
        assert_eq!(built.latency, 8);
        for seed in [2u64, 8, 31] {
            verify_datapath(&built, &still_tone_pairs(48, seed))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn carry_save_glitches_far_less_than_ripple_rows() {
        use crate::verify::measure_activity;
        let pairs = still_tone_pairs(256, 5);
        let ripple = build_datapath(&DatapathSpec {
            multiplier: MultiplierImpl::GenericArray,
            ..csa_spec()
        })
        .unwrap();
        let csa = build_datapath(&csa_spec()).unwrap();
        let t_ripple = measure_activity(&ripple, &pairs).unwrap().toggles_per_cycle();
        let t_csa = measure_activity(&csa, &pairs).unwrap().toggles_per_cycle();
        assert!(t_csa < 0.6 * t_ripple, "carry-save {t_csa} vs ripple {t_ripple} toggles/cycle");
    }
}
