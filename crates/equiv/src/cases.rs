//! The workspace's standing equivalence obligations.
//!
//! Three checker families, mirroring the places where this repo keeps
//! two representations of the same function:
//!
//! 1. **Backend** — the [`CompiledEngine`](dwt_rtl::compile::CompiledEngine) op program, back-translated
//!    to a netlist, against the source netlist it was compiled from.
//!    Proves the compile/interpret pipeline preserves semantics for
//!    every design × hardening combination.
//! 2. **Hardening** — each TMR/parity variant against its base design,
//!    modulo the voter/parity cones (`fault_detect` is excluded from
//!    comparison). Because a *broken* protector is functionally
//!    invisible in the fault-free machine, plain equivalence is
//!    supplemented with integrity checks: every voter must compute a
//!    true 3-way majority of three distinct replica registers, and
//!    every parity detector must be excitable and must raise
//!    `fault_detect`.
//! 3. **Shift-add** — every Table 1 constant × every recoding: the
//!    plan-lowered carry-chain adder tree against an independent
//!    Horner-style structural multiplier, at the Q2.8 formats the
//!    datapaths use.
//! 4. **Partition** — `dwt_partition::stitch(partition(n)) ≡ n` for
//!    every design × partition count: the reassembled shards are
//!    proved sequentially equivalent to the unsplit netlist, with
//!    structural coverage obligations (every cell in exactly one
//!    shard, every primary port owned exactly once) that catch a
//!    lossy cut even when the lost logic is functionally dead.

use dwt_arch::datapath::Hardening;
use dwt_arch::designs::Design;
use dwt_arch::shift_add::{Recoding, ShiftAddPlan};
use dwt_core::coeffs::LiftingConstants;
use dwt_core::fixed::Q2x8;
use dwt_lint::{inferred_pipeline_depth, LintConfig};
use dwt_rtl::builder::NetlistBuilder;
use dwt_rtl::cell::CellKind;
use dwt_rtl::compile::Program;
use dwt_rtl::netlist::Netlist;

use std::collections::BTreeMap;

use crate::aig::{Aig, Lit};
use crate::lower::{fresh_inputs, fresh_state, lower_frame, register_names};
use crate::seq::{prove, CounterExample, EquivOptions, Verdict};
use crate::sweep::{Prove, Sweeper};
use crate::EquivError;

/// Which checker family a case belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checker {
    /// Compiled op program vs. source netlist.
    Backend,
    /// Hardened variant vs. base design (plus integrity checks).
    Hardening,
    /// Shift-add recoded multiplier vs. behavioral golden.
    ShiftAdd,
    /// Stitched partition vs. the unsplit netlist.
    Partition,
}

impl Checker {
    /// Stable lowercase name (CLI flag value and report key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Checker::Backend => "backend",
            Checker::Hardening => "hardening",
            Checker::ShiftAdd => "shiftadd",
            Checker::Partition => "partition",
        }
    }
}

/// One executed equivalence case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Stable case id, e.g. `backend/design-3/tmr`.
    pub case: String,
    /// The family.
    pub checker: Checker,
    /// Whether the obligation holds.
    pub pass: bool,
    /// Human-readable result summary.
    pub detail: String,
    /// The counterexample, when disproved.
    pub cex: Option<CounterExample>,
}

fn hardening_name(h: Hardening) -> &'static str {
    match h {
        Hardening::None => "none",
        Hardening::Tmr => "tmr",
        Hardening::Parity => "parity",
    }
}

fn design_slug(d: Design) -> String {
    d.name().to_lowercase().replace(' ', "-")
}

/// Equivalence options tuned to a netlist: BMC deep enough to cross
/// the inferred pipeline depth (lint's L004 solver), with margin.
#[must_use]
pub fn opts_for(netlist: &Netlist) -> EquivOptions {
    let depth = inferred_pipeline_depth(netlist, &LintConfig::default()).unwrap_or(8);
    EquivOptions { bmc_depth: depth + 4, ..EquivOptions::default() }
}

fn verdict_report(
    case: String,
    checker: Checker,
    verdict: Verdict,
    extra_violations: Vec<String>,
) -> CaseReport {
    match verdict {
        Verdict::Equivalent(proof) if extra_violations.is_empty() => CaseReport {
            case,
            checker,
            pass: true,
            detail: format!(
                "proved by {:?} ({} classes, {} conflicts, {} queries)",
                proof.method, proof.classes, proof.conflicts, proof.solve_calls
            ),
            cex: None,
        },
        Verdict::Equivalent(_) => CaseReport {
            case,
            checker,
            pass: false,
            detail: format!("integrity violations: {}", extra_violations.join("; ")),
            cex: None,
        },
        Verdict::Inequivalent(cex) => CaseReport {
            case,
            checker,
            pass: false,
            detail: format!(
                "counterexample: `{}` splits at frame {} ({} vs {})",
                cex.port, cex.frame, cex.got.0, cex.got.1
            ),
            cex: Some(cex),
        },
        Verdict::Unknown(reason) => CaseReport {
            case,
            checker,
            pass: false,
            detail: format!("unknown: {reason}"),
            cex: None,
        },
    }
}

/// Checker 1: compiled op program (back-translated) vs. source netlist.
///
/// # Errors
///
/// Propagates build and lowering failures.
pub fn backend_case(design: Design, hardening: Hardening) -> Result<CaseReport, EquivError> {
    let built = design.build_hardened(hardening)?;
    let program = Program::compile(&built.netlist)?;
    let back = program.to_netlist(&built.netlist)?;
    let opts = opts_for(&built.netlist);
    let verdict = prove(&built.netlist, &back, &opts)?;
    Ok(verdict_report(
        format!("backend/{}/{}", design_slug(design), hardening_name(hardening)),
        Checker::Backend,
        verdict,
        Vec::new(),
    ))
}

/// Checker 2: hardened variant vs. base design, plus protector
/// integrity.
///
/// # Errors
///
/// Propagates build and lowering failures; rejects `Hardening::None`
/// (nothing to compare).
pub fn hardening_case(design: Design, hardening: Hardening) -> Result<CaseReport, EquivError> {
    if hardening == Hardening::None {
        return Err(EquivError::Shape(
            "hardening checker needs a hardened variant, got `none`".to_owned(),
        ));
    }
    let base = design.build()?;
    let hardened = design.build_hardened(hardening)?;
    let opts = EquivOptions {
        ignore_outputs: vec!["fault_detect".to_owned()],
        ..opts_for(&hardened.netlist)
    };
    let verdict = prove(&base.netlist, &hardened.netlist, &opts)?;
    let violations = match hardening {
        Hardening::Tmr => tmr_integrity(&hardened.netlist, &opts)?,
        Hardening::Parity => parity_integrity(&hardened.netlist, &opts)?,
        Hardening::None => unreachable!("rejected above"),
    };
    Ok(verdict_report(
        format!("hardening/{}/{}", design_slug(design), hardening_name(hardening)),
        Checker::Hardening,
        verdict,
        violations,
    ))
}

/// Integrity obligations for a hardened netlist (empty for
/// `Hardening::None`). Public so the mutation campaign can run them on
/// mutants directly.
///
/// # Errors
///
/// Lowering failures and exhausted SAT budgets.
pub fn hardening_integrity(
    netlist: &Netlist,
    hardening: Hardening,
    opts: &EquivOptions,
) -> Result<Vec<String>, EquivError> {
    match hardening {
        Hardening::None => Ok(Vec::new()),
        Hardening::Tmr => tmr_integrity(netlist, opts),
        Hardening::Parity => parity_integrity(netlist, opts),
    }
}

/// The triple base name of a TMR replica register, if it is one.
fn tmr_base(name: &str) -> Option<&str> {
    ["_tmr0", "_tmr1", "_tmr2"].iter().find_map(|suffix| name.strip_suffix(suffix))
}

/// Replica lockstep: with all three replicas of a triple holding the
/// same free value, their next-state cones must be pairwise equal.
///
/// A miswired single replica is masked by the voters — the fault-free
/// machine stays bit-exact and plain equivalence is blind to it. But
/// the drifted replica means one particle strike now corrupts *two*
/// effective votes, so TMR integrity is gone; this check sees the
/// drift directly.
fn tmr_lockstep(netlist: &Netlist, opts: &EquivOptions) -> Result<Vec<String>, EquivError> {
    let mut violations = Vec::new();
    let names = register_names(netlist);
    let mut aig = Aig::new();
    let inputs = fresh_inputs(&mut aig, netlist);
    // Shared state: replicas of the same triple get the same literals.
    let mut shared: BTreeMap<String, Vec<Lit>> = BTreeMap::new();
    let mut state: Vec<Vec<Lit>> = Vec::new();
    let mut triples: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, (&id, name)) in netlist.registers().iter().zip(&names).enumerate() {
        let CellKind::Register { q, .. } = &netlist.cell(id).kind else {
            unreachable!("registers() lists only Register cells");
        };
        let width = q.width();
        let lits = match tmr_base(name) {
            Some(base) => {
                triples.entry(base.to_owned()).or_default().push(i);
                shared
                    .entry(base.to_owned())
                    .or_insert_with(|| (0..width).map(|_| aig.input()).collect())
                    .clone()
            }
            None => (0..width).map(|_| aig.input()).collect(),
        };
        state.push(lits);
    }
    let frame = lower_frame(&mut aig, netlist, &inputs, &state)?;
    let mut sweeper = Sweeper::new();
    for (base, members) in &triples {
        if members.len() != 3 {
            violations
                .push(format!("register `{base}` has {} replicas, expected 3", members.len()));
            continue;
        }
        let first = &frame.reg_next[members[0]];
        for &m in &members[1..] {
            for (bit, (&l0, &lm)) in first.iter().zip(&frame.reg_next[m]).enumerate() {
                match sweeper.prove_equal(&mut aig, l0, lm, opts.conflict_budget) {
                    Prove::Proved => {}
                    Prove::Refuted => {
                        violations
                            .push(format!("replica `{}` bit {bit} drifts from lockstep", names[m]));
                    }
                    Prove::Budget => {
                        return Err(EquivError::Budget(format!(
                            "lockstep query for `{base}` exceeded budget"
                        )));
                    }
                }
            }
        }
    }
    if triples.is_empty() {
        violations.push("TMR variant contains no replica triples".to_owned());
    }
    Ok(violations)
}

/// TMR integrity: every `_vote` LUT computes the true majority of
/// three bits held by three *distinct* registers, and all replica
/// triples stay in lockstep.
///
/// Voter-bypass or miswired-voter mutations leave the fault-free
/// machine equivalent, so this is what actually kills them.
fn tmr_integrity(netlist: &Netlist, opts: &EquivOptions) -> Result<Vec<String>, EquivError> {
    let mut violations = Vec::new();
    let mut aig = Aig::new();
    let inputs = fresh_inputs(&mut aig, netlist);
    let state = fresh_state(&mut aig, netlist);
    let frame = lower_frame(&mut aig, netlist, &inputs, &state)?;
    let mut sweeper = Sweeper::new();
    let mut voters = 0usize;
    for cell in netlist.cells() {
        let CellKind::Lut { inputs: sels, output, .. } = &cell.kind else {
            continue;
        };
        if !cell.name.contains("_vote") {
            continue;
        }
        voters += 1;
        if sels.len() != 3 {
            violations.push(format!("voter `{}` has {} inputs", cell.name, sels.len()));
            continue;
        }
        // The three inputs must come straight from three distinct
        // registers — maj(a, a, a) is semantically a wire, so the
        // semantic check below cannot see replica collapsing.
        let mut sources = Vec::new();
        for &net in sels {
            match netlist.driver(net) {
                Some(id) if matches!(netlist.cell(id).kind, CellKind::Register { .. }) => {
                    sources.push(id);
                }
                _ => {
                    violations.push(format!("voter `{}` input is not a register output", cell.name))
                }
            }
        }
        sources.dedup();
        if sources.len() != 3 {
            violations.push(format!("voter `{}` does not read three distinct replicas", cell.name));
            continue;
        }
        // Semantic check: output == MAJ3 of its inputs, with registers
        // free (not just in reachable states).
        let in_lits: Vec<_> = sels.iter().map(|n| frame.nets[n.index()]).collect();
        let expect = aig.maj(in_lits[0], in_lits[1], in_lits[2]);
        let got = frame.nets[output.index()];
        match sweeper.prove_equal(&mut aig, got, expect, opts.conflict_budget) {
            Prove::Proved => {}
            Prove::Refuted => {
                violations.push(format!("voter `{}` is not a majority vote", cell.name));
            }
            Prove::Budget => {
                return Err(EquivError::Budget(format!(
                    "voter `{}` integrity query exceeded budget",
                    cell.name
                )));
            }
        }
    }
    if voters == 0 {
        violations.push("TMR variant contains no voters".to_owned());
    }
    violations.extend(tmr_lockstep(netlist, opts)?);
    Ok(violations)
}

/// Parity integrity: every `_perr` detector is excitable (some free
/// register/input valuation raises it) and raising it raises
/// `fault_detect`.
///
/// A detector knocked out (stuck at 0) or disconnected from the OR
/// reduction passes plain equivalence; this check kills both.
fn parity_integrity(netlist: &Netlist, opts: &EquivOptions) -> Result<Vec<String>, EquivError> {
    let mut violations = Vec::new();
    let mut aig = Aig::new();
    let inputs = fresh_inputs(&mut aig, netlist);
    let state = fresh_state(&mut aig, netlist);
    let frame = lower_frame(&mut aig, netlist, &inputs, &state)?;
    let Some(fd) = frame.outputs.get("fault_detect") else {
        return Ok(vec!["parity variant has no fault_detect output".to_owned()]);
    };
    let fd_lit = fd[0];
    let mut sweeper = Sweeper::new();
    let mut detectors = 0usize;
    for cell in netlist.cells() {
        let CellKind::Lut { output, .. } = &cell.kind else {
            continue;
        };
        if !cell.name.contains("_perr") {
            continue;
        }
        detectors += 1;
        let perr = frame.nets[output.index()];
        match sweeper.satisfiable(&aig, perr, opts.conflict_budget) {
            Prove::Proved => {}
            Prove::Refuted => {
                violations.push(format!("detector `{}` can never fire", cell.name));
                continue;
            }
            Prove::Budget => {
                return Err(EquivError::Budget(format!(
                    "detector `{}` excitability query exceeded budget",
                    cell.name
                )));
            }
        }
        // perr ∧ ¬fault_detect must be impossible.
        let leak = aig.and(perr, !fd_lit);
        match sweeper.prove_false(&aig, leak, opts.conflict_budget) {
            Prove::Proved => {}
            Prove::Refuted => {
                violations.push(format!(
                    "detector `{}` can fire without raising fault_detect",
                    cell.name
                ));
            }
            Prove::Budget => {
                return Err(EquivError::Budget(format!(
                    "detector `{}` propagation query exceeded budget",
                    cell.name
                )));
            }
        }
    }
    if detectors == 0 {
        violations.push("parity variant contains no detectors".to_owned());
    }
    Ok(violations)
}

/// Output width for the shift-add miters: 8-bit input × 11-bit signed
/// constant, with headroom.
const SHIFT_ADD_WIDTH: usize = 19;

/// The plan-lowered multiplier: shared-subexpression plus a
/// carry-chain adder tree, exactly the shape `dwt-arch` datapaths
/// instantiate.
fn plan_netlist(plan: &ShiftAddPlan) -> Result<Netlist, EquivError> {
    let w = SHIFT_ADD_WIDTH;
    let mut b = NetlistBuilder::new();
    let x = b.input("x", 8)?;
    let shared = match plan.shared_shift() {
        Some(k) => {
            let xs = b.shift_left(&x, k as usize)?;
            Some(b.carry_add("shared", &x, &xs, w)?)
        }
        None => None,
    };
    let mut acc = None;
    for (i, term) in plan.terms().iter().enumerate() {
        let base = if term.uses_shared {
            shared.clone().expect("shared terms imply a shared plan")
        } else {
            x.clone()
        };
        let shifted = b.shift_left(&base, term.shift as usize)?;
        acc = Some(match (acc, term.negate) {
            (None, false) => b.resize(&shifted, w)?,
            (None, true) => {
                let zero = b.constant(0, 1)?;
                b.carry_sub(&format!("t{i}"), &zero, &shifted, w)?
            }
            (Some(a), false) => b.carry_add(&format!("t{i}"), &a, &shifted, w)?,
            (Some(a), true) => b.carry_sub(&format!("t{i}"), &a, &shifted, w)?,
        });
    }
    let out = match acc {
        Some(bus) => bus,
        None => b.constant(0, w)?,
    };
    b.output("y", &out)?;
    Ok(b.finish()?)
}

/// The behavioral golden: Horner double-and-add over the constant's
/// 11-bit two's-complement form, built from *structural* ripple adders
/// so it shares no structure with the plan netlist.
fn golden_netlist(coeff: Q2x8) -> Result<Netlist, EquivError> {
    let w = SHIFT_ADD_WIDTH;
    let raw = i64::from(coeff.raw());
    let pattern = (raw & 0x7ff) as u64; // 11-bit two's complement
    let mut b = NetlistBuilder::new();
    let x = b.input("x", 8)?;
    let mut acc = b.constant(0, w)?;
    for bit in (0..11u32).rev() {
        let doubled = b.shift_left(&acc, 1)?;
        let doubled = b.resize(&doubled, w)?;
        acc = if (pattern >> bit) & 1 != 0 {
            if bit == 10 {
                // The sign bit carries negative weight.
                b.ripple_sub(&format!("h{bit}"), &doubled, &x, w)?
            } else {
                b.ripple_add(&format!("h{bit}"), &doubled, &x, w)?
            }
        } else {
            doubled
        };
    }
    b.output("y", &acc)?;
    Ok(b.finish()?)
}

/// Checker 3: one Table 1 constant under one recoding.
///
/// # Errors
///
/// Propagates netlist construction failures.
pub fn shift_add_case(
    name: &str,
    coeff: Q2x8,
    recoding: Recoding,
) -> Result<CaseReport, EquivError> {
    let plan = ShiftAddPlan::new(coeff, recoding);
    debug_assert_eq!(plan.value(), i64::from(coeff.raw()));
    let a = plan_netlist(&plan)?;
    let golden = golden_netlist(coeff)?;
    let opts = EquivOptions { bmc_depth: 2, ..EquivOptions::default() };
    let verdict = prove(&a, &golden, &opts)?;
    let recoding_name = match recoding {
        Recoding::Binary => "binary",
        Recoding::BinaryReuse => "binary-reuse",
        Recoding::Csd => "csd",
    };
    Ok(verdict_report(
        format!("shiftadd/{name}/{recoding_name}"),
        Checker::ShiftAdd,
        verdict,
        Vec::new(),
    ))
}

/// Checker 4: `stitch(partition(n))` vs. the unsplit netlist.
///
/// Exact structural equality is already asserted by the partition
/// crate's own tests; this obligation is the *semantic* one — it keeps
/// holding even if `stitch` is later allowed to renumber or
/// re-canonicalize, and its coverage checks catch a cut that drops or
/// duplicates logic the fault-free machine never exercises.
///
/// # Errors
///
/// Propagates build and lowering failures; partitioning failures
/// surface as [`EquivError::Shape`].
pub fn partition_case(design: Design, parts: usize) -> Result<CaseReport, EquivError> {
    let built = design.build()?;
    let cut =
        dwt_partition::partition(&built.netlist, parts, &dwt_partition::CutOptions::default())
            .map_err(|e| EquivError::Shape(format!("partition into {parts} failed: {e}")))?;
    let stitched = dwt_partition::stitch(&cut)
        .map_err(|e| EquivError::Shape(format!("stitch of {parts}-way cut failed: {e}")))?;

    let mut violations = Vec::new();
    if cut.parts() != parts {
        violations.push(format!("requested {parts} shards, got {}", cut.parts()));
    }
    let sharded: usize = cut.shards.iter().map(|s| s.cells.len()).sum();
    if sharded != built.netlist.cell_count() {
        violations.push(format!(
            "shards hold {sharded} cells, original has {}",
            built.netlist.cell_count()
        ));
    }
    let mut seen = vec![false; built.netlist.cell_count()];
    for shard in &cut.shards {
        for &id in &shard.cells {
            if std::mem::replace(&mut seen[id.index()], true) {
                violations.push(format!("cell {} appears in two shards", id.index()));
            }
        }
    }
    let mut owned: BTreeMap<&str, usize> = BTreeMap::new();
    for shard in &cut.shards {
        for port in &shard.outputs {
            *owned.entry(port.as_str()).or_insert(0) += 1;
        }
    }
    for port in built.netlist.ports().values() {
        if port.direction != dwt_rtl::netlist::PortDirection::Output {
            continue;
        }
        match owned.get(port.name.as_str()) {
            Some(1) => {}
            Some(n) => violations.push(format!("output `{}` owned by {n} shards", port.name)),
            None => violations.push(format!("output `{}` owned by no shard", port.name)),
        }
    }

    let opts = opts_for(&built.netlist);
    let verdict = prove(&built.netlist, &stitched, &opts)?;
    Ok(verdict_report(
        format!("partition/{}/{parts}-way", design_slug(design)),
        Checker::Partition,
        verdict,
        violations,
    ))
}

/// The full standing obligation set, as `(checker, runner)` inputs:
/// backend 5×3, hardening 5×2, shift-add 6×3, partition 5×3.
#[must_use]
pub fn backend_matrix() -> Vec<(Design, Hardening)> {
    let mut cases = Vec::new();
    for d in Design::all() {
        for h in [Hardening::None, Hardening::Tmr, Hardening::Parity] {
            cases.push((d, h));
        }
    }
    cases
}

/// The hardening-checker matrix (TMR and parity for every design).
#[must_use]
pub fn hardening_matrix() -> Vec<(Design, Hardening)> {
    let mut cases = Vec::new();
    for d in Design::all() {
        for h in [Hardening::Tmr, Hardening::Parity] {
            cases.push((d, h));
        }
    }
    cases
}

/// The shift-add matrix: Table 1 constants × recodings.
#[must_use]
pub fn shift_add_matrix() -> Vec<(String, Q2x8, Recoding)> {
    let constants = LiftingConstants::default();
    let mut cases = Vec::new();
    for (name, coeff) in constants.named() {
        for r in [Recoding::Binary, Recoding::BinaryReuse, Recoding::Csd] {
            cases.push((name.to_owned(), coeff, r));
        }
    }
    cases
}

/// The partition matrix: every design × the campaign's shard counts.
#[must_use]
pub fn partition_matrix() -> Vec<(Design, usize)> {
    let mut cases = Vec::new();
    for d in Design::all() {
        for parts in [2usize, 4, 8] {
            cases.push((d, parts));
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_case_proves_design2() {
        let report = backend_case(Design::D2, Hardening::None).expect("runs");
        assert!(report.pass, "{}", report.detail);
    }

    #[test]
    fn hardening_cases_prove_design2() {
        for h in [Hardening::Tmr, Hardening::Parity] {
            let report = hardening_case(Design::D2, h).expect("runs");
            assert!(report.pass, "{}: {}", report.case, report.detail);
        }
    }

    #[test]
    fn shift_add_cases_prove_alpha_all_recodings() {
        for r in [Recoding::Binary, Recoding::BinaryReuse, Recoding::Csd] {
            let report = shift_add_case("alpha", Q2x8::from_raw(-406), r).expect("runs");
            assert!(report.pass, "{}: {}", report.case, report.detail);
        }
    }

    #[test]
    fn partition_cases_prove_design2() {
        for parts in [2usize, 4] {
            let report = partition_case(Design::D2, parts).expect("runs");
            assert!(report.pass, "{}: {}", report.case, report.detail);
        }
    }

    #[test]
    fn matrices_have_expected_shapes() {
        assert_eq!(backend_matrix().len(), 15);
        assert_eq!(hardening_matrix().len(), 10);
        assert_eq!(shift_add_matrix().len(), 18);
        assert_eq!(partition_matrix().len(), 15);
    }
}
