//! Cross-backend differential test: the compiled bit-sliced engine and
//! the jit native-codegen engine must agree bit-exactly with the
//! event-driven simulator at every cycle boundary, for every paper
//! design, every hardening variant, and under injected faults.
//!
//! All three backends implement [`Engine`], so one generic driver
//! collects the full output trace (`low`, `high`, and `fault_detect`
//! where the variant exposes it) and the test compares the traces
//! verbatim. The event-driven simulator models glitches *within* a
//! cycle, but its settled register state at each tick must match both
//! levelized full-reevaluation results — any divergence is a compiler
//! or code-generator bug.
//!
//! `clear_faults` is deliberately not exercised here: mid-stream fault
//! removal is outside the bit-exactness contract (the backends may
//! disagree on already-latched corrupted state).

use proptest::prelude::*;

use dwt_arch::datapath::Hardening;
use dwt_arch::designs::Design;
use dwt_arch::golden::still_tone_pairs;
use dwt_rtl::builder::NetlistBuilder;
use dwt_rtl::cell::CellKind;
use dwt_rtl::compile::CompiledEngine;
use dwt_rtl::engine::Engine;
use dwt_rtl::fault::FaultSpec;
use dwt_rtl::jit::JitEngine;
use dwt_rtl::netlist::Netlist;
use dwt_rtl::sim::Simulator;

/// Per-cycle settled outputs: `(low, high, fault_detect)`; variants
/// without a detect port report 0 in the last slot.
type Trace = Vec<(i64, i64, i64)>;

/// Drives `pairs` plus `flush` idle cycles through a fresh engine of
/// type `E`, returning the settled output trace.
fn drive<E: Engine>(netlist: Netlist, pairs: &[(i64, i64)], fault: Option<&FaultSpec>) -> Trace {
    let has_detect = netlist.port("fault_detect").is_ok();
    let flush = 24usize;
    let mut sim = E::from_netlist(netlist).expect("engine build");
    if let Some(f) = fault {
        sim.inject(f).expect("inject");
    }
    let mut trace = Vec::with_capacity(pairs.len() + flush);
    for t in 0..pairs.len() + flush {
        let (e, o) = if t < pairs.len() { pairs[t] } else { (0, 0) };
        sim.set_input("in_even", e).expect("in_even");
        sim.set_input("in_odd", o).expect("in_odd");
        sim.try_tick().expect("tick");
        let detect = if has_detect { sim.peek("fault_detect").expect("fault_detect") } else { 0 };
        trace.push((sim.peek("low").expect("low"), sim.peek("high").expect("high"), detect));
    }
    trace
}

/// Runs all three backends over the same netlist and stimulus and
/// asserts bit-exact agreement cycle by cycle (better failure messages
/// than a whole-trace `assert_eq!`).
fn assert_backends_agree(
    label: &str,
    netlist: &Netlist,
    pairs: &[(i64, i64)],
    fault: Option<&FaultSpec>,
) {
    let event = drive::<Simulator>(netlist.clone(), pairs, fault);
    let compiled = drive::<CompiledEngine>(netlist.clone(), pairs, fault);
    let jit = drive::<JitEngine>(netlist.clone(), pairs, fault);
    assert_eq!(event.len(), compiled.len(), "{label}: trace lengths differ");
    assert_eq!(event.len(), jit.len(), "{label}: jit trace length differs");
    for (t, ((ev, co), ji)) in event.iter().zip(compiled.iter()).zip(jit.iter()).enumerate() {
        assert_eq!(
            ev, co,
            "{label}: backends diverge at cycle {t} (event {ev:?}, compiled {co:?})"
        );
        assert_eq!(ev, ji, "{label}: jit diverges at cycle {t} (event {ev:?}, jit {ji:?})");
    }
}

/// Picks a deterministic mid-pipeline register `(name, width)` to
/// target with faults, so the corruption has to propagate through real
/// downstream logic on every backend.
fn target_register(netlist: &Netlist) -> (String, usize) {
    let regs: Vec<(String, usize)> = netlist
        .cells()
        .iter()
        .filter_map(|c| match &c.kind {
            CellKind::Register { q, .. } => Some((c.name.clone(), q.width())),
            _ => None,
        })
        .collect();
    assert!(!regs.is_empty(), "no registers to target");
    regs[regs.len() / 2].clone()
}

#[test]
fn all_designs_agree_fault_free() {
    let pairs = still_tone_pairs(64, 0xD1FF);
    for design in Design::all() {
        let built = design.build().expect("design build");
        assert_backends_agree(design.name(), &built.netlist, &pairs, None);
    }
}

#[test]
fn hardened_variants_agree_fault_free() {
    let pairs = still_tone_pairs(48, 0xD1FE);
    for design in Design::all() {
        for hardening in [Hardening::Tmr, Hardening::Parity] {
            let built = design.build_hardened(hardening).expect("hardened build");
            let label = format!("{design} + {hardening:?}");
            assert_backends_agree(&label, &built.netlist, &pairs, None);
        }
    }
}

#[test]
fn interpreter_tape_executes_the_program_on_every_design() {
    // The compiled engine runs its own tape of fused full adders, not
    // the program's op list; unfused, the tape must be that list op for
    // op, so the backend proofs about the program cover the tape.
    for design in Design::all() {
        for hardening in [Hardening::None, Hardening::Tmr, Hardening::Parity] {
            let built = design.build_hardened(hardening).expect("design build");
            let eng = CompiledEngine::new(built.netlist).expect("engine build");
            assert!(eng.tape_matches_program(), "{design} + {hardening:?}");
        }
    }
}

#[test]
fn block_commit_captures_every_register_on_every_design() {
    // Both kernels share the machine's block commit, at one and at four
    // words per slot: on random words it must leave every register
    // bit's Q holding its old D and every other word unmoved.
    for design in Design::all() {
        for hardening in [Hardening::None, Hardening::Tmr, Hardening::Parity] {
            let built = design.build_hardened(hardening).expect("design build");
            let compiled = CompiledEngine::new(built.netlist.clone()).expect("engine build");
            let jit = JitEngine::new(built.netlist).expect("engine build");
            for seed in [1, 0xD1FF] {
                let label = format!("{design} + {hardening:?}, seed {seed}");
                assert!(compiled.commit_captures_every_register(seed), "compiled: {label}");
                assert!(jit.commit_captures_every_register(seed), "jit: {label}");
            }
        }
    }
}

#[test]
fn stage_major_slots_keep_design_5_commits_to_a_few_blocks() {
    // Design 5's 741 register bits committed in 121 runs of net-id
    // slots, its TMR spare's 2,223 in 273; stage-major slots move each
    // pipeline stage onto the next in one block per copy.
    for hardening in [Hardening::None, Hardening::Tmr] {
        let built = Design::D5.build_hardened(hardening).expect("design build");
        let eng = CompiledEngine::new(built.netlist).expect("engine build");
        let blocks = eng.program().commit_blocks();
        assert!(blocks <= 32, "Design 5 + {hardening:?}: {blocks} commit blocks");
    }
}

#[test]
fn bit_flips_agree_on_every_design() {
    let pairs = still_tone_pairs(48, 0xD1FD);
    for design in Design::all() {
        let built = design.build().expect("design build");
        let (register, width) = target_register(&built.netlist);
        let fault = FaultSpec::BitFlip { register, bit: width / 2, cycle: 11 };
        let label = format!("{design} + {fault:?}");
        assert_backends_agree(&label, &built.netlist, &pairs, Some(&fault));
    }
}

#[test]
fn stuck_at_agrees_on_every_design() {
    let pairs = still_tone_pairs(48, 0xD1FC);
    for design in Design::all() {
        let built = design.build().expect("design build");
        let (register, width) = target_register(&built.netlist);
        for value in [false, true] {
            let fault = FaultSpec::StuckAt { net: register.clone(), bit: width - 1, value };
            let label = format!("{design} + {fault:?}");
            assert_backends_agree(&label, &built.netlist, &pairs, Some(&fault));
        }
    }
}

#[test]
fn hardened_variants_agree_under_faults() {
    // The full hardening × fault-kind matrix: every design, TMR and
    // parity, under a mid-pipeline bit flip and a stuck-at. The voters
    // and checker trees are exactly the logic a word-level lowering
    // pass could get wrong, so the matrix pins every backend to the
    // event simulator's settled state.
    // Fault kinds alternate across designs (both kinds still hit both
    // hardenings) to keep the matrix affordable on the event backend.
    let pairs = still_tone_pairs(32, 0xD1F9);
    for (i, design) in Design::all().iter().enumerate() {
        for (j, hardening) in [Hardening::Tmr, Hardening::Parity].into_iter().enumerate() {
            let built = design.build_hardened(hardening).expect("hardened build");
            let (register, width) = target_register(&built.netlist);
            let fault = if (i + j) % 2 == 0 {
                FaultSpec::BitFlip { register, bit: width / 2, cycle: 9 }
            } else {
                FaultSpec::StuckAt { net: register, bit: width - 1, value: true }
            };
            let label = format!("{design} + {hardening:?} + {fault:?}");
            assert_backends_agree(&label, &built.netlist, &pairs, Some(&fault));
        }
    }
}

#[test]
fn parity_detection_agrees_under_upset() {
    // A register-bit upset inside a parity-hardened pipeline must raise
    // `fault_detect` identically on every backend — the detection path
    // (XOR checker trees + OR reduction) is combinational logic the
    // compiler has to levelize correctly.
    let pairs = still_tone_pairs(48, 0xD1FB);
    for design in [Design::D2, Design::D3] {
        let built = design.build_hardened(Hardening::Parity).expect("parity build");
        let (register, _) = target_register(&built.netlist);
        let fault = FaultSpec::BitFlip { register, bit: 0, cycle: 9 };
        let label = format!("{design} + Parity + {fault:?}");
        assert_backends_agree(&label, &built.netlist, &pairs, Some(&fault));

        // The upset must actually be visible, otherwise this test
        // would pass vacuously on two all-zero detect traces.
        let trace = drive::<CompiledEngine>(built.netlist.clone(), &pairs, Some(&fault));
        assert!(trace.iter().any(|&(_, _, d)| d != 0), "{label}: upset never raised fault_detect");
    }
}

#[test]
fn tmr_masks_identically() {
    // TMR must mask a single register-replica upset on every backend:
    // the faulted trace equals the fault-free trace, on each backend.
    let pairs = still_tone_pairs(48, 0xD1FA);
    let built = Design::D4.build_hardened(Hardening::Tmr).expect("tmr build");
    let (register, width) = target_register(&built.netlist);
    let fault = FaultSpec::BitFlip { register, bit: width / 2, cycle: 7 };
    let clean = drive::<CompiledEngine>(built.netlist.clone(), &pairs, None);
    let faulted = drive::<CompiledEngine>(built.netlist.clone(), &pairs, Some(&fault));
    assert_eq!(clean, faulted, "TMR failed to mask the upset on the compiled backend");
    let jit_clean = drive::<JitEngine>(built.netlist.clone(), &pairs, None);
    let jit_faulted = drive::<JitEngine>(built.netlist.clone(), &pairs, Some(&fault));
    assert_eq!(jit_clean, jit_faulted, "TMR failed to mask the upset on the jit backend");
    assert_backends_agree("D4 + Tmr + upset", &built.netlist, &pairs, Some(&fault));
}

/// A small synchronous-RAM design: the paper datapaths carry no RAM
/// cells, so RAM-upset agreement needs its own netlist — an 8-entry
/// delay line whose read and write addresses chase each other.
fn ram_netlist() -> Netlist {
    let mut b = NetlistBuilder::new();
    let raddr = b.input("raddr", 3).unwrap();
    let waddr = b.input("waddr", 3).unwrap();
    let wdata = b.input("wdata", 8).unwrap();
    let wen = b.input("wen", 1).unwrap();
    let rdata = b.ram("m", 8, 8, &raddr, &waddr, &wdata, wen.bit(0)).unwrap();
    b.output("rdata", &rdata).unwrap();
    b.finish().unwrap()
}

#[test]
fn ram_upsets_agree_on_all_three_backends() {
    let netlist = ram_netlist();
    let upsets = [
        FaultSpec::RamUpset { ram: "m".into(), addr: 3, bit: 1, cycle: 5 },
        FaultSpec::RamUpset { ram: "m".into(), addr: 6, bit: 7, cycle: 11 },
    ];
    for fault in &upsets {
        let mut sim = Simulator::new(netlist.clone()).unwrap();
        let mut eng = CompiledEngine::new(netlist.clone()).unwrap();
        let mut jit = JitEngine::new(netlist.clone()).unwrap();
        sim.inject(fault).unwrap();
        eng.inject(fault).unwrap();
        jit.inject(fault).unwrap();
        for t in 0..32i64 {
            for (name, value) in [
                ("raddr", t % 8 - 4),
                ("waddr", (t + 3) % 8 - 4),
                ("wdata", (t * 37) % 128 - 64),
                ("wen", -1),
            ] {
                sim.set_input(name, value).unwrap();
                eng.set_input(name, value).unwrap();
                jit.set_input(name, value).unwrap();
            }
            sim.try_tick().unwrap();
            eng.try_tick().unwrap();
            jit.try_tick().unwrap();
            let expect = sim.peek("rdata").unwrap();
            assert_eq!(eng.peek("rdata").unwrap(), expect, "{fault:?}: compiled @ cycle {t}");
            assert_eq!(jit.peek("rdata").unwrap(), expect, "{fault:?}: jit @ cycle {t}");
        }
    }
}

#[test]
fn single_lane_backend_reports_lane_io_unsupported() {
    // The event simulator advertises `lanes: 1` and must refuse lane
    // I/O with the typed error instead of panicking or silently
    // ignoring the extra lanes.
    let built = Design::D1.build().expect("design build");
    let mut sim = Simulator::new(built.netlist).unwrap();
    assert_eq!(sim.caps().lanes, 1);
    let err = sim.set_input_lanes("in_even", &[1, 2]).unwrap_err();
    assert!(matches!(err, dwt_rtl::Error::Unsupported { .. }), "expected Unsupported, got {err:?}");
    let err = sim.peek_lanes("low").unwrap_err();
    assert!(matches!(err, dwt_rtl::Error::Unsupported { .. }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Snapshot/restore on the jit backend is a bit-exact rewind: run a
    /// random stimulus, checkpoint mid-stream, run the tail, restore,
    /// and the replayed tail (outputs and final snapshot) must be
    /// identical — including when a fault fires inside the tail.
    #[test]
    fn jit_snapshot_restore_replays_bit_exactly(
        npairs in 8usize..40,
        split in 2usize..8,
        seed in 0u64..1_000,
        flip_bit in 0usize..8,
        with_fault in any::<bool>(),
    ) {
        let built = Design::D2.build().expect("design build");
        let pairs = still_tone_pairs(npairs, seed);
        let split = split.min(npairs - 1);
        let mut eng = JitEngine::new(built.netlist.clone()).unwrap();

        let feed = |eng: &mut JitEngine, (e, o): (i64, i64)| {
            eng.set_input("in_even", e).unwrap();
            eng.set_input("in_odd", o).unwrap();
            eng.try_tick().unwrap();
            (eng.peek("low").unwrap(), eng.peek("high").unwrap())
        };

        for &p in &pairs[..split] {
            feed(&mut eng, p);
        }
        let checkpoint = eng.snapshot();

        let fault = FaultSpec::BitFlip {
            register: target_register(&built.netlist).0,
            bit: flip_bit,
            cycle: eng.cycle() + 2,
        };
        if with_fault {
            eng.inject(&fault).unwrap();
        }
        let first: Vec<_> = pairs[split..].iter().map(|&p| feed(&mut eng, p)).collect();
        let end_first = eng.snapshot();

        eng.restore(&checkpoint).unwrap();
        prop_assert_eq!(eng.cycle(), split as u64);
        if with_fault {
            // `restore` rewinds architectural state, not the injector:
            // re-arm the same fault so the replay sees the same world.
            eng.clear_faults();
            eng.inject(&fault).unwrap();
        }
        let second: Vec<_> = pairs[split..].iter().map(|&p| feed(&mut eng, p)).collect();
        prop_assert_eq!(first, second);
        prop_assert_eq!(end_first, eng.snapshot());
    }
}
