//! Differential suite for lane-segmented tile windows.
//!
//! On a multi-lane engine a quiet run spreads a large tile over the
//! lanes, each lane warming up on the `LOOKBACK` pairs before its
//! segment and stopping once its last coefficient has emerged. The
//! committed coefficients must equal, bit for bit, what the scalar
//! event-driven simulator commits for the same tile on one lane, on
//! every design, every primary hardening and both multi-lane backends,
//! with no lane ever failing its DWC check and no parity flag raised.
//! Faulted runs must never segment.

use dwt_arch::datapath::Hardening;
use dwt_arch::designs::Design;
use dwt_arch::golden::still_tone_pairs;
use dwt_recover::executor::{ExecutorConfig, Rung, SegmentPlan, TileExecutor};
use dwt_recover::injector::{FaultInjector, NoFaults, ScriptedFaults};
use dwt_recover::seu::PoissonSeu;
use dwt_rtl::compile::CompiledEngine;
use dwt_rtl::engine::Engine;
use dwt_rtl::jit::JitEngine;
use dwt_rtl::sim::Simulator;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

type Coeffs = (Vec<i64>, Vec<i64>);

const HARDENINGS: [Hardening; 3] = [Hardening::None, Hardening::Parity, Hardening::Tmr];

fn executor<E: Engine>(design: Design) -> TileExecutor<E> {
    hardened::<E>(design, Hardening::None)
}

fn hardened<E: Engine>(design: Design, hardening: Hardening) -> TileExecutor<E> {
    TileExecutor::<E>::new(design, ExecutorConfig { hardening, ..ExecutorConfig::default() })
        .unwrap()
}

/// The smallest tile the executor segments on a quiet run.
fn threshold<E: Engine>(exec: &TileExecutor<E>) -> usize {
    (1..=4096).find(|&p| exec.segment_plan(p).lanes() > 1).expect("some tile segments")
}

/// Runs one tile on `exec` and checks the ticks it cost against
/// `expect_ticks`.
fn run<E: Engine>(
    exec: &mut TileExecutor<E>,
    pairs: &[(i64, i64)],
    injector: &mut dyn FaultInjector,
    expect_ticks: usize,
    label: &str,
) -> Coeffs {
    let before = exec.executed_cycles();
    let (outcome, low, high) = exec.run_tile(pairs, injector).unwrap();
    assert_eq!(outcome.rung, Rung::Primary, "{label}: {:?}", outcome.detections);
    assert!(outcome.detections.is_empty(), "{label}: {:?}", outcome.detections);
    assert!(outcome.bit_exact, "{label}");
    assert_eq!(outcome.nominal_cycles, exec.nominal_window(pairs.len()), "{label}");
    assert_eq!(exec.executed_cycles() - before, expect_ticks as u64, "{label}: ticks run");
    (low, high)
}

/// Tile sizes of the differential: just above the threshold, then
/// large tiles with and without a short last segment. The hardened
/// primaries, whose event-simulator references cost more, run the
/// threshold pair and the 1024-pair tile.
fn sizes<E: Engine>(exec: &TileExecutor<E>, hardening: Hardening) -> Vec<usize> {
    let t = threshold(exec);
    match hardening {
        Hardening::None => vec![t, t + 1, 1000, 1024, 4096 + 7],
        _ => vec![t, t + 1, 1024],
    }
}

/// What the scalar event-driven simulator commits for `pairs` as one
/// tile on the given primary. The event simulator is the slow side of
/// the differential, so the tests share one memo of its answers; a tile
/// being computed blocks only the tests that want that same tile.
fn event_reference(
    design: Design,
    hardening: Hardening,
    pairs: &[(i64, i64)],
    label: &str,
) -> Coeffs {
    type Memo = HashMap<(Design, Hardening, Vec<(i64, i64)>), Arc<OnceLock<Coeffs>>>;
    static MEMO: OnceLock<Mutex<Memo>> = OnceLock::new();
    let cell = MEMO
        .get_or_init(Mutex::default)
        .lock()
        .unwrap()
        .entry((design, hardening, pairs.to_vec()))
        .or_default()
        .clone();
    cell.get_or_init(|| {
        let mut reference = hardened::<Simulator>(design, hardening);
        let scalar = reference.nominal_window(pairs.len()) as usize;
        run(&mut reference, pairs, &mut NoFaults, scalar, label)
    })
    .clone()
}

/// Ticks of a segmented Design 5 1024-pair tile: `LOOKBACK + S +
/// latency` with `S = 1024 / lanes` and latency 21.
fn d5_1024_ticks(lanes: usize) -> usize {
    match lanes {
        64 => 39,
        256 => 27,
        _ => panic!("no pinned window for {lanes} lanes"),
    }
}

fn segmented_matches_event_sim<E: Engine>(backend: &str, hardening: Hardening) {
    for design in Design::all() {
        let mut exec = hardened::<E>(design, hardening);
        assert!(exec.segment_plan(threshold(&exec) - 1).lanes() == 1);
        for (s, p) in sizes(&exec, hardening).into_iter().enumerate() {
            let label = format!("{design} {hardening:?} {backend} p={p}");
            let pairs = still_tone_pairs(p, 40 + s as u64);
            let plan = exec.segment_plan(p);
            assert!(plan.lanes() > 1, "{label}: expected a segmented plan");
            assert!(plan.window() < p, "{label}: window {}", plan.window());
            if design == Design::D5 && p == 1024 {
                assert_eq!(plan.window(), d5_1024_ticks(plan.lanes()), "{label}");
            }
            let expect = event_reference(design, hardening, &pairs, &label);
            let got = run(&mut exec, &pairs, &mut NoFaults, plan.window(), &label);
            assert!(got == expect, "{label}: segmented output differs from the event simulator");
        }
        assert_eq!(exec.segment_fallbacks(), 0, "{design} {hardening:?} {backend}");
    }
}

#[test]
fn segmented_tiles_match_the_event_simulator_on_the_compiled_engine() {
    for hardening in HARDENINGS {
        segmented_matches_event_sim::<CompiledEngine>("compiled", hardening);
    }
}

#[test]
fn segmented_tiles_match_the_event_simulator_on_the_jit() {
    for hardening in HARDENINGS {
        segmented_matches_event_sim::<JitEngine>("jit", hardening);
    }
}

/// Segmented, short scalar, segmented, short scalar: a segmented
/// window leaves its lanes partway through the tile, so unless the
/// executor parks the engine back at the drained checkpoint, the next
/// scalar tile starts from the wrong state, fails DWC and climbs the
/// ladder.
fn mixed_sequence_stays_primary<E: Engine>(backend: &str) {
    let design = Design::D5;
    let mut exec = executor::<E>(design);
    for (i, &p) in [1024usize, 16, 1024, 16, 333].iter().enumerate() {
        let label = format!("{backend} tile {i} p={p}");
        let pairs = still_tone_pairs(p, 7 + i as u64);
        let ticks = exec.segment_plan(p).window();
        assert_eq!(exec.segment_plan(p).lanes() > 1, p != 16, "{label}");
        let got = run(&mut exec, &pairs, &mut NoFaults, ticks, &label);
        let expect = event_reference(design, Hardening::None, &pairs, &label);
        assert!(got == expect, "{label}: output differs from the event simulator");
    }
    assert_eq!(exec.segment_fallbacks(), 0);
}

#[test]
fn mixed_segmented_and_scalar_tiles_all_commit_on_the_primary() {
    mixed_sequence_stays_primary::<CompiledEngine>("compiled");
    mixed_sequence_stays_primary::<JitEngine>("jit");
}

#[test]
fn the_event_simulator_never_segments() {
    let exec = executor::<Simulator>(Design::D5);
    for p in [16, 1024, 4096] {
        assert_eq!(exec.segment_plan(p), SegmentPlan::single(p, exec.nominal_window(0) as usize));
    }
}

#[test]
fn dwc_off_never_segments() {
    let cfg = ExecutorConfig { dwc: false, ..ExecutorConfig::default() };
    let mut exec = TileExecutor::<CompiledEngine>::new(Design::D5, cfg).unwrap();
    assert_eq!(exec.segment_plan(1024).lanes(), 1);
    let before = exec.executed_cycles();
    exec.run_tile(&still_tone_pairs(1024, 1), &mut NoFaults).unwrap();
    assert_eq!(exec.executed_cycles() - before, exec.nominal_window(1024));
}

#[test]
fn injectors_that_may_fault_never_segment() {
    // Neither injector fires here, but neither promises it never will,
    // so every tile runs the one-lane window: the ticks run are the
    // scalar sum of `p + flush`.
    let tiles = [1024usize, 16, 2048];
    let mut exec = executor::<CompiledEngine>(Design::D5);
    let mut scripted = ScriptedFaults::default();
    let mut seu = PoissonSeu::new(exec.primary_netlist(), exec.spare_netlist().unwrap(), 0.0, 3);
    let injectors: [&mut dyn FaultInjector; 2] = [&mut scripted, &mut seu];
    for injector in injectors {
        assert!(!injector.quiet());
        let before = exec.executed_cycles();
        let mut scalar = 0;
        for (i, &p) in tiles.iter().enumerate() {
            let pairs = still_tone_pairs(p, i as u64);
            let (outcome, _, _) = exec.run_tile(&pairs, injector).unwrap();
            assert_eq!(outcome.rung, Rung::Primary);
            assert!(outcome.bit_exact);
            scalar += exec.nominal_window(p);
        }
        assert_eq!(exec.executed_cycles() - before, scalar);
    }
    assert_eq!(exec.segment_fallbacks(), 0);
}
