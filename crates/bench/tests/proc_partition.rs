//! Differential suite for process-isolated partitioned emulation.
//!
//! Every test forks real `dwt_partition_worker` OS processes (cargo
//! builds the binary for us — `CARGO_BIN_EXE_dwt_partition_worker`)
//! under a [`PartitionRunner`] with process isolation and compares the committed outputs
//! bit-for-bit against a single-engine run of the unsplit netlist.
//! The matrix covers two paper designs, two shard counts and both
//! simulation backends; the chaos tests layer a killed worker mid-window,
//! heartbeat stalls past the watchdog, and torn durable
//! snapshots on top — all of which must recover with zero silent data
//! corruption. The restart test kills the *coordinator* (stops it after
//! a durable barrier) and proves a fresh one resumes from the store,
//! not from cycle 0. Process mode runs the thread mode's schedule: the
//! benchmark's Design 5 × 2 frame sends one frame per batch on its
//! forward link, and a stealth corruption inside that frame is caught
//! by the barrier hash crosscheck and replayed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dwt_arch::designs::Design;
use dwt_partition::{
    partition, run_single, ChaosPlan, Corruption, CutOptions, DetectionKind, FrameOutputs,
    FrameReport, Isolation, PartitionRunner, PartitionedNetlist, Rung, RunnerConfig, Stimulus,
    WorkerLauncher,
};
use dwt_rtl::compile::CompiledEngine;
use dwt_rtl::sim::Simulator;

const CYCLES: u64 = 96;
const INTERVAL: u64 = 32;
const SEED: u64 = 2005;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dwt-proc-test-{}-{}-{}",
        tag,
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The same deterministic signed 8-bit stream `partition_campaign`
/// feeds its frames.
fn stimulus(cycles: u64, seed: u64) -> Stimulus {
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) & 0xff) as i64 - 128
    };
    let mut even = Vec::with_capacity(cycles as usize);
    let mut odd = Vec::with_capacity(cycles as usize);
    for _ in 0..cycles {
        even.push(next());
        odd.push(next());
    }
    let mut inputs = BTreeMap::new();
    inputs.insert("in_even".to_owned(), even);
    inputs.insert("in_odd".to_owned(), odd);
    Stimulus { cycles, inputs }
}

fn design_number(design: Design) -> usize {
    Design::all().iter().position(|d| *d == design).expect("paper design") + 1
}

fn launcher(design: Design, parts: usize, backend: &str) -> WorkerLauncher {
    WorkerLauncher {
        program: PathBuf::from(env!("CARGO_BIN_EXE_dwt_partition_worker")),
        args: vec![
            "--design".to_owned(),
            design_number(design).to_string(),
            "--parts".to_owned(),
            parts.to_string(),
            "--backend".to_owned(),
            backend.to_owned(),
        ],
    }
}

struct Combo {
    design: Design,
    parts: usize,
    backend: &'static str,
    cut: PartitionedNetlist,
    reference: FrameOutputs,
    stim: Stimulus,
}

fn combos() -> Vec<Combo> {
    let mut out = Vec::new();
    for design in [Design::D1, Design::D3] {
        let built = design.build().expect("design builds");
        let stim = stimulus(CYCLES, SEED);
        for parts in [2usize, 4] {
            let cut = partition(&built.netlist, parts, &CutOptions::default())
                .expect("cut on register boundaries");
            for backend in ["event", "compiled"] {
                let reference = match backend {
                    "event" => run_single::<Simulator>(&built.netlist, &stim, None),
                    _ => run_single::<CompiledEngine>(&built.netlist, &stim, None),
                }
                .expect("reference run");
                out.push(Combo {
                    design,
                    parts,
                    backend,
                    cut: cut.clone(),
                    reference,
                    stim: stim.clone(),
                });
            }
        }
    }
    out
}

/// Process isolation with `launcher`, a durable store when `store` is
/// given, at the suite's barrier cadence.
fn processes(launcher: WorkerLauncher, store: Option<PathBuf>) -> RunnerConfig {
    RunnerConfig {
        snapshot_interval: INTERVAL,
        isolation: Isolation::Processes { launcher, store, resume: false, stop_after: None },
        ..RunnerConfig::default()
    }
}

/// Runs one frame of `stim` over `cut` on the named backend.
fn run_frame(
    cut: &PartitionedNetlist,
    backend: &str,
    config: RunnerConfig,
    stim: &Stimulus,
    chaos: &ChaosPlan,
) -> Result<FrameReport, dwt_partition::PartitionError> {
    match backend {
        "event" => {
            PartitionRunner::<Simulator>::new(cut, config).run_frame(stim, None, chaos, None)
        }
        _ => PartitionRunner::<CompiledEngine>::new(cut, config).run_frame(stim, None, chaos, None),
    }
}

fn run_combo(combo: &Combo, config: RunnerConfig, chaos: &ChaosPlan) -> FrameReport {
    run_frame(&combo.cut, combo.backend, config, &combo.stim, chaos).unwrap_or_else(|e| {
        panic!("{} x {} ({}) process run: {e}", combo.design.name(), combo.parts, combo.backend)
    })
}

fn assert_bit_exact(combo: &Combo, report: &FrameReport, what: &str) {
    assert_eq!(
        report.outputs,
        combo.reference,
        "{what}: {} x {} ({}) diverged from the single-engine oracle",
        combo.design.name(),
        combo.parts,
        combo.backend
    );
}

impl Combo {
    /// Process isolation for this combination, with an optional store.
    fn processes(&self, store: Option<PathBuf>) -> RunnerConfig {
        processes(launcher(self.design, self.parts, self.backend), store)
    }
}

#[test]
fn clean_process_matrix_is_bit_exact() {
    for combo in combos() {
        let config = combo.processes(None);
        let report = run_combo(&combo, config, &ChaosPlan::default());
        assert_bit_exact(&combo, &report, "clean");
        assert!(report.completed);
        assert_eq!(report.recoveries, 0, "clean run recovered?");
        assert_eq!(report.respawns, 0, "clean run respawned?");
        assert!(report.detections.is_empty(), "clean run detected {:?}", report.detections);
        assert_eq!(report.barriers, CYCLES / INTERVAL);
    }
}

#[test]
fn sigkill_mid_window_recovers_bit_exactly_across_the_matrix() {
    for combo in combos() {
        let config = combo.processes(None);
        let chaos = ChaosPlan {
            // Kill the last shard mid-way through the second barrier
            // window.
            kills: vec![(combo.parts - 1, INTERVAL + INTERVAL / 2)],
            ..ChaosPlan::default()
        };
        let report = run_combo(&combo, config, &chaos);
        assert_bit_exact(&combo, &report, "kill-9");
        assert!(report.completed);
        assert!(report.recoveries >= 1, "SIGKILL provoked no recovery");
        assert!(report.respawns >= 1, "SIGKILL provoked no respawn");
        assert!(!report.detections.is_empty());
    }
}

#[test]
fn heartbeat_stall_is_detected_and_recovered_across_the_matrix() {
    for combo in combos() {
        // Short watchdog so an 800 ms wedge trips it fast.
        let config = RunnerConfig { watchdog: Duration::from_millis(250), ..combo.processes(None) };
        let chaos = ChaosPlan {
            stalls: vec![(0, INTERVAL + 3, Duration::from_millis(800))],
            ..ChaosPlan::default()
        };
        let report = run_combo(&combo, config, &chaos);
        assert_bit_exact(&combo, &report, "stall");
        assert!(report.completed);
        assert!(report.recoveries >= 1, "stall provoked no recovery");
        assert!(report.respawns >= 1, "stalled worker was not respawned");
    }
}

#[test]
fn torn_snapshot_falls_back_one_barrier_across_the_matrix() {
    for combo in combos() {
        let store = scratch_dir("torn");
        let config = combo.processes(Some(store.clone()));
        let chaos = ChaosPlan {
            // Tear the newest durable record right after the first
            // commit, then kill a worker in the next window: the
            // rollback must fall back cleanly (here to power-on,
            // since the only record is torn) and still replay to a
            // bit-exact finish.
            torn_after: Some(1),
            kills: vec![(0, INTERVAL + INTERVAL / 2)],
            ..ChaosPlan::default()
        };
        let report = run_combo(&combo, config, &chaos);
        assert_bit_exact(&combo, &report, "torn snapshot");
        assert!(report.completed);
        assert!(report.recoveries >= 1);
        // The torn record forced the replay past the snapshot the
        // in-memory path would have used.
        assert!(report.replayed_cycles > INTERVAL, "torn record did not widen the replay");
        let _ = std::fs::remove_dir_all(&store);
    }
}

/// Process isolation over a store, resuming from it or stopping after
/// `stop_after` commits.
fn durable(
    design: Design,
    parts: usize,
    store: &std::path::Path,
    resume: bool,
    stop_after: Option<u64>,
) -> RunnerConfig {
    let launcher = launcher(design, parts, "event");
    let isolation =
        Isolation::Processes { launcher, store: Some(store.to_path_buf()), resume, stop_after };
    RunnerConfig { snapshot_interval: INTERVAL, isolation, ..RunnerConfig::default() }
}

#[test]
fn restarted_supervisor_resumes_from_the_durable_barrier_not_cycle_zero() {
    let built = Design::D1.build().expect("design builds");
    let stim = stimulus(CYCLES, SEED);
    let cut = partition(&built.netlist, 2, &CutOptions::default()).expect("cut");
    let reference = run_single::<Simulator>(&built.netlist, &stim, None).expect("reference");
    let store = scratch_dir("restart");
    let calm = ChaosPlan::default();

    // First coordinator: commits two durable barriers, then "crashes"
    // (stops early, exactly as if SIGKILLed after the fsync).
    let first_cfg = durable(Design::D1, 2, &store, false, Some(2));
    let first = run_frame(&cut, "event", first_cfg, &stim, &calm).expect("first supervisor");
    assert!(!first.completed, "stop_after_barriers should stop early");
    assert_eq!(first.barriers, 2);

    // Second coordinator: resumes from the store and finishes the
    // frame. It must pick up at the durable barrier, not cycle 0.
    let resume_cfg = durable(Design::D1, 2, &store, true, None);
    let resumed = run_frame(&cut, "event", resume_cfg, &stim, &calm).expect("resumed supervisor");
    assert_eq!(resumed.resumed_from, Some(2 * INTERVAL), "resume point is the durable barrier");
    assert!(resumed.completed);
    assert_eq!(resumed.outputs, reference, "resumed run diverged from the oracle");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn wrong_fingerprint_store_is_refused_on_resume() {
    let built = Design::D1.build().expect("design builds");
    let stim = stimulus(CYCLES, SEED);
    let cut = partition(&built.netlist, 2, &CutOptions::default()).expect("cut");
    let store = scratch_dir("mismatch");
    let calm = ChaosPlan::default();

    let seed_cfg = durable(Design::D1, 2, &store, false, Some(1));
    run_frame(&cut, "event", seed_cfg, &stim, &calm).expect("seeding run");

    // A different cut (4 shards) must refuse the 2-shard store rather
    // than restore mismatched snapshots.
    let other_cut = partition(&built.netlist, 4, &CutOptions::default()).expect("cut");
    let resume_cfg = durable(Design::D1, 4, &store, true, None);
    let err = run_frame(&other_cut, "event", resume_cfg, &stim, &calm)
        .expect_err("mismatched fingerprint must be refused");
    assert!(
        matches!(err, dwt_partition::PartitionError::Store { .. }),
        "expected a Store error, got {err}"
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn process_mode_runs_the_batched_schedule_and_repairs_a_stealth_corruption() {
    // The benchmark's frame: Design 5 x 2, one forward link, 2048
    // cycles at 32 per barrier.
    let built = Design::D5.build().expect("design builds");
    let stim = stimulus(2048, 5);
    let cut = partition(&built.netlist, 2, &CutOptions::default()).expect("cut");
    assert_eq!(cut.feedback_links(), 0);
    let reference = run_single::<CompiledEngine>(&built.netlist, &stim, None).expect("reference");
    let config = || processes(launcher(Design::D5, 2, "compiled"), None);

    let report = run_frame(&cut, "compiled", config(), &stim, &ChaosPlan::default())
        .expect("clean process run");
    assert_eq!(report.rung, Rung::Partitioned);
    assert_eq!(report.recoveries, 0, "{:?}", report.detections);
    assert_eq!(report.outputs, reference, "process run diverged from the single engine");
    assert_eq!(report.barriers, 64);
    // The count schedule.rs pins for threads: one prologue frame, then
    // one per batch.
    assert_eq!(report.boundary_frames, 65);

    // Cycle 45 is row 13 of the forward frame for batch [32, 64): its
    // checksum is rewritten, so only the barrier crosscheck sees it.
    let corruption = Corruption { from: 0, to: 1, cycle: 45, stealth: true };
    let chaos = ChaosPlan { corruptions: vec![corruption], ..ChaosPlan::default() };
    let report = run_frame(&cut, "compiled", config(), &stim, &chaos).expect("chaos process run");
    assert_eq!(report.rung, Rung::Partitioned);
    assert_eq!(report.recoveries, 1, "{:?}", report.detections);
    assert!(
        report.detections.iter().any(|d| d.worker == Some(1)
            && d.batch_start == 32
            && d.kind == DetectionKind::LinkHashMismatch),
        "{:?}",
        report.detections
    );
    assert_eq!(report.replayed_cycles, 32);
    assert_eq!(report.outputs, reference, "post-recovery outputs diverged");
    assert_eq!(report.boundary_frames, 65, "replays add no committed frames");
}
