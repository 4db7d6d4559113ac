//! The acyclic partition schedule: constants sit with their first
//! reader, so cuts between the paper's pipeline stages only send data
//! forward; links are classified forward/feedback against a brute-force
//! reachability oracle; and both kinds of stalled worker in a DAG are
//! still detected — a stalled source by its consumer's receive
//! watchdog, a stalled sink by the coordinator's progress watchdog.
//!
//! Forward links carry one boundary frame per barrier batch: the
//! partitioned run stays bit-exact on every design and shard count,
//! the frame count is exact, and a corruption or a killed producer
//! surfaces at the batch frame and is repaired.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dwt_arch::designs::Design;
use dwt_partition::{
    partition, run_single, ChaosPlan, Corruption, CutOptions, DetectionKind, FrameReport,
    PartitionRunner, PartitionedNetlist, Rung, RunnerConfig, Stimulus,
};
use dwt_pool::clock::VirtualClock;
use dwt_rtl::cell::CellKind;
use dwt_rtl::compile::CompiledEngine;
use dwt_rtl::engine::Engine;
use dwt_rtl::sim::Simulator;

const PART_COUNTS: [usize; 4] = [2, 3, 4, 8];

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
    inputs.insert("in_even".to_string(), even);
    inputs.insert("in_odd".to_string(), odd);
    Stimulus { cycles, inputs }
}

fn cut(design: Design, parts: usize) -> PartitionedNetlist {
    let built = design.build().expect("design builds");
    partition(&built.netlist, parts, &CutOptions::default())
        .unwrap_or_else(|e| panic!("{} into {parts}: {e}", design.name()))
}

#[test]
fn every_constant_lies_in_its_lowest_index_readers_shard() {
    let mut constants = 0;
    for design in Design::all() {
        for parts in PART_COUNTS {
            let cut = cut(design, parts);
            let netlist = &cut.original;
            for (i, cell) in netlist.cells().iter().enumerate() {
                if !matches!(cell.kind, CellKind::Constant { .. }) {
                    continue;
                }
                let first_reader = cell
                    .kind
                    .output_nets()
                    .into_iter()
                    .flat_map(|net| netlist.fanout(net))
                    .map(|r| cut.cell_shard[r.index()])
                    .min();
                let Some(shard) = first_reader else { continue };
                constants += 1;
                // The one exception: a constant the DP stranded alone in
                // a shard stays, so that shard does not empty.
                let home = cut.cell_shard[i];
                assert!(
                    home == shard || cut.shards[home].cells.len() == 1,
                    "{} x {parts}: constant cell {i} sits in shard {home}, first reader in {shard}",
                    design.name()
                );
            }
        }
    }
    assert!(constants > 0, "the designs read constants");
}

#[test]
fn every_two_way_cut_is_acyclic() {
    for design in Design::all() {
        let cut = cut(design, 2);
        assert_eq!(cut.feedback_links(), 0, "{} x 2 has feedback: {:?}", design.name(), cut.links);
        assert!(cut.links.iter().all(|l| l.from == 0 && l.to == 1), "{:?}", cut.links);
    }
}

#[test]
fn design_one_four_way_keeps_genuine_feedback() {
    // Register feedback across the cut: the settle path stays covered.
    let cut = cut(Design::D1, 4);
    assert!(cut.feedback_links() > 0, "{:?}", cut.links);
    assert!(cut.links.iter().any(|l| !l.feedback), "{:?}", cut.links);
}

/// Transitive closure by Warshall's algorithm over the link edges.
fn closure(cut: &PartitionedNetlist) -> Vec<Vec<bool>> {
    let n = cut.parts();
    let mut reach = vec![vec![false; n]; n];
    for link in &cut.links {
        reach[link.from][link.to] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if reach[i][k] && reach[k][j] {
                    reach[i][j] = true;
                }
            }
        }
    }
    reach
}

#[test]
fn link_classes_match_a_brute_force_reachability_oracle() {
    let mut feedback_seen = 0;
    for design in Design::all() {
        for parts in PART_COUNTS {
            let cut = cut(design, parts);
            let reach = closure(&cut);
            for link in &cut.links {
                assert_eq!(
                    link.feedback,
                    reach[link.to][link.from],
                    "{} x {parts}: link {}->{} misclassified",
                    design.name(),
                    link.from,
                    link.to
                );
            }
            feedback_seen += cut.feedback_links();
        }
    }
    assert!(feedback_seen > 0, "the oracle must see both classes");
}

#[test]
fn the_fingerprint_covers_the_link_classes() {
    let mut cut = cut(Design::D1, 4);
    let before = cut.fingerprint();
    let link = cut.links.iter_mut().find(|l| l.feedback).expect("a feedback link");
    link.feedback = false;
    assert_ne!(cut.fingerprint(), before);
}

#[test]
fn a_stalled_source_is_caught_by_its_consumers_receive_watchdog() {
    let built = Design::D3.build().expect("design builds");
    let stim = stimulus(64, 31);
    let reference = run_single::<Simulator>(&built.netlist, &stim, None).expect("reference");
    let cut = cut(Design::D3, 2);
    assert_eq!(cut.feedback_links(), 0);
    // A frozen virtual clock: neither the batch deadline nor the
    // progress watchdog can fire, so only the consumer's wall-clock
    // receive timeout can notice the source.
    let config = RunnerConfig {
        snapshot_interval: 32,
        watchdog: Duration::from_millis(30),
        clock: Arc::new(VirtualClock::new()),
        batch_budget: Some(1),
        ..RunnerConfig::default()
    };
    let chaos =
        ChaosPlan { stalls: vec![(0, 40, Duration::from_millis(200))], ..ChaosPlan::default() };
    let report = PartitionRunner::<Simulator>::new(&cut, config)
        .run_frame(&stim, None, &chaos, None)
        .expect("frame completes");
    assert_eq!(report.rung, Rung::Partitioned);
    assert!(report.recoveries >= 1);
    assert!(
        report.detections.iter().any(|d| d.worker == Some(1) && d.kind == DetectionKind::Stall),
        "the consumer must report its stalled producer: {:?}",
        report.detections
    );
    assert_eq!(report.outputs, reference);
}

#[test]
fn a_stalled_sink_is_caught_by_the_progress_watchdog_on_virtual_time() {
    let built = Design::D3.build().expect("design builds");
    let stim = stimulus(64, 32);
    let reference = run_single::<Simulator>(&built.netlist, &stim, None).expect("reference");
    let cut = cut(Design::D3, 2);
    assert_eq!(cut.feedback_links(), 0);
    let watchdog = Duration::from_millis(30);
    let config = |clock: &VirtualClock| RunnerConfig {
        snapshot_interval: 32,
        watchdog,
        clock: Arc::new(clock.clone()),
        batch_budget: Some(u64::MAX),
        ..RunnerConfig::default()
    };
    let chaos =
        ChaosPlan { stalls: vec![(1, 40, Duration::from_millis(300))], ..ChaosPlan::default() };

    // Frozen clock: nobody waits on the sink and the progress watchdog
    // never sees time pass, so the stall goes unnoticed and the frame
    // simply finishes late. This pins the detection below on the
    // watchdog's clock, not on any wall-clock path.
    let frozen = VirtualClock::new();
    let report = PartitionRunner::<Simulator>::new(&cut, config(&frozen))
        .run_frame(&stim, None, &chaos, None)
        .expect("frame completes");
    assert_eq!(report.recoveries, 0, "{:?}", report.detections);
    assert_eq!(report.outputs, reference);

    // Cranked clock: past the watchdog every 20 ms of wall time, so
    // the sink's frozen counter trips it while the sink sleeps.
    let clock = VirtualClock::new();
    let done = Arc::new(AtomicBool::new(false));
    let crank = {
        let (clock, done) = (clock.clone(), Arc::clone(&done));
        let step = u64::try_from(watchdog.as_nanos()).expect("fits") + 1;
        thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                thread::sleep(Duration::from_millis(20));
                clock.advance(step);
            }
        })
    };
    let report = PartitionRunner::<Simulator>::new(&cut, config(&clock))
        .run_frame(&stim, None, &chaos, None);
    done.store(true, Ordering::Relaxed);
    crank.join().expect("crank thread");
    let report = report.expect("frame completes");
    assert_eq!(report.rung, Rung::Partitioned);
    assert!(report.recoveries >= 1);
    assert!(
        report.detections.iter().any(|d| d.worker == Some(1) && d.kind == DetectionKind::Stall),
        "the progress watchdog must name the sink: {:?}",
        report.detections
    );
    assert_eq!(report.outputs, reference);
}

/// Boundary frames a committed frame of `cycles` sends at barrier
/// `interval`: per link, the prologue frame, then one per batch on a
/// forward link and one per cycle on a feedback link.
fn expected_frames(cut: &PartitionedNetlist, cycles: u64, interval: u64) -> u64 {
    let batches = cycles.div_ceil(interval);
    cut.links.iter().map(|l| 1 + if l.feedback { cycles } else { batches }).sum()
}

fn clean_run<E>(cut: &PartitionedNetlist, stim: &Stimulus, interval: u64) -> FrameReport
where
    E: Engine + Send + 'static,
    E::Snapshot: Clone + Send + 'static,
{
    let config = RunnerConfig { snapshot_interval: interval, ..RunnerConfig::default() };
    PartitionRunner::<E>::new(cut, config)
        .run_frame(stim, None, &ChaosPlan::default(), None)
        .expect("frame completes")
}

fn batched_frames_are_bit_exact_and_counted<E>()
where
    E: Engine + Send + 'static,
    E::Snapshot: Clone + Send + 'static,
{
    // 100 cycles at 32 per barrier: three full batches and a short one.
    let (cycles, interval) = (100, 32);
    for design in Design::all() {
        let built = design.build().expect("design builds");
        let stim = stimulus(cycles, 0xba7c4 ^ design as u64);
        let reference = run_single::<E>(&built.netlist, &stim, None).expect("reference");
        for parts in PART_COUNTS {
            let cut = cut(design, parts);
            let report = clean_run::<E>(&cut, &stim, interval);
            let name = format!("{} x {parts}", design.name());
            assert_eq!(report.rung, Rung::Partitioned, "{name}");
            assert_eq!(report.recoveries, 0, "{name}: {:?}", report.detections);
            assert_eq!(report.outputs, reference, "{name} diverged");
            assert_eq!(report.barriers, 4, "{name}");
            assert_eq!(report.boundary_frames, expected_frames(&cut, cycles, interval), "{name}");
        }
    }
}

#[test]
fn batched_frames_match_the_single_engine_on_the_event_backend() {
    batched_frames_are_bit_exact_and_counted::<Simulator>();
}

#[test]
fn batched_frames_match_the_single_engine_on_the_compiled_backend() {
    batched_frames_are_bit_exact_and_counted::<CompiledEngine>();
}

#[test]
fn acyclic_cuts_send_one_frame_per_link_per_batch() {
    // The matrix above pins `boundary_frames` to `expected_frames` on
    // every cut; these are the cuts whose feedback links keep one frame
    // per cycle. Every other cut sends links x (batches + 1).
    let with_feedback: Vec<(Design, usize)> = Design::all()
        .into_iter()
        .flat_map(|design| PART_COUNTS.map(|parts| (design, parts)))
        .filter(|&(design, parts)| cut(design, parts).feedback_links() > 0)
        .collect();
    assert_eq!(with_feedback, [(Design::D1, 4), (Design::D2, 8), (Design::D4, 8)]);

    // The benchmark's frame: one 4-port link, 2048 cycles, 64 batches.
    let cut = cut(Design::D5, 2);
    assert_eq!(cut.links.len(), 1);
    assert_eq!(cut.links[0].ports.len(), 4);
    let report = clean_run::<CompiledEngine>(&cut, &stimulus(2048, 5), 32);
    assert_eq!(report.barriers, 64);
    assert_eq!(report.boundary_frames, 65);
}

/// D5 x 2 at 32 cycles per barrier, one directive at a time.
fn chaos_run(chaos: &ChaosPlan) -> (FrameReport, dwt_partition::FrameOutputs, u64) {
    let built = Design::D5.build().expect("design builds");
    let stim = stimulus(96, 41);
    let reference = run_single::<CompiledEngine>(&built.netlist, &stim, None).expect("reference");
    let cut = cut(Design::D5, 2);
    assert_eq!(cut.feedback_links(), 0);
    let config = RunnerConfig {
        snapshot_interval: 32,
        watchdog: Duration::from_millis(100),
        ..RunnerConfig::default()
    };
    let report = PartitionRunner::<CompiledEngine>::new(&cut, config)
        .run_frame(&stim, None, chaos, None)
        .expect("frame completes");
    (report, reference, expected_frames(&cut, 96, 32))
}

#[test]
fn corruptions_inside_a_batch_frame_are_detected_and_repaired() {
    for (stealth, kind) in
        [(true, DetectionKind::LinkHashMismatch), (false, DetectionKind::Checksum)]
    {
        // Cycle 45 is row 13 of the frame for batch [32, 64).
        let corruption = Corruption { from: 0, to: 1, cycle: 45, stealth };
        let chaos = ChaosPlan { corruptions: vec![corruption], ..ChaosPlan::default() };
        let (report, reference, frames) = chaos_run(&chaos);
        assert_eq!(report.rung, Rung::Partitioned);
        assert_eq!(report.recoveries, 1, "{:?}", report.detections);
        assert!(
            report
                .detections
                .iter()
                .any(|d| d.worker == Some(1) && d.batch_start == 32 && d.kind == kind),
            "stealth {stealth}: {:?}",
            report.detections
        );
        assert_eq!(report.replayed_cycles, 32);
        assert_eq!(report.outputs, reference, "stealth {stealth}: post-recovery outputs diverged");
        assert_eq!(report.boundary_frames, frames, "replays add no committed frames");
    }
}

#[test]
fn a_producer_killed_mid_batch_is_a_crash_at_the_batch_frame() {
    let chaos = ChaosPlan { kills: vec![(0, 45)], ..ChaosPlan::default() };
    let (report, reference, frames) = chaos_run(&chaos);
    assert_eq!(report.rung, Rung::Partitioned);
    assert!(report.recoveries >= 1);
    assert!(
        report
            .detections
            .iter()
            .any(|d| d.worker == Some(1) && d.batch_start == 32 && d.kind == DetectionKind::Crash),
        "the consumer must find its producer gone at the batch frame: {:?}",
        report.detections
    );
    assert_eq!(report.outputs, reference, "post-recovery outputs diverged");
    assert_eq!(report.boundary_frames, frames);
}
