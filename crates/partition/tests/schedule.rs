//! The acyclic partition schedule: constants sit with their first
//! reader, so cuts between the paper's pipeline stages only send data
//! forward; links are classified forward/feedback against a brute-force
//! reachability oracle; and both kinds of stalled worker in a DAG are
//! still detected — a stalled source by its consumer's receive
//! watchdog, a stalled sink by the coordinator's progress watchdog.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dwt_arch::designs::Design;
use dwt_partition::{
    partition, run_single, ChaosPlan, CutOptions, DetectionKind, PartitionRunner,
    PartitionedNetlist, Rung, RunnerConfig, Stimulus,
};
use dwt_pool::clock::VirtualClock;
use dwt_rtl::cell::CellKind;
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
