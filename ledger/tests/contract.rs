//! The benchmark's own contract: every workload prints every metric
//! with its unit, the audit counts corruption as failure, and the pool's
//! simulated statistics repeat exactly for a seed.

use std::process::Command;
use std::time::Duration;

use dwt_ledger::audit::{self, golden_tile, PoolDigest};
use dwt_ledger::workloads::{self, closed_loop, serve_config, start_server, LoopStats};
use dwt_ledger::Workload;

const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pairs_per_s", "pairs/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("availability", "fraction"),
    ("sim_lat_p90_cycles", "cycles"),
    ("peak_rss_mb", "MiB"),
];

fn run_toy(workload: &str, seed: u64, trace: bool) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.3", "--toy"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the ledger binary");
    (out.status.success(), String::from_utf8(out.stdout).expect("utf-8 stdout"))
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    for w in Workload::ALL {
        let (ok, stdout) = run_toy(w.name(), 7, false);
        assert!(ok, "{} exited nonzero:\n{stdout}", w.name());
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true,"), "{last}");
        assert!(last.contains("\"failed\": 0,"), "{last}");
        for (name, unit) in END_TO_END {
            let entry = format!("\"{name}\": {{\"value\": ");
            assert!(last.contains(&entry), "{}: {name} missing from {last}", w.name());
            let human = stdout.lines().find(|l| l.starts_with(name)).expect("a human line");
            assert!(human.contains(&format!(" {unit} ")), "{}: {human}", w.name());
            assert!(last.contains(&format!("\"unit\": \"{unit}\"")), "{}: {last}", w.name());
        }
    }
}

#[test]
fn the_traced_run_prints_the_ledger_and_the_tracing_overhead() {
    let (ok, stdout) = run_toy("pool-chaos", 7, true);
    assert!(ok, "{stdout}");
    let last = stdout.lines().last().expect("a result line");
    for name in [
        "golden.ns_per_pair",
        "build.netlist_ms",
        "engine.tick_ns",
        "engine.lanes_tick_ns",
        "executor.keep",
        "pool.rung.golden",
        "serve.keep",
        "partition.keep",
        "trace.overhead",
    ] {
        assert!(last.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing: {last}");
    }
    assert!(stdout.contains("ledger pool"), "self-time ledger printed:\n{stdout}");
}

#[test]
fn a_corrupted_response_is_counted_as_failed() {
    let tile = workloads::tile_bank(3, 1, 16).remove(0);
    let golden = golden_tile(&tile);
    let cfg = serve_config(Workload::ServeSmallTiles, 3);
    let (server, rx, _, mut first) = start_server(&cfg, &tile).expect("server starts");
    assert!(audit::response_ok(&first, &golden));
    first.low[5] ^= 1;
    assert!(!audit::response_ok(&first, &golden), "one flipped bit fails the audit");

    // Every response of a tile whose reference is corrupt is a failure.
    let mut corrupt = golden.clone();
    corrupt.1[0] += 1;
    let mut stats = LoopStats::default();
    let window = Duration::from_millis(200);
    closed_loop(&server, &rx, &[tile], &[corrupt], 4, Duration::ZERO, window, None, &mut stats);
    let _ = server.shutdown();
    assert!(stats.responses > 0);
    assert_eq!(stats.failed, stats.responses);
    assert_eq!(stats.attempted, stats.responses);
}

#[test]
fn corrupted_pool_and_partition_outputs_are_mismatches() {
    let pairs = dwt_arch::golden::still_tone_pairs(64, 9);
    let (_, _, mut report) = workloads::pool_once(&pairs).expect("pool runs");
    assert_eq!(audit::pool_mismatches(&report, &pairs, 16), 0);
    report.high[40] ^= 2;
    assert_eq!(audit::pool_mismatches(&report, &pairs, 16), 1);

    let (cut, _) = workloads::build_cut().expect("cut");
    let opts = workloads::Options { seed: 9, seconds: 0.1, toy: true };
    let (_, oracles) = workloads::frame_bank(&cut, &opts).expect("oracles");
    let mut bad = oracles[0].clone();
    let low = bad.ports.get_mut("low").expect("low port");
    low[10] = low[10].wrapping_add(1);
    assert!(audit::frame_ok(&oracles[0], &oracles[0]));
    assert!(!audit::frame_ok(&bad, &oracles[0]));
}

#[test]
fn same_seed_pool_chaos_runs_print_the_same_digest() {
    let digest = |seed| {
        let (ok, stdout) = run_toy("pool-chaos", seed, false);
        assert!(ok, "{stdout}");
        stdout.lines().find(|l| l.starts_with("pool digest:")).expect("digest line").to_owned()
    };
    assert_eq!(digest(11), digest(11));

    let pairs = dwt_arch::golden::still_tone_pairs(256, 11);
    let a = PoolDigest::of(&workloads::pool_once(&pairs).expect("pool runs").2);
    let b = PoolDigest::of(&workloads::pool_once(&pairs).expect("pool runs").2);
    assert_eq!(a, b);
    assert!(a.breaker_transitions > 0, "the default chaos trips a breaker: {}", a.line());
}
