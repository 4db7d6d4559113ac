//! The traced run: replays a workload's seeded inputs down the stack one
//! layer at a time — golden model alone, netlist and engine build, raw
//! engine, executor, then the workload's full stack — with a span around
//! every call into a layer, and derives the per-layer ledger from them.
//!
//! Each layer's cost is the summed duration of its call spans over the
//! work they did. Self time subtracts the cost of the layers it calls,
//! measured on the same inputs in their own passes: the executor's is
//! what it adds on top of one engine tick plus one golden push per
//! cycle, the pool's and the server's what they add on top of the
//! executor, the partition's what it adds on top of one unsplit engine.
//! The stack pass runs twice, traced and untraced, and the gap between
//! the two is reported as the tracing overhead.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dwt_arch::datapath::Hardening;
use dwt_arch::golden::{still_tone_pairs, GoldenStream};
use dwt_partition::runner::RunnerConfig;
use dwt_partition::{partition, run_single, CutOptions, PartitionRunner};
use dwt_recover::executor::{ExecutorConfig, TileExecutor};
use dwt_recover::injector::NoFaults;
use dwt_rtl::compile::CompiledEngine;
use dwt_rtl::engine::Engine;
use dwt_rtl::jit::JitEngine;
use dwt_rtl::netlist::Netlist;

use crate::audit::{self, Coeffs};
use crate::report::{median, percentile_ms, Metric, Outcome};
use crate::trace::Trace;
use crate::workloads::{
    build_cut, closed_loop, frame_bank, frame_step, in_flight, pool_step, repeat_for, serve_config,
    start_server, tile_bank, LoopStats, Options, PoolTally, Workload, DESIGN, PARTITION_SHARDS,
    SERVE_WORKERS,
};

/// Why the jit rows hold no measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JitSkip {
    /// `rustc` could not be started.
    NoRustc(String),
    /// Code generation, compilation or loading failed.
    Failed(String),
}

impl std::fmt::Display for JitSkip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitSkip::NoRustc(d) => write!(f, "no-rustc: {d}"),
            JitSkip::Failed(d) => write!(f, "jit-failed: {d}"),
        }
    }
}

/// The benchmark-owned jit kernel cache, inside this package's build
/// directory.
#[must_use]
pub fn jit_cache_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target").join("jit-cache")
}

/// Where the traced run writes its spans.
#[must_use]
pub fn trace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target").join("traces")
}

/// Per-pass time budgets, as shares of the run's `--seconds`.
struct Budget(f64);

impl Budget {
    fn of(&self, share: f64) -> Duration {
        Duration::from_secs_f64((self.0 * share).max(0.01))
    }
}

/// The cycle stream of one tile window: the pairs, then `flush` zeros.
fn window(tile: &[(i64, i64)], flush: usize) -> impl Iterator<Item = (i64, i64)> + '_ {
    tile.iter().copied().chain(std::iter::repeat_n((0, 0), flush))
}

/// Repeats `body` over the bank until `budget` has elapsed (at least one
/// full pass).
fn for_budget(bank_len: usize, budget: Duration, mut body: impl FnMut(usize)) {
    let stop = Instant::now() + budget;
    let mut i = 0usize;
    while i < bank_len || Instant::now() < stop {
        body(i % bank_len);
        i += 1;
    }
}

fn ns_per(total_ns: u64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        total_ns as f64 / units as f64
    }
}

/// Golden-model pass: pushes every tile window into a fresh stream.
/// Returns ns per pushed pair.
fn golden_pass(t: &mut Trace, bank: &[Vec<(i64, i64)>], flush: usize, budget: Duration) -> f64 {
    let root = t.begin("bench", "golden_pass", None, 0);
    let mut pushed = 0u64;
    let mut total = 0u64;
    for_budget(1, budget, |pass| {
        let (n, ns) = t.time("golden", "push_bank", Some(root), pass as u64, || {
            let mut n = 0u64;
            for tile in bank {
                let mut g = GoldenStream::default();
                for (e, o) in window(tile, flush) {
                    g.push(e, o);
                }
                std::hint::black_box(g.low().len());
                n += (tile.len() + flush) as u64;
            }
            n
        });
        pushed += n;
        total += ns;
    });
    t.end(root);
    ns_per(total, pushed)
}

/// Build pass: the primary and TMR-spare netlists, then their engines.
/// Returns the medians (ms) of netlist generation and engine build.
fn build_pass(t: &mut Trace, reps: usize) -> Result<(f64, f64, usize, Netlist), String> {
    let root = t.begin("bench", "build_pass", None, 0);
    let mut netlist_ms = Vec::new();
    let mut engine_ms = Vec::new();
    let mut primary = None;
    for rep in 0..reps {
        let (built, ns) = t.time("build", "netlist", Some(root), rep as u64, || {
            DESIGN
                .build_hardened(Hardening::None)
                .and_then(|p| DESIGN.build_hardened(Hardening::Tmr).map(|s| (p.netlist, s.netlist)))
        });
        let (p, s) = built.map_err(|e| e.to_string())?;
        netlist_ms.push(ns as f64 / 1e6);
        let (engines, ns) = t.time("build", "engine", Some(root), rep as u64, || {
            CompiledEngine::from_netlist(p.clone())
                .and_then(|a| CompiledEngine::from_netlist(s).map(|b| (a, b)))
        });
        std::hint::black_box(engines.map_err(|e| e.to_string())?);
        engine_ms.push(ns as f64 / 1e6);
        primary = Some(p);
    }
    t.end(root);
    let latency = DESIGN.build().map_err(|e| e.to_string())?.latency;
    Ok((median(&netlist_ms), median(&engine_ms), latency, primary.expect("reps >= 1")))
}

/// Scalar cycles: two `set_input`, `try_tick`, two `peek` per cycle over
/// every tile window. Returns ns per cycle.
fn scalar_ticks<E: Engine>(
    t: &mut Trace,
    engine: &mut E,
    call: &'static str,
    bank: &[Vec<(i64, i64)>],
    flush: usize,
    budget: Duration,
) -> Result<f64, String> {
    let root = t.begin("bench", "engine_pass", None, 0);
    let mut cycles = 0u64;
    let mut total = 0u64;
    let mut err = None;
    for_budget(1, budget, |pass| {
        let (r, ns) =
            t.time("engine", call, Some(root), pass as u64, || -> dwt_rtl::Result<i64> {
                let mut acc = 0i64;
                for tile in bank {
                    for (e, o) in window(tile, flush) {
                        engine.set_input("in_even", e)?;
                        engine.set_input("in_odd", o)?;
                        engine.try_tick()?;
                        acc = acc
                            .wrapping_add(engine.peek("low")?)
                            .wrapping_add(engine.peek("high")?);
                    }
                }
                Ok(acc)
            });
        match r {
            Ok(acc) => {
                std::hint::black_box(acc);
            }
            Err(e) => {
                err.get_or_insert(e.to_string());
            }
        }
        cycles += bank.iter().map(|tile| (tile.len() + flush) as u64).sum::<u64>();
        total += ns;
    });
    t.end(root);
    err.map_or(Ok(ns_per(total, cycles)), Err)
}

/// Lane-wide cycles: every lane runs a different tile window, staged
/// with `set_input_lanes` and read with `peek_lanes`. Returns ns per
/// all-lane cycle.
fn lane_ticks<E: Engine>(
    t: &mut Trace,
    engine: &mut E,
    call: &'static str,
    bank: &[Vec<(i64, i64)>],
    flush: usize,
    budget: Duration,
) -> Result<f64, String> {
    let lanes = engine.caps().lanes;
    let len = bank.iter().map(Vec::len).max().unwrap_or(0) + flush;
    let mut even = vec![vec![0i64; lanes]; len];
    let mut odd = vec![vec![0i64; lanes]; len];
    for l in 0..lanes {
        for (c, (e, o)) in window(&bank[l % bank.len()], flush).enumerate() {
            even[c][l] = e;
            odd[c][l] = o;
        }
    }
    let root = t.begin("bench", "engine_pass", None, 0);
    let mut cycles = 0u64;
    let mut total = 0u64;
    let mut err = None;
    for_budget(1, budget, |k| {
        let (r, ns) = t.time("engine", call, Some(root), k as u64, || -> dwt_rtl::Result<i64> {
            let mut acc = 0i64;
            for c in 0..len {
                engine.set_input_lanes("in_even", &even[c])?;
                engine.set_input_lanes("in_odd", &odd[c])?;
                engine.try_tick()?;
                acc = acc.wrapping_add(engine.peek_lanes("low")?[lanes - 1]);
                acc = acc.wrapping_add(engine.peek_lanes("high")?[lanes - 1]);
            }
            Ok(acc)
        });
        if let Err(e) = r {
            err.get_or_insert(e.to_string());
        }
        cycles += len as u64;
        total += ns;
    });
    t.end(root);
    err.map_or(Ok(ns_per(total, cycles)), Err)
}

/// Snapshot and restore cost on a primary engine mid-stream.
fn snapshot_restore(
    t: &mut Trace,
    engine: &mut CompiledEngine,
    budget: Duration,
) -> Result<(f64, f64), String> {
    let root = t.begin("bench", "engine_pass", None, 0);
    let snap = engine.snapshot();
    let mut snaps = 0u64;
    let mut snap_ns = 0u64;
    let mut restores = 0u64;
    let mut restore_ns = 0u64;
    let mut err = None;
    // One span per batch: a single call is a few hundred nanoseconds.
    const BATCH: u64 = 256;
    for_budget(1, budget / 2, |k| {
        let (_, ns) = t.time("engine", "snapshot", Some(root), k as u64, || {
            for _ in 0..BATCH {
                std::hint::black_box(engine.snapshot());
            }
        });
        snaps += BATCH;
        snap_ns += ns;
    });
    for_budget(1, budget / 2, |k| {
        let (r, ns) = t.time("engine", "restore", Some(root), k as u64, || {
            (0..BATCH).try_for_each(|_| engine.restore(&snap))
        });
        if let Err(e) = r {
            err.get_or_insert(e.to_string());
        }
        restores += BATCH;
        restore_ns += ns;
    });
    t.end(root);
    err.map_or(Ok((ns_per(snap_ns, snaps), ns_per(restore_ns, restores))), Err)
}

/// Builds (or loads from the benchmark's cache) the jit kernel once,
/// outside any timing.
fn warm_jit(netlist: &Netlist) -> Result<JitEngine, JitSkip> {
    JitEngine::from_netlist(netlist.clone()).map_err(|e| match e {
        dwt_rtl::Error::NativeCodegen { ref stage, ref detail }
            if stage == "rustc" && detail.starts_with("spawning") =>
        {
            JitSkip::NoRustc(detail.clone())
        }
        other => JitSkip::Failed(other.to_string()),
    })
}

/// Executor pass: `TileExecutor::run_tile` over every tile, no faults.
/// Returns (ns per pair, ticks per pair, new() median ms, attempted,
/// failed).
fn executor_pass(
    t: &mut Trace,
    bank: &[Vec<(i64, i64)>],
    expected: &[Coeffs],
    tile_pairs: usize,
    reps: usize,
    budget: Duration,
) -> Result<(f64, f64, f64, u64, u64), String> {
    let root = t.begin("bench", "executor_pass", None, 0);
    let cfg = ExecutorConfig { tile_pairs, ..ExecutorConfig::default() };
    let mut new_ms = Vec::new();
    let mut exec = None;
    for rep in 0..reps {
        let (e, ns) = t.time("executor", "new", Some(root), rep as u64, || {
            TileExecutor::<CompiledEngine>::new(DESIGN, cfg)
        });
        exec = Some(e.map_err(|e| e.to_string())?);
        new_ms.push(ns as f64 / 1e6);
    }
    let mut exec = exec.expect("reps >= 1");
    let cycles0 = exec.executed_cycles();
    let (mut pairs, mut total, mut attempted, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let mut since_reset = 0usize;
    for_budget(bank.len(), budget, |k| {
        let (r, ns) = t.time("executor", "run_tile", Some(root), k as u64, || {
            exec.run_tile(&bank[k], &mut NoFaults)
        });
        attempted += 1;
        match r {
            Ok((_, low, high)) => {
                failed += u64::from(low != expected[k].0 || high != expected[k].1)
            }
            Err(_) => failed += 1,
        }
        pairs += bank[k].len() as u64;
        total += ns;
        // Re-arm like the server's `reset_every`, so the golden history
        // stays bounded.
        since_reset += 1;
        if since_reset == 256 {
            since_reset = 0;
            failed += u64::from(exec.reset().is_err());
        }
    });
    let ticks = exec.executed_cycles() - cycles0;
    t.end(root);
    Ok((
        ns_per(total, pairs),
        ticks as f64 / pairs.max(1) as f64,
        median(&new_ms),
        attempted,
        failed,
    ))
}

/// Per-layer numbers shared by every workload's ledger.
struct Common {
    golden_ns: f64,
    netlist_ms: f64,
    engine_ms: f64,
    tick_ns: f64,
    lanes_tick_ns: f64,
    snapshot_ns: f64,
    restore_ns: f64,
    jit: Result<(f64, f64), JitSkip>,
}

/// Runs the traced ledger for one workload.
///
/// # Errors
///
/// A construction failure that leaves nothing to measure.
pub fn run(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let budget = Budget(opts.seconds);
    let mut t = Trace::new();
    let mut out = Outcome::default();
    let reps = if opts.toy { 1 } else { 3 };

    let tile_pairs = match workload {
        Workload::PartitionThreads => opts.frame_cycles() as usize,
        _ => workload.tile_pairs(),
    };
    let bank = match workload {
        Workload::PoolChaos => still_tone_pairs(opts.pool_pairs(), opts.seed)
            .chunks(tile_pairs)
            .map(<[_]>::to_vec)
            .collect(),
        _ => tile_bank(opts.seed, opts.bank(workload), tile_pairs),
    };
    let expected: Vec<Coeffs> = bank.iter().map(|tile| audit::golden_tile(tile)).collect();

    let (netlist_ms, engine_ms, latency, netlist) = build_pass(&mut t, reps)?;
    // Partition frames stream without a flush; tiles carry one.
    let flush = if workload == Workload::PartitionThreads { 0 } else { latency + 2 };
    let golden_ns = golden_pass(&mut t, &bank, flush, budget.of(0.04));

    let mut engine = CompiledEngine::from_netlist(netlist.clone()).map_err(|e| e.to_string())?;
    let tick_ns = scalar_ticks(&mut t, &mut engine, "tick_tile", &bank, flush, budget.of(0.06))?;
    let lanes_tick_ns =
        lane_ticks(&mut t, &mut engine, "lanes_tick", &bank, flush, budget.of(0.04))?;
    let (snapshot_ns, restore_ns) = snapshot_restore(&mut t, &mut engine, budget.of(0.02))?;
    let jit = match warm_jit(&netlist) {
        Ok(mut jit) => {
            let scalar =
                scalar_ticks(&mut t, &mut jit, "jit_tick_tile", &bank, flush, budget.of(0.04));
            let lanes =
                lane_ticks(&mut t, &mut jit, "jit_lanes_tick", &bank, flush, budget.of(0.03));
            scalar.and_then(|s| lanes.map(|l| (s, l))).map_err(JitSkip::Failed)
        }
        Err(skip) => Err(skip),
    };
    let common = Common {
        golden_ns,
        netlist_ms,
        engine_ms,
        tick_ns,
        lanes_tick_ns,
        snapshot_ns,
        restore_ns,
        jit,
    };

    let executor = if workload == Workload::PartitionThreads {
        None
    } else {
        let (ns, ticks, new_ms, attempted, failed) =
            executor_pass(&mut t, &bank, &expected, tile_pairs, reps, budget.of(0.12))?;
        out.attempted += attempted;
        out.failed += failed;
        Some((ns, ticks, new_ms))
    };

    let stack = match workload {
        Workload::ServeSmallTiles | Workload::ServeSerialLarge => {
            serve_stack(&mut t, workload, opts, &bank, &expected, &budget, executor.map(|e| e.0))?
        }
        Workload::PoolChaos => pool_stack(&mut t, opts, &budget, executor.map(|e| e.0))?,
        Workload::PartitionThreads => partition_stack(&mut t, opts, &budget, tick_ns)?,
    };
    out.attempted += stack.attempted;
    out.failed += stack.failed;

    out.metrics = ledger_metrics(&common, executor, &stack);
    out.notes.extend(stack.notes);
    if let Err(skip) = &common.jit {
        out.notes.push(format!("jit skipped: {skip}"));
    }
    for (layer, totals) in t.layer_totals() {
        out.notes.push(format!(
            "ledger {layer:<10} calls {:>8}  total {:>10.3} ms  self {:>10.3} ms",
            totals.calls,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        ));
    }
    let spans = t.spans().len();
    let dir = trace_dir();
    let path = dir.join(format!("{}.jsonl", workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, t.to_jsonl())) {
        Ok(()) => out.notes.push(format!("{spans} spans written to {}", path.display())),
        Err(e) => out.notes.push(format!("spans not written ({}): {e}", path.display())),
    }
    Ok(out)
}

/// What the workload's own stack pass measured.
#[derive(Default)]
struct Stack {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    overhead: Option<(f64, usize)>,
}

/// Traced and untraced windows in ABBA order, so drift over the run
/// (warm caches, clock changes) falls on both sides alike.
const ABBA: [bool; 4] = [true, false, false, true];

fn serve_stack(
    t: &mut Trace,
    workload: Workload,
    opts: &Options,
    bank: &[Vec<(i64, i64)>],
    expected: &[Coeffs],
    budget: &Budget,
    executor_ns: Option<f64>,
) -> Result<Stack, String> {
    let cfg = serve_config(workload, opts.seed);
    let window = budget.of(0.15);
    let mut stats = [LoopStats::default(), LoopStats::default()];
    let (mut retries, mut golden_served) = (0u64, 0u64);
    let mut st = Stack::default();
    for traced in ABBA {
        let (server, rx, _, first) = start_server(&cfg, &bank[0])?;
        st.attempted += 1;
        st.failed += u64::from(!audit::response_ok(&first, &expected[0]));
        let side = &mut stats[usize::from(!traced)];
        let trace = traced.then_some(&mut *t);
        let warmup = opts.warmup() / 2;
        closed_loop(&server, &rx, bank, expected, in_flight(workload), warmup, window, trace, side);
        let served = server.shutdown();
        if traced {
            retries += served.counters.retries;
            golden_served += served.counters.golden_served;
        }
    }
    let [traced, untraced] = stats;
    st.attempted += traced.attempted + untraced.attempted;
    st.failed += traced.failed + untraced.failed;
    let traced_s = 2.0 * window.as_secs_f64();
    let per_pair_per_worker =
        traced_s * 1e9 * SERVE_WORKERS as f64 / traced.window_pairs.max(1) as f64;
    let exec = executor_ns.unwrap_or(0.0);
    let n = traced.latency.len();
    st.metrics = vec![
        Metric::new("serve.keep", exec / per_pair_per_worker, "ratio", n),
        Metric::new("serve.self_ns_per_pair", per_pair_per_worker - exec, "ns", n),
        Metric::new(
            "serve.submit_block_ms_p90",
            percentile_ms(&traced.submit_block, 90.0),
            "ms",
            traced.submit_block.len(),
        ),
        Metric::new(
            "serve.delivery_ms_p90",
            percentile_ms(&traced.delivery, 90.0),
            "ms",
            traced.delivery.len(),
        ),
        Metric::new("serve.retries", retries as f64, "count", 1),
        Metric::new("serve.golden_served", golden_served as f64, "count", 1),
    ];
    st.overhead = Some((overhead(untraced.window_pairs as f64, traced.window_pairs as f64), 4));
    Ok(st)
}

/// Relative cost of tracing, `a / b - 1`: pass the untraced and traced
/// rates, or the traced and untraced times.
fn overhead(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b - 1.0
    } else {
        0.0
    }
}

fn pool_stack(
    t: &mut Trace,
    opts: &Options,
    budget: &Budget,
    executor_ns: Option<f64>,
) -> Result<Stack, String> {
    let pairs = still_tone_pairs(opts.pool_pairs(), opts.seed);
    let mut tally = PoolTally::default();
    let mut run_ns: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let root = t.begin("bench", "pool_pass", None, 0);
    // One untimed run first: the first pool of a process pays page
    // faults the rest do not. Then traced and untraced runs in ABBA
    // order, at least one full round.
    let mut k = 0usize;
    repeat_for(Duration::ZERO, budget.of(0.6), 1 + ABBA.len(), |_| {
        let side = k.checked_sub(1).map(|i| ABBA[i % ABBA.len()]);
        k += 1;
        let trace = (side == Some(true)).then_some((&mut *t, root));
        if let (Some((_, run_s)), Some(traced)) = (pool_step(&pairs, trace, &mut tally), side) {
            run_ns[usize::from(!traced)].push(run_s * 1e9);
        }
    });
    t.end(root);
    let mut st = Stack::default();
    let d = tally.digest(&mut st.notes)?;
    st.attempted = tally.attempted;
    st.failed = tally.failed;
    let ns_per_pair = median(&run_ns[0]) / pairs.len() as f64;
    let n = run_ns[0].len();
    st.metrics = vec![
        Metric::new("pool.ns_per_pair", ns_per_pair, "ns", n),
        Metric::new("pool.self_ns_per_pair", ns_per_pair - executor_ns.unwrap_or(0.0), "ns", n),
        Metric::new("pool.rung.primary", d.rungs["primary"] as f64, "count", 1),
        Metric::new("pool.rung.replay", d.rungs["replay"] as f64, "count", 1),
        Metric::new("pool.rung.tmr", d.rungs["tmr"] as f64, "count", 1),
        Metric::new("pool.rung.golden", d.rungs["golden"] as f64, "count", 1),
        Metric::new("pool.breaker_transitions", d.breaker_transitions as f64, "count", 1),
        Metric::new("pool.shed", d.shed as f64, "count", 1),
        Metric::new("pool.recovery_cycles", d.recovery_cycles as f64, "cycles", 1),
    ];
    st.notes.push(d.line());
    let overhead_n = run_ns[0].len() + run_ns[1].len();
    st.overhead = Some((overhead(median(&run_ns[0]), median(&run_ns[1])), overhead_n));
    Ok(st)
}

fn partition_stack(
    t: &mut Trace,
    opts: &Options,
    budget: &Budget,
    tick_ns: f64,
) -> Result<Stack, String> {
    let root = t.begin("bench", "partition_pass", None, 0);
    let mut cut_ms = Vec::new();
    let built = DESIGN.build().map_err(|e| e.to_string())?;
    for rep in 0..if opts.toy { 1 } else { 5 } {
        let (cut, ns) = t.time("partition", "cut", Some(root), rep, || {
            partition(&built.netlist, PARTITION_SHARDS, &CutOptions::default())
        });
        std::hint::black_box(cut.map_err(|e| e.to_string())?);
        cut_ms.push(ns as f64 / 1e6);
    }
    let (cut, _) = build_cut()?;
    let (stims, oracles) = frame_bank(&cut, opts)?;
    let runner = PartitionRunner::<CompiledEngine>::new(&cut, RunnerConfig::default());
    let mut st = Stack::default();
    let mut frame_ns = [0u64; 2];
    let mut frame_cycles = [0u64; 2];
    let (mut single_ns, mut single_cycles, mut barriers) = (0u64, 0u64, 0u64);
    for_budget(stims.len(), budget.of(0.6), |k| {
        let traced = ABBA[k % 4];
        let side = usize::from(!traced);
        let trace = traced.then_some((&mut *t, root, k as u64));
        let (ns, report) = frame_step(&runner, &stims[k], &oracles[k], trace);
        frame_ns[side] += ns;
        frame_cycles[side] += stims[k].cycles;
        st.attempted += 1;
        match report {
            Some(report) => barriers = report.barriers,
            None => st.failed += 1,
        }
        if traced {
            let (r, ns) = t.time("partition", "run_single", Some(root), k as u64, || {
                run_single::<CompiledEngine>(&cut.original, &stims[k], None)
            });
            st.failed += u64::from(r.map_or(true, |o| o != oracles[k]));
            single_ns += ns;
            single_cycles += stims[k].cycles;
        }
    });
    t.end(root);
    let per_cycle = ns_per(frame_ns[0], frame_cycles[0]);
    let single = ns_per(single_ns, single_cycles);
    let n = (frame_cycles[0] / opts.frame_cycles().max(1)) as usize;
    st.metrics = vec![
        Metric::new("partition.cut_ms", median(&cut_ms), "ms", cut_ms.len()),
        Metric::new("partition.ns_per_cycle", per_cycle, "ns", n),
        Metric::new("partition.keep", single / per_cycle.max(f64::MIN_POSITIVE), "ratio", n),
        Metric::new("partition.self_ns_per_cycle", per_cycle - single, "ns", n),
        Metric::new("partition.barriers", barriers as f64, "count", 1),
    ];
    st.notes.push(format!(
        "partition: unsplit engine {single:.1} ns/cycle, scalar engine tick {tick_ns:.1} ns"
    ));
    let untraced = ns_per(frame_ns[1], frame_cycles[1]);
    st.overhead = Some((overhead(per_cycle, untraced), n));
    Ok(st)
}

/// Every per-layer metric in `BENCHMARK.json` order; layers the workload
/// does not run are reported as skipped zeros.
fn ledger_metrics(c: &Common, executor: Option<(f64, f64, f64)>, stack: &Stack) -> Vec<Metric> {
    let mut m = vec![
        Metric::new("golden.ns_per_pair", c.golden_ns, "ns", 1),
        Metric::new("build.netlist_ms", c.netlist_ms, "ms", 1),
        Metric::new("build.engine_ms", c.engine_ms, "ms", 1),
        Metric::new("engine.tick_ns", c.tick_ns, "ns", 1),
        Metric::new("engine.lanes_tick_ns", c.lanes_tick_ns, "ns", 1),
        Metric::new("engine.snapshot_ns", c.snapshot_ns, "ns", 1),
        Metric::new("engine.restore_ns", c.restore_ns, "ns", 1),
    ];
    match &c.jit {
        Ok((scalar, lanes)) => {
            m.push(Metric::new("engine.jit_tick_ns", *scalar, "ns", 1));
            m.push(Metric::new("engine.jit_lanes_tick_ns", *lanes, "ns", 1));
        }
        Err(skip) => {
            m.push(Metric::skipped("engine.jit_tick_ns", "ns", skip.to_string()));
            m.push(Metric::skipped("engine.jit_lanes_tick_ns", "ns", skip.to_string()));
        }
    }
    match executor {
        Some((ns, ticks, new_ms)) => {
            let keep = if ns > 0.0 { c.tick_ns * ticks / ns } else { 0.0 };
            m.push(Metric::new("executor.ns_per_pair", ns, "ns", 1));
            m.push(Metric::new("executor.ticks_per_pair", ticks, "ticks", 1));
            m.push(Metric::new("executor.keep", keep, "ratio", 1));
            m.push(Metric::new(
                "executor.self_ns_per_pair",
                ns - ticks * (c.tick_ns + c.golden_ns),
                "ns",
                1,
            ));
            m.push(Metric::new("executor.new_ms", new_ms, "ms", 1));
        }
        None => {
            for (name, unit) in EXECUTOR_METRICS {
                m.push(Metric::skipped(name, unit, "the partition stack bypasses the executor"));
            }
        }
    }
    for (name, unit) in STACK_METRICS {
        match stack.metrics.iter().find(|x| x.name == name) {
            Some(x) => m.push(x.clone()),
            None => m.push(Metric::skipped(name, unit, "layer not on this workload's path")),
        }
    }
    let (overhead, n) = stack.overhead.unwrap_or((0.0, 0));
    m.push(Metric::new("trace.overhead", overhead, "ratio", n));
    m
}

const EXECUTOR_METRICS: [(&str, &str); 5] = [
    ("executor.ns_per_pair", "ns"),
    ("executor.ticks_per_pair", "ticks"),
    ("executor.keep", "ratio"),
    ("executor.self_ns_per_pair", "ns"),
    ("executor.new_ms", "ms"),
];

const STACK_METRICS: [(&str, &str); 20] = [
    ("pool.ns_per_pair", "ns"),
    ("pool.self_ns_per_pair", "ns"),
    ("pool.rung.primary", "count"),
    ("pool.rung.replay", "count"),
    ("pool.rung.tmr", "count"),
    ("pool.rung.golden", "count"),
    ("pool.breaker_transitions", "count"),
    ("pool.shed", "count"),
    ("pool.recovery_cycles", "cycles"),
    ("serve.keep", "ratio"),
    ("serve.self_ns_per_pair", "ns"),
    ("serve.submit_block_ms_p90", "ms"),
    ("serve.delivery_ms_p90", "ms"),
    ("serve.retries", "count"),
    ("serve.golden_served", "count"),
    ("partition.cut_ms", "ms"),
    ("partition.ns_per_cycle", "ns"),
    ("partition.keep", "ratio"),
    ("partition.self_ns_per_cycle", "ns"),
    ("partition.barriers", "count"),
];
