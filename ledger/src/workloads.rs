//! The four workloads and their timed, untraced end-to-end runs.
//!
//! Every run builds its inputs from the seed, times fresh constructions
//! spread over the run, warms up, measures for the requested number of
//! seconds in slices of consecutive requests, and audits every response,
//! pool report or partition frame bit for bit against the software
//! golden model or the single-engine oracle.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use dwt_arch::designs::Design;
use dwt_arch::golden::still_tone_pairs;
use dwt_bench::campaign::LatencyHistogram;
use dwt_bench::pool::PoolCampaignConfig;
use dwt_partition::runner::{Rung as FrameRung, RunnerConfig};
use dwt_partition::{
    partition, run_single, ChaosPlan, CutOptions, FrameOutputs, FrameReport, PartitionRunner,
    Stimulus,
};
use dwt_pool::{Pool, PoolConfig};
use dwt_rtl::compile::CompiledEngine;
use dwt_serve::{ServeConfig, Server, TileRequest, TileResponse};

use crate::audit::{self, Coeffs, PoolDigest};
use crate::report::{peak_rss_mb, percentile_ms, Metric, Outcome, Slices, QUIET};
use crate::trace::Trace;

/// The design every workload runs: the paper's 21-stage structural
/// pipeline.
pub const DESIGN: Design = Design::D5;

/// Worker threads of the serving workloads: one, so that the worker and
/// the generator thread each have a core of the two-core target. A
/// second worker would share a core with the generator, and the
/// scheduler's choices would decide the latencies.
pub const SERVE_WORKERS: usize = 1;

/// Shards of the partition workload.
pub const PARTITION_SHARDS: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// `Server`, 16-pair tiles, closed loop with 64 tiles in flight.
    ServeSmallTiles,
    /// `Server`, 1024-pair tiles, closed loop with one tile in flight.
    ServeSerialLarge,
    /// The virtual-time `Pool`, four lanes, under the default chaos.
    PoolChaos,
    /// `PartitionRunner` in thread mode, two shards, no chaos.
    PartitionThreads,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeSmallTiles,
        Workload::ServeSerialLarge,
        Workload::PoolChaos,
        Workload::PartitionThreads,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmallTiles => "serve-small-tiles",
            Workload::ServeSerialLarge => "serve-serial-large",
            Workload::PoolChaos => "pool-chaos",
            Workload::PartitionThreads => "partition-threads",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sample pairs per tile (per frame cycle for the partition).
    #[must_use]
    pub fn tile_pairs(self) -> usize {
        match self {
            Workload::ServeSerialLarge => 1024,
            _ => 16,
        }
    }
}

/// How a run is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Shrink every workload to a few tiles (for tests).
    pub toy: bool,
}

impl Options {
    /// Fresh constructions behind the set-up time (at least).
    #[must_use]
    pub fn setup_reps(&self) -> usize {
        if self.toy {
            2
        } else {
            64
        }
    }

    /// Warm-up before the measured window.
    #[must_use]
    pub fn warmup(&self) -> Duration {
        Duration::from_millis(if self.toy { 50 } else { 500 })
    }

    /// The measured window.
    #[must_use]
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.05))
    }

    /// Fresh servers the serve window is split over.
    #[must_use]
    pub fn segments(&self) -> usize {
        if self.toy {
            1
        } else {
            8
        }
    }

    /// Consecutive requests per slice (see [`Slices`]): tens of
    /// milliseconds of work each, so a run holds a few hundred slices.
    #[must_use]
    pub fn slice_requests(&self, workload: Workload) -> usize {
        match (workload, self.toy) {
            (_, true) => 2,
            (Workload::ServeSmallTiles, false) => 512,
            (Workload::ServeSerialLarge, false) => 16,
            (Workload::PoolChaos, false) => 2,
            (Workload::PartitionThreads, false) => 4,
        }
    }

    /// Distinct tiles (or frames) generated from the seed.
    #[must_use]
    pub fn bank(&self, workload: Workload) -> usize {
        match (workload, self.toy) {
            (_, true) => 4,
            (Workload::ServeSmallTiles, false) => 256,
            _ => 16,
        }
    }

    /// Sample pairs of the pool workload (16-pair tiles).
    #[must_use]
    pub fn pool_pairs(&self) -> usize {
        if self.toy {
            256
        } else {
            4096
        }
    }

    /// Cycles of one partition frame.
    #[must_use]
    pub fn frame_cycles(&self) -> u64 {
        if self.toy {
            128
        } else {
            2048
        }
    }
}

/// SplitMix64 step: derives independent per-item seeds from the run
/// seed.
#[must_use]
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` distinct still-tone tiles of `len` pairs, drawn from `seed`.
#[must_use]
pub fn tile_bank(seed: u64, n: usize, len: usize) -> Vec<Vec<(i64, i64)>> {
    (0..n as u64).map(|k| still_tone_pairs(len, mix(seed, k))).collect()
}

/// A partition frame driving `in_even`/`in_odd` with still-tone pairs.
#[must_use]
pub fn frame_stimulus(pairs: &[(i64, i64)]) -> Stimulus {
    let mut inputs = BTreeMap::new();
    inputs.insert("in_even".to_owned(), pairs.iter().map(|p| p.0).collect());
    inputs.insert("in_odd".to_owned(), pairs.iter().map(|p| p.1).collect());
    Stimulus { cycles: pairs.len() as u64, inputs }
}

/// The serving configuration of a serve workload.
#[must_use]
pub fn serve_config(workload: Workload, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(DESIGN);
    cfg.workers = SERVE_WORKERS;
    cfg.executor.tile_pairs = workload.tile_pairs();
    cfg.seed = seed;
    cfg
}

/// Tiles kept in flight by the closed-loop generator. The large-tile
/// workload models a caller waiting on each reply: nothing queued.
#[must_use]
pub fn in_flight(workload: Workload) -> usize {
    match workload {
        Workload::ServeSmallTiles => 64,
        _ => 1,
    }
}

/// The pool configuration: four lanes of Design 5, 16-pair tiles, a
/// 12-cycle gap and the campaign's default chaos scenario (lane 0
/// stuck, lane 1 at twice the cost, SEU bursts, 400-cycle deadline).
/// The chaos scenario is part of the workload; the seed picks the
/// stimulus.
#[must_use]
pub fn pool_config() -> PoolConfig {
    PoolConfig {
        design: DESIGN,
        tile_pairs: 16,
        interarrival_cycles: 12,
        ..PoolCampaignConfig::default().pool
    }
}

/// What the closed-loop generator observed.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Responses in the window, in slices of consecutive completions
    /// (the default keeps none).
    pub slices: Slices,
    /// Generator-observed latency per response in the window, ns.
    pub latency: LatencyHistogram,
    /// Hardware attempts per response.
    pub attempts: LatencyHistogram,
    /// Time blocked inside `Server::submit`, ns (traced runs only).
    pub submit_block: LatencyHistogram,
    /// Observed latency minus the server's own `latency_ns`, ns
    /// (traced runs only).
    pub delivery: LatencyHistogram,
    /// Requests submitted.
    pub attempted: u64,
    /// Mismatches, refused submits and lost responses.
    pub failed: u64,
    /// Responses received.
    pub responses: u64,
    /// Responses served by a hardware rung.
    pub hardware: u64,
    /// Pairs of the responses inside the window.
    pub window_pairs: u64,
}

impl LoopStats {
    /// Stats that also keep slices of `per` consecutive responses.
    #[must_use]
    pub fn with_slices(per: usize) -> Self {
        LoopStats { slices: Slices::new(per), ..LoopStats::default() }
    }
}

/// A request in flight: when it was submitted and its trace span.
struct Pending {
    at: Instant,
    span: Option<usize>,
}

/// The closed-loop generator's submit side.
struct Generator<'a> {
    server: &'a Server<CompiledEngine>,
    bank: &'a [Vec<(i64, i64)>],
    pending: HashMap<u64, Pending>,
    next_id: u64,
}

impl Generator<'_> {
    /// Submits the next request; a refused submit counts as failed.
    fn submit(&mut self, stats: &mut LoopStats, trace: &mut Option<&mut Trace>) {
        let id = self.next_id;
        self.next_id += 1;
        let pairs = self.bank[id as usize % self.bank.len()].clone();
        let server = self.server;
        let at = Instant::now();
        let (result, span) = match trace.as_deref_mut() {
            Some(t) => {
                let req = t.begin("serve", "request", None, id);
                let (result, ns) = t.time("serve", "submit", Some(req), id, || {
                    server.submit(TileRequest { id, pairs })
                });
                stats.submit_block.record(ns);
                (result, Some(req))
            }
            None => (server.submit(TileRequest { id, pairs }), None),
        };
        stats.attempted += 1;
        match result {
            Ok(()) => {
                self.pending.insert(id, Pending { at, span });
            }
            Err(_) => stats.failed += 1,
        }
    }
}

/// Drives `server` closed loop: keeps `in_flight` requests outstanding,
/// submitting the next as each response arrives, for `warmup` plus
/// `window`; then drains. Every response is compared with the
/// precomputed golden coefficients of its tile as it is drained.
/// Observations are added to `stats`; memory stays bounded by the
/// requests in flight. With a trace, each request gets a
/// `serve/request` span (submit call to receipt) with a `serve/submit`
/// child.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    server: &Server<CompiledEngine>,
    rx: &Receiver<TileResponse>,
    bank: &[Vec<(i64, i64)>],
    expected: &[Coeffs],
    in_flight: usize,
    warmup: Duration,
    window: Duration,
    mut trace: Option<&mut Trace>,
    stats: &mut LoopStats,
) {
    let mut gen =
        Generator { server, bank, pending: HashMap::with_capacity(in_flight), next_id: 0 };
    let open = Instant::now() + warmup;
    let close = open + window;
    // The server is busy throughout; a response's share of a slice is
    // the time since the previous one.
    let mut last = open;

    for _ in 0..in_flight.max(1) {
        gen.submit(stats, &mut trace);
    }
    while !gen.pending.is_empty() {
        let Ok(resp) = rx.recv_timeout(Duration::from_secs(60)) else {
            stats.failed += gen.pending.len() as u64;
            break;
        };
        let now = Instant::now();
        stats.responses += 1;
        let Some(req) = gen.pending.remove(&resp.id) else {
            stats.failed += 1;
            continue;
        };
        if let (Some(t), Some(span)) = (trace.as_deref_mut(), req.span) {
            t.end(span);
        }
        let latency_ns = nanos(now - req.at);
        let tile = resp.id as usize % expected.len();
        stats.failed += u64::from(!audit::response_ok(&resp, &expected[tile]));
        stats.hardware += u64::from(resp.hardware_served());
        stats.attempts.record(u64::from(resp.attempts));
        if now >= open && now < close {
            let pairs = resp.pairs as u64;
            stats.slices.record(pairs, latency_ns, nanos(now - last));
            last = now;
            stats.window_pairs += pairs;
            stats.latency.record(latency_ns);
            if trace.is_some() {
                stats.delivery.record(latency_ns.saturating_sub(resp.latency_ns));
            }
        }
        if now < close {
            gen.submit(stats, &mut trace);
        }
    }
    stats.slices.discard_partial();
}

/// The end-to-end metrics every workload reports, in order. Set-up time
/// is the quietest twentieth of the constructions, which are spread over
/// the run; throughput and latency come from the quietest slices (see
/// [`Slices`]), and the sample count beside them is the number of
/// slices.
fn end_to_end(
    setup: &[f64],
    slices: &Slices,
    availability: (f64, usize),
    sim_lat_p90_cycles: (u64, usize),
) -> Vec<Metric> {
    let n = slices.len();
    vec![
        Metric::new("setup_s", percentile_ms(&setup_hist(setup), QUIET) / 1e3, "s", setup.len()),
        Metric::new("pairs_per_s", slices.pairs_per_s(), "pairs/s", n),
        Metric::new("lat_p50_ms", slices.latency_ms(50.0), "ms", n),
        Metric::new("lat_p90_ms", slices.latency_ms(90.0), "ms", n),
        Metric::new("availability", availability.0, "fraction", availability.1),
        Metric::new(
            "sim_lat_p90_cycles",
            sim_lat_p90_cycles.0 as f64,
            "cycles",
            sim_lat_p90_cycles.1,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ]
}

/// One line of latency quantiles over every request of the window, for
/// spotting a bimodal distribution.
fn latency_note(hist: &LatencyHistogram) -> String {
    let q: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0]
        .iter()
        .map(|&p| format!("p{p}={:.3}", percentile_ms(hist, p)))
        .collect();
    format!("latency ms: {}", q.join(" "))
}

/// Set-up times, seconds, as a histogram of nanoseconds.
fn setup_hist(setup: &[f64]) -> LatencyHistogram {
    let mut hist = LatencyHistogram::new();
    hist.extend(setup.iter().map(|&s| (s * 1e9) as u64));
    hist
}

/// One line of set-up time quantiles.
fn setup_note(setup: &[f64]) -> String {
    let hist = setup_hist(setup);
    let q: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0]
        .iter()
        .map(|&p| format!("p{p}={:.3}", percentile_ms(&hist, p)))
        .collect();
    format!("set-up ms over {} constructions: {}", setup.len(), q.join(" "))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A duration in whole nanoseconds.
#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Calls `step` back to back through `warmup` and then `window`, telling
/// it whether the call starts inside the measured window, and at least
/// `min` times in all. Every call counts, failed or not, so a step that
/// always fails still ends. Returns the number of calls.
pub fn repeat_for(
    warmup: Duration,
    window: Duration,
    min: usize,
    mut step: impl FnMut(bool),
) -> usize {
    let open = Instant::now() + warmup;
    let close = open + window;
    let mut calls = 0;
    loop {
        let now = Instant::now();
        if now >= close && calls >= min {
            return calls;
        }
        step(now >= open && now < close);
        calls += 1;
    }
}

/// Runs one workload end to end (tracing off).
///
/// # Errors
///
/// A construction failure that leaves nothing to measure.
pub fn run(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    match workload {
        Workload::ServeSmallTiles | Workload::ServeSerialLarge => run_serve(workload, opts),
        Workload::PoolChaos => run_pool(opts),
        Workload::PartitionThreads => run_partition(opts),
    }
}

/// A started server, its response stream, its set-up time (start to
/// first accepted submit) and the response to that first request.
pub type Started = (Server<CompiledEngine>, Receiver<TileResponse>, f64, TileResponse);

/// Starts a server and submits its first request.
///
/// # Errors
///
/// Server construction, a refused first submit, or no first response.
pub fn start_server(cfg: &ServeConfig, first: &[(i64, i64)]) -> Result<Started, String> {
    let t0 = Instant::now();
    let (server, rx) = Server::<CompiledEngine>::start(cfg.clone()).map_err(|e| e.to_string())?;
    server
        .submit(TileRequest { id: u64::MAX, pairs: first.to_vec() })
        .map_err(|e| e.to_string())?;
    let setup = secs(t0.elapsed());
    let resp =
        rx.recv_timeout(Duration::from_secs(60)).map_err(|e| format!("first response: {e}"))?;
    Ok((server, rx, setup, resp))
}

fn run_serve(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let cfg = serve_config(workload, opts.seed);
    let bank = tile_bank(opts.seed, opts.bank(workload), workload.tile_pairs());
    let expected: Vec<Coeffs> = bank.iter().map(|t| audit::golden_tile(t)).collect();
    let latency = DESIGN.build().map_err(|e| e.to_string())?.latency;
    // The window is split over several fresh servers, so one server's
    // thread placement does not decide the whole run. Each segment
    // starts a few servers and keeps the last; every start is a set-up
    // sample, so the samples are spread over the run like the windows.
    let per_segment = opts.setup_reps().div_ceil(opts.segments());
    let mut setup = Vec::new();
    let mut first_failed = 0u64;
    let mut stats = LoopStats::with_slices(opts.slice_requests(workload));
    let (mut retries, mut golden_served) = (0u64, 0u64);
    for _ in 0..opts.segments() {
        let mut kept: Option<(Server<CompiledEngine>, Receiver<TileResponse>)> = None;
        for _ in 0..per_segment {
            if let Some((old, _)) = kept.take() {
                let _ = old.shutdown();
            }
            let (server, rx, s, first) = start_server(&cfg, &bank[0])?;
            setup.push(s);
            first_failed += u64::from(!audit::response_ok(&first, &expected[0]));
            kept = Some((server, rx));
        }
        let (server, rx) = kept.ok_or("no server started")?;
        let warmup = opts.warmup() / opts.segments() as u32;
        let segment = opts.window() / opts.segments() as u32;
        let in_flight = in_flight(workload);
        closed_loop(&server, &rx, &bank, &expected, in_flight, warmup, segment, None, &mut stats);
        let served = server.shutdown();
        retries += served.counters.retries;
        golden_served += served.counters.golden_served;
    }

    // Every hardware attempt streams the tile's window: its pairs plus
    // the pipeline flush.
    let attempts_p90 = stats.attempts.percentile(90.0).unwrap_or(0);
    let sim_lat = attempts_p90 * (workload.tile_pairs() + latency + 2) as u64;
    let availability = stats.hardware as f64 / stats.responses.max(1) as f64;
    let responses = stats.responses as usize;
    let mut outcome = Outcome {
        attempted: stats.attempted + setup.len() as u64,
        failed: stats.failed + first_failed,
        metrics: end_to_end(
            &setup,
            &stats.slices,
            (availability, responses),
            (sim_lat, stats.attempts.len()),
        ),
        notes: Vec::new(),
    };
    outcome.notes.push(stats.slices.rate_note());
    outcome.notes.push(setup_note(&setup));
    outcome.notes.push(latency_note(&stats.latency));
    outcome.notes.push(format!(
        "serve: {} responses ({} in window), retries {retries}, golden-served {golden_served}",
        stats.responses,
        stats.latency.len(),
    ));
    Ok(outcome)
}

/// One pool run: construction time, run time, report.
///
/// # Errors
///
/// Pool construction or harness failure.
pub fn pool_once(pairs: &[(i64, i64)]) -> Result<(f64, f64, dwt_pool::PoolReport), String> {
    let t0 = Instant::now();
    let mut pool = Pool::<CompiledEngine>::new(pool_config()).map_err(|e| e.to_string())?;
    let setup = secs(t0.elapsed());
    let t1 = Instant::now();
    let report = pool.run(pairs).map_err(|e| e.to_string())?;
    Ok((setup, secs(t1.elapsed()), report))
}

/// What the pool runs of one workload pass added up to.
#[derive(Debug, Default)]
pub struct PoolTally {
    /// Tiles attempted, plus one per failed run.
    pub attempted: u64,
    /// Tiles that differ from golden, plus one per failed run.
    pub failed: u64,
    /// Every distinct digest seen.
    pub digests: Vec<PoolDigest>,
}

impl PoolTally {
    /// The digest of the runs. Every run of one seed must repeat the
    /// same simulated statistics, so each further digest is a failure,
    /// noted in `notes`.
    ///
    /// # Errors
    ///
    /// No run completed.
    pub fn digest(&mut self, notes: &mut Vec<String>) -> Result<PoolDigest, String> {
        let first = self.digests.first().cloned().ok_or("no pool run completed")?;
        for d in &self.digests[1..] {
            self.failed += 1;
            notes.push(format!("nondeterministic pool run: {}", d.line()));
        }
        Ok(first)
    }
}

/// One audited pool run: a fresh pool runs `pairs` (inside a `pool/run`
/// span under the given parent when traced); the report is audited and
/// its digest kept after the run is timed. Returns construction and run
/// time in seconds, or `None` for an `Err`, which counts as failed.
pub fn pool_step(
    pairs: &[(i64, i64)],
    trace: Option<(&mut Trace, usize)>,
    tally: &mut PoolTally,
) -> Option<(f64, f64)> {
    let result = match trace {
        Some((t, parent)) => t.time("pool", "run", Some(parent), 0, || pool_once(pairs)).0,
        None => pool_once(pairs),
    };
    let Ok((setup, run_s, report)) = result else {
        tally.attempted += 1;
        tally.failed += 1;
        return None;
    };
    tally.attempted += report.tiles.len() as u64;
    tally.failed += audit::pool_mismatches(&report, pairs, pool_config().tile_pairs);
    let d = PoolDigest::of(&report);
    if !tally.digests.contains(&d) {
        tally.digests.push(d);
    }
    Some((setup, run_s))
}

/// Fresh pools back to back, one at a time; a `Pool::run` call is one
/// request.
fn run_pool(opts: &Options) -> Result<Outcome, String> {
    let pairs = still_tone_pairs(opts.pool_pairs(), opts.seed);
    let mut tally = PoolTally::default();
    let mut setup = Vec::new();
    let mut slices = Slices::new(opts.slice_requests(Workload::PoolChaos));
    repeat_for(opts.warmup(), opts.window(), opts.setup_reps(), |measured| {
        if let Some((s, run_s)) = pool_step(&pairs, None, &mut tally) {
            setup.push(s);
            if measured {
                let ns = (run_s * 1e9) as u64;
                slices.record(pairs.len() as u64, ns, ns);
            }
        }
    });

    let mut outcome = Outcome::default();
    let digest = tally.digest(&mut outcome.notes)?;
    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;
    outcome.metrics =
        end_to_end(&setup, &slices, (digest.availability(), 1), (digest.sim_lat_p90_cycles, 1));
    outcome.notes.push(slices.rate_note());
    outcome.notes.push(setup_note(&setup));
    outcome.notes.push(digest.line());
    Ok(outcome)
}

/// Builds Design 5 and cuts it into the partition workload's shards;
/// returns the cut, the unsplit netlist and the time taken.
///
/// # Errors
///
/// Netlist generation or min-cut failure.
pub fn build_cut() -> Result<(dwt_partition::PartitionedNetlist, f64), String> {
    let t0 = Instant::now();
    let built = DESIGN.build().map_err(|e| e.to_string())?;
    let cut = partition(&built.netlist, PARTITION_SHARDS, &CutOptions::default())
        .map_err(|e| e.to_string())?;
    Ok((cut, secs(t0.elapsed())))
}

/// The seeded frame bank and its single-engine oracles.
///
/// # Errors
///
/// Oracle simulation failure.
pub fn frame_bank(
    cut: &dwt_partition::PartitionedNetlist,
    opts: &Options,
) -> Result<(Vec<Stimulus>, Vec<FrameOutputs>), String> {
    let stims: Vec<Stimulus> =
        tile_bank(opts.seed, opts.bank(Workload::PartitionThreads), opts.frame_cycles() as usize)
            .iter()
            .map(|p| frame_stimulus(p))
            .collect();
    let oracles = stims
        .iter()
        .map(|s| run_single::<CompiledEngine>(&cut.original, s, None).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((stims, oracles))
}

/// One audited partition frame: `runner` runs `stim` (inside a
/// `partition/run_frame` span under the given parent when traced), and
/// its outputs are compared with `oracle` after the frame is timed.
/// Returns the frame's duration in ns and its report, or no report for
/// an `Err` or a mismatch, which count as failed.
pub fn frame_step(
    runner: &PartitionRunner<CompiledEngine>,
    stim: &Stimulus,
    oracle: &FrameOutputs,
    trace: Option<(&mut Trace, usize, u64)>,
) -> (u64, Option<FrameReport>) {
    let run = || runner.run_frame(stim, None, &ChaosPlan::default(), None);
    let start = Instant::now();
    let result = match trace {
        Some((t, parent, k)) => t.time("partition", "run_frame", Some(parent), k, run).0,
        None => run(),
    };
    let ns = nanos(start.elapsed());
    (ns, result.ok().filter(|r| audit::frame_ok(&r.outputs, oracle)))
}

fn run_partition(opts: &Options) -> Result<Outcome, String> {
    let construct = || -> Result<f64, String> {
        let t0 = Instant::now();
        let (cut, _) = build_cut()?;
        let _runner = PartitionRunner::<CompiledEngine>::new(&cut, RunnerConfig::default());
        Ok(secs(t0.elapsed()))
    };
    let (cut, _) = build_cut()?;
    let runner = PartitionRunner::<CompiledEngine>::new(&cut, RunnerConfig::default());
    let mut setup = Vec::new();
    let (stims, oracles) = frame_bank(&cut, opts)?;

    let mut outcome = Outcome::default();
    let mut slices = Slices::new(opts.slice_requests(Workload::PartitionThreads));
    let mut sim_lat = LatencyHistogram::new();
    let mut partitioned = 0u64;
    let mut frame = 0usize;
    let per = opts.slice_requests(Workload::PartitionThreads);
    repeat_for(opts.warmup(), opts.window(), 1, |measured| {
        // One fresh construction per slice keeps the set-up samples
        // spread over the run.
        if frame.is_multiple_of(per) {
            outcome.attempted += 1;
            match construct() {
                Ok(s) => setup.push(s),
                Err(_) => outcome.failed += 1,
            }
        }
        let k = frame % stims.len();
        frame += 1;
        let (ns, report) = frame_step(&runner, &stims[k], &oracles[k], None);
        outcome.attempted += 1;
        let Some(report) = report else {
            outcome.failed += 1;
            return;
        };
        partitioned += u64::from(report.rung == FrameRung::Partitioned);
        sim_lat.record(stims[k].cycles + report.replayed_cycles);
        if measured {
            slices.record(stims[k].cycles, ns, ns);
        }
    });
    outcome.metrics = end_to_end(
        &setup,
        &slices,
        (partitioned as f64 / frame.max(1) as f64, frame),
        (sim_lat.percentile(90.0).unwrap_or(0), sim_lat.len()),
    );
    outcome.notes.push(slices.rate_note());
    outcome.notes.push(format!("partition: {frame} frames, {partitioned} on the partitioned rung"));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_for_ends_when_every_step_fails() {
        let mut failed = 0;
        let calls = repeat_for(Duration::ZERO, Duration::from_millis(20), 5, |_| failed += 1);
        assert!(calls >= 5);
        assert_eq!(failed, calls);
    }

    #[test]
    fn repeat_for_marks_only_the_window_as_measured() {
        let mut measured = Vec::new();
        let warmup = Duration::from_millis(20);
        repeat_for(warmup, Duration::from_millis(20), 0, |m| {
            measured.push(m);
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(!measured[0], "the first call is in the warm-up");
        assert!(measured.iter().any(|&m| m));
    }
}
