//! Partition-scaling campaign: wall-clock throughput and
//! fault-tolerance of the sharded emulation runner across partition
//! counts, BEE-style.
//!
//! Every design is cut into 1/2/4/8 shards (min-cut on register
//! boundaries) and streams seeded frames through the crash-recoverable
//! `PartitionRunner`, one worker thread per shard. Each frame's
//! outputs are compared bit-for-bit against a single-engine reference
//! run of the unsplit netlist — any mismatch is a silent data
//! corruption escape. Availability counts the frames that completed on
//! the partitioned rung (no degradation to the single-engine or golden
//! fallbacks).
//!
//! Usage: `partition_campaign [--design N]... [--parts LIST]
//! [--frames N] [--cycles N] [--interval N] [--chaos] [--rate R]
//! [--kill W:C] [--isolation thread|process] [--kill-9 W:C]
//! [--stall-ms W:C:MS] [--torn-snapshot N] [--restart-after N]
//! [--run-dir PATH] [--liveness-ms N] [--seed S]
//! [--backend event|compiled|jit] [--json PATH] [--max-sdc N]
//! [--min-availability F]`
//!
//! * `--parts LIST` — shard counts to sweep (default `1,2,4,8`).
//! * `--frames N` / `--cycles N` — frames per combination and virtual
//!   cycles per frame (defaults 4 × 256).
//! * `--interval N` — barrier snapshot cadence in cycles (default 64).
//! * `--chaos` — enable the fault cocktail: Poisson SEUs inside every
//!   worker (rate `--rate`, default 0.002/cycle/worker) with the
//!   single-engine reference as the duplicate-with-compare oracle,
//!   plus one stealth message corruption per multi-shard frame.
//! * `--kill W:C` — crash worker W just before virtual cycle C in the
//!   first frame of every multi-shard combination (thread mode).
//! * `--isolation process` — fork one `dwt_partition_worker` OS
//!   process per shard instead of one thread, and drive the lockstep
//!   over Unix-domain sockets. The process-only chaos below applies to
//!   the first frame of every multi-shard combination:
//!   * `--kill-9 W:C` — SIGKILL worker W's *process* when its
//!     heartbeat reaches virtual cycle C (at the latest when its report
//!     for the window holding C arrives, so that window never commits);
//!   * `--stall-ms W:C:MS` — wedge worker W for MS milliseconds at
//!     cycle C (past `--liveness-ms`, the supervisor declares it dead
//!     and respawns it);
//!   * `--torn-snapshot N` — truncate the newest durable barrier
//!     record after N commits (recovery must fall back one barrier);
//!   * `--restart-after N` — stop the supervisor after N barriers,
//!     then start a fresh one with `resume` on the same store: it must
//!     continue from the durable barrier, not cycle 0.
//! * `--run-dir PATH` — durable barrier store root (process mode).
//!   Torn-snapshot and restart chaos create a temporary store when no
//!   run dir is given.
//! * `--max-sdc N` / `--min-availability F` — CI gates: fail when SDC
//!   escapes exceed N or any combination's availability drops below F.
//!
//! Exit codes: 0 success, 1 gate failure, 2 usage error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dwt_arch::designs::Design;
use dwt_bench::campaign::{
    flag_value, json_escape, parse_design, parse_list, parse_parts, unknown_flag, CampaignArgs,
    MarkdownTable, UsageError,
};
use dwt_partition::{
    partition, run_single, ChaosPlan, Corruption, CutOptions, FrameOutputs, PartitionRunner,
    PartitionedNetlist, ProcChaos, ProcConfig, ProcSupervisor, Rung, RunnerConfig, SeuChaos,
    Stimulus, WorkerLauncher,
};
use dwt_rtl::engine::{BackendRunner, Engine, PortableSnapshot};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isolation {
    Thread,
    Process,
}

impl Isolation {
    fn name(self) -> &'static str {
        match self {
            Isolation::Thread => "thread",
            Isolation::Process => "process",
        }
    }
}

struct Config {
    designs: Vec<Design>,
    parts: Vec<usize>,
    frames: usize,
    cycles: u64,
    interval: u64,
    chaos: bool,
    rate: f64,
    kill: Option<(usize, u64)>,
    isolation: Isolation,
    kill9: Option<(usize, u64)>,
    stall: Option<(usize, u64, u64)>,
    torn_snapshot: Option<u64>,
    restart_after: Option<u64>,
    run_dir: Option<PathBuf>,
    liveness_ms: u64,
    seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            designs: Vec::new(),
            parts: vec![1, 2, 4, 8],
            frames: 4,
            cycles: 256,
            interval: 64,
            chaos: false,
            rate: 0.002,
            kill: None,
            isolation: Isolation::Thread,
            kill9: None,
            stall: None,
            torn_snapshot: None,
            restart_after: None,
            run_dir: None,
            liveness_ms: 2000,
            seed: 2005,
        }
    }
}

fn parse_cfg(shared: &CampaignArgs) -> Result<Config, UsageError> {
    let mut cfg = Config::default();
    if let Some(seed) = shared.seed {
        cfg.seed = seed;
    }
    let mut args = shared.rest.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--design" => {
                let raw: String = flag_value(&mut args, "--design", "design number 1-5")?;
                cfg.designs.push(parse_design("--design", &raw)?);
            }
            "--parts" => {
                let raw: String = flag_value(&mut args, "--parts", "comma list")?;
                cfg.parts = parse_list("--parts", &raw)?;
            }
            "--frames" => cfg.frames = flag_value(&mut args, "--frames", "count")?,
            "--cycles" => cfg.cycles = flag_value(&mut args, "--cycles", "count")?,
            "--interval" => cfg.interval = flag_value(&mut args, "--interval", "count")?,
            "--chaos" => cfg.chaos = true,
            "--rate" => cfg.rate = flag_value(&mut args, "--rate", "rate")?,
            "--kill" => {
                let raw: String = flag_value(&mut args, "--kill", "worker:cycle")?;
                let pair: Vec<u64> = parse_parts("--kill", &raw.replace(':', ","), 2)?;
                cfg.kill = Some((pair[0] as usize, pair[1]));
            }
            "--isolation" => {
                let raw: String = flag_value(&mut args, "--isolation", "thread|process")?;
                cfg.isolation = match raw.as_str() {
                    "thread" => Isolation::Thread,
                    "process" => Isolation::Process,
                    other => {
                        return Err(UsageError::new(
                            "--isolation",
                            format!("expects thread|process, got '{other}'"),
                        ))
                    }
                };
            }
            "--kill-9" => {
                let raw: String = flag_value(&mut args, "--kill-9", "worker:cycle")?;
                let pair: Vec<u64> = parse_parts("--kill-9", &raw.replace(':', ","), 2)?;
                cfg.kill9 = Some((pair[0] as usize, pair[1]));
            }
            "--stall-ms" => {
                let raw: String = flag_value(&mut args, "--stall-ms", "worker:cycle:millis")?;
                let triple: Vec<u64> = parse_parts("--stall-ms", &raw.replace(':', ","), 3)?;
                cfg.stall = Some((triple[0] as usize, triple[1], triple[2]));
            }
            "--torn-snapshot" => {
                cfg.torn_snapshot = Some(flag_value(&mut args, "--torn-snapshot", "count")?);
            }
            "--restart-after" => {
                cfg.restart_after = Some(flag_value(&mut args, "--restart-after", "count")?);
            }
            "--run-dir" => {
                let raw: String = flag_value(&mut args, "--run-dir", "path")?;
                cfg.run_dir = Some(PathBuf::from(raw));
            }
            "--liveness-ms" => {
                cfg.liveness_ms = flag_value(&mut args, "--liveness-ms", "millis")?;
            }
            other => return Err(unknown_flag(other)),
        }
    }
    if cfg.designs.is_empty() {
        cfg.designs = Design::all().to_vec();
    }
    Ok(cfg)
}

/// Deterministic signed 8-bit sample stream.
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

struct Row {
    design: Design,
    parts: usize,
    cut_bits: usize,
    /// Links on a cycle of the shard graph (0: the shards pipeline).
    feedback_links: usize,
    wall_s: f64,
    cycles_per_s: f64,
    barriers: u64,
    /// Boundary frames sent on all links in committed batches (thread
    /// mode; the process supervisor does not count them).
    boundary_frames: Option<u64>,
    recoveries: u32,
    detections: usize,
    replayed: u64,
    partitioned_frames: usize,
    degraded_frames: usize,
    respawns: u32,
    resumed: Option<u64>,
    sdc: usize,
    frames: usize,
}

impl Row {
    fn availability(&self) -> f64 {
        if self.frames == 0 {
            1.0
        } else {
            self.partitioned_frames as f64 / self.frames as f64
        }
    }
}

fn chaos_for(cfg: &Config, cut: &PartitionedNetlist, frame: usize) -> ChaosPlan {
    let mut plan = ChaosPlan::default();
    if cfg.chaos {
        plan.seu = Some(SeuChaos {
            rate: cfg.rate,
            seed: cfg.seed ^ (frame as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        });
        if let Some(link) = cut.links.first() {
            plan.corruptions.push(Corruption {
                from: link.from,
                to: link.to,
                cycle: cfg.cycles / 3,
                stealth: true,
            });
        }
    }
    if frame == 0 && cut.parts() > 1 {
        if let Some((worker, cycle)) = cfg.kill {
            if worker < cut.parts() && cycle < cfg.cycles {
                plan.kills.push((worker, cycle));
            }
        }
    }
    plan
}

fn run_combination<E>(
    cfg: &Config,
    design: Design,
    parts: usize,
    references: &[FrameOutputs],
) -> Row
where
    E: Engine + Send + 'static,
    E::Snapshot: Clone + Send + 'static,
{
    let built = design.build().unwrap_or_else(|e| panic!("{}: {e}", design.name()));
    let cut = partition(&built.netlist, parts, &CutOptions::default())
        .unwrap_or_else(|e| panic!("{} into {parts}: {e}", design.name()));
    let config = RunnerConfig { snapshot_interval: cfg.interval, ..RunnerConfig::default() };
    let runner = PartitionRunner::<E>::new(&cut, config);
    let mut row = Row {
        design,
        parts,
        cut_bits: cut.cut_bits(),
        feedback_links: cut.feedback_links(),
        wall_s: 0.0,
        cycles_per_s: 0.0,
        barriers: 0,
        boundary_frames: Some(0),
        recoveries: 0,
        detections: 0,
        replayed: 0,
        partitioned_frames: 0,
        degraded_frames: 0,
        respawns: 0,
        resumed: None,
        sdc: 0,
        frames: cfg.frames,
    };
    let start = Instant::now();
    for (frame, reference) in references.iter().enumerate() {
        let stim = stimulus(cfg.cycles, cfg.seed.wrapping_add(frame as u64));
        let chaos = chaos_for(cfg, &cut, frame);
        let oracle = if cfg.chaos { Some(reference) } else { None };
        let report = runner
            .run_frame(&stim, oracle, &chaos, None)
            .unwrap_or_else(|e| panic!("{} x {parts} frame {frame}: {e}", design.name()));
        row.barriers += report.barriers;
        row.boundary_frames = row.boundary_frames.map(|n| n + report.boundary_frames);
        row.recoveries += report.recoveries;
        row.detections += report.detections.len();
        row.replayed += report.replayed_cycles;
        if report.rung == Rung::Partitioned {
            row.partitioned_frames += 1;
        } else {
            row.degraded_frames += 1;
        }
        if &report.outputs != reference {
            row.sdc += 1;
        }
    }
    row.wall_s = start.elapsed().as_secs_f64();
    row.cycles_per_s = (cfg.frames as u64 * cfg.cycles) as f64 / row.wall_s.max(1e-9);
    row
}

/// The worker executable lives next to this binary (both are
/// `dwt-bench` bin targets, so cargo builds them into the same
/// directory).
fn worker_launcher(shared: &CampaignArgs, design: Design, parts: usize) -> WorkerLauncher {
    let number =
        Design::all().iter().position(|d| *d == design).expect("design is one of the five") + 1;
    let program =
        std::env::current_exe().expect("current exe path").with_file_name("dwt_partition_worker");
    WorkerLauncher {
        program,
        args: vec![
            "--design".to_owned(),
            number.to_string(),
            "--parts".to_owned(),
            parts.to_string(),
            "--backend".to_owned(),
            shared.backend.name().to_owned(),
        ],
    }
}

/// Which frame carries the kill/stall/torn chaos. Normally the first;
/// when a supervisor restart is also being rehearsed (it owns frame 0
/// and clears chaos on resume), the last frame, so both campaigns
/// actually run.
fn proc_chaos_frame(cfg: &Config) -> usize {
    if cfg.restart_after.is_some() && cfg.frames > 1 {
        cfg.frames - 1
    } else {
        0
    }
}

fn proc_chaos_for(cfg: &Config, parts: usize, frame: usize) -> ProcChaos {
    let mut chaos = ProcChaos::default();
    if frame != proc_chaos_frame(cfg) {
        return chaos;
    }
    if let Some((worker, cycle)) = cfg.kill9 {
        if worker < parts && cycle < cfg.cycles {
            chaos.kill9.push((worker, cycle));
        }
    }
    if let Some((worker, cycle, millis)) = cfg.stall {
        if worker < parts && cycle < cfg.cycles {
            chaos.stalls.push((worker, cycle, millis));
        }
    }
    chaos.torn_after = cfg.torn_snapshot;
    chaos
}

fn run_combination_proc(
    cfg: &Config,
    shared: &CampaignArgs,
    design: Design,
    parts: usize,
    references: &[FrameOutputs],
) -> Row {
    let built = design.build().unwrap_or_else(|e| panic!("{}: {e}", design.name()));
    let cut = partition(&built.netlist, parts, &CutOptions::default())
        .unwrap_or_else(|e| panic!("{} into {parts}: {e}", design.name()));
    let launcher = worker_launcher(shared, design, parts);
    // Torn-snapshot and restart chaos need a durable store; fall back
    // to a throwaway one when the caller gave no run dir.
    let needs_store =
        cfg.run_dir.is_some() || cfg.torn_snapshot.is_some() || cfg.restart_after.is_some();
    let temp_root = cfg.run_dir.is_none();
    let store_root = cfg.run_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("dwt-partition-campaign-{}", std::process::id()))
    });
    let mut row = Row {
        design,
        parts,
        cut_bits: cut.cut_bits(),
        feedback_links: cut.feedback_links(),
        wall_s: 0.0,
        cycles_per_s: 0.0,
        barriers: 0,
        boundary_frames: None,
        recoveries: 0,
        detections: 0,
        replayed: 0,
        partitioned_frames: 0,
        degraded_frames: 0,
        respawns: 0,
        resumed: None,
        sdc: 0,
        frames: cfg.frames,
    };
    let start = Instant::now();
    for (frame, reference) in references.iter().enumerate() {
        let stim = stimulus(cfg.cycles, cfg.seed.wrapping_add(frame as u64));
        // Every frame gets its own store directory: barrier records
        // are keyed by cycle, so sharing one directory across frames
        // would let a rollback restore another frame's prefix.
        let store_dir = needs_store.then(|| {
            let number = Design::all().iter().position(|d| *d == design).unwrap_or(0) + 1;
            store_root.join(format!("d{number}-p{parts}-f{frame}"))
        });
        let config = ProcConfig {
            snapshot_interval: cfg.interval,
            liveness: Duration::from_millis(cfg.liveness_ms),
            store_dir: store_dir.clone(),
            chaos: proc_chaos_for(cfg, parts, frame),
            ..ProcConfig::default()
        };
        let fail = |e: dwt_partition::PartitionError| -> ! {
            panic!("{} x {parts} frame {frame} (process): {e}", design.name())
        };
        let report = match (frame, cfg.restart_after, &store_dir) {
            (0, Some(barriers), Some(_)) => {
                // Simulated supervisor crash: stop after N barriers,
                // then a fresh supervisor resumes from the store.
                let mut first_cfg = config.clone();
                first_cfg.stop_after_barriers = Some(barriers);
                let first = ProcSupervisor::new(&cut, launcher.clone(), first_cfg)
                    .run(&stim)
                    .unwrap_or_else(|e| fail(e));
                row.barriers += first.barriers;
                row.recoveries += first.recoveries;
                row.detections += first.detections.len();
                row.replayed += first.replayed_cycles;
                row.respawns += first.respawns;
                let mut resume_cfg = config.clone();
                resume_cfg.resume = true;
                resume_cfg.chaos = ProcChaos::default();
                ProcSupervisor::new(&cut, launcher.clone(), resume_cfg)
                    .run(&stim)
                    .unwrap_or_else(|e| fail(e))
            }
            _ => ProcSupervisor::new(&cut, launcher.clone(), config)
                .run(&stim)
                .unwrap_or_else(|e| fail(e)),
        };
        row.barriers += report.barriers;
        row.recoveries += report.recoveries;
        row.detections += report.detections.len();
        row.replayed += report.replayed_cycles;
        row.respawns += report.respawns;
        if report.resumed_from.is_some() {
            row.resumed = report.resumed_from;
        }
        // Process mode has no degradation ladder: a completed frame
        // ran partitioned by construction.
        row.partitioned_frames += 1;
        if &report.outputs != reference {
            row.sdc += 1;
        }
        if temp_root {
            if let Some(dir) = &store_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
    if temp_root && needs_store {
        let _ = std::fs::remove_dir_all(&store_root);
    }
    row.wall_s = start.elapsed().as_secs_f64();
    row.cycles_per_s = (cfg.frames as u64 * cfg.cycles) as f64 / row.wall_s.max(1e-9);
    row
}

fn json_report(cfg: &Config, shared: &CampaignArgs, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"config\": {{ \"frames\": {}, \"cycles\": {}, \"interval\": {}, \
         \"chaos\": {}, \"rate\": {}, \"seed\": {}, \"backend\": \"{}\", \
         \"isolation\": \"{}\" }},",
        cfg.frames,
        cfg.cycles,
        cfg.interval,
        cfg.chaos,
        cfg.rate,
        cfg.seed,
        shared.backend.name(),
        cfg.isolation.name()
    );
    out.push_str("  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{ \"design\": \"{}\", \"parts\": {}, \"cut_bits\": {}, \
             \"feedback_links\": {}, \"wall_s\": {:.6}, \"cycles_per_s\": {:.1}, \
             \"barriers\": {}, \"boundary_frames\": {}, \"recoveries\": {}, \"detections\": {}, \
             \"replayed_cycles\": {}, \
             \"partitioned_frames\": {}, \"degraded_frames\": {}, \"respawns\": {}, \
             \"resumed_from\": {}, \"availability\": {:.4}, \"sdc\": {} }}",
            json_escape(r.design.name()),
            r.parts,
            r.cut_bits,
            r.feedback_links,
            r.wall_s,
            r.cycles_per_s,
            r.barriers,
            r.boundary_frames.map_or_else(|| "null".to_owned(), |n| n.to_string()),
            r.recoveries,
            r.detections,
            r.replayed,
            r.partitioned_frames,
            r.degraded_frames,
            r.respawns,
            r.resumed.map_or_else(|| "null".to_owned(), |c| c.to_string()),
            r.availability(),
            r.sdc
        );
    }
    out.push_str("\n  ]\n}");
    out
}

fn run<E>(shared: &CampaignArgs, cfg: &Config)
where
    E: Engine + Send + 'static,
    E::Snapshot: Clone + Send + 'static,
{
    println!(
        "Partition campaign — {} frame(s) x {} cycles, interval {}, chaos {}, \
         kill {}, seed {}, backend {}, isolation {}",
        cfg.frames,
        cfg.cycles,
        cfg.interval,
        if cfg.chaos { format!("on (rate {})", cfg.rate) } else { "off".to_owned() },
        cfg.kill.map_or_else(|| "none".to_owned(), |(w, c)| format!("{w}:{c}")),
        cfg.seed,
        shared.backend.name(),
        cfg.isolation.name()
    );
    if cfg.isolation == Isolation::Process {
        println!(
            "process chaos — kill-9 {}, stall {}, torn-snapshot {}, restart-after {}",
            cfg.kill9.map_or_else(|| "none".to_owned(), |(w, c)| format!("{w}:{c}")),
            cfg.stall.map_or_else(|| "none".to_owned(), |(w, c, ms)| format!("{w}:{c}:{ms}ms")),
            cfg.torn_snapshot.map_or_else(|| "none".to_owned(), |n| n.to_string()),
            cfg.restart_after.map_or_else(|| "none".to_owned(), |n| n.to_string()),
        );
    }
    println!();

    let mut rows = Vec::new();
    for &design in &cfg.designs {
        let built = design.build().unwrap_or_else(|e| panic!("{}: {e}", design.name()));
        let references: Vec<FrameOutputs> = (0..cfg.frames)
            .map(|frame| {
                let stim = stimulus(cfg.cycles, cfg.seed.wrapping_add(frame as u64));
                run_single::<E>(&built.netlist, &stim, None)
                    .unwrap_or_else(|e| panic!("{} reference: {e}", design.name()))
            })
            .collect();
        for &parts in &cfg.parts {
            rows.push(match cfg.isolation {
                Isolation::Thread => run_combination::<E>(cfg, design, parts, &references),
                Isolation::Process => run_combination_proc(cfg, shared, design, parts, &references),
            });
        }
    }

    let mut table = MarkdownTable::new(&[
        "design",
        "parts",
        "cut bits",
        "kcycles/s",
        "speedup",
        "barriers",
        "recov",
        "respawn",
        "detect",
        "avail",
        "sdc",
    ]);
    let mut base: BTreeMap<Design, f64> = BTreeMap::new();
    for r in &rows {
        if r.parts == 1 {
            base.insert(r.design, r.cycles_per_s);
        }
    }
    for r in &rows {
        let speedup = base
            .get(&r.design)
            .map_or_else(|| "-".to_owned(), |b| format!("{:.2}x", r.cycles_per_s / b));
        table.push_row(vec![
            r.design.name().to_owned(),
            r.parts.to_string(),
            r.cut_bits.to_string(),
            format!("{:.1}", r.cycles_per_s / 1000.0),
            speedup,
            r.barriers.to_string(),
            r.recoveries.to_string(),
            r.respawns.to_string(),
            r.detections.to_string(),
            format!("{:.2}", r.availability()),
            r.sdc.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "avail = frames completed on the partitioned rung (no degradation); \
         sdc = frames whose outputs differ from the single-engine reference."
    );

    let total_sdc: usize = rows.iter().map(|r| r.sdc).sum();
    let min_avail = rows.iter().map(Row::availability).fold(1.0f64, f64::min);
    shared.write_json_with(|| json_report(cfg, shared, &rows));
    shared.enforce_gates(total_sdc, Some(min_avail));
}

struct Campaign {
    shared: CampaignArgs,
    cfg: Config,
}

impl BackendRunner for Campaign {
    type Output = ();

    fn run<E>(self)
    where
        E: Engine + Send + 'static,
        E::Snapshot: PortableSnapshot + Send + 'static,
    {
        run::<E>(&self.shared, &self.cfg);
    }
}

fn main() {
    let shared = CampaignArgs::parse();
    let cfg = parse_cfg(&shared).unwrap_or_else(|e| e.exit());
    shared.backend.dispatch(Campaign { shared, cfg });
}
