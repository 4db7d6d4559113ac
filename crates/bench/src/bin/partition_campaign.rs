//! Partition-scaling campaign: wall-clock throughput and
//! fault-tolerance of the sharded emulation runner across partition
//! counts, BEE-style.
//!
//! Every design is cut into 1/2/4/8 shards (min-cut on register
//! boundaries) and streams seeded frames through the crash-recoverable
//! `PartitionRunner`, one worker thread (or, with `--isolation
//! process`, one worker process) per shard. Each frame's outputs are
//! compared bit-for-bit against a single-engine reference run of the
//! unsplit netlist — any mismatch is a silent data corruption escape.
//! Availability counts the frames that completed on the partitioned
//! rung (no degradation to the single-engine or golden fallbacks).
//!
//! Usage: `partition_campaign [--design N]... [--parts LIST]
//! [--frames N] [--cycles N] [--interval N] [--chaos] [--rate R]
//! [--kill W:C] [--stall-ms W:C:MS] [--isolation thread|process]
//! [--torn-snapshot N] [--restart-after N] [--run-dir PATH] [--seed S]
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
//! * `--isolation process` — fork one `dwt_partition_worker` OS
//!   process per shard instead of one thread; the protocol, the chaos
//!   and the report are the same.
//!
//! The directives below apply to one frame of every multi-shard
//! combination — the first, or the last when `--restart-after` owns the
//! first:
//!
//! * `--kill W:C` — worker W dies just before virtual cycle C (its
//!   thread returns, or its process exits);
//! * `--stall-ms W:C:MS` — worker W sleeps MS milliseconds at cycle C
//!   (past the watchdog it is declared a straggler, and a worker
//!   process is respawned);
//! * `--torn-snapshot N` — truncate the newest durable barrier record
//!   after N commits (recovery must fall back past it);
//! * `--restart-after N` — stop the coordinator after N barriers, then
//!   start a fresh one with `resume` on the same store: it must
//!   continue from the durable barrier, not cycle 0.
//!
//! The durable store lives in processes only: `--torn-snapshot`,
//! `--restart-after` and `--run-dir PATH` (the store root; a temporary
//! one is used when absent) need `--isolation process`.
//!
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
    flag_value, parse_design, parse_list, parse_parts, unknown_flag, CampaignArgs, MarkdownTable,
    UsageError,
};
use dwt_lint::diag::json_string;
use dwt_partition::{
    partition, run_single, ChaosPlan, Corruption, CutOptions, FrameOutputs, FrameReport,
    PartitionRunner, PartitionedNetlist, Rung, RunnerConfig, SeuChaos, Stimulus, WorkerLauncher,
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
    stall: Option<(usize, u64, u64)>,
    isolation: Isolation,
    torn_snapshot: Option<u64>,
    restart_after: Option<u64>,
    run_dir: Option<PathBuf>,
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
            stall: None,
            isolation: Isolation::Thread,
            torn_snapshot: None,
            restart_after: None,
            run_dir: None,
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
            other => return Err(unknown_flag(other)),
        }
    }
    if cfg.designs.is_empty() {
        cfg.designs = Design::all().to_vec();
    }
    if cfg.isolation == Isolation::Thread {
        let durable = [
            ("--torn-snapshot", cfg.torn_snapshot.is_some()),
            ("--restart-after", cfg.restart_after.is_some()),
            ("--run-dir", cfg.run_dir.is_some()),
        ];
        if let Some((flag, _)) = durable.iter().find(|(_, set)| *set) {
            return Err(UsageError::new(*flag, "needs --isolation process (a durable store)"));
        }
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
    /// Boundary frames sent on all links in committed batches.
    boundary_frames: u64,
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
    /// A row for `frames` frames of `design` over `cut`, counters at 0.
    fn new(design: Design, cut: &PartitionedNetlist, frames: usize) -> Row {
        Row {
            design,
            parts: cut.parts(),
            cut_bits: cut.cut_bits(),
            feedback_links: cut.feedback_links(),
            wall_s: 0.0,
            cycles_per_s: 0.0,
            barriers: 0,
            boundary_frames: 0,
            recoveries: 0,
            detections: 0,
            replayed: 0,
            partitioned_frames: 0,
            degraded_frames: 0,
            respawns: 0,
            resumed: None,
            sdc: 0,
            frames,
        }
    }

    fn availability(&self) -> f64 {
        if self.frames == 0 {
            1.0
        } else {
            self.partitioned_frames as f64 / self.frames as f64
        }
    }

    /// Adds one run's counters (a frame, or the stopped half of a
    /// restarted one).
    fn add(&mut self, report: &FrameReport) {
        self.barriers += report.barriers;
        self.boundary_frames += report.boundary_frames;
        self.recoveries += report.recoveries;
        self.detections += report.detections.len();
        self.replayed += report.replayed_cycles;
        self.respawns += report.respawns;
        self.resumed = report.resumed_from.or(self.resumed);
    }
}

/// The frame that carries the kill, stall and torn-record directives:
/// the first, or the last when a coordinator restart owns the first.
fn directed_frame(cfg: &Config) -> usize {
    if cfg.restart_after.is_some() && cfg.frames > 1 {
        cfg.frames - 1
    } else {
        0
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
    if frame == directed_frame(cfg) && cut.parts() > 1 {
        let fits = |worker: usize, cycle: u64| worker < cut.parts() && cycle < cfg.cycles;
        if let Some((worker, cycle)) = cfg.kill.filter(|&(w, c)| fits(w, c)) {
            plan.kills.push((worker, cycle));
        }
        if let Some((worker, cycle, millis)) = cfg.stall.filter(|&(w, c, _)| fits(w, c)) {
            plan.stalls.push((worker, cycle, Duration::from_millis(millis)));
        }
        plan.torn_after = cfg.torn_snapshot;
    }
    plan
}

fn design_number(design: Design) -> usize {
    Design::all().iter().position(|d| *d == design).expect("design is one of the five") + 1
}

/// The worker executable lives next to this binary (both are
/// `dwt-bench` bin targets, so cargo builds them into the same
/// directory).
fn worker_launcher(shared: &CampaignArgs, design: Design, parts: usize) -> WorkerLauncher {
    let program =
        std::env::current_exe().expect("current exe path").with_file_name("dwt_partition_worker");
    WorkerLauncher {
        program,
        args: vec![
            "--design".to_owned(),
            design_number(design).to_string(),
            "--parts".to_owned(),
            parts.to_string(),
            "--backend".to_owned(),
            shared.backend.name().to_owned(),
        ],
    }
}

/// One row: every frame of `design` cut into `parts`, on threads or on
/// processes.
fn run_combination<E>(
    cfg: &Config,
    shared: &CampaignArgs,
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
    let launcher =
        (cfg.isolation == Isolation::Process).then(|| worker_launcher(shared, design, parts));
    // Torn-record and restart chaos need a durable store; fall back to
    // a throwaway one when the caller gave no run dir.
    let needs_store =
        cfg.run_dir.is_some() || cfg.torn_snapshot.is_some() || cfg.restart_after.is_some();
    let store_root = cfg.run_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("dwt-partition-campaign-{}", std::process::id()))
    });
    let mut row = Row::new(design, &cut, cfg.frames);
    let start = Instant::now();
    for (frame, reference) in references.iter().enumerate() {
        let stim = stimulus(cfg.cycles, cfg.seed.wrapping_add(frame as u64));
        let chaos = chaos_for(cfg, &cut, frame);
        let oracle = cfg.chaos.then_some(reference);
        // Every frame gets its own store directory: barrier records
        // are keyed by cycle, so sharing one directory across frames
        // would let a rollback restore another frame's prefix.
        let store = needs_store
            .then(|| store_root.join(format!("d{}-p{parts}-f{frame}", design_number(design))));
        let config = |resume: bool, stop_after: Option<u64>| RunnerConfig {
            snapshot_interval: cfg.interval,
            isolation: match &launcher {
                None => dwt_partition::Isolation::Threads,
                Some(launcher) => dwt_partition::Isolation::Processes {
                    launcher: launcher.clone(),
                    store: store.clone(),
                    resume,
                    stop_after,
                },
            },
            ..RunnerConfig::default()
        };
        let run = |config: RunnerConfig, chaos: &ChaosPlan| {
            PartitionRunner::<E>::new(&cut, config)
                .run_frame(&stim, oracle, chaos, None)
                .unwrap_or_else(|e| {
                    panic!(
                        "{} x {parts} frame {frame} ({}): {e}",
                        design.name(),
                        cfg.isolation.name()
                    )
                })
        };
        let report = match cfg.restart_after {
            Some(barriers) if frame == 0 && store.is_some() => {
                // Simulated coordinator crash: stop after N barriers,
                // then a fresh coordinator resumes from the store.
                row.add(&run(config(false, Some(barriers)), &chaos));
                run(config(true, None), &ChaosPlan::default())
            }
            _ => run(config(false, None), &chaos),
        };
        row.add(&report);
        if report.rung == Rung::Partitioned {
            row.partitioned_frames += 1;
        } else {
            row.degraded_frames += 1;
        }
        if &report.outputs != reference {
            row.sdc += 1;
        }
        if let (None, Some(dir)) = (&cfg.run_dir, &store) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    if cfg.run_dir.is_none() && needs_store {
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
            "{sep}\n    {{ \"design\": {}, \"parts\": {}, \"cut_bits\": {}, \
             \"feedback_links\": {}, \"wall_s\": {:.6}, \"cycles_per_s\": {:.1}, \
             \"barriers\": {}, \"boundary_frames\": {}, \"recoveries\": {}, \"detections\": {}, \
             \"replayed_cycles\": {}, \
             \"partitioned_frames\": {}, \"degraded_frames\": {}, \"respawns\": {}, \
             \"resumed_from\": {}, \"availability\": {:.4}, \"sdc\": {} }}",
            json_string(r.design.name()),
            r.parts,
            r.cut_bits,
            r.feedback_links,
            r.wall_s,
            r.cycles_per_s,
            r.barriers,
            r.boundary_frames,
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
         seed {}, backend {}, isolation {}",
        cfg.frames,
        cfg.cycles,
        cfg.interval,
        if cfg.chaos { format!("on (rate {})", cfg.rate) } else { "off".to_owned() },
        cfg.seed,
        shared.backend.name(),
        cfg.isolation.name()
    );
    println!(
        "directives — kill {}, stall {}, torn-snapshot {}, restart-after {}",
        cfg.kill.map_or_else(|| "none".to_owned(), |(w, c)| format!("{w}:{c}")),
        cfg.stall.map_or_else(|| "none".to_owned(), |(w, c, ms)| format!("{w}:{c}:{ms}ms")),
        cfg.torn_snapshot.map_or_else(|| "none".to_owned(), |n| n.to_string()),
        cfg.restart_after.map_or_else(|| "none".to_owned(), |n| n.to_string()),
    );
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
            rows.push(run_combination::<E>(cfg, shared, design, parts, &references));
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
