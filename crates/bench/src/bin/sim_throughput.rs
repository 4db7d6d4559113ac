//! Simulation-throughput benchmark: event-driven versus compiled
//! bit-sliced versus jit native-codegen backend, per paper design.
//!
//! Each design's netlist is driven with the same seeded stimulus on
//! every backend and timed wall-clock: [`RUNS`] rounds per design, each
//! round one run per backend, every run repeated until it covers at
//! least 10 ms. Each backend's figure is the median of its rounds, and
//! the jit-over-compiled speedup is the median of the per-round ratios,
//! each round timing the two back to back, so load that slows both
//! cancels and one noisy run on a busy host moves no gate. The
//! honest unit is **samples per second**: every tick consumes one
//! `(even, odd)` pair per lane, so the event-driven simulator processes
//! `2 × pairs` samples per run while the lane-parallel backends — fed
//! `caps().lanes` distinct streams through the trait's lane interface —
//! process `2 × pairs × lanes`. Outputs are read back every cycle into
//! a checksum on every backend so nobody skips the readback cost.
//!
//! Each row also reports the **roofline fraction**: the backend's
//! samples/sec over the software golden model's
//! ([`dwt_arch::golden::GoldenStream`]) on the same stimulus. The
//! golden model is the all-software ceiling — a plain Rust lifting
//! implementation with no netlist fidelity at all — so the fraction
//! says how much of the gap between gate-level simulation and native
//! software each backend closes.
//!
//! Usage: `sim_throughput [--pairs N] [--seed S] [--json PATH]
//! [--min-speedup F] [--min-jit-speedup F]`
//!
//! With `--json PATH` it writes the per-design table as JSON (the
//! committed trajectory is `--pairs 512 --seed 2005 --json
//! BENCH_sim_throughput.json`, run from the repo root; without the flag
//! nothing is written). With `--min-speedup F` the process
//! exits nonzero if any design's compiled-over-event speedup falls
//! below F — CI gates on 1.0, i.e. "the compiled backend must not be
//! slower than what it replaces". With `--min-jit-speedup F` it exits
//! nonzero if the largest design's (Design 5's) jit-over-compiled
//! speedup falls below F — the codegen backend must buy real
//! throughput where it matters, on the biggest netlist.
//!
//! Exit codes: 0 success, 1 gate failure, 2 usage error.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use dwt_arch::designs::Design;
use dwt_arch::golden::{still_tone_pairs, GoldenStream};
use dwt_bench::campaign::{flag_value, json_escape, unknown_flag, UsageError, EXIT_GATE};
use dwt_rtl::compile::CompiledEngine;
use dwt_rtl::engine::Engine;
use dwt_rtl::jit::JitEngine;
use dwt_rtl::netlist::Netlist;
use dwt_rtl::sim::Simulator;

/// Timed rounds per design; every backend runs once per round.
const RUNS: usize = 5;

struct Args {
    pairs: usize,
    seed: u64,
    json: Option<String>,
    min_speedup: Option<f64>,
    min_jit_speedup: Option<f64>,
}

fn parse_args() -> Result<Args, UsageError> {
    let mut out =
        Args { pairs: 512, seed: 2005, json: None, min_speedup: None, min_jit_speedup: None };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--pairs" => out.pairs = flag_value(&mut args, "--pairs", "count")?,
            "--seed" => out.seed = flag_value(&mut args, "--seed", "seed")?,
            "--json" => out.json = Some(flag_value(&mut args, "--json", "path")?),
            "--min-speedup" => {
                out.min_speedup = Some(flag_value(&mut args, "--min-speedup", "factor")?);
            }
            "--min-jit-speedup" => {
                out.min_jit_speedup = Some(flag_value(&mut args, "--min-jit-speedup", "factor")?);
            }
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(out)
}

struct Row {
    design: Design,
    golden_samples_per_sec: f64,
    event_samples_per_sec: f64,
    compiled_samples_per_sec: f64,
    jit_samples_per_sec: f64,
    /// The median over rounds of jit over compiled samples per second.
    jit_speedup: f64,
    op_count: usize,
    levels: usize,
    /// Block moves (and ring rotations) of one register commit.
    commit_blocks: usize,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.compiled_samples_per_sec / self.event_samples_per_sec
    }

    fn roofline(&self, samples_per_sec: f64) -> f64 {
        samples_per_sec / self.golden_samples_per_sec
    }
}

/// Times the software golden model over the stimulus, repeated until
/// at least ~10ms of work, so the roofline denominator is not noise.
/// Returns samples per second.
fn time_golden(stimulus: &[(i64, i64)]) -> f64 {
    let mut reps = 1u32;
    loop {
        let start = Instant::now();
        let mut sink = 0i64;
        for _ in 0..reps {
            let mut g = GoldenStream::default();
            for &(e, o) in stimulus {
                g.push(e, o);
            }
            sink = sink.wrapping_add(g.low().last().copied().unwrap_or(0));
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        if secs >= 0.01 || reps >= 1 << 20 {
            return 2.0 * (stimulus.len() as f64) * f64::from(reps) / secs;
        }
        reps *= 4;
    }
}

/// Drives the stimulus through a fresh engine of type `E`, using the
/// trait's lane verbs when the backend advertises more than one lane
/// (lane `l` runs the stimulus rotated by `l`, so every lane carries
/// real, different data), reading outputs back every cycle. Like
/// [`time_golden`], the pass repeats until it covers at least ~10ms.
/// Returns samples per second.
fn time_backend<E: Engine>(netlist: &Arc<Netlist>, stimulus: &[(i64, i64)]) -> f64 {
    let mut sim = E::from_netlist(Arc::clone(netlist)).expect("engine build");
    let lanes = sim.caps().lanes;
    let n = stimulus.len();
    let (mut evens, mut odds) = (vec![0i64; lanes], vec![0i64; lanes]);
    let mut pass = |sim: &mut E| {
        let mut checksum = 0i64;
        for t in 0..n {
            if lanes == 1 {
                let (e, o) = stimulus[t];
                sim.set_input("in_even", e).expect("in_even");
                sim.set_input("in_odd", o).expect("in_odd");
                sim.try_tick().expect("tick");
                checksum = checksum
                    .wrapping_add(sim.peek("low").expect("low"))
                    .wrapping_add(sim.peek("high").expect("high"));
                continue;
            }
            for lane in 0..lanes {
                (evens[lane], odds[lane]) = stimulus[(t + lane) % n];
            }
            sim.set_input_lanes("in_even", &evens).expect("in_even");
            sim.set_input_lanes("in_odd", &odds).expect("in_odd");
            sim.try_tick().expect("tick");
            let low = sim.peek_lanes("low").expect("low");
            let high = sim.peek_lanes("high").expect("high");
            checksum = checksum.wrapping_add(low[0]).wrapping_add(high[0]);
        }
        checksum
    };
    let mut reps = 1u32;
    loop {
        let start = Instant::now();
        let mut checksum = 0i64;
        for _ in 0..reps {
            checksum = checksum.wrapping_add(pass(&mut sim));
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(checksum);
        if secs >= 0.01 || reps >= 1 << 20 {
            return 2.0 * (n * lanes) as f64 * f64::from(reps) / secs;
        }
        reps *= 4;
    }
}

/// The median of `RUNS` figures.
fn median(mut runs: [f64; RUNS]) -> f64 {
    runs.sort_by(f64::total_cmp);
    runs[RUNS / 2]
}

fn json_report(args: &Args, rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"config\": {{ \"pairs\": {}, \"seed\": {}, \"compiled_lanes\": {}, \
         \"jit_lanes\": {} }},\n  \"designs\": [",
        args.pairs,
        args.seed,
        dwt_rtl::compile::LANES,
        dwt_rtl::jit::LANES
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{ \"design\": \"{}\", \"ops\": {}, \"levels\": {}, \"commit_blocks\": {}, \
             \"golden_samples_per_sec\": {:.1}, \
             \"event_samples_per_sec\": {:.1}, \"compiled_samples_per_sec\": {:.1}, \
             \"jit_samples_per_sec\": {:.1}, \"speedup\": {:.2}, \"jit_speedup\": {:.2}, \
             \"compiled_roofline_fraction\": {:.4}, \"jit_roofline_fraction\": {:.4} }}",
            json_escape(r.design.name()),
            r.op_count,
            r.levels,
            r.commit_blocks,
            r.golden_samples_per_sec,
            r.event_samples_per_sec,
            r.compiled_samples_per_sec,
            r.jit_samples_per_sec,
            r.speedup(),
            r.jit_speedup,
            r.roofline(r.compiled_samples_per_sec),
            r.roofline(r.jit_samples_per_sec),
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| e.exit());
    let stimulus = still_tone_pairs(args.pairs, args.seed);
    println!(
        "Simulation throughput — {} pairs per design, seed {}, {} compiled / {} jit lanes",
        args.pairs,
        args.seed,
        dwt_rtl::compile::LANES,
        dwt_rtl::jit::LANES
    );
    println!();
    println!(
        "| {:<10} | {:>6} | {:>6} | {:>12} | {:>12} | {:>12} | {:>7} | {:>7} | {:>8} |",
        "Design",
        "ops",
        "levels",
        "event smp/s",
        "compiled",
        "jit smp/s",
        "cmp/evt",
        "jit/cmp",
        "jit/roof"
    );
    println!("|{0:-<12}|{0:-<8}|{0:-<8}|{0:-<14}|{0:-<14}|{0:-<14}|{0:-<9}|{0:-<9}|{0:-<10}|", "");

    let golden_samples_per_sec = time_golden(&stimulus);
    let mut rows = Vec::new();
    for design in Design::all() {
        let netlist = Arc::new(design.build().expect("design build").netlist);
        let (mut event, mut compiled, mut jit) = ([0.0; RUNS], [0.0; RUNS], [0.0; RUNS]);
        for run in 0..RUNS {
            event[run] = time_backend::<Simulator>(&netlist, &stimulus);
            compiled[run] = time_backend::<CompiledEngine>(&netlist, &stimulus);
            jit[run] = time_backend::<JitEngine>(&netlist, &stimulus);
        }
        let probe = CompiledEngine::new(netlist).expect("compiled build");
        let row = Row {
            design,
            golden_samples_per_sec,
            event_samples_per_sec: median(event),
            compiled_samples_per_sec: median(compiled),
            jit_samples_per_sec: median(jit),
            jit_speedup: median(std::array::from_fn(|run| jit[run] / compiled[run])),
            op_count: probe.program().op_count(),
            levels: probe.program().levels(),
            commit_blocks: probe.program().commit_blocks(),
        };
        println!(
            "| {:<10} | {:>6} | {:>6} | {:>12.0} | {:>12.0} | {:>12.0} | {:>6.1}x | {:>6.1}x | {:>7.1}% |",
            row.design.name(),
            row.op_count,
            row.levels,
            row.event_samples_per_sec,
            row.compiled_samples_per_sec,
            row.jit_samples_per_sec,
            row.speedup(),
            row.jit_speedup,
            row.roofline(row.jit_samples_per_sec) * 100.0,
        );
        rows.push(row);
    }

    println!();
    println!(
        "smp/s = stimulus samples retired per wall second (2 per pair per lane); \
         the compiled engine advances {} lanes per tick and the jit engine {}. \
         roof = fraction of the software golden model's {:.0} smp/s.",
        dwt_rtl::compile::LANES,
        dwt_rtl::jit::LANES,
        golden_samples_per_sec,
    );

    if let Some(path) = &args.json {
        std::fs::write(path, json_report(&args, &rows))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nreport written to {path}");
    }

    if let Some(floor) = args.min_speedup {
        let worst = rows.iter().map(Row::speedup).fold(f64::INFINITY, f64::min);
        if worst < floor {
            eprintln!("FAIL: worst compiled speedup {worst:.2}x below --min-speedup {floor}");
            std::process::exit(EXIT_GATE);
        }
        println!("speedup gate: worst {worst:.2}x ≥ {floor}x — ok");
    }
    if let Some(floor) = args.min_jit_speedup {
        // Gate on the largest netlist: that is where native codegen has
        // to pay for its compile cost, and where interpreter dispatch
        // overhead is already best amortised (hardest case for jit).
        let last = rows.last().expect("at least one design");
        let got = last.jit_speedup;
        if got < floor {
            eprintln!(
                "FAIL: {} jit-over-compiled speedup {got:.2}x below --min-jit-speedup {floor}",
                last.design.name()
            );
            std::process::exit(EXIT_GATE);
        }
        println!("jit gate: {} {got:.2}x ≥ {floor}x — ok", last.design.name());
    }
}
