//! Serving-load campaign: open-loop wall-clock load sweep against the
//! multi-threaded `dwt-serve` runtime, with an optional chaos mode.
//!
//! An open-loop Poisson arrival generator offers tile-compression
//! requests at each swept rate to a real [`dwt_serve::Server`] — worker
//! threads, bounded ingress queue, deadline admission, retries with
//! backoff, per-worker circuit breakers, software-golden fallback. Each
//! sweep point reports offered versus completed versus hardware-goodput
//! tiles/sec, availability, p50/p99 response latency, the shed
//! breakdown, retry/canary/breaker activity and SDC escapes (every
//! response is audited bit-for-bit against the software golden model).
//! Markdown on stdout, the full sweep as JSON via `--json`
//! (conventionally `BENCH_serve_load.json`).
//!
//! Usage: `serve_load [--workers N] [--design N] [--pairs N]
//! [--requests N] [--sweep R1,R2,...] [--queue N] [--deadline-ms F]
//! [--block] [--attempts N] [--chaos]
//! [--rate F] [--stuck-lane LANE,CYCLE] [--slow-lane LANE,FACTOR]
//! [--seed S] [--backend event|compiled|jit] [--json PATH] [--max-sdc N]
//! [--min-availability F]`
//!
//! `--chaos` enables the default fault campaign (Poisson SEUs on every
//! worker, worker 0 permanently stuck, worker 1 at 2x service time);
//! `--rate`, `--stuck-lane` and `--slow-lane` refine it. With
//! `--max-sdc N` the process exits nonzero when SDC escapes across the
//! sweep exceed N; with `--min-availability F` it exits nonzero when
//! any sweep point's hardware availability falls below F. The CI smoke
//! job gates on `--max-sdc 0` plus an availability floor under chaos.
//!
//! Exit codes: 0 success, 1 gate failure, 2 usage error.

use dwt_bench::campaign::{
    flag_value, parse_design, parse_list, parse_parts, unknown_flag, CampaignArgs, UsageError,
};
use dwt_bench::serve::{
    default_chaos, min_availability, run_serve_campaign, serve_json, serve_markdown,
    serve_worker_markdown, total_sdc_escapes, ServeCampaignConfig,
};
use dwt_pool::chaos::{SlowLaneSpec, StuckLaneSpec};
use dwt_rtl::engine::{BackendRunner, Engine, PortableSnapshot};
use dwt_serve::OverloadPolicy;

fn parse_cfg(shared: &CampaignArgs) -> Result<ServeCampaignConfig, UsageError> {
    let mut cfg = ServeCampaignConfig::default();
    if let Some(seed) = shared.seed {
        cfg.seed = seed;
        cfg.serve.seed = seed;
    }
    let mut chaos = false;
    let mut args = shared.rest.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workers" => cfg.serve.workers = flag_value(&mut args, "--workers", "count")?,
            "--design" => {
                let raw: String = flag_value(&mut args, "--design", "design number")?;
                cfg.serve.design = parse_design("--design", &raw)?;
            }
            "--pairs" => {
                cfg.serve.executor.tile_pairs = flag_value(&mut args, "--pairs", "count")?;
            }
            "--requests" => cfg.requests = flag_value(&mut args, "--requests", "count")?,
            "--sweep" => {
                let raw: String = flag_value(&mut args, "--sweep", "rate list")?;
                cfg.offered_rates = parse_list("--sweep", &raw)?;
            }
            "--queue" => {
                cfg.serve.queue_capacity = flag_value(&mut args, "--queue", "capacity")?;
            }
            "--deadline-ms" => {
                let ms: f64 = flag_value(&mut args, "--deadline-ms", "milliseconds")?;
                cfg.serve.deadline_ns = Some((ms * 1e6) as u64);
            }
            "--block" => cfg.serve.overload = OverloadPolicy::Block,
            "--attempts" => {
                cfg.serve.retry.max_attempts = flag_value(&mut args, "--attempts", "count")?;
            }
            "--chaos" => chaos = true,
            "--rate" => {
                chaos = true;
                let rate = flag_value(&mut args, "--rate", "rate")?;
                cfg.serve.chaos.get_or_insert_with(|| default_chaos(cfg.seed)).seu_rate = rate;
            }
            "--stuck-lane" => {
                chaos = true;
                let raw: String = flag_value(&mut args, "--stuck-lane", "lane,cycle")?;
                let p: Vec<u64> = parse_parts("--stuck-lane", &raw, 2)?;
                cfg.serve.chaos.get_or_insert_with(|| default_chaos(cfg.seed)).stuck_lanes =
                    vec![StuckLaneSpec { lane: p[0] as usize, from_cycle: p[1] }];
            }
            "--slow-lane" => {
                chaos = true;
                let raw: String = flag_value(&mut args, "--slow-lane", "lane,factor")?;
                let p: Vec<f64> = parse_parts("--slow-lane", &raw, 2)?;
                cfg.serve.chaos.get_or_insert_with(|| default_chaos(cfg.seed)).slow_lanes =
                    vec![SlowLaneSpec { lane: p[0] as usize, factor: p[1] }];
            }
            other => return Err(unknown_flag(other)),
        }
    }
    if chaos {
        cfg.serve.chaos.get_or_insert_with(|| default_chaos(cfg.seed));
    }
    Ok(cfg)
}

fn run<E>(shared: &CampaignArgs, cfg: &ServeCampaignConfig)
where
    E: Engine + Send + 'static,
    E::Snapshot: Send,
{
    let s = &cfg.serve;
    println!(
        "Serving load — {} workers of {}, {} requests of {} pairs, seed {}, backend {}",
        s.workers,
        s.design.name(),
        cfg.requests,
        s.executor.tile_pairs,
        cfg.seed,
        shared.backend.name()
    );
    println!(
        "queue {} ({}), deadline {}, {} attempts; chaos: {}",
        s.queue_capacity,
        match s.overload {
            OverloadPolicy::Block => "blocking backpressure",
            OverloadPolicy::Shed => "shed to golden",
        },
        s.deadline_ns.map_or_else(|| "none".to_owned(), |d| format!("{:.1}ms", d as f64 / 1e6)),
        s.retry.max_attempts,
        s.chaos.as_ref().map_or_else(
            || "off".to_owned(),
            |c| format!(
                "SEU rate {}/cycle, stuck {:?}, slow {:?}",
                c.seu_rate,
                c.stuck_lanes.iter().map(|l| l.lane).collect::<Vec<_>>(),
                c.slow_lanes.iter().map(|l| l.lane).collect::<Vec<_>>(),
            )
        ),
    );
    println!("sweep: {:?} offered tiles/sec", cfg.offered_rates);
    println!();

    let rows = run_serve_campaign::<E>(cfg).unwrap_or_else(|e| panic!("campaign: {e}"));
    print!("{}", serve_markdown(&rows));
    println!();
    println!(
        "done = responses per wall second (hardware + golden); goodput = hardware-served \
         only; avail = hardware-served fraction; SDC esc = responses that differed from \
         the software golden model (must be 0)."
    );
    if let Some(heaviest) = rows.last() {
        println!(
            "\nworker state after the heaviest load ({:.0} tiles/sec offered):",
            heaviest.offered_tiles_per_sec
        );
        print!("{}", serve_worker_markdown(heaviest));
    }

    shared.write_json_with(|| serve_json(cfg, &rows));
    shared.enforce_gates(total_sdc_escapes(&rows), Some(min_availability(&rows)));
}

struct Campaign {
    shared: CampaignArgs,
    cfg: ServeCampaignConfig,
}

impl BackendRunner for Campaign {
    type Output = ();

    fn run<E>(self)
    where
        E: Engine + Send + 'static,
        E::Snapshot: PortableSnapshot + Send,
    {
        run::<E>(&self.shared, &self.cfg);
    }
}

fn main() {
    let shared = CampaignArgs::parse();
    let cfg = parse_cfg(&shared).unwrap_or_else(|e| e.exit());
    shared.backend.dispatch(Campaign { shared, cfg });
}
