//! Wall-clock serving campaigns: open-loop load sweeps against the
//! multi-threaded `dwt-serve` runtime.
//!
//! Where `pool` measures the virtual-time scheduler in deterministic
//! cycles, this module measures the real thing: a
//! [`dwt_serve::Server`] of worker threads driven by an **open-loop
//! Poisson arrival generator** — requests arrive at the offered rate
//! whether or not the runtime keeps up, which is what makes overload
//! visible instead of politely self-throttling. Each sweep point
//! reports offered versus completed versus hardware-goodput tiles/sec,
//! availability, p50/p99/max response latency, the shed breakdown,
//! retry/canary/breaker activity, and — the gate quantity — **SDC
//! escapes**: every response is audited bit-for-bit against the
//! software golden model, so an escape means a corrupted tile reached
//! a client.
//!
//! Wall-clock latencies vary run to run; arrivals, stimulus and chaos
//! are seeded, so *which* tiles exist and *what* faults strike replay
//! exactly — only timing jitter differs.

use std::fmt::Write as _;
use std::time::Instant;

use dwt_arch::golden::still_tone_pairs;
use dwt_pool::chaos::{ChaosConfig, SlowLaneSpec, StuckLaneSpec};
use dwt_repro::DwtError;
use dwt_rtl::engine::Engine;
use dwt_serve::{
    golden_tile, OverloadPolicy, ServeConfig, ServeReport, ServeStats, Server, TileRequest,
    TileResponse,
};

use crate::campaign::MarkdownTable;
use dwt_lint::diag::json_string;

/// Parameters of one serving-load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCampaignConfig {
    /// The server template (design, workers, queue, retry, chaos…).
    pub serve: ServeConfig,
    /// Requests per sweep point.
    pub requests: usize,
    /// The offered-load sweep, in tiles per second. Arrivals are
    /// Poisson: exponential inter-arrival gaps at each rate.
    pub offered_rates: Vec<f64>,
    /// Seed for the arrival process and per-request stimulus (the
    /// chaos scenario carries its own seed inside `serve`).
    pub seed: u64,
}

impl Default for ServeCampaignConfig {
    fn default() -> Self {
        let mut serve = ServeConfig::new(dwt_arch::designs::Design::D3);
        serve.executor.tile_pairs = 16;
        // Open-loop honesty: a full queue sheds to golden instead of
        // blocking the arrival generator (which would silently convert
        // the open loop into a closed one).
        serve.overload = OverloadPolicy::Shed;
        ServeCampaignConfig {
            serve,
            requests: 64,
            offered_rates: vec![200.0, 1_000.0, 5_000.0],
            seed: 2005,
        }
    }
}

/// The default chaos scenario for `--chaos` runs: a Poisson SEU
/// drizzle on every worker, worker 0 permanently stuck from its first
/// executed cycle, worker 1 at double service time (a real wall-clock
/// stall). Requires at least 2 workers.
#[must_use]
pub fn default_chaos(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seu_rate: 0.0005,
        stuck_fraction: 0.2,
        common_mode: 0.0,
        burst: None,
        stuck_lanes: vec![StuckLaneSpec { lane: 0, from_cycle: 0 }],
        slow_lanes: vec![SlowLaneSpec { lane: 1, factor: 2.0 }],
        seed,
    }
}

/// One sweep point: the runtime's report at one offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRow {
    /// Offered load of this point, tiles per second.
    pub offered_tiles_per_sec: f64,
    /// Wall time from first submission to last response, seconds.
    pub wall_secs: f64,
    /// Response-batch summary (latency percentiles, availability).
    pub report: ServeReport,
    /// The server's own end-of-run statistics.
    pub stats: ServeStats,
    /// Responses whose coefficients differed from the software golden
    /// model — silent corruption that reached a client. The gate
    /// quantity; must be zero.
    pub sdc_escapes: usize,
}

impl ServeRow {
    /// Completed tiles per wall second (hardware + golden).
    #[must_use]
    pub fn completed_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.stats.counters.completed() as f64 / self.wall_secs
    }

    /// Hardware goodput: tiles served by a hardware rung per wall
    /// second.
    #[must_use]
    pub fn goodput_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.stats.counters.hardware_served as f64 / self.wall_secs
    }

    /// Total breaker transitions across the workers.
    #[must_use]
    pub fn breaker_transitions(&self) -> usize {
        self.stats.workers.iter().map(|w| w.breaker_transitions).sum()
    }

    /// Total shed responses, by any reason.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.stats.counters.golden_served
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exponential inter-arrival gap (ns) at `rate` tiles/sec.
fn exp_gap_ns(state: &mut u64, rate: f64) -> u64 {
    // Uniform in (0, 1]: never ln(0).
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    let u = (1.0 - u).max(f64::MIN_POSITIVE);
    ((-u.ln() / rate) * 1e9) as u64
}

/// Runs one sweep point: a fresh server at `rate` tiles/sec, the
/// seeded request set submitted open-loop, every response audited
/// against the golden model.
fn run_point<E>(cfg: &ServeCampaignConfig, rate: f64) -> Result<ServeRow, DwtError>
where
    E: Engine + Send + 'static,
    E::Snapshot: Send,
{
    let tile_pairs = cfg.serve.executor.tile_pairs;
    let requests: Vec<TileRequest> = (0..cfg.requests as u64)
        .map(|id| TileRequest {
            id,
            pairs: still_tone_pairs(tile_pairs, cfg.seed ^ (id.wrapping_mul(0x9E37))),
        })
        .collect();

    let (server, rx) = Server::<E>::start(cfg.serve.clone())?;
    let want = requests.len();
    let collector = std::thread::spawn(move || -> Vec<TileResponse> {
        let mut out = Vec::with_capacity(want);
        while out.len() < want {
            match rx.recv_timeout(std::time::Duration::from_secs(120)) {
                Ok(resp) => out.push(resp),
                Err(_) => break,
            }
        }
        out
    });

    let mut arrivals = cfg.seed ^ rate.to_bits();
    let start = Instant::now();
    for req in &requests {
        std::thread::sleep(std::time::Duration::from_nanos(exp_gap_ns(&mut arrivals, rate)));
        server.submit(req.clone())?;
    }
    let responses = collector.join().expect("collector thread");
    let wall_secs = start.elapsed().as_secs_f64();
    let stats = server.shutdown();

    // The bit-exactness audit: every response — hardware-served,
    // degraded or shed — must carry the golden coefficients.
    let sdc_escapes = responses
        .iter()
        .filter(|resp| {
            let req = &requests[resp.id as usize];
            let (low, high) = golden_tile(&req.pairs);
            resp.low != low || resp.high != high
        })
        .count();

    Ok(ServeRow {
        offered_tiles_per_sec: rate,
        wall_secs,
        report: ServeReport::from_responses(&responses),
        stats,
        sdc_escapes,
    })
}

/// Runs the sweep: one fresh server per offered load, same seeded
/// workload and chaos throughout, on the backend named by `E`
/// (turbofish at the call site: `run_serve_campaign::<CompiledEngine>`).
///
/// # Errors
///
/// Propagates server construction/submission failures (shed tiles,
/// retries and breaker trips are results, not errors).
pub fn run_serve_campaign<E>(cfg: &ServeCampaignConfig) -> Result<Vec<ServeRow>, DwtError>
where
    E: Engine + Send + 'static,
    E::Snapshot: Send,
{
    let mut rows = Vec::new();
    for &rate in &cfg.offered_rates {
        rows.push(run_point::<E>(cfg, rate)?);
    }
    Ok(rows)
}

/// Total SDC escapes across the sweep (the CI gate quantity).
#[must_use]
pub fn total_sdc_escapes(rows: &[ServeRow]) -> usize {
    rows.iter().map(|r| r.sdc_escapes).sum()
}

/// Lowest availability across the sweep (the CI floor quantity).
#[must_use]
pub fn min_availability(rows: &[ServeRow]) -> f64 {
    rows.iter().map(|r| r.stats.availability()).fold(f64::INFINITY, f64::min)
}

/// Renders the sweep as a markdown table, one row per offered load.
#[must_use]
pub fn serve_markdown(rows: &[ServeRow]) -> String {
    let mut table = MarkdownTable::new(&[
        "offered/s",
        "done/s",
        "goodput/s",
        "avail",
        "p50 lat",
        "p99 lat",
        "shed",
        "retries",
        "canaries",
        "breaker",
        "SDC esc",
    ]);
    let ms = |ns: u64| format!("{:.2}ms", ns as f64 / 1e6);
    for row in rows {
        let c = &row.stats.counters;
        table.push_row(vec![
            format!("{:.0}", row.offered_tiles_per_sec),
            format!("{:.0}", row.completed_per_sec()),
            format!("{:.0}", row.goodput_per_sec()),
            format!("{:.4}", row.stats.availability()),
            ms(row.report.p50_latency_ns),
            ms(row.report.p99_latency_ns),
            format!("{}/{}", row.shed(), c.completed()),
            c.retries.to_string(),
            c.canaries.to_string(),
            row.breaker_transitions().to_string(),
            row.sdc_escapes.to_string(),
        ]);
    }
    table.render()
}

/// Renders the end-of-sweep per-worker summary of one point (usually
/// the heaviest load) as a markdown table.
#[must_use]
pub fn serve_worker_markdown(row: &ServeRow) -> String {
    let mut table =
        MarkdownTable::new(&["worker", "tiles", "hw tiles", "health", "breaker", "trips", "dead"]);
    for w in &row.stats.workers {
        table.push_row(vec![
            w.worker.to_string(),
            w.tiles.to_string(),
            w.hardware_tiles.to_string(),
            format!("{:.3}", w.health),
            w.breaker_state.as_str().to_owned(),
            w.breaker_transitions.to_string(),
            if w.dead { "yes" } else { "no" }.to_owned(),
        ]);
    }
    table.render()
}

/// Serializes the campaign (config echo — seeds included — plus every
/// sweep point's summary and per-worker states) as JSON.
#[must_use]
pub fn serve_json(cfg: &ServeCampaignConfig, rows: &[ServeRow]) -> String {
    let s = &cfg.serve;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"config\": {{\n    \"design\": {}, \"workers\": {}, \"tile_pairs\": {}, \
         \"requests\": {}, \"seed\": {},\n    \"queue_capacity\": {}, \"overload\": \"{}\", \
         \"deadline_ns\": {}, \"max_attempts\": {},\n    \"chaos\": {}\n  \
         }},\n  \"sweep\": [",
        json_string(s.design.name()),
        s.workers,
        s.executor.tile_pairs,
        cfg.requests,
        cfg.seed,
        s.queue_capacity,
        match s.overload {
            OverloadPolicy::Block => "block",
            OverloadPolicy::Shed => "shed",
        },
        s.deadline_ns.map_or_else(|| "null".to_owned(), |d| d.to_string()),
        s.retry.max_attempts,
        s.chaos.as_ref().map_or_else(
            || "null".to_owned(),
            |c| format!(
                "{{ \"seu_rate\": {}, \"stuck_fraction\": {}, \"common_mode\": {}, \
                 \"seed\": {}, \"stuck_lanes\": [{}], \"slow_lanes\": [{}] }}",
                c.seu_rate,
                c.stuck_fraction,
                c.common_mode,
                c.seed,
                c.stuck_lanes
                    .iter()
                    .map(|l| format!(
                        "{{ \"lane\": {}, \"from_cycle\": {} }}",
                        l.lane, l.from_cycle
                    ))
                    .collect::<Vec<_>>()
                    .join(", "),
                c.slow_lanes
                    .iter()
                    .map(|l| format!("{{ \"lane\": {}, \"factor\": {} }}", l.lane, l.factor))
                    .collect::<Vec<_>>()
                    .join(", "),
            )
        ),
    );
    for (i, row) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let c = &row.stats.counters;
        let _ = write!(
            out,
            "{sep}\n    {{\n      \"offered_tiles_per_sec\": {}, \"wall_secs\": {:.6},\n      \
             \"completed_per_sec\": {:.1}, \"goodput_per_sec\": {:.1}, \
             \"availability\": {:.6},\n      \"latency_p50_ns\": {}, \"latency_p99_ns\": {}, \
             \"latency_max_ns\": {},\n      \"submitted\": {}, \"hardware_served\": {}, \
             \"golden_served\": {},\n      \"shed_queue_full\": {}, \"shed_no_admissible\": {}, \
             \"shed_deadline\": {}, \"shed_retries\": {},\n      \"retries\": {}, \
             \"redispatches\": {}, \"canaries\": {}, \"breaker_transitions\": {}, \
             \"sdc_escapes\": {},\n      \"workers\": [",
            row.offered_tiles_per_sec,
            row.wall_secs,
            row.completed_per_sec(),
            row.goodput_per_sec(),
            row.stats.availability(),
            row.report.p50_latency_ns,
            row.report.p99_latency_ns,
            row.report.max_latency_ns,
            c.submitted,
            c.hardware_served,
            c.golden_served,
            c.shed_queue_full,
            c.shed_no_admissible,
            c.shed_deadline,
            c.shed_retries,
            c.retries,
            c.redispatches,
            c.canaries,
            row.breaker_transitions(),
            row.sdc_escapes,
        );
        for (j, w) in row.stats.workers.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n        {{ \"worker\": {}, \"tiles\": {}, \"hardware_tiles\": {}, \
                 \"health\": {:.4}, \"breaker\": \"{}\", \"transitions\": {}, \"dead\": {} }}",
                w.worker,
                w.tiles,
                w.hardware_tiles,
                w.health,
                w.breaker_state.as_str(),
                w.breaker_transitions,
                w.dead,
            );
        }
        let _ = write!(out, "\n      ]\n    }}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwt_rtl::compile::CompiledEngine;

    fn quick_cfg() -> ServeCampaignConfig {
        let mut cfg = ServeCampaignConfig::default();
        cfg.serve.workers = 2;
        cfg.serve.executor.tile_pairs = 8;
        cfg.serve.queue_capacity = 32;
        cfg.requests = 12;
        // Fast arrivals (mean gap 10 µs) keep the test short; the
        // queue has room for the whole burst so nothing sheds.
        cfg.offered_rates = vec![100_000.0];
        cfg
    }

    #[test]
    fn fault_free_sweep_is_sdc_free_and_fully_hardware_served() {
        let cfg = quick_cfg();
        let rows = run_serve_campaign::<CompiledEngine>(&cfg).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.stats.counters.completed(), 12);
        assert_eq!(total_sdc_escapes(&rows), 0);
        assert!((min_availability(&rows) - 1.0).abs() < 1e-12, "{rows:?}");
        assert!(row.wall_secs > 0.0);
        assert!(row.completed_per_sec() > 0.0);
    }

    #[test]
    fn emitters_cover_the_sweep() {
        let cfg = quick_cfg();
        let rows = run_serve_campaign::<CompiledEngine>(&cfg).unwrap();
        let md = serve_markdown(&rows);
        assert!(md.contains("100000"), "offered rate rendered:\n{md}");
        assert!(md.contains("avail"));
        let workers = serve_worker_markdown(&rows[0]);
        assert!(workers.contains('0') && workers.contains('1'));
        let js = serve_json(&cfg, &rows);
        assert!(js.contains("\"seed\": 2005"), "seed echoed into JSON");
        assert!(js.contains("\"availability\""));
        assert!(js.contains("\"sdc_escapes\": 0"));
        assert!(js.contains("\"chaos\": null"));
    }
}
