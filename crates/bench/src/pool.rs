//! Multi-lane pool campaigns: chaos scenarios against the fault-
//! tolerant tile scheduler, swept over offered load.
//!
//! Where `recovery` measures one lane's ladder under Poisson SEUs, this
//! module measures the *serving stack* built on top of it: a
//! [`dwt_pool::Pool`] of health-scored, breaker-gated lanes under a
//! correlated chaos scenario (common-mode SEU bursts, a permanently
//! stuck lane, a slow lane), driven at several offered loads. Each
//! sweep point reports availability, offered load versus hardware
//! goodput, p50/p99 commit latency in cycles (via the shared
//! [`LatencyHistogram`]), breaker transitions, shed tiles and SDC
//! escapes. Everything is seeded and cycle-clocked: a campaign replays
//! bit for bit.

use std::fmt::Write as _;

use dwt_arch::golden::still_tone_pairs;
use dwt_pool::admission::AdmissionConfig;
use dwt_pool::chaos::{BurstConfig, ChaosConfig, SlowLaneSpec, StuckLaneSpec};
use dwt_pool::report::ServedBy;
use dwt_pool::{Pool, PoolConfig, PoolReport};
use dwt_repro::DwtError;
use dwt_rtl::engine::Engine;

use crate::campaign::{LatencyHistogram, MarkdownTable};
use dwt_lint::diag::json_string;

/// Parameters of one pool campaign sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolCampaignConfig {
    /// The pool template (lanes, design, tile size, chaos scenario…).
    /// Its `interarrival_cycles` is overridden by each sweep point.
    pub pool: PoolConfig,
    /// Sample pairs in the workload.
    pub pairs: usize,
    /// Stimulus seed (the chaos seed lives in `pool.chaos`).
    pub seed: u64,
    /// The offered-load sweep: tile inter-arrival gaps in pool cycles,
    /// heaviest (smallest gap) last or first as the caller prefers.
    pub interarrivals: Vec<u64>,
}

impl Default for PoolCampaignConfig {
    fn default() -> Self {
        // The default scenario exercises every defence at once: a
        // baseline SEU drizzle with common-mode burst windows, lane 0
        // permanently stuck from its first tile (the activation clock
        // is the lane's own executed cycles, which advance only while
        // it serves), lane 1 running at 2x cycle cost, and a deadline
        // tight enough to shed under the heaviest load.
        let pool = PoolConfig {
            lanes: 4,
            tile_pairs: 16,
            interarrival_cycles: 16,
            admission: AdmissionConfig { deadline_cycles: Some(400) },
            chaos: ChaosConfig {
                seu_rate: 0.002,
                stuck_fraction: 0.2,
                common_mode: 0.3,
                burst: Some(BurstConfig { period: 256, len: 64, factor: 8.0 }),
                stuck_lanes: vec![StuckLaneSpec { lane: 0, from_cycle: 0 }],
                slow_lanes: vec![SlowLaneSpec { lane: 1, factor: 2.0 }],
                seed: 2005,
            },
            ..PoolConfig::default()
        };
        PoolCampaignConfig { pool, pairs: 192, seed: 2005, interarrivals: vec![48, 24, 12, 6] }
    }
}

/// One sweep point: the pool's report at one offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolRow {
    /// Tile inter-arrival gap of this point, in pool cycles.
    pub interarrival: u64,
    /// The scheduler's full report.
    pub report: PoolReport,
}

impl PoolRow {
    /// Commit-latency distribution of this point.
    #[must_use]
    pub fn latency_histogram(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        h.extend(self.report.latencies());
        h
    }
}

/// Runs the sweep: one pool per offered load, same workload and chaos
/// seed throughout, on the simulation backend named by `E` (turbofish
/// at the call site: `run_pool_campaign::<Simulator>(…)`).
///
/// # Errors
///
/// Propagates pool construction/harness failures (lane failures and
/// shed tiles are results, not errors).
pub fn run_pool_campaign<E: Engine>(cfg: &PoolCampaignConfig) -> Result<Vec<PoolRow>, DwtError> {
    let pairs = still_tone_pairs(cfg.pairs, cfg.seed);
    let mut rows = Vec::new();
    for &interarrival in &cfg.interarrivals {
        let pool_cfg = PoolConfig { interarrival_cycles: interarrival, ..cfg.pool.clone() };
        let report = Pool::<E>::new(pool_cfg)?.run(&pairs)?;
        rows.push(PoolRow { interarrival, report });
    }
    Ok(rows)
}

/// Total SDC escapes across the sweep (the CI gate quantity).
#[must_use]
pub fn total_sdc_escapes(rows: &[PoolRow]) -> usize {
    rows.iter().map(|r| r.report.sdc_escapes()).sum()
}

/// Lowest availability across the sweep (the CI floor quantity).
#[must_use]
pub fn min_availability(rows: &[PoolRow]) -> f64 {
    rows.iter().map(|r| r.report.availability()).fold(f64::INFINITY, f64::min)
}

/// Renders the sweep as a markdown table, one row per offered load.
#[must_use]
pub fn pool_markdown(rows: &[PoolRow]) -> String {
    let mut table = MarkdownTable::new(&[
        "gap", "offered", "goodput", "avail", "p50 lat", "p99 lat", "shed", "misses", "breaker",
        "SDC esc",
    ]);
    for row in rows {
        let r = &row.report;
        let hist = row.latency_histogram();
        table.push_row(vec![
            format!("{}cy", row.interarrival),
            format!("{:.4}", r.offered_pairs_per_cycle()),
            format!("{:.4}", r.goodput_pairs_per_cycle()),
            format!("{:.4}", r.availability()),
            hist.p50().map_or_else(|| "—".to_owned(), |l| format!("{l}cy")),
            hist.p99().map_or_else(|| "—".to_owned(), |l| format!("{l}cy")),
            format!("{}/{}", r.shed_tiles(), r.tiles.len()),
            r.deadline_misses().to_string(),
            r.breaker_transitions().to_string(),
            r.sdc_escapes().to_string(),
        ]);
    }
    table.render()
}

/// Renders the end-of-sweep per-lane summary (of the heaviest-load
/// point, where the defences work hardest) as a markdown table.
#[must_use]
pub fn pool_lane_markdown(row: &PoolRow) -> String {
    let mut table = MarkdownTable::new(&[
        "lane",
        "health",
        "breaker",
        "trips",
        "attempted",
        "served",
        "failed",
        "canaries",
        "stuck",
        "slow",
    ]);
    for lane in &row.report.lane_summaries {
        table.push_row(vec![
            lane.id.to_string(),
            format!("{:.3}", lane.health),
            lane.breaker_state.as_str().to_owned(),
            lane.breaker_transitions.len().to_string(),
            lane.stats.attempted.to_string(),
            lane.stats.served.to_string(),
            lane.stats.failed.to_string(),
            lane.stats.canaries.to_string(),
            if lane.stuck { "yes" } else { "no" }.to_owned(),
            format!("{:.1}x", lane.slow_factor),
        ]);
    }
    table.render()
}

/// Serializes the campaign (config echo — including both seeds — plus
/// every sweep point's summary, lane states and per-tile records) as
/// JSON.
#[must_use]
pub fn pool_json(cfg: &PoolCampaignConfig, rows: &[PoolRow]) -> String {
    let p = &cfg.pool;
    let c = &p.chaos;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"config\": {{\n    \"lanes\": {}, \"design\": {}, \"tile_pairs\": {}, \
         \"pairs\": {}, \"seed\": {},\n    \"max_replays\": {}, \"max_redispatch\": {}, \
         \"dwc\": {}, \"deadline_cycles\": {},\n    \"chaos\": {{ \"seu_rate\": {}, \
         \"stuck_fraction\": {}, \"common_mode\": {}, \"seed\": {}, \"burst\": {}, \
         \"stuck_lanes\": [{}], \"slow_lanes\": [{}] }}\n  }},\n  \"sweep\": [",
        p.lanes,
        json_string(p.design.name()),
        p.tile_pairs,
        cfg.pairs,
        cfg.seed,
        p.max_replays,
        p.max_redispatch,
        p.dwc,
        p.admission.deadline_cycles.map_or_else(|| "null".to_owned(), |d| d.to_string()),
        c.seu_rate,
        c.stuck_fraction,
        c.common_mode,
        c.seed,
        c.burst.map_or_else(
            || "null".to_owned(),
            |b| format!(
                "{{ \"period\": {}, \"len\": {}, \"factor\": {} }}",
                b.period, b.len, b.factor
            )
        ),
        c.stuck_lanes
            .iter()
            .map(|s| format!("{{ \"lane\": {}, \"from_cycle\": {} }}", s.lane, s.from_cycle))
            .collect::<Vec<_>>()
            .join(", "),
        c.slow_lanes
            .iter()
            .map(|s| format!("{{ \"lane\": {}, \"factor\": {} }}", s.lane, s.factor))
            .collect::<Vec<_>>()
            .join(", "),
    );
    for (i, row) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let r = &row.report;
        let hist = row.latency_histogram();
        let _ = write!(
            out,
            "{sep}\n    {{\n      \"interarrival\": {}, \"tiles\": {}, \"makespan\": {},\n      \
             \"offered_pairs_per_cycle\": {:.6}, \"goodput_pairs_per_cycle\": {:.6},\n      \
             \"availability\": {:.6}, \"latency_p50\": {}, \"latency_p99\": {},\n      \
             \"shed_tiles\": {}, \"deadline_misses\": {}, \"breaker_transitions\": {}, \
             \"sdc_escapes\": {},\n      \"lanes\": [",
            row.interarrival,
            r.tiles.len(),
            r.makespan,
            r.offered_pairs_per_cycle(),
            r.goodput_pairs_per_cycle(),
            r.availability(),
            hist.p50().map_or_else(|| "null".to_owned(), |l| l.to_string()),
            hist.p99().map_or_else(|| "null".to_owned(), |l| l.to_string()),
            r.shed_tiles(),
            r.deadline_misses(),
            r.breaker_transitions(),
            r.sdc_escapes(),
        );
        for (j, lane) in r.lane_summaries.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n        {{ \"id\": {}, \"health\": {:.4}, \"breaker\": \"{}\", \
                 \"transitions\": {}, \"attempted\": {}, \"served\": {}, \"failed\": {}, \
                 \"canaries\": {}, \"stuck\": {}, \"slow_factor\": {} }}",
                lane.id,
                lane.health,
                lane.breaker_state.as_str(),
                lane.breaker_transitions.len(),
                lane.stats.attempted,
                lane.stats.served,
                lane.stats.failed,
                lane.stats.canaries,
                lane.stuck,
                lane.slow_factor,
            );
        }
        let _ = write!(out, "\n      ],\n      \"tiles_detail\": [");
        for (j, t) in r.tiles.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let served = match t.served {
                ServedBy::Lane { lane, rung } => {
                    format!("{{ \"lane\": {lane}, \"rung\": \"{}\" }}", rung.as_str())
                }
                ServedBy::Shed { reason } => {
                    format!("{{ \"shed\": \"{}\" }}", reason.as_str())
                }
            };
            let _ = write!(
                out,
                "{sep}\n        {{ \"index\": {}, \"arrival\": {}, \"completion\": {}, \
                 \"latency\": {}, \"served\": {served}, \"attempts\": {}, \
                 \"burnt_cycles\": {}, \"detections\": {}, \"replays\": {}, \
                 \"deadline_missed\": {}, \"bit_exact\": {} }}",
                t.index,
                t.arrival,
                t.completion,
                t.latency,
                t.attempts,
                t.burnt_cycles,
                t.detections,
                t.replays,
                t.deadline_missed,
                t.bit_exact,
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

    fn quick_cfg() -> PoolCampaignConfig {
        // Small but heavily loaded: enough backlog that the stuck lane
        // is retried and its breaker actually trips.
        let mut cfg = PoolCampaignConfig {
            pairs: 96,
            interarrivals: vec![24, 4],
            ..PoolCampaignConfig::default()
        };
        cfg.pool.tile_pairs = 8;
        cfg
    }

    use dwt_rtl::sim::Simulator;

    #[test]
    fn sweep_is_deterministic_and_sdc_free_with_dwc() {
        let cfg = quick_cfg();
        let a = run_pool_campaign::<Simulator>(&cfg).unwrap();
        let b = run_pool_campaign::<Simulator>(&cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(total_sdc_escapes(&a), 0, "DWC must stop every escape");
        // The default scenario has a stuck lane: the defences must have
        // actually fired somewhere in the sweep.
        assert!(a.iter().any(|r| r.report.breaker_transitions() > 0));
        assert!(min_availability(&a) > 0.0);
    }

    #[test]
    fn emitters_cover_the_sweep() {
        let cfg = quick_cfg();
        let rows = run_pool_campaign::<Simulator>(&cfg).unwrap();
        let md = pool_markdown(&rows);
        assert!(md.contains("24cy") && md.contains("4cy"), "every sweep point rendered:\n{md}");
        let lanes = pool_lane_markdown(rows.last().unwrap());
        for id in 0..cfg.pool.lanes {
            assert!(lanes.contains(&id.to_string()));
        }
        let js = pool_json(&cfg, &rows);
        assert!(js.contains("\"seed\": 2005"), "seed echoed into JSON");
        assert!(js.contains("\"availability\""));
        assert!(js.contains("\"latency_p99\""));
        assert!(js.contains("\"stuck_lanes\": [{ \"lane\": 0, \"from_cycle\": 0 }]"));
    }
}
