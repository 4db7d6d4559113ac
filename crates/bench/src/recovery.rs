//! Recovery-runtime campaigns: Poisson SEU streams against the
//! checkpointed tile executor, per design.
//!
//! Where `campaign` measures what upsets *do* to a bare datapath
//! (masked / detected / SDC), this module measures what the
//! detect–rollback–replay runtime does *about* them: for each of the
//! five paper designs it streams the same seeded stimulus through a
//! [`dwt_recover::executor::TileExecutor`] under Poisson-arrival SEUs
//! and reports availability, throughput degradation, detection latency,
//! ladder-rung usage and SDC escapes. The JSON/markdown emitters reuse
//! the shared helpers in [`crate::campaign`].

use std::fmt::Write as _;

use dwt_arch::datapath::Hardening;
use dwt_arch::designs::Design;
use dwt_arch::golden::still_tone_pairs;
use dwt_recover::executor::{ExecutorConfig, StreamReport, TileExecutor};
use dwt_recover::seu::PoissonSeu;
use dwt_recover::watchdog::WatchdogConfig;
use dwt_repro::DwtError;
use dwt_rtl::engine::Engine;

use crate::campaign::{LatencyHistogram, MarkdownTable};
use dwt_lint::diag::json_string;

/// Per-tile total cycle costs (nominal + recovery) of one run, as a
/// latency distribution.
fn tile_cycle_histogram(report: &StreamReport) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    h.extend(report.tiles.iter().map(|t| t.nominal_cycles + t.recovery_cycles));
    h
}

/// Parameters of one recovery campaign sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryCampaignConfig {
    /// Sample pairs in the stimulus stream.
    pub pairs: usize,
    /// Sample pairs per tile (checkpoint interval).
    pub tile_pairs: usize,
    /// Seed for stimulus and SEU arrivals; equal seeds reproduce the
    /// campaign bit for bit.
    pub seed: u64,
    /// Mean SEU arrivals per executed cycle.
    pub seu_rate: f64,
    /// Fraction of arrivals that are persistent stuck-at faults.
    pub stuck_fraction: f64,
    /// Probability a hard primary fault also afflicts the TMR spare.
    pub common_mode: f64,
    /// Duplication-with-comparison on the primary lane.
    pub dwc: bool,
    /// Replay attempts before escalating to the TMR spare.
    pub max_replays: u32,
    /// Watchdog event budget per cycle (`None` = simulator default).
    pub event_cap: Option<u64>,
}

impl Default for RecoveryCampaignConfig {
    fn default() -> Self {
        RecoveryCampaignConfig {
            pairs: 256,
            tile_pairs: 32,
            seed: 2005,
            seu_rate: 0.002,
            stuck_fraction: 0.0,
            common_mode: 0.0,
            dwc: true,
            max_replays: 2,
            event_cap: None,
        }
    }
}

/// One design's run under the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRow {
    /// The design.
    pub design: Design,
    /// The executor's per-tile accounting.
    pub report: StreamReport,
    /// SEU arrivals generated over the run.
    pub strikes: u64,
}

/// Runs the campaign over all five paper designs with the same config,
/// on the simulation backend named by `E` (turbofish at the call site:
/// `run_recovery_campaign::<Simulator>(…)`).
///
/// # Errors
///
/// Propagates executor construction/harness failures.
pub fn run_recovery_campaign<E: Engine>(
    cfg: &RecoveryCampaignConfig,
) -> Result<Vec<RecoveryRow>, DwtError> {
    let pairs = still_tone_pairs(cfg.pairs, cfg.seed);
    let mut rows = Vec::new();
    for (i, design) in Design::all().into_iter().enumerate() {
        let exec_cfg = ExecutorConfig {
            tile_pairs: cfg.tile_pairs,
            max_replays: cfg.max_replays,
            hardening: Hardening::None,
            dwc: cfg.dwc,
            watchdog: WatchdogConfig { event_cap: cfg.event_cap, tile_cycle_budget: None },
        };
        let mut exec = TileExecutor::<E>::new(design, exec_cfg)?;
        let mut seu = PoissonSeu::new(
            exec.primary_netlist(),
            exec.spare_netlist()?,
            cfg.seu_rate,
            // Decorrelate the arrival stream from the stimulus, but
            // keep it a pure function of the campaign seed.
            cfg.seed ^ 0x5eu64.rotate_left(32) ^ i as u64,
        )
        .with_hard_faults(cfg.stuck_fraction, cfg.common_mode);
        let report = exec.run_stream(&pairs, &mut seu)?;
        rows.push(RecoveryRow { design, report, strikes: seu.strikes() });
    }
    Ok(rows)
}

/// Total SDC escapes across all designs (the CI gate quantity).
#[must_use]
pub fn total_sdc_escapes(rows: &[RecoveryRow]) -> usize {
    rows.iter().map(|r| r.report.sdc_escapes()).sum()
}

/// Renders the per-design summary as a markdown table.
#[must_use]
pub fn recovery_markdown(rows: &[RecoveryRow]) -> String {
    let mut table = MarkdownTable::new(&[
        "Design", "tiles", "strikes", "primary", "replay", "tmr", "fallback", "avail", "degrade",
        "det lat", "p50 cyc", "p99 cyc", "SDC esc",
    ]);
    for row in rows {
        let r = &row.report;
        let hist = tile_cycle_histogram(r);
        let (primary, replay, tmr, fallback) = r.rung_counts();
        table.push_row(vec![
            row.design.name().to_owned(),
            r.tiles.len().to_string(),
            row.strikes.to_string(),
            primary.to_string(),
            replay.to_string(),
            tmr.to_string(),
            fallback.to_string(),
            format!("{:.4}", r.availability()),
            format!("{:+.2}%", r.throughput_degradation() * 100.0),
            r.mean_detection_latency().map_or_else(|| "—".to_owned(), |l| format!("{l:.1}cy")),
            hist.p50().map_or_else(|| "—".to_owned(), |l| l.to_string()),
            hist.p99().map_or_else(|| "—".to_owned(), |l| l.to_string()),
            r.sdc_escapes().to_string(),
        ]);
    }
    table.render()
}

/// Serializes the campaign (config echo — including the seed — plus
/// per-design summaries and per-tile outcomes) as JSON.
#[must_use]
pub fn recovery_json(cfg: &RecoveryCampaignConfig, rows: &[RecoveryRow]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"config\": {{ \"pairs\": {}, \"tile_pairs\": {}, \"seed\": {}, \
         \"seu_rate\": {}, \"stuck_fraction\": {}, \"common_mode\": {}, \"dwc\": {}, \
         \"max_replays\": {}, \"event_cap\": {} }},\n  \"designs\": [",
        cfg.pairs,
        cfg.tile_pairs,
        cfg.seed,
        cfg.seu_rate,
        cfg.stuck_fraction,
        cfg.common_mode,
        cfg.dwc,
        cfg.max_replays,
        cfg.event_cap.map_or_else(|| "null".to_owned(), |c| c.to_string()),
    );
    for (i, row) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let r = &row.report;
        let (primary, replay, tmr, fallback) = r.rung_counts();
        let _ = write!(
            out,
            "{sep}\n    {{\n      \"design\": {}, \"tiles\": {}, \"strikes\": {},\n      \
             \"rungs\": {{ \"primary\": {primary}, \"replay\": {replay}, \"tmr\": {tmr}, \
             \"golden_fallback\": {fallback} }},\n      \
             \"availability\": {:.6}, \"throughput_degradation\": {:.6},\n      \
             \"mean_detection_latency\": {}, \"tile_cycles_p50\": {}, \"tile_cycles_p99\": {}, \
             \"sdc_escapes\": {},\n      \"tiles_detail\": [",
            json_string(row.design.name()),
            r.tiles.len(),
            row.strikes,
            r.availability(),
            r.throughput_degradation(),
            r.mean_detection_latency().map_or_else(|| "null".to_owned(), |l| format!("{l:.3}")),
            tile_cycle_histogram(r).p50().map_or_else(|| "null".to_owned(), |l| l.to_string()),
            tile_cycle_histogram(r).p99().map_or_else(|| "null".to_owned(), |l| l.to_string()),
            r.sdc_escapes(),
        );
        for (j, t) in r.tiles.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let detections: Vec<String> =
                t.detections.iter().map(|d| format!("\"{}\"", d.as_str())).collect();
            let _ = write!(
                out,
                "{sep}\n        {{ \"index\": {}, \"rung\": \"{}\", \"replays\": {}, \
                 \"nominal_cycles\": {}, \"recovery_cycles\": {}, \"detection_latency\": {}, \
                 \"bit_exact\": {}, \"detections\": [{}] }}",
                t.index,
                t.rung.as_str(),
                t.replays,
                t.nominal_cycles,
                t.recovery_cycles,
                t.detection_latency.map_or_else(|| "null".to_owned(), |l| l.to_string()),
                t.bit_exact,
                detections.join(", "),
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

    fn quick_cfg() -> RecoveryCampaignConfig {
        RecoveryCampaignConfig {
            pairs: 32,
            tile_pairs: 16,
            seu_rate: 0.01,
            ..RecoveryCampaignConfig::default()
        }
    }

    use dwt_rtl::sim::Simulator;

    #[test]
    fn campaign_is_deterministic_and_sdc_free_with_dwc() {
        let cfg = quick_cfg();
        let a = run_recovery_campaign::<Simulator>(&cfg).unwrap();
        let b = run_recovery_campaign::<Simulator>(&cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert_eq!(total_sdc_escapes(&a), 0, "DWC must stop every escape");
        // At this rate something must actually have struck.
        assert!(a.iter().map(|r| r.strikes).sum::<u64>() > 0);
    }

    #[test]
    fn emitters_cover_every_design() {
        let cfg = quick_cfg();
        let rows = run_recovery_campaign::<Simulator>(&cfg).unwrap();
        let md = recovery_markdown(&rows);
        let js = recovery_json(&cfg, &rows);
        for d in Design::all() {
            assert!(md.contains(d.name()), "markdown misses {d}");
            assert!(js.contains(d.name()), "json misses {d}");
        }
        assert!(js.contains("\"seed\": 2005"), "seed echoed into JSON");
        assert!(js.contains("\"sdc_escapes\""));
    }
}
