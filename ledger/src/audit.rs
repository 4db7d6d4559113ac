//! Bit-exact audits of every response, pool report and partition frame,
//! and the digest of the pool's simulated statistics.

use std::collections::BTreeMap;

use dwt_partition::FrameOutputs;
use dwt_pool::report::ServedBy as PoolServedBy;
use dwt_pool::PoolReport;
use dwt_recover::executor::Rung;
/// The software golden reference for one isolated tile, from
/// `arch::golden`.
pub use dwt_serve::golden_tile;
use dwt_serve::TileResponse;

/// Low- and high-pass coefficients of one tile.
pub type Coeffs = (Vec<i64>, Vec<i64>);

/// Whether a served tile carries exactly the expected coefficients.
#[must_use]
pub fn response_ok(resp: &TileResponse, expected: &Coeffs) -> bool {
    resp.pairs == expected.0.len() && resp.low == expected.0 && resp.high == expected.1
}

/// Tiles of a pool report whose committed coefficients differ from the
/// tiled golden reference of `pairs` (plus one per tile missing from
/// the report).
#[must_use]
pub fn pool_mismatches(report: &PoolReport, pairs: &[(i64, i64)], tile_pairs: usize) -> u64 {
    let mut bad = 0u64;
    let mut at = 0usize;
    let mut tiles = 0usize;
    for tile in pairs.chunks(tile_pairs) {
        let (low, high) = golden_tile(tile);
        let end = at + tile.len();
        let ok = report.low.get(at..end) == Some(&low[..])
            && report.high.get(at..end) == Some(&high[..]);
        bad += u64::from(!ok);
        at = end;
        tiles += 1;
    }
    bad + tiles.saturating_sub(report.tiles.len()) as u64
}

/// Whether a partition frame matches the single-engine oracle.
#[must_use]
pub fn frame_ok(outputs: &FrameOutputs, oracle: &FrameOutputs) -> bool {
    outputs == oracle
}

/// The deterministic simulated statistics of one pool run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolDigest {
    /// Tiles per rung: primary, replay, tmr, golden (golden counts both
    /// the lane ladder's golden fallback and tiles shed by the pool).
    pub rungs: BTreeMap<&'static str, u64>,
    /// Breaker transitions across all lanes.
    pub breaker_transitions: u64,
    /// Tiles shed to the software path by the pool.
    pub shed: u64,
    /// Cycles burnt in failed attempts.
    pub recovery_cycles: u64,
    /// Cycle-weighted availability, as exact `f64` bits.
    pub availability_bits: u64,
    /// Nearest-rank p90 commit latency in pool cycles.
    pub sim_lat_p90_cycles: u64,
}

impl PoolDigest {
    /// Extracts the digest from a report.
    #[must_use]
    pub fn of(report: &PoolReport) -> Self {
        let mut rungs: BTreeMap<&'static str, u64> =
            ["primary", "replay", "tmr", "golden"].into_iter().map(|k| (k, 0)).collect();
        for t in &report.tiles {
            let key = match t.served {
                PoolServedBy::Lane { rung: Rung::Primary, .. } => "primary",
                PoolServedBy::Lane { rung: Rung::Replay, .. } => "replay",
                PoolServedBy::Lane { rung: Rung::Tmr, .. } => "tmr",
                PoolServedBy::Lane { rung: Rung::GoldenFallback, .. }
                | PoolServedBy::Shed { .. } => "golden",
            };
            *rungs.get_mut(key).expect("every rung key is present") += 1;
        }
        let mut hist = dwt_bench::campaign::LatencyHistogram::new();
        hist.extend(report.latencies());
        PoolDigest {
            rungs,
            breaker_transitions: report.breaker_transitions() as u64,
            shed: report.shed_tiles() as u64,
            recovery_cycles: report.tiles.iter().map(|t| t.burnt_cycles).sum(),
            availability_bits: report.availability().to_bits(),
            sim_lat_p90_cycles: hist.percentile(90.0).unwrap_or(0),
        }
    }

    /// Cycle-weighted availability.
    #[must_use]
    pub fn availability(&self) -> f64 {
        f64::from_bits(self.availability_bits)
    }

    /// One printable line holding every simulated statistic.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "pool digest: rungs primary={} replay={} tmr={} golden={} breaker_transitions={} \
             shed={} recovery_cycles={} availability={:?} sim_lat_p90_cycles={}",
            self.rungs["primary"],
            self.rungs["replay"],
            self.rungs["tmr"],
            self.rungs["golden"],
            self.breaker_transitions,
            self.shed,
            self.recovery_cycles,
            self.availability(),
            self.sim_lat_p90_cycles,
        )
    }
}
