//! End-of-run statistics and response summarisation.

use dwt_pool::histogram::LatencyHistogram;

use crate::request::TileResponse;
use crate::worker::WorkerStats;

/// Monotone event counters kept under the server lock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Requests accepted by `submit`.
    pub submitted: u64,
    /// Responses served by worker hardware (any rung short of golden).
    pub hardware_served: u64,
    /// Responses served by the software golden model.
    pub golden_served: u64,
    /// Retry parks scheduled after failed hardware attempts.
    pub retries: u64,
    /// Jobs re-routed without consuming an attempt (dead worker, or a
    /// breaker that opened while the job was queued).
    pub redispatches: u64,
    /// Canary dispatches (post-cooldown probes that power-cycled the
    /// worker first).
    pub canaries: u64,
    /// Requests shed because the ingress queue was full.
    pub shed_queue_full: u64,
    /// Requests shed because no worker's breaker admitted them.
    pub shed_no_admissible: u64,
    /// Requests shed because their wall-clock deadline passed or could
    /// not be met.
    pub shed_deadline: u64,
    /// Requests shed after exhausting the hardware attempt budget.
    pub shed_retries: u64,
}

impl Counters {
    /// Total responses emitted.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.hardware_served + self.golden_served
    }
}

/// The run's statistics, returned by
/// [`Server::shutdown`](crate::server::Server::shutdown).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Event counters.
    pub counters: Counters,
    /// Per-worker accounting.
    pub workers: Vec<WorkerStats>,
}

impl ServeStats {
    /// Request-weighted availability: the fraction of responses served
    /// by hardware. Golden-served responses are correct but represent
    /// degraded (software-only) service.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let total = self.counters.completed();
        if total == 0 {
            return 1.0;
        }
        self.counters.hardware_served as f64 / total as f64
    }
}

/// A latency/availability summary of a batch of responses.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Responses summarised.
    pub responses: usize,
    /// Responses served by hardware.
    pub hardware_served: usize,
    /// Hardware-served fraction (1.0 for an empty batch).
    pub availability: f64,
    /// Median latency, ns (0 for an empty batch).
    pub p50_latency_ns: u64,
    /// 99th-percentile latency, ns (nearest rank; 0 for an empty
    /// batch).
    pub p99_latency_ns: u64,
    /// Maximum latency, ns.
    pub max_latency_ns: u64,
    /// Mean latency, ns.
    pub mean_latency_ns: f64,
}

impl ServeReport {
    /// Summarises a batch of responses.
    #[must_use]
    pub fn from_responses(responses: &[TileResponse]) -> Self {
        let mut lat = LatencyHistogram::new();
        lat.extend(responses.iter().map(|r| r.latency_ns));
        let hardware = responses.iter().filter(|r| r.hardware_served()).count();
        ServeReport {
            responses: responses.len(),
            hardware_served: hardware,
            availability: if responses.is_empty() {
                1.0
            } else {
                hardware as f64 / responses.len() as f64
            },
            p50_latency_ns: lat.p50().unwrap_or(0),
            p99_latency_ns: lat.p99().unwrap_or(0),
            max_latency_ns: lat.max().unwrap_or(0),
            mean_latency_ns: lat.mean().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ServedBy, ShedReason};

    fn resp(id: u64, hw: bool, latency_ns: u64) -> TileResponse {
        TileResponse {
            id,
            pairs: 1,
            low: vec![0],
            high: vec![0],
            served_by: if hw {
                ServedBy::Worker { worker: 0, rung: dwt_recover::executor::Rung::Primary }
            } else {
                ServedBy::Golden(ShedReason::RetriesExhausted)
            },
            attempts: 1,
            latency_ns,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let responses: Vec<TileResponse> = (1..=100).map(|i| resp(i, true, i * 1000)).collect();
        let report = ServeReport::from_responses(&responses);
        assert_eq!(report.p50_latency_ns, 50_000);
        assert_eq!(report.p99_latency_ns, 99_000);
        assert_eq!(report.max_latency_ns, 100_000);
        assert_eq!(report.availability, 1.0);
    }

    #[test]
    fn availability_counts_hardware_fraction() {
        let responses =
            vec![resp(0, true, 10), resp(1, false, 20), resp(2, true, 30), resp(3, true, 40)];
        let report = ServeReport::from_responses(&responses);
        assert_eq!(report.hardware_served, 3);
        assert!((report.availability - 0.75).abs() < 1e-12);
        let empty = ServeReport::from_responses(&[]);
        assert_eq!(empty.availability, 1.0);
        assert_eq!(empty.p99_latency_ns, 0);
    }
}
