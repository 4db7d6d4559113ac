//! Per-worker serving state shared between the submit path and the
//! worker threads.
//!
//! A worker is one hardware lane: a `TileExecutor` owned exclusively by
//! its thread, plus the defence state every thread consults under the
//! server lock — its job deque (the work-stealing substrate), circuit
//! breaker, EWMA health score and wall-clock cost model. The executor
//! itself never crosses the lock; only verdicts and timings do.

use std::collections::VecDeque;

use dwt_pool::admission::CostModel;
use dwt_pool::breaker::{BreakerState, CircuitBreaker};
use dwt_pool::health::HealthScore;

use crate::config::ServeConfig;
use crate::request::TileRequest;

/// A queued unit of work: one request plus its service history.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    /// The request.
    pub req: TileRequest,
    /// Wall-clock submission instant (ns on the server clock).
    pub arrival_ns: u64,
    /// Absolute wall-clock deadline (ns), if admission is configured.
    pub deadline_ns: Option<u64>,
    /// Hardware attempts completed so far.
    pub attempts: u32,
    /// Workers that already attempted (or were assigned) this job;
    /// retries prefer untried workers.
    pub tried: Vec<usize>,
}

impl Job {
    /// Whether the job's deadline has passed at `now`.
    pub fn expired(&self, now: u64) -> bool {
        self.deadline_ns.is_some_and(|d| now > d)
    }
}

/// The lock-protected half of one worker.
#[derive(Debug)]
pub(crate) struct WorkerSlot {
    /// This worker's job deque. Own jobs pop from the front; thieves
    /// steal from the front of the longest queue (oldest first, so
    /// stealing helps latency, not just balance).
    pub queue: VecDeque<Job>,
    /// Circuit breaker on nanosecond ticks.
    pub breaker: CircuitBreaker,
    /// EWMA health score fed by tile verdicts.
    pub health: HealthScore,
    /// EWMA wall-clock cost model (ns per tile).
    pub cost: CostModel,
    /// 1 while the worker thread is executing a tile (counts toward
    /// its backlog estimate).
    pub executing: u64,
    /// Tiles this worker committed (any rung).
    pub tiles: u64,
    /// Tiles this worker's hardware served (rungs short of golden).
    pub hardware_tiles: u64,
    /// Set when the worker's harness is unrecoverable; a dead worker
    /// takes no further dispatches.
    pub dead: bool,
}

impl WorkerSlot {
    pub fn new(cfg: &ServeConfig) -> Self {
        WorkerSlot {
            queue: VecDeque::new(),
            breaker: CircuitBreaker::new(cfg.breaker),
            health: HealthScore::new(cfg.health),
            cost: CostModel::new(cfg.initial_cost_ns, cfg.cost_alpha),
            executing: 0,
            tiles: 0,
            hardware_tiles: 0,
            dead: false,
        }
    }

    /// Estimated wall-clock backlog ahead of a new job on this worker:
    /// queued jobs plus any executing one, at the current cost
    /// estimate.
    pub fn backlog_ns(&self) -> u64 {
        (self.queue.len() as u64 + self.executing).saturating_mul(self.cost.estimate())
    }
}

/// End-of-run statistics for one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Tiles the worker committed (any rung).
    pub tiles: u64,
    /// Tiles the worker's hardware served.
    pub hardware_tiles: u64,
    /// Final EWMA health score.
    pub health: f64,
    /// Final breaker state.
    pub breaker_state: BreakerState,
    /// Breaker transitions over the run.
    pub breaker_transitions: usize,
    /// Whether the worker died (unrecoverable harness failure).
    pub dead: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwt_arch::designs::Design;

    #[test]
    fn backlog_counts_queue_and_executing_job() {
        let cfg = ServeConfig::new(Design::D3);
        let mut slot = WorkerSlot::new(&cfg);
        assert_eq!(slot.backlog_ns(), 0);
        slot.executing = 1;
        assert_eq!(slot.backlog_ns(), cfg.initial_cost_ns);
        slot.queue.push_back(Job {
            req: TileRequest { id: 0, pairs: vec![(1, 2)] },
            arrival_ns: 0,
            deadline_ns: None,
            attempts: 0,
            tried: Vec::new(),
        });
        assert_eq!(slot.backlog_ns(), 2 * cfg.initial_cost_ns);
    }
}
