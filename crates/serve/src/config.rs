//! Serving-runtime configuration.

use dwt_arch::designs::Design;
use dwt_pool::breaker::BreakerConfig;
use dwt_pool::chaos::ChaosConfig;
use dwt_pool::health::HealthConfig;
use dwt_recover::executor::ExecutorConfig;

use crate::error::{Error, Result};
use crate::retry::RetryPolicy;

/// What `submit` does when the bounded ingress queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Block the submitting thread until a slot frees — backpressure
    /// propagates to the producer.
    #[default]
    Block,
    /// Serve the request from the software golden model immediately
    /// ([`ShedReason::QueueFull`](crate::request::ShedReason::QueueFull))
    /// — hardware goodput is shed, the caller never blocks.
    Shed,
}

/// Configuration of a [`Server`](crate::server::Server).
///
/// Time-valued fields are wall-clock nanoseconds: the breaker's
/// `open_cycles`, the admission deadline and the cost model all run on
/// the monotonic-nanosecond [`Clock`](dwt_pool::clock::Clock) instead
/// of simulator cycles, which is the whole point of the clock
/// abstraction — identical defence logic, different tick source.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// The paper design every worker runs.
    pub design: Design,
    /// Per-worker recovery-executor configuration (tile size, replay
    /// budget, hardening, DWC, watchdog).
    pub executor: ExecutorConfig,
    /// Worker threads, each owning one hardware lane.
    pub workers: usize,
    /// Bounded ingress capacity: requests queued across all workers.
    pub queue_capacity: usize,
    /// What `submit` does when the queue is full.
    pub overload: OverloadPolicy,
    /// Wall-clock deadline per request (ns from submission). A request
    /// that cannot be started in time on any worker, or that expires
    /// while queued, is served from the golden model. `None` disables
    /// deadline admission.
    pub deadline_ns: Option<u64>,
    /// Retry policy for recoverable hardware failures.
    pub retry: RetryPolicy,
    /// Per-worker circuit breaker, with `open_cycles` in nanoseconds.
    pub breaker: BreakerConfig,
    /// Per-worker EWMA health scoring (same verdict weights as the
    /// virtual-time pool).
    pub health: HealthConfig,
    /// Seed for each worker's wall-clock cost model, in nanoseconds
    /// per tile, refined by an EWMA of observed service times.
    pub initial_cost_ns: u64,
    /// EWMA weight of the cost model, in `(0, 1]`.
    pub cost_alpha: f64,
    /// Seed for deterministic retry jitter (and the chaos scenario,
    /// which carries its own seed).
    pub seed: u64,
    /// Optional chaos scenario driven through the real worker threads:
    /// Poisson SEUs per worker, permanently stuck workers, slow
    /// workers (stall injected as real wall-clock sleep).
    pub chaos: Option<ChaosConfig>,
}

impl ServeConfig {
    /// A serving configuration for `design` with production-shaped
    /// defaults: 4 workers, a 64-deep queue, blocking backpressure,
    /// 3 attempts, 5 ms breaker cooldown, no deadline, no chaos.
    #[must_use]
    pub fn new(design: Design) -> Self {
        ServeConfig {
            design,
            executor: ExecutorConfig::default(),
            workers: 4,
            queue_capacity: 64,
            overload: OverloadPolicy::Block,
            deadline_ns: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig {
                // 5 ms base cooldown in nanosecond ticks.
                open_cycles: 5_000_000,
                ..BreakerConfig::default()
            },
            health: HealthConfig::default(),
            initial_cost_ns: 200_000,
            cost_alpha: 0.3,
            seed: 0,
            chaos: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a zero worker count, zero queue
    /// capacity, zero attempt budget, an out-of-range EWMA weight or
    /// jitter, a zero cost seed, or a chaos scenario that does not fit
    /// the worker count.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(Error::InvalidConfig("workers must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(Error::InvalidConfig("queue_capacity must be >= 1".into()));
        }
        if self.executor.tile_pairs == 0 {
            return Err(Error::InvalidConfig("tile_pairs must be >= 1".into()));
        }
        if self.retry.max_attempts == 0 {
            return Err(Error::InvalidConfig("retry.max_attempts must be >= 1".into()));
        }
        if !self.retry.jitter.is_finite() || !(0.0..=1.0).contains(&self.retry.jitter) {
            return Err(Error::InvalidConfig(format!(
                "retry.jitter {} must be in [0, 1]",
                self.retry.jitter
            )));
        }
        if !self.cost_alpha.is_finite()
            || !(0.0..=1.0).contains(&self.cost_alpha)
            || self.cost_alpha == 0.0
        {
            return Err(Error::InvalidConfig(format!(
                "cost_alpha {} must be in (0, 1]",
                self.cost_alpha
            )));
        }
        if self.initial_cost_ns == 0 {
            return Err(Error::InvalidConfig("initial_cost_ns must be >= 1".into()));
        }
        if self.deadline_ns == Some(0) {
            return Err(Error::InvalidConfig("deadline_ns must be >= 1 when set".into()));
        }
        if let Some(chaos) = &self.chaos {
            chaos.validate(self.workers)?;
        }
        Ok(())
    }
}
