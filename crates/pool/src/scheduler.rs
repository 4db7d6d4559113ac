//! The deterministic multi-lane tile scheduler.
//!
//! [`Pool::run`] shards a pair stream into fixed-size tiles and serves
//! them across N lanes under a virtual pool clock (simulator cycles, no
//! wall time). Tile `i` arrives at `i * interarrival_cycles`; dispatch
//! picks the **healthiest admissible** lane — breaker permitting, and
//! (with deadline admission on) only lanes whose queue depth plus
//! estimated tile cost still meets the tile's cycle budget. A lane
//! whose entire hardware ladder fails costs its burnt window, feeds the
//! breaker, and the tile is **redistributed** to the next-healthiest
//! lane; when the redistribution budget is exhausted (or no lane is
//! admissible at all) the tile is **shed** to the software golden path,
//! which is correct by definition.
//!
//! Three invariants hold regardless of chaos, redistribution and
//! shedding, and are property-tested:
//!
//! * **no tile lost** — every tile commits (hardware or shed);
//! * **no tile double-committed** — each output slot is written once;
//! * **bit-exact ordering** — the concatenated committed coefficients
//!   equal the tiled [`dwt_arch::golden`] reference in workload order,
//!   no matter which lane served which tile.

use dwt_arch::datapath::Hardening;
use dwt_arch::designs::Design;
use dwt_arch::golden::golden_tile;
use dwt_recover::executor::{ExecutorConfig, TileExecutor};
use dwt_recover::watchdog::WatchdogConfig;
use dwt_rtl::engine::Engine;
use dwt_rtl::sim::Simulator;

use crate::admission::{AdmissionConfig, CostModel};
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::chaos::{ChaosConfig, ChaosSites};
use crate::error::{Error, Result};
use crate::health::{sample_for, HealthConfig, HealthScore};
use crate::lane::{Lane, LaneStats};
use crate::report::{LaneSummary, PoolReport, PoolTileRecord, ServedBy, ShedReason};

/// Complete configuration of a pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Number of lanes (replicated datapaths).
    pub lanes: usize,
    /// The paper design every lane instantiates.
    pub design: Design,
    /// Hardening of each lane's primary datapath.
    pub hardening: Hardening,
    /// Sample pairs per tile.
    pub tile_pairs: usize,
    /// Rollback replays inside a lane before its ladder escalates.
    pub max_replays: u32,
    /// Additional lanes tried after the first lane's ladder fails.
    pub max_redispatch: u32,
    /// Pool cycles between tile arrivals (the offered-load knob;
    /// smaller = heavier load).
    pub interarrival_cycles: u64,
    /// Duplication-with-comparison on each lane's primary.
    pub dwc: bool,
    /// Watchdog event budget per simulated cycle (`None` = default).
    pub event_cap: Option<u64>,
    /// Deadline admission control.
    pub admission: AdmissionConfig,
    /// EWMA weight of the per-lane cost model feeding admission.
    pub cost_alpha: f64,
    /// Circuit-breaker tuning (shared by all lanes).
    pub breaker: BreakerConfig,
    /// Health-score tuning (shared by all lanes).
    pub health: HealthConfig,
    /// The chaos scenario.
    pub chaos: ChaosConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            lanes: 4,
            design: Design::D2,
            hardening: Hardening::None,
            tile_pairs: 16,
            max_replays: 2,
            max_redispatch: 2,
            interarrival_cycles: 8,
            dwc: true,
            event_cap: None,
            admission: AdmissionConfig::default(),
            cost_alpha: 0.3,
            breaker: BreakerConfig::default(),
            health: HealthConfig::default(),
            chaos: ChaosConfig::default(),
        }
    }
}

/// The multi-lane scheduler, generic over the simulation backend its
/// lanes run on (defaults to the event-driven [`Simulator`]).
#[derive(Debug)]
pub struct Pool<E: Engine = Simulator> {
    cfg: PoolConfig,
    lanes: Vec<Lane<E>>,
}

impl<E: Engine> Pool<E> {
    /// Builds every lane (executor + chaos injector) for the config,
    /// on the backend named by `E`. Callers selecting the backend at
    /// runtime go through
    /// [`dwt_rtl::engine::Backend::dispatch`](dwt_rtl::engine::Backend).
    ///
    /// # Errors
    ///
    /// [`Error::NoLanes`] for an empty pool, [`Error::InvalidConfig`]
    /// for a malformed chaos scenario or tile size, and lane
    /// construction failures.
    pub fn new(cfg: PoolConfig) -> Result<Self> {
        if cfg.lanes == 0 {
            return Err(Error::NoLanes);
        }
        if cfg.tile_pairs == 0 {
            return Err(Error::InvalidConfig("tile_pairs must be >= 1".into()));
        }
        if !cfg.cost_alpha.is_finite() || !(0.0..=1.0).contains(&cfg.cost_alpha) {
            return Err(Error::InvalidConfig(format!(
                "cost_alpha {} must lie in [0, 1]",
                cfg.cost_alpha
            )));
        }
        cfg.chaos.validate(cfg.lanes)?;
        let exec_cfg = ExecutorConfig {
            tile_pairs: cfg.tile_pairs,
            max_replays: cfg.max_replays,
            hardening: cfg.hardening,
            dwc: cfg.dwc,
            watchdog: WatchdogConfig { event_cap: cfg.event_cap, tile_cycle_budget: None },
        };
        // Every lane is a clone of one power-on executor, and every
        // injector shares one set of chaos sites, so the pool builds
        // each netlist, engine image and site list once.
        let exec = TileExecutor::<E>::new(cfg.design, exec_cfg)?;
        let sites = ChaosSites::new(exec.primary_netlist(), exec.spare_netlist()?);
        let nominal = exec.nominal_window(cfg.tile_pairs);
        let mut lanes = Vec::with_capacity(cfg.lanes);
        for id in 0..cfg.lanes {
            let injector = cfg.chaos.injector_for(id, &sites)?;
            let slow_factor = cfg.chaos.slow_factor(id);
            lanes.push(Lane {
                id,
                exec: exec.clone(),
                injector,
                health: HealthScore::new(cfg.health),
                breaker: CircuitBreaker::new(cfg.breaker),
                cost: CostModel::new((nominal as f64 * slow_factor).ceil() as u64, cfg.cost_alpha),
                free_at: 0,
                slow_factor,
                stats: LaneStats::default(),
            });
        }
        Ok(Pool { cfg, lanes })
    }

    /// The pool's configuration.
    #[must_use]
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Read access to the lanes (state inspection in tests/benches).
    #[must_use]
    pub fn lanes(&self) -> &[Lane<E>] {
        &self.lanes
    }

    /// Picks the best untried lane for a tile that arrived at
    /// `arrival`, at time `now`, by the shared dispatch rule
    /// ([`AdmissionConfig::pick`]) among the lanes whose breaker admits
    /// the tile at the time it would start there.
    fn pick_lane(&self, now: u64, arrival: u64, tried: &[bool]) -> Option<usize> {
        let candidates = self
            .lanes
            .iter()
            .filter(|lane| !tried[lane.id] && lane.breaker.admits(now.max(lane.free_at)))
            .map(|lane| {
                let wait = lane.free_at.saturating_sub(now);
                (lane.id, lane.health.score(), lane.cost.estimate(), wait)
            });
        self.cfg.admission.pick(arrival, now, candidates)
    }

    /// Schedules a whole pair stream across the pool.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyWorkload`] for an empty stream; harness failures
    /// otherwise. Lane failures, breaker trips and shed tiles are
    /// *results*, reported in the [`PoolReport`], not errors.
    pub fn run(&mut self, pairs: &[(i64, i64)]) -> Result<PoolReport> {
        if pairs.is_empty() {
            return Err(Error::EmptyWorkload);
        }
        let tiles: Vec<&[(i64, i64)]> = pairs.chunks(self.cfg.tile_pairs).collect();
        let mut committed: Vec<Option<(Vec<i64>, Vec<i64>)>> = vec![None; tiles.len()];
        let mut records = Vec::with_capacity(tiles.len());
        let mut makespan = 0u64;

        for (index, tile) in tiles.iter().enumerate() {
            let arrival = index as u64 * self.cfg.interarrival_cycles;
            let nominal = self.lanes[0].exec.nominal_window(tile.len());

            let mut now = arrival;
            let mut attempts = 0u32;
            let mut burnt = 0u64;
            let mut detections = 0usize;
            let mut replays = 0u32;
            let mut served: Option<(ServedBy, Vec<i64>, Vec<i64>, bool)> = None;
            let mut tried = vec![false; self.lanes.len()];

            while attempts <= self.cfg.max_redispatch {
                let Some(id) = self.pick_lane(now, arrival, &tried) else {
                    break;
                };
                tried[id] = true;
                attempts += 1;
                let lane = &mut self.lanes[id];
                let start = now.max(lane.free_at);
                if lane.breaker.on_dispatch(start) {
                    lane.power_cycle()?;
                }
                let (outcome, low, high) = lane.attempt(tile)?;
                let effective = lane.effective_cycles(&outcome);
                let completion = start + effective;
                lane.free_at = completion;
                lane.cost.observe(effective);
                now = completion;
                makespan = makespan.max(completion);
                detections += outcome.detections.len();
                replays += outcome.replays;

                let status = outcome.status();
                lane.health.observe(sample_for(status));
                let hw = status.hardware_served();
                lane.breaker.record(hw, completion);
                if hw {
                    lane.stats.served += 1;
                    let by = ServedBy::Lane { lane: id, rung: outcome.rung };
                    served = Some((by, low, high, outcome.bit_exact));
                    burnt += outcome.recovery_cycles;
                    break;
                }
                // The lane's whole ladder failed (or let corruption
                // through): the entire attempt was wasted. Discard its
                // output and redistribute.
                lane.stats.failed += 1;
                burnt += effective;
            }

            // A lane's executor audited its output against the golden
            // reference; only a shed tile needs the reference here.
            let (served, low, high, bit_exact) = match served {
                Some(served) => served,
                None => {
                    let reason = if attempts == 0 {
                        ShedReason::NoAdmissibleLane
                    } else {
                        ShedReason::RetriesExhausted
                    };
                    // The software path serves off the critical
                    // hardware path: commit at `now` with no further
                    // cycle cost, but the window still counts as
                    // hardware downtime in availability().
                    let (l, h) = golden_tile(tile);
                    (ServedBy::Shed { reason }, l, h, true)
                }
            };
            makespan = makespan.max(now);

            let slot = &mut committed[index];
            if slot.is_some() {
                return Err(Error::DoubleCommit { tile: index });
            }
            *slot = Some((low, high));

            let latency = now - arrival;
            records.push(PoolTileRecord {
                index,
                pairs: tile.len(),
                arrival,
                completion: now,
                latency,
                served,
                attempts,
                nominal_cycles: nominal,
                burnt_cycles: burnt,
                detections,
                replays,
                deadline_missed: self.cfg.admission.deadline_cycles.is_some_and(|d| latency > d),
                bit_exact,
            });
        }

        let mut low = Vec::with_capacity(pairs.len());
        let mut high = Vec::with_capacity(pairs.len());
        for (tile, slot) in committed.into_iter().enumerate() {
            let Some((l, h)) = slot else {
                return Err(Error::MissingTile { tile });
            };
            low.extend(l);
            high.extend(h);
        }

        let lane_summaries = self
            .lanes
            .iter()
            .map(|l| LaneSummary {
                id: l.id,
                health: l.health.score(),
                breaker_state: l.breaker.state(),
                breaker_transitions: l.breaker.transitions().to_vec(),
                stats: l.stats,
                stuck: l.injector.stuck_active(),
                slow_factor: l.slow_factor,
            })
            .collect();

        Ok(PoolReport {
            design: self.cfg.design,
            lanes: self.lanes.len(),
            interarrival: self.cfg.interarrival_cycles,
            tiles: records,
            low,
            high,
            lane_summaries,
            makespan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{BurstConfig, StuckLaneSpec};
    use dwt_arch::golden::still_tone_pairs;

    /// The tiled golden reference the pool must match bit for bit.
    fn tiled_reference(pairs: &[(i64, i64)], tile_pairs: usize) -> (Vec<i64>, Vec<i64>) {
        let mut low = Vec::new();
        let mut high = Vec::new();
        for tile in pairs.chunks(tile_pairs) {
            let (l, h) = golden_tile(tile);
            low.extend(l);
            high.extend(h);
        }
        (low, high)
    }

    fn quiet_cfg() -> PoolConfig {
        PoolConfig { lanes: 3, tile_pairs: 8, ..PoolConfig::default() }
    }

    #[test]
    fn lanes_share_one_primary_and_one_spare_netlist() {
        let pool = Pool::<dwt_rtl::compile::CompiledEngine>::new(PoolConfig {
            design: Design::D5,
            ..PoolConfig::default()
        })
        .unwrap();
        let first = &pool.lanes[0].exec;
        for lane in &pool.lanes[1..] {
            assert!(std::sync::Arc::ptr_eq(lane.exec.primary_netlist(), first.primary_netlist()));
            assert!(std::sync::Arc::ptr_eq(
                lane.exec.spare_netlist().unwrap(),
                first.spare_netlist().unwrap()
            ));
        }
    }

    #[test]
    fn fault_free_pool_matches_tiled_golden() {
        let pairs = still_tone_pairs(40, 5);
        let mut pool = Pool::<Simulator>::new(quiet_cfg()).unwrap();
        let report = pool.run(&pairs).unwrap();
        let (exp_low, exp_high) = tiled_reference(&pairs, 8);
        assert_eq!(report.low, exp_low);
        assert_eq!(report.high, exp_high);
        assert_eq!(report.tiles.len(), 5);
        assert_eq!(report.sdc_escapes(), 0);
        assert_eq!(report.shed_tiles(), 0);
        assert!((report.availability() - 1.0).abs() < 1e-12);
        assert_eq!(report.breaker_transitions(), 0);
    }

    #[test]
    fn load_spreads_across_lanes() {
        let pairs = still_tone_pairs(64, 9);
        let mut pool = Pool::<Simulator>::new(quiet_cfg()).unwrap();
        let report = pool.run(&pairs).unwrap();
        let busy = report.lane_summaries.iter().filter(|l| l.stats.served > 0).count();
        assert!(busy >= 2, "a backlogged pool must use more than one lane: {busy}");
    }

    #[test]
    fn stuck_lane_redistributes_and_trips_its_breaker() {
        let pairs = still_tone_pairs(64, 7);
        let cfg = PoolConfig {
            chaos: ChaosConfig {
                stuck_lanes: vec![StuckLaneSpec { lane: 0, from_cycle: 0 }],
                ..ChaosConfig::default()
            },
            ..quiet_cfg()
        };
        let mut pool = Pool::<Simulator>::new(cfg).unwrap();
        let report = pool.run(&pairs).unwrap();
        let (exp_low, exp_high) = tiled_reference(&pairs, 8);
        assert_eq!(report.low, exp_low, "redistribution preserves output ordering");
        assert_eq!(report.high, exp_high);
        assert_eq!(report.sdc_escapes(), 0);

        let lane0 = &report.lane_summaries[0];
        assert!(lane0.stuck, "chaos marked lane 0 bad");
        assert!(lane0.stats.failed > 0);
        assert_eq!(lane0.stats.served, 0, "a fully stuck lane serves nothing");
        assert!(!lane0.breaker_transitions.is_empty(), "the breaker must trip");
        assert!(lane0.health < 0.5, "health collapses: {}", lane0.health);
        // The healthy lanes picked up the work.
        assert!(report.lane_summaries[1..].iter().any(|l| l.stats.served > 0));
        assert!(report.availability() < 1.0);
    }

    #[test]
    fn impossible_deadline_sheds_instead_of_queueing() {
        let pairs = still_tone_pairs(32, 3);
        let cfg = PoolConfig {
            lanes: 2,
            tile_pairs: 8,
            // The fault-free window alone exceeds this budget, so no
            // lane can ever be admitted.
            admission: AdmissionConfig { deadline_cycles: Some(4) },
            ..PoolConfig::default()
        };
        let mut pool = Pool::<Simulator>::new(cfg).unwrap();
        let report = pool.run(&pairs).unwrap();
        assert_eq!(report.shed_tiles(), report.tiles.len());
        assert!(report
            .tiles
            .iter()
            .all(|t| t.served == ServedBy::Shed { reason: ShedReason::NoAdmissibleLane }));
        // Shed tiles still commit correct data — no tile lost.
        let (exp_low, exp_high) = tiled_reference(&pairs, 8);
        assert_eq!(report.low, exp_low);
        assert_eq!(report.high, exp_high);
        assert_eq!(report.availability(), 0.0);
    }

    #[test]
    fn slow_lane_inflates_its_cost_estimate_and_latency() {
        let pairs = still_tone_pairs(48, 2);
        let slow = PoolConfig {
            lanes: 1,
            tile_pairs: 8,
            chaos: ChaosConfig {
                slow_lanes: vec![crate::chaos::SlowLaneSpec { lane: 0, factor: 3.0 }],
                ..ChaosConfig::default()
            },
            ..PoolConfig::default()
        };
        let baseline = PoolConfig { lanes: 1, tile_pairs: 8, ..PoolConfig::default() };
        let slow_report = Pool::<Simulator>::new(slow).unwrap().run(&pairs).unwrap();
        let base_report = Pool::<Simulator>::new(baseline).unwrap().run(&pairs).unwrap();
        assert!(
            slow_report.makespan > 2 * base_report.makespan,
            "3x cycle cost shows up in makespan: {} vs {}",
            slow_report.makespan,
            base_report.makespan
        );
        assert_eq!(slow_report.low, base_report.low, "slow, not wrong");
        assert_eq!(slow_report.sdc_escapes(), 0);
    }

    #[test]
    fn burst_chaos_is_survivable_and_bit_exact() {
        let pairs = still_tone_pairs(48, 13);
        let cfg = PoolConfig {
            chaos: ChaosConfig {
                seu_rate: 0.005,
                burst: Some(BurstConfig { period: 200, len: 50, factor: 10.0 }),
                seed: 21,
                ..ChaosConfig::default()
            },
            ..quiet_cfg()
        };
        let mut pool = Pool::<Simulator>::new(cfg).unwrap();
        let report = pool.run(&pairs).unwrap();
        let (exp_low, exp_high) = tiled_reference(&pairs, 8);
        assert_eq!(report.low, exp_low);
        assert_eq!(report.high, exp_high);
        assert_eq!(report.sdc_escapes(), 0, "DWC stops every burst escape");
    }

    #[test]
    fn runs_are_deterministic() {
        let pairs = still_tone_pairs(40, 17);
        let cfg = PoolConfig {
            chaos: ChaosConfig {
                seu_rate: 0.01,
                stuck_fraction: 0.3,
                common_mode: 0.5,
                stuck_lanes: vec![StuckLaneSpec { lane: 1, from_cycle: 100 }],
                seed: 42,
                ..ChaosConfig::default()
            },
            ..quiet_cfg()
        };
        let a = Pool::<Simulator>::new(cfg.clone()).unwrap().run(&pairs).unwrap();
        let b = Pool::<Simulator>::new(cfg).unwrap().run(&pairs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_lanes_and_empty_workloads_are_errors() {
        assert_eq!(
            Pool::<Simulator>::new(PoolConfig { lanes: 0, ..PoolConfig::default() }).unwrap_err(),
            Error::NoLanes
        );
        let mut pool = Pool::<Simulator>::new(PoolConfig::default()).unwrap();
        assert_eq!(pool.run(&[]).unwrap_err(), Error::EmptyWorkload);
    }
}
