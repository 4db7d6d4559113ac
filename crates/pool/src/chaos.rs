//! Correlated lane-level chaos scenarios.
//!
//! The recovery runtime was exercised by *independent* Poisson upsets;
//! a fleet of lanes fails in more interesting ways. This module builds
//! per-lane [`FaultInjector`]s producing the three classic correlated
//! scenarios of a replicated serving stack:
//!
//! * **SEU bursts** — on top of a baseline Poisson rate, a second
//!   Poisson source is gated onto periodic burst windows (a solar-flare
//!   duty cycle). Every lane shares the same window schedule, so bursts
//!   are common-mode across the fleet; burst arrivals are purely
//!   transient showers.
//! * **Stuck lanes** — from a configured executed-cycle instant, a lane
//!   acquires stuck-at faults on both its primary *and* its TMR spare
//!   (all three replicas of a register, so voting cannot mask them).
//!   Every hardware rung of that lane fails from then on; only
//!   breaker-gated redistribution keeps the pool serving.
//! * **Slow lanes** — a per-lane cycle-cost multiplier (a thermally
//!   throttled or downclocked part). The lane still computes correctly
//!   but inflates queue depth, trips deadline admission, and drags the
//!   latency tail.
//!
//! Everything is seeded and keyed to executed-cycle clocks: a chaos
//! campaign replays bit for bit from its seed, no wall time anywhere.

use std::sync::Arc;

use dwt_recover::injector::{FaultInjector, Lane};
use dwt_recover::seu::{PoissonSeu, PoissonSeuBuilder, SeuSites};
use dwt_rtl::cell::CellKind;
use dwt_rtl::fault::FaultSpec;
use dwt_rtl::netlist::Netlist;

use crate::error::{Error, Result};

/// Periodic burst windows multiplying the SEU rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstConfig {
    /// Window period in executed cycles.
    pub period: u64,
    /// Burst length in executed cycles (`len <= period`; the first
    /// `len` cycles of every period are the burst).
    pub len: u64,
    /// Rate multiplier inside a burst window (`>= 1`); the extra
    /// arrivals, at `(factor - 1) x` the baseline rate, are transient
    /// bit-flips only.
    pub factor: f64,
}

/// A lane that goes permanently bad.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckLaneSpec {
    /// Which lane.
    pub lane: usize,
    /// Executed-cycle instant (on that lane's clock) the rot sets in.
    pub from_cycle: u64,
}

/// A lane with inflated cycle cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowLaneSpec {
    /// Which lane.
    pub lane: usize,
    /// Cycle-cost multiplier (`>= 1`).
    pub factor: f64,
}

/// A complete chaos scenario for a pool.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosConfig {
    /// Baseline mean SEU arrivals per executed cycle, per lane.
    pub seu_rate: f64,
    /// Fraction of baseline arrivals that are persistent stuck-at
    /// faults.
    pub stuck_fraction: f64,
    /// Probability a hard primary fault also afflicts the lane's spare.
    pub common_mode: f64,
    /// Optional burst windows on top of the baseline rate.
    pub burst: Option<BurstConfig>,
    /// Lanes that go permanently bad.
    pub stuck_lanes: Vec<StuckLaneSpec>,
    /// Lanes with inflated cycle cost.
    pub slow_lanes: Vec<SlowLaneSpec>,
    /// Seed; per-lane arrival streams are derived from it.
    pub seed: u64,
}

impl ChaosConfig {
    /// Validates the scenario against a pool of `lanes` lanes.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a malformed burst window, a slow
    /// factor below 1 or non-finite, or a lane index out of range.
    pub fn validate(&self, lanes: usize) -> Result<()> {
        if let Some(b) = &self.burst {
            if b.period == 0 || b.len == 0 || b.len > b.period {
                return Err(Error::InvalidConfig(format!(
                    "burst window {}/{} must satisfy 0 < len <= period",
                    b.len, b.period
                )));
            }
            if !b.factor.is_finite() || b.factor < 1.0 {
                return Err(Error::InvalidConfig(format!(
                    "burst factor {} must be finite and >= 1",
                    b.factor
                )));
            }
        }
        for s in &self.slow_lanes {
            if !s.factor.is_finite() || s.factor < 1.0 {
                return Err(Error::InvalidConfig(format!(
                    "slow-lane factor {} must be finite and >= 1",
                    s.factor
                )));
            }
            if s.lane >= lanes {
                return Err(Error::InvalidConfig(format!(
                    "slow lane {} out of range (pool has {lanes} lanes)",
                    s.lane
                )));
            }
        }
        for s in &self.stuck_lanes {
            if s.lane >= lanes {
                return Err(Error::InvalidConfig(format!(
                    "stuck lane {} out of range (pool has {lanes} lanes)",
                    s.lane
                )));
            }
        }
        Ok(())
    }

    /// Cycle-cost multiplier of one lane (1.0 unless configured slow).
    #[must_use]
    pub fn slow_factor(&self, lane: usize) -> f64 {
        self.slow_lanes.iter().find(|s| s.lane == lane).map_or(1.0, |s| s.factor)
    }

    /// Builds the injector for one lane over the sites of its two
    /// netlists, sharing them. Each lane's arrival stream is
    /// decorrelated from the others through a lane-indexed seed, while
    /// the burst *schedule* is shared — that is what makes bursts
    /// common-mode.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::Seu`] for invalid rate parameters (the lane
    /// netlists always have registers).
    pub fn injector_for(&self, lane: usize, sites: &ChaosSites) -> Result<ChaosInjector> {
        let lane_seed =
            self.seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(lane as u64 + 1));
        let base = if self.seu_rate > 0.0 {
            Some(
                PoissonSeuBuilder::new()
                    .rate(self.seu_rate)
                    .stuck_fraction(self.stuck_fraction)
                    .common_mode(self.common_mode)
                    .seed(lane_seed)
                    .build_on(&sites.seu)?,
            )
        } else {
            None
        };
        let burst = match &self.burst {
            Some(b) if self.seu_rate > 0.0 && b.factor > 1.0 => Some((
                PoissonSeuBuilder::new()
                    .rate(self.seu_rate * (b.factor - 1.0))
                    .seed(lane_seed ^ 0xb00b_5eed)
                    .build_on(&sites.seu)?,
                *b,
            )),
            _ => None,
        };
        let stuck_from = self.stuck_lanes.iter().find(|s| s.lane == lane).map(|s| s.from_cycle);
        Ok(ChaosInjector {
            base,
            burst,
            stuck_from,
            stuck_active: false,
            stuck_primary: sites.stuck_primary.clone(),
            stuck_spare: sites.stuck_spare.clone(),
        })
    }
}

/// What every lane's chaos draws from, for one primary and one spare
/// netlist: their register sites and the stuck-at faults that defeat
/// each. A pool or server builds it once and shares it across lanes.
#[derive(Debug, Clone)]
pub struct ChaosSites {
    seu: SeuSites,
    stuck_primary: Arc<[FaultSpec]>,
    stuck_spare: Arc<[FaultSpec]>,
}

impl ChaosSites {
    /// The sites of `primary` and `spare`.
    #[must_use]
    pub fn new(primary: &Netlist, spare: &Netlist) -> Self {
        ChaosSites {
            seu: SeuSites::new(primary, spare),
            stuck_primary: defeating_faults(primary).into(),
            stuck_spare: defeating_faults(spare).into(),
        }
    }
}

/// Register population of a netlist, by name and width.
fn register_sites(netlist: &Netlist) -> Vec<(String, usize)> {
    netlist
        .cells()
        .iter()
        .filter_map(|c| match &c.kind {
            CellKind::Register { q, .. } => Some((c.name.clone(), q.width())),
            _ => None,
        })
        .collect()
}

/// The base name of a TMR replica register, if it is one.
fn tmr_base(name: &str) -> Option<&str> {
    ["_tmr0", "_tmr1", "_tmr2"].iter().find_map(|suf| name.strip_suffix(suf))
}

/// Stuck-at faults that defeat a lane's datapath outright: the first
/// two register groups get their sign and LSB bits forced high. A
/// "group" is either a plain register or a complete TMR replica triple
/// — breaking all three replicas is what makes the fault unmaskable by
/// the voter.
fn defeating_faults(netlist: &Netlist) -> Vec<FaultSpec> {
    let regs = register_sites(netlist);
    let mut out = Vec::new();
    let mut planted: Vec<String> = Vec::new();
    let mut groups = 0;
    for (name, width) in &regs {
        if groups >= 2 {
            break;
        }
        if planted.iter().any(|p| p == name) {
            continue;
        }
        let members: Vec<(String, usize)> = match tmr_base(name) {
            Some(base) => regs.iter().filter(|(n, _)| tmr_base(n) == Some(base)).cloned().collect(),
            None => vec![(name.clone(), *width)],
        };
        for (n, w) in members {
            out.push(FaultSpec::StuckAt { net: n.clone(), bit: w - 1, value: true });
            if w > 1 {
                out.push(FaultSpec::StuckAt { net: n.clone(), bit: 0, value: true });
            }
            planted.push(n);
        }
        groups += 1;
    }
    out
}

/// The composed per-lane injector a [`ChaosConfig`] produces.
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    base: Option<PoissonSeu>,
    burst: Option<(PoissonSeu, BurstConfig)>,
    stuck_from: Option<u64>,
    stuck_active: bool,
    stuck_primary: Arc<[FaultSpec]>,
    stuck_spare: Arc<[FaultSpec]>,
}

impl ChaosInjector {
    /// Whether the lane's permanent breakage has set in.
    #[must_use]
    pub fn stuck_active(&self) -> bool {
        self.stuck_active
    }

    /// Baseline + burst arrivals generated so far.
    #[must_use]
    pub fn strikes(&self) -> u64 {
        self.base.as_ref().map_or(0, PoissonSeu::strikes)
            + self.burst.as_ref().map_or(0, |(s, _)| s.strikes())
    }
}

impl FaultInjector for ChaosInjector {
    fn arrivals(&mut self, executed_cycle: u64, lane: Lane) -> Vec<FaultSpec> {
        let mut due = Vec::new();
        if let Some(base) = &mut self.base {
            due.extend(base.arrivals(executed_cycle, lane));
        }
        if let Some((seu, w)) = &mut self.burst {
            // The burst source is always advanced (its arrival clock
            // must track executed cycles) but only delivers inside a
            // window — thinning the process onto the burst duty cycle.
            let showers = seu.arrivals(executed_cycle, lane);
            if executed_cycle % w.period < w.len {
                due.extend(showers);
            }
        }
        if let Some(from) = self.stuck_from {
            if executed_cycle >= from && !self.stuck_active {
                self.stuck_active = true;
                // Deliver immediately on the queried lane; persistent()
                // re-asserts on both lanes from now on.
                due.extend(
                    match lane {
                        Lane::Primary => &self.stuck_primary,
                        Lane::Tmr => &self.stuck_spare,
                    }
                    .iter()
                    .cloned(),
                );
            }
        }
        due
    }

    fn persistent(&mut self, lane: Lane) -> Vec<FaultSpec> {
        let mut out = match &mut self.base {
            Some(base) => base.persistent(lane),
            None => Vec::new(),
        };
        // The burst source is transient-only, so it contributes nothing
        // persistent. The stuck-lane faults outlive every rollback.
        if self.stuck_active {
            out.extend(
                match lane {
                    Lane::Primary => &self.stuck_primary,
                    Lane::Tmr => &self.stuck_spare,
                }
                .iter()
                .cloned(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwt_arch::datapath::Hardening;
    use dwt_arch::designs::Design;

    fn nets() -> (Netlist, Netlist) {
        let primary = Design::D2.build().unwrap().netlist;
        let spare = Design::D2.build_hardened(Hardening::Tmr).unwrap().netlist;
        (primary, spare)
    }

    #[test]
    fn validate_rejects_malformed_scenarios() {
        let ok = ChaosConfig::default();
        assert!(ok.validate(2).is_ok());

        let bad_burst = ChaosConfig {
            burst: Some(BurstConfig { period: 10, len: 20, factor: 4.0 }),
            ..ChaosConfig::default()
        };
        assert!(matches!(bad_burst.validate(2), Err(Error::InvalidConfig(_))));

        let bad_factor = ChaosConfig {
            burst: Some(BurstConfig { period: 100, len: 10, factor: 0.5 }),
            ..ChaosConfig::default()
        };
        assert!(matches!(bad_factor.validate(2), Err(Error::InvalidConfig(_))));

        let bad_slow = ChaosConfig {
            slow_lanes: vec![SlowLaneSpec { lane: 0, factor: 0.9 }],
            ..ChaosConfig::default()
        };
        assert!(matches!(bad_slow.validate(2), Err(Error::InvalidConfig(_))));

        let out_of_range = ChaosConfig {
            stuck_lanes: vec![StuckLaneSpec { lane: 5, from_cycle: 0 }],
            ..ChaosConfig::default()
        };
        assert!(matches!(out_of_range.validate(2), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn burst_arrivals_land_only_inside_windows() {
        let (p, s) = nets();
        let cfg = ChaosConfig {
            seu_rate: 0.05,
            burst: Some(BurstConfig { period: 100, len: 20, factor: 20.0 }),
            seed: 3,
            ..ChaosConfig::default()
        };
        let mut with_burst = cfg.injector_for(0, &ChaosSites::new(&p, &s)).unwrap();
        let mut base_only = ChaosConfig { burst: None, ..cfg.clone() }
            .injector_for(0, &ChaosSites::new(&p, &s))
            .unwrap();
        let (mut in_window, mut out_window, mut base_total) = (0usize, 0usize, 0usize);
        for c in 0..5_000u64 {
            let n = with_burst.arrivals(c, Lane::Primary).len();
            if c % 100 < 20 {
                in_window += n;
            } else {
                out_window += n;
            }
            base_total += base_only.arrivals(c, Lane::Primary).len();
        }
        // The 19x extra arrivals are confined to the 20% duty cycle, so
        // window cycles must be far denser than the baseline-only run.
        assert!(in_window > base_total, "{in_window} vs base {base_total}");
        assert!(
            in_window > 5 * out_window,
            "bursts concentrate in windows: {in_window} in vs {out_window} out"
        );
    }

    #[test]
    fn lanes_on_shared_sites_draw_what_fresh_sites_draw() {
        let (p, s) = nets();
        let cfg = ChaosConfig {
            seu_rate: 0.05,
            stuck_fraction: 0.3,
            common_mode: 0.5,
            burst: Some(BurstConfig { period: 100, len: 20, factor: 4.0 }),
            stuck_lanes: vec![StuckLaneSpec { lane: 2, from_cycle: 300 }],
            seed: 9,
            ..ChaosConfig::default()
        };
        let sites = ChaosSites::new(&p, &s);
        for lane in 0..3 {
            let mut own = cfg.injector_for(lane, &ChaosSites::new(&p, &s)).unwrap();
            let mut shared = cfg.injector_for(lane, &sites).unwrap();
            assert!(Arc::ptr_eq(&shared.stuck_spare, &sites.stuck_spare));
            for c in 0..1_000u64 {
                let on = if c % 3 == 0 { Lane::Tmr } else { Lane::Primary };
                assert_eq!(own.arrivals(c, on), shared.arrivals(c, on), "lane {lane} cycle {c}");
            }
            for on in [Lane::Primary, Lane::Tmr] {
                assert_eq!(own.persistent(on), shared.persistent(on), "lane {lane}");
            }
        }
    }

    #[test]
    fn stuck_lane_activates_once_and_persists() {
        let (p, s) = nets();
        let cfg = ChaosConfig {
            stuck_lanes: vec![StuckLaneSpec { lane: 1, from_cycle: 50 }],
            ..ChaosConfig::default()
        };
        let mut inj = cfg.injector_for(1, &ChaosSites::new(&p, &s)).unwrap();
        assert!(inj.arrivals(0, Lane::Primary).is_empty());
        assert!(inj.persistent(Lane::Primary).is_empty());
        assert!(!inj.stuck_active());

        let due = inj.arrivals(50, Lane::Primary);
        assert!(!due.is_empty(), "breakage delivered at activation");
        assert!(inj.stuck_active());
        assert!(inj.arrivals(51, Lane::Primary).is_empty(), "delivered once");
        assert!(!inj.persistent(Lane::Primary).is_empty());
        assert!(!inj.persistent(Lane::Tmr).is_empty(), "the spare is broken too");

        // An unaffected lane of the same scenario stays clean.
        let mut other = cfg.injector_for(0, &ChaosSites::new(&p, &s)).unwrap();
        assert!(other.arrivals(50, Lane::Primary).is_empty());
        assert!(other.persistent(Lane::Tmr).is_empty());
    }

    #[test]
    fn spare_breakage_covers_whole_tmr_triples() {
        let (_, s) = nets();
        let faults = defeating_faults(&s);
        let nets_hit: Vec<&str> = faults
            .iter()
            .map(|f| match f {
                FaultSpec::StuckAt { net, .. } => net.as_str(),
                _ => unreachable!("defeating faults are stuck-ats"),
            })
            .collect();
        for suf in ["_tmr0", "_tmr1", "_tmr2"] {
            assert!(
                nets_hit.iter().any(|n| n.ends_with(suf)),
                "replica {suf} must be broken: {nets_hit:?}"
            );
        }
    }

    #[test]
    fn scenarios_replay_from_their_seed() {
        let (p, s) = nets();
        let cfg = ChaosConfig {
            seu_rate: 0.02,
            stuck_fraction: 0.2,
            common_mode: 0.5,
            burst: Some(BurstConfig { period: 64, len: 16, factor: 8.0 }),
            seed: 11,
            ..ChaosConfig::default()
        };
        let drain = |cfg: &ChaosConfig| {
            let mut inj = cfg.injector_for(2, &ChaosSites::new(&p, &s)).unwrap();
            let mut all = Vec::new();
            for c in 0..2_000 {
                all.extend(inj.arrivals(c, Lane::Primary));
            }
            (all, inj.strikes())
        };
        assert_eq!(drain(&cfg), drain(&cfg));
        let reseeded = ChaosConfig { seed: 12, ..cfg.clone() };
        assert_ne!(drain(&cfg).0, drain(&reseeded).0);
    }
}
