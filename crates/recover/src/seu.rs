//! Poisson-arrival single-event-upset model.
//!
//! Particle strikes on a real part arrive as a Poisson process: the
//! number of upsets in any window is proportional to exposure time and
//! independent of history. [`PoissonSeu`] reproduces that over the
//! executor's executed-cycle clock: inter-arrival gaps are drawn from
//! the exponential distribution with the configured mean rate, and
//! every arrival upsets one uniformly chosen register bit of whichever
//! lane is executing at that instant.
//!
//! A configurable fraction of arrivals can instead be **hard** faults —
//! persistent stuck-at levels on a register output, modelling latch-up
//! or wear-out rather than a transient flip. Hard faults survive
//! rollback (the injector re-asserts them through
//! [`FaultInjector::persistent`]), so they defeat the replay rung and
//! force the executor down the degradation ladder; an optional
//! common-mode probability lets a hard fault afflict the TMR spare too,
//! exercising the final golden-fallback rung.

use std::sync::Arc;

use dwt_rtl::cell::CellKind;
use dwt_rtl::fault::FaultSpec;
use dwt_rtl::netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::injector::{FaultInjector, Lane};

/// The upset sites of a primary and a spare netlist: every register of
/// each, by name and width. Collected once, they are shared by every
/// source built on them, so a pool's or server's lanes, striking the
/// same two netlists, do not each copy the register names.
#[derive(Debug, Clone)]
pub struct SeuSites {
    primary: Arc<[(String, usize)]>,
    spare: Arc<[(String, usize)]>,
}

impl SeuSites {
    /// The register sites of `primary` and `spare`.
    #[must_use]
    pub fn new(primary: &Netlist, spare: &Netlist) -> Self {
        SeuSites { primary: register_sites(primary).into(), spare: register_sites(spare).into() }
    }
}

/// Upset sites of one netlist: every register, by name and width.
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

/// A rejected [`PoissonSeuBuilder`] parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SeuConfigError {
    /// The arrival rate is NaN, infinite, or negative.
    InvalidRate(f64),
    /// A probability parameter is NaN or outside `[0, 1]`.
    InvalidFraction {
        /// Which parameter (`"stuck_fraction"` or `"common_mode"`).
        param: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A netlist exposes no registers — there is no upset cross-section
    /// to strike.
    NoRegisters {
        /// The lane whose netlist is register-free.
        lane: Lane,
    },
}

impl std::fmt::Display for SeuConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeuConfigError::InvalidRate(r) => {
                write!(f, "SEU rate must be finite and non-negative, got {r}")
            }
            SeuConfigError::InvalidFraction { param, value } => {
                write!(f, "{param} must lie in [0, 1], got {value}")
            }
            SeuConfigError::NoRegisters { lane } => {
                write!(f, "{lane:?} netlist has no registers to upset")
            }
        }
    }
}

impl std::error::Error for SeuConfigError {}

/// Validating builder for [`PoissonSeu`].
///
/// The positional [`PoissonSeu::new`] constructor panics on bad
/// parameters; campaign harnesses that take rates and fractions from
/// the command line want a typed error instead. Every parameter is
/// checked in [`PoissonSeuBuilder::build`], so an invalid combination
/// can never produce a half-configured injector.
///
/// ```
/// # use dwt_arch::{datapath::Hardening, designs::Design};
/// # use dwt_recover::seu::PoissonSeuBuilder;
/// let primary = Design::D2.build().unwrap().netlist;
/// let spare = Design::D2.build_hardened(Hardening::Tmr).unwrap().netlist;
/// let seu = PoissonSeuBuilder::new()
///     .rate(0.01)
///     .stuck_fraction(0.25)
///     .common_mode(0.5)
///     .seed(7)
///     .build(&primary, &spare)
///     .unwrap();
/// assert_eq!(seu.strikes(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonSeuBuilder {
    rate: f64,
    stuck_fraction: f64,
    common_mode: f64,
    seed: u64,
}

impl Default for PoissonSeuBuilder {
    fn default() -> Self {
        PoissonSeuBuilder { rate: 0.0, stuck_fraction: 0.0, common_mode: 0.0, seed: 0 }
    }
}

impl PoissonSeuBuilder {
    /// Starts from a silent source: rate 0, purely transient, seed 0.
    #[must_use]
    pub fn new() -> Self {
        PoissonSeuBuilder::default()
    }

    /// Mean arrivals per executed cycle.
    #[must_use]
    pub fn rate(mut self, rate_per_cycle: f64) -> Self {
        self.rate = rate_per_cycle;
        self
    }

    /// Fraction of arrivals that are persistent stuck-at faults.
    #[must_use]
    pub fn stuck_fraction(mut self, fraction: f64) -> Self {
        self.stuck_fraction = fraction;
        self
    }

    /// Probability that a hard primary fault also afflicts the spare.
    #[must_use]
    pub fn common_mode(mut self, probability: f64) -> Self {
        self.common_mode = probability;
        self
    }

    /// Seed for the arrival stream; equal seeds reproduce it bit for
    /// bit.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates every parameter and builds the injector over the two
    /// lanes' netlists.
    ///
    /// # Errors
    ///
    /// [`SeuConfigError::InvalidRate`] for a NaN/infinite/negative
    /// rate, [`SeuConfigError::InvalidFraction`] for a probability
    /// outside `[0, 1]` (NaN included), and
    /// [`SeuConfigError::NoRegisters`] for a netlist with no upset
    /// cross-section.
    pub fn build(self, primary: &Netlist, spare: &Netlist) -> Result<PoissonSeu, SeuConfigError> {
        self.build_on(&SeuSites::new(primary, spare))
    }

    /// Builds the source over sites already collected, sharing them.
    ///
    /// # Errors
    ///
    /// As [`build`](PoissonSeuBuilder::build).
    pub fn build_on(self, sites: &SeuSites) -> Result<PoissonSeu, SeuConfigError> {
        if !self.rate.is_finite() || self.rate < 0.0 {
            return Err(SeuConfigError::InvalidRate(self.rate));
        }
        for (param, value) in
            [("stuck_fraction", self.stuck_fraction), ("common_mode", self.common_mode)]
        {
            // NaN fails this containment check too.
            if !(0.0..=1.0).contains(&value) {
                return Err(SeuConfigError::InvalidFraction { param, value });
            }
        }
        if sites.primary.is_empty() {
            return Err(SeuConfigError::NoRegisters { lane: Lane::Primary });
        }
        if sites.spare.is_empty() {
            return Err(SeuConfigError::NoRegisters { lane: Lane::Tmr });
        }
        let (primary_sites, spare_sites) = (sites.primary.clone(), sites.spare.clone());
        let mut seu = PoissonSeu {
            rng: StdRng::seed_from_u64(self.seed),
            rate: self.rate,
            next_arrival: 0.0,
            stuck_fraction: self.stuck_fraction,
            common_mode: self.common_mode,
            primary_sites,
            spare_sites,
            hard_primary: Vec::new(),
            hard_spare: Vec::new(),
            strikes: 0,
        };
        seu.next_arrival = seu.gap();
        Ok(seu)
    }
}

/// Seeded Poisson SEU source over the executor's executed-cycle clock.
#[derive(Debug, Clone)]
pub struct PoissonSeu {
    rng: StdRng,
    /// Mean arrivals per executed cycle.
    rate: f64,
    /// Executed-cycle instant of the next strike.
    next_arrival: f64,
    /// Fraction of arrivals that are persistent stuck-at faults.
    stuck_fraction: f64,
    /// Probability that a hard primary fault also afflicts the spare.
    common_mode: f64,
    primary_sites: Arc<[(String, usize)]>,
    spare_sites: Arc<[(String, usize)]>,
    hard_primary: Vec<FaultSpec>,
    hard_spare: Vec<FaultSpec>,
    strikes: u64,
}

impl PoissonSeu {
    /// Creates a purely transient (bit-flip) SEU source striking the
    /// given primary and spare netlists at `rate_per_cycle` mean
    /// arrivals per executed cycle. Equal seeds reproduce the arrival
    /// stream bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if a netlist has no registers (no upset cross-section) or
    /// the rate is negative.
    #[must_use]
    pub fn new(primary: &Netlist, spare: &Netlist, rate_per_cycle: f64, seed: u64) -> Self {
        PoissonSeuBuilder::new()
            .rate(rate_per_cycle)
            .seed(seed)
            .build(primary, spare)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Makes `stuck_fraction` of arrivals persistent stuck-at faults,
    /// each of which with probability `common_mode` also plants a hard
    /// fault in the TMR spare (a common-cause failure reaching the
    /// golden-fallback rung).
    ///
    /// Prefer [`PoissonSeuBuilder`] when the parameters come from user
    /// input — it reports bad values as [`SeuConfigError`] instead.
    #[must_use]
    pub fn with_hard_faults(mut self, stuck_fraction: f64, common_mode: f64) -> Self {
        assert!((0.0..=1.0).contains(&stuck_fraction), "stuck fraction outside [0,1]");
        assert!((0.0..=1.0).contains(&common_mode), "common-mode outside [0,1]");
        self.stuck_fraction = stuck_fraction;
        self.common_mode = common_mode;
        self
    }

    /// Total arrivals generated so far (all lanes).
    #[must_use]
    pub fn strikes(&self) -> u64 {
        self.strikes
    }

    /// Exponential inter-arrival gap in cycles (infinite at rate 0).
    fn gap(&mut self) -> f64 {
        if self.rate <= 0.0 {
            return f64::INFINITY;
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        // Inverse CDF; (1 - u) avoids ln(0).
        -(1.0 - u).ln() / self.rate
    }

    /// One uniformly chosen transient register-bit flip on a lane.
    fn flip(&mut self, lane: Lane) -> FaultSpec {
        let sites = match lane {
            Lane::Primary => &self.primary_sites,
            Lane::Tmr => &self.spare_sites,
        };
        let (register, width) = sites[self.rng.gen_range(0..sites.len())].clone();
        let bit = self.rng.gen_range(0..width);
        // The executor rebases the cycle to "strike now".
        FaultSpec::BitFlip { register, bit, cycle: 0 }
    }

    /// One uniformly chosen persistent stuck-at on a lane's register
    /// output.
    fn stuck(&mut self, lane: Lane) -> FaultSpec {
        let sites = match lane {
            Lane::Primary => &self.primary_sites,
            Lane::Tmr => &self.spare_sites,
        };
        let (net, width) = sites[self.rng.gen_range(0..sites.len())].clone();
        let bit = self.rng.gen_range(0..width);
        let value = self.rng.gen_range(0..2u32) == 1;
        FaultSpec::StuckAt { net, bit, value }
    }
}

impl FaultInjector for PoissonSeu {
    fn arrivals(&mut self, executed_cycle: u64, lane: Lane) -> Vec<FaultSpec> {
        let mut due = Vec::new();
        while self.next_arrival <= executed_cycle as f64 {
            let g = self.gap();
            self.next_arrival += g;
            if !self.next_arrival.is_finite() {
                break;
            }
            self.strikes += 1;
            let hard: f64 = self.rng.gen_range(0.0..1.0);
            if hard < self.stuck_fraction {
                let f = self.stuck(lane);
                match lane {
                    Lane::Primary => self.hard_primary.push(f.clone()),
                    Lane::Tmr => self.hard_spare.push(f.clone()),
                }
                let cm: f64 = self.rng.gen_range(0.0..1.0);
                if lane == Lane::Primary && cm < self.common_mode {
                    let spare_fault = self.stuck(Lane::Tmr);
                    self.hard_spare.push(spare_fault);
                }
                due.push(f);
            } else {
                due.push(self.flip(lane));
            }
        }
        due
    }

    fn persistent(&mut self, lane: Lane) -> Vec<FaultSpec> {
        match lane {
            Lane::Primary => self.hard_primary.clone(),
            Lane::Tmr => self.hard_spare.clone(),
        }
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
    fn arrivals_are_deterministic_per_seed() {
        let (p, s) = nets();
        let run = |seed| {
            let mut seu = PoissonSeu::new(&p, &s, 0.05, seed);
            let mut all = Vec::new();
            for c in 0..400 {
                all.extend(seu.arrivals(c, Lane::Primary));
            }
            (all, seu.strikes())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).0, run(10).0);
    }

    #[test]
    fn rate_scales_strike_count() {
        let (p, s) = nets();
        let strikes = |rate| {
            let mut seu = PoissonSeu::new(&p, &s, rate, 1);
            for c in 0..2000 {
                seu.arrivals(c, Lane::Primary);
            }
            seu.strikes()
        };
        assert_eq!(strikes(0.0), 0);
        let low = strikes(0.01);
        let high = strikes(0.1);
        assert!(low > 0, "some strikes at the low rate");
        assert!(high > 2 * low, "10x rate gives far more strikes: {low} vs {high}");
    }

    #[test]
    fn builder_rejects_invalid_parameters() {
        let (p, s) = nets();
        let check = |b: PoissonSeuBuilder| b.build(&p, &s).err();
        assert_eq!(
            check(PoissonSeuBuilder::new().rate(-0.1)),
            Some(SeuConfigError::InvalidRate(-0.1))
        );
        assert!(matches!(
            check(PoissonSeuBuilder::new().rate(f64::NAN)),
            Some(SeuConfigError::InvalidRate(_))
        ));
        assert!(matches!(
            check(PoissonSeuBuilder::new().rate(f64::INFINITY)),
            Some(SeuConfigError::InvalidRate(_))
        ));
        assert_eq!(
            check(PoissonSeuBuilder::new().stuck_fraction(1.5)),
            Some(SeuConfigError::InvalidFraction { param: "stuck_fraction", value: 1.5 })
        );
        assert!(matches!(
            check(PoissonSeuBuilder::new().stuck_fraction(f64::NAN)),
            Some(SeuConfigError::InvalidFraction { param: "stuck_fraction", .. })
        ));
        assert_eq!(
            check(PoissonSeuBuilder::new().common_mode(-0.01)),
            Some(SeuConfigError::InvalidFraction { param: "common_mode", value: -0.01 })
        );
        assert!(check(PoissonSeuBuilder::new().rate(0.05).stuck_fraction(1.0).common_mode(1.0))
            .is_none());
    }

    #[test]
    fn builder_matches_positional_constructor() {
        let (p, s) = nets();
        let built = PoissonSeuBuilder::new()
            .rate(0.05)
            .stuck_fraction(0.5)
            .common_mode(0.25)
            .seed(9)
            .build(&p, &s)
            .unwrap();
        let legacy = PoissonSeu::new(&p, &s, 0.05, 9).with_hard_faults(0.5, 0.25);
        let drain = |mut seu: PoissonSeu| {
            let mut all = Vec::new();
            for c in 0..600 {
                all.extend(seu.arrivals(c, Lane::Primary));
            }
            (all, seu.persistent(Lane::Primary), seu.persistent(Lane::Tmr), seu.strikes())
        };
        assert_eq!(drain(built), drain(legacy));
    }

    #[test]
    fn common_mode_zero_never_touches_the_spare() {
        let (p, s) = nets();
        let mut seu =
            PoissonSeuBuilder::new().rate(0.05).stuck_fraction(1.0).seed(4).build(&p, &s).unwrap();
        for c in 0..600 {
            seu.arrivals(c, Lane::Primary);
        }
        assert!(!seu.persistent(Lane::Primary).is_empty());
        assert!(seu.persistent(Lane::Tmr).is_empty(), "common-mode 0 must leave the spare clean");
    }

    #[test]
    fn hard_fraction_accumulates_persistent_faults() {
        let (p, s) = nets();
        let mut seu = PoissonSeu::new(&p, &s, 0.05, 3).with_hard_faults(1.0, 1.0);
        for c in 0..400 {
            seu.arrivals(c, Lane::Primary);
        }
        assert!(seu.strikes() > 0);
        assert!(!seu.persistent(Lane::Primary).is_empty());
        assert!(!seu.persistent(Lane::Tmr).is_empty(), "common mode plants spare faults");
        assert!(seu
            .persistent(Lane::Primary)
            .iter()
            .all(|f| matches!(f, FaultSpec::StuckAt { .. })));
    }
}
