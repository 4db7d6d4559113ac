//! The fault-arrival interface between campaigns and the executor.
//!
//! The executor asks its injector for faults once per executed cycle,
//! keyed by a **monotone executed-cycle counter** that keeps advancing
//! through rollbacks and re-dispatches. That monotonicity encodes the
//! physics of transient upsets: a particle strike happens at a wall-
//! clock instant, so a replay of the same tile does *not* replay the
//! strike — which is exactly why rollback-and-replay recovers from
//! SEUs. Persistent ("hard") faults are the opposite: they live in a
//! specific physical lane and must be re-asserted after every rollback,
//! which the executor does by calling [`FaultInjector::persistent`] at
//! the start of each recovery attempt.

use dwt_rtl::fault::FaultSpec;

/// The physical datapath a fault strikes: the primary design instance
/// or the TMR-hardened spare the ladder re-dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The primary (possibly unhardened) datapath instance.
    Primary,
    /// The TMR-protected spare used by the re-dispatch rung.
    Tmr,
}

/// Source of fault arrivals for a [`crate::executor::TileExecutor`].
pub trait FaultInjector {
    /// Faults striking the given lane at this executed cycle, to be
    /// injected before the next tick. Transient specs
    /// ([`FaultSpec::BitFlip`] / [`FaultSpec::RamUpset`]) are rebased
    /// by the executor to strike immediately, so their `cycle` field
    /// may be left at any value.
    fn arrivals(&mut self, executed_cycle: u64, lane: Lane) -> Vec<FaultSpec>;

    /// Hard faults pinned to a lane, re-applied by the executor after
    /// every rollback (a restore reverts injected faults along with the
    /// rest of the machine state, but a broken wire stays broken).
    fn persistent(&mut self, lane: Lane) -> Vec<FaultSpec> {
        let _ = lane;
        Vec::new()
    }

    /// Whether this injector can never produce a fault, transient or
    /// persistent, on any lane. Only a quiet run may spread a tile over
    /// several engine lanes: a fault strikes every lane at once and
    /// would have to be attributed to one lane's segment, so every
    /// faulted run keeps the one-lane window. Defaults to `false`, the
    /// safe answer for any injector that might fire.
    fn quiet(&self) -> bool {
        false
    }
}

/// The null injector: a fault-free run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn arrivals(&mut self, _executed_cycle: u64, _lane: Lane) -> Vec<FaultSpec> {
        Vec::new()
    }

    fn quiet(&self) -> bool {
        true
    }
}

/// A scripted injector for tests: fire the given faults at exact
/// executed-cycle instants on the chosen lane, plus optional hard
/// faults per lane.
#[derive(Debug, Clone, Default)]
pub struct ScriptedFaults {
    /// `(executed_cycle, lane, fault)` triples, in any order.
    pub at: Vec<(u64, Lane, FaultSpec)>,
    /// Hard faults re-asserted on the primary lane after each rollback.
    pub hard_primary: Vec<FaultSpec>,
    /// Hard faults re-asserted on the TMR spare at re-dispatch.
    pub hard_tmr: Vec<FaultSpec>,
}

impl FaultInjector for ScriptedFaults {
    fn arrivals(&mut self, executed_cycle: u64, lane: Lane) -> Vec<FaultSpec> {
        let mut due = Vec::new();
        self.at.retain(|(cycle, l, fault)| {
            if *cycle == executed_cycle && *l == lane {
                due.push(fault.clone());
                false
            } else {
                true
            }
        });
        due
    }

    fn persistent(&mut self, lane: Lane) -> Vec<FaultSpec> {
        match lane {
            Lane::Primary => self.hard_primary.clone(),
            Lane::Tmr => self.hard_tmr.clone(),
        }
    }
}
