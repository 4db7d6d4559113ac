//! The clock abstraction shared by the virtual-time pool and the
//! wall-clock serving runtime.
//!
//! Every time-driven defence in this crate — circuit-breaker cooldowns
//! ([`crate::breaker`]), deadline admission ([`crate::admission`]) and
//! the cost models feeding it — takes "now" as a plain `u64` tick
//! count and never asks *what* a tick is. That makes the logic
//! time-unit agnostic: the deterministic [`Pool`](crate::Pool) feeds it
//! simulator cycles, while a wall-clock serving runtime (`dwt-serve`)
//! feeds it monotonic nanoseconds. [`Clock`] names that tick source so
//! code written against wall time can still be driven by a hand-cranked
//! [`VirtualClock`] in tests and replay bit-for-bit.
//!
//! Two implementations cover both worlds:
//!
//! * [`MonotonicClock`] — `std::time::Instant` elapsed nanoseconds from
//!   an origin fixed at construction. Monotone by construction, shared
//!   freely across threads.
//! * [`VirtualClock`] — an atomic counter advanced explicitly by the
//!   test (or by a deterministic scheduler). The same breaker
//!   trajectory that a chaos campaign produced under wall time can be
//!   reproduced exactly by replaying the outcome sequence against a
//!   virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotone source of `u64` ticks.
///
/// Implementations must be monotone (ticks never decrease) and safe to
/// share across threads; beyond that the unit is the caller's choice —
/// simulator cycles, nanoseconds, microseconds. Consumers such as
/// [`CircuitBreaker`](crate::breaker::CircuitBreaker) only compare and
/// add tick values, so any consistent unit works.
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// The current tick count. Must never decrease between calls.
    fn now(&self) -> u64;
}

/// Wall-clock ticks: monotonic nanoseconds since construction.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose tick 0 is "now".
    #[must_use]
    pub fn new() -> Self {
        MonotonicClock { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> u64 {
        // Saturates far beyond any realistic process lifetime (2^64 ns
        // ≈ 584 years).
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-cranked clock for deterministic tests: time advances only
/// when the test says so. Cloning shares the underlying counter, so a
/// clone handed to a component under test is advanced from outside.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    ticks: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock at tick 0.
    #[must_use]
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// A virtual clock starting at `ticks`.
    #[must_use]
    pub fn at(ticks: u64) -> Self {
        let c = VirtualClock::default();
        c.ticks.store(ticks, Ordering::SeqCst);
        c
    }

    /// Advances the clock by `delta` ticks, returning the new now.
    pub fn advance(&self, delta: u64) -> u64 {
        self.ticks.fetch_add(delta, Ordering::SeqCst) + delta
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> u64 {
        self.ticks.load(Ordering::SeqCst)
    }
}

/// A fixed point in a [`Clock`]'s tick stream, for bounded waits.
///
/// Liveness supervision (the partition runner's batch collection, the
/// process supervisor's worker heartbeats) needs "give up after N
/// ticks of real time" expressed against an injectable clock so tests
/// can crank a [`VirtualClock`] instead of sleeping. A `Deadline`
/// freezes `now + budget` at construction; [`expired`](Deadline::expired)
/// and [`remaining`](Deadline::remaining) then compare against the
/// same clock, so the deadline is exact under virtual time and
/// monotone under wall time.
#[derive(Clone)]
pub struct Deadline {
    clock: Arc<dyn Clock>,
    at: u64,
}

impl std::fmt::Debug for Deadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deadline")
            .field("at", &self.at)
            .field("now", &self.clock.now())
            .finish_non_exhaustive()
    }
}

impl Deadline {
    /// A deadline `budget` ticks after the clock's current now,
    /// saturating at the end of time.
    #[must_use]
    pub fn after(clock: Arc<dyn Clock>, budget: u64) -> Self {
        let at = clock.now().saturating_add(budget);
        Deadline { clock, at }
    }

    /// The absolute tick at which the deadline expires.
    #[must_use]
    pub fn at(&self) -> u64 {
        self.at
    }

    /// Whether the clock has reached (or passed) the deadline.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.clock.now() >= self.at
    }

    /// Ticks left before expiry; zero once expired.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.at.saturating_sub(self.clock.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let clock = MonotonicClock::new();
        let mut last = clock.now();
        for _ in 0..1000 {
            let now = clock.now();
            assert!(now >= last);
            last = now;
        }
    }

    #[test]
    fn virtual_clock_moves_only_when_told() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), 0);
        assert_eq!(clock.now(), 0, "idle reads do not advance it");
        assert_eq!(clock.advance(25), 25);
        assert_eq!(clock.now(), 25);
        let shared = clock.clone();
        shared.advance(5);
        assert_eq!(clock.now(), 30, "clones share the counter");
        assert_eq!(VirtualClock::at(100).now(), 100);
    }

    #[test]
    fn deadline_expires_exactly_under_virtual_time() {
        let clock = VirtualClock::at(40);
        let deadline = Deadline::after(Arc::new(clock.clone()), 60);
        assert_eq!(deadline.at(), 100);
        assert!(!deadline.expired());
        assert_eq!(deadline.remaining(), 60);
        clock.advance(59);
        assert!(!deadline.expired(), "one tick short is still live");
        assert_eq!(deadline.remaining(), 1);
        clock.advance(1);
        assert!(deadline.expired(), "expiry is inclusive at the boundary");
        assert_eq!(deadline.remaining(), 0);
        clock.advance(1000);
        assert!(deadline.expired());
        assert_eq!(deadline.remaining(), 0, "remaining saturates at zero");

        // A zero budget expires immediately; a huge one saturates
        // instead of wrapping.
        let now = VirtualClock::at(7);
        assert!(Deadline::after(Arc::new(now.clone()), 0).expired());
        let forever = Deadline::after(Arc::new(now), u64::MAX);
        assert!(!forever.expired());
        assert_eq!(forever.at(), u64::MAX);
    }

    #[test]
    fn trait_object_is_usable_across_threads() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::at(7));
        let reader = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || clock.now())
        };
        assert_eq!(reader.join().unwrap(), 7);
    }
}
