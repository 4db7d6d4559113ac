//! Deadline admission control, the dispatch rule, and per-lane cost
//! estimation.
//!
//! Under overload, finishing *some* tiles on time beats finishing every
//! tile late. Each tile carries an optional deadline (a cycle budget
//! from its arrival); at dispatch the scheduler estimates when each
//! candidate lane would complete the tile — queue wait (the lane's
//! `free_at` clock) plus the lane's observed per-tile cost — and a lane
//! that cannot meet the deadline is not a candidate. If *no* lane can,
//! the tile is shed to the software golden path immediately instead of
//! clogging a queue it would only leave late. Among the lanes that
//! can, [`AdmissionConfig::pick`] ranks by queue-discounted health; the
//! virtual-time pool and the wall-clock server both dispatch by it.
//!
//! The cost estimate is an EWMA of the lane's observed effective tile
//! cycles, seeded with the fault-free window, so recovery overhead and
//! chaos-inflated ("slow lane") costs feed back into admission within a
//! few tiles.

/// Admission tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionConfig {
    /// Cycle budget per tile, measured from its arrival. `None`
    /// disables deadline admission (tiles queue without bound).
    pub deadline_cycles: Option<u64>,
}

/// Why (or whether) a lane may take a tile under the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionVerdict {
    /// The estimated completion meets the deadline (or none is set).
    Admit,
    /// The estimated completion busts the deadline.
    DeadlineExceeded,
}

impl AdmissionConfig {
    /// Judges a candidate lane: the tile arrived at `arrival`, would
    /// start at `start` (arrival or the lane's `free_at`, whichever is
    /// later) and is estimated to cost `est_cycles` on this lane.
    #[must_use]
    pub fn judge(&self, arrival: u64, start: u64, est_cycles: u64) -> AdmissionVerdict {
        match self.deadline_cycles {
            None => AdmissionVerdict::Admit,
            Some(deadline) => {
                let est_completion = start.saturating_add(est_cycles);
                if est_completion.saturating_sub(arrival) <= deadline {
                    AdmissionVerdict::Admit
                } else {
                    AdmissionVerdict::DeadlineExceeded
                }
            }
        }
    }

    /// The dispatch rule the pool and the server share: picks, among
    /// `candidates` `(id, health, est, wait)` in id order, the one to
    /// hand a tile that arrived at `arrival`, at time `now`. A
    /// candidate would start the tile after `wait` and spend `est` on
    /// it (cycles in the pool, nanoseconds in the server); one whose
    /// estimated completion busts the deadline is skipped.
    ///
    /// The rest are ranked by **queue-discounted health**:
    /// `health / (1 + wait / est)`. Health dominates — a sick lane
    /// loses to a healthy one — but among equally healthy lanes the
    /// idlest wins, which is what spreads load. The discount also keeps
    /// the breaker honest: a lane whose health has sagged still gets
    /// retried once the healthy lanes queue up, accumulating the
    /// failure samples its breaker needs to trip and take it out
    /// properly (dispatch preference alone starves a lane of samples
    /// and leaves its breaker forever closed). Ties go to the first
    /// candidate, keeping dispatch deterministic. Callers filter out
    /// lanes their breakers refuse before this rule sees them.
    #[must_use]
    pub fn pick(
        &self,
        arrival: u64,
        now: u64,
        candidates: impl IntoIterator<Item = (usize, f64, u64, u64)>,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (id, health, est, wait) in candidates {
            if self.judge(arrival, now.saturating_add(wait), est) != AdmissionVerdict::Admit {
                continue;
            }
            let score = health / (1.0 + wait as f64 / est.max(1) as f64);
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((id, score));
            }
        }
        best.map(|(id, _)| id)
    }
}

/// EWMA estimator of one lane's effective cycles per tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    alpha: f64,
    est: f64,
}

impl CostModel {
    /// Seeds the estimate with the lane's fault-free tile window.
    #[must_use]
    pub fn new(initial_cycles: u64, alpha: f64) -> Self {
        CostModel { alpha, est: initial_cycles as f64 }
    }

    /// Folds in one observed effective tile cost.
    pub fn observe(&mut self, cycles: u64) {
        self.est = self.alpha * cycles as f64 + (1.0 - self.alpha) * self.est;
    }

    /// Current estimate, rounded up.
    #[must_use]
    pub fn estimate(&self) -> u64 {
        self.est.ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_deadline_admits_everything() {
        let adm = AdmissionConfig::default();
        assert_eq!(adm.judge(0, 1_000_000, u64::MAX), AdmissionVerdict::Admit);
    }

    #[test]
    fn queue_depth_pushes_a_tile_past_its_deadline() {
        let adm = AdmissionConfig { deadline_cycles: Some(100) };
        // Immediate start, cheap tile: fine.
        assert_eq!(adm.judge(0, 0, 80), AdmissionVerdict::Admit);
        // Same cost behind a deep queue: busted.
        assert_eq!(adm.judge(0, 50, 80), AdmissionVerdict::DeadlineExceeded);
        // Boundary: completion exactly at the deadline is on time.
        assert_eq!(adm.judge(0, 20, 80), AdmissionVerdict::Admit);
    }

    #[test]
    fn cost_model_tracks_inflation() {
        let mut m = CostModel::new(100, 0.5);
        assert_eq!(m.estimate(), 100);
        for _ in 0..10 {
            m.observe(300); // a slow lane's 3x cycle cost
        }
        assert!(m.estimate() > 290, "estimate converges on the observed cost");
    }

    #[test]
    fn pick_discounts_health_by_queue_wait_and_skips_late_lanes() {
        let open = AdmissionConfig::default();
        // Equal health: the idler lane wins; equal scores: the first.
        assert_eq!(open.pick(0, 0, [(0, 1.0, 100, 100), (1, 1.0, 100, 0)]), Some(1));
        assert_eq!(open.pick(0, 0, [(3, 0.5, 100, 0), (4, 0.5, 100, 0)]), Some(3));
        // A sick idle lane loses to a healthy one with a short queue.
        assert_eq!(open.pick(0, 0, [(0, 0.2, 100, 0), (1, 1.0, 100, 50)]), Some(1));
        // An estimate of zero counts as one.
        assert_eq!(open.pick(0, 0, [(0, 1.0, 0, 1), (1, 0.6, 1, 0)]), Some(1));
        assert_eq!(open.pick(0, 0, std::iter::empty()), None);
        // Under a deadline, a lane whose wait busts it is no candidate.
        let tight = AdmissionConfig { deadline_cycles: Some(100) };
        assert_eq!(tight.pick(0, 10, [(0, 1.0, 80, 20), (1, 0.1, 80, 0)]), Some(1));
        assert_eq!(tight.pick(0, 30, [(0, 1.0, 80, 0)]), None);
    }
}
