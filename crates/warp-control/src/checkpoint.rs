//! Dynamic checkpointing: on-line adaptation of the periodic state-saving
//! interval χ (Section 4 of the paper).
//!
//! Control system `<Ec, χ, χ₀, A, P>`: the sampled output is the cost
//! index `Ec` — state-saving cost plus coast-forward cost accumulated
//! since the previous invocation — and the transfer function `A` walks χ
//! to the interval minimizing `Ec` under the single-minimum assumption.
//!
//! Two transfer functions are provided:
//!
//! * [`AdaptRule::PaperRule`] — the rule as stated in the paper: *"if Ec
//!   is not observed to have increased significantly, the check-pointing
//!   period is incremented; otherwise, it is decremented."* Cheap and, as
//!   the paper reports, competitive with far costlier analytic models.
//! * [`AdaptRule::HillClimb`] — a directional variant (keep moving while
//!   `Ec` improves, reverse when it worsens) included as an ablation;
//!   DESIGN.md discusses the comparison, and a bench exercises both.

use warp_core::policy::CheckpointTuner;

/// Default control period (processed events between invocations).
pub const DEFAULT_PERIOD: u64 = 64;

/// The transfer function family for [`DynamicCheckpoint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptRule {
    /// Increment unless `Ec` increased significantly, else decrement.
    PaperRule,
    /// Persist in the current direction while `Ec` improves; reverse on a
    /// significant worsening. The step doubles while a direction keeps
    /// paying off (capped) and resets to 1 on reversal, so convergence
    /// from χ=1 to a double-digit optimum takes a handful of invocations
    /// instead of dozens.
    HillClimb,
}

/// On-line checkpoint-interval tuner.
#[derive(Clone, Debug)]
pub struct DynamicCheckpoint {
    chi: u32,
    min: u32,
    max: u32,
    rule: AdaptRule,
    period: u64,
    last_ec: Option<f64>,
    /// Current walk direction for [`AdaptRule::HillClimb`].
    dir: i32,
    /// Current step size for [`AdaptRule::HillClimb`].
    step: u32,
}

impl DynamicCheckpoint {
    /// Paper-rule tuner starting at `chi0`, with χ clamped to
    /// `[1, max_chi]`.
    pub fn new(chi0: u32, max_chi: u32, period: u64) -> Self {
        Self::with_rule(chi0, max_chi, period, AdaptRule::PaperRule)
    }

    /// Tuner with an explicit transfer function.
    pub fn with_rule(chi0: u32, max_chi: u32, period: u64, rule: AdaptRule) -> Self {
        assert!(chi0 >= 1, "initial interval must be >= 1");
        assert!(max_chi >= chi0, "max interval below initial interval");
        assert!(period >= 1, "control period must be >= 1");
        DynamicCheckpoint {
            chi: chi0,
            min: 1,
            max: max_chi,
            rule,
            period,
            last_ec: None,
            dir: 1,
            step: 1,
        }
    }

    /// Relative change in `Ec` treated as "significant". It must sit
    /// *below* the relative per-step change of `Ec` near the optimum, or
    /// the increment rule walks straight past the minimum; 1% is
    /// comfortably below the 2–4% per-step changes seen at realistic cost
    /// ratios while still filtering sampling noise.
    const EPSILON: f64 = 0.01;

    fn significant_increase(&self, ec: f64) -> bool {
        match self.last_ec {
            None => false,
            Some(prev) => {
                // Relative to the previous sample, guarding tiny baselines.
                let base = prev.abs().max(1e-12);
                (ec - prev) / base > Self::EPSILON
            }
        }
    }

    fn step_by(&mut self, up: bool, step: u32) {
        if up {
            self.chi = self.chi.saturating_add(step).min(self.max);
        } else {
            self.chi = self.chi.saturating_sub(step).max(self.min);
        }
    }
}

impl CheckpointTuner for DynamicCheckpoint {
    fn interval(&self) -> u32 {
        self.chi
    }

    fn invoke(&mut self, save_cost: f64, coast_cost: f64) -> Option<u32> {
        let ec = save_cost + coast_cost;
        match self.rule {
            AdaptRule::PaperRule => {
                let worse = self.significant_increase(ec);
                self.step_by(!worse, 1);
            }
            AdaptRule::HillClimb => {
                if self.significant_increase(ec) {
                    self.dir = -self.dir;
                    self.step = 1;
                } else {
                    self.step = (self.step * 2).min(8);
                }
                self.step_by(self.dir > 0, self.step);
            }
        }
        self.last_ec = Some(ec);
        Some(self.chi)
    }

    fn period(&self) -> u64 {
        self.period
    }

    fn name(&self) -> &'static str {
        match self.rule {
            AdaptRule::PaperRule => "dyn-ckpt",
            AdaptRule::HillClimb => "dyn-ckpt-hc",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic Ec landscape with a single minimum at `best`: save cost
    /// falls as 1/χ, coast cost grows linearly with χ.
    fn ec_at(chi: u32, save_unit: f64, coast_unit: f64) -> (f64, f64) {
        (save_unit / chi as f64, coast_unit * chi as f64)
    }

    fn converge(rule: AdaptRule, save_unit: f64, coast_unit: f64, rounds: usize) -> Vec<u32> {
        let mut t = DynamicCheckpoint::with_rule(1, 64, 32, rule);
        let mut trace = Vec::new();
        for _ in 0..rounds {
            let (s, c) = ec_at(t.interval(), save_unit, coast_unit);
            t.invoke(s, c);
            trace.push(t.interval());
        }
        trace
    }

    #[test]
    fn paper_rule_walks_away_from_expensive_saving() {
        // Minimum of save/χ + coast·χ at χ = sqrt(save/coast) = 8.
        let trace = converge(AdaptRule::PaperRule, 64.0, 1.0, 60);
        let settled = &trace[trace.len() - 16..];
        let avg: f64 = settled.iter().map(|&c| c as f64).sum::<f64>() / settled.len() as f64;
        assert!(
            (6.0..=12.0).contains(&avg),
            "expected to hover near the χ=8 optimum, got mean {avg} (trace {trace:?})"
        );
    }

    #[test]
    fn hill_climb_converges_too() {
        let trace = converge(AdaptRule::HillClimb, 64.0, 1.0, 60);
        let settled = &trace[trace.len() - 16..];
        let avg: f64 = settled.iter().map(|&c| c as f64).sum::<f64>() / settled.len() as f64;
        assert!((5.0..=12.0).contains(&avg), "mean {avg} (trace {trace:?})");
    }

    #[test]
    fn interval_respects_bounds() {
        let mut t = DynamicCheckpoint::new(1, 4, 8);
        // Ec constantly flat: the paper rule increments forever — bounded
        // by max.
        for _ in 0..20 {
            t.invoke(1.0, 1.0);
        }
        assert_eq!(t.interval(), 4);
        // Now make every sample a big increase: decrements to the floor.
        let mut worse = 10.0;
        for _ in 0..20 {
            worse *= 2.0;
            t.invoke(worse, 0.0);
        }
        assert_eq!(t.interval(), 1);
    }

    #[test]
    fn first_invocation_increments() {
        // No previous Ec: "not observed to have increased" — increment.
        let mut t = DynamicCheckpoint::new(3, 16, 8);
        t.invoke(5.0, 5.0);
        assert_eq!(t.interval(), 4);
    }

    #[test]
    fn small_fluctuations_are_insignificant() {
        let mut t = DynamicCheckpoint::new(4, 16, 8);
        t.invoke(100.0, 0.0);
        let chi_before = t.interval();
        // +0.5% — within the 1% threshold, still counts as "not increased".
        t.invoke(100.5, 0.0);
        assert_eq!(t.interval(), chi_before + 1);
    }

    #[test]
    #[should_panic]
    fn zero_initial_interval_rejected() {
        let _ = DynamicCheckpoint::new(0, 8, 8);
    }
}
