//! The SAAW window-adaptation law (Section 6 of the paper).
//!
//! Control system `<R(age), W, W₀, SAAW, everyAggregate>`: when an
//! aggregate physical message departs, a feedback index computed from its
//! achieved size `n` and age is compared against the previous aggregate's,
//! and the window for the *next* aggregate is adjusted. The paper leaves
//! `R(age)` underspecified ("the rate of reception of messages, modified
//! to reflect the age of the aggregate") beyond one property — at equal
//! raw rate, a younger aggregate should score better.
//!
//! **Deviation, and why** (see DESIGN.md): taken literally, any score
//! that is monotone-better for younger aggregates at equal rate drives
//! the window to its minimum on steady traffic (halving the window keeps
//! the rate and halves the age, so "shrink" always wins). To converge on
//! the performance-optimal window — which is what Figures 8–9 show SAAW
//! doing — the law needs an index with an interior optimum. We use the
//! estimated **per-event communication cost**
//!
//! ```text
//! score(n, age) = overhead / n  +  delay_penalty × age
//! ```
//!
//! (amortized per-message overhead vs. the expected cost of delaying
//! events), which for a steady arrival rate `r` is minimized at
//! `W* = sqrt(overhead / (r × delay_penalty))` — an interior optimum.
//! The transfer function is a direction-aware hill climb: keep moving the
//! window in the current direction while the score improves, reverse
//! when it worsens — the same cheap heuristic family the paper's dynamic
//! checkpointing uses.

/// Multiplicative step: grow by ×(1+STEP), shrink by ÷(1+STEP).
const STEP: f64 = 0.25;
/// Per-physical-message overhead being amortized (seconds).
const OVERHEAD: f64 = 1.0e-3;
/// Cost attributed to one second of event delay (dimensionless weight
/// applied to the age term).
const DELAY_PENALTY: f64 = 0.02;

/// Multiplicative hill-climbing SAAW controller.
#[derive(Clone, Debug)]
pub struct SaawLaw {
    window: f64,
    min: f64,
    max: f64,
    last_score: Option<f64>,
    /// Current walk direction: +1 grow, −1 shrink.
    dir: f64,
    adjustments: u64,
}

impl SaawLaw {
    /// SAAW starting from `initial_window` (modeled seconds), bounded to
    /// `[min, max]`.
    pub fn new(initial_window: f64, min: f64, max: f64) -> Self {
        assert!(
            min > 0.0 && min <= max,
            "window bounds inverted or non-positive"
        );
        assert!(initial_window.is_finite() && initial_window > 0.0);
        SaawLaw {
            window: initial_window.clamp(min, max),
            min,
            max,
            last_score: None,
            dir: 1.0,
            adjustments: 0,
        }
    }

    /// Current window size in modeled seconds.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// Window adjustments performed so far.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// The feedback index of an aggregate of `n` events that lived `age`
    /// seconds: estimated communication cost per aggregated event
    /// (smaller is better).
    pub fn score(&self, n: usize, age: f64) -> f64 {
        let n = n.max(1) as f64;
        OVERHEAD / n + DELAY_PENALTY * age.max(0.0)
    }

    /// Invoked as each aggregate is sent: feeds back its achieved
    /// `(n, age)` and returns the window for the next aggregate.
    pub fn on_aggregate_sent(&mut self, n: usize, age: f64) -> f64 {
        let score = self.score(n, age);
        if let Some(last) = self.last_score {
            if n <= 1 {
                // A singleton aggregate amortized nothing: the window is
                // below the traffic's bundling threshold, where the score
                // landscape only rewards shrinking further (less delay,
                // same overhead). Grow to seek actual aggregation; the
                // hill climb takes over once bundles form.
                self.dir = 1.0;
            } else if score > last {
                // The last move made things worse: reverse.
                self.dir = -self.dir;
            }
            let factor = if self.dir > 0.0 {
                1.0 + STEP
            } else {
                1.0 / (1.0 + STEP)
            };
            let next = (self.window * factor).clamp(self.min, self.max);
            if next != self.window {
                self.adjustments += 1;
            }
            self.window = next;
        }
        self.last_score = Some(score);
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the law against a synthetic steady stream of rate `r`
    /// events/second: an aggregate under window W collects n = r·W events
    /// at age ≈ W.
    fn drive_steady(law: &mut SaawLaw, r: f64, rounds: usize) -> f64 {
        for _ in 0..rounds {
            let w = law.window();
            let n = (r * w).max(1.0) as usize;
            law.on_aggregate_sent(n, w);
        }
        law.window()
    }

    #[test]
    fn converges_to_interior_optimum_from_below() {
        // r=300/s, overhead 1 ms, penalty 0.02 → W* = sqrt(1e-3/6) ≈ 12.9 ms.
        let mut law = SaawLaw::new(1e-3, 1e-5, 1.0);
        let w = drive_steady(&mut law, 300.0, 120);
        assert!(
            (5e-3..40e-3).contains(&w),
            "expected convergence near the ~13 ms optimum, got {w}"
        );
    }

    #[test]
    fn converges_to_interior_optimum_from_above() {
        let mut law = SaawLaw::new(300e-3, 1e-5, 1.0);
        let w = drive_steady(&mut law, 300.0, 120);
        assert!((5e-3..40e-3).contains(&w), "got {w}");
    }

    #[test]
    fn higher_rates_prefer_smaller_windows() {
        let mut slow = SaawLaw::new(10e-3, 1e-5, 1.0);
        let mut fast = SaawLaw::new(10e-3, 1e-5, 1.0);
        let ws = drive_steady(&mut slow, 50.0, 150);
        let wf = drive_steady(&mut fast, 5000.0, 150);
        assert!(
            wf < ws,
            "dense traffic amortizes with shorter delays: fast {wf} vs slow {ws}"
        );
    }

    #[test]
    fn score_prefers_amortization_and_punctuality() {
        let law = SaawLaw::new(1e-3, 1e-5, 1.0);
        // More events per message at the same age: better.
        assert!(law.score(10, 1e-3) < law.score(2, 1e-3));
        // Same size, younger: better.
        assert!(law.score(10, 1e-3) < law.score(10, 50e-3));
    }

    #[test]
    fn window_respects_bounds() {
        let mut law = SaawLaw::new(1e-3, 1e-4, 1e-2);
        for _ in 0..300 {
            // Pathological feedback: enormous aggregates at zero age push
            // the window up forever.
            law.on_aggregate_sent(100_000, 0.0);
        }
        assert!(law.window() <= 1e-2 + 1e-15);
        let mut law2 = SaawLaw::new(1e-3, 1e-4, 1e-2);
        for _ in 0..300 {
            // Singleton aggregates with huge age push it down forever.
            law2.on_aggregate_sent(1, 10.0);
        }
        assert!(law2.window() >= 1e-4 - 1e-15);
    }

    #[test]
    fn first_aggregate_only_primes_the_law() {
        let mut law = SaawLaw::new(5e-3, 1e-5, 1.0);
        let w = law.on_aggregate_sent(10, 1e-3);
        assert_eq!(w, 5e-3, "no previous score to compare against");
        assert_eq!(law.adjustments(), 0);
    }

    #[test]
    fn zero_age_and_zero_n_do_not_blow_up() {
        let mut law = SaawLaw::new(1e-3, 1e-5, 1.0);
        assert!(law.score(0, 0.0).is_finite());
        let w = law.on_aggregate_sent(0, 0.0);
        assert!(w.is_finite());
        let w = law.on_aggregate_sent(1, -1.0);
        assert!(w.is_finite());
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_rejected() {
        let _ = SaawLaw::new(1e-3, 1.0, 1e-5);
    }
}
