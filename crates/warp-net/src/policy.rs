//! Aggregation policies: when does a bucket of buffered events become a
//! physical message?
//!
//! * **Unaggregated** — every event is its own physical message (the
//!   baseline curve of Figures 8–9).
//! * **FAW** (Fixed Aggregation Window) — the aggregate is sent when the
//!   age of its *first* message reaches a constant window. One compare
//!   per event: the cheapest policy, but statically balanced.
//! * **SAAW** (Simple Adaptive Aggregation Window) — FAW whose window is
//!   retuned by the [`SaawLaw`] as each aggregate departs.

use serde::{Deserialize, Serialize};
use warp_control::SaawLaw;

/// Serializable aggregation configuration chosen per run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum AggregationConfig {
    /// No aggregation: flush every event immediately.
    #[default]
    Unaggregated,
    /// Fixed aggregation window, in seconds on the executive's clock
    /// (modeled on the virtual cluster, wall on the real executives).
    Faw {
        /// The constant window size.
        window: f64,
    },
    /// Simple adaptive aggregation window.
    Saaw {
        /// Initial window size (the only statically fixed input).
        initial_window: f64,
        /// Lower clamp for the adapted window.
        min_window: f64,
        /// Upper clamp for the adapted window.
        max_window: f64,
    },
}

impl AggregationConfig {
    /// SAAW with the default bounds used in the experiments: the window
    /// may adapt three decades around the initial value.
    pub fn saaw(initial_window: f64) -> Self {
        AggregationConfig::Saaw {
            initial_window,
            min_window: (initial_window * 1e-2).max(1e-6),
            max_window: initial_window * 1e2,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AggregationConfig::Unaggregated => "none",
            AggregationConfig::Faw { .. } => "FAW",
            AggregationConfig::Saaw { .. } => "SAAW",
        }
    }

    /// Check a configuration that arrived from outside the program (a
    /// job file) against what [`Aggregator::new`](crate::Aggregator::new)
    /// would otherwise assert.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |w: f64| w > 0.0 && w.is_finite();
        let ok = match *self {
            AggregationConfig::Unaggregated => true,
            AggregationConfig::Faw { window } => positive(window),
            AggregationConfig::Saaw {
                initial_window,
                min_window,
                max_window,
            } => positive(initial_window) && positive(min_window) && min_window <= max_window,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "aggregation windows must be positive, with min <= max: {self:?}"
            ))
        }
    }

    /// Instantiate the per-bucket window controller.
    pub(crate) fn build(&self) -> BucketPolicy {
        match *self {
            AggregationConfig::Unaggregated => BucketPolicy::Immediate,
            AggregationConfig::Faw { window } => {
                assert!(
                    window > 0.0 && window.is_finite(),
                    "FAW window must be positive"
                );
                BucketPolicy::Fixed(window)
            }
            AggregationConfig::Saaw {
                initial_window,
                min_window,
                max_window,
            } => BucketPolicy::Adaptive(SaawLaw::new(initial_window, min_window, max_window)),
        }
    }
}

/// Per-destination-bucket window state.
#[derive(Clone, Debug)]
pub(crate) enum BucketPolicy {
    /// Window 0: flush on every event.
    Immediate,
    /// FAW: constant window.
    Fixed(f64),
    /// SAAW: adapting window.
    Adaptive(SaawLaw),
}

impl BucketPolicy {
    /// Current window in modeled seconds (0 = immediate).
    pub(crate) fn window(&self) -> f64 {
        match self {
            BucketPolicy::Immediate => 0.0,
            BucketPolicy::Fixed(w) => *w,
            BucketPolicy::Adaptive(law) => law.window(),
        }
    }

    /// Feedback on aggregate departure; returns (new window, whether the
    /// window changed).
    pub(crate) fn on_aggregate_sent(&mut self, n: usize, age: f64) -> (f64, bool) {
        match self {
            BucketPolicy::Immediate => (0.0, false),
            BucketPolicy::Fixed(w) => (*w, false),
            BucketPolicy::Adaptive(law) => {
                let before = law.window();
                let after = law.on_aggregate_sent(n, age);
                (after, after != before)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_names() {
        assert_eq!(AggregationConfig::Unaggregated.name(), "none");
        assert_eq!(AggregationConfig::Faw { window: 1e-3 }.name(), "FAW");
        assert_eq!(AggregationConfig::saaw(1e-3).name(), "SAAW");
    }

    #[test]
    fn immediate_policy_has_zero_window() {
        let p = AggregationConfig::Unaggregated.build();
        assert_eq!(p.window(), 0.0);
    }

    #[test]
    fn fixed_policy_never_moves() {
        let mut p = AggregationConfig::Faw { window: 2e-3 }.build();
        assert_eq!(p.window(), 2e-3);
        let (w, changed) = p.on_aggregate_sent(50, 1e-3);
        assert_eq!(w, 2e-3);
        assert!(!changed);
    }

    #[test]
    fn adaptive_policy_moves_with_rate() {
        let mut p = AggregationConfig::saaw(1e-3).build();
        p.on_aggregate_sent(2, 1e-3);
        let (w, changed) = p.on_aggregate_sent(30, 1e-3);
        assert!(changed);
        assert!(w > 1e-3);
    }

    #[test]
    #[should_panic]
    fn zero_faw_window_rejected() {
        let _ = AggregationConfig::Faw { window: 0.0 }.build();
    }

    #[test]
    fn validate_accepts_what_build_accepts_and_nothing_else() {
        for ok in [
            AggregationConfig::Unaggregated,
            AggregationConfig::Faw { window: 1e-3 },
            AggregationConfig::saaw(1e-3),
        ] {
            ok.validate().unwrap();
        }
        let saaw = |initial_window, min_window, max_window| AggregationConfig::Saaw {
            initial_window,
            min_window,
            max_window,
        };
        for bad in [
            AggregationConfig::Faw { window: 0.0 },
            AggregationConfig::Faw { window: f64::NAN },
            saaw(-1e-3, 1e-4, 1e-2),
            saaw(1e-3, 0.0, 1e-2),
            saaw(1e-3, 1e-2, 1e-4),
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn saaw_default_bounds_bracket_initial() {
        if let AggregationConfig::Saaw {
            initial_window: _,
            min_window,
            max_window,
        } = AggregationConfig::saaw(5e-3)
        {
            assert!(min_window < 5e-3 && 5e-3 < max_window);
            assert!(min_window > 0.0);
        } else {
            unreachable!()
        }
    }
}
