//! Building blocks of the on-line configuration control systems.
//!
//! The paper characterizes a configuration control system by the tuple
//! `<O, I, S, T, P>`: the sampled output `O`, the parameter under
//! configuration `I`, its initial setting `S`, the transfer function `T`
//! from observations to the next setting, and the control period `P`.
//! Unlike analog control, sampling and actuation here *compete for the
//! same CPU cycles as useful computation*, so every controller in this
//! crate is deliberately cheap: a handful of arithmetic operations per
//! invocation, invoked infrequently.
//!
//! This module provides the shared signal-conditioning piece: the
//! non-linear dead-zone threshold the paper found best suited for damping
//! discrete strategy selection.

/// Non-linear thresholding with hysteresis (the paper's Figure 3): the
/// output flips *high* only when the input rises above the upper
/// threshold and *low* only when it falls below the lower one; inside the
/// dead zone the previous output holds. Setting both thresholds equal
/// eliminates the dead zone (the paper's ST variant).
#[derive(Clone, Debug)]
pub struct DeadZone {
    lower: f64,
    upper: f64,
    high: bool,
}

impl DeadZone {
    /// `lower <= upper`; `initially_high` is the starting output.
    pub fn new(lower: f64, upper: f64, initially_high: bool) -> Self {
        assert!(
            lower <= upper,
            "dead zone thresholds inverted: lower {lower} > upper {upper}"
        );
        DeadZone {
            lower,
            upper,
            high: initially_high,
        }
    }

    /// Feed a sample; returns the (possibly unchanged) output state.
    pub fn update(&mut self, x: f64) -> bool {
        if x > self.upper {
            self.high = true;
        } else if x < self.lower {
            self.high = false;
        }
        self.high
    }

    /// The `(lower, upper)` thresholds.
    pub fn thresholds(&self) -> (f64, f64) {
        (self.lower, self.upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_zone_holds_state_between_thresholds() {
        let mut d = DeadZone::new(0.2, 0.45, false);
        assert!(!d.update(0.3), "dead zone: stays low");
        assert!(d.update(0.5), "above upper: flips high");
        assert!(d.update(0.3), "dead zone: stays high");
        assert!(d.update(0.44), "still in dead zone");
        assert!(!d.update(0.1), "below lower: flips low");
        assert_eq!(d.thresholds(), (0.2, 0.45));
    }

    #[test]
    fn single_threshold_has_no_dead_zone() {
        let mut d = DeadZone::new(0.4, 0.4, false);
        assert!(d.update(0.41));
        assert!(!d.update(0.39));
        assert!(!d.update(0.4), "exactly at threshold: holds");
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_thresholds_rejected() {
        let _ = DeadZone::new(0.5, 0.2, false);
    }
}
