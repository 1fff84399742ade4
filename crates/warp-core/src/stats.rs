//! Statistics collected by the kernel.
//!
//! These counters are both the *experimental output* (committed events per
//! second, rollback counts, ...) and the *sampled output `O`* of the
//! on-line configuration control systems: the controllers read windows of
//! them and adjust the simulator's configuration.

use serde::{Deserialize, Serialize};

/// Per-object counters. Everything is monotone over a run; the control
/// systems work on deltas between sampling points.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ObjectStats {
    /// Events executed normally, including ones later rolled back
    /// (coast-forward re-executions are counted in `coasted`, not here).
    pub executed: u64,
    /// Events re-executed during coast-forward phases (reduced cost,
    /// sends suppressed).
    pub coasted: u64,
    /// Events whose execution was undone by a rollback.
    pub rolled_back: u64,
    /// Rollbacks triggered by straggler positive messages.
    pub straggler_rollbacks: u64,
    /// Rollbacks triggered by anti-messages to processed events.
    pub anti_rollbacks: u64,
    /// States saved into the state queue.
    pub states_saved: u64,
    /// States restored by rollbacks.
    pub states_restored: u64,
    /// Positive messages sent.
    pub sent: u64,
    /// Anti-messages sent (aggressive immediately, lazy on miss).
    pub anti_sent: u64,
    /// Positive/anti pairs annihilated in this object's input queue.
    pub annihilated: u64,
    /// Lazy cancellation: regenerated message matched a held-back one.
    pub lazy_hits: u64,
    /// Lazy cancellation: a held-back message had to be cancelled.
    pub lazy_misses: u64,
    /// Aggressive-mode passive monitoring: regenerated message equalled
    /// the already-cancelled one (a "lazy aggressive hit").
    pub monitor_hits: u64,
    /// Aggressive-mode passive monitoring: it differed.
    pub monitor_misses: u64,
    /// Cancellation strategy switches performed by the controller.
    pub strategy_switches: u64,
    /// Checkpoint-interval adjustments performed by the controller.
    pub interval_adjustments: u64,
    /// History items reclaimed by fossil collection.
    pub fossils_collected: u64,
    /// Modeled seconds spent saving state (input to the `Ec` index).
    pub cost_state_saving: f64,
    /// Modeled seconds spent coasting forward (input to the `Ec` index).
    pub cost_coasting: f64,
    /// Modeled seconds spent in rollback bookkeeping and state restore.
    pub cost_rollback: f64,
    /// Modeled seconds spent executing events (committed or not).
    pub cost_execution: f64,
    /// Modeled seconds spent on lazy/monitor output comparisons.
    pub cost_comparison: f64,
}

impl ObjectStats {
    /// Events whose effects survived (executed minus rolled back). At the
    /// end of a completed run this equals the committed event count.
    pub fn net_executed(&self) -> u64 {
        self.executed.saturating_sub(self.rolled_back)
    }

    /// Total rollbacks of either cause.
    pub fn rollbacks(&self) -> u64 {
        self.straggler_rollbacks + self.anti_rollbacks
    }

    /// Average rollback length in events (0 if no rollbacks).
    pub fn avg_rollback_length(&self) -> f64 {
        let r = self.rollbacks();
        if r == 0 {
            0.0
        } else {
            self.rolled_back as f64 / r as f64
        }
    }

    /// Checkpointing cost index `Ec`: state-saving plus coast-forward
    /// cost. The dynamic checkpoint controller minimizes this.
    pub fn checkpoint_cost_index(&self) -> f64 {
        self.cost_state_saving + self.cost_coasting
    }

    /// Fold another object's counters into this one.
    pub fn merge(&mut self, other: &ObjectStats) {
        self.executed += other.executed;
        self.coasted += other.coasted;
        self.rolled_back += other.rolled_back;
        self.straggler_rollbacks += other.straggler_rollbacks;
        self.anti_rollbacks += other.anti_rollbacks;
        self.states_saved += other.states_saved;
        self.states_restored += other.states_restored;
        self.sent += other.sent;
        self.anti_sent += other.anti_sent;
        self.annihilated += other.annihilated;
        self.lazy_hits += other.lazy_hits;
        self.lazy_misses += other.lazy_misses;
        self.monitor_hits += other.monitor_hits;
        self.monitor_misses += other.monitor_misses;
        self.strategy_switches += other.strategy_switches;
        self.interval_adjustments += other.interval_adjustments;
        self.fossils_collected += other.fossils_collected;
        self.cost_state_saving += other.cost_state_saving;
        self.cost_coasting += other.cost_coasting;
        self.cost_rollback += other.cost_rollback;
        self.cost_execution += other.cost_execution;
        self.cost_comparison += other.cost_comparison;
    }
}

/// Per-LP communication counters (maintained by the transport /
/// aggregation layer).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CommStats {
    /// Application events handed to the communication layer.
    pub events_offered: u64,
    /// Physical messages actually sent on the wire.
    pub phys_sent: u64,
    /// Physical messages received.
    pub phys_received: u64,
    /// Application events received (after de-aggregation).
    pub events_received: u64,
    /// Payload bytes sent (excluding physical headers).
    pub bytes_sent: u64,
    /// Aggregation-window adjustments made by SAAW.
    pub window_adjustments: u64,
    /// Modeled seconds of sender CPU spent in the protocol stack.
    pub cost_send: f64,
    /// Modeled seconds of receiver CPU spent in the protocol stack.
    pub cost_recv: f64,
}

impl CommStats {
    /// Mean events per physical message (1.0 when unaggregated).
    pub fn aggregation_ratio(&self) -> f64 {
        if self.phys_sent == 0 {
            0.0
        } else {
            self.events_offered as f64 / self.phys_sent as f64
        }
    }

    /// Fold another LP's communication counters into this one.
    pub fn merge(&mut self, other: &CommStats) {
        self.events_offered += other.events_offered;
        self.phys_sent += other.phys_sent;
        self.phys_received += other.phys_received;
        self.events_received += other.events_received;
        self.bytes_sent += other.bytes_sent;
        self.window_adjustments += other.window_adjustments;
        self.cost_send += other.cost_send;
        self.cost_recv += other.cost_recv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_executed_subtracts_rollbacks_only() {
        let s = ObjectStats {
            executed: 100,
            rolled_back: 20,
            coasted: 10,
            ..Default::default()
        };
        assert_eq!(
            s.net_executed(),
            80,
            "coast re-executions are not in `executed`"
        );
    }

    #[test]
    fn net_executed_saturates() {
        let s = ObjectStats {
            executed: 5,
            rolled_back: 10,
            ..Default::default()
        };
        assert_eq!(s.net_executed(), 0);
    }

    #[test]
    fn rollback_length_average() {
        let s = ObjectStats {
            straggler_rollbacks: 3,
            anti_rollbacks: 1,
            rolled_back: 12,
            ..Default::default()
        };
        assert_eq!(s.rollbacks(), 4);
        assert!((s.avg_rollback_length() - 3.0).abs() < 1e-12);
        assert_eq!(ObjectStats::default().avg_rollback_length(), 0.0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = ObjectStats {
            executed: 1,
            cost_state_saving: 0.5,
            ..Default::default()
        };
        let b = ObjectStats {
            executed: 2,
            cost_state_saving: 0.25,
            lazy_hits: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.executed, 3);
        assert_eq!(a.lazy_hits, 3);
        assert!((a.cost_state_saving - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ec_index_is_save_plus_coast() {
        let s = ObjectStats {
            cost_state_saving: 1.5,
            cost_coasting: 2.0,
            ..Default::default()
        };
        assert!((s.checkpoint_cost_index() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn aggregation_ratio() {
        let c = CommStats {
            events_offered: 100,
            phys_sent: 20,
            ..Default::default()
        };
        assert!((c.aggregation_ratio() - 5.0).abs() < 1e-12);
        assert_eq!(CommStats::default().aggregation_ratio(), 0.0);
    }

    #[test]
    fn comm_merge() {
        let mut a = CommStats {
            phys_sent: 2,
            cost_send: 0.1,
            ..Default::default()
        };
        a.merge(&CommStats {
            phys_sent: 3,
            cost_send: 0.2,
            events_received: 7,
            ..Default::default()
        });
        assert_eq!(a.phys_sent, 5);
        assert_eq!(a.events_received, 7);
        assert!((a.cost_send - 0.3).abs() < 1e-12);
    }
}
