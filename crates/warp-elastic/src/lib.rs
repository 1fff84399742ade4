//! Elastic cluster membership: on-line configuration of the worker
//! count itself.
//!
//! The paper's `<O,I,S,T,P>` loop configures per-LP knobs
//! (`warp-control`) and the worker↔LP assignment (`warp-balance`). This
//! crate lifts the same structure one more level: the configured
//! parameter `I` is the *size of the worker set*.
//!
//! * `O` — the same per-LP [`LpLoad`] stream the balance controller
//!   consumes at every GVT round; the controller reduces it to a
//!   cluster *pressure* index, the normalized spread of per-worker mean
//!   LVT leads (identical in shape to the balance imbalance index).
//! * `I` — the worker count, actuated between
//!   [`ElasticPolicy::min_workers`] and [`ElasticPolicy::max_workers`].
//! * `T` — [`ElasticController::observe`]: a *two-sided* dead zone.
//!   Pressure above [`ElasticPolicy::scale_out_pressure`] for
//!   [`ElasticPolicy::patience`] consecutive rounds means the slowest
//!   worker is pinned at the horizon while everyone else speculates far
//!   ahead — the cluster is capacity-bound on one host, so spread the
//!   load over one more worker. Pressure below
//!   [`ElasticPolicy::scale_in_pressure`] for `patience` rounds means
//!   the leads are even again and the extra capacity is idle headroom —
//!   retire a worker. The band between the two thresholds is the
//!   hysteresis dead zone where membership never moves.
//!
//! A firing produces a [`ScalePlan`]: the new [`Assignment`] (over one
//! more or one fewer worker) plus the LP moves that realize it. The
//! executive applies it exactly like a rebalance — checkpoint barrier,
//! session regroup — except the membership changes across the epoch:
//! a newcomer is spawned/admitted and seeded from the checkpoint
//! store, or the retiree is told to leave and exits. This crate is pure policy;
//! it owns no transport, process, or checkpoint state.

use serde::{Deserialize, Serialize};
use warp_balance::{Assignment, LpLoad, Move};

/// Knobs for the elastic membership loop. Defaults leave it disabled
/// and, when enabled, damp it harder than the balance loop: a scale
/// costs a process spawn (or a drain) on top of the checkpoint barrier.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ElasticPolicy {
    /// Master switch. Off by default: scaling reuses the checkpoint
    /// seeding machinery, so enabling it also requires recovery.
    pub enabled: bool,
    /// Floor on the worker count; scale-in never goes below it.
    pub min_workers: u32,
    /// Ceiling on the worker count; scale-out never exceeds it.
    pub max_workers: u32,
    /// Scale out when the pressure index sits at or above this for
    /// `patience` rounds. Must lie in `(0, 1]`.
    pub scale_out_pressure: f64,
    /// Scale in when the pressure index sits at or below this for
    /// `patience` rounds. Must lie in `[0, scale_out_pressure)`; the
    /// open band between the two thresholds is the dead zone.
    pub scale_in_pressure: f64,
    /// Consecutive GVT rounds on the same side of the dead zone
    /// required before a scale fires (the `P` of the control loop).
    pub patience: u32,
    /// Initial GVT rounds of each session to ignore while EWMA state
    /// warms up (leads are transient right after a resume replay).
    pub warmup_rounds: u32,
    /// Total membership changes allowed per run (each costs a barrier,
    /// a regroup, and a spawn or drain).
    pub max_scales: u32,
    /// Allow the coordinator to spawn fresh worker processes on scale
    /// out. When false the controller only proposes scale-out while a
    /// `--join` worker is parked in the admission queue.
    pub spawn: bool,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            min_workers: 1,
            max_workers: 4,
            scale_out_pressure: 0.6,
            scale_in_pressure: 0.15,
            patience: 3,
            warmup_rounds: 2,
            max_scales: 2,
            spawn: true,
        }
    }
}

impl ElasticPolicy {
    pub fn validate(&self) -> Result<(), String> {
        if self.min_workers == 0 {
            return Err("min_workers must be >= 1".into());
        }
        if self.max_workers < self.min_workers {
            return Err(format!(
                "max_workers {} below min_workers {}",
                self.max_workers, self.min_workers
            ));
        }
        if !(0.0 < self.scale_out_pressure && self.scale_out_pressure <= 1.0) {
            return Err(format!(
                "scale_out_pressure {} outside (0, 1]",
                self.scale_out_pressure
            ));
        }
        if !(0.0..1.0).contains(&self.scale_in_pressure)
            || self.scale_in_pressure >= self.scale_out_pressure
        {
            return Err(format!(
                "scale_in_pressure {} must lie in [0, scale_out_pressure)",
                self.scale_in_pressure
            ));
        }
        if self.patience == 0 {
            return Err("patience must be >= 1".into());
        }
        Ok(())
    }
}

/// Which way the membership moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleDirection {
    /// Add one worker (`from_workers + 1`).
    Out,
    /// Retire the highest-numbered worker (`from_workers - 1`), so the
    /// surviving proc ids stay contiguous.
    In,
}

/// A proposed membership change: the assignment over the *new* worker
/// set plus the LP moves that realize it and the pressure index that
/// triggered it.
#[derive(Clone, Debug)]
pub struct ScalePlan {
    pub direction: ScaleDirection,
    /// Worker count before the scale.
    pub from_workers: u32,
    /// Worker count after the scale (`from_workers ± 1`).
    pub to_workers: u32,
    /// LP→worker map over `to_workers` workers.
    pub assignment: Assignment,
    /// Every LP changing owner (`to == to_workers` on scale-out;
    /// `from == from_workers` on scale-in).
    pub moves: Vec<Move>,
    /// The pressure index at the firing round.
    pub pressure: f64,
}

/// EWMA smoothing factor, matching `warp-balance` (GVT rounds are
/// already coarse).
const ALPHA: f64 = 0.5;

/// The membership-level transfer function `T`.
///
/// Feed it one complete round of per-LP loads per GVT round via
/// [`observe`](Self::observe); it returns `Some(ScalePlan)` on the rare
/// round where the membership should change. The executive recreates
/// the controller at every session start, which doubles as the cooldown
/// after a scale, migration, or recovery.
pub struct ElasticController {
    policy: ElasticPolicy,
    n_lps: u32,
    /// EWMA of per-LP LVT leads — the straggler/headroom signal.
    lead: Vec<f64>,
    rounds: u32,
    out_streak: u32,
    in_streak: u32,
    scales: u32,
}

impl ElasticController {
    pub fn new(policy: ElasticPolicy, n_lps: u32) -> Self {
        Self {
            policy,
            n_lps,
            lead: vec![0.0; n_lps as usize],
            rounds: 0,
            out_streak: 0,
            in_streak: 0,
            scales: 0,
        }
    }

    /// Ingest one complete GVT round of loads under the current
    /// assignment. `can_spawn` tells the controller whether a scale-out
    /// is actually realizable right now (a joiner is parked, or the
    /// policy allows spawning); when false, out-pressure still counts
    /// strikes but never fires.
    pub fn observe(
        &mut self,
        assign: &Assignment,
        per_lp: &[LpLoad],
        can_spawn: bool,
    ) -> Option<ScalePlan> {
        assert_eq!(per_lp.len(), self.n_lps as usize, "incomplete load round");
        for (lp, load) in per_lp.iter().enumerate() {
            self.lead[lp] = ALPHA * load.lvt_lead as f64 + (1.0 - ALPHA) * self.lead[lp];
        }
        self.rounds += 1;
        if self.rounds <= self.policy.warmup_rounds || self.scales >= self.policy.max_scales {
            return None;
        }

        let n = assign.n_workers();
        let lead = self.worker_leads(assign);
        let max_l = lead.iter().cloned().fold(f64::MIN, f64::max);
        let min_l = lead.iter().cloned().fold(f64::MAX, f64::min);
        let pressure = (max_l - min_l) / max_l.max(1.0);

        let plan = if pressure >= self.policy.scale_out_pressure {
            self.in_streak = 0;
            self.out_streak += 1;
            if self.out_streak < self.policy.patience || n >= self.policy.max_workers || !can_spawn
            {
                return None;
            }
            self.plan_out(assign, &lead, pressure)
        } else if pressure <= self.policy.scale_in_pressure {
            self.out_streak = 0;
            self.in_streak += 1;
            if self.in_streak < self.policy.patience || n <= self.policy.min_workers {
                return None;
            }
            self.plan_in(assign, pressure)
        } else {
            self.out_streak = 0;
            self.in_streak = 0;
            return None;
        };
        if plan.is_some() {
            self.out_streak = 0;
            self.in_streak = 0;
            self.scales += 1;
        }
        plan
    }

    /// Per-worker mean LVT lead under `assign` (index `w-1`).
    fn worker_leads(&self, assign: &Assignment) -> Vec<f64> {
        let n = assign.n_workers() as usize;
        let mut sum = vec![0.0; n];
        let mut count = vec![0u32; n];
        for lp in 0..self.n_lps {
            let w = (assign.proc_of(lp) - 1) as usize;
            sum[w] += self.lead[lp as usize];
            count[w] += 1;
        }
        sum.iter()
            .zip(&count)
            .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect()
    }

    /// Grow by one: give the newcomer its fair share
    /// (`n_lps / (n + 1)`, at least 1) of LPs, drawn from the most
    /// pressured (lowest-lead) workers first, never draining a donor
    /// below one LP.
    fn plan_out(&self, assign: &Assignment, lead: &[f64], pressure: f64) -> Option<ScalePlan> {
        let n = assign.n_workers();
        let newcomer = n + 1;
        if self.n_lps < newcomer {
            return None; // every worker must keep at least one LP
        }
        let target = (self.n_lps / newcomer).max(1);
        let mut owner = assign.owners().to_vec();
        let mut counts: Vec<u32> = (1..=n).map(|w| assign.lps_of(w).len() as u32).collect();
        let mut moves = Vec::new();
        for _ in 0..target {
            // Donor: the worker with the lowest mean lead (the most
            // pressured) that can still spare an LP; ties break to the
            // lowest id so the plan is deterministic.
            let donor = (0..n as usize)
                .filter(|&w| counts[w] > 1)
                .min_by(|&a, &b| lead[a].total_cmp(&lead[b]).then(a.cmp(&b)))
                .map(|w| w as u32 + 1)?;
            // Lowest-id LP on the donor, again for determinism.
            let lp = (0..self.n_lps).find(|&lp| owner[lp as usize] == donor)?;
            owner[lp as usize] = newcomer;
            counts[(donor - 1) as usize] -= 1;
            moves.push(Move {
                lp,
                from: donor,
                to: newcomer,
            });
        }
        let assignment = Assignment::from_owners(owner, newcomer).ok()?;
        Some(ScalePlan {
            direction: ScaleDirection::Out,
            from_workers: n,
            to_workers: newcomer,
            assignment,
            moves,
            pressure,
        })
    }

    /// Shrink by one: retire the highest-numbered worker (keeping proc
    /// ids contiguous) and deal its LPs to the survivors with the
    /// fewest LPs first.
    fn plan_in(&self, assign: &Assignment, pressure: f64) -> Option<ScalePlan> {
        let n = assign.n_workers();
        let retiree = n;
        let survivors = n - 1;
        let mut owner = assign.owners().to_vec();
        let mut counts: Vec<u32> = (1..=survivors)
            .map(|w| assign.lps_of(w).len() as u32)
            .collect();
        let mut moves = Vec::new();
        for lp in assign.lps_of(retiree) {
            let to = (0..survivors as usize)
                .min_by(|&a, &b| counts[a].cmp(&counts[b]).then(a.cmp(&b)))
                .map(|w| w as u32 + 1)?;
            owner[lp as usize] = to;
            counts[(to - 1) as usize] += 1;
            moves.push(Move {
                lp,
                from: retiree,
                to,
            });
        }
        let assignment = Assignment::from_owners(owner, survivors).ok()?;
        Some(ScalePlan {
            direction: ScaleDirection::In,
            from_workers: n,
            to_workers: survivors,
            assignment,
            moves,
            pressure,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ElasticPolicy {
        ElasticPolicy {
            enabled: true,
            min_workers: 2,
            max_workers: 3,
            scale_out_pressure: 0.6,
            scale_in_pressure: 0.15,
            patience: 3,
            warmup_rounds: 1,
            max_scales: 2,
            spawn: true,
        }
    }

    /// A round where `slow` (1-based) sits at the horizon while the
    /// rest lead by `lead` ticks; `slow == 0` means everyone is even.
    fn round(assign: &Assignment, slow: u32, lead: u64) -> Vec<LpLoad> {
        (0..assign.n_lps())
            .map(|lp| LpLoad {
                executed: 100,
                rolled_back: 0,
                retained: 8,
                lvt_lead: if assign.proc_of(lp) == slow { 0 } else { lead },
            })
            .collect()
    }

    #[test]
    fn policy_validation() {
        assert!(ElasticPolicy::default().validate().is_ok());
        assert!(ElasticPolicy {
            min_workers: 0,
            ..policy()
        }
        .validate()
        .is_err());
        assert!(ElasticPolicy {
            max_workers: 1,
            ..policy()
        }
        .validate()
        .is_err());
        assert!(ElasticPolicy {
            scale_out_pressure: 1.5,
            ..policy()
        }
        .validate()
        .is_err());
        assert!(ElasticPolicy {
            scale_in_pressure: 0.7,
            ..policy()
        }
        .validate()
        .is_err(),);
        assert!(ElasticPolicy {
            patience: 0,
            ..policy()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn policy_round_trips_through_json() {
        let p = ElasticPolicy {
            enabled: true,
            ..ElasticPolicy::default()
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: ElasticPolicy = serde_json::from_str(&json).unwrap();
        assert!(back.enabled);
        assert_eq!(back.max_workers, p.max_workers);
        assert_eq!(back.max_scales, p.max_scales);
    }

    #[test]
    fn skew_scales_out_after_patience_rounds() {
        let assign = Assignment::contiguous(6, 2).unwrap();
        let mut ctl = ElasticController::new(policy(), 6);
        // Warmup + two strikes: nothing fires.
        for r in 1..=3 {
            assert!(
                ctl.observe(&assign, &round(&assign, 1, 500), true)
                    .is_none(),
                "round {r} fired early"
            );
        }
        let plan = ctl
            .observe(&assign, &round(&assign, 1, 500), true)
            .expect("fires on patience");
        assert_eq!(plan.direction, ScaleDirection::Out);
        assert_eq!((plan.from_workers, plan.to_workers), (2, 3));
        assert!(plan.pressure >= 0.6);
        // The newcomer gets its fair share and every move targets it.
        assert_eq!(plan.moves.len(), 2); // 6 / 3
        for mv in &plan.moves {
            assert_eq!(mv.to, 3);
            assert_eq!(mv.from, 1, "LPs come off the pressured worker");
        }
        assert_eq!(plan.assignment.n_workers(), 3);
        for w in 1..=3 {
            assert!(!plan.assignment.lps_of(w).is_empty(), "worker {w} idle");
        }
    }

    #[test]
    fn even_leads_scale_in_after_patience_rounds() {
        let assign = Assignment::contiguous(6, 3).unwrap();
        let mut ctl = ElasticController::new(policy(), 6);
        for r in 1..=3 {
            assert!(
                ctl.observe(&assign, &round(&assign, 0, 300), true)
                    .is_none(),
                "round {r} fired early"
            );
        }
        let plan = ctl
            .observe(&assign, &round(&assign, 0, 300), true)
            .expect("fires on patience");
        assert_eq!(plan.direction, ScaleDirection::In);
        assert_eq!((plan.from_workers, plan.to_workers), (3, 2));
        // Every LP of the retiree is re-homed on a survivor.
        let retired_lps = assign.lps_of(3);
        assert_eq!(plan.moves.len(), retired_lps.len());
        for mv in &plan.moves {
            assert_eq!(mv.from, 3);
            assert!(mv.to < 3);
        }
        assert_eq!(plan.assignment.n_workers(), 2);
        assert_eq!(plan.assignment.n_lps(), 6);
    }

    #[test]
    fn dead_zone_between_thresholds_holds_membership() {
        let assign = Assignment::contiguous(6, 2).unwrap();
        let mut ctl = ElasticController::new(policy(), 6);
        // Pressure ≈ 0.4: above scale-in, below scale-out.
        for r in 1..=40 {
            let loads: Vec<LpLoad> = (0..6)
                .map(|lp| LpLoad {
                    lvt_lead: if assign.proc_of(lp) == 1 { 300 } else { 500 },
                    ..LpLoad::default()
                })
                .collect();
            assert!(
                ctl.observe(&assign, &loads, true).is_none(),
                "round {r} fired inside the dead zone"
            );
        }
    }

    #[test]
    fn bounds_and_budget_cap_the_run() {
        // At max_workers already: out-pressure never fires.
        let assign = Assignment::contiguous(6, 3).unwrap();
        let mut ctl = ElasticController::new(policy(), 6);
        for _ in 1..=20 {
            assert!(ctl
                .observe(&assign, &round(&assign, 1, 500), true)
                .is_none());
        }
        // At min_workers already: in-pressure never fires.
        let assign = Assignment::contiguous(6, 2).unwrap();
        let mut ctl = ElasticController::new(policy(), 6);
        for _ in 1..=20 {
            assert!(ctl
                .observe(&assign, &round(&assign, 0, 300), true)
                .is_none());
        }
        // max_scales bounds total firings.
        let mut ctl = ElasticController::new(
            ElasticPolicy {
                max_workers: 8,
                max_scales: 1,
                ..policy()
            },
            6,
        );
        let mut fired = 0;
        for _ in 1..=40 {
            if ctl
                .observe(&assign, &round(&assign, 1, 500), true)
                .is_some()
            {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "budget allows exactly max_scales");
    }

    #[test]
    fn out_pressure_without_a_spawn_path_never_fires() {
        let assign = Assignment::contiguous(6, 2).unwrap();
        let mut ctl = ElasticController::new(policy(), 6);
        for r in 1..=10 {
            assert!(
                ctl.observe(&assign, &round(&assign, 1, 500), false)
                    .is_none(),
                "round {r} fired with no way to add a worker"
            );
        }
        // The moment a joiner appears the accumulated strikes pay off.
        assert!(ctl
            .observe(&assign, &round(&assign, 1, 500), true)
            .is_some());
    }

    #[test]
    fn plans_never_leave_a_worker_idle() {
        for n_lps in 3..=12u32 {
            let assign = Assignment::contiguous(n_lps, 2).unwrap();
            let mut ctl = ElasticController::new(
                ElasticPolicy {
                    warmup_rounds: 0,
                    patience: 1,
                    ..policy()
                },
                n_lps,
            );
            let plan = ctl
                .observe(&assign, &round(&assign, 1, 500), true)
                .expect("fires immediately with patience 1");
            for w in 1..=plan.to_workers {
                assert!(
                    !plan.assignment.lps_of(w).is_empty(),
                    "{n_lps} LPs: worker {w} idle after scale-out"
                );
            }
        }
    }

    #[test]
    fn scale_out_is_infeasible_when_every_worker_holds_one_lp() {
        let assign = Assignment::contiguous(2, 2).unwrap();
        let mut ctl = ElasticController::new(
            ElasticPolicy {
                warmup_rounds: 0,
                patience: 1,
                ..policy()
            },
            2,
        );
        assert!(
            ctl.observe(&assign, &round(&assign, 1, 500), true)
                .is_none(),
            "2 LPs cannot cover 3 workers"
        );
    }
}
