//! The cluster loop: on-line configuration of the LP→worker assignment,
//! its worker count included.
//!
//! The per-LP controllers of this crate configure χ, the cancellation
//! mode and the DyMA window. This module lifts the same `<O, I, S, T, P>`
//! structure to the cluster:
//!
//! * `O` — each complete GVT round of per-LP loads ([`LpLoad`]), reduced
//!   to the *pressure*: the spread of per-worker mean LVT leads,
//!   `(max − min) / max`, over EWMA-smoothed leads.
//! * `I` — the [`Assignment`], worker count included.
//! * `S` — contiguous blocks over the starting workers.
//! * `T` — [`ClusterController::observe`], a two-sided dead zone
//!   (`low`, `high`] with one patience:
//!   - pressure above `high` for `patience` rounds blaming the same
//!     straggler moves the straggler's hottest LP to the worker with the
//!     most headroom, while the move budget lasts and the straggler has
//!     more than one LP; otherwise, after `patience` rounds above `high`,
//!     the cluster grows by one worker (if below its maximum and a
//!     worker can be added);
//!   - pressure at or below `low` for `patience` rounds retires the
//!     highest-numbered worker (if above its minimum);
//!   - between the two, every streak resets.
//! * `P` — every complete GVT round, after `warmup_rounds` rounds.
//!
//! A firing produces one [`Plan`]; its kind is its change in worker
//! count (0 a migration, +1 a scale-out, −1 a scale-in). The executive
//! applies every plan the same way — checkpoint barrier, session
//! regroup — so this module is pure policy and owns no transport,
//! process or checkpoint state.
//!
//! Why LVT lead rather than event rates: under GVT pacing the committed
//! rates of all workers converge to the slowest one's, so rates say
//! little about *which* worker is slow. The optimism front does: a slow
//! host's LPs sit at the horizon (lead ≈ 0) while everyone else
//! speculates far ahead.

use serde::{Deserialize, Serialize};

/// An explicit LP→worker map. Worker (process) ids are 1-based: proc 0
/// is the coordinator and never owns LPs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// `owner[lp]` = 1-based worker proc id.
    owner: Vec<u32>,
    n_workers: u32,
}

impl Assignment {
    /// The seed assignment: contiguous blocks, sized as evenly as the
    /// division allows (the first `n_lps % n_workers` workers take one
    /// extra LP), so no worker is ever left idle.
    pub fn contiguous(n_lps: u32, n_workers: u32) -> Result<Self, String> {
        if n_workers == 0 {
            return Err("n_workers must be >= 1".into());
        }
        if n_lps < n_workers {
            return Err(format!(
                "{n_lps} LPs cannot cover {n_workers} workers (need n_lps >= n_workers)"
            ));
        }
        let base = n_lps / n_workers;
        let extra = n_lps % n_workers;
        let mut owner = Vec::with_capacity(n_lps as usize);
        for w in 1..=n_workers {
            let block = base + u32::from(w <= extra);
            owner.extend(std::iter::repeat_n(w, block as usize));
        }
        Self::from_owners(owner, n_workers)
    }

    /// Build from an explicit owner vector, validating that every owner
    /// is a real worker and every worker keeps at least one LP (a
    /// worker process with zero LPs would idle the GVT ring).
    pub fn from_owners(owner: Vec<u32>, n_workers: u32) -> Result<Self, String> {
        if n_workers == 0 {
            return Err("n_workers must be >= 1".into());
        }
        if owner.is_empty() {
            return Err("empty assignment".into());
        }
        let mut counts = vec![0u32; n_workers as usize];
        for (lp, &w) in owner.iter().enumerate() {
            if w == 0 || w > n_workers {
                return Err(format!("lp {lp} assigned to invalid worker {w}"));
            }
            counts[(w - 1) as usize] += 1;
        }
        if let Some(idle) = counts.iter().position(|&c| c == 0) {
            return Err(format!("worker {} owns no LPs", idle + 1));
        }
        Ok(Self { owner, n_workers })
    }

    /// Total LP count.
    pub fn n_lps(&self) -> u32 {
        self.owner.len() as u32
    }

    /// Worker count.
    pub fn n_workers(&self) -> u32 {
        self.n_workers
    }

    /// Which worker process hosts `lp`.
    pub fn proc_of(&self, lp: u32) -> u32 {
        self.owner[lp as usize]
    }

    /// The LPs hosted by worker `proc`, in ascending id order.
    pub fn lps_of(&self, proc: u32) -> Vec<u32> {
        (0..self.n_lps())
            .filter(|&lp| self.proc_of(lp) == proc)
            .collect()
    }

    /// The raw owner vector, for the wire (`SessionLine`).
    pub fn owners(&self) -> &[u32] {
        &self.owner
    }
}

/// Knobs of the cluster loop. The default is unarmed: no move budget
/// and a fixed worker count. Armed, the loop needs the checkpoint
/// machinery (every plan rides a barrier and a session regroup).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterPolicy {
    /// Upper edge of the dead zone, in `[low, 1]`: pressure above it
    /// moves an LP or grows the cluster. At 1 neither ever fires.
    pub high: f64,
    /// Lower edge of the dead zone, in `[0, high]`: pressure at or
    /// below it shrinks the cluster. At `high` the dead zone is a single
    /// threshold.
    pub low: f64,
    /// Consecutive GVT rounds on one side of the dead zone (blaming the
    /// same straggler, for a move) before a plan fires.
    pub patience: u32,
    /// Initial GVT rounds of each session ignored while the filters warm
    /// up (leads are transient right after a resume).
    pub warmup_rounds: u32,
    /// Total migrations allowed per run (0 = never move an LP).
    pub max_migrations: u32,
    /// Worker-count bounds `(min, max)`; `None` keeps the count fixed.
    pub workers: Option<(u32, u32)>,
    /// Total membership changes allowed per run, fallbacks included.
    pub max_scales: u32,
    /// Whether the executive may spawn a worker process to grow; without
    /// it the cluster grows only while a `--join` worker waits.
    pub spawn: bool,
}

impl Default for ClusterPolicy {
    fn default() -> Self {
        Self {
            high: 0.5,
            low: 0.15,
            patience: 3,
            warmup_rounds: 2,
            max_migrations: 0,
            workers: None,
            max_scales: 2,
            spawn: true,
        }
    }
}

impl ClusterPolicy {
    /// Refuse thresholds, patience or bounds the loop cannot run under.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 <= self.low && self.low <= self.high && self.high <= 1.0) {
            return Err(format!(
                "dead zone ({}, {}] must satisfy 0 <= low <= high <= 1",
                self.low, self.high
            ));
        }
        if self.patience == 0 {
            return Err("patience must be >= 1".into());
        }
        if let Some((min, max)) = self.workers {
            if min == 0 || max < min {
                return Err(format!(
                    "worker bounds {min}..={max} must satisfy 1 <= min <= max"
                ));
            }
        }
        Ok(())
    }

    /// Whether the loop can ever fire: a move budget, or a worker range
    /// wider than one count with a scale budget.
    pub fn armed(&self) -> bool {
        let range = self.workers.is_some_and(|(min, max)| max > min);
        self.max_migrations > 0 || (range && self.max_scales > 0)
    }
}

/// One LP's sampled output `O` at a GVT round. Counters are cumulative
/// over the LP's lifetime (the controller differences them itself).
/// A recorded round may omit the two fields no controller reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LpLoad {
    /// Events executed, including ones later rolled back.
    pub executed: u64,
    /// Events undone by rollback.
    #[serde(default)]
    pub rolled_back: u64,
    /// Retained history items (input queue + output log + snapshots).
    #[serde(default)]
    pub retained: u64,
    /// `lvt_front - gvt` in ticks: how far ahead of the committed
    /// horizon the LP has speculated. The straggler signal.
    pub lvt_lead: u64,
}

/// One LP changing owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Move {
    /// The LP.
    pub lp: u32,
    /// Its owner before the plan.
    pub from: u32,
    /// Its owner after the plan.
    pub to: u32,
}

/// A proposed reconfiguration: the next assignment (over one more, one
/// fewer or the same number of workers), the moves that realize it, and
/// the pressure that triggered it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// The LP→worker map after the plan.
    pub assignment: Assignment,
    /// Every LP changing owner.
    pub moves: Vec<Move>,
    /// The pressure index at the firing round.
    pub pressure: f64,
}

/// One complete GVT round as the coordinator fed it to the loop — the
/// observational series a replay feeds back.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoadRound {
    /// Session epoch (each session runs a fresh controller).
    pub session: u32,
    /// The round's GVT in ticks.
    pub gvt: u64,
    /// The assignment the round ran under.
    pub owners: Vec<u32>,
    /// Whether a worker could have been added on this round.
    pub can_add: bool,
    /// Every LP's load, by LP id.
    pub loads: Vec<LpLoad>,
    /// The plan that fired on this round and was taken, if any.
    pub plan: Option<Plan>,
}

/// EWMA weight of the newest sample. Heavier than the per-LP controllers
/// use because GVT rounds are already coarse. Both averages start at 0.
const ALPHA: f64 = 0.5;

/// The cluster-level transfer function `T`.
///
/// Feed it one complete round of per-LP loads per GVT round via
/// [`observe`](Self::observe). The executive builds a fresh controller
/// for every session, with the run's remaining budgets, which doubles as
/// the cooldown after a plan or a recovery.
pub struct ClusterController {
    policy: ClusterPolicy,
    last_executed: Vec<u64>,
    /// EWMA of per-round executed-event deltas: ranks LPs by heat.
    rate: Vec<f64>,
    /// EWMA of the LVT lead: the per-LP straggler signal.
    lead: Vec<f64>,
    rounds: u32,
    /// The worker blamed by the current streak above `high`.
    suspect: Option<u32>,
    /// Consecutive rounds above `high` blaming `suspect`.
    strikes: u32,
    /// Consecutive rounds above `high`, whoever is blamed.
    above: u32,
    /// Consecutive rounds at or below `low`.
    below: u32,
}

impl ClusterController {
    /// A controller over `n_lps` LPs. `policy.max_migrations` and
    /// `policy.max_scales` are the budgets left in the run.
    pub fn new(policy: ClusterPolicy, n_lps: u32) -> Self {
        Self {
            policy,
            last_executed: vec![0; n_lps as usize],
            rate: vec![0.0; n_lps as usize],
            lead: vec![0.0; n_lps as usize],
            rounds: 0,
            suspect: None,
            strikes: 0,
            above: 0,
            below: 0,
        }
    }

    /// Ingest one complete GVT round of loads (`per_lp[lp]` for every
    /// LP) under `assign`. `can_add` says whether a worker can join now
    /// (a `--join` worker waits, or spawning is allowed); while false,
    /// rounds above `high` still count but never grow the cluster.
    pub fn observe(
        &mut self,
        assign: &Assignment,
        per_lp: &[LpLoad],
        can_add: bool,
    ) -> Option<Plan> {
        assert_eq!(per_lp.len(), self.lead.len(), "incomplete load round");
        for (lp, load) in per_lp.iter().enumerate() {
            let d_exec = load.executed.saturating_sub(self.last_executed[lp]);
            self.rate[lp] = ALPHA * d_exec as f64 + (1.0 - ALPHA) * self.rate[lp];
            self.lead[lp] = ALPHA * load.lvt_lead as f64 + (1.0 - ALPHA) * self.lead[lp];
            self.last_executed[lp] = load.executed;
        }
        self.rounds += 1;
        if self.rounds <= self.policy.warmup_rounds {
            return None;
        }

        let lead = self.worker_leads(assign);
        let max_l = lead.iter().cloned().fold(f64::MIN, f64::max);
        let (slow_idx, min_l) = lead
            .iter()
            .cloned()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one worker");
        let pressure = (max_l - min_l) / max_l.max(1.0);
        let n = assign.n_workers();
        let (min_w, max_w) = self.policy.workers.unwrap_or((n, n));
        let patience = self.policy.patience;
        let plan = if pressure > self.policy.high {
            let slow = slow_idx as u32 + 1;
            if self.suspect.replace(slow) != Some(slow) {
                self.strikes = 0;
            }
            self.strikes += 1;
            self.above += 1;
            self.below = 0;
            let moved = (self.strikes >= patience && self.policy.max_migrations > 0)
                .then(|| self.plan_move(assign, &lead, slow, pressure))
                .flatten();
            let grow = self.above >= patience && n < max_w && can_add && self.policy.max_scales > 0;
            moved.or_else(|| {
                grow.then(|| self.plan_out(assign, &lead, pressure))
                    .flatten()
            })
        } else if pressure <= self.policy.low {
            self.reset();
            self.below += 1;
            let shrink = self.below >= patience && n > min_w && self.policy.max_scales > 0;
            shrink.then(|| self.plan_in(assign, pressure)).flatten()
        } else {
            self.reset();
            self.below = 0;
            None
        };
        if let Some(p) = &plan {
            self.reset();
            self.below = 0;
            if p.assignment.n_workers() == n {
                self.policy.max_migrations -= 1;
            } else {
                self.policy.max_scales -= 1;
            }
        }
        plan
    }

    /// Forget the streak above `high`.
    fn reset(&mut self) {
        self.suspect = None;
        self.strikes = 0;
        self.above = 0;
    }

    /// Per-worker mean LVT lead under `assign` (index `w-1`; every
    /// worker owns an LP).
    fn worker_leads(&self, assign: &Assignment) -> Vec<f64> {
        let mut sums = vec![(0.0, 0u32); assign.n_workers() as usize];
        for (lp, &w) in assign.owners().iter().enumerate() {
            let (sum, count) = &mut sums[w as usize - 1];
            *sum += self.lead[lp];
            *count += 1;
        }
        sums.iter()
            .map(|&(sum, count)| sum / count as f64)
            .collect()
    }

    /// Move the straggler's hottest LP (ties to the lowest id) onto the
    /// worker with the highest mean lead (ties to the lowest id). None
    /// when the straggler holds a single LP or has no peer.
    fn plan_move(
        &self,
        assign: &Assignment,
        lead: &[f64],
        slow: u32,
        pressure: f64,
    ) -> Option<Plan> {
        let donor = assign.lps_of(slow);
        if donor.len() <= 1 {
            return None;
        }
        let lp = donor.into_iter().max_by(|&a, &b| {
            self.rate[a as usize]
                .total_cmp(&self.rate[b as usize])
                .then(b.cmp(&a))
        })?;
        let to = (1..=assign.n_workers())
            .filter(|&w| w != slow)
            .max_by(|&a, &b| {
                lead[a as usize - 1]
                    .total_cmp(&lead[b as usize - 1])
                    .then(b.cmp(&a))
            })?;
        let mut owner = assign.owners().to_vec();
        owner[lp as usize] = to;
        let moves = vec![Move { lp, from: slow, to }];
        plan(owner, assign.n_workers(), moves, pressure)
    }

    /// Grow by one: the newcomer takes its fair share (`n_lps / (n + 1)`,
    /// at least 1), each LP the lowest-id one of the lowest-lead worker
    /// that can spare one (ties to the lowest id).
    fn plan_out(&self, assign: &Assignment, lead: &[f64], pressure: f64) -> Option<Plan> {
        let n = assign.n_workers();
        let newcomer = n + 1;
        if assign.n_lps() < newcomer {
            return None; // every worker must keep at least one LP
        }
        let mut owner = assign.owners().to_vec();
        let mut counts: Vec<u32> = (1..=n).map(|w| assign.lps_of(w).len() as u32).collect();
        let mut moves = Vec::new();
        for _ in 0..(assign.n_lps() / newcomer).max(1) {
            let from = (0..n as usize)
                .filter(|&w| counts[w] > 1)
                .min_by(|&a, &b| lead[a].total_cmp(&lead[b]).then(a.cmp(&b)))?
                as u32
                + 1;
            let lp = owner.iter().position(|&w| w == from)? as u32;
            owner[lp as usize] = newcomer;
            counts[from as usize - 1] -= 1;
            moves.push(Move {
                lp,
                from,
                to: newcomer,
            });
        }
        plan(owner, newcomer, moves, pressure)
    }

    /// Shrink by one: retire the highest-numbered worker (keeping proc
    /// ids contiguous) and deal its LPs to the survivors with the fewest
    /// LPs first (ties to the lowest id).
    fn plan_in(&self, assign: &Assignment, pressure: f64) -> Option<Plan> {
        let retiree = assign.n_workers();
        let survivors = retiree - 1;
        let mut owner = assign.owners().to_vec();
        let mut counts: Vec<u32> = (1..=survivors)
            .map(|w| assign.lps_of(w).len() as u32)
            .collect();
        let mut moves = Vec::new();
        for lp in assign.lps_of(retiree) {
            let to = (0..survivors as usize)
                .min_by(|&a, &b| counts[a].cmp(&counts[b]).then(a.cmp(&b)))?
                as u32
                + 1;
            owner[lp as usize] = to;
            counts[to as usize - 1] += 1;
            moves.push(Move {
                lp,
                from: retiree,
                to,
            });
        }
        plan(owner, survivors, moves, pressure)
    }
}

/// The plan that puts the LPs on `owner` over `n_workers` workers.
fn plan(owner: Vec<u32>, n_workers: u32, moves: Vec<Move>, pressure: f64) -> Option<Plan> {
    let assignment = Assignment::from_owners(owner, n_workers).ok()?;
    Some(Plan {
        assignment,
        moves,
        pressure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Moves only: the worker count is fixed.
    fn moves_only() -> ClusterPolicy {
        ClusterPolicy {
            high: 0.5,
            low: 0.15,
            patience: 3,
            warmup_rounds: 1,
            max_migrations: 2,
            workers: None,
            max_scales: 0,
            spawn: true,
        }
    }

    /// Scaling only: 2..=3 workers, no moves.
    fn scales_only() -> ClusterPolicy {
        ClusterPolicy {
            high: 0.6,
            low: 0.15,
            patience: 3,
            warmup_rounds: 1,
            max_migrations: 0,
            workers: Some((2, 3)),
            max_scales: 2,
            spawn: true,
        }
    }

    /// A load round where the LPs of `slow` (1-based) sit at the horizon
    /// while everyone else leads by `lead` ticks (`slow == 0`: everyone
    /// leads evenly). Round `r`'s counters grow four times faster off
    /// the straggler.
    fn round(assign: &Assignment, slow: u32, lead: u64, r: u64) -> Vec<LpLoad> {
        (0..assign.n_lps())
            .map(|lp| {
                let mine = assign.proc_of(lp) == slow;
                LpLoad {
                    executed: r * if mine { 10 } else { 40 },
                    rolled_back: 0,
                    retained: 8,
                    lvt_lead: if mine { 0 } else { lead },
                }
            })
            .collect()
    }

    #[test]
    fn contiguous_splits_into_near_even_blocks() {
        let a = Assignment::contiguous(10, 3).unwrap();
        // 10 = 4 + 3 + 3 → blocks [0..4), [4..7), [7..10).
        assert_eq!(a.owners(), &[1, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
        assert_eq!(a.proc_of(0), 1);
        assert_eq!(a.proc_of(9), 3);
        assert_eq!(a.lps_of(2), vec![4, 5, 6]);
        assert!(
            Assignment::contiguous(2, 3).is_err(),
            "more workers than LPs"
        );
        assert!(Assignment::contiguous(3, 0).is_err());
    }

    #[test]
    fn contiguous_never_leaves_a_worker_idle() {
        for n_workers in 1..=8u32 {
            for n_lps in n_workers..=24 {
                let a = Assignment::contiguous(n_lps, n_workers)
                    .unwrap_or_else(|e| panic!("{n_lps} lps / {n_workers} workers: {e}"));
                for w in 1..=n_workers {
                    assert!(
                        !a.lps_of(w).is_empty(),
                        "{n_lps}/{n_workers}: worker {w} idle"
                    );
                }
            }
        }
    }

    #[test]
    fn from_owners_rejects_bad_maps() {
        assert!(
            Assignment::from_owners(vec![1, 2, 0], 2).is_err(),
            "proc 0 is the coordinator"
        );
        assert!(
            Assignment::from_owners(vec![1, 2, 3], 2).is_err(),
            "unknown worker"
        );
        assert!(
            Assignment::from_owners(vec![1, 1, 1], 2).is_err(),
            "worker 2 idle"
        );
        assert!(Assignment::from_owners(vec![], 1).is_err());
        assert!(Assignment::from_owners(vec![2, 1, 2], 2).is_ok());
    }

    #[test]
    fn balanced_load_stays_inside_the_dead_zone() {
        let assign = Assignment::contiguous(6, 3).unwrap();
        let mut ctl = ClusterController::new(moves_only(), 6);
        for r in 1..=50 {
            let plan = ctl.observe(&assign, &round(&assign, 0, 100, r), true);
            assert!(plan.is_none(), "round {r} fired");
        }
    }

    #[test]
    fn straggler_fires_only_after_patience_rounds() {
        let assign = Assignment::contiguous(6, 3).unwrap();
        let mut ctl = ClusterController::new(moves_only(), 6);
        // Warmup round + two strikes: nothing fires.
        for r in 1..=3 {
            assert!(
                ctl.observe(&assign, &round(&assign, 3, 500, r), true)
                    .is_none(),
                "round {r}"
            );
        }
        // Third consecutive strike blaming worker 3 → migration.
        let plan = ctl
            .observe(&assign, &round(&assign, 3, 500, 4), true)
            .expect("fires on patience");
        assert!(plan.pressure > 0.5);
        assert_eq!(
            plan.assignment.n_workers(),
            3,
            "a migration keeps the worker count"
        );
        assert_eq!(plan.moves.len(), 1);
        let mv = plan.moves[0];
        assert_eq!(mv.from, 3);
        assert_ne!(mv.to, 3);
        assert_eq!(assign.proc_of(mv.lp), 3, "moved LP came off the straggler");
        assert_eq!(plan.assignment.proc_of(mv.lp), mv.to);
        // Every other LP kept its owner.
        for lp in (0..6).filter(|&lp| lp != mv.lp) {
            assert_eq!(plan.assignment.proc_of(lp), assign.proc_of(lp));
        }
    }

    #[test]
    fn changing_the_suspect_resets_the_strike_count() {
        let assign = Assignment::contiguous(6, 3).unwrap();
        let mut ctl = ClusterController::new(moves_only(), 6);
        let mut r = 0;
        let mut next = |ctl: &mut ClusterController, slow| {
            r += 1;
            ctl.observe(&assign, &round(&assign, slow, 500, r), true)
        };
        assert!(next(&mut ctl, 3).is_none()); // warmup
        assert!(next(&mut ctl, 3).is_none()); // strike 1 on worker 3
        assert!(next(&mut ctl, 3).is_none()); // strike 2 on worker 3
        assert!(next(&mut ctl, 1).is_none()); // blame moves → strike 1 on worker 1
        assert!(next(&mut ctl, 1).is_none()); // strike 2 on worker 1
        let plan = next(&mut ctl, 1).expect("strike 3 on worker 1 fires");
        assert_eq!(plan.moves[0].from, 1);
    }

    #[test]
    fn a_straggler_with_one_lp_keeps_it() {
        let assign = Assignment::from_owners(vec![1, 2, 2, 2, 2, 2], 2).unwrap();
        let mut ctl = ClusterController::new(moves_only(), 6);
        // Worker 1 is the straggler but owns a single LP: the controller
        // must never propose emptying it (and cannot grow the cluster).
        for r in 1..=20 {
            let plan = ctl.observe(&assign, &round(&assign, 1, 500, r), true);
            assert!(plan.is_none(), "round {r} proposed emptying worker 1");
        }
    }

    #[test]
    fn max_migrations_caps_the_run() {
        let assign = Assignment::contiguous(6, 3).unwrap();
        let mut ctl = ClusterController::new(moves_only(), 6);
        let fired = (1..=60)
            .filter(|&r| {
                ctl.observe(&assign, &round(&assign, 3, 500, r), true)
                    .is_some()
            })
            .count();
        assert_eq!(fired, 2, "policy allows exactly max_migrations");
    }

    #[test]
    fn moves_the_hottest_lp_off_the_straggler() {
        let assign = Assignment::contiguous(6, 3).unwrap(); // worker 3 owns LPs 4, 5
        let mut ctl = ClusterController::new(moves_only(), 6);
        let plan = (1..=10u64).find_map(|r| {
            let loads: Vec<LpLoad> = (0..6)
                .map(|lp| LpLoad {
                    // LP 5 executes twice as hot as LP 4.
                    executed: r * if lp == 5 { 30 } else { 15 },
                    lvt_lead: if assign.proc_of(lp) == 3 { 0 } else { 400 },
                    ..LpLoad::default()
                })
                .collect();
            ctl.observe(&assign, &loads, true)
        });
        assert_eq!(
            plan.expect("fires").moves[0].lp,
            5,
            "hottest LP moves first"
        );
    }

    #[test]
    fn dead_zone_and_patience_validation() {
        assert!(ClusterPolicy::default().validate().is_ok());
        let bad = [
            ClusterPolicy {
                high: 1.5,
                ..moves_only()
            },
            ClusterPolicy {
                low: -0.1,
                ..moves_only()
            },
            ClusterPolicy {
                low: 0.7,
                ..scales_only()
            },
            ClusterPolicy {
                patience: 0,
                ..moves_only()
            },
        ];
        for p in bad {
            assert!(p.validate().is_err(), "{p:?}");
        }
        // At high = 1 nothing can be above the dead zone: legal.
        assert!(ClusterPolicy {
            high: 1.0,
            low: 0.99,
            ..scales_only()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn worker_bounds_validation() {
        for workers in [Some((0, 3)), Some((3, 2))] {
            let p = ClusterPolicy {
                workers,
                ..scales_only()
            };
            assert!(p.validate().is_err(), "{p:?}");
        }
        assert!(!ClusterPolicy::default().armed(), "the default is unarmed");
        assert!(moves_only().armed() && scales_only().armed());
        // A fixed range or a spent scale budget leaves only the moves.
        let fixed = ClusterPolicy {
            workers: Some((2, 2)),
            ..scales_only()
        };
        assert!(!fixed.armed());
        assert!(!ClusterPolicy {
            max_scales: 0,
            ..scales_only()
        }
        .armed());
    }

    #[test]
    fn policy_round_trips_through_json() {
        let p = scales_only();
        let back: ClusterPolicy =
            serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(back, p);
        let fixed = ClusterPolicy::default();
        let json = serde_json::to_string(&fixed).unwrap();
        assert!(json.contains(r#""workers":null"#), "{json}");
        assert_eq!(serde_json::from_str::<ClusterPolicy>(&json).unwrap(), fixed);
    }

    #[test]
    fn skew_scales_out_after_patience_rounds() {
        let assign = Assignment::contiguous(6, 2).unwrap();
        let mut ctl = ClusterController::new(scales_only(), 6);
        // Warmup + two strikes: nothing fires.
        for r in 1..=3 {
            let plan = ctl.observe(&assign, &round(&assign, 1, 500, r), true);
            assert!(plan.is_none(), "round {r} fired early");
        }
        let plan = ctl
            .observe(&assign, &round(&assign, 1, 500, 4), true)
            .expect("fires on patience");
        assert_eq!(plan.assignment.n_workers(), 3);
        assert!(plan.pressure >= 0.6);
        // The newcomer gets its fair share and every move targets it.
        assert_eq!(plan.moves.len(), 2); // 6 / 3
        for mv in &plan.moves {
            assert_eq!(mv.to, 3);
            assert_eq!(mv.from, 1, "LPs come off the pressured worker");
        }
        for w in 1..=3 {
            assert!(!plan.assignment.lps_of(w).is_empty(), "worker {w} idle");
        }
    }

    #[test]
    fn even_leads_scale_in_after_patience_rounds() {
        let assign = Assignment::contiguous(6, 3).unwrap();
        let mut ctl = ClusterController::new(scales_only(), 6);
        for r in 1..=3 {
            let plan = ctl.observe(&assign, &round(&assign, 0, 300, r), true);
            assert!(plan.is_none(), "round {r} fired early");
        }
        let plan = ctl
            .observe(&assign, &round(&assign, 0, 300, 4), true)
            .expect("fires on patience");
        assert_eq!(plan.assignment.n_workers(), 2);
        // Every LP of the retiree is re-homed on a survivor.
        assert_eq!(plan.moves.len(), assign.lps_of(3).len());
        for mv in &plan.moves {
            assert_eq!(mv.from, 3);
            assert!(mv.to < 3);
        }
        assert_eq!(plan.assignment.n_lps(), 6);
    }

    #[test]
    fn dead_zone_between_thresholds_holds_membership() {
        let assign = Assignment::contiguous(6, 2).unwrap();
        let mut ctl = ClusterController::new(scales_only(), 6);
        // Pressure ≈ 0.4: above low, below high.
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
        // At the maximum already: out-pressure never fires.
        let assign = Assignment::contiguous(6, 3).unwrap();
        let mut ctl = ClusterController::new(scales_only(), 6);
        for r in 1..=20 {
            assert!(ctl
                .observe(&assign, &round(&assign, 1, 500, r), true)
                .is_none());
        }
        // At the minimum already: in-pressure never fires.
        let assign = Assignment::contiguous(6, 2).unwrap();
        let mut ctl = ClusterController::new(scales_only(), 6);
        for r in 1..=20 {
            assert!(ctl
                .observe(&assign, &round(&assign, 0, 300, r), true)
                .is_none());
        }
        // max_scales bounds total firings.
        let policy = ClusterPolicy {
            workers: Some((2, 8)),
            max_scales: 1,
            ..scales_only()
        };
        let mut ctl = ClusterController::new(policy, 6);
        let fired = (1..=40)
            .filter(|&r| {
                ctl.observe(&assign, &round(&assign, 1, 500, r), true)
                    .is_some()
            })
            .count();
        assert_eq!(fired, 1, "budget allows exactly max_scales");
    }

    #[test]
    fn out_pressure_without_a_way_to_add_never_fires() {
        let assign = Assignment::contiguous(6, 2).unwrap();
        let mut ctl = ClusterController::new(scales_only(), 6);
        for r in 1..=10 {
            let plan = ctl.observe(&assign, &round(&assign, 1, 500, r), false);
            assert!(
                plan.is_none(),
                "round {r} fired with no way to add a worker"
            );
        }
        // The moment a joiner appears the accumulated strikes pay off.
        assert!(ctl
            .observe(&assign, &round(&assign, 1, 500, 11), true)
            .is_some());
    }

    #[test]
    fn plans_never_leave_a_worker_idle() {
        for n_lps in 3..=12u32 {
            let assign = Assignment::contiguous(n_lps, 2).unwrap();
            let policy = ClusterPolicy {
                warmup_rounds: 0,
                patience: 1,
                ..scales_only()
            };
            let mut ctl = ClusterController::new(policy, n_lps);
            let plan = ctl
                .observe(&assign, &round(&assign, 1, 500, 1), true)
                .expect("fires immediately with patience 1");
            for w in 1..=plan.assignment.n_workers() {
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
        let policy = ClusterPolicy {
            warmup_rounds: 0,
            patience: 1,
            ..scales_only()
        };
        let mut ctl = ClusterController::new(policy, 2);
        let plan = ctl.observe(&assign, &round(&assign, 1, 500, 1), true);
        assert!(plan.is_none(), "2 LPs cannot cover 3 workers");
    }

    #[test]
    fn high_pressure_grows_the_cluster_once_the_move_budget_is_spent() {
        // Both actuations armed, one move allowed: the first firing moves
        // an LP off the straggler; the next one, with nothing left to
        // move, grows the cluster.
        let assign = Assignment::contiguous(6, 2).unwrap();
        let policy = ClusterPolicy {
            max_migrations: 1,
            max_scales: 1,
            ..scales_only()
        };
        let mut ctl = ClusterController::new(policy, 6);
        let plans: Vec<(u32, Plan)> = (1..=20)
            .filter_map(|r| {
                Some(r).zip(ctl.observe(&assign, &round(&assign, 1, 500, r as u64), true))
            })
            .collect();
        let kinds: Vec<(u32, u32)> = plans
            .iter()
            .map(|(r, p)| (*r, p.assignment.n_workers()))
            .collect();
        assert_eq!(
            kinds,
            [(4, 2), (7, 3)],
            "a move on patience, then growth on patience"
        );
        assert_eq!((plans[0].1.moves[0].from, plans[0].1.moves[0].to), (1, 2));
        assert!(plans[1].1.moves.iter().all(|m| m.to == 3));
    }

    #[test]
    fn plans_and_rounds_round_trip_through_json() {
        let assign = Assignment::contiguous(4, 2).unwrap();
        let mut ctl = ClusterController::new(
            ClusterPolicy {
                warmup_rounds: 0,
                patience: 1,
                ..scales_only()
            },
            4,
        );
        let loads = round(&assign, 1, 500, 1);
        let rec = LoadRound {
            session: 2,
            gvt: 1234,
            owners: assign.owners().to_vec(),
            can_add: true,
            plan: ctl.observe(&assign, &loads, true),
            loads,
        };
        assert!(rec.plan.is_some());
        let back: LoadRound = serde_json::from_str(&serde_json::to_string(&rec).unwrap()).unwrap();
        assert_eq!(back, rec);
        // A replay stream may leave out the fields no controller reads.
        let lean: LpLoad = serde_json::from_str(r#"{"executed":7,"lvt_lead":3}"#).unwrap();
        assert_eq!(
            lean,
            LpLoad {
                executed: 7,
                lvt_lead: 3,
                ..LpLoad::default()
            }
        );
    }
}
