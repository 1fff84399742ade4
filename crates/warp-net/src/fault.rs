//! Deterministic fault injection for the process mesh.
//!
//! Recovery code that is only exercised by real crashes is recovery code
//! that has never run. This module makes every failure mode the
//! transport can suffer *reproducible*: a [`FaultPlan`] is a list of
//! seeded, declarative rules — drop, duplicate, or delay specific data
//! frames, partition a link, crash a process — that the TCP mesh applies
//! on the *sending* side of each link, keyed on the per-link [`Frame::Data`]
//! sequence number rather than wall-clock time, so the same plan perturbs
//! the same frames on every run.
//!
//! Rules carry a [`FaultScope`]. The default, [`FaultScope::Data`],
//! perturbs the application channel: `Data` frames, counted by their
//! per-link sequence number. [`FaultScope::Control`] instead targets the
//! GVT plane — `Token` and `GvtNews` frames, counted by their own
//! per-link ordinal — which is how a *wedged-but-connected* worker is
//! manufactured: data and heartbeats keep flowing, the Mattern ring goes
//! silent, and only a GVT-progress watchdog can tell anything is wrong.
//! Control scope deliberately honours only the loss-shaped kinds
//! (`Drop`, `Partition`, `Crash`); `Duplicate` and `Delay` degrade to
//! plain delivery, because a duplicated Mattern token corrupts the GVT
//! computation itself — a fault no transport-level recovery could
//! repair — and a reordered `GvtNews` could announce horizons backwards.
//! Heartbeats and the checkpoint frames are exempt in every scope:
//! dropping heartbeats is expressed more honestly as a
//! [`FaultKind::Partition`]. What the plan models is an unreliable
//! channel; what recovery must guarantee is that the committed trace
//! survives it anyway.
//!
//! Plans are plain serde values so they can ride inside `ClusterJob`
//! specs and `WorkerInit` lines; each rule can be pinned to a session
//! epoch (usually 0) so a fault fires in the original run but not again
//! in the recovered one — a crash rule without a session filter would
//! re-kill the respawned worker forever.
//!
//! A plan also holds *process* faults ([`ProcFault`]): a slowed worker,
//! a worker that dies on joining a session's mesh, a coordinator that
//! dies after a checkpoint barrier. The mesh never reads them; the
//! distributed executive does, so every fault a run injects is named in
//! one value.
//!
//! [`Frame::Data`]: crate::frame::Frame::Data

use serde::{Deserialize, Serialize};

/// Which data frames (by per-link sequence number) a rule applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Selector {
    /// Exactly the frame with this sequence number.
    At(u64),
    /// Every `every`-th frame, offset by `phase`: fires when
    /// `seq % every == phase`. `every == 0` never fires.
    Every {
        /// Period in frames (0 disables the rule).
        every: u64,
        /// Offset within the period.
        phase: u64,
    },
    /// A deterministic pseudo-random `per_mille`/1000 of frames, keyed on
    /// `(seed, link, seq)` — the same plan picks the same frames on every
    /// run, but different links and seeds decorrelate.
    Random {
        /// Mixes into the hash so distinct rules pick distinct frames.
        seed: u64,
        /// Fire probability in thousandths (1000 = every frame).
        per_mille: u16,
    },
    /// Every frame from this sequence number onward. `Drop(From(n))` is
    /// an *asymmetric partition*: the directed link swallows all its
    /// data while the reverse direction — and this direction's
    /// heartbeats — keep flowing. Because nothing later ever arrives,
    /// the receiver sees no sequence gap and liveness stays green; only
    /// the GVT plane betrays the fault (the Mattern counts never
    /// reconcile), so the stall watchdog is the detector.
    From(u64),
}

impl Selector {
    /// Does this selector pick the data frame with sequence `seq` on the
    /// link identified by `salt`?
    pub fn matches(&self, salt: u64, seq: u64) -> bool {
        match *self {
            Selector::At(n) => seq == n,
            Selector::Every { every, phase } => every != 0 && seq % every == phase % every,
            Selector::Random { seed, per_mille } => {
                (splitmix(seed ^ salt ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1000)
                    < per_mille as u64
            }
            Selector::From(n) => seq >= n,
        }
    }
}

/// One kind of injected failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Silently discard matching data frames (the receiver sees a
    /// sequence gap and, after a timeout, an unclean link failure).
    Drop(Selector),
    /// Send matching data frames twice (the receiver's dedup must absorb
    /// the copy).
    Duplicate(Selector),
    /// Hold matching data frames back until `hold` further data frames
    /// have been sent on the link — a bounded reorder (the receiver's
    /// sequence buffer must restore send order).
    Delay {
        /// Which frames to hold back.
        sel: Selector,
        /// How many subsequent data frames overtake a held one.
        hold: u64,
    },
    /// From data frame `after` onward, the link goes completely silent —
    /// including heartbeats — until the session ends. The peer's liveness
    /// timeout fires and recovery takes over.
    Partition {
        /// First sequence number swallowed by the partition.
        after: u64,
    },
    /// Abort the whole sending process the moment it would send data
    /// frame `after` on this link (`std::process::abort`, no cleanup —
    /// the hardest failure the coordinator must survive).
    Crash {
        /// Sequence number that triggers the abort.
        after: u64,
    },
}

/// Which frame class a rule perturbs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultScope {
    /// `Data` frames, keyed on the per-link data sequence number.
    #[default]
    Data,
    /// `Token` / `GvtNews` frames, keyed on their own per-link ordinal.
    /// Only `Drop`, `Partition` and `Crash` act in this scope; the
    /// reordering kinds degrade to delivery (see the module docs).
    Control,
}

/// A fault rule: a failure kind scoped to one directed link, optionally
/// pinned to a session epoch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Sending process id.
    pub from: u32,
    /// Receiving process id.
    pub to: u32,
    /// Restrict the rule to one session epoch (`None` = every session).
    /// Crash/partition rules should pin session 0, or recovery livelocks
    /// re-triggering the same fault.
    #[serde(default)]
    pub session: Option<u32>,
    /// Which frame class the rule perturbs (default: data).
    #[serde(default)]
    pub scope: FaultScope,
    /// What to do to the matching frames.
    pub kind: FaultKind,
}

/// A fault on a whole process rather than on one link. Worker procs are
/// numbered from 1, as in the mesh; the coordinator is process 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcFault {
    /// Cap worker `proc` at one executed event per `gap_us` microseconds
    /// across all its LP threads, for its first `events` executed events
    /// (0 = unlimited). The budget counts once per process, across all
    /// its sessions, so a recovery or a scale never re-arms a spent
    /// slowdown. Replay during a restore is never paced.
    Slow {
        /// Worker process id.
        proc: u32,
        /// Minimum gap between executed events, microseconds.
        gap_us: u64,
        /// Paced events before full speed returns (0 = unlimited).
        #[serde(default)]
        events: u64,
    },
    /// Worker `proc` exits with status 9 — no `Bye`, no report — right
    /// after joining the mesh of every session it joins.
    CrashWorker {
        /// Worker process id.
        proc: u32,
    },
    /// The coordinator aborts — no goodbye, like `kill -9` — right after
    /// its `barriers`-th checkpoint barrier has committed (its images
    /// and the coordinator's state written to the durable store). The
    /// count is the run's, stored across coordinator incarnations, and
    /// only exact equality fires: a coordinator resumed from the store
    /// inherits this entry with the count already at `barriers`, and
    /// its next barrier is past it.
    CrashCoordinator {
        /// Committed barriers before the abort.
        barriers: u64,
    },
}

/// A complete, seeded fault schedule for a run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The rules; order is irrelevant except for [`LinkChaos::fate`]'s
    /// severity precedence.
    pub rules: Vec<FaultRule>,
    /// Process faults, read by the distributed executive (the mesh
    /// ignores them).
    #[serde(default)]
    pub procs: Vec<ProcFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Check the plan against a cluster that can hold at most
    /// `max_procs` workers: every process fault names a worker in
    /// `1..=max_procs`, no worker has two `Slow` entries, no `Slow` has
    /// a zero gap, no `CrashCoordinator` a zero count (neither would
    /// ever act), and no link rule names a process's link to itself
    /// (which carries no frames).
    pub fn validate(&self, max_procs: u32) -> Result<(), String> {
        if let Some(r) = self.rules.iter().find(|r| r.from == r.to) {
            return Err(format!(
                "fault rule on {0} → {0} shapes no link: a process sends nothing to itself \
                 (a coordinator crash is a CrashCoordinator entry in `procs`)",
                r.from
            ));
        }
        let mut slowed = Vec::new();
        for fault in &self.procs {
            let proc = match *fault {
                ProcFault::Slow { proc, gap_us, .. } => {
                    if slowed.contains(&proc) {
                        return Err(format!("fault plan slows proc {proc} twice"));
                    }
                    if gap_us == 0 {
                        return Err(format!("fault plan slows proc {proc} by a zero gap"));
                    }
                    slowed.push(proc);
                    proc
                }
                ProcFault::CrashWorker { proc } => proc,
                ProcFault::CrashCoordinator { barriers: 0 } => {
                    return Err("CrashCoordinator after 0 barriers never fires".into())
                }
                ProcFault::CrashCoordinator { .. } => continue,
            };
            if proc == 0 || proc > max_procs {
                return Err(format!(
                    "fault plan names proc {proc}, outside 1..={max_procs}"
                ));
            }
        }
        Ok(())
    }

    /// Worker `proc`'s slowdown as `(gap_us, events)`, if the plan has one.
    pub fn slowdown(&self, proc: u32) -> Option<(u64, u64)> {
        self.procs.iter().find_map(|f| match *f {
            ProcFault::Slow {
                proc: p,
                gap_us,
                events,
            } if p == proc => Some((gap_us, events)),
            _ => None,
        })
    }

    /// Does worker `proc` crash on joining a session's mesh?
    pub fn crashes_worker(&self, proc: u32) -> bool {
        self.procs.contains(&ProcFault::CrashWorker { proc })
    }

    /// Does the coordinator abort once `barriers` barriers have committed?
    pub fn crashes_coordinator(&self, barriers: u64) -> bool {
        self.procs
            .contains(&ProcFault::CrashCoordinator { barriers })
    }

    /// Convenience: cap worker `proc` at one executed event per `gap_us`
    /// microseconds, for its first `events` executed events (0 =
    /// unlimited).
    pub fn slow(mut self, proc: u32, gap_us: u64, events: u64) -> Self {
        self.procs.push(ProcFault::Slow {
            proc,
            gap_us,
            events,
        });
        self
    }

    /// Convenience: worker `proc` exits right after joining the mesh of
    /// every session it joins.
    pub fn crash_worker(mut self, proc: u32) -> Self {
        self.procs.push(ProcFault::CrashWorker { proc });
        self
    }

    /// Convenience: the coordinator aborts right after its `barriers`-th
    /// committed checkpoint barrier.
    pub fn crash_coordinator(mut self, barriers: u64) -> Self {
        self.procs.push(ProcFault::CrashCoordinator { barriers });
        self
    }

    /// Convenience: crash `from` when it sends its `after`-th data frame
    /// to `to`, in session `session` only.
    pub fn crash(mut self, from: u32, to: u32, after: u64, session: u32) -> Self {
        self.rules.push(FaultRule {
            from,
            to,
            session: Some(session),
            scope: FaultScope::Data,
            kind: FaultKind::Crash { after },
        });
        self
    }

    /// Convenience: partition the directed link `from → to` starting at
    /// data frame `after`, in session `session` only.
    pub fn partition(mut self, from: u32, to: u32, after: u64, session: u32) -> Self {
        self.rules.push(FaultRule {
            from,
            to,
            session: Some(session),
            scope: FaultScope::Data,
            kind: FaultKind::Partition { after },
        });
        self
    }

    /// Convenience: an *asymmetric* partition — from data frame `after`
    /// onward the directed link `from → to` silently discards every data
    /// frame, while `to → from` and this link's heartbeats keep flowing,
    /// in session `session` only. Unlike [`FaultPlan::partition`] no
    /// liveness timeout ever fires (the link looks healthy end to end)
    /// and no sequence gap is ever observed (no later frame arrives to
    /// reveal one); the run wedges with every connection green until the
    /// GVT-progress watchdog declares a stall.
    pub fn asym_partition(mut self, from: u32, to: u32, after: u64, session: u32) -> Self {
        self.rules.push(FaultRule {
            from,
            to,
            session: Some(session),
            scope: FaultScope::Data,
            kind: FaultKind::Drop(Selector::From(after)),
        });
        self
    }

    /// Convenience: silence the GVT plane of `from → to` (tokens and
    /// GVT news only — data and heartbeats keep flowing) from control
    /// frame `after` onward, in session `session` only. This wedges the
    /// Mattern ring while every liveness signal stays green: the fault
    /// the GVT-progress watchdog exists to catch.
    pub fn control_partition(mut self, from: u32, to: u32, after: u64, session: u32) -> Self {
        self.rules.push(FaultRule {
            from,
            to,
            session: Some(session),
            scope: FaultScope::Control,
            kind: FaultKind::Partition { after },
        });
        self
    }

    /// Convenience: add an unpinned data-scope rule on `from → to`.
    pub fn with(mut self, from: u32, to: u32, kind: FaultKind) -> Self {
        self.rules.push(FaultRule {
            from,
            to,
            session: None,
            scope: FaultScope::Data,
            kind,
        });
        self
    }

    /// Convenience: add an unpinned rule on `from → to` in an explicit
    /// scope.
    pub fn with_scoped(mut self, from: u32, to: u32, scope: FaultScope, kind: FaultKind) -> Self {
        self.rules.push(FaultRule {
            from,
            to,
            session: None,
            scope,
            kind,
        });
        self
    }

    /// Compile the plan's data-scope rules for one directed link in one
    /// session: the rules that apply, ready for the link's sending side
    /// to consult per data frame. `None` when no rule touches the link (the
    /// common case — zero overhead on healthy links).
    pub fn link(&self, from: u32, to: u32, session: u32) -> Option<LinkChaos> {
        self.compile(from, to, session, FaultScope::Data, 0)
    }

    /// Compile the plan's control-scope rules (tokens + GVT news) for
    /// one directed link in one session. A separate chaos stream with
    /// its own ordinal counter and a decorrelated salt, so the same
    /// `Random` selector picks independently in each scope.
    pub fn link_control(&self, from: u32, to: u32, session: u32) -> Option<LinkChaos> {
        self.compile(from, to, session, FaultScope::Control, 0x5CAF_F01D)
    }

    fn compile(
        &self,
        from: u32,
        to: u32,
        session: u32,
        scope: FaultScope,
        salt_tweak: u64,
    ) -> Option<LinkChaos> {
        let rules: Vec<FaultKind> = self
            .rules
            .iter()
            .filter(|r| {
                r.from == from
                    && r.to == to
                    && r.scope == scope
                    && r.session.is_none_or(|s| s == session)
            })
            .map(|r| r.kind)
            .collect();
        if rules.is_empty() {
            None
        } else {
            Some(LinkChaos {
                rules,
                salt: splitmix(
                    ((from as u64) << 40) ^ ((to as u64) << 16) ^ session as u64 ^ salt_tweak,
                ),
            })
        }
    }
}

/// What a link's sending side should do with one outgoing data frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataFate {
    /// Send normally.
    Deliver,
    /// Discard without sending.
    Drop,
    /// Send two copies back to back.
    Duplicate,
    /// Buffer; release after the data frame with sequence `release_after`
    /// has been sent.
    Hold {
        /// Sequence number whose transmission releases the held frame.
        release_after: u64,
    },
    /// Go silent on this link for the rest of the session.
    Partition,
    /// Abort the process.
    Crash,
}

/// A [`FaultPlan`] compiled for one directed link in one session.
#[derive(Clone, Debug)]
pub struct LinkChaos {
    rules: Vec<FaultKind>,
    salt: u64,
}

impl LinkChaos {
    /// Decide the fate of the outgoing data frame with sequence `seq`.
    /// When several rules match, the most severe wins:
    /// crash > partition > drop > delay > duplicate.
    pub fn fate(&self, seq: u64) -> DataFate {
        let mut fate = DataFate::Deliver;
        for rule in &self.rules {
            let candidate = match *rule {
                FaultKind::Crash { after } if seq >= after => DataFate::Crash,
                FaultKind::Partition { after } if seq >= after => DataFate::Partition,
                FaultKind::Drop(sel) if sel.matches(self.salt, seq) => DataFate::Drop,
                FaultKind::Delay { sel, hold } if sel.matches(self.salt, seq) => DataFate::Hold {
                    release_after: seq.saturating_add(hold.max(1)),
                },
                FaultKind::Duplicate(sel) if sel.matches(self.salt, seq) => DataFate::Duplicate,
                _ => DataFate::Deliver,
            };
            if severity(candidate) > severity(fate) {
                fate = candidate;
            }
        }
        fate
    }
}

fn severity(f: DataFate) -> u8 {
    match f {
        DataFate::Deliver => 0,
        DataFate::Duplicate => 1,
        DataFate::Hold { .. } => 2,
        DataFate::Drop => 3,
        DataFate::Partition => 4,
        DataFate::Crash => 5,
    }
}

/// SplitMix64 finalizer — a tiny, well-mixed hash for the `Random`
/// selector (and the transport's deterministic dial jitter). Quality
/// matters less than determinism and independence.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectors_pick_the_expected_frames() {
        let salt = 99;
        assert!(Selector::At(5).matches(salt, 5));
        assert!(!Selector::At(5).matches(salt, 6));
        let every = Selector::Every { every: 3, phase: 1 };
        let picked: Vec<u64> = (0..10).filter(|&s| every.matches(salt, s)).collect();
        assert_eq!(picked, vec![1, 4, 7]);
        assert!(!Selector::Every { every: 0, phase: 0 }.matches(salt, 0));
    }

    #[test]
    fn random_selector_is_deterministic_and_roughly_calibrated() {
        let sel = Selector::Random {
            seed: 42,
            per_mille: 250,
        };
        let a: Vec<bool> = (0..4000).map(|s| sel.matches(7, s)).collect();
        let b: Vec<bool> = (0..4000).map(|s| sel.matches(7, s)).collect();
        assert_eq!(a, b, "same link, same picks");
        let hits = a.iter().filter(|&&h| h).count();
        assert!(
            (700..1300).contains(&hits),
            "~25% of 4000 expected, got {hits}"
        );
        let other: Vec<bool> = (0..4000).map(|s| sel.matches(8, s)).collect();
        assert_ne!(a, other, "different links decorrelate");
    }

    #[test]
    fn link_compilation_filters_by_endpoint_and_session() {
        let plan = FaultPlan::new().crash(2, 1, 10, 0).with(
            1,
            2,
            FaultKind::Duplicate(Selector::Every { every: 1, phase: 0 }),
        );
        assert!(plan.link(2, 1, 0).is_some());
        assert!(plan.link(2, 1, 1).is_none(), "crash pinned to session 0");
        assert!(plan.link(1, 2, 3).is_some(), "unpinned rule spans sessions");
        assert!(plan.link(0, 1, 0).is_none());
    }

    #[test]
    fn severity_precedence_resolves_overlapping_rules() {
        let plan = FaultPlan::new()
            .with(1, 2, FaultKind::Duplicate(Selector::At(4)))
            .with(1, 2, FaultKind::Drop(Selector::At(4)))
            .with(
                1,
                2,
                FaultKind::Delay {
                    sel: Selector::At(6),
                    hold: 2,
                },
            );
        let chaos = plan.link(1, 2, 0).unwrap();
        assert_eq!(chaos.fate(4), DataFate::Drop, "drop beats duplicate");
        assert_eq!(chaos.fate(5), DataFate::Deliver);
        assert_eq!(chaos.fate(6), DataFate::Hold { release_after: 8 });
    }

    #[test]
    fn partition_and_crash_latch_from_their_threshold() {
        let chaos = FaultPlan::new()
            .partition(1, 2, 3, 0)
            .link(1, 2, 0)
            .unwrap();
        assert_eq!(chaos.fate(2), DataFate::Deliver);
        assert_eq!(chaos.fate(3), DataFate::Partition);
        assert_eq!(chaos.fate(100), DataFate::Partition);
        let chaos = FaultPlan::new().crash(1, 2, 3, 0).link(1, 2, 0).unwrap();
        assert_eq!(chaos.fate(7), DataFate::Crash);
    }

    #[test]
    fn asym_partition_drops_one_direction_only() {
        let plan = FaultPlan::new().asym_partition(2, 1, 5, 0);
        let forward = plan.link(2, 1, 0).expect("forward link is shaped");
        assert_eq!(forward.fate(4), DataFate::Deliver, "pre-threshold flows");
        assert_eq!(forward.fate(5), DataFate::Drop, "threshold frame dropped");
        assert_eq!(forward.fate(5000), DataFate::Drop, "latched forever");
        assert!(
            plan.link(1, 2, 0).is_none(),
            "reverse direction is untouched"
        );
        assert!(
            plan.link_control(2, 1, 0).is_none(),
            "tokens and GVT news still flow forward — the ring wedges on \
             the data counts, not on a silenced control plane"
        );
        assert!(plan.link(2, 1, 1).is_none(), "pinned to session 0");
    }

    #[test]
    fn from_selector_matches_a_latched_suffix() {
        assert!(!Selector::From(3).matches(0, 2));
        assert!(Selector::From(3).matches(0, 3));
        assert!(Selector::From(3).matches(0, u64::MAX));
        assert!(Selector::From(0).matches(7, 0), "zero threshold = all");
        let json = serde_json::to_string(&Selector::From(3)).unwrap();
        let back: Selector = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Selector::From(3));
    }

    #[test]
    fn scopes_compile_to_independent_chaos_streams() {
        let plan = FaultPlan::new().control_partition(2, 1, 5, 0).with(
            2,
            1,
            FaultKind::Drop(Selector::At(3)),
        );
        let data = plan.link(2, 1, 0).expect("data rule present");
        let ctl = plan.link_control(2, 1, 0).expect("control rule present");
        assert_eq!(data.fate(3), DataFate::Drop);
        assert_eq!(data.fate(5), DataFate::Deliver, "partition is control-only");
        assert_eq!(ctl.fate(3), DataFate::Deliver, "drop is data-only");
        assert_eq!(ctl.fate(5), DataFate::Partition);
        assert!(
            plan.link_control(2, 1, 1).is_none(),
            "control partition pinned to session 0"
        );
        let data_only = FaultPlan::new().crash(2, 1, 0, 0);
        assert!(data_only.link_control(2, 1, 0).is_none());
    }

    #[test]
    fn scope_salts_decorrelate_random_selectors() {
        let sel = Selector::Random {
            seed: 9,
            per_mille: 500,
        };
        let plan = FaultPlan::new()
            .with(1, 2, FaultKind::Drop(sel))
            .with_scoped(1, 2, FaultScope::Control, FaultKind::Drop(sel));
        let data = plan.link(1, 2, 0).unwrap();
        let ctl = plan.link_control(1, 2, 0).unwrap();
        let d: Vec<DataFate> = (0..256).map(|s| data.fate(s)).collect();
        let c: Vec<DataFate> = (0..256).map(|s| ctl.fate(s)).collect();
        assert_ne!(d, c, "same selector must pick differently per scope");
    }

    #[test]
    fn proc_faults_round_trip_through_json_and_shape_no_link() {
        let plan = FaultPlan::new()
            .crash(2, 1, 10, 0)
            .slow(1, 400, 5_000)
            .crash_worker(3)
            .crash_coordinator(3);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert!(
            plan.link(0, 1, 0).is_none() && plan.link(1, 0, 0).is_none(),
            "process faults must not shape any link"
        );

        assert_eq!(plan.slowdown(1), Some((400, 5_000)));
        assert_eq!(plan.slowdown(2), None);
        assert!(plan.crashes_worker(3) && !plan.crashes_worker(1));
        assert!(plan.crashes_coordinator(3), "fires at exactly its count");
        assert!(!plan.crashes_coordinator(2) && !plan.crashes_coordinator(4));

        // Hand-written entries may leave out the defaulted fields.
        let short: FaultPlan = serde_json::from_str(
            r#"{"rules":[],"procs":[{"Slow":{"proc":1,"gap_us":200}},{"CrashWorker":{"proc":2}}]}"#,
        )
        .unwrap();
        assert_eq!(short.slowdown(1), Some((200, 0)));
        assert!(short.crashes_worker(2));
    }

    #[test]
    fn validation_refuses_what_would_silently_misfire() {
        let base = || FaultPlan::new().crash(2, 1, 10, 0);
        assert!(base().slow(1, 100, 0).slow(2, 100, 0).validate(2).is_ok());
        assert!(base().crash_coordinator(1).validate(1).is_ok());

        let self_link = FaultPlan::new().with(0, 0, FaultKind::Crash { after: 3 });
        let err = self_link.validate(2).unwrap_err();
        assert!(
            err.contains("0 → 0") && err.contains("CrashCoordinator"),
            "{err}"
        );

        let err = base()
            .slow(1, 100, 0)
            .slow(1, 100, 0)
            .validate(2)
            .unwrap_err();
        assert!(err.contains("slows proc 1 twice"), "{err}");

        let err = base().slow(1, 0, 0).validate(2).unwrap_err();
        assert!(err.contains("zero gap"), "{err}");

        let err = base().crash_coordinator(0).validate(2).unwrap_err();
        assert!(err.contains("never fires"), "{err}");

        for proc in [0, 3] {
            for plan in [base().slow(proc, 100, 0), base().crash_worker(proc)] {
                let err = plan.validate(2).unwrap_err();
                assert!(
                    err.contains(&format!("proc {proc}, outside 1..=2")),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = FaultPlan::new()
            .crash(2, 0, 40, 0)
            .partition(1, 2, 10, 0)
            .control_partition(2, 1, 4, 0)
            .with(
                1,
                2,
                FaultKind::Delay {
                    sel: Selector::Random {
                        seed: 1,
                        per_mille: 100,
                    },
                    hold: 3,
                },
            );
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        // Pre-scope plans (no `scope` field) must still parse, as data
        // scope — old job files stay valid — and with no process faults.
        let legacy = r#"{"rules":[{"from":1,"to":2,"kind":{"Drop":{"At":5}}}]}"#;
        let plan: FaultPlan = serde_json::from_str(legacy).unwrap();
        assert_eq!(plan.rules[0].scope, FaultScope::Data);
        assert!(plan.procs.is_empty());
    }
}
