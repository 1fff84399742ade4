//! Deterministic fault injection for the process mesh.
//!
//! Recovery code that is only exercised by real crashes is recovery code
//! that has never run. This module makes the failures a network of
//! workstations suffers *reproducible*. Inside one TCP connection bytes
//! are never duplicated, reordered or silently lost: a link delivers in
//! order, goes silent, or dies. So a [`FaultPlan`] is a list of
//! declarative rules of exactly those shapes — partition a link,
//! black-hole one direction of it, crash a process — that the TCP mesh
//! applies on the *sending* side of each link, keyed on the link's count
//! of [`Frame::Data`] frames rather than wall-clock time, so the same
//! plan fires at the same frame on every run. Every rule latches: from
//! its frame on it holds until the session ends.
//!
//! Rules carry a [`FaultScope`]. The default, [`FaultScope::Data`],
//! counts `Data` frames. [`FaultScope::Control`] instead targets the GVT
//! plane — `Token` and `GvtNews` frames, counted by their own per-link
//! ordinal — which is how a *wedged-but-connected* worker is
//! manufactured: data and heartbeats keep flowing, the Mattern ring goes
//! silent, and only a GVT-progress watchdog can tell anything is wrong.
//! In that scope `Partition` and `Blackhole` alike silence the GVT
//! frames. Heartbeats and the checkpoint frames are exempt in every
//! scope: silencing heartbeats is what [`FaultKind::Partition`] does.
//! What recovery must guarantee is that the committed trace survives
//! every rule.
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

/// One kind of injected failure. Each fires at the link's `after`-th
/// frame of its scope (counted from 0) and holds from there on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// From data frame `after` onward, the link goes completely silent —
    /// including heartbeats — until the session ends. The peer's liveness
    /// timeout fires and recovery takes over.
    Partition {
        /// First data frame swallowed by the partition.
        after: u64,
    },
    /// Abort the whole sending process the moment it would send data
    /// frame `after` on this link (`std::process::abort`, no cleanup —
    /// the hardest failure the coordinator must survive).
    Crash {
        /// Data frame that triggers the abort.
        after: u64,
    },
    /// An *asymmetric partition*: from data frame `after` onward the
    /// directed link swallows all its data, while its heartbeats and GVT
    /// frames — and the reverse direction — keep flowing. Nothing later
    /// arrives, so the receiver sees nothing out of sequence and liveness
    /// stays green; only the GVT plane betrays the fault (the Mattern
    /// counts never reconcile), so the stall watchdog is the detector.
    Blackhole {
        /// First data frame swallowed.
        after: u64,
    },
}

/// Which frame class a rule perturbs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultScope {
    /// `Data` frames, counted per link.
    #[default]
    Data,
    /// `Token` / `GvtNews` frames, counted per link by their own ordinal
    /// (see the module docs).
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

/// A complete, deterministic fault schedule for a run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The rules, in any order (where several fire, the most severe
    /// wins: see [`LinkChaos::fate`]).
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
    /// onward the directed link `from → to` swallows every data frame,
    /// while `to → from` and this link's heartbeats and GVT frames keep
    /// flowing, in session `session` only. Unlike [`FaultPlan::partition`]
    /// no liveness timeout ever fires (the link looks healthy end to
    /// end); the run wedges with every connection green until the
    /// GVT-progress watchdog declares a stall.
    pub fn blackhole(mut self, from: u32, to: u32, after: u64, session: u32) -> Self {
        self.rules.push(FaultRule {
            from,
            to,
            session: Some(session),
            scope: FaultScope::Data,
            kind: FaultKind::Blackhole { after },
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

    /// Compile the plan's data-scope rules for one directed link in one
    /// session: the rules that apply, ready for the link's sending side
    /// to consult per data frame. `None` when no rule touches the link (the
    /// common case — zero overhead on healthy links).
    pub fn link(&self, from: u32, to: u32, session: u32) -> Option<LinkChaos> {
        self.compile(from, to, session, FaultScope::Data)
    }

    /// Compile the plan's control-scope rules (tokens + GVT news) for
    /// one directed link in one session, consulted with the link's own
    /// count of control frames.
    pub fn link_control(&self, from: u32, to: u32, session: u32) -> Option<LinkChaos> {
        self.compile(from, to, session, FaultScope::Control)
    }

    fn compile(&self, from: u32, to: u32, session: u32, scope: FaultScope) -> Option<LinkChaos> {
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
        (!rules.is_empty()).then_some(LinkChaos { rules })
    }
}

/// What a link's sending side does with one outgoing frame of a rule's
/// scope, in rising severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DataFate {
    /// Send normally.
    Deliver,
    /// Discard without sending; everything else on the link flows.
    Blackhole,
    /// Go silent on this link for the rest of the session.
    Partition,
    /// Abort the process.
    Crash,
}

/// A [`FaultPlan`] compiled for one directed link in one session.
#[derive(Clone, Debug)]
pub struct LinkChaos {
    rules: Vec<FaultKind>,
}

impl LinkChaos {
    /// Decide the fate of the link's outgoing frame number `n` (of the
    /// scope it was compiled for). When several rules have fired, the
    /// most severe wins.
    pub fn fate(&self, n: u64) -> DataFate {
        self.rules
            .iter()
            .map(|rule| match *rule {
                FaultKind::Crash { after } if n >= after => DataFate::Crash,
                FaultKind::Partition { after } if n >= after => DataFate::Partition,
                FaultKind::Blackhole { after } if n >= after => DataFate::Blackhole,
                _ => DataFate::Deliver,
            })
            .max()
            .unwrap_or(DataFate::Deliver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_compilation_filters_by_endpoint_and_session() {
        let mut plan = FaultPlan::new().crash(2, 1, 10, 0);
        plan.rules.push(FaultRule {
            from: 1,
            to: 2,
            session: None,
            scope: FaultScope::Data,
            kind: FaultKind::Blackhole { after: 5 },
        });
        assert!(plan.link(2, 1, 0).is_some());
        assert!(plan.link(2, 1, 1).is_none(), "crash pinned to session 0");
        assert!(plan.link(1, 2, 3).is_some(), "unpinned rule spans sessions");
        assert!(plan.link(0, 1, 0).is_none());
    }

    #[test]
    fn every_kind_latches_from_its_threshold_and_the_most_severe_wins() {
        let chaos = FaultPlan::new()
            .partition(1, 2, 3, 0)
            .link(1, 2, 0)
            .unwrap();
        assert_eq!(chaos.fate(2), DataFate::Deliver);
        assert_eq!(chaos.fate(3), DataFate::Partition);
        assert_eq!(chaos.fate(100), DataFate::Partition);
        let chaos = FaultPlan::new().crash(1, 2, 3, 0).link(1, 2, 0).unwrap();
        assert_eq!(chaos.fate(7), DataFate::Crash);
        let chaos = FaultPlan::new()
            .blackhole(1, 2, 2, 0)
            .crash(1, 2, 6, 0)
            .partition(1, 2, 4, 0)
            .link(1, 2, 0)
            .unwrap();
        let fates: Vec<DataFate> = (0..8).map(|n| chaos.fate(n)).collect();
        use DataFate::*;
        assert_eq!(
            fates,
            [Deliver, Deliver, Blackhole, Blackhole, Partition, Partition, Crash, Crash]
        );
    }

    #[test]
    fn blackhole_swallows_one_direction_only() {
        let plan = FaultPlan::new().blackhole(2, 1, 5, 0);
        let forward = plan.link(2, 1, 0).expect("forward link is shaped");
        assert_eq!(forward.fate(4), DataFate::Deliver, "pre-threshold flows");
        assert_eq!(
            forward.fate(5),
            DataFate::Blackhole,
            "threshold frame swallowed"
        );
        assert_eq!(forward.fate(5000), DataFate::Blackhole, "latched forever");
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
    fn scopes_compile_to_independent_chaos_streams() {
        let plan = FaultPlan::new()
            .control_partition(2, 1, 5, 0)
            .blackhole(2, 1, 3, 0);
        let data = plan.link(2, 1, 0).expect("data rule present");
        let ctl = plan.link_control(2, 1, 0).expect("control rule present");
        assert_eq!(data.fate(3), DataFate::Blackhole);
        assert_eq!(
            data.fate(5),
            DataFate::Blackhole,
            "partition is control-only"
        );
        assert_eq!(ctl.fate(3), DataFate::Deliver, "blackhole is data-only");
        assert_eq!(ctl.fate(5), DataFate::Partition);
        assert!(
            plan.link_control(2, 1, 1).is_none(),
            "control partition pinned to session 0"
        );
        let data_only = FaultPlan::new().crash(2, 1, 0, 0);
        assert!(data_only.link_control(2, 1, 0).is_none());
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

        let self_link = FaultPlan::new().crash(0, 0, 3, 0);
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
            .blackhole(2, 1, 7, 1);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        // Pre-scope plans (no `scope` field) must still parse, as data
        // scope — old job files stay valid — and with no process faults.
        let legacy = r#"{"rules":[{"from":1,"to":2,"kind":{"Partition":{"after":5}}}]}"#;
        let plan: FaultPlan = serde_json::from_str(legacy).unwrap();
        assert_eq!(plan.rules[0].scope, FaultScope::Data);
        assert!(plan.procs.is_empty());
    }
}
