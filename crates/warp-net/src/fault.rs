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

/// A complete, seeded fault schedule for a run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The rules; order is irrelevant except for [`LinkChaos::fate`]'s
    /// severity precedence.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when no rule exists at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
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

    /// Convenience: abort the *coordinator* after it has completed
    /// `after` checkpoint barriers (persisted snapshots, `SnapshotAck`
    /// broadcast and journal record included — the crash lands *between*
    /// barriers, the exact window fail-over must survive). Encoded as a
    /// `Crash` rule on the self-link `0 → 0`, a link that carries no
    /// data frames, so the rule is inert for the ordinary sender-side
    /// chaos machinery; the coordinator scans for it at startup via
    /// [`FaultPlan::coordinator_crash_after`]. Unpinned to a session on
    /// purpose — the barrier counter, not the session epoch, is what
    /// arms it — but a *resumed* coordinator starts a fresh counter, so
    /// pair this with a resume-side guard (the executive clears the
    /// plan's self-rule on `--resume`) when re-triggering is unwanted.
    pub fn crash_coordinator_after(mut self, after: u64) -> Self {
        self.rules.push(FaultRule {
            from: 0,
            to: 0,
            session: None,
            scope: FaultScope::Data,
            kind: FaultKind::Crash { after },
        });
        self
    }

    /// The barrier count armed by [`FaultPlan::crash_coordinator_after`],
    /// if any rule carries one (the smallest wins when several do).
    pub fn coordinator_crash_after(&self) -> Option<u64> {
        self.rules
            .iter()
            .filter_map(|r| match (r.from, r.to, r.kind) {
                (0, 0, FaultKind::Crash { after }) => Some(after),
                _ => None,
            })
            .min()
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
    fn coordinator_crash_rule_is_inert_on_real_links_but_scannable() {
        let plan = FaultPlan::new()
            .crash_coordinator_after(3)
            .crash_coordinator_after(7)
            .crash(2, 1, 10, 0);
        assert_eq!(plan.coordinator_crash_after(), Some(3), "smallest wins");
        assert!(
            plan.link(0, 1, 0).is_none() && plan.link(1, 0, 0).is_none(),
            "the self-link rule must not shape any real link"
        );
        assert!(FaultPlan::new().coordinator_crash_after().is_none());
        let ordinary = FaultPlan::new().crash(2, 0, 40, 0);
        assert!(
            ordinary.coordinator_crash_after().is_none(),
            "a worker-side crash rule is not a coordinator crash"
        );
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back.coordinator_crash_after(), Some(3));
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
        // scope — old job files stay valid.
        let legacy = r#"{"rules":[{"from":1,"to":2,"kind":{"Drop":{"At":5}}}]}"#;
        let plan: FaultPlan = serde_json::from_str(legacy).unwrap();
        assert_eq!(plan.rules[0].scope, FaultScope::Data);
    }
}
