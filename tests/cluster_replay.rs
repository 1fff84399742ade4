//! Replays of recorded cluster-loop rounds.
//!
//! Each fixture under `tests/fixtures/rounds/` holds the job of one
//! distributed run and every complete load round its coordinator fed
//! the cluster loop — the `rounds` series of the report's telemetry —
//! each with the plan taken on it. They were recorded while LP
//! migration and elastic membership were still two controllers, with
//! the two fields no controller reads (`rolled_back`, `retained`) left
//! out to keep each file small. Each job has since been rewritten in
//! today's format: its `balance` and `elastic` sections became the one
//! `cluster` policy the loader of the time mapped them onto, and the
//! knobs no build reads any more were dropped; the rounds are as
//! recorded.
//!
//! A replay feeds each session's rounds to a fresh [`ClusterController`],
//! built under the job's `cluster` policy (as [`parse_job`] reads it)
//! and with the budgets the run had left, exactly as the coordinator
//! does. On a
//! stream where one actuation was armed, it must propose the plan the
//! run took, on the same round, with the same assignment and moves; on
//! the healthy stream, none.

use serde::Deserialize;
use warped_online::cluster::parse_job;
use warped_online::control::cluster::{LoadRound, Plan};
use warped_online::control::{ClusterController, ClusterPolicy};

/// One recorded run.
#[derive(Deserialize)]
struct Recording {
    /// The job the run was given.
    job: serde_json::Value,
    /// The worker count the run started with.
    n_workers: u32,
    /// The run's scale records in order, by direction (`out`, `in`,
    /// `fallback`): a fallback also spends the scale budget.
    scales: Vec<String>,
    rounds: Vec<LoadRound>,
}

fn load(name: &str) -> Recording {
    let path = format!(
        "{}/tests/fixtures/rounds/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn policy_of(rec: &Recording) -> ClusterPolicy {
    parse_job(&serde_json::to_string(&rec.job).unwrap())
        .expect("the recorded job loads")
        .cluster
}

/// A session's first plan, by the index of the round it fired on.
type Fired = Option<(usize, Plan)>;

/// Per session, in order: the plan the run took and the plan `policy`
/// proposes, each with the index of its round in that session.
fn replay(rec: &Recording, policy: &ClusterPolicy) -> Vec<(u32, Fired, Fired)> {
    let n_lps = rec.rounds[0].loads.len() as u32;
    assert_eq!(rec.rounds[0].owners.iter().max(), Some(&rec.n_workers));
    let mut sessions: Vec<u32> = rec.rounds.iter().map(|r| r.session).collect();
    sessions.dedup();
    let (mut migrations, mut scales) = (0u32, 0u32);
    let mut scale_records = rec.scales.iter().peekable();
    let mut out = Vec::new();
    for session in sessions {
        let rounds: Vec<&LoadRound> = rec.rounds.iter().filter(|r| r.session == session).collect();
        let taken = rounds
            .iter()
            .enumerate()
            .find_map(|(i, r)| r.plan.clone().map(|p| (i, p)));
        let budgeted = ClusterPolicy {
            max_migrations: policy.max_migrations.saturating_sub(migrations),
            max_scales: policy.max_scales.saturating_sub(scales),
            ..policy.clone()
        };
        let mut ctl = budgeted
            .armed()
            .then(|| ClusterController::new(budgeted, n_lps));
        let proposed = rounds.iter().enumerate().find_map(|(i, r)| {
            let assign = warped_online::control::cluster::Assignment::from_owners(
                r.owners.clone(),
                *r.owners.iter().max().unwrap(),
            )
            .unwrap();
            let plan = ctl.as_mut()?.observe(&assign, &r.loads, r.can_add)?;
            Some((i, plan))
        });
        // The budgets the next session starts with are what the run spent.
        if let Some((_, p)) = &taken {
            if p.assignment.n_workers() == *rounds[0].owners.iter().max().unwrap() {
                migrations += 1;
            } else {
                scales += 1;
                scale_records.next();
                while scale_records.next_if(|d| *d == "fallback").is_some() {
                    scales += 1;
                }
            }
        }
        out.push((session, taken, proposed));
    }
    out
}

/// The replay proposes exactly what the run took, session by session.
/// Returns how many plans it matched.
fn assert_replays(name: &str) -> usize {
    let rec = load(name);
    let policy = policy_of(&rec);
    let mut matched = 0;
    for (session, taken, proposed) in replay(&rec, &policy) {
        match (&taken, &proposed) {
            (None, None) => {}
            (Some((i, old)), Some((j, new))) => {
                matched += 1;
                assert_eq!(i, j, "{name} session {session}: fired on another round");
                assert_eq!(old.assignment, new.assignment, "{name} session {session}");
                assert_eq!(old.moves, new.moves, "{name} session {session}");
                assert!(
                    (old.pressure - new.pressure).abs() < 1e-9,
                    "{name} session {session}"
                );
            }
            _ => panic!("{name} session {session}: took {taken:?}, replay proposes {proposed:?}"),
        }
    }
    matched
}

#[test]
fn migration_streams_replay_to_the_plans_taken() {
    for name in [
        "balance_slowed_worker",
        "balance_throughput",
        "dataplane_migration",
    ] {
        assert!(assert_replays(name) >= 1, "{name}: no plan to compare");
    }
}

#[test]
fn scaling_streams_replay_to_the_plans_taken() {
    for name in [
        "elastic_skew_out",
        "elastic_transient_skew",
        "elastic_parked_joiner",
        "elastic_dead_joiner",
        "elastic_scale_in",
        "chaos_newcomer_crash",
    ] {
        assert!(assert_replays(name) >= 1, "{name}: no plan to compare");
    }
}

#[test]
fn the_healthy_stream_replays_to_no_plan() {
    let rec = load("balance_healthy");
    assert!(rec.rounds.iter().all(|r| r.plan.is_none()));
    assert_eq!(assert_replays("balance_healthy"), 0);
}

/// The diurnal wave's one policy, as `distributed_serve` and the
/// `serve_cluster` example set it: elastic's patience, warmup and low
/// threshold, and a high threshold between the two old ones.
fn diurnal_policy() -> ClusterPolicy {
    ClusterPolicy {
        high: 0.5,
        low: 0.45,
        patience: 1,
        warmup_rounds: 1,
        max_migrations: 1,
        workers: Some((2, 3)),
        max_scales: 3,
        spawn: true,
    }
}

#[test]
fn the_diurnal_stream_takes_the_same_steps_under_its_one_policy() {
    // Both loops were armed on this run, with two patiences, two warmups
    // and three thresholds, so no one policy replays it round for round.
    // Under the ported one every session still takes the step the run
    // took, with the same moves; the migration fires one round sooner.
    let rec = load("serve_diurnal_wave");
    let steps = replay(&rec, &diurnal_policy());
    assert_eq!(steps.len(), 4);
    for (session, taken, proposed) in steps {
        let (Some((i, old)), Some((j, new))) = (taken, proposed) else {
            panic!("session {session}: a step taken or proposed alone");
        };
        assert_eq!(old.assignment, new.assignment, "session {session}");
        assert_eq!(old.moves, new.moves, "session {session}");
        assert!(j <= i, "session {session}: round {j}, taken on {i}");
    }
}
