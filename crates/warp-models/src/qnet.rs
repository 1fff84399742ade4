//! QNET: a closed queueing network of FCFS stations.
//!
//! An extension workload beyond the paper's two models, included because
//! it is the *opposite* cancellation temperament to SMMP: a station's
//! departure time depends on its queue state (`busy_until`), so a
//! straggler shifts every subsequent departure and regenerated messages
//! rarely match the prematurely sent ones — lazy cancellation misses,
//! and dynamic cancellation should settle on **aggressive** across the
//! board. Together with SMMP (all lazy) and RAID (mixed), the three
//! models span the space the paper's Section 5 observations describe.
//!
//! Jobs circulate forever-minus-TTL among stations: on completing service
//! at one station a job is routed (state-seeded randomness) to another,
//! arriving after a transfer delay; each station serves one job at a
//! time, FCFS, with exponential service times drawn on arrival. Virtual
//! time is in microseconds.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use warp_core::rng::SimRng;
use warp_core::wire::{PayloadReader, PayloadWriter};
use warp_core::{DynState, Event, ExecutionContext, ObjectId, ObjectState, Partition, SimObject};
use warp_exec::SimulationSpec;

/// A job arriving at a station.
pub const K_JOB: u16 = 30;

/// QNET configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QnetConfig {
    /// Service stations.
    pub n_stations: usize,
    /// Logical processes (stations split round-robin).
    pub n_lps: usize,
    /// Jobs injected at time zero (spread over stations).
    pub n_jobs: usize,
    /// Service hops each job makes before retiring.
    pub hops_per_job: u32,
    /// Mean service time, µs.
    pub mean_service_us: f64,
    /// Inter-station transfer delay, µs.
    pub transfer_us: u64,
    /// Workload seed.
    pub seed: u64,
}

impl QnetConfig {
    /// A medium closed network: 16 stations over 4 LPs, 32 jobs.
    pub fn new(hops_per_job: u32, seed: u64) -> Self {
        QnetConfig {
            n_stations: 16,
            n_lps: 4,
            n_jobs: 32,
            hops_per_job,
            mean_service_us: 400.0,
            transfer_us: 50,
            seed,
        }
    }

    /// Total service completions the run will execute.
    pub fn expected_services(&self) -> u64 {
        self.n_jobs as u64 * self.hops_per_job as u64
    }

    /// Build the simulation spec.
    pub fn spec(&self) -> SimulationSpec {
        let cfg = self.clone();
        let partition = Partition::round_robin(self.n_stations, self.n_lps);
        SimulationSpec::new(
            partition,
            Arc::new(move |id| {
                Box::new(Station {
                    cfg: cfg.clone(),
                    me: id.0,
                    state: StationState {
                        rng: SimRng::derive(cfg.seed, id.0 as u64),
                        busy_until: 0,
                        served: 0,
                    },
                }) as Box<dyn SimObject>
            }),
        )
    }
}

#[derive(Clone, Debug)]
struct StationState {
    rng: SimRng,
    /// FCFS server occupancy: the time the server frees up. This is the
    /// queue-state dependence that makes QNET favor aggressive
    /// cancellation — a straggler shifts it, and with it every
    /// subsequent departure time.
    busy_until: u64,
    served: u64,
}
impl ObjectState for StationState {
    fn encode(&self, w: &mut PayloadWriter) {
        self.rng.encode(w);
        w.u64(self.busy_until).u64(self.served);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        Ok(StationState {
            rng: SimRng::decode(r)?,
            busy_until: r.u64()?,
            served: r.u64()?,
        })
    }
}

struct Station {
    cfg: QnetConfig,
    me: u32,
    state: StationState,
}

impl Station {
    fn serve(&mut self, ctx: &mut dyn ExecutionContext, ttl: u32) {
        self.state.served += 1;
        let now = ctx.now().ticks();
        let service = self.state.rng.exp_ticks(self.cfg.mean_service_us);
        let start = self.state.busy_until.max(now);
        let departs = start + service;
        self.state.busy_until = departs;
        if ttl == 0 {
            return;
        }
        // Route to a random *other* station.
        let other = self.state.rng.below(self.cfg.n_stations as u64 - 1) as u32;
        let dst = if other >= self.me { other + 1 } else { other };
        let mut w = PayloadWriter::new();
        w.u32(ttl - 1);
        let at = warp_core::VirtualTime::new(departs + self.cfg.transfer_us);
        ctx.try_send_at(ObjectId(dst), at, K_JOB, w.finish())
            .expect("qnet route");
    }
}

impl SimObject for Station {
    fn name(&self) -> String {
        format!("station-{}", self.me)
    }
    fn init(&mut self, ctx: &mut dyn ExecutionContext) {
        // Jobs are spread round-robin over stations at t=0.
        let mine = (self.cfg.n_jobs as u32 + self.cfg.n_stations as u32 - 1 - self.me)
            / self.cfg.n_stations as u32;
        for _ in 0..mine {
            self.serve(ctx, self.cfg.hops_per_job);
        }
    }
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        debug_assert_eq!(ev.kind, K_JOB);
        let ttl = PayloadReader::new(&ev.payload).u32().expect("qnet ttl");
        self.serve(ctx, ttl);
    }
    fn state(&self) -> &dyn DynState {
        &self.state
    }
    fn state_mut(&mut self) -> &mut dyn DynState {
        &mut self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_exec::{run_sequential, run_virtual};

    #[test]
    fn jobs_conserve_hops() {
        let cfg = QnetConfig {
            n_stations: 6,
            n_lps: 2,
            n_jobs: 7,
            ..QnetConfig::new(15, 3)
        };
        let seq = run_sequential(&cfg.spec().with_gvt_period(None));
        // init() performs each job's first service in place and routes it
        // onward; the job then arrives as an event `hops_per_job` times
        // (TTLs hops-1 down to 0), so committed events = jobs × hops.
        assert_eq!(seq.committed_events, cfg.expected_services());
    }

    #[test]
    fn virtual_matches_sequential() {
        let cfg = QnetConfig {
            n_stations: 8,
            n_lps: 4,
            n_jobs: 12,
            ..QnetConfig::new(25, 9)
        };
        let spec = cfg.spec().with_gvt_period(None).with_traces();
        let seq = run_sequential(&spec);
        let tw = run_virtual(&spec);
        assert_eq!(seq.committed_events, tw.committed_events);
        assert_eq!(seq.trace_digests(), tw.trace_digests());
        assert!(
            tw.kernel.rollbacks() > 0,
            "closed network must produce rollbacks"
        );
    }

    #[test]
    fn qnet_favors_aggressive_cancellation() {
        use warp_control::DynamicCancellation;
        use warp_core::policy::{FixedCheckpoint, ObjectPolicies};
        let cfg = QnetConfig::new(60, 17);
        let spec = cfg
            .spec()
            .with_gvt_period(None)
            .with_policies(Arc::new(|_| {
                ObjectPolicies::new(
                    Box::new(DynamicCancellation::dc(16, 0.45, 0.2, 16)),
                    Box::new(FixedCheckpoint::new(4)),
                )
            }));
        let tw = run_virtual(&spec);
        assert!(tw.kernel.rollbacks() > 0);
        let (mut aggressive, mut total) = (0, 0);
        for lp in &tw.per_lp {
            for o in &lp.objects {
                total += 1;
                if o.final_mode == "Aggressive" {
                    aggressive += 1;
                }
            }
        }
        assert!(
            aggressive * 4 >= total * 3,
            "queue-state-dependent stations should overwhelmingly settle aggressive: {aggressive}/{total}"
        );
        // And the hit ratio evidence backs the setting.
        let hits = tw.kernel.lazy_hits + tw.kernel.monitor_hits;
        let misses = tw.kernel.lazy_misses + tw.kernel.monitor_misses;
        assert!(
            misses > hits,
            "comparisons should be miss-dominated: {hits}h/{misses}m"
        );
    }

    #[test]
    fn busy_until_serializes_departures() {
        let cfg = QnetConfig::new(5, 1);
        let mut st = Station {
            cfg: cfg.clone(),
            me: 0,
            state: StationState {
                rng: SimRng::derive(1, 0),
                busy_until: 0,
                served: 0,
            },
        };
        let mut ctx =
            warp_core::object::RecordingContext::new(ObjectId(0), warp_core::VirtualTime::new(10));
        st.serve(&mut ctx, 3);
        let first_departure = st.state.busy_until;
        st.serve(&mut ctx, 3);
        assert!(
            st.state.busy_until > first_departure,
            "second arrival at the same instant must queue behind the first"
        );
        assert_eq!(ctx.sent.len(), 2);
    }
}
