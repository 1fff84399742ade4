//! PHOLD: the standard synthetic PDES benchmark (Fujimoto 1990), included
//! as an extra validation workload beyond the paper's SMMP and RAID.
//!
//! A fixed population of jobs circulates among objects: each received job
//! is re-sent to a (seeded-)random object after an exponentially
//! distributed delay. A time-to-live bounds the run. The `locality` knob
//! controls how often a job stays within the sender's LP — the lever for
//! communication-intensity studies.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use warp_core::rng::SimRng;
use warp_core::wire::{PayloadReader, PayloadWriter};
use warp_core::{DynState, Event, ExecutionContext, ObjectId, ObjectState, Partition, SimObject};
use warp_exec::SimulationSpec;

/// The circulating job message.
pub const K_JOB: u16 = 20;

/// PHOLD configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PholdConfig {
    /// Simulation objects.
    pub n_objects: usize,
    /// Logical processes.
    pub n_lps: usize,
    /// Jobs started per object at time zero.
    pub population_per_object: usize,
    /// Hops each job makes before retiring.
    pub ttl: u32,
    /// Mean hop delay in ticks.
    pub mean_delay: f64,
    /// Probability a hop stays within the sender's LP.
    pub locality: f64,
    /// Workload seed.
    pub seed: u64,
}

impl PholdConfig {
    /// A balanced default: 32 objects over 4 LPs, 1 job each.
    pub fn new(ttl: u32, seed: u64) -> Self {
        PholdConfig {
            n_objects: 32,
            n_lps: 4,
            population_per_object: 1,
            ttl,
            mean_delay: 50.0,
            locality: 0.5,
            seed,
        }
    }

    /// Build the simulation spec (round-robin partition).
    pub fn spec(&self) -> SimulationSpec {
        let cfg = self.clone();
        let partition = Partition::round_robin(self.n_objects, self.n_lps);
        SimulationSpec::new(
            partition,
            Arc::new(move |id| {
                Box::new(Phold {
                    cfg: cfg.clone(),
                    me: id.0,
                    state: PholdState {
                        rng: SimRng::derive(cfg.seed, id.0 as u64),
                        hops_seen: 0,
                    },
                }) as Box<dyn SimObject>
            }),
        )
    }

    /// Total job hops the run will execute.
    pub fn expected_hops(&self) -> u64 {
        (self.n_objects * self.population_per_object) as u64 * (self.ttl as u64 + 1)
    }
}

#[derive(Clone, Debug)]
struct PholdState {
    rng: SimRng,
    hops_seen: u64,
}
impl ObjectState for PholdState {
    fn encode(&self, w: &mut PayloadWriter) {
        self.rng.encode(w);
        w.u64(self.hops_seen);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        Ok(PholdState {
            rng: SimRng::decode(r)?,
            hops_seen: r.u64()?,
        })
    }
}

struct Phold {
    cfg: PholdConfig,
    me: u32,
    state: PholdState,
}

impl Phold {
    fn hop(&mut self, ctx: &mut dyn ExecutionContext, ttl: u32) {
        if ttl == 0 {
            return;
        }
        let n = self.cfg.n_objects as u64;
        let per_lp = n / self.cfg.n_lps as u64;
        let dst = if self.state.rng.chance(self.cfg.locality) && per_lp > 0 {
            // Stay on my LP: objects with the same residue (round-robin).
            let k = self.state.rng.below(per_lp);
            (self.me as u64 % self.cfg.n_lps as u64) + k * self.cfg.n_lps as u64
        } else {
            self.state.rng.below(n)
        };
        let delay = self.state.rng.exp_ticks(self.cfg.mean_delay);
        let mut w = PayloadWriter::new();
        w.u32(ttl - 1);
        ctx.send(ObjectId(dst as u32), delay, K_JOB, w.finish());
    }
}

impl SimObject for Phold {
    fn name(&self) -> String {
        format!("phold-{}", self.me)
    }
    fn init(&mut self, ctx: &mut dyn ExecutionContext) {
        for _ in 0..self.cfg.population_per_object {
            self.hop(ctx, self.cfg.ttl + 1);
        }
    }
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        debug_assert_eq!(ev.kind, K_JOB);
        self.state.hops_seen += 1;
        let ttl = PayloadReader::new(&ev.payload).u32().expect("phold ttl");
        self.hop(ctx, ttl);
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
    use warp_exec::run_sequential;

    #[test]
    fn sequential_run_executes_expected_hops() {
        let cfg = PholdConfig {
            n_objects: 8,
            n_lps: 2,
            ttl: 10,
            ..PholdConfig::new(10, 5)
        };
        let spec = cfg.spec();
        let report = run_sequential(&spec);
        assert_eq!(report.committed_events, cfg.expected_hops());
    }

    #[test]
    fn locality_keeps_hops_on_lp() {
        // With locality 1.0 every hop stays on the sender's LP: a
        // round-robin partition means dst ≡ src (mod n_lps).
        let cfg = PholdConfig {
            n_objects: 12,
            n_lps: 3,
            ttl: 30,
            locality: 1.0,
            ..PholdConfig::new(30, 9)
        };
        let mut obj = Phold {
            cfg: cfg.clone(),
            me: 4, // LP 1
            state: PholdState {
                rng: SimRng::derive(9, 4),
                hops_seen: 0,
            },
        };
        let mut ctx =
            warp_core::object::RecordingContext::new(ObjectId(4), warp_core::VirtualTime::new(1));
        for _ in 0..50 {
            obj.hop(&mut ctx, 5);
        }
        for (dst, _, _, _) in &ctx.sent {
            assert_eq!(dst.0 % 3, 1, "hop left LP 1: {dst:?}");
        }
    }

    #[test]
    fn expected_hops_formula() {
        let cfg = PholdConfig {
            n_objects: 4,
            population_per_object: 2,
            ttl: 9,
            ..PholdConfig::new(9, 1)
        };
        assert_eq!(cfg.expected_hops(), 4 * 2 * 10);
    }
}
