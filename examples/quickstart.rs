//! Quickstart: build a tiny custom model on the public API and run it on
//! all three executives.
//!
//! The model is a two-object ping-pong: `ping` starts a ball with a TTL;
//! each bounce forwards it after a random delay. Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use warped_online::core::rng::SimRng;
use warped_online::core::wire::{PayloadReader, PayloadWriter};
use warped_online::core::{
    CostModel, DynState, Event, ExecutionContext, ObjectId, ObjectState, Partition, SimObject,
};
use warped_online::exec::{run_sequential, run_threaded, run_virtual, SimulationSpec};

/// Everything that must survive a rollback lives in the state — including
/// the RNG, so a rolled-back object replays identical random draws. Its
/// byte form is what a distributed run's recovery checkpoints carry. The
/// kernel saves it by `clone_from` into snapshots it recycles; a state
/// owning a `Vec` would implement `Clone` field by field so that reuses
/// the buffer.
#[derive(Clone, Debug)]
struct PlayerState {
    rng: SimRng,
    bounces: u64,
}
impl ObjectState for PlayerState {
    fn encode(&self, w: &mut PayloadWriter) {
        self.rng.encode(w);
        w.u64(self.bounces);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warped_online::core::KernelError> {
        Ok(PlayerState {
            rng: SimRng::decode(r)?,
            bounces: r.u64()?,
        })
    }
}

struct Player {
    me: u32,
    peer: ObjectId,
    serves: bool,
    state: PlayerState,
}

impl Player {
    fn hit(&mut self, ctx: &mut dyn ExecutionContext, ttl: u32) {
        if ttl == 0 {
            return;
        }
        let delay = self.state.rng.exp_ticks(25.0);
        // A 4-byte payload: stored inside the event, no heap block.
        let mut w = PayloadWriter::new();
        w.u32(ttl - 1);
        ctx.send(self.peer, delay, 0, w.finish());
    }
}

impl SimObject for Player {
    fn name(&self) -> String {
        format!("player-{}", self.me)
    }
    fn init(&mut self, ctx: &mut dyn ExecutionContext) {
        if self.serves {
            self.hit(ctx, 500);
        }
    }
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        self.state.bounces += 1;
        let ttl = PayloadReader::new(&ev.payload).u32().expect("ttl");
        self.hit(ctx, ttl);
    }
    // The one state the kernel saves, restores and images.
    fn state(&self) -> &dyn DynState {
        &self.state
    }
    fn state_mut(&mut self) -> &mut dyn DynState {
        &mut self.state
    }
}

fn main() {
    // Two objects on two LPs (= two workstations of the modeled cluster).
    let partition = Partition::round_robin(2, 2);
    let spec = SimulationSpec::new(
        partition,
        Arc::new(|id: ObjectId| {
            Box::new(Player {
                me: id.0,
                peer: ObjectId(1 - id.0),
                serves: id.0 == 0,
                state: PlayerState {
                    rng: SimRng::derive(42, id.0 as u64),
                    bounces: 0,
                },
            }) as Box<dyn SimObject>
        }),
    )
    .with_cost(CostModel::sparc_now_10mbps());

    println!("sequential golden model:");
    println!("  {}", run_sequential(&spec).summary_line());
    println!("deterministic virtual cluster (modeled 10 Mb Ethernet NOW):");
    println!("  {}", run_virtual(&spec).summary_line());
    println!("threaded (one OS thread per LP, Mattern-token GVT):");
    println!("  {}", run_threaded(&spec).summary_line());
}
