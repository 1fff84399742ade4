//! The three history queues of a Time Warp simulation object
//! (input events, output messages, state snapshots — Fig. 1 of the paper).

pub mod input;
pub mod output;
pub mod pending;
pub mod state;

pub use input::{InputQueue, Inserted};
pub use output::{OutputQueue, SentRecord};
pub use pending::PendingHeap;
pub use state::{StatePos, StateQueue};
