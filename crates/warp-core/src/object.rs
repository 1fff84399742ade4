//! The simulation-object programming interface.
//!
//! Following WARPED's design goal, the API hides every Time Warp specific
//! mechanism — state saving, rollback, cancellation, GVT — from the
//! application. A model implements [`SimObject`]: it reacts to events by
//! mutating its state and sending new events through the
//! [`ExecutionContext`]. Everything else (when states are saved, how
//! erroneous computation is undone) is the kernel's business and is
//! configured, statically or on-line, outside the model code.

use crate::error::KernelError;
use crate::event::{Event, Payload};
use crate::ids::ObjectId;
use crate::time::VirtualTime;
use crate::wire::{PayloadReader, PayloadWriter};
use core::fmt;
use std::any::Any;

/// A snapshot-able object state.
///
/// States must be `Clone` (that *is* the checkpoint operation) and report
/// their size so the cost model can charge state saving proportionally —
/// the trade-off at the heart of the dynamic checkpointing experiment.
/// The kernel saves and restores with [`Clone::clone_from`] into storage
/// it recycles, so a state owning heap storage should implement
/// `clone_from` field by field: the derived one reallocates every buffer.
///
/// Every state also has a canonical byte form: the distributed
/// executive's recovery checkpoints carry each object's state as an
/// image, and a restore decodes it on whichever worker the object lands.
/// There is no default: a state without a codec does not compile.
pub trait ObjectState: Clone + Send + fmt::Debug + 'static {
    /// Approximate in-memory size of the state in bytes: the cost model
    /// charges saving and restoring it by this. The default uses the
    /// shallow struct size; states owning heap storage should add it.
    fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// Append the state's canonical encoding.
    fn encode(&self, w: &mut PayloadWriter);

    /// Decode a state written by [`encode`](Self::encode). Total: any
    /// input yields a state or an error, never a panic, and allocates no
    /// more than the input's length can justify.
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, KernelError>
    where
        Self: Sized;
}

/// The object-safe face of [`ObjectState`], implemented for every
/// state: what [`SimObject::state`] hands the kernel, so one LP can host
/// objects of different state types (RAID's sources, forks and disks,
/// say) behind one state queue type.
pub trait DynState: Send + 'static {
    /// A boxed copy.
    fn boxed_clone(&self) -> Box<dyn DynState>;
    /// Overwrite `self` with a copy of `source` by
    /// [`Clone::clone_from`], reusing `self`'s storage. Panics if the
    /// two are of different types — a model bug.
    fn assign_from(&mut self, source: &dyn DynState);
    /// The state as `Any`, for downcasts.
    fn as_any(&self) -> &dyn Any;
    /// [`ObjectState::size_bytes`].
    fn bytes(&self) -> usize;
    /// [`ObjectState::encode`].
    fn encode_state(&self, w: &mut PayloadWriter);
    /// Decode a state of `self`'s type: an object's own state names the
    /// type an image's state bytes must decode as.
    fn decode_like(&self, r: &mut PayloadReader<'_>) -> Result<ErasedState, KernelError>;
    /// [`fmt::Debug`] of the state.
    fn fmt_state(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

impl<S: ObjectState> DynState for S {
    fn boxed_clone(&self) -> Box<dyn DynState> {
        Box::new(self.clone())
    }
    fn assign_from(&mut self, source: &dyn DynState) {
        self.clone_from(source.get::<S>());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn bytes(&self) -> usize {
        self.size_bytes()
    }
    fn encode_state(&self, w: &mut PayloadWriter) {
        self.encode(w)
    }
    fn decode_like(&self, r: &mut PayloadReader<'_>) -> Result<ErasedState, KernelError> {
        Ok(ErasedState::of(S::decode(r)?))
    }
    fn fmt_state(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl dyn DynState {
    /// The typed state. Panics if `S` is not the stored type — that is
    /// a model bug (an object restoring someone else's state).
    pub fn get<S: ObjectState>(&self) -> &S {
        self.as_any()
            .downcast_ref::<S>()
            .expect("DynState::get: state type does not match the object's state type")
    }
}

/// An owned, type-erased state: a snapshot in the kernel's state queue,
/// or the state a recovery image carries. It reads as a [`DynState`].
pub struct ErasedState(Box<dyn DynState>);

impl ErasedState {
    /// Wrap a typed state.
    pub fn of<S: ObjectState>(state: S) -> Self {
        ErasedState(Box::new(state))
    }

    /// A copy of `state`.
    pub fn copy_of(state: &dyn DynState) -> Self {
        ErasedState(state.boxed_clone())
    }
}

impl core::ops::Deref for ErasedState {
    type Target = dyn DynState;
    fn deref(&self) -> &(dyn DynState + 'static) {
        &*self.0
    }
}

impl core::ops::DerefMut for ErasedState {
    fn deref_mut(&mut self) -> &mut (dyn DynState + 'static) {
        &mut *self.0
    }
}

impl Clone for ErasedState {
    fn clone(&self) -> Self {
        ErasedState(self.0.boxed_clone())
    }
}

impl fmt::Debug for ErasedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt_state(f)
    }
}

/// Kernel services available to a simulation object while it executes an
/// event (or initializes).
pub trait ExecutionContext {
    /// This object's id.
    fn me(&self) -> ObjectId;

    /// The object's local virtual time: the receive time of the event
    /// being executed (or [`VirtualTime::ZERO`] during `init`).
    fn now(&self) -> VirtualTime;

    /// Schedule an event `delay` ticks into the virtual future.
    ///
    /// `delay` must be at least 1: zero-delay events would allow an object
    /// to affect the very instant it is executing, which breaks the total
    /// event order the optimistic kernel (and the sequential golden model)
    /// relies on. Panics on misuse — that is a model bug, not a runtime
    /// condition.
    fn send(&mut self, dst: ObjectId, delay: u64, kind: u16, payload: Payload) {
        let t = self.now().after(delay.max(1));
        self.try_send_at(dst, t, kind, payload)
            .expect("ExecutionContext::send: kernel rejected send");
        debug_assert!(
            delay >= 1,
            "send with delay 0 is rounded up to 1; schedule explicitly"
        );
    }

    /// Schedule an event at absolute virtual time `at` (must be strictly
    /// after `now`).
    fn try_send_at(
        &mut self,
        dst: ObjectId,
        at: VirtualTime,
        kind: u16,
        payload: Payload,
    ) -> Result<(), KernelError>;
}

/// A simulation object: the unit of model behaviour and of rollback.
pub trait SimObject: Send {
    /// Human-readable name for reports and traces.
    fn name(&self) -> String {
        "object".to_string()
    }

    /// Called once before the simulation starts, at virtual time zero.
    /// Typically schedules the object's first event(s).
    fn init(&mut self, _ctx: &mut dyn ExecutionContext) {}

    /// Execute one event. Must be deterministic: given equal state and an
    /// equal event it must produce equal state mutations and equal sends.
    /// (Randomness is fine if the generator lives in the state — see
    /// [`crate::rng::SimRng`].)
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, event: &Event);

    /// The object's mutable state: everything a rollback must undo. The
    /// kernel copies it into its state queue after every χ-th event, and
    /// into recovery images; both usually read `&self.state`.
    fn state(&self) -> &dyn DynState;

    /// The same state, for the kernel to overwrite when it restores a
    /// snapshot (rollback) or an image (recovery).
    fn state_mut(&mut self) -> &mut dyn DynState;
}

/// Convenience: collect sends without a kernel, for unit-testing model
/// objects in isolation.
#[derive(Debug)]
pub struct RecordingContext {
    /// Object id reported by `me()`.
    pub me: ObjectId,
    /// Virtual time reported by `now()`.
    pub now: VirtualTime,
    /// Sends captured as `(dst, at, kind, payload)` tuples.
    pub sent: Vec<(ObjectId, VirtualTime, u16, Payload)>,
}

impl RecordingContext {
    /// New recording context at the given identity and time.
    pub fn new(me: ObjectId, now: VirtualTime) -> Self {
        RecordingContext {
            me,
            now,
            sent: Vec::new(),
        }
    }
}

impl ExecutionContext for RecordingContext {
    fn me(&self) -> ObjectId {
        self.me
    }
    fn now(&self) -> VirtualTime {
        self.now
    }
    fn try_send_at(
        &mut self,
        dst: ObjectId,
        at: VirtualTime,
        kind: u16,
        payload: Payload,
    ) -> Result<(), KernelError> {
        if at <= self.now {
            return Err(KernelError::SendIntoPast {
                now: self.now,
                requested: at,
            });
        }
        self.sent.push((dst, at, kind, payload));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct CounterState {
        count: u64,
        extra: Vec<u8>,
    }
    impl ObjectState for CounterState {
        fn size_bytes(&self) -> usize {
            std::mem::size_of::<Self>() + self.extra.len()
        }
        fn encode(&self, w: &mut PayloadWriter) {
            w.u64(self.count).bytes(&self.extra);
        }
        fn decode(r: &mut PayloadReader<'_>) -> Result<Self, KernelError> {
            Ok(CounterState {
                count: r.u64()?,
                extra: r.bytes()?.to_vec(),
            })
        }
    }

    #[test]
    fn erased_state_roundtrip() {
        let s = CounterState {
            count: 42,
            extra: vec![0; 100],
        };
        let e = ErasedState::of(s.clone());
        assert_eq!(e.get::<CounterState>(), &s);
        assert_eq!(e.bytes(), std::mem::size_of::<CounterState>() + 100);
        let c = e.clone();
        assert_eq!(c.get::<CounterState>(), &s);
        assert!(format!("{e:?}").contains("42"));
        // Assigning through the erasure overwrites the target.
        let mut target = ErasedState::copy_of(&CounterState {
            count: 0,
            extra: vec![9; 10],
        });
        target.assign_from(&s);
        assert_eq!(target.get::<CounterState>(), &s);
    }

    #[test]
    fn erased_state_decodes_as_its_prototype_type() {
        let s = CounterState {
            count: 7,
            extra: vec![1, 2, 3],
        };
        let mut w = PayloadWriter::new();
        ErasedState::of(s.clone()).encode_state(&mut w);
        let bytes = w.finish();
        let proto = ErasedState::of(CounterState {
            count: 0,
            extra: vec![],
        });
        let back = proto.decode_like(&mut PayloadReader::new(&bytes)).unwrap();
        assert_eq!(back.get::<CounterState>(), &s);
        assert!(proto
            .decode_like(&mut PayloadReader::new(&bytes[..5]))
            .is_err());
    }

    #[test]
    #[should_panic(expected = "state type")]
    fn erased_state_wrong_type_panics() {
        #[derive(Clone, Debug)]
        struct Other;
        impl ObjectState for Other {
            fn encode(&self, _: &mut PayloadWriter) {}
            fn decode(_: &mut PayloadReader<'_>) -> Result<Self, KernelError> {
                Ok(Other)
            }
        }
        let e = ErasedState::of(CounterState {
            count: 1,
            extra: vec![],
        });
        let _ = e.get::<Other>();
    }

    #[test]
    fn recording_context_captures_sends() {
        let mut ctx = RecordingContext::new(ObjectId(1), VirtualTime::new(10));
        ctx.send(ObjectId(2), 5, 7, vec![1].into());
        assert_eq!(ctx.sent.len(), 1);
        let (dst, at, kind, payload) = &ctx.sent[0];
        assert_eq!(*dst, ObjectId(2));
        assert_eq!(*at, VirtualTime::new(15));
        assert_eq!(*kind, 7);
        assert_eq!(payload, &vec![1]);
    }

    #[test]
    fn recording_context_rejects_past() {
        let mut ctx = RecordingContext::new(ObjectId(1), VirtualTime::new(10));
        let err = ctx.try_send_at(ObjectId(2), VirtualTime::new(10), 0, Payload::new());
        assert!(matches!(err, Err(KernelError::SendIntoPast { .. })));
    }
}
