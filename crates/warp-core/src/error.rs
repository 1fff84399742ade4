//! Error types for the kernel.

use crate::ids::{LpId, ObjectId};
use crate::time::VirtualTime;
use core::fmt;

/// Errors surfaced by kernel operations.
///
/// Most kernel-internal invariant violations are programming errors and
/// panic with a message instead (they indicate a broken simulator, not a
/// recoverable condition); `KernelError` covers conditions that are the
/// caller's or the model's to handle.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// A payload decode ran past the end of the message.
    PayloadUnderrun {
        /// Bytes the read needed.
        wanted: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// An event was addressed to an object this simulation doesn't contain.
    UnknownObject(ObjectId),
    /// An LP id outside the configured partition.
    UnknownLp(LpId),
    /// A model tried to schedule an event into its own past.
    SendIntoPast {
        /// The sender's local virtual time.
        now: VirtualTime,
        /// The (earlier) requested receive time.
        requested: VirtualTime,
    },
    /// A configuration value was rejected.
    InvalidConfig(String),
    /// A recovery image failed to decode or contradicts itself
    /// ([`crate::image`]).
    CorruptImage(String),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::PayloadUnderrun { wanted, available } => {
                write!(
                    f,
                    "payload underrun: wanted {wanted} bytes, {available} available"
                )
            }
            KernelError::UnknownObject(id) => write!(f, "unknown simulation object {id}"),
            KernelError::UnknownLp(id) => write!(f, "unknown logical process {id}"),
            KernelError::SendIntoPast { now, requested } => {
                write!(
                    f,
                    "event scheduled into the past: LVT={now}, requested={requested}"
                )
            }
            KernelError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            KernelError::CorruptImage(msg) => write!(f, "corrupt recovery image: {msg}"),
        }
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = KernelError::SendIntoPast {
            now: VirtualTime::new(10),
            requested: VirtualTime::new(5),
        };
        assert!(e.to_string().contains("LVT=10"));
        assert!(KernelError::UnknownObject(ObjectId(3))
            .to_string()
            .contains("obj#3"));
        assert!(KernelError::UnknownLp(LpId(1)).to_string().contains("lp#1"));
        assert!(KernelError::InvalidConfig("x".into())
            .to_string()
            .contains('x'));
    }
}
