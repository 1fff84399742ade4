//! Checkpoint image codec for the distributed executive.
//!
//! A checkpoint carries state, not history: at a horizon `g` every LP
//! ships its *image* of `g` ([`warp_core::image`]) — the newest state
//! snapshot below `g` with the ≤ χ inputs after it, the committed sends
//! crossing `g`, and the digest and committed count at `g`. A worker
//! sends its LPs' images as one *image set* in a `Frame::Snapshot`; the
//! coordinator keeps the latest image of every LP, replacing it at each
//! committed barrier, and on a resume sends every worker the image set
//! of the LPs it now owns (streamed as `Frame::ResumeChunk`s). Every
//! resumed LP — on a survivor, a respawned worker, a migration target or
//! a newcomer — is built from its image by `LpRuntime::restore`.
//!
//! An image set, little-endian through `warp_core::wire`:
//!
//! ```text
//! u64 horizon | u32 n | n × (u32 len | LP image)
//! ```
//!
//! Each LP image starts with its LP id and horizon, so the set's records
//! need no key of their own. The [`store`] submodule adds the durable
//! face of the same data: the job, the coordinator's state and the
//! latest image set in one CRC-checked segment file, replaced at each
//! barrier.
//!
//! Decoding is total. Malformed input surfaces as a typed
//! [`SnapshotError`] rather than a panic, and no decoder allocates more
//! than its input's length justifies, so callers (and tests) can tell a
//! truncated payload from a corrupted one from a failing disk.

pub(crate) mod store;

use std::fmt;

use warp_core::wire::{read_vt, write_vt, PayloadReader, PayloadWriter};
use warp_core::{KernelError, LpImage, LpRuntime, VirtualTime};

/// Failure decoding or validating checkpoint material.
///
/// The distinction matters operationally: `Truncated` means the bytes
/// ran out (a torn write or a cut stream), `BadCrc`/`Corrupt` mean the
/// bytes themselves lie and the store cannot be trusted, and `Io` is the
/// filesystem failing underneath an otherwise healthy store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SnapshotError {
    /// Input ended before the structure it promised was complete.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
        /// The underlying decoder message.
        detail: String,
    },
    /// A payload decoded fully but left unconsumed bytes — the producer
    /// and consumer disagree about the format.
    TrailingBytes {
        /// What was being decoded.
        context: &'static str,
    },
    /// Structurally invalid content: bad ids, horizon mismatches, or a
    /// segment file whose header is not ours.
    Corrupt(String),
    /// A durable-store segment record failed its CRC check.
    BadCrc {
        /// Zero-based record index within the segment file.
        record: usize,
        /// Checksum stored alongside the record.
        stored: u32,
        /// Checksum recomputed over the record's payload.
        computed: u32,
    },
    /// A segment file of another format version: written by an older
    /// build, it cannot be resumed by this one.
    Version {
        /// The version its header names.
        found: u32,
    },
    /// Filesystem failure underneath the durable store.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { context, detail } => {
                write!(f, "truncated {context}: {detail}")
            }
            SnapshotError::TrailingBytes { context } => {
                write!(f, "{context} has trailing bytes")
            }
            SnapshotError::Corrupt(detail) => write!(f, "corrupt checkpoint data: {detail}"),
            SnapshotError::BadCrc {
                record,
                stored,
                computed,
            } => write!(
                f,
                "segment record {record} failed its CRC check \
                 (stored {stored:#010x}, computed {computed:#010x})"
            ),
            SnapshotError::Version { found } => write!(
                f,
                "segment version {found}, this build reads {}",
                store::SEG_VERSION
            ),
            SnapshotError::Io(detail) => write!(f, "checkpoint store I/O: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

fn truncated(context: &'static str, e: impl fmt::Display) -> SnapshotError {
    SnapshotError::Truncated {
        context,
        detail: e.to_string(),
    }
}

/// Encode the images of one horizon as an image set (the payload of a
/// worker's `Frame::Snapshot` and of a resume).
pub(crate) fn encode_image_set<I: AsRef<[u8]>>(horizon: VirtualTime, images: &[I]) -> Vec<u8> {
    let len = 12 + images.iter().map(|i| 4 + i.as_ref().len()).sum::<usize>();
    let mut w = PayloadWriter::with_capacity(len);
    write_vt(&mut w, horizon);
    w.u32(images.len() as u32);
    for image in images {
        w.bytes(image.as_ref());
    }
    w.finish().into_vec()
}

/// A decoded image set: its horizon and `(lp, image)` per LP.
pub(crate) type ImageSet = (VirtualTime, Vec<(u32, Vec<u8>)>);

/// Split an image set into its horizon and its LP images, each checked
/// to name that horizon.
pub(crate) fn decode_image_set(buf: &[u8]) -> Result<ImageSet, SnapshotError> {
    let mut r = PayloadReader::new(buf);
    let horizon = read_vt(&mut r).map_err(|e| truncated("image set horizon", e))?;
    // A record is at least its length prefix and an image header.
    let n = r.count(16).map_err(|e| truncated("image set count", e))?;
    let mut images = Vec::with_capacity(n);
    for _ in 0..n {
        let image = r.bytes().map_err(|e| truncated("image set record", e))?;
        let (lp, h) = image_header(image)?;
        if h != horizon {
            return Err(SnapshotError::Corrupt(format!(
                "image of LP {lp} is of horizon {h} in a set of horizon {horizon}"
            )));
        }
        images.push((lp, image.to_vec()));
    }
    if r.remaining() != 0 {
        return Err(SnapshotError::TrailingBytes {
            context: "image set",
        });
    }
    Ok((horizon, images))
}

/// The LP id and horizon an LP image's header names.
pub(crate) fn image_header(image: &[u8]) -> Result<(u32, VirtualTime), SnapshotError> {
    let mut r = PayloadReader::new(image);
    let lp = r.u32().map_err(|e| truncated("image header", e))?;
    let horizon = read_vt(&mut r).map_err(|e| truncated("image header", e))?;
    Ok((lp, horizon))
}

/// Decode `lp`'s image (see [`LpRuntime::decode_image`]), its failures
/// as [`SnapshotError`]s.
pub(crate) fn decode_lp_image(lp: &LpRuntime, bytes: &[u8]) -> Result<LpImage, SnapshotError> {
    lp.decode_image(bytes).map_err(|e| match e {
        KernelError::PayloadUnderrun { .. } => truncated("LP image", e),
        other => SnapshotError::Corrupt(other.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An LP image's header over an opaque body: all an image set looks
    /// at.
    fn image(lp: u32, h: u64, body: &[u8]) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.u32(lp).u64(h).raw(body);
        w.finish().into_vec()
    }

    #[test]
    fn an_image_set_round_trips_and_checks_its_horizon() {
        let h = VirtualTime::new(40);
        let images = [image(0, 40, b"zero"), image(3, 40, b"")];
        let set = encode_image_set(h, &images);
        let (back_h, back) = decode_image_set(&set).unwrap();
        assert_eq!(back_h, h);
        assert_eq!(back, vec![(0, images[0].clone()), (3, images[1].clone())]);
        assert_eq!(
            decode_image_set(&encode_image_set::<Vec<u8>>(h, &[]))
                .unwrap()
                .1,
            vec![]
        );

        let stale = encode_image_set(h, &[image(1, 39, b"")]);
        assert!(matches!(
            decode_image_set(&stale),
            Err(SnapshotError::Corrupt(_))
        ));
        let headless = encode_image_set(h, &[vec![1, 2, 3]]);
        assert!(matches!(
            decode_image_set(&headless),
            Err(SnapshotError::Truncated { .. })
        ));
        let mut trailing = set.clone();
        trailing.push(0);
        assert!(matches!(
            decode_image_set(&trailing),
            Err(SnapshotError::TrailingBytes { .. })
        ));
        assert!(matches!(
            decode_image_set(&set[..set.len() - 1]),
            Err(SnapshotError::Truncated { .. })
        ));
    }
}
