//! Checkpoint snapshot codec for the distributed executive.
//!
//! A checkpoint captures, per LP, the committed event log of every
//! object in the half-open virtual-time window since the previous
//! checkpoint. Workers ship these deltas to the coordinator inside
//! `Frame::Snapshot` payloads; the coordinator accumulates one delta
//! chain per worker and, on recovery, concatenates each worker's chain
//! into one resume payload (streamed as `Frame::ResumeChunk`s).
//! Restoring a worker replays the merged logs through the normal
//! kernel paths ([`warp_core::LpRuntime::restore_committed`]), which
//! regenerates both object state and the cross-checkpoint event frontier.
//!
//! Everything is encoded with the canonical `warp_core::wire` layer so
//! the snapshot format inherits the codec's determinism guarantees. The
//! [`store`] submodule adds the durable face of the same data: delta
//! chains spilled to per-worker segment files as checkpoints commit.
//!
//! Malformed input surfaces as a typed [`SnapshotError`] rather than a
//! bare I/O error, so callers (and tests) can tell a truncated payload
//! from a corrupted one from a failing disk.

pub(crate) mod journal;
pub(crate) mod store;

use std::collections::HashMap;
use std::fmt;

use warp_core::wire::{
    decode_event, encode_event, read_vt, write_vt, PayloadReader, PayloadWriter,
};
use warp_core::{Event, ObjectId, VirtualTime};

/// Failure decoding or validating checkpoint material.
///
/// The distinction matters operationally: `Truncated` on the final delta
/// of a chain usually means a crash mid-append (recoverable by dropping
/// the tail), `BadCrc`/`Corrupt` mean the bytes themselves lie and the
/// store cannot be trusted, and `Io` is the filesystem failing underneath
/// an otherwise healthy store.
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
    /// Structurally invalid content: bad ids, window mismatches, or a
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
    /// The run journal's recorded job-spec hash disagrees with the job
    /// spec it carries (or the one the caller is trying to resume with)
    /// — the journal belongs to a different run configuration and
    /// resuming from it would replay the wrong control-plane history.
    SpecHashMismatch {
        /// Hash recorded in the journal header.
        stored: u32,
        /// Hash recomputed over the job spec.
        computed: u32,
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
            SnapshotError::SpecHashMismatch { stored, computed } => write!(
                f,
                "run journal belongs to a different job spec \
                 (journal {stored:#010x}, spec {computed:#010x})"
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

/// One LP's committed-window contribution to a checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LpDelta {
    /// Global LP id.
    pub lp: u32,
    /// Per-object committed events in the checkpoint window, in the
    /// order the kernel committed them.
    pub objects: Vec<(ObjectId, Vec<Event>)>,
}

fn truncated(context: &'static str, e: impl fmt::Display) -> SnapshotError {
    SnapshotError::Truncated {
        context,
        detail: e.to_string(),
    }
}

/// Encode one worker's checkpoint delta (all its LPs) plus the window
/// bounds into a `Frame::Snapshot` payload.
pub(crate) fn encode_delta(from: VirtualTime, below: VirtualTime, lps: &[LpDelta]) -> Vec<u8> {
    // Exact size up front: the Pod event envelope is fixed-width, so
    // the whole delta is one allocation + bounds-checked copies.
    let total: usize = 20
        + lps
            .iter()
            .map(|d| {
                8 + d
                    .objects
                    .iter()
                    .map(|(_, evs)| {
                        8 + evs
                            .iter()
                            .map(warp_core::wire::encoded_event_len)
                            .sum::<usize>()
                    })
                    .sum::<usize>()
            })
            .sum::<usize>();
    let mut w = PayloadWriter::with_capacity(total);
    write_vt(&mut w, from);
    write_vt(&mut w, below);
    w.u32(lps.len() as u32);
    for d in lps {
        w.u32(d.lp);
        w.u32(d.objects.len() as u32);
        for (oid, events) in &d.objects {
            w.u32(oid.0);
            w.u32(events.len() as u32);
            for ev in events {
                encode_event(&mut w, ev);
            }
        }
    }
    w.finish()
}

/// Decode a `Frame::Snapshot` payload back into (window, deltas).
pub(crate) fn decode_delta(
    buf: &[u8],
) -> Result<(VirtualTime, VirtualTime, Vec<LpDelta>), SnapshotError> {
    let mut r = PayloadReader::new(buf);
    let from = read_vt(&mut r).map_err(|e| truncated("snapshot window", e))?;
    let below = read_vt(&mut r).map_err(|e| truncated("snapshot window", e))?;
    let n_lps = r.u32().map_err(|e| truncated("snapshot lp count", e))?;
    let mut lps = Vec::with_capacity(n_lps as usize);
    for _ in 0..n_lps {
        let lp = r.u32().map_err(|e| truncated("snapshot lp id", e))?;
        let n_objs = r.u32().map_err(|e| truncated("snapshot object count", e))?;
        let mut objects = Vec::with_capacity(n_objs as usize);
        for _ in 0..n_objs {
            let oid = ObjectId(r.u32().map_err(|e| truncated("snapshot object id", e))?);
            let n_ev = r.u32().map_err(|e| truncated("snapshot event count", e))?;
            let mut events = Vec::with_capacity(n_ev as usize);
            for _ in 0..n_ev {
                events.push(decode_event(&mut r).map_err(|e| truncated("snapshot event", e))?);
            }
            objects.push((oid, events));
        }
        lps.push(LpDelta { lp, objects });
    }
    if r.remaining() != 0 {
        return Err(SnapshotError::TrailingBytes {
            context: "snapshot payload",
        });
    }
    Ok((from, below, lps))
}

/// Concatenate a worker's accumulated delta payloads (oldest first)
/// into one resume payload (sent as a `Frame::ResumeChunk` stream).
pub(crate) fn encode_resume(deltas: &[Vec<u8>]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u32(deltas.len() as u32);
    for d in deltas {
        w.bytes(d);
    }
    w.finish()
}

/// Split a reassembled resume payload back into the ordered delta chain.
/// A truncated final delta is an error, never a shorter chain: silently
/// tolerating it would resume a worker from a partial history and
/// commit a diverged trace.
pub(crate) fn decode_resume(buf: &[u8]) -> Result<Vec<Vec<u8>>, SnapshotError> {
    let mut r = PayloadReader::new(buf);
    let n = r.u32().map_err(|e| truncated("resume count", e))?;
    let mut deltas = Vec::with_capacity(n as usize);
    for _ in 0..n {
        deltas.push(
            r.bytes()
                .map_err(|e| truncated("resume delta", e))?
                .to_vec(),
        );
    }
    if r.remaining() != 0 {
        return Err(SnapshotError::TrailingBytes {
            context: "resume payload",
        });
    }
    Ok(deltas)
}

/// Merge an ordered delta chain into per-LP committed logs ready for
/// [`warp_core::LpRuntime::restore_committed`]: events append in
/// checkpoint order, which is committed order. Replay requires each
/// object's log in [`Event::key`] order, so the merge canonicalizes:
/// out-of-order chains are sorted back into key order and overlapping
/// windows (the same checkpoint present in two deltas) deduplicate by
/// key. For the well-formed chains the coordinator ships — disjoint
/// ascending windows — both passes are no-ops.
pub(crate) fn merge_logs(
    deltas: &[Vec<u8>],
) -> Result<HashMap<u32, HashMap<ObjectId, Vec<Event>>>, SnapshotError> {
    let mut merged: HashMap<u32, HashMap<ObjectId, Vec<Event>>> = HashMap::new();
    for blob in deltas {
        let (_, _, lps) = decode_delta(blob)?;
        for d in lps {
            let per_obj = merged.entry(d.lp).or_default();
            for (oid, events) in d.objects {
                per_obj.entry(oid).or_default().extend(events);
            }
        }
    }
    for per_obj in merged.values_mut() {
        for log in per_obj.values_mut() {
            log.sort_by_key(|a| a.key());
            log.dedup_by(|a, b| a.key() == b.key());
        }
    }
    Ok(merged)
}

/// Regroup a full set of per-worker delta chains under a new LP→worker
/// assignment (`owner_of(lp)` → 1-based worker id): for each checkpoint
/// index the per-LP deltas of *all* workers are pooled and re-encoded
/// per new owner, preserving the window bounds. Chains must describe
/// the same checkpoint sequence (every complete checkpoint has one
/// delta per worker with identical windows) — the invariant `CkptStore`
/// maintains.
pub(crate) fn rekey_chains(
    chains: &[Vec<Vec<u8>>],
    n_workers: u32,
    owner_of: impl Fn(u32) -> u32,
) -> Result<Vec<Vec<Vec<u8>>>, SnapshotError> {
    let depth = chains.iter().map(Vec::len).max().unwrap_or(0);
    let mut out: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n_workers as usize];
    for k in 0..depth {
        let mut window: Option<(VirtualTime, VirtualTime)> = None;
        let mut grouped: Vec<Vec<LpDelta>> = vec![Vec::new(); n_workers as usize];
        for chain in chains {
            let Some(blob) = chain.get(k) else { continue };
            let (from, below, lps) = decode_delta(blob)?;
            match window {
                None => window = Some((from, below)),
                Some(w) if w != (from, below) => {
                    return Err(SnapshotError::Corrupt(format!(
                        "checkpoint {k}: window mismatch across workers \
                         ({:?}..{:?} vs {:?}..{:?})",
                        w.0, w.1, from, below
                    )));
                }
                Some(_) => {}
            }
            for d in lps {
                let w = owner_of(d.lp);
                if w == 0 || w > n_workers {
                    return Err(SnapshotError::Corrupt(format!(
                        "lp {} assigned to invalid worker {w}",
                        d.lp
                    )));
                }
                grouped[(w - 1) as usize].push(d);
            }
        }
        let (from, below) = window
            .ok_or_else(|| SnapshotError::Corrupt(format!("checkpoint {k} has no deltas")))?;
        for (chain, mut lps) in out.iter_mut().zip(grouped) {
            // Deterministic order regardless of which worker held a
            // block before the move.
            lps.sort_by_key(|d| d.lp);
            chain.push(encode_delta(from, below, &lps));
        }
    }
    Ok(out)
}

/// Collapse a delta chain into a single delta spanning
/// `[first.from, last.below)`. Windows must be contiguous and ascending —
/// the invariant `CkptStore` maintains. Per-object logs merge in
/// [`Event::key`] order and deduplicate, which is exactly the
/// canonicalization [`merge_logs`] applies on resume, so replaying the
/// compacted chain commits the same trace as replaying the original.
pub(crate) fn compact_chain(chain: &[Vec<u8>]) -> Result<Vec<u8>, SnapshotError> {
    let first = chain
        .first()
        .ok_or_else(|| SnapshotError::Corrupt("compacting an empty chain".into()))?;
    let (from, _, _) = decode_delta(first)?;
    let mut merged: HashMap<u32, HashMap<ObjectId, Vec<Event>>> = HashMap::new();
    let mut cursor = from;
    for blob in chain {
        let (f, b, lps) = decode_delta(blob)?;
        if f != cursor || b < f {
            return Err(SnapshotError::Corrupt(format!(
                "compaction: non-contiguous windows (reached {cursor}, next is {f}..{b})"
            )));
        }
        cursor = b;
        for d in lps {
            let per_obj = merged.entry(d.lp).or_default();
            for (oid, events) in d.objects {
                per_obj.entry(oid).or_default().extend(events);
            }
        }
    }
    let mut lps: Vec<LpDelta> = merged
        .into_iter()
        .map(|(lp, objs)| {
            let mut objects: Vec<(ObjectId, Vec<Event>)> = objs.into_iter().collect();
            objects.sort_by_key(|(oid, _)| *oid);
            for (_, log) in &mut objects {
                log.sort_by_key(|e| e.key());
                log.dedup_by(|a, b| a.key() == b.key());
            }
            LpDelta { lp, objects }
        })
        .collect();
    lps.sort_by_key(|d| d.lp);
    Ok(encode_delta(from, cursor, &lps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_core::event::EventId;

    fn ev(sender: u32, serial: u64, dst: u32, at: u64) -> Event {
        Event::new(
            EventId {
                sender: ObjectId(sender),
                serial,
            },
            ObjectId(dst),
            VirtualTime::new(at.saturating_sub(1)),
            VirtualTime::new(at),
            7,
            vec![at as u8],
        )
    }

    fn delta(lp: u32, events: Vec<(u32, Vec<Event>)>) -> LpDelta {
        LpDelta {
            lp,
            objects: events
                .into_iter()
                .map(|(o, evs)| (ObjectId(o), evs))
                .collect(),
        }
    }

    #[test]
    fn delta_roundtrip() {
        let lps = vec![
            delta(
                0,
                vec![(0, vec![ev(1, 1, 0, 3), ev(1, 2, 0, 5)]), (1, vec![])],
            ),
            delta(2, vec![(4, vec![ev(0, 9, 4, 8)])]),
        ];
        let buf = encode_delta(VirtualTime::ZERO, VirtualTime::new(10), &lps);
        let (from, below, back) = decode_delta(&buf).unwrap();
        assert_eq!(from, VirtualTime::ZERO);
        assert_eq!(below, VirtualTime::new(10));
        assert_eq!(back, lps);
    }

    #[test]
    fn resume_roundtrip_preserves_chain_order() {
        let a = encode_delta(
            VirtualTime::ZERO,
            VirtualTime::new(4),
            &[delta(1, vec![(2, vec![ev(3, 1, 2, 2)])])],
        );
        let b = encode_delta(
            VirtualTime::new(4),
            VirtualTime::new(9),
            &[delta(1, vec![(2, vec![ev(3, 2, 2, 6)])])],
        );
        let resume = encode_resume(&[a.clone(), b.clone()]);
        assert_eq!(decode_resume(&resume).unwrap(), vec![a, b]);
    }

    #[test]
    fn merge_appends_in_checkpoint_order() {
        let a = encode_delta(
            VirtualTime::ZERO,
            VirtualTime::new(4),
            &[delta(1, vec![(2, vec![ev(3, 1, 2, 2), ev(3, 2, 2, 3)])])],
        );
        let b = encode_delta(
            VirtualTime::new(4),
            VirtualTime::new(9),
            &[
                delta(1, vec![(2, vec![ev(3, 3, 2, 6)])]),
                delta(0, vec![(0, vec![ev(2, 5, 0, 7)])]),
            ],
        );
        let merged = merge_logs(&[a, b]).unwrap();
        let lp1 = &merged[&1][&ObjectId(2)];
        assert_eq!(
            lp1.iter().map(|e| e.recv_time.ticks()).collect::<Vec<_>>(),
            vec![2, 3, 6]
        );
        assert_eq!(merged[&0][&ObjectId(0)].len(), 1);
    }

    #[test]
    fn merge_restores_key_order_from_an_out_of_order_chain() {
        // Chain delivered newest-first: the merge must not trust chain
        // order but re-sort each object's log into Event::key order,
        // which is what replay_committed requires.
        let newer = encode_delta(
            VirtualTime::new(4),
            VirtualTime::new(9),
            &[delta(1, vec![(2, vec![ev(3, 3, 2, 6), ev(3, 4, 2, 8)])])],
        );
        let older = encode_delta(
            VirtualTime::ZERO,
            VirtualTime::new(4),
            &[delta(1, vec![(2, vec![ev(3, 1, 2, 2), ev(3, 2, 2, 3)])])],
        );
        let merged = merge_logs(&[newer, older]).unwrap();
        let log = &merged[&1][&ObjectId(2)];
        assert_eq!(
            log.iter().map(|e| e.recv_time.ticks()).collect::<Vec<_>>(),
            vec![2, 3, 6, 8]
        );
        let mut keys: Vec<_> = log.iter().map(|e| e.key()).collect();
        let sorted = {
            let mut s = keys.clone();
            s.sort();
            s
        };
        assert_eq!(keys, sorted);
        keys.dedup();
        assert_eq!(keys.len(), log.len());
    }

    #[test]
    fn merge_deduplicates_overlapping_windows() {
        // The same checkpoint window shipped twice (e.g. a duplicated
        // Snapshot frame surviving into a chain) must not double-commit
        // its events on replay.
        let window = encode_delta(
            VirtualTime::ZERO,
            VirtualTime::new(4),
            &[delta(1, vec![(2, vec![ev(3, 1, 2, 2), ev(3, 2, 2, 3)])])],
        );
        let next = encode_delta(
            VirtualTime::new(4),
            VirtualTime::new(9),
            &[delta(1, vec![(2, vec![ev(3, 3, 2, 6)])])],
        );
        let merged = merge_logs(&[window.clone(), window, next]).unwrap();
        let log = &merged[&1][&ObjectId(2)];
        assert_eq!(
            log.iter().map(|e| e.recv_time.ticks()).collect::<Vec<_>>(),
            vec![2, 3, 6],
            "overlap must collapse to one copy per event"
        );
    }

    #[test]
    fn merge_interleaves_scrambled_overlapping_chains() {
        // Worst case: chains out of order *and* overlapping. The merged
        // log must equal the clean merge of the distinct windows.
        let a = encode_delta(
            VirtualTime::ZERO,
            VirtualTime::new(4),
            &[delta(0, vec![(0, vec![ev(1, 1, 0, 1), ev(1, 2, 0, 3)])])],
        );
        let b = encode_delta(
            VirtualTime::new(4),
            VirtualTime::new(9),
            &[delta(0, vec![(0, vec![ev(1, 3, 0, 5)])])],
        );
        let c = encode_delta(
            VirtualTime::new(9),
            VirtualTime::new(12),
            &[delta(0, vec![(0, vec![ev(1, 4, 0, 10)])])],
        );
        let scrambled = merge_logs(&[c.clone(), a.clone(), b.clone(), a.clone()]).unwrap();
        let clean = merge_logs(&[a, b, c]).unwrap();
        assert_eq!(scrambled, clean);
    }

    #[test]
    fn rekey_regroups_blocks_under_a_new_owner_map() {
        // Two workers, two checkpoints; then LP 1 moves from worker 1 to
        // worker 2.
        let w1 = vec![
            encode_delta(
                VirtualTime::ZERO,
                VirtualTime::new(4),
                &[
                    delta(0, vec![(0, vec![ev(1, 1, 0, 2)])]),
                    delta(1, vec![(2, vec![ev(3, 1, 2, 3)])]),
                ],
            ),
            encode_delta(
                VirtualTime::new(4),
                VirtualTime::new(9),
                &[
                    delta(0, vec![(0, vec![ev(1, 2, 0, 6)])]),
                    delta(1, vec![(2, vec![ev(3, 2, 2, 7)])]),
                ],
            ),
        ];
        let w2 = vec![
            encode_delta(
                VirtualTime::ZERO,
                VirtualTime::new(4),
                &[delta(2, vec![(4, vec![ev(5, 1, 4, 2)])])],
            ),
            encode_delta(
                VirtualTime::new(4),
                VirtualTime::new(9),
                &[delta(2, vec![(4, vec![ev(5, 2, 4, 8)])])],
            ),
        ];
        let owner = |lp: u32| if lp == 0 { 1 } else { 2 };
        let rekeyed = rekey_chains(&[w1.clone(), w2.clone()], 2, owner).unwrap();
        assert_eq!(rekeyed.len(), 2);
        assert_eq!(rekeyed[0].len(), 2, "chain depth preserved");
        assert_eq!(rekeyed[1].len(), 2);

        // Worker 1 keeps only LP 0; worker 2 now owns LPs 1 and 2.
        for k in 0..2 {
            let (from, below, lps) = decode_delta(&rekeyed[0][k]).unwrap();
            let (of, ob, _) = decode_delta(&w1[k]).unwrap();
            assert_eq!((from, below), (of, ob), "windows preserved");
            assert_eq!(lps.iter().map(|d| d.lp).collect::<Vec<_>>(), vec![0]);
            let (_, _, lps) = decode_delta(&rekeyed[1][k]).unwrap();
            assert_eq!(lps.iter().map(|d| d.lp).collect::<Vec<_>>(), vec![1, 2]);
        }

        // The merged committed logs are identical either way: rekeying
        // moves bytes between chains, never changes history.
        let mut before = merge_logs(&w1).unwrap();
        before.extend(merge_logs(&w2).unwrap());
        let mut after = merge_logs(&rekeyed[0]).unwrap();
        after.extend(merge_logs(&rekeyed[1]).unwrap());
        assert_eq!(before, after);
    }

    #[test]
    fn rekey_rejects_inconsistent_chains() {
        let a = encode_delta(
            VirtualTime::ZERO,
            VirtualTime::new(4),
            &[delta(0, vec![(0, vec![ev(1, 1, 0, 2)])])],
        );
        let skewed = encode_delta(
            VirtualTime::ZERO,
            VirtualTime::new(5),
            &[delta(1, vec![(2, vec![ev(3, 1, 2, 2)])])],
        );
        assert!(
            rekey_chains(&[vec![a.clone()], vec![skewed]], 2, |_| 1).is_err(),
            "mismatched windows at the same checkpoint index"
        );
        assert!(
            rekey_chains(&[vec![a]], 2, |_| 7).is_err(),
            "owner map pointing at a worker that does not exist"
        );
    }

    #[test]
    fn corrupt_payloads_are_rejected_with_typed_errors() {
        assert!(matches!(
            decode_delta(&[1, 2, 3]),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            decode_resume(&[0, 0, 0, 9]),
            Err(SnapshotError::Truncated { .. })
        ));
        let good = encode_delta(VirtualTime::ZERO, VirtualTime::new(1), &[]);
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            decode_delta(&trailing),
            Err(SnapshotError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn truncated_final_delta_is_an_error_not_a_shorter_chain() {
        // Regression: a resume payload whose last delta is cut short must
        // fail loudly. Resuming from a partial chain would silently
        // commit a diverged trace.
        let a = encode_delta(
            VirtualTime::ZERO,
            VirtualTime::new(4),
            &[delta(1, vec![(2, vec![ev(3, 1, 2, 2)])])],
        );
        let b = encode_delta(
            VirtualTime::new(4),
            VirtualTime::new(9),
            &[delta(1, vec![(2, vec![ev(3, 2, 2, 6)])])],
        );
        let resume = encode_resume(&[a.clone(), b]);
        let cut = resume[..resume.len() - 3].to_vec();
        match decode_resume(&cut) {
            Err(SnapshotError::Truncated { context, .. }) => {
                assert_eq!(context, "resume delta");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // The intact prefix alone still decodes — proving the cut hit
        // only the final delta, which must not be silently dropped.
        assert_eq!(
            decode_resume(&encode_resume(std::slice::from_ref(&a))).unwrap(),
            [a]
        );
    }

    #[test]
    fn compaction_is_replay_equivalent() {
        // Three contiguous windows collapse to one delta spanning the
        // full range whose merged logs are byte-identical to the
        // original chain's — the property that makes compaction safe.
        let chain = vec![
            encode_delta(
                VirtualTime::ZERO,
                VirtualTime::new(4),
                &[
                    delta(0, vec![(0, vec![ev(1, 1, 0, 1), ev(1, 2, 0, 3)])]),
                    delta(1, vec![(2, vec![ev(3, 1, 2, 2)])]),
                ],
            ),
            encode_delta(
                VirtualTime::new(4),
                VirtualTime::new(9),
                &[delta(0, vec![(0, vec![ev(1, 3, 0, 5)])])],
            ),
            encode_delta(
                VirtualTime::new(9),
                VirtualTime::new(12),
                &[
                    delta(0, vec![(0, vec![])]),
                    delta(1, vec![(2, vec![ev(3, 2, 2, 10)])]),
                ],
            ),
        ];
        let compacted = compact_chain(&chain).unwrap();
        let (from, below, lps) = decode_delta(&compacted).unwrap();
        assert_eq!(from, VirtualTime::ZERO);
        assert_eq!(below, VirtualTime::new(12));
        assert_eq!(
            lps.iter().map(|d| d.lp).collect::<Vec<_>>(),
            vec![0, 1],
            "deterministic LP order"
        );
        assert_eq!(
            merge_logs(&[compacted]).unwrap(),
            merge_logs(&chain).unwrap(),
            "compaction changed the committed history"
        );
    }

    #[test]
    fn compaction_rejects_gappy_chains() {
        let a = encode_delta(VirtualTime::ZERO, VirtualTime::new(4), &[]);
        let c = encode_delta(VirtualTime::new(9), VirtualTime::new(12), &[]);
        assert!(matches!(
            compact_chain(&[a, c]),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(compact_chain(&[]).is_err());
    }
}
