//! The coordinator's durable run journal — the control-plane WAL that
//! makes a run survive its own coordinator.
//!
//! The checkpoint segment (see [`super::store`]) persists the *data*
//! plane: every LP's latest image. It is useless without the
//! control-plane facts the coordinator carries in memory — which session
//! the cluster is on, which worker owns which LP, which horizon was last
//! committed, what the run has already accumulated in
//! recoveries/migrations/scales. The journal WALs exactly those facts
//! into `run.journal` next to the segment, one record per checkpoint
//! barrier (and per membership/assignment change), so a fresh
//! `warp-cluster --resume STORE_DIR` process can replay the journal and
//! continue the run as if the dead coordinator had merely blinked.
//!
//! ```text
//! header:  "WJRN" | u32 version | u32 spec-hash (crc32 of the job JSON)
//! record 0: [u32 len][u32 crc32][job JSON]            (little-endian)
//! records:  repeat [u32 len][u32 crc32][state JSON]
//! ```
//!
//! Record framing and CRC discipline are identical to the segment
//! file's. The job spec itself is the first record, which makes
//! `--resume` self-contained: no job file is needed (or consulted) on
//! restart, and the header's spec hash pins the journal to that exact
//! spec — a journal pointed at by the wrong `--store-dir` fails with a
//! typed [`SnapshotError::SpecHashMismatch`] instead of resuming the
//! wrong run.
//!
//! State records are opaque JSON owned by the executive (the
//! `CoordJournal` struct in `distributed`); the journal layer only
//! guarantees integrity and ordering. Loading distinguishes a *torn tail* (crash mid-append: the intact
//! prefix is the truth, the final partial record is dropped and
//! reported) from mid-file corruption ([`SnapshotError::BadCrc`] /
//! [`SnapshotError::Truncated`] — the journal cannot be trusted).

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use super::store::crc32;
use super::SnapshotError;

/// Journal file magic.
pub(crate) const JRN_MAGIC: &[u8; 4] = b"WJRN";
/// Journal format version.
pub(crate) const JRN_VERSION: u32 = 1;

/// Path of the run journal under a store directory.
pub(crate) fn journal_path(dir: &Path) -> PathBuf {
    dir.join("run.journal")
}

/// Hash pinning a journal to one job spec: CRC32 over the serialized
/// job JSON (the same bytes `dist_config` ships to workers as the
/// opaque model spec).
pub(crate) fn spec_hash(job_json: &str) -> u32 {
    crc32(job_json.as_bytes())
}

/// The open, append-only run journal of a live coordinator.
#[derive(Debug)]
pub(crate) struct RunJournal {
    file: File,
    /// State records appended by this process (diagnostics).
    pub(crate) appended: u64,
}

impl RunJournal {
    /// Create (or truncate) `run.journal` under `dir`, writing the
    /// header and the job-spec record. A fresh run never resumes
    /// another run's control plane, so a stale journal is discarded —
    /// the same rule the segment store applies.
    pub(crate) fn create(dir: &Path, job_json: &str) -> Result<Self, SnapshotError> {
        std::fs::create_dir_all(dir)?;
        let mut file = File::create(journal_path(dir))?;
        file.write_all(JRN_MAGIC)?;
        file.write_all(&JRN_VERSION.to_le_bytes())?;
        file.write_all(&spec_hash(job_json).to_le_bytes())?;
        let mut journal = RunJournal { file, appended: 0 };
        journal.write_record(job_json.as_bytes())?;
        Ok(journal)
    }

    /// Re-open an existing journal for appending, first truncating it
    /// to `valid_len` — the intact prefix a load reported — so a torn
    /// tail from the previous coordinator's death is excised rather
    /// than buried under fresh records.
    pub(crate) fn reopen(path: &Path, valid_len: u64) -> Result<Self, SnapshotError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        // Paranoia: `set_len` + append means the next write lands at
        // `valid_len`; seek explicitly anyway for platforms where the
        // append cursor was cached before the truncate.
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(RunJournal { file, appended: 0 })
    }

    /// Append one executive-owned state record and flush it to the OS.
    /// Called at each checkpoint barrier, right after the segment file
    /// took the barrier's images.
    pub(crate) fn append_state(&mut self, payload: &[u8]) -> Result<(), SnapshotError> {
        self.write_record(payload)?;
        self.appended += 1;
        Ok(())
    }

    fn write_record(&mut self, payload: &[u8]) -> Result<(), SnapshotError> {
        self.file.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.file.write_all(&crc32(payload).to_le_bytes())?;
        self.file.write_all(payload)?;
        self.file.flush()?;
        Ok(())
    }
}

/// Everything a journal load recovers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JournalContents {
    /// The job spec the run was started with, verbatim.
    pub job_json: String,
    /// The executive-owned state records, oldest first.
    pub states: Vec<Vec<u8>>,
    /// Byte length of the intact prefix — what [`RunJournal::reopen`]
    /// must truncate to before appending.
    pub valid_len: u64,
    /// True when a torn final record (crash mid-append) was dropped.
    pub dropped_tail: bool,
}

/// Read a run journal back, validating the header, every record's CRC,
/// and the spec hash against the embedded job spec.
///
/// Error taxonomy: a short header or a short/torn *job* record is
/// [`SnapshotError::Truncated`] (nothing can be resumed without the
/// spec); a foreign or wrong-version header is
/// [`SnapshotError::Corrupt`]; a complete record failing its checksum
/// is [`SnapshotError::BadCrc`]; a header hash disagreeing with the job
/// record is [`SnapshotError::SpecHashMismatch`]. A torn *final* state
/// record is not an error — it is the expected signature of a
/// coordinator dying mid-append — so it is dropped and reported via
/// [`JournalContents::dropped_tail`].
pub(crate) fn load_journal(path: &Path) -> Result<JournalContents, SnapshotError> {
    let buf = std::fs::read(path)?;
    if buf.len() < 12 {
        return Err(SnapshotError::Truncated {
            context: "journal header",
            detail: format!("{} bytes, header needs 12", buf.len()),
        });
    }
    if &buf[0..4] != JRN_MAGIC {
        return Err(SnapshotError::Corrupt(format!(
            "{}: not a run journal (bad magic)",
            path.display()
        )));
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if version != JRN_VERSION {
        return Err(SnapshotError::Corrupt(format!(
            "{}: journal version {version}, this build reads {JRN_VERSION}",
            path.display()
        )));
    }
    let stored_hash = u32::from_le_bytes(buf[8..12].try_into().unwrap());

    let mut pos = 12usize;
    let mut record = 0usize;
    let mut job_json: Option<String> = None;
    let mut states: Vec<Vec<u8>> = Vec::new();
    let mut valid_len = 12u64;
    let mut dropped_tail = false;
    while pos < buf.len() {
        let torn = |detail: String| -> Result<(), SnapshotError> {
            if record == 0 {
                Err(SnapshotError::Truncated {
                    context: "journal job record",
                    detail,
                })
            } else {
                Ok(())
            }
        };
        if buf.len() - pos < 8 {
            torn(format!(
                "record {record}: {} trailing bytes",
                buf.len() - pos
            ))?;
            dropped_tail = true;
            break;
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if buf.len() - pos - 8 < len {
            torn(format!(
                "record {record}: {len} bytes promised, {} present",
                buf.len() - pos - 8
            ))?;
            dropped_tail = true;
            break;
        }
        let payload = &buf[pos + 8..pos + 8 + len];
        let computed = crc32(payload);
        if computed != stored {
            // A CRC failure on a *complete* record is corruption, not a
            // torn append — even at the tail. A torn append can only
            // shorten the file, never rewrite bytes it already wrote.
            return Err(SnapshotError::BadCrc {
                record,
                stored,
                computed,
            });
        }
        if record == 0 {
            let spec = String::from_utf8(payload.to_vec()).map_err(|e| {
                SnapshotError::Corrupt(format!("journal job record is not UTF-8: {e}"))
            })?;
            let computed = spec_hash(&spec);
            if computed != stored_hash {
                return Err(SnapshotError::SpecHashMismatch {
                    stored: stored_hash,
                    computed,
                });
            }
            job_json = Some(spec);
        } else {
            states.push(payload.to_vec());
        }
        pos += 8 + len;
        valid_len = pos as u64;
        record += 1;
    }
    let job_json = job_json.ok_or(SnapshotError::Truncated {
        context: "journal job record",
        detail: "journal ends after the header".into(),
    })?;
    Ok(JournalContents {
        job_json,
        states,
        valid_len,
        dropped_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("warp-jrn-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const JOB: &str = r#"{"model":{"phold":{}},"gvt_period":5}"#;

    #[test]
    fn create_append_load_roundtrips() {
        let dir = scratch("roundtrip");
        let mut j = RunJournal::create(&dir, JOB).unwrap();
        j.append_state(br#"{"session":0,"ckpt":1}"#).unwrap();
        j.append_state(br#"{"session":0,"ckpt":2}"#).unwrap();
        assert_eq!(j.appended, 2);
        drop(j);
        let loaded = load_journal(&journal_path(&dir)).unwrap();
        assert_eq!(loaded.job_json, JOB);
        assert_eq!(
            loaded.states,
            vec![
                br#"{"session":0,"ckpt":1}"#.to_vec(),
                br#"{"session":0,"ckpt":2}"#.to_vec(),
            ]
        );
        assert!(!loaded.dropped_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_reopen_excises_it() {
        // Crash mid-append: the final record is short. The intact
        // prefix is the truth; the tail is dropped, reported, and
        // truncated away by reopen so fresh appends stay well-formed.
        let dir = scratch("torn");
        let mut j = RunJournal::create(&dir, JOB).unwrap();
        j.append_state(b"state-one").unwrap();
        j.append_state(b"state-two-longer").unwrap();
        drop(j);
        let path = journal_path(&dir);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let loaded = load_journal(&path).unwrap();
        assert!(loaded.dropped_tail);
        assert_eq!(loaded.states, vec![b"state-one".to_vec()]);

        let mut j = RunJournal::reopen(&path, loaded.valid_len).unwrap();
        j.append_state(b"state-three").unwrap();
        drop(j);
        let reloaded = load_journal(&path).unwrap();
        assert!(!reloaded.dropped_tail);
        assert_eq!(
            reloaded.states,
            vec![b"state-one".to_vec(), b"state-three".to_vec()]
        );

        // Cutting into the torn record's 8-byte header is still a
        // droppable tail, not an error.
        std::fs::write(&path, &full[..loaded.valid_len as usize + 3]).unwrap();
        let loaded = load_journal(&path).unwrap();
        assert!(loaded.dropped_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_crc_on_a_complete_record_is_a_typed_error() {
        let dir = scratch("crc");
        let mut j = RunJournal::create(&dir, JOB).unwrap();
        j.append_state(b"precious-control-plane-state").unwrap();
        j.append_state(b"later").unwrap();
        drop(j);
        let path = journal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the middle record's payload.
        let hit = bytes.len() - b"later".len() - 8 - 3;
        bytes[hit] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_journal(&path),
            Err(SnapshotError::BadCrc { record: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_hash_mismatch_is_a_typed_error() {
        let dir = scratch("spec");
        drop(RunJournal::create(&dir, JOB).unwrap());
        let path = journal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Tamper with the header's stored spec hash; the job record and
        // its own CRC stay intact, so only the cross-check can object.
        bytes[8] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match load_journal(&path) {
            Err(SnapshotError::SpecHashMismatch { stored, computed }) => {
                assert_ne!(stored, computed);
                assert_eq!(computed, spec_hash(JOB));
            }
            other => panic!("expected SpecHashMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_and_truncated_headers_are_typed_errors() {
        let dir = scratch("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not-a-journal");
        std::fs::write(&path, b"WSEG but wrong family entirely").unwrap();
        assert!(matches!(
            load_journal(&path),
            Err(SnapshotError::Corrupt(_))
        ));
        std::fs::write(&path, b"WJRN").unwrap();
        assert!(matches!(
            load_journal(&path),
            Err(SnapshotError::Truncated {
                context: "journal header",
                ..
            })
        ));
        // A valid header with a torn job record cannot be resumed: the
        // spec itself is gone.
        let good = {
            let d = scratch("foreign-good");
            drop(RunJournal::create(&d, JOB).unwrap());
            let b = std::fs::read(journal_path(&d)).unwrap();
            std::fs::remove_dir_all(&d).unwrap();
            b
        };
        std::fs::write(&path, &good[..good.len() - 2]).unwrap();
        assert!(matches!(
            load_journal(&path),
            Err(SnapshotError::Truncated {
                context: "journal job record",
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_version_is_corrupt() {
        let dir = scratch("version");
        drop(RunJournal::create(&dir, JOB).unwrap());
        let path = journal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_journal(&path),
            Err(SnapshotError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
