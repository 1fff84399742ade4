//! The durable store: one file that lets a run survive its coordinator.
//!
//! The coordinator's in-memory state is authoritative while it lives;
//! this module gives it a durable shadow. One *segment file* holds the
//! job, the coordinator's control-plane state and every LP's latest
//! image, all replaced together:
//!
//! ```text
//! header:  "WSEG" | u32 version (3) | u64 horizon
//! records: repeat [u32 len][u32 crc32][payload]           (little-endian)
//!          record 0: the job JSON
//!          record 1: the coordinator's state (absent before the first session)
//!          then:     one LP image of the horizon per LP
//! ```
//!
//! The state record is opaque to this module (the `CoordJournal` JSON of
//! the distributed executive); each image is exactly what its worker
//! shipped. The CRC32 (IEEE) guards every record against bit rot. A
//! replacement is written to a temporary file and renamed into place,
//! so the rename is the one commit point: a crash leaves the old set or
//! the new one, never a hybrid. A short file is
//! [`SnapshotError::Truncated`], distinguishable from a corrupted
//! ([`SnapshotError::BadCrc`]), foreign ([`SnapshotError::Corrupt`]) or
//! older ([`SnapshotError::Version`]) one.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use warp_core::VirtualTime;

use super::SnapshotError;

/// Segment file magic.
pub(crate) const SEG_MAGIC: &[u8; 4] = b"WSEG";
/// Segment format version: 3 holds the job, the coordinator's state and
/// the latest image set (2 held the images alone, 1 per-worker delta
/// chains).
pub(crate) const SEG_VERSION: u32 = 3;
/// Header bytes: magic, version, horizon.
const HEADER: usize = 16;

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE 802.3 polynomial, reflected) over `data`.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Path of the segment file under a checkpoint store directory.
pub(crate) fn segment_path(dir: &Path) -> PathBuf {
    dir.join("images.seg")
}

/// Everything a segment file holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Segment {
    /// The horizon of the images.
    pub horizon: VirtualTime,
    /// The job the run was started with, verbatim.
    pub job: String,
    /// The coordinator's state; `None` before the first session.
    pub state: Option<Vec<u8>>,
    /// One image of `horizon` per LP; empty before the first barrier.
    pub images: Vec<Vec<u8>>,
}

/// The segment file of one run.
#[derive(Debug)]
pub(crate) struct SegmentStore {
    dir: PathBuf,
    job: String,
}

impl SegmentStore {
    /// Create the directory if needed and write `job` alone, of horizon
    /// zero: a fresh run never resumes another run's state or images.
    pub(crate) fn create(dir: &Path, job: String) -> Result<Self, SnapshotError> {
        fs::create_dir_all(dir)?;
        let store = SegmentStore::open(dir, job);
        store.replace::<Vec<u8>>(VirtualTime::ZERO, None, &[])?;
        Ok(store)
    }

    /// The store of an interrupted run, whose segment file the caller has
    /// already loaded.
    pub(crate) fn open(dir: &Path, job: String) -> Self {
        SegmentStore {
            dir: dir.to_path_buf(),
            job,
        }
    }

    /// Replace the segment file with `state` and the image set of
    /// `horizon`: write a sibling temporary file, then rename it into
    /// place.
    pub(crate) fn replace<I: AsRef<[u8]>>(
        &self,
        horizon: VirtualTime,
        state: Option<&[u8]>,
        images: &[I],
    ) -> Result<(), SnapshotError> {
        let records = std::iter::once(self.job.as_bytes())
            .chain(state)
            .chain(images.iter().map(|i| i.as_ref()));
        let len = HEADER + records.clone().map(|r| 8 + r.len()).sum::<usize>();
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(SEG_MAGIC);
        buf.extend_from_slice(&SEG_VERSION.to_le_bytes());
        buf.extend_from_slice(&horizon.ticks().to_le_bytes());
        for record in records {
            buf.extend_from_slice(&(record.len() as u32).to_le_bytes());
            buf.extend_from_slice(&crc32(record).to_le_bytes());
            buf.extend_from_slice(record);
        }
        let tmp = self.dir.join("images.seg.tmp");
        fs::File::create(&tmp)?.write_all(&buf)?;
        fs::rename(&tmp, segment_path(&self.dir))?;
        Ok(())
    }
}

/// Read a segment file back.
pub(crate) fn load_segment(path: &Path) -> Result<Segment, SnapshotError> {
    parse_segment(&fs::read(path)?).map_err(|e| match e {
        SnapshotError::Corrupt(detail) => {
            SnapshotError::Corrupt(format!("{}: {detail}", path.display()))
        }
        other => other,
    })
}

/// Parse a segment file's bytes, validating the header and every
/// record's CRC. Total: a short buffer is [`SnapshotError::Truncated`], a
/// checksum mismatch [`SnapshotError::BadCrc`], another version
/// [`SnapshotError::Version`], a foreign header or a job that is not
/// UTF-8 [`SnapshotError::Corrupt`]; no allocation exceeds the input.
pub(crate) fn parse_segment(buf: &[u8]) -> Result<Segment, SnapshotError> {
    let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
    if buf.len() < HEADER {
        return Err(SnapshotError::Truncated {
            context: "segment header",
            detail: format!("{} bytes, header needs {HEADER}", buf.len()),
        });
    }
    if &buf[0..4] != SEG_MAGIC {
        return Err(SnapshotError::Corrupt(
            "not a checkpoint segment (bad magic)".into(),
        ));
    }
    let version = word(4);
    if version != SEG_VERSION {
        return Err(SnapshotError::Version { found: version });
    }
    let horizon =
        VirtualTime::from_ticks(u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")));
    let mut records = Vec::new();
    let mut pos = HEADER;
    while pos < buf.len() {
        let record = records.len();
        if buf.len() - pos < 8 {
            return Err(SnapshotError::Truncated {
                context: "segment record header",
                detail: format!("record {record}: {} trailing bytes", buf.len() - pos),
            });
        }
        let len = word(pos) as usize;
        let stored = word(pos + 4);
        pos += 8;
        if buf.len() - pos < len {
            return Err(SnapshotError::Truncated {
                context: "segment record payload",
                detail: format!(
                    "record {record}: {len} bytes promised, {} present",
                    buf.len() - pos
                ),
            });
        }
        let payload = &buf[pos..pos + len];
        let computed = crc32(payload);
        if computed != stored {
            return Err(SnapshotError::BadCrc {
                record,
                stored,
                computed,
            });
        }
        records.push(payload);
        pos += len;
    }
    let mut records = records.into_iter();
    let job = records.next().ok_or(SnapshotError::Truncated {
        context: "segment job record",
        detail: "the file ends after the header".into(),
    })?;
    let job = String::from_utf8(job.to_vec())
        .map_err(|e| SnapshotError::Corrupt(format!("the job record is not UTF-8: {e}")))?;
    Ok(Segment {
        horizon,
        job,
        state: records.next().map(<[u8]>::to_vec),
        images: records.map(<[u8]>::to_vec).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("warp-seg-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const JOB: &str = r#"{"model":{"phold":{}},"gvt_period":5}"#;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn each_barrier_replaces_the_image_set() {
        let dir = scratch("replace");
        let store = SegmentStore::create(&dir, JOB.into()).unwrap();
        let path = segment_path(&dir);
        assert_eq!(
            load_segment(&path).unwrap(),
            Segment {
                horizon: VirtualTime::ZERO,
                job: JOB.into(),
                state: None,
                images: vec![],
            }
        );
        // A session starts before any barrier: state, no images yet.
        store
            .replace::<Vec<u8>>(VirtualTime::ZERO, Some(b"s"), &[])
            .unwrap();
        let loaded = load_segment(&path).unwrap();
        assert_eq!((loaded.state, loaded.images), (Some(b"s".to_vec()), vec![]));
        // Then K barriers, the state growing as telemetry accumulates:
        // the file is the last one's, never a sum.
        let mut last = Vec::new();
        for k in 1..=5u64 {
            let state = vec![b'x'; 100 * k as usize];
            let images = [format!("lp-0 @{k}").into_bytes(), vec![k as u8; 3]];
            store
                .replace(VirtualTime::new(40 * k), Some(&state), &images)
                .unwrap();
            last = images.to_vec();
            let loaded = load_segment(&path).unwrap();
            assert_eq!(loaded.state.unwrap(), state);
        }
        let loaded = load_segment(&path).unwrap();
        assert_eq!(loaded.horizon, VirtualTime::new(200));
        assert_eq!(loaded.job, JOB);
        assert_eq!(loaded.images, last);
        let expected = HEADER + (8 + JOB.len()) + (8 + 500) + (8 + "lp-0 @5".len()) + (8 + 3);
        assert_eq!(fs::metadata(&path).unwrap().len(), expected as u64);
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, vec!["images.seg"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_short_file_is_truncated_and_a_flipped_byte_fails_the_crc() {
        let dir = scratch("damage");
        let store = SegmentStore::create(&dir, JOB.into()).unwrap();
        store
            .replace(
                VirtualTime::new(7),
                Some(b"state"),
                &[b"first-image".to_vec(), b"second".to_vec()],
            )
            .unwrap();
        let full = fs::read(segment_path(&dir)).unwrap();
        assert!(matches!(
            parse_segment(&full[..full.len() - 3]),
            Err(SnapshotError::Truncated {
                context: "segment record payload",
                ..
            })
        ));
        assert!(matches!(
            parse_segment(&full[..full.len() - b"second".len() - 3]),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            parse_segment(&full[..HEADER]),
            Err(SnapshotError::Truncated {
                context: "segment job record",
                ..
            })
        ));
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            parse_segment(&flipped),
            Err(SnapshotError::BadCrc { record: 3, .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_and_old_files_are_refused() {
        assert!(matches!(
            parse_segment(b"GIF89a-definitely-not-warp"),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            parse_segment(b"short"),
            Err(SnapshotError::Truncated { .. })
        ));
        for old in [1u32, 2] {
            let mut bytes = b"WSEG".to_vec();
            bytes.extend_from_slice(&old.to_le_bytes());
            bytes.extend_from_slice(&[0; 8]);
            assert_eq!(
                parse_segment(&bytes),
                Err(SnapshotError::Version { found: old })
            );
        }
        let mut bad_job = b"WSEG".to_vec();
        bad_job.extend_from_slice(&SEG_VERSION.to_le_bytes());
        bad_job.extend_from_slice(&[0; 8]);
        bad_job.extend_from_slice(&2u32.to_le_bytes());
        bad_job.extend_from_slice(&crc32(&[0xff, 0xfe]).to_le_bytes());
        bad_job.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            parse_segment(&bad_job),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
