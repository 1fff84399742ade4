//! Durable backing for the coordinator's checkpoint images.
//!
//! The coordinator's in-memory images (`CkptStore` in the distributed
//! executive) are authoritative while it lives; this module gives them a
//! durable shadow so an operator can audit what a resume would load, and
//! so they survive the coordinator process itself. One *segment file*
//! holds the latest image set, replaced whole at each committed barrier:
//!
//! ```text
//! header:  "WSEG" | u32 version (2) | u64 horizon
//! records: repeat [u32 len][u32 crc32][LP image]          (little-endian)
//! ```
//!
//! Each payload is one LP's image of the horizon, exactly as its worker
//! shipped it; the CRC32 (IEEE) guards it against bit rot. A replacement
//! is written to a temporary file and renamed into place, so a crash
//! mid-write leaves the old set or the new one, never a hybrid. A short
//! file is [`SnapshotError::Truncated`], distinguishable from a corrupted
//! ([`SnapshotError::BadCrc`]) or foreign ([`SnapshotError::Corrupt`])
//! one.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use warp_core::VirtualTime;

use super::SnapshotError;

/// Segment file magic.
pub(crate) const SEG_MAGIC: &[u8; 4] = b"WSEG";
/// Segment format version: 2 holds the latest image set (1 held
/// per-worker delta chains).
pub(crate) const SEG_VERSION: u32 = 2;
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

/// The segment file of one run.
#[derive(Debug)]
pub(crate) struct SegmentStore {
    dir: PathBuf,
    /// Image bytes written, for the run report.
    pub(crate) spilled_bytes: u64,
}

impl SegmentStore {
    /// Create the directory if needed and write an empty image set of
    /// horizon zero: a fresh run never resumes another run's images.
    pub(crate) fn create(dir: &Path) -> Result<Self, SnapshotError> {
        fs::create_dir_all(dir)?;
        let mut store = SegmentStore::open(dir);
        store.replace::<Vec<u8>>(VirtualTime::ZERO, &[])?;
        Ok(store)
    }

    /// The store of an interrupted run, whose segment file the caller has
    /// already loaded. `spilled_bytes` restarts at zero: the journal
    /// carries the pre-outage total.
    pub(crate) fn open(dir: &Path) -> Self {
        SegmentStore {
            dir: dir.to_path_buf(),
            spilled_bytes: 0,
        }
    }

    /// Replace the segment file with the image set of `horizon`: write a
    /// sibling temporary file, then rename it into place.
    pub(crate) fn replace<I: AsRef<[u8]>>(
        &mut self,
        horizon: VirtualTime,
        images: &[I],
    ) -> Result<(), SnapshotError> {
        let tmp = self.dir.join("images.seg.tmp");
        let mut buf =
            Vec::with_capacity(HEADER + images.iter().map(|i| 8 + i.as_ref().len()).sum::<usize>());
        buf.extend_from_slice(SEG_MAGIC);
        buf.extend_from_slice(&SEG_VERSION.to_le_bytes());
        buf.extend_from_slice(&horizon.ticks().to_le_bytes());
        for image in images {
            let image = image.as_ref();
            buf.extend_from_slice(&(image.len() as u32).to_le_bytes());
            buf.extend_from_slice(&crc32(image).to_le_bytes());
            buf.extend_from_slice(image);
            self.spilled_bytes += image.len() as u64;
        }
        fs::File::create(&tmp)?.write_all(&buf)?;
        fs::rename(&tmp, segment_path(&self.dir))?;
        Ok(())
    }
}

/// Read a segment file back into `(horizon, LP images)`.
pub(crate) fn load_segment(path: &Path) -> Result<(VirtualTime, Vec<Vec<u8>>), SnapshotError> {
    parse_segment(&fs::read(path)?).map_err(|e| match e {
        SnapshotError::Corrupt(detail) => {
            SnapshotError::Corrupt(format!("{}: {detail}", path.display()))
        }
        other => other,
    })
}

/// Parse a segment file's bytes, validating the header and every
/// record's CRC. Total: a short buffer is [`SnapshotError::Truncated`], a
/// checksum mismatch [`SnapshotError::BadCrc`], a foreign header
/// [`SnapshotError::Corrupt`]; no allocation exceeds the input.
pub(crate) fn parse_segment(buf: &[u8]) -> Result<(VirtualTime, Vec<Vec<u8>>), SnapshotError> {
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
        return Err(SnapshotError::Corrupt(format!(
            "segment version {version}, this build reads {SEG_VERSION}"
        )));
    }
    let horizon =
        VirtualTime::from_ticks(u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")));
    let mut images = Vec::new();
    let mut pos = HEADER;
    while pos < buf.len() {
        let record = images.len();
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
        images.push(payload.to_vec());
        pos += len;
    }
    Ok((horizon, images))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("warp-seg-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn each_barrier_replaces_the_image_set() {
        let dir = scratch("replace");
        let mut store = SegmentStore::create(&dir).unwrap();
        let path = segment_path(&dir);
        assert_eq!(load_segment(&path).unwrap(), (VirtualTime::ZERO, vec![]));
        store
            .replace(VirtualTime::new(40), &[b"lp-0".to_vec(), b"lp-1".to_vec()])
            .unwrap();
        store
            .replace(
                VirtualTime::new(90),
                &[b"lp-0 again".to_vec(), b"1".to_vec()],
            )
            .unwrap();
        assert_eq!(store.spilled_bytes, 4 + 4 + 10 + 1);
        let (h, images) = load_segment(&path).unwrap();
        assert_eq!(h, VirtualTime::new(90));
        assert_eq!(images, vec![b"lp-0 again".to_vec(), b"1".to_vec()]);
        assert!(!dir.join("images.seg.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_short_file_is_truncated_and_a_flipped_byte_fails_the_crc() {
        let dir = scratch("damage");
        let mut store = SegmentStore::create(&dir).unwrap();
        store
            .replace(
                VirtualTime::new(7),
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
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            parse_segment(&flipped),
            Err(SnapshotError::BadCrc { record: 1, .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_and_old_files_are_rejected_as_corrupt() {
        assert!(matches!(
            parse_segment(b"GIF89a-definitely-not-warp"),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            parse_segment(b"short"),
            Err(SnapshotError::Truncated { .. })
        ));
        let mut v1 = b"WSEG".to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&[0; 8]);
        assert!(matches!(parse_segment(&v1), Err(SnapshotError::Corrupt(_))));
    }
}
