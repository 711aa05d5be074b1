//! Whole-file framing: magic, version, fingerprint, tagged sections,
//! trailing checksum.

use crate::rw::{SnapReader, SnapWriter};
use crate::{checksum, SnapError};

/// The eight magic bytes every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"TNGOSNAP";

/// The format version this build writes and reads. Bump on any change to
/// the file layout or to any section's encoding; decoding a snapshot
/// written under a different version fails with
/// [`SnapError::VersionMismatch`] instead of misreading state.
pub const FORMAT_VERSION: u16 = 5;

/// Builds a sealed snapshot file from tagged sections.
#[derive(Debug)]
pub struct SnapFileBuilder {
    fingerprint: u64,
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapFileBuilder {
    /// Start a snapshot stamped with a caller-defined configuration
    /// fingerprint (checked again at restore time).
    pub fn new(fingerprint: u64) -> Self {
        SnapFileBuilder {
            fingerprint,
            sections: Vec::new(),
        }
    }

    /// Append one section. `encode` writes the payload; tags should be
    /// unique per file (lookup returns the first match).
    pub fn section(&mut self, tag: u32, encode: impl FnOnce(&mut SnapWriter)) {
        let mut w = SnapWriter::new();
        encode(&mut w);
        self.sections.push((tag, w.into_bytes()));
    }

    /// Seal the file: header, sections, [`checksum`].
    pub fn seal(self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_raw(&MAGIC);
        w.put_u16(FORMAT_VERSION);
        w.put_u64(self.fingerprint);
        w.put_u32(self.sections.len() as u32);
        for (tag, payload) in &self.sections {
            w.put_u32(*tag);
            w.put_u64(payload.len() as u64);
            w.put_raw(payload);
        }
        let mut bytes = w.into_bytes();
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }
}

/// A parsed, checksum-verified snapshot file borrowing its input.
#[derive(Debug, PartialEq, Eq)]
pub struct SnapFile<'a> {
    /// The configuration fingerprint the snapshot was sealed with.
    pub fingerprint: u64,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> SnapFile<'a> {
    /// Parse and verify `bytes`. Checks, in order: magic, format
    /// version, whole-file checksum, section bounds.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapError> {
        if bytes.len() < MAGIC.len() {
            return Err(SnapError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        // magic(8) + version(2) + fingerprint(8) + count(4) + checksum(8)
        if bytes.len() < 30 {
            return Err(SnapError::Truncated);
        }
        let version = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(SnapError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let body = &bytes[..bytes.len() - 8];
        let found = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        let computed = checksum(body);
        if found != computed {
            return Err(SnapError::BadChecksum { found, computed });
        }
        let mut r = SnapReader::new(&body[10..]);
        let fingerprint = r.u64()?;
        let count = r.u32()? as usize;
        let mut sections = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let tag = r.u32()?;
            let len = usize::try_from(r.u64()?).map_err(|_| SnapError::Truncated)?;
            if len > r.remaining() {
                return Err(SnapError::Truncated);
            }
            let payload = r.take(len)?;
            sections.push((tag, payload));
        }
        r.expect_end("trailing bytes after last section")?;
        Ok(SnapFile {
            fingerprint,
            sections,
        })
    }

    /// A reader over the payload of the section with `tag`.
    pub fn section(&self, tag: u32, what: &'static str) -> Result<SnapReader<'a>, SnapError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| SnapReader::new(p))
            .ok_or(SnapError::Corrupt(what))
    }

    /// Tags present in this file, in file order.
    pub fn tags(&self) -> Vec<u32> {
        self.sections.iter().map(|(t, _)| *t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut b = SnapFileBuilder::new(0xFEED_FACE_CAFE_BEEF);
        b.section(1, |w| w.put_u64(42));
        b.section(2, |w| w.put_str("state"));
        b.seal()
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let f = SnapFile::parse(&bytes).unwrap();
        assert_eq!(f.fingerprint, 0xFEED_FACE_CAFE_BEEF);
        assert_eq!(f.tags(), vec![1, 2]);
        assert_eq!(f.section(1, "one").unwrap().u64().unwrap(), 42);
        assert_eq!(f.section(2, "two").unwrap().str().unwrap(), "state");
        assert_eq!(
            f.section(9, "missing section nine"),
            Err(SnapError::Corrupt("missing section nine"))
        );
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(SnapFile::parse(&bytes), Err(SnapError::BadMagic));
    }

    #[test]
    fn version_bump_detected_before_checksum() {
        let mut bytes = sample();
        bytes[8] = 99; // version word, checksum left stale on purpose
        assert_eq!(
            SnapFile::parse(&bytes),
            Err(SnapError::VersionMismatch {
                found: 99,
                expected: FORMAT_VERSION
            })
        );
    }

    #[test]
    fn corruption_fails_checksum() {
        let mut bytes = sample();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            SnapFile::parse(&bytes),
            Err(SnapError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample();
        for cut in [0, 4, 12, bytes.len() - 1] {
            let err = SnapFile::parse(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapError::Truncated | SnapError::BadChecksum { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn section_length_past_end_is_truncated() {
        // hand-build a file whose single section claims more bytes than exist
        let mut w = SnapWriter::new();
        w.put_raw(&MAGIC);
        w.put_u16(FORMAT_VERSION);
        w.put_u64(0);
        w.put_u32(1);
        w.put_u32(7); // tag
        w.put_u64(1_000_000); // length lie
        let mut bytes = w.into_bytes();
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(SnapFile::parse(&bytes), Err(SnapError::Truncated));
    }

    #[test]
    fn empty_file_is_truncated() {
        assert_eq!(SnapFile::parse(&[]), Err(SnapError::Truncated));
    }
}
