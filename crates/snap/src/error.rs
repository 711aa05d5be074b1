//! The typed failure surface of snapshot decoding.

use std::fmt;

/// Why a snapshot could not be decoded or restored.
///
/// Every malformed input maps to one of these variants; decoding never
/// panics. The variants are ordered roughly by how early in parsing they
/// can occur.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before a read completed (file cut short, or a
    /// section length pointing past the end).
    Truncated,
    /// The file does not start with the `TNGOSNAP` magic.
    BadMagic,
    /// The format-version word differs from what this build writes.
    VersionMismatch {
        /// Version found in the file.
        found: u16,
        /// Version this build understands.
        expected: u16,
    },
    /// The whole-file checksum did not match — bytes were
    /// corrupted after the snapshot was sealed.
    BadChecksum {
        /// Checksum stored in the file.
        found: u64,
        /// Checksum recomputed over the file body.
        computed: u64,
    },
    /// The snapshot was taken under a different configuration than the
    /// one offered for restore (fingerprints disagree).
    ConfigMismatch {
        /// Fingerprint stored in the snapshot.
        found: u64,
        /// Fingerprint of the configuration offered for restore.
        expected: u64,
    },
    /// Structurally invalid content past the header: a missing section,
    /// an out-of-range discriminant, an impossible count. The payload
    /// names the offending structure.
    Corrupt(&'static str),
    /// The state cannot be snapshotted at all (e.g. an RL policy whose
    /// agent state has no stable serialization). Returned by `snapshot`,
    /// not by decoding.
    Unsupported(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a tango snapshot (bad magic)"),
            SnapError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} (this build reads {expected})"
            ),
            SnapError::BadChecksum { found, computed } => write!(
                f,
                "snapshot checksum mismatch (file {found:#018x}, computed {computed:#018x})"
            ),
            SnapError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot config fingerprint {found:#018x} does not match offered config {expected:#018x}"
            ),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::Unsupported(what) => write!(f, "state not snapshotable: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SnapError::VersionMismatch {
            found: 9,
            expected: 1,
        };
        assert!(e.to_string().contains("version 9"));
        assert!(SnapError::Truncated.to_string().contains("truncated"));
        assert!(SnapError::Corrupt("node count")
            .to_string()
            .contains("node count"));
    }
}
