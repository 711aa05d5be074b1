//! `tango-snap`: the hand-rolled versioned binary snapshot codec.
//!
//! The workspace builds offline, so serde is deliberately unavailable
//! (it was dropped in the first performance PR). This crate provides the
//! small, explicit substitute the checkpoint/restore subsystem needs:
//!
//! * [`SnapWriter`] / [`SnapReader`] — little-endian primitive framing
//!   with explicit bounds checks (no panics on malformed input);
//! * [`SnapEncode`] / [`SnapDecode`] — the trait pair every snapshotted
//!   type implements, with blanket impls for primitives, tuples of up to
//!   four, arrays, `String`, `Vec`, `VecDeque`, `Option`, and (encode
//!   only) references and slices, plus [`to_bytes`] / [`from_bytes`];
//! * [`snap_record!`] / [`snap_enum!`] — declare a record's field list or
//!   an enum's tag table once and generate both impls from it. Every
//!   plain record and tag enum in the workspace is declared this way; a
//!   codec stays hand-written only where its decoder validates against
//!   the system it restores into (DESIGN.md §11);
//! * [`SnapFileBuilder`] / [`SnapFile`] — whole-file framing: a magic
//!   header, a format-version word, a caller-supplied config
//!   fingerprint, tagged length-prefixed sections, and a [`checksum`]
//!   over everything that precedes it;
//! * [`SnapError`] — the typed failure surface. Restoring a truncated,
//!   corrupted or version-bumped snapshot must return one of these,
//!   never panic.
//!
//! The crate is dependency-free on purpose: it sits below `tango-types`
//! in the crate graph so every other crate can implement the traits for
//! its own state without orphan-rule gymnastics.
//!
//! # File layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"TNGOSNAP"
//! 8       2     format version (u16 LE)   — bump on any layout change
//! 10      8     config fingerprint (u64)  — caller-defined compatibility key
//! 18      4     section count (u32)
//! 22      ...   sections: tag (u32) | byte length (u64) | payload
//! end-8   8     checksum over bytes [0, end-8)
//! ```
//!
//! The checksum is FNV-1a folded over little-endian 8-byte words, then
//! over the tail bytes one at a time ([`checksum`]): one multiply per
//! word instead of one per byte. Each fold step is a bijection of the
//! running hash for a fixed input, so a change confined to one word
//! (or one tail byte) always changes the result. Byte-wise [`fnv1a`]
//! stays where its values are pinned: run digests, config fingerprints
//! and control-plane frames.
//!
//! Parsing checks, in order: magic, version, checksum, then section
//! bounds — so a version bump reports [`SnapError::VersionMismatch`]
//! rather than a checksum failure, and every later read is bounds-safe.

#![deny(missing_docs)]

mod error;
mod file;
mod macros;
mod rw;

pub use error::SnapError;
pub use file::{SnapFile, SnapFileBuilder, FORMAT_VERSION, MAGIC};
pub use rw::{from_bytes, to_bytes, SnapDecode, SnapEncode, SnapReader, SnapWriter};

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over `bytes`, starting from the standard offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a fold from an existing hash value.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The snapshot file checksum: FNV-1a over `bytes` read as
/// little-endian `u64` words, then over the remaining tail bytes.
pub fn checksum(bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(FNV_OFFSET, |h, w| {
        let word = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        (h ^ word).wrapping_mul(FNV_PRIME)
    });
    fnv1a_extend(h, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn checksum_folds_words_then_tail_bytes() {
        assert_eq!(checksum(b""), FNV_OFFSET);
        // a tail shorter than a word folds byte by byte, like fnv1a
        assert_eq!(checksum(b"foobar"), fnv1a(b"foobar"));
        let word = u64::from_le_bytes(*b"01234567");
        let h = (FNV_OFFSET ^ word).wrapping_mul(FNV_PRIME);
        assert_eq!(checksum(b"01234567"), h);
        assert_eq!(checksum(b"01234567ab"), fnv1a_extend(h, b"ab"));
    }

    #[test]
    fn checksum_detects_every_single_word_change() {
        let base: Vec<u8> = (0..53u8).collect();
        let h = checksum(&base);
        for at in 0..base.len() {
            for bit in 0..8 {
                let mut b = base.clone();
                b[at] ^= 1 << bit;
                assert_ne!(checksum(&b), h, "bit {bit} of byte {at}");
            }
            // a whole-word rewrite of the word holding `at`
            let mut b = base.clone();
            let w = at / 8 * 8;
            for x in &mut b[w..(w + 8).min(base.len())] {
                *x = x.wrapping_add(0x5b);
            }
            assert_ne!(checksum(&b), h, "word at {w}");
        }
    }

    #[test]
    fn fnv1a_extend_composes() {
        let whole = fnv1a(b"hello world");
        let split = fnv1a_extend(fnv1a(b"hello "), b"world");
        assert_eq!(whole, split);
    }
}
