//! The framing both ctrl wire formats share: `[magic u32][version u16]
//! [body][FNV-1a u64]`, the checksum covering everything before it.

use tango_snap::{fnv1a, SnapError, SnapReader, SnapWriter};

/// Frame the body `write_body` appends under `magic` and `version`.
pub(crate) fn seal(magic: u32, version: u16, write_body: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u32(magic);
    w.put_u16(version);
    write_body(&mut w);
    let mut bytes = w.into_bytes();
    let checksum = fnv1a(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Validate a frame whose magic is one of `magics` and return that magic
/// with a reader positioned at the body. Checks run in a fixed order —
/// length, checksum, magic, version — so each corruption maps onto one
/// [`SnapError`]; nothing here panics.
pub(crate) fn open<'a>(
    bytes: &'a [u8],
    magics: &[u32],
    version: u16,
) -> Result<(u32, SnapReader<'a>), SnapError> {
    if bytes.len() < 4 + 2 + 8 {
        return Err(SnapError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let found = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = fnv1a(body);
    if found != computed {
        return Err(SnapError::BadChecksum { found, computed });
    }
    let mut r = SnapReader::new(body);
    let magic = r.u32()?;
    if !magics.contains(&magic) {
        return Err(SnapError::BadMagic);
    }
    let found = r.u16()?;
    if found != version {
        return Err(SnapError::VersionMismatch {
            found,
            expected: version,
        });
    }
    Ok((magic, r))
}
