//! Primitive little-endian framing and the `SnapEncode`/`SnapDecode`
//! trait pair.

use crate::SnapError;
use std::collections::VecDeque;

/// An append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Write a `bool` as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Write a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append raw bytes without a length prefix (framing internals).
    pub(crate) fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// A bounds-checked little-endian byte source over a borrowed buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read an `f32` from its bit pattern.
    pub fn f32(&mut self) -> Result<f32, SnapError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Read a `bool`; any byte other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte")),
        }
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| SnapError::Truncated)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapError::Corrupt("utf-8 string"))
    }

    /// Read a length prefix that will gate a following loop, rejecting
    /// lengths that could not possibly fit in the remaining bytes (every
    /// element takes at least one). This keeps a corrupted length from
    /// turning into a giant allocation.
    pub fn len_prefix(&mut self) -> Result<usize, SnapError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| SnapError::Truncated)?;
        if n > self.remaining() {
            return Err(SnapError::Truncated);
        }
        Ok(n)
    }

    /// An empty `Vec` to decode `n` elements into. The up-front
    /// reservation is capped at `remaining() / size_of::<T>()` elements,
    /// so a forged count reserves no more memory than the input holds; a
    /// genuine count past the cap only makes the `Vec` regrow.
    pub fn capped_vec<T>(&self, n: usize) -> Vec<T> {
        Vec::with_capacity(n.min(self.remaining() / std::mem::size_of::<T>().max(1)))
    }

    /// Fail unless the reader is exactly exhausted — catches section
    /// payloads with trailing garbage.
    pub fn expect_end(&self, what: &'static str) -> Result<(), SnapError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapError::Corrupt(what))
        }
    }
}

/// A type that can write itself into a [`SnapWriter`].
pub trait SnapEncode {
    /// Append this value's encoding.
    fn encode(&self, w: &mut SnapWriter);
}

/// A type that can reconstruct itself from a [`SnapReader`].
pub trait SnapDecode: Sized {
    /// Read one value, consuming exactly what [`SnapEncode::encode`]
    /// wrote.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! primitive_codec {
    ($ty:ty, $put:ident, $get:ident) => {
        impl SnapEncode for $ty {
            fn encode(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
        }
        impl SnapDecode for $ty {
            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$get()
            }
        }
    };
}

primitive_codec!(u8, put_u8, u8);
primitive_codec!(u16, put_u16, u16);
primitive_codec!(u32, put_u32, u32);
primitive_codec!(u64, put_u64, u64);
primitive_codec!(i64, put_i64, i64);
primitive_codec!(f64, put_f64, f64);
primitive_codec!(f32, put_f32, f32);
primitive_codec!(bool, put_bool, bool);

impl SnapEncode for usize {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
}
impl SnapDecode for usize {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        usize::try_from(r.u64()?).map_err(|_| SnapError::Corrupt("usize out of range"))
    }
}

impl SnapEncode for String {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
}
impl SnapDecode for String {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.str()?.to_string())
    }
}

/// The bytes of `v`'s encoding.
pub fn to_bytes<T: SnapEncode + ?Sized>(v: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    v.encode(&mut w);
    w.into_bytes()
}

/// Decode one `T` that must span all of `bytes`: trailing bytes are
/// [`SnapError::Corrupt`].
pub fn from_bytes<T: SnapDecode>(bytes: &[u8]) -> Result<T, SnapError> {
    let mut r = SnapReader::new(bytes);
    let v = T::decode(&mut r)?;
    r.expect_end("trailing bytes")?;
    Ok(v)
}

impl<T: SnapEncode + ?Sized> SnapEncode for &T {
    fn encode(&self, w: &mut SnapWriter) {
        (**self).encode(w);
    }
}

/// A slice encodes as the `Vec` holding the same elements.
impl<T: SnapEncode> SnapEncode for [T] {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
}

impl<T: SnapEncode> SnapEncode for Vec<T> {
    fn encode(&self, w: &mut SnapWriter) {
        self.as_slice().encode(w);
    }
}
impl<T: SnapDecode> SnapDecode for Vec<T> {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = r.capped_vec(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: SnapEncode> SnapEncode for VecDeque<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
}
impl<T: SnapDecode> SnapDecode for VecDeque<T> {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

impl<T: SnapEncode> SnapEncode for Option<T> {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}
impl<T: SnapDecode> SnapDecode for Option<T> {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(SnapError::Corrupt("option tag")),
        }
    }
}

impl<A: SnapEncode, B: SnapEncode> SnapEncode for (A, B) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
}
impl<A: SnapDecode, B: SnapDecode> SnapDecode for (A, B) {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: SnapEncode, B: SnapEncode, C: SnapEncode> SnapEncode for (A, B, C) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
}
impl<A: SnapDecode, B: SnapDecode, C: SnapDecode> SnapDecode for (A, B, C) {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<A: SnapEncode, B: SnapEncode, C: SnapEncode, D: SnapEncode> SnapEncode for (A, B, C, D) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
        self.3.encode(w);
    }
}
impl<A: SnapDecode, B: SnapDecode, C: SnapDecode, D: SnapDecode> SnapDecode for (A, B, C, D) {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?, D::decode(r)?))
    }
}

impl<T: SnapEncode, const N: usize> SnapEncode for [T; N] {
    fn encode(&self, w: &mut SnapWriter) {
        for v in self {
            v.encode(w);
        }
    }
}
impl<T: SnapDecode + Copy + Default, const N: usize> SnapDecode for [T; N] {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for v in out.iter_mut() {
            *v = T::decode(r)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(-0.125);
        w.put_f32(3.5);
        w.put_bool(true);
        w.put_str("hëllo");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.f32().unwrap(), 3.5);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hëllo");
        assert!(r.is_empty());
        r.expect_end("tail").unwrap();
    }

    #[test]
    fn nan_round_trips_bit_exact() {
        let weird = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut w = SnapWriter::new();
        w.put_f64(weird);
        let bytes = w.into_bytes();
        let got = SnapReader::new(&bytes).f64().unwrap();
        assert_eq!(got.to_bits(), weird.to_bits());
    }

    #[test]
    fn reads_past_the_end_are_truncated_not_panics() {
        let mut r = SnapReader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), Err(SnapError::Truncated));
        // the failed read consumed nothing
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert_eq!(r.u16(), Err(SnapError::Truncated));
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<u64> = vec![1, 2, 3];
        let d: VecDeque<u32> = vec![9, 8].into();
        let o: Option<String> = Some("x".into());
        let none: Option<u8> = None;
        let pair = (5u64, true);
        let quad = (1u8, -2i64, 0.5f32, Some(9u16));
        let arr = [1u64, 2, 3, 4];
        let mut w = SnapWriter::new();
        v.encode(&mut w);
        d.encode(&mut w);
        o.encode(&mut w);
        none.encode(&mut w);
        pair.encode(&mut w);
        quad.encode(&mut w);
        arr.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), v);
        assert_eq!(VecDeque::<u32>::decode(&mut r).unwrap(), d);
        assert_eq!(Option::<String>::decode(&mut r).unwrap(), o);
        assert_eq!(Option::<u8>::decode(&mut r).unwrap(), none);
        assert_eq!(<(u64, bool)>::decode(&mut r).unwrap(), pair);
        assert_eq!(<(u8, i64, f32, Option<u16>)>::decode(&mut r).unwrap(), quad);
        assert_eq!(<[u64; 4]>::decode(&mut r).unwrap(), arr);
        assert!(r.is_empty());
    }

    #[test]
    fn references_and_slices_encode_as_what_they_point_at() {
        let v = vec![(3u32, 1.5f64), (4, -0.0)];
        let refs: Vec<(&u32, &f64)> = v.iter().map(|(a, b)| (a, b)).collect();
        assert_eq!(to_bytes(v.as_slice()), to_bytes(&v));
        assert_eq!(to_bytes(&refs), to_bytes(&v));
        assert_eq!(from_bytes::<Vec<(u32, f64)>>(&to_bytes(&refs)), Ok(v));
        let mut trailing = to_bytes(&7u32);
        trailing.push(0);
        assert_eq!(
            from_bytes::<u32>(&trailing),
            Err(SnapError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        // a Vec claiming u64::MAX elements must not allocate
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Vec::<u64>::decode(&mut r), Err(SnapError::Truncated));
    }

    #[test]
    fn forged_count_of_large_elements_is_an_error_not_an_abort() {
        // 65,536 elements of 1 MiB claimed over 64 KiB of payload: the
        // count passes the one-byte-per-element check, so only the
        // reservation cap stands between it and a 64 GiB allocation
        #[allow(dead_code)] // only its size matters: no value is ever built
        struct Huge([u8; 1 << 20]);
        impl SnapDecode for Huge {
            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.u8()?;
                Err(SnapError::Corrupt("huge element"))
            }
        }
        let mut w = SnapWriter::new();
        w.put_u64(1 << 16);
        w.put_raw(&[0; 1 << 16]);
        let bytes = w.into_bytes();
        // a 1 MiB value in flight needs more stack than a test thread has
        let decoded = std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(move || Vec::<Huge>::decode(&mut SnapReader::new(&bytes)).map(|v| v.len()))
            .expect("spawn decoder thread")
            .join()
            .expect("decoder thread");
        assert_eq!(decoded, Err(SnapError::Corrupt("huge element")));
    }

    #[test]
    fn bad_tags_are_corrupt() {
        let mut r = SnapReader::new(&[2]);
        assert_eq!(r.bool(), Err(SnapError::Corrupt("bool byte")));
        let mut r = SnapReader::new(&[7, 0]);
        assert_eq!(
            Option::<u8>::decode(&mut r),
            Err(SnapError::Corrupt("option tag"))
        );
    }
}
