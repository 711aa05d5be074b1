//! `snap_record!` and `snap_enum!`: a wire format declared once.
//!
//! Each macro takes one list — a record's fields in wire order, or an
//! enum's variants with their tag bytes — and generates both
//! [`SnapEncode`](crate::SnapEncode) and [`SnapDecode`](crate::SnapDecode)
//! from it, so the encoder and the decoder cannot drift apart. The
//! compiler checks the list against the type:
//!
//! * a record's decoder builds the value with a struct literal, so a
//!   field left off the list is a compile error;
//! * an enum's encoder matches every listed variant with no wildcard and
//!   no `..`, so a variant without a tag, or a field left off a variant,
//!   is a compile error.
//!
//! Fields encode through their own codecs in list order, with no padding
//! or framing of their own. A tag is one byte; a byte outside the table
//! decodes to [`SnapError::Corrupt`](crate::SnapError::Corrupt) carrying
//! the enum's message.

/// Generate [`SnapEncode`](crate::SnapEncode) and
/// [`SnapDecode`](crate::SnapDecode) for a record from its field list.
///
/// `snap_record!(Type { a, b, c })` writes the fields in the listed
/// order, and `snap_record!(Type(_))` makes a one-field tuple struct
/// encode exactly as its field. Invoke it where the fields are visible.
///
/// ```
/// use tango_snap::{from_bytes, snap_record, to_bytes};
///
/// #[derive(Debug, PartialEq)]
/// struct Id(u32);
/// snap_record!(Id(_));
///
/// #[derive(Debug, PartialEq)]
/// struct Row {
///     id: Id,
///     load: f64,
///     tags: Vec<u16>,
/// }
/// snap_record!(Row { id, load, tags });
///
/// let row = Row { id: Id(7), load: 0.5, tags: vec![1, 2] };
/// let bytes = to_bytes(&row);
/// assert_eq!(bytes.len(), 4 + 8 + 8 + 2 * 2);
/// assert_eq!(from_bytes::<Row>(&bytes), Ok(row));
/// ```
///
/// A field left off the list does not compile:
///
/// ```compile_fail
/// # use tango_snap::snap_record;
/// struct Pair {
///     a: u8,
///     b: u8,
/// }
/// snap_record!(Pair { a });
/// ```
#[macro_export]
macro_rules! snap_record {
    ($ty:ident(_)) => {
        impl $crate::SnapEncode for $ty {
            fn encode(&self, w: &mut $crate::SnapWriter) {
                $crate::SnapEncode::encode(&self.0, w);
            }
        }
        impl $crate::SnapDecode for $ty {
            fn decode(
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::SnapError> {
                ::core::result::Result::Ok($ty($crate::SnapDecode::decode(r)?))
            }
        }
    };
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::SnapEncode for $ty {
            fn encode(&self, w: &mut $crate::SnapWriter) {
                $($crate::SnapEncode::encode(&self.$field, w);)+
            }
        }
        impl $crate::SnapDecode for $ty {
            fn decode(
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::SnapError> {
                ::core::result::Result::Ok($ty {
                    $($field: $crate::SnapDecode::decode(r)?,)+
                })
            }
        }
    };
}

/// Generate [`SnapEncode`](crate::SnapEncode) and
/// [`SnapDecode`](crate::SnapDecode) for an enum from its tag table.
///
/// Each entry maps a tag byte to a variant: a unit variant by name, a
/// struct variant with its field names, a tuple variant with one binding
/// name per field. A variant writes its tag, then its fields in the
/// listed order. A tag byte outside the table decodes to
/// `SnapError::Corrupt` with the given message.
///
/// ```
/// use tango_snap::{from_bytes, snap_enum, to_bytes, SnapError};
///
/// #[derive(Debug, PartialEq)]
/// enum Op {
///     Stop,
///     Move { x: i64, y: i64 },
///     Say(String),
/// }
/// snap_enum!(Op, "op tag" {
///     0 => Stop,
///     1 => Move { x, y },
///     4 => Say(text),
/// });
///
/// let op = Op::Move { x: -1, y: 2 };
/// assert_eq!(from_bytes::<Op>(&to_bytes(&op)), Ok(op));
/// assert_eq!(to_bytes(&Op::Stop), [0]);
/// assert_eq!(from_bytes::<Op>(&[2]), Err(SnapError::Corrupt("op tag")));
/// ```
///
/// Neither does a variant without a tag, nor a variant field left off:
///
/// ```compile_fail
/// # use tango_snap::snap_enum;
/// enum Light {
///     Red,
///     Green,
/// }
/// snap_enum!(Light, "light tag" { 0 => Red });
/// ```
///
/// ```compile_fail
/// # use tango_snap::snap_enum;
/// enum Shape {
///     Dot { x: u8, y: u8 },
/// }
/// snap_enum!(Shape, "shape tag" { 0 => Dot { x } });
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $variant:ident
            $({ $($field:ident),* $(,)? })?
            $(( $($binding:ident),* $(,)? ))?
        ),+ $(,)?
    }) => {
        impl $crate::SnapEncode for $ty {
            fn encode(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $($ty::$variant $({ $($field),* })? $(( $($binding),* ))? => {
                        w.put_u8($tag);
                        $($($crate::SnapEncode::encode($field, w);)*)?
                        $($($crate::SnapEncode::encode($binding, w);)*)?
                    })+
                }
            }
        }
        impl $crate::SnapDecode for $ty {
            fn decode(
                r: &mut $crate::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::SnapError> {
                match r.u8()? {
                    $($tag => {
                        $($(let $field = $crate::SnapDecode::decode(r)?;)*)?
                        $($(let $binding = $crate::SnapDecode::decode(r)?;)*)?
                        ::core::result::Result::Ok(
                            $ty::$variant $({ $($field),* })? $(( $($binding),* ))?
                        )
                    })+
                    _ => ::core::result::Result::Err($crate::SnapError::Corrupt($what)),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{from_bytes, to_bytes, SnapError};

    #[derive(Debug, Clone, PartialEq)]
    struct Span(u64);
    snap_record!(Span(_));

    #[derive(Debug, Clone, PartialEq)]
    struct Entry {
        span: Span,
        weight: f32,
        labels: Vec<String>,
        parent: Option<u32>,
    }
    snap_record!(Entry {
        span,
        weight,
        labels,
        parent,
    });

    #[derive(Debug, Clone, PartialEq)]
    enum Edit {
        Reset,
        // bindings named like the macros' own reader and writer: the
        // generated code must not confuse them
        Copy(u32, u32),
        Write { at: u64, entry: Entry },
    }
    snap_enum!(Edit, "edit tag" {
        0 => Reset,
        1 => Copy(r, w),
        5 => Write { at, entry },
    });

    fn entry() -> Entry {
        Entry {
            span: Span(9),
            weight: -1.5,
            labels: vec!["a".into(), "bc".into()],
            parent: Some(3),
        }
    }

    #[test]
    fn records_write_their_fields_in_list_order_and_nothing_else() {
        assert_eq!(to_bytes(&Span(0x0102)), 0x0102u64.to_le_bytes());
        let mut expect = Vec::new();
        expect.extend_from_slice(&9u64.to_le_bytes());
        expect.extend_from_slice(&(-1.5f32).to_bits().to_le_bytes());
        expect.extend_from_slice(&2u64.to_le_bytes());
        expect.extend_from_slice(&1u64.to_le_bytes());
        expect.extend_from_slice(b"a");
        expect.extend_from_slice(&2u64.to_le_bytes());
        expect.extend_from_slice(b"bc");
        expect.push(1);
        expect.extend_from_slice(&3u32.to_le_bytes());
        assert_eq!(to_bytes(&entry()), expect);
        assert_eq!(from_bytes::<Entry>(&expect), Ok(entry()));
    }

    #[test]
    fn enums_write_the_tag_then_the_fields_and_keep_bindings_apart() {
        assert_eq!(to_bytes(&Edit::Reset), [0]);
        let copy = to_bytes(&Edit::Copy(7, 8));
        assert_eq!(copy, [1, 7, 0, 0, 0, 8, 0, 0, 0]);
        assert_eq!(from_bytes::<Edit>(&copy), Ok(Edit::Copy(7, 8)));
        let write = Edit::Write {
            at: 11,
            entry: entry(),
        };
        let bytes = to_bytes(&write);
        assert_eq!(bytes[0], 5);
        assert_eq!(&bytes[1..9], 11u64.to_le_bytes());
        assert_eq!(&bytes[9..], to_bytes(&entry()));
        assert_eq!(from_bytes::<Edit>(&bytes), Ok(write));
    }

    #[test]
    fn tags_outside_the_table_and_short_input_are_typed_errors() {
        for tag in [2u8, 3, 4, 6, 255] {
            assert_eq!(
                from_bytes::<Edit>(&[tag]),
                Err(SnapError::Corrupt("edit tag"))
            );
        }
        let bytes = to_bytes(&Edit::Copy(1, 2));
        for cut in 0..bytes.len() {
            assert_eq!(from_bytes::<Edit>(&bytes[..cut]), Err(SnapError::Truncated));
        }
    }
}
