//! The wire format, byte for byte: one row per encoding rule, each a
//! value and the exact bytes it must encode to and decode from.
//!
//! The roundtrip proptests accept any encoding that decodes back to
//! itself, so they cannot see a changed byte; this table can. A row
//! that fails here is a wire-format change, not a test to update.

use clouds_codec::{from_bytes, to_bytes, PageBytes};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Unit;

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Point {
    x: i32,
    y: u16,
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
enum Shape {
    Unit,
    Newtype(u8),
    Tuple(u8, u16),
    Struct { r: bool, s: String },
}

/// One table row: `value` of type `ty` encodes to exactly `bytes`, and
/// `bytes` decode to exactly `value`.
macro_rules! row {
    ($ty:ty, $value:expr, $bytes:expr) => {{
        let value: $ty = $value;
        let bytes: &[u8] = &$bytes;
        let label = stringify!($ty = $value);
        assert_eq!(to_bytes(&value).unwrap(), bytes, "encoding of {label}");
        assert_eq!(
            from_bytes::<$ty>(bytes).unwrap(),
            value,
            "decoding of {label}"
        );
    }};
}

#[test]
fn every_rule_encodes_to_its_pinned_bytes() {
    // Integers: fixed width, little-endian; usize/isize as 64 bits.
    row!(
        i128,
        -2,
        [
            0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            0xff, 0xff
        ]
    );
    row!(
        u128,
        (1 << 64) | 0x0102,
        [2, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    );
    row!(usize, 0x0102_0304, [4, 3, 2, 1, 0, 0, 0, 0]);
    // `bool` is one byte, `char` its `u32` scalar, floats their IEEE bits.
    row!(bool, true, [1]);
    row!(char, '\u{1F600}', [0x00, 0xf6, 0x01, 0x00]);
    row!(f64, 1.5, [0, 0, 0, 0, 0, 0, 0xf8, 0x3f]);
    // Strings: `u64` length, then the UTF-8 bytes.
    row!(String, String::new(), [0, 0, 0, 0, 0, 0, 0, 0]);
    row!(
        String,
        "hi".to_string(),
        [2, 0, 0, 0, 0, 0, 0, 0, b'h', b'i']
    );
    // `Option`: a tag byte, then the value.
    row!(Option<u16>, None, [0]);
    row!(Option<u16>, Some(0x0102), [1, 2, 1]);
    // Sequences and maps: `u64` length, then the elements in order.
    row!(
        Vec<u16>,
        vec![1, 0x0203],
        [2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3, 2]
    );
    row!(
        BTreeMap<u8, bool>,
        BTreeMap::from([(2, true), (1, false)]),
        [2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 1]
    );
    // Tuples and arrays: the elements only, no length; `()` is nothing.
    row!((u8, i16, bool), (7, -1, true), [7, 0xff, 0xff, 1]);
    row!([u8; 3], [9, 8, 7], [9, 8, 7]);
    row!((), (), []);
    // Structs: the fields in declaration order, no framing.
    row!(Unit, Unit, []);
    row!(Point, Point { x: -1, y: 2 }, [0xff, 0xff, 0xff, 0xff, 2, 0]);
    // Enums: the `u32` declaration index, then the variant's payload.
    row!(Shape, Shape::Unit, [0, 0, 0, 0]);
    row!(Shape, Shape::Newtype(5), [1, 0, 0, 0, 5]);
    row!(Shape, Shape::Tuple(1, 0x0203), [2, 0, 0, 0, 1, 3, 2]);
    row!(
        Shape,
        Shape::Struct {
            r: true,
            s: "a".to_string()
        },
        [3, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, b'a']
    );
    // `PageBytes`: exactly the bytes of the same `Vec<u8>`.
    row!(
        PageBytes,
        PageBytes::from(vec![1, 2, 3]),
        [3, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3]
    );
    assert_eq!(
        to_bytes(&PageBytes::from(vec![1, 2, 3])).unwrap(),
        to_bytes(&vec![1u8, 2, 3]).unwrap()
    );
}
