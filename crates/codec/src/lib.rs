//! `clouds-codec` — a compact, self-contained binary serialization format
//! built on [serde], used for Clouds invocation parameters.
//!
//! In the Clouds object–thread model, data crosses object boundaries only
//! as *values*: "these arguments/results are strictly data; they may not be
//! addresses" (§2.2 of the paper). This crate provides the wire form of
//! those values: a deterministic little-endian encoding with
//! length-prefixed sequences, so a parameter block produced on one
//! (simulated) node can be decoded inside any other object's address space.
//!
//! The format is intentionally similar to `bincode`'s fixed-int encoding:
//!
//! * integers: little-endian, fixed width
//! * `bool`: one byte, `0` or `1`
//! * `f32`/`f64`: IEEE-754 bits, little-endian
//! * `char`: `u32` scalar value
//! * strings / byte strings: `u64` length followed by the bytes
//! * `Option<T>`: tag byte (`0` = `None`, `1` = `Some`) then the value
//! * sequences / maps: `u64` length then elements (unknown-length
//!   sequences are rejected)
//! * structs / tuples: fields in order, no framing
//! * enums: `u32` variant index then the variant payload
//!
//! # Examples
//!
//! ```
//! # use serde::{Serialize, Deserialize};
//! # fn main() -> Result<(), clouds_codec::Error> {
//! #[derive(Serialize, Deserialize, Debug, PartialEq)]
//! struct SetSize { x: i32, y: i32 }
//!
//! let bytes = clouds_codec::to_bytes(&SetSize { x: 5, y: 10 })?;
//! let back: SetSize = clouds_codec::from_bytes(&bytes)?;
//! assert_eq!(back, SetSize { x: 5, y: 10 });
//! # Ok(())
//! # }
//! ```
//!
//! Same value, same bytes: the format has no hash collections, because
//! `HashMap` and `HashSet` iterate in a per-process random order. Encoding
//! one does not build; a `BTreeMap` or `BTreeSet` does.
//!
//! ```compile_fail
//! let _ = clouds_codec::to_bytes(&std::collections::HashMap::<u8, u8>::new());
//! ```
//!
//! ```
//! let _ = clouds_codec::to_bytes(&std::collections::BTreeMap::<u8, u8>::new());
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

mod de;
mod error;
mod page;
mod ser;

pub use de::{from_bytes, Deserializer};
pub use error::{Error, Result};
pub use page::{from_bytes_shared, PageBytes};
pub use ser::{encode_into, to_bytes, Serializer};

/// Encode a value and decode it again; convenience for tests and docs.
///
/// # Errors
///
/// Returns any error produced while encoding or decoding.
pub fn roundtrip<T>(value: &T) -> Result<T>
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    from_bytes(&to_bytes(value)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Rect {
        x: i32,
        y: i32,
        label: String,
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    enum Shape {
        Unit,
        Tuple(u8, u16),
        Struct { r: f64 },
        Newtype(String),
    }

    #[test]
    fn primitives_roundtrip() {
        assert!(roundtrip(&true).unwrap());
        assert!(!roundtrip(&false).unwrap());
        assert_eq!(roundtrip(&0u8).unwrap(), 0u8);
        assert_eq!(roundtrip(&i64::MIN).unwrap(), i64::MIN);
        assert_eq!(roundtrip(&u64::MAX).unwrap(), u64::MAX);
        assert_eq!(roundtrip(&i128::MIN).unwrap(), i128::MIN);
        assert_eq!(roundtrip(&u128::MAX).unwrap(), u128::MAX);
        assert_eq!(roundtrip(&3.5f32).unwrap(), 3.5f32);
        assert_eq!(roundtrip(&-2.25f64).unwrap(), -2.25f64);
        assert_eq!(roundtrip(&'\u{1F600}').unwrap(), '\u{1F600}');
    }

    #[test]
    fn strings_and_bytes_roundtrip() {
        assert_eq!(roundtrip(&String::new()).unwrap(), String::new());
        assert_eq!(roundtrip(&"clouds".to_string()).unwrap(), "clouds");
        let v: Vec<u8> = vec![0, 1, 2, 255];
        assert_eq!(roundtrip(&v).unwrap(), v);
    }

    #[test]
    fn option_roundtrip() {
        assert_eq!(roundtrip(&Some(42u32)).unwrap(), Some(42u32));
        assert_eq!(roundtrip(&Option::<u32>::None).unwrap(), None);
        assert_eq!(
            roundtrip(&Some(Some("x".to_string()))).unwrap(),
            Some(Some("x".to_string()))
        );
    }

    #[test]
    fn struct_roundtrip() {
        let r = Rect {
            x: -7,
            y: 1 << 30,
            label: "rect01".into(),
        };
        assert_eq!(roundtrip(&r).unwrap(), r);
    }

    #[test]
    fn enum_roundtrip() {
        for s in [
            Shape::Unit,
            Shape::Tuple(3, 9),
            Shape::Struct { r: 2.0 },
            Shape::Newtype("n".into()),
        ] {
            let b = to_bytes(&s).unwrap();
            let d: Shape = from_bytes(&b).unwrap();
            assert_eq!(d, s);
        }
    }

    #[test]
    fn collections_roundtrip() {
        let v = vec![vec![1u32, 2], vec![], vec![3]];
        assert_eq!(roundtrip(&v).unwrap(), v);
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u8);
        m.insert("b".to_string(), 2u8);
        assert_eq!(roundtrip(&m).unwrap(), m);
        let t = (1u8, "two".to_string(), 3.0f64);
        assert_eq!(roundtrip(&t).unwrap(), t);
    }

    #[test]
    fn unit_roundtrip() {
        #[derive(Serialize, Deserialize, Debug, PartialEq)]
        struct U;
        roundtrip(&()).unwrap();
        assert_eq!(roundtrip(&U).unwrap(), U);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = to_bytes(&5u32).unwrap();
        b.push(0);
        let r: Result<u32> = from_bytes(&b);
        assert!(matches!(r, Err(Error::TrailingBytes(1))));
    }

    #[test]
    fn truncated_input_rejected() {
        let b = to_bytes(&"hello".to_string()).unwrap();
        let r: Result<String> = from_bytes(&b[..b.len() - 1]);
        assert!(matches!(r, Err(Error::Eof)));
    }

    #[test]
    fn invalid_bool_rejected() {
        let r: Result<bool> = from_bytes(&[2]);
        assert!(matches!(r, Err(Error::InvalidBool(2))));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // length 1, byte 0xFF
        let raw = [1, 0, 0, 0, 0, 0, 0, 0, 0xFF];
        let r: Result<String> = from_bytes(&raw);
        assert!(matches!(r, Err(Error::InvalidUtf8)));
    }

    #[test]
    fn invalid_char_rejected() {
        let raw = 0xD800u32.to_le_bytes();
        let r: Result<char> = from_bytes(&raw);
        assert!(matches!(r, Err(Error::InvalidChar(0xD800))));
    }

    #[test]
    fn oversized_length_rejected() {
        // Claims a 2^60-element Vec<u8>; must fail fast, not try to allocate.
        let mut raw = Vec::new();
        raw.extend_from_slice(&(1u64 << 60).to_le_bytes());
        let r: Result<Vec<u8>> = from_bytes(&raw);
        assert!(matches!(r, Err(Error::Eof) | Err(Error::LengthOverflow(_))));
    }

    #[test]
    fn deterministic_encoding() {
        let a = to_bytes(&Rect {
            x: 1,
            y: 2,
            label: "z".into(),
        })
        .unwrap();
        let b = to_bytes(&Rect {
            x: 1,
            y: 2,
            label: "z".into(),
        })
        .unwrap();
        assert_eq!(a, b);
    }
}
