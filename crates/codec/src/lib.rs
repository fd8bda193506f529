//! `clouds-codec` — the compact, self-contained binary format of Clouds
//! invocation parameters and protocol messages.
//!
//! In the Clouds object–thread model, data crosses object boundaries only
//! as *values*: "these arguments/results are strictly data; they may not be
//! addresses" (§2.2 of the paper). This crate provides the wire form of
//! those values: a deterministic little-endian encoding with
//! length-prefixed sequences, so a parameter block produced on one
//! (simulated) node can be decoded inside any other object's address space.
//! A type takes part by deriving `serde::Serialize` and
//! `serde::Deserialize`, the format's two traits, which follow these rules:
//!
//! * integers: little-endian, fixed width; `usize` as 64 bits
//! * `bool`: one byte, `0` or `1`
//! * `f32`/`f64`: IEEE-754 bits, little-endian
//! * `char`: `u32` scalar value
//! * strings / byte strings: `u64` length followed by the bytes
//! * `Option<T>`: tag byte (`0` = `None`, `1` = `Some`) then the value
//! * sequences / maps: `u64` length then elements
//! * structs / tuples / arrays: fields in order, no framing; `()` is nothing
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
//! a `HashMap` or `HashSet` iterates in an order that follows its
//! insertion history, not its contents. Encoding one does not build; a
//! `BTreeMap` does.
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

mod page;

pub use page::{from_bytes_shared, PageBytes};
pub use serde::Error;
use serde::{Deserialize, Reader, Serialize};

/// Alias for `std::result::Result` with [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Encode `value` into a fresh byte vector, allocated once at the
/// value's `serde::Serialize::encoded_len`.
///
/// # Errors
///
/// None: every value with a wire encoding encodes. The `Result` keeps
/// encoding and decoding call sites alike.
///
/// ```
/// let bytes = clouds_codec::to_bytes(&(1u16, true)).unwrap();
/// assert_eq!(bytes, vec![1, 0, 1]);
/// ```
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    // A 32-page batch is written into its final buffer, never grown
    // through a series of copies.
    let len = value.encoded_len();
    let mut out = Vec::with_capacity(len);
    value.serialize(&mut out);
    debug_assert_eq!(out.len(), len, "encoded_len disagrees with serialize");
    Ok(out)
}

/// Decode a value of type `T` from `bytes`, requiring the whole input to be
/// consumed.
///
/// # Errors
///
/// Fails on truncated input, trailing bytes, or malformed payloads (bad
/// UTF-8, invalid bool/char encodings, variant indices out of range).
///
/// ```
/// let v: (u16, bool) = clouds_codec::from_bytes(&[1, 0, 1]).unwrap();
/// assert_eq!(v, (1, true));
/// ```
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut r = Reader::new(bytes);
    let value = T::deserialize(&mut r)?;
    match r.remaining() {
        0 => Ok(value),
        rest => Err(Error::TrailingBytes(rest)),
    }
}

/// Encode a value and decode it again; convenience for tests and docs.
///
/// # Errors
///
/// Returns any error produced while decoding.
pub fn roundtrip<T: Serialize + Deserialize>(value: &T) -> Result<T> {
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

    /// The error decoding `raw` as a `T` must return.
    fn err<T: Deserialize + std::fmt::Debug>(raw: &[u8]) -> Error {
        from_bytes::<T>(raw).expect_err("malformed input decoded")
    }

    #[test]
    fn malformed_input_is_rejected() {
        let mut trailing = to_bytes(&5u32).unwrap();
        trailing.push(0);
        let hello = to_bytes(&"hello".to_string()).unwrap();
        let cases = [
            (
                "trailing byte",
                err::<u32>(&trailing),
                Error::TrailingBytes(1),
            ),
            (
                "truncated string",
                err::<String>(&hello[..hello.len() - 1]),
                Error::Eof,
            ),
            ("bool byte 2", err::<bool>(&[2]), Error::InvalidBool(2)),
            (
                "option tag 2",
                err::<Option<u8>>(&[2]),
                Error::InvalidBool(2),
            ),
            // Length 1, then the byte 0xFF.
            (
                "invalid UTF-8",
                err::<String>(&[1, 0, 0, 0, 0, 0, 0, 0, 0xFF]),
                Error::InvalidUtf8,
            ),
            (
                "surrogate char",
                err::<char>(&0xD800u32.to_le_bytes()),
                Error::InvalidChar(0xD800),
            ),
            // A claimed 2^60-element Vec<u8> must fail fast, not allocate.
            (
                "2^60-byte length",
                err::<Vec<u8>>(&(1u64 << 60).to_le_bytes()),
                Error::Eof,
            ),
            // Index 7 of a 4-variant enum: rejected, never a guess.
            (
                "enum index 7",
                err::<Shape>(&7u32.to_le_bytes()),
                Error::InvalidVariant(7),
            ),
        ];
        for (case, got, want) in cases {
            assert_eq!(got, want, "{case}");
        }
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
