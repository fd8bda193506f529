//! Property-based roundtrip tests for the Clouds codec: every encodable
//! value must decode back to itself, and decoding must never panic on
//! arbitrary byte soup.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Serialize, Deserialize, Debug, PartialEq, Clone)]
struct Nested {
    id: u64,
    name: String,
    tags: Vec<String>,
    coords: Option<(i32, i32)>,
    payload: Vec<u8>,
}

#[derive(Serialize, Deserialize, Debug, PartialEq, Clone)]
enum Mixed {
    A,
    B(u64),
    C { s: String, n: Nested },
    D(Vec<Mixed>),
}

fn nested_strategy() -> impl Strategy<Value = Nested> {
    (
        any::<u64>(),
        ".{0,16}",
        prop::collection::vec(".{0,8}", 0..4),
        prop::option::of((any::<i32>(), any::<i32>())),
        prop::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(id, name, tags, coords, payload)| Nested {
            id,
            name,
            tags,
            coords,
            payload,
        })
}

fn mixed_strategy() -> impl Strategy<Value = Mixed> {
    let leaf = prop_oneof![
        Just(Mixed::A),
        any::<u64>().prop_map(Mixed::B),
        (".{0,8}", nested_strategy()).prop_map(|(s, n)| Mixed::C { s, n }),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Mixed::D)
    })
}

proptest! {
    #[test]
    fn u64_roundtrip(v in any::<u64>()) {
        prop_assert_eq!(clouds_codec::roundtrip(&v).unwrap(), v);
    }

    #[test]
    fn i128_roundtrip(v in any::<i128>()) {
        prop_assert_eq!(clouds_codec::roundtrip(&v).unwrap(), v);
    }

    #[test]
    fn f64_roundtrip(v in any::<f64>()) {
        let back = clouds_codec::roundtrip(&v).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn string_roundtrip(v in ".{0,64}") {
        prop_assert_eq!(clouds_codec::roundtrip(&v).unwrap(), v);
    }

    #[test]
    fn bytes_roundtrip(v in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(clouds_codec::roundtrip(&v).unwrap(), v);
    }

    #[test]
    fn map_roundtrip(m in prop::collection::btree_map(any::<u32>(), ".{0,8}", 0..16)) {
        let back: BTreeMap<u32, String> = clouds_codec::roundtrip(&m).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn nested_struct_roundtrip(n in nested_strategy()) {
        prop_assert_eq!(clouds_codec::roundtrip(&n).unwrap(), n);
    }

    #[test]
    fn recursive_enum_roundtrip(m in mixed_strategy()) {
        prop_assert_eq!(clouds_codec::roundtrip(&m).unwrap(), m);
    }

    #[test]
    fn arbitrary_bytes_never_panic(raw in prop::collection::vec(any::<u8>(), 0..256)) {
        // Decoding garbage may fail, but must never panic or allocate absurdly.
        let _ = clouds_codec::from_bytes::<Nested>(&raw);
        let _ = clouds_codec::from_bytes::<Mixed>(&raw);
        let _ = clouds_codec::from_bytes::<Vec<String>>(&raw);
    }

    /// `encoded_len` is exact, checked here outright and not only by
    /// `to_bytes`' debug assertion, so the property holds in release.
    #[test]
    fn encoded_len_is_exact(m in mixed_strategy(), n in nested_strategy()) {
        prop_assert_eq!(clouds_codec::to_bytes(&m).unwrap().len(), m.encoded_len());
        prop_assert_eq!(clouds_codec::to_bytes(&n).unwrap().len(), n.encoded_len());
    }

    #[test]
    fn encoding_is_deterministic(n in nested_strategy()) {
        let a = clouds_codec::to_bytes(&n).unwrap();
        let b = clouds_codec::to_bytes(&n).unwrap();
        prop_assert_eq!(a, b);
    }
}
